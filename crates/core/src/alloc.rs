//! Steady-state memory allocation for a modulo schedule — the step the
//! paper leaves as "with the assumption that there is enough memory …
//! repeating the allocation of the original schedule for each iteration,
//! with a certain offset". A naive fixed offset breaks the bank/page rules
//! as soon as two iterations co-issue (same banks at the same cycle), so
//! this solves the allocation *properly*: unroll `n_iters` iterations at
//! the issue II, fix every start time, and post the straight-line model's
//! memory constraints (6)–(11) ([`crate::model`]) over the fixed starts as
//! a satisfaction problem over the slot variables only.

use crate::model::post_memory;
use crate::modulo::{unroll, ModuloResult};
use eit_arch::{ArchSpec, Schedule};
use eit_cp::{solve, Model, Phase, SearchConfig, SearchStats, SearchStatus, VarId, VarSel};
use eit_ir::Graph;
use std::time::Duration;

/// Tuning knobs for [`allocate_modulo_memory_with`].
#[derive(Clone, Debug)]
pub struct AllocOptions {
    /// Wall-clock budget for the slot-assignment search.
    pub timeout: Duration,
    /// Restart policy for the allocation search: fail-budgeted restarts
    /// with nogood recording by default, `None` for plain DFS.
    pub restarts: Option<eit_cp::RestartConfig>,
}

impl Default for AllocOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(60),
            restarts: Some(eit_cp::RestartConfig::default()),
        }
    }
}

/// Outcome of the slot-assignment satisfaction solve.
#[derive(Debug)]
pub enum AllocOutcome {
    /// Unrolled graph + complete schedule (starts and slots).
    Allocated(Graph, Schedule),
    /// Proven: the slot budget cannot hold the steady-state working set.
    Infeasible,
    /// Budget exhausted before a solution or a proof either way.
    Unknown,
}

/// The unrolled graph and a complete schedule (starts + slots) for
/// `n_iters` iterations of `r`, or a proof that the slot budget cannot
/// hold the steady-state working set, or [`AllocOutcome::Unknown`] when
/// the budget ran out first. The allocation CSP has slot variables only
/// (starts are constants) and no objective.
pub fn allocate_modulo_memory_with(
    g: &Graph,
    spec: &ArchSpec,
    r: &ModuloResult,
    n_iters: usize,
    opts: &AllocOptions,
) -> AllocOutcome {
    allocate_with_stats(g, spec, r, n_iters, opts).0
}

/// [`allocate_modulo_memory_with`] and the statistics of its search
/// (default statistics when no search ran).
pub(crate) fn allocate_with_stats(
    g: &Graph,
    spec: &ArchSpec,
    r: &ModuloResult,
    n_iters: usize,
    opts: &AllocOptions,
) -> (AllocOutcome, SearchStats) {
    // A partial start map (e.g. a hand-built or truncated result from a
    // foreign decode path) must degrade to a structured no-answer, never
    // a panic mid-build.
    if g.ids().any(|n| !r.s.contains_key(&n)) {
        return (AllocOutcome::Unknown, SearchStats::default());
    }
    let (big, mut sched) = unroll(g, spec, r, n_iters);

    let mut m = Model::new();
    let start: Vec<VarId> = big.ids().map(|n| m.new_const(sched.start_of(n))).collect();
    let slot = post_memory(&mut m, &big, spec, &start, sched.makespan.max(1));

    let cfg = SearchConfig {
        phases: vec![Phase::new(
            slot.iter().flatten().copied().collect(),
            VarSel::FirstFail,
        )],
        timeout: Some(opts.timeout),
        restarts: opts.restarts,
        ..Default::default()
    };
    let res = solve(&mut m, &cfg);
    let out = match (res.status, res.best) {
        (SearchStatus::Optimal | SearchStatus::Feasible, Some(sol)) => {
            for (n, v) in slot.iter().enumerate() {
                sched.slot[n] = v.map(|v| sol.value(v) as u32);
            }
            AllocOutcome::Allocated(big, sched)
        }
        (SearchStatus::Infeasible, _) => AllocOutcome::Infeasible,
        _ => AllocOutcome::Unknown,
    };
    (out, res.stats)
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use crate::modulo::{modulo_schedule, ModuloOptions};
    use eit_dsl::Ctx;

    #[test]
    fn modulo_allocation_passes_full_memory_validation() {
        // Two-type kernel pipelined, then allocated — validated with the
        // memory checks ON (unlike validate_modulo, which skips them).
        let ctx = Ctx::new("k");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        for _ in 0..2 {
            let x = a.v_add(&b);
            let _ = x.v_mul(&b);
        }
        let g = ctx.finish();
        let spec = ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let AllocOutcome::Allocated(big, sched) =
            allocate_modulo_memory_with(&g, &spec, &r, 4, &AllocOptions::default())
        else {
            panic!("steady-state allocation must fit 64 slots");
        };
        let v = eit_arch::validate_structure(&big, &spec, &sched);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn partial_schedule_map_yields_unknown_not_panic() {
        // Shrunk reproducer for the decode-path hardening: a ModuloResult
        // whose `s` map is missing nodes (as a buggy or interrupted
        // backend could produce) used to panic inside the allocator —
        // first at `r.s[&n]` during replication, then at the
        // slot/line/page `.unwrap()`s while building memory constraints.
        // A partial assignment must surface structurally as Unknown.
        let ctx = Ctx::new("k");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _ = x.v_mul(&b);
        let g = ctx.finish();
        let spec = ArchSpec::eit();
        let mut r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        // Drop one node from the start map to simulate a truncated
        // decode.
        let victim = g.ids().last().unwrap();
        r.s.remove(&victim);
        let out = allocate_modulo_memory_with(&g, &spec, &r, 4, &AllocOptions::default());
        assert!(
            matches!(out, AllocOutcome::Unknown),
            "partial assignment must be Unknown, got a different outcome"
        );
    }

    /// The slot vectors of perfbench's four allocating steady-state
    /// budgets (4 iterations, default restarts, the CP exclude-reconfig
    /// schedule of the merged kernel), as FNV-1a 64 over each slot as a
    /// little-endian u32 (`u32::MAX` for a node without one). A change to
    /// propagation strength, propagator order or the search heuristics
    /// moves them; a pure speed change must not.
    #[test]
    fn steady_state_slot_vectors_are_pinned() {
        let opts = AllocOptions::default();
        for (name, slots, want) in [
            ("fir", 64, 0x98aa_51dc_01c5_1e2c_u64),
            ("arf", 64, 0x4ca4_e474_e84f_e0a5),
            ("qrd", 48, 0x859e_b7e2_a292_62cd),
            ("detector", 40, 0xad3e_ce8b_5528_fbc2),
        ] {
            let mut g = eit_apps::by_name(name).unwrap().graph;
            g.validate().unwrap();
            eit_ir::merge_pipeline_ops(&mut g);
            let r = modulo_schedule(&g, &ArchSpec::eit(), &ModuloOptions::default()).unwrap();
            let spec = ArchSpec::eit().with_slots(slots);
            let AllocOutcome::Allocated(_, sched) =
                allocate_modulo_memory_with(&g, &spec, &r, 4, &opts)
            else {
                panic!("{name}@{slots} must allocate");
            };
            let mut h = eit_cp::Fnv64::new();
            for s in &sched.slot {
                h.write(&s.unwrap_or(u32::MAX).to_le_bytes());
            }
            assert_eq!(h.finish(), want, "{name}@{slots}: slot vector moved");
        }
    }

    /// The (nodes, fails, restarts) of the allocation searches behind
    /// the pinned slot vectors above. Like the vectors, they move only
    /// with propagation strength, propagator order or the heuristics.
    #[test]
    fn steady_state_search_counts_are_pinned() {
        let opts = AllocOptions::default();
        for (name, slots, want) in [
            ("fir", 64, (175, 453, 1)),
            ("arf", 64, (209, 20, 0)),
            ("qrd", 48, (160, 0, 0)),
            ("detector", 40, (169, 91, 0)),
        ] {
            let mut g = eit_apps::by_name(name).unwrap().graph;
            g.validate().unwrap();
            eit_ir::merge_pipeline_ops(&mut g);
            let r = modulo_schedule(&g, &ArchSpec::eit(), &ModuloOptions::default()).unwrap();
            let spec = ArchSpec::eit().with_slots(slots);
            let (out, st) = allocate_with_stats(&g, &spec, &r, 4, &opts);
            assert!(matches!(out, AllocOutcome::Allocated(..)), "{name}@{slots}");
            assert_eq!(
                (st.nodes, st.fails, st.restarts),
                want,
                "{name}@{slots}: search counts moved"
            );
        }
    }

    /// The default options are the restarting search: fir's steady state
    /// at 64 slots, which plain DFS leaves undecided after 10 s,
    /// allocates well within 2 s.
    #[test]
    fn default_options_allocate_fir_at_64_slots() {
        let mut g = eit_apps::by_name("fir").unwrap().graph;
        g.validate().unwrap();
        eit_ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit().with_slots(64);
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let opts = AllocOptions {
            timeout: Duration::from_secs(2),
            ..Default::default()
        };
        let out = allocate_modulo_memory_with(&g, &spec, &r, 4, &opts);
        assert!(
            matches!(out, AllocOutcome::Allocated(..)),
            "fir@64 must allocate, got {out:?}"
        );
    }

    #[test]
    fn tiny_memory_rejects_steady_state() {
        let ctx = Ctx::new("k");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _ = x.v_mul(&b);
        let g = ctx.finish();
        let spec = ArchSpec::eit().with_slots(2);
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        // 4 in-flight iterations × (2 inputs + intermediates) >> 2 slots.
        assert!(matches!(
            allocate_modulo_memory_with(&g, &spec, &r, 4, &AllocOptions::default()),
            AllocOutcome::Infeasible
        ));
    }
}
