//! The combined scheduling + memory-allocation constraint model
//! (§3.3–3.5 of the paper) and its solution procedure.
//!
//! Constraint-by-constraint mapping to the paper, with the helper that
//! posts each row. The helpers are shared: the modulo probe
//! ([`crate::modulo::build_probe`]) posts (1)/(4) and (3) through them,
//! and the steady-state allocator ([`crate::alloc`]) posts (6)–(11)
//! through `post_memory` over constant starts.
//!
//! | Paper | Here | Posted by |
//! |---|---|---|
//! | (1) `s_i + l_i ≤ s_j` on edges | [`eit_cp::Model::precedence`] | `post_precedences` |
//! | (2) lane `Cumulative` | one `Cumulative` over vector+matrix ops, r∈{1,4}, cap 4; two more (cap 1) for the accelerator and index/merge units | [`build_model`] |
//! | (3) `s_i ≠ s_j` for differently-configured vector ops | pairwise `neq` | `post_config_separation` |
//! | (4) data start = producer completion | `eq_offset` | `post_precedences` |
//! | (5) makespan objective | completion vars + `max_of`, minimized | [`build_model`] |
//! | (6) slot/line/page channeling | `slot_geometry` | `post_memory` |
//! | (7) same-op input compatibility | `page_line_implies` | `post_memory` |
//! | (8)/(9) co-scheduled input/output compatibility | `cond_same_time` over co-issuable op pairs; over two fixed starts, nothing (unequal) or `page_line_implies` (equal) | `post_memory` |
//! | (10) lifetimes | `life ≥ s_c − s_d` per consumer (`linear_leq`), `life ≥ 1`; only lower bounds, since `Diff2` prunes on the minimum; a constant when every endpoint is fixed | `post_memory` |
//! | (11) slot reuse | `Diff2` over `(s, slot, life, 1)` rectangles | `post_memory` |
//! | §3.5 search | three [`Phase`]s: op starts → data starts → slots | [`build_model`] |

use crate::obs::PhaseTimings;
use eit_arch::{ArchSpec, Schedule};
use eit_cp::props::cumulative::CumTask;
use eit_cp::props::diff2::Rect;
use eit_cp::props::disjunctive::DisjTask;
use eit_cp::props::reify::GuardedPair;
use eit_cp::trace::TraceHandle;
use eit_cp::{
    minimize, Model, Phase, PropProfile, SearchConfig, SearchStats, SearchStatus, VarId, VarSel,
};
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::time::{Duration, Instant};

/// Options for [`schedule`].
#[derive(Clone, Debug)]
pub struct SchedulerOptions {
    /// Include the memory-allocation constraints (6)–(11). Without them
    /// the model is pure scheduling — the paper's manual-baseline setting.
    pub memory: bool,
    /// Solver wall-clock budget.
    pub timeout: Option<Duration>,
    /// Structured search-event sink, forwarded to the solver.
    pub trace: Option<TraceHandle>,
    /// Emit a [`eit_cp::trace::SearchEvent::StateHash`] digest of the
    /// store every N search nodes (`None`/0 = off); only meaningful with
    /// a trace attached.
    pub state_hash_every: Option<u64>,
    /// Per-propagator profiling with wall-time attribution; the profile
    /// comes back in [`ScheduleResult::propagator_profile`].
    pub profile: bool,
    /// Cooperative cancellation (service deadlines).
    /// A deadline-bearing token ([`eit_cp::CancelToken::with_deadline`])
    /// enforces a per-request wall-clock budget without a watchdog
    /// thread. Excluded from [`crate::rr::SolveKey::schedule`] like
    /// `timeout`: budgets shape *when* a run stops, not its trajectory.
    pub cancel: Option<eit_cp::CancelToken>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            memory: true,
            timeout: Some(Duration::from_secs(600)), // the paper's 10 min
            trace: None,
            state_hash_every: None,
            profile: false,
            cancel: None,
        }
    }
}

impl SchedulerOptions {
    /// The branch-and-bound config for `phases` under these options: the
    /// one [`schedule`] runs.
    pub fn search_config(&self, phases: Vec<Phase>) -> SearchConfig {
        SearchConfig {
            phases,
            timeout: self.timeout,
            trace: self.trace.clone(),
            state_hash_every: self.state_hash_every,
            cancel: self.cancel.clone(),
            ..Default::default()
        }
    }
}

/// The constructed CP model with its variable handles.
pub struct BuiltModel {
    pub model: Model,
    /// Start variable per node.
    pub start: Vec<VarId>,
    /// Slot variable per node (`Some` for vector data when memory is on).
    pub slot: Vec<Option<VarId>>,
    /// Makespan objective.
    pub objective: VarId,
    /// The §3.5 three-phase search.
    pub phases: Vec<Phase>,
    pub horizon: i32,
    /// Build-time spans: `model_build` (total) and the nested
    /// `longest_path` preprocessing.
    pub timings: PhaseTimings,
}

/// Largest serial horizon the models accept: half the `i32` range, so
/// the sums built on it (makespan, lifetimes, `ii·k + t`) still fit.
pub const MAX_HORIZON: i32 = i32::MAX / 2;

/// A safe horizon: every op executed serially. Saturates at
/// [`MAX_HORIZON`]; the entry points refuse such graphs first with
/// [`checked_horizon`].
pub fn serial_horizon(g: &Graph, spec: &ArchSpec) -> i32 {
    checked_horizon(g, spec).unwrap_or(MAX_HORIZON)
}

/// The serial horizon, or why it does not fit the solver's domains.
pub fn checked_horizon(g: &Graph, spec: &ArchSpec) -> Result<i32, String> {
    let h: i64 = g
        .ids()
        .map(|i| {
            spec.latency(&g.node(i).kind)
                .max(spec.duration(&g.node(i).kind)) as i64
        })
        .sum();
    if h > MAX_HORIZON as i64 {
        return Err(format!(
            "serial horizon of {h} cycles exceeds the solver's limit of {MAX_HORIZON}"
        ));
    }
    Ok((h as i32).max(1))
}

/// Build the paper's model for `g` on `spec`.
pub fn build_model(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> BuiltModel {
    let build_start = Instant::now();
    let mut timings = PhaseTimings::new();
    let horizon = serial_horizon(g, spec);
    let mut m = Model::new();

    // --- start variables ---------------------------------------------------
    let start: Vec<VarId> = g
        .ids()
        .map(|i| {
            let cat = g.category(i);
            if cat.is_data() && g.producer(i).is_none() {
                // Application inputs are ready from the start (§3.3.3).
                m.new_const(0)
            } else {
                m.new_var_named(0, horizon, &format!("s_{}", g.node(i).name))
            }
        })
        .collect();

    let latency = |i: NodeId| spec.latency(&g.node(i).kind);
    let duration = |i: NodeId| spec.duration(&g.node(i).kind);

    // Longest-path preprocessing: earliest starts tighten every domain's
    // lower bound, and the critical path is a sound lower bound on the
    // makespan (these are implied by (1)/(4) but save the solver from
    // rediscovering them at every node).
    let es = timings.time("longest_path", || g.earliest_starts(&|i| latency(i)));
    for i in g.ids() {
        m.store
            .remove_below(start[i.idx()], es[i.idx()])
            .expect("earliest start exceeds horizon");
    }
    let critical_path = g.ids().map(|i| es[i.idx()] + latency(i)).max().unwrap_or(0);

    post_precedences(&mut m, g, spec, &start);

    // (2) one resource constraint per functional unit, in table order.
    // On the classic table this posts exactly the paper's three: the lane
    // Cumulative (vector req 1, matrix req = matrix width) and two
    // Disjunctives for the accelerator and the index/merge unit. A
    // replicated unit (count > 1) becomes a Cumulative with the op's
    // resolved width as its resource requirement.
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        let is_vcore = classes
            .iter()
            .any(|c| matches!(c, OpClass::Vector | OpClass::Matrix));
        let unit_ops: Vec<NodeId> = g
            .ids()
            .filter(|&i| OpClass::of(&g.node(i).kind).is_some_and(|c| classes.contains(&c)))
            .collect();
        if !is_vcore && unit_ops.is_empty() {
            continue;
        }
        if !is_vcore && unit.count == 1 {
            m.disjunctive(
                unit_ops
                    .iter()
                    .map(|&i| DisjTask {
                        start: start[i.idx()],
                        dur: duration(i),
                    })
                    .collect(),
            );
        } else {
            m.cumulative(
                unit_ops
                    .iter()
                    .map(|&i| CumTask {
                        start: start[i.idx()],
                        dur: duration(i),
                        req: spec
                            .units
                            .class_width(OpClass::of(&g.node(i).kind).unwrap())
                            .unwrap_or(1) as i32,
                    })
                    .collect(),
                unit.count as i32,
            );
        }
    }

    post_config_separation(&mut m, g, |i| start[i.idx()]);

    // (5) makespan = max completion over op nodes.
    let objective = m.new_var_named(critical_path, horizon + spec.pipeline_depth(), "makespan");
    let completions: Vec<VarId> = g
        .ids()
        .filter(|&i| g.category(i).is_op())
        .map(|i| {
            let c = m.new_var(0, horizon + spec.pipeline_depth());
            m.eq_offset(start[i.idx()], latency(i), c);
            c
        })
        .collect();
    m.max_of(completions, objective);

    let slot = if opts.memory {
        post_memory(&mut m, g, spec, &start, horizon + spec.pipeline_depth())
    } else {
        vec![None; g.len()]
    };

    // --- §3.5 three-phase search --------------------------------------------
    let op_starts: Vec<VarId> = g
        .ids()
        .filter(|&i| g.category(i).is_op())
        .map(|i| start[i.idx()])
        .collect();
    let data_starts: Vec<VarId> = g
        .ids()
        .filter(|&i| g.category(i).is_data())
        .map(|i| start[i.idx()])
        .collect();
    let slots: Vec<VarId> = g.ids().filter_map(|i| slot[i.idx()]).collect();
    let mut phases = vec![
        Phase::new(op_starts, VarSel::SmallestMin),
        Phase::new(data_starts, VarSel::SmallestMin),
    ];
    if !slots.is_empty() {
        phases.push(Phase::new(slots, VarSel::FirstFail));
    }

    timings.push("model_build", build_start.elapsed());

    BuiltModel {
        model: m,
        start,
        slot,
        objective,
        phases,
        horizon,
        timings,
    }
}

/// (1) precedence on every edge and (4) exact data start, over the start
/// variables `s` (absolute starts, also in the modulo probe).
pub(crate) fn post_precedences(m: &mut Model, g: &Graph, spec: &ArchSpec, s: &[VarId]) {
    for (from, to) in g.edges() {
        let latency = spec.latency(&g.node(from).kind);
        if g.category(from).is_op() && g.category(to).is_data() {
            m.eq_offset(s[from.idx()], latency, s[to.idx()]);
        } else {
            m.precedence(s[from.idx()], latency, s[to.idx()]);
        }
    }
}

/// The configuration a vector-core op needs the core to hold.
fn config(g: &Graph, op: NodeId) -> VectorConfig {
    g.opcode(op)
        .and_then(|o| o.config())
        .expect("every vector-core opcode has a configuration")
}

/// (3) one configuration per cycle: differently-configured vector ops
/// must not share `slot_of` — a start cycle in the straight-line model, a
/// window slot in the modulo probe. (Matrix ops are kept apart from every
/// other vector-core op by the lane `Cumulative`: a matrix op fills the
/// core.)
pub(crate) fn post_config_separation(m: &mut Model, g: &Graph, slot_of: impl Fn(NodeId) -> VarId) {
    let vector_ops: Vec<(NodeId, VectorConfig)> = g
        .ids()
        .filter(|&i| g.category(i) == Category::VectorOp)
        .map(|i| (i, config(g, i)))
        .collect();
    for (a, &(i, ci)) in vector_ops.iter().enumerate() {
        for &(j, cj) in &vector_ops[a + 1..] {
            if ci != cj {
                m.neq(slot_of(i), slot_of(j));
            }
        }
    }
}

/// The memory allocation constraints (6)–(11) over the start variables
/// `start`; returns the slot variable of every vector datum. A start
/// already fixed when this runs (every start, in the steady-state
/// allocator) folds to a constant: two fixed vector ops either never
/// co-issue (no (8)/(9) constraint) or always do (`page_line_implies`
/// directly), and a lifetime whose endpoints are all fixed becomes a
/// constant rectangle length. `life_max` bounds the variable lifetimes.
pub(crate) fn post_memory(
    m: &mut Model,
    g: &Graph,
    spec: &ArchSpec,
    start: &[VarId],
    life_max: i32,
) -> Vec<Option<VarId>> {
    let vdata: Vec<NodeId> = g
        .ids()
        .filter(|&i| g.category(i) == Category::VectorData)
        .collect();

    let n_slots = spec.n_slots() as i32;
    let mut slot = vec![None; g.len()];
    let mut page_line = vec![None; g.len()];
    for &d in &vdata {
        let s = m.new_var_named(0, n_slots - 1, &format!("slot_{}", g.node(d).name));
        let l = m.new_var(0, spec.slots_per_bank as i32 - 1);
        let p = m.new_var(0, spec.n_pages() as i32 - 1);
        // (6)
        m.slot_geometry(s, l, p, spec.n_banks as i32, spec.page_size as i32);
        slot[d.idx()] = Some(s);
        page_line[d.idx()] = Some((p, l));
    }
    let geo = |d: NodeId| page_line[d.idx()].expect("every vector datum has a page and line");
    let fixed = |m: &Model, v: VarId| m.store.dom(v).value();

    // The vector inputs and outputs of every vector-core op.
    let vector_data = |ds: &[NodeId]| -> Vec<NodeId> {
        ds.iter()
            .copied()
            .filter(|&d| g.category(d) == Category::VectorData)
            .collect()
    };
    let vec_core_io: Vec<(NodeId, [Vec<NodeId>; 2])> = g
        .ids()
        .filter(|&i| matches!(g.category(i), Category::VectorOp | Category::MatrixOp))
        .map(|op| (op, [vector_data(g.preds(op)), vector_data(g.succs(op))]))
        .collect();

    // (7): inputs of one vector-core op; plus the outputs of one matrix
    // op, which are written simultaneously.
    for grp in vec_core_io.iter().flat_map(|(_, io)| io) {
        for (x, &d) in grp.iter().enumerate() {
            for &e in &grp[x + 1..] {
                let ((page_d, line_d), (page_e, line_e)) = (geo(d), geo(e));
                m.page_line_implies(page_d, line_d, page_e, line_e);
            }
        }
    }

    // (8)/(9): pairs of vector ops that may co-issue (same config —
    // different configs are already start-separated by (3)).
    let vector_ops: Vec<_> = vec_core_io
        .iter()
        .filter(|(op, _)| g.category(*op) == Category::VectorOp)
        .map(|(op, io)| {
            let s = start[op.idx()];
            (s, fixed(m, s), config(g, *op), io)
        })
        .collect();
    for (a, &(si, ti, ci, io_i)) in vector_ops.iter().enumerate() {
        for &(sj, tj, cj, io_j) in &vector_ops[a + 1..] {
            let both_fixed = ti.zip(tj);
            if both_fixed.is_some_and(|(ti, tj)| ti != tj) || ci != cj {
                continue;
            }
            let mut pairs = Vec::new();
            for (xs, ys) in io_i.iter().zip(io_j) {
                for &d in xs {
                    for &e in ys {
                        if d != e {
                            let ((page_d, line_d), (page_e, line_e)) = (geo(d), geo(e));
                            pairs.push(GuardedPair {
                                page_d,
                                line_d,
                                page_e,
                                line_e,
                            });
                        }
                    }
                }
            }
            if both_fixed.is_some() {
                for p in pairs {
                    m.page_line_implies(p.page_d, p.line_d, p.page_e, p.line_e);
                }
            } else if !pairs.is_empty() {
                m.cond_same_time(si, sj, pairs);
            }
        }
    }

    // (10)/(11): lifetimes and slot reuse as non-overlapping rectangles.
    //
    // The paper's (10) sets life = max(consumer starts) − s. Taken
    // literally, a datum consumed at its own start cycle gets a
    // zero-length rectangle and silently drops out of Diff2 even
    // though it occupies its slot at the read instant; we therefore
    // clamp lifetimes to ≥ 1 (consumers read at their start cycle, and
    // reads precede writes within a cycle, so rectangles *touching* is
    // still hazard-free). Only lower bounds are posted: Diff2 prunes
    // on the minimum length, which equals the true lifetime.
    let mut rects = Vec::with_capacity(vdata.len());
    let one = m.new_const(1);
    for &d in &vdata {
        let sd = start[d.idx()];
        let folded = fixed(m, sd).and_then(|s0| {
            g.succs(d)
                .iter()
                .try_fold(1, |life, &c| Some(life.max(fixed(m, start[c.idx()])? - s0)))
        });
        let life = match folded {
            Some(life) => m.new_const(life),
            None => {
                let life = m.new_var_named(1, life_max, "life");
                for &c in g.succs(d) {
                    // life ≥ s_c − s_d
                    m.linear_leq(vec![(1, start[c.idx()]), (-1, sd), (-1, life)], 0);
                }
                life
            }
        };
        rects.push(Rect {
            origin: [sd, slot[d.idx()].unwrap()],
            len: [life, one],
        });
    }
    m.diff2(rects);
    slot
}

/// Result of a scheduling run.
#[derive(Debug)]
pub struct ScheduleResult {
    pub schedule: Option<Schedule>,
    pub status: SearchStatus,
    pub stats: SearchStats,
    pub makespan: Option<i32>,
    /// Wall-clock spans: model build, longest-path, search, extraction.
    pub timings: PhaseTimings,
    /// Per-propagator accounting (aggregated by name, sorted by cost);
    /// empty unless [`SchedulerOptions::profile`] was set.
    pub propagator_profile: Vec<PropProfile>,
    /// Domain-representation histogram of the model as built, before
    /// search: `(bitset_vars, interval_vars)`.
    pub domain_reps: (usize, usize),
}

/// Extract a [`Schedule`] from a solver solution.
fn extract(g: &Graph, spec: &ArchSpec, built: &BuiltModel, sol: &eit_cp::Solution) -> Schedule {
    let mut s = Schedule::new(g.len());
    for i in g.ids() {
        s.start[i.idx()] = sol.value(built.start[i.idx()]);
        s.slot[i.idx()] = built.slot[i.idx()].map(|v| sol.value(v) as u32);
    }
    s.compute_makespan(g, &spec.latency_of(g));
    s
}

/// Schedule `g` on `spec`: build the model, run the three-phase
/// branch-and-bound, extract the best schedule.
pub fn schedule(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> ScheduleResult {
    let mut built = build_model(g, spec, opts);
    let domain_reps = built.model.store.domain_rep_counts();
    let mut timings = PhaseTimings::new();
    timings.extend(&built.timings);
    if opts.profile {
        built.model.engine.enable_profiling();
    }
    let cfg = opts.search_config(built.phases.clone());
    let r = timings.time("search", || {
        minimize(&mut built.model, built.objective, &cfg)
    });
    let schedule = timings.time("extract", || {
        r.best.as_ref().map(|sol| extract(g, spec, &built, sol))
    });
    let propagator_profile = if opts.profile {
        built.model.engine.profile_by_name()
    } else {
        Vec::new()
    };

    ScheduleResult {
        makespan: r.objective,
        schedule,
        status: r.status,
        stats: r.stats,
        timings,
        propagator_profile,
        domain_reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_arch::sim::validate_structure;
    use eit_dsl::Ctx;
    use eit_ir::merge_pipeline_ops;

    fn matmul_graph() -> Graph {
        eit_apps::by_name("matmul").unwrap().graph
    }

    #[test]
    fn matmul_graph_matches_paper_size() {
        let g = matmul_graph();
        g.validate().unwrap();
        assert_eq!(g.len(), 44); // |V| = 44 (fig. 3 / Table 3)
        assert_eq!(g.edge_count(), 68); // |E| = 68
    }

    #[test]
    fn schedules_matmul_with_memory_and_simulator_agrees() {
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let r = schedule(&g, &spec, &opts);
        let s = r.schedule.expect("matmul must schedule");
        let v = validate_structure(&g, &spec, &s);
        assert!(v.is_empty(), "violations: {v:?}");
        // 16 dot products on 4 lanes, one config: issue takes 4 cycles,
        // merges bound the tail. The optimum is small but ≥ issue+pipeline.
        assert!(s.makespan >= 4 + 7, "makespan {}", s.makespan);
    }

    #[test]
    fn memoryless_schedule_is_no_longer_than_with_memory() {
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let with_mem = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        let without = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                memory: false,
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        assert!(without.makespan.unwrap() <= with_mem.makespan.unwrap());
    }

    #[test]
    fn tiny_chain_is_exactly_latency_bound() {
        // a→add→b→mul→c : two dependent vector ops = 14 cc + issue.
        let ctx = Ctx::new("chain");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([1.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _y = x.v_mul(&b);
        let g = ctx.finish();
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        assert_eq!(r.status, SearchStatus::Optimal);
        assert_eq!(r.makespan, Some(14));
    }

    #[test]
    fn expired_deadline_returns_quickly_without_a_schedule() {
        // A deadline in the past cancels the search at the first budget
        // check — the call must come back immediately (not after the
        // 600 s default timeout) and without claiming any result.
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let token = eit_cp::CancelToken::with_deadline(std::time::Instant::now());
        let t0 = std::time::Instant::now();
        let r = schedule(
            &g,
            &ArchSpec::eit(),
            &SchedulerOptions {
                cancel: Some(token),
                ..Default::default()
            },
        );
        assert!(r.schedule.is_none());
        assert_eq!(r.status, SearchStatus::Unknown);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancelled solve took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        // Two simultaneous inputs + outputs cannot fit in 1 slot.
        let ctx = Ctx::new("too-small");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([1.0, 1.0, 0.0, 0.0]);
        let _ = a.v_add(&b);
        let g = ctx.finish();
        let mut spec = ArchSpec::eit();
        spec.n_banks = 1;
        spec.page_size = 1;
        spec.slots_per_bank = 1; // a single slot
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        assert_eq!(r.status, SearchStatus::Infeasible);
    }

    #[test]
    fn fixed_start_memory_model_accepts_the_schedulers_answers() {
        // The steady-state allocator posts (6)–(11) over constant starts;
        // every straight-line answer, starts and slots fixed, must be a
        // root fixpoint of that folded model.
        let spec = ArchSpec::eit();
        for name in ["qrd", "arf", "matmul", "fir", "detector", "blockmm"] {
            let mut g = eit_apps::by_name(name).unwrap().graph;
            merge_pipeline_ops(&mut g);
            let s = schedule(&g, &spec, &SchedulerOptions::default())
                .schedule
                .unwrap_or_else(|| panic!("{name} must schedule"));
            let mut m = Model::new();
            let start: Vec<VarId> = g.ids().map(|n| m.new_const(s.start_of(n))).collect();
            let slot = post_memory(&mut m, &g, &spec, &start, s.makespan.max(1));
            for n in g.ids() {
                if let Some(v) = slot[n.idx()] {
                    m.store.fix(v, s.slot_of(n).unwrap() as i32).unwrap();
                }
            }
            assert!(
                m.engine.fixpoint(&mut m.store).is_ok(),
                "{name}: the folded memory model rejects the schedule"
            );
        }
    }
}
