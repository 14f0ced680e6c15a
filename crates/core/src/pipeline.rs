//! The complete fig. 2 toolchain behind one entry point:
//! validate → CSE → pipeline-merge → CP schedule (± memory) →
//! configuration-stream code generation, with per-stage statistics.
//!
//! ```
//! use eit_core::pipeline::{compile, CompileOptions};
//! use eit_arch::ArchSpec;
//! use eit_dsl::Ctx;
//!
//! let ctx = Ctx::new("demo");
//! let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
//! let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
//! let _ = a.v_add(&b).v_dotp(&b).sqrt();
//!
//! let out = compile(ctx.finish(), &ArchSpec::eit(), &CompileOptions::default())
//!     .expect("kernel compiles");
//! assert!(out.schedule.makespan > 0);
//! assert!(out.program.listing.contains("configuration stream"));
//! ```

use crate::codegen::{generate, Program};
use crate::model::{schedule, SchedulerOptions};
use crate::obs::PhaseTimings;
use eit_arch::{ArchSpec, Schedule};
use eit_cp::{PropProfile, SearchStats, SearchStatus};
use eit_ir::{CseStats, Graph, IrError, MergeStats};
use std::fmt;

/// Options for [`compile`].
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Fold identical operations (CSE) before scheduling.
    pub cse: bool,
    /// Fold pre/post-processing chains (the fig. 6 merge pass).
    pub merge: bool,
    /// Scheduler settings (memory model, timeout, tracing…).
    pub scheduler: SchedulerOptions,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            cse: true,
            merge: true,
            scheduler: SchedulerOptions::default(),
        }
    }
}

/// Why a compilation did not produce machine code.
#[derive(Debug)]
pub enum CompileError {
    InvalidIr(IrError),
    /// The CP model was proven infeasible (e.g. memory below the
    /// kernel's live-set floor).
    Infeasible,
    /// The solver budget expired without a schedule.
    Timeout,
    /// The graph's serial horizon on this machine does not fit the
    /// solver's domains.
    TooLarge(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidIr(e) => write!(f, "invalid IR: {e}"),
            CompileError::Infeasible => write!(f, "proven infeasible on this machine"),
            CompileError::Timeout => write!(f, "solver budget expired without a schedule"),
            CompileError::TooLarge(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Everything the toolchain produces for one kernel.
#[derive(Debug)]
pub struct Compiled {
    /// The IR actually scheduled (after the enabled passes).
    pub graph: Graph,
    pub schedule: Schedule,
    pub program: Program,
    pub status: SearchStatus,
    pub cse: CseStats,
    pub merge: MergeStats,
    pub solver: SearchStats,
    /// Wall-clock spans across all stages (validate, passes, the
    /// scheduler's own spans, codegen).
    pub timings: PhaseTimings,
    /// Per-propagator accounting; empty unless
    /// [`SchedulerOptions::profile`] was set.
    pub propagator_profile: Vec<PropProfile>,
    /// Domain-representation histogram `(bitset_vars, interval_vars)`
    /// of the scheduling model as built, before search.
    pub domain_reps: (usize, usize),
}

/// Run the full toolchain on `graph`.
pub fn compile(
    mut graph: Graph,
    spec: &ArchSpec,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let mut timings = PhaseTimings::new();
    timings
        .time("validate", || graph.validate())
        .map_err(CompileError::InvalidIr)?;

    let cse = if opts.cse {
        timings.time("cse", || {
            eit_ir::eliminate_common_subexpressions(&mut graph)
        })
    } else {
        CseStats::default()
    };
    let merge = if opts.merge {
        timings.time("merge", || eit_ir::merge_pipeline_ops(&mut graph))
    } else {
        MergeStats::default()
    };
    debug_assert!(graph.validate().is_ok());
    crate::model::checked_horizon(&graph, spec).map_err(CompileError::TooLarge)?;

    let result = schedule(&graph, spec, &opts.scheduler);
    timings.extend(&result.timings);
    let sched = match (result.schedule, result.status) {
        (Some(s), _) => s,
        (None, SearchStatus::Infeasible) => return Err(CompileError::Infeasible),
        (None, _) => return Err(CompileError::Timeout),
    };
    let program = timings.time("codegen", || generate(&graph, spec, &sched));

    Ok(Compiled {
        graph,
        schedule: sched,
        program,
        status: result.status,
        cse,
        merge,
        solver: result.stats,
        timings,
        propagator_profile: result.propagator_profile,
        domain_reps: result.domain_reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_dsl::Ctx;
    use std::time::Duration;

    fn opts(secs: u64) -> CompileOptions {
        CompileOptions {
            scheduler: SchedulerOptions {
                timeout: Some(Duration::from_secs(secs)),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn horizon_overflow_is_a_structured_error() {
        // 2 500 ops at the largest latency a spec may declare: every op
        // is valid, but their serial sum does not fit the solver's i32
        // domains. Both schedulers refuse before building a model.
        let ctx = Ctx::new("long");
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let mut x = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        for _ in 0..2500 {
            x = x.v_add(&b);
        }
        let g = ctx.finish();
        let mut spec = ArchSpec::eit();
        for op in &mut spec.units.units[0].ops {
            op.latency = ArchSpec::MAX_CYCLES;
        }
        spec.validate().unwrap();
        match compile(g.clone(), &spec, &opts(30)) {
            Err(CompileError::TooLarge(msg)) => assert!(msg.contains("serial horizon"), "{msg}"),
            other => panic!(
                "expected TooLarge, got {:?}",
                other.map(|c| c.schedule.makespan)
            ),
        }
        let r = crate::modulo_schedule_checked(&g, &spec, &crate::ModuloOptions::default());
        assert!(matches!(r, Err(crate::ModuloError::TooLarge(_))));
    }

    #[test]
    fn full_pipeline_produces_listing() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let _ = a.v_add(&b).v_dotp(&b).sqrt();
        let out = compile(ctx.finish(), &ArchSpec::eit(), &opts(30)).unwrap();
        assert_eq!(out.status, SearchStatus::Optimal);
        assert!(out.program.listing.contains("configuration stream"));
        assert!(out.program.n_instructions >= 3);
    }

    #[test]
    fn cse_fires_inside_the_pipeline() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        // The same dot product twice, both consumed.
        let d1 = a.v_dotp(&b);
        let d2 = a.v_dotp(&b);
        let _ = d1.add(&d2);
        let out = compile(ctx.finish(), &ArchSpec::eit(), &opts(30)).unwrap();
        assert_eq!(out.cse.ops_removed, 1);
    }

    #[test]
    fn merge_fires_inside_the_pipeline() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let _ = a.hermitian().v_mul(&b).sort();
        let out = compile(ctx.finish(), &ArchSpec::eit(), &opts(30)).unwrap();
        assert_eq!(out.merge.pre_merges, 1);
        assert_eq!(out.merge.post_merges, 1);
        // One fused pipeline trip: makespan = 7.
        assert_eq!(out.schedule.makespan, 7);
    }

    #[test]
    fn infeasible_memory_reports_cleanly() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let _ = a.v_add(&b);
        let spec = ArchSpec::eit().with_slots(1);
        match compile(ctx.finish(), &spec, &opts(10)) {
            Err(CompileError::Infeasible) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn invalid_ir_rejected_up_front() {
        let mut g = Graph::new("bad");
        let a = g.add_data(eit_ir::DataKind::Vector, "a");
        let b = g.add_data(eit_ir::DataKind::Vector, "b");
        g.add_edge(a, b); // data→data: not bipartite
        match compile(g, &ArchSpec::eit(), &opts(5)) {
            Err(CompileError::InvalidIr(_)) => {}
            other => panic!("expected InvalidIr, got {other:?}"),
        }
    }

    #[test]
    fn passes_can_be_disabled() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let d1 = a.v_dotp(&b);
        let d2 = a.v_dotp(&b);
        let _ = d1.add(&d2);
        let out = compile(
            ctx.finish(),
            &ArchSpec::eit(),
            &CompileOptions {
                cse: false,
                ..opts(30)
            },
        )
        .unwrap();
        assert_eq!(out.cse.ops_removed, 0);
    }
}
