//! # eit-cp — a finite-domain constraint programming solver
//!
//! This crate is the reproduction's stand-in for JaCoP, the Java CP solver
//! the paper uses. It provides exactly the machinery the paper's combined
//! scheduling + memory-allocation model needs:
//!
//! - interval-list [`domain::Domain`]s over `i32`;
//! - a trail-based backtracking [`store::Store`];
//! - a propagation [`engine::Engine`] running subscribed
//!   [`engine::Propagator`]s to fixpoint;
//! - the global constraints **Cumulative** (time-table filtering) and
//!   **Diff2** (pairwise rectangle non-overlap), plus linear, disequality,
//!   `max`, slot-geometry channeling and the guarded memory-access
//!   implications of the paper's constraints (7)–(9);
//! - phased depth-first search with variable/value heuristics,
//!   restart-based **branch-and-bound**, deadlines, cancellation and
//!   fail-budgeted restarts with nogood recording ([`search`]).
//!
//! ## Example
//!
//! ```
//! use eit_cp::model::Model;
//! use eit_cp::props::cumulative::CumTask;
//! use eit_cp::search::{minimize, Phase, SearchConfig, ValSel, VarSel};
//!
//! // Three unit tasks on one machine, a→b precedence; minimize makespan.
//! let mut m = Model::new();
//! let a = m.new_var(0, 10);
//! let b = m.new_var(0, 10);
//! let c = m.new_var(0, 10);
//! m.precedence(a, 1, b);
//! m.cumulative(
//!     [a, b, c].iter().map(|&s| CumTask { start: s, dur: 1, req: 1 }).collect(),
//!     1,
//! );
//! let obj = m.new_var(0, 11);
//! let ends: Vec<_> = [a, b, c]
//!     .iter()
//!     .map(|&s| { let e = m.new_var(0, 11); m.eq_offset(s, 1, e); e })
//!     .collect();
//! m.max_of(ends, obj);
//!
//! let cfg = SearchConfig {
//!     phases: vec![Phase::new(vec![a, b, c], VarSel::SmallestMin, ValSel::Min)],
//!     ..Default::default()
//! };
//! let result = minimize(&mut m, obj, &cfg);
//! assert_eq!(result.objective, Some(3));
//! ```

pub mod cancel;
pub mod domain;
pub mod engine;
pub mod model;
pub mod props;
pub mod record;
pub mod replay;
pub mod search;
pub mod store;
pub mod trace;

pub use cancel::{deadline_after, CancelToken};
pub use domain::{Domain, DomainEvent};
pub use engine::{
    render_profile_table, Engine, Priority, PropId, PropProfile, Propagator, Subscriptions, Wake,
};
pub use model::Model;
pub use record::{fnv1a, Fnv64, RecorderSink, Trace, TraceHeader, TRACE_MAGIC, TRACE_VERSION};
pub use replay::{
    replay, replay_with, DivergenceReport, ReplayOptions, ReplayReport, ValidatingSink,
};
pub use search::{
    minimize, solve, solve_all, Phase, RestartConfig, RestartPolicy, SearchConfig, SearchResult,
    SearchStats, SearchStatus, Solution, ValSel, VarSel,
};
pub use store::{Fail, PropResult, Store, VarId};
pub use trace::{JsonlSink, MemorySink, NullSink, SearchEvent, TraceHandle, TraceSink};
