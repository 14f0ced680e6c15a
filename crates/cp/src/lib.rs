//! # eit-cp — a finite-domain constraint programming solver
//!
//! This crate is the reproduction's stand-in for JaCoP, the Java CP solver
//! the paper uses. It provides exactly the machinery the paper's combined
//! scheduling + memory-allocation model needs:
//!
//! - interval-list [`domain::Domain`]s over `i32`;
//! - a trail-based backtracking [`store::Store`], with offset views
//!   (`x + c` as a variable id of its own, with no domain of its own);
//! - a propagation [`engine::Engine`] running subscribed
//!   [`engine::Propagator`]s to fixpoint;
//! - the global constraints **Cumulative** (time-table filtering) and
//!   **Diff2** (pairwise rectangle non-overlap), plus linear, disequality,
//!   `max`, slot-geometry channeling and the guarded memory-access
//!   implications of the paper's constraints (7)–(9);
//! - phased depth-first search with variable-selection heuristics,
//!   restart-based **branch-and-bound**, deadlines, cancellation and
//!   fail-budgeted restarts with nogood recording ([`search`]).
//!
//! ## Example
//!
//! ```
//! use eit_cp::model::Model;
//! use eit_cp::props::cumulative::CumTask;
//! use eit_cp::search::{minimize, Phase, SearchConfig, VarSel};
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
//! // Each end is a view `s + 1` of its start: no variable, no propagator.
//! let ends: Vec<_> = [a, b, c].iter().map(|&s| m.view(s, 1)).collect();
//! m.max_of(ends, obj);
//!
//! let cfg = SearchConfig {
//!     phases: vec![Phase::new(vec![a, b, c], VarSel::SmallestMin)],
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
pub use replay::{replay_with, DivergenceReport, ReplayReport, ValidatingSink};
pub use search::{
    minimize, solve, solve_all, Phase, RestartConfig, SearchConfig, SearchResult, SearchStats,
    SearchStatus, Solution, VarSel,
};
pub use store::{Fail, PropResult, Store, VarId};
pub use trace::{fnv1a, Fnv64, MemorySink, NullSink, SearchEvent, TraceHandle, TraceSink};
