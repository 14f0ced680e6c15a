//! # eit-core — CP scheduling with memory allocation
//!
//! The paper's primary contribution: a single constraint model combining
//! instruction scheduling and vector-memory allocation for the EIT
//! architecture ([`model`]), the two iteration-overlap techniques of §4.3
//! ([`overlap`] — the architects' ad-hoc two-phase pipelining — and
//! [`modulo`] — modulo scheduling as a CSP, with and without
//! reconfigurations in the optimisation), steady-state memory allocation
//! over the same memory model ([`alloc`]), and graph replication utilities
//! for multi-iteration experiments ([`replicate()`]).
//!
//! Around the model: [`pipeline`] is the one-call fig. 2 toolchain
//! (passes → schedule → [`codegen`]); [`list_sched`] is the heuristic
//! baseline the evaluation compares against.

pub mod alloc;
pub mod codegen;
pub mod fuzz;
pub mod json;
pub mod list_sched;
pub mod model;
pub mod modulo;
pub mod obs;
pub mod overlap;
pub mod pipeline;
pub mod record;
pub mod render;
pub mod replicate;
pub mod rr;

pub use alloc::{allocate_modulo_memory_with, AllocOptions, AllocOutcome};
pub use codegen::{generate, Program};
pub use fuzz::{run as fuzz_run, FuzzFailure, FuzzOptions, FuzzReport};
pub use list_sched::{list_schedule, ListScheduleResult};
pub use model::{build_model, schedule, BuiltModel, ScheduleResult, SchedulerOptions};
pub use modulo::{
    build_probe, ii_lower_bound, least_starts, modulo_cnf_dimacs, modulo_schedule,
    modulo_schedule_checked, schedule_at_ii, validate_modulo, Backend, IiOutcome, ModuloError,
    ModuloOptions, ModuloResult, ProbeModel, ProbeStat, SatStats,
};
pub use obs::PhaseTimings;
pub use overlap::{
    bundles_from_schedule, manual_style_bundles, overlapped_execution, OverlapResult,
};
pub use pipeline::{compile, CompileError, CompileOptions, Compiled};
pub use record::{RecorderSink, Trace};
pub use render::{render_compiled, render_modulo};
pub use replicate::replicate;
pub use rr::{
    arch_hash, ir_hash, replay_modulo, replay_schedule, RrReport, SolveKey, TraceHeader,
    DEFAULT_HASH_EVERY,
};
