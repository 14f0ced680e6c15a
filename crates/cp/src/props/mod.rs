//! Propagator implementations.
//!
//! Each submodule provides one family of constraints used by the scheduling
//! and memory-allocation model:
//!
//! - [`basic`] — equalities, offsets, disequalities, `max`
//! - [`linear`] — linear inequalities with bounds consistency
//! - [`nogood`] — watched-literal enforcement of restart-harvested nogoods
//! - [`cumulative`] — renewable-resource scheduling (time-table filtering)
//! - [`diff2`] — two-dimensional non-overlap of rectangles
//! - [`disjunctive`] — unary-resource scheduling with overload checking
//! - [`geometry`] — the slot/line/page channeling of the EIT vector memory
//! - [`reify`] — guarded/conditional constraints (the paper's (7)–(9))
//!
//! Every propagator declares its wake-up conditions to the event engine
//! via [`Propagator::subscribe`](crate::engine::Propagator::subscribe)
//! (per-variable [`DomainEvent`](crate::domain::DomainEvent) masks,
//! optionally tagged so the propagator can tell *which* of its parts
//! changed), a scheduling tier
//! ([`Priority`](crate::engine::Priority): cheap arithmetic before
//! linear before globals) and an idempotence hint. The hint must be a
//! dynamic check when the constraint can be posted with aliased
//! variables — a repeated variable makes a propagator interact with
//! itself through the shared domain, so one pass is no longer a
//! fixpoint. DESIGN.md §5e tabulates the assignment per propagator.

pub mod basic;
pub mod cumulative;
pub mod diff2;
pub mod disjunctive;
pub mod geometry;
pub mod linear;
pub mod nogood;
pub mod reify;
