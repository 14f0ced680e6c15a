//! A small, self-contained SAT backend for the §4.3 modulo-scheduling
//! model: a CDCL solver (watched literals, 1UIP conflict learning,
//! VSIDS-lite activity, Luby restarts) plus a window CNF compiler for
//! one candidate II (one literal per op and residue, no stages), with a
//! DIMACS escape hatch.
//!
//! Like the rest of the workspace, the crate is std-only. The solver is
//! deliberately minimal — the point is not to beat tuned SAT solvers but
//! to give the modulo sweep a second, independently-implemented decision
//! procedure that the CP engine can race (and be cross-checked against;
//! cross-backend disagreement is a first-class test oracle for the
//! solver-independent verifiers).

pub mod cdcl;
pub mod encode;

pub use cdcl::{Lit, SolveOutcome, Solver, SolverStats, Var};
pub use encode::{
    at_most_k, encode_modulo, encode_modulo_into, ClauseSink, Cnf, EncodeError, ModuloDecoder,
    ModuloEncoding, WithStop,
};
