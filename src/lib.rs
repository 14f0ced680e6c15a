//! # eit — programming support for reconfigurable custom vector architectures
//!
//! Facade crate re-exporting the full stack of the PMAM '15 / PPoPP 2015
//! reproduction (*Programming Support for Reconfigurable Custom Vector
//! Architectures*, Arslan, Kuchcinski, Liu, Gruian):
//!
//! - [`dsl`] — the embedded DSL (§3.1): `Scalar`/`Vector`/`Matrix` values
//!   over complex numbers that *evaluate* while they *record* the IR;
//! - [`ir`] — the bipartite dataflow IR (§3.2): validation, critical
//!   path, XML/DOT interchange, the fig. 6 merge pass, CSE, and the
//!   canonical opcode semantics everything else is checked against;
//! - [`cp`] — the finite-domain constraint solver (the JaCoP substitute):
//!   `Cumulative` (one per functional unit), `Diff2`, guarded memory
//!   constraints, phased restart branch-and-bound, fail-budgeted
//!   restarts with nogood recording, solution enumeration;
//! - [`core`] — the paper's contribution (§3.3–3.5): combined scheduling
//!   plus vector-memory allocation as one CP model, overlapped execution and
//!   modulo scheduling (§4.3, both reconfiguration variants, plus real
//!   steady-state memory allocation), code generation, a heuristic
//!   list-scheduling baseline, and the one-call
//!   [`core::pipeline::compile`] toolchain;
//! - [`arch`] — the EIT machine model (§1.1) and the cycle-accurate
//!   simulator used to validate and functionally replay every schedule,
//!   with Gantt/VCD renderers;
//! - [`apps`] — the evaluation kernels: QRD, ARF, MATMUL from the paper,
//!   plus FIR, the full MMSE detector, blocked matmul and a synthetic
//!   generator.
//!
//! ## One call from kernel to machine code
//!
//! ```
//! use eit::arch::ArchSpec;
//! use eit::core::pipeline::{compile, CompileOptions};
//! use eit::dsl::Ctx;
//!
//! let ctx = Ctx::new("hello");
//! let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
//! let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
//! let _ = a.v_add(&b).v_dotp(&b).sqrt();
//!
//! let out = compile(ctx.finish(), &ArchSpec::eit(), &CompileOptions::default()).unwrap();
//! assert!(out.program.listing.contains("configuration stream"));
//! ```
//!
//! See `README.md` for the tour, `DESIGN.md` for the system inventory and
//! modelling decisions, and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.

pub use eit_apps as apps;
pub use eit_arch as arch;
pub use eit_core as core;
pub use eit_cp as cp;
pub use eit_dsl as dsl;
pub use eit_ir as ir;
