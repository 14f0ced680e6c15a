//! # eit-arch — machine model and cycle-accurate simulator
//!
//! The EIT architecture (§1.1 of the paper) as an executable model:
//!
//! - [`spec::ArchSpec`] — every architectural parameter (4-lane CMAC
//!   vector core behind a 7-stage pipeline, scalar accelerator,
//!   index/merge unit, 16-bank paged vector memory, reconfiguration
//!   cost);
//! - [`memory`] — slot/line/page geometry, the fig. 8 access-legality
//!   rules, and the value-carrying memory the simulator executes against;
//! - [`schedule::Schedule`] — the scheduler's output: start times plus
//!   memory allocation;
//! - [`code::ConfigStream`] — machine code as a per-cycle configuration
//!   stream, where reconfigurations are counted;
//! - [`sim`] — structural validation of schedules against all of the
//!   above, and execution of their configuration streams;
//! - [`verify`] — a second, solver-independent verifier that re-derives
//!   every timing rule from the spec with its own algorithms (including
//!   modulo wraparound), never panicking on malformed input.
//!
//! The paper's own evaluation never runs on silicon — it is analytic over
//! the architecture's published timing rules; the simulator enforces
//! those same rules and additionally executes every schedule, which is
//! the substitution documented in DESIGN.md.

pub mod code;
pub mod gantt;
pub mod memory;
pub mod schedule;
pub mod sim;
pub mod spec;
pub mod vcd;
pub mod verify;
pub mod xml;

pub use code::{ConfigStream, Cycle};
pub use gantt::render_gantt;
pub use memory::{
    check_access, matrix_accessible_in_one_cycle, AccessViolation, Geometry, VectorMemory,
};
pub use schedule::Schedule;
pub use sim::{
    simulate, validate_structure, validate_structure_with, SimCounters, SimReport, UnitUtilization,
    Violation,
};
pub use spec::{ArchSpec, FuncUnit, UnitOp, UnitTable};
pub use vcd::to_vcd;
pub use verify::{verify_modulo, verify_overlapped, verify_schedule};
pub use xml::{from_arch_xml, resolve_arch, to_arch_xml, ARCH_XML_VERSION};
