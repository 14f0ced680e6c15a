//! # eit-ir — the dataflow intermediate representation
//!
//! The IR of §3.2 of the paper: a bipartite, acyclic dataflow graph whose
//! vertices are *operation* nodes (vector/matrix/scalar/index/merge ops)
//! and *data* nodes (vectors and scalars). Matrices never appear as data:
//! the DSL expands each matrix into its four row vectors so the code
//! generator can merge and allocate them freely (§3.2.1).
//!
//! Provided here:
//! - [`node`]/[`graph`] — the graph itself, building, validation
//!   (bipartite, acyclic, single-producer), topological order, earliest
//!   starts and the critical path `|Cr.P|`;
//! - [`latency`] — the latency/duration annotation `l_i`, `d_i` of §3.3;
//! - [`passes::merge`] — the fig. 6 pipeline-merging pass;
//! - [`xml`] — the XML interchange format emitted by the DSL.

pub mod cplx;
pub mod dot;
pub mod graph;
pub mod latency;
pub mod node;
pub mod passes;
pub mod sem;
pub mod xml;

pub use cplx::Cplx;
pub use dot::to_dot;
pub use graph::{Graph, IrError};
pub use latency::{LatencyModel, OpClass};
pub use node::{
    Category, CoreOp, DataKind, Node, NodeId, NodeKind, Opcode, PostOp, PreOp, ScalarOp,
    VectorConfig,
};
pub use passes::cse::{eliminate_common_subexpressions, CseStats};
pub use passes::merge::{merge_pipeline_ops, MergeStats};
pub use sem::{apply, eval_graph, SemError, Value};
pub use xml::{from_xml, to_xml, XmlError};
