//! # eit-apps — the paper's application kernels
//!
//! The three kernels of the evaluation (§4), each written in the DSL so
//! that building it yields both the dataflow IR and reference values for
//! functional checking:
//!
//! - [`qrd`] — the Modified-Gram-Schmidt MMSE QR decomposition used in
//!   MIMO pre-processing (the paper's main target, Tables 1–3);
//! - [`arf`] — the auto-regression filter, lifted to vector basic units
//!   as §4.3 describes (Table 3);
//! - [`matmul`] — Listing 1: `C = A·Aᴴ` via 16 dot products and 4 merges
//!   (Table 3, fig. 3);
//! - [`fir`] — a vectorised FIR filter (extra kernel beyond the paper:
//!   the serial deep-pipeline stress case);
//! - [`detector`] — the full MMSE detection chain (QRD + rotation +
//!   back-substitution), the largest and most heterogeneous kernel;
//! - [`blockmm`] — 8×8 blocked matrix multiplication, the matrix-op
//!   stress case (extension);
//! - [`synth`] — a seeded random layered-DAG generator for stress tests
//!   and scaling benches beyond the paper.

// Indexed loops mirror the matrix maths in the kernels 1:1.
#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod arf;
pub mod blockmm;
pub mod detector;
pub mod fir;
pub mod matmul;
pub mod qrd;
pub mod synth;

use eit_ir::sem::Value;
use eit_ir::{Graph, IdMap, NodeId};
use std::collections::HashMap;

/// A kernel instance: the recorded IR plus the values of its inputs and
/// the expected values of its outputs (from the DSL's eager evaluation).
pub struct Kernel {
    pub name: &'static str,
    /// The IR as the DSL emitted it (pre merge-pass).
    pub graph: Graph,
    /// Values of the application inputs.
    pub inputs: HashMap<NodeId, Value>,
    /// Expected values of the application outputs.
    pub expected: HashMap<NodeId, Value>,
}

impl Kernel {
    /// Key the input and expected values on the graph the passes left
    /// (`ids` from their statistics, or [`eit_ir::IdMap::then`] of
    /// several); the value of a removed node drops.
    pub fn rekey(&mut self, ids: &IdMap) {
        self.inputs = ids.rekey(&self.inputs);
        self.expected = ids.rekey(&self.expected);
    }
}

/// Build a kernel by name (`"qrd"`, `"arf"`, `"matmul"`).
pub fn by_name(name: &str) -> Option<Kernel> {
    match name {
        "qrd" => Some(qrd::build()),
        "arf" => Some(arf::build()),
        "matmul" => Some(matmul::build()),
        "fir" => Some(fir::build()),
        "detector" => Some(detector::build()),
        "blockmm" => Some(blockmm::build()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_build_valid_bipartite_dags() {
        for name in ["qrd", "arf", "matmul", "fir", "detector", "blockmm"] {
            let k = by_name(name).unwrap();
            k.graph.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!k.inputs.is_empty(), "{name} has inputs");
            assert!(!k.expected.is_empty(), "{name} has outputs");
        }
    }

    #[test]
    fn unknown_kernel_is_none() {
        assert!(by_name("nope").is_none());
    }
}
