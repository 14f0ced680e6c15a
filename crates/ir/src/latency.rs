//! Op classes: the key every latency and duration lookup goes through
//! (§3.3 of the paper).
//!
//! Every node gets two numbers: *latency* `l_i` — cycles from issue until
//! the result is usable — and *duration* `d_i` — cycles the node occupies
//! its resource. Data nodes have both set to zero. An op's numbers are
//! not decided here: each op falls into one [`OpClass`], and the
//! architecture's unit table (`eit_arch::UnitTable`) prices the class.

use crate::node::{NodeKind, Opcode, ScalarOp};
use std::fmt;

/// The functional-unit *class* of an operation — the key a data-driven
/// unit table is indexed by. Every op node falls into exactly one class;
/// data nodes have none (they cost no cycles and occupy no unit).
///
/// The classes deliberately split the scalar accelerator's two latency
/// regimes (iterative √/÷/CORDIC vs. single-pass ±/×) so an architecture
/// description can price them independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Single-lane vector-core op (one lane, full pipeline trip).
    Vector,
    /// Matrix op on the vector core (consumes the whole lane group).
    Matrix,
    /// Iterative scalar-accelerator op (√, 1/√, ÷, reciprocal, CORDIC).
    ScalarIterative,
    /// Single-pass scalar-accelerator op (±, ×, negate, …).
    ScalarSimple,
    /// Index-unit op.
    Index,
    /// Merge-unit op.
    Merge,
}

impl OpClass {
    /// Every class, in the canonical (rendering/hashing) order.
    pub const ALL: [OpClass; 6] = [
        OpClass::Vector,
        OpClass::Matrix,
        OpClass::ScalarIterative,
        OpClass::ScalarSimple,
        OpClass::Index,
        OpClass::Merge,
    ];

    /// Classify a node; `None` for data nodes.
    pub fn of(kind: &NodeKind) -> Option<OpClass> {
        match kind {
            NodeKind::Data(_) => None,
            NodeKind::Op(op) => Some(match op {
                Opcode::Vector { .. } => OpClass::Vector,
                Opcode::Matrix { .. } => OpClass::Matrix,
                Opcode::Scalar(s) => {
                    if is_iterative(*s) {
                        OpClass::ScalarIterative
                    } else {
                        OpClass::ScalarSimple
                    }
                }
                Opcode::Index(_) => OpClass::Index,
                Opcode::Merge => OpClass::Merge,
            }),
        }
    }

    /// Stable lower-case name used in the arch XML format.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Vector => "vector",
            OpClass::Matrix => "matrix",
            OpClass::ScalarIterative => "scalar-iterative",
            OpClass::ScalarSimple => "scalar-simple",
            OpClass::Index => "index",
            OpClass::Merge => "merge",
        }
    }

    /// Inverse of [`OpClass::name`].
    pub fn parse(s: &str) -> Option<OpClass> {
        OpClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a scalar op uses the accelerator's iterative (multi-cycle,
/// unit-blocking) datapath.
fn is_iterative(s: ScalarOp) -> bool {
    matches!(
        s,
        ScalarOp::Sqrt
            | ScalarOp::RSqrt
            | ScalarOp::Div
            | ScalarOp::Recip
            | ScalarOp::CordicRot
            | ScalarOp::CordicVec
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CoreOp, DataKind};

    #[test]
    fn op_class_covers_every_opcode_and_roundtrips_names() {
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::vector(CoreOp::Add))),
            Some(OpClass::Vector)
        );
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::matrix(CoreOp::Mul))),
            Some(OpClass::Matrix)
        );
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::Scalar(ScalarOp::Sqrt))),
            Some(OpClass::ScalarIterative)
        );
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::Scalar(ScalarOp::Add))),
            Some(OpClass::ScalarSimple)
        );
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::Index(1))),
            Some(OpClass::Index)
        );
        assert_eq!(
            OpClass::of(&NodeKind::Op(Opcode::Merge)),
            Some(OpClass::Merge)
        );
        assert_eq!(OpClass::of(&NodeKind::Data(DataKind::Vector)), None);
        for c in OpClass::ALL {
            assert_eq!(OpClass::parse(c.name()), Some(c));
        }
        assert_eq!(OpClass::parse("warp"), None);
    }
}
