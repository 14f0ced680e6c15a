//! Common-subexpression elimination: operations with the same opcode and
//! the same operand list compute the same values, so all but one can be
//! removed and their consumers redirected.
//!
//! DSL programs create duplicates naturally — e.g. `a.v_dotp(&b)` written
//! twice in different expressions records two identical dot products.
//! Scheduling both wastes a lane-cycle and a memory slot; after CSE the
//! kernel pays once. The pass works bottom-up in topological order so
//! chains of duplicates collapse in one run.

use crate::graph::{Graph, IdMap};
use crate::node::{NodeId, Opcode};
use std::collections::HashMap;

/// Statistics of one [`eliminate_common_subexpressions`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CseStats {
    pub ops_removed: usize,
    pub data_removed: usize,
    /// Where every node of the input graph went.
    pub ids: IdMap,
}

/// Merge structurally identical operations. Returns the statistics and
/// leaves the graph valid.
pub fn eliminate_common_subexpressions(g: &mut Graph) -> CseStats {
    let mut stats = CseStats::default();
    while let Some((dup, orig)) = find_duplicate(g) {
        // Redirect every consumer of dup's outputs to orig's outputs
        // (position-wise — matrix ops produce up to four).
        let dup_outs: Vec<NodeId> = g.succs(dup).to_vec();
        let orig_outs: Vec<NodeId> = g.succs(orig).to_vec();
        debug_assert_eq!(dup_outs.len(), orig_outs.len());
        for (&d_out, &o_out) in dup_outs.iter().zip(&orig_outs) {
            for consumer in g.succs(d_out).to_vec() {
                g.replace_operand(consumer, d_out, o_out);
            }
        }
        let mut dead = vec![dup];
        dead.extend(&dup_outs);
        stats.ops_removed += 1;
        stats.data_removed += dup_outs.len();
        stats.ids.then(&g.remove_nodes(&dead));
    }
    debug_assert!(g.validate().is_ok(), "CSE broke IR invariants");
    stats
}

/// Find one (duplicate, original) op pair: same opcode, same operands.
fn find_duplicate(g: &Graph) -> Option<(NodeId, NodeId)> {
    let mut seen: HashMap<(Opcode, Vec<NodeId>), NodeId> = HashMap::new();
    for n in g.ids() {
        let Some(op) = g.opcode(n) else { continue };
        let key = (op, g.preds(n).to_vec());
        match seen.get(&key) {
            Some(&orig) => return Some((n, orig)),
            None => {
                seen.insert(key, n);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Category, CoreOp, DataKind, Opcode};

    #[test]
    fn duplicate_dot_products_collapse() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, d1) =
            g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "x");
        let (_, d2) =
            g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "y");
        // Both consumed downstream.
        let (_, _) = g.add_op_with_output(
            Opcode::Scalar(crate::node::ScalarOp::Add),
            &[d1, d2],
            DataKind::Scalar,
            "sum",
        );
        let st = eliminate_common_subexpressions(&mut g);
        assert_eq!(st.ops_removed, 1);
        assert_eq!(st.data_removed, 1);
        assert_eq!(g.count(Category::VectorOp), 1);
        // The adder now reads the surviving scalar twice.
        let add = g
            .ids()
            .find(|&n| g.category(n) == Category::ScalarOp)
            .unwrap();
        assert_eq!(g.preds(add)[0], g.preds(add)[1]);
        g.validate().unwrap();
    }

    #[test]
    fn operand_order_distinguishes_ops() {
        // dotp(a,b) and dotp(b,a) are different computations (conjugation).
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "x");
        g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[b, a], DataKind::Scalar, "y");
        let st = eliminate_common_subexpressions(&mut g);
        assert_eq!(st.ops_removed, 0);
    }

    #[test]
    fn chains_of_duplicates_collapse_transitively() {
        // Two identical adds feed two (then-identical) muls.
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, s1) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "s1");
        let (_, s2) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "s2");
        g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[s1, b],
            DataKind::Vector,
            "m1",
        );
        g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[s2, b],
            DataKind::Vector,
            "m2",
        );
        let st = eliminate_common_subexpressions(&mut g);
        // add collapses first, making the muls identical → both collapse.
        assert_eq!(st.ops_removed, 2);
        assert_eq!(g.count(Category::VectorOp), 2);
        g.validate().unwrap();
    }

    #[test]
    fn cse_preserves_semantics() {
        use crate::sem::{eval_graph, Value};
        use std::collections::HashMap as Map;
        let build = || {
            let mut g = Graph::new("t");
            let a = g.add_data(DataKind::Vector, "a");
            let b = g.add_data(DataKind::Vector, "b");
            let (_, d1) =
                g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "x");
            let (_, d2) =
                g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "y");
            let (_, out) = g.add_op_with_output(
                Opcode::Scalar(crate::node::ScalarOp::Mul),
                &[d1, d2],
                DataKind::Scalar,
                "sq",
            );
            (g, a, b, out)
        };
        let inputs = |a: NodeId, b: NodeId| {
            let mut m: Map<NodeId, Value> = Map::new();
            m.insert(a, Value::V([crate::cplx::Cplx::real(2.0); 4]));
            m.insert(b, Value::V([crate::cplx::Cplx::real(3.0); 4]));
            m
        };
        let (g0, a0, b0, out0) = build();
        let v0 = eval_graph(&g0, &inputs(a0, b0)).unwrap()[&out0];
        let (mut g1, a1, b1, _) = build();
        eliminate_common_subexpressions(&mut g1);
        let out1 = g1.outputs()[0];
        let v1 = eval_graph(&g1, &inputs(a1, b1)).unwrap()[&out1];
        assert!(v0.approx_eq(&v1, 1e-12));
    }

    #[test]
    fn matmul_diagonal_symmetry_is_not_folded() {
        // In MATMUL (A·Aᴴ) the (i,j) and (j,i) dot products have swapped
        // operands → CSE must keep all 16 (matching the paper's |V| = 44).
        let mut g = Graph::new("mm");
        let rows: Vec<NodeId> = (0..4)
            .map(|i| g.add_data(DataKind::Vector, &format!("v{i}")))
            .collect();
        for &ri in &rows {
            for &rj in &rows {
                g.add_op_with_output(
                    Opcode::vector(CoreOp::DotP),
                    &[ri, rj],
                    DataKind::Scalar,
                    "d",
                );
            }
        }
        let st = eliminate_common_subexpressions(&mut g);
        assert_eq!(st.ops_removed, 0);
        assert_eq!(g.count(Category::VectorOp), 16);
    }
}
