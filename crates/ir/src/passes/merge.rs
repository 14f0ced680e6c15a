//! The pipeline-merging pass (§3.3.1, fig. 6 of the paper).
//!
//! The scheduler models the seven-stage vector pipeline as a whole, so IR
//! chains that the hardware executes in a *single* trip through the
//! pipeline — pre-processing → core → post-processing — must be folded
//! into one node before scheduling. Two patterns are folded, exactly the
//! two of fig. 6:
//!
//! - **pre-merge** (fig. 6 left): a stand-alone pre-processing op (core
//!   [`CoreOp::Pass`], only a `pre` stage) whose single output feeds
//!   exactly one vector-core op that has no `pre` stage yet;
//! - **post-merge** (fig. 6 right): a stand-alone post-processing op
//!   (core `Pass`, only a `post` stage) that is the single consumer of
//!   the output of a vector-core op without a `post` stage — including a
//!   matrix op whose (single) vector output is post-processed.
//!
//! Merging is run to fixpoint; each fold removes one op node and one data
//! node. The pass reports how many folds of each kind it performed.

use crate::graph::{Graph, IdMap};
use crate::node::{CoreOp, NodeId, Opcode};

/// Statistics of one [`merge_pipeline_ops`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    pub pre_merges: usize,
    pub post_merges: usize,
    pub nodes_removed: usize,
    /// Where every node of the input graph went.
    pub ids: IdMap,
}

/// Is this opcode a stand-alone pre-processing node?
fn standalone_pre(op: &Opcode) -> Option<(crate::node::PreOp, u8)> {
    match op {
        Opcode::Vector {
            pre: Some(p),
            core: CoreOp::Pass,
            post: None,
        }
        | Opcode::Matrix {
            pre: Some(p),
            core: CoreOp::Pass,
            post: None,
        } => Some(*p),
        _ => None,
    }
}

/// Is this opcode a stand-alone post-processing node?
fn standalone_post(op: &Opcode) -> Option<crate::node::PostOp> {
    match op {
        Opcode::Vector {
            pre: None,
            core: CoreOp::Pass,
            post: Some(p),
        }
        | Opcode::Matrix {
            pre: None,
            core: CoreOp::Pass,
            post: Some(p),
        } => Some(*p),
        _ => None,
    }
}

/// Attempt one pre-merge anywhere in the graph; true if one was applied.
fn try_pre_merge(g: &mut Graph, stats: &mut MergeStats) -> bool {
    let ids: Vec<NodeId> = g.ids().collect();
    for p_id in ids {
        let Some(p_op) = g.opcode(p_id) else { continue };
        let Some((pre, _)) = standalone_pre(&p_op) else {
            continue;
        };
        // P must have exactly one output datum with exactly one consumer.
        if g.succs(p_id).len() != 1 {
            continue;
        }
        let d = g.succs(p_id)[0];
        if g.succs(d).len() != 1 {
            continue;
        }
        let c_id = g.succs(d)[0];
        let Some(c_op) = g.opcode(c_id) else { continue };
        let folded = match c_op {
            Opcode::Vector {
                pre: None,
                core,
                post,
            } if core != CoreOp::Pass => Some(Opcode::Vector {
                pre: Some((pre, 0)),
                core,
                post,
            }),
            Opcode::Matrix {
                pre: None,
                core,
                post,
            } if core != CoreOp::Pass => Some(Opcode::Matrix {
                pre: Some((pre, 0)),
                core,
                post,
            }),
            _ => None,
        };
        let Some(mut folded) = folded else { continue };
        // Which operand of C is d? The pre stage applies to that operand.
        let operand_idx = g
            .preds(c_id)
            .iter()
            .position(|&x| x == d)
            .expect("d must be an operand of its consumer") as u8;
        match &mut folded {
            Opcode::Vector {
                pre: Some((_, idx)),
                ..
            }
            | Opcode::Matrix {
                pre: Some((_, idx)),
                ..
            } => *idx = operand_idx,
            _ => unreachable!(),
        }
        // Rewire: C's operand d ← P's inputs (in order), then drop P and d.
        let p_inputs: Vec<NodeId> = g.preds(p_id).to_vec();
        // Replace d with the first input, append the rest after it is not
        // meaningful for a single-input pre op; standalone pres are unary.
        debug_assert_eq!(p_inputs.len(), 1, "standalone pre ops are unary");
        g.replace_operand(c_id, d, p_inputs[0]);
        if let crate::node::NodeKind::Op(op) = &mut g.node_mut(c_id).kind {
            *op = folded;
        }
        stats.ids.then(&g.remove_nodes(&[p_id, d]));
        stats.pre_merges += 1;
        stats.nodes_removed += 2;
        return true;
    }
    false
}

/// Attempt one post-merge anywhere in the graph; true if one was applied.
fn try_post_merge(g: &mut Graph, stats: &mut MergeStats) -> bool {
    let ids: Vec<NodeId> = g.ids().collect();
    for c_id in ids {
        let Some(c_op) = g.opcode(c_id) else { continue };
        let Some(post) = standalone_post(&c_op) else {
            continue;
        };
        // C is unary with one output.
        if g.preds(c_id).len() != 1 || g.succs(c_id).len() != 1 {
            continue;
        }
        let d = g.preds(c_id)[0];
        let out = g.succs(c_id)[0];
        // d must be produced by a vector-core op without a post stage and
        // consumed only by C.
        let Some(p_id) = g.producer(d) else { continue };
        if g.succs(d).len() != 1 || g.succs(p_id).len() != 1 {
            continue;
        }
        let Some(p_op) = g.opcode(p_id) else { continue };
        let folded = match p_op {
            Opcode::Vector {
                pre,
                core,
                post: None,
            } if core != CoreOp::Pass => Some(Opcode::Vector {
                pre,
                core,
                post: Some(post),
            }),
            Opcode::Matrix {
                pre,
                core,
                post: None,
            } if core != CoreOp::Pass => Some(Opcode::Matrix {
                pre,
                core,
                post: Some(post),
            }),
            _ => None,
        };
        let Some(folded) = folded else { continue };
        // Rewire: P now writes `out` directly; drop C and d.
        g.replace_output(p_id, d, out);
        if let crate::node::NodeKind::Op(op) = &mut g.node_mut(p_id).kind {
            *op = folded;
        }
        stats.ids.then(&g.remove_nodes(&[c_id, d]));
        stats.post_merges += 1;
        stats.nodes_removed += 2;
        return true;
    }
    false
}

/// Fold pre-/post-processing chains into single pipeline nodes, to
/// fixpoint. Returns the statistics of the run.
pub fn merge_pipeline_ops(g: &mut Graph) -> MergeStats {
    let mut stats = MergeStats::default();
    loop {
        let a = try_pre_merge(g, &mut stats);
        let b = try_post_merge(g, &mut stats);
        if !a && !b {
            break;
        }
    }
    debug_assert!(g.validate().is_ok(), "merge pass broke IR invariants");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Category, DataKind, PostOp, PreOp};

    /// fig. 6 left: hermitian (pre) → v_mul.
    #[test]
    fn pre_merge_folds_hermitian_into_core_op() {
        let mut g = Graph::new("pre");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, ah) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Hermitian, 0)),
                core: CoreOp::Pass,
                post: None,
            },
            &[a],
            DataKind::Vector,
            "herm",
        );
        let (_, _out) = g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[ah, b],
            DataKind::Vector,
            "mul",
        );
        g.validate().unwrap();
        let before = g.len();
        let stats = merge_pipeline_ops(&mut g);
        assert_eq!(stats.pre_merges, 1);
        assert_eq!(stats.post_merges, 0);
        assert_eq!(g.len(), before - 2);
        // Exactly one vector op remains, with a fused pre stage on
        // operand 0.
        let v_ops: Vec<_> = g
            .ids()
            .filter(|&i| g.category(i) == Category::VectorOp)
            .collect();
        assert_eq!(v_ops.len(), 1);
        match g.opcode(v_ops[0]).unwrap() {
            Opcode::Vector {
                pre: Some((PreOp::Hermitian, 0)),
                core: CoreOp::Mul,
                post: None,
            } => {}
            other => panic!("unexpected fold: {other:?}"),
        }
        g.validate().unwrap();
    }

    /// fig. 6 right: matrix op whose vector output is post-processed.
    #[test]
    fn post_merge_folds_sort_into_matrix_op() {
        let mut g = Graph::new("post");
        let ins: Vec<_> = (0..4)
            .map(|i| g.add_data(DataKind::Vector, &format!("r{i}")))
            .collect();
        let (_, v) = g.add_op_with_output(
            Opcode::matrix(CoreOp::SquSum),
            &ins,
            DataKind::Vector,
            "squsum",
        );
        let (_, _sorted) = g.add_op_with_output(
            Opcode::Vector {
                pre: None,
                core: CoreOp::Pass,
                post: Some(PostOp::Sort),
            },
            &[v],
            DataKind::Vector,
            "sort",
        );
        let stats = merge_pipeline_ops(&mut g);
        assert_eq!(stats.post_merges, 1);
        let m_ops: Vec<_> = g
            .ids()
            .filter(|&i| g.category(i) == Category::MatrixOp)
            .collect();
        assert_eq!(m_ops.len(), 1);
        match g.opcode(m_ops[0]).unwrap() {
            Opcode::Matrix {
                pre: None,
                core: CoreOp::SquSum,
                post: Some(PostOp::Sort),
            } => {}
            other => panic!("unexpected fold: {other:?}"),
        }
        g.validate().unwrap();
    }

    /// A full pre → core → post chain collapses to one node.
    #[test]
    fn chain_collapses_to_single_pipeline_node() {
        let mut g = Graph::new("chain");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, am) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Mask(0b1010), 0)),
                core: CoreOp::Pass,
                post: None,
            },
            &[a],
            DataKind::Vector,
            "mask",
        );
        let (_, s) = g.add_op_with_output(
            Opcode::vector(CoreOp::Add),
            &[am, b],
            DataKind::Vector,
            "add",
        );
        let (_, _sorted) = g.add_op_with_output(
            Opcode::Vector {
                pre: None,
                core: CoreOp::Pass,
                post: Some(PostOp::Sort),
            },
            &[s],
            DataKind::Vector,
            "sort",
        );
        let stats = merge_pipeline_ops(&mut g);
        assert_eq!(stats.pre_merges, 1);
        assert_eq!(stats.post_merges, 1);
        let ops: Vec<_> = g.ids().filter(|&i| g.category(i).is_op()).collect();
        assert_eq!(ops.len(), 1);
        match g.opcode(ops[0]).unwrap() {
            Opcode::Vector {
                pre: Some((PreOp::Mask(0b1010), 0)),
                core: CoreOp::Add,
                post: Some(PostOp::Sort),
            } => {}
            other => panic!("unexpected fold: {other:?}"),
        }
    }

    /// No merge when the intermediate datum has a second consumer: its
    /// value is observable and must be materialised.
    #[test]
    fn shared_intermediate_blocks_merge() {
        let mut g = Graph::new("shared");
        let a = g.add_data(DataKind::Vector, "a");
        let (_, ah) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Hermitian, 0)),
                core: CoreOp::Pass,
                post: None,
            },
            &[a],
            DataKind::Vector,
            "herm",
        );
        let b = g.add_data(DataKind::Vector, "b");
        g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[ah, b],
            DataKind::Vector,
            "m1",
        );
        g.add_op_with_output(
            Opcode::vector(CoreOp::Add),
            &[ah, b],
            DataKind::Vector,
            "m2",
        );
        let before = g.len();
        let stats = merge_pipeline_ops(&mut g);
        assert_eq!(stats.pre_merges, 0);
        assert_eq!(g.len(), before);
    }

    /// No merge into an op that already has the stage occupied.
    #[test]
    fn occupied_pre_stage_blocks_merge() {
        let mut g = Graph::new("occupied");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, ah) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Hermitian, 0)),
                core: CoreOp::Pass,
                post: None,
            },
            &[a],
            DataKind::Vector,
            "herm",
        );
        g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Mask(1), 1)),
                core: CoreOp::Mul,
                post: None,
            },
            &[ah, b],
            DataKind::Vector,
            "mul",
        );
        let stats = merge_pipeline_ops(&mut g);
        assert_eq!(stats.pre_merges, 0);
    }

    /// Merging reduces the critical path the same way the hardware does:
    /// two pipeline trips become one.
    #[test]
    fn merge_halves_pipeline_latency_of_chain() {
        let mut g = Graph::new("lat");
        let a = g.add_data(DataKind::Vector, "a");
        let (_, ah) = g.add_op_with_output(
            Opcode::Vector {
                pre: Some((PreOp::Hermitian, 0)),
                core: CoreOp::Pass,
                post: None,
            },
            &[a],
            DataKind::Vector,
            "herm",
        );
        let b = g.add_data(DataKind::Vector, "b");
        g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[ah, b],
            DataKind::Vector,
            "mul",
        );
        // Every op here is a vector op: one seven-stage pipeline trip.
        let trips = |g: &Graph| g.critical_path(&|n| if g.category(n).is_op() { 7 } else { 0 });
        assert_eq!(trips(&g), 14);
        merge_pipeline_ops(&mut g);
        let after = trips(&g);
        assert_eq!(after, 7);
    }
}
