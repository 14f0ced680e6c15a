//! MATMUL — Listing 1 of the paper, verbatim.
//!
//! A 4×4 matrix is multiplied with its (conjugate) transpose by taking
//! the dot product of every row pair — "instead of an explicit transpose
//! operation, we access each *j*th vector in A as a column vector" — and
//! merging each row of four scalar results back into a vector.
//!
//! The resulting IR matches fig. 3 / Table 3 exactly:
//! `|V| = 44, |E| = 68` (16 `v_dotP` + 16 scalar outputs + 4 merges +
//! 4 vector outputs + 4 vector inputs; every dot product has two operands).

use crate::Kernel;
use eit_dsl::{Ctx, Scalar};
use eit_ir::sem::Value;
use std::collections::HashMap;

/// Build the Listing-1 MATMUL kernel with the paper's hard-coded inputs.
pub fn build() -> Kernel {
    let ctx = Ctx::new("matmul");
    // Hard-coded input vectors of Listing 1.
    let a = [
        ctx.vector_named("v1", [1.0, 2.0, 3.0, 4.0]),
        ctx.vector_named("v2", [2.0, 3.0, 4.0, 5.0]),
        ctx.vector_named("v3", [3.0, 4.0, 5.0, 6.0]),
        ctx.vector_named("v4", [4.0, 5.0, 6.0, 7.0]),
    ];

    let mut inputs = HashMap::new();
    for row in &a {
        inputs.insert(row.node(), Value::V(row.value()));
    }

    let mut expected = HashMap::new();
    for row in &a {
        // scalars(j) = A(i) v_dotP A(j)
        let scalars: Vec<Scalar> = a.iter().map(|col| row.v_dotp(col)).collect();
        let merged = ctx.merge([&scalars[0], &scalars[1], &scalars[2], &scalars[3]]);
        expected.insert(merged.node(), Value::V(merged.value()));
    }

    Kernel {
        name: "matmul",
        graph: ctx.finish(),
        inputs,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{Category, Cplx};

    #[test]
    fn shape_matches_fig3_and_table3() {
        let k = build();
        assert_eq!(k.graph.len(), 44);
        assert_eq!(k.graph.edge_count(), 68);
        assert_eq!(k.graph.count(Category::VectorOp), 16);
        assert_eq!(k.graph.count(Category::Merge), 4);
        assert_eq!(k.graph.count(Category::ScalarData), 16);
        assert_eq!(k.graph.count(Category::VectorData), 8);
        // Critical path: dotp (7) → merge (1) = 8, as in Table 3.
        let spec = eit_arch::ArchSpec::eit();
        assert_eq!(k.graph.critical_path(&spec.latency_of(&k.graph)), 8);
    }

    #[test]
    fn values_match_reference_gram_matrix() {
        let k = build();
        // With real inputs C = A·Aᵀ; C[0][0] = 1+4+9+16 = 30.
        let rows: Vec<[f64; 4]> = vec![
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 3.0, 4.0, 5.0],
            [3.0, 4.0, 5.0, 6.0],
            [4.0, 5.0, 6.0, 7.0],
        ];
        let dot = |x: &[f64; 4], y: &[f64; 4]| -> f64 { x.iter().zip(y).map(|(a, b)| a * b).sum() };
        let outs = k.graph.outputs();
        assert_eq!(outs.len(), 4);
        for (i, &o) in outs.iter().enumerate() {
            let Value::V(v) = k.expected[&o] else {
                panic!()
            };
            for j in 0..4 {
                assert!(v[j].approx_eq(Cplx::real(dot(&rows[i], &rows[j])), 1e-9));
            }
        }
    }
}
