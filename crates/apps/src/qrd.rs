//! QRD — Modified-Gram-Schmidt MMSE QR decomposition (§4.1).
//!
//! The paper's main kernel: the MGS-based MMSE-QRD used for data
//! detection pre-processing in 4×4 MIMO (Luethi et al. 2007; Zhang 2014).
//! MMSE regularisation extends the channel matrix to `[H; σI]` (8×4); on
//! a four-lane vector machine each 8-element column is a *pair* of
//! vectors (top half from `H`, bottom half from `σI`), so every column
//! operation splits into two vector operations plus a scalar combine —
//! exactly the operation mix that makes the kernel interesting to
//! schedule: chains of `v_squsum`/`v_dotP` through the accelerator's
//! `rsqrt` with long pipeline-latency dependencies.
//!
//! The DSL implementation was written against the same algorithm the
//! paper's architect used; the graph lands at the paper's reported scale
//! (paper: |V| = 143, |E| = 194, 49 vector data, |Cr.P| = 169 — see
//! EXPERIMENTS.md for our measured values side by side).

use crate::Kernel;
use eit_dsl::{Ctx, Scalar, Vector};
use eit_ir::sem::Value;
use eit_ir::Cplx;
use std::collections::HashMap;

/// One column of the augmented matrix `[H; σI]`.
#[derive(Clone)]
struct Column {
    top: Vector,
    bot: Vector,
}

/// Build the MMSE-QRD kernel for a fixed, well-conditioned complex 4×4
/// channel with σ = 0.5.
pub fn build() -> Kernel {
    build_with(default_channel(), 0.5)
}

/// The default channel matrix (column-major: `h[j][i]` = row i of col j).
pub fn default_channel() -> [[Cplx; 4]; 4] {
    let c = Cplx::new;
    [
        [c(1.0, 0.2), c(0.3, -0.4), c(-0.2, 0.1), c(0.5, 0.0)],
        [c(0.2, -0.1), c(1.1, 0.3), c(0.4, 0.2), c(-0.3, 0.4)],
        [c(-0.4, 0.3), c(0.1, -0.2), c(0.9, -0.1), c(0.2, 0.3)],
        [c(0.3, 0.1), c(-0.2, 0.5), c(0.1, 0.4), c(1.2, -0.2)],
    ]
}

/// Build the kernel for an arbitrary channel and noise level.
pub fn build_with(h_cols: [[Cplx; 4]; 4], sigma: f64) -> Kernel {
    let ctx = Ctx::new("qrd");
    let mut inputs = HashMap::new();
    let mut expected = HashMap::new();

    // Inputs: 4 top-half columns (H) and 4 bottom-half columns (σI).
    let mut cols: Vec<Column> = (0..4)
        .map(|j| {
            let top = ctx.vector_named(
                &format!("h{j}"),
                [h_cols[j][0], h_cols[j][1], h_cols[j][2], h_cols[j][3]],
            );
            let bot_vals: [Cplx; 4] = std::array::from_fn(|i| {
                if i == j {
                    Cplx::real(sigma)
                } else {
                    Cplx::ZERO
                }
            });
            let bot = ctx.vector_named(&format!("sig{j}"), bot_vals);
            inputs.insert(top.node(), Value::V(top.value()));
            inputs.insert(bot.node(), Value::V(bot.value()));
            Column { top, bot }
        })
        .collect();

    let track = |s: &Scalar, expected: &mut HashMap<_, _>| {
        expected.insert(s.node(), Value::S(s.value()));
    };

    // Modified Gram-Schmidt over the 8-row columns.
    for k in 0..4 {
        // ‖a_k‖² over both halves.
        let n_top = cols[k].top.v_squsum();
        let n_bot = cols[k].bot.v_squsum();
        let norm2 = n_top.add(&n_bot);
        // 1/‖a_k‖ on the accelerator; r_kk = ‖a_k‖ = norm2 · rsqrt(norm2).
        let inv = norm2.rsqrt();
        let r_kk = norm2.mul(&inv);
        track(&r_kk, &mut expected);
        // q_k = a_k / ‖a_k‖.
        let q_top = cols[k].top.v_scale(&inv);
        let q_bot = cols[k].bot.v_scale(&inv);
        expected.insert(q_top.node(), Value::V(q_top.value()));
        expected.insert(q_bot.node(), Value::V(q_bot.value()));

        for j in (k + 1)..4 {
            // r_kj = q_kᴴ·a_j  (v_dotp conjugates its second operand).
            let d_top = cols[j].top.v_dotp(&q_top);
            let d_bot = cols[j].bot.v_dotp(&q_bot);
            let r_kj = d_top.add(&d_bot);
            track(&r_kj, &mut expected);
            // a_j ← a_j − r_kj·q_k.
            let p_top = q_top.v_scale(&r_kj);
            let p_bot = q_bot.v_scale(&r_kj);
            cols[j] = Column {
                top: cols[j].top.v_sub(&p_top),
                bot: cols[j].bot.v_sub(&p_bot),
            };
        }
    }

    // Keep only true sinks as expectations (intermediate q/r values may
    // have consumers; expectation map is allowed to contain extra entries
    // keyed by node — trim to outputs).
    let graph = ctx.finish();
    let outputs: std::collections::HashSet<_> = graph.outputs().into_iter().collect();
    expected.retain(|n, _| outputs.contains(n));

    Kernel {
        name: "qrd",
        graph,
        inputs,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gather Q and R from a fresh DSL run (values only).
    fn reference_qr(h: [[Cplx; 4]; 4], sigma: f64) -> ([[Cplx; 8]; 4], [[Cplx; 4]; 4]) {
        // Plain MGS in f64, mirroring the DSL computation.
        let mut a = [[Cplx::ZERO; 8]; 4];
        for (j, col) in h.iter().enumerate() {
            for i in 0..4 {
                a[j][i] = col[i];
            }
            a[j][4 + j] = Cplx::real(sigma);
        }
        let mut q = [[Cplx::ZERO; 8]; 4];
        let mut r = [[Cplx::ZERO; 4]; 4];
        for k in 0..4 {
            let norm2: f64 = a[k].iter().map(|x| x.abs2()).sum();
            let norm = norm2.sqrt();
            r[k][k] = Cplx::real(norm);
            for i in 0..8 {
                q[k][i] = a[k][i] * (1.0 / norm);
            }
            for j in (k + 1)..4 {
                // r_kj = q_kᴴ a_j
                let mut rkj = Cplx::ZERO;
                for i in 0..8 {
                    rkj = rkj + a[j][i] * q[k][i].conj();
                }
                r[k][j] = rkj;
                for i in 0..8 {
                    a[j][i] = a[j][i] - q[k][i] * rkj;
                }
            }
        }
        (q, r)
    }

    #[test]
    fn graph_scale_is_in_the_papers_ballpark() {
        let k = build();
        let n = k.graph.len();
        let e = k.graph.edge_count();
        // Paper: |V| = 143, |E| = 194. Our DSL transcription lands within
        // ~10 % (exact numbers recorded in EXPERIMENTS.md).
        assert!((130..=160).contains(&n), "|V| = {n}");
        assert!((180..=215).contains(&e), "|E| = {e}");
        let vd = k.graph.count(eit_ir::Category::VectorData);
        assert!((38..=55).contains(&vd), "#v_data = {vd}");
        let spec = eit_arch::ArchSpec::eit();
        let cp = k.graph.critical_path(&spec.latency_of(&k.graph));
        assert!((150..=185).contains(&cp), "|Cr.P| = {cp}");
    }

    #[test]
    fn dsl_values_match_reference_mgs() {
        let h = default_channel();
        let (q_ref, r_ref) = reference_qr(h, 0.5);
        // Re-run the DSL and compare the tracked values.
        let ctx = Ctx::new("check");
        let mut cols: Vec<(eit_dsl::Vector, eit_dsl::Vector)> = (0..4)
            .map(|j| {
                let top = ctx.vector([h[j][0], h[j][1], h[j][2], h[j][3]]);
                let bot_vals: [Cplx; 4] =
                    std::array::from_fn(|i| if i == j { Cplx::real(0.5) } else { Cplx::ZERO });
                (top, ctx.vector(bot_vals))
            })
            .collect();
        for k in 0..4 {
            let norm2 = cols[k].0.v_squsum().add(&cols[k].1.v_squsum());
            let inv = norm2.rsqrt();
            let r_kk = norm2.mul(&inv);
            assert!(
                r_kk.value().approx_eq(r_ref[k][k], 1e-9),
                "r[{k}][{k}]: {:?} vs {:?}",
                r_kk.value(),
                r_ref[k][k]
            );
            let q_top = cols[k].0.v_scale(&inv);
            let q_bot = cols[k].1.v_scale(&inv);
            for i in 0..4 {
                assert!(q_top.value()[i].approx_eq(q_ref[k][i], 1e-9));
                assert!(q_bot.value()[i].approx_eq(q_ref[k][4 + i], 1e-9));
            }
            for j in (k + 1)..4 {
                let r_kj = cols[j].0.v_dotp(&q_top).add(&cols[j].1.v_dotp(&q_bot));
                assert!(r_kj.value().approx_eq(r_ref[k][j], 1e-9), "r[{k}][{j}]");
                let p_top = q_top.v_scale(&r_kj);
                let p_bot = q_bot.v_scale(&r_kj);
                cols[j] = (cols[j].0.v_sub(&p_top), cols[j].1.v_sub(&p_bot));
            }
        }
    }

    #[test]
    fn q_columns_are_orthonormal() {
        let (q, _) = reference_qr(default_channel(), 0.5);
        for a in 0..4 {
            for b in 0..4 {
                let mut dot = Cplx::ZERO;
                for i in 0..8 {
                    dot = dot + q[a][i] * q[b][i].conj();
                }
                let expect = if a == b { Cplx::ONE } else { Cplx::ZERO };
                assert!(dot.approx_eq(expect, 1e-9), "q{a}·q{b} = {dot:?}");
            }
        }
    }

    #[test]
    fn qr_reconstructs_the_augmented_matrix() {
        let h = default_channel();
        let (q, r) = reference_qr(h, 0.5);
        for j in 0..4 {
            for i in 0..8 {
                let mut acc = Cplx::ZERO;
                for k in 0..=j {
                    acc = acc + q[k][i] * r[k][j];
                }
                let orig = if i < 4 {
                    h[j][i]
                } else if i - 4 == j {
                    Cplx::real(0.5)
                } else {
                    Cplx::ZERO
                };
                assert!(acc.approx_eq(orig, 1e-9), "col {j} row {i}");
            }
        }
    }

    #[test]
    fn operation_mix_exercises_all_units() {
        use eit_ir::Category;
        let k = build();
        assert!(k.graph.count(Category::VectorOp) > 40);
        assert!(k.graph.count(Category::ScalarOp) > 10);
        // No matrix ops or merges in this formulation.
        assert_eq!(k.graph.count(Category::MatrixOp), 0);
    }
}
