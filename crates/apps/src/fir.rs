//! FIR — a vectorised finite-impulse-response filter, an extra kernel
//! beyond the paper's three (the paper's intro motivates exactly this
//! class of DSP kernels "run many times for each piece of data").
//!
//! `y = Σₖ cₖ ∘ x[n−k]` over `TAPS` taps, built as a chain of fused
//! multiply-accumulates — a single vector-core configuration, making it
//! the deep-pipeline stress case: maximal dependent-latency exposure for
//! the scheduler and zero steady-state reconfigurations for the modulo
//! scheduler (like MATMUL but serial instead of parallel).

use crate::Kernel;
use eit_dsl::{Ctx, Vector};
use eit_ir::sem::Value;
use std::collections::HashMap;

pub const TAPS: usize = 8;

/// Build the vectorised FIR kernel with deterministic inputs.
pub fn build() -> Kernel {
    let ctx = Ctx::new("fir");
    let mut inputs = HashMap::new();

    let mut seed = 0x9E3779B9u64;
    let mut next = || {
        seed = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    let mut vin = |name: &str| -> Vector {
        let v = ctx.vector_named(name, [next(), next(), next(), next()]);
        inputs.insert(v.node(), Value::V(v.value()));
        v
    };

    let x: Vec<Vector> = (0..TAPS).map(|i| vin(&format!("x{i}"))).collect();
    let c: Vec<Vector> = (0..TAPS).map(|i| vin(&format!("c{i}"))).collect();

    // acc = c0∘x0; acc = cᵢ∘xᵢ + acc (MAC chain).
    let mut acc = x[0].v_mul(&c[0]);
    for i in 1..TAPS {
        acc = x[i].v_mac(&c[i], &acc);
    }

    let mut expected = HashMap::new();
    expected.insert(acc.node(), Value::V(acc.value()));

    Kernel {
        name: "fir",
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
    fn structure_is_a_mac_chain() {
        let k = build();
        k.graph.validate().unwrap();
        assert_eq!(k.graph.count(Category::VectorOp), TAPS);
        assert_eq!(k.graph.inputs().len(), 2 * TAPS);
        // Serial chain: critical path = TAPS pipeline trips.
        let spec = eit_arch::ArchSpec::eit();
        assert_eq!(
            k.graph.critical_path(&spec.latency_of(&k.graph)) as usize,
            TAPS * 7
        );
    }

    #[test]
    fn value_matches_direct_convolution() {
        let k = build();
        let ins = k.graph.inputs();
        let lane = |n: eit_ir::NodeId, l: usize| -> Cplx {
            match k.inputs[&n] {
                Value::V(v) => v[l],
                _ => panic!(),
            }
        };
        let out = k.graph.outputs()[0];
        let Value::V(got) = k.expected[&out] else {
            panic!()
        };
        for l in 0..4 {
            let mut acc = Cplx::ZERO;
            for i in 0..TAPS {
                acc = acc + lane(ins[i], l) * lane(ins[TAPS + i], l);
            }
            assert!(got[l].approx_eq(acc, 1e-9), "lane {l}");
        }
    }

    #[test]
    fn two_configurations_only() {
        // One Mul + a run of Macs → exactly two distinct vector configs.
        let k = build();
        let configs: std::collections::HashSet<_> = k
            .graph
            .ids()
            .filter_map(|n| k.graph.opcode(n).and_then(|o| o.config()))
            .collect();
        assert_eq!(configs.len(), 2);
    }
}
