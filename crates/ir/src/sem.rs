//! Canonical execution semantics of IR opcodes.
//!
//! One function, [`apply`], defines what every [`Opcode`] computes —
//! including *merged* pipeline nodes carrying pre- and post-processing
//! stages, which only exist after the fig. 6 merge pass. The architecture
//! simulator executes configuration streams through this function, and
//! the DSL's eager evaluation is cross-checked against it in tests, so a
//! single source of truth exists for "what the machine computes".

use crate::cplx::Cplx;
use crate::node::{CoreOp, Opcode, PostOp, PreOp, ScalarOp};
use std::fmt;

/// A runtime value: a complex scalar or a four-lane complex vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    S(Cplx),
    V([Cplx; 4]),
}

impl Value {
    pub fn scalar(self) -> Result<Cplx, SemError> {
        match self {
            Value::S(c) => Ok(c),
            Value::V(_) => Err(SemError::TypeMismatch("expected scalar, got vector")),
        }
    }

    pub fn vector(self) -> Result<[Cplx; 4], SemError> {
        match self {
            Value::V(v) => Ok(v),
            Value::S(_) => Err(SemError::TypeMismatch("expected vector, got scalar")),
        }
    }

    /// Approximate equality for test assertions.
    pub fn approx_eq(&self, other: &Value, eps: f64) -> bool {
        match (self, other) {
            (Value::S(a), Value::S(b)) => a.approx_eq(*b, eps),
            (Value::V(a), Value::V(b)) => a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, eps)),
            _ => false,
        }
    }
}

/// Errors from [`apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SemError {
    TypeMismatch(&'static str),
    BadArity {
        op: &'static str,
        expected: usize,
        got: usize,
    },
    DivisionByZero,
}

impl fmt::Display for SemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            SemError::BadArity { op, expected, got } => {
                write!(f, "{op}: expected {expected} operands, got {got}")
            }
            SemError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for SemError {}

fn need(op: &'static str, inputs: &[Value], n: usize) -> Result<(), SemError> {
    if inputs.len() == n {
        Ok(())
    } else {
        Err(SemError::BadArity {
            op,
            expected: n,
            got: inputs.len(),
        })
    }
}

fn apply_pre_vec(pre: PreOp, v: [Cplx; 4]) -> [Cplx; 4] {
    match pre {
        PreOp::Hermitian => v.map(Cplx::conj),
        PreOp::Mask(m) => {
            std::array::from_fn(|k| if m & (1 << k) != 0 { v[k] } else { Cplx::ZERO })
        }
        PreOp::Shuffle(code) => std::array::from_fn(|k| v[((code >> (2 * k)) & 0b11) as usize]),
    }
}

fn apply_post_vec(post: PostOp, v: [Cplx; 4]) -> [Cplx; 4] {
    match post {
        PostOp::Sort => {
            let mut s = v;
            s.sort_by(|a, b| b.abs2().partial_cmp(&a.abs2()).unwrap());
            s
        }
        PostOp::Conj => v.map(Cplx::conj),
        PostOp::Neg => v.map(|x| -x),
    }
}

fn apply_post_scalar(post: PostOp, c: Cplx) -> Cplx {
    match post {
        PostOp::Sort => c, // sorting a scalar is the identity
        PostOp::Conj => c.conj(),
        PostOp::Neg => -c,
    }
}

fn vector_core(
    core: CoreOp,
    pre: Option<(PreOp, u8)>,
    post: Option<PostOp>,
    inputs: &[Value],
) -> Result<Value, SemError> {
    // Materialise operands with the pre stage applied to its operand.
    let prep = |idx: usize, v: Value| -> Result<Value, SemError> {
        match (pre, v) {
            (Some((p, pi)), Value::V(vec)) if pi as usize == idx => {
                Ok(Value::V(apply_pre_vec(p, vec)))
            }
            _ => Ok(v),
        }
    };
    let ins: Vec<Value> = inputs
        .iter()
        .enumerate()
        .map(|(i, &v)| prep(i, v))
        .collect::<Result<_, _>>()?;

    let out = match core {
        CoreOp::Pass => {
            need("pass", &ins, 1)?;
            ins[0]
        }
        CoreOp::Add | CoreOp::Sub | CoreOp::Mul => {
            need("add/sub/mul", &ins, 2)?;
            let a = ins[0].vector()?;
            let b = ins[1].vector()?;
            Value::V(std::array::from_fn(|k| match core {
                CoreOp::Add => a[k] + b[k],
                CoreOp::Sub => a[k] - b[k],
                _ => a[k] * b[k],
            }))
        }
        CoreOp::Scale => {
            need("scale", &ins, 2)?;
            let a = ins[0].vector()?;
            let s = ins[1].scalar()?;
            Value::V(a.map(|x| x * s))
        }
        CoreOp::DotP => {
            need("dotp", &ins, 2)?;
            let a = ins[0].vector()?;
            let b = ins[1].vector()?;
            Value::S(
                a.iter()
                    .zip(&b)
                    .fold(Cplx::ZERO, |acc, (&x, &y)| acc + x * y.conj()),
            )
        }
        CoreOp::SquSum => {
            need("squsum", &ins, 1)?;
            let a = ins[0].vector()?;
            Value::S(Cplx::real(a.iter().map(|x| x.abs2()).sum()))
        }
        CoreOp::Mac => {
            need("mac", &ins, 3)?;
            let a = ins[0].vector()?;
            let b = ins[1].vector()?;
            let c = ins[2].vector()?;
            Value::V(std::array::from_fn(|k| a[k] * b[k] + c[k]))
        }
    };

    Ok(match (post, out) {
        (Some(p), Value::V(v)) => Value::V(apply_post_vec(p, v)),
        (Some(p), Value::S(c)) => Value::S(apply_post_scalar(p, c)),
        (None, v) => v,
    })
}

fn matrix_rows(inputs: &[Value], from: usize) -> Result<[[Cplx; 4]; 4], SemError> {
    if inputs.len() < from + 4 {
        return Err(SemError::BadArity {
            op: "matrix operand group",
            expected: from + 4,
            got: inputs.len(),
        });
    }
    Ok([
        inputs[from].vector()?,
        inputs[from + 1].vector()?,
        inputs[from + 2].vector()?,
        inputs[from + 3].vector()?,
    ])
}

fn matrix_core(
    core: CoreOp,
    pre: Option<(PreOp, u8)>,
    post: Option<PostOp>,
    inputs: &[Value],
) -> Result<Vec<Value>, SemError> {
    // For matrix ops the pre-operand index selects a *matrix group*
    // (0 = operands 0..4, 1 = operands 4..8); Hermitian transposes it.
    let prep_group = |rows: [[Cplx; 4]; 4], group: u8| -> [[Cplx; 4]; 4] {
        match pre {
            Some((PreOp::Hermitian, g)) if g == group => {
                std::array::from_fn(|i| std::array::from_fn(|j| rows[j][i].conj()))
            }
            Some((p, g)) if g == group => rows.map(|r| apply_pre_vec(p, r)),
            _ => rows,
        }
    };

    let outs: Vec<[Cplx; 4]> = match core {
        CoreOp::Pass => {
            let a = prep_group(matrix_rows(inputs, 0)?, 0);
            a.to_vec()
        }
        CoreOp::Mul => {
            need("m_mul", inputs, 8)?;
            let a = prep_group(matrix_rows(inputs, 0)?, 0);
            let b = prep_group(matrix_rows(inputs, 4)?, 1);
            let mut c = [[Cplx::ZERO; 4]; 4];
            for i in 0..4 {
                for j in 0..4 {
                    for (k, bk) in b.iter().enumerate() {
                        c[i][j] = c[i][j] + a[i][k] * bk[j];
                    }
                }
            }
            c.to_vec()
        }
        CoreOp::SquSum => {
            need("m_squsum", inputs, 4)?;
            let a = prep_group(matrix_rows(inputs, 0)?, 0);
            vec![std::array::from_fn(|i| {
                Cplx::real(a[i].iter().map(|x| x.abs2()).sum())
            })]
        }
        CoreOp::Scale => {
            need("m_scale", inputs, 5)?;
            let a = prep_group(matrix_rows(inputs, 0)?, 0);
            let s = inputs[4].scalar()?;
            a.iter().map(|r| r.map(|x| x * s)).collect()
        }
        CoreOp::Add | CoreOp::Sub => {
            need("m_add/m_sub", inputs, 8)?;
            let a = prep_group(matrix_rows(inputs, 0)?, 0);
            let b = prep_group(matrix_rows(inputs, 4)?, 1);
            (0..4)
                .map(|i| {
                    std::array::from_fn(|j| match core {
                        CoreOp::Add => a[i][j] + b[i][j],
                        _ => a[i][j] - b[i][j],
                    })
                })
                .collect()
        }
        CoreOp::Mac | CoreOp::DotP => {
            return Err(SemError::TypeMismatch("unsupported matrix core op"))
        }
    };

    Ok(outs
        .into_iter()
        .map(|v| {
            Value::V(match post {
                Some(p) => apply_post_vec(p, v),
                None => v,
            })
        })
        .collect())
}

fn scalar_op(op: ScalarOp, inputs: &[Value]) -> Result<Value, SemError> {
    let unary = |inputs: &[Value]| -> Result<Cplx, SemError> {
        need("scalar unary", inputs, 1)?;
        inputs[0].scalar()
    };
    let binary = |inputs: &[Value]| -> Result<(Cplx, Cplx), SemError> {
        need("scalar binary", inputs, 2)?;
        Ok((inputs[0].scalar()?, inputs[1].scalar()?))
    };
    Ok(Value::S(match op {
        ScalarOp::Sqrt => unary(inputs)?.sqrt(),
        ScalarOp::RSqrt => {
            let x = unary(inputs)?;
            if x.abs2() == 0.0 {
                return Err(SemError::DivisionByZero);
            }
            x.rsqrt()
        }
        ScalarOp::Recip => {
            let x = unary(inputs)?;
            if x.abs2() == 0.0 {
                return Err(SemError::DivisionByZero);
            }
            x.recip()
        }
        ScalarOp::Neg => -unary(inputs)?,
        ScalarOp::Div => {
            let (a, b) = binary(inputs)?;
            if b.abs2() == 0.0 {
                return Err(SemError::DivisionByZero);
            }
            a / b
        }
        ScalarOp::Add => {
            let (a, b) = binary(inputs)?;
            a + b
        }
        ScalarOp::Sub => {
            let (a, b) = binary(inputs)?;
            a - b
        }
        ScalarOp::Mul => {
            let (a, b) = binary(inputs)?;
            a * b
        }
        ScalarOp::CordicRot => {
            let (a, b) = binary(inputs)?;
            let phase = if b.abs() == 0.0 {
                Cplx::ONE
            } else {
                b * (1.0 / b.abs())
            };
            a * phase
        }
        ScalarOp::CordicVec => {
            // magnitude extraction
            Value::S(Cplx::real(unary(inputs)?.abs())).scalar()?
        }
    }))
}

/// Execute one opcode on its operand values, producing its outputs
/// (one value for everything except matrix ops, which produce one value
/// per output data node).
pub fn apply(op: &Opcode, inputs: &[Value]) -> Result<Vec<Value>, SemError> {
    match *op {
        Opcode::Vector { pre, core, post } => Ok(vec![vector_core(core, pre, post, inputs)?]),
        Opcode::Matrix { pre, core, post } => matrix_core(core, pre, post, inputs),
        Opcode::Scalar(s) => Ok(vec![scalar_op(s, inputs)?]),
        Opcode::Index(k) => {
            need("index", inputs, 1)?;
            let v = inputs[0].vector()?;
            Ok(vec![Value::S(v[(k & 3) as usize])])
        }
        Opcode::Merge => {
            need("merge", inputs, 4)?;
            let v: [Cplx; 4] = [
                inputs[0].scalar()?,
                inputs[1].scalar()?,
                inputs[2].scalar()?,
                inputs[3].scalar()?,
            ];
            Ok(vec![Value::V(v)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: [f64; 4]) -> Value {
        Value::V(vals.map(Cplx::real))
    }

    fn s(x: f64) -> Value {
        Value::S(Cplx::real(x))
    }

    const EPS: f64 = 1e-12;

    #[test]
    fn core_arithmetic() {
        let a = v([1.0, 2.0, 3.0, 4.0]);
        let b = v([2.0, 3.0, 4.0, 5.0]);
        let add = apply(&Opcode::vector(CoreOp::Add), &[a, b]).unwrap();
        assert!(add[0].approx_eq(&v([3.0, 5.0, 7.0, 9.0]), EPS));
        let dot = apply(&Opcode::vector(CoreOp::DotP), &[a, b]).unwrap();
        assert!(dot[0].approx_eq(&s(40.0), EPS));
        let sq = apply(&Opcode::vector(CoreOp::SquSum), &[a]).unwrap();
        assert!(sq[0].approx_eq(&s(30.0), EPS));
    }

    #[test]
    fn merged_pipeline_node_applies_all_stages() {
        // hermitian(pre on operand 0) → mul → sort(post)
        let op = Opcode::Vector {
            pre: Some((PreOp::Hermitian, 0)),
            core: CoreOp::Mul,
            post: Some(PostOp::Sort),
        };
        let a = Value::V([
            Cplx::new(0.0, 1.0),
            Cplx::new(0.0, 2.0),
            Cplx::new(0.0, 3.0),
            Cplx::new(0.0, 4.0),
        ]);
        let b = v([1.0, 1.0, 1.0, 1.0]);
        let out = apply(&op, &[a, b]).unwrap();
        // conj(a)∘b = (-1i, -2i, -3i, -4i), sorted by |.| desc.
        let expect = Value::V([
            Cplx::new(0.0, -4.0),
            Cplx::new(0.0, -3.0),
            Cplx::new(0.0, -2.0),
            Cplx::new(0.0, -1.0),
        ]);
        assert!(out[0].approx_eq(&expect, EPS));
    }

    #[test]
    fn pre_applies_to_selected_operand_only() {
        let op = Opcode::Vector {
            pre: Some((PreOp::Mask(0b0001), 1)),
            core: CoreOp::Add,
            post: None,
        };
        let a = v([1.0, 1.0, 1.0, 1.0]);
        let b = v([10.0, 10.0, 10.0, 10.0]);
        let out = apply(&op, &[a, b]).unwrap();
        assert!(out[0].approx_eq(&v([11.0, 1.0, 1.0, 1.0]), EPS));
    }

    #[test]
    fn shuffle_permutes_lanes() {
        // code 0b_11_10_01_00 = identity; 0b_00_01_10_11 = reverse.
        let rev = 0b00_01_10_11u8;
        let op = Opcode::Vector {
            pre: Some((PreOp::Shuffle(rev), 0)),
            core: CoreOp::Pass,
            post: None,
        };
        let out = apply(&op, &[v([1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert!(out[0].approx_eq(&v([4.0, 3.0, 2.0, 1.0]), EPS));
    }

    #[test]
    fn matrix_mul_and_hermitian_pre() {
        // B = identity; pre-hermitian on A (group 0) → Aᴴ·I = Aᴴ.
        let a_rows = [
            [Cplx::new(1.0, 1.0), Cplx::ZERO, Cplx::ZERO, Cplx::ZERO],
            [Cplx::new(2.0, -1.0), Cplx::ZERO, Cplx::ZERO, Cplx::ZERO],
            [Cplx::ZERO; 4],
            [Cplx::ZERO; 4],
        ];
        let eye: Vec<Value> = (0..4)
            .map(|i| {
                Value::V(std::array::from_fn(|j| {
                    if i == j {
                        Cplx::ONE
                    } else {
                        Cplx::ZERO
                    }
                }))
            })
            .collect();
        let mut inputs: Vec<Value> = a_rows.iter().map(|&r| Value::V(r)).collect();
        inputs.extend(eye);
        let op = Opcode::Matrix {
            pre: Some((PreOp::Hermitian, 0)),
            core: CoreOp::Mul,
            post: None,
        };
        let out = apply(&op, &inputs).unwrap();
        assert_eq!(out.len(), 4);
        let r0 = match out[0] {
            Value::V(r) => r,
            _ => panic!(),
        };
        assert!(r0[0].approx_eq(Cplx::new(1.0, -1.0), EPS));
        assert!(r0[1].approx_eq(Cplx::new(2.0, 1.0), EPS));
    }

    #[test]
    fn matrix_squsum_is_rowwise() {
        let rows: Vec<Value> = vec![
            v([1.0, 0.0, 0.0, 0.0]),
            v([1.0, 1.0, 0.0, 0.0]),
            v([1.0, 1.0, 1.0, 0.0]),
            v([1.0, 1.0, 1.0, 1.0]),
        ];
        let out = apply(&Opcode::matrix(CoreOp::SquSum), &rows).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].approx_eq(&v([1.0, 2.0, 3.0, 4.0]), EPS));
    }

    #[test]
    fn scalar_ops_and_errors() {
        assert!(
            apply(&Opcode::Scalar(ScalarOp::Sqrt), &[s(9.0)]).unwrap()[0].approx_eq(&s(3.0), EPS)
        );
        assert_eq!(
            apply(&Opcode::Scalar(ScalarOp::Div), &[s(1.0), s(0.0)]),
            Err(SemError::DivisionByZero)
        );
        assert_eq!(
            apply(&Opcode::Scalar(ScalarOp::Recip), &[s(0.0)]),
            Err(SemError::DivisionByZero)
        );
        assert!(matches!(
            apply(&Opcode::Scalar(ScalarOp::Add), &[s(1.0)]),
            Err(SemError::BadArity { .. })
        ));
    }

    #[test]
    fn index_and_merge() {
        let out = apply(&Opcode::Index(2), &[v([1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert!(out[0].approx_eq(&s(3.0), EPS));
        let merged = apply(&Opcode::Merge, &[s(1.0), s(2.0), s(3.0), s(4.0)]).unwrap();
        assert!(merged[0].approx_eq(&v([1.0, 2.0, 3.0, 4.0]), EPS));
    }

    #[test]
    fn type_errors_reported() {
        assert!(matches!(
            apply(&Opcode::vector(CoreOp::Add), &[s(1.0), s(2.0)]),
            Err(SemError::TypeMismatch(_))
        ));
        assert!(matches!(
            apply(&Opcode::Merge, &[v([0.0; 4]), s(0.0), s(0.0), s(0.0)]),
            Err(SemError::TypeMismatch(_))
        ));
    }
}

/// Evaluate a whole graph in topological order from input values.
/// Returns the value of every data node, or the first semantic error.
/// This is the reference interpreter: the simulator's executor and the
/// DSL's eager evaluation must both agree with it.
pub fn eval_graph(
    g: &crate::graph::Graph,
    inputs: &std::collections::HashMap<crate::node::NodeId, Value>,
) -> Result<std::collections::HashMap<crate::node::NodeId, Value>, SemError> {
    let order = g
        .topo_order()
        .ok_or(SemError::TypeMismatch("cyclic graph"))?;
    let mut values = std::collections::HashMap::new();
    for n in order {
        if g.category(n).is_data() {
            if g.producer(n).is_none() {
                if let Some(&v) = inputs.get(&n) {
                    values.insert(n, v);
                }
            }
            continue;
        }
        let Some(ins) = g
            .preds(n)
            .iter()
            .map(|p| values.get(p).copied())
            .collect::<Option<Vec<Value>>>()
        else {
            continue; // upstream input missing: leave downstream undefined
        };
        let outs = apply(&g.opcode(n).unwrap(), &ins)?;
        for (&d, v) in g.succs(n).iter().zip(outs) {
            values.insert(d, v);
        }
    }
    Ok(values)
}

#[cfg(test)]
mod eval_graph_tests {
    use super::*;
    use crate::graph::Graph;
    use crate::node::{CoreOp, DataKind, Opcode, ScalarOp};
    use std::collections::HashMap;

    #[test]
    fn evaluates_chain_end_to_end() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (_, d) = g.add_op_with_output(
            Opcode::vector(CoreOp::DotP),
            &[a, b],
            DataKind::Scalar,
            "dot",
        );
        let (_, r) = g.add_op_with_output(
            Opcode::Scalar(ScalarOp::Sqrt),
            &[d],
            DataKind::Scalar,
            "sqrt",
        );
        let mut inputs = HashMap::new();
        inputs.insert(a, Value::V([Cplx::real(2.0); 4]));
        inputs.insert(b, Value::V([Cplx::real(2.0); 4]));
        let vals = eval_graph(&g, &inputs).unwrap();
        assert!(vals[&d].approx_eq(&Value::S(Cplx::real(16.0)), 1e-12));
        assert!(vals[&r].approx_eq(&Value::S(Cplx::real(4.0)), 1e-12));
    }

    #[test]
    fn missing_input_leaves_downstream_undefined() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let (_, d) =
            g.add_op_with_output(Opcode::vector(CoreOp::SquSum), &[a], DataKind::Scalar, "s");
        let vals = eval_graph(&g, &HashMap::new()).unwrap();
        assert!(!vals.contains_key(&d));
    }

    #[test]
    fn semantic_error_propagates() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Scalar, "a");
        let (_, _) =
            g.add_op_with_output(Opcode::Scalar(ScalarOp::Recip), &[a], DataKind::Scalar, "r");
        let mut inputs = HashMap::new();
        inputs.insert(a, Value::S(Cplx::ZERO));
        assert_eq!(eval_graph(&g, &inputs), Err(SemError::DivisionByZero));
    }
}
