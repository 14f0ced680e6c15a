//! Window CNF compiler for one candidate II of the §4.3 modulo model.
//!
//! The graphs are acyclic (no loop-carried edge), so feasibility at an
//! II depends on the window alone: a window assignment that meets the
//! unit capacities (2) and one configuration per slot (3) extends to a
//! schedule by starting every op at the least cycle its operands allow
//! that has its window position (the least-start pass of `eit-core`).
//! The encoding therefore holds window positions only, as SAT-MapIt
//! and Tirelli et al. do:
//!
//! - every *op* gets one literal `x_{n,r}` per residue
//!   `r ∈ 0..=II − max(dur,1)` (its occupancy fits inside one window
//!   instance, exactly the CP model's `t` domain), and at least one of
//!   them holds;
//! - per-unit resource conflicts at each residue (the CP `Cumulative`
//!   over `t`): a weighted sequential-counter at-most-`count` bounds the
//!   occupancy-weighted load at every residue of the window (`UnitTable`
//!   occupancy/width, full-width ops by pairwise exclusion);
//! - one configuration per window slot: at a residue where vector-core
//!   ops of two or more configurations can issue, one selector
//!   `y_{r,c}` per such configuration, pairwise exclusive, and
//!   `¬x_{n,r} ∨ y_{r,cfg(n)}` for every vector-core op `n` there.
//!
//! Both parts are linear in the window: the selectors replace a clause
//! per residue for every differently-configured op pair, and no row has
//! an at-most-one. None is needed because, outside its own
//! at-least-one clause, an `x` literal appears only negated (in the
//! counters, the full-width pairs, the unit clauses of over-wide ops and
//! the selector clauses). Clearing every true residue of a row but the
//! first therefore keeps a model a model, and that first residue is
//! what [`ModuloDecoder::decode`] reads. The encoding is equisatisfiable
//! with one that has an exactly-one per op, so its refutations are
//! refutations of the window model.
//!
//! Stages are derived, not searched, so there is no stage bound: a
//! refutation holds for every stage assignment. The encoding covers the
//! paper's first model (reconfigurations excluded, switches counted in
//! post-processing); the banded include-reconfig variant stays CP-only.

use crate::cdcl::{Lit, Solver, Var};
use eit_arch::ArchSpec;
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;

/// A plain clause database, decoupled from the solver so the same
/// encoding can be solved or dumped as DIMACS.
#[derive(Default)]
pub struct Cnf {
    pub n_vars: u32,
    pub clauses: Vec<Vec<Lit>>,
}

/// Where the encoder puts the variables and clauses it makes: a [`Cnf`]
/// to keep or print, or a [`Solver`] to search without the copy.
pub trait ClauseSink {
    fn new_var(&mut self) -> Var;
    fn add_clause(&mut self, clause: &[Lit]);
    /// Polled by the encoder between rows of work; `true` abandons the
    /// encoding with [`EncodeError::Stopped`]. Plain sinks never stop;
    /// [`WithStop`] pairs a sink with a callback.
    fn stop(&mut self) -> bool {
        false
    }
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> Var {
        let v = self.n_vars;
        self.n_vars += 1;
        v
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        self.clauses.push(clause.to_vec());
    }
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        Solver::add_clause(self, clause)
    }
}

/// A sink with a stop callback: everything goes to `sink`, and the
/// encoder's polls ask `stop`.
pub struct WithStop<'a, S, F> {
    pub sink: &'a mut S,
    pub stop: F,
}

impl<S: ClauseSink, F: FnMut() -> bool> ClauseSink for WithStop<'_, S, F> {
    fn new_var(&mut self) -> Var {
        self.sink.new_var()
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        self.sink.add_clause(clause)
    }

    fn stop(&mut self) -> bool {
        (self.stop)()
    }
}

/// A sink that also counts what passes through it.
struct Counted<'a, S> {
    sink: &'a mut S,
    vars: u32,
    clauses: u64,
}

impl<S: ClauseSink> ClauseSink for Counted<'_, S> {
    fn new_var(&mut self) -> Var {
        self.vars += 1;
        self.sink.new_var()
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        self.clauses += 1;
        self.sink.add_clause(clause);
    }
}

impl<S: ClauseSink> Counted<'_, S> {
    /// One stop point of the encoder.
    fn poll(&mut self) -> Result<(), EncodeError> {
        if self.sink.stop() {
            return Err(EncodeError::Stopped {
                vars: self.vars,
                clauses: self.clauses,
            });
        }
        Ok(())
    }
}

impl Cnf {
    /// Render in DIMACS CNF format (1-based literals).
    pub fn to_dimacs(&self, comments: &[String]) -> String {
        let mut out = String::new();
        for c in comments {
            out.push_str("c ");
            out.push_str(c);
            out.push('\n');
        }
        out.push_str(&format!("p cnf {} {}\n", self.n_vars, self.clauses.len()));
        for c in &self.clauses {
            for &l in c {
                let v = (l.var() + 1) as i64;
                out.push_str(&format!("{} ", if l.is_neg() { -v } else { v }));
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Why [`encode_modulo_into`] made no encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The sink asked to stop after `vars` variables and `clauses`
    /// clauses; it holds that partial encoding.
    Stopped { vars: u32, clauses: u64 },
    /// The candidate II is below 1: no window to encode.
    IiBelowOne(i32),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Stopped { vars, clauses } => {
                write!(f, "stopped after {vars} vars and {clauses} clauses")
            }
            EncodeError::IiBelowOne(ii) => write!(f, "candidate II {ii} is below 1"),
        }
    }
}

/// One candidate II compiled to CNF, with the decoder for its models.
pub struct ModuloEncoding {
    pub cnf: Cnf,
    pub ii: i32,
    pub decoder: ModuloDecoder,
}

/// What [`encode_modulo_into`] made, and where each op's residue
/// literals are.
pub struct ModuloDecoder {
    /// Variables and clauses the encoding put into its sink.
    pub vars: u32,
    pub clauses: u64,
    /// Per op in graph order: the op and its literal per residue.
    rows: Vec<(NodeId, Vec<Lit>)>,
}

impl ModuloDecoder {
    /// Read the window position of every op out of an assignment: the
    /// first residue whose literal holds, or 0 if none does. Total: an
    /// arbitrary (even partial) assignment decodes to residues inside
    /// each op's window. On a model the first true residue is what makes
    /// the window sound: the encoding has no at-most-one per op, and
    /// only clearing the later true residues of each row (which keeps
    /// every clause satisfied, as `x` is negated outside its row) leaves
    /// one residue per op. The caller still re-verifies the schedule.
    pub fn decode(&self, model: &dyn Fn(Var) -> bool) -> HashMap<NodeId, i32> {
        self.rows
            .iter()
            .map(|(n, row)| {
                let r = row.iter().position(|l| model(l.var())).unwrap_or(0);
                (*n, r as i32)
            })
            .collect()
    }
}

/// Compile the modulo model at one candidate II. `Ok(None)` means the
/// candidate is statically refuted (some op's occupancy exceeds the
/// window) — no solver run is needed.
pub fn encode_modulo(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
) -> Result<Option<ModuloEncoding>, EncodeError> {
    let mut cnf = Cnf::default();
    let decoder = encode_modulo_into(g, spec, ii, &mut cnf)?;
    Ok(decoder.map(|decoder| ModuloEncoding { cnf, ii, decoder }))
}

/// [`encode_modulo`] into any sink: the same variables and clauses, in
/// the same order. With a [`Solver`] as the sink the clauses go straight
/// into its arena, with no [`Cnf`] built and freed on the way. Nothing
/// is added when the result is `Ok(None)`; after an `Err` the sink holds
/// a partial encoding and should be discarded.
///
/// The encoder polls [`ClauseSink::stop`] once per op row, per residue
/// of the configuration selectors and per unit residue, so a stop lands
/// within one row of work.
pub fn encode_modulo_into<S: ClauseSink>(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    sink: &mut S,
) -> Result<Option<ModuloDecoder>, EncodeError> {
    if ii < 1 {
        return Err(EncodeError::IiBelowOne(ii));
    }
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);
    let ops: Vec<NodeId> = g.ids().filter(|&n| g.category(n).is_op()).collect();
    let widths: Vec<i32> = ops.iter().map(|&n| ii - duration(n).max(1) + 1).collect();
    if widths.iter().any(|&w| w < 1) {
        return Ok(None); // an op's occupancy exceeds the window
    }
    let mut out = Counted {
        sink,
        vars: 0,
        clauses: 0,
    };

    // At least one residue per op, one poll per row; no at-most-one
    // (see the module doc).
    let mut x: Vec<Vec<Lit>> = Vec::with_capacity(ops.len());
    for &width in &widths {
        out.poll()?;
        let row: Vec<Lit> = (0..width).map(|_| Lit::pos(out.new_var())).collect();
        out.add_clause(&row);
        x.push(row);
    }

    // One configuration per window slot. At a residue where two or more
    // configurations can issue, each gets a selector, the selectors are
    // pairwise exclusive, and a vector-core op issuing there implies its
    // configuration's selector.
    let vops: Vec<(usize, VectorConfig)> = ops
        .iter()
        .enumerate()
        .filter(|&(_, &n)| g.category(n) == Category::VectorOp)
        .map(|(i, &n)| {
            let config = g.opcode(n).and_then(|o| o.config());
            (i, config.expect("every vector opcode has a configuration"))
        })
        .collect();
    for r in 0..ii as usize {
        out.poll()?;
        let here: Vec<(Lit, VectorConfig)> = vops
            .iter()
            .filter_map(|&(i, c)| Some((*x[i].get(r)?, c)))
            .collect();
        let mut configs: Vec<VectorConfig> = Vec::new();
        for &(_, c) in &here {
            if !configs.contains(&c) {
                configs.push(c);
            }
        }
        if configs.len() < 2 {
            continue;
        }
        let selectors: Vec<Lit> = configs.iter().map(|_| Lit::pos(out.new_var())).collect();
        for (a, &ya) in selectors.iter().enumerate() {
            for &yb in &selectors[a + 1..] {
                out.add_clause(&[ya.negated(), yb.negated()]);
            }
        }
        for &(l, c) in &here {
            let y = selectors[configs.iter().position(|&k| k == c).expect("listed above")];
            out.add_clause(&[l.negated(), y]);
        }
    }

    // Per-unit resource constraints at every window residue (the CP
    // Cumulative over t): an op starting at residue r occupies
    // r..r+dur−1 with its class width, inside the window by its width.
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        let cap = unit.count as i32;
        let mut per_residue: Vec<Vec<(Lit, i32)>> = vec![Vec::new(); ii as usize];
        for (i, &n) in ops.iter().enumerate() {
            let Some(c) = OpClass::of(&g.node(n).kind) else {
                continue;
            };
            if !classes.contains(&c) {
                continue;
            }
            let w = spec.units.class_width(c).unwrap_or(1) as i32;
            for (r, &l) in x[i].iter().enumerate() {
                for items in &mut per_residue[r..r + duration(n) as usize] {
                    items.push((l, w));
                }
            }
        }
        for items in &per_residue {
            out.poll()?;
            at_most_k(&mut out, items, cap);
        }
    }

    Ok(Some(ModuloDecoder {
        vars: out.vars,
        clauses: out.clauses,
        rows: ops.into_iter().zip(x).collect(),
    }))
}

/// Weighted at-most-`cap` over literals: full-width items by pairwise
/// exclusion, the rest through a unary sequential counter with each
/// literal repeated `weight` times. Every item literal appears negated
/// only.
pub fn at_most_k(out: &mut impl ClauseSink, items: &[(Lit, i32)], cap: i32) {
    let mut rest: Vec<(Lit, i32)> = Vec::new();
    let mut full: Vec<Lit> = Vec::new();
    for &(l, w) in items {
        if w <= 0 {
            continue;
        } else if w > cap {
            out.add_clause(&[l.negated()]);
        } else if w == cap {
            full.push(l);
        } else {
            rest.push((l, w));
        }
    }
    let rest_total: i64 = rest.iter().map(|&(_, w)| w as i64).sum();
    for (x, &l) in full.iter().enumerate() {
        for &o in &full[x + 1..] {
            out.add_clause(&[l.negated(), o.negated()]);
        }
        for &(o, _) in &rest {
            out.add_clause(&[l.negated(), o.negated()]);
        }
    }
    if rest_total <= cap as i64 {
        return;
    }
    let lits: Vec<Lit> = rest
        .iter()
        .flat_map(|&(l, w)| std::iter::repeat_n(l, w as usize))
        .collect();
    // Sequential counter (Sinz LTseq): r_{i,j} ⇔ "at least j+1 of the
    // first i+1 literals hold"; overflow of the cap is a conflict.
    let k = cap as usize;
    let mut prev: Vec<Option<Var>> = vec![None; k];
    for (i, &li) in lits.iter().enumerate() {
        let mut cur: Vec<Option<Var>> = vec![None; k];
        for slot in cur.iter_mut().take(k.min(i + 1)) {
            *slot = Some(out.new_var());
        }
        out.add_clause(&[li.negated(), Lit::pos(cur[0].expect("k >= 1"))]);
        for j in 0..k {
            if let (Some(p), Some(c)) = (prev[j], cur[j]) {
                out.add_clause(&[Lit::neg(p), Lit::pos(c)]);
            }
        }
        for j in 1..k {
            if let (Some(p), Some(c)) = (prev[j - 1], cur[j]) {
                out.add_clause(&[li.negated(), Lit::neg(p), Lit::pos(c)]);
            }
        }
        if let Some(p) = prev[k - 1] {
            out.add_clause(&[li.negated(), Lit::neg(p)]);
        }
        prev = cur;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdcl::{SolveOutcome, Solver};
    use eit_ir::{CoreOp, DataKind, Opcode};

    fn solve_cnf(cnf: &Cnf) -> Option<Vec<bool>> {
        let mut s = Solver::from_cnf(cnf);
        match s.solve(&mut || false) {
            SolveOutcome::Sat => Some((0..cnf.n_vars).map(|v| s.model_value(v)).collect()),
            _ => None,
        }
    }

    #[test]
    fn at_most_k_bounds_weighted_sums() {
        // 3 items of weight 2 under cap 4: any 2 fit, all 3 do not.
        let mut cnf = Cnf::default();
        let xs: Vec<Lit> = (0..3).map(|_| Lit::pos(cnf.new_var())).collect();
        let items: Vec<(Lit, i32)> = xs.iter().map(|&l| (l, 2)).collect();
        at_most_k(&mut cnf, &items, 4);
        let mut two = cnf.clauses.clone();
        two.push(vec![xs[0]]);
        two.push(vec![xs[1]]);
        let cnf_two = Cnf {
            n_vars: cnf.n_vars,
            clauses: two,
        };
        assert!(
            solve_cnf(&cnf_two).is_some(),
            "two of weight 2 must fit in 4"
        );
        let mut three = cnf.clauses.clone();
        for &x in &xs {
            three.push(vec![x]);
        }
        let cnf_three = Cnf {
            n_vars: cnf.n_vars,
            clauses: three,
        };
        assert!(
            solve_cnf(&cnf_three).is_none(),
            "three of weight 2 overflow 4"
        );
    }

    #[test]
    fn full_width_items_are_exclusive() {
        let mut cnf = Cnf::default();
        let a = Lit::pos(cnf.new_var());
        let b = Lit::pos(cnf.new_var());
        let c = Lit::pos(cnf.new_var());
        at_most_k(&mut cnf, &[(a, 4), (b, 4), (c, 1)], 4);
        let sat_with = |forced: &[Lit]| {
            let mut cs = cnf.clauses.clone();
            cs.extend(forced.iter().map(|&l| vec![l]));
            solve_cnf(&Cnf {
                n_vars: cnf.n_vars,
                clauses: cs,
            })
            .is_some()
        };
        assert!(sat_with(&[a]));
        assert!(!sat_with(&[a, b]), "two full-width items may not co-issue");
        assert!(!sat_with(&[a, c]), "full-width excludes any co-resident");
        assert!(sat_with(&[c]));
    }

    #[test]
    fn selectors_keep_configurations_apart_and_let_one_share_up_to_capacity() {
        // Three vector ops on one input pair: `a` and `b` add, `c`
        // multiplies, so two configurations meet at every residue of II 2.
        let mut g = Graph::new("selectors");
        let u = g.add_data(DataKind::Vector, "u");
        let v = g.add_data(DataKind::Vector, "v");
        let mut op = |core, name| {
            let op = Opcode::vector(core);
            g.add_op_with_output(op, &[u, v], DataKind::Vector, name).0
        };
        let (a, b, c) = (
            op(CoreOp::Add, "a"),
            op(CoreOp::Add, "b"),
            op(CoreOp::Mul, "c"),
        );
        let ii = 2;
        let together = |spec: &ArchSpec, p: NodeId, q: NodeId| {
            let enc = encode_modulo(&g, spec, ii).unwrap().unwrap();
            let at_zero = |n: NodeId| enc.decoder.rows.iter().find(|(m, _)| *m == n).unwrap().1[0];
            let mut cnf = enc.cnf;
            cnf.clauses.push(vec![at_zero(p)]);
            cnf.clauses.push(vec![at_zero(q)]);
            solve_cnf(&cnf).is_some()
        };
        let mut spec = ArchSpec::eit();
        // Two residue rows per op, two selectors per residue; an
        // at-least-one per op, and per residue one exclusion and one
        // implication per op. Three width-1 ops fit four lanes: no counter.
        let enc = encode_modulo(&g, &spec, ii).unwrap().unwrap();
        assert_eq!(
            (enc.cnf.n_vars, enc.cnf.clauses.len()),
            (3 * 2 + 2 * 2, 3 + 2 * 4)
        );
        assert!(together(&spec, a, b), "one configuration shares a residue");
        assert!(!together(&spec, a, c), "two configurations never do");
        assert!(!together(&spec, b, c), "two configurations never do");
        // The same configuration shares only up to the vector core's count.
        for (count, fits) in [(1, false), (2, true)] {
            spec.units.units[0].count = count;
            assert_eq!(together(&spec, a, b), fits, "vector core of {count}");
            assert!(!together(&spec, a, c), "vector core of {count}");
        }
    }

    #[test]
    fn dimacs_roundtrip_shape() {
        let mut cnf = Cnf::default();
        let a = Lit::pos(cnf.new_var());
        let b = Lit::pos(cnf.new_var());
        cnf.add_clause(&[a, b.negated()]);
        let d = cnf.to_dimacs(&["hello".into()]);
        assert!(d.starts_with("c hello\np cnf 2 1\n"));
        assert!(d.contains("1 -2 0\n"));
    }
}
