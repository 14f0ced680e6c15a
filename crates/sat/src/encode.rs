//! Order-encoding CNF compiler for one candidate II of the §4.3 modulo
//! model, mirroring the CP probe model constraint for constraint:
//!
//! - every *op* node gets an absolute start `s ∈ [est, lst]` encoded in
//!   order literals `O_{n,v} ⇔ s_n ≥ v` (monotone chains); window
//!   position `t = s mod II` and stage `k = s div II` are derived, with
//!   window wrap-around excluded by forbidding values whose residue
//!   exceeds `II − max(dur,1)` — exactly the CP model's `t` domain;
//! - *data* nodes are eliminated: a produced datum starts exactly
//!   `latency(producer)` after its producer (in the CP model, a view
//!   of the producer's start), so every data-mediated precedence folds
//!   into an op-level difference
//!   `s_a + δ ≤ s_b`, encoded as the classic `O_{a,v} → O_{b,v+δ}`
//!   ladder after an est/lst fixpoint has tightened both domains;
//! - per-unit resource conflicts at each residue (the CP `Cumulative`
//!   over `t`): start-residue auxiliaries `ST_{n,r}` are implied by the
//!   start value, and a weighted sequential-counter at-most-`count`
//!   bounds the occupancy-weighted load at every residue of the window
//!   (`UnitTable` occupancy/width, full-width ops by pairwise
//!   exclusion);
//! - one configuration per window slot: differently-configured
//!   vector-core ops may not share a start residue.
//!
//! The encoding covers the paper's first model (reconfigurations
//! excluded, switches counted in post-processing); the banded
//! include-reconfig variant stays CP-only.

use crate::cdcl::{Lit, Solver, Var};
use eit_arch::ArchSpec;
use eit_ir::{Category, Graph, NodeId, OpClass};
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
    /// The graph has a shape the encoding cannot express (a data→data
    /// edge), named by node.
    Unsupported { node: String, detail: String },
    /// The sink asked to stop after `vars` variables and `clauses`
    /// clauses; it holds that partial encoding.
    Stopped { vars: u32, clauses: u64 },
    /// The candidate II is below 1: no window to encode.
    IiBelowOne(i32),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Unsupported { node, detail } => write!(f, "node '{node}': {detail}"),
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

/// What [`encode_modulo_into`] made, and enough of the model's structure
/// to decode an assignment back into start times.
pub struct ModuloDecoder {
    /// Variables and clauses the encoding put into its sink.
    pub vars: u32,
    pub clauses: u64,
    /// Op nodes in graph order.
    ops: Vec<NodeId>,
    /// Inclusive start-domain bounds per op (post est/lst fixpoint).
    lo: Vec<i32>,
    hi: Vec<i32>,
    /// First order variable per op: `O_{i,v}` for `v ∈ (lo_i, hi_i]` is
    /// `base[i] + (v − lo_i − 1)`; empty domains have no variables.
    base: Vec<Var>,
}

/// `O_{i,v}` as a three-valued literal: values at or below `lo` are
/// always reached, values above `hi` never.
enum OLit {
    True,
    False,
    Is(Lit),
}

impl ModuloDecoder {
    /// Read the start times out of a satisfying assignment: the
    /// absolute start per *node* (produced data at `s_producer +
    /// latency(producer)`, inputs at 0), from which an op's window
    /// position `s mod II` and stage `s div II` follow. Total — an
    /// arbitrary (even partial) assignment decodes to *some* value
    /// in-domain; soundness comes from the caller re-verifying.
    pub fn decode(
        &self,
        g: &Graph,
        spec: &ArchSpec,
        model: &dyn Fn(Var) -> bool,
    ) -> HashMap<NodeId, i32> {
        let mut s = HashMap::new();
        for (i, &n) in self.ops.iter().enumerate() {
            // Monotone chain: s = greatest v with O_{i,v} true. Scan to
            // the first false literal so even a non-monotone (partial)
            // assignment yields a well-defined value.
            let mut v = self.lo[i];
            while v < self.hi[i] && model(self.base[i] + (v - self.lo[i]) as u32) {
                v += 1;
            }
            s.insert(n, v);
        }
        for n in g.ids() {
            if g.category(n).is_data() {
                let start = match g.producer(n) {
                    Some(p) => s.get(&p).copied().unwrap_or(0) + spec.latency(&g.node(p).kind),
                    None => 0,
                };
                s.insert(n, start);
            }
        }
        s
    }
}

/// Compile the modulo model at one candidate II. `Ok(None)` means the
/// candidate is statically refuted (some op's start domain is empty
/// after the difference/residue fixpoint) — no solver run is needed,
/// matching the CP probe's static-cut `None`.
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
/// The encoder polls [`ClauseSink::stop`] once per fixpoint pass, per
/// op row (order chains, residue auxiliaries), per precedence, per
/// configuration row and per unit residue, so a stop lands within one
/// row of work.
pub fn encode_modulo_into<S: ClauseSink>(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    sink: &mut S,
) -> Result<Option<ModuloDecoder>, EncodeError> {
    if ii < 1 {
        return Err(EncodeError::IiBelowOne(ii));
    }
    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);
    let ops: Vec<NodeId> = g.ids().filter(|&n| g.category(n).is_op()).collect();
    let op_ix: HashMap<NodeId, usize> = ops.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    // Same stage/horizon bounds as the CP probe (exclude-reconfig form).
    let cp = g.critical_path(&latency);
    let k_max = cp / ii + 2;

    // Fold the bipartite op/data precedence structure into op-level
    // difference constraints `s[a] + delta <= s[b]` plus per-op release
    // offsets from producer-less input data (pinned at 0, as in the CP
    // model's `new_const(0)`).
    let mut diffs: Vec<(usize, usize, i32)> = Vec::new();
    let mut lo = vec![0i32; ops.len()];
    for (from, to) in g.edges() {
        let fc = g.category(from);
        let tc = g.category(to);
        if fc.is_op() && tc.is_data() {
            continue; // definition edge: the datum is pinned to its producer
        }
        let (anchor, off) = if fc.is_data() {
            match g.producer(from) {
                Some(p) => (Some(p), latency(p) + latency(from)),
                None => (None, latency(from)),
            }
        } else {
            (Some(from), latency(from))
        };
        if !tc.is_op() {
            // data→data never occurs in this IR (edges alternate
            // op/data); refuse rather than mis-model it.
            return Err(EncodeError::Unsupported {
                node: g.node(to).name.clone(),
                detail: "unsupported data→data precedence edge in the SAT encoding".into(),
            });
        }
        let ti = op_ix[&to];
        match anchor {
            Some(a) => diffs.push((op_ix[&a], ti, off)),
            None => lo[ti] = lo[ti].max(off),
        }
    }

    let mut hi: Vec<i32> = ops
        .iter()
        .map(|&n| k_max * ii + (ii - duration(n).max(1)))
        .collect();

    // est/lst fixpoint over the difference graph, interleaved with the
    // residue-window trim (a start must leave room for the op's
    // occupancy inside its window instance). The graph is a DAG and all
    // updates are monotone within bounded domains, so this terminates.
    let residue_ok = |i: usize, v: i32| v % ii <= ii - duration(ops[i]).max(1);
    let mut out = Counted {
        sink,
        vars: 0,
        clauses: 0,
    };
    loop {
        let mut changed = false;
        for _ in 0..ops.len().max(1) {
            out.poll()?;
            let mut pass = false;
            for &(a, b, d) in &diffs {
                if lo[a] + d > lo[b] {
                    lo[b] = lo[a] + d;
                    pass = true;
                }
                if hi[b] - d < hi[a] {
                    hi[a] = hi[b] - d;
                    pass = true;
                }
            }
            changed |= pass;
            if !pass {
                break;
            }
        }
        for i in 0..ops.len() {
            while lo[i] <= hi[i] && !residue_ok(i, lo[i]) {
                lo[i] += 1;
                changed = true;
            }
            while lo[i] <= hi[i] && !residue_ok(i, hi[i]) {
                hi[i] -= 1;
                changed = true;
            }
            if lo[i] > hi[i] {
                return Ok(None); // statically refuted at this II
            }
        }
        if !changed {
            break;
        }
    }

    let base: Vec<Var> = (0..ops.len())
        .map(|i| {
            let mut first = 0;
            for v in lo[i]..hi[i] {
                let x = out.new_var();
                if v == lo[i] {
                    first = x;
                }
            }
            first
        })
        .collect();
    let order = |i: usize, v: i32| -> OLit {
        if v <= lo[i] {
            OLit::True
        } else if v > hi[i] {
            OLit::False
        } else {
            OLit::Is(Lit::pos(base[i] + (v - lo[i] - 1) as u32))
        }
    };

    // Monotone chains: s ≥ v implies s ≥ v−1.
    for i in 0..ops.len() {
        out.poll()?;
        for v in lo[i] + 2..=hi[i] {
            if let (OLit::Is(a), OLit::Is(b)) = (order(i, v), order(i, v - 1)) {
                out.add_clause(&[a.negated(), b]);
            }
        }
        // Interior residue-invalid values: forbid `s == v` by forcing the
        // chain past it ((¬O_v ∨ O_{v+1})); the bounds themselves were
        // trimmed to valid values above.
        for v in lo[i] + 1..hi[i] {
            if !residue_ok(i, v) {
                if let (OLit::Is(a), OLit::Is(b)) = (order(i, v), order(i, v + 1)) {
                    out.add_clause(&[a.negated(), b]);
                }
            }
        }
    }

    // Precedence ladders. After the fixpoint, `lo[b] ≥ lo[a]+d` and
    // `hi[a] ≤ hi[b]−d`, so every rung has both ends in range (rungs
    // with a trivially-true head are skipped by the OLit match).
    for &(a, b, d) in &diffs {
        out.poll()?;
        for v in lo[a] + 1..=hi[a] {
            match (order(a, v), order(b, v + d)) {
                (OLit::Is(la), OLit::Is(lb)) => out.add_clause(&[la.negated(), lb]),
                (OLit::Is(_), OLit::True) => {}
                (OLit::Is(la), OLit::False) => out.add_clause(&[la.negated()]),
                _ => unreachable!("order literal inside (lo, hi] is concrete"),
            }
        }
    }

    // Start-residue auxiliaries: ST_{i,r} is *implied* by `s_i ≡ r`; the
    // reverse direction is unconstrained, which is sound for pure
    // at-most counting (a model may over-approximate the true residues,
    // never under-approximate). `st[i][r]` is dense in the residue, so
    // every walk below visits residues in ascending order and the CNF is
    // the same on every run.
    let mut st: Vec<Vec<Option<Lit>>> = vec![vec![None; ii as usize]; ops.len()];
    let mut clause = Vec::with_capacity(3);
    for i in 0..ops.len() {
        out.poll()?;
        for v in lo[i]..=hi[i] {
            if !residue_ok(i, v) {
                continue;
            }
            let r = (v % ii) as usize;
            let st_lit = *st[i][r].get_or_insert_with(|| Lit::pos(out.new_var()));
            // (s==v) → ST: ¬(O_v ∧ ¬O_{v+1}) ∨ ST.
            clause.clear();
            clause.push(st_lit);
            match order(i, v) {
                OLit::True => {}
                OLit::Is(l) => clause.push(l.negated()),
                OLit::False => continue,
            }
            match order(i, v + 1) {
                OLit::False => {}
                OLit::Is(l) => clause.push(l),
                OLit::True => continue,
            }
            out.add_clause(&clause);
        }
    }

    // One configuration per window slot: differently-configured
    // vector-core ops never share a start residue.
    let vops: Vec<(NodeId, _)> = ops
        .iter()
        .filter(|&&n| g.category(n) == Category::VectorOp)
        .map(|&n| {
            let config = g.opcode(n).and_then(|o| o.config());
            (n, config.expect("every vector opcode has a configuration"))
        })
        .collect();
    for (x, (i, ci)) in vops.iter().enumerate() {
        out.poll()?;
        for (j, cj) in &vops[x + 1..] {
            if ci == cj {
                continue;
            }
            let (a, b) = (op_ix[i], op_ix[j]);
            for (ra, rb) in st[a].iter().zip(&st[b]) {
                if let (Some(la), Some(lb)) = (ra, rb) {
                    out.add_clause(&[la.negated(), lb.negated()]);
                }
            }
        }
    }

    // Per-unit resource constraints at every window residue (the CP
    // Cumulative over t): an op starting at residue r' occupies
    // r'..r'+dur−1 with its class width; the fixpoint's residue trim
    // guarantees no wrap-around.
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
            let dur = duration(n);
            for (r, l) in (0..ii).zip(&st[i]) {
                let Some(l) = *l else { continue };
                for q in r..(r + dur).min(ii) {
                    per_residue[q as usize].push((l, w));
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
        ops,
        lo,
        hi,
        base,
    }))
}

/// Weighted at-most-`cap` over literals: full-width items by pairwise
/// exclusion, the rest through a unary sequential counter with each
/// literal repeated `weight` times.
fn at_most_k(out: &mut impl ClauseSink, items: &[(Lit, i32)], cap: i32) {
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
