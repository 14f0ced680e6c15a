//! A compact CDCL solver: two-watched-literal propagation over a flat
//! clause arena (watch entries carry a blocker literal), first-UIP
//! conflict analysis, VSIDS-lite variable activities on an indexed heap,
//! phase saving, and Luby-sequence restarts with learnt-clause reduction
//! at restart boundaries. No dependencies outside std.

use crate::encode::Cnf;

/// Variable index (0-based).
pub type Var = u32;

/// A literal: variable + sign, packed as `var << 1 | negated`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }
    pub fn neg(v: Var) -> Lit {
        Lit(v << 1 | 1)
    }
    pub fn var(self) -> Var {
        self.0 >> 1
    }
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }
    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for Lit {
    /// DIMACS style: 1-based, minus for negation.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "-" } else { "" },
            self.var() + 1
        )
    }
}

/// Counters of one `solve` run (cumulative across restarts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub learnt: u64,
    /// Passes that dropped the older half of the long learnt clauses.
    pub reductions: u64,
}

/// Result of a `solve` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    Sat,
    Unsat,
    /// The `should_stop` callback fired (deadline or cancellation) before
    /// a decision either way.
    Stopped,
}

/// `solve` polls `should_stop` after every this many decisions…
const STOP_POLL_DECISIONS: u64 = 32;
/// …and after every this many conflicts, so once the callback turns
/// true the search makes at most this much further progress.
const STOP_POLL_CONFLICTS: u64 = 8;

/// Where one clause lives in the arena: `arena[start..start + len]`.
#[derive(Clone, Copy)]
struct ClauseHdr {
    start: u32,
    len: u32,
    learnt: bool,
}

/// A watch-list entry. `blocker` is another literal of the clause: while
/// it is true the clause is satisfied and propagation skips it without
/// reading the arena. For a two-literal clause (`BINARY` set in `tag`)
/// the blocker is the other watched literal, so propagation never reads
/// the arena at all.
#[derive(Clone, Copy)]
struct Watcher {
    /// Clause index, or-ed with `BINARY` for two-literal clauses.
    tag: u32,
    blocker: Lit,
}

const BINARY: u32 = 1 << 31;

const UNDEF: u32 = u32::MAX;

pub struct Solver {
    /// Literals of every clause, back to back; `clauses[c]` locates
    /// clause `c`. Its two watched literals are its first two.
    arena: Vec<Lit>,
    clauses: Vec<ClauseHdr>,
    /// `watches[l.idx()]`: clauses with `l` among their two watched
    /// literals — visited when `l` becomes false.
    watches: Vec<Vec<Watcher>>,
    /// Clauses `..attached` are on their watch lists. Input clauses are
    /// only stored by `add_clause`; `solve` watches them all in one pass.
    attached: usize,
    /// Per-literal value: 0 = unassigned, 1 = true, -1 = false (a
    /// literal and its negation always hold opposite values).
    vals: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    heap: VarHeap,
    /// Saved phase per var (last assigned polarity; `false` initially —
    /// the encoding is mostly-false, so this is the productive default).
    polarity: Vec<bool>,
    seen: Vec<bool>,
    unsat: bool,
    /// Conflicts per unit of the Luby sequence between restarts.
    restart_base: u64,
    /// Learnt clauses before the first reduction; `None` means the
    /// larger of 4000 and half the clause count at `solve`.
    first_reduction: Option<u64>,
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Solver {
        Solver::with_vars(0)
    }

    /// A solver with `n` variables and every per-variable table
    /// allocated once; the order heap starts as the identity, which is
    /// what `n` calls of `new_var` build (all activities are 0).
    fn with_vars(n: usize) -> Solver {
        Solver {
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            attached: 0,
            vals: vec![0; 2 * n],
            level: vec![0; n],
            reason: vec![UNDEF; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            act_inc: 1.0,
            heap: VarHeap::identity(n),
            polarity: vec![false; n],
            seen: vec![false; n],
            unsat: false,
            restart_base: 128,
            first_reduction: None,
            stats: SolverStats::default(),
        }
    }

    /// Load a whole CNF at once: the same solver as `new`, `cnf.n_vars`
    /// calls of `new_var` and `add_clause` on each clause in order, with
    /// the per-variable tables, the arena and the clause headers each
    /// allocated once.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::with_vars(cnf.n_vars as usize);
        s.arena
            .reserve_exact(cnf.clauses.iter().map(Vec::len).sum());
        s.clauses.reserve_exact(cnf.clauses.len());
        for c in &cnf.clauses {
            s.add_clause(c);
        }
        s
    }

    pub fn n_vars(&self) -> u32 {
        self.level.len() as u32
    }

    pub fn new_var(&mut self) -> Var {
        let v = self.level.len() as Var;
        self.vals.extend([0, 0]);
        self.level.push(0);
        self.reason.push(UNDEF);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    fn lit_value(&self, l: Lit) -> i8 {
        self.vals[l.idx()]
    }

    /// Model value of a variable after `SolveOutcome::Sat`. An
    /// unconstrained variable left unassigned reads as `false`.
    pub fn model_value(&self, v: Var) -> bool {
        self.vals[Lit::pos(v).idx()] == 1
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Add an input clause. Must be called before `solve`. Tautologies
    /// are dropped; literals already false at the root are stripped.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        debug_assert_eq!(self.decision_level(), 0);
        // Build the clause in place at the arena's tail.
        let start = self.arena.len();
        for &l in lits {
            debug_assert!(l.var() < self.n_vars());
            let c = &self.arena[start..];
            if self.lit_value(l) == 1 || c.contains(&l.negated()) {
                self.arena.truncate(start);
                return; // satisfied at root / tautology
            }
            if self.lit_value(l) == -1 || c.contains(&l) {
                continue; // root-false or duplicate
            }
            self.arena.push(l);
        }
        match self.arena.len() - start {
            0 => self.unsat = true,
            1 => {
                let unit = self.arena.pop().expect("one literal");
                if !self.enqueue(unit, UNDEF) {
                    self.unsat = true;
                }
            }
            len => self.clauses.push(ClauseHdr {
                start: start as u32,
                len: len as u32,
                learnt: false,
            }),
        }
    }

    /// Put every clause stored since the last call on its watch lists.
    /// Each list grows once, to a size counted beforehand.
    fn attach_pending(&mut self) {
        let pending = self.attached..self.clauses.len();
        let mut grow = vec![0u32; self.watches.len()];
        for h in &self.clauses[pending.clone()] {
            grow[self.arena[h.start as usize].idx()] += 1;
            grow[self.arena[h.start as usize + 1].idx()] += 1;
        }
        for (w, &n) in self.watches.iter_mut().zip(&grow) {
            w.reserve_exact(n as usize);
        }
        for cref in pending {
            self.watch(cref as u32);
        }
        self.attached = self.clauses.len();
    }

    /// Watch the first two literals of clause `cref`, each blocked by
    /// the other.
    fn watch(&mut self, cref: u32) {
        debug_assert!(cref < BINARY, "clause index overflows the watch tag");
        let h = self.clauses[cref as usize];
        let (a, b) = (
            self.arena[h.start as usize],
            self.arena[h.start as usize + 1],
        );
        let tag = if h.len == 2 { cref | BINARY } else { cref };
        self.watches[a.idx()].push(Watcher { tag, blocker: b });
        self.watches[b.idx()].push(Watcher { tag, blocker: a });
    }

    /// Assign `l` true with the given reason clause; `false` on conflict
    /// with an existing assignment.
    fn enqueue(&mut self, l: Lit, reason: u32) -> bool {
        match self.lit_value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = l.var() as usize;
                self.vals[l.idx()] = 1;
                self.vals[l.negated().idx()] = -1;
                self.level[v] = self.decision_level() as u32;
                self.reason[v] = reason;
                self.polarity[v] = !l.is_neg();
                self.trail.push(l);
                true
            }
        }
    }

    /// Propagate to fixpoint; returns the conflicting clause, if any.
    /// Each visited watch list is compacted in place: entries that stay
    /// are copied down over those that moved to another literal.
    fn propagate(&mut self) -> Option<u32> {
        let mut confl = None;
        while confl.is_none() && self.qhead < self.trail.len() {
            let false_lit = self.trail[self.qhead].negated();
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.vals[w.blocker.idx()] == 1 {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (cref, unit) = if w.tag & BINARY != 0 {
                    // The blocker is the clause's only other literal.
                    (w.tag & !BINARY, w.blocker)
                } else {
                    let h = self.clauses[w.tag as usize];
                    let lits = &mut self.arena[h.start as usize..(h.start + h.len) as usize];
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    let kept = Watcher {
                        tag: w.tag,
                        blocker: first,
                    };
                    if self.vals[first.idx()] == 1 {
                        ws[j] = kept;
                        j += 1;
                        continue;
                    }
                    if let Some(k) = (2..lits.len()).find(|&k| self.vals[lits[k].idx()] != -1) {
                        lits.swap(1, k);
                        self.watches[lits[1].idx()].push(kept);
                        continue;
                    }
                    (w.tag, first)
                };
                // Every literal but `unit` is false: it is implied, or
                // the clause is in conflict.
                ws[j] = Watcher {
                    tag: w.tag,
                    blocker: unit,
                };
                j += 1;
                if self.vals[unit.idx()] == -1 {
                    confl = Some(cref);
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    break;
                }
                self.stats.propagations += 1;
                let ok = self.enqueue(unit, cref);
                debug_assert!(ok);
            }
            ws.truncate(j);
            self.watches[false_lit.idx()] = ws;
        }
        if confl.is_some() {
            self.qhead = self.trail.len();
        }
        confl
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.act_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    /// First-UIP learning. Returns the learnt clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = UIP
        let mut touched: Vec<Var> = Vec::new();
        let cur_level = self.decision_level() as u32;
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        // The literal whose reason clause is being expanded (none for the
        // conflict clause itself).
        let mut implied: Option<Lit> = None;
        loop {
            let h = self.clauses[confl as usize];
            for li in h.start..h.start + h.len {
                let q = self.arena[li as usize];
                if Some(q) == implied {
                    continue;
                }
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    touched.push(v);
                    self.bump_var(v);
                    if self.level[v as usize] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negated();
                break;
            }
            confl = self.reason[p.var() as usize];
            debug_assert_ne!(confl, UNDEF, "non-decision literal must have a reason");
            implied = Some(p);
        }
        for v in touched {
            self.seen[v as usize] = false;
        }
        // Backtrack to the second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize] as usize
        };
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: usize) {
        if self.decision_level() <= lvl {
            return;
        }
        let lim = self.trail_lim[lvl];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            self.vals[l.idx()] = 0;
            self.vals[l.negated().idx()] = 0;
            let v = l.var();
            self.reason[v as usize] = UNDEF;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(lvl);
        self.qhead = lim;
    }

    /// Install a learnt clause and enqueue its asserting literal.
    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        self.stats.learnt += 1;
        if learnt.len() == 1 {
            let ok = self.enqueue(learnt[0], UNDEF);
            if !ok {
                self.unsat = true;
            }
            return;
        }
        let cref = self.clauses.len() as u32;
        self.clauses.push(ClauseHdr {
            start: self.arena.len() as u32,
            len: learnt.len() as u32,
            learnt: true,
        });
        self.arena.extend_from_slice(&learnt);
        self.watch(cref);
        self.attached = self.clauses.len();
        let ok = self.enqueue(learnt[0], cref);
        debug_assert!(ok);
    }

    /// Drop the oldest half of the long learnt clauses. Only sound at
    /// decision level 0 (no reason above the root can dangle). The
    /// surviving clauses slide down the arena in order, watches are
    /// rebuilt, and propagation restarts from the top of the trail.
    fn reduce_learnts(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.stats.reductions += 1;
        let long_learnts = self
            .clauses
            .iter()
            .filter(|h| h.learnt && h.len > 2)
            .count();
        // Clauses are in creation order, so the first ones met are the
        // oldest.
        let mut to_drop = long_learnts / 2;
        let (mut kept, mut end) = (0, 0);
        for ci in 0..self.clauses.len() {
            let h = self.clauses[ci];
            if h.learnt && h.len > 2 && to_drop > 0 {
                to_drop -= 1;
                continue;
            }
            let start = h.start as usize;
            self.arena.copy_within(start..start + h.len as usize, end);
            self.clauses[kept] = ClauseHdr {
                start: end as u32,
                ..h
            };
            kept += 1;
            end += h.len as usize;
        }
        self.arena.truncate(end);
        self.clauses.truncate(kept);
        for w in &mut self.watches {
            w.clear();
        }
        self.reason.fill(UNDEF);
        for cref in 0..kept as u32 {
            self.watch(cref);
        }
        self.attached = kept;
        // Re-scan the root trail so the watch invariant is restored.
        self.qhead = 0;
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.vals[Lit::pos(v).idx()] == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Run the CDCL loop. `should_stop` is polled every 32 decisions and
    /// every 8 conflicts; when it returns true the search stops with
    /// `SolveOutcome::Stopped`.
    pub fn solve(&mut self, should_stop: &mut dyn FnMut() -> bool) -> SolveOutcome {
        self.solve_polled(&mut |_| should_stop())
    }

    /// `solve`, with the counters so far handed to each poll.
    fn solve_polled(&mut self, should_stop: &mut dyn FnMut(&SolverStats) -> bool) -> SolveOutcome {
        if self.unsat {
            return SolveOutcome::Unsat;
        }
        self.attach_pending();
        let mut restart_num = 0u64;
        let mut conflicts_left = luby(restart_num + 1) * self.restart_base;
        let mut reduce_at = self
            .first_reduction
            .unwrap_or((self.clauses.len() as u64 / 2).max(4000));
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.record_learnt(learnt);
                if self.unsat {
                    return SolveOutcome::Unsat;
                }
                self.act_inc /= 0.95;
                conflicts_left = conflicts_left.saturating_sub(1);
                if self.stats.conflicts.is_multiple_of(STOP_POLL_CONFLICTS)
                    && should_stop(&self.stats)
                {
                    return SolveOutcome::Stopped;
                }
            } else if conflicts_left == 0 {
                restart_num += 1;
                self.stats.restarts += 1;
                conflicts_left = luby(restart_num + 1) * self.restart_base;
                self.cancel_until(0);
                if self.stats.learnt > reduce_at {
                    self.reduce_learnts();
                    reduce_at = reduce_at + reduce_at / 2;
                }
            } else {
                match self.pick_branch() {
                    None => return SolveOutcome::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        if self.stats.decisions.is_multiple_of(STOP_POLL_DECISIONS)
                            && should_stop(&self.stats)
                        {
                            return SolveOutcome::Stopped;
                        }
                        self.trail_lim.push(self.trail.len());
                        let l = if self.polarity[v as usize] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        let ok = self.enqueue(l, UNDEF);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8…
fn luby(i: u64) -> u64 {
    let mut i = i;
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Max-heap over variables keyed by activity, with a position index for
/// in-place updates (the usual MiniSat order heap).
#[derive(Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<usize>,
}

const NOT_IN_HEAP: usize = usize::MAX;

impl VarHeap {
    /// Every variable `0..n`, in index order: the heap `n` inserts at
    /// equal activity build.
    fn identity(n: usize) -> VarHeap {
        VarHeap {
            heap: (0..n as Var).collect(),
            pos: (0..n).collect(),
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if (v as usize) >= self.pos.len() {
            self.pos.resize(v as usize + 1, NOT_IN_HEAP);
        }
        if self.pos[v as usize] != NOT_IN_HEAP {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        if (v as usize) < self.pos.len() && self.pos[v as usize] != NOT_IN_HEAP {
            self.sift_up(self.pos[v as usize], act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i] as usize] <= act[self.heap[p] as usize] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_stop() -> impl FnMut() -> bool {
        || false
    }

    fn solver_with(n: u32, clauses: &[&[Lit]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        s
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let p = Lit::pos;
        let n = Lit::neg;
        let mut s = solver_with(2, &[&[p(0), p(1)], &[n(0)]]);
        assert_eq!(s.solve(&mut no_stop()), SolveOutcome::Sat);
        assert!(!s.model_value(0));
        assert!(s.model_value(1));

        let mut s = solver_with(1, &[&[p(0)], &[n(0)]]);
        assert_eq!(s.solve(&mut no_stop()), SolveOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[h][b]: pigeon h in bin b. Each pigeon somewhere; no two share.
        let mut s = Solver::new();
        let v: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for h in &v {
            s.add_clause(&[h[0], h[1]]);
        }
        for b in 0..2 {
            for (h1, r1) in v.iter().enumerate() {
                for r2 in &v[h1 + 1..] {
                    s.add_clause(&[r1[b].negated(), r2[b].negated()]);
                }
            }
        }
        assert_eq!(s.solve(&mut no_stop()), SolveOutcome::Unsat);
        assert!(s.stats.conflicts > 0);
    }

    #[test]
    fn stop_callback_interrupts() {
        // Hard pigeonhole (7 into 6) with an immediately-true stop.
        let mut s = Solver::new();
        let v: Vec<Vec<Lit>> = (0..7)
            .map(|_| (0..6).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for h in &v {
            s.add_clause(&h.clone());
        }
        for b in 0..6 {
            for (h1, r1) in v.iter().enumerate() {
                for r2 in &v[h1 + 1..] {
                    s.add_clause(&[r1[b].negated(), r2[b].negated()]);
                }
            }
        }
        let mut calls = 0u32;
        let out = s.solve(&mut || {
            calls += 1;
            true
        });
        assert_eq!(out, SolveOutcome::Stopped);
        assert!(calls >= 1);
    }

    /// Deterministic xorshift64 stream for the random-CNF tests.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A clause of `width` random literals over `n_vars` (repeats and
        /// complementary pairs allowed).
        fn clause(&mut self, n_vars: u32, width: usize) -> Vec<Lit> {
            (0..width)
                .map(|_| {
                    let v = self.below(u64::from(n_vars)) as Var;
                    if self.below(2) == 0 {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect()
        }

        fn cnf(&mut self, n_vars: u32, n_clauses: usize, width: usize) -> Cnf {
            let clauses = (0..n_clauses).map(|_| self.clause(n_vars, width)).collect();
            Cnf { n_vars, clauses }
        }
    }

    fn satisfies(cnf: &Cnf, s: &Solver) -> bool {
        cnf.clauses
            .iter()
            .all(|c| c.iter().any(|l| s.model_value(l.var()) != l.is_neg()))
    }

    /// Exhaustive satisfiability over 6 to 20 variables, 64 assignments
    /// to a word: bit `b` of word `w` is assignment `64·w + b`, whose
    /// bit `v` is the value of var `v`.
    fn brute_force_sat(cnf: &Cnf) -> bool {
        assert!((6..=20).contains(&cnf.n_vars));
        const LOW: [u64; 6] = [
            0xaaaa_aaaa_aaaa_aaaa,
            0xcccc_cccc_cccc_cccc,
            0xf0f0_f0f0_f0f0_f0f0,
            0xff00_ff00_ff00_ff00,
            0xffff_0000_ffff_0000,
            0xffff_ffff_0000_0000,
        ];
        let holds = |l: Lit, w: usize| {
            let v = l.var() as usize;
            let word = if v < 6 {
                LOW[v]
            } else if (w >> (v - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            };
            if l.is_neg() {
                !word
            } else {
                word
            }
        };
        (0..1usize << (cnf.n_vars - 6)).any(|w| {
            cnf.clauses.iter().fold(u64::MAX, |alive, c| {
                alive & c.iter().fold(0, |any, &l| any | holds(l, w))
            }) != 0
        })
    }

    #[test]
    fn random_cnfs_agree_with_brute_force() {
        // Random 3-CNFs around the satisfiability threshold, each solved
        // twice: with the default policy, and with restarts and
        // reductions made so frequent that these small, exhaustively
        // checkable instances cross both many times.
        let mut rng = XorShift(0x2545f4914f6cdd1d);
        let (mut restarts, mut reductions, mut sat, mut unsat) = (0, 0, 0, 0);
        for case in 0..100 {
            let n_vars = 16 + (case % 3) as u32;
            let ratio = 3.9 + (case % 5) as f64 * 0.2;
            let cnf = rng.cnf(n_vars, (f64::from(n_vars) * ratio) as usize, 3);
            let expect = if brute_force_sat(&cnf) {
                sat += 1;
                SolveOutcome::Sat
            } else {
                unsat += 1;
                SolveOutcome::Unsat
            };
            for stress in [false, true] {
                let mut s = Solver::from_cnf(&cnf);
                if stress {
                    s.restart_base = 1;
                    s.first_reduction = Some(2);
                }
                let out = s.solve(&mut no_stop());
                assert_eq!(
                    out, expect,
                    "case {case} (stress {stress}) disagrees with brute force"
                );
                if out == SolveOutcome::Sat {
                    assert!(
                        satisfies(&cnf, &s),
                        "case {case} (stress {stress}): model violates a clause"
                    );
                }
                restarts += s.stats.restarts;
                reductions += s.stats.reductions;
            }
        }
        assert!(sat >= 30 && unsat >= 30, "{sat} sat, {unsat} unsat");
        assert!(restarts >= 100, "only {restarts} restarts");
        assert!(reductions >= 50, "only {reductions} reductions");
    }

    #[test]
    fn planted_instance_crosses_the_default_reduction_threshold() {
        // A random 3-CNF with a planted model: each clause keeps a literal
        // true under `hidden`, so the answer is Sat, and the model found
        // must satisfy every clause. At this size the default policy
        // restarts and reduces its learnt clauses on the way.
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        let n_vars = 250;
        let hidden: Vec<bool> = (0..n_vars).map(|_| rng.below(2) == 1).collect();
        let mut clauses = Vec::new();
        while clauses.len() < 1050 {
            let c = rng.clause(n_vars, 3);
            if c.iter().any(|l| hidden[l.var() as usize] != l.is_neg()) {
                clauses.push(c);
            }
        }
        let cnf = Cnf { n_vars, clauses };
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(&mut no_stop()), SolveOutcome::Sat);
        assert!(satisfies(&cnf, &s), "model violates a clause");
        assert!(s.stats.restarts >= 3, "{:?}", s.stats);
        assert!(s.stats.reductions >= 1, "{:?}", s.stats);
    }

    #[test]
    fn from_cnf_matches_clause_by_clause_loading() {
        // Units, root-false literals, duplicates and tautologies all
        // occur, so both paths go through the same root simplification.
        let mut rng = XorShift(0xd1b54a32d192ed03);
        for case in 0..40 {
            let mut cnf = rng.cnf(60, 250, 3);
            for k in 0..case % 4 {
                cnf.clauses.insert(k * 50, vec![Lit::neg(k as Var * 7)]);
            }
            let mut bulk = Solver::from_cnf(&cnf);
            let mut one_by_one = Solver::new();
            for _ in 0..cnf.n_vars {
                one_by_one.new_var();
            }
            for c in &cnf.clauses {
                one_by_one.add_clause(c);
            }
            let out = bulk.solve(&mut no_stop());
            assert_eq!(out, one_by_one.solve(&mut no_stop()), "case {case}");
            assert_eq!(bulk.stats, one_by_one.stats, "case {case}");
            let model = |s: &Solver| {
                (0..cnf.n_vars)
                    .map(|v| s.model_value(v))
                    .collect::<Vec<_>>()
            };
            assert_eq!(model(&bulk), model(&one_by_one), "case {case}");
        }
    }

    #[test]
    fn stop_lands_within_the_poll_bound() {
        // Once the stop condition turns true the search runs on for at
        // most 32 decisions and 8 conflicts, the bound `solve` states.
        // The condition reads the solver's own counters, so the bound is
        // checked in units of work, not time.
        // `hard` sits at the satisfiability threshold and conflicts
        // often; `loose` has ten times the variables and few clauses, so
        // it makes thousands of decisions and almost no conflicts.
        let mut rng = XorShift(0x853c49e6748fea9b);
        let hard = rng.cnf(300, 1280, 3);
        let loose = rng.cnf(3000, 600, 3);
        for (cnf, decisions, conflicts) in [
            (&loose, 1, u64::MAX),
            (&loose, 77, u64::MAX),
            (&loose, 1000, u64::MAX),
            (&hard, 77, u64::MAX),
            (&hard, u64::MAX, 1),
            (&hard, u64::MAX, 13),
            (&hard, 100, 5),
        ] {
            let mut s = Solver::from_cnf(cnf);
            let out =
                s.solve_polled(&mut |st| st.decisions >= decisions || st.conflicts >= conflicts);
            assert_eq!(out, SolveOutcome::Stopped, "{:?}", s.stats);
            assert!(
                s.stats.decisions <= decisions.saturating_add(32),
                "ran to {} decisions after a trigger at {decisions}",
                s.stats.decisions
            );
            assert!(
                s.stats.conflicts <= conflicts.saturating_add(8),
                "ran to {} conflicts after a trigger at {conflicts}",
                s.stats.conflicts
            );
        }
    }
}
