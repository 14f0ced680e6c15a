//! Nogood store with watched-literal propagation.
//!
//! A *nogood* is a forbidden conjunction of decisions
//! `¬(x₁=v₁ ∧ … ∧ xₖ=vₖ)`, harvested by the restart driver from the
//! refuted decision prefixes of an abandoned dive (Lecoutre-style
//! nld-nogoods). Viewed as a clause it is `(x₁≠v₁) ∨ … ∨ (xₖ≠vₖ)`:
//! a literal `xᵢ≠vᵢ` is *false* when `xᵢ` is fixed to `vᵢ`, *true* when
//! `vᵢ` has left `dom(xᵢ)`, and undecided otherwise.
//!
//! [`NogoodProp`] enforces every clause with the SAT two-watched-literal
//! scheme, adapted to a backtracking CP engine:
//!
//! - Each clause watches two non-false literals. A literal can only
//!   become false through a `FIX` of its variable, so the propagator
//!   subscribes `FIX`-tagged on every decision variable and inspects
//!   only the clauses watching a fired variable.
//! - Watch lists are **not trailed**. Moving a watch is backtrack-safe:
//!   watches only ever move *onto* non-false literals, and backtracking
//!   can only un-fix variables — it never falsifies a literal — so the
//!   "two non-false watches" invariant survives any number of pops.
//! - When no replacement watch exists the clause is unit (prune the
//!   remaining literal's value) or conflicting (`Err(Fail)`).
//!
//! The clause set lives in a shared [`NogoodBase`]: the search driver
//! appends harvested clauses at each restart (at the root, where the
//! engine re-runs its fixpoint), and the propagator lazily initializes
//! the new suffix on its next run. Length-1 nogoods prune at the root
//! and are therefore permanent for the remainder of the run.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One clause: literals as `(position-in-vars, forbidden value)` plus the
/// two watched literal indices (equal for a unit clause).
struct Clause {
    lits: Vec<(u32, i32)>,
    w: [u32; 2],
}

/// Shared clause store: the driver appends, [`NogoodProp`] enforces.
pub struct NogoodBase {
    /// The decision variables the propagator watches (deduplicated).
    vars: Vec<VarId>,
    /// VarId.0 → position in `vars`.
    pos_of: HashMap<u32, u32>,
    clauses: Vec<Clause>,
    /// Per variable position, the clauses currently watching it.
    watch_lists: Vec<Vec<u32>>,
    /// Clauses below this index have their watches installed.
    n_initialized: usize,
    /// Clauses ever added (monotone; survives [`NogoodBase::clear`]).
    pub posted: u64,
    /// Values pruned by unit propagation (monotone).
    pub pruned: u64,
    /// Conflicts (all literals false) detected (monotone).
    pub conflicts: u64,
}

impl NogoodBase {
    pub fn new(vars: Vec<VarId>) -> Self {
        let pos_of = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v.0, i as u32))
            .collect();
        let watch_lists = vec![Vec::new(); vars.len()];
        NogoodBase {
            vars,
            pos_of,
            clauses: Vec::new(),
            watch_lists,
            n_initialized: 0,
            posted: 0,
            pruned: 0,
            conflicts: 0,
        }
    }

    /// Append a harvested nogood. Literals over unknown variables drop
    /// the whole clause (harvests only contain decision variables, so
    /// this is a defensive no-op in practice).
    pub fn add_clause(&mut self, lits: Vec<(VarId, i32)>) {
        let mut mapped = Vec::with_capacity(lits.len());
        for (v, val) in lits {
            let Some(&p) = self.pos_of.get(&v.0) else {
                debug_assert!(false, "nogood literal over unwatched {v:?}");
                return;
            };
            mapped.push((p, val));
        }
        if mapped.is_empty() {
            return;
        }
        self.posted += 1;
        self.clauses.push(Clause {
            lits: mapped,
            w: [0, 0],
        });
    }

    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Drop every clause. Called by the search driver at the end of a
    /// run: recorded nogoods are only valid under that run's
    /// monotonically tightening objective bound, so a model reused for a
    /// later search must start from an empty base (the still-posted
    /// propagator then no-ops).
    pub fn clear(&mut self) {
        self.clauses.clear();
        for wl in &mut self.watch_lists {
            wl.clear();
        }
        self.n_initialized = 0;
    }

    /// Literal state: false ⇔ var fixed to the literal's value.
    #[inline]
    fn lit_false(&self, store: &Store, lit: (u32, i32)) -> bool {
        store.fixed_value(self.vars[lit.0 as usize]) == Some(lit.1)
    }

    /// Literal state: true ⇔ the value has left the domain.
    #[inline]
    fn lit_true(&self, store: &Store, lit: (u32, i32)) -> bool {
        !store.contains(self.vars[lit.0 as usize], lit.1)
    }

    /// Install watches for clauses appended since the last run and give
    /// each an initial check (a clause can arrive already unit — or even
    /// conflicting — under the root domains of a later restart).
    fn init_new(&mut self, store: &mut Store) -> PropResult {
        while self.n_initialized < self.clauses.len() {
            let ci = self.n_initialized as u32;
            self.n_initialized += 1;
            // Pick up to two non-false literals to watch.
            let c = &self.clauses[ci as usize];
            let mut picks = [0u32; 2];
            let mut n = 0;
            for (li, &lit) in c.lits.iter().enumerate() {
                if !self.lit_false(store, lit) {
                    picks[n] = li as u32;
                    n += 1;
                    if n == 2 {
                        break;
                    }
                }
            }
            match n {
                0 => {
                    // Every literal false under the current domains.
                    self.conflicts += 1;
                    return Err(Fail);
                }
                1 => {
                    let lit = c.lits[picks[0] as usize];
                    self.clauses[ci as usize].w = [picks[0], picks[0]];
                    self.watch_lists[lit.0 as usize].push(ci);
                    self.enforce_unit(store, lit)?;
                }
                _ => {
                    self.clauses[ci as usize].w = picks;
                    let c = &self.clauses[ci as usize];
                    for wi in [0, 1] {
                        let p = c.lits[c.w[wi] as usize].0 as usize;
                        self.watch_lists[p].push(ci);
                    }
                }
            }
        }
        Ok(())
    }

    /// All other literals false: force this one true.
    fn enforce_unit(&mut self, store: &mut Store, lit: (u32, i32)) -> PropResult {
        if self.lit_true(store, lit) {
            return Ok(()); // already satisfied
        }
        let var = self.vars[lit.0 as usize];
        if store.fixed_value(var) == Some(lit.1) {
            self.conflicts += 1;
            return Err(Fail);
        }
        self.pruned += 1;
        store.remove_value(var, lit.1).inspect_err(|_| {
            self.conflicts += 1;
        })
    }

    /// Re-examine one clause whose watched variable `p` fired. Moves
    /// watches / propagates / fails as the watched-literal scheme
    /// dictates. Returns `false` if the clause stopped watching `p`.
    fn visit(&mut self, store: &mut Store, ci: u32, p: u32) -> Result<bool, Fail> {
        let c = &self.clauses[ci as usize];
        // Which watch sits on the fired variable? (Unit clauses have both
        // on the same literal; handle them via the w[0] path.)
        let wi = if c.lits[c.w[0] as usize].0 == p {
            0
        } else if c.lits[c.w[1] as usize].0 == p {
            1
        } else {
            // Stale entry cannot happen: moves eagerly edit both lists.
            debug_assert!(false, "watch list out of sync");
            return Ok(false);
        };
        let watched = c.lits[c.w[wi] as usize];
        if !self.lit_false(store, watched) {
            return Ok(true); // spurious wake (fixed to some other value)
        }
        if c.w[0] == c.w[1] {
            // Unit clause: its only literal just went false.
            self.conflicts += 1;
            return Err(Fail);
        }
        let other = c.lits[c.w[1 - wi] as usize];
        // Look for a replacement non-false literal that is not the other
        // watch.
        let replacement = c.lits.iter().enumerate().find(|&(li, &lit)| {
            li as u32 != c.w[0] && li as u32 != c.w[1] && !self.lit_false(store, lit)
        });
        if let Some((li, &lit)) = replacement {
            let li = li as u32;
            self.clauses[ci as usize].w[wi] = li;
            let wl = &mut self.watch_lists[p as usize];
            let at = wl.iter().position(|&x| x == ci).expect("watching clause");
            wl.swap_remove(at);
            self.watch_lists[lit.0 as usize].push(ci);
            return Ok(false);
        }
        // No replacement: the clause is unit on `other` (or conflicting,
        // which enforce_unit detects).
        self.enforce_unit(store, other)?;
        Ok(true)
    }

    /// Process every clause watching variable position `p`.
    fn on_fix(&mut self, store: &mut Store, p: u32) -> PropResult {
        let mut i = 0;
        while i < self.watch_lists[p as usize].len() {
            let ci = self.watch_lists[p as usize][i];
            if self.visit(store, ci, p)? {
                i += 1; // clause kept its watch here
            }
            // else: swap_removed — same index now holds the next clause
        }
        Ok(())
    }
}

/// The engine-facing propagator: a thin lock around the shared base.
pub struct NogoodProp {
    base: Arc<Mutex<NogoodBase>>,
}

impl NogoodProp {
    pub fn new(base: Arc<Mutex<NogoodBase>>) -> Self {
        NogoodProp { base }
    }
}

impl Propagator for NogoodProp {
    fn subscribe(&self, subs: &mut Subscriptions) {
        let base = self.base.lock().unwrap();
        for (i, &v) in base.vars.iter().enumerate() {
            subs.watch_tagged(v, DomainEvent::FIX, i as u32);
        }
    }

    fn propagate(&mut self, store: &mut Store, wake: &Wake<'_>) -> PropResult {
        let mut base = self.base.lock().unwrap();
        base.init_new(store)?;
        if wake.rescan() {
            for p in 0..base.watch_lists.len() as u32 {
                base.on_fix(store, p)?;
            }
        } else {
            for &p in wake.tags() {
                base.on_fix(store, p)?;
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "nogoods"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn vars(m: &mut Model, n: usize, hi: i32) -> Vec<VarId> {
        (0..n).map(|_| m.new_var(0, hi)).collect()
    }

    fn base_with(m: &mut Model, xs: &[VarId]) -> Arc<Mutex<NogoodBase>> {
        let base = Arc::new(Mutex::new(NogoodBase::new(xs.to_vec())));
        m.post(Box::new(NogoodProp::new(base.clone())));
        base
    }

    #[test]
    fn unit_nogood_prunes_at_root() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        base.lock().unwrap().add_clause(vec![(xs[0], 3)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        assert!(!m.store.dom(xs[0]).contains(3));
        assert_eq!(base.lock().unwrap().pruned, 1);
    }

    #[test]
    fn binary_nogood_propagates_when_one_literal_falsifies() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        base.lock()
            .unwrap()
            .add_clause(vec![(xs[0], 2), (xs[1], 4)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.push_level();
        m.store.fix(xs[0], 2).unwrap();
        m.engine.fixpoint(&mut m.store).unwrap();
        assert!(!m.store.dom(xs[1]).contains(4), "unit-propagated x1 != 4");
        // Backtracking restores both the fix and the pruning.
        m.store.pop_level();
        assert!(m.store.dom(xs[1]).contains(4));
        // The nogood still fires on a later re-fix (watches survived).
        m.store.push_level();
        m.store.fix(xs[0], 2).unwrap();
        m.engine.fixpoint(&mut m.store).unwrap();
        assert!(!m.store.dom(xs[1]).contains(4));
        m.store.pop_level();
    }

    #[test]
    fn conflicting_assignment_fails() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        base.lock()
            .unwrap()
            .add_clause(vec![(xs[0], 1), (xs[1], 1)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.push_level();
        // Falsify both literals before the propagator gets a chance to make
        // the clause unit: the fixpoint must then report the conflict.
        m.store.fix(xs[0], 1).unwrap();
        m.store.fix(xs[1], 1).unwrap();
        assert!(m.engine.fixpoint(&mut m.store).is_err());
        assert!(base.lock().unwrap().conflicts >= 1);
        m.store.pop_level();
    }

    #[test]
    fn watches_move_through_long_clauses() {
        let mut m = Model::new();
        let xs = vars(&mut m, 4, 9);
        let base = base_with(&mut m, &xs);
        base.lock()
            .unwrap()
            .add_clause(vec![(xs[0], 0), (xs[1], 1), (xs[2], 2), (xs[3], 3)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.push_level();
        // Falsify three of four literals in arbitrary order.
        for (v, val) in [(xs[2], 2), (xs[0], 0), (xs[3], 3)] {
            m.store.fix(v, val).unwrap();
            m.engine.fixpoint(&mut m.store).unwrap();
        }
        assert!(!m.store.dom(xs[1]).contains(1), "last literal forced true");
        m.store.pop_level();
    }

    #[test]
    fn satisfied_clause_never_fires() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        base.lock()
            .unwrap()
            .add_clause(vec![(xs[0], 2), (xs[1], 4)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.push_level();
        // Make the second literal true first, then falsify the first.
        m.store.remove_value(xs[1], 4).unwrap();
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.fix(xs[0], 2).unwrap();
        m.engine.fixpoint(&mut m.store).unwrap();
        assert_eq!(m.store.dom(xs[0]).value(), Some(2)); // no interference
        m.store.pop_level();
    }

    #[test]
    fn clauses_added_between_fixpoints_are_picked_up() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap(); // runs with zero clauses
        base.lock().unwrap().add_clause(vec![(xs[1], 5)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        assert!(!m.store.dom(xs[1]).contains(5));
        assert_eq!(base.lock().unwrap().posted, 1);
    }

    #[test]
    fn clear_disarms_the_base() {
        let mut m = Model::new();
        let xs = vars(&mut m, 2, 5);
        let base = base_with(&mut m, &xs);
        base.lock().unwrap().add_clause(vec![(xs[0], 0)]);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap();
        base.lock().unwrap().clear();
        assert_eq!(base.lock().unwrap().num_clauses(), 0);
        m.engine.schedule_all(&m.store);
        m.engine.fixpoint(&mut m.store).unwrap(); // no panic, no effect
        m.store.push_level();
        m.store.fix(xs[0], 1).unwrap();
        m.engine.fixpoint(&mut m.store).unwrap();
        m.store.pop_level();
    }
}
