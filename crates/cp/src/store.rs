//! The variable store: domains plus a trail for chronological backtracking.
//!
//! All domain mutation during search goes through [`Store`] methods, which
//! transparently save the pre-modification domain the first time a variable
//! is touched at the current search level. [`Store::push_level`] opens a new
//! level; [`Store::pop_level`] restores every domain changed since the
//! matching push. Changes made at the root level (before any push) are
//! permanent, which is how model set-up and branch-and-bound tightening of
//! the objective bound are expressed.

use crate::domain::{Domain, DomainEvent};
use std::fmt;

/// Index of a finite-domain variable in a [`Store`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Raised when a domain becomes empty: the current search node is dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fail;

/// Outcome alias used by every propagation routine.
pub type PropResult = Result<(), Fail>;

pub struct Store {
    domains: Vec<Domain>,
    names: Vec<String>,
    /// (var, saved domain) entries, chronological.
    trail: Vec<(u32, Domain)>,
    /// (trail length, magic) at each open level. The magic identifies the
    /// level instance: it is never reused, so a variable saved at a popped
    /// level is correctly re-saved when the *parent* level mutates it.
    level_marks: Vec<(usize, u64)>,
    /// Magic of the level at which each var was last trailed; avoids
    /// trailing the same var twice in one level.
    saved_at: Vec<u64>,
    /// Incremented on every `push_level`; never reused.
    magic: u64,
    /// Modification log: (var, event) entries accumulated since the engine
    /// last drained them. One entry per mutation, classified by effect.
    log: Vec<(u32, DomainEvent)>,
    /// Monotone count of domain mutations (never rewound on backtrack);
    /// deltas around a propagator run give its pruning count.
    changes: u64,
    /// When false, every new variable is [`Domain::pin`]ned to the
    /// interval-list representation (see [`Store::set_bitset`]).
    bitset_enabled: bool,
}

impl Store {
    pub fn new() -> Self {
        Store {
            domains: Vec::new(),
            names: Vec::new(),
            trail: Vec::new(),
            level_marks: Vec::new(),
            saved_at: Vec::new(),
            magic: 0,
            log: Vec::new(),
            changes: 0,
            bitset_enabled: true,
        }
    }

    /// Enable or disable the bitset domain representation. Disabling pins
    /// every existing domain (trailed copies included) and every later one
    /// to the interval list, so a test can pin a model after it was built;
    /// enabling affects only variables created afterwards. Search
    /// behaviour is identical either way — the pinned store is the
    /// reference the differential and kernel tests compare the hybrid
    /// representation against.
    pub fn set_bitset(&mut self, on: bool) {
        self.bitset_enabled = on;
        if !on {
            self.domains.iter_mut().for_each(Domain::pin);
            self.trail.iter_mut().for_each(|(_, d)| d.pin());
        }
    }

    /// `(bitset, interval-list)` counts over the current domains — the
    /// domain-representation histogram surfaced in run metrics.
    pub fn domain_rep_counts(&self) -> (usize, usize) {
        let bits = self.domains.iter().filter(|d| d.is_bitset()).count();
        (bits, self.domains.len() - bits)
    }

    /// Create a variable with domain `lo..=hi`.
    pub fn new_var(&mut self, lo: i32, hi: i32) -> VarId {
        self.new_var_named(lo, hi, "")
    }

    /// Create a variable with a diagnostic name.
    pub fn new_var_named(&mut self, lo: i32, hi: i32, name: &str) -> VarId {
        assert!(lo <= hi, "empty initial domain {lo}..{hi} for {name}");
        assert!(
            self.level_marks.is_empty(),
            "variables must be created at the root level"
        );
        let id = VarId(self.domains.len() as u32);
        let mut dom = Domain::interval(lo, hi);
        if !self.bitset_enabled {
            dom.pin();
        }
        self.domains.push(dom);
        self.names.push(name.to_string());
        self.saved_at.push(0);
        id
    }

    /// Create a variable with an explicit (possibly holey) domain.
    pub fn new_var_with_domain(&mut self, mut dom: Domain, name: &str) -> VarId {
        assert!(!dom.is_empty(), "empty initial domain for {name}");
        if !self.bitset_enabled {
            dom.pin();
        }
        assert!(
            self.level_marks.is_empty(),
            "variables must be created at the root level"
        );
        let id = VarId(self.domains.len() as u32);
        self.domains.push(dom);
        self.names.push(name.to_string());
        self.saved_at.push(0);
        id
    }

    /// Create a constant (singleton) variable.
    pub fn new_const(&mut self, v: i32) -> VarId {
        self.new_var(v, v)
    }

    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.idx()]
    }

    #[inline]
    pub fn dom(&self, v: VarId) -> &Domain {
        &self.domains[v.idx()]
    }

    #[inline]
    pub fn min(&self, v: VarId) -> i32 {
        self.domains[v.idx()].min()
    }

    #[inline]
    pub fn max(&self, v: VarId) -> i32 {
        self.domains[v.idx()].max()
    }

    #[inline]
    pub fn is_fixed(&self, v: VarId) -> bool {
        self.domains[v.idx()].is_fixed()
    }

    /// FNV-1a 64-bit digest of every variable's (min, max) bounds, in
    /// variable order. Two stores with the same shape hash equal iff all
    /// bounds agree — the replay engine compares these digests to pin the
    /// solver's domain trajectory, not just its decision sequence.
    /// Interior holes are deliberately not hashed: bounds are O(1) per
    /// variable where interval lists are not, and a hole can only affect
    /// the search after it reaches a bound, which the next digest sees.
    pub fn state_hash(&self) -> u64 {
        let mut h = crate::trace::Fnv64::new();
        for d in &self.domains {
            h.write(&d.min().to_le_bytes());
            h.write(&d.max().to_le_bytes());
        }
        h.finish()
    }

    /// The assigned value; panics if not fixed (use in extraction paths).
    #[inline]
    pub fn value(&self, v: VarId) -> i32 {
        self.domains[v.idx()].value().expect("variable not fixed")
    }

    #[inline]
    pub fn size(&self, v: VarId) -> u64 {
        self.domains[v.idx()].size()
    }

    /// Current search depth (0 = root).
    pub fn depth(&self) -> usize {
        self.level_marks.len()
    }

    /// The innermost open level as `(depth, magic)`; the root is `(0, 0)`.
    /// A stamp names one level instance: a sibling opened at the same
    /// depth after a pop gets a new magic.
    pub(crate) fn level_stamp(&self) -> (usize, u64) {
        (self.depth(), self.level_marks.last().map_or(0, |&(_, m)| m))
    }

    /// True while the level `stamp` names is open: search has not
    /// backtracked past it. The root never closes.
    pub(crate) fn level_open(&self, (depth, magic): (usize, u64)) -> bool {
        depth == 0
            || self
                .level_marks
                .get(depth - 1)
                .is_some_and(|&(_, m)| m == magic)
    }

    /// Open a new backtrack level.
    pub fn push_level(&mut self) {
        self.magic += 1;
        self.level_marks.push((self.trail.len(), self.magic));
    }

    /// Restore every domain changed since the last `push_level`.
    pub fn pop_level(&mut self) {
        let (mark, _) = self.level_marks.pop().expect("pop_level at root");
        while self.trail.len() > mark {
            let (var, dom) = self.trail.pop().unwrap();
            self.domains[var as usize] = dom;
        }
        self.log.clear();
    }

    #[inline]
    fn save(&mut self, v: VarId) {
        let Some(&(_, level_magic)) = self.level_marks.last() else {
            return; // root-level changes are permanent
        };
        if self.saved_at[v.idx()] != level_magic {
            self.saved_at[v.idx()] = level_magic;
            self.trail.push((v.0, self.domains[v.idx()].clone()));
        }
    }

    #[inline]
    fn after_change(&mut self, v: VarId, ev: DomainEvent) -> PropResult {
        self.changes += 1;
        if self.domains[v.idx()].is_empty() {
            Err(Fail)
        } else {
            debug_assert!(!ev.is_empty(), "every change must fire an event");
            self.log.push((v.0, ev));
            Ok(())
        }
    }

    /// Event bits that describe the transition from `(old_min, old_max)`
    /// to the current domain of `v`, assuming the domain is non-empty.
    #[inline]
    fn bound_event(&self, v: VarId, old_min: i32, old_max: i32) -> DomainEvent {
        let d = &self.domains[v.idx()];
        if d.is_empty() {
            return DomainEvent::ANY; // failing entry is never logged
        }
        let mut ev = DomainEvent::NONE;
        if d.min() > old_min {
            ev |= DomainEvent::MIN;
        }
        if d.max() < old_max {
            ev |= DomainEvent::MAX;
        }
        if d.is_fixed() && old_min != old_max {
            ev |= DomainEvent::FIX;
        }
        if ev.is_empty() {
            // Changed without moving a bound or fixing: interior removal.
            ev = DomainEvent::HOLE;
        }
        ev
    }

    /// Total domain mutations so far (monotone; includes the mutation
    /// that emptied a domain on failure).
    #[inline]
    pub fn change_count(&self) -> u64 {
        self.changes
    }

    /// Drain the modification log (consumed by the engine).
    pub(crate) fn take_events(&mut self) -> Vec<(u32, DomainEvent)> {
        std::mem::take(&mut self.log)
    }

    pub(crate) fn has_events(&self) -> bool {
        !self.log.is_empty()
    }

    // ---- mutation API -----------------------------------------------------

    /// `v ≥ lo`.
    pub fn remove_below(&mut self, v: VarId, lo: i32) -> PropResult {
        if self.domains[v.idx()].min() >= lo {
            return Ok(());
        }
        let was_fixed = self.domains[v.idx()].is_fixed();
        self.save(v);
        self.domains[v.idx()].remove_below(lo);
        let mut ev = DomainEvent::MIN;
        if !was_fixed && self.domains[v.idx()].is_fixed() {
            ev |= DomainEvent::FIX;
        }
        self.after_change(v, ev)
    }

    /// `v ≤ hi`.
    pub fn remove_above(&mut self, v: VarId, hi: i32) -> PropResult {
        if self.domains[v.idx()].max() <= hi {
            return Ok(());
        }
        let was_fixed = self.domains[v.idx()].is_fixed();
        self.save(v);
        self.domains[v.idx()].remove_above(hi);
        let mut ev = DomainEvent::MAX;
        if !was_fixed && self.domains[v.idx()].is_fixed() {
            ev |= DomainEvent::FIX;
        }
        self.after_change(v, ev)
    }

    /// `v ≠ val`.
    pub fn remove_value(&mut self, v: VarId, val: i32) -> PropResult {
        let d = &self.domains[v.idx()];
        if !d.contains(val) {
            return Ok(());
        }
        let (old_min, old_max) = (d.min(), d.max());
        self.save(v);
        self.domains[v.idx()].remove_value(val);
        let ev = self.bound_event(v, old_min, old_max);
        self.after_change(v, ev)
    }

    /// `v = val`. Fails if `val` is not in the domain.
    pub fn fix(&mut self, v: VarId, val: i32) -> PropResult {
        let d = &self.domains[v.idx()];
        if d.value() == Some(val) {
            return Ok(());
        }
        if !d.contains(val) {
            return Err(Fail);
        }
        let mut ev = DomainEvent::FIX;
        if d.min() < val {
            ev |= DomainEvent::MIN;
        }
        if d.max() > val {
            ev |= DomainEvent::MAX;
        }
        self.save(v);
        self.domains[v.idx()].fix(val);
        self.after_change(v, ev)
    }

    /// `v ∈ other` (intersect with an explicit domain). An empty `other`
    /// empties `v`: `Err(Fail)`.
    pub fn intersect(&mut self, v: VarId, other: &Domain) -> PropResult {
        // Probe cheaply: bounds-only fast path.
        let d = &self.domains[v.idx()];
        if !other.is_empty()
            && d.min() >= other.min()
            && d.max() <= other.max()
            && other.interval_count() == 1
        {
            return Ok(());
        }
        // Compare before trailing: a no-op intersect leaves the trail and
        // the event log alone.
        let Some(narrowed) = d.narrowed_by(other) else {
            return Ok(());
        };
        let (old_min, old_max) = (d.min(), d.max());
        self.save(v);
        self.domains[v.idx()] = narrowed;
        let ev = self.bound_event(v, old_min, old_max);
        self.after_change(v, ev)
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Store(depth={}):", self.depth())?;
        for (i, d) in self.domains.iter().enumerate() {
            let name = if self.names[i].is_empty() {
                format!("x{i}")
            } else {
                self.names[i].clone()
            };
            writeln!(f, "  {name} = {d:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_restores_domains() {
        let mut s = Store::new();
        let x = s.new_var(0, 9);
        let y = s.new_var(0, 9);
        s.push_level();
        s.remove_below(x, 5).unwrap();
        s.fix(y, 3).unwrap();
        assert_eq!(s.min(x), 5);
        assert_eq!(s.value(y), 3);
        s.pop_level();
        assert_eq!(s.min(x), 0);
        assert_eq!(s.dom(y).size(), 10);
    }

    #[test]
    fn nested_levels_restore_in_order() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        s.push_level();
        s.remove_above(x, 8).unwrap();
        s.push_level();
        s.remove_above(x, 4).unwrap();
        s.push_level();
        s.fix(x, 2).unwrap();
        s.pop_level();
        assert_eq!(s.max(x), 4);
        s.pop_level();
        assert_eq!(s.max(x), 8);
        s.pop_level();
        assert_eq!(s.max(x), 10);
    }

    #[test]
    fn root_changes_are_permanent() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        s.remove_below(x, 3).unwrap(); // root-level
        s.push_level();
        s.remove_below(x, 7).unwrap();
        s.pop_level();
        assert_eq!(s.min(x), 3);
    }

    #[test]
    fn fix_outside_domain_fails() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        s.push_level();
        assert_eq!(s.fix(x, 9), Err(Fail));
    }

    #[test]
    fn empty_domain_fails_and_pop_recovers() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        s.push_level();
        s.remove_below(x, 4).unwrap();
        assert_eq!(s.remove_above(x, 3), Err(Fail));
        s.pop_level();
        assert_eq!(s.min(x), 0);
        assert_eq!(s.max(x), 5);
    }

    #[test]
    fn log_tracks_changes_with_events() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        let y = s.new_var(0, 5);
        s.push_level();
        s.remove_below(x, 1).unwrap();
        s.remove_below(x, 2).unwrap();
        s.fix(y, 0).unwrap();
        let log = s.take_events();
        assert_eq!(log.len(), 3);
        assert!(log
            .iter()
            .any(|&(v, ev)| v == x.0 && ev.contains(DomainEvent::MIN)));
        // Fixing y at its old minimum lowers only the maximum.
        assert!(log
            .iter()
            .any(|&(v, ev)| v == y.0 && ev.contains(DomainEvent::FIX | DomainEvent::MAX)));
        assert!(!s.has_events());
    }

    #[test]
    fn no_op_mutations_do_not_trail() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        s.push_level();
        s.remove_below(x, 0).unwrap();
        s.remove_above(x, 5).unwrap();
        s.remove_value(x, 9).unwrap();
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn no_op_intersect_does_not_trail() {
        // A ~1000-value holey domain (interval list, not bitset)
        // intersected with itself at a new level changes nothing, so it
        // must neither trail a copy nor log an event.
        let mut s = Store::new();
        let holey = Domain::from_values((0..2000).filter(|v| v % 2 == 0));
        let x = s.new_var_with_domain(holey.clone(), "x");
        assert!(!s.dom(x).is_bitset());
        s.take_events();
        s.push_level();
        let trail = s.trail.len();
        s.intersect(x, &holey).unwrap();
        assert_eq!(s.trail.len(), trail);
        assert!(s.take_events().is_empty());
        assert_eq!(s.dom(x), &holey);
        // A real narrowing still trails once and restores on pop.
        s.intersect(x, &Domain::interval(0, 999)).unwrap();
        assert_eq!(s.trail.len(), trail + 1);
        assert_eq!(s.take_events().len(), 1);
        s.pop_level();
        assert_eq!(s.dom(x), &holey);
    }

    #[test]
    fn events_classify_mutations() {
        let mut s = Store::new();
        let x = s.new_var_with_domain(Domain::from_values([0, 2, 4, 6, 8]), "x");
        s.push_level();
        s.remove_value(x, 4).unwrap(); // interior: no bound moves
        s.remove_value(x, 0).unwrap(); // old minimum
        s.remove_above(x, 7).unwrap(); // maximum drops to 6
        s.remove_value(x, 6).unwrap(); // max removal leaves {2}: fixed
        let log = s.take_events();
        let evs: Vec<DomainEvent> = log.iter().map(|&(_, ev)| ev).collect();
        assert_eq!(
            evs,
            vec![
                DomainEvent::HOLE,
                DomainEvent::MIN,
                DomainEvent::MAX,
                DomainEvent::MAX | DomainEvent::FIX,
            ]
        );
    }

    #[test]
    fn intersect_with_empty_fails_and_pop_recovers() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        s.push_level();
        assert_eq!(s.intersect(x, &Domain::empty()), Err(Fail));
        s.pop_level();
        assert_eq!(s.dom(x), &Domain::interval(0, 5));
        // At the root too, where nothing is trailed.
        assert_eq!(s.intersect(x, &Domain::from_values([])), Err(Fail));
    }

    #[test]
    fn same_level_saves_once_but_restores_original() {
        let mut s = Store::new();
        let x = s.new_var(0, 100);
        s.push_level();
        for lo in 1..50 {
            s.remove_below(x, lo).unwrap();
        }
        assert_eq!(s.trail.len(), 1);
        s.pop_level();
        assert_eq!(s.min(x), 0);
    }

    /// Regression: a var saved at a *child* level must be re-saved when
    /// the parent level mutates it after the child was popped; otherwise
    /// the parent's pop fails to restore it.
    #[test]
    fn parent_level_saves_after_child_pop() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        s.push_level(); // parent
        s.push_level(); // child
        s.remove_above(x, 8).unwrap(); // saved at child
        s.pop_level(); // x restored to [0,10]
        s.remove_above(x, 5).unwrap(); // must be saved at parent
        s.pop_level();
        assert_eq!(s.max(x), 10);
    }

    #[test]
    fn bitset_switch_pins_new_vars_without_changing_behaviour() {
        let mut on = Store::new();
        let mut off = Store::new();
        off.set_bitset(false);
        let xs: Vec<VarId> = (0..3).map(|_| on.new_var(0, 60)).collect();
        let ys: Vec<VarId> = (0..3).map(|_| off.new_var(0, 60)).collect();
        assert_eq!(on.domain_rep_counts(), (3, 0));
        assert_eq!(off.domain_rep_counts(), (0, 3));
        on.push_level();
        off.push_level();
        for (&x, &y) in xs.iter().zip(&ys) {
            on.remove_value(x, 30).unwrap();
            off.remove_value(y, 30).unwrap();
            on.remove_below(x, 10).unwrap();
            off.remove_below(y, 10).unwrap();
        }
        assert_eq!(on.state_hash(), off.state_hash());
        assert_eq!(on.take_events(), off.take_events());
        for (&x, &y) in xs.iter().zip(&ys) {
            assert_eq!(on.dom(x), off.dom(y));
        }
        // The pinned representation sticks across backtracking.
        off.pop_level();
        assert_eq!(off.domain_rep_counts(), (0, 3));
    }

    #[test]
    fn bitset_switch_pins_existing_vars() {
        let mut s = Store::new();
        let xs: Vec<VarId> = (0..3).map(|_| s.new_var(0, 60)).collect();
        s.push_level();
        s.remove_value(xs[0], 30).unwrap();
        s.set_bitset(false);
        assert_eq!(s.domain_rep_counts(), (0, 3));
        s.pop_level();
        assert_eq!(
            s.domain_rep_counts(),
            (0, 3),
            "trailed copies are pinned too"
        );
        assert_eq!(s.dom(xs[0]), &Domain::interval(0, 60));
    }

    #[test]
    fn magic_not_confused_by_pop_then_push() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        s.push_level();
        s.remove_below(x, 2).unwrap();
        s.pop_level();
        s.push_level();
        // If the stamp were reused, this change would not be trailed.
        s.remove_below(x, 5).unwrap();
        s.pop_level();
        assert_eq!(s.min(x), 0);
    }
}
