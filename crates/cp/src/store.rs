//! The variable store: domains plus a trail for chronological backtracking.
//!
//! All domain mutation during search goes through [`Store`] methods, which
//! transparently save the pre-modification domain the first time a variable
//! is touched at the current search level. [`Store::push_level`] opens a new
//! level; [`Store::pop_level`] restores every domain changed since the
//! matching push. Changes made at the root level (before any push) are
//! permanent, which is how model set-up and branch-and-bound tightening of
//! the objective bound are expressed.
//!
//! A *view* ([`Store::view`]) is a `VarId` whose domain is another
//! variable's shifted by a constant. It has no domain of its own: every
//! read and write acts on its base, so only real variables are trailed,
//! hashed and counted, and every event is logged on the base.

use crate::domain::{Domain, DomainEvent};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Index of a finite-domain variable in a [`Store`]: a real variable
/// below `VarId::VIEW` (2³¹), a view from there up.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// The first view id: view `k` is `VarId(VIEW + k)`.
    pub(crate) const VIEW: u32 = 1 << 31;

    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// True if this id names a view rather than a real variable.
    #[inline]
    pub fn is_view(self) -> bool {
        self.0 >= Self::VIEW
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
    /// One domain per real variable.
    domains: Vec<Domain>,
    names: Vec<String>,
    /// `(base, offset)` per view, indexed by `VarId − VarId::VIEW`.
    views: Vec<(u32, i32)>,
    /// The canonical view per `(base, offset)`.
    view_ids: HashMap<(u32, i32), VarId>,
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
            views: Vec::new(),
            view_ids: HashMap::new(),
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

    /// `(bitset, interval-list)` counts over the real variables' domains
    /// — the domain-representation histogram surfaced in run metrics.
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

    /// The view `x + c`: a `VarId` whose values, bounds, holes and events
    /// are those of `x` shifted by `c`. It has no domain: reads and
    /// writes through it act on the base variable, and a watch on it is
    /// a watch on the base with the same event bits (a shift preserves
    /// order, so `MIN` stays `MIN`). Views are canonical: a view of a
    /// view is a view of the base, `c = 0` gives `x` back, and one
    /// `(base, offset)` always gives the same id. Panics when the base
    /// shifted by `c` leaves the `i32` range, so no value of a view ever
    /// overflows.
    pub fn view(&mut self, x: VarId, c: i32) -> VarId {
        let (base, off) = self.resolve(x);
        let off = off.checked_add(c).expect("view offset overflows i32");
        if off == 0 {
            return base;
        }
        if let Some(&v) = self.view_ids.get(&(base.0, off)) {
            return v;
        }
        assert!(
            self.level_marks.is_empty(),
            "views must be created at the root level"
        );
        let d = &self.domains[base.idx()];
        assert!(
            i32::try_from(d.min() as i64 + off as i64).is_ok()
                && i32::try_from(d.max() as i64 + off as i64).is_ok(),
            "view {base:?}{off:+} leaves the i32 range"
        );
        let id = VarId(VarId::VIEW + self.views.len() as u32);
        self.views.push((base.0, off));
        self.view_ids.insert((base.0, off), id);
        id
    }

    /// The real variable behind `v` and the offset of `v` from it:
    /// `(v, 0)` for a real variable.
    #[inline]
    pub(crate) fn resolve(&self, v: VarId) -> (VarId, i32) {
        if v.is_view() {
            let (b, c) = self.views[(v.0 - VarId::VIEW) as usize];
            (VarId(b), c)
        } else {
            (v, 0)
        }
    }

    /// The base domain behind `v` and the offset of `v` from it.
    #[inline]
    fn at(&self, v: VarId) -> (&Domain, i32) {
        let (b, c) = self.resolve(v);
        (&self.domains[b.idx()], c)
    }

    /// Number of real variables (views are not counted).
    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Number of views.
    pub(crate) fn num_views(&self) -> usize {
        self.views.len()
    }

    /// Diagnostic name; a view has none.
    pub fn name(&self, v: VarId) -> &str {
        if v.is_view() {
            ""
        } else {
            &self.names[v.idx()]
        }
    }

    /// The domain of a real variable. Panics on a view, which has no
    /// domain of its own: read views through [`Store::domain`] or the
    /// scalar accessors.
    #[inline]
    pub fn dom(&self, v: VarId) -> &Domain {
        assert!(!v.is_view(), "dom() of view {v:?}: use domain()");
        &self.domains[v.idx()]
    }

    /// The domain of `v`: borrowed for a real variable, a shifted copy
    /// for a view.
    #[inline]
    pub fn domain(&self, v: VarId) -> Cow<'_, Domain> {
        match self.at(v) {
            (d, 0) => Cow::Borrowed(d),
            (d, c) => Cow::Owned(d.shifted(c as i64)),
        }
    }

    #[inline]
    pub fn min(&self, v: VarId) -> i32 {
        let (d, c) = self.at(v);
        d.min() + c
    }

    #[inline]
    pub fn max(&self, v: VarId) -> i32 {
        let (d, c) = self.at(v);
        d.max() + c
    }

    #[inline]
    pub fn is_fixed(&self, v: VarId) -> bool {
        self.at(v).0.is_fixed()
    }

    /// The assigned value, if `v` is fixed.
    #[inline]
    pub fn fixed_value(&self, v: VarId) -> Option<i32> {
        let (d, c) = self.at(v);
        d.value().map(|x| x + c)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VarId, val: i32) -> bool {
        let (d, c) = self.at(v);
        i32::try_from(val as i64 - c as i64).is_ok_and(|x| d.contains(x))
    }

    /// FNV-1a 64-bit digest of every real variable's (min, max) bounds,
    /// in variable order (a view adds nothing its base does not). Two
    /// stores with the same shape hash equal iff all bounds agree — the replay engine compares these digests to pin the
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
        self.fixed_value(v).expect("variable not fixed")
    }

    #[inline]
    pub fn size(&self, v: VarId) -> u64 {
        self.at(v).0.size()
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

    /// True when `v` must be trailed before it changes: the first change
    /// of `v` at the current level (root-level changes are permanent).
    /// Marks `v` as trailed at this level.
    #[inline]
    fn first_change(&mut self, v: VarId) -> bool {
        let Some(&(_, level_magic)) = self.level_marks.last() else {
            return false;
        };
        let first = self.saved_at[v.idx()] != level_magic;
        self.saved_at[v.idx()] = level_magic;
        first
    }

    #[inline]
    fn save(&mut self, v: VarId) {
        if self.first_change(v) {
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

    /// Move the modification log into `buf` (cleared first) and keep
    /// `buf`'s old allocation as the new log, so neither side reallocates
    /// in the steady state. Entries name real variables only.
    pub(crate) fn swap_events(&mut self, buf: &mut Vec<(u32, DomainEvent)>) {
        buf.clear();
        std::mem::swap(&mut self.log, buf);
    }

    /// Drop the modification log.
    pub(crate) fn clear_events(&mut self) {
        self.log.clear();
    }

    /// Drain the modification log into a fresh vector.
    #[cfg(test)]
    pub(crate) fn take_events(&mut self) -> Vec<(u32, DomainEvent)> {
        std::mem::take(&mut self.log)
    }

    pub(crate) fn has_events(&self) -> bool {
        !self.log.is_empty()
    }

    // ---- mutation API -----------------------------------------------------
    //
    // Each method resolves `v` to its base and moves the argument by the
    // view's offset. An argument that leaves the `i32` range on the way
    // lies beyond every base value: it removes nothing or everything.

    /// `v ≥ lo`.
    pub fn remove_below(&mut self, v: VarId, lo: i32) -> PropResult {
        let (b, c) = self.resolve(v);
        match i32::try_from(lo as i64 - c as i64) {
            Ok(lo) => self.base_remove_below(b, lo),
            Err(_) if c > 0 => Ok(()),
            Err(_) => self.wipe(b),
        }
    }

    /// `v ≤ hi`.
    pub fn remove_above(&mut self, v: VarId, hi: i32) -> PropResult {
        let (b, c) = self.resolve(v);
        match i32::try_from(hi as i64 - c as i64) {
            Ok(hi) => self.base_remove_above(b, hi),
            Err(_) if c < 0 => Ok(()),
            Err(_) => self.wipe(b),
        }
    }

    /// `v ≠ val`.
    pub fn remove_value(&mut self, v: VarId, val: i32) -> PropResult {
        let (b, c) = self.resolve(v);
        match i32::try_from(val as i64 - c as i64) {
            Ok(val) => self.base_remove_value(b, val),
            Err(_) => Ok(()),
        }
    }

    /// `v = val`. Fails if `val` is not in the domain.
    pub fn fix(&mut self, v: VarId, val: i32) -> PropResult {
        let (b, c) = self.resolve(v);
        match i32::try_from(val as i64 - c as i64) {
            Ok(val) => self.base_fix(b, val),
            Err(_) => Err(Fail),
        }
    }

    /// `v ∈ other` (intersect with an explicit domain). An empty `other`
    /// empties `v`: `Err(Fail)`.
    pub fn intersect(&mut self, v: VarId, other: &Domain) -> PropResult {
        match self.resolve(v) {
            (b, 0) => self.base_intersect(b, other),
            (b, c) => self.base_intersect(b, &other.shifted(-(c as i64))),
        }
    }

    /// `v ∈ runs`, the union of closed runs that are maximal (sorted,
    /// disjoint, not adjacent): [`Store::intersect`] with no `Domain`
    /// built for the argument, and none for a view's shift. A bitset is
    /// narrowed by one word mask, an interval list by one new list; an
    /// empty `runs` empties `v`.
    pub(crate) fn intersect_runs(&mut self, v: VarId, runs: &[(i32, i32)]) -> PropResult {
        debug_assert!(
            runs.windows(2)
                .all(|w| w[0].0 <= w[0].1 && w[0].1 as i64 + 1 < w[1].0 as i64),
            "runs are not maximal: {runs:?}"
        );
        let (b, c) = self.resolve(v);
        match self.domains[b.idx()].narrowed_by_runs(runs, -(c as i64)) {
            Some(narrowed) => self.narrow_to(b, narrowed),
            None => Ok(()),
        }
    }

    /// Empty the real variable `v`: a bound beyond every value.
    fn wipe(&mut self, v: VarId) -> PropResult {
        self.save(v);
        self.domains[v.idx()] = Domain::empty();
        self.after_change(v, DomainEvent::ANY)
    }

    fn base_remove_below(&mut self, v: VarId, lo: i32) -> PropResult {
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

    fn base_remove_above(&mut self, v: VarId, hi: i32) -> PropResult {
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

    fn base_remove_value(&mut self, v: VarId, val: i32) -> PropResult {
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

    fn base_fix(&mut self, v: VarId, val: i32) -> PropResult {
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

    fn base_intersect(&mut self, v: VarId, other: &Domain) -> PropResult {
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
        match d.narrowed_by(other) {
            Some(narrowed) => self.narrow_to(v, narrowed),
            None => Ok(()),
        }
    }

    /// Replace the domain of the real variable `v` by `narrowed`, a
    /// strict subset of it: one event, and the old domain moves to the
    /// trail (no copy) if this is the first change of `v` at this level.
    fn narrow_to(&mut self, v: VarId, narrowed: Domain) -> PropResult {
        let d = &self.domains[v.idx()];
        let (old_min, old_max) = (d.min(), d.max());
        let old = std::mem::replace(&mut self.domains[v.idx()], narrowed);
        if self.first_change(v) {
            self.trail.push((v.0, old));
        }
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
        for (k, &(b, c)) in self.views.iter().enumerate() {
            writeln!(f, "  {:?} = x{b}{c:+}", VarId(VarId::VIEW + k as u32))?;
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
    fn views_read_the_shifted_base() {
        let mut s = Store::new();
        let x = s.new_var_with_domain(Domain::from_values([0, 2, 3, 7]), "x");
        let v = s.view(x, 10);
        assert!(v.is_view() && !x.is_view());
        assert_eq!((s.min(v), s.max(v), s.size(v)), (10, 17, 4));
        assert!(s.contains(v, 12) && !s.contains(v, 11) && !s.contains(v, 2));
        assert_eq!(s.domain(v).as_ref(), &Domain::from_values([10, 12, 13, 17]));
        assert_eq!(s.fixed_value(v), None);
        assert_eq!(s.resolve(v), (x, 10));
        // Extreme probes never overflow: they lie outside every domain.
        let w = s.view(x, -5);
        assert!(!s.contains(v, i32::MIN) && !s.contains(w, i32::MAX));
    }

    #[test]
    fn views_are_canonical() {
        let mut s = Store::new();
        let x = s.new_var(0, 9);
        let v = s.view(x, 3);
        assert_eq!(s.view(x, 3), v, "one id per (base, offset)");
        assert_eq!(s.view(x, 0), x, "offset 0 is the base");
        assert_eq!(s.view(v, -3), x, "a view of a view resolves to the base");
        assert_eq!(s.view(v, 2), s.view(x, 5));
        assert_eq!((s.num_vars(), s.num_views()), (1, 2));
    }

    #[test]
    fn writes_through_a_view_act_on_the_base() {
        let mut s = Store::new();
        let x = s.new_var(0, 20);
        let v = s.view(x, -5);
        s.push_level();
        s.remove_below(v, 0).unwrap();
        s.remove_above(v, 12).unwrap();
        assert_eq!((s.min(x), s.max(x)), (5, 17));
        s.remove_value(v, 6).unwrap();
        assert!(!s.contains(x, 11));
        s.intersect(v, &Domain::from_values([1, 6, 9, 40])).unwrap();
        assert_eq!(s.dom(x), &Domain::from_values([6, 14]));
        s.fix(v, 9).unwrap();
        assert_eq!((s.value(x), s.value(v)), (14, 9));
        assert_eq!(s.fix(v, 1), Err(Fail), "fix outside the view's domain");
    }

    #[test]
    fn bounds_beyond_the_range_empty_or_keep_the_base() {
        let mut s = Store::new();
        let x = s.new_var(i32::MAX - 4, i32::MAX);
        let y = s.new_var(i32::MIN, i32::MIN + 4);
        let down = s.view(x, -10); // lo − c overflows above
        let up = s.view(y, 10); // lo − c overflows below
        s.push_level();
        s.remove_below(up, i32::MIN).unwrap();
        s.remove_above(down, i32::MAX).unwrap();
        s.remove_value(up, i32::MIN).unwrap();
        assert_eq!(s.fix(up, i32::MIN), Err(Fail));
        assert_eq!((s.size(x), s.size(y)), (5, 5), "nothing removed");
        assert_eq!(s.remove_below(down, i32::MAX), Err(Fail));
        s.pop_level();
        s.push_level();
        assert_eq!(s.remove_above(up, i32::MIN), Err(Fail));
        s.pop_level();
        assert_eq!((s.size(x), s.size(y)), (5, 5));
    }

    #[test]
    fn views_fire_events_on_the_base() {
        let mut s = Store::new();
        let x = s.new_var_with_domain(Domain::from_values([0, 2, 4, 6, 8]), "x");
        let v = s.view(x, 100);
        s.push_level();
        s.remove_value(v, 104).unwrap(); // interior
        s.remove_below(v, 101).unwrap(); // minimum
        s.intersect(v, &Domain::interval(0, 106)).unwrap(); // maximum
        s.remove_value(v, 106).unwrap(); // leaves {2}: fixed
        let log = s.take_events();
        assert!(log.iter().all(|&(var, _)| var == x.0), "{log:?}");
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
    fn only_real_variables_are_trailed_and_hashed() {
        let mut s = Store::new();
        let x = s.new_var(0, 60);
        let mut twin = Store::new();
        twin.new_var(0, 60);
        let vs: Vec<VarId> = (1..4).map(|c| s.view(x, c)).collect();
        assert_eq!(s.state_hash(), twin.state_hash(), "views add nothing");
        assert_eq!(s.domain_rep_counts(), (1, 0));
        s.push_level();
        s.remove_below(vs[0], 11).unwrap();
        s.remove_above(vs[2], 40).unwrap();
        s.remove_value(x, 20).unwrap();
        assert_eq!(s.trail.len(), 1, "one base, saved once");
        s.pop_level();
        assert_eq!((s.min(vs[1]), s.max(vs[1])), (2, 62));
        assert_eq!(s.state_hash(), twin.state_hash());
        // Pinning skips views: they have no domain to pin.
        s.set_bitset(false);
        assert_eq!(s.domain_rep_counts(), (0, 1));
    }

    #[test]
    #[should_panic(expected = "use domain()")]
    fn dom_refuses_a_view() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        let v = s.view(x, 1);
        let _ = s.dom(v);
    }

    #[test]
    #[should_panic(expected = "leaves the i32 range")]
    fn a_view_must_fit_the_range() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        s.view(x, i32::MAX);
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
