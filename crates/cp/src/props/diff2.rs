//! The `Diff2` global constraint (Beldiceanu & Contejean, 1994):
//! pairwise non-overlap of rectangles in two dimensions.
//!
//! A rectangle is `[origin₁, origin₂, length₁, length₂]` where origins and
//! lengths are finite-domain variables (lengths are variables because the
//! paper's constraint (11) uses data-node *lifetimes* — themselves derived
//! variables — as rectangle lengths). Two rectangles do not overlap iff
//! there is a dimension in which one ends no later than the other begins.
//! A rectangle whose minimal length is ≤ 0 in some dimension may occupy
//! nothing, so it takes part in no rule until both minimal lengths are
//! positive.
//!
//! Filtering, on bounds only (maximal lengths never matter):
//! - *Pairs.* `a` can precede `b` in dimension `d` iff
//!   `min oₐ + min lₐ ≤ max o_b`. If neither order is possible in either
//!   dimension, fail. If separation is impossible in one dimension and
//!   only one order remains in the other, enforce `oₐ + lₐ ≤ o_b` there:
//!   raise `min o_b`, lower `max oₐ` and `max lₐ`.
//! - *Pigeonhole.* A solid rectangle must cover `[max o₀, min o₀ + min l₀)`
//!   in dimension 0 with at least `min l₁` rows, and all rows lie in
//!   `[min over min o₁, max over (max o₁ + min l₁ − 1)]`. If the peak
//!   compulsory load exceeds that row count, fail. This catches k-clique
//!   infeasibilities ("8 data alive at cycle 0 in 7 slots") that the pair
//!   rule cannot see.
//!
//! A run costs O(n) plus O(n) per rectangle that moved:
//! - *Bounds snapshot.* Both rules read a reused per-rectangle copy of
//!   the bounds, not the store. The first run of a fixpoint round reads
//!   every rectangle. A re-run in the same round ([`Wake::rerun_in_round`])
//!   re-reads only the rectangles in [`Wake::tags`]: every bound change
//!   since the previous run fired a tagged watch, and nothing backtracked
//!   in between. A pair pruning re-reads every rectangle that contains a
//!   pruned variable, or a view of the same base, so the snapshot is
//!   exact at every test.
//! - *Tagged pair loop.* Without a rescan only pairs with a rectangle in
//!   [`Wake::tags`] are visited; every other pair was filtered on the same
//!   bounds before. They are visited in the lexicographic order of a full
//!   scan, so a run prunes exactly what a full scan would.
//! - *Cached pigeonhole peak.* The peak is cached under the exact unsorted
//!   event list, so the sort runs only when some compulsory part changed.
//!   The row count is recomputed every run.
//!
//! *Constant extents.* Steady-state allocation fixes every start, so each
//! rectangle's time origin and length, and its height, are constants.
//! Two rectangles that do not overlap in time can then never prune: one
//! order is always possible in dimension 0. [`Diff2::new`] takes a
//! cheaper path for that case:
//! - *Pair lists.* Each rectangle's later partners (the solid rectangles
//!   overlapping it in time) are listed once, on the first pair loop. A
//!   moved rectangle's row holds only its partners, a rescan visits all
//!   overlapping pairs, and a row of a rectangle that did not move tests
//!   a moved one only if they overlap in time. The pairs left out are
//!   those a full scan tests to no effect, and the rest keep its order,
//!   so a run prunes exactly what the general path would.
//! - *Snapshot.* Only the dimension-1 origin bounds are re-read.
//! - *Pigeonhole.* The compulsory parts are constant, so the peak is
//!   computed once; each run recomputes only the row range.
//!
//! The path is decided from constants only: the store must be at its
//! root and the values fixed there. A value fixed by propagation is not
//! enough. The search's root fixpoint runs one level above the root, and
//! the next search on the same model unwinds it.
//!
//! The propagator is not idempotent: a pruning can enable another pair's
//! rule, and the engine re-queues it on its own events.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

/// A rectangle of the `Diff2` constraint.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    pub origin: [VarId; 2],
    pub len: [VarId; 2],
}

/// The bounds of one rectangle the filtering rules read.
#[derive(Clone, Copy)]
struct Bounds {
    /// `min origin` per dimension.
    lo: [i32; 2],
    /// `max origin` per dimension.
    hi: [i32; 2],
    /// `min len` per dimension.
    len: [i32; 2],
}

impl Bounds {
    fn read(s: &Store, r: &Rect) -> Self {
        Bounds {
            lo: [s.min(r.origin[0]), s.min(r.origin[1])],
            hi: [s.max(r.origin[0]), s.max(r.origin[1])],
            len: [s.min(r.len[0]), s.min(r.len[1])],
        }
    }

    /// May this rectangle occupy nothing?
    fn may_be_empty(&self) -> bool {
        self.len[0] <= 0 || self.len[1] <= 0
    }

    /// Do both rectangles occupy something, with overlapping minimal
    /// extents in dimension 0?
    fn overlaps_in_time(&self, b: &Bounds) -> bool {
        !self.may_be_empty()
            && !b.may_be_empty()
            && self.lo[0] < b.lo[0] + b.len[0]
            && b.lo[0] < self.lo[0] + self.len[0]
    }

    /// Can this rectangle end no later than `b` begins in dimension `d`
    /// under *some* assignment? (`min end ≤ max start_b`)
    fn can_precede(&self, b: &Bounds, d: usize) -> bool {
        self.lo[d] + self.len[d] <= b.hi[d]
    }
}

/// The peak of a load profile given as `(position, ±height)` events;
/// sorts `events`. An end sorts before a start at the same position.
fn peak_load(events: &mut [(i32, i32)]) -> i64 {
    events.sort_unstable();
    let mut live: i64 = 0;
    let mut peak = 0;
    for &(_, h) in events.iter() {
        live += h as i64;
        peak = peak.max(live);
    }
    peak
}

/// What the constant-extent path computes once (see the module doc).
struct FixedTime {
    /// Peak compulsory load: each solid rect over its whole interval.
    peak: i64,
    /// For every rect `i`, ascending, the rects `j > i` that overlap it
    /// in time. Empty until the first pair loop, so a search the
    /// pigeonhole rule refutes at once never builds it.
    partners: Vec<Vec<u32>>,
}

impl FixedTime {
    /// The peak, from the constant extents in `snap`.
    fn new(snap: &[Bounds]) -> Self {
        let mut events: Vec<(i32, i32)> = snap
            .iter()
            .filter(|b| !b.may_be_empty())
            .flat_map(|b| [(b.lo[0], b.len[1]), (b.lo[0] + b.len[0], -b.len[1])])
            .collect();
        FixedTime {
            peak: peak_load(&mut events),
            partners: Vec::new(),
        }
    }

    fn build_partners(&mut self, snap: &[Bounds]) {
        if self.partners.is_empty() {
            self.partners = (0..snap.len())
                .map(|i| {
                    (i + 1..snap.len())
                        .filter(|&j| snap[i].overlaps_in_time(&snap[j]))
                        .map(|j| j as u32)
                        .collect()
                })
                .collect();
        }
    }
}

pub struct Diff2 {
    rects: Vec<Rect>,
    /// Bounds of every rect, exact whenever a rule reads them.
    snap: Vec<Bounds>,
    /// `(base, rect)` for the base variable of every var of every rect,
    /// sorted and deduplicated: the snapshot entries a pruned var
    /// invalidates. Rects share vars (a `one` length constant, a common
    /// origin) and bases (views of one producer's start).
    var_rects: Vec<(VarId, u32)>,
    /// Set when every time origin and length and every height is a
    /// constant of the store the propagator was built on.
    fixed: Option<FixedTime>,
    /// Pigeonhole events `(position, ±height)` of the current run.
    events: Vec<(i32, i32)>,
    /// The unsorted event list `peak` was computed from.
    peak_key: Vec<(i32, i32)>,
    /// Peak compulsory load over `peak_key`.
    peak: i64,
}

impl Diff2 {
    /// The constraint over `rects`, on the store `s` it is posted to. It
    /// takes the constant-extent path when `s` is at its root and every
    /// time origin, time length and height is fixed there.
    pub fn new(rects: Vec<Rect>, s: &Store) -> Self {
        let mut var_rects: Vec<(VarId, u32)> = rects
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                r.origin
                    .iter()
                    .chain(r.len.iter())
                    .map(move |&v| (s.resolve(v).0, i as u32))
            })
            .collect();
        var_rects.sort_unstable();
        var_rects.dedup();
        let snap: Vec<Bounds> = rects.iter().map(|r| Bounds::read(s, r)).collect();
        let constant = s.depth() == 0
            && rects.iter().all(|r| {
                [r.origin[0], r.len[0], r.len[1]]
                    .iter()
                    .all(|&v| s.is_fixed(v))
            });
        Diff2 {
            fixed: constant.then(|| FixedTime::new(&snap)),
            rects,
            snap,
            var_rects,
            events: Vec::new(),
            peak_key: Vec::new(),
            peak: 0,
        }
    }

    /// Whether this propagator took the constant-extent path.
    pub fn has_fixed_extents(&self) -> bool {
        self.fixed.is_some()
    }

    /// Re-read the snapshot of every rect that contains `v` or another
    /// view of its base.
    fn refresh(&mut self, s: &Store, v: VarId) {
        let Diff2 {
            rects,
            snap,
            var_rects,
            ..
        } = self;
        let base = s.resolve(v).0;
        let from = var_rects.partition_point(|&(w, _)| w < base);
        for &(_, r) in var_rects[from..].iter().take_while(|&&(w, _)| w == base) {
            snap[r as usize] = Bounds::read(s, &rects[r as usize]);
        }
    }

    /// Enforce rect `a` before rect `b` in dimension `d`: `o_a + l_a ≤ o_b`.
    /// Reads the store, not the snapshot, so a var shared between the
    /// three prunings is seen after the earlier ones.
    fn enforce_before(&mut self, s: &mut Store, a: usize, b: usize, d: usize) -> PropResult {
        let (ra, rb) = (self.rects[a], self.rects[b]);
        let c0 = s.change_count();
        s.remove_below(rb.origin[d], s.min(ra.origin[d]) + s.min(ra.len[d]))?;
        let c1 = s.change_count();
        s.remove_above(ra.origin[d], s.max(rb.origin[d]) - s.min(ra.len[d]))?;
        let c2 = s.change_count();
        s.remove_above(ra.len[d], s.max(rb.origin[d]) - s.min(ra.origin[d]))?;
        let c3 = s.change_count();
        // Refresh only through vars that moved: a shared `one` length
        // would otherwise re-read every rect.
        for (v, moved) in [
            (rb.origin[d], c1 > c0),
            (ra.origin[d], c2 > c1),
            (ra.len[d], c3 > c2),
        ] {
            if moved {
                self.refresh(s, v);
            }
        }
        Ok(())
    }

    /// The pair rule on rects `i` and `j`.
    fn filter_pair(&mut self, s: &mut Store, i: usize, j: usize) -> PropResult {
        let (a, b) = (self.snap[i], self.snap[j]);
        if a.may_be_empty() || b.may_be_empty() {
            return Ok(());
        }
        // Per dimension: which orderings remain possible?
        // sep[d][0] = a-before-b possible, sep[d][1] = b-before-a.
        let mut sep = [[false; 2]; 2];
        for (d, sd) in sep.iter_mut().enumerate() {
            sd[0] = a.can_precede(&b, d);
            sd[1] = b.can_precede(&a, d);
        }
        let dim_possible = [sep[0][0] || sep[0][1], sep[1][0] || sep[1][1]];
        // With one dimension ruled out, separate in the other if only one
        // order is left there.
        let d = match dim_possible {
            [false, false] => return Err(Fail),
            [false, true] => 1,
            [true, false] => 0,
            [true, true] => return Ok(()),
        };
        match sep[d] {
            [true, false] => self.enforce_before(s, i, j, d),
            [false, true] => self.enforce_before(s, j, i, d),
            _ => Ok(()),
        }
    }

    /// The pigeonhole rule along dimension 0, on the snapshot. With
    /// constant extents the peak is `fixed_peak`, computed once.
    fn pigeonhole(&mut self, fixed_peak: Option<i64>) -> PropResult {
        let mut rows_min = i64::MAX;
        let mut rows_max = i64::MIN;
        self.events.clear();
        for b in &self.snap {
            if b.may_be_empty() {
                continue;
            }
            rows_min = rows_min.min(b.lo[1] as i64);
            rows_max = rows_max.max(b.hi[1] as i64 + b.len[1] as i64 - 1);
            // Compulsory dim-0 part: [lst, ect) if non-empty; each rect
            // consumes its (minimal) height in rows while it lives.
            let (lst, ect) = (b.hi[0], b.lo[0] + b.len[0]);
            if lst < ect && fixed_peak.is_none() {
                self.events.push((lst, b.len[1]));
                self.events.push((ect, -b.len[1]));
            }
        }
        let peak = match fixed_peak {
            Some(peak) => peak,
            None if self.events.is_empty() => return Ok(()),
            None => {
                if self.events != self.peak_key {
                    self.peak_key.clone_from(&self.events);
                    self.peak = peak_load(&mut self.events);
                }
                self.peak
            }
        };
        if rows_min <= rows_max && peak > rows_max - rows_min + 1 {
            return Err(Fail);
        }
        Ok(())
    }

    /// The pair rule on the pairs a run must test. Pairs where neither
    /// rect moved a bound since our previous run were filtered then on
    /// the same bounds: skip them. The rest are visited in full-scan
    /// order: all of row `i` for a moved rect `i` (every row on a
    /// rescan), else only its moved partners `j > i`. With constant
    /// extents (`f`) a pair of rects that do not overlap in time can
    /// never prune, so a row holds only the rect's partners.
    fn pair_loop(&mut self, s: &mut Store, wake: &Wake<'_>, f: Option<&FixedTime>) -> PropResult {
        let n = self.rects.len();
        let tags = wake.tags();
        let mut k = 0; // tags[k..] are the moved rects ≥ i
        for i in 0..n {
            while k < tags.len() && (tags[k] as usize) < i {
                k += 1;
            }
            if wake.rescan() || tags.get(k) == Some(&(i as u32)) {
                match f {
                    Some(f) => {
                        for &j in &f.partners[i] {
                            self.filter_pair(s, i, j as usize)?;
                        }
                    }
                    None => {
                        for j in (i + 1)..n {
                            self.filter_pair(s, i, j)?;
                        }
                    }
                }
            } else {
                for &j in &tags[k..] {
                    let j = j as usize;
                    if f.is_none() || self.snap[i].overlaps_in_time(&self.snap[j]) {
                        self.filter_pair(s, i, j)?;
                    }
                }
            }
        }
        Ok(())
    }
}

impl Propagator for Diff2 {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // All four vars of a rect feed only bound computations (min/max
        // of origins and lengths), so interior holes never matter. All
        // four carry the rect index as tag for incremental pair work.
        for (i, r) in self.rects.iter().enumerate() {
            for &v in r.origin.iter().chain(r.len.iter()) {
                subs.watch_tagged(v, DomainEvent::BOUNDS, i as u32);
            }
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // On the constant-extent path only the row origins can move.
        let rows_only = self.fixed.is_some();
        let read = |b: &mut Bounds, r: &Rect| {
            if rows_only {
                (b.lo[1], b.hi[1]) = (s.min(r.origin[1]), s.max(r.origin[1]));
            } else {
                *b = Bounds::read(s, r);
            }
        };
        // Between fixpoint rounds the search may have backtracked, which
        // moves bounds without events: only a re-run may trust the tags.
        if wake.rerun_in_round() && !wake.rescan() {
            for &t in wake.tags() {
                read(&mut self.snap[t as usize], &self.rects[t as usize]);
            }
        } else {
            for (b, r) in self.snap.iter_mut().zip(&self.rects) {
                read(b, r);
            }
        }
        // The pigeonhole sweep stays global so failure detection is
        // identical to the FIFO baseline's.
        let Some(mut f) = self.fixed.take() else {
            self.pigeonhole(None)?;
            return self.pair_loop(s, wake, None);
        };
        let res = self.pigeonhole(Some(f.peak)).and_then(|()| {
            f.build_partners(&self.snap);
            self.pair_loop(s, wake, Some(&f))
        });
        self.fixed = Some(f);
        res
    }

    fn name(&self) -> &'static str {
        "diff2"
    }

    fn priority(&self) -> Priority {
        Priority::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    /// Helper: fixed-length rectangle with variable origins.
    fn rect(s: &mut Store, x: (i32, i32), y: (i32, i32), w: i32, h: i32) -> Rect {
        Rect {
            origin: [s.new_var(x.0, x.1), s.new_var(y.0, y.1)],
            len: [s.new_const(w), s.new_const(h)],
        }
    }

    #[test]
    fn fixed_overlapping_rects_fail() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 2, 2);
        let b = rect(&mut s, (1, 1), (1, 1), 2, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b], &s)), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn touching_rects_are_fine() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 2, 2);
        let b = rect(&mut s, (2, 2), (0, 0), 2, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b], &s)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn forced_x_overlap_separates_in_y() {
        let mut s = Store::new();
        // Both occupy x ∈ [0,4) — forced overlap in x.
        let a = rect(&mut s, (0, 0), (0, 5), 4, 1);
        let b = rect(&mut s, (0, 0), (0, 0), 4, 2);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b], &s)), &s);
        e.fixpoint(&mut s).unwrap();
        // b fixed at y=0 height 2 → a.y ≥ 2.
        assert_eq!(s.min(a.origin[1]), 2);
    }

    #[test]
    fn slot_style_allocation_three_lifetimes_two_slots() {
        // Memory-allocation shape: x = time (fixed), y = slot ∈ {0,1},
        // three rectangles with overlapping lifetimes cannot fit 2 slots.
        let mut s = Store::new();
        let mut rects = Vec::new();
        for _ in 0..3 {
            let x = s.new_const(0);
            let y = s.new_var(0, 1);
            rects.push(Rect {
                origin: [x, y],
                len: [s.new_const(10), s.new_const(1)],
            });
        }
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects, &s)), &s);
        // The pigeonhole sweep sees three compulsory lifetimes over two
        // rows immediately.
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn disjoint_lifetimes_share_a_slot() {
        let mut s = Store::new();
        let t0 = s.new_const(0);
        let t10 = s.new_const(10);
        let y0 = s.new_var(0, 0);
        let y1 = s.new_var(0, 0);
        let l = s.new_const(10);
        let one = s.new_const(1);
        let rects = vec![
            Rect {
                origin: [t0, y0],
                len: [l, one],
            },
            Rect {
                origin: [t10, y1],
                len: [l, one],
            },
        ];
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects, &s)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn zero_length_rect_never_conflicts() {
        let mut s = Store::new();
        let a = rect(&mut s, (0, 0), (0, 0), 5, 5);
        // Zero-width rectangle at the same place.
        let x = s.new_const(2);
        let y = s.new_const(2);
        let zero = s.new_const(0);
        let one = s.new_const(1);
        let b = Rect {
            origin: [x, y],
            len: [zero, one],
        };
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b], &s)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn variable_length_prunes_when_forced() {
        let mut s = Store::new();
        // a: x ∈ {0}, len ∈ [1, 10]; b fixed at x=4, same y row.
        let ax = s.new_const(0);
        let ay = s.new_const(0);
        let alen = s.new_var(1, 10);
        let one = s.new_const(1);
        let a = Rect {
            origin: [ax, ay],
            len: [alen, one],
        };
        let b = rect(&mut s, (4, 4), (0, 0), 3, 1);
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(vec![a, b], &s)), &s);
        e.fixpoint(&mut s).unwrap();
        // Forced y-overlap; a can only precede b in x → len ≤ 4.
        assert_eq!(s.max(alen), 4);
    }

    #[test]
    fn one_run_sees_its_own_prunings_through_shared_vars() {
        // Rect 1 and rect 3 share the origin `v`. Pair (0,1) forces
        // v ≥ 2, which moves rect 3 too; pair (2,3) must see that in the
        // same run and force u ≤ 1.
        let mut s = Store::new();
        let v = s.new_var(0, 3);
        let u = s.new_var(0, 3);
        let x0 = s.new_const(0);
        let (row0, row1) = (s.new_const(0), s.new_const(1));
        let (w, h) = (s.new_const(2), s.new_const(1));
        let r = |x, y| Rect {
            origin: [x, y],
            len: [w, h],
        };
        let rects = vec![r(x0, row0), r(v, row0), r(u, row1), r(v, row1)];
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects, &s)), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!((s.min(v), s.max(u)), (2, 1));
        // Both prunings happened in the first run; the re-run they woke
        // found nothing left to do.
        let p = e.profiles()[0];
        assert_eq!((p.invocations, p.no_op_runs), (2, 1));
    }

    #[test]
    fn one_run_sees_its_own_prunings_through_views_of_one_base() {
        // As above, but rect 3's origin is the view `v + 1`, a variable
        // id of its own. Pair (0,1) forces v ≥ 2, so v + 1 ≥ 3; pair
        // (2,3) must see that in the same run and force u ≤ 2.
        let mut s = Store::new();
        let v = s.new_var(0, 3);
        let u = s.new_var(0, 4);
        let w = s.view(v, 1);
        let x0 = s.new_const(0);
        let (row0, row1) = (s.new_const(0), s.new_const(1));
        let (len, h) = (s.new_const(2), s.new_const(1));
        let r = |x, y| Rect {
            origin: [x, y],
            len: [len, h],
        };
        let rects = vec![r(x0, row0), r(v, row0), r(u, row1), r(w, row1)];
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects, &s)), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!((s.min(w), s.max(u)), (3, 2));
        let p = e.profiles()[0];
        assert_eq!((p.invocations, p.no_op_runs), (2, 1));
    }

    #[test]
    fn a_pruning_through_a_view_refreshes_its_base() {
        // The pruned origin is the view this time: pair (0,1) forces
        // v + 1 ≥ 2, so v ≥ 1, which rect 3 (origin v) must see in the
        // same run: pair (2,3) then forces u ≤ 1 (and v ≥ 2).
        let mut s = Store::new();
        let v = s.new_var(0, 3);
        let u = s.new_var(0, 2);
        let w = s.view(v, 1);
        let x0 = s.new_const(0);
        let (row0, row1) = (s.new_const(0), s.new_const(1));
        let (len, h) = (s.new_const(2), s.new_const(1));
        let r = |x, y| Rect {
            origin: [x, y],
            len: [len, h],
        };
        let rects = vec![r(x0, row0), r(w, row0), r(u, row1), r(v, row1)];
        let mut e = Engine::new();
        e.post(Box::new(Diff2::new(rects, &s)), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!((s.min(v), s.max(u)), (2, 1));
        let p = e.profiles()[0];
        assert_eq!((p.invocations, p.no_op_runs), (2, 1));
    }
}
