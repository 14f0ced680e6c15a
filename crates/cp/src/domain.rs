//! Finite integer domains: hybrid bitset / interval-list representation.
//!
//! A [`Domain`] is the set of values a finite-domain variable may still
//! take. Two representations live behind one API:
//!
//! - **Bitset** (`Rep::Bits`): domains whose initial span fits 128 values
//!   — which covers nearly every start/slot variable in the scheduling
//!   models, where horizons and slot budgets are small — store membership
//!   as bits of a `u128` anchored at a fixed `base`. `contains` and
//!   `remove_value` are branch-free bit tests, `size` is a popcount,
//!   `min`/`max` are trailing/leading-zero counts and `intersect` is a
//!   word AND. The anchor never moves: bits are only ever cleared, so a
//!   value's bit position is stable for the lifetime of the domain.
//! - **Interval list** (`Rep::Ivs`): a sorted `Vec` of closed, pairwise
//!   disjoint, non-adjacent intervals `[lo, hi]` — the representation for
//!   wide domains (span > 128), with O(1) bound operations on the common
//!   single-interval case.
//!
//! A wide interval-list domain **promotes** itself to the bitset
//! representation as soon as a narrowing operation brings its span within
//! 128 values (unless it is [`Domain::pin`]ned to the interval list, the
//! A/B baseline). Promotion is invisible: equality, ordering of iterated
//! values, interval runs, bounds and the store's state hash are all
//! representation-independent, so traces and recordings are byte-stable
//! across the two representations.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Classification of a domain mutation, used by the engine to wake only
/// the propagators whose filtering could be enabled by the change.
///
/// Events are a bitmask because one mutation can have several effects at
/// once: fixing `x ∈ [0,9]` to `4` raises the minimum, lowers the maximum
/// and assigns the variable, so it fires `MIN | MAX | FIX`. The store
/// guarantees that every *actual* change fires at least one bit (an
/// interior removal that moves no bound fires `HOLE`), so a propagator
/// subscribed with [`DomainEvent::ANY`] sees every mutation.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainEvent(u8);

impl DomainEvent {
    /// No effect (never delivered; useful as an accumulator seed).
    pub const NONE: DomainEvent = DomainEvent(0);
    /// The minimum increased.
    pub const MIN: DomainEvent = DomainEvent(1);
    /// The maximum decreased.
    pub const MAX: DomainEvent = DomainEvent(2);
    /// The variable became fixed (singleton domain).
    pub const FIX: DomainEvent = DomainEvent(4);
    /// An interior value was removed without moving either bound.
    pub const HOLE: DomainEvent = DomainEvent(8);
    /// Either bound moved.
    pub const BOUNDS: DomainEvent = DomainEvent(1 | 2);
    /// Any change at all.
    pub const ANY: DomainEvent = DomainEvent(1 | 2 | 4 | 8);

    /// True if no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if this event shares at least one bit with `mask`.
    #[inline]
    pub fn intersects(self, mask: DomainEvent) -> bool {
        self.0 & mask.0 != 0
    }

    /// True if every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: DomainEvent) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for DomainEvent {
    type Output = DomainEvent;
    #[inline]
    fn bitor(self, rhs: DomainEvent) -> DomainEvent {
        DomainEvent(self.0 | rhs.0)
    }
}

impl BitOrAssign for DomainEvent {
    #[inline]
    fn bitor_assign(&mut self, rhs: DomainEvent) {
        self.0 |= rhs.0;
    }
}

impl fmt::Debug for DomainEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: &str| -> fmt::Result {
            if !first {
                write!(f, "|")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if self.is_empty() {
            return write!(f, "NONE");
        }
        if self.contains(DomainEvent::MIN) {
            put(f, "MIN")?;
        }
        if self.contains(DomainEvent::MAX) {
            put(f, "MAX")?;
        }
        if self.contains(DomainEvent::FIX) {
            put(f, "FIX")?;
        }
        if self.contains(DomainEvent::HOLE) {
            put(f, "HOLE")?;
        }
        Ok(())
    }
}

/// Maximum span (inclusive value count) the bitset representation holds.
pub const BITSET_SPAN: i64 = 128;

/// Bits at offsets `≥ o` (offsets count from a bitset's base).
#[inline]
fn mask_ge(o: i64) -> u128 {
    if o <= 0 {
        u128::MAX
    } else if o >= 128 {
        0
    } else {
        u128::MAX << o
    }
}

/// Bits at offsets `≤ o`.
#[inline]
fn mask_le(o: i64) -> u128 {
    if o < 0 {
        0
    } else if o >= 127 {
        u128::MAX
    } else {
        (1u128 << (o + 1)) - 1
    }
}

#[derive(Clone)]
enum Rep {
    /// Membership bitset over `[base, base + 127]`: bit `i` ⇔ `base + i`
    /// is a member. The base is fixed at creation/promotion time and bits
    /// are only ever cleared, so offsets stay stable.
    Bits { base: i32, bits: u128 },
    /// Sorted, disjoint, non-adjacent closed intervals. Empty ⇔ domain
    /// empty. `pinned` suppresses promotion to the bitset representation
    /// (the reference [`Domain::pin`] sets up).
    Ivs { ivs: Vec<(i32, i32)>, pinned: bool },
}

/// A finite set of `i32` values (see the module docs for the two
/// representations).
#[derive(Clone)]
pub struct Domain {
    rep: Rep,
}

impl Domain {
    /// The interval domain `lo..=hi`. An inverted pair yields the empty domain.
    pub fn interval(lo: i32, hi: i32) -> Self {
        if lo > hi {
            return Domain::empty();
        }
        // Offset arithmetic is i64 throughout: `hi - lo` overflows i32 for
        // wide domains (and wrapping tricks mis-classify extreme bounds).
        if hi as i64 - (lo as i64) < BITSET_SPAN {
            Domain {
                rep: Rep::Bits {
                    base: lo,
                    bits: mask_le(hi as i64 - lo as i64),
                },
            }
        } else {
            Domain {
                rep: Rep::Ivs {
                    ivs: vec![(lo, hi)],
                    pinned: false,
                },
            }
        }
    }

    /// Singleton domain `{v}`.
    pub fn singleton(v: i32) -> Self {
        Domain {
            rep: Rep::Bits { base: v, bits: 1 },
        }
    }

    /// The empty domain.
    pub fn empty() -> Self {
        Domain {
            rep: Rep::Ivs {
                ivs: Vec::new(),
                pinned: false,
            },
        }
    }

    /// Build a domain from an arbitrary iterator of values.
    pub fn from_values<I: IntoIterator<Item = i32>>(vals: I) -> Self {
        Domain::from_runs(vals.into_iter().map(|v| (v, v)).collect())
    }

    /// Build a domain from closed runs `[lo, hi]` in any order: runs that
    /// overlap or touch merge, inverted ones are dropped. The vector
    /// becomes the interval list in place.
    pub fn from_runs(mut runs: Vec<(i32, i32)>) -> Self {
        runs.sort_unstable();
        let mut n = 0;
        for i in 0..runs.len() {
            let (l, h) = runs[i];
            if l > h {
                continue;
            }
            // Adjacency in i64: `hi + 1` would overflow at i32::MAX.
            if n > 0 && l as i64 <= runs[n - 1].1 as i64 + 1 {
                runs[n - 1].1 = runs[n - 1].1.max(h);
            } else {
                runs[n] = (l, h);
                n += 1;
            }
        }
        runs.truncate(n);
        let mut d = Domain {
            rep: Rep::Ivs {
                ivs: runs,
                pinned: false,
            },
        };
        d.maybe_promote();
        d
    }

    /// `{v + c : v ∈ self}`, dropping values that leave the `i32` range.
    /// A bitset whose shifted anchor stays representable just moves its
    /// anchor: O(1).
    pub fn shifted(&self, c: i64) -> Domain {
        if let Rep::Bits { base, bits } = self.rep {
            if let Ok(base) = i32::try_from(base as i64 + c) {
                if bits == 0 || self.max() as i64 + c <= i32::MAX as i64 {
                    return Domain {
                        rep: Rep::Bits { base, bits },
                    };
                }
            }
        }
        let (lo, hi) = (i32::MIN as i64, i32::MAX as i64);
        Domain::from_runs(
            self.intervals()
                .map(|(l, h)| (l as i64 + c, h as i64 + c))
                .filter(|&(l, h)| h >= lo && l <= hi)
                .map(|(l, h)| (l.max(lo) as i32, h.min(hi) as i32))
                .collect(),
        )
    }

    /// Force (and keep) the interval-list representation: the domain never
    /// promotes to the bitset form again. This is the reference the
    /// representation tests compare the hybrid form against (see
    /// `Store::set_bitset`); behaviour is otherwise identical.
    pub fn pin(&mut self) {
        let ivs = match &self.rep {
            Rep::Bits { .. } => self.intervals().collect(),
            Rep::Ivs { ivs, .. } => ivs.clone(),
        };
        self.rep = Rep::Ivs { ivs, pinned: true };
    }

    /// True if the domain currently uses the bitset representation.
    pub fn is_bitset(&self) -> bool {
        matches!(self.rep, Rep::Bits { .. })
    }

    /// Promote an unpinned interval list whose span now fits
    /// [`BITSET_SPAN`] values. The new base is the current minimum.
    #[inline]
    fn maybe_promote(&mut self) {
        if let Rep::Ivs { ivs, pinned: false } = &self.rep {
            let (Some(&(lo, _)), Some(&(_, hi))) = (ivs.first(), ivs.last()) else {
                return;
            };
            if hi as i64 - lo as i64 >= BITSET_SPAN {
                return;
            }
            let mut bits: u128 = 0;
            for &(l, h) in ivs {
                bits |= mask_ge(l as i64 - lo as i64) & mask_le(h as i64 - lo as i64);
            }
            self.rep = Rep::Bits { base: lo, bits };
        }
    }

    /// True if no value remains.
    pub fn is_empty(&self) -> bool {
        match &self.rep {
            Rep::Bits { bits, .. } => *bits == 0,
            Rep::Ivs { ivs, .. } => ivs.is_empty(),
        }
    }

    /// True if exactly one value remains.
    pub fn is_fixed(&self) -> bool {
        match &self.rep {
            Rep::Bits { bits, .. } => bits.count_ones() == 1,
            Rep::Ivs { ivs, .. } => ivs.len() == 1 && ivs[0].0 == ivs[0].1,
        }
    }

    /// Smallest value. Panics on an empty domain.
    pub fn min(&self) -> i32 {
        match &self.rep {
            Rep::Bits { base, bits } => {
                assert!(*bits != 0, "min() on empty domain");
                (*base as i64 + bits.trailing_zeros() as i64) as i32
            }
            Rep::Ivs { ivs, .. } => ivs[0].0,
        }
    }

    /// Largest value. Panics on an empty domain.
    pub fn max(&self) -> i32 {
        match &self.rep {
            Rep::Bits { base, bits } => {
                assert!(*bits != 0, "max() on empty domain");
                (*base as i64 + 127 - bits.leading_zeros() as i64) as i32
            }
            Rep::Ivs { ivs, .. } => ivs[ivs.len() - 1].1,
        }
    }

    /// The single remaining value, if fixed.
    pub fn value(&self) -> Option<i32> {
        if self.is_fixed() {
            Some(self.min())
        } else {
            None
        }
    }

    /// Number of values in the domain.
    pub fn size(&self) -> u64 {
        match &self.rep {
            Rep::Bits { bits, .. } => bits.count_ones() as u64,
            Rep::Ivs { ivs, .. } => ivs
                .iter()
                .map(|&(l, h)| (h as i64 - l as i64 + 1) as u64)
                .sum(),
        }
    }

    /// Number of maximal intervals (for diagnostics).
    pub fn interval_count(&self) -> usize {
        match &self.rep {
            Rep::Bits { bits, .. } => {
                // A run starts at every set bit whose predecessor is clear.
                (bits & !(bits << 1)).count_ones() as usize
            }
            Rep::Ivs { ivs, .. } => ivs.len(),
        }
    }

    /// Membership test: O(1) on a bitset, O(log k) on an interval list.
    pub fn contains(&self, v: i32) -> bool {
        match &self.rep {
            Rep::Bits { base, bits } => {
                let o = v as i64 - *base as i64;
                // Casting a negative offset to u64 makes it huge, so one
                // unsigned compare rejects both out-of-range directions.
                (o as u64) < 128 && (bits >> o) & 1 == 1
            }
            Rep::Ivs { ivs, .. } => ivs
                .binary_search_by(|&(l, h)| {
                    if v < l {
                        std::cmp::Ordering::Greater
                    } else if v > h {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
        }
    }

    /// Remove all values `< lo`. Returns true if the domain changed.
    pub fn remove_below(&mut self, lo: i32) -> bool {
        if self.is_empty() || lo <= self.min() {
            return false;
        }
        match &mut self.rep {
            Rep::Bits { base, bits } => {
                *bits &= mask_ge(lo as i64 - *base as i64);
            }
            Rep::Ivs { ivs, .. } => {
                let mut first = 0;
                while first < ivs.len() && ivs[first].1 < lo {
                    first += 1;
                }
                ivs.drain(..first);
                if let Some(iv) = ivs.first_mut() {
                    if iv.0 < lo {
                        iv.0 = lo;
                    }
                }
                self.maybe_promote();
            }
        }
        true
    }

    /// Remove all values `> hi`. Returns true if the domain changed.
    pub fn remove_above(&mut self, hi: i32) -> bool {
        if self.is_empty() || hi >= self.max() {
            return false;
        }
        match &mut self.rep {
            Rep::Bits { base, bits } => {
                *bits &= mask_le(hi as i64 - *base as i64);
            }
            Rep::Ivs { ivs, .. } => {
                let mut last = ivs.len();
                while last > 0 && ivs[last - 1].0 > hi {
                    last -= 1;
                }
                ivs.truncate(last);
                if let Some(iv) = ivs.last_mut() {
                    if iv.1 > hi {
                        iv.1 = hi;
                    }
                }
                self.maybe_promote();
            }
        }
        true
    }

    /// Remove a single value. Returns true if the domain changed.
    pub fn remove_value(&mut self, v: i32) -> bool {
        match &mut self.rep {
            Rep::Bits { base, bits } => {
                let o = v as i64 - *base as i64;
                if (o as u64) >= 128 {
                    return false;
                }
                let bit = 1u128 << o;
                let had = *bits & bit != 0;
                *bits &= !bit;
                had
            }
            Rep::Ivs { ivs, .. } => {
                let idx = ivs.binary_search_by(|&(l, h)| {
                    if v < l {
                        std::cmp::Ordering::Greater
                    } else if v > h {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                });
                let Ok(i) = idx else { return false };
                let (l, h) = ivs[i];
                if l == h {
                    ivs.remove(i);
                } else if v == l {
                    ivs[i].0 = l + 1;
                } else if v == h {
                    ivs[i].1 = h - 1;
                } else {
                    ivs[i].1 = v - 1;
                    ivs.insert(i + 1, (v + 1, h));
                }
                true
            }
        }
    }

    /// Keep only values in `[lo, hi]`. Returns true if the domain changed.
    pub fn restrict_to_interval(&mut self, lo: i32, hi: i32) -> bool {
        let a = self.remove_below(lo);
        let b = self.remove_above(hi);
        a || b
    }

    /// Fix the domain to `{v}`. Returns true if the domain changed; the
    /// domain becomes empty if `v` was not a member.
    pub fn fix(&mut self, v: i32) -> bool {
        if self.value() == Some(v) {
            return false;
        }
        let member = self.contains(v);
        match &mut self.rep {
            Rep::Bits { base, bits } => {
                *bits = if member {
                    1u128 << (v as i64 - *base as i64)
                } else {
                    0
                };
            }
            Rep::Ivs { ivs, pinned } => {
                ivs.clear();
                if member {
                    ivs.push((v, v));
                    if !*pinned {
                        self.rep = Rep::Bits { base: v, bits: 1 };
                    }
                }
            }
        }
        true
    }

    /// Membership mask of `self` over the 128-value window starting at
    /// `base` (bit `i` ⇔ `base + i` is a member).
    fn mask_at(&self, base: i32) -> u128 {
        match &self.rep {
            Rep::Bits { base: ob, bits } => {
                let d = *ob as i64 - base as i64;
                if d >= 128 || d <= -128 {
                    0
                } else if d >= 0 {
                    bits << d
                } else {
                    bits >> -d
                }
            }
            Rep::Ivs { ivs, .. } => {
                let mut m: u128 = 0;
                for &(l, h) in ivs {
                    m |= mask_ge(l as i64 - base as i64) & mask_le(h as i64 - base as i64);
                }
                m
            }
        }
    }

    /// Intersect with another domain in place. Returns true if changed.
    pub fn intersect(&mut self, other: &Domain) -> bool {
        if self.is_empty() {
            return false;
        }
        match &mut self.rep {
            Rep::Bits { base, bits } => {
                // Word AND against `other`'s membership over our window —
                // values outside the window are not in `self` anyway.
                let new = *bits & other.mask_at(*base);
                let changed = new != *bits;
                *bits = new;
                changed
            }
            Rep::Ivs { ivs, .. } => {
                let mut out: Vec<(i32, i32)> = Vec::with_capacity(ivs.len());
                let mut oruns = other.intervals().peekable();
                let mut i = 0;
                while i < ivs.len() {
                    let Some(&(bl, bh)) = oruns.peek() else { break };
                    let (al, ah) = ivs[i];
                    let lo = al.max(bl);
                    let hi = ah.min(bh);
                    if lo <= hi {
                        out.push((lo, hi));
                    }
                    if ah < bh {
                        i += 1;
                    } else {
                        oruns.next();
                    }
                }
                if out == *ivs {
                    false
                } else {
                    *ivs = out;
                    self.maybe_promote();
                    true
                }
            }
        }
    }

    /// True if the two domains share no value.
    pub fn disjoint(&self, other: &Domain) -> bool {
        match (&self.rep, &other.rep) {
            (Rep::Bits { base, bits }, _) => bits & other.mask_at(*base) == 0,
            (_, Rep::Bits { base, bits }) => bits & self.mask_at(*base) == 0,
            (Rep::Ivs { ivs: a, .. }, Rep::Ivs { ivs: b, .. }) => {
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    let (al, ah) = a[i];
                    let (bl, bh) = b[j];
                    if al.max(bl) <= ah.min(bh) {
                        return false;
                    }
                    if ah < bh {
                        i += 1;
                    } else {
                        j += 1;
                    }
                }
                true
            }
        }
    }

    /// Iterate over the remaining values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = i32> + '_ {
        self.intervals().flat_map(|(l, h)| l..=h)
    }

    /// Iterate over the maximal intervals in increasing order.
    pub fn intervals(&self) -> Runs<'_> {
        self.intervals_in(i32::MIN, i32::MAX)
    }

    /// The maximal intervals of the members in `[lo, hi]`, clipped to it,
    /// in increasing order: one word AND on a bitset, two binary searches
    /// on an interval list.
    pub fn intervals_in(&self, lo: i32, hi: i32) -> Runs<'_> {
        match &self.rep {
            Rep::Bits { base, bits } => Runs::Bits {
                base: *base,
                bits: bits & mask_ge(lo as i64 - *base as i64) & mask_le(hi as i64 - *base as i64),
            },
            Rep::Ivs { ivs, .. } => {
                // The runs that end at or after `lo` and start at or
                // before `hi`: none when the window is inverted.
                let first = ivs.partition_point(|&(_, h)| h < lo);
                let len = if lo > hi {
                    0
                } else {
                    ivs[first..].partition_point(|&(l, _)| l <= hi)
                };
                Runs::Ivs {
                    ivs: ivs[first..first + len].iter(),
                    lo,
                    hi,
                }
            }
        }
    }

    /// Smallest member `≥ v`, if any.
    pub fn next_member(&self, v: i32) -> Option<i32> {
        match &self.rep {
            Rep::Bits { base, bits } => {
                let rest = bits & mask_ge(v as i64 - *base as i64);
                if rest == 0 {
                    None
                } else {
                    Some((*base as i64 + rest.trailing_zeros() as i64) as i32)
                }
            }
            Rep::Ivs { ivs, .. } => {
                for &(l, h) in ivs {
                    if v <= h {
                        return Some(v.max(l));
                    }
                }
                None
            }
        }
    }

    /// The `n`-th smallest member (0-based). `n` must be `< size()`.
    /// Used by restart-diversified branching, which picks a
    /// deterministic pseudo-random rank instead of the minimum.
    pub fn nth_member(&self, n: u64) -> i32 {
        let mut left = n;
        for (l, h) in self.intervals() {
            let run = (h as i64 - l as i64 + 1) as u64;
            if left < run {
                return (l as i64 + left as i64) as i32;
            }
            left -= run;
        }
        panic!(
            "nth_member({n}) out of range for domain of size {}",
            self.size()
        )
    }
}

/// Iterator over a domain's maximal intervals, representation-agnostic
/// (returned by [`Domain::intervals`]).
pub enum Runs<'a> {
    #[doc(hidden)]
    Bits { base: i32, bits: u128 },
    #[doc(hidden)]
    Ivs {
        ivs: std::slice::Iter<'a, (i32, i32)>,
        lo: i32,
        hi: i32,
    },
}

impl Iterator for Runs<'_> {
    type Item = (i32, i32);

    fn next(&mut self) -> Option<(i32, i32)> {
        match self {
            Runs::Bits { base, bits } => {
                if *bits == 0 {
                    return None;
                }
                let start = bits.trailing_zeros();
                // Length of the run of consecutive set bits from `start`.
                let len = (!(*bits >> start)).trailing_zeros();
                let lo = *base as i64 + start as i64;
                let hi = lo + len as i64 - 1;
                *bits &= mask_ge(start as i64 + len as i64);
                Some((lo as i32, hi as i32))
            }
            Runs::Ivs { ivs, lo, hi } => ivs.next().map(|&(l, h)| (l.max(*lo), h.min(*hi))),
        }
    }
}

/// Equality is *set* equality, independent of representation: a bitset
/// and an interval list holding the same values compare equal (and two
/// bitsets with different anchors do too).
impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        match (&self.rep, &other.rep) {
            (Rep::Bits { base: b1, bits: x1 }, Rep::Bits { base: b2, bits: x2 }) if b1 == b2 => {
                x1 == x2
            }
            _ => self.intervals().eq(other.intervals()),
        }
    }
}

impl Eq for Domain {}

impl fmt::Debug for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (l, h)) in self.intervals().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if l == h {
                write!(f, "{l}")?;
            } else {
                write!(f, "{l}..{h}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let d = Domain::interval(1, 7);
        assert_eq!(d.min(), 1);
        assert_eq!(d.max(), 7);
        assert_eq!(d.size(), 7);
        assert!(!d.is_fixed());
        assert!(d.contains(4));
        assert!(!d.contains(0));
        assert!(!d.contains(8));
    }

    #[test]
    fn inverted_interval_is_empty() {
        assert!(Domain::interval(5, 3).is_empty());
    }

    #[test]
    fn singleton_is_fixed() {
        let d = Domain::singleton(42);
        assert!(d.is_fixed());
        assert_eq!(d.value(), Some(42));
        assert_eq!(d.size(), 1);
    }

    #[test]
    fn from_values_normalizes() {
        let d = Domain::from_values([5, 1, 2, 3, 9, 2, 10]);
        assert_eq!(d.interval_count(), 3); // {1..3, 5, 9..10}
        assert_eq!(d.size(), 6);
        assert!(d.contains(5));
        assert!(!d.contains(4));
    }

    #[test]
    fn from_runs_merges_unsorted_overlapping_and_adjacent_runs() {
        let d = Domain::from_runs(vec![(9, 12), (0, 2), (3, 4), (10, 11), (7, 5), (20, 20)]);
        assert_eq!(
            d.intervals().collect::<Vec<_>>(),
            [(0, 4), (9, 12), (20, 20)]
        );
        assert!(Domain::from_runs(vec![(3, 1)]).is_empty());
        let top = Domain::from_runs(vec![(i32::MAX, i32::MAX), (i32::MIN, i32::MAX - 1)]);
        assert_eq!(top, Domain::interval(i32::MIN, i32::MAX));
    }

    #[test]
    fn intervals_in_clips_both_representations() {
        let vals = [-40, -39, -38, 0, 1, 2, 3, 50, 52, 53, 60];
        let bits = Domain::from_values(vals);
        let mut pinned = bits.clone();
        pinned.pin();
        let wide = Domain::from_values(vals.into_iter().chain([5000, 5001]));
        for d in [&bits, &pinned, &wide] {
            for lo in -45..65 {
                for hi in lo - 2..66 {
                    let want: Vec<i32> = d.iter().filter(|v| (lo..=hi).contains(v)).collect();
                    let runs: Vec<(i32, i32)> = d.intervals_in(lo, hi).collect();
                    assert_eq!(
                        Domain::from_values(want.clone())
                            .intervals()
                            .collect::<Vec<_>>(),
                        runs
                    );
                    assert!(
                        runs.iter().all(|&(l, h)| lo <= l && l <= h && h <= hi),
                        "{lo}..{hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn shifted_moves_values_and_drops_those_past_the_ends() {
        let d = Domain::from_values([0, 1, 5, 9]);
        assert_eq!(d.shifted(3), Domain::from_values([3, 4, 8, 12]));
        assert!(d.shifted(3).is_bitset());
        let mut pinned = d.clone();
        pinned.pin();
        assert_eq!(pinned.shifted(-10), Domain::from_values([-10, -9, -5, -1]));
        let top = Domain::from_values([i32::MAX - 2, i32::MAX]);
        assert_eq!(top.shifted(1), Domain::singleton(i32::MAX - 1));
        assert_eq!(
            top.shifted(-(i32::MAX as i64)),
            Domain::from_values([-2, 0])
        );
        let bottom = Domain::interval(i32::MIN, i32::MIN + 5);
        assert_eq!(bottom.shifted(-3), Domain::interval(i32::MIN, i32::MIN + 2));
        assert!(bottom.shifted(-6).is_empty());
        let wide = Domain::from_values([i32::MIN, 0, i32::MAX]);
        assert_eq!(wide.shifted(1), Domain::from_values([i32::MIN + 1, 1]));
    }

    #[test]
    fn remove_value_splits_interval() {
        let mut d = Domain::interval(0, 10);
        assert!(d.remove_value(5));
        assert_eq!(d.interval_count(), 2);
        assert_eq!(d.size(), 10);
        assert!(!d.contains(5));
        assert!(!d.remove_value(5)); // idempotent
    }

    #[test]
    fn remove_value_at_edges() {
        let mut d = Domain::interval(0, 3);
        assert!(d.remove_value(0));
        assert_eq!(d.min(), 1);
        assert!(d.remove_value(3));
        assert_eq!(d.max(), 2);
    }

    #[test]
    fn remove_singleton_value_empties() {
        let mut d = Domain::singleton(7);
        assert!(d.remove_value(7));
        assert!(d.is_empty());
    }

    #[test]
    fn remove_below_above() {
        let mut d = Domain::from_values([0, 1, 2, 5, 6, 9]);
        assert!(d.remove_below(2));
        assert_eq!(d.min(), 2);
        assert!(d.remove_above(6));
        assert_eq!(d.max(), 6);
        assert_eq!(d.size(), 3); // {2, 5, 6}
        assert!(!d.remove_below(1)); // no-op reports false
        assert!(!d.remove_above(10));
    }

    #[test]
    fn remove_below_skipping_whole_intervals() {
        let mut d = Domain::from_values([0, 1, 5, 6, 10]);
        assert!(d.remove_below(7));
        assert_eq!(d.min(), 10);
        assert_eq!(d.size(), 1);
    }

    #[test]
    fn fix_member_and_nonmember() {
        let mut d = Domain::interval(0, 9);
        assert!(d.fix(4));
        assert_eq!(d.value(), Some(4));
        let mut d2 = Domain::from_values([1, 3]);
        assert!(d2.fix(2));
        assert!(d2.is_empty());
    }

    #[test]
    fn intersect_interval_lists() {
        let mut a = Domain::from_values([0, 1, 2, 5, 6, 9, 10]);
        let b = Domain::from_values([2, 3, 6, 7, 10, 11]);
        assert!(a.intersect(&b));
        let got: Vec<i32> = a.iter().collect();
        assert_eq!(got, vec![2, 6, 10]);
    }

    #[test]
    fn intersect_no_change_reports_false() {
        let mut a = Domain::interval(3, 5);
        let b = Domain::interval(0, 10);
        assert!(!a.intersect(&b));
    }

    #[test]
    fn disjointness() {
        let a = Domain::from_values([1, 2, 8]);
        let b = Domain::from_values([3, 4, 7]);
        assert!(a.disjoint(&b));
        let c = Domain::from_values([8, 9]);
        assert!(!a.disjoint(&c));
    }

    #[test]
    fn next_member_walks_gaps() {
        let d = Domain::from_values([1, 2, 7, 8]);
        assert_eq!(d.next_member(0), Some(1));
        assert_eq!(d.next_member(3), Some(7));
        assert_eq!(d.next_member(8), Some(8));
        assert_eq!(d.next_member(9), None);
    }

    /// Every operation at the extreme representable bounds — the full
    /// `[i32::MIN, i32::MAX]` domain is what an unbounded variable gets,
    /// so none of this may overflow (debug builds would panic).
    #[test]
    fn full_range_interval_edge_bounds() {
        let d = Domain::interval(i32::MIN, i32::MAX);
        assert_eq!(d.size(), 1u64 << 32);
        assert_eq!(d.min(), i32::MIN);
        assert_eq!(d.max(), i32::MAX);
        assert!(d.contains(i32::MIN));
        assert!(d.contains(i32::MAX));
        assert!(d.contains(0));
        assert_eq!(d.next_member(i32::MAX), Some(i32::MAX));

        let mut lo = d.clone();
        assert!(lo.remove_value(i32::MIN));
        assert_eq!(lo.min(), i32::MIN + 1);
        let mut hi = d.clone();
        assert!(hi.remove_value(i32::MAX));
        assert_eq!(hi.max(), i32::MAX - 1);

        let mut mid = d.clone();
        assert!(mid.remove_value(0));
        assert_eq!(mid.interval_count(), 2);
        assert_eq!(mid.size(), (1u64 << 32) - 1);

        let mut f = d.clone();
        assert!(f.fix(i32::MAX));
        assert_eq!(f.value(), Some(i32::MAX));

        let mut cut = d.clone();
        assert!(cut.remove_below(i32::MAX));
        assert_eq!(cut.size(), 1);
        let mut cut2 = d.clone();
        assert!(cut2.remove_above(i32::MIN));
        assert_eq!(cut2.size(), 1);
    }

    #[test]
    fn from_values_at_extreme_bounds() {
        // Adjacent pair ending exactly at i32::MAX: the gap-merge probe
        // `hi + 1` must not overflow.
        let d = Domain::from_values([i32::MAX - 1, i32::MAX]);
        assert_eq!(d.interval_count(), 1);
        assert_eq!(d.size(), 2);

        let d = Domain::from_values([i32::MIN, i32::MIN + 1, i32::MAX]);
        assert_eq!(d.interval_count(), 2);
        assert!(d.contains(i32::MIN));
        assert!(d.contains(i32::MAX));
        assert!(!d.contains(0));

        let singleton = Domain::from_values([i32::MAX]);
        assert!(singleton.is_fixed());
        assert_eq!(singleton.value(), Some(i32::MAX));
    }

    #[test]
    fn extreme_domains_intersect_and_disjoint() {
        let mut a = Domain::interval(i32::MIN, i32::MAX);
        let b = Domain::from_values([i32::MIN, i32::MAX]);
        assert!(a.intersect(&b));
        assert_eq!(a.size(), 2);
        let lo = Domain::singleton(i32::MIN);
        let hi = Domain::singleton(i32::MAX);
        assert!(lo.disjoint(&hi));
        assert!(!a.disjoint(&lo));
    }

    #[test]
    fn iter_matches_contains() {
        let d = Domain::from_values([-3, -1, 0, 4]);
        for v in -5..6 {
            assert_eq!(d.contains(v), d.iter().any(|x| x == v), "v={v}");
        }
    }

    // ---- hybrid-representation specifics ---------------------------------

    #[test]
    fn small_domains_use_the_bitset() {
        assert!(Domain::interval(0, 127).is_bitset());
        assert!(Domain::singleton(i32::MAX).is_bitset());
        assert!(Domain::from_values([-3, 0, 99]).is_bitset());
        assert!(!Domain::interval(0, 128).is_bitset());
        assert!(!Domain::interval(i32::MIN, i32::MAX).is_bitset());
    }

    #[test]
    fn wide_domain_promotes_on_narrowing() {
        let mut d = Domain::interval(0, 1000);
        assert!(!d.is_bitset());
        assert!(d.remove_above(500));
        assert!(!d.is_bitset()); // span 501: still wide
        assert!(d.remove_below(400));
        assert!(d.is_bitset()); // span 101: promoted
        assert_eq!(d.min(), 400);
        assert_eq!(d.max(), 500);
        assert_eq!(d.size(), 101);
    }

    #[test]
    fn pinned_domain_never_promotes() {
        let mut d = Domain::interval(0, 1000);
        d.pin();
        d.remove_above(10);
        assert!(!d.is_bitset());
        d.fix(3);
        assert!(!d.is_bitset());
        assert_eq!(d.value(), Some(3));
        // Pinning survives cloning (the trail restores pinned domains).
        let mut c = d.clone();
        c.remove_value(3);
        assert!(c.is_empty());
        assert!(!c.is_bitset());
    }

    #[test]
    fn equality_is_representation_independent() {
        let mut pinned = Domain::interval(5, 40);
        pinned.pin();
        let bits = Domain::interval(5, 40);
        assert!(bits.is_bitset() && !pinned.is_bitset());
        assert_eq!(pinned, bits);
        assert_eq!(bits, pinned);

        // Same set, different anchors.
        let mut a = Domain::interval(0, 100);
        a.remove_below(50);
        let b = Domain::interval(50, 100);
        assert_eq!(a, b);

        // Empty domains compare equal across representations.
        let mut eb = Domain::singleton(3);
        eb.remove_value(3);
        assert_eq!(eb, Domain::empty());
    }

    #[test]
    fn bitset_ops_match_interval_ops_exhaustively() {
        // One shared script of mutations applied to a bitset domain and a
        // pinned interval domain; every observation must agree after every
        // step. (The broad randomized battery lives in tests/.)
        let script: &[fn(&mut Domain) -> bool] = &[
            |d| d.remove_value(7),
            |d| d.remove_below(3),
            |d| d.remove_above(90),
            |d| d.remove_value(3),
            |d| d.intersect(&Domain::from_values((0..100).filter(|v| v % 3 != 1))),
            |d| d.restrict_to_interval(10, 50),
            |d| d.remove_value(30),
            |d| d.fix(33),
        ];
        let mut b = Domain::interval(0, 100);
        let mut p = Domain::interval(0, 100);
        p.pin();
        assert!(b.is_bitset());
        for (i, step) in script.iter().enumerate() {
            let cb = step(&mut b);
            let cp = step(&mut p);
            assert_eq!(cb, cp, "step {i}: changed flags differ");
            assert_eq!(b, p, "step {i}: sets differ");
            assert_eq!(b.size(), p.size(), "step {i}");
            assert_eq!(b.interval_count(), p.interval_count(), "step {i}");
            assert_eq!(
                b.intervals().collect::<Vec<_>>(),
                p.intervals().collect::<Vec<_>>(),
                "step {i}"
            );
            if !b.is_empty() {
                assert_eq!(b.min(), p.min(), "step {i}");
                assert_eq!(b.max(), p.max(), "step {i}");
            }
            for v in -2..103 {
                assert_eq!(b.contains(v), p.contains(v), "step {i}, v={v}");
                assert_eq!(b.next_member(v), p.next_member(v), "step {i}, v={v}");
            }
        }
    }

    #[test]
    fn bitset_near_extreme_bounds() {
        // A bitset anchored at i32::MAX - 127: offsets never overflow.
        let mut d = Domain::interval(i32::MAX - 127, i32::MAX);
        assert!(d.is_bitset());
        assert_eq!(d.size(), 128);
        assert!(d.contains(i32::MAX));
        assert!(!d.contains(i32::MIN)); // offset wraps far out of range
        assert!(d.remove_value(i32::MAX));
        assert_eq!(d.max(), i32::MAX - 1);
        assert!(d.remove_below(i32::MAX - 3));
        assert_eq!(d.size(), 3);
        assert_eq!(
            d.iter().collect::<Vec<_>>(),
            vec![i32::MAX - 3, i32::MAX - 2, i32::MAX - 1]
        );

        // And anchored at i32::MIN.
        let mut lo = Domain::interval(i32::MIN, i32::MIN + 127);
        assert!(lo.is_bitset());
        assert!(!lo.contains(i32::MAX));
        assert!(lo.remove_above(i32::MIN + 1));
        assert_eq!(lo.size(), 2);
        assert_eq!(lo.min(), i32::MIN);
    }

    #[test]
    fn bitset_intersect_across_anchors() {
        let mut a = Domain::interval(0, 100); // base 0
        let mut b = Domain::interval(0, 160);
        b.remove_below(60); // promotes with base 60
        assert!(a.is_bitset() && b.is_bitset());
        assert!(a.intersect(&b));
        assert_eq!(a.min(), 60);
        assert_eq!(a.max(), 100);
        assert_eq!(a.size(), 41);

        // Disjoint windows AND to empty.
        let mut c = Domain::interval(0, 50);
        let far = Domain::interval(1000, 1050);
        assert!(c.intersect(&far));
        assert!(c.is_empty());
        assert!(Domain::interval(0, 50).disjoint(&far));
    }

    #[test]
    fn bitset_intersect_with_wide_interval_list() {
        let mut a = Domain::interval(10, 90);
        let wide = Domain::from_values([0, 11, 12, 500_000, 1_000_000]);
        assert!(!wide.is_bitset());
        assert!(a.intersect(&wide));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![11, 12]);
    }
}
