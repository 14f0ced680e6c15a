//! Basic binary/n-ary propagators: equality with offset, disequality,
//! and `y = max(xs)`.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

/// `y = x + c` (domain-consistent on bounds; value-consistent once one side
/// is fixed). Covers plain equality with `c = 0`.
///
/// This implements the paper's constraint (4): a data node starts exactly
/// when its producing operation's latency has elapsed.
pub struct XPlusCEqY {
    pub x: VarId,
    pub c: i32,
    pub y: VarId,
}

impl Propagator for XPlusCEqY {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Hole channeling means interior removals matter on both sides.
        subs.watch(self.x, DomainEvent::ANY);
        subs.watch(self.y, DomainEvent::ANY);
    }

    fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
        // Bounds in both directions.
        s.remove_below(self.y, s.min(self.x).saturating_add(self.c))?;
        s.remove_above(self.y, s.max(self.x).saturating_add(self.c))?;
        s.remove_below(self.x, s.min(self.y).saturating_sub(self.c))?;
        s.remove_above(self.x, s.max(self.y).saturating_sub(self.c))?;
        // Exact channeling once either side has holes: intersect with the
        // other side shifted by runs (a bitset just moves its anchor),
        // which gives full domain consistency.
        if s.dom(self.x).interval_count() > 1 || s.dom(self.y).interval_count() > 1 {
            let c = self.c as i64;
            s.intersect(self.y, &s.dom(self.x).shifted(c))?;
            s.intersect(self.x, &s.dom(self.y).shifted(-c))?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "x+c=y"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }

    fn idempotent(&self) -> bool {
        // One pass leaves y = x + c exactly (bounds then shifted-domain
        // intersection in both directions), so a re-run cannot prune —
        // unless x and y alias, when the channeling feeds itself.
        self.x != self.y
    }
}

/// `x + c ≤ y`: the precedence constraint (1) of the paper,
/// `s_i + l_i ≤ s_j`.
pub struct XPlusCLeqY {
    pub x: VarId,
    pub c: i32,
    pub y: VarId,
}

impl Propagator for XPlusCLeqY {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Only x's lower bound and y's upper bound feed the rules.
        subs.watch(self.x, DomainEvent::MIN);
        subs.watch(self.y, DomainEvent::MAX);
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        s.remove_below(self.y, s.min(self.x).saturating_add(self.c))?;
        s.remove_above(self.x, s.max(self.y).saturating_sub(self.c))?;
        if s.max(self.x) as i64 + self.c as i64 <= s.min(self.y) as i64 {
            wake.report_entailed();
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "x+c<=y"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }

    fn idempotent(&self) -> bool {
        // The run reads min(x)/max(y) and prunes min(y)/max(x): the
        // inputs of the rules are untouched by their own outputs —
        // unless x and y alias, when each prune shifts the next input.
        self.x != self.y
    }
}

/// `x ≠ y + c`: the same-configuration constraint (3) with `c = 0`,
/// and modular-offset disequalities in the modulo-scheduling model.
pub struct NeqOffset {
    pub x: VarId,
    pub y: VarId,
    pub c: i32,
}

impl NeqOffset {
    /// A side is fixed, or the bounds of x and y + c are apart.
    fn decided(&self, s: &Store) -> bool {
        let c = self.c as i64;
        s.is_fixed(self.x)
            || s.is_fixed(self.y)
            || (s.max(self.x) as i64) < s.min(self.y) as i64 + c
            || (s.min(self.x) as i64) > s.max(self.y) as i64 + c
    }
}

impl Propagator for NeqOffset {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Filtering only triggers once a side becomes fixed.
        subs.watch(self.x, DomainEvent::FIX);
        subs.watch(self.y, DomainEvent::FIX);
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // A counterpart outside `i32` is in no domain: nothing to remove.
        let c = self.c as i64;
        if let Some(vy) = s.dom(self.y).value() {
            if let Ok(v) = i32::try_from(vy as i64 + c) {
                s.remove_value(self.x, v)?;
            }
        }
        if let Some(vx) = s.dom(self.x).value() {
            if let Ok(v) = i32::try_from(vx as i64 - c) {
                s.remove_value(self.y, v)?;
            }
        }
        // Entailed once no value of x meets one of y + c: a fixed side
        // had its counterpart removed above, or the bounds are apart.
        if self.decided(s) {
            wake.report_entailed();
        }
        Ok(())
    }

    fn idle(&self, s: &Store) -> bool {
        // Without a fixed side nothing prunes, and entailment needs the
        // bounds apart.
        !self.decided(s)
    }

    fn name(&self) -> &'static str {
        "neq"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }

    fn idempotent(&self) -> bool {
        // If removing x's value fixes y, the y-side rule in the same run
        // already removes the (provably absent) mirror value from x.
        true
    }
}

/// `y = max(x_1, …, x_n)`, bounds-consistent.
///
/// Used for the makespan objective (5) and for the highest slot in use
/// when the memory footprint is minimised.
pub struct MaxOf {
    pub xs: Vec<VarId>,
    pub y: VarId,
}

impl Propagator for MaxOf {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // All rules are bounds-based; interior holes never matter.
        for &x in &self.xs {
            subs.watch(x, DomainEvent::BOUNDS);
        }
        subs.watch(self.y, DomainEvent::BOUNDS);
    }

    fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
        if self.xs.is_empty() {
            return Err(Fail);
        }
        let mut max_of_maxes = i32::MIN;
        let mut max_of_mins = i32::MIN;
        for &x in &self.xs {
            max_of_maxes = max_of_maxes.max(s.max(x));
            max_of_mins = max_of_mins.max(s.min(x));
        }
        s.remove_above(self.y, max_of_maxes)?;
        s.remove_below(self.y, max_of_mins)?;
        let y_max = s.max(self.y);
        for &x in &self.xs {
            s.remove_above(x, y_max)?;
        }
        // If exactly one x can still reach y's lower bound, it must.
        let y_min = s.min(self.y);
        let mut candidates = self.xs.iter().filter(|&&x| s.max(x) >= y_min);
        if let (Some(&only), None) = (candidates.next(), candidates.next()) {
            s.remove_below(only, y_min)?;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "max"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::engine::Engine;
    use crate::props::testgen::{agree, anchor, entailed, holey, twin_stores};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-value `x+c=y` the shifted-run one replaced, kept as its
    /// oracle: both shifted domains rebuilt value by value (adding in
    /// i64, so values pushed out of the `i32` range drop out).
    fn per_value_eq_offset(s: &mut Store, x: VarId, c: i32, y: VarId) -> PropResult {
        s.remove_below(y, s.min(x).saturating_add(c))?;
        s.remove_above(y, s.max(x).saturating_add(c))?;
        s.remove_below(x, s.min(y).saturating_sub(c))?;
        s.remove_above(x, s.max(y).saturating_sub(c))?;
        if s.dom(x).interval_count() > 1 || s.dom(y).interval_count() > 1 {
            let shift = |d: &Domain, c: i64| {
                Domain::from_values(d.iter().filter_map(|v| i32::try_from(v as i64 + c).ok()))
            };
            s.intersect(y, &shift(s.dom(x), c as i64))?;
            s.intersect(x, &shift(s.dom(y), -(c as i64)))?;
        }
        Ok(())
    }

    #[test]
    fn eq_offset_matches_per_value_oracle() {
        let mut rng = StdRng::seed_from_u64(0x0078_2b63_3d79);
        let (cases, mut failed) = (3000, 0);
        for case in 0..cases {
            // Offsets from zero up to ones that carry a domain across
            // (or past) an end of the `i32` range.
            let c = match rng.gen_range(0..4) {
                0 => rng.gen_range(-3..=3),
                1 => rng.gen_range(i32::MIN..=i32::MAX),
                _ => rng.gen_range(-1500..=1500),
            };
            let lo = anchor(&mut rng);
            let y_lo = lo + c as i64 + rng.gen_range(-300..=300i64);
            let doms = [holey(&mut rng, lo, 1000), holey(&mut rng, y_lo, 1000)];
            let (a, b, [x, y]) = twin_stores(&mut rng, &doms);
            let mut p = XPlusCEqY { x, c, y };
            failed += usize::from(agree(
                case,
                (a, b),
                |st| p.propagate(st, &Wake::full()),
                |st| per_value_eq_offset(st, x, c, y),
            ));
        }
        assert!((cases / 20..cases / 2).contains(&failed), "{failed} failed");
    }

    fn run(e: &mut Engine, s: &mut Store) {
        e.fixpoint(s).unwrap();
    }

    #[test]
    fn eq_offset_channels_bounds() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(5, 20);
        let mut e = Engine::new();
        e.post(Box::new(XPlusCEqY { x, c: 3, y }), &s);
        run(&mut e, &mut s);
        assert_eq!((s.min(x), s.max(x)), (2, 10));
        assert_eq!((s.min(y), s.max(y)), (5, 13));
    }

    #[test]
    fn eq_offset_channels_holes() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 20);
        let mut e = Engine::new();
        e.post(Box::new(XPlusCEqY { x, c: 0, y }), &s);
        run(&mut e, &mut s);
        s.push_level();
        s.remove_value(x, 5).unwrap();
        s.remove_value(x, 6).unwrap();
        run(&mut e, &mut s);
        assert!(!s.dom(y).contains(5));
        assert!(!s.dom(y).contains(6));
    }

    #[test]
    fn precedence_prunes_both_sides() {
        let mut s = Store::new();
        let x = s.new_var(0, 100);
        let y = s.new_var(0, 100);
        let mut e = Engine::new();
        e.post(Box::new(XPlusCLeqY { x, c: 7, y }), &s);
        run(&mut e, &mut s);
        assert_eq!(s.min(y), 7);
        assert_eq!(s.max(x), 93);
    }

    #[test]
    fn precedence_fails_when_impossible() {
        let mut s = Store::new();
        let x = s.new_var(10, 20);
        let y = s.new_var(0, 12);
        let mut e = Engine::new();
        e.post(Box::new(XPlusCLeqY { x, c: 7, y }), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn neq_waits_until_fixed() {
        let mut s = Store::new();
        let x = s.new_var(0, 5);
        let y = s.new_var(0, 5);
        let mut e = Engine::new();
        e.post(Box::new(NeqOffset { x, y, c: 0 }), &s);
        run(&mut e, &mut s);
        assert_eq!(s.dom(x).size(), 6); // nothing yet
        s.push_level();
        s.fix(y, 3).unwrap();
        run(&mut e, &mut s);
        assert!(!s.dom(x).contains(3));
    }

    #[test]
    fn neq_detects_conflict() {
        let mut s = Store::new();
        let x = s.new_var(4, 4);
        let y = s.new_var(4, 4);
        let mut e = Engine::new();
        e.post(Box::new(NeqOffset { x, y, c: 0 }), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn max_bounds() {
        let mut s = Store::new();
        let a = s.new_var(0, 4);
        let b = s.new_var(2, 9);
        let y = s.new_var(0, 100);
        let mut e = Engine::new();
        e.post(Box::new(MaxOf { xs: vec![a, b], y }), &s);
        run(&mut e, &mut s);
        assert_eq!((s.min(y), s.max(y)), (2, 9));
        s.push_level();
        s.remove_above(y, 6).unwrap();
        run(&mut e, &mut s);
        assert_eq!(s.max(b), 6);
        assert_eq!(s.max(a), 4);
    }

    #[test]
    fn max_forces_unique_support() {
        let mut s = Store::new();
        let a = s.new_var(0, 3);
        let b = s.new_var(0, 9);
        let y = s.new_var(8, 9);
        let mut e = Engine::new();
        e.post(Box::new(MaxOf { xs: vec![a, b], y }), &s);
        run(&mut e, &mut s);
        // only b can reach 8 → b ≥ 8
        assert_eq!(s.min(b), 8);
    }

    #[test]
    fn leq_reports_entailment_once_the_bounds_separate() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 10);
        let mut p = XPlusCLeqY { x, c: 2, y };
        s.push_level();
        assert!(!entailed(&mut s, &mut p));
        s.remove_above(x, 4).unwrap();
        assert!(!entailed(&mut s, &mut p), "max x + c = 6 > min y = 2");
        s.remove_below(y, 6).unwrap();
        assert!(entailed(&mut s, &mut p), "max x + c = min y");
    }

    #[test]
    fn neq_reports_entailment_and_idles_until_decided() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 10);
        let mut p = NeqOffset { x, y, c: 1 };
        s.push_level();
        assert!(p.idle(&s));
        assert!(!entailed(&mut s, &mut p));
        s.fix(y, 4).unwrap();
        assert!(!p.idle(&s), "a fixed side prunes");
        assert!(entailed(&mut s, &mut p));
        assert!(!s.dom(x).contains(5));
        s.pop_level();
        s.push_level();
        s.remove_above(x, 3).unwrap();
        s.remove_below(y, 3).unwrap();
        assert!(!p.idle(&s), "x ≤ 3 < 4 ≤ y + 1: the run reports");
        assert!(entailed(&mut s, &mut p));
    }

    #[test]
    fn neq_keeps_x_whole_when_y_plus_c_leaves_i32() {
        // y + c = 2³¹ is no i32, so x ≠ y + c always holds.
        let mut s = Store::new();
        let x = s.new_var(i32::MAX - 1, i32::MAX);
        let y = s.new_var(i32::MAX, i32::MAX);
        let mut e = Engine::new();
        e.post(Box::new(NeqOffset { x, y, c: 1 }), &s);
        run(&mut e, &mut s);
        assert_eq!((s.min(x), s.max(x), s.size(x)), (i32::MAX - 1, i32::MAX, 2));
    }

    #[test]
    fn neq_keeps_y_whole_when_x_minus_c_leaves_i32() {
        // x − c = −2³¹ − 1 is no i32, so y ≠ x − c always holds.
        let mut s = Store::new();
        let x = s.new_var(i32::MIN, i32::MIN);
        let y = s.new_var(i32::MIN, i32::MIN + 1);
        let mut e = Engine::new();
        e.post(Box::new(NeqOffset { x, y, c: 1 }), &s);
        run(&mut e, &mut s);
        assert_eq!((s.min(y), s.max(y), s.size(y)), (i32::MIN, i32::MIN + 1, 2));
    }
}
