//! Linear inequality with bounds consistency.
//!
//! `LinearLeq` enforces `Σ aᵢ·xᵢ ≤ c`. Coefficients may be negative. All
//! arithmetic is done in `i64` so that model-sized coefficients cannot
//! overflow.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

/// `Σ aᵢ·xᵢ ≤ c`.
///
/// Keeps the per-term minimal contributions cached between re-runs
/// inside one fixpoint round: a wake with term tags updates only the
/// dirty terms' entries in O(|dirty|) instead of recomputing the whole
/// minimal sum.
pub struct LinearLeq {
    pub terms: Vec<(i64, VarId)>,
    pub c: i64,
    /// Cached `term_min` per term, valid only on same-round re-runs.
    mins: Vec<i64>,
    /// Cached Σ mins, kept in sync with `mins`.
    min_sum: i64,
}

impl LinearLeq {
    pub fn new(terms: Vec<(i64, VarId)>, c: i64) -> Self {
        LinearLeq {
            terms,
            c,
            mins: Vec::new(),
            min_sum: 0,
        }
    }

    /// Bring `mins`/`min_sum` up to date: full rescan when the cache
    /// cannot be trusted, otherwise patch only the tagged terms.
    fn refresh_mins(&mut self, s: &Store, wake: &Wake<'_>) {
        if wake.rescan() || !wake.rerun_in_round() || self.mins.len() != self.terms.len() {
            self.mins.clear();
            self.mins
                .extend(self.terms.iter().map(|&(a, x)| term_min(s, a, x)));
            self.min_sum = self.mins.iter().sum();
        } else {
            for &t in wake.tags() {
                let (a, x) = self.terms[t as usize];
                let m = term_min(s, a, x);
                self.min_sum += m - self.mins[t as usize];
                self.mins[t as usize] = m;
            }
        }
    }
}

#[inline]
fn term_min(s: &Store, a: i64, x: VarId) -> i64 {
    if a >= 0 {
        a * s.min(x) as i64
    } else {
        a * s.max(x) as i64
    }
}

/// Ceiling division that is correct for all sign combinations.
#[inline]
fn ceil_div(n: i64, d: i64) -> i64 {
    let q = n / d;
    let r = n % d;
    if r != 0 && (r < 0) == (d < 0) {
        q + 1
    } else {
        q
    }
}

impl Propagator for LinearLeq {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Only the *minimal* contribution of a term feeds the rules: a
        // positive term grows its minimum on MIN events, a negative one
        // on MAX events. The pruned (opposite) side never re-triggers.
        for (i, &(a, x)) in self.terms.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mask = if a > 0 {
                DomainEvent::MIN
            } else {
                DomainEvent::MAX
            };
            subs.watch_tagged(x, mask, i as u32);
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        self.refresh_mins(s, wake);
        if self.min_sum > self.c {
            return Err(Fail);
        }
        // Each term may use at most c - (min_sum - its own min contribution).
        // The maximal sum, read after each term's pruning, tells whether
        // every remaining assignment satisfies the constraint.
        let mut max_sum = 0i64;
        for (i, &(a, x)) in self.terms.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let slack = self.c - (self.min_sum - self.mins[i]);
            if a > 0 {
                // a*x ≤ slack  →  x ≤ floor(slack / a)
                let ub = slack.div_euclid(a);
                s.remove_above(x, ub.clamp(i32::MIN as i64, i32::MAX as i64) as i32)?;
            } else {
                // a*x ≤ slack with a < 0  →  x ≥ ceil(slack / a)
                let lb = ceil_div(slack, a);
                s.remove_below(x, lb.clamp(i32::MIN as i64, i32::MAX as i64) as i32)?;
            }
            let term_max = if a > 0 {
                a * s.max(x) as i64
            } else {
                a * s.min(x) as i64
            };
            max_sum = max_sum.saturating_add(term_max);
        }
        if max_sum <= self.c {
            wake.report_entailed();
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "linear<="
    }

    fn priority(&self) -> Priority {
        Priority::Linear
    }

    fn idempotent(&self) -> bool {
        // A run prunes only the non-minimal side of each term, so the
        // minimal sum it reasons from is unchanged by its own prunings —
        // unless some variable appears with both signs, in which case a
        // max-prune through the positive term feeds the negative term's
        // minimum (and vice versa) and a re-run can prune more.
        let mut pos: Vec<VarId> = Vec::new();
        let mut neg: Vec<VarId> = Vec::new();
        for &(a, x) in &self.terms {
            match a.cmp(&0) {
                std::cmp::Ordering::Greater => pos.push(x),
                std::cmp::Ordering::Less => neg.push(x),
                std::cmp::Ordering::Equal => {}
            }
        }
        !pos.iter().any(|x| neg.contains(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::props::testgen::entailed;

    #[test]
    fn ceil_div_signs() {
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(6, 2), 3);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(7, -2), -3);
        assert_eq!(ceil_div(-7, -2), 4);
        assert_eq!(ceil_div(0, 5), 0);
    }

    #[test]
    fn leq_prunes_upper_bounds() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 10);
        let mut e = Engine::new();
        // x + 2y ≤ 10
        e.post(Box::new(LinearLeq::new(vec![(1, x), (2, y)], 10)), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.max(y), 5);
        assert_eq!(s.max(x), 10);
        s.push_level();
        s.remove_below(y, 4).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.max(x), 2);
    }

    #[test]
    fn leq_with_negative_coeff() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 10);
        let mut e = Engine::new();
        // x - y ≤ 2  →  x ≤ y + 2
        e.post(Box::new(LinearLeq::new(vec![(1, x), (-1, y)], 2)), &s);
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.remove_above(y, 3).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.max(x), 5);
        s.pop_level();
        s.push_level();
        s.remove_below(x, 9).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.min(y), 7);
    }

    #[test]
    fn leq_fails_on_overcommit() {
        let mut s = Store::new();
        let x = s.new_var(6, 10);
        let y = s.new_var(6, 10);
        let mut e = Engine::new();
        e.post(Box::new(LinearLeq::new(vec![(1, x), (1, y)], 10)), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn leq_reports_entailment_when_the_max_sum_fits() {
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let y = s.new_var(0, 10);
        // x - y ≤ 2
        let mut p = LinearLeq::new(vec![(1, x), (-1, y)], 2);
        s.push_level();
        assert!(!entailed(&mut s, &mut p), "max sum 10 > 2");
        s.remove_above(x, 6).unwrap();
        s.remove_below(y, 4).unwrap();
        assert!(entailed(&mut s, &mut p), "max sum 6 - 4 = 2");
    }
}
