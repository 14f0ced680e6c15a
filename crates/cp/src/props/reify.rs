//! Guarded (conditional) constraints for the memory-access rules —
//! the paper's constraints (7), (8) and (9).
//!
//! - [`PageLineImplies`] enforces `page_d = page_e ⟹ line_d = line_e`
//!   for two vector data nodes that are accessed in the same instruction
//!   (constraint (7): inputs of one vector/matrix operation).
//! - [`CondSameTime`] activates a set of page⟹line implications only when
//!   two operations are scheduled at the same cycle (constraints (8)/(9):
//!   inputs/outputs of co-scheduled operations), and conversely *separates*
//!   the start times as soon as some allocation pair is provably
//!   conflicting.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{PropResult, Store, VarId};

/// `page_d = page_e ⟹ line_d = line_e`.
pub struct PageLineImplies {
    pub page_d: VarId,
    pub line_d: VarId,
    pub page_e: VarId,
    pub line_e: VarId,
}

impl PageLineImplies {
    /// Core filtering shared with [`CondSameTime`]. Returns `Ok(true)` if
    /// the implication is *violated-entailed* under the current domains
    /// (pages surely equal AND lines surely different) — callers embedding
    /// this under a guard use that to refute the guard instead of failing.
    fn filter(
        s: &mut Store,
        page_d: VarId,
        line_d: VarId,
        page_e: VarId,
        line_e: VarId,
        hard: bool,
    ) -> Result<bool, crate::store::Fail> {
        let pages_must_equal =
            s.is_fixed(page_d) && s.is_fixed(page_e) && s.value(page_d) == s.value(page_e);
        let lines_cant_equal = s.domain(line_d).disjoint(&s.domain(line_e));

        if pages_must_equal && lines_cant_equal {
            if hard {
                return Err(crate::store::Fail);
            }
            return Ok(true);
        }
        if !hard {
            // Under a guard we only *observe* until the guard is decided.
            return Ok(false);
        }
        if pages_must_equal {
            // Enforce line_d = line_e.
            let de = s.domain(line_e).into_owned();
            s.intersect(line_d, &de)?;
            let dd = s.domain(line_d).into_owned();
            s.intersect(line_e, &dd)?;
        } else if lines_cant_equal {
            // Contrapositive: page_d ≠ page_e.
            if let Some(p) = s.fixed_value(page_d) {
                s.remove_value(page_e, p)?;
            }
            if let Some(p) = s.fixed_value(page_e) {
                s.remove_value(page_d, p)?;
            }
        }
        Ok(false)
    }

    /// True when the implication holds for every value left: the pages
    /// cannot be equal, or the lines are fixed and equal.
    fn holds(s: &Store, page_d: VarId, line_d: VarId, page_e: VarId, line_e: VarId) -> bool {
        s.domain(page_d).disjoint(&s.domain(page_e))
            || (s.is_fixed(line_d) && s.is_fixed(line_e) && s.value(line_d) == s.value(line_e))
    }

    /// The watches of one implication. The rules read a page only
    /// through its fixed value, and the lines through full-domain
    /// disjointness and intersection.
    fn watch(subs: &mut Subscriptions, page_d: VarId, line_d: VarId, page_e: VarId, line_e: VarId) {
        subs.watch(page_d, DomainEvent::FIX);
        subs.watch(line_d, DomainEvent::ANY);
        subs.watch(page_e, DomainEvent::FIX);
        subs.watch(line_e, DomainEvent::ANY);
    }
}

impl Propagator for PageLineImplies {
    fn subscribe(&self, subs: &mut Subscriptions) {
        Self::watch(subs, self.page_d, self.line_d, self.page_e, self.line_e);
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        let (pd, ld, pe, le) = (self.page_d, self.line_d, self.page_e, self.line_e);
        Self::filter(s, pd, ld, pe, le, true)?;
        if Self::holds(s, pd, ld, pe, le) {
            wake.report_entailed();
        }
        Ok(())
    }

    fn idle(&self, s: &Store) -> bool {
        // Both rules need a fixed page.
        let (pd, ld, pe, le) = (self.page_d, self.line_d, self.page_e, self.line_e);
        !s.is_fixed(pd) && !s.is_fixed(pe) && !Self::holds(s, pd, ld, pe, le)
    }

    fn name(&self) -> &'static str {
        "page=>line"
    }

    fn priority(&self) -> Priority {
        Priority::Linear
    }
}

/// One (input-of-i, input-of-j) or (output-of-i, output-of-j) data pair
/// guarded by `s_i = s_j`.
#[derive(Clone, Copy, Debug)]
pub struct GuardedPair {
    pub page_d: VarId,
    pub line_d: VarId,
    pub page_e: VarId,
    pub line_e: VarId,
}

/// `s_i = s_j ⟹ ⋀ₖ (page_dₖ = page_eₖ ⟹ line_dₖ = line_eₖ)`.
///
/// Three propagation directions:
/// 1. guard decided *true* (both starts fixed, equal): enforce every
///    page⟹line implication as hard;
/// 2. guard decided *false* (start domains disjoint): entailed, no-op,
///    and reported so the engine stops waking it;
/// 3. guard undecided but some pair violated-entailed: refute the guard —
///    `s_i ≠ s_j` (prune when one side is fixed).
pub struct CondSameTime {
    pub s_i: VarId,
    pub s_j: VarId,
    pub pairs: Vec<GuardedPair>,
}

impl Propagator for CondSameTime {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Both pruning directions need a fixed start (the guard true, or
        // a separation that removes a fixed start's value), so only FIX
        // on a start can enable them. Disjoint starts only entail.
        subs.watch(self.s_i, DomainEvent::FIX);
        subs.watch(self.s_j, DomainEvent::FIX);
        for p in &self.pairs {
            PageLineImplies::watch(subs, p.page_d, p.line_d, p.page_e, p.line_e);
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // Guard decided false: entailed.
        if s.domain(self.s_i).disjoint(&s.domain(self.s_j)) {
            wake.report_entailed();
            return Ok(());
        }
        let guard_true =
            s.is_fixed(self.s_i) && s.is_fixed(self.s_j) && s.value(self.s_i) == s.value(self.s_j);

        if guard_true {
            for p in &self.pairs {
                PageLineImplies::filter(s, p.page_d, p.line_d, p.page_e, p.line_e, true)?;
            }
            return Ok(());
        }

        // Guard undecided: if any pair is already violated-entailed, the
        // operations must not run at the same cycle.
        for p in &self.pairs {
            let violated =
                PageLineImplies::filter(s, p.page_d, p.line_d, p.page_e, p.line_e, false)?;
            if violated {
                if let Some(v) = s.fixed_value(self.s_i) {
                    s.remove_value(self.s_j, v)?;
                }
                if let Some(v) = s.fixed_value(self.s_j) {
                    s.remove_value(self.s_i, v)?;
                }
                return Ok(());
            }
        }
        Ok(())
    }

    fn idle(&self, s: &Store) -> bool {
        // Both pruning directions need a fixed start.
        !s.is_fixed(self.s_i)
            && !s.is_fixed(self.s_j)
            && !s.domain(self.s_i).disjoint(&s.domain(self.s_j))
    }

    fn name(&self) -> &'static str {
        "same-time=>mem-compatible"
    }

    fn priority(&self) -> Priority {
        Priority::Linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::props::testgen::entailed;

    fn vars(s: &mut Store) -> (VarId, VarId, VarId, VarId) {
        let pd = s.new_var(0, 3);
        let ld = s.new_var(0, 3);
        let pe = s.new_var(0, 3);
        let le = s.new_var(0, 3);
        (pd, ld, pe, le)
    }

    #[test]
    fn equal_pages_force_equal_lines() {
        let mut s = Store::new();
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(PageLineImplies {
                page_d: pd,
                line_d: ld,
                page_e: pe,
                line_e: le,
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(pd, 1).unwrap();
        s.fix(pe, 1).unwrap();
        s.fix(ld, 2).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.value(le), 2);
    }

    #[test]
    fn different_lines_forbid_shared_page() {
        let mut s = Store::new();
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(PageLineImplies {
                page_d: pd,
                line_d: ld,
                page_e: pe,
                line_e: le,
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(ld, 0).unwrap();
        s.fix(le, 3).unwrap();
        s.fix(pd, 2).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert!(!s.dom(pe).contains(2));
    }

    #[test]
    fn violated_implication_fails_hard() {
        let mut s = Store::new();
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(PageLineImplies {
                page_d: pd,
                line_d: ld,
                page_e: pe,
                line_e: le,
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(pd, 1).unwrap();
        s.fix(pe, 1).unwrap();
        s.fix(ld, 0).unwrap();
        s.fix(le, 1).unwrap();
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn guard_false_deactivates_everything() {
        let mut s = Store::new();
        let si = s.new_var(0, 0);
        let sj = s.new_var(5, 5);
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(CondSameTime {
                s_i: si,
                s_j: sj,
                pairs: vec![GuardedPair {
                    page_d: pd,
                    line_d: ld,
                    page_e: pe,
                    line_e: le,
                }],
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        // Even a violated pair is fine: ops run at different cycles.
        s.fix(pd, 1).unwrap();
        s.fix(pe, 1).unwrap();
        s.fix(ld, 0).unwrap();
        s.fix(le, 1).unwrap();
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn guard_true_enforces_pairs() {
        let mut s = Store::new();
        let si = s.new_var(4, 4);
        let sj = s.new_var(4, 4);
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(CondSameTime {
                s_i: si,
                s_j: sj,
                pairs: vec![GuardedPair {
                    page_d: pd,
                    line_d: ld,
                    page_e: pe,
                    line_e: le,
                }],
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(pd, 2).unwrap();
        s.fix(pe, 2).unwrap();
        s.fix(ld, 1).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.value(le), 1);
    }

    #[test]
    fn entailed_guard_does_not_carry_to_a_sibling_branch() {
        let mut s = Store::new();
        let si = s.new_var(0, 5);
        let sj = s.new_var(0, 5);
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(CondSameTime {
                s_i: si,
                s_j: sj,
                pairs: vec![GuardedPair {
                    page_d: pd,
                    line_d: ld,
                    page_e: pe,
                    line_e: le,
                }],
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        // Branch A: the starts come apart, so the guard is false for
        // good and a violated pair is harmless.
        s.push_level();
        s.fix(si, 0).unwrap();
        s.remove_below(sj, 3).unwrap();
        e.fixpoint(&mut s).unwrap();
        for (v, val) in [(pd, 1), (pe, 1), (ld, 0), (le, 1)] {
            s.fix(v, val).unwrap();
        }
        e.fixpoint(&mut s).unwrap();
        s.pop_level();
        // Branch B, at the same depth: one cycle, so the pair holds.
        s.push_level();
        for (v, val) in [(si, 2), (sj, 2), (pd, 1), (pe, 1), (ld, 0)] {
            s.fix(v, val).unwrap();
        }
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.value(le), 0);
    }

    #[test]
    fn entailment_is_reported_once_nothing_can_prune() {
        let mut s = Store::new();
        let si = s.new_var(0, 5);
        let sj = s.new_var(0, 5);
        let (pd, ld, pe, le) = vars(&mut s);
        let mut cond = CondSameTime {
            s_i: si,
            s_j: sj,
            pairs: vec![GuardedPair {
                page_d: pd,
                line_d: ld,
                page_e: pe,
                line_e: le,
            }],
        };
        let mut imp = PageLineImplies {
            page_d: pd,
            line_d: ld,
            page_e: pe,
            line_e: le,
        };
        s.push_level();
        assert!(!entailed(&mut s, &mut cond));
        assert!(!entailed(&mut s, &mut imp));
        s.remove_above(si, 2).unwrap();
        s.remove_below(sj, 3).unwrap();
        assert!(entailed(&mut s, &mut cond), "disjoint starts");
        s.fix(ld, 1).unwrap();
        s.fix(le, 1).unwrap();
        assert!(entailed(&mut s, &mut imp), "equal fixed lines");
        s.pop_level();
        s.push_level();
        s.remove_above(pd, 1).unwrap();
        s.remove_below(pe, 2).unwrap();
        assert!(entailed(&mut s, &mut imp), "disjoint pages");
    }

    #[test]
    fn violated_pair_separates_start_times() {
        let mut s = Store::new();
        let si = s.new_var(3, 3);
        let sj = s.new_var(0, 10);
        let (pd, ld, pe, le) = vars(&mut s);
        let mut e = Engine::new();
        e.post(
            Box::new(CondSameTime {
                s_i: si,
                s_j: sj,
                pairs: vec![GuardedPair {
                    page_d: pd,
                    line_d: ld,
                    page_e: pe,
                    line_e: le,
                }],
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(pd, 1).unwrap();
        s.fix(pe, 1).unwrap();
        s.fix(ld, 0).unwrap();
        s.fix(le, 2).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert!(!s.dom(sj).contains(3));
    }
}
