//! The `Disjunctive` (unary resource) global constraint: tasks with
//! fixed durations on a machine of capacity one.
//!
//! Semantically a `Cumulative` with capacity 1, with two rules per
//! wake-up:
//!
//! - **overload check** (Carlier): for every release/deadline window, the
//!   total processing time of tasks confined inside must fit. It is the
//!   Θ-tree check `Cumulative` uses (`props/overload.rs`), with capacity 1
//!   and each task's energy its duration;
//! - **pairwise ordering**: when only one order of a pair is still
//!   possible, its precedence is enforced; when both are and one task is
//!   fixed, the other loses the start values that would overlap it.
//!
//! The EIT's scalar accelerator runs iterative (multi-cycle) operations
//! and the index/merge unit runs unit ones; the scheduler uses this
//! propagator for both (a drop-in upgrade over `Cumulative(cap=1)`).

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

use super::overload::OverloadCheck;

/// One task on the unary resource.
#[derive(Clone, Copy, Debug)]
pub struct DisjTask {
    pub start: VarId,
    pub dur: i32,
}

pub struct Disjunctive {
    pub tasks: Vec<DisjTask>,
    /// Scratch buffers, kept across calls: the overload check and the
    /// per-task dirty flags of a tagged wake.
    overload: OverloadCheck,
    dirty: Vec<bool>,
}

impl Disjunctive {
    pub fn new(tasks: Vec<DisjTask>) -> Self {
        Disjunctive {
            tasks: tasks.into_iter().filter(|t| t.dur > 0).collect(),
            overload: OverloadCheck::default(),
            dirty: Vec::new(),
        }
    }

    /// If only one ordering of a pair remains possible, enforce it.
    /// `dirty` (when non-empty) limits work to pairs with a dirty member:
    /// a pair whose both tasks kept their bounds since our previous run
    /// was examined clean then and all four values it reads are unchanged.
    fn pairwise_orders(&self, s: &mut Store, dirty: &[bool]) -> PropResult {
        let n = self.tasks.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if !dirty.is_empty() && !dirty[i] && !dirty[j] {
                    continue;
                }
                let (a, b) = (self.tasks[i], self.tasks[j]);
                // a before b possible? est_a + d_a ≤ lst_b
                let ab = s.min(a.start) + a.dur <= s.max(b.start);
                let ba = s.min(b.start) + b.dur <= s.max(a.start);
                match (ab, ba) {
                    (false, false) => return Err(Fail),
                    (true, false) => {
                        // a must precede b.
                        s.remove_below(b.start, s.min(a.start) + a.dur)?;
                        s.remove_above(a.start, s.max(b.start) - a.dur)?;
                    }
                    (false, true) => {
                        s.remove_below(a.start, s.min(b.start) + b.dur)?;
                        s.remove_above(b.start, s.max(a.start) - b.dur)?;
                    }
                    (true, true) => {
                        // Both orders open: forbid start values that would
                        // overlap a *fixed* opponent.
                        if let Some(vb) = s.fixed_value(b.start) {
                            for v in (vb - a.dur + 1)..(vb + b.dur) {
                                s.remove_value(a.start, v)?;
                            }
                        }
                        if let Some(va) = s.fixed_value(a.start) {
                            for v in (va - b.dur + 1)..(va + a.dur) {
                                s.remove_value(b.start, v)?;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Propagator for Disjunctive {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Every rule reads bounds (fixedness changes always move a
        // bound); interior holes cannot enable new filtering. The tag is
        // the task index for incremental pair selection.
        for (i, t) in self.tasks.iter().enumerate() {
            subs.watch_tagged(t.start, DomainEvent::BOUNDS, i as u32);
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // The overload check stays global so failure detection is
        // identical to the FIFO baseline's.
        self.overload.check(
            1,
            self.tasks.iter().map(|t| {
                (
                    s.min(t.start) as i64,
                    s.max(t.start) as i64 + t.dur as i64,
                    t.dur as i64,
                )
            }),
        )?;
        self.dirty.clear();
        if !wake.rescan() {
            self.dirty.resize(self.tasks.len(), false);
            for &tag in wake.tags() {
                self.dirty[tag as usize] = true;
            }
        }
        self.pairwise_orders(s, &self.dirty)
    }

    fn name(&self) -> &'static str {
        "disjunctive"
    }

    fn priority(&self) -> Priority {
        Priority::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn setup(specs: &[(i32, i32, i32)]) -> (Store, Engine, Vec<VarId>) {
        // (lo, hi, dur)
        let mut s = Store::new();
        let mut tasks = Vec::new();
        let mut vars = Vec::new();
        for &(lo, hi, dur) in specs {
            let v = s.new_var(lo, hi);
            vars.push(v);
            tasks.push(DisjTask { start: v, dur });
        }
        let mut e = Engine::new();
        e.post(Box::new(Disjunctive::new(tasks)), &s);
        (s, e, vars)
    }

    #[test]
    fn overload_detected() {
        // Three 3-cycle tasks in an 8-cycle window: 9 > 8.
        let (mut s, mut e, _) = setup(&[(0, 5, 3), (0, 5, 3), (0, 5, 3)]);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn exact_fit_accepted_and_ordered() {
        // Three 3-cycle tasks in exactly 9 cycles.
        let (mut s, mut e, _) = setup(&[(0, 6, 3), (0, 6, 3), (0, 6, 3)]);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn forced_order_tightens_bounds() {
        // b (dur 4) must finish by 6; a (dur 4) cannot start before 2 —
        // only b-then-a fits.
        let (mut s, mut e, vars) = setup(&[(2, 20, 4), (0, 2, 4)]);
        e.fixpoint(&mut s).unwrap();
        // b ∈ [0,2]; a ≥ b.est + 4 = 4.
        assert!(s.min(vars[0]) >= 4);
    }

    #[test]
    fn fixed_task_carves_hole_in_opponent() {
        let (mut s, mut e, vars) = setup(&[(0, 20, 2), (5, 5, 3)]);
        e.fixpoint(&mut s).unwrap();
        // a (dur 2) cannot start in [4, 7].
        for v in 4..8 {
            assert!(!s.dom(vars[0]).contains(v), "v={v}");
        }
        assert!(s.dom(vars[0]).contains(3));
        assert!(s.dom(vars[0]).contains(8));
    }

    #[test]
    fn impossible_pair_fails() {
        // Two 3-cycle tasks both confined to [0, 2]: lst = 2 < ect = 3
        // in both orders.
        let (mut s, mut e, _) = setup(&[(0, 2, 3), (0, 2, 3)]);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn search_solves_tight_unary_schedule() {
        use crate::model::Model;
        use crate::search::{solve, Phase, SearchConfig, VarSel};
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|_| m.new_var(0, 6)).collect();
        m.post(Box::new(Disjunctive::new(
            vars.iter()
                .map(|&v| DisjTask { start: v, dur: 2 })
                .collect(),
        )));
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        let sol = r.best.unwrap();
        let mut starts: Vec<i32> = vars.iter().map(|&v| sol.value(v)).collect();
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= 2, "{starts:?}");
        }
    }
}
