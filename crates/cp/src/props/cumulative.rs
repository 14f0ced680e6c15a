//! The `Cumulative` global constraint (Aggoun & Beldiceanu, 1993) with
//! time-table filtering.
//!
//! Given tasks with start variables, fixed durations and fixed resource
//! requirements, enforces that at every time point the sum of requirements
//! of running tasks stays within `capacity`. This is the paper's
//! constraint (2), posted once per functional unit: the vector core's
//! four lanes (vector op r=1, matrix op r=4, duration 1 cc), and the
//! unit-capacity accelerator and index/merge units. At capacity 1 the
//! time-table rule carves a fixed task's occupancy out of every other
//! task's domain and orders a pair once one task has a compulsory part,
//! so no separate unary-resource propagator is kept.
//!
//! Filtering performed each wake-up:
//! 0. the energetic overload check on a Θ-tree (`props/overload.rs`):
//!    fail when the tasks that must run inside some `[est, lct)` window
//!    need more than `capacity × (lct − est)` of energy. It catches
//!    overloads while domains are still too loose to have compulsory
//!    parts;
//! 1. build the *compulsory-part* profile (the resource use every task must
//!    exert regardless of its final start: interval `[lst, ect)` when
//!    `lst < ect`); fail on capacity overflow;
//! 2. for every task and candidate start value, remove the value if the
//!    profile (minus the task's own compulsory contribution) plus the
//!    task's requirement would exceed capacity anywhere in the execution
//!    window. A task whose whole window `[est, lst + dur)` stays within
//!    capacity loses no value and is not scanned.

use crate::domain::DomainEvent;
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{Fail, PropResult, Store, VarId};

use super::overload::OverloadCheck;

/// One task of a cumulative resource.
#[derive(Clone, Copy, Debug)]
pub struct CumTask {
    pub start: VarId,
    /// Fixed duration ≥ 0. Zero-duration tasks are ignored.
    pub dur: i32,
    /// Fixed resource requirement ≥ 0. Zero-requirement tasks are ignored.
    pub req: i32,
}

pub struct Cumulative {
    pub tasks: Vec<CumTask>,
    pub capacity: i32,
    /// Scratch buffers, kept across calls to avoid reallocation: profile
    /// events, the profile, the phase-0 check, per-task dirty flags, the
    /// dirty compulsory parts and one task's candidate and removed values.
    events: Vec<(i32, i32)>,
    profile: Profile,
    overload: OverloadCheck,
    dirty_tasks: Vec<bool>,
    dirty_parts: Vec<(i32, i32)>,
    candidates: Vec<i32>,
    to_remove: Vec<i32>,
}

impl Cumulative {
    pub fn new(tasks: Vec<CumTask>, capacity: i32) -> Self {
        assert!(capacity >= 0);
        let tasks: Vec<CumTask> = tasks
            .into_iter()
            .filter(|t| t.dur > 0 && t.req > 0)
            .collect();
        Cumulative {
            tasks,
            capacity,
            events: Vec::new(),
            profile: Profile { steps: Vec::new() },
            overload: OverloadCheck::default(),
            dirty_tasks: Vec::new(),
            dirty_parts: Vec::new(),
            candidates: Vec::new(),
            to_remove: Vec::new(),
        }
    }

    /// Compulsory part of task `t`: `[lst, ect)` if non-empty.
    fn compulsory(s: &Store, t: &CumTask) -> Option<(i32, i32)> {
        let lst = s.max(t.start);
        let ect = s.min(t.start) + t.dur;
        (lst < ect).then_some((lst, ect))
    }
}

/// Piecewise-constant resource profile built from compulsory parts:
/// `steps[k] = (t_k, h_k)` means height `h_k` on `[t_k, t_{k+1})`; height is
/// 0 before the first and after the last breakpoint.
struct Profile {
    steps: Vec<(i32, i32)>,
}

impl Profile {
    /// Rebuild from sorted `(time, delta)` events, reusing the buffer.
    fn rebuild(&mut self, events: &[(i32, i32)]) {
        let steps = &mut self.steps;
        steps.clear();
        let mut h = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                h += events[i].1;
                i += 1;
            }
            steps.push((t, h));
        }
    }

    /// Max height over `[from, to)`, subtracting `own_req` wherever the
    /// interval `own` overlaps (the task's own compulsory contribution).
    fn max_in(&self, from: i32, to: i32, own: Option<(i32, i32)>, own_req: i32) -> i32 {
        if from >= to {
            return 0;
        }
        // Index of the step active at `from`: last step with t ≤ from.
        let mut idx = match self.steps.binary_search_by_key(&from, |&(t, _)| t) {
            Ok(i) => i as isize,
            Err(i) => i as isize - 1,
        };
        let mut best = 0;
        loop {
            let (seg_start, h) = if idx < 0 {
                (i32::MIN, 0)
            } else {
                self.steps[idx as usize]
            };
            let seg_end = self
                .steps
                .get((idx + 1) as usize)
                .map_or(i32::MAX, |&(t, _)| t);
            let lo = seg_start.max(from);
            let hi = seg_end.min(to);
            if lo < hi {
                // The max over the sub-segment is h minus own_req only
                // when the own compulsory part covers all of it.
                let covered = own.is_some_and(|(oa, ob)| oa <= lo && ob >= hi);
                best = best.max(if covered { h - own_req } else { h });
            }
            if seg_end >= to {
                break;
            }
            idx += 1;
        }
        best
    }
}

impl Propagator for Cumulative {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Compulsory parts and execution windows are bound-derived:
        // interior holes in a start domain change neither the profile nor
        // any other task's filtering, so they need not wake us. The tag
        // is the task index, enabling incremental phase-2 filtering.
        for (i, t) in self.tasks.iter().enumerate() {
            subs.watch_tagged(t.start, DomainEvent::BOUNDS, i as u32);
        }
    }

    fn propagate(&mut self, s: &mut Store, wake: &Wake<'_>) -> PropResult {
        // Phase 0: energetic overload check over release/deadline windows.
        // Always global: failure detection must not depend on wake info,
        // or the event engine would explore nodes the baseline refutes.
        self.overload.check(
            self.capacity as i64,
            self.tasks.iter().map(|t| {
                (
                    s.min(t.start) as i64,
                    s.max(t.start) as i64 + t.dur as i64,
                    t.dur as i64 * t.req as i64,
                )
            }),
        )?;
        // Phase 1: overload check on the compulsory-part profile.
        self.events.clear();
        for t in &self.tasks {
            if let Some((a, b)) = Self::compulsory(s, t) {
                self.events.push((a, t.req));
                self.events.push((b, -t.req));
            }
        }
        self.events.sort_unstable();
        let mut h = 0;
        for &(_, d) in &self.events {
            h += d;
            if h > self.capacity {
                return Err(Fail);
            }
        }

        // Phase 2: value pruning. Build the profile once, then for each
        // task and candidate start value v, the task occupies [v, v+dur) at
        // height req; reject v if any point of that window, on the profile
        // minus the task's own compulsory part, would exceed capacity.
        //
        // Incremental narrowing: on a tagged wake, only the profile under
        // the dirty tasks' (current) compulsory parts can have risen since
        // our previous run — compulsory parts only grow as domains shrink.
        // A task that is not itself dirty and whose execution window
        // misses every dirty compulsory part was filtered clean before
        // and provably still is, so it is skipped.
        self.profile.rebuild(&self.events);
        let incremental = !wake.rescan();
        self.dirty_parts.clear();
        if incremental {
            self.dirty_tasks.clear();
            self.dirty_tasks.resize(self.tasks.len(), false);
            for &tag in wake.tags() {
                self.dirty_tasks[tag as usize] = true;
                if let Some(part) = Self::compulsory(s, &self.tasks[tag as usize]) {
                    self.dirty_parts.push(part);
                }
            }
        }
        for (i, &t) in self.tasks.iter().enumerate() {
            if s.is_fixed(t.start) {
                // Fixed tasks are fully represented in the profile already;
                // the overload check covers them.
                continue;
            }
            // Execution window [est, lst + dur).
            let (wa, wb) = (s.min(t.start), s.max(t.start) + t.dur);
            if incremental
                && !self.dirty_tasks[i]
                && !self.dirty_parts.iter().any(|&(a, b)| a < wb && wa < b)
            {
                continue;
            }
            let own = Self::compulsory(s, &t);
            // Every candidate window lies inside the execution window, so
            // a window peak that leaves room for `req` removes nothing.
            if self.profile.max_in(wa, wb, own, t.req) + t.req <= self.capacity {
                continue;
            }
            // Collect candidate values first (cannot mutate while iterating).
            self.candidates.clear();
            self.candidates.extend(s.domain(t.start).iter());
            self.to_remove.clear();
            for &v in &self.candidates {
                let peak = self.profile.max_in(v, v + t.dur, own, t.req);
                if peak + t.req > self.capacity {
                    self.to_remove.push(v);
                }
            }
            for &v in &self.to_remove {
                s.remove_value(t.start, v)?;
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cumulative"
    }

    fn priority(&self) -> Priority {
        Priority::Global
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn cum(s: &Store, specs: &[(VarId, i32, i32)], cap: i32) -> Cumulative {
        let _ = s;
        Cumulative::new(
            specs
                .iter()
                .map(|&(start, dur, req)| CumTask { start, dur, req })
                .collect(),
            cap,
        )
    }

    #[test]
    fn overload_of_fixed_tasks_fails() {
        let mut s = Store::new();
        let a = s.new_var(0, 0);
        let b = s.new_var(0, 0);
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &[(a, 1, 3), (b, 1, 3)], 4)), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn capacity_respected_at_exact_fit() {
        let mut s = Store::new();
        let a = s.new_var(0, 0);
        let b = s.new_var(0, 0);
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &[(a, 1, 2), (b, 1, 2)], 4)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn compulsory_part_pushes_competitor() {
        let mut s = Store::new();
        // Task a fixed at [0,4) with req 3 of cap 4.
        let a = s.new_var(0, 0);
        // Task b (req 2) cannot start anywhere in [0,4) − its own dur window.
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &[(a, 4, 3), (b, 2, 2)], 4)), &s);
        e.fixpoint(&mut s).unwrap();
        // b's window [v, v+2) must avoid [0,4) entirely → v ≥ 4.
        assert_eq!(s.min(b), 4);
    }

    #[test]
    fn partial_compulsory_part_prunes_middle_values() {
        let mut s = Store::new();
        // a ∈ [2,4], dur 4 → compulsory [4, 6).
        let a = s.new_var(2, 4);
        let b = s.new_var(0, 20);
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &[(a, 4, 3), (b, 1, 2)], 4)), &s);
        e.fixpoint(&mut s).unwrap();
        // b (req 2) cannot sit inside [4,6) where height is 3.
        assert!(!s.dom(b).contains(4));
        assert!(!s.dom(b).contains(5));
        assert!(s.dom(b).contains(3));
        assert!(s.dom(b).contains(6));
    }

    #[test]
    fn matrix_op_excludes_vector_ops_at_same_cycle() {
        // Paper semantics: matrix op takes all 4 lanes for 1 cc.
        let mut s = Store::new();
        let m = s.new_var(3, 3); // matrix op fixed at cycle 3
        let v1 = s.new_var(0, 6);
        let v2 = s.new_var(0, 6);
        let mut e = Engine::new();
        e.post(
            Box::new(cum(&s, &[(m, 1, 4), (v1, 1, 1), (v2, 1, 1)], 4)),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        assert!(!s.dom(v1).contains(3));
        assert!(!s.dom(v2).contains(3));
    }

    #[test]
    fn four_lanes_hold_four_vector_ops() {
        let mut s = Store::new();
        let vs: Vec<VarId> = (0..4).map(|_| s.new_var(0, 0)).collect();
        let specs: Vec<(VarId, i32, i32)> = vs.iter().map(|&v| (v, 1, 1)).collect();
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &specs, 4)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn fifth_vector_op_is_displaced() {
        let mut s = Store::new();
        let mut specs = Vec::new();
        for _ in 0..4 {
            let v = s.new_var(0, 0);
            specs.push((v, 1, 1));
        }
        let fifth = s.new_var(0, 5);
        specs.push((fifth, 1, 1));
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &specs, 4)), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.min(fifth), 1);
    }

    #[test]
    fn energetic_check_sees_loose_overload() {
        // 16 unit tasks in a 2-slot window of capacity 4: no task has a
        // compulsory part, but the energy 16 > 4*2 = 8.
        let mut s = Store::new();
        let specs: Vec<(VarId, i32, i32)> = (0..16).map(|_| (s.new_var(0, 1), 1, 1)).collect();
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &specs, 4)), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn energetic_check_accepts_exact_fit() {
        // 8 unit tasks in a 2-slot window of capacity 4: energy 8 = 8.
        let mut s = Store::new();
        let specs: Vec<(VarId, i32, i32)> = (0..8).map(|_| (s.new_var(0, 1), 1, 1)).collect();
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &specs, 4)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn energetic_check_uses_tight_subwindows() {
        // 3 fixed 2-cycle unit tasks share [5,7) on a unit machine:
        // energy 6 > 1 * 2 - caught without any search.
        let mut s = Store::new();
        let specs: Vec<(VarId, i32, i32)> = (0..3).map(|_| (s.new_var(5, 5), 2, 1)).collect();
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &specs, 1)), &s);
        assert!(e.fixpoint(&mut s).is_err());
    }

    /// A capacity-1 unit over `(lo, hi, dur)` tasks of requirement 1.
    fn unit(specs: &[(i32, i32, i32)]) -> (Store, Engine, Vec<VarId>) {
        let mut s = Store::new();
        let vars: Vec<VarId> = specs.iter().map(|&(lo, hi, _)| s.new_var(lo, hi)).collect();
        let tasks = vars
            .iter()
            .zip(specs)
            .map(|(&start, &(_, _, dur))| CumTask { start, dur, req: 1 })
            .collect();
        let mut e = Engine::new();
        e.post(Box::new(Cumulative::new(tasks, 1)), &s);
        (s, e, vars)
    }

    #[test]
    fn unit_capacity_overload_detected() {
        // Three 3-cycle tasks in an 8-cycle window: 9 > 8.
        let (mut s, mut e, _) = unit(&[(0, 5, 3), (0, 5, 3), (0, 5, 3)]);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn unit_capacity_exact_fit_accepted() {
        // Three 3-cycle tasks in exactly 9 cycles.
        let (mut s, mut e, _) = unit(&[(0, 6, 3), (0, 6, 3), (0, 6, 3)]);
        assert!(e.fixpoint(&mut s).is_ok());
    }

    #[test]
    fn unit_capacity_forced_order_tightens_bounds() {
        // b (dur 4) must finish by 6; a (dur 4) cannot start before 2 —
        // only b-then-a fits: b's compulsory part [2, 4) pushes a to 4.
        let (mut s, mut e, vars) = unit(&[(2, 20, 4), (0, 2, 4)]);
        e.fixpoint(&mut s).unwrap();
        assert!(s.min(vars[0]) >= 4);
    }

    #[test]
    fn unit_capacity_fixed_task_carves_hole_in_opponent() {
        let (mut s, mut e, vars) = unit(&[(0, 20, 2), (5, 5, 3)]);
        e.fixpoint(&mut s).unwrap();
        // a (dur 2) cannot start in [4, 7].
        for v in 4..8 {
            assert!(!s.dom(vars[0]).contains(v), "v={v}");
        }
        assert!(s.dom(vars[0]).contains(3));
        assert!(s.dom(vars[0]).contains(8));
    }

    #[test]
    fn unit_capacity_impossible_pair_fails() {
        // Two 3-cycle tasks both confined to [0, 2]: lst = 2 < ect = 3
        // in both orders.
        let (mut s, mut e, _) = unit(&[(0, 2, 3), (0, 2, 3)]);
        assert!(e.fixpoint(&mut s).is_err());
    }

    #[test]
    fn unit_capacity_search_solves_tight_schedule() {
        use crate::model::Model;
        use crate::search::{solve, Phase, SearchConfig, VarSel};
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|_| m.new_var(0, 6)).collect();
        m.cumulative(
            vars.iter()
                .map(|&start| CumTask {
                    start,
                    dur: 2,
                    req: 1,
                })
                .collect(),
            1,
        );
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
            ..Default::default()
        };
        let sol = solve(&mut m, &cfg).best.unwrap();
        let mut starts: Vec<i32> = vars.iter().map(|&v| sol.value(v)).collect();
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(w[1] - w[0] >= 2, "{starts:?}");
        }
    }

    #[test]
    fn zero_req_and_zero_dur_tasks_ignored() {
        let mut s = Store::new();
        let a = s.new_var(0, 0);
        let b = s.new_var(0, 0);
        let c = s.new_var(0, 0);
        let mut e = Engine::new();
        e.post(Box::new(cum(&s, &[(a, 1, 5), (b, 0, 9), (c, 1, 0)], 5)), &s);
        assert!(e.fixpoint(&mut s).is_ok());
    }
}
