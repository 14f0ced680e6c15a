//! The overload check of [`Cumulative`](super::cumulative), on a Θ-tree
//! (Vilím, "Max energy filtering algorithm for discrete cumulative
//! resources", CPAIOR 2009).
//!
//! A set of tasks overloads a resource of capacity `C` when some subset
//! Ω must run entirely inside `[est_Ω, lct_Ω)` yet needs more energy than
//! the window holds: `e_Ω > C·(lct_Ω − est_Ω)`. Inserting the tasks in
//! `lct` order into a balanced tree whose leaves are ordered by `est`,
//! each node keeps the energy `e` of the inserted tasks below it and
//! their envelope `Env = max over Ω of (C·est_Ω + e_Ω)`. After inserting
//! task `j`, an overload ending at `lct_j` exists iff
//! `Env(root) > C·lct_j`. That is O(n log n) per check, where trying
//! every (est, lct) window pair is O(n²).
//!
//! All arithmetic is in `i64`: `lct = lst + dur` may leave the `i32`
//! range. Sums saturate, which keeps the verdict exact while the energy
//! of all tasks stays below 2⁶².

use crate::store::{Fail, PropResult};

/// Empty subtree envelope: below every real one.
const NO_ENV: i64 = i64::MIN;

/// Scratch buffers of one overload check, kept across calls so a check
/// allocates nothing in the steady state.
#[derive(Default)]
pub(crate) struct OverloadCheck {
    /// `(est, lct, energy)` per task, in task order.
    tasks: Vec<(i64, i64, i64)>,
    /// Task indices, sorted by est (then by lct).
    order: Vec<u32>,
    /// Leaf position of each task.
    leaf: Vec<u32>,
    /// `(energy, envelope)` per tree node; the root is node 1 and the
    /// leaves are nodes `size..2·size`, in est order.
    nodes: Vec<(i64, i64)>,
}

impl OverloadCheck {
    /// Fail iff the tasks, each `(est, lct, energy)`, overload a resource
    /// of `capacity`.
    pub(crate) fn check(
        &mut self,
        capacity: i64,
        tasks: impl IntoIterator<Item = (i64, i64, i64)>,
    ) -> PropResult {
        self.tasks.clear();
        self.tasks.extend(tasks);
        let n = self.tasks.len();
        if n == 0 {
            return Ok(());
        }
        let size = n.next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * size, (0, NO_ENV));
        let tasks = &self.tasks;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by_key(|&i| (tasks[i as usize].0, tasks[i as usize].1));
        self.leaf.clear();
        self.leaf.resize(n, 0);
        for (pos, &i) in self.order.iter().enumerate() {
            self.leaf[i as usize] = pos as u32;
        }
        // Reuse `order` for the insertion order: by lct.
        self.order
            .sort_unstable_by_key(|&i| (tasks[i as usize].1, tasks[i as usize].0));
        for &j in &self.order {
            let (est, lct, energy) = tasks[j as usize];
            let mut node = size + self.leaf[j as usize] as usize;
            self.nodes[node] = (energy, (capacity * est).saturating_add(energy));
            while node > 1 {
                node /= 2;
                let (l, r) = (self.nodes[2 * node], self.nodes[2 * node + 1]);
                self.nodes[node] = (l.0.saturating_add(r.0), l.1.saturating_add(r.0).max(r.1));
            }
            if self.nodes[1].1 > capacity * lct {
                return Err(Fail);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::testgen::anchor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The O(n²) window check the Θ-tree replaced (the overload phase of
    /// `Cumulative`), kept as its oracle: for every
    /// pair of an lct `b` and an est `a`, the tasks inside `[a, b)` must
    /// fit. Exact in `i128`.
    fn quadratic_overload(capacity: i64, tasks: &[(i64, i64, i64)]) -> PropResult {
        for &(_, b, _) in tasks {
            for &(a, _, _) in tasks.iter().filter(|&&(a, _, _)| a < b) {
                let energy: i128 = tasks
                    .iter()
                    .filter(|&&(est, lct, _)| est >= a && lct <= b)
                    .map(|&(_, _, e)| e as i128)
                    .sum();
                if energy > capacity as i128 * (b as i128 - a as i128) {
                    return Err(Fail);
                }
            }
        }
        Ok(())
    }

    /// Random task sets as `Cumulative` builds them from start bounds:
    /// `est = min`, `lct = max + dur`, the bounds near zero or near either
    /// end of the `i32` range, with ties in est and lct. `unary` draws a
    /// unit of capacity 1 with unit requirements.
    fn random_tasks(rng: &mut StdRng, unary: bool) -> (i64, Vec<(i64, i64, i64)>) {
        let capacity = if unary { 1 } else { rng.gen_range(0..=5i64) };
        let base = anchor(rng);
        let n = rng.gen_range(0..=9);
        let clamp = |v: i64| v.clamp(i32::MIN as i64, i32::MAX as i64);
        let mut tasks: Vec<(i64, i64, i64)> = Vec::with_capacity(n);
        for _ in 0..n {
            let dur = rng.gen_range(1..=6i64);
            let req = if unary { 1 } else { rng.gen_range(1..=4i64) };
            let (min, max) = match tasks.last() {
                // A tie with the previous task's est or lct.
                Some(&(est, lct, _)) if rng.gen_bool(0.3) => {
                    if rng.gen_bool(0.5) {
                        (est, clamp(est + rng.gen_range(0..12i64)))
                    } else {
                        let max = clamp(lct - dur);
                        (clamp(max - rng.gen_range(0..12i64)), max)
                    }
                }
                _ => {
                    let min = clamp(base + rng.gen_range(0..24i64));
                    (min, clamp(min + rng.gen_range(0..12i64)))
                }
            };
            tasks.push((min, max + dur, dur * req));
        }
        (capacity, tasks)
    }

    fn agree_on_random_sets(seed: u64, unary: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut check = OverloadCheck::default();
        let (cases, mut failed) = (4000, 0);
        for case in 0..cases {
            let (capacity, tasks) = random_tasks(&mut rng, unary);
            let want = quadratic_overload(capacity, &tasks);
            let got = check.check(capacity, tasks.iter().copied());
            assert_eq!(got, want, "case {case}: C={capacity} {tasks:?}");
            failed += usize::from(want.is_err());
        }
        // Both verdicts must be well represented.
        assert!(
            (cases / 10..cases * 9 / 10).contains(&failed),
            "{failed} failed"
        );
    }

    #[test]
    fn per_value_oracle_overload_cumulative_matches_quadratic_check() {
        agree_on_random_sets(0x7e7a_0c1d, false);
    }

    #[test]
    fn per_value_oracle_overload_unit_capacity_matches_quadratic_check() {
        agree_on_random_sets(0xd15_0c1d, true);
    }

    #[test]
    fn overload_lct_past_the_i32_range_does_not_wrap() {
        // Two unit-length tasks that both must run in the last cycle of
        // the i32 range: lct = i32::MAX + 1 in i64, an overload of one.
        let top = i32::MAX as i64;
        let mut check = OverloadCheck::default();
        let t = (top, top + 1, 1);
        assert_eq!(check.check(1, [t, t]), Err(Fail));
        assert_eq!(check.check(2, [t, t]), Ok(()));
        assert_eq!(check.check(0, [t]), Err(Fail));
        assert_eq!(check.check(0, []), Ok(()));
    }
}
