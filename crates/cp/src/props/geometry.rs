//! Slot/line/page channeling for the EIT vector memory (constraint
//! group (6) of the paper):
//!
//! ```text
//! line_i = slot_i / nOfBanks
//! page_i = (slot_i mod nOfBanks) / pageSize
//! ```
//!
//! Slots are enumerated linearly: slot 0 is the first slot of bank 0,
//! slot 1 the first slot of bank 1, …, slot 16 the second slot of bank 0
//! (for 16 banks). Both propagators here are the same division
//! channelling `v = m·q + r`, `r ∈ [0, m)` — slot, line and bank for
//! [`SlotGeometry`]; absolute start, stage and window slot for
//! [`ModChannel`] — and both are domain-consistent. They filter by
//! runs, not by values: `channel` walks the runs of `v`, splits them at
//! multiples of `m` and intersects each piece with the runs of `r` (a
//! word AND on bitset domains), and the propagator then applies one
//! [`Store::intersect`] per variable.

use crate::domain::{Domain, DomainEvent};
use crate::engine::{Priority, Propagator, Subscriptions, Wake};
use crate::store::{PropResult, Store, VarId};

/// The supports of `v = m·q + r` with `r ∈ [0, m)`: the runs of the `v`
/// values whose quotient is in `q` and whose remainder is in `r`, and the
/// runs of the quotients and remainders they use, in that order. The
/// `v` and `q` runs come out sorted, the `r` runs in window order.
fn channel(v: &Domain, q: &Domain, r: &Domain, m: i64) -> [Vec<(i32, i32)>; 3] {
    let n = v.interval_count();
    let (mut vs, mut qs, mut rs) = (Vec::with_capacity(n), Vec::new(), Vec::with_capacity(n));
    for (a, b) in v.intervals() {
        let (a, b) = (a as i64, b as i64);
        // Quotients fit i32 because `m ≥ 1`.
        let (qa, qb) = (a.div_euclid(m) as i32, b.div_euclid(m) as i32);
        for qv in q.intervals_in(qa, qb).flat_map(|(l, h)| l..=h) {
            let base = qv as i64 * m;
            let (lo, hi) = ((a - base).max(0), (b - base).min(m - 1));
            let before = vs.len();
            for (rl, rh) in r.intervals_in(lo as i32, hi as i32) {
                vs.push(((base + rl as i64) as i32, (base + rh as i64) as i32));
                rs.push((rl, rh));
            }
            if vs.len() > before {
                qs.push((qv, qv));
            }
        }
    }
    [vs, qs, rs]
}

pub struct SlotGeometry {
    pub slot: VarId,
    pub line: VarId,
    pub page: VarId,
    pub n_banks: i32,
    pub page_size: i32,
}

impl SlotGeometry {
    pub fn new(slot: VarId, line: VarId, page: VarId, n_banks: i32, page_size: i32) -> Self {
        assert!(n_banks > 0 && page_size > 0);
        SlotGeometry {
            slot,
            line,
            page,
            n_banks,
            page_size,
        }
    }
}

impl Propagator for SlotGeometry {
    fn subscribe(&self, subs: &mut Subscriptions) {
        // Domain-consistent channeling: any removal anywhere matters.
        subs.watch(self.slot, DomainEvent::ANY);
        subs.watch(self.line, DomainEvent::ANY);
        subs.watch(self.page, DomainEvent::ANY);
    }

    fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
        let (nb, ps) = (self.n_banks as i64, self.page_size as i64);
        // The banks whose page is still allowed: page p covers banks
        // [p·ps, p·ps + ps - 1]; `channel` clips a partial last page.
        let banks = Domain::from_runs(
            s.domain(self.page)
                .intervals_in(0, ((nb - 1) / ps) as i32)
                .map(|(l, h)| ((l as i64 * ps) as i32, (h as i64 * ps + ps - 1) as i32))
                .collect(),
        );
        let [slots, lines, bank_runs] =
            channel(&s.domain(self.slot), &s.domain(self.line), &banks, nb);
        let pages = bank_runs
            .into_iter()
            .map(|(l, h)| ((l as i64 / ps) as i32, (h as i64 / ps) as i32))
            .collect();
        s.intersect(self.slot, &Domain::from_runs(slots))?;
        s.intersect(self.line, &Domain::from_runs(lines))?;
        s.intersect(self.page, &Domain::from_runs(pages))
    }

    fn name(&self) -> &'static str {
        "slot-geometry"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }

    fn idempotent(&self) -> bool {
        // After one pass the line/page domains are exactly the images of
        // the surviving slots, so every remaining value has support —
        // provided the three variables are distinct.
        self.slot != self.line && self.slot != self.page && self.line != self.page
    }
}

/// Modular channeling `s = m·k + t` with `t ∈ [0, m)`, domain-consistent
/// over `s` (the modulo-scheduling decomposition: absolute start, stage,
/// window slot). Its cost follows the runs of `s`, not its values.
pub struct ModChannel {
    pub s: VarId,
    pub k: VarId,
    pub t: VarId,
    pub modulus: i32,
}

impl Propagator for ModChannel {
    fn subscribe(&self, subs: &mut Subscriptions) {
        subs.watch(self.s, DomainEvent::ANY);
        subs.watch(self.k, DomainEvent::ANY);
        subs.watch(self.t, DomainEvent::ANY);
    }

    fn propagate(&mut self, store: &mut Store, _: &Wake<'_>) -> PropResult {
        let [ss, ks, ts] = channel(
            &store.domain(self.s),
            &store.domain(self.k),
            &store.domain(self.t),
            self.modulus as i64,
        );
        store.intersect(self.s, &Domain::from_runs(ss))?;
        store.intersect(self.t, &Domain::from_runs(ts))?;
        store.intersect(self.k, &Domain::from_runs(ks))
    }

    fn name(&self) -> &'static str {
        "mod-channel"
    }

    fn priority(&self) -> Priority {
        Priority::Arith
    }

    fn idempotent(&self) -> bool {
        self.s != self.k && self.s != self.t && self.k != self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::props::testgen::{agree, anchor, holey, twin_stores};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-value `ModChannel` the run-based one replaced, kept as its
    /// oracle: visit every value of `s`, drop the unsupported ones one by
    /// one, then intersect `t` and `k` with the images of the survivors.
    fn per_value_mod_channel(st: &mut Store, s: VarId, k: VarId, t: VarId, m: i32) -> PropResult {
        let (mut ts, mut ks, mut dead) = (Vec::new(), Vec::new(), Vec::new());
        for v in st.dom(s).iter() {
            let (kv, tv) = (v.div_euclid(m), v.rem_euclid(m));
            if st.dom(k).contains(kv) && st.dom(t).contains(tv) {
                ks.push(kv);
                ts.push(tv);
            } else {
                dead.push(v);
            }
        }
        for v in dead {
            st.remove_value(s, v)?;
        }
        st.intersect(t, &Domain::from_values(ts))?;
        st.intersect(k, &Domain::from_values(ks))
    }

    /// The per-value `SlotGeometry`, likewise.
    fn per_value_slot_geometry(st: &mut Store, g: &SlotGeometry) -> PropResult {
        let (mut lines, mut pages, mut dead) = (Vec::new(), Vec::new(), Vec::new());
        for v in st.dom(g.slot).iter() {
            let (ln, pg) = (
                v.div_euclid(g.n_banks),
                v.rem_euclid(g.n_banks) / g.page_size,
            );
            if st.dom(g.line).contains(ln) && st.dom(g.page).contains(pg) {
                lines.push(ln);
                pages.push(pg);
            } else {
                dead.push(v);
            }
        }
        for v in dead {
            st.remove_value(g.slot, v)?;
        }
        st.intersect(g.line, &Domain::from_values(lines))?;
        st.intersect(g.page, &Domain::from_values(pages))
    }

    #[test]
    fn mod_channel_matches_per_value_oracle() {
        let mut rng = StdRng::seed_from_u64(0x6d6f_645f_6368);
        let (cases, mut failed) = (3000, 0);
        for case in 0..cases {
            let m = rng.gen_range(1..=128i64);
            let lo = anchor(&mut rng);
            // Stages near the quotients of `s` (sometimes a few windows
            // off), window slots near [0, m): supports are often partial
            // and sometimes empty.
            let (k_off, t_lo) = (rng.gen_range(-4..=2i64), rng.gen_range(-3..=3i64));
            let doms = [
                holey(&mut rng, lo, 1000),
                holey(&mut rng, lo.div_euclid(m) + k_off, 1000 / m + 6),
                holey(&mut rng, t_lo, m + 4),
            ];
            let (a, b, [s, k, t]) = twin_stores(&mut rng, &doms);
            let mut p = ModChannel {
                s,
                k,
                t,
                modulus: m as i32,
            };
            failed += usize::from(agree(
                case,
                (a, b),
                |st| p.propagate(st, &Wake::full()),
                |st| per_value_mod_channel(st, s, k, t, m as i32),
            ));
        }
        // Both outcomes are exercised in earnest.
        assert!((cases / 20..cases / 2).contains(&failed), "{failed} failed");
    }

    #[test]
    fn slot_geometry_matches_per_value_oracle() {
        let mut rng = StdRng::seed_from_u64(0x736c_6f74);
        let (cases, mut failed) = (3000, 0);
        for case in 0..cases {
            let n_banks = rng.gen_range(1..=64);
            let page_size = rng.gen_range(1..=n_banks);
            let lo = anchor(&mut rng);
            let (nb, pages) = (n_banks as i64, (n_banks / page_size) as i64);
            let (line_off, page_lo) = (rng.gen_range(-4..=2i64), rng.gen_range(-2..=1i64));
            let doms = [
                holey(&mut rng, lo, 1000),
                holey(&mut rng, lo.div_euclid(nb) + line_off, 1000 / nb + 6),
                holey(&mut rng, page_lo, pages + 3),
            ];
            let (a, b, [slot, line, page]) = twin_stores(&mut rng, &doms);
            let mut g = SlotGeometry::new(slot, line, page, n_banks, page_size);
            let oracle = SlotGeometry::new(slot, line, page, n_banks, page_size);
            failed += usize::from(agree(
                case,
                (a, b),
                |st| g.propagate(st, &Wake::full()),
                |st| per_value_slot_geometry(st, &oracle),
            ));
        }
        assert!((cases / 20..cases / 2).contains(&failed), "{failed} failed");
    }

    /// 16 banks, 4-bank pages, as in the EIT architecture.
    fn setup(n_slots: i32) -> (Store, Engine, VarId, VarId, VarId) {
        let mut s = Store::new();
        let slot = s.new_var(0, n_slots - 1);
        let line = s.new_var(0, 1000);
        let page = s.new_var(0, 1000);
        let mut e = Engine::new();
        e.post(Box::new(SlotGeometry::new(slot, line, page, 16, 4)), &s);
        e.fixpoint(&mut s).unwrap();
        (s, e, slot, line, page)
    }

    #[test]
    fn initial_images_are_tight() {
        let (s, _, _, line, page) = setup(64); // 4 lines × 16 banks
        assert_eq!((s.min(line), s.max(line)), (0, 3));
        assert_eq!((s.min(page), s.max(page)), (0, 3));
    }

    #[test]
    fn fixing_slot_fixes_line_and_page() {
        let (mut s, mut e, slot, line, page) = setup(64);
        s.push_level();
        s.fix(slot, 37).unwrap(); // bank 5, line 2 → page 1
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.value(line), 2);
        assert_eq!(s.value(page), 1);
    }

    #[test]
    fn fixing_page_prunes_slots() {
        let (mut s, mut e, slot, _, page) = setup(32);
        s.push_level();
        s.fix(page, 2).unwrap(); // banks 8..11
        e.fixpoint(&mut s).unwrap();
        let slots: Vec<i32> = s.dom(slot).iter().collect();
        assert_eq!(slots, vec![8, 9, 10, 11, 24, 25, 26, 27]);
    }

    #[test]
    fn fixing_line_prunes_slots() {
        let (mut s, mut e, slot, line, _) = setup(48);
        s.push_level();
        s.fix(line, 1).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.min(slot), 16);
        assert_eq!(s.max(slot), 31);
    }

    #[test]
    fn line_and_page_jointly_identify_four_slots() {
        let (mut s, mut e, slot, line, page) = setup(64);
        s.push_level();
        s.fix(line, 3).unwrap();
        s.fix(page, 0).unwrap();
        e.fixpoint(&mut s).unwrap();
        let slots: Vec<i32> = s.dom(slot).iter().collect();
        assert_eq!(slots, vec![48, 49, 50, 51]);
    }

    #[test]
    fn mod_channel_prunes_all_directions() {
        let mut s = Store::new();
        let sv = s.new_var(0, 30);
        let kv = s.new_var(0, 4);
        let tv = s.new_var(0, 6);
        let mut e = Engine::new();
        e.post(
            Box::new(ModChannel {
                s: sv,
                k: kv,
                t: tv,
                modulus: 7,
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        // Restrict the window slot: t ∈ {4,5,6} → s ≡ 4..6 (mod 7).
        s.remove_below(tv, 4).unwrap();
        e.fixpoint(&mut s).unwrap();
        for v in [0, 1, 7, 14, 21] {
            assert!(!s.dom(sv).contains(v), "s should exclude {v}");
        }
        assert!(s.dom(sv).contains(4));
        assert!(s.dom(sv).contains(12));
        // Fix the stage: k = 2 → s ∈ [18, 20].
        s.fix(kv, 2).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!((s.min(sv), s.max(sv)), (18, 20));
    }

    #[test]
    fn mod_channel_fixing_s_fixes_k_and_t() {
        let mut s = Store::new();
        let sv = s.new_var(0, 100);
        let kv = s.new_var(0, 20);
        let tv = s.new_var(0, 6);
        let mut e = Engine::new();
        e.post(
            Box::new(ModChannel {
                s: sv,
                k: kv,
                t: tv,
                modulus: 7,
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.fix(sv, 33).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.value(kv), 4);
        assert_eq!(s.value(tv), 5);
    }

    #[test]
    fn impossible_combination_fails() {
        let (mut s, mut e, _, line, page) = setup(16); // only line 0 exists
        s.push_level();
        assert!(
            s.fix(line, 1).is_err() || {
                let r = e.fixpoint(&mut s);
                let _ = page;
                r.is_err()
            }
        );
    }
}
