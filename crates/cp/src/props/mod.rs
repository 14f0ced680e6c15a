//! Propagator implementations.
//!
//! Each submodule provides one family of constraints used by the scheduling
//! and memory-allocation model:
//!
//! - [`basic`] — equalities, offsets, disequalities, one configuration per
//!   cycle, `max`
//! - [`linear`] — linear inequalities with bounds consistency
//! - [`nogood`] — watched-literal enforcement of restart-harvested nogoods
//! - [`cumulative`] — renewable-resource scheduling (energetic overload
//!   check, time-table filtering), one per functional unit, capacity 1
//!   included
//! - [`diff2`] — two-dimensional non-overlap of rectangles
//! - [`geometry`] — the slot/line/page channeling of the EIT vector memory
//! - [`reify`] — guarded/conditional constraints (the paper's (7)–(9))
//!
//! Every propagator declares its wake-up conditions to the event engine
//! via [`Propagator::subscribe`](crate::engine::Propagator::subscribe)
//! (per-variable [`DomainEvent`](crate::domain::DomainEvent) masks,
//! optionally tagged so the propagator can tell *which* of its parts
//! changed), a scheduling tier
//! ([`Priority`](crate::engine::Priority): cheap arithmetic before
//! linear before globals) and an idempotence hint. The hint must be a
//! dynamic check when the constraint can be posted with aliased
//! variables — a repeated variable makes a propagator interact with
//! itself through the shared domain, so one pass is no longer a
//! fixpoint. DESIGN.md §5e tabulates the assignment per propagator.

pub mod basic;
pub mod cumulative;
pub mod diff2;
pub mod geometry;
pub mod linear;
pub mod nogood;
mod overload;
pub mod reify;

/// Random domains for the per-value oracle tests of the run-based
/// channellings.
#[cfg(test)]
pub(crate) mod testgen {
    use crate::domain::Domain;
    use crate::engine::{Propagator, Wake};
    use crate::store::{PropResult, Store, VarId};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A lower end for a domain of up to ~1000 values: near zero, or
    /// within reach of `i32::MIN` or `i32::MAX`.
    pub(crate) fn anchor(rng: &mut StdRng) -> i64 {
        match rng.gen_range(0..4) {
            0 => i32::MIN as i64 + rng.gen_range(0..300i64),
            1 => i32::MAX as i64 - rng.gen_range(0..1200i64),
            _ => rng.gen_range(-2000..2000i64),
        }
    }

    /// Run `p` once with a full wake; returns whether it reported
    /// entailment.
    pub(crate) fn entailed(s: &mut Store, p: &mut dyn Propagator) -> bool {
        let w = Wake::full();
        p.propagate(s, &w).unwrap();
        w.reported_entailed()
    }

    /// One variable per domain of `doms`, in two stores with one level
    /// open; and `N` argument positions, distinct or (one case in five)
    /// drawn independently so that arguments alias.
    pub(crate) fn twin_stores<const N: usize>(
        rng: &mut StdRng,
        doms: &[Domain; N],
    ) -> (Store, Store, [VarId; N]) {
        let mut stores = [Store::new(), Store::new()];
        for st in &mut stores {
            for d in doms {
                st.new_var_with_domain(d.clone(), "");
            }
            st.push_level();
        }
        let vars = if rng.gen_bool(0.8) {
            std::array::from_fn(|i| VarId(i as u32))
        } else {
            std::array::from_fn(|_| VarId(rng.gen_range(0..N as u32)))
        };
        let [a, b] = stores;
        (a, b, vars)
    }

    /// Run `new` on one store and `old` on the other: both must agree on
    /// the outcome and, when it is `Ok`, on every domain. Returns whether
    /// the case failed.
    pub(crate) fn agree(
        case: usize,
        (mut a, mut b): (Store, Store),
        new: impl FnOnce(&mut Store) -> PropResult,
        old: impl FnOnce(&mut Store) -> PropResult,
    ) -> bool {
        let (got, want) = (new(&mut a), old(&mut b));
        assert_eq!(got, want, "case {case}: outcome");
        if want.is_ok() {
            for v in 0..a.num_vars() as u32 {
                assert_eq!(a.dom(VarId(v)), b.dom(VarId(v)), "case {case}: x{v}");
            }
        }
        want.is_err()
    }

    /// [`agree`], event for event: the outcome, every domain (also after
    /// a failure), the store's event log in order and its change count.
    /// Returns whether the case failed.
    pub(crate) fn agree_events(
        case: usize,
        (mut a, mut b): (Store, Store),
        new: impl FnOnce(&mut Store) -> PropResult,
        old: impl FnOnce(&mut Store) -> PropResult,
    ) -> bool {
        let (got, want) = (new(&mut a), old(&mut b));
        assert_eq!(got, want, "case {case}: outcome");
        for v in 0..a.num_vars() as u32 {
            assert_eq!(a.dom(VarId(v)), b.dom(VarId(v)), "case {case}: x{v}");
        }
        assert_eq!(a.take_events(), b.take_events(), "case {case}: events");
        assert_eq!(a.change_count(), b.change_count(), "case {case}: changes");
        want.is_err()
    }

    /// A domain of up to `span` values from about `lo`, clamped to the
    /// `i32` range, holed at random: alternating runs and gaps whose
    /// maximum lengths are drawn per domain, so it is anything from one
    /// interval to a comb of singletons.
    pub(crate) fn holey(rng: &mut StdRng, lo: i64, span: i64) -> Domain {
        let clamp = |v: i64| v.clamp(i32::MIN as i64, i32::MAX as i64);
        let (lo, hi) = (clamp(lo), clamp(lo + rng.gen_range(0..span.max(1))));
        let (max_run, max_gap) = (rng.gen_range(1..=200i64), rng.gen_range(1..=40i64));
        let mut runs = Vec::new();
        let mut v = lo;
        while v <= hi {
            let end = (v + rng.gen_range(1..=max_run) - 1).min(hi);
            runs.push((v as i32, end as i32));
            v = end + 1 + rng.gen_range(1..=max_gap);
        }
        Domain::from_runs(runs)
    }
}
