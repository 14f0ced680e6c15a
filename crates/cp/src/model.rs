//! The [`Model`] facade: a store plus an engine, with convenience
//! constructors for every constraint used by the scheduling model.

use crate::engine::{Engine, PropId, Propagator};
use crate::props::basic::{MaxOf, OneConfigPerCycle, XPlusCLeqY};
use crate::props::cumulative::{CumTask, Cumulative};
use crate::props::diff2::{Diff2, Rect};
use crate::props::geometry::{ModChannel, SlotGeometry};
use crate::props::linear::LinearLeq;
use crate::props::reify::{CondSameTime, GuardedPair, PageLineImplies};
use crate::store::{Store, VarId};

/// A constraint model: variables plus posted propagators.
pub struct Model {
    pub store: Store,
    pub engine: Engine,
    /// Store depth below the backtrack level the last search run left
    /// open; the next run unwinds to it (see [`crate::search`]).
    pub(crate) run_base: Option<usize>,
}

impl Model {
    pub fn new() -> Self {
        Model {
            store: Store::new(),
            engine: Engine::new(),
            run_base: None,
        }
    }

    /// A model whose engine emulates the legacy FIFO scheduler: one
    /// queue, no event masks, no idempotence skips, every propagator
    /// rescans all of its variables. The reference configuration for the
    /// differential tests.
    pub fn with_fifo_baseline() -> Self {
        let mut m = Model::new();
        m.engine.set_fifo_baseline(true);
        m
    }

    // ---- variables --------------------------------------------------------

    pub fn new_var(&mut self, lo: i32, hi: i32) -> VarId {
        self.store.new_var(lo, hi)
    }

    pub fn new_var_named(&mut self, lo: i32, hi: i32, name: &str) -> VarId {
        self.store.new_var_named(lo, hi, name)
    }

    pub fn new_const(&mut self, v: i32) -> VarId {
        self.store.new_const(v)
    }

    /// The view `x + c` ([`Store::view`]): no variable and no propagator.
    /// This is how the paper's (4), `y = x + c`, is expressed.
    pub fn view(&mut self, x: VarId, c: i32) -> VarId {
        self.store.view(x, c)
    }

    // ---- raw posting ------------------------------------------------------

    pub fn post(&mut self, p: Box<dyn Propagator>) -> PropId {
        self.engine.post(p, &self.store)
    }

    // ---- convenience constraints ------------------------------------------

    /// `x + c ≤ y` — precedence (paper's constraint (1)).
    pub fn precedence(&mut self, x: VarId, c: i32, y: VarId) {
        self.post(Box::new(XPlusCLeqY { x, c, y }));
    }

    /// At most one configuration per cycle over `(slot, configuration)`
    /// tasks (paper's constraint (3)).
    pub fn one_config_per_cycle(&mut self, tasks: Vec<(VarId, u32)>) {
        self.post(Box::new(OneConfigPerCycle::new(tasks)));
    }

    /// `y = max(xs)` (constraint (5)).
    pub fn max_of(&mut self, xs: Vec<VarId>, y: VarId) {
        self.post(Box::new(MaxOf { xs, y }));
    }

    /// `Σ aᵢxᵢ ≤ c`.
    pub fn linear_leq(&mut self, terms: Vec<(i64, VarId)>, c: i64) {
        self.post(Box::new(LinearLeq::new(terms, c)));
    }

    /// `Cumulative` (constraint (2)), one per functional unit.
    pub fn cumulative(&mut self, tasks: Vec<CumTask>, capacity: i32) {
        self.post(Box::new(Cumulative::new(tasks, capacity)));
    }

    /// `Diff2` (constraint (11)).
    pub fn diff2(&mut self, rects: Vec<Rect>) {
        self.post(Box::new(Diff2::new(rects)));
    }

    /// Slot/line/page channeling (constraint group (6)).
    pub fn slot_geometry(
        &mut self,
        slot: VarId,
        line: VarId,
        page: VarId,
        n_banks: i32,
        page_size: i32,
    ) {
        self.post(Box::new(SlotGeometry::new(
            slot, line, page, n_banks, page_size,
        )));
    }

    /// Modular channeling `s = m·k + t`, `t ∈ [0, m)` (modulo scheduling).
    pub fn mod_channel(&mut self, s: VarId, k: VarId, t: VarId, modulus: i32) {
        self.post(Box::new(ModChannel::new(s, k, t, modulus)));
    }

    /// `page_d = page_e ⟹ line_d = line_e` (constraint (7)).
    pub fn page_line_implies(
        &mut self,
        page_d: VarId,
        line_d: VarId,
        page_e: VarId,
        line_e: VarId,
    ) {
        self.post(Box::new(PageLineImplies {
            page_d,
            line_d,
            page_e,
            line_e,
        }));
    }

    /// Guarded memory-compatibility of co-scheduled operations
    /// (constraints (8)/(9)).
    pub fn cond_same_time(&mut self, s_i: VarId, s_j: VarId, pairs: Vec<GuardedPair>) {
        self.post(Box::new(CondSameTime { s_i, s_j, pairs }));
    }
}

impl Default for Model {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{minimize, Phase, SearchConfig, VarSel};

    #[test]
    fn facade_builds_and_solves_small_jobshop() {
        // 3 unit tasks on a 1-capacity machine with a chain a→b.
        let mut m = Model::new();
        let a = m.new_var(0, 10);
        let b = m.new_var(0, 10);
        let c = m.new_var(0, 10);
        m.precedence(a, 1, b);
        m.cumulative(
            vec![
                CumTask {
                    start: a,
                    dur: 1,
                    req: 1,
                },
                CumTask {
                    start: b,
                    dur: 1,
                    req: 1,
                },
                CumTask {
                    start: c,
                    dur: 1,
                    req: 1,
                },
            ],
            1,
        );
        let obj = m.new_var(0, 12);
        let ends = vec![m.view(a, 1), m.view(b, 1), m.view(c, 1)];
        m.max_of(ends, obj);
        let cfg = SearchConfig {
            phases: vec![Phase::new(vec![a, b, c], VarSel::SmallestMin)],
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(r.objective, Some(3));
    }
}
