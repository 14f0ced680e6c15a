//! Depth-first search with restart-based branch-and-bound minimization,
//! phased variable-selection heuristics (§3.5 of the paper), deadlines
//! and statistics.
//!
//! The paper divides the search into three sequential phases — operation
//! start times, data-node start times, then memory slots — "to start with
//! the most influential decisions and end with the most trivial ones".
//! [`Phase`] captures one such group; the brancher always exhausts earlier
//! phases before touching later ones.

use crate::cancel::{deadline_after, CancelToken};
use crate::model::Model;
use crate::props::nogood::{NogoodBase, NogoodProp};
use crate::store::VarId;
use crate::trace::{SearchEvent, TraceHandle};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Variable-selection heuristic within a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarSel {
    /// Pick the first unfixed variable in the given order.
    InputOrder,
    /// Pick the unfixed variable with the smallest domain (first-fail).
    FirstFail,
    /// Pick the unfixed variable with the smallest lower bound — good for
    /// start times, where early decisions propagate the most.
    SmallestMin,
}

/// Fail-budgeted restarts with nogood recording.
///
/// Budgets are counted in *fails* and grow geometrically: `base`, then
/// `× factor_percent / 100` after each restart (an integer percentage, so
/// the config is `Copy + Eq`). Factors ≤ 100 are treated as 101 so budgets
/// always grow and a complete search stays complete. Each abandoned dive's
/// refuted decision prefixes are harvested as nogoods and enforced by a
/// watched-literal propagator ([`crate::props::nogood`]) for the rest of
/// the run, so restarts never re-explore a refuted subtree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartConfig {
    pub base: u64,
    pub factor_percent: u32,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            base: 256,
            factor_percent: 150,
        }
    }
}

impl RestartConfig {
    /// Fail budget for the `i`-th dive (0-based).
    pub fn budget(self, i: u64) -> u64 {
        let f = self.factor_percent.max(101) as u128;
        let mut b = self.base.max(1) as u128;
        for _ in 0..i {
            // `.max(b + 1)` forces strict growth even where the integer
            // division rounds the factor away (small bases), preserving
            // completeness.
            b = (b * f / 100).max(b + 1);
            if b > u64::MAX as u128 {
                return u64::MAX;
            }
        }
        b as u64
    }
}

/// One search phase: a variable group plus its variable-selection
/// heuristic. Values are tried smallest first.
#[derive(Clone, Debug)]
pub struct Phase {
    pub vars: Vec<VarId>,
    pub var_sel: VarSel,
}

impl Phase {
    pub fn new(vars: Vec<VarId>, var_sel: VarSel) -> Self {
        Phase { vars, var_sel }
    }
}

/// Search-wide configuration.
#[derive(Clone, Debug, Default)]
pub struct SearchConfig {
    pub phases: Vec<Phase>,
    /// Wall-clock budget; `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Fail-budgeted restarts with nogood recording, layered under the
    /// per-incumbent root restarts of [`minimize`]. `None` (the
    /// default) disables them. Ignored by [`solve_all`]: re-diving would
    /// enumerate duplicate solutions. Each restart-enabled run posts one
    /// nogood propagator on the model and clears its clause base at run
    /// end (recorded nogoods are only valid under that run's
    /// monotonically tightening bound).
    pub restarts: Option<RestartConfig>,
    /// Event sink for structured search tracing; `None` (the default)
    /// costs one branch per would-be event.
    pub trace: Option<TraceHandle>,
    /// Emit a [`SearchEvent::StateHash`] digest of all domain bounds every
    /// N nodes (at the node's propagation fixpoint, before branching).
    /// `None` (the default) keeps event streams identical to builds
    /// without hashing. The cadence is node-based, not event-based, so a
    /// change that only shifts fail/backtrack bookkeeping still hashes the
    /// same store states.
    pub state_hash_every: Option<u64>,
    /// Cooperative cancellation: checked at every node alongside the
    /// deadline, and periodically inside the propagation fixpoint. A
    /// cancelled run aborts like a timeout (never a refutation proof) and
    /// sets [`SearchResult::cancelled`].
    pub cancel: Option<CancelToken>,
}

/// Exit status of a search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStatus {
    /// Optimality proven (or, for satisfaction search, a solution found).
    Optimal,
    /// A solution was found but the budget expired before the proof.
    Feasible,
    /// The whole tree was refuted: no solution exists.
    Infeasible,
    /// Budget expired with no solution found.
    Unknown,
}

impl SearchStatus {
    /// Stable lower-case rendering (trace events, metrics files).
    pub fn as_str(self) -> &'static str {
        match self {
            SearchStatus::Optimal => "optimal",
            SearchStatus::Feasible => "feasible",
            SearchStatus::Infeasible => "infeasible",
            SearchStatus::Unknown => "unknown",
        }
    }
}

/// A complete assignment snapshot: one value per real variable and one
/// per view.
#[derive(Clone, Debug)]
pub struct Solution {
    values: Vec<i32>,
    views: Vec<i32>,
}

impl Solution {
    pub fn value(&self, v: VarId) -> i32 {
        if v.is_view() {
            self.views[(v.0 - VarId::VIEW) as usize]
        } else {
            self.values[v.idx()]
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SearchStats {
    pub nodes: u64,
    pub fails: u64,
    pub solutions: u64,
    pub max_depth: usize,
    pub propagations: u64,
    pub time: Duration,
    /// Fail-budget restarts performed ([`SearchConfig::restarts`]).
    pub restarts: u64,
    /// Prefix nogoods harvested and posted across all restarts.
    pub nogoods_posted: u64,
    /// Values pruned by nogood unit propagation.
    pub nogoods_pruned: u64,
}

#[derive(Debug)]
pub struct SearchResult {
    pub status: SearchStatus,
    pub best: Option<Solution>,
    pub objective: Option<i32>,
    pub stats: SearchStats,
    /// The tree was fully exhausted (no budget abort).
    pub completed: bool,
    /// The run was stopped by its [`SearchConfig::cancel`] token (a kind
    /// of abort: `completed` is `false` and the status is `Feasible` or
    /// `Unknown`, never a proof).
    pub cancelled: bool,
}

impl SearchResult {
    pub fn is_sat(&self) -> bool {
        self.best.is_some()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Abort {
    Timeout,
    Cancelled,
    /// The fail budget of the current dive expired: unwind to the root
    /// (harvesting nogoods on the way) and re-dive with a bigger budget.
    Restart,
}

struct Dfs<'m> {
    model: &'m mut Model,
    phases: Vec<Phase>,
    objective: Option<VarId>,
    bound: i32,
    best: Option<Solution>,
    best_obj: Option<i32>,
    deadline: Option<Instant>,
    stats: SearchStats,
    /// `stats.solutions` when the current root dive began: a dive stops
    /// at the first solution *it* finds, not at the incumbent an earlier
    /// restart-BnB dive left behind.
    dive_solutions: u64,
    /// Enumeration mode: collect every solution up to the cap.
    collect: Option<(Vec<Solution>, usize)>,
    trace: Option<TraceHandle>,
    state_hash_every: Option<u64>,
    cancel: Option<CancelToken>,
    /// Fail-budgeted restart policy (`None` = single dive).
    restart_cfg: Option<RestartConfig>,
    /// Dives started so far (indexes [`RestartConfig::budget`]).
    restart_index: u64,
    /// Fails left before the current dive restarts.
    fails_remaining: Option<u64>,
    /// Positive `(var, val)` decisions on the current DFS branch, root
    /// first — the prefix of every nogood harvested below it.
    path: Vec<(u32, i32)>,
    /// Nogoods harvested during the current restart unwind.
    harvested: Vec<Vec<(VarId, i32)>>,
    /// Shared clause store of the posted nogood propagator.
    nogood_base: Option<Arc<Mutex<NogoodBase>>>,
}

impl<'m> Dfs<'m> {
    /// Emit a trace event. The closure keeps event construction off the
    /// no-sink path entirely: disabled tracing costs one branch here.
    #[inline]
    fn emit(&self, event: impl FnOnce() -> SearchEvent) {
        if let Some(t) = &self.trace {
            t.emit(&event());
        }
    }

    fn budget_check(&mut self) -> Result<(), Abort> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                self.emit(|| SearchEvent::Cancelled {
                    nodes: self.stats.nodes,
                });
                return Err(Abort::Cancelled);
            }
        }
        if let Some(dl) = self.deadline {
            // Checking the clock is ~20 ns; fine at every node.
            if Instant::now() >= dl {
                self.emit(|| SearchEvent::DeadlineHit {
                    nodes: self.stats.nodes,
                });
                return Err(Abort::Timeout);
            }
        }
        // Last so real budget aborts always win over a mere restart.
        if self.fails_remaining == Some(0) {
            return Err(Abort::Restart);
        }
        Ok(())
    }

    /// Pick the next branching variable: exhaust earlier phases first,
    /// then apply the phase's heuristic.
    fn select_var(&self) -> Option<VarId> {
        let store = &self.model.store;
        self.phases.iter().find_map(|phase| {
            let unfixed = phase.vars.iter().copied().filter(|&v| !store.is_fixed(v));
            match phase.var_sel {
                VarSel::InputOrder => unfixed.take(1).next(),
                VarSel::FirstFail => unfixed.min_by_key(|&v| store.size(v)),
                VarSel::SmallestMin => unfixed.min_by_key(|&v| (store.min(v), store.size(v))),
            }
        })
    }

    fn record_solution(&mut self) {
        self.stats.solutions += 1;
        let s = &self.model.store;
        // Non-decision vars may be unfixed but bounded; take min — for
        // the objective this is exact (it is functionally determined), and
        // extraction only reads decision vars.
        let value = |v: VarId| s.fixed_value(v).unwrap_or_else(|| s.min(v));
        let values: Vec<i32> = (0..s.num_vars() as u32).map(|i| value(VarId(i))).collect();
        let views: Vec<i32> = (0..s.num_views() as u32)
            .map(|k| value(VarId(VarId::VIEW + k)))
            .collect();
        if let Some(obj) = self.objective {
            let val = self.model.store.min(obj);
            self.best_obj = Some(val);
            self.bound = val; // next solutions must beat this strictly
            self.emit(|| SearchEvent::BoundUpdate { bound: val });
        }
        self.emit(|| SearchEvent::Solution {
            objective: self.best_obj,
            nodes: self.stats.nodes,
        });
        let sol = Solution { values, views };
        if let Some((sols, cap)) = &mut self.collect {
            if sols.len() < *cap {
                sols.push(sol.clone());
            }
        }
        self.best = Some(sol);
    }

    /// A dive stops at the first solution it finds; enumeration stops
    /// at its cap.
    fn dive_done(&self) -> bool {
        match &self.collect {
            None => self.stats.solutions > self.dive_solutions,
            Some((sols, cap)) => sols.len() >= *cap,
        }
    }

    /// Run propagation to fixpoint at the current node: `Ok(true)` =
    /// consistent, `Ok(false)` = refuted. The engine surfaces a cancelled
    /// fixpoint as `Err(Fail)`; treating that as a refutation would let a
    /// cancelled run masquerade as an exhausted (proof-carrying) tree, so
    /// a failure with the token raised aborts instead.
    fn fixpoint(&mut self) -> Result<bool, Abort> {
        match self.model.engine.fixpoint(&mut self.model.store) {
            Ok(()) => Ok(true),
            Err(_) => {
                if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                    Err(Abort::Cancelled)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Count and trace a refuted node.
    #[inline]
    fn fail(&mut self) {
        self.stats.fails += 1;
        if let Some(f) = &mut self.fails_remaining {
            *f = f.saturating_sub(1);
        }
        self.emit(|| SearchEvent::Fail {
            depth: self.model.store.depth(),
        });
    }

    /// Turn this frame's refuted values into prefix nogoods
    /// (`¬(path ∧ var=u)` for each refuted `u`), collected during a
    /// restart unwind and posted by [`Dfs::dive`].
    fn harvest(&mut self, var: VarId, refuted: &[i32]) {
        for &u in refuted {
            let mut clause: Vec<(VarId, i32)> =
                self.path.iter().map(|&(v, val)| (VarId(v), val)).collect();
            clause.push((var, u));
            self.harvested.push(clause);
        }
    }

    /// The branch value: the domain minimum, diversified after a restart: on dive `k > 0` the value is a deterministic
    /// pseudo-random member keyed on `(k, depth)`, so successive dives
    /// descend into *different* regions of the space while the recorded
    /// nogoods keep the already-refuted prefixes off-limits — without
    /// this, a deterministic heuristic re-walks the same leftmost region
    /// every dive and restarts degenerate into plain DFS with overhead.
    /// Dive 0 (and any search without restarts) takes the minimum, so
    /// trajectories with restarts disabled are untouched, and the whole
    /// scheme stays replayable: the value is a pure function of
    /// deterministic search state.
    fn branch_value(&self, var: VarId) -> i32 {
        if self.restart_index > 0 && self.restart_cfg.is_some() {
            let size = self.model.store.size(var);
            let depth = self.path.len() as u64;
            // splitmix64-style finalizer over (dive, depth): cheap, and
            // uncorrelated enough that sibling depths land in different
            // parts of the domain.
            let mut z = self
                .restart_index
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(depth.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 27;
            return self.model.store.domain(var).nth_member(z % size);
        }
        self.model.store.min(var)
    }

    /// Returns Ok(()) when the subtree is exhausted (normally or by
    /// pruning); Err on budget exhaustion.
    fn dfs(&mut self) -> Result<(), Abort> {
        self.budget_check()?;
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.model.store.depth());

        // Periodic store digest, taken at the node's fixpoint so record
        // and replay hash identical states. (The restart-BnB bound is
        // already posted at the root before every dive.)
        if let Some(n) = self.state_hash_every {
            if n > 0 && self.trace.is_some() && self.stats.nodes.is_multiple_of(n) {
                let nodes = self.stats.nodes;
                let hash = self.model.store.state_hash();
                self.emit(move || SearchEvent::StateHash { nodes, hash });
            }
        }

        let Some(var) = self.select_var() else {
            self.record_solution();
            return Ok(());
        };

        // Values whose subtrees were exhausted without stopping:
        // refuted under the current bound, and so the material of
        // prefix nogoods if a restart unwinds through this frame.
        let mut refuted: Vec<i32> = Vec::new();
        // Enumerate values; domains can change between attempts, so
        // re-read the next candidate each time.
        loop {
            if self.model.store.is_fixed(var) {
                // A neighbour's propagation fixed it; descend once.
                // No path entry: the value is entailed by the
                // prefix, so adding it would only lengthen nogoods.
                self.model.store.push_level();
                let r = self.dfs();
                self.model.store.pop_level();
                return r;
            }
            let v = self.branch_value(var);
            // Try var = v.
            self.emit(|| SearchEvent::Branch {
                depth: self.model.store.depth(),
                var: var.0,
                val: v,
            });
            self.model.store.push_level();
            let ok = if self.model.store.fix(var, v).is_ok() {
                match self.fixpoint() {
                    Ok(consistent) => consistent,
                    Err(a) => {
                        self.model.store.pop_level();
                        return Err(a);
                    }
                }
            } else {
                false
            };
            if ok {
                self.path.push((var.0, v));
                let r = self.dfs();
                self.path.pop();
                self.model.store.pop_level();
                self.emit(|| SearchEvent::Backtrack {
                    depth: self.model.store.depth(),
                });
                if let Err(a) = r {
                    if a == Abort::Restart {
                        self.harvest(var, &refuted);
                    }
                    return Err(a);
                }
                if self.dive_done() {
                    return Ok(());
                }
                refuted.push(v);
            } else {
                self.model.store.pop_level();
                self.fail();
                refuted.push(v);
            }
            // Refute var = v and continue with the rest.
            if self.model.store.remove_value(var, v).is_err() || !self.fixpoint()? {
                self.fail();
                return Ok(());
            }
        }
    }

    /// One search descent under its own backtrack level, re-diving on
    /// fail-budget restarts until the tree is exhausted or a real budget
    /// aborts. Harvested nogoods are posted to the shared base and
    /// propagated at the root between dives, so each restart resumes
    /// with every refuted prefix excluded.
    fn dive(&mut self) -> Result<(), Abort> {
        loop {
            if let Some(rc) = self.restart_cfg {
                self.fails_remaining = Some(rc.budget(self.restart_index));
            }
            // Every dive runs under its own backtrack level so search
            // refutations never permanently mutate the root store (a
            // root-level `remove_value` could otherwise leave an empty
            // domain behind an exhausted dive).
            self.model.store.push_level();
            let r = self.dfs();
            self.model.store.pop_level();
            debug_assert!(self.path.is_empty(), "decision path survived unwind");
            self.path.clear();
            match r {
                Err(Abort::Restart) => {
                    self.restart_index += 1;
                    self.stats.restarts += 1;
                    let harvested = std::mem::take(&mut self.harvested);
                    self.stats.nogoods_posted += harvested.len() as u64;
                    let posted_any = !harvested.is_empty();
                    if let Some(base) = &self.nogood_base {
                        let mut b = base.lock().unwrap();
                        for clause in harvested {
                            b.add_clause(clause);
                        }
                    }
                    if posted_any && self.nogood_base.is_some() {
                        // Run the new clauses (length-1 nogoods prune
                        // permanently here) to a root fixpoint. A failing
                        // root means every remaining branch is refuted:
                        // the dive sequence is exhausted, which the
                        // caller reads as a completed tree.
                        self.model.engine.schedule_all(&self.model.store);
                        match self.fixpoint() {
                            Ok(true) => {}
                            Ok(false) => return Ok(()),
                            Err(a) => return Err(a),
                        }
                    }
                    let bound = self.bound;
                    self.emit(|| SearchEvent::Restart { bound });
                }
                other => return other,
            }
        }
    }
}

/// The one search driver: a satisfaction dive (`objective: None`),
/// restart-based branch-and-bound (`Some`), or enumeration up to
/// `collect` solutions.
fn run(
    model: &mut Model,
    objective: Option<VarId>,
    config: &SearchConfig,
    collect: Option<usize>,
) -> (SearchResult, Vec<Solution>) {
    let t0 = Instant::now();
    // Unwind the level an earlier run on this model left open, so a
    // re-solve starts from the caller's store and never inherits that
    // run's restart-BnB bound.
    if let Some(base) = model.run_base.take() {
        while model.store.depth() > base {
            model.store.pop_level();
        }
    }
    if let Some(t) = &config.trace {
        t.emit(&SearchEvent::Start {
            vars: model.store.num_vars(),
            propagators: model.engine.num_propagators(),
        });
    }
    // Install (or clear) the cancellation token for the engine-side poll;
    // unconditional so a token left by a previous cancelled run on the
    // same model never bleeds into this one.
    model.engine.set_cancel(config.cancel.clone());
    // Fail-budgeted restarts are disabled under enumeration: a re-dive
    // would collect solutions already emitted by an abandoned dive.
    let restart_cfg = if collect.is_some() {
        None
    } else {
        config.restarts
    };
    // With restarts on, post the nogood propagator over the decision
    // variables before the initial full-rescan scheduling below. The
    // clause base starts empty (the propagator no-ops until the first
    // restart harvest) and is cleared again at run end.
    let nogood_base = restart_cfg.and_then(|_| {
        let mut seen = std::collections::HashSet::new();
        let vars: Vec<VarId> = config
            .phases
            .iter()
            .flat_map(|p| p.vars.iter().copied())
            .filter(|v| seen.insert(v.0))
            .collect();
        if vars.is_empty() {
            return None;
        }
        let base = Arc::new(Mutex::new(NogoodBase::new(vars)));
        model
            .engine
            .post(Box::new(NogoodProp::new(base.clone())), &model.store);
        Some(base)
    });
    // A previous run on this model may have aborted mid-fixpoint — a
    // failure or cancellation resets the queue and discards pending wake
    // events, leaving root domains partially propagated with nobody
    // scheduled to finish the job. Start from a full rescan so this run's
    // root fixpoint never depends on what an earlier run left behind (on
    // a freshly built model this is a no-op: posting already queues every
    // propagator for a full rescan).
    model.engine.schedule_all(&model.store);
    // The root fixpoint runs under its own trail level: a failing (or
    // cancelled) propagator may have emptied a domain mid-flight, and at
    // the bare root there would be no mark to unwind to — the next run on
    // this model would then panic on the empty domain. On failure the
    // level is popped, restoring the caller's pre-run store; on success it
    // stays open after the run (the root narrowing stays visible to the
    // caller) until the next run on this model unwinds it, above.
    let base = model.store.depth();
    model.store.push_level();
    let root_ok = model.engine.fixpoint(&mut model.store).is_ok();
    if root_ok {
        model.run_base = Some(base);
    } else {
        model.store.pop_level();
    }
    let root_cancelled = !root_ok && config.cancel.as_ref().is_some_and(|c| c.is_cancelled());

    let mut dfs = Dfs {
        model,
        phases: config.phases.clone(),
        objective,
        bound: i32::MAX,
        best: None,
        best_obj: None,
        deadline: config.timeout.and_then(|d| deadline_after(t0, d)),
        stats: SearchStats::default(),
        dive_solutions: 0,
        collect: collect.map(|cap| (Vec::new(), cap)),
        trace: config.trace.clone(),
        state_hash_every: config.state_hash_every,
        cancel: config.cancel.clone(),
        restart_cfg,
        restart_index: 0,
        fails_remaining: None,
        path: Vec::new(),
        harvested: Vec::new(),
        nogood_base: nogood_base.clone(),
    };

    let aborted: Option<Abort> = match objective {
        _ if !root_ok => None,
        None => dfs.dive().err(),
        // Restart BnB: dive to the first (improving) solution, tighten the
        // bound at the root for the rest of the run, and re-dive until
        // refuted. With strong propagation this avoids thrashing in the
        // subtree where the incumbent was found.
        Some(obj) => {
            let mut aborted = None;
            loop {
                let sols_before = dfs.stats.solutions;
                dfs.dive_solutions = sols_before;
                match dfs.dive() {
                    Err(a) => {
                        aborted = Some(a);
                        break;
                    }
                    Ok(()) => {
                        if dfs.stats.solutions == sols_before {
                            break; // exhausted: no better solution exists
                        }
                        // Tighten at the root and go again.
                        let bound = dfs.bound;
                        if bound == i32::MIN
                            || dfs.model.store.remove_above(obj, bound - 1).is_err()
                            || !dfs.fixpoint().unwrap_or_else(|a| {
                                aborted = Some(a);
                                false
                            })
                        {
                            break; // bound refuted at root: incumbent optimal
                        }
                        dfs.emit(|| SearchEvent::Restart { bound });
                    }
                }
            }
            aborted
        }
    };
    let cancelled = root_cancelled || aborted == Some(Abort::Cancelled);
    let completed = root_ok && aborted.is_none();

    let status = if !root_ok {
        if root_cancelled {
            // The root fixpoint was interrupted, not refuted.
            SearchStatus::Unknown
        } else {
            SearchStatus::Infeasible
        }
    } else {
        match (&dfs.best, aborted.is_some()) {
            (Some(_), false) => SearchStatus::Optimal,
            (Some(_), true) => SearchStatus::Feasible,
            (None, false) => SearchStatus::Infeasible,
            (None, true) => SearchStatus::Unknown,
        }
    };

    let mut stats = dfs.stats;
    stats.time = t0.elapsed();
    stats.propagations = dfs.model.engine.propagations;
    if let Some(base) = &nogood_base {
        let mut b = base.lock().unwrap();
        stats.nogoods_pruned = b.pruned;
        // Recorded nogoods are only valid under this run's monotonically
        // tightening bound; disarm them so a reused model cannot replay
        // them against a different objective.
        b.clear();
    }

    if let Some(t) = &config.trace {
        t.emit(&SearchEvent::Done {
            status: status.as_str(),
            nodes: stats.nodes,
            fails: stats.fails,
            solutions: stats.solutions,
        });
        t.flush();
    }

    let collected = dfs.collect.take().map(|(v, _)| v).unwrap_or_default();
    // Leave no token behind: direct engine users after this run should
    // not observe stale cancellation.
    dfs.model.engine.set_cancel(None);
    (
        SearchResult {
            status,
            best: dfs.best,
            objective: dfs.best_obj,
            stats,
            completed,
            cancelled,
        },
        collected,
    )
}

/// Enumerate solutions over the phase variables, up to `max_solutions`.
/// The returned status is `Optimal` when the tree was exhausted (the list
/// is then complete) and `Feasible` when the cap or a budget cut it short.
pub fn solve_all(
    model: &mut Model,
    config: &SearchConfig,
    max_solutions: usize,
) -> (SearchResult, Vec<Solution>) {
    let (mut r, sols) = run(model, None, config, Some(max_solutions));
    if r.status == SearchStatus::Optimal && sols.len() >= max_solutions {
        r.status = SearchStatus::Feasible; // cap hit: may be incomplete
    }
    if r.status == SearchStatus::Infeasible && !sols.is_empty() {
        // Exhausted after collecting: complete enumeration.
        r.status = SearchStatus::Optimal;
    }
    (r, sols)
}

/// Find one solution over the phase variables.
pub fn solve(model: &mut Model, config: &SearchConfig) -> SearchResult {
    run(model, None, config, None).0
}

/// Minimize `objective` by restart-based branch-and-bound over the phase
/// variables: each dive stops at its first (improving) solution, the
/// bound is tightened at the root, and the next dive starts from there.
pub fn minimize(model: &mut Model, objective: VarId, config: &SearchConfig) -> SearchResult {
    run(model, Some(objective), config, None).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::basic::{MaxOf, NeqOffset, XPlusCLeqY};
    use crate::props::cumulative::{CumTask, Cumulative};

    fn phase_all(model: &Model, var_sel: VarSel) -> Vec<Phase> {
        let vars: Vec<VarId> = (0..model.store.num_vars() as u32).map(VarId).collect();
        vec![Phase::new(vars, var_sel)]
    }

    #[test]
    fn solve_trivial_satisfaction() {
        let mut m = Model::new();
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        m.post(Box::new(NeqOffset { x, y, c: 0 }));
        let cfg = SearchConfig {
            phases: phase_all(&m, VarSel::InputOrder),
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        assert_eq!(r.status, SearchStatus::Optimal);
        let sol = r.best.unwrap();
        assert_ne!(sol.value(x), sol.value(y));
    }

    #[test]
    fn infeasible_is_detected() {
        let mut m = Model::new();
        let x = m.new_var(0, 0);
        let y = m.new_var(0, 0);
        m.post(Box::new(NeqOffset { x, y, c: 0 }));
        let cfg = SearchConfig {
            phases: phase_all(&m, VarSel::InputOrder),
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        assert_eq!(r.status, SearchStatus::Infeasible);
        assert!(r.best.is_none());
    }

    #[test]
    fn minimize_simple_makespan() {
        // Two chains a→b, c→d on a unit resource; durations 2.
        let mut m = Model::new();
        let horizon = 20;
        let starts: Vec<VarId> = (0..4).map(|_| m.new_var(0, horizon)).collect();
        let (a, b, c, d) = (starts[0], starts[1], starts[2], starts[3]);
        m.post(Box::new(XPlusCLeqY { x: a, c: 2, y: b }));
        m.post(Box::new(XPlusCLeqY { x: c, c: 2, y: d }));
        m.post(Box::new(Cumulative::new(
            starts
                .iter()
                .map(|&v| CumTask {
                    start: v,
                    dur: 2,
                    req: 1,
                })
                .collect(),
            1,
        )));
        let obj = m.new_var(0, horizon + 2);
        let ends: Vec<VarId> = starts
            .iter()
            .map(|&v| {
                let e = m.new_var(0, horizon + 2);
                m.post(Box::new(crate::props::basic::XPlusCEqY {
                    x: v,
                    c: 2,
                    y: e,
                }));
                e
            })
            .collect();
        m.post(Box::new(MaxOf { xs: ends, y: obj }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(starts.clone(), VarSel::SmallestMin)],
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(r.status, SearchStatus::Optimal);
        // 4 tasks × 2 cc on one machine = 8 cc optimum.
        assert_eq!(r.objective, Some(8));
    }

    #[test]
    fn unrepresentable_timeout_means_no_deadline() {
        // `Duration::MAX` cannot be added to an `Instant`; it must run
        // as an unbounded search rather than panic.
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..3).map(|_| m.new_var(0, 5)).collect();
        let obj = m.new_var(0, 5);
        m.post(Box::new(MaxOf {
            xs: vars.clone(),
            y: obj,
        }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::InputOrder)],
            timeout: Some(Duration::MAX),
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(r.status, SearchStatus::Optimal);
        assert_eq!(r.objective, Some(0));
    }

    #[test]
    fn phased_search_orders_decisions() {
        // Phase 1 fixes y, phase 2 fixes x; both must end fixed.
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        m.post(Box::new(NeqOffset { x, y, c: 0 }));
        let cfg = SearchConfig {
            phases: vec![
                Phase::new(vec![y], VarSel::InputOrder),
                Phase::new(vec![x], VarSel::InputOrder),
            ],
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        let sol = r.best.unwrap();
        assert_eq!(sol.value(y), 0); // decided first, takes the minimum
        assert_eq!(sol.value(x), 1); // decided second, x ≠ y
    }

    #[test]
    fn timeout_returns_quickly() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..40).map(|_| m.new_var(0, 39)).collect();
        // All-different via pairwise neq: huge tree.
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                m.post(Box::new(NeqOffset {
                    x: vars[i],
                    y: vars[j],
                    c: 0,
                }));
            }
        }
        let obj = m.new_var(0, 39);
        m.post(Box::new(MaxOf {
            xs: vars.clone(),
            y: obj,
        }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::FirstFail)],
            timeout: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let t0 = Instant::now();
        let _ = minimize(&mut m, obj, &cfg);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::props::basic::{MaxOf, NeqOffset, XPlusCLeqY};
    use crate::props::cumulative::CumTask;

    #[test]
    fn solve_all_counts_permutations() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|_| m.new_var(0, 3)).collect();
        for (i, &x) in vars.iter().enumerate() {
            for &y in &vars[i + 1..] {
                m.post(Box::new(NeqOffset { x, y, c: 0 }));
            }
        }
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::InputOrder)],
            ..Default::default()
        };
        let (r, sols) = solve_all(&mut m, &cfg, 100);
        assert_eq!(sols.len(), 24); // 4!
        assert_eq!(r.status, SearchStatus::Optimal);
        // All distinct.
        let mut keys: Vec<Vec<i32>> = sols
            .iter()
            .map(|s| (0..4).map(|i| s.value(VarId(i))).collect())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 24);
    }

    #[test]
    fn solve_all_respects_cap() {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..4).map(|_| m.new_var(0, 3)).collect();
        for (i, &x) in vars.iter().enumerate() {
            for &y in &vars[i + 1..] {
                m.post(Box::new(NeqOffset { x, y, c: 0 }));
            }
        }
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::InputOrder)],
            ..Default::default()
        };
        let (r, sols) = solve_all(&mut m, &cfg, 5);
        assert_eq!(sols.len(), 5);
        assert_eq!(r.status, SearchStatus::Feasible);
    }

    #[test]
    fn solve_all_on_unsat_is_empty_and_infeasible() {
        let mut m = Model::new();
        let x = m.new_var(0, 0);
        let y = m.new_var(0, 0);
        m.post(Box::new(NeqOffset { x, y, c: 0 }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(vec![x, y], VarSel::InputOrder)],
            ..Default::default()
        };
        let (r, sols) = solve_all(&mut m, &cfg, 10);
        assert!(sols.is_empty());
        assert_eq!(r.status, SearchStatus::Infeasible);
    }

    #[test]
    fn stats_count_nodes_and_solutions() {
        let mut m = Model::new();
        let x = m.new_var(0, 3);
        let y = m.new_var(0, 3);
        m.post(Box::new(NeqOffset { x, y, c: 0 }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(vec![x, y], VarSel::InputOrder)],
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        assert_eq!(r.stats.solutions, 1);
        assert!(r.stats.nodes >= 1);
        assert!(r.stats.time.as_nanos() > 0);
        assert!(r.is_sat());
        assert!(r.completed);
    }

    #[test]
    fn restart_bnb_finds_the_chain_optimum() {
        // Five starts chained by +2 precedences: the last cannot start
        // before 8, and restart-BnB must prove that optimal.
        let mut m = Model::new();
        let starts: Vec<VarId> = (0..5).map(|_| m.new_var(0, 20)).collect();
        for w in starts.windows(2) {
            m.post(Box::new(XPlusCLeqY {
                x: w[0],
                c: 2,
                y: w[1],
            }));
        }
        let obj = m.new_var(0, 25);
        m.post(Box::new(MaxOf {
            xs: starts.clone(),
            y: obj,
        }));
        let cfg = SearchConfig {
            phases: vec![Phase::new(starts, VarSel::SmallestMin)],
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(r.status, SearchStatus::Optimal);
        assert_eq!(r.objective, Some(8));
    }

    #[test]
    fn minimize_without_phases_reports_root_solution() {
        // No decision vars: the root propagation is the whole search.
        let mut m = Model::new();
        let x = m.new_var(5, 5);
        let cfg = SearchConfig::default();
        let r = minimize(&mut m, x, &cfg);
        assert_eq!(r.objective, Some(5));
        assert_eq!(r.status, SearchStatus::Optimal);
    }

    #[test]
    fn repeated_searches_on_fresh_models_are_deterministic() {
        let run = || {
            let mut m = Model::new();
            let vars: Vec<VarId> = (0..6).map(|_| m.new_var(0, 5)).collect();
            for i in 0..vars.len() {
                for j in (i + 1)..vars.len() {
                    m.post(Box::new(NeqOffset {
                        x: vars[i],
                        y: vars[j],
                        c: 0,
                    }));
                }
            }
            let cfg = SearchConfig {
                phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
                ..Default::default()
            };
            let r = solve(&mut m, &cfg);
            let sol = r.best.unwrap();
            vars.iter().map(|&v| sol.value(v)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn geometric_budgets_always_grow() {
        // A degenerate factor (≤ 1.0x) is clamped so the budget sequence
        // still diverges — the completeness guarantee.
        let p = RestartConfig {
            base: 4,
            factor_percent: 100,
        };
        assert!(p.budget(1) > p.budget(0));
        let g = RestartConfig::default();
        assert_eq!(g.budget(0), 256);
        assert_eq!(g.budget(1), 384);
        assert_eq!(g.budget(2), 576);
        // Saturates instead of overflowing.
        assert_eq!(g.budget(500), u64::MAX);
    }

    /// Restarts after 2 fails, growing by half: small enough to restart
    /// on every test model here.
    const SMALL_BUDGET: RestartConfig = RestartConfig {
        base: 2,
        factor_percent: 150,
    };

    /// A tight pigeonhole-flavoured instance: enough fails to cross small
    /// restart budgets, small enough to exhaust quickly.
    fn crowded_model() -> (Model, Vec<VarId>, VarId) {
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..7).map(|_| m.new_var(0, 6)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                m.post(Box::new(NeqOffset {
                    x: vars[i],
                    y: vars[j],
                    c: 0,
                }));
            }
        }
        let obj = m.new_var(0, 6);
        m.post(Box::new(MaxOf {
            xs: vars.clone(),
            y: obj,
        }));
        (m, vars, obj)
    }

    #[test]
    fn restarts_preserve_the_optimum() {
        let run = |restarts: Option<RestartConfig>| {
            let (mut m, vars, obj) = crowded_model();
            let cfg = SearchConfig {
                phases: vec![Phase::new(vars, VarSel::FirstFail)],
                restarts,
                ..Default::default()
            };
            let r = minimize(&mut m, obj, &cfg);
            assert_eq!(r.status, SearchStatus::Optimal);
            (r.objective, r.stats)
        };
        let (obj_plain, stats_plain) = run(None);
        assert_eq!(stats_plain.restarts, 0);
        let (obj_r, stats_r) = run(Some(SMALL_BUDGET));
        assert_eq!(obj_r, obj_plain, "restarts changed the optimum");
        assert!(stats_r.restarts > 0, "budget of 2 fails must trigger");
        assert!(stats_r.nogoods_posted > 0);
    }

    #[test]
    fn restarted_infeasible_proof_is_still_a_proof() {
        // 8 vars, 7 values: pigeonhole-infeasible. Restarts + nogoods
        // must still report Infeasible, not Unknown.
        let mut m = Model::new();
        let vars: Vec<VarId> = (0..8).map(|_| m.new_var(0, 6)).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                m.post(Box::new(NeqOffset {
                    x: vars[i],
                    y: vars[j],
                    c: 0,
                }));
            }
        }
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::InputOrder)],
            restarts: Some(SMALL_BUDGET),
            ..Default::default()
        };
        let r = solve(&mut m, &cfg);
        assert_eq!(r.status, SearchStatus::Infeasible);
        assert!(r.stats.restarts > 0);
    }

    #[test]
    fn nogood_base_is_cleared_at_run_end() {
        // Reusing a model after a restarted run must not leak clauses
        // recorded under the previous (tighter) objective bound.
        let (mut m, vars, obj) = crowded_model();
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::FirstFail)],
            restarts: Some(SMALL_BUDGET),
            ..Default::default()
        };
        let r1 = minimize(&mut m, obj, &cfg);
        let r2 = minimize(&mut m, obj, &cfg);
        assert_eq!(r1.objective, r2.objective);
        assert_eq!(r1.status, SearchStatus::Optimal);
        assert_eq!(r2.status, SearchStatus::Optimal);
    }

    #[test]
    fn solve_all_ignores_restarts() {
        // Enumeration re-dives would duplicate solutions; restarts are
        // disabled under solve_all and the count stays exact.
        let count = |restarts| {
            let mut m = Model::new();
            let x = m.new_var(0, 2);
            let y = m.new_var(0, 2);
            m.post(Box::new(NeqOffset { x, y, c: 0 }));
            let cfg = SearchConfig {
                phases: vec![Phase::new(vec![x, y], VarSel::InputOrder)],
                restarts,
                ..Default::default()
            };
            solve_all(&mut m, &cfg, 100).1.len()
        };
        assert_eq!(count(None), 6);
        assert_eq!(
            count(Some(RestartConfig {
                base: 1,
                factor_percent: 150,
            })),
            6
        );
    }

    #[test]
    fn redive_backtracks_past_an_exhausted_subtree() {
        // x0 = 2·x2 + x1 (x1 < 2), and x0 (1 cc) and x2 (2 cc) share a
        // unit of capacity 1. The first dive lands on max = 4; the re-dive
        // under max ≤ 3 refutes its whole x1 = 0 subtree before reaching
        // x1 = 1, x2 = 1, x0 = 3. A re-dive that stopped on the earlier
        // dive's incumbent would declare 4 optimal.
        let mut m = Model::new();
        let x: Vec<VarId> = (0..3).map(|_| m.new_var(0, 4)).collect();
        m.cumulative(
            vec![
                CumTask {
                    start: x[0],
                    dur: 1,
                    req: 1,
                },
                CumTask {
                    start: x[2],
                    dur: 2,
                    req: 1,
                },
            ],
            1,
        );
        m.mod_channel(x[0], x[2], x[1], 2);
        let obj = m.new_var(0, 4);
        m.max_of(x.clone(), obj);
        let cfg = SearchConfig {
            phases: vec![Phase::new(x, VarSel::SmallestMin)],
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(r.status, SearchStatus::Optimal);
        assert_eq!(r.objective, Some(3));
    }
}
