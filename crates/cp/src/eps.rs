//! Embarrassingly-parallel search (EPS) inside a single hard instance.
//!
//! EPS parallelizes across the *tree*: the root CSP is decomposed into
//! many subproblems by fixing a prefix of branching decisions (30–100×
//! more subproblems than workers, so the pool self-balances), and a
//! worker pool drains them in order. Régin, Rezgui & Malapert ("EPS",
//! CP'13) observed that with enough subproblems the per-subproblem
//! solve-time variance averages out and near-linear speedups follow
//! without any work stealing.
//!
//! # Determinism contract
//!
//! Subproblems are generated in **lexicographic branching order**: the
//! splitter picks variables with the exact DFS heuristic
//! (`select_phase_var`) and emits children in the phase's value order, so
//! the concatenation of subproblem subtrees *is* the sequential DFS tree.
//! For satisfaction search the winner is the **lowest-index** subproblem
//! containing a solution; every index below it is refuted to completion
//! before the result is trusted (`completed`), hence the returned
//! solution is byte-identical to the sequential first solution no matter
//! how many workers run or how the OS schedules them. Subproblems above
//! the winner are cancelled via [`CancelToken`] — their statistics vary
//! run-to-run (they are reported per-outcome so callers can segregate
//! them from deterministic fields), but the *answer* never does.
//!
//! For minimization ([`eps_minimize`]) the optimum *value* is already
//! deterministic with a shared incumbent bound (a subproblem holding the
//! global optimum can only be pruned by an equal-valued incumbent), but
//! the witness is not; a second pass re-solves under `obj ≤ v*` as a
//! satisfaction EPS, making the witness the lexicographically-first
//! optimal solution.

use crate::cancel::{deadline_after, CancelToken};
use crate::model::Model;
use crate::search::{
    minimize, select_phase_var, solve, SearchConfig, SearchResult, SearchStats, SearchStatus,
    ValSel,
};
use crate::store::VarId;
use crate::trace::{MemorySink, SearchEvent, TraceHandle};
use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One replayable branching decision, applied at the root of a fresh
/// model copy followed by a propagation fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// `var = val` — a value-enumeration child (Min/Max phases).
    Fix(VarId, i32),
    /// `var ≤ val` — the lower half of a split.
    Leq(VarId, i32),
    /// `var ≥ val` — the upper half of a split.
    Geq(VarId, i32),
}

/// A subproblem: the root CSP plus a prefix of branching decisions.
#[derive(Clone, Debug, Default)]
pub struct Subproblem {
    pub decisions: Vec<Decision>,
}

impl Subproblem {
    fn child(&self, d: Decision) -> Subproblem {
        let mut decisions = Vec::with_capacity(self.decisions.len() + 1);
        decisions.extend_from_slice(&self.decisions);
        decisions.push(d);
        Subproblem { decisions }
    }
}

/// Knobs for the decomposition and the worker pool.
#[derive(Clone, Debug)]
pub struct EpsConfig {
    /// Worker threads draining the subproblem queue.
    pub jobs: usize,
    /// Target subproblem count ≈ `split_factor × jobs`. The classic EPS
    /// sweet spot is 30–100 subproblems per worker.
    pub split_factor: usize,
    /// Hard cap on decision-prefix length; the splitter stops expanding
    /// once every frontier node is this deep.
    pub max_split_depth: usize,
    /// Value-enumeration width above which the splitter bisects the
    /// domain instead of emitting one child per value, so a single wide
    /// variable cannot explode the frontier.
    pub max_enum_width: usize,
    /// First-SAT racing: the first solution found anywhere cancels
    /// *every* other subproblem (not just higher indices) and the pass
    /// returns immediately with status `Feasible`. This trades the
    /// lexicographic-witness guarantee for latency — the *answer* is
    /// still a genuine solution, but *which* one varies run-to-run.
    /// Off by default; the canonical mode refutes everything below the
    /// winner before trusting it.
    pub race: bool,
}

impl Default for EpsConfig {
    fn default() -> Self {
        EpsConfig {
            jobs: 4,
            split_factor: 30,
            max_split_depth: 12,
            max_enum_width: 16,
            race: false,
        }
    }
}

/// What happened to one subproblem, in lexicographic order.
#[derive(Clone, Copy, Debug)]
pub struct SubproblemOutcome {
    pub index: usize,
    pub status: SearchStatus,
    pub objective: Option<i32>,
    /// Subtree exhausted (refutation or optimality proof is trustworthy).
    pub completed: bool,
    /// Stopped by the pool because a lower-index subproblem already won.
    pub cancelled: bool,
    /// Worker that ran it (informational; varies run-to-run).
    pub worker: usize,
    pub stats: SearchStats,
}

/// Per-worker accounting (informational; assignment varies run-to-run).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    pub subproblems: u64,
    pub nodes: u64,
    pub fails: u64,
    pub busy: std::time::Duration,
}

/// Full accounting for one EPS run.
#[derive(Clone, Debug)]
pub struct EpsReport {
    /// Subproblems handed to the pool (after split-time refutations).
    pub subproblems: usize,
    /// Deepest decision prefix the splitter produced.
    pub split_depth: usize,
    /// Subproblems refuted during splitting (never reached the pool).
    pub split_pruned: u64,
    /// Winning subproblem index (lexicographic), if any solution.
    pub winner: Option<usize>,
    /// One entry per subproblem, sorted by index.
    pub outcomes: Vec<SubproblemOutcome>,
    /// One entry per worker.
    pub workers: Vec<WorkerStats>,
}

/// A closure building a fresh model + search config. Models own boxed
/// propagators and are not `Clone`, so EPS rebuilds the model per
/// subproblem.
pub type EpsBuilder<'a> = dyn Fn() -> (Model, SearchConfig) + Sync + 'a;

/// Apply one decision and run propagation to fixpoint; `false` = refuted.
fn apply(model: &mut Model, d: Decision) -> bool {
    let ok = match d {
        Decision::Fix(v, x) => model.store.fix(v, x).is_ok(),
        Decision::Leq(v, x) => model.store.remove_above(v, x).is_ok(),
        Decision::Geq(v, x) => model.store.remove_below(v, x).is_ok(),
    };
    ok && model.engine.fixpoint(&mut model.store).is_ok()
}

fn replay(model: &mut Model, sp: &Subproblem) -> bool {
    sp.decisions.iter().all(|&d| apply(model, d))
}

/// Level-synchronous breadth-first decomposition. Each pass replays every
/// frontier prefix on `model` (under a backtrack level), branches it one
/// decision deeper with the DFS heuristics, and drops refuted children.
/// Children are emitted in the phase's value order and replace their
/// parent in place, so the frontier stays in lexicographic DFS order by
/// construction. Returns `(subproblems, refuted_during_split, depth)`.
fn split(
    model: &mut Model,
    config: &SearchConfig,
    target: usize,
    eps: &EpsConfig,
) -> (Vec<Subproblem>, u64, usize) {
    let phases = &config.phases;
    let mut frontier = vec![Subproblem::default()];
    let mut pruned = 0u64;
    let mut depth = 0usize;
    while frontier.len() < target && depth < eps.max_split_depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        let mut expanded = false;
        for sp in frontier.drain(..) {
            model.store.push_level();
            if !replay(model, &sp) {
                pruned += 1;
                model.store.pop_level();
                continue;
            }
            match select_phase_var(&model.store, phases) {
                // Fully fixed already: a (trivial) subproblem of its own.
                None => next.push(sp),
                Some((pi, var)) => {
                    expanded = true;
                    let dom = model.store.dom(var);
                    let wide = dom.size() > eps.max_enum_width as u64;
                    match phases[pi].val_sel {
                        // Bisection keeps the value order of the phase:
                        // Min explores the low half first, Max the high.
                        ValSel::Min if wide => {
                            let mid = dom.split_point();
                            next.push(sp.child(Decision::Leq(var, mid)));
                            next.push(sp.child(Decision::Geq(var, mid + 1)));
                        }
                        ValSel::Max if wide => {
                            let mid = dom.split_point();
                            next.push(sp.child(Decision::Geq(var, mid + 1)));
                            next.push(sp.child(Decision::Leq(var, mid)));
                        }
                        ValSel::Min => {
                            for v in dom.iter().collect::<Vec<_>>() {
                                next.push(sp.child(Decision::Fix(var, v)));
                            }
                        }
                        ValSel::Max => {
                            let mut vals: Vec<i32> = dom.iter().collect();
                            vals.reverse();
                            for v in vals {
                                next.push(sp.child(Decision::Fix(var, v)));
                            }
                        }
                        ValSel::Split => {
                            let mid = dom.split_point();
                            next.push(sp.child(Decision::Leq(var, mid)));
                            next.push(sp.child(Decision::Geq(var, mid + 1)));
                        }
                    }
                }
            }
            model.store.pop_level();
        }
        frontier = next;
        depth += 1;
        if !expanded {
            break;
        }
    }
    (frontier, pruned, depth)
}

fn refuted_at_replay() -> SearchResult {
    SearchResult {
        status: SearchStatus::Infeasible,
        best: None,
        objective: None,
        stats: SearchStats::default(),
        completed: true,
        cancelled: false,
    }
}

/// The shared pool state for one satisfaction pass.
struct Pool<'a> {
    subs: &'a [Subproblem],
    tokens: Vec<CancelToken>,
    next: AtomicUsize,
    /// Lowest subproblem index known to contain a solution.
    first_sat: AtomicUsize,
    /// Global wall-clock deadline for the whole pass: the builder's
    /// `timeout` bounds the *entire* EPS run, not each subproblem —
    /// otherwise a 30×-decomposed instance could run 30× its budget.
    deadline: Option<Instant>,
    /// First-SAT racing ([`EpsConfig::race`]): a win cancels everything.
    race: bool,
    results: Mutex<Vec<(usize, usize, SearchResult)>>, // (index, worker, result)
    /// Buffered per-subproblem event streams (when the builder's config
    /// carries a trace), re-emitted in index order after the pool.
    traces: Mutex<Vec<(usize, Vec<SearchEvent>)>>,
    /// The builder's original sink, captured from the first subproblem
    /// that ran (every builder call clones the same underlying handle).
    original_trace: Mutex<Option<TraceHandle>>,
}

impl<'a> Pool<'a> {
    fn new(subs: &'a [Subproblem], deadline: Option<Instant>, race: bool) -> Self {
        Pool {
            subs,
            tokens: subs.iter().map(|_| CancelToken::new()).collect(),
            next: AtomicUsize::new(0),
            first_sat: AtomicUsize::new(usize::MAX),
            deadline,
            race,
            results: Mutex::new(Vec::new()),
            traces: Mutex::new(Vec::new()),
            original_trace: Mutex::new(None),
        }
    }

    fn record(&self, index: usize, worker: usize, r: SearchResult) {
        self.results
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((index, worker, r));
    }

    /// Claim the win for `index`; cancels every higher in-flight index.
    /// Lower indices keep running — the contract needs them refuted —
    /// unless racing, where the first win stops the whole pool and the
    /// merge reports a non-canonical `Feasible`.
    fn claim_sat(&self, index: usize) {
        let prev = self.first_sat.fetch_min(index, Ordering::AcqRel);
        if index < prev {
            for t in &self.tokens[index + 1..] {
                t.cancel();
            }
        }
        if self.race {
            for (j, t) in self.tokens.iter().enumerate() {
                if j != index {
                    t.cancel();
                }
            }
        }
    }

    /// Worker loop: claim indices bottom-up; solve each subproblem on a
    /// fresh model; skip (as cancelled) indices above the current winner.
    fn work(
        &self,
        worker: usize,
        builder: &EpsBuilder<'_>,
        outer_cancel: Option<&CancelToken>,
        extra: &[Decision],
    ) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.subs.len() {
                return;
            }
            if outer_cancel.is_some_and(|c| c.is_cancelled()) {
                for t in &self.tokens {
                    t.cancel();
                }
            }
            if i > self.first_sat.load(Ordering::Acquire) || self.tokens[i].is_cancelled() {
                let mut r = refuted_at_replay();
                r.status = SearchStatus::Unknown;
                r.completed = false;
                r.cancelled = true;
                self.record(i, worker, r);
                continue;
            }
            let remaining = self
                .deadline
                .map(|dl| dl.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|r| r.is_zero()) {
                let mut r = refuted_at_replay();
                r.status = SearchStatus::Unknown;
                r.completed = false;
                self.record(i, worker, r);
                continue;
            }
            let (mut model, mut cfg) = builder();
            cfg.cancel = Some(self.tokens[i].clone());
            // Forwarding live events would interleave workers
            // nondeterministically, so each subproblem records into its
            // own buffer; `forward_traces` re-emits them in index order
            // behind `Stream { id: index }` markers after the pool.
            let buffer = cfg.trace.take().map(|original| {
                let mut slot = self
                    .original_trace
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(original);
                drop(slot);
                let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
                cfg.trace = Some(TraceHandle::new(Arc::clone(&sink)));
                sink
            });
            if let Some(rem) = remaining {
                cfg.timeout = Some(cfg.timeout.map_or(rem, |t| t.min(rem)));
            }
            let consistent =
                replay(&mut model, &self.subs[i]) && extra.iter().all(|&d| apply(&mut model, d));
            let r = if consistent {
                solve(&mut model, &cfg)
            } else {
                refuted_at_replay()
            };
            if let Some(sink) = buffer {
                // A prefix refuted during replay never searched: it still
                // gets an (empty) stream so the merged trace covers every
                // subproblem index deterministically.
                let events: Vec<SearchEvent> = sink
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .events
                    .drain(..)
                    .collect();
                self.traces
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, events));
            }
            if r.is_sat() {
                self.claim_sat(i);
            }
            self.record(i, worker, r);
        }
    }

    /// Re-emit the buffered per-subproblem streams to the builder's
    /// original sink, in index order, each preceded by a
    /// [`SearchEvent::Stream`] marker carrying the subproblem index.
    /// Streams above the winning index are dropped: those subproblems
    /// were cancelled mid-flight and their event counts vary run-to-run,
    /// while everything up to the winner is refuted (or solved) to
    /// completion and therefore identical under any `jobs` count.
    fn forward_traces(&self) {
        let Some(handle) = self
            .original_trace
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        else {
            return;
        };
        let winner = {
            let results = self.results.lock().unwrap_or_else(|e| e.into_inner());
            results
                .iter()
                .filter(|(_, _, r)| r.is_sat())
                .map(|(i, _, _)| *i)
                .min()
        };
        let mut traces = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        traces.sort_by_key(|(i, _)| *i);
        for (i, events) in traces.iter() {
            if winner.is_some_and(|w| *i > w) {
                continue;
            }
            handle.emit(&SearchEvent::Stream { id: *i as u32 });
            for e in events {
                handle.emit(e);
            }
        }
        handle.flush();
    }
}

/// Merge pool results into (result, report) under the lex-first-SAT rule.
fn merge_satisfaction(
    pool: Pool<'_>,
    split_pruned: u64,
    split_depth: usize,
    jobs: usize,
    t0: Instant,
) -> (SearchResult, EpsReport) {
    let mut raw = pool.results.into_inner().unwrap_or_else(|e| e.into_inner());
    raw.sort_by_key(|(idx, _, _)| *idx);

    let winner = raw
        .iter()
        .position(|(_, _, r)| r.is_sat())
        .map(|p| raw[p].0);
    // The winner is canonical only once everything below it is refuted to
    // completion; a timeout below the winner means "a solution, but maybe
    // not the sequential-first one".
    let below_complete = |w: usize| {
        raw.iter()
            .take_while(|(i, _, _)| *i < w)
            .all(|(_, _, r)| r.completed && !r.is_sat())
    };

    let mut workers = vec![WorkerStats::default(); jobs];
    let mut outcomes = Vec::with_capacity(raw.len());
    let mut stats = SearchStats::default();
    for (idx, w, r) in &raw {
        stats.nodes += r.stats.nodes;
        stats.fails += r.stats.fails;
        stats.solutions += r.stats.solutions;
        stats.propagations += r.stats.propagations;
        stats.max_depth = stats.max_depth.max(r.stats.max_depth);
        if let Some(ws) = workers.get_mut(*w) {
            ws.subproblems += 1;
            ws.nodes += r.stats.nodes;
            ws.fails += r.stats.fails;
            ws.busy += r.stats.time;
        }
        outcomes.push(SubproblemOutcome {
            index: *idx,
            status: r.status,
            objective: r.objective,
            completed: r.completed,
            cancelled: r.cancelled,
            worker: *w,
            stats: r.stats,
        });
    }
    stats.time = t0.elapsed();

    let result = match winner {
        Some(wi) => {
            let canonical = below_complete(wi);
            let pos = raw.iter().position(|(i, _, _)| *i == wi).unwrap();
            let (_, _, win) = raw.swap_remove(pos);
            SearchResult {
                status: if canonical {
                    SearchStatus::Optimal
                } else {
                    SearchStatus::Feasible
                },
                best: win.best,
                objective: win.objective,
                stats,
                completed: canonical,
                cancelled: false,
            }
        }
        None => {
            let all_complete = raw.iter().all(|(_, _, r)| r.completed);
            let any_cancelled = raw.iter().any(|(_, _, r)| r.cancelled);
            SearchResult {
                status: if all_complete {
                    SearchStatus::Infeasible
                } else {
                    SearchStatus::Unknown
                },
                best: None,
                objective: None,
                stats,
                completed: all_complete,
                cancelled: any_cancelled,
            }
        }
    };
    let report = EpsReport {
        subproblems: pool.subs.len(),
        split_depth,
        split_pruned,
        winner,
        outcomes,
        workers,
    };
    (result, report)
}

/// Bookkeeping threaded from the decomposition into one pool pass.
struct PassCtx {
    split_pruned: u64,
    split_depth: usize,
    t0: Instant,
    /// Global deadline derived from the builder's `timeout` at pass start.
    deadline: Option<Instant>,
}

fn run_satisfaction_pool(
    builder: &EpsBuilder<'_>,
    subs: &[Subproblem],
    eps: &EpsConfig,
    outer_cancel: Option<&CancelToken>,
    extra: &[Decision],
    ctx: PassCtx,
) -> (SearchResult, EpsReport) {
    let pool = Pool::new(subs, ctx.deadline, eps.race);
    let jobs = eps.jobs.max(1);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let pool = &pool;
            scope.spawn(move || pool.work(w, builder, outer_cancel, extra));
        }
    });
    pool.forward_traces();
    merge_satisfaction(pool, ctx.split_pruned, ctx.split_depth, jobs, ctx.t0)
}

/// Satisfaction EPS: decompose, drain with `jobs` workers, return the
/// lexicographically-first solution (identical to a sequential
/// [`solve`] whenever nothing times out — see the module docs).
///
/// The builder's `SearchConfig` supplies phases, budgets and an optional
/// *outer* cancellation token (checked between subproblems; each
/// subproblem additionally runs under its own pool-managed token). Its
/// `timeout` is interpreted as a **global** wall-clock budget for the
/// whole EPS pass: each claimed subproblem runs with the remaining time,
/// and once the deadline passes the rest are recorded as `Unknown`.
pub fn eps_solve(builder: &EpsBuilder<'_>, eps: &EpsConfig) -> (SearchResult, EpsReport) {
    let t0 = Instant::now();
    let (mut split_model, cfg) = builder();
    let empty_report = |n, d, p| EpsReport {
        subproblems: n,
        split_depth: d,
        split_pruned: p,
        winner: None,
        outcomes: Vec::new(),
        workers: vec![WorkerStats::default(); eps.jobs.max(1)],
    };
    if split_model.engine.fixpoint(&mut split_model.store).is_err() {
        let mut r = refuted_at_replay();
        r.stats.time = t0.elapsed();
        return (r, empty_report(0, 0, 1));
    }
    let target = eps.split_factor.max(1) * eps.jobs.max(1);
    let (subs, split_pruned, split_depth) = split(&mut split_model, &cfg, target, eps);
    drop(split_model);
    if subs.is_empty() {
        // Every branch refuted during decomposition: a complete proof.
        let mut r = refuted_at_replay();
        r.stats.time = t0.elapsed();
        return (r, empty_report(0, split_depth, split_pruned));
    }
    run_satisfaction_pool(
        builder,
        &subs,
        eps,
        cfg.cancel.as_ref(),
        &[],
        PassCtx {
            split_pruned,
            split_depth,
            t0,
            deadline: cfg.timeout.and_then(|t| deadline_after(t0, t)),
        },
    )
}

/// Minimization EPS in two passes.
///
/// **Pass A** drains the subproblems with branch-and-bound under a shared
/// [`AtomicI32`] incumbent ([`SearchConfig::shared_bound`]): the optimum
/// *value* this yields is deterministic, because the subproblem holding
/// the global optimum can only ever be pruned by an equal-valued
/// incumbent. **Pass B** re-runs a satisfaction EPS with `obj ≤ v*`
/// appended to every prefix, so the returned *witness* is the
/// lexicographically-first optimal solution — again run-invariant.
pub fn eps_minimize(
    builder: &(dyn Fn() -> (Model, VarId, SearchConfig) + Sync),
    eps: &EpsConfig,
) -> (SearchResult, EpsReport) {
    let t0 = Instant::now();
    let (mut split_model, _obj, cfg) = builder();
    let sat_builder = |bound: Option<i32>| {
        move || {
            let (mut m, o, mut c) = builder();
            if let Some(b) = bound {
                let _ = m.store.remove_above(o, b);
            }
            c.shared_bound = None;
            (m, c)
        }
    };
    if split_model.engine.fixpoint(&mut split_model.store).is_err() {
        let mut r = refuted_at_replay();
        r.stats.time = t0.elapsed();
        let report = EpsReport {
            subproblems: 0,
            split_depth: 0,
            split_pruned: 1,
            winner: None,
            outcomes: Vec::new(),
            workers: vec![WorkerStats::default(); eps.jobs.max(1)],
        };
        return (r, report);
    }
    let target = eps.split_factor.max(1) * eps.jobs.max(1);
    let (subs, split_pruned, split_depth) = split(&mut split_model, &cfg, target, eps);
    drop(split_model);
    if subs.is_empty() {
        let mut r = refuted_at_replay();
        r.stats.time = t0.elapsed();
        let report = EpsReport {
            subproblems: 0,
            split_depth,
            split_pruned,
            winner: None,
            outcomes: Vec::new(),
            workers: vec![WorkerStats::default(); eps.jobs.max(1)],
        };
        return (r, report);
    }

    // Pass A: bound discovery under a shared incumbent. The builder's
    // `timeout` is a global budget for the whole minimization (both
    // passes), enforced by handing each subproblem only the remainder.
    let deadline = cfg.timeout.and_then(|t| deadline_after(t0, t));
    let shared = Arc::new(AtomicI32::new(i32::MAX));
    let jobs = eps.jobs.max(1);
    let next = AtomicUsize::new(0);
    let pass_a: Mutex<Vec<(usize, SearchResult)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let shared = Arc::clone(&shared);
            let next = &next;
            let pass_a = &pass_a;
            let subs = &subs;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= subs.len() {
                    return;
                }
                let remaining = deadline.map(|dl| dl.saturating_duration_since(Instant::now()));
                if remaining.is_some_and(|r| r.is_zero()) {
                    let mut r = refuted_at_replay();
                    r.status = SearchStatus::Unknown;
                    r.completed = false;
                    pass_a
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((i, r));
                    continue;
                }
                let (mut model, o, mut c) = builder();
                c.shared_bound = Some(Arc::clone(&shared));
                // Pass A explores under a timing-dependent shared
                // incumbent; its streams are inherently nondeterministic
                // and are not traced. Pass B (the canonical witness pass)
                // carries the trace.
                c.trace = None;
                if let Some(rem) = remaining {
                    c.timeout = Some(c.timeout.map_or(rem, |t| t.min(rem)));
                }
                let r = if replay(&mut model, &subs[i]) {
                    minimize(&mut model, o, &c)
                } else {
                    refuted_at_replay()
                };
                pass_a
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((i, r));
            });
        }
    });
    let mut a = pass_a.into_inner().unwrap_or_else(|e| e.into_inner());
    a.sort_by_key(|(i, _)| *i);
    let all_complete = a.iter().all(|(_, r)| r.completed);
    let mut a_stats = SearchStats::default();
    for (_, r) in &a {
        a_stats.nodes += r.stats.nodes;
        a_stats.fails += r.stats.fails;
        a_stats.propagations += r.stats.propagations;
        a_stats.max_depth = a_stats.max_depth.max(r.stats.max_depth);
    }
    let best = a.iter().filter_map(|(_, r)| r.objective).min();
    let Some(vstar) = best else {
        let mut r = refuted_at_replay();
        if !all_complete {
            r.status = SearchStatus::Unknown;
            r.completed = false;
        }
        r.stats = a_stats;
        r.stats.time = t0.elapsed();
        let report = EpsReport {
            subproblems: subs.len(),
            split_depth,
            split_pruned,
            winner: None,
            outcomes: Vec::new(),
            workers: vec![WorkerStats::default(); jobs],
        };
        return (r, report);
    };

    // Pass B: deterministic witness under obj ≤ v*.
    let b_builder = sat_builder(Some(vstar));
    let (mut result, mut report) = run_satisfaction_pool(
        &b_builder,
        &subs,
        eps,
        cfg.cancel.as_ref(),
        &[],
        PassCtx {
            split_pruned,
            split_depth,
            t0,
            deadline,
        },
    );
    result.objective = Some(vstar);
    // Pass A's tree exhaustion is the optimality proof; pass B stops at
    // the first witness.
    if result.is_sat() {
        result.status = if all_complete {
            SearchStatus::Optimal
        } else {
            SearchStatus::Feasible
        };
        result.completed = all_complete;
    }
    result.stats.nodes += a_stats.nodes;
    result.stats.fails += a_stats.fails;
    result.stats.propagations += a_stats.propagations;
    result.stats.max_depth = result.stats.max_depth.max(a_stats.max_depth);
    result.stats.time = t0.elapsed();
    report.subproblems = subs.len();
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::alldiff::AllDifferent;
    use crate::props::basic::{MaxOf, NeqOffset, XPlusCLeqY};
    use crate::search::{Phase, VarSel};

    fn queens_builder(n: usize) -> impl Fn() -> (Model, SearchConfig) + Sync {
        move || {
            let mut m = Model::new();
            let cols: Vec<VarId> = (0..n).map(|_| m.new_var(0, n as i32 - 1)).collect();
            m.post(Box::new(AllDifferent::new(cols.clone())));
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = (j - i) as i32;
                    m.post(Box::new(NeqOffset {
                        x: cols[i],
                        y: cols[j],
                        c: d,
                    }));
                    m.post(Box::new(NeqOffset {
                        x: cols[i],
                        y: cols[j],
                        c: -d,
                    }));
                }
            }
            let cfg = SearchConfig {
                phases: vec![Phase::new(cols, VarSel::InputOrder, ValSel::Min)],
                ..Default::default()
            };
            (m, cfg)
        }
    }

    #[test]
    fn eps_matches_sequential_first_solution() {
        for n in [6, 8] {
            let builder = queens_builder(n);
            let (mut m, cfg) = builder();
            let seq = solve(&mut m, &cfg);
            let (par, report) = eps_solve(&builder, &EpsConfig::default());
            assert_eq!(par.status, SearchStatus::Optimal, "n={n}");
            assert!(report.subproblems > 1, "n={n}: should actually decompose");
            let s = seq.best.unwrap();
            let p = par.best.unwrap();
            for i in 0..n as u32 {
                assert_eq!(s.value(VarId(i)), p.value(VarId(i)), "n={n} var {i}");
            }
        }
    }

    #[test]
    fn eps_proves_infeasibility() {
        // 3 queens has no solution.
        let builder = queens_builder(3);
        let (r, _) = eps_solve(&builder, &EpsConfig::default());
        assert_eq!(r.status, SearchStatus::Infeasible);
        assert!(r.completed);
    }

    #[test]
    fn eps_is_deterministic_across_runs_and_job_counts() {
        let builder = queens_builder(8);
        let mut seen: Option<Vec<i32>> = None;
        for jobs in [1, 2, 4, 7] {
            let eps = EpsConfig {
                jobs,
                ..Default::default()
            };
            let (r, _) = eps_solve(&builder, &eps);
            let sol = r.best.expect("8 queens is satisfiable");
            let vals: Vec<i32> = (0..8).map(|i| sol.value(VarId(i))).collect();
            match &seen {
                None => seen = Some(vals),
                Some(prev) => assert_eq!(prev, &vals, "jobs={jobs}"),
            }
        }
    }

    #[test]
    fn eps_minimize_matches_sequential_optimum_and_witness() {
        let builder = || {
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
                phases: vec![Phase::new(starts, VarSel::SmallestMin, ValSel::Min)],
                ..Default::default()
            };
            (m, obj, cfg)
        };
        let (mut m, obj, cfg) = builder();
        let seq = minimize(&mut m, obj, &cfg);
        let (par, _) = eps_minimize(&builder, &EpsConfig::default());
        assert_eq!(par.objective, seq.objective);
        assert_eq!(par.status, SearchStatus::Optimal);
        assert!(par.is_sat());
    }

    #[test]
    fn race_mode_returns_a_genuine_solution() {
        // Racing gives up the lexicographic-witness guarantee, never the
        // soundness one: whatever wins must satisfy every constraint,
        // which we check by replaying the assignment on a fresh model.
        let builder = queens_builder(8);
        let eps = EpsConfig {
            jobs: 4,
            race: true,
            ..Default::default()
        };
        let (r, _) = eps_solve(&builder, &eps);
        let sol = r.best.expect("8 queens is satisfiable");
        let (mut m, _) = builder();
        for i in 0..8u32 {
            assert!(
                m.store.fix(VarId(i), sol.value(VarId(i))).is_ok(),
                "value for var {i} out of domain"
            );
        }
        assert!(
            m.engine.fixpoint(&mut m.store).is_ok(),
            "raced witness violates a constraint"
        );
    }

    #[test]
    fn traced_eps_streams_are_deterministic_and_tagged() {
        // The decomposition targets split_factor × jobs subproblems, so a
        // fixed *target* (not a fixed jobs count) pins the subproblem set;
        // within one decomposition the merged trace must not depend on
        // worker count or scheduling.
        let run = |jobs: usize, split_factor: usize| {
            let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
            let handle = TraceHandle::new(Arc::clone(&sink));
            let base = queens_builder(6);
            let builder = move || {
                let (m, mut cfg) = base();
                cfg.trace = Some(handle.clone());
                (m, cfg)
            };
            let eps = EpsConfig {
                jobs,
                split_factor,
                ..Default::default()
            };
            let (r, report) = eps_solve(&builder, &eps);
            assert!(r.is_sat());
            let events: Vec<SearchEvent> = sink.lock().unwrap().events.iter().cloned().collect();
            (report.winner.unwrap(), events)
        };
        let (w1, e1) = run(4, 30); // target 120
        let (w4, e4) = run(2, 60); // target 120, different worker count
        let (w2, e2) = run(4, 30); // identical rerun
        assert_eq!(w1, w4);
        assert_eq!(w1, w2);
        assert_eq!(e1, e4, "merged EPS trace depends on the worker count");
        assert_eq!(e1, e2, "merged EPS trace differs between identical runs");
        // Every subproblem up to and including the winner contributes one
        // tagged stream, in index order; nothing beyond the winner leaks.
        let ids: Vec<u32> = e1
            .iter()
            .filter_map(|e| match e {
                SearchEvent::Stream { id } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, (0..=w1 as u32).collect::<Vec<_>>());
    }

    #[test]
    fn subproblems_partition_lexicographically() {
        // Splitting must preserve DFS value order at every level.
        let builder = queens_builder(6);
        let (mut m, cfg) = builder();
        assert!(m.engine.fixpoint(&mut m.store).is_ok());
        let eps = EpsConfig::default();
        let (subs, _, depth) = split(&mut m, &cfg, 8, &eps);
        assert!(depth >= 1);
        assert!(subs.len() >= 8);
        // First decisions are non-decreasing in value along the list for
        // the first branching variable (Min order).
        let firsts: Vec<i32> = subs
            .iter()
            .filter_map(|s| match s.decisions.first() {
                Some(Decision::Fix(_, v)) => Some(*v),
                _ => None,
            })
            .collect();
        let mut sorted = firsts.clone();
        sorted.sort();
        assert_eq!(firsts, sorted);
    }
}
