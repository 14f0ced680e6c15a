//! Modulo scheduling as a CSP (§4.3, Table 3).
//!
//! Software pipelining à la Lam: find a schedule that initiates a new
//! iteration every *II* cycles. Each operation gets a window position
//! `t ∈ [0, II)` and a stage `k ≥ 0` with `s = k·II + t`; precedences act
//! on `s`, resource constraints act on `t` (all iterations overlay in the
//! window). The II is sought bottom-up from the resource lower bound —
//! a fresh CSP per candidate II, as the paper does.
//!
//! **Excluding reconfigurations** (the paper's first model): solve for
//! minimal issue-II, then count the vector core's configuration switches
//! around the steady-state window in a post-processing step; each switch
//! stalls the window by `reconfig_cost`, so
//! `actual II = II + #switches·cost` (Table 3: QRD 32+23→55, ARF
//! 16+16→32; MATMUL's single configuration is loaded once outside the
//! steady state, so its actual II stays 4).
//!
//! **Including reconfigurations** (the paper's second model, details
//! omitted there — ours is documented in DESIGN.md §4): operations that
//! share a configuration are constrained to a contiguous *band* of window
//! slots (bands pairwise disjoint), so the window switches configurations
//! exactly once per band; the effective II is then
//! `II_issue + #bands·cost` (cyclically, when more than one band exists),
//! and minimising issue-II under the band constraint minimises the
//! effective II. This trades some issue-packing freedom for far fewer
//! switches — the same trade the paper reports (better throughput, much
//! longer optimisation).

use crate::model::{post_config_separation, post_precedences};
use eit_arch::{ArchSpec, Schedule};
use eit_cp::props::cumulative::CumTask;
use eit_cp::props::diff2::Rect;
use eit_cp::trace::{MemorySink, SearchEvent, TraceHandle};
use eit_cp::{solve, CancelToken, Model, Phase, SearchConfig, SearchStatus, ValSel, VarId, VarSel};
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which decision procedure answers each candidate II of the sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The CP solver (the paper's engine; supports both reconfiguration
    /// models and record/replay).
    #[default]
    Cp,
    /// The CDCL SAT backend (`eit-sat`): order-encoded CNF per candidate
    /// II, exclude-reconfig model only. Every satisfying assignment is
    /// re-checked by both independent verifiers before it is accepted.
    Sat,
    /// Race CP against SAT under child cancellation tokens; the first
    /// backend to find a (verified) schedule wins and cancels the other.
    /// Both sweep the same bottom-up candidate order, so the winning II
    /// is backend-independent — only the attribution varies.
    Race,
}

impl Backend {
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "cp" => Some(Backend::Cp),
            "sat" => Some(Backend::Sat),
            "race" => Some(Backend::Race),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Cp => "cp",
            Backend::Sat => "sat",
            Backend::Race => "race",
        }
    }
}

/// Structured failure of a modulo-scheduling run: the model could not be
/// built or a backend misbehaved. Distinct from the ordinary "no
/// schedule within budget" outcome, which stays `Ok(None)` /
/// [`Option::None`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModuloError {
    /// The graph refers to something the model cannot express — e.g. a
    /// data→data edge, which the SAT encoding refuses. Names the node.
    ModelBuild { node: String, detail: String },
    /// The requested backend cannot serve this configuration (the SAT
    /// encoding covers the exclude-reconfig model only).
    UnsupportedBackend(String),
    /// A backend produced an assignment that one of the independent
    /// verifiers rejected — a solver bug surfaced as data, not a panic.
    BackendDisagreement(String),
    /// The graph's serial horizon on this machine does not fit the
    /// solver's domains.
    TooLarge(String),
}

impl std::fmt::Display for ModuloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModuloError::ModelBuild { node, detail } => {
                write!(f, "model build failed at node '{node}': {detail}")
            }
            ModuloError::UnsupportedBackend(msg) => write!(f, "unsupported backend: {msg}"),
            ModuloError::TooLarge(msg) => write!(f, "{msg}"),
            ModuloError::BackendDisagreement(msg) => {
                write!(f, "backend produced an invalid schedule: {msg}")
            }
        }
    }
}

impl std::error::Error for ModuloError {}

/// Aggregated SAT-solver counters of one sweep, for `eit-run-metrics/1`:
/// summed over the probes at or below the winning II, or over every
/// probe when none won, so they do not depend on `jobs`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SatStats {
    pub vars: u64,
    pub clauses: u64,
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub restarts: u64,
}

impl SatStats {
    fn absorb(&mut self, o: &SatStats) {
        self.vars += o.vars;
        self.clauses += o.clauses;
        self.decisions += o.decisions;
        self.conflicts += o.conflicts;
        self.propagations += o.propagations;
        self.restarts += o.restarts;
    }
}

/// Options for [`modulo_schedule`].
#[derive(Clone, Debug)]
pub struct ModuloOptions {
    /// Model reconfigurations inside the optimisation (second variant).
    pub include_reconfig: bool,
    /// Budget per candidate II.
    pub timeout_per_ii: Duration,
    /// Total budget across the II sweep (the paper's 10 minutes).
    pub total_timeout: Duration,
    /// Worker threads for the speculative II sweep, on every backend. `1`
    /// (the default) probes candidates strictly bottom-up on the calling
    /// thread, as the paper does; `N > 1` probes N candidates
    /// concurrently and cancels the in-flight probes above the lowest
    /// feasible II found. The *answer* is identical either way — see the
    /// determinism contract in DESIGN.md.
    pub jobs: usize,
    /// Structured search-event sink. Each probe buffers its events
    /// privately; after the sweep the streams of every candidate up to
    /// and including the winning II are forwarded in II order, each
    /// prefixed with [`SearchEvent::Stream`]` { id: ii }`. Because
    /// cancellation only ever hits candidates above the winner, the
    /// merged trace is identical under any `jobs` (absent timeouts).
    /// A statically refuted candidate contributes an empty stream.
    pub trace: Option<TraceHandle>,
    /// Emit a [`SearchEvent::StateHash`] digest every N search nodes
    /// inside each probe (`None`/0 = off).
    pub state_hash_every: Option<u64>,
    /// Cooperative cancellation for the whole sweep (service deadlines).
    /// Every probe runs under a [`CancelToken::child`] of this token, so
    /// a request-level deadline stops all in-flight probes while the
    /// sweep keeps its own per-probe cancellation (candidates above a
    /// feasible II) intact. Excluded from
    /// [`crate::rr::modulo_config_string`], like the time budgets.
    pub cancel: Option<CancelToken>,
    /// Restart policy for each probe's satisfaction search (`None` =
    /// plain DFS). Trajectory-shaping, so it **is** part of
    /// [`crate::rr::modulo_config_string`].
    pub restarts: Option<eit_cp::RestartConfig>,
    /// Decision procedure for the sweep: CP (default), SAT, or a race of
    /// the two. Trajectory-shaping, so it joins
    /// [`crate::rr::modulo_config_string`].
    pub backend: Backend,
}

impl Default for ModuloOptions {
    fn default() -> Self {
        ModuloOptions {
            include_reconfig: false,
            timeout_per_ii: Duration::from_secs(60),
            total_timeout: Duration::from_secs(600),
            jobs: 1,
            trace: None,
            state_hash_every: None,
            cancel: None,
            restarts: None,
            backend: Backend::Cp,
        }
    }
}

impl ModuloOptions {
    /// The satisfaction-search config of one CP probe over `phases`. A
    /// probe in the sweep adds its own budget, token and trace buffer on
    /// top; [`crate::rr::replay_modulo`] uses it as is, so a replay
    /// re-drives exactly the search that was recorded.
    pub fn probe_config(&self, phases: Vec<Phase>) -> SearchConfig {
        SearchConfig {
            phases,
            state_hash_every: self.state_hash_every,
            restarts: self.restarts,
            ..Default::default()
        }
    }
}

/// Per-candidate-II accounting of one sweep, in candidate order: one
/// entry per probe a worker started.
#[derive(Clone, Debug)]
pub struct ProbeStat {
    pub ii: i32,
    /// `"feasible"`, `"infeasible"`, `"timeout"`, or `"cancelled"` (the
    /// probe's token was raised first: it was in flight above a winning
    /// II, or the sweep itself was cancelled).
    pub outcome: &'static str,
    /// Search nodes (CP) or decisions (SAT).
    pub nodes: u64,
    /// Search failures (CP) or conflicts (SAT).
    pub fails: u64,
    pub time: Duration,
    /// Worker that ran the probe (0 is the calling thread; with
    /// `jobs > 1` the assignment varies run-to-run).
    pub worker: usize,
}

/// Result of a modulo-scheduling run.
#[derive(Debug)]
pub struct ModuloResult {
    /// Issue window length found by the CSP.
    pub ii_issue: i32,
    /// Steady-state configuration switches per window.
    pub switches: usize,
    /// Effective initiation interval including reconfiguration stalls.
    pub actual_ii: i32,
    /// `1 / actual_ii`.
    pub throughput: f64,
    /// Window position per op node.
    pub t: HashMap<NodeId, i32>,
    /// Stage per op node.
    pub k: HashMap<NodeId, i32>,
    /// Absolute start per node (one iteration).
    pub s: HashMap<NodeId, i32>,
    pub opt_time: Duration,
    /// Some candidate IIs timed out before this solution (result may be
    /// sub-optimal, as the paper reports for QRD's second model).
    pub timed_out: bool,
    /// One entry per probe the sweep started, in candidate order.
    pub probes: Vec<ProbeStat>,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Backend that produced the schedule (`"cp"` or `"sat"` — under
    /// `Backend::Race` this is the winner's attribution).
    pub backend: &'static str,
    /// SAT-solver counters, when the SAT backend ran (its sweep, or its
    /// side of a race — present even if CP won the race).
    pub sat: Option<SatStats>,
}

/// Resource-based lower bound on II: for each unit,
/// `ceil(Σ req·dur / capacity)`, tightened by the vector-memory port
/// bound. (The recurrence bound is 0 — the paper's kernels are
/// feedback-free DAGs.)
///
/// **Port bound.** In steady state every II-cycle window issues exactly
/// one instance of each operation, so the window must stream one
/// iteration's working set through the memory crossbar: each *distinct*
/// vector datum some vector-core op consumes is read at least once, and
/// each vector datum a vector-core op produces is written once. The
/// crossbar sustains at most `max_vector_reads` element reads and
/// `max_vector_writes` element writes per cycle (§2, constraints (8)/(9)),
/// hence `II ≥ ceil(reads / read_ports)` and likewise for writes. Distinct
/// data conservatively under-count the traffic (two ops reading the same
/// datum in different stages touch different iteration instances), so the
/// bound is sound; it already prunes whole candidate IIs from the sweep on
/// port-narrow machine configurations.
pub fn ii_lower_bound(g: &Graph, spec: &ArchSpec) -> i32 {
    // Per-unit work bound, from the unit table: each op contributes
    // width·duration to the unit serving its class, and the unit clears
    // at most `count` of that per cycle.
    let mut unit_bound = 0i64;
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        let work: i64 = g
            .ids()
            .filter_map(|n| {
                let c = OpClass::of(&g.node(n).kind)?;
                classes.contains(&c).then(|| {
                    spec.duration(&g.node(n).kind) as i64
                        * spec.units.class_width(c).unwrap_or(1) as i64
                })
            })
            .sum();
        let cap = (unit.count as i64).max(1);
        unit_bound = unit_bound.max((work + cap - 1) / cap);
    }

    let mut consumed = vec![false; g.len()];
    let mut produced = vec![false; g.len()];
    for n in g.ids() {
        if matches!(g.category(n), Category::VectorOp | Category::MatrixOp) {
            for &d in g.preds(n) {
                if g.category(d) == Category::VectorData {
                    consumed[d.idx()] = true;
                }
            }
            for &d in g.succs(n) {
                if g.category(d) == Category::VectorData {
                    produced[d.idx()] = true;
                }
            }
        }
    }
    let reads = consumed.iter().filter(|&&b| b).count() as i64;
    let writes = produced.iter().filter(|&&b| b).count() as i64;
    let rp = (spec.max_vector_reads as i64).max(1);
    let wp = (spec.max_vector_writes as i64).max(1);
    let port_bound = ((reads + rp - 1) / rp).max((writes + wp - 1) / wp);

    unit_bound.max(port_bound).max(1) as i32
}

/// The vector-core configuration groups of a graph, in first-appearance
/// order.
pub fn config_groups(g: &Graph) -> Vec<(VectorConfig, Vec<NodeId>)> {
    let mut groups: Vec<(VectorConfig, Vec<NodeId>)> = Vec::new();
    for n in g.ids() {
        if let Some(cfg) = g.opcode(n).and_then(|o| o.config()) {
            match groups.iter_mut().find(|(c, _)| *c == cfg) {
                Some((_, v)) => v.push(n),
                None => groups.push((cfg, vec![n])),
            }
        }
    }
    groups
}

/// Count steady-state configuration switches of a window assignment:
/// walk the issuing window slots in order (cyclically) and count config
/// changes.
pub fn count_window_switches(g: &Graph, t: &HashMap<NodeId, i32>) -> usize {
    let mut slots: Vec<(i32, VectorConfig)> = t
        .iter()
        .filter_map(|(&n, &tt)| g.opcode(n).and_then(|o| o.config()).map(|c| (tt, c)))
        .collect();
    slots.sort_by_key(|&(tt, _)| tt);
    slots.dedup();
    if slots.len() <= 1 {
        return 0;
    }
    let mut switches = 0;
    for i in 0..slots.len() {
        let next = (i + 1) % slots.len();
        if slots[i].1 != slots[next].1 {
            switches += 1;
        }
    }
    switches
}

/// Outcome of one candidate II.
#[derive(Debug)]
pub enum IiOutcome {
    /// (t, k, s) assignments.
    Feasible(
        HashMap<NodeId, i32>,
        HashMap<NodeId, i32>,
        HashMap<NodeId, i32>,
    ),
    Infeasible,
    Timeout,
    /// The probe's cancellation token was raised before it could decide
    /// the candidate (in flight above a winner, or the sweep itself was
    /// cancelled; never a refutation proof).
    Cancelled,
    /// The model could not be built for this candidate (malformed graph
    /// — e.g. a data→data edge). II-independent: the sweep aborts with
    /// the structured error instead of probing on.
    Malformed(ModuloError),
}

/// Attempt one candidate II (public so harnesses can probe specific IIs).
pub fn schedule_at_ii(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    include_reconfig: bool,
    budget: Duration,
) -> IiOutcome {
    let opts = ModuloOptions {
        include_reconfig,
        ..Default::default()
    };
    let slot = ProbeSlot {
        ii,
        budget,
        cancel: None,
        trace: None,
    };
    probe_ii(g, spec, &opts, &slot).outcome
}

/// The per-candidate-II CSP with its variable handles, ready to solve.
pub struct ProbeModel {
    pub model: Model,
    /// The probe's phased search (bands → op starts → window → stages →
    /// data, or the bandless subset).
    pub phases: Vec<Phase>,
    /// Window position per op node.
    pub t_var: HashMap<NodeId, VarId>,
    /// Stage per op node.
    pub k_var: HashMap<NodeId, VarId>,
    /// Absolute start per node.
    pub s_var: Vec<VarId>,
}

/// Build the CSP for one candidate II. Returns `Ok(None)` when a static
/// capacity cut already refutes the candidate — no search runs, so a
/// recorded probe stream for such a candidate is empty. Edges (1)/(4)
/// and configurations (3) are posted as in [`crate::model`], over `s` and
/// the window `t`. Every graph the IR accepts builds, so `Err` does not
/// occur; the signature keeps it for callers that match on it.
pub fn build_probe(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    include_reconfig: bool,
) -> Result<Option<ProbeModel>, ModuloError> {
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);
    let cp = g.critical_path(&|n| spec.latency(&g.node(n).kind));
    // Stage bound: latency alone needs cp/ii stages, but the banded model
    // can force a wrap-around (stage increment) at every hop of a
    // dependency chain whose next band lies earlier in the window, so the
    // op-count depth of the graph is the safe additional allowance.
    let op_depth = g.critical_path(&|n| i32::from(g.category(n).is_op()));
    let k_max = cp / ii + if include_reconfig { op_depth } else { 2 };
    let horizon = (k_max + 1) * ii;

    let mut m = Model::new();
    let mut t_var: HashMap<NodeId, VarId> = HashMap::new();
    let mut k_var: HashMap<NodeId, VarId> = HashMap::new();
    let mut s_var: Vec<VarId> = Vec::with_capacity(g.len());

    for n in g.ids() {
        let cat = g.category(n);
        if cat.is_op() {
            // No window wrap-around: the op's occupancy fits inside one
            // window instance.
            let t = m.new_var_named(0, ii - duration(n).max(1), &format!("t_{}", g.node(n).name));
            let k = m.new_var(0, k_max);
            let s = m.new_var(0, horizon);
            // s = ii·k + t, domain-consistent (bounds-only channeling
            // starves the window Cumulative of pruning).
            m.mod_channel(s, k, t, ii);
            t_var.insert(n, t);
            k_var.insert(n, k);
            s_var.push(s);
        } else if g.producer(n).is_none() {
            s_var.push(m.new_const(0));
        } else {
            s_var.push(m.new_var(0, horizon + spec.pipeline_depth()));
        }
    }

    // Precedence / data-start constraints on s.
    post_precedences(&mut m, g, spec, &s_var);

    // Window resource constraints on t: one Cumulative per functional
    // unit of the table, in table order (on the classic table: lanes with
    // matrix req = matrix width, then accelerator and index/merge at
    // capacity 1).
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        let tasks: Vec<CumTask> = g
            .ids()
            .filter(|&n| OpClass::of(&g.node(n).kind).is_some_and(|c| classes.contains(&c)))
            .map(|n| CumTask {
                start: t_var[&n],
                dur: duration(n),
                req: spec
                    .units
                    .class_width(OpClass::of(&g.node(n).kind).unwrap())
                    .unwrap_or(1) as i32,
            })
            .collect();
        if !tasks.is_empty() {
            m.cumulative(tasks, unit.count as i32);
        }
    }

    // One configuration per window slot.
    post_config_separation(&mut m, g, |n| t_var[&n]);

    // Contiguous configuration bands (the include-reconfig model).
    let mut band_vars: Vec<VarId> = Vec::new();
    if include_reconfig {
        let groups = config_groups(g);
        let mut rects = Vec::new();
        let zero = m.new_const(0);
        let one = m.new_const(1);
        let mut len_terms: Vec<(i64, VarId)> = Vec::new();
        for (cfg, members) in &groups {
            let b = m.new_var(0, ii - 1);
            // Static capacity cut: a band must hold its group's issue
            // work — at least ceil(sum req*dur / lanes) slots (time-table
            // filtering cannot see this while the band is still loose).
            let work: i64 = members
                .iter()
                .map(|&op| {
                    let r = if cfg.matrix { spec.n_lanes as i64 } else { 1 };
                    r * duration(op) as i64
                })
                .sum();
            let lanes = spec.n_lanes as i64;
            let need = ((work + lanes - 1) / lanes).max(1) as i32;
            if need > ii {
                return Ok(None);
            }
            let len = m.new_var(need, ii);
            // b + len <= ii
            m.linear_leq(vec![(1, b), (1, len)], ii as i64);
            for &op in members {
                // b <= t_op <= b + len - 1
                m.linear_leq(vec![(1, b), (-1, t_var[&op])], 0);
                m.linear_leq(vec![(1, t_var[&op]), (-1, b), (-1, len)], -1);
            }
            rects.push(Rect {
                origin: [b, zero],
                len: [len, one],
            });
            len_terms.push((1, len));
            band_vars.push(b);
            band_vars.push(len);
        }
        if rects.len() > 1 {
            m.diff2(rects);
        }
        // Bands partition (a subset of) the window: sum len <= II.
        if !len_terms.is_empty() {
            m.linear_leq(len_terms, ii as i64);
        }
    }

    // Search: configuration bands first (they shape the window), then
    // absolute op starts — list-scheduling style, as in the main model —
    // then any window/stage variables propagation left open, then data.
    let t_list: Vec<VarId> = g.ids().filter_map(|n| t_var.get(&n).copied()).collect();
    let k_list: Vec<VarId> = g.ids().filter_map(|n| k_var.get(&n).copied()).collect();
    let op_s: Vec<VarId> = g
        .ids()
        .filter(|&n| g.category(n).is_op())
        .map(|n| s_var[n.idx()])
        .collect();
    let data_s: Vec<VarId> = g
        .ids()
        .filter(|&n| g.category(n).is_data())
        .map(|n| s_var[n.idx()])
        .collect();
    let mut phases = Vec::new();
    if !band_vars.is_empty() {
        phases.push(Phase::new(band_vars, VarSel::InputOrder, ValSel::Min));
        phases.push(Phase::new(op_s, VarSel::SmallestMin, ValSel::Min));
        phases.push(Phase::new(t_list, VarSel::FirstFail, ValSel::Min));
        phases.push(Phase::new(k_list, VarSel::SmallestMin, ValSel::Min));
    } else {
        phases.push(Phase::new(t_list, VarSel::FirstFail, ValSel::Min));
        phases.push(Phase::new(k_list, VarSel::SmallestMin, ValSel::Min));
    }
    phases.push(Phase::new(data_s, VarSel::SmallestMin, ValSel::Min));

    Ok(Some(ProbeModel {
        model: m,
        phases,
        t_var,
        k_var,
        s_var,
    }))
}

/// What the sweep driver hands one probe: the candidate, its share of
/// the budget, its own cancellation token and, when the sweep is traced,
/// a private event buffer.
struct ProbeSlot {
    ii: i32,
    budget: Duration,
    cancel: Option<CancelToken>,
    trace: Option<TraceHandle>,
}

/// One probe's answer. `nodes`/`fails` are search nodes and failures for
/// CP, decisions and conflicts for SAT; `sat` carries the SAT counters.
struct Probed {
    outcome: IiOutcome,
    nodes: u64,
    fails: u64,
    sat: Option<SatStats>,
}

impl Probed {
    /// A probe that decided nothing by search (refuted statically,
    /// malformed, or cancelled before it started solving).
    fn bare(outcome: IiOutcome) -> Probed {
        Probed {
            outcome,
            nodes: 0,
            fails: 0,
            sat: None,
        }
    }
}

/// The CP probe: build the candidate's CSP and run its satisfaction
/// search under the slot's budget, token and trace buffer.
fn probe_ii(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions, slot: &ProbeSlot) -> Probed {
    let pm = match build_probe(g, spec, slot.ii, opts.include_reconfig) {
        Ok(Some(pm)) => pm,
        Ok(None) => return Probed::bare(IiOutcome::Infeasible),
        Err(e) => return Probed::bare(IiOutcome::Malformed(e)),
    };
    let ProbeModel {
        mut model,
        phases,
        t_var,
        k_var,
        s_var,
    } = pm;
    let cfg = SearchConfig {
        timeout: Some(slot.budget),
        cancel: slot.cancel.clone(),
        trace: slot.trace.clone(),
        ..opts.probe_config(phases)
    };
    let r = solve(&mut model, &cfg);
    let outcome = match r.status {
        SearchStatus::Optimal | SearchStatus::Feasible => {
            let sol = r.best.unwrap();
            let t_out = t_var.iter().map(|(&n, &v)| (n, sol.value(v))).collect();
            let k_out = k_var.iter().map(|(&n, &v)| (n, sol.value(v))).collect();
            let s_out = g.ids().map(|n| (n, sol.value(s_var[n.idx()]))).collect();
            IiOutcome::Feasible(t_out, k_out, s_out)
        }
        SearchStatus::Infeasible => IiOutcome::Infeasible,
        SearchStatus::Unknown if r.cancelled => IiOutcome::Cancelled,
        SearchStatus::Unknown => IiOutcome::Timeout,
    };
    Probed {
        outcome,
        nodes: r.stats.nodes,
        fails: r.stats.fails,
        sat: None,
    }
}

/// The SAT probe: encode the candidate straight into a fresh CDCL
/// solver, solve it, and decode a model. The caller still runs both
/// verifiers on the winner before accepting it.
fn sat_probe(g: &Graph, spec: &ArchSpec, slot: &ProbeSlot) -> Probed {
    let deadline = eit_cp::deadline_after(Instant::now(), slot.budget);
    let cancelled = || slot.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut solver = eit_sat::Solver::new();
    let decoder = match eit_sat::encode_modulo_into(g, spec, slot.ii, &mut solver) {
        Ok(Some(decoder)) => decoder,
        Ok(None) => {
            return Probed {
                sat: Some(SatStats::default()),
                ..Probed::bare(IiOutcome::Infeasible)
            }
        }
        Err(e) => {
            return Probed::bare(IiOutcome::Malformed(ModuloError::ModelBuild {
                node: e.node,
                detail: e.detail,
            }))
        }
    };
    let mut sat = SatStats {
        vars: u64::from(decoder.vars),
        clauses: decoder.clauses,
        ..Default::default()
    };
    // A cancelled probe (a race that CP already won, an expired
    // deadline, a candidate above the winner) stops here, at the
    // solver's bounded polls, or once a model turns up; a model found
    // after cancellation is not decoded.
    if cancelled() {
        return Probed {
            sat: Some(sat),
            ..Probed::bare(IiOutcome::Cancelled)
        };
    }
    let mut stop = || deadline.is_some_and(|d| Instant::now() >= d) || cancelled();
    let out = solver.solve(&mut stop);
    let st = &solver.stats;
    sat.decisions = st.decisions;
    sat.conflicts = st.conflicts;
    sat.propagations = st.propagations;
    sat.restarts = st.restarts;
    let outcome = match out {
        eit_sat::SolveOutcome::Sat if cancelled() => IiOutcome::Cancelled,
        eit_sat::SolveOutcome::Sat => {
            let (t, k, s) = decoder.decode(g, spec, &|v| solver.model_value(v));
            IiOutcome::Feasible(t, k, s)
        }
        eit_sat::SolveOutcome::Unsat => IiOutcome::Infeasible,
        eit_sat::SolveOutcome::Stopped if cancelled() => IiOutcome::Cancelled,
        eit_sat::SolveOutcome::Stopped => IiOutcome::Timeout,
    };
    Probed {
        outcome,
        nodes: sat.decisions,
        fails: sat.conflicts,
        sat: Some(sat),
    }
}

/// Count the steady-state switches and assemble a [`ModuloResult`] for a
/// feasible probe at `ii`. `probes` is the sweep's record in candidate
/// order; a timeout below `ii` marks the result as possibly sub-optimal.
/// The caller attaches the SAT counters.
fn assemble_result(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
    ii: i32,
    (t, k, s): (
        HashMap<NodeId, i32>,
        HashMap<NodeId, i32>,
        HashMap<NodeId, i32>,
    ),
    opt_time: Duration,
    probes: Vec<ProbeStat>,
) -> ModuloResult {
    let switches = if opts.include_reconfig {
        let groups = config_groups(g).len();
        if groups > 1 {
            groups
        } else {
            0
        }
    } else {
        count_window_switches(g, &t)
    };
    let actual = ii + switches as i32 * spec.reconfig_cost;
    let timed_out = probes.iter().any(|p| p.ii < ii && p.outcome == "timeout");
    ModuloResult {
        ii_issue: ii,
        switches,
        actual_ii: actual,
        throughput: 1.0 / actual as f64,
        t,
        k,
        s,
        opt_time,
        timed_out,
        probes,
        jobs: opts.jobs.max(1),
        backend: opts.backend.as_str(),
        sat: None,
    }
}

fn outcome_str(o: &IiOutcome) -> &'static str {
    match o {
        IiOutcome::Feasible(..) => "feasible",
        IiOutcome::Infeasible => "infeasible",
        IiOutcome::Timeout => "timeout",
        IiOutcome::Cancelled => "cancelled",
        IiOutcome::Malformed(_) => "malformed",
    }
}

/// Forward buffered per-probe event streams to the sweep's sink, each
/// prefixed with a `Stream` marker carrying the candidate II. The caller
/// passes only candidates up to and including the winner, in II order,
/// so the merged stream is identical under any `jobs`.
fn forward_probe_streams<'a>(
    handle: &TraceHandle,
    streams: impl IntoIterator<Item = (i32, &'a [SearchEvent])>,
) {
    for (ii, events) in streams {
        handle.emit(&SearchEvent::Stream { id: ii as u32 });
        for e in events {
            handle.emit(e);
        }
    }
    handle.flush();
}

/// Sweep II upward from the resource bound; return the first feasible
/// modulo schedule under the chosen reconfiguration model.
///
/// With `opts.jobs > 1` the sweep is *speculative*: workers claim
/// candidate IIs bottom-up and probe them concurrently; a feasible probe
/// at II = v cancels the in-flight probes above v (they can no longer
/// win), while candidates *below* a feasible one are always resolved
/// genuinely — feasibility is not monotone in II for this CSP (a banded
/// window can admit II = v yet refute II = v+1), so an infeasible probe
/// never cancels anything. The winning II is therefore the minimum
/// feasible candidate exactly as with one worker, and the winning probe's
/// schedule is bit-identical (it ran to a natural stop under its own
/// deterministic search — cancellation only ever hits candidates above
/// the winner). The same holds for every backend.
///
/// This is the `Option`-shaped convenience wrapper around
/// [`modulo_schedule_checked`]: structured failures (malformed graph,
/// unsupported backend, backend disagreement) collapse into `None`.
/// Call the checked variant when the diagnostic matters.
pub fn modulo_schedule(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> Option<ModuloResult> {
    modulo_schedule_checked(g, spec, opts).ok().flatten()
}

/// As [`modulo_schedule`], with structured errors kept apart from the
/// ordinary "no schedule within budget" (`Ok(None)`) outcome, and with
/// the backend dispatch: CP sweep, SAT sweep, or a race of the two.
pub fn modulo_schedule_checked(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<ModuloResult>, ModuloError> {
    crate::model::checked_horizon(g, spec).map_err(ModuloError::TooLarge)?;
    match opts.backend {
        Backend::Cp => modulo_schedule_cp(g, spec, opts),
        Backend::Sat => {
            check_sat_supported(opts)?;
            modulo_schedule_sat(g, spec, opts).map(|(r, _)| r)
        }
        Backend::Race => {
            check_sat_supported(opts)?;
            modulo_schedule_race(g, spec, opts)
        }
    }
}

fn check_sat_supported(opts: &ModuloOptions) -> Result<(), ModuloError> {
    if opts.include_reconfig {
        return Err(ModuloError::UnsupportedBackend(
            "the SAT encoding covers the exclude-reconfig modulo model only; \
             use the cp backend for --modulo incl"
                .into(),
        ));
    }
    Ok(())
}

/// The `--emit cnf` escape hatch: render the first encodable candidate
/// II of the sweep as a DIMACS problem (with the sweep position recorded
/// in comment lines) so the instance can be handed to an external SAT
/// solver. Returns `Ok(None)` when every candidate in the sweep range is
/// statically refuted before encoding.
pub fn modulo_cnf_dimacs(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<(i32, String)>, ModuloError> {
    check_sat_supported(opts)?;
    crate::model::checked_horizon(g, spec).map_err(ModuloError::TooLarge)?;
    let lb = ii_lower_bound(g, spec);
    let ub = crate::model::serial_horizon(g, spec);
    for ii in lb..=ub {
        let enc = eit_sat::encode_modulo(g, spec, ii).map_err(|e| ModuloError::ModelBuild {
            node: e.node.clone(),
            detail: e.detail,
        })?;
        if let Some(enc) = enc {
            let comments = [
                format!("eit modulo model (sec 4.3), candidate II {ii}"),
                format!("sweep range {lb}..={ub}; first encodable candidate"),
                format!("graph {}, {} nodes", g.name, g.len()),
            ];
            return Ok(Some((ii, enc.cnf.to_dimacs(&comments))));
        }
    }
    Ok(None)
}

/// The CP sweep: the shared driver with [`probe_ii`] plugged in.
fn modulo_schedule_cp(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<ModuloResult>, ModuloError> {
    sweep(g, spec, opts, |slot| probe_ii(g, spec, opts, slot)).map(|(r, _)| r)
}

/// The SAT sweep: the shared driver with [`sat_probe`] plugged in. The
/// winning model is accepted only after **both** independent verifiers
/// pass ([`eit_arch::verify_modulo`] on the steady-state window and
/// [`validate_modulo`] on the unrolled schedule). A verifier rejection is
/// a structured [`ModuloError::BackendDisagreement`], never a panic and
/// never a silently-wrong schedule. Returns the solver counters alongside
/// so a race can report them even when CP wins.
fn modulo_schedule_sat(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<(Option<ModuloResult>, SatStats), ModuloError> {
    // The CDCL engine emits no search events: leave the sink untouched.
    let untraced = ModuloOptions {
        trace: None,
        ..opts.clone()
    };
    let (r, sat) = sweep(g, spec, &untraced, |slot| sat_probe(g, spec, slot))?;
    if let Some(r) = &r {
        let ii = r.ii_issue;
        let violations = eit_arch::verify_modulo(g, spec, &r.s, ii);
        if !violations.is_empty() {
            return Err(ModuloError::BackendDisagreement(format!(
                "sat schedule at II={ii} rejected by verify_modulo: {:?}",
                violations.first()
            )));
        }
        let structural = validate_modulo(g, spec, r, 3);
        if !structural.is_empty() {
            return Err(ModuloError::BackendDisagreement(format!(
                "sat schedule at II={ii} rejected by the structural validator: {:?}",
                structural.first()
            )));
        }
    }
    Ok((r, sat.unwrap_or_default()))
}

/// Race the CP and SAT sweeps under child cancellation tokens: both
/// probe the same bottom-up candidate order, the first to return a
/// schedule cancels the other. Because both sweeps start at the same
/// resource lower bound and stop at their first feasible candidate, the
/// winning II is the same either way (absent timeouts) — the race only
/// decides *which backend* gets there first, reported in
/// [`ModuloResult::backend`].
fn modulo_schedule_race(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<ModuloResult>, ModuloError> {
    let mk_child = || {
        opts.cancel
            .as_ref()
            .map_or_else(CancelToken::new, |c| c.child())
    };
    let cp_token = mk_child();
    let sat_token = mk_child();
    let finish_order = AtomicUsize::new(0);

    type Arm = (Result<Option<ModuloResult>, ModuloError>, SatStats, usize);
    let run = |backend: Backend, token: CancelToken, other: CancelToken| -> Arm {
        let sub = ModuloOptions {
            cancel: Some(token),
            backend,
            // Racing is untraced: per-backend streams would interleave
            // nondeterministically (the cp backend keeps full tracing).
            trace: None,
            ..opts.clone()
        };
        let (res, sat) = match backend {
            Backend::Sat => match modulo_schedule_sat(g, spec, &sub) {
                Ok((r, stats)) => (Ok(r), stats),
                Err(e) => (Err(e), SatStats::default()),
            },
            _ => (modulo_schedule_cp(g, spec, &sub), SatStats::default()),
        };
        let seq = finish_order.fetch_add(1, Ordering::AcqRel);
        if matches!(res, Ok(Some(_))) {
            other.cancel();
        }
        (res, sat, seq)
    };

    // CP runs on the calling thread: at `jobs = 1` a race starts one
    // thread, not two.
    let ((cp_res, _, cp_seq), (sat_res, sat_stats, sat_seq)) = std::thread::scope(|scope| {
        let sat = scope.spawn(|| run(Backend::Sat, sat_token.clone(), cp_token.clone()));
        let cp = run(Backend::Cp, cp_token.clone(), sat_token.clone());
        (cp, sat.join().expect("sat racer panicked"))
    });

    // First finisher with a schedule wins; a structured error surfaces
    // only when neither side produced one.
    let mut arms: Vec<Arm> = vec![
        (cp_res, SatStats::default(), cp_seq),
        (sat_res, sat_stats, sat_seq),
    ];
    arms.sort_by_key(|&(_, _, seq)| seq);
    let mut first_err = None;
    for (res, _, _) in arms {
        match res {
            Ok(Some(mut r)) => {
                if r.sat.is_none() {
                    r.sat = Some(sat_stats);
                }
                return Ok(Some(r));
            }
            Ok(None) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

/// One probe as the sweep driver records it.
struct Record {
    ii: i32,
    worker: usize,
    time: Duration,
    probed: Probed,
    events: Vec<SearchEvent>,
}

/// The II sweep behind every backend: `probe` answers one candidate.
///
/// `opts.jobs` workers claim candidates `lb..=ub` bottom-up from one
/// atomic counter; worker 0 is the calling thread, so `jobs = 1` spawns
/// nothing. Each claimed probe runs under its own child of the sweep's
/// token. A feasible probe at `ii` lowers `bound` to `ii` and cancels the
/// in-flight probes above it; a worker stops claiming once the next
/// candidate lies above `bound`, the total budget is spent, or the
/// sweep's token is cancelled. A malformed model ends the sweep the same
/// way: it is a property of the graph, not of the candidate.
///
/// Returns the winning schedule, if any, and the SAT counters summed over
/// the probes at or below the winner (over every probe when none won).
fn sweep(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
    probe: impl Fn(&ProbeSlot) -> Probed + Sync,
) -> Result<(Option<ModuloResult>, Option<SatStats>), ModuloError> {
    let t0 = Instant::now();
    let lb = ii_lower_bound(g, spec);
    let ub = crate::model::serial_horizon(g, spec);
    let next = AtomicI32::new(lb);
    let bound = AtomicI32::new(i32::MAX);
    let in_flight: Mutex<Vec<(i32, CancelToken)>> = Mutex::new(Vec::new());
    let lock_live = || in_flight.lock().unwrap_or_else(|e| e.into_inner());

    let work = |worker: usize| {
        let mut records = Vec::new();
        loop {
            let remaining = opts.total_timeout.saturating_sub(t0.elapsed());
            if remaining.is_zero() || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            let ii = next.fetch_add(1, Ordering::Relaxed);
            if ii > ub {
                break;
            }
            let token = opts
                .cancel
                .as_ref()
                .map_or_else(CancelToken::new, |c| c.child());
            // Registered before the bound check, so a winner found from
            // here on cancels this probe.
            lock_live().push((ii, token.clone()));
            if ii > bound.load(Ordering::Acquire) {
                lock_live().retain(|(i, _)| *i != ii);
                break;
            }
            let buffer = opts
                .trace
                .as_ref()
                .map(|_| Arc::new(Mutex::new(MemorySink::default())));
            let slot = ProbeSlot {
                ii,
                budget: opts.timeout_per_ii.min(remaining),
                cancel: Some(token),
                trace: buffer.as_ref().map(|b| TraceHandle::new(Arc::clone(b))),
            };
            let tp = Instant::now();
            let probed = probe(&slot);
            let time = tp.elapsed();
            {
                let mut live = lock_live();
                live.retain(|(i, _)| *i != ii);
                let ends = matches!(
                    probed.outcome,
                    IiOutcome::Feasible(..) | IiOutcome::Malformed(_)
                );
                if ends && ii < bound.fetch_min(ii, Ordering::AcqRel) {
                    // Lower in-flight probes keep running: they must be
                    // genuinely refuted for the merge to pick the true
                    // minimum.
                    for (_, t) in live.iter().filter(|(i, _)| *i > ii) {
                        t.cancel();
                    }
                }
            }
            let events = buffer
                .map(|b| std::mem::take(&mut b.lock().unwrap_or_else(|e| e.into_inner()).events))
                .unwrap_or_default();
            records.push(Record {
                ii,
                worker,
                time,
                probed,
                events,
            });
        }
        records
    };
    let mut records = std::thread::scope(|scope| {
        let work = &work;
        let helpers: Vec<_> = (1..opts.jobs)
            .map(|w| scope.spawn(move || work(w)))
            .collect();
        let mut records = work(0);
        for h in helpers {
            records.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        records
    });

    records.sort_by_key(|r| r.ii);
    if let Some(pos) = records
        .iter()
        .position(|r| matches!(r.probed.outcome, IiOutcome::Malformed(_)))
    {
        let IiOutcome::Malformed(e) = records.swap_remove(pos).probed.outcome else {
            unreachable!("pos indexes a malformed probe");
        };
        return Err(e);
    }
    let win = records
        .iter()
        .position(|r| matches!(r.probed.outcome, IiOutcome::Feasible(..)));
    let counted = win.map_or(records.len(), |w| w + 1);
    let sat = records[..counted]
        .iter()
        .filter_map(|r| r.probed.sat)
        .reduce(|mut sum, s| {
            sum.absorb(&s);
            sum
        });
    let Some(win) = win else {
        return Ok((None, sat));
    };
    if let Some(handle) = &opts.trace {
        // Candidates below the winner always run to a natural stop, so
        // this prefix, and hence the merged trace, is the same at any
        // `jobs`.
        forward_probe_streams(
            handle,
            records[..=win].iter().map(|r| (r.ii, r.events.as_slice())),
        );
    }
    let probes = records
        .iter()
        .map(|r| ProbeStat {
            ii: r.ii,
            outcome: outcome_str(&r.probed.outcome),
            nodes: r.probed.nodes,
            fails: r.probed.fails,
            time: r.time,
            worker: r.worker,
        })
        .collect();
    let winner = records.swap_remove(win);
    let IiOutcome::Feasible(t, k, s) = winner.probed.outcome else {
        unreachable!("win indexes a feasible probe");
    };
    let r = assemble_result(g, spec, opts, winner.ii, (t, k, s), t0.elapsed(), probes);
    Ok((Some(ModuloResult { sat, ..r }), sat))
}

/// Unroll `n_iters` iterations at the issue II and validate the combined
/// schedule structurally (memory excluded — the paper assumes sufficient
/// memory for modulo schedules and repeats the allocation per iteration
/// with an offset).
pub fn validate_modulo(
    g: &Graph,
    spec: &ArchSpec,
    r: &ModuloResult,
    n_iters: usize,
) -> Vec<eit_arch::Violation> {
    let (big, sched) = unroll(g, spec, r, n_iters);
    eit_arch::validate_structure_with(&big, spec, &sched, false)
}

/// Replicate `n_iters` iterations of `g` and start iteration `it` of
/// every node at `r.s + it·ii_issue` (slots unassigned). `r.s` must
/// cover every node of `g`.
pub(crate) fn unroll(
    g: &Graph,
    spec: &ArchSpec,
    r: &ModuloResult,
    n_iters: usize,
) -> (Graph, Schedule) {
    let (big, map) = crate::replicate::replicate(g, n_iters);
    let mut sched = Schedule::new(big.len());
    for (it, ids) in map.iter().enumerate() {
        for n in g.ids() {
            sched.start[ids[n.idx()].idx()] = r.s[&n] + it as i32 * r.ii_issue;
        }
    }
    sched.compute_makespan(&big, &spec.latency_of(&big));
    (big, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_dsl::Ctx;

    fn matmul() -> Graph {
        eit_apps::by_name("matmul").unwrap().graph
    }

    #[test]
    fn lower_bound_counts_all_units() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        // 16 dotp on 4 lanes → 4; 4 merges on the unit-capacity im unit →
        // 4. Bound = 4.
        assert_eq!(ii_lower_bound(&g, &spec), 4);
    }

    #[test]
    fn port_bound_tightens_lower_bound_on_narrow_ports() {
        // One v_add: 2 distinct vectors read, 1 written per steady-state
        // window. Wide stock ports leave the bound at the lane bound (1);
        // a single-read-port machine needs 2 cycles just to stream the
        // inputs, so the port bound must lift the lower bound to 2.
        let ctx = Ctx::new("pb");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let _ = a.v_add(&b);
        let g = ctx.finish();
        let wide = eit_arch::ArchSpec::eit();
        assert_eq!(ii_lower_bound(&g, &wide), 1);
        let mut narrow = eit_arch::ArchSpec::eit();
        narrow.max_vector_reads = 1;
        assert_eq!(ii_lower_bound(&g, &narrow), 2);
    }

    #[test]
    fn expired_deadline_cancels_the_sweep_quickly() {
        // Every backend and worker count must honour an already-expired
        // wall-clock deadline: no probe runs to completion, so no
        // schedule comes back, and the call returns promptly.
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        for backend in [Backend::Cp, Backend::Sat] {
            for jobs in [1, 4] {
                let token = CancelToken::with_deadline(std::time::Instant::now());
                let t0 = std::time::Instant::now();
                let r = modulo_schedule(
                    &g,
                    &spec,
                    &ModuloOptions {
                        backend,
                        jobs,
                        cancel: Some(token),
                        ..Default::default()
                    },
                );
                assert!(
                    r.is_none(),
                    "{backend:?} jobs={jobs}: cancelled sweep found {r:?}"
                );
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(5),
                    "{backend:?} jobs={jobs}: cancelled sweep took {:?}",
                    t0.elapsed()
                );
            }
        }
    }

    #[test]
    fn unrepresentable_budgets_mean_no_deadline() {
        // `Duration::MAX` cannot be added to an `Instant`: the sweep must
        // treat it as unbounded and find the same II as under the
        // default budgets, on either backend.
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        for backend in [Backend::Cp, Backend::Sat] {
            let opts = ModuloOptions {
                backend,
                ..Default::default()
            };
            let unbounded = ModuloOptions {
                timeout_per_ii: Duration::MAX,
                total_timeout: Duration::MAX,
                ..opts.clone()
            };
            let want = modulo_schedule(&g, &spec, &opts).expect("matmul pipelines");
            let got = modulo_schedule(&g, &spec, &unbounded).expect("unbounded sweep pipelines");
            assert_eq!(got.ii_issue, want.ii_issue, "{backend:?}");
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_schedule() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        for backend in [Backend::Cp, Backend::Sat] {
            let run = |jobs: usize| {
                let opts = ModuloOptions {
                    backend,
                    jobs,
                    ..Default::default()
                };
                modulo_schedule(&g, &spec, &opts).unwrap()
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(par.ii_issue, seq.ii_issue);
            assert_eq!(par.switches, seq.switches);
            assert_eq!(par.actual_ii, seq.actual_ii);
            // Byte-identical schedules: the winning probe is never
            // cancelled, so its deterministic search reproduces the
            // one-worker assignment.
            assert_eq!(par.t, seq.t, "{backend:?}");
            assert_eq!(par.k, seq.k, "{backend:?}");
            assert_eq!(par.s, seq.s, "{backend:?}");
            // Probe records at or below the winner agree modulo timing and
            // worker attribution, and so do the SAT counters summed over
            // them.
            let key = |r: &ModuloResult| {
                r.probes
                    .iter()
                    .filter(|p| p.ii <= r.ii_issue)
                    .map(|p| (p.ii, p.outcome, p.nodes, p.fails))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&par), key(&seq), "{backend:?}");
            assert_eq!(par.sat, seq.sat, "{backend:?}");
            assert_eq!(par.backend, backend.as_str());
            assert_eq!(par.jobs, 4);
            assert_eq!(seq.jobs, 1);
        }
    }

    #[test]
    fn speculative_sweep_records_at_most_jobs_probes_above_the_winner() {
        // The sweep runs up to the serial horizon, far above the winner:
        // only the probes already in flight when the winner lands may be
        // recorded (cancelled); the rest are never claimed.
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let lb = ii_lower_bound(&g, &spec);
        let jobs = 4;
        assert!(crate::model::serial_horizon(&g, &spec) > lb + 10 * jobs as i32);
        for backend in [Backend::Cp, Backend::Sat] {
            let r = modulo_schedule(
                &g,
                &spec,
                &ModuloOptions {
                    backend,
                    jobs,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(r.ii_issue, lb);
            let above = r.probes.iter().filter(|p| p.ii > r.ii_issue).count();
            assert!(
                above <= jobs,
                "{backend:?}: {above} probes recorded above the winner"
            );
        }
    }

    #[test]
    fn sat_backend_matches_cp_ii_on_matmul() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let cp = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let sat = modulo_schedule(
            &g,
            &spec,
            &ModuloOptions {
                backend: Backend::Sat,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sat.ii_issue, cp.ii_issue);
        assert_eq!(sat.backend, "sat");
        let stats = sat.sat.expect("sat result must carry solver stats");
        assert!(stats.vars > 0 && stats.clauses > 0);
        // The SAT schedule is independently decoded; both verifiers have
        // already run inside modulo_schedule_sat, but check the public one
        // again from the outside.
        assert!(eit_arch::verify_modulo(&g, &spec, &sat.s, sat.ii_issue).is_empty());
    }

    #[test]
    fn race_backend_reports_winner_and_matches_ii() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let cp = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let race = modulo_schedule(
            &g,
            &spec,
            &ModuloOptions {
                backend: Backend::Race,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(race.ii_issue, cp.ii_issue);
        assert!(
            race.backend == "cp" || race.backend == "sat",
            "race winner must be attributed, got {:?}",
            race.backend
        );
        // SAT counters ride along even when CP wins the race.
        assert!(race.sat.is_some());
        assert!(eit_arch::verify_modulo(&g, &spec, &race.s, race.ii_issue).is_empty());
    }

    #[test]
    fn encoding_into_the_solver_matches_loading_the_cnf() {
        // The sweep's path (clauses straight into the solver) and the
        // Cnf path (`encode_modulo`, then `from_cnf`) load one clause
        // list, so the searches are the same step for step.
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let ii = ii_lower_bound(&g, &spec);
        let enc = eit_sat::encode_modulo(&g, &spec, ii).unwrap().unwrap();
        let mut direct = eit_sat::Solver::new();
        let dec = eit_sat::encode_modulo_into(&g, &spec, ii, &mut direct)
            .unwrap()
            .unwrap();
        assert_eq!(dec.vars, enc.cnf.n_vars);
        assert_eq!(dec.clauses, enc.cnf.clauses.len() as u64);
        let mut loaded = eit_sat::Solver::from_cnf(&enc.cnf);
        let out = direct.solve(&mut || false);
        assert_eq!(out, loaded.solve(&mut || false));
        assert_eq!(out, eit_sat::SolveOutcome::Sat);
        assert_eq!(direct.stats, loaded.stats);
        let model =
            |s: &eit_sat::Solver| (0..dec.vars).map(|v| s.model_value(v)).collect::<Vec<_>>();
        assert_eq!(model(&direct), model(&loaded));
    }

    #[test]
    fn sat_backend_rejects_include_reconfig() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        for backend in [Backend::Sat, Backend::Race] {
            let r = modulo_schedule_checked(
                &g,
                &spec,
                &ModuloOptions {
                    backend,
                    include_reconfig: true,
                    ..Default::default()
                },
            );
            assert!(
                matches!(r, Err(ModuloError::UnsupportedBackend(_))),
                "{backend:?} must reject include_reconfig, got {r:?}"
            );
        }
    }

    #[test]
    fn sat_backend_honours_expired_deadline() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        for backend in [Backend::Sat, Backend::Race] {
            let token = CancelToken::with_deadline(std::time::Instant::now());
            let t0 = std::time::Instant::now();
            let r = modulo_schedule(
                &g,
                &spec,
                &ModuloOptions {
                    backend,
                    cancel: Some(token),
                    ..Default::default()
                },
            );
            assert!(r.is_none(), "{backend:?}: cancelled sweep found {r:?}");
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(5),
                "{backend:?}: cancelled sweep took {:?}",
                t0.elapsed()
            );
        }
    }

    #[test]
    fn traced_sweep_is_identical_across_jobs() {
        // Two configurations, banded model: band length minima force the
        // resource-bound candidate infeasible, so the sweep records more
        // than one probe stream before the winner.
        let ctx = Ctx::new("bands");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        for _ in 0..5 {
            let x = a.v_add(&b);
            let _ = x.v_mul(&b);
        }
        let g = ctx.finish();
        let spec = eit_arch::ArchSpec::eit();
        let run = |jobs: usize| {
            let sink = Arc::new(Mutex::new(MemorySink::default()));
            let opts = ModuloOptions {
                include_reconfig: true,
                jobs,
                trace: Some(TraceHandle::new(Arc::clone(&sink))),
                state_hash_every: Some(16),
                ..Default::default()
            };
            let r = modulo_schedule(&g, &spec, &opts).unwrap();
            let events: Vec<SearchEvent> = sink.lock().unwrap().events.clone();
            (r.ii_issue, events)
        };
        let (ii1, ev1) = run(1);
        let (ii4, ev4) = run(4);
        assert_eq!(ii1, ii4);
        assert_eq!(ev1, ev4, "merged probe trace must not depend on jobs");
        // One Stream marker per candidate from the resource bound up to
        // and including the winner, in II order.
        let ids: Vec<u32> = ev1
            .iter()
            .filter_map(|e| match e {
                SearchEvent::Stream { id } => Some(*id),
                _ => None,
            })
            .collect();
        let lb = ii_lower_bound(&g, &spec) as u32;
        assert_eq!(ids, (lb..=ii1 as u32).collect::<Vec<_>>());
        // Untraced runs are unaffected and agree on the answer.
        let plain = modulo_schedule(
            &g,
            &spec,
            &ModuloOptions {
                include_reconfig: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(plain.ii_issue, ii1);
    }

    #[test]
    fn matmul_reaches_resource_bound_ii() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        assert_eq!(r.ii_issue, 4);
        // Single configuration → no steady-state switch; actual II = 4.
        assert_eq!(r.switches, 0);
        assert_eq!(r.actual_ii, 4);
        assert!((r.throughput - 0.25).abs() < 1e-9);
        let v = validate_modulo(&g, &spec, &r, 6);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn include_reconfig_never_beats_exclude_on_issue_ii() {
        let ctx = Ctx::new("two-type");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        for _ in 0..3 {
            let x = a.v_add(&b);
            let _ = x.v_mul(&b);
        }
        let g = ctx.finish();
        let spec = eit_arch::ArchSpec::eit();
        let excl = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let incl = modulo_schedule(
            &g,
            &spec,
            &ModuloOptions {
                include_reconfig: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(incl.ii_issue >= excl.ii_issue);
        // Two configurations → the banded window switches exactly twice
        // (once into mul, once wrapping back to add).
        assert_eq!(incl.switches, 2);
        let v = validate_modulo(&g, &spec, &incl, 5);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn window_switch_counting_is_cyclic() {
        let ctx = Ctx::new("t");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b); // config A
        let _y = x.v_mul(&b); // config B
        let g = ctx.finish();
        let ops: Vec<NodeId> = g
            .ids()
            .filter(|&n| g.category(n) == Category::VectorOp)
            .collect();
        let mut t = HashMap::new();
        t.insert(ops[0], 0);
        t.insert(ops[1], 1);
        // A at slot 0, B at slot 1: A→B and (cyclically) B→A = 2 switches.
        assert_eq!(count_window_switches(&g, &t), 2);
        // Same config everywhere → 0.
        let mut t1 = HashMap::new();
        t1.insert(ops[0], 0);
        assert_eq!(count_window_switches(&g, &t1), 0);
    }

    #[test]
    fn throughput_is_inverse_actual_ii() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        assert!((r.throughput * r.actual_ii as f64 - 1.0).abs() < 1e-12);
    }
}
