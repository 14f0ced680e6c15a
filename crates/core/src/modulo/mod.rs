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

mod probe;
mod sat;
mod sweep;

pub use probe::{build_probe, schedule_at_ii, ProbeModel};
pub use sat::modulo_cnf_dimacs;
pub use sweep::{modulo_schedule, modulo_schedule_checked};

use eit_arch::{ArchSpec, Schedule};
use eit_cp::trace::TraceHandle;
use eit_cp::{CancelToken, Phase, SearchConfig};
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;
use std::time::Duration;

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
    /// Race CP against SAT on every candidate II, under child
    /// cancellation tokens: the first decisive answer (feasible,
    /// infeasible or malformed) stands for the candidate and cancels the
    /// other side. The sweep itself is the one every backend runs, so the
    /// winning II is backend-independent — only the attribution varies.
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
/// summed over the probes at or below the winning II, so they do not
/// depend on `jobs`.
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
    /// prefixed with a
    /// [`SearchEvent::Stream`](eit_cp::trace::SearchEvent::Stream) marker
    /// carrying the II. Because cancellation only ever hits candidates
    /// above the winner, the merged trace is identical under any `jobs`
    /// (absent timeouts). A statically refuted candidate contributes an
    /// empty stream.
    pub trace: Option<TraceHandle>,
    /// Emit a
    /// [`SearchEvent::StateHash`](eit_cp::trace::SearchEvent::StateHash)
    /// digest every N search nodes inside each probe (`None`/0 = off).
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
    /// top.
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
    /// The backend whose answer this is: under `Backend::Race`, the side
    /// that decided the candidate. It names the unit of `nodes`/`fails`.
    pub backend: Backend,
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
    /// Absolute start per node (one iteration). An op's window position
    /// is `s mod ii_issue` and its stage `s div ii_issue`.
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
    /// `Backend::Race` this is the side that decided the winning
    /// candidate).
    pub backend: &'static str,
    /// SAT-solver counters, when the SAT backend ran (its sweep, or its
    /// side of a race — present even if CP decided every candidate).
    pub sat: Option<SatStats>,
}

/// The result for start map `s` at issue II `ii`: counts the
/// steady-state configuration switches under the chosen reconfiguration
/// model and derives the effective II and throughput from them. The
/// sweep adds its own accounting (time, probes, jobs, backend, SAT
/// counters) on top; a result built here alone reports none of it (no
/// probes, one job, the cp backend).
pub fn assemble_result(
    g: &Graph,
    spec: &ArchSpec,
    include_reconfig: bool,
    ii: i32,
    s: HashMap<NodeId, i32>,
) -> ModuloResult {
    let switches = if include_reconfig {
        let groups = config_groups(g).len();
        if groups > 1 {
            groups
        } else {
            0
        }
    } else {
        count_window_switches(g, &s, ii)
    };
    let actual = ii + switches as i32 * spec.reconfig_cost;
    ModuloResult {
        ii_issue: ii,
        switches,
        actual_ii: actual,
        throughput: 1.0 / actual as f64,
        s,
        opt_time: Duration::ZERO,
        timed_out: false,
        probes: Vec::new(),
        jobs: 1,
        backend: Backend::Cp.as_str(),
        sat: None,
    }
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

/// Count steady-state configuration switches of a start map at issue II
/// `ii`: walk the issuing window slots `s mod ii` in order (cyclically)
/// and count config changes.
pub fn count_window_switches(g: &Graph, s: &HashMap<NodeId, i32>, ii: i32) -> usize {
    let mut slots: Vec<(i32, VectorConfig)> = s
        .iter()
        .filter_map(|(&n, &sn)| Some((sn.rem_euclid(ii), g.opcode(n)?.config()?)))
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
    /// Absolute start per node.
    Feasible(HashMap<NodeId, i32>),
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
    use eit_cp::trace::{MemorySink, SearchEvent};
    use eit_dsl::Ctx;
    use std::sync::{Arc, Mutex};

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
    fn race_decides_every_candidate_of_a_two_candidate_sweep() {
        // Two independent vector ops with different configurations: at
        // the lower bound II 1 both would issue in the window's only
        // slot, which constraint (3) forbids, so the bound is refuted and
        // II 2 wins. The race decides two candidates, one probe each.
        let ctx = Ctx::new("two-configs");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let _ = a.v_add(&b);
        let _ = a.v_mul(&b);
        let g = ctx.finish();
        let spec = eit_arch::ArchSpec::eit();
        let lb = ii_lower_bound(&g, &spec);
        assert_eq!(lb, 1);
        let run = |backend| {
            let opts = ModuloOptions {
                backend,
                ..Default::default()
            };
            modulo_schedule_checked(&g, &spec, &opts)
                .unwrap_or_else(|e| panic!("{backend:?}: {e}"))
                .unwrap_or_else(|| panic!("{backend:?}: no schedule"))
        };
        let (cp, sat, race) = (run(Backend::Cp), run(Backend::Sat), run(Backend::Race));
        assert_eq!(cp.ii_issue, 2);
        assert_eq!(sat.ii_issue, 2);
        assert_eq!(race.ii_issue, 2);
        let iis: Vec<i32> = race.probes.iter().map(|p| p.ii).collect();
        assert_eq!(iis, vec![1, 2], "one race probe per candidate");
        assert_eq!(race.probes[0].outcome, "infeasible");
        assert_eq!(race.probes[1].outcome, "feasible");
        assert!(
            race.sat.is_some(),
            "race must carry the SAT side's counters"
        );
        assert!(sat.sat.is_some());
        for r in [&cp, &sat, &race] {
            assert!(eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue).is_empty());
            let v = validate_modulo(&g, &spec, r, 3);
            assert!(v.is_empty(), "{}: {v:?}", r.backend);
        }
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
        let mut s = HashMap::new();
        s.insert(ops[0], 0);
        s.insert(ops[1], 3);
        // At II 2, A at slot 0 and B at slot 1: A→B and (cyclically) B→A
        // = 2 switches.
        assert_eq!(count_window_switches(&g, &s, 2), 2);
        // Same config everywhere → 0.
        let mut s1 = HashMap::new();
        s1.insert(ops[0], 0);
        assert_eq!(count_window_switches(&g, &s1, 2), 0);
    }

    #[test]
    fn throughput_is_inverse_actual_ii() {
        let g = matmul();
        let spec = eit_arch::ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        assert!((r.throughput * r.actual_ii as f64 - 1.0).abs() < 1e-12);
    }
}
