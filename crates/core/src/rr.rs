//! Toolchain-level record/replay glue (`eit-trace/1`).
//!
//! [`crate::model::schedule`] and [`crate::modulo::modulo_schedule`] emit
//! [`SearchEvent`] streams; `eit_cp::record` persists them and
//! `eit_cp::replay` re-validates a run against its recording. This
//! module binds the two to the *toolchain inputs*: canonical hashes of
//! the IR and the architecture go into the trace header so a replay can
//! refuse a trace recorded for a different problem, and config strings
//! pin the solver options that shape the trajectory.
//!
//! A replay re-runs the entry point that made the recording —
//! [`crate::model::schedule`] or [`crate::modulo::modulo_schedule_checked`]
//! with the caller's options — under [`eit_cp::replay_with`]'s lock-step
//! validator, so it checks the whole run, not a copy of it. A modulo
//! recording is a *merged* stream: one [`SearchEvent::Stream`] marker per
//! candidate II (resource bound up to and including the winner, in II
//! order) followed by that probe's events. Replaying it re-runs the
//! sweep, so a recording that is not the sweep's trace — a candidate
//! missing, the sweep cut short at a refutation, no candidates at all —
//! diverges at its first wrong event. The sweep forwards its buffered
//! probe streams when it ends, so a divergent modulo replay is caught
//! only after the live sweep finishes and can cost up to one sweep under
//! the caller's budgets; a faithful one costs exactly the recorded nodes.

use crate::model::{schedule, SchedulerOptions};
use crate::modulo::{modulo_schedule_checked, Backend, ModuloOptions};
use eit_arch::ArchSpec;
use eit_cp::trace::SearchEvent;
use eit_cp::{fnv1a, replay_with, DivergenceReport, ReplayOptions, TraceHeader};
use eit_ir::Graph;

/// Default store-digest cadence for recorded runs: a
/// [`SearchEvent::StateHash`] every N search nodes. Dense enough to
/// localise a domain-trajectory mismatch, sparse enough to stay a
/// negligible fraction of the event volume.
pub const DEFAULT_HASH_EVERY: u64 = 64;

/// Canonical hash of the IR: FNV-1a over its XML serialisation (the
/// interchange format is the canonical form — stable node order, all
/// semantic fields).
pub fn ir_hash(g: &Graph) -> u64 {
    fnv1a(eit_ir::to_xml(g).as_bytes())
}

/// Canonical hash of an [`ArchSpec`]: FNV-1a over a fixed rendering of
/// every field that reaches the solver.
pub fn arch_hash(spec: &ArchSpec) -> u64 {
    use std::fmt::Write as _;
    let mut s = format!(
        "lanes={};banks={};page={};spb={};reads={};writes={};reconfig={};cap={:?};units=",
        spec.n_lanes,
        spec.n_banks,
        spec.page_size,
        spec.slots_per_bank,
        spec.max_vector_reads,
        spec.max_vector_writes,
        spec.reconfig_cost,
        spec.slot_cap,
    );
    for u in &spec.units.units {
        let _ = write!(s, "[{}x{}:", u.name, u.count);
        for o in &u.ops {
            let _ = write!(
                s,
                "({},{},{},{})",
                o.class.name(),
                o.latency,
                o.occupancy,
                o.width
            );
        }
        s.push(']');
    }
    fnv1a(s.as_bytes())
}

/// The solver options that shape a straight-line search trajectory,
/// rendered for the trace header. Wall-clock budgets and worker counts
/// are deliberately excluded: deadlines are nondeterministic and the
/// merged event stream is `jobs`-independent by construction, so traces
/// recorded under different budgets/parallelism stay comparable. The
/// restart/nogood policy **is** included — restarts replay the tree in
/// a different order.
pub fn schedule_config_string(opts: &SchedulerOptions) -> String {
    format!(
        "mode=schedule;memory={};restarts={}",
        u8::from(opts.memory),
        opts.restarts
            .map_or_else(|| "off".into(), |rc| rc.config_token()),
    )
}

/// As [`schedule_config_string`], for a modulo sweep. The decision
/// backend (`cp`, `sat`, `race`) is part of the token: backends agree on
/// the winning II but not on the concrete assignment, so two runs that
/// differ only in backend are distinct computations for caching and
/// tracing purposes. The restart policy is keyed only for the backends
/// that run a CP search: the SAT sweep never reads it, so under `sat` it
/// reads `off` whatever was asked.
pub fn modulo_config_string(opts: &ModuloOptions) -> String {
    let restarts = match opts.backend {
        Backend::Sat => None,
        Backend::Cp | Backend::Race => opts.restarts,
    };
    format!(
        "mode=modulo;incl={};restarts={};backend={}",
        u8::from(opts.include_reconfig),
        restarts.map_or_else(|| "off".into(), |rc| rc.config_token()),
        opts.backend.as_str(),
    )
}

/// Content address of one solver run: the canonical input hashes plus
/// the trajectory-shaping config string. Two runs with equal keys are
/// the *same computation* — same model, same search, same answer — so
/// the key is what a schedule cache (the `eit-serve` daemon) stores
/// results under. Wall-clock budgets, worker counts, and cancellation
/// deadlines are deliberately outside the key (they decide *whether* a
/// run finishes, never *what* it produces), so a hot kernel compiled
/// under any request budget serves every later request for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SolveKey {
    /// [`ir_hash`] of the graph exactly as the solver sees it (after
    /// whatever passes the pipeline ran).
    pub ir_hash: u64,
    /// [`arch_hash`] of the target [`ArchSpec`].
    pub arch_hash: u64,
    /// [`schedule_config_string`] or [`modulo_config_string`].
    pub config: String,
}

impl SolveKey {
    /// Key for a straight-line scheduling run.
    pub fn schedule(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> SolveKey {
        SolveKey {
            ir_hash: ir_hash(g),
            arch_hash: arch_hash(spec),
            config: schedule_config_string(opts),
        }
    }

    /// Key for a modulo-scheduling sweep.
    pub fn modulo(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> SolveKey {
        SolveKey {
            ir_hash: ir_hash(g),
            arch_hash: arch_hash(spec),
            config: modulo_config_string(opts),
        }
    }

    /// Fixed-width printable form (`ir-arch-config`, each fnv64 hex) —
    /// the content address reported in service responses.
    pub fn content_address(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}",
            self.ir_hash,
            self.arch_hash,
            fnv1a(self.config.as_bytes())
        )
    }
}

/// Build the `eit-trace/1` header for recording a straight-line
/// scheduling run of `g` on `spec`.
pub fn schedule_header(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> TraceHeader {
    TraceHeader {
        ir_hash: ir_hash(g),
        arch_hash: arch_hash(spec),
        hash_every: opts.state_hash_every.unwrap_or(0),
        config: schedule_config_string(opts),
    }
}

/// Build the `eit-trace/1` header for recording a modulo sweep.
pub fn modulo_header(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> TraceHeader {
    TraceHeader {
        ir_hash: ir_hash(g),
        arch_hash: arch_hash(spec),
        hash_every: opts.state_hash_every.unwrap_or(0),
        config: modulo_config_string(opts),
    }
}

/// Aggregate outcome of replaying a recorded run (one stream for a
/// straight-line schedule, one per probe for a modulo sweep).
#[derive(Debug)]
pub struct RrReport {
    /// The live run matched the recording end to end.
    pub ok: bool,
    /// Streams in the recording: its markers for a modulo sweep, always 1
    /// for a straight-line schedule.
    pub streams: usize,
    /// Events compared (stream markers excluded).
    pub checked: u64,
    /// Events in the recording (stream markers excluded).
    pub recorded_events: usize,
    /// Search nodes the live run reported across its traced searches. On
    /// a clean replay this equals the recorded node count — the replay
    /// never searches beyond the recorded tree.
    pub replay_nodes: u64,
    /// Recorded node count, from the terminal `Done` events.
    pub recorded_nodes: u64,
    /// First divergence: the recorded stream holding the mismatching
    /// event (the candidate II for modulo replays, 0 for straight-line or
    /// before the first marker) and the report.
    pub divergence: Option<(u32, DivergenceReport)>,
    /// The live run failed with a structured error (a modulo model that
    /// cannot be built for this input), so there was no run to compare.
    pub structure_error: Option<String>,
}

/// The candidate II a stream marker opens.
fn marker(e: &SearchEvent) -> Option<u32> {
    match e {
        SearchEvent::Stream { id } => Some(*id),
        _ => None,
    }
}

impl RrReport {
    /// Account `rep` against `recorded`: counts skip the stream markers,
    /// and a divergence is attributed to the stream it falls in.
    fn new<R>(recorded: &[SearchEvent], rep: eit_cp::ReplayReport<R>) -> RrReport {
        let streams = recorded.iter().filter_map(marker).count();
        let stream_at = |i| recorded.iter().take(i + 1).rev().find_map(marker);
        RrReport {
            ok: rep.ok,
            streams,
            checked: rep.checked,
            recorded_events: recorded.len() - streams,
            replay_nodes: rep.live_nodes,
            recorded_nodes: recorded
                .iter()
                .map(|e| match e {
                    SearchEvent::Done { nodes, .. } => *nodes,
                    _ => 0,
                })
                .sum(),
            divergence: rep.divergence.map(|d| (stream_at(d.index).unwrap_or(0), d)),
            structure_error: None,
        }
    }
}

/// Re-validate a recorded straight-line scheduling run: run
/// [`crate::model::schedule`] with `opts`, its trace and token replaced
/// by the validator's.
///
/// `opts` must reproduce the recorded run's options (the header's
/// config string names the ones that matter).
pub fn replay_schedule(
    g: &Graph,
    spec: &ArchSpec,
    opts: &SchedulerOptions,
    recorded: &[SearchEvent],
    ropts: &ReplayOptions,
) -> RrReport {
    let rep = replay_with(recorded, ropts, |trace, cancel| {
        let live = SchedulerOptions {
            trace: Some(trace),
            cancel: Some(cancel),
            ..opts.clone()
        };
        schedule(g, spec, &live)
    });
    RrReport {
        streams: 1,
        ..RrReport::new(recorded, rep)
    }
}

/// Re-validate a recorded modulo sweep: run
/// [`crate::modulo::modulo_schedule_checked`] with `opts`, its trace and
/// token replaced by the validator's. Every candidate the live sweep
/// decides, and the order it decides them in, must match the recording.
pub fn replay_modulo(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
    recorded: &[SearchEvent],
    ropts: &ReplayOptions,
) -> RrReport {
    let rep = replay_with(recorded, ropts, |trace, cancel| {
        let live = ModuloOptions {
            trace: Some(trace),
            cancel: Some(cancel),
            ..opts.clone()
        };
        modulo_schedule_checked(g, spec, &live)
    });
    let structure_error = rep.result.as_ref().err().map(ToString::to_string);
    RrReport {
        ok: rep.ok && structure_error.is_none(),
        structure_error,
        ..RrReport::new(recorded, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_cp::trace::{MemorySink, TraceHandle};
    use eit_dsl::Ctx;
    use std::sync::{Arc, Mutex};

    fn chain() -> Graph {
        let ctx = Ctx::new("chain");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _ = x.v_mul(&b);
        ctx.finish()
    }

    fn record_schedule(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> Vec<SearchEvent> {
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let mut o = opts.clone();
        o.trace = Some(TraceHandle::new(Arc::clone(&sink)));
        crate::model::schedule(g, spec, &o);
        let events = sink.lock().unwrap().events.clone();
        events
    }

    #[test]
    fn config_string_includes_restarts() {
        // The restart/nogood policy reshapes the search trajectory, so a
        // trace recorded with restarts must not replay against a
        // restart-free config (and vice versa): the token is part of the
        // header.
        let base = SchedulerOptions::default();
        assert!(
            schedule_config_string(&base).ends_with(";restarts=off"),
            "{}",
            schedule_config_string(&base)
        );
        let mut with_restarts = base.clone();
        with_restarts.restarts = Some(eit_cp::RestartConfig::default());
        assert!(
            schedule_config_string(&with_restarts).ends_with(";restarts=geom:256:150+ng"),
            "{}",
            schedule_config_string(&with_restarts)
        );
        assert_ne!(
            schedule_config_string(&base),
            schedule_config_string(&with_restarts)
        );
        // The restart token round-trips through the parser eitc uses to
        // reconstruct a header's policy.
        let rc = eit_cp::RestartConfig::default();
        assert_eq!(
            eit_cp::RestartConfig::parse_token(&rc.config_token()),
            Some(rc)
        );

        // Same contract for the modulo sweep, which also keys on the
        // decision backend (different backends produce different concrete
        // assignments at the same II).
        let mbase = ModuloOptions::default();
        assert!(
            modulo_config_string(&mbase).ends_with(";restarts=off;backend=cp"),
            "{}",
            modulo_config_string(&mbase)
        );
        let mut mrestart = mbase.clone();
        mrestart.restarts = Some(eit_cp::RestartConfig::default());
        assert_ne!(
            modulo_config_string(&mbase),
            modulo_config_string(&mrestart)
        );
        let mut msat = mbase.clone();
        msat.backend = Backend::Sat;
        assert!(modulo_config_string(&msat).ends_with(";backend=sat"));
        assert_ne!(modulo_config_string(&mbase), modulo_config_string(&msat));
    }

    #[test]
    fn modulo_restarts_are_keyed_only_for_backends_with_a_cp_search() {
        let rc = Some(eit_cp::RestartConfig::default());
        for backend in [Backend::Cp, Backend::Sat, Backend::Race] {
            let plain = ModuloOptions {
                backend,
                ..Default::default()
            };
            let restarted = ModuloOptions {
                restarts: rc,
                ..plain.clone()
            };
            let same = modulo_config_string(&plain) == modulo_config_string(&restarted);
            assert_eq!(same, backend == Backend::Sat, "{backend:?}");
        }
    }

    #[test]
    fn restarted_run_records_and_replays_node_identically() {
        // A schedule recorded with restarts+nogoods must replay through
        // the same restart-enabled config with zero divergence (the
        // Restart events are part of the stream).
        let g = chain();
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions {
            restarts: Some(eit_cp::RestartConfig {
                policy: eit_cp::RestartPolicy::Geometric {
                    base: 2,
                    factor_percent: 150,
                },
                nogoods: true,
            }),
            ..Default::default()
        };
        let recorded = record_schedule(&g, &spec, &opts);
        assert!(!recorded.is_empty());
        let rep = replay_schedule(&g, &spec, &opts, &recorded, &ReplayOptions::default());
        assert!(rep.ok, "divergence: {:?}", rep.divergence);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);
    }

    #[test]
    fn hashes_are_input_sensitive() {
        let g = chain();
        let spec = ArchSpec::eit();
        let h1 = ir_hash(&g);
        let g2 = {
            let ctx = Ctx::new("other");
            let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
            let _ = a.v_add(&a);
            ctx.finish()
        };
        assert_ne!(h1, ir_hash(&g2));
        let mut spec2 = spec.clone();
        spec2.n_banks = 8;
        assert_ne!(arch_hash(&spec), arch_hash(&spec2));
        // Stable across calls.
        assert_eq!(h1, ir_hash(&g));
        assert_eq!(arch_hash(&spec), arch_hash(&spec));
    }

    /// Every ArchSpec field — geometry, ports, costs, and every field of
    /// every unit-table entry — must perturb [`arch_hash`]: the hash is
    /// the cache key component that distinguishes target machines, so a
    /// blind spot would let one machine's schedule serve another's.
    #[test]
    fn arch_hash_is_sensitive_to_every_field() {
        let base = ArchSpec::eit();
        let h0 = arch_hash(&base);
        let mut variants: Vec<(&'static str, ArchSpec)> = Vec::new();

        let mut s = base.clone();
        s.n_lanes += 1;
        variants.push(("n_lanes", s));
        let mut s = base.clone();
        s.n_banks *= 2;
        variants.push(("n_banks", s));
        let mut s = base.clone();
        s.page_size *= 2;
        variants.push(("page_size", s));
        let mut s = base.clone();
        s.slots_per_bank += 1;
        variants.push(("slots_per_bank", s));
        let mut s = base.clone();
        s.max_vector_reads += 1;
        variants.push(("max_vector_reads", s));
        let mut s = base.clone();
        s.max_vector_writes += 1;
        variants.push(("max_vector_writes", s));
        let mut s = base.clone();
        s.reconfig_cost += 1;
        variants.push(("reconfig_cost", s));
        let mut s = base.clone();
        s.slot_cap = Some(32);
        variants.push(("slot_cap", s));

        // Unit-table fields, for every unit and every op.
        for ui in 0..base.units.units.len() {
            let mut s = base.clone();
            s.units.units[ui].name.push('X');
            variants.push(("unit.name", s));
            let mut s = base.clone();
            s.units.units[ui].count += 1;
            variants.push(("unit.count", s));
            for oi in 0..base.units.units[ui].ops.len() {
                let mut s = base.clone();
                s.units.units[ui].ops[oi].latency += 1;
                variants.push(("op.latency", s));
                let mut s = base.clone();
                s.units.units[ui].ops[oi].occupancy += 1;
                variants.push(("op.occupancy", s));
                let mut s = base.clone();
                s.units.units[ui].ops[oi].width += 1;
                variants.push(("op.width", s));
            }
        }
        // Op class identity matters too: swap a class for another.
        let mut s = base.clone();
        s.units.units[2].ops[0].class = eit_ir::OpClass::ScalarSimple;
        variants.push(("op.class", s));

        let mut hashes = vec![h0];
        for (field, v) in &variants {
            let h = arch_hash(v);
            assert_ne!(h, h0, "perturbing {field} did not change arch_hash");
            hashes.push(h);
        }
        // And the perturbations are mutually distinct — no two collide.
        hashes.sort_unstable();
        let n = hashes.len();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "two distinct specs share an arch_hash");
    }

    #[test]
    fn schedule_record_replay_is_node_identical() {
        let g = chain();
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions {
            state_hash_every: Some(8),
            ..Default::default()
        };
        let recorded = record_schedule(&g, &spec, &opts);
        assert!(!recorded.is_empty());
        let rep = replay_schedule(&g, &spec, &opts, &recorded, &ReplayOptions::default());
        assert!(rep.ok, "divergence: {:?}", rep.divergence);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);
        assert_eq!(rep.checked as usize, rep.recorded_events);
    }

    #[test]
    fn perturbed_schedule_replay_reports_divergence() {
        let g = chain();
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions::default();
        let mut recorded = record_schedule(&g, &spec, &opts);
        // Claim the first decision tried the other value: the live run
        // takes the real branch, and replay must name that event.
        let at = recorded
            .iter()
            .position(|e| matches!(e, SearchEvent::Branch { .. }))
            .expect("the chain search branches");
        let SearchEvent::Branch { val, .. } = &mut recorded[at] else {
            unreachable!("at indexes a branch");
        };
        *val += 1;
        let rep = replay_schedule(&g, &spec, &opts, &recorded, &ReplayOptions::default());
        assert!(!rep.ok);
        let (stream, d) = rep.divergence.expect("must diverge");
        assert_eq!((stream, d.index), (0, at));
        assert!(matches!(d.actual, Some(SearchEvent::Branch { .. })));
    }

    #[test]
    fn modulo_record_replay_round_trips() {
        let g = chain();
        let spec = ArchSpec::eit();
        let opts = ModuloOptions {
            include_reconfig: true,
            state_hash_every: Some(8),
            ..Default::default()
        };
        let recorded = record_modulo(&g, &spec, &opts);
        assert!(recorded
            .iter()
            .any(|e| matches!(e, SearchEvent::Stream { .. })));
        let rep = replay_modulo(&g, &spec, &opts, &recorded, &ReplayOptions::default());
        assert!(
            rep.ok,
            "divergence: {:?} structure: {:?}",
            rep.divergence, rep.structure_error
        );
        assert!(rep.streams >= 1);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);

        // A mangled recording (an event before the first marker) is an
        // ordinary divergence at that event.
        let mut bad = recorded.clone();
        bad.insert(0, SearchEvent::Fail { depth: 0 });
        let rep = replay_modulo(&g, &spec, &opts, &bad, &ReplayOptions::default());
        assert!(!rep.ok);
        assert_eq!(rep.divergence.map(|(_, d)| d.index), Some(0));
        assert!(rep.structure_error.is_none());
    }

    /// Two independent vector ops with different configurations: the
    /// lower bound II 1 would put both in the window's only slot, so it
    /// is refuted at the root and II 2 wins — a two-stream recording.
    fn two_configs() -> Graph {
        let ctx = Ctx::new("two-configs");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let _ = a.v_add(&b);
        let _ = a.v_mul(&b);
        ctx.finish()
    }

    fn record_modulo(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> Vec<SearchEvent> {
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let traced = ModuloOptions {
            trace: Some(TraceHandle::new(Arc::clone(&sink))),
            ..opts.clone()
        };
        crate::modulo::modulo_schedule(g, spec, &traced).expect("the kernel has a schedule");
        let events = sink.lock().unwrap().events.clone();
        events
    }

    /// The two-candidate recording and the index of its `stream 2` marker.
    fn two_candidate_recording() -> (Graph, Vec<SearchEvent>, usize) {
        let g = two_configs();
        let recorded = record_modulo(&g, &ArchSpec::eit(), &ModuloOptions::default());
        let markers: Vec<(usize, u32)> = recorded
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                SearchEvent::Stream { id } => Some((i, *id)),
                _ => None,
            })
            .collect();
        assert_eq!(markers.iter().map(|m| m.1).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(markers[0].0, 0);
        assert!(matches!(
            recorded[markers[1].0 - 1],
            SearchEvent::Done {
                status: "infeasible",
                ..
            }
        ));
        (g, recorded, markers[1].0)
    }

    /// Replay `recorded` strictly and leniently; both must refuse it, at
    /// recorded event `index` of stream `stream`.
    fn assert_refused(g: &Graph, recorded: &[SearchEvent], stream: u32, index: usize) {
        for strict in [true, false] {
            let rep = replay_modulo(
                g,
                &ArchSpec::eit(),
                &ModuloOptions::default(),
                recorded,
                &ReplayOptions { strict },
            );
            assert!(!rep.ok, "strict={strict}: accepted {recorded:?}");
            let (s, d) = rep.divergence.expect("a divergence");
            assert_eq!((s, d.index), (stream, index), "strict={strict}");
        }
    }

    #[test]
    fn two_candidate_recording_replays_as_two_streams() {
        let (g, recorded, _) = two_candidate_recording();
        let rep = replay_modulo(
            &g,
            &ArchSpec::eit(),
            &ModuloOptions::default(),
            &recorded,
            &ReplayOptions::default(),
        );
        assert!(rep.ok, "divergence: {:?}", rep.divergence);
        assert_eq!(rep.streams, 2);
        assert_eq!(rep.checked as usize, rep.recorded_events);
        assert_eq!(rep.recorded_events, recorded.len() - 2);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);
    }

    #[test]
    fn modulo_replay_refuses_a_recording_cut_before_the_winner() {
        // Claims the sweep stopped at the refutation of II 1.
        let (g, recorded, second) = two_candidate_recording();
        assert_refused(&g, &recorded[..second], 1, second);
    }

    #[test]
    fn modulo_replay_refuses_a_recording_without_the_refuted_candidate() {
        // Claims II 2 was the first candidate.
        let (g, recorded, second) = two_candidate_recording();
        assert_refused(&g, &recorded[second..], 2, 0);
    }

    #[test]
    fn modulo_replay_refuses_an_empty_recording_of_a_schedulable_kernel() {
        assert_refused(&two_configs(), &[], 0, 0);
    }
}
