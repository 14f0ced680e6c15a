//! Toolchain-level record/replay glue.
//!
//! [`crate::model::schedule`] and [`crate::modulo::modulo_schedule`] emit
//! [`SearchEvent`] streams; [`crate::record`] persists them as
//! `eit-trace/2` files and [`eit_cp::replay_with`] re-validates a run
//! against its recording.
//! This module binds the two to the *toolchain inputs*: a [`SolveKey`] —
//! canonical hashes of the IR and the architecture plus a config string
//! of the solver options that shape the trajectory — is the one identity
//! of a solve. The trace header is the key plus the recording's
//! store-digest cadence, and a replay refuses a header whose key is not
//! the live run's before it searches.
//!
//! A replay re-runs the entry point that made the recording —
//! [`crate::model::schedule`] or [`crate::modulo::modulo_schedule_checked`]
//! with the caller's options — under [`eit_cp::replay_with`]'s lock-step
//! validator, so it checks the whole run, not a copy of it. A modulo
//! recording is a *merged* stream: one [`SearchEvent::Stream`] marker per
//! candidate II (resource bound up to and including the winner, or every
//! probed candidate when none wins, in II order) followed by that probe's
//! events. Replaying it re-runs the
//! sweep, so a recording that is not the sweep's trace — a candidate
//! missing, the sweep cut short at a refutation, no candidates at all —
//! diverges at its first wrong event. The sweep forwards its buffered
//! probe streams when it ends, so a divergent modulo replay is caught
//! only after the live sweep finishes and can cost up to one sweep under
//! the caller's budgets; a faithful one costs exactly the recorded nodes.

use crate::model::{schedule, SchedulerOptions};
use crate::modulo::{modulo_schedule_checked, ModuloOptions};
use eit_arch::ArchSpec;
use eit_cp::trace::SearchEvent;
use eit_cp::{fnv1a, replay_with, DivergenceReport};
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

/// Canonical hash of the machine the solver sees: FNV-1a over a fixed
/// rendering of every [`ArchSpec`] field that reaches it. A `slot_cap`
/// at or above the physical slot count caps nothing
/// ([`ArchSpec::n_slots`]), so it hashes as no cap: `eit()` and
/// `eit().with_slots(64)` are one machine, however they were spelled.
pub fn arch_hash(spec: &ArchSpec) -> u64 {
    use std::fmt::Write as _;
    let physical = spec.n_banks.saturating_mul(spec.slots_per_bank);
    let mut s = format!(
        "lanes={};banks={};page={};spb={};reads={};writes={};reconfig={};cap={:?};units=",
        spec.n_lanes,
        spec.n_banks,
        spec.page_size,
        spec.slots_per_bank,
        spec.max_vector_reads,
        spec.max_vector_writes,
        spec.reconfig_cost,
        spec.slot_cap.filter(|&c| c < physical),
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

/// Content address of one solver run: the canonical input hashes plus
/// the trajectory-shaping config string. Two runs with equal keys are
/// the *same computation* — same model, same search, same answer — so
/// the key is what a schedule cache (the `eit-serve` daemon) stores
/// results under and what a trace header pins. Wall-clock budgets,
/// worker counts, and cancellation deadlines are deliberately outside
/// the key (they decide *whether* a run finishes, never *what* it
/// produces), so a hot kernel compiled under any request budget serves
/// every later request for it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SolveKey {
    /// [`ir_hash`] of the graph exactly as the solver sees it (after
    /// whatever passes the pipeline ran).
    pub ir_hash: u64,
    /// [`arch_hash`] of the target [`ArchSpec`].
    pub arch_hash: u64,
    /// The options that shape the trajectory, rendered by
    /// [`SolveKey::schedule`] or [`SolveKey::modulo`].
    pub config: String,
}

impl SolveKey {
    /// Key for a straight-line scheduling run: `mode=schedule;memory=…`.
    pub fn schedule(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> SolveKey {
        // Every field is named, so a new option does not compile until
        // it is keyed here or marked budget-only.
        let SchedulerOptions {
            memory,
            // Budget-only: they decide whether or how fast a run ends,
            // never what it produces. The digest cadence travels in the
            // trace header, outside the key.
            timeout: _,
            trace: _,
            state_hash_every: _,
            profile: _,
            cancel: _,
        } = opts;
        SolveKey {
            ir_hash: ir_hash(g),
            arch_hash: arch_hash(spec),
            config: format!("mode=schedule;memory={}", u8::from(*memory)),
        }
    }

    /// Key for a modulo-scheduling sweep: `mode=modulo;incl=…;backend=…`.
    /// Backends agree on the winning II but not on the concrete
    /// assignment, so the backend is keyed.
    pub fn modulo(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> SolveKey {
        let ModuloOptions {
            include_reconfig,
            backend,
            // Budget-only, as in `schedule`; the merged event stream is
            // `jobs`-independent by construction.
            timeout_per_ii: _,
            total_timeout: _,
            jobs: _,
            trace: _,
            state_hash_every: _,
            cancel: _,
        } = opts;
        SolveKey {
            ir_hash: ir_hash(g),
            arch_hash: arch_hash(spec),
            config: format!(
                "mode=modulo;incl={};backend={}",
                u8::from(*include_reconfig),
                backend.as_str(),
            ),
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

    /// The trace header of a recording of this solve that digests
    /// the store every `hash_every` search nodes (`None` = never).
    pub fn header(self, hash_every: Option<u64>) -> TraceHeader {
        TraceHeader {
            ir_hash: self.ir_hash,
            arch_hash: self.arch_hash,
            hash_every: hash_every.unwrap_or(0),
            config: self.config,
        }
    }

    /// Admit a recording with header `h` as a recording of this solve,
    /// or say why it is not one.
    fn admit(&self, h: &TraceHeader) -> Result<(), String> {
        let (ir, arch, config) = (self.ir_hash, self.arch_hash, &self.config);
        if h.ir_hash != ir {
            return Err(format!(
                "trace was recorded for a different IR (trace {:016x}, this run {ir:016x})",
                h.ir_hash
            ));
        }
        if h.arch_hash != arch {
            return Err(format!(
                "trace was recorded for a different architecture \
                 (trace {:016x}, this run {arch:016x})",
                h.arch_hash
            ));
        }
        if h.config != *config {
            return Err(format!(
                "solver config mismatch (trace '{}', this run '{config}')",
                h.config
            ));
        }
        Ok(())
    }
}

/// Everything a recording's header binds it to: a [`SolveKey`] plus the
/// store-digest cadence it was recorded with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// [`SolveKey::ir_hash`].
    pub ir_hash: u64,
    /// [`SolveKey::arch_hash`].
    pub arch_hash: u64,
    /// [`SearchEvent::StateHash`] cadence in nodes; 0 = hashing off.
    pub hash_every: u64,
    /// [`SolveKey::config`]: budgets and worker counts stay outside it,
    /// so `--jobs 1` and `--jobs N` recordings of a solve are byte-equal.
    pub config: String,
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
/// [`crate::model::schedule`] with `opts`, its trace, token and
/// store-digest cadence replaced by the validator's and the recording's.
///
/// `header` is the recording's: unless it pins this solve's
/// [`SolveKey::schedule`] the replay is refused before any search, with
/// the reason.
pub fn replay_schedule(
    g: &Graph,
    spec: &ArchSpec,
    opts: &SchedulerOptions,
    header: &TraceHeader,
    recorded: &[SearchEvent],
) -> Result<RrReport, String> {
    SolveKey::schedule(g, spec, opts).admit(header)?;
    let rep = replay_with(recorded, |trace, cancel| {
        let live = SchedulerOptions {
            trace: Some(trace),
            cancel: Some(cancel),
            state_hash_every: Some(header.hash_every),
            ..opts.clone()
        };
        schedule(g, spec, &live)
    });
    Ok(RrReport {
        streams: 1,
        ..RrReport::new(recorded, rep)
    })
}

/// Re-validate a recorded modulo sweep: run
/// [`crate::modulo::modulo_schedule_checked`] with `opts`, its trace,
/// token and store-digest cadence replaced as in [`replay_schedule`],
/// which also refuses a `header` that does not pin
/// [`SolveKey::modulo`]. Every candidate the live sweep decides, and the
/// order it decides them in, must match the recording.
pub fn replay_modulo(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
    header: &TraceHeader,
    recorded: &[SearchEvent],
) -> Result<RrReport, String> {
    SolveKey::modulo(g, spec, opts).admit(header)?;
    let rep = replay_with(recorded, |trace, cancel| {
        let live = ModuloOptions {
            trace: Some(trace),
            cancel: Some(cancel),
            state_hash_every: Some(header.hash_every),
            ..opts.clone()
        };
        modulo_schedule_checked(g, spec, &live)
    });
    let structure_error = rep.result.as_ref().err().map(ToString::to_string);
    Ok(RrReport {
        ok: rep.ok && structure_error.is_none(),
        structure_error,
        ..RrReport::new(recorded, rep)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo::Backend;
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

    /// Record a straight-line run: its trace header and events.
    fn record_schedule(
        g: &Graph,
        spec: &ArchSpec,
        opts: &SchedulerOptions,
    ) -> (TraceHeader, Vec<SearchEvent>) {
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let mut o = opts.clone();
        o.trace = Some(TraceHandle::new(Arc::clone(&sink)));
        crate::model::schedule(g, spec, &o);
        let events = sink.lock().unwrap().events.clone();
        let header = SolveKey::schedule(g, spec, opts).header(opts.state_hash_every);
        (header, events)
    }

    fn schedule_config(opts: &SchedulerOptions) -> String {
        SolveKey::schedule(&chain(), &ArchSpec::eit(), opts).config
    }

    fn modulo_config(opts: &ModuloOptions) -> String {
        SolveKey::modulo(&chain(), &ArchSpec::eit(), opts).config
    }

    #[test]
    fn config_string_keys_the_trajectory_options_only() {
        // The memory model reshapes the straight-line search, so a trace
        // recorded without it must not replay against the default config
        // (and vice versa): the token is part of the header.
        let base = SchedulerOptions::default();
        assert_eq!(schedule_config(&base), "mode=schedule;memory=1");
        let no_memory = SchedulerOptions {
            memory: false,
            ..base.clone()
        };
        assert_eq!(schedule_config(&no_memory), "mode=schedule;memory=0");
        // Budgets stay outside the key.
        let budgets = SchedulerOptions {
            timeout: None,
            state_hash_every: Some(8),
            profile: true,
            cancel: Some(eit_cp::CancelToken::new()),
            ..base.clone()
        };
        assert_eq!(schedule_config(&budgets), schedule_config(&base));

        // Same contract for the modulo sweep, which also keys on the
        // decision backend (different backends produce different concrete
        // assignments at the same II).
        let mbase = ModuloOptions::default();
        assert_eq!(modulo_config(&mbase), "mode=modulo;incl=0;backend=cp");
        let mincl = ModuloOptions {
            include_reconfig: true,
            ..mbase.clone()
        };
        assert_eq!(modulo_config(&mincl), "mode=modulo;incl=1;backend=cp");
        for (backend, name) in [(Backend::Sat, "sat"), (Backend::Race, "race")] {
            let other = ModuloOptions {
                backend,
                ..mbase.clone()
            };
            assert_eq!(
                modulo_config(&other),
                format!("mode=modulo;incl=0;backend={name}")
            );
        }
        let mbudgets = ModuloOptions {
            jobs: 4,
            state_hash_every: Some(8),
            ..mbase.clone()
        };
        assert_eq!(modulo_config(&mbudgets), modulo_config(&mbase));
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

    /// One machine, however it is spelled: the builtin preset, the preset
    /// with its full 64-slot budget as an explicit cap, and the preset
    /// reloaded from its `eit-arch/1` rendering.
    #[test]
    fn arch_hash_is_the_machine_not_its_spelling() {
        let eit = ArchSpec::eit();
        let h = arch_hash(&eit);
        let capped = eit.clone().with_slots(64);
        assert_eq!(capped.slot_cap, Some(64));
        assert_eq!(arch_hash(&capped), h);
        let reloaded = eit_arch::from_arch_xml(&eit_arch::to_arch_xml(&eit)).unwrap();
        assert_eq!(arch_hash(&reloaded), h);
        let reloaded_capped = eit_arch::from_arch_xml(&eit_arch::to_arch_xml(&capped)).unwrap();
        assert_eq!(arch_hash(&reloaded_capped), h);
        // A cap below the physical count is a different machine.
        assert_ne!(arch_hash(&eit.with_slots(63)), h);
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
        let (header, recorded) = record_schedule(&g, &spec, &opts);
        assert!(!recorded.is_empty());
        // The cadence comes from the header, whatever the options say.
        let plain = SchedulerOptions::default();
        let rep = replay_schedule(&g, &spec, &plain, &header, &recorded)
            .expect("the header is this run's");
        assert!(rep.ok, "divergence: {:?}", rep.divergence);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);
        assert_eq!(rep.checked as usize, rep.recorded_events);
    }

    #[test]
    fn perturbed_schedule_replay_reports_divergence() {
        let g = chain();
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions::default();
        let (header, mut recorded) = record_schedule(&g, &spec, &opts);
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
        let rep = replay_schedule(&g, &spec, &opts, &header, &recorded)
            .expect("the header is this run's");
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
        let (header, recorded) = record_modulo(&g, &spec, &opts);
        assert!(recorded
            .iter()
            .any(|e| matches!(e, SearchEvent::Stream { .. })));
        let replay = |events: &[SearchEvent]| {
            replay_modulo(&g, &spec, &opts, &header, events).expect("the header is this run's")
        };
        let rep = replay(&recorded);
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
        let rep = replay(&bad);
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

    /// Record a modulo sweep: its trace header and merged events.
    fn record_modulo(
        g: &Graph,
        spec: &ArchSpec,
        opts: &ModuloOptions,
    ) -> (TraceHeader, Vec<SearchEvent>) {
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let traced = ModuloOptions {
            trace: Some(TraceHandle::new(Arc::clone(&sink))),
            ..opts.clone()
        };
        crate::modulo::modulo_schedule(g, spec, &traced).expect("the kernel has a schedule");
        let events = sink.lock().unwrap().events.clone();
        let header = SolveKey::modulo(g, spec, opts).header(opts.state_hash_every);
        (header, events)
    }

    /// Replay a recording of [`two_configs`] on the default sweep.
    fn replay_two_configs(
        header: &TraceHeader,
        recorded: &[SearchEvent],
    ) -> Result<RrReport, String> {
        let (g, spec) = (two_configs(), ArchSpec::eit());
        replay_modulo(&g, &spec, &Default::default(), header, recorded)
    }

    /// The two-candidate recording and the index of its `stream 2` marker.
    fn two_candidate_recording() -> (TraceHeader, Vec<SearchEvent>, usize) {
        let g = two_configs();
        let (header, recorded) = record_modulo(&g, &ArchSpec::eit(), &ModuloOptions::default());
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
        (header, recorded, markers[1].0)
    }

    /// Replay `recorded`, which must be refused at recorded event `index`
    /// of stream `stream`.
    fn assert_refused(header: &TraceHeader, recorded: &[SearchEvent], stream: u32, index: usize) {
        let rep = replay_two_configs(header, recorded).expect("the header is this run's");
        assert!(!rep.ok, "accepted {recorded:?}");
        let (s, d) = rep.divergence.expect("a divergence");
        assert_eq!((s, d.index), (stream, index));
    }

    #[test]
    fn two_candidate_recording_replays_as_two_streams() {
        let (header, recorded, _) = two_candidate_recording();
        let rep = replay_two_configs(&header, &recorded).expect("the header is this run's");
        assert!(rep.ok, "divergence: {:?}", rep.divergence);
        assert_eq!(rep.streams, 2);
        assert_eq!(rep.checked as usize, rep.recorded_events);
        assert_eq!(rep.recorded_events, recorded.len() - 2);
        assert_eq!(rep.replay_nodes, rep.recorded_nodes);
    }

    #[test]
    fn modulo_replay_refuses_a_recording_cut_before_the_winner() {
        // Claims the sweep stopped at the refutation of II 1.
        let (header, recorded, second) = two_candidate_recording();
        assert_refused(&header, &recorded[..second], 1, second);
    }

    #[test]
    fn modulo_replay_refuses_a_recording_without_the_refuted_candidate() {
        // Claims II 2 was the first candidate.
        let (header, recorded, second) = two_candidate_recording();
        assert_refused(&header, &recorded[second..], 2, 0);
    }

    #[test]
    fn modulo_replay_refuses_an_empty_recording_of_a_schedulable_kernel() {
        let (header, ..) = two_candidate_recording();
        assert_refused(&header, &[], 0, 0);
    }

    /// A header for another IR, machine or config is refused with its
    /// reason and no report. The events are a faithful recording of the
    /// live sweep, so a search would have accepted them: the refusal is
    /// decided before any search.
    #[test]
    fn modulo_replay_refusal_runs_no_search() {
        let (header, recorded, _) = two_candidate_recording();
        let (g, spec, opts) = (two_configs(), ArchSpec::eit(), ModuloOptions::default());
        let incl = ModuloOptions {
            include_reconfig: true,
            ..Default::default()
        };
        let foreign = [
            (
                SolveKey::modulo(&chain(), &spec, &opts),
                "trace was recorded for a different IR",
            ),
            (
                SolveKey::modulo(&g, &spec.clone().with_slots(32), &opts),
                "trace was recorded for a different architecture",
            ),
            (SolveKey::modulo(&g, &spec, &incl), "solver config mismatch"),
        ];
        for (key, why) in foreign {
            let h = key.header(None);
            let err =
                replay_two_configs(&h, &recorded).expect_err("a foreign header must be refused");
            assert!(err.starts_with(why), "{err}");
        }
        // The same events under their own header replay clean.
        let rep = replay_two_configs(&header, &recorded).unwrap();
        assert!(rep.ok);
    }
}
