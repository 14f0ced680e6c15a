//! The II sweep behind every backend: one driver, one probe per
//! candidate (CP, SAT, or a race of the two), one verification point for
//! schedules the SAT side decided.

use super::probe::probe_ii;
use super::sat::{check_sat_supported, sat_probe};
use super::{
    assemble_result, check_graph, ii_lower_bound, validate_modulo, Backend, IiOutcome, ModuloError,
    ModuloOptions, ModuloResult, ProbeStat, SatStats,
};
use eit_arch::ArchSpec;
use eit_cp::trace::{MemorySink, SearchEvent, TraceHandle, TraceSink};
use eit_cp::CancelToken;
use eit_ir::Graph;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What the sweep driver hands one probe: the candidate, its share of
/// the budget, its own cancellation token and, when the sweep is traced,
/// a private event buffer.
pub(super) struct ProbeSlot {
    pub(super) ii: i32,
    pub(super) budget: Duration,
    pub(super) cancel: Option<CancelToken>,
    pub(super) trace: Option<TraceHandle>,
}

/// One probe's answer. `nodes`/`fails` are search nodes and failures for
/// CP, decisions and conflicts for SAT; `sat` carries the SAT counters.
pub(super) struct Probed {
    pub(super) outcome: IiOutcome,
    /// The backend whose answer this is: under a race, the side that
    /// decided the candidate.
    pub(super) backend: Backend,
    pub(super) nodes: u64,
    pub(super) fails: u64,
    pub(super) sat: Option<SatStats>,
}

impl Probed {
    /// A probe that decided nothing by search (refuted statically,
    /// malformed, or cancelled before it started solving).
    pub(super) fn bare(backend: Backend, outcome: IiOutcome) -> Probed {
        Probed {
            outcome,
            backend,
            nodes: 0,
            fails: 0,
            sat: None,
        }
    }
}

/// The race probe: CP on the calling thread, and SAT on a thread of its
/// own once CP's search first fails, each under its own child of the
/// slot's token. The first decisive answer (feasible, infeasible or
/// malformed) cancels the other side and stands for the candidate. A
/// CP dive that never fails decides alone and starts nothing; a CP side
/// that returns undecided without having failed hands the rest of the
/// budget to SAT on this thread. A candidate stays undecided only when
/// neither side decides, and then the CP side's timeout or cancellation
/// stands. The SAT side's counters ride along either way, zero when it
/// never started.
fn race_probe(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions, slot: &ProbeSlot) -> Probed {
    let t0 = Instant::now();
    let child = || {
        slot.cancel
            .as_ref()
            .map_or_else(CancelToken::new, |c| c.child())
    };
    let (cp_token, sat_token) = (child(), child());
    let first = Arc::new(OnceLock::new());
    let sat_side = late_sat_side(g, spec, slot, t0, &first, &cp_token, &sat_token);
    let gate = Arc::new(Mutex::new(SatGate {
        start: Some(sat_side),
        running: None,
        cancel: sat_token.clone(),
    }));
    let cp = probe_ii(
        g,
        spec,
        opts,
        &ProbeSlot {
            ii: slot.ii,
            budget: slot.budget,
            cancel: Some(cp_token),
            trace: Some(TraceHandle::new(Arc::clone(&gate))),
        },
    );
    claim(&first, &cp, &sat_token);
    let (start, running) = {
        let mut gate = gate.lock().unwrap_or_else(|e| e.into_inner());
        (gate.start.take(), gate.running.take())
    };
    let sat = match (running, start) {
        (Some(h), _) => h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)),
        (None, Some(start)) if first.get().is_none() => start(),
        _ => Probed::bare(Backend::Sat, IiOutcome::Cancelled),
    };
    let sat_stats = sat.sat.or(Some(SatStats::default()));
    let decided = if first.get() == Some(&Backend::Sat) {
        sat
    } else {
        cp
    };
    Probed {
        sat: sat_stats,
        ..decided
    }
}

/// The work of a race's SAT side, on owned copies of its inputs.
type SatStart = Box<dyn FnOnce() -> Probed + Send>;

/// The SAT side of a race whose probe started at `t0`: whenever it
/// starts, it gets what is left of the candidate's budget, so the probe
/// ends within that budget however late CP's first fail comes. It claims
/// its answer against `first` and cancels the CP side on a decisive one.
fn late_sat_side(
    g: &Graph,
    spec: &ArchSpec,
    slot: &ProbeSlot,
    t0: Instant,
    first: &Arc<OnceLock<Backend>>,
    cp_token: &CancelToken,
    sat_token: &CancelToken,
) -> SatStart {
    let (g, spec) = (g.clone(), spec.clone());
    let (first, cp_token) = (Arc::clone(first), cp_token.clone());
    let (ii, budget, cancel) = (slot.ii, slot.budget, Some(sat_token.clone()));
    Box::new(move || {
        let side = ProbeSlot {
            ii,
            budget: budget.saturating_sub(t0.elapsed()),
            cancel,
            trace: None,
        };
        let p = sat_probe(&g, &spec, &side);
        claim(&first, &p, &cp_token);
        p
    })
}

/// A race's SAT side, as a trace sink on its CP side: the first `Fail`
/// event of the CP search takes `start` and runs it on a thread of its
/// own.
struct SatGate {
    start: Option<SatStart>,
    running: Option<std::thread::JoinHandle<Probed>>,
    /// The SAT side's token.
    cancel: CancelToken,
}

impl Drop for SatGate {
    /// A SAT side still running here lost its CP side to a panic: stop
    /// it and wait, so no race thread outlives its probe.
    fn drop(&mut self) {
        if let Some(h) = self.running.take() {
            self.cancel.cancel();
            let _ = h.join();
        }
    }
}

impl TraceSink for SatGate {
    fn record(&mut self, event: &SearchEvent) {
        if matches!(event, SearchEvent::Fail { .. }) {
            if let Some(start) = self.start.take() {
                self.running = Some(std::thread::spawn(start));
            }
        }
    }
}

/// Let a race side's answer stand if it is the first decisive one, and
/// then cancel the other side.
fn claim(first: &OnceLock<Backend>, p: &Probed, other: &CancelToken) {
    let decisive = !matches!(p.outcome, IiOutcome::Timeout | IiOutcome::Cancelled);
    if decisive && first.set(p.backend).is_ok() {
        other.cancel();
    }
}

/// Answer one candidate with the backend `opts` names.
fn probe(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions, slot: &ProbeSlot) -> Probed {
    match opts.backend {
        Backend::Cp => probe_ii(g, spec, opts, slot),
        Backend::Sat => sat_probe(g, spec, slot),
        Backend::Race => race_probe(g, spec, opts, slot),
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
/// the winner). The same holds for the cp and sat backends; under `race`
/// the II is the same, but which side decides each candidate varies
/// from run to run, and so may the schedule.
///
/// This is the `Option`-shaped convenience wrapper around
/// [`modulo_schedule_checked`]: structured failures (malformed graph,
/// unsupported backend, backend disagreement) collapse into `None`.
/// Call the checked variant when the diagnostic matters.
pub fn modulo_schedule(g: &Graph, spec: &ArchSpec, opts: &ModuloOptions) -> Option<ModuloResult> {
    modulo_schedule_checked(g, spec, opts).ok().flatten()
}

/// As [`modulo_schedule`], with structured errors kept apart from the
/// ordinary "no schedule within budget" (`Ok(None)`) outcome. Every
/// backend runs the one sweep; only the probe differs.
///
/// A winner the SAT side decided (under `sat`, or a race candidate SAT
/// answered first) is accepted only after **both** independent verifiers
/// pass ([`eit_arch::verify_modulo`] on the steady-state window and
/// [`validate_modulo`] on the unrolled schedule). A verifier rejection is
/// a structured [`ModuloError::BackendDisagreement`], never a panic and
/// never a silently-wrong schedule.
pub fn modulo_schedule_checked(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<ModuloResult>, ModuloError> {
    check_graph(g, spec)?;
    if opts.backend != Backend::Cp {
        check_sat_supported(opts)?;
    }
    let r = sweep(g, spec, opts)?;
    if let Some(r) = r.as_ref().filter(|r| r.backend == Backend::Sat.as_str()) {
        let ii = r.ii_issue;
        for (verifier, violations) in [
            ("verify_modulo", eit_arch::verify_modulo(g, spec, &r.s, ii)),
            ("the structural validator", validate_modulo(g, spec, r, 3)),
        ] {
            if !violations.is_empty() {
                return Err(ModuloError::BackendDisagreement(format!(
                    "sat schedule at II={ii} rejected by {verifier}: {:?}",
                    violations.first()
                )));
            }
        }
    }
    Ok(r)
}

/// One probe as the sweep driver records it.
struct Record {
    ii: i32,
    worker: usize,
    time: Duration,
    probed: Probed,
    events: Vec<SearchEvent>,
}

/// The II sweep behind every backend: [`probe`] answers one candidate.
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
/// Only the cp backend is traced: the CDCL engine emits no search
/// events, and a race's CP side is cut short whenever SAT decides first.
///
/// Returns the winning schedule, if any, with the SAT counters summed
/// over the probes at or below the winner.
fn sweep(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<ModuloResult>, ModuloError> {
    let t0 = Instant::now();
    let lb = ii_lower_bound(g, spec);
    let ub = crate::model::serial_horizon(g, spec);
    let next = AtomicI32::new(lb);
    let bound = AtomicI32::new(i32::MAX);
    let in_flight: Mutex<Vec<(i32, CancelToken)>> = Mutex::new(Vec::new());
    let lock_live = || in_flight.lock().unwrap_or_else(|e| e.into_inner());
    let trace = opts.trace.as_ref().filter(|_| opts.backend == Backend::Cp);

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
            let buffer = trace.map(|_| Arc::new(Mutex::new(MemorySink::default())));
            let slot = ProbeSlot {
                ii,
                budget: opts.timeout_per_ii.min(remaining),
                cancel: Some(token),
                trace: buffer.as_ref().map(|b| TraceHandle::new(Arc::clone(b))),
            };
            let tp = Instant::now();
            let probed = probe(g, spec, opts, &slot);
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
    let win = records
        .iter()
        .position(|r| matches!(r.probed.outcome, IiOutcome::Feasible(_)));
    if let Some(handle) = trace {
        // Forward each buffered probe stream up to the winner, or every
        // one when no candidate wins, in II order, behind a `Stream`
        // marker carrying its candidate, and flush on every exit.
        // Candidates below the winner always run to a natural stop, so
        // this prefix, and hence the merged trace, is the same at any
        // `jobs`.
        let forwarded = win.map_or(records.len(), |w| w + 1);
        for r in &records[..forwarded] {
            handle.emit(&SearchEvent::Stream { id: r.ii as u32 });
            r.events.iter().for_each(|e| handle.emit(e));
        }
        handle.flush();
    }
    if let Some(pos) = records
        .iter()
        .position(|r| matches!(r.probed.outcome, IiOutcome::Malformed(_)))
    {
        let IiOutcome::Malformed(e) = records.swap_remove(pos).probed.outcome else {
            unreachable!("pos indexes a malformed probe");
        };
        return Err(e);
    }
    let Some(win) = win else {
        return Ok(None);
    };
    let sat = records[..=win]
        .iter()
        .filter_map(|r| r.probed.sat)
        .reduce(|mut sum, s| {
            sum.absorb(&s);
            sum
        });
    let timed_out = records[..win]
        .iter()
        .any(|r| matches!(r.probed.outcome, IiOutcome::Timeout));
    let probes = records
        .iter()
        .map(|r| ProbeStat {
            ii: r.ii,
            outcome: outcome_str(&r.probed.outcome),
            backend: r.probed.backend,
            nodes: r.probed.nodes,
            fails: r.probed.fails,
            time: r.time,
            worker: r.worker,
        })
        .collect();
    let winner = records.swap_remove(win);
    let IiOutcome::Feasible(s) = winner.probed.outcome else {
        unreachable!("win indexes a feasible probe");
    };
    Ok(Some(ModuloResult {
        opt_time: t0.elapsed(),
        timed_out,
        probes,
        jobs: opts.jobs.max(1),
        backend: winner.probed.backend.as_str(),
        sat,
        ..assemble_result(g, spec, opts.include_reconfig, winner.ii, s)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_apps::synth::{build, SynthParams};

    fn race(g: &Graph, per_ii: Duration) -> ModuloResult {
        let opts = ModuloOptions {
            backend: Backend::Race,
            timeout_per_ii: per_ii,
            total_timeout: per_ii * 20,
            ..Default::default()
        };
        modulo_schedule_checked(g, &ArchSpec::eit(), &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", g.name))
            .unwrap_or_else(|| panic!("{}: no schedule", g.name))
    }

    /// Synthetic kernel (seed 3, 3 layers × 5) whose CP probes below the
    /// winning II 7 fail: CP refutes II 4 and 5 after some search and
    /// does not decide II 6 within a second, where SAT refutes it in
    /// about 50 ms.
    fn failing_kernel() -> Graph {
        let mut g = build(SynthParams {
            seed: 3,
            layers: 3,
            width: 5,
            ..Default::default()
        })
        .graph;
        eit_ir::merge_pipeline_ops(&mut g);
        g
    }

    #[test]
    fn fail_free_table_kernels_race_without_starting_sat() {
        // Every CP probe of the six table kernels decides its II with
        // zero fails, so the race's SAT side never opens its gate.
        let spec = ArchSpec::eit();
        for name in ["matmul", "fir", "arf", "qrd", "detector", "blockmm"] {
            let mut g = eit_apps::by_name(name).expect("table kernel").graph;
            eit_ir::merge_pipeline_ops(&mut g);
            let r = race(&g, Duration::from_secs(60));
            assert_eq!(r.backend, "cp", "{name}");
            assert_eq!(r.sat, Some(SatStats::default()), "{name}");
            assert!(r.probes.iter().all(|p| p.backend == Backend::Cp));
            assert!(eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue).is_empty());
        }
    }

    #[test]
    fn a_failing_cp_dive_starts_the_sat_side_and_it_can_win() {
        let g = failing_kernel();
        let spec = ArchSpec::eit();
        let cp = modulo_schedule_checked(
            &g,
            &spec,
            &ModuloOptions {
                timeout_per_ii: Duration::from_millis(200),
                ..Default::default()
            },
        )
        .unwrap()
        .expect("cp finds a schedule");
        let r = race(&g, Duration::from_secs(30));
        assert_eq!(r.ii_issue, cp.ii_issue);
        assert_eq!(r.ii_issue, 7);
        assert!(
            r.probes.iter().any(|p| p.backend == Backend::Sat),
            "no candidate decided by sat: {:?}",
            r.probes
        );
        let sat = r.sat.expect("race carries the SAT counters");
        assert!(sat.vars > 0 && sat.clauses > 0);
        assert!(eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue).is_empty());
        assert!(validate_modulo(&g, &spec, &r, 3).is_empty());
    }

    #[test]
    fn a_race_with_a_started_sat_side_ends_within_its_budget() {
        // CP fails early on every candidate below the winner, so each of
        // those probes starts its SAT side; the probe still ends with the
        // candidate's budget, plus the poll latency of both sides.
        let g = failing_kernel();
        let budget = Duration::from_millis(50);
        let slack = Duration::from_millis(150);
        let t0 = Instant::now();
        let r = race(&g, budget);
        let elapsed = t0.elapsed();
        for p in &r.probes {
            assert!(p.time <= budget + slack, "II {} took {:?}", p.ii, p.time);
        }
        assert!(
            elapsed <= (budget + slack) * r.probes.len() as u32,
            "{} probes took {elapsed:?}",
            r.probes.len()
        );
    }

    #[test]
    fn a_late_sat_side_gets_only_the_rest_of_the_budget() {
        // The SAT side decides qrd at II 22 well inside a 30 s budget
        // when it starts with the probe; started once the whole budget
        // has passed, it must give up at once instead of taking a fresh
        // budget of its own.
        let mut g = eit_apps::by_name("qrd").expect("table kernel").graph;
        eit_ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let budget = Duration::from_secs(30);
        let slot = ProbeSlot {
            ii: 22,
            budget,
            cancel: None,
            trace: None,
        };
        let run = |t0: Instant| {
            let first = Arc::new(OnceLock::new());
            let (cp, sat) = (CancelToken::new(), CancelToken::new());
            let p = late_sat_side(&g, &spec, &slot, t0, &first, &cp, &sat)();
            (p.outcome, first.get().copied(), cp.is_cancelled())
        };
        let (outcome, first, cp_cancelled) = run(Instant::now());
        assert!(matches!(outcome, IiOutcome::Feasible(..)), "{outcome:?}");
        assert_eq!((first, cp_cancelled), (Some(Backend::Sat), true));
        let started = Instant::now()
            .checked_sub(budget)
            .expect("host up for 30 s");
        let t = Instant::now();
        let (outcome, first, cp_cancelled) = run(started);
        assert!(matches!(outcome, IiOutcome::Timeout), "{outcome:?}");
        assert_eq!((first, cp_cancelled), (None, false));
        assert!(t.elapsed() < Duration::from_secs(5), "{:?}", t.elapsed());
    }
}
