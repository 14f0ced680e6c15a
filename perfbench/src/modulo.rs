//! `modulo`: the §4.3 II sweep on three backends plus steady-state
//! memory allocation, closed loop, one thread (two during race ops).
//!
//! A round runs the exclude-reconfig sweep on all six table kernels under
//! `cp`, `sat` and `race`, the include-reconfig CP sweep on every kernel
//! but detector, and the steady-state allocations of [`ALLOCS`]. Every
//! sweep passes `verify_modulo` and `validate_modulo` and finds the II of
//! the set-up sweep (so the backends agree); every allocation passes
//! `validate_structure` and gives the outcome set-up recorded.

use crate::compile::KERNELS;
use crate::trace::Tracer;
use crate::{guarded, note_failure, Bench, Metrics, Step};
use eit_arch::{validate_structure, verify_modulo, ArchSpec};
use eit_core::{
    allocate_modulo_memory_with, build_probe, ii_lower_bound, modulo_schedule_checked,
    validate_modulo, AllocOptions, AllocOutcome, Backend, ModuloOptions, ModuloResult,
};
use eit_cp::RestartConfig;
use eit_ir::Graph;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Kernel whose include-reconfig sweep stays out of the round: about
/// 300 ms a sweep, which would outweigh the rest of the round.
const NO_INCL: &str = "detector";

/// Steady-state allocations of a round: (kernel, slot budget). Each
/// either allocates in 10–50 ms or is refuted in about 1 ms; budgets
/// whose search runs for seconds are left out so no single op carries
/// the round.
pub const ALLOCS: [(&str, u32); 9] = [
    ("fir", 64),
    ("fir", 48),
    ("arf", 64),
    ("arf", 48),
    ("qrd", 48),
    ("qrd", 32),
    ("detector", 40),
    ("detector", 32),
    ("blockmm", 48),
];

/// Iterations unrolled by each allocation.
const ALLOC_ITERS: usize = 4;

/// Iterations unrolled by `validate_modulo`.
const VALIDATE_ITERS: usize = 3;

/// The 39-slot QRD steady-state allocation (include-reconfig schedule):
/// one search of 1–2 s, so it runs once per traced run, not in rounds.
const QRD39_SLOTS: u32 = 39;

struct Case {
    name: &'static str,
    /// The kernel after validate + merge, built in set-up.
    graph: Graph,
    /// Issue II of the set-up CP sweeps (exclude, include reconfig).
    ii: i32,
    incl_ii: Option<i32>,
}

struct Alloc {
    case: usize,
    spec: ArchSpec,
    /// The set-up CP (exclude-reconfig) schedule the allocation unrolls.
    input: ModuloResult,
    /// `Some(slots used)` if set-up allocated, `None` if it refuted.
    expect: Option<u64>,
}

pub struct ModuloBench {
    spec: ArchSpec,
    cases: Vec<Case>,
    allocs: Vec<Alloc>,
    /// Include-reconfig QRD schedule, the input of the 39-slot allocation.
    qrd_incl: ModuloResult,
    /// II or slot count each op produced most recently, in round order.
    observed: Vec<u64>,
}

fn alloc_opts() -> AllocOptions {
    AllocOptions {
        restarts: Some(RestartConfig::default()),
        ..Default::default()
    }
}

/// Slots an allocation uses, or `None` when it proved the budget too
/// small. `Unknown` (budget exhausted) and invalid allocations are errors.
fn allocate(
    g: &Graph,
    spec: &ArchSpec,
    input: &ModuloResult,
    tr: &mut Tracer,
    span: &'static str,
) -> Result<Option<u64>, String> {
    let out = tr.span(span, |_| {
        allocate_modulo_memory_with(g, spec, input, ALLOC_ITERS, &alloc_opts())
    });
    // Outcome counts cover the round's allocations only.
    let count = |tr: &mut Tracer, name| {
        if span == "core.alloc" {
            tr.count(name, 1.0);
        }
    };
    match out {
        AllocOutcome::Allocated(big, sched) => {
            count(tr, "core.alloc_allocated");
            if let Some(v) = validate_structure(&big, spec, &sched).first() {
                return Err(format!("allocation fails validate_structure: {v:?}"));
            }
            let used: BTreeSet<u32> = sched.slot.iter().flatten().copied().collect();
            Ok(Some(used.len() as u64))
        }
        AllocOutcome::Infeasible => {
            count(tr, "core.alloc_infeasible");
            Ok(None)
        }
        AllocOutcome::Unknown => {
            count(tr, "core.alloc_unknown");
            Err("allocation undecided within its budget".into())
        }
    }
}

/// One checked sweep: a schedule that both modulo verifiers accept, and
/// the seconds the sweep itself took.
fn sweep(
    c: &Case,
    spec: &ArchSpec,
    backend: Backend,
    include_reconfig: bool,
    tr: &mut Tracer,
    span: &'static str,
) -> Result<(ModuloResult, f64), String> {
    let opts = ModuloOptions {
        include_reconfig,
        backend,
        ..Default::default()
    };
    let what = format!("{} {} (incl={include_reconfig})", c.name, backend.as_str());
    let t = Instant::now();
    let r = tr.span(span, |_| modulo_schedule_checked(&c.graph, spec, &opts));
    let secs = t.elapsed().as_secs_f64();
    let r = r
        .map_err(|e| format!("{what}: {e}"))?
        .ok_or(format!("{what}: no modulo schedule"))?;
    let v = tr.span("arch.verify_modulo", |_| {
        verify_modulo(&c.graph, spec, &r.s, r.ii_issue)
    });
    if let Some(first) = v.first() {
        return Err(format!("{what}: verify_modulo: {first:?}"));
    }
    let v = tr.span("core.validate_modulo", |_| {
        validate_modulo(&c.graph, spec, &r, VALIDATE_ITERS)
    });
    if let Some(first) = v.first() {
        return Err(format!("{what}: validate_modulo: {first:?}"));
    }
    Ok((r, secs))
}

fn expect_ii(r: &ModuloResult, want: i32, what: &str) -> Result<u64, String> {
    if r.ii_issue != want {
        return Err(format!("{what}: II {} but set-up found {want}", r.ii_issue));
    }
    Ok(r.ii_issue as u64)
}

/// Layer calls at the winning II, made only in traced rounds: the lower
/// bound, the CP probe model, and the SAT encoding and solve.
fn traced_probes(c: &Case, spec: &ArchSpec, tr: &mut Tracer) -> Result<(), String> {
    tr.span("core.ii_lower_bound", |_| {
        black_box(ii_lower_bound(&c.graph, spec))
    });
    tr.span("core.build_probe", |_| {
        black_box(build_probe(&c.graph, spec, c.ii, false))
    })
    .map_err(|e| format!("{}: build_probe: {e}", c.name))?;
    let enc = tr
        .span("sat.encode", |_| {
            eit_sat::encode_modulo(&c.graph, spec, c.ii)
        })
        .map_err(|e| format!("{}: encode_modulo: {e}", c.name))?
        .ok_or(format!("{}: winning II refuted by the encoder", c.name))?;
    let mut solver = eit_sat::Solver::new();
    for _ in 0..enc.cnf.n_vars {
        solver.new_var();
    }
    for cl in &enc.cnf.clauses {
        solver.add_clause(cl);
    }
    let out = tr.span("sat.solve", |_| solver.solve(&mut || false));
    if out != eit_sat::SolveOutcome::Sat {
        return Err(format!(
            "{}: SAT solve at the winning II gave {out:?}",
            c.name
        ));
    }
    Ok(())
}

impl ModuloBench {
    /// The exclude-reconfig ops of one kernel: three backends that must
    /// agree with set-up's II. Returns the three IIs.
    fn kernel_ops(&self, c: &Case, tr: &mut Tracer) -> Vec<Result<u64, String>> {
        let mut times = [0.0f64; 3];
        let mut out = Vec::new();
        for (i, (backend, span)) in [
            (Backend::Cp, "core.sweep_cp"),
            (Backend::Sat, "core.sweep_sat"),
            (Backend::Race, "core.sweep_race"),
        ]
        .into_iter()
        .enumerate()
        {
            let r = guarded(c.name, || {
                let (r, secs) = sweep(c, &self.spec, backend, false, tr, span)?;
                times[i] = secs;
                match backend {
                    Backend::Cp => {
                        tr.count("core.probes", r.probes.len() as f64);
                        let nodes: u64 = r.probes.iter().map(|p| p.nodes).sum();
                        tr.count("core.probe_nodes", nodes as f64);
                    }
                    Backend::Sat => {
                        let s = r
                            .sat
                            .ok_or(format!("{}: sat sweep without counters", c.name))?;
                        tr.count("sat.vars", s.vars as f64);
                        tr.count("sat.clauses", s.clauses as f64);
                        tr.count("sat.conflicts", s.conflicts as f64);
                    }
                    Backend::Race => {
                        tr.count("race.cp_wins", f64::from(u8::from(r.backend == "cp")));
                    }
                }
                expect_ii(&r, c.ii, &format!("{} {}", c.name, backend.as_str()))
            });
            out.push(r);
        }
        if tr.enabled() && times.iter().all(|&t| t > 0.0) {
            tr.count("race.log_ratio", (times[2] / times[0].min(times[1])).ln());
        }
        out
    }
}

impl Bench for ModuloBench {
    // A round takes 0.4–0.7 s: a 45 s run has 60 or more rounds, so p75
    // leaves 15 or more beyond.
    const TAIL_PERCENTILE: f64 = 75.0;

    fn setup(_seed: u64) -> Result<Self, String> {
        let spec = ArchSpec::eit();
        let mut cases = Vec::new();
        let mut qrd_incl = None;
        let mut off = Tracer::off();
        for name in KERNELS {
            let k = eit_apps::by_name(name).ok_or(format!("unknown kernel {name}"))?;
            let mut graph = k.graph;
            graph.validate().map_err(|e| format!("{name}: {e}"))?;
            eit_ir::merge_pipeline_ops(&mut graph);
            let mut c = Case {
                name,
                graph,
                ii: 0,
                incl_ii: None,
            };
            c.ii = sweep(&c, &spec, Backend::Cp, false, &mut off, "")?
                .0
                .ii_issue;
            if name != NO_INCL {
                let (r, _) = sweep(&c, &spec, Backend::Cp, true, &mut off, "")?;
                c.incl_ii = Some(r.ii_issue);
                if name == "qrd" {
                    qrd_incl = Some(r);
                }
            }
            cases.push(c);
        }
        let mut allocs = Vec::new();
        for (name, slots) in ALLOCS {
            let case = KERNELS
                .iter()
                .position(|&k| k == name)
                .expect("ALLOCS names table kernels");
            let (input, _) = sweep(&cases[case], &spec, Backend::Cp, false, &mut off, "")?;
            let spec = ArchSpec::eit().with_slots(slots);
            let expect = allocate(&cases[case].graph, &spec, &input, &mut off, "")
                .map_err(|e| format!("{name}@{slots}: {e}"))?;
            allocs.push(Alloc {
                case,
                spec,
                input,
                expect,
            });
        }
        let mut b = ModuloBench {
            spec,
            cases,
            allocs,
            qrd_incl: qrd_incl.ok_or("qrd has no include-reconfig schedule")?,
            observed: Vec::new(),
        };
        if b.step(&mut off).failed > 0 {
            return Err("modulo: the warm-up round failed its checks".into());
        }
        Ok(b)
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let t = Instant::now();
        let mut results = Vec::new();
        for c in &self.cases {
            if tr.enabled() {
                results.push(guarded(c.name, || {
                    traced_probes(c, &self.spec, tr).map(|_| 0)
                }));
            }
            results.extend(self.kernel_ops(c, tr));
        }
        for c in &self.cases {
            if let Some(want) = c.incl_ii {
                results.push(guarded(c.name, || {
                    let (r, _) = sweep(c, &self.spec, Backend::Cp, true, tr, "core.sweep_incl")?;
                    expect_ii(&r, want, &format!("{} incl", c.name))
                }));
            }
        }
        for a in &self.allocs {
            let c = &self.cases[a.case];
            results.push(guarded(c.name, || {
                let got = allocate(&c.graph, &a.spec, &a.input, tr, "core.alloc")?;
                if got != a.expect {
                    return Err(format!(
                        "{} allocation at {} slots: {got:?} but set-up gave {:?}",
                        c.name,
                        a.spec.n_slots(),
                        a.expect
                    ));
                }
                Ok(got.unwrap_or(0))
            }));
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // The traced-only probe calls are checks, not ops of the round.
        let ops = results.len() as u64
            - if tr.enabled() {
                self.cases.len() as u64
            } else {
                0
            };
        let mut failed = 0;
        self.observed.clear();
        for r in results {
            match r {
                Ok(v) => self.observed.push(v),
                Err(e) => {
                    failed += 1;
                    note_failure(&e);
                }
            }
        }
        Step { ms, ops, failed }
    }

    fn cc_sum(&self) -> u64 {
        self.observed.iter().sum()
    }

    fn traced_extras(&mut self, tr: &mut Tracer) -> Step {
        let t = Instant::now();
        let case = KERNELS
            .iter()
            .position(|&k| k == "qrd")
            .expect("qrd is a table kernel");
        let spec = ArchSpec::eit().with_slots(QRD39_SLOTS);
        let r = guarded("qrd@39", || {
            allocate(
                &self.cases[case].graph,
                &spec,
                &self.qrd_incl,
                tr,
                "core.alloc_qrd39",
            )?
            .ok_or("the 39-slot QRD allocation was refuted".to_string())
        });
        let failed = u64::from(r.is_err());
        if let Err(e) = r {
            note_failure(&e);
        }
        Step {
            ms: t.elapsed().as_secs_f64() * 1e3,
            ops: 1,
            failed,
        }
    }

    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Metrics) {
        let own = tr.self_ms_per_id();
        let counts = tr.counts_per_id();
        for (span, name) in [
            ("core.sweep_cp", "core.sweep_cp_ms"),
            ("core.sweep_sat", "core.sweep_sat_ms"),
            ("core.sweep_race", "core.sweep_race_ms"),
            ("core.sweep_incl", "core.sweep_incl_ms"),
        ] {
            out.median_of(&own, span, name, 1.0, "ms");
        }
        out.median_of(
            &own,
            "core.ii_lower_bound",
            "core.ii_lower_bound_us",
            1e3,
            "us",
        );
        out.median_of(&own, "core.build_probe", "core.build_probe_ms", 1.0, "ms");
        for name in ["core.probes", "core.probe_nodes"] {
            out.median_of(&counts, name, name, 1.0, "count");
        }
        out.median_of(&own, "sat.encode", "sat.encode_ms", 1.0, "ms");
        out.median_of(&own, "sat.solve", "sat.solve_ms", 1.0, "ms");
        for name in ["sat.vars", "sat.clauses", "sat.conflicts"] {
            out.median_of(&counts, name, name, 1.0, "count");
        }
        // Geometric mean over the round's kernels of race ÷ min(cp, sat).
        let mut geo: Vec<f64> = counts
            .get("race.log_ratio")
            .into_iter()
            .flatten()
            .map(|s| (s / self.cases.len() as f64).exp())
            .collect();
        out.push(
            "race.overhead_ratio",
            crate::stats::median(&mut geo),
            "ratio",
        );
        out.median_of(&counts, "race.cp_wins", "race.cp_wins", 1.0, "count");
        out.median_of(&own, "core.alloc", "core.alloc_ms", 1.0, "ms");
        for name in [
            "core.alloc_allocated",
            "core.alloc_infeasible",
            "core.alloc_unknown",
        ] {
            // Rounds without an outcome of this kind count as zero.
            let mut v = counts.get(name).cloned().unwrap_or_default();
            let rounds = own.get("core.alloc").map_or(0, Vec::len);
            v.resize(rounds.max(v.len()), 0.0);
            out.push(name, crate::stats::median(&mut v), "count");
        }
        out.median_of(&own, "core.alloc_qrd39", "core.alloc_qrd39_ms", 1.0, "ms");
        out.median_of(
            &own,
            "arch.verify_modulo",
            "arch.verify_modulo_ms",
            1.0,
            "ms",
        );
        out.median_of(
            &own,
            "core.validate_modulo",
            "core.validate_modulo_ms",
            1.0,
            "ms",
        );
    }
}
