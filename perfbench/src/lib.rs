//! End-to-end and per-layer benchmark of the eit toolchain.
//!
//! Three workloads ([`Workload`]), each set up from one seed and run in
//! its own process: `compile` (the straight-line fig. 2 path), `modulo`
//! (the §4.3 II sweep on three backends plus steady-state allocation)
//! and `serve` (the `eit-serve` daemon and its cache). Every op calls
//! the public layer functions in-process and checks its own output. An
//! untraced run reports the end-to-end metrics; a traced run times each
//! public call into each layer and reports the per-layer metrics. See
//! `README.md` for why each workload and rule exists.

pub mod compile;
pub mod modulo;
pub mod serve;
pub mod stats;
pub mod steady;
pub mod sys;
pub mod trace;

use eit_core::json::Json;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use sys::HostProbe;
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Modulo,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Modulo, Workload::Serve];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Modulo => "modulo",
            Workload::Serve => "serve",
        }
    }
}

/// One latency sample: a round over the fixed op list (`compile`,
/// `modulo`) or one request (`serve`).
pub struct Step {
    /// Wall time of the sample, in ms.
    pub ms: f64,
    /// Ops the sample ran (compiles, sweeps, allocations or requests).
    pub ops: u64,
    /// Ops whose output failed its check.
    pub failed: u64,
}

/// A workload after set-up.
pub trait Bench: Sized {
    /// Percentile `latency_tail_ms` reports, chosen so that a run of
    /// the benchmark's length leaves at least ten samples beyond it.
    const TAIL_PERCENTILE: f64;
    /// Build inputs and reference outputs from `seed`, then warm up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// Run, time and check one latency sample.
    fn step(&mut self, tr: &mut Tracer) -> Step;
    /// The last step closed a round or pass; a run ends only here.
    fn at_boundary(&self) -> bool {
        true
    }
    /// `schedule_cc_sum`: makespans, issue IIs and allocated slots of one
    /// round or pass, as the steps observed them.
    fn cc_sum(&self) -> u64;
    /// Traced runs only: work that is not part of a round (run once).
    fn traced_extras(&mut self, _tr: &mut Tracer) -> Step {
        Step {
            ms: 0.0,
            ops: 0,
            failed: 0,
        }
    }
    /// Per-layer metrics of a traced window.
    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Metrics);
    /// Checks that span the whole run rather than one op (empty = pass).
    fn run_errors(&self) -> Vec<String> {
        Vec::new()
    }
    /// Facts about the run for the detail line (mix, per-kind counts).
    fn detail(&self) -> Vec<(String, Json)> {
        Vec::new()
    }
    /// Stop everything set-up started and wait for it.
    fn teardown(self) {}
}

/// Named metrics with units, in the order they are pushed.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// Push the median of each per-id series in `series` under `name`,
    /// scaled by `scale`.
    pub fn median_of(
        &mut self,
        series: &std::collections::BTreeMap<&'static str, Vec<f64>>,
        key: &str,
        name: &str,
        scale: f64,
        unit: &'static str,
    ) {
        let mut v = series.get(key).cloned().unwrap_or_default();
        self.push(name, stats::median(&mut v) * scale, unit);
    }
}

/// What one run prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub detail: Vec<(String, Json)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(*v)),
                    ("unit".into(), Json::str(*u)),
                ]);
                (n.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::int(self.attempted)),
            ("failed".into(), Json::int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

static FAILURES_SHOWN: AtomicUsize = AtomicUsize::new(0);

/// Report a failed check on stderr (the first 20 per process).
pub fn note_failure(what: &str) {
    if FAILURES_SHOWN.fetch_add(1, Ordering::Relaxed) < 20 {
        eprintln!("perfbench: check failed: {what}");
    }
}

/// Run `f`, turning a panic in the program into a failed op, so that a
/// run with failures still prints every metric.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(_) => Err(format!("{what}: panicked")),
    }
}

/// Latency samples and op counts of one measured window. `secs` and
/// `cpu_s` leave out the host probe's passes.
pub struct Window {
    pub samples: Vec<f64>,
    /// Per sample: the number of probe passes taken before it started.
    pub passes_before: Vec<usize>,
    pub ops: u64,
    pub failed: u64,
    pub secs: f64,
    pub cpu_s: f64,
}

impl Window {
    pub fn ok_ops_per_s(&self) -> f64 {
        (self.ops - self.failed) as f64 / self.secs
    }
}

/// Workload time between two passes of the host probe during a run.
const PROBE_EVERY: Duration = Duration::from_millis(150);

/// Run steps until `seconds` have passed and a round or pass has closed.
/// A failed step's sample is infinite: it sorts beyond the tail. With a
/// `probe`, a probe pass runs between steps after every [`PROBE_EVERY`]
/// of workload time; the passes are left out of the window's time.
pub fn measure(
    b: &mut impl Bench,
    seconds: f64,
    tr: &mut Tracer,
    mut probe: Option<&mut HostProbe>,
) -> Window {
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    let mut last_probe = Instant::now();
    // The probe loop is single-threaded and never blocks, so its CPU
    // time is its wall time.
    let mut probe_s = 0.0;
    let mut w = Window {
        samples: Vec::new(),
        passes_before: Vec::new(),
        ops: 0,
        failed: 0,
        secs: 0.0,
        cpu_s: 0.0,
    };
    loop {
        tr.set_id(w.samples.len() as u64);
        w.passes_before
            .push(probe.as_deref().map_or(0, |p| p.passes.len()));
        let s = b.step(tr);
        w.samples
            .push(if s.failed > 0 { f64::INFINITY } else { s.ms });
        w.ops += s.ops;
        w.failed += s.failed;
        if let Some(p) = probe.as_deref_mut() {
            if last_probe.elapsed() >= PROBE_EVERY {
                probe_s += p.pass() / 1e3;
                last_probe = Instant::now();
            }
        }
        if t0.elapsed().as_secs_f64() - probe_s >= seconds && b.at_boundary() {
            break;
        }
    }
    w.secs = t0.elapsed().as_secs_f64() - probe_s;
    w.cpu_s = sys::cpu_seconds() - cpu0 - probe_s;
    w
}

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Probe passes taken before and after each set-up.
const SETUP_PASSES: usize = 3;

/// Set up [`SETUPS`] times, keeping the last. Returns it with the median
/// set-up time as measured and the median after each set-up is scaled
/// by the probe passes taken around it.
fn setup_median<B: Bench>(seed: u64, probe: &mut HostProbe) -> Result<(B, f64, f64), String> {
    let mut raw = Vec::new();
    let mut scaled = Vec::new();
    let mut kept: Option<B> = None;
    for _ in 0..SETUPS {
        let from = probe.passes.len();
        for _ in 0..SETUP_PASSES {
            probe.pass();
        }
        let t = Instant::now();
        let b = B::setup(seed)?;
        let secs = t.elapsed().as_secs_f64();
        for _ in 0..SETUP_PASSES {
            probe.pass();
        }
        raw.push(secs);
        scaled.push(secs * probe.scale(from..probe.passes.len()));
        if let Some(old) = kept.replace(b) {
            old.teardown();
        }
    }
    Ok((
        kept.expect("SETUPS > 0"),
        stats::median(&mut raw),
        stats::median(&mut scaled),
    ))
}

/// An untraced run: the end-to-end metrics. Every time among them is
/// scaled onto the reference host by the probe passes taken next to it
/// ([`HostProbe::scale`]): each latency sample by the pass just before
/// and the pass just after it, the window's time and CPU time by the
/// mean scale of its samples, weighted by their time. The detail line
/// carries the times as measured.
fn untraced<B: Bench>(seed: u64, seconds: f64) -> Result<Report, String> {
    let calib_before = sys::calib_ms();
    let mut probe = HostProbe::new();
    let (mut b, raw_setup_s, setup_s) = setup_median::<B>(seed, &mut probe)?;
    let from = probe.passes.len();
    let w = measure(&mut b, seconds, &mut Tracer::off(), Some(&mut probe));
    let mut scaled: Vec<f64> = w
        .samples
        .iter()
        .zip(&w.passes_before)
        .map(|(ms, &k)| ms * probe.scale(k.saturating_sub(1)..k + 1))
        .collect();
    let finite_sum = |v: &[f64]| v.iter().filter(|x| x.is_finite()).sum::<f64>();
    let scale = finite_sum(&scaled) / finite_sum(&w.samples);
    let cc = b.cc_sum();
    let errors = b.run_errors();
    let mut detail = b.detail();
    b.teardown();
    let calib_after = sys::calib_ms();

    // A percentile that lands on a failed op has no time; report the
    // window's length, which no finished sample can exceed.
    let window_ms = w.secs * 1e3;
    let finite = |v: f64| if v.is_finite() { v } else { window_ms };
    let p50 = stats::median(&mut w.samples.clone());
    let tail = stats::tail(&mut w.samples.clone(), B::TAIL_PERCENTILE);
    let scaled_p50 = stats::median(&mut scaled.clone());
    let scaled_tail = stats::tail(&mut scaled, B::TAIL_PERCENTILE);

    let cpu_ms_per_op = w.cpu_s * 1e3 / w.ops as f64;

    let mut m = Metrics::default();
    m.push("setup_s", setup_s, "s");
    m.push("ops_per_s", w.ok_ops_per_s() / scale, "1/s");
    m.push("latency_p50_ms", finite(scaled_p50), "ms");
    m.push("latency_tail_ms", finite(scaled_tail.value), "ms");
    m.push("cpu_ms_per_op", cpu_ms_per_op * scale, "ms");
    m.push(
        "success_rate",
        (w.ops - w.failed) as f64 / w.ops as f64,
        "ratio",
    );
    m.push("schedule_cc_sum", cc as f64, "cc");
    m.push("peak_rss_mb", sys::peak_rss_mb(), "MiB");

    detail.extend([
        ("tail_percentile".into(), Json::Num(tail.percentile)),
        ("tail_beyond".into(), Json::int(tail.beyond as u64)),
        ("samples".into(), Json::int(tail.samples as u64)),
        (
            "error_rate".into(),
            Json::Num(w.failed as f64 / w.ops as f64),
        ),
        ("host.calib_ms_before".into(), Json::Num(calib_before)),
        ("host.calib_ms_after".into(), Json::Num(calib_after)),
        (
            "host.pass_ms".into(),
            Json::Num(probe.median(from..probe.passes.len())),
        ),
        (
            "host.passes".into(),
            Json::int((probe.passes.len() - from) as u64),
        ),
        ("host.scale".into(), Json::Num(scale)),
        ("measured.setup_s".into(), Json::Num(raw_setup_s)),
        ("measured.ops_per_s".into(), Json::Num(w.ok_ops_per_s())),
        ("measured.latency_p50_ms".into(), Json::Num(finite(p50))),
        (
            "measured.latency_tail_ms".into(),
            Json::Num(finite(tail.value)),
        ),
        ("measured.cpu_ms_per_op".into(), Json::Num(cpu_ms_per_op)),
    ]);
    for e in &errors {
        note_failure(e);
    }
    Ok(Report {
        correct: w.failed == 0 && errors.is_empty(),
        attempted: w.ops,
        failed: w.failed,
        metrics: m,
        detail,
    })
}

/// Totals of a traced run across its phases.
#[derive(Default)]
struct Traced {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// One traced phase: set up `B`, optionally measure it untraced first
/// (the base of the tracing overhead), then measure it traced.
fn traced_phase<B: Bench>(
    name: &str,
    seed: u64,
    seconds: f64,
    with_base: bool,
    acc: &mut Traced,
    spans: &mut Option<BufWriter<File>>,
) -> Result<(), String> {
    let mut b = B::setup(seed)?;
    let base = with_base.then(|| measure(&mut b, seconds, &mut Tracer::off(), None));
    let mut tr = Tracer::on();
    tr.set_id(u64::MAX);
    let extra = b.traced_extras(&mut tr);
    let w = measure(&mut b, seconds, &mut tr, None);
    b.layer_metrics(&tr, &mut acc.metrics);
    if let Some(base) = &base {
        acc.metrics.push(
            "trace.overhead_ratio",
            base.ok_ops_per_s() / w.ok_ops_per_s(),
            "ratio",
        );
        acc.attempted += base.ops;
        acc.failed += base.failed;
    }
    acc.attempted += w.ops + extra.ops;
    acc.failed += w.failed + extra.failed;
    acc.errors.extend(b.run_errors());
    b.teardown();
    if let Some(f) = spans {
        tr.write_jsonl(name, f)
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    Ok(())
}

type Phase =
    fn(&str, u64, f64, bool, &mut Traced, &mut Option<BufWriter<File>>) -> Result<(), String>;

/// A traced run: `workload` untraced then traced (for the overhead),
/// then the other two workloads traced, so every per-layer metric is
/// present whichever workload is named. Each window gets a quarter of
/// `seconds`.
fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_path: Option<&Path>,
) -> Result<Report, String> {
    let calib_before = sys::calib_ms();
    let mut spans = match spans_path {
        Some(p) => {
            if let Some(dir) = p.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            let f = File::create(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Some(BufWriter::new(f))
        }
        None => None,
    };
    let q = seconds / 4.0;
    let mut acc = Traced::default();
    for w in Workload::ALL {
        let phase: Phase = match w {
            Workload::Compile => traced_phase::<compile::CompileBench>,
            Workload::Modulo => traced_phase::<modulo::ModuloBench>,
            Workload::Serve => traced_phase::<serve::ServeBench>,
        };
        phase(w.name(), seed, q, w == workload, &mut acc, &mut spans)?;
    }
    if let Some(f) = &mut spans {
        f.flush().map_err(|e| format!("cannot write spans: {e}"))?;
    }
    let calib_after = sys::calib_ms();
    acc.metrics
        .push("host.calib_ms", (calib_before + calib_after) / 2.0, "ms");
    for e in &acc.errors {
        note_failure(e);
    }
    Ok(Report {
        correct: acc.failed == 0 && acc.errors.is_empty(),
        attempted: acc.attempted,
        failed: acc.failed,
        metrics: acc.metrics,
        detail: vec![
            ("host.calib_ms_before".into(), Json::Num(calib_before)),
            ("host.calib_ms_after".into(), Json::Num(calib_after)),
        ],
    })
}

/// Run `workload` for `seconds` from `seed`. Untraced: the end-to-end
/// metrics. Traced: the per-layer metrics, with the spans written to
/// `spans_path` when given.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_path: Option<&Path>,
) -> Result<Report, String> {
    if trace {
        return traced(workload, seed, seconds, spans_path);
    }
    match workload {
        Workload::Compile => untraced::<compile::CompileBench>(seed, seconds),
        Workload::Modulo => untraced::<modulo::ModuloBench>(seed, seconds),
        Workload::Serve => untraced::<serve::ServeBench>(seed, seconds),
    }
}
