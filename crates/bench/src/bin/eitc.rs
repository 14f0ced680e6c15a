//! `eitc` — the compiler driver: kernel → schedule → machine listing.
//!
//! The whole fig. 2 flow on the command line.
//!
//! ```text
//! eitc <kernel|path.xml> [options]
//!
//!   <kernel>            qrd | arf | matmul | fir | detector | blockmm,
//!                       or a path to an IR .xml file
//!   --arch A            target machine: a preset name (eit | wide), a path
//!                       to an eit-arch/1 XML file, or inline XML; the
//!                       description is validated on load (default: eit)
//!   --dump-arch A       render the resolved architecture as eit-arch/1
//!                       XML on stdout and exit (no kernel needed); the
//!                       output reloads byte-identical via --arch
//!   --slots N           memory budget override (default: the arch's own;
//!                       64 for the builtin presets)
//!   --no-memory         schedule without the memory model (manual-baseline mode)
//!   --no-merge          skip the fig. 6 pipeline-merge pass
//!   --modulo [incl]     emit a modulo schedule instead (optionally with
//!                       reconfigurations modelled)
//!   --jobs N            worker threads for the modulo II sweep, on both the
//!                       cp and the sat backend (default: 1; N > 1 probes
//!                       candidate IIs speculatively in parallel and yields
//!                       the same schedule as N = 1)
//!   --backend B         decision procedure for the modulo sweep:
//!                       cp (default), sat (the self-contained CDCL solver
//!                       over the order-encoded CNF model), or race (both
//!                       side by side on every candidate II; the first
//!                       decisive answer stands and cancels the other).
//!                       All backends agree on the winning II; sat/race
//!                       require the exclude-reconfig model (no
//!                       `--modulo incl`)
//!   --overlap M         overlapped execution of M iterations
//!   --timeout SECS      solver budget (default: 120)
//!   --emit xml          dump the (merged) IR as XML instead of compiling
//!   --emit dot          dump the (merged) IR as Graphviz DOT
//!   --emit vcd          dump the schedule as a VCD waveform
//!   --emit gantt        print a Gantt chart of the schedule instead of a listing
//!   --emit cnf          with --modulo: print the first encodable candidate
//!                       II of the sweep as a DIMACS CNF problem and exit
//!                       (escape hatch for external SAT solvers)
//!   --verify            after scheduling, re-check the result with the
//!                       independent verifier (eit-arch `verify` module) AND
//!                       the simulator's structural validation; exit 1 if
//!                       either reports a violation
//!   --trace FILE        write the solver's search events as JSON lines
//!   --record FILE       record the solve as a binary eit-trace/1 file
//!                       (canonical IR/arch hashes + every search event +
//!                       periodic store digests); replay it with --replay
//!   --replay FILE       re-validate a recorded solve in O(trace): re-run
//!                       the solve (with --modulo, the whole II sweep)
//!                       and diff every event; exit 1 with a divergence
//!                       report on the first mismatch
//!   --strict            replay: any event mismatch fails (default)
//!   --lenient           replay: only outcome mismatches fail (solutions,
//!                       bounds, store hashes, final status)
//!   --profile           print the per-propagator profile table (stderr)
//!   --restarts [P]      fail-budgeted restarts with nogood recording.
//!                       P = geom:BASE:FACTOR_PERCENT | luby:UNIT, with an
//!                       optional +ng suffix to record nogoods
//!                       (default policy: geom:256:150+ng)
//!   --metrics FILE      write machine-readable run metrics as JSON
//!   --serve ADDR        run as a compile daemon instead: bind ADDR and
//!                       speak the eit-serve/1 JSONL protocol until a
//!                       shutdown request arrives (no kernel argument;
//!                       --jobs sets the worker count, --timeout the
//!                       default per-request deadline, --metrics the
//!                       aggregated server metrics written at shutdown)
//! ```
//!
//! A flag the selected mode cannot honour exits 2 naming it: `--backend`,
//! `--emit cnf` and (outside `--serve`) `--jobs` need `--modulo`;
//! `--emit gantt|vcd`, `--overlap`, `--profile` and `--no-memory` are
//! straight-line only; `--restarts` needs a CP search (not `--backend
//! sat`); `--strict`/`--lenient` need `--replay`.
//!
//! Example: `cargo run --release -p eit-bench --bin eitc -- qrd --slots 16`

use eit_arch::ArchSpec;
use eit_bench::{ArchArgError, Json, RunMetrics};
use eit_core::pipeline::{compile, CompileError, CompileOptions};
use eit_core::{
    bundles_from_schedule, modulo_header, overlapped_execution, replay_modulo, replay_schedule,
    schedule_header, ModuloOptions, SchedulerOptions,
};
use eit_cp::trace::{JsonlSink, SearchEvent, TraceHandle};
use eit_cp::{RecorderSink, ReplayOptions, Trace, TraceHeader};
use eit_ir::sem::Value;
use eit_ir::{Graph, NodeId};
use std::collections::HashMap;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Args {
    kernel: String,
    arch: Option<String>,
    dump_arch: Option<String>,
    slots: Option<u32>,
    memory: bool,
    merge: bool,
    modulo: Option<bool>, // Some(include_reconfig)
    backend: Option<eit_core::Backend>,
    jobs: Option<usize>,
    overlap: Option<usize>,
    timeout: u64,
    emit_xml: bool,
    emit_gantt: bool,
    emit_dot: bool,
    emit_vcd: bool,
    emit_cnf: bool,
    verify: bool,
    trace: Option<String>,
    record: Option<String>,
    replay: Option<String>,
    /// The last of `--strict`/`--lenient` given, if any.
    replay_check: Option<&'static str>,
    profile: bool,
    restarts: Option<eit_cp::RestartConfig>,
    metrics: Option<String>,
    serve: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: eitc <qrd|arf|matmul|fir|detector|blockmm|path.xml>");
    eprintln!("            [--arch PRESET|FILE] [--slots N] [--no-memory] [--no-merge]");
    eprintln!("            [--modulo [incl]] [--backend cp|sat|race] [--jobs N]");
    eprintln!("            [--overlap M] [--timeout SECS]");
    eprintln!("            [--emit xml|gantt|dot|vcd|cnf] [--verify]");
    eprintln!("            [--trace FILE] [--record FILE] [--replay FILE [--strict|--lenient]]");
    eprintln!("            [--profile] [--restarts [POLICY]]");
    eprintln!("            [--metrics FILE]");
    eprintln!("       eitc --serve ADDR [--jobs N] [--timeout SECS] [--metrics FILE]");
    eprintln!("       eitc --dump-arch PRESET|FILE");
    exit(2);
}

fn bad_arg(what: &str) -> ! {
    eprintln!("eitc: unrecognized argument '{what}'");
    usage();
}

fn parse_args() -> Args {
    let mut args = Args {
        kernel: String::new(),
        arch: None,
        dump_arch: None,
        slots: None,
        memory: true,
        merge: true,
        modulo: None,
        backend: None,
        jobs: None,
        overlap: None,
        timeout: 120,
        emit_xml: false,
        emit_gantt: false,
        emit_dot: false,
        emit_vcd: false,
        emit_cnf: false,
        verify: false,
        trace: None,
        record: None,
        replay: None,
        replay_check: None,
        profile: false,
        restarts: None,
        metrics: None,
        serve: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--arch" => args.arch = Some(it.next().unwrap_or_else(|| usage())),
            "--dump-arch" => args.dump_arch = Some(it.next().unwrap_or_else(|| usage())),
            "--slots" => {
                args.slots = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--no-memory" => args.memory = false,
            "--no-merge" => args.merge = false,
            "--modulo" => {
                let incl = it.peek().map(String::as_str) == Some("incl");
                if incl {
                    it.next();
                }
                args.modulo = Some(incl);
            }
            "--backend" => {
                args.backend = Some(
                    it.next()
                        .as_deref()
                        .and_then(eit_core::Backend::parse)
                        .unwrap_or_else(|| {
                            eprintln!("eitc: --backend expects cp, sat, or race");
                            usage();
                        }),
                )
            }
            "--jobs" => {
                args.jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--overlap" => {
                args.overlap = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--timeout" => {
                args.timeout = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--emit" => match it.next().as_deref() {
                Some("xml") => args.emit_xml = true,
                Some("gantt") => args.emit_gantt = true,
                Some("dot") => args.emit_dot = true,
                Some("vcd") => args.emit_vcd = true,
                Some("cnf") => args.emit_cnf = true,
                Some(other) => bad_arg(&format!("--emit {other}")),
                None => usage(),
            },
            "--verify" => args.verify = true,
            "--trace" => args.trace = Some(it.next().unwrap_or_else(|| usage())),
            "--record" => args.record = Some(it.next().unwrap_or_else(|| usage())),
            "--replay" => args.replay = Some(it.next().unwrap_or_else(|| usage())),
            "--strict" => args.replay_check = Some("--strict"),
            "--lenient" => args.replay_check = Some("--lenient"),
            "--profile" => args.profile = true,
            "--restarts" => {
                // The policy token is optional: a following argument is
                // consumed only when it parses as one, so `--restarts
                // qrd` still reads `qrd` as the kernel.
                let parsed = it
                    .peek()
                    .and_then(|t| eit_cp::RestartConfig::parse_token(t));
                args.restarts = Some(match parsed {
                    Some(cfg) => {
                        it.next();
                        cfg
                    }
                    None => eit_cp::RestartConfig::default(),
                });
            }
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--serve" => args.serve = Some(it.next().unwrap_or_else(|| usage())),
            k if !k.starts_with('-') && args.kernel.is_empty() => args.kernel = k.to_string(),
            other => bad_arg(other),
        }
    }
    if args.kernel.is_empty() && args.serve.is_none() && args.dump_arch.is_none() {
        usage();
    }
    // A flag the selected mode cannot honour is an error, never dropped
    // without a word.
    let (modulo, sat) = (
        args.modulo.is_some(),
        args.backend == Some(eit_core::Backend::Sat),
    );
    let (needs_modulo, not_modulo) = ("requires --modulo", "is not supported with --modulo");
    let refused = [
        (!modulo && args.emit_cnf, "--emit cnf", needs_modulo),
        (!modulo && args.backend.is_some(), "--backend", needs_modulo),
        (
            !modulo && args.jobs.is_some() && args.serve.is_none(),
            "--jobs",
            needs_modulo,
        ),
        (modulo && args.emit_gantt, "--emit gantt", not_modulo),
        (modulo && args.emit_vcd, "--emit vcd", not_modulo),
        (modulo && args.overlap.is_some(), "--overlap", not_modulo),
        (modulo && args.profile, "--profile", not_modulo),
        (modulo && !args.memory, "--no-memory", not_modulo),
        // The SAT sweep runs no CP search, so it has nothing to restart.
        (
            sat && args.restarts.is_some(),
            "--restarts",
            "is not supported with --backend sat",
        ),
        (
            args.replay.is_none() && args.replay_check.is_some(),
            args.replay_check.unwrap_or_default(),
            "requires --replay",
        ),
    ];
    if let Some((_, flag, why)) = refused.iter().find(|(given, ..)| *given) {
        eprintln!("eitc: {flag} {why}");
        exit(2);
    }
    args
}

/// Resolve an `--arch` argument ([`eit_bench::resolve_arch_value`]),
/// exiting 1 with a message when it does not resolve.
fn load_arch(arg: &str) -> ArchSpec {
    eit_bench::resolve_arch_value(arg).unwrap_or_else(|e| {
        match e {
            ArchArgError::Unreadable(e) => eprintln!("eitc: cannot read arch file {arg}: {e}"),
            ArchArgError::Invalid(msg) => eprintln!("eitc: --arch: {msg}"),
        }
        exit(1);
    })
}

/// Daemon mode: bind `addr` and answer `eit-serve/1` requests until a
/// shutdown op arrives; then drain, optionally write the aggregated
/// server metrics, and exit 0. `--jobs` sizes the worker pool and
/// `--timeout` becomes the default per-request wall-clock deadline.
fn serve_mode(addr: &str, args: &Args) -> ! {
    use std::io::Write as _;
    let srv = eit_serve::Server::start(eit_serve::ServeOptions {
        addr: addr.to_string(),
        workers: args.jobs.unwrap_or(1),
        default_deadline: Duration::from_secs(args.timeout),
        ..Default::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("eitc: cannot serve on {addr}: {e}");
        exit(1);
    });
    println!("; eit-serve/1 listening on {}", srv.local_addr());
    let _ = std::io::stdout().flush(); // scripts wait for this line
    let doc = srv.join_with_metrics();
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("eitc: cannot write metrics to {path}: {e}");
            exit(1);
        }
    }
    println!("; eit-serve: drained, shutting down");
    exit(0);
}

/// Print verification results and exit 1 on any violation. `label` names
/// the schedule being checked, `independent` is the eit-arch `verify`
/// module's verdict and `structural` the simulator's — the point of
/// running both is that they are separate implementations of the same
/// architecture rules, so a disagreement is itself reportable.
fn report_verification(
    label: &str,
    independent: &[eit_arch::Violation],
    structural: &[eit_arch::Violation],
) {
    let mut bad = false;
    for (tag, vs) in [("verifier", independent), ("simulator", structural)] {
        if vs.is_empty() {
            continue;
        }
        bad = true;
        eprintln!(
            "eitc: --verify: {label}: {tag} found {} violation(s):",
            vs.len()
        );
        for v in vs.iter().take(20) {
            eprintln!("eitc:   {v}");
        }
    }
    if independent.is_empty() != structural.is_empty() {
        eprintln!("eitc: --verify: {label}: verifier and simulator DISAGREE");
    }
    if bad {
        exit(1);
    }
    println!("; verify: {label}: clean (independent verifier + simulator agree)");
}

/// The graph plus, for built-in kernels, its reference input values (so
/// the metrics can include a simulator section).
fn load_graph(name: &str) -> (Graph, HashMap<NodeId, Value>) {
    if name.ends_with(".xml") {
        let src = std::fs::read_to_string(name).unwrap_or_else(|e| {
            eprintln!("eitc: cannot read {name}: {e}");
            exit(1);
        });
        let g = eit_ir::from_xml(&src).unwrap_or_else(|e| {
            eprintln!("eitc: cannot parse {name}: {e}");
            exit(1);
        });
        (g, HashMap::new())
    } else {
        match eit_apps::by_name(name) {
            Some(k) => (k.graph, k.inputs),
            None => {
                eprintln!("eitc: unknown kernel {name}");
                exit(1);
            }
        }
    }
}

/// The `modulo` metrics section. Everything outside `jobs`, the `*_us`
/// timing fields and the `workers` array is deterministic and identical
/// across `--jobs` values: the `probes` array is cut at the winning II —
/// probes at or below the winner always run to a natural stop (cancellation
/// only ever targets candidates above a feasible II), so their node and
/// fail counts, and the `sat` counters summed over them, match the
/// one-worker sweep byte for byte.
fn modulo_metrics(r: &eit_core::ModuloResult) -> Json {
    let probes: Vec<Json> = r
        .probes
        .iter()
        .filter(|p| p.ii <= r.ii_issue)
        .map(|p| {
            Json::Obj(vec![
                ("ii".into(), Json::int(p.ii as u64)),
                ("outcome".into(), Json::str(p.outcome)),
                ("backend".into(), Json::str(p.backend.as_str())),
                ("nodes".into(), Json::int(p.nodes)),
                ("fails".into(), Json::int(p.fails)),
                ("time_us".into(), Json::int(p.time.as_micros() as u64)),
            ])
        })
        .collect();
    // Each probe counts in its deciding backend's units, summed apart:
    // CP search nodes/failures, SAT decisions/conflicts.
    let mut per_worker: Vec<(u64, [[u64; 2]; 2], u64)> = Vec::new();
    for p in &r.probes {
        if per_worker.len() <= p.worker {
            per_worker.resize(p.worker + 1, (0, [[0; 2]; 2], 0));
        }
        let w = &mut per_worker[p.worker];
        w.0 += 1;
        let units = &mut w.1[usize::from(p.backend == eit_core::Backend::Sat)];
        units[0] += p.nodes;
        units[1] += p.fails;
        w.2 += p.time.as_micros() as u64;
    }
    let workers: Vec<Json> = per_worker
        .iter()
        .enumerate()
        .map(
            |(i, &(n, [[nodes, fails], [decisions, conflicts]], busy))| {
                Json::Obj(vec![
                    ("worker".into(), Json::int(i as u64)),
                    ("probes".into(), Json::int(n)),
                    ("nodes".into(), Json::int(nodes)),
                    ("fails".into(), Json::int(fails)),
                    ("decisions".into(), Json::int(decisions)),
                    ("conflicts".into(), Json::int(conflicts)),
                    ("busy_us".into(), Json::int(busy)),
                ])
            },
        )
        .collect();
    let mut fields = vec![
        ("ii_issue".into(), Json::int(r.ii_issue as u64)),
        ("switches".into(), Json::int(r.switches as u64)),
        ("actual_ii".into(), Json::int(r.actual_ii as u64)),
        ("throughput".into(), Json::num(r.throughput)),
        ("timed_out".into(), Json::Bool(r.timed_out)),
        ("jobs".into(), Json::int(r.jobs as u64)),
        // Which decision procedure produced the accepted schedule — under
        // `--backend race` this is the winner attribution.
        ("backend".into(), Json::str(r.backend)),
        (
            "opt_time_us".into(),
            Json::int(r.opt_time.as_micros() as u64),
        ),
        ("probes".into(), Json::Arr(probes)),
        ("workers".into(), Json::Arr(workers)),
    ];
    if let Some(s) = &r.sat {
        fields.push((
            "sat".into(),
            Json::Obj(vec![
                ("vars".into(), Json::int(s.vars)),
                ("clauses".into(), Json::int(s.clauses)),
                ("decisions".into(), Json::int(s.decisions)),
                ("conflicts".into(), Json::int(s.conflicts)),
                ("propagations".into(), Json::int(s.propagations)),
                ("restarts".into(), Json::int(s.restarts)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Refuse a trace recorded for a different problem or solver setup:
/// `want` is the header this run would record.
fn check_trace_header(h: &TraceHeader, want: &TraceHeader) {
    let (ir, arch, config) = (want.ir_hash, want.arch_hash, &want.config);
    if h.ir_hash != ir {
        eprintln!(
            "eitc: replay: trace was recorded for a different IR \
             (trace {:016x}, this run {ir:016x})",
            h.ir_hash
        );
        exit(1);
    }
    if h.arch_hash != arch {
        eprintln!(
            "eitc: replay: trace was recorded for a different architecture \
             (trace {:016x}, this run {arch:016x})",
            h.arch_hash
        );
        exit(1);
    }
    if h.config != *config {
        eprintln!(
            "eitc: replay: solver config mismatch (trace '{}', this run '{config}')",
            h.config
        );
        exit(1);
    }
}

/// `--replay FILE`, for either mode: read the trace, build the run's
/// options at the trace's state-hash cadence with `opts`, refuse a trace
/// whose `header` does not match this run, replay it and exit with the
/// verdict.
fn replay_and_exit<O>(
    path: &str,
    strict: bool,
    g: &Graph,
    spec: &ArchSpec,
    opts: impl FnOnce(Option<u64>) -> O,
    header: fn(&Graph, &ArchSpec, &O) -> TraceHeader,
    replay: fn(&Graph, &ArchSpec, &O, &[SearchEvent], &ReplayOptions) -> eit_core::RrReport,
) -> ! {
    let t = Trace::read(path).unwrap_or_else(|e| {
        eprintln!("eitc: cannot read trace {path}: {e}");
        exit(1);
    });
    let opts = opts((t.header.hash_every > 0).then_some(t.header.hash_every));
    check_trace_header(&t.header, &header(g, spec, &opts));
    let rep = replay(g, spec, &opts, &t.events, &ReplayOptions { strict });
    finish_replay(path, t.file_hash, rep)
}

/// `--record FILE`, for either mode: open the recorder with the run's
/// trace header; the caller traces the solve into it.
fn start_recording(path: &str, header: &TraceHeader) -> Arc<Mutex<RecorderSink>> {
    let sink = RecorderSink::create(path, header).unwrap_or_else(|e| {
        eprintln!("eitc: cannot create trace file {path}: {e}");
        exit(1);
    });
    Arc::new(Mutex::new(sink))
}

/// The `; recorded N event(s)` line a `--record` run prints.
fn print_recorded(path: &str, rec: &Arc<Mutex<RecorderSink>>) {
    let rec = rec.lock().unwrap_or_else(|e| e.into_inner());
    println!(
        "; recorded {} event(s) to {path} (eit-trace/1, fnv64 {:016x})",
        rec.events(),
        rec.hash()
    );
}

/// Report a replay's outcome and exit: 0 on a clean match, 1 with a
/// divergence report (or the live run's error) otherwise.
fn finish_replay(path: &str, file_hash: u64, rep: eit_core::RrReport) -> ! {
    if rep.ok {
        println!(
            "; replay ok: {path} (fnv64 {file_hash:016x}): {} stream(s), \
             {} event(s) checked, replay nodes {} (recorded {})",
            rep.streams, rep.checked, rep.replay_nodes, rep.recorded_nodes
        );
        exit(0);
    }
    if let Some(msg) = &rep.structure_error {
        eprintln!("eitc: replay: the live run failed: {msg}");
    }
    if let Some((stream, d)) = &rep.divergence {
        eprintln!("eitc: replay diverged in stream {stream}:");
        eprint!("{d}");
    }
    exit(1);
}

/// The `trace` metrics section for a recorded run.
fn trace_section(path: &str, rec: &Arc<Mutex<RecorderSink>>) -> Json {
    let r = rec.lock().unwrap_or_else(|e| e.into_inner());
    Json::Obj(vec![
        ("format".into(), Json::str("eit-trace/1")),
        ("file".into(), Json::str(path)),
        ("hash".into(), Json::str(format!("{:016x}", r.hash()))),
        ("events".into(), Json::int(r.events())),
    ])
}

fn main() {
    let args = parse_args();
    if let Some(a) = &args.dump_arch {
        // The rendered bytes reload equal to the source description, so
        // `--arch <(eitc --dump-arch eit)` is the builtin path verbatim.
        print!("{}", eit_arch::to_arch_xml(&load_arch(a)));
        return;
    }
    if let Some(addr) = &args.serve {
        serve_mode(addr, &args);
    }
    let (mut g, inputs) = load_graph(&args.kernel);
    if let Err(e) = g.validate() {
        eprintln!("eitc: invalid IR: {e}");
        exit(1);
    }
    if args.merge {
        let st = eit_ir::merge_pipeline_ops(&mut g);
        if st.nodes_removed > 0 {
            eprintln!("; merge pass folded {} node pairs", st.nodes_removed / 2);
        }
    }
    if args.emit_xml {
        print!("{}", eit_ir::to_xml(&g));
        return;
    }
    if args.emit_dot {
        print!("{}", eit_ir::to_dot(&g));
        return;
    }

    // --slots only overrides when given explicitly, so a custom arch's
    // own slot budget survives `--arch machine.xml` with no other flags.
    let mut spec = match &args.arch {
        Some(a) => load_arch(a),
        None => ArchSpec::eit().with_slots(64),
    };
    if let Some(n) = args.slots {
        spec = spec.with_slots(n);
        if let Err(e) = spec.validate() {
            eprintln!("eitc: --slots {n}: {e}");
            exit(1);
        }
    }
    let timeout = Duration::from_secs(args.timeout);

    let rr = args.record.is_some() || args.replay.is_some();
    let strict = args.replay_check != Some("--lenient");
    if args.record.is_some() && args.replay.is_some() {
        eprintln!("eitc: --record and --replay are mutually exclusive");
        exit(2);
    }
    if rr && args.trace.is_some() {
        eprintln!("eitc: --trace (JSONL) cannot be combined with --record/--replay");
        exit(2);
    }
    if rr && args.modulo.is_none() {
        // The recorded canonical IR hash must cover the exact graph the
        // solver sees, so the CSE pass runs here instead of inside
        // compile() when recording or replaying.
        let st = eit_ir::eliminate_common_subexpressions(&mut g);
        if st.ops_removed > 0 {
            eprintln!("; CSE folded {} duplicate op(s)", st.ops_removed);
        }
    }

    let trace = args.trace.as_ref().map(|path| {
        let sink = JsonlSink::create(path).unwrap_or_else(|e| {
            eprintln!("eitc: cannot open trace file {path}: {e}");
            exit(1);
        });
        TraceHandle::new(sink)
    });

    if let Some(include_reconfig) = args.modulo {
        let backend = args.backend.unwrap_or(eit_core::Backend::Cp);
        let mut mopts = ModuloOptions {
            include_reconfig,
            backend,
            timeout_per_ii: timeout,
            total_timeout: timeout,
            jobs: args.jobs.unwrap_or(1),
            trace: trace.clone(),
            restarts: args.restarts,
            ..Default::default()
        };
        if rr && backend != eit_core::Backend::Cp {
            // The trace format records CP search events; the SAT sweep
            // (and hence the race, whose winner varies with load) has no
            // node-per-node trajectory to diff against.
            eprintln!(
                "eitc: --record/--replay require the cp backend \
                 (got --backend {})",
                backend.as_str()
            );
            exit(2);
        }
        if args.emit_cnf {
            match eit_core::modulo_cnf_dimacs(&g, &spec, &mopts) {
                Ok(Some((ii, dimacs))) => {
                    eprintln!("; DIMACS CNF for candidate II {ii}");
                    print!("{dimacs}");
                }
                Ok(None) => {
                    eprintln!("eitc: every candidate II is statically refuted; no CNF to emit");
                    exit(1);
                }
                Err(e) => {
                    eprintln!("eitc: --emit cnf: {e}");
                    exit(1);
                }
            }
            return;
        }
        if let Some(path) = &args.replay {
            let opts = |every| ModuloOptions {
                state_hash_every: every,
                ..mopts
            };
            replay_and_exit(path, strict, &g, &spec, opts, modulo_header, replay_modulo);
        }
        let recorder = args.record.as_ref().map(|path| {
            mopts.state_hash_every = Some(eit_core::DEFAULT_HASH_EVERY);
            let rec = start_recording(path, &modulo_header(&g, &spec, &mopts));
            mopts.trace = Some(TraceHandle::new(Arc::clone(&rec)));
            rec
        });
        let r = match eit_core::modulo_schedule_checked(&g, &spec, &mopts) {
            Ok(Some(r)) => r,
            Ok(None) => {
                eprintln!("eitc: no modulo schedule found within budget");
                exit(1);
            }
            Err(e) => {
                eprintln!("eitc: modulo scheduling failed: {e}");
                exit(1);
            }
        };
        if let (Some(path), Some(rec)) = (&args.record, &recorder) {
            print_recorded(path, rec);
        }
        // Shared with the eit-serve daemon, so a served response is
        // byte-identical to this stdout by construction.
        print!("{}", eit_core::render_modulo(&g, &r));
        if let Some(path) = &args.metrics {
            let mut m = RunMetrics::new("eitc", &args.kernel);
            m.arch(&spec).section("modulo", modulo_metrics(&r));
            if let (Some(tp), Some(rec)) = (&args.record, &recorder) {
                m.section("trace", trace_section(tp, rec));
            }
            if let Err(e) = m.write_to(path) {
                eprintln!("eitc: cannot write metrics to {path}: {e}");
                exit(1);
            }
        }
        if args.verify {
            report_verification(
                &format!("modulo II {}", r.ii_issue),
                &eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue),
                &eit_core::validate_modulo(&g, &spec, &r, 3),
            );
        }
        return;
    }

    // The straight-line path is the one-call toolchain. The merge pass
    // already ran above (so --no-merge is honoured); CSE runs here
    // unless --record/--replay hoisted it before the IR hash.
    let mut sched_opts = SchedulerOptions {
        memory: args.memory,
        timeout: Some(timeout),
        trace,
        profile: args.profile || args.metrics.is_some(),
        restarts: args.restarts,
        ..Default::default()
    };

    if let Some(path) = &args.replay {
        // --trace is refused with --replay, so the options trace nothing.
        let opts = |every| SchedulerOptions {
            state_hash_every: every,
            ..sched_opts
        };
        replay_and_exit(
            path,
            strict,
            &g,
            &spec,
            opts,
            schedule_header,
            replay_schedule,
        );
    }

    let recorder = args.record.as_ref().map(|path| {
        sched_opts.state_hash_every = Some(eit_core::DEFAULT_HASH_EVERY);
        let rec = start_recording(path, &schedule_header(&g, &spec, &sched_opts));
        sched_opts.trace = Some(TraceHandle::new(Arc::clone(&rec)));
        rec
    });

    let out = match compile(
        g,
        &spec,
        &CompileOptions {
            cse: !rr,     // hoisted above when recording/replaying
            merge: false, // already applied (or skipped) above
            scheduler: sched_opts,
        },
    ) {
        Ok(out) => out,
        Err(CompileError::Infeasible) => {
            eprintln!("eitc: proven infeasible on this machine configuration");
            exit(1);
        }
        Err(e) => {
            eprintln!("eitc: {e}");
            exit(1);
        }
    };

    if args.verify {
        report_verification(
            "schedule",
            &eit_arch::verify_schedule(&out.graph, &spec, &out.schedule, args.memory),
            &eit_arch::validate_structure_with(&out.graph, &spec, &out.schedule, args.memory),
        );
    }

    if args.profile {
        let total: u64 = out.propagator_profile.iter().map(|p| p.invocations).sum();
        eprint!(
            "{}",
            eit_cp::render_profile_table(&out.propagator_profile, total)
        );
    }

    if let (Some(path), Some(rec)) = (&args.record, &recorder) {
        print_recorded(path, rec);
    }

    if let Some(path) = &args.metrics {
        let mut m = RunMetrics::new("eitc", &args.kernel);
        m.arch(&spec)
            .solver(out.status, Some(out.schedule.makespan), &out.solver)
            .domains(out.domain_reps)
            .spans(&out.timings)
            .propagators(&out.propagator_profile)
            .program(&out.program);
        if let (Some(tp), Some(rec)) = (&args.record, &recorder) {
            m.section("trace", trace_section(tp, rec));
        }
        if args.memory && !inputs.is_empty() {
            let rep = eit_arch::simulate(&out.graph, &spec, &out.schedule, &inputs);
            m.sim(&rep);
        }
        if let Err(e) = m.write_to(path) {
            eprintln!("eitc: cannot write metrics to {path}: {e}");
            exit(1);
        }
    }

    if let Some(m) = args.overlap {
        let bundles = bundles_from_schedule(&out.graph, &out.schedule);
        let ov = overlapped_execution(&out.graph, &spec, &bundles, m);
        println!(
            "; overlapped execution x{m}: {} cc total ({:.1} cc/iter), {} reconfigs, {:.4} iter/cc",
            ov.makespan,
            ov.makespan as f64 / m as f64,
            ov.reconfig_switches,
            ov.throughput
        );
        if args.verify {
            report_verification(
                &format!("overlap x{m} ({} bundles)", ov.n_bundles),
                &eit_arch::verify_overlapped(&ov.graph, &spec, &ov.schedule),
                &eit_arch::validate_structure_with(&ov.graph, &spec, &ov.schedule, false),
            );
        }
        return;
    }

    if args.emit_gantt {
        print!(
            "{}",
            eit_arch::render_gantt(&out.graph, &spec, &out.schedule)
        );
        return;
    }
    if args.emit_vcd {
        print!("{}", eit_arch::to_vcd(&out.graph, &spec, &out.schedule));
        return;
    }

    if out.cse.ops_removed > 0 {
        eprintln!("; CSE folded {} duplicate op(s)", out.cse.ops_removed);
    }
    // Shared with the eit-serve daemon (see render_modulo above).
    print!("{}", eit_core::render_compiled(&out));
}
