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
//!   --slots N           memory budget override (default: the arch's own)
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
//!                       over the window CNF model: residues only, least
//!                       stages derived, no stage cap), or race (both
//!                       side by side on every candidate II; the first
//!                       decisive answer stands and cancels the other).
//!                       On the table kernels all backends agree on the
//!                       winning II; sat/race require the exclude-reconfig
//!                       model (no `--modulo incl`)
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
//!                       the simulator, which on a built-in kernel with the
//!                       memory model on executes the configuration stream
//!                       and compares every output with the kernel's
//!                       expected value (elsewhere: the structural rules);
//!                       exit 1 if either reports a violation
//!   --record FILE       record the solve as an eit-trace/2 file: a JSON
//!                       header line (canonical IR/arch hashes, solver
//!                       config) then one JSON line per search event,
//!                       periodic store digests included; replay it with
//!                       --replay
//!   --replay FILE       re-validate a recorded solve in O(trace): re-run
//!                       the solve (with --modulo, the whole II sweep)
//!                       and diff every event; exit 1 with a divergence
//!                       report on the first mismatch
//!   --profile           print the per-propagator profile table (stderr)
//!   --metrics FILE      write machine-readable run metrics as JSON
//!   --serve ADDR        run as a compile daemon instead: bind ADDR and
//!                       speak the eit-serve/1 JSONL protocol until a
//!                       shutdown request arrives (no kernel argument;
//!                       --jobs sets the worker count, --timeout the
//!                       default per-request deadline, --metrics the
//!                       aggregated server metrics written at shutdown)
//! ```
//!
//! The mode flags pick what a run does: `--dump-arch`, `--serve`, `--emit
//! xml|dot` (an IR dump), `--modulo --emit cnf`, `--replay`, or a
//! straight-line or modulo compile (under `--backend cp|race|sat`). A
//! flag the selected mode does not read exits 2 naming it, never dropped
//! without a word: `--backend`, `--emit cnf` and (outside `--serve`)
//! `--jobs` need `--modulo`; `--emit gantt|vcd`, `--overlap`, `--profile`
//! and `--no-memory` are straight-line only; `--record` and `--replay`
//! need the cp backend, and a replay prints only its verdict, so it takes no `--emit`, `--verify`, `--metrics`,
//! `--profile`, `--overlap` or `--record`; `--emit xml|dot` and `--emit
//! cnf` solve nothing, so they take no solve flag; `--overlap` prints its
//! own line, so it takes no `--emit gantt|vcd`; `--dump-arch` reads no
//! other flag and `--serve` only `--jobs`, `--timeout` and `--metrics`.
//! `--emit` is given at most once.
//!
//! Example: `cargo run --release -p eit-bench --bin eitc -- qrd --slots 16`

use eit_arch::ArchSpec;
use eit_bench::{ArchArgError, RunMetrics};
use eit_core::json::Json;
use eit_core::pipeline::{compile, CompileError, CompileOptions};
use eit_core::record::FORMAT;
use eit_core::{
    bundles_from_schedule, overlapped_execution, replay_modulo, replay_schedule, Backend,
    ModuloOptions, RecorderSink, RrReport, SchedulerOptions, SolveKey, Trace, TraceHeader,
};
use eit_cp::trace::{SearchEvent, TraceHandle};
use eit_ir::sem::Value;
use eit_ir::{Graph, IdMap, NodeId};
use std::collections::HashMap;
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Clone)]
struct Args {
    kernel: String,
    arch: Option<String>,
    dump_arch: Option<String>,
    slots: Option<u32>,
    memory: bool,
    merge: bool,
    modulo: Option<bool>, // Some(include_reconfig)
    backend: Option<Backend>,
    jobs: Option<usize>,
    overlap: Option<usize>,
    timeout: Option<u64>,
    emit: Option<Emit>,
    verify: bool,
    record: Option<String>,
    replay: Option<String>,
    profile: bool,
    metrics: Option<String>,
    serve: Option<String>,
}

/// What `--emit` prints in place of the listing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Xml,
    Dot,
    Gantt,
    Vcd,
    Cnf,
}

impl Emit {
    fn name(self) -> &'static str {
        match self {
            Emit::Xml => "xml",
            Emit::Dot => "dot",
            Emit::Gantt => "gantt",
            Emit::Vcd => "vcd",
            Emit::Cnf => "cnf",
        }
    }

    fn parse(s: &str) -> Option<Emit> {
        [Emit::Xml, Emit::Dot, Emit::Gantt, Emit::Vcd, Emit::Cnf]
            .into_iter()
            .find(|e| e.name() == s)
    }
}

fn usage() -> ! {
    eprintln!("usage: eitc <qrd|arf|matmul|fir|detector|blockmm|path.xml>");
    eprintln!("            [--arch PRESET|FILE] [--slots N] [--no-memory] [--no-merge]");
    eprintln!("            [--modulo [incl]] [--backend cp|sat|race] [--jobs N]");
    eprintln!("            [--overlap M] [--timeout SECS]");
    eprintln!("            [--emit xml|gantt|dot|vcd|cnf] [--verify]");
    eprintln!("            [--record FILE] [--replay FILE] [--profile]");
    eprintln!("            [--metrics FILE]");
    eprintln!("       eitc --serve ADDR [--jobs N] [--timeout SECS] [--metrics FILE]");
    eprintln!("       eitc --dump-arch PRESET|FILE");
    exit(2);
}

fn bad_arg(what: &str) -> ! {
    eprintln!("eitc: unrecognized argument '{what}'");
    usage();
}

/// `--timeout` when not given, in seconds.
const DEFAULT_TIMEOUT_S: u64 = 120;

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
        timeout: None,
        emit: None,
        verify: false,
        record: None,
        replay: None,
        profile: false,
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
                        .and_then(Backend::parse)
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
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--timeout" => {
                args.timeout = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--emit" => {
                let v = it.next().unwrap_or_else(|| usage());
                let e = Emit::parse(&v).unwrap_or_else(|| bad_arg(&format!("--emit {v}")));
                if let Some(first) = args.emit.replace(e) {
                    eprintln!("eitc: --emit {v} conflicts with --emit {}", first.name());
                    exit(2);
                }
            }
            "--verify" => args.verify = true,
            "--record" => args.record = Some(it.next().unwrap_or_else(|| usage())),
            "--replay" => args.replay = Some(it.next().unwrap_or_else(|| usage())),
            "--profile" => args.profile = true,
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--serve" => args.serve = Some(it.next().unwrap_or_else(|| usage())),
            k if !k.starts_with('-') && args.kernel.is_empty() => args.kernel = k.to_string(),
            other => bad_arg(other),
        }
    }
    if args.kernel.is_empty() && args.serve.is_none() && args.dump_arch.is_none() {
        usage();
    }
    refuse_unread_flags(&args);
    args
}

// What one run does, picked by its mode flags (`mode`), one bit each so
// that the modes reading a flag are a set. IR_DUMP and CNF print `--emit
// xml|dot|cnf` and solve nothing; LISTING and CHART are straight-line
// compiles printing the listing or `--emit gantt|vcd`; MODULO, RACE and
// SAT are modulo sweeps on `--backend cp|race|sat`.
const DUMP_ARCH: u16 = 1;
const SERVE: u16 = 1 << 1;
const IR_DUMP: u16 = 1 << 2;
const CNF: u16 = 1 << 3;
const LISTING: u16 = 1 << 4;
const CHART: u16 = 1 << 5;
const REPLAY: u16 = 1 << 6;
const MODULO: u16 = 1 << 7;
const RACE: u16 = 1 << 8;
const SAT: u16 = 1 << 9;
const MODULO_REPLAY: u16 = 1 << 10;

fn mode(a: &Args) -> u16 {
    let modulo = a.modulo.is_some();
    match a.emit {
        _ if a.dump_arch.is_some() => DUMP_ARCH,
        _ if a.serve.is_some() => SERVE,
        Some(Emit::Xml | Emit::Dot) => IR_DUMP,
        Some(Emit::Cnf) if modulo => CNF,
        _ if modulo => match (a.backend, &a.replay) {
            (Some(Backend::Sat), _) => SAT,
            (Some(Backend::Race), _) => RACE,
            (_, Some(_)) => MODULO_REPLAY,
            _ => MODULO,
        },
        _ if a.replay.is_some() => REPLAY,
        Some(Emit::Gantt | Emit::Vcd) => CHART,
        _ => LISTING,
    }
}

/// Exit 2 naming the first flag given that the run's mode does not read.
fn refuse_unread_flags(a: &Args) {
    const STRAIGHT: u16 = LISTING | CHART | REPLAY;
    const SWEEPS: u16 = MODULO | RACE | SAT | MODULO_REPLAY;
    const SOLVES: u16 = STRAIGHT | SWEEPS | CNF;
    const REPLAYS: u16 = REPLAY | MODULO_REPLAY;
    const COMPILES: u16 = LISTING | CHART | MODULO | RACE | SAT;
    let kernel = format!("kernel {}", a.kernel);
    let emit = format!("--emit {}", a.emit.map_or("", Emit::name));
    let emitted_by = match a.emit {
        Some(Emit::Xml | Emit::Dot) => IR_DUMP,
        Some(Emit::Gantt | Emit::Vcd) => CHART,
        _ => CNF,
    };
    // Each flag, whether it was given, and the modes that read it.
    let table = [
        (kernel.as_str(), !a.kernel.is_empty(), SOLVES | IR_DUMP),
        ("--arch", a.arch.is_some(), SOLVES),
        ("--slots", a.slots.is_some(), SOLVES),
        ("--no-memory", !a.memory, STRAIGHT),
        ("--no-merge", !a.merge, SOLVES | IR_DUMP),
        ("--modulo", a.modulo.is_some(), SWEEPS | CNF),
        ("--backend", a.backend.is_some(), SWEEPS),
        ("--jobs", a.jobs.is_some(), SWEEPS | SERVE),
        // An overlapped run prints its own summary line, not a chart.
        ("--overlap", a.overlap.is_some(), LISTING),
        ("--timeout", a.timeout.is_some(), STRAIGHT | SWEEPS | SERVE),
        (emit.as_str(), a.emit.is_some(), emitted_by),
        ("--verify", a.verify, COMPILES),
        // The sat sweep, and so the race (whose winner varies with load),
        // has no node-by-node trajectory to record or diff against.
        ("--record", a.record.is_some(), LISTING | CHART | MODULO),
        ("--replay", a.replay.is_some(), REPLAYS),
        ("--profile", a.profile, LISTING | CHART),
        ("--metrics", a.metrics.is_some(), COMPILES | SERVE),
        ("--serve", a.serve.is_some(), SERVE),
    ];
    let mode = mode(a);
    let Some(&(flag, _, readers)) = table
        .iter()
        .find(|&&(_, given, readers)| given && readers & mode == 0)
    else {
        return;
    };
    // Name `--modulo` if it would make the run read the flag.
    let with_modulo = Args {
        modulo: a.modulo.or(Some(false)),
        ..a.clone()
    };
    let picked_by = match mode {
        DUMP_ARCH => "--dump-arch",
        SERVE => "--serve",
        IR_DUMP | CNF | CHART => &emit,
        REPLAY | MODULO_REPLAY => "--replay",
        MODULO => "--modulo",
        RACE => "--backend race",
        SAT => "--backend sat",
        _ => "a straight-line listing",
    };
    if readers & self::mode(&with_modulo) != 0 {
        eprintln!("eitc: {flag} requires --modulo");
    } else {
        eprintln!("eitc: {flag} is not supported with {picked_by}");
    }
    exit(2);
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
        default_deadline: Duration::from_secs(args.timeout.unwrap_or(DEFAULT_TIMEOUT_S)),
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
    simulator: &[impl std::fmt::Display],
) {
    let independent: Vec<String> = independent.iter().map(ToString::to_string).collect();
    let simulator: Vec<String> = simulator.iter().map(ToString::to_string).collect();
    let mut bad = false;
    for (tag, vs) in [("verifier", &independent), ("simulator", &simulator)] {
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
    if independent.is_empty() != simulator.is_empty() {
        eprintln!("eitc: --verify: {label}: verifier and simulator DISAGREE");
    }
    if bad {
        exit(1);
    }
    println!("; verify: {label}: clean (independent verifier + simulator agree)");
}

type Values = HashMap<NodeId, Value>;

/// What the simulator found on a built-in kernel: its violations, then
/// every output the executed stream did not deliver as the kernel expects.
fn simulator_verdict(rep: &eit_arch::SimReport, expected: &Values) -> Vec<String> {
    let mut found: Vec<String> = rep.violations.iter().map(ToString::to_string).collect();
    let mut outputs: Vec<_> = expected.iter().collect();
    outputs.sort_unstable_by_key(|&(&n, _)| n);
    for (n, want) in outputs {
        match rep.values.get(n) {
            Some(got) if got.approx_eq(want, 1e-9) => {}
            got => found.push(format!(
                "output {n:?}: simulated {got:?}, expected {want:?}"
            )),
        }
    }
    found
}

/// The graph plus, for built-in kernels, its input values and expected
/// output values (so `--verify` can execute it and the metrics can
/// include a simulator section).
fn load_graph(name: &str) -> (Graph, Values, Values) {
    if name.ends_with(".xml") {
        let src = std::fs::read_to_string(name).unwrap_or_else(|e| {
            eprintln!("eitc: cannot read {name}: {e}");
            exit(1);
        });
        let g = eit_ir::from_xml(&src).unwrap_or_else(|e| {
            eprintln!("eitc: cannot parse {name}: {e}");
            exit(1);
        });
        (g, HashMap::new(), HashMap::new())
    } else {
        match eit_apps::by_name(name) {
            Some(k) => (k.graph, k.inputs, k.expected),
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
        let units = &mut w.1[usize::from(p.backend == Backend::Sat)];
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

/// `--replay FILE`, for either mode: read the trace, `replay` it and
/// exit with the verdict: 0 on a clean match, 1 with the reason if rr
/// refuses its header, or with a divergence report (or the live run's
/// error).
fn replay_and_exit(
    path: &str,
    replay: impl FnOnce(&TraceHeader, &[SearchEvent]) -> Result<RrReport, String>,
) -> ! {
    let t = Trace::read(path).unwrap_or_else(|e| {
        eprintln!("eitc: cannot read trace {path}: {e}");
        exit(1);
    });
    let rep = replay(&t.header, &t.events).unwrap_or_else(|why| {
        eprintln!("eitc: replay: {why}");
        exit(1);
    });
    if rep.ok {
        println!(
            "; replay ok: {path} (fnv64 {:016x}): {} stream(s), \
             {} event(s) checked, replay nodes {} (recorded {})",
            t.file_hash, rep.streams, rep.checked, rep.replay_nodes, rep.recorded_nodes
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

/// `--record FILE`, for either mode: open the recorder with the run's
/// trace header; the caller traces the solve into it.
fn start_recording(path: &str, header: &TraceHeader) -> Arc<Mutex<RecorderSink>> {
    let sink = RecorderSink::create(path, header).unwrap_or_else(|e| {
        eprintln!("eitc: cannot create trace file {path}: {e}");
        exit(1);
    });
    Arc::new(Mutex::new(sink))
}

/// End a `--record` run: print its `; recorded N event(s)` line and
/// return its `trace` metrics section, or exit 1 if the file could not
/// be written.
fn finish_recording(path: &str, rec: &Mutex<RecorderSink>) -> Json {
    let mut rec = rec.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(e) = rec.finish() {
        eprintln!("eitc: cannot write trace file {path}: {e}");
        exit(1);
    }
    let (events, hash) = (rec.events(), format!("{:016x}", rec.hash()));
    println!("; recorded {events} event(s) to {path} ({FORMAT}, fnv64 {hash})");
    Json::Obj(vec![
        ("format".into(), Json::str(FORMAT)),
        ("file".into(), Json::str(path)),
        ("hash".into(), Json::str(hash)),
        ("events".into(), Json::int(events)),
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
    let (mut g, inputs, expected) = load_graph(&args.kernel);
    if let Err(e) = g.validate() {
        eprintln!("eitc: invalid IR: {e}");
        exit(1);
    }
    // Where the passes moved each node: the values are keyed on the
    // loaded graph's ids.
    let mut ids = IdMap::default();
    if args.merge {
        let st = eit_ir::merge_pipeline_ops(&mut g);
        ids.then(&st.ids);
        if st.nodes_removed > 0 {
            eprintln!("; merge pass folded {} node pairs", st.nodes_removed / 2);
        }
    }
    if args.emit == Some(Emit::Xml) {
        print!("{}", eit_ir::to_xml(&g));
        return;
    }
    if args.emit == Some(Emit::Dot) {
        print!("{}", eit_ir::to_dot(&g));
        return;
    }

    // --slots only overrides when given explicitly, so a custom arch's
    // own slot budget survives `--arch machine.xml` with no other flags.
    let mut spec = match &args.arch {
        Some(a) => load_arch(a),
        None => ArchSpec::eit(),
    };
    if let Some(n) = args.slots {
        spec = spec.with_slots(n);
        if let Err(e) = spec.validate() {
            eprintln!("eitc: --slots {n}: {e}");
            exit(1);
        }
    }
    let timeout = Duration::from_secs(args.timeout.unwrap_or(DEFAULT_TIMEOUT_S));

    let rr = args.record.is_some() || args.replay.is_some();
    if rr && args.modulo.is_none() {
        // The recorded canonical IR hash must cover the exact graph the
        // solver sees, so the CSE pass runs here instead of inside
        // compile() when recording or replaying.
        let st = eit_ir::eliminate_common_subexpressions(&mut g);
        ids.then(&st.ids);
        if st.ops_removed > 0 {
            eprintln!("; CSE folded {} duplicate op(s)", st.ops_removed);
        }
    }

    if let Some(include_reconfig) = args.modulo {
        let mut mopts = ModuloOptions {
            include_reconfig,
            backend: args.backend.unwrap_or(Backend::Cp),
            timeout_per_ii: timeout,
            total_timeout: timeout,
            jobs: args.jobs.unwrap_or(1),
            ..Default::default()
        };
        if args.emit == Some(Emit::Cnf) {
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
            replay_and_exit(path, |h, events| {
                replay_modulo(&g, &spec, &mopts, h, events)
            });
        }
        let recorder = args.record.as_ref().map(|path| {
            mopts.state_hash_every = Some(eit_core::DEFAULT_HASH_EVERY);
            let key = SolveKey::modulo(&g, &spec, &mopts);
            let rec = start_recording(path, &key.header(mopts.state_hash_every));
            mopts.trace = Some(TraceHandle::new(Arc::clone(&rec)));
            (path, rec)
        });
        // A failed sweep still closes its recording (and reports a write
        // error) before it exits.
        let r = eit_core::modulo_schedule_checked(&g, &spec, &mopts);
        let trace = recorder.map(|(path, rec)| finish_recording(path, &rec));
        let r = match r {
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
        // Shared with the eit-serve daemon, so a served response is
        // byte-identical to this stdout by construction.
        print!("{}", eit_core::render_modulo(&g, &r));
        if let Some(path) = &args.metrics {
            let mut m = RunMetrics::new("eitc", &args.kernel);
            m.arch(&spec).section("modulo", modulo_metrics(&r));
            if let Some(t) = trace {
                m.section("trace", t);
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
        profile: args.profile || args.metrics.is_some(),
        ..Default::default()
    };

    if let Some(path) = &args.replay {
        replay_and_exit(path, |h, events| {
            replay_schedule(&g, &spec, &sched_opts, h, events)
        });
    }

    let recorder = args.record.as_ref().map(|path| {
        sched_opts.state_hash_every = Some(eit_core::DEFAULT_HASH_EVERY);
        let key = SolveKey::schedule(&g, &spec, &sched_opts);
        let rec = start_recording(path, &key.header(sched_opts.state_hash_every));
        sched_opts.trace = Some(TraceHandle::new(Arc::clone(&rec)));
        (path, rec)
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

    // A built-in kernel with the memory model on runs its configuration
    // stream; anything else is checked by the simulator's structural rules.
    ids.then(&out.ids());
    let (inputs, expected) = (ids.rekey(&inputs), ids.rekey(&expected));
    let sim = (args.memory && !inputs.is_empty() && (args.verify || args.metrics.is_some()))
        .then(|| eit_arch::simulate(&out.graph, &spec, &out.schedule, &inputs));
    if args.verify {
        let independent = eit_arch::verify_schedule(&out.graph, &spec, &out.schedule, args.memory);
        let simulator = match &sim {
            Some(rep) => simulator_verdict(rep, &expected),
            None => {
                eit_arch::validate_structure_with(&out.graph, &spec, &out.schedule, args.memory)
                    .iter()
                    .map(ToString::to_string)
                    .collect()
            }
        };
        report_verification("schedule", &independent, &simulator);
    }

    if args.profile {
        let total: u64 = out.propagator_profile.iter().map(|p| p.invocations).sum();
        eprint!(
            "{}",
            eit_cp::render_profile_table(&out.propagator_profile, total)
        );
    }

    let trace = recorder.map(|(path, rec)| finish_recording(path, &rec));

    if let Some(path) = &args.metrics {
        let mut m = RunMetrics::new("eitc", &args.kernel);
        m.arch(&spec)
            .solver(out.status, Some(out.schedule.makespan), &out.solver)
            .domains(out.domain_reps)
            .spans(&out.timings)
            .propagators(&out.propagator_profile)
            .program(&out.program);
        if let Some(t) = trace {
            m.section("trace", t);
        }
        if let Some(rep) = &sim {
            m.sim(rep);
        }
        if let Err(e) = m.write_to(path) {
            eprintln!("eitc: cannot write metrics to {path}: {e}");
            exit(1);
        }
    }

    if let Some(m) = args.overlap {
        let bundles = bundles_from_schedule(&out.graph, &spec, &out.schedule);
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

    if args.emit == Some(Emit::Gantt) {
        print!(
            "{}",
            eit_arch::render_gantt(&out.graph, &spec, &out.schedule)
        );
        return;
    }
    if args.emit == Some(Emit::Vcd) {
        print!("{}", eit_arch::to_vcd(&out.graph, &spec, &out.schedule));
        return;
    }

    if out.cse.ops_removed > 0 {
        eprintln!("; CSE folded {} duplicate op(s)", out.cse.ops_removed);
    }
    // Shared with the eit-serve daemon (see render_modulo above).
    print!("{}", eit_core::render_compiled(&out));
}
