//! `eitc` refuses a flag its mode cannot honour: exit 2 with a message
//! naming the flag, instead of running without it (a straight-line run
//! has no use for `--backend`, `--jobs` or `--emit cnf`; a modulo run has
//! no Gantt/VCD emitter, overlapped execution, propagator profile or
//! memory switch; neither the SAT sweep nor the race records or replays;
//! an IR dump and a CNF dump solve nothing; a replay
//! prints only its verdict; an overlapped run prints no chart; one run
//! emits one thing; `--dump-arch` reads nothing else and `--serve` only
//! its pool size, deadline and metrics). And a `--replay` accepts a
//! recording of the same solve however the machine is spelled, and
//! refuses one of another solve with its reason.

use std::path::PathBuf;
use std::process::{Command, Output};

fn eitc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eitc"))
        .args(args)
        .output()
        .unwrap()
}

/// A per-process scratch path, so parallel test binaries never collide.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eitc-flags-{}-{name}", std::process::id()))
}

#[test]
fn flags_the_mode_cannot_honour_exit_2_naming_the_flag() {
    let (metrics, trace) = (scratch("m.json"), scratch("r.trace"));
    let (metrics, trace) = (metrics.to_str().unwrap(), trace.to_str().unwrap());
    let cases: &[(&[&str], &str)] = &[
        (&["--emit", "cnf"], "--emit cnf requires --modulo"),
        (&["--backend", "sat"], "--backend requires --modulo"),
        (&["--jobs", "2"], "--jobs requires --modulo"),
        (&["--modulo", "--emit", "gantt"], "--emit gantt"),
        (&["--modulo", "--emit", "vcd"], "--emit vcd"),
        (&["--modulo", "incl", "--overlap", "2"], "--overlap"),
        (&["--modulo", "--profile"], "--profile"),
        (
            &["--modulo", "--no-memory"],
            "--no-memory is not supported with --modulo",
        ),
        (
            &["--emit", "xml", "--metrics", metrics, "--verify"],
            "--verify is not supported with --emit xml",
        ),
        (
            &["--emit", "xml", "--metrics", metrics],
            "--metrics is not supported with --emit xml",
        ),
        (
            &["--emit", "xml", "--record", trace],
            "--record is not supported with --emit xml",
        ),
        (
            &["--emit", "dot", "--modulo"],
            "--modulo is not supported with --emit dot",
        ),
        (
            &["--emit", "gantt", "--emit", "vcd"],
            "--emit vcd conflicts with --emit gantt",
        ),
        (
            &["--overlap", "3", "--emit", "gantt"],
            "--overlap is not supported with --emit gantt",
        ),
        (
            &["--emit", "vcd", "--overlap", "3"],
            "--overlap is not supported with --emit vcd",
        ),
        (
            &["--emit", "xml", "--timeout", "5"],
            "--timeout is not supported with --emit xml",
        ),
        (
            &["--modulo", "--emit", "cnf", "--verify"],
            "--verify is not supported with --emit cnf",
        ),
        (
            &["--modulo", "--emit", "cnf", "--metrics", metrics],
            "--metrics is not supported with --emit cnf",
        ),
        (
            &["--modulo", "--emit", "cnf", "--record", trace],
            "--record is not supported with --emit cnf",
        ),
        (
            &["--modulo", "--emit", "cnf", "--replay", trace],
            "--replay is not supported with --emit cnf",
        ),
        (
            &["--modulo", "--emit", "cnf", "--timeout", "5"],
            "--timeout is not supported with --emit cnf",
        ),
        (
            &["--replay", trace, "--metrics", metrics, "--verify"],
            "--verify is not supported with --replay",
        ),
        (
            &["--replay", trace, "--metrics", metrics],
            "--metrics is not supported with --replay",
        ),
        (
            &[
                "--replay",
                trace,
                "--metrics",
                metrics,
                "--verify",
                "--emit",
                "gantt",
                "--profile",
            ],
            "--emit gantt is not supported with --replay",
        ),
        (
            &["--replay", trace, "--profile"],
            "--profile is not supported with --replay",
        ),
        (
            &["--replay", trace, "--overlap", "2"],
            "--overlap is not supported with --replay",
        ),
        (
            &["--record", trace, "--replay", trace],
            "--record is not supported with --replay",
        ),
        (
            &["--modulo", "--replay", trace, "--metrics", metrics],
            "--metrics is not supported with --replay",
        ),
        (
            &["--modulo", "--backend", "sat", "--record", trace],
            "--record is not supported with --backend sat",
        ),
        (
            &["--modulo", "--backend", "race", "--replay", trace],
            "--replay is not supported with --backend race",
        ),
        (
            &["--dump-arch", "eit"],
            "kernel matmul is not supported with --dump-arch",
        ),
        (
            &["--serve", "127.0.0.1:notaport"],
            "kernel matmul is not supported with --serve",
        ),
        (&["--trace", trace], "unrecognized argument '--trace'"),
        // Restarts are the allocator's search, and a replay compares
        // every event: neither is a flag.
        (&["--restarts"], "unrecognized argument '--restarts'"),
        (
            &["--modulo", "--restarts"],
            "unrecognized argument '--restarts'",
        ),
        (
            &["--replay", trace, "--strict"],
            "unrecognized argument '--strict'",
        ),
        (
            &["--replay", trace, "--lenient"],
            "unrecognized argument '--lenient'",
        ),
    ];
    // Without a kernel: the modes that take none refuse the solve flags.
    // The address is not one, so a serve that ran would exit 1 at once.
    let serve = ["--serve", "127.0.0.1:notaport"];
    let kernelless: &[(&[&str], &str)] = &[
        (
            &["--dump-arch", "eit", "--modulo", "--verify"],
            "--modulo is not supported with --dump-arch",
        ),
        (
            &["--dump-arch", "eit", "--timeout", "5"],
            "--timeout is not supported with --dump-arch",
        ),
        (
            &["--dump-arch", "eit", "--metrics", metrics],
            "--metrics is not supported with --dump-arch",
        ),
        (
            &["--dump-arch", "eit", "--serve", serve[1]],
            "--serve is not supported with --dump-arch",
        ),
        (
            &[&serve[..], &["--modulo"]].concat(),
            "--modulo is not supported with --serve",
        ),
        (
            &[&serve[..], &["--verify"]].concat(),
            "--verify is not supported with --serve",
        ),
        (
            &[&serve[..], &["--record", trace]].concat(),
            "--record is not supported with --serve",
        ),
        (
            &[&serve[..], &["--arch", "eit"]].concat(),
            "--arch is not supported with --serve",
        ),
    ];
    let prefixed = cases
        .iter()
        .map(|(args, msg)| ([&["matmul"], *args].concat(), *msg));
    let bare = kernelless.iter().map(|(args, msg)| (args.to_vec(), *msg));
    for (args, msg) in prefixed.chain(bare) {
        let out = eitc(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            stderr.starts_with(&format!("eitc: {msg}")),
            "{args:?}: {stderr}"
        );
    }
    assert!(!scratch("m.json").exists() && !scratch("r.trace").exists());

    // A count of zero is no count: the parser rejects it with the usage.
    for args in [&["--overlap", "0"][..], &["--modulo", "--jobs", "0"]] {
        let out = eitc(&[&["matmul"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: eitc"), "{args:?}: {stderr}");
    }

    // `--serve` reads its pool size, deadline and metrics path: refused
    // nothing, it gets as far as binding the (bad) address.
    let out = eitc(
        &[
            &serve[..],
            &["--jobs", "2", "--timeout", "5", "--metrics", metrics],
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("eitc: cannot serve on"), "{stderr}");
}

#[test]
fn replay_accepts_every_spelling_of_the_machine_and_refuses_another_solve() {
    let trace = scratch("matmul.trace");
    let arch = scratch("eit.xml");
    let (trace_s, arch_s) = (trace.to_str().unwrap(), arch.to_str().unwrap());
    let rec = eitc(&["matmul", "--record", trace_s]);
    assert!(
        rec.status.success(),
        "{}",
        String::from_utf8_lossy(&rec.stderr)
    );
    let dump = eitc(&["--dump-arch", "eit"]);
    std::fs::write(&arch, &dump.stdout).unwrap();

    for spelling in [
        &[][..],
        &["--arch", "eit"],
        &["--arch", arch_s],
        &["--slots", "64"],
    ] {
        let out = eitc(&[&["matmul", "--replay", trace_s], spelling].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{spelling:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("; replay ok"), "{spelling:?}: {stdout}");
    }

    let foreign: [(&[&str], &str); 3] = [
        (&["fir"], "trace was recorded for a different IR"),
        (
            &["matmul", "--slots", "32"],
            "trace was recorded for a different architecture",
        ),
        (&["matmul", "--no-memory"], "solver config mismatch"),
    ];
    for (args, why) in foreign {
        let out = eitc(&[args, &["--replay", trace_s]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("eitc: replay: {why}")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&arch).ok();
}

#[test]
fn a_trace_that_cannot_be_written_exits_1() {
    // The file opens, but every write to it fails (ENOSPC).
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    // `--timeout 0`: a sweep that fails still closes its recording.
    for mode in [&[][..], &["--modulo"], &["--modulo", "--timeout", "0"]] {
        let out = eitc(&[&["matmul", "--record", "/dev/full"], mode].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode:?}: {stderr}");
        assert!(
            stderr.starts_with("eitc: cannot write trace file /dev/full: "),
            "{mode:?}: {stderr}"
        );
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("; recorded"),
            "{mode:?} reported the recording as made"
        );
    }
}

#[test]
fn a_failed_modulo_sweep_leaves_a_replayable_recording() {
    // No budget: the sweep probes nothing and exits 1, but the recording
    // still holds its header, and it replays under the same flags.
    let trace = scratch("failed-sweep.trace");
    let trace_s = trace.to_str().unwrap();
    let flags = ["qrd", "--modulo", "--timeout", "0"];
    let rec = eitc(&[&flags[..], &["--record", trace_s]].concat());
    let stderr = String::from_utf8_lossy(&rec.stderr);
    assert_eq!(rec.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no modulo schedule found"), "{stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        text.starts_with("{\"format\":\"eit-trace/2\"") && text.ends_with('\n'),
        "{text:?}"
    );
    let out = eitc(&[&flags[..], &["--replay", trace_s]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("; replay ok"), "{stdout}");
    std::fs::remove_file(&trace).ok();
}
