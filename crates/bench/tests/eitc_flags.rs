//! `eitc` refuses a flag its mode cannot honour: exit 2 with a message
//! naming the flag, instead of running without it (a straight-line run
//! has no use for `--backend`, `--jobs` or `--emit cnf`; a modulo run has
//! no Gantt/VCD emitter, overlapped execution, propagator profile or
//! memory switch; the SAT sweep has no search to restart; `--strict` and
//! `--lenient` only qualify `--replay`).

use std::process::Command;

#[test]
fn flags_the_mode_cannot_honour_exit_2_naming_the_flag() {
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
            &["--modulo", "--backend", "sat", "--restarts"],
            "--restarts is not supported with --backend sat",
        ),
        (&["--strict"], "--strict requires --replay"),
        (&["--lenient"], "--lenient requires --replay"),
        (
            &["--modulo", "--strict", "--lenient"],
            "--lenient requires --replay",
        ),
    ];
    for (args, msg) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_eitc"))
            .arg("matmul")
            .args(*args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            stderr.starts_with(&format!("eitc: {msg}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn restarts_still_run_on_the_backends_with_a_cp_search() {
    for backend in ["cp", "race"] {
        let out = Command::new(env!("CARGO_BIN_EXE_eitc"))
            .args(["matmul", "--modulo", "--backend", backend, "--restarts"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--backend {backend}: {stderr}");
        assert!(
            !out.stdout.is_empty(),
            "--backend {backend} printed nothing"
        );
    }
}
