//! `eitc` refuses a flag its mode cannot honour: exit 2 with a message
//! naming the flag, instead of running without it (a straight-line run
//! has no use for `--backend`, `--jobs` or `--emit cnf`; a modulo run has
//! no Gantt/VCD emitter, overlapped execution or propagator profile).

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
