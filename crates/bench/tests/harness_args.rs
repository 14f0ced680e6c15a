//! The table and experiment binaries refuse an argument they do not
//! read: exit 2 naming it, before any work, instead of running the whole
//! table without it.

use std::process::Command;

#[test]
fn unread_arguments_exit_2_naming_them() {
    let cases: [(&str, &[&str], &str); 8] = [
        (env!("CARGO_BIN_EXE_table2"), &["--bogus"], "--bogus"),
        (
            env!("CARGO_BIN_EXE_table2"),
            &["--bogus-flag", "--metric", "typo.json"],
            "--bogus-flag",
        ),
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--metric", "m.json"],
            "--metric",
        ),
        (env!("CARGO_BIN_EXE_table3"), &["qrd"], "qrd"),
        (
            env!("CARGO_BIN_EXE_modulo_memory"),
            &["--metrics", "m.json"],
            "--metrics",
        ),
        (
            env!("CARGO_BIN_EXE_scaling"),
            &["--metrics", "m.json"],
            "--metrics",
        ),
        (env!("CARGO_BIN_EXE_figures"), &["--arch", "eit"], "--arch"),
        (env!("CARGO_BIN_EXE_summary"), &["--arch", "eit"], "--arch"),
    ];
    for (bin, args, named) in cases {
        let out = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
        assert!(
            stderr.contains(&format!("unrecognized argument '{named}'")),
            "{bin} {args:?}: {stderr}"
        );
    }
    assert!(!std::path::Path::new("typo.json").exists());
}
