//! `fuzz` — deterministic differential fuzzer CLI.
//!
//! Drives [`eit_core::fuzz`] from the command line:
//!
//! ```text
//! fuzz --seed 5 --cases 200 [--out DIR] [--no-modulo] [--no-shrink] \
//!      [--timeout SECS] [--arch-fuzz] [--backend-fuzz]
//! ```
//!
//! `--backend-fuzz` cross-checks every CP modulo result against the
//! independent SAT backend and the CP/SAT race: equal minimum II, and
//! each schedule clean under both verifiers.
//!
//! `--arch-fuzz` walks the architecture×kernel product space: every case
//! draws a fresh generated machine (always `validate()`-clean) before
//! generating the kernel, and failures shrink to an arch-XML + kernel-XML
//! reproducer pair.
//!
//! Exit status 0 when every case passes differentially, 1 when any case
//! fails (reproducers are written to `--out`, default `fuzz-failures/`;
//! a reproducer file that cannot be written is named with the reason),
//! 2 on bad arguments. Same seed, same verdicts, every run.

use eit_core::fuzz::{run, FuzzOptions};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--cases N] [--out DIR] [--no-modulo] \
         [--no-shrink] [--timeout SECS] [--arch-fuzz] [--backend-fuzz]"
    );
    std::process::exit(2)
}

fn main() {
    let mut opts = FuzzOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--cases" => opts.cases = val().parse().unwrap_or_else(|_| usage()),
            "--out" => opts.out_dir = Some(val().into()),
            "--no-modulo" => opts.check_modulo = false,
            "--arch-fuzz" => opts.arch_fuzz = true,
            "--backend-fuzz" => opts.backend_fuzz = true,
            "--no-shrink" => opts.shrink = false,
            "--timeout" => {
                opts.solver_timeout = Duration::from_secs(val().parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let t0 = Instant::now();
    let report = run(&opts);
    let dt = t0.elapsed();
    println!(
        "fuzz: seed {} — {} case(s), {} differential check(s) in {:.1}s",
        opts.seed,
        report.cases,
        report.checks,
        dt.as_secs_f64()
    );
    if report.ok() {
        println!("fuzz: all cases passed");
        return;
    }
    for f in &report.failures {
        eprintln!(
            "fuzz: FAIL case {} (case_seed {}): stage {} — {}",
            f.case, f.case_seed, f.stage, f.detail
        );
        match &f.reproducer {
            Some(Ok(p)) => eprintln!("fuzz:   reproducer: {}", p.display()),
            Some(Err(e)) => eprintln!("fuzz:   reproducer incomplete: {e}"),
            None => {}
        }
    }
    eprintln!("fuzz: {} failing case(s)", report.failures.len());
    std::process::exit(1);
}
