//! `perfbench --workload <compile|modulo|serve> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints a detail line, then the result line
//! (`correct`, `attempted`, `failed`, `metrics`).
//!
//! `perfbench steady --workload <w> [--runs N] [--seconds S] [--first-seed K]
//! [--benchmark BENCHMARK.json]` runs the workload N times with seeds
//! K, K+1, … and prints the steadiness report.

use eit_core::json::Json;
use eit_perfbench::{run, steady, Workload};
use std::path::{Path, PathBuf};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <compile|modulo|serve> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench steady --workload <w> [--runs N] [--seconds S] [--first-seed K] [--benchmark FILE]"
    );
    exit(2)
}

/// `--flag value` pairs with flags from `allowed`; anything else is a
/// usage error.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Vec<(&'a str, &'a str)> {
    if !args.len().is_multiple_of(2) {
        usage();
    }
    args.chunks(2)
        .map(|p| match p[0].strip_prefix("--") {
            Some(f) if allowed.contains(&f) => (f, p[1].as_str()),
            _ => usage(),
        })
        .collect()
}

fn get<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
}

fn num<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str, default: Option<T>) -> T {
    match get(flags, name) {
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => default.unwrap_or_else(|| usage()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        let f = flags(
            &args[1..],
            &["workload", "runs", "seconds", "first-seed", "benchmark"],
        );
        let w = get(&f, "workload")
            .and_then(Workload::parse)
            .unwrap_or_else(|| usage());
        let bench = PathBuf::from(get(&f, "benchmark").unwrap_or("BENCHMARK.json"));
        match steady::report(
            w.name(),
            num(&f, "runs", Some(10)),
            num(&f, "seconds", Some(45)),
            num(&f, "first-seed", Some(1)),
            &bench,
        ) {
            Ok(true) => exit(0),
            Ok(false) => exit(1),
            Err(e) => {
                eprintln!("perfbench steady: {e}");
                exit(1)
            }
        }
    }
    let f = flags(&args, &["workload", "seed", "seconds", "trace"]);
    let w = get(&f, "workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    let seed: u64 = num(&f, "seed", None);
    let seconds: f64 = num(&f, "seconds", None);
    let trace = match get(&f, "trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    match run(w, seed, seconds, trace, trace.then_some(spans.as_path())) {
        Ok(report) => {
            let result = report.result_json();
            let mut detail = report.detail;
            detail.insert(0, ("workload".into(), Json::str(w.name())));
            if trace {
                detail.push(("spans".into(), Json::str(spans.display().to_string())));
            }
            println!(
                "{}",
                Json::Obj(vec![("detail".into(), Json::Obj(detail))]).render_compact()
            );
            println!("{}", result.render_compact());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1)
        }
    }
}
