//! The steadiness report: N runs of one workload, each with its own
//! seed, summarised per end-to-end metric as median, spread (the
//! distance between the first and third quartile as a share of the
//! median), min and max, with every spread over its bound flagged.

use crate::stats::{median, quartiles};
use eit_core::json::Json;
use std::path::Path;
use std::process::Command;

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Path) -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Run `perfbench --workload <w> --seed <s> --seconds <secs> --trace 0`
/// with this executable; return its result line and the median probe
/// pass of its measured window (`host.pass_ms` on its detail line).
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<(Json, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "seed {seed}: exit {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., detail, last] = lines[..] else {
        return Err(format!("seed {seed}: expected a detail and a result line"));
    };
    let detail = Json::parse(detail).map_err(|e| format!("seed {seed}: detail line: {e}"))?;
    let probe = |k: &str| {
        detail
            .get("detail")
            .and_then(|d| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let result = Json::parse(last).map_err(|e| format!("seed {seed}: result line: {e}"))?;
    Ok((result, probe("host.pass_ms")))
}

/// Print the report; `Ok(true)` when every spread (that of `setup_s`
/// excepted, whose runs are compared by median only) is within bound.
/// The host probe gets a row of its own, unflagged: the timings are
/// scaled by it, so its spread is the host drift they were scaled out of.
pub fn report(
    workload: &str,
    runs: usize,
    seconds: u64,
    first_seed: u64,
    benchmark: &Path,
) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
    let mut passes = Vec::new();
    let mut all_correct = true;
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let (res, pass_ms) = one_run(workload, seed, seconds)?;
        passes.push(pass_ms);
        all_correct &= res.get("correct") == Some(&Json::Bool(true));
        let metrics = res.get("metrics").ok_or("result without metrics")?;
        let mut line = format!("run seed={seed} host.pass_ms={pass_ms:.4}");
        for ((name, _), vals) in bounds.iter().zip(&mut values) {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("seed {seed}: no metric {name}"))?;
            vals.push(v);
            line += &format!(" {name}={v:.6}");
        }
        eprintln!("{line}");
    }
    println!("workload {workload}: {runs} runs of {seconds} s, seeds {first_seed}..");
    println!(
        "{:<18} {:>14} {:>8} {:>14} {:>14} {:>7}  flag",
        "metric", "median", "spread", "min", "max", "bound"
    );
    let mut steady = all_correct;
    let rows = bounds
        .iter()
        .map(|(n, b)| (n.as_str(), Some(*b)))
        .zip(&values)
        .chain([(("host.pass_ms", None), &passes)]);
    for ((name, bound), vals) in rows {
        let mut v = vals.clone();
        let med = median(&mut v);
        let (q1, q3) = quartiles(&mut v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let Some(bound) = bound else {
            println!(
                "{name:<18} {med:>14.6} {spread:>8.4} {min:>14.6} {max:>14.6} {:>7}  (host probe)",
                "-"
            );
            continue;
        };
        let flag = if name == "setup_s" {
            "(spread not bounded)"
        } else if spread > bound {
            steady = false;
            "OVER BOUND"
        } else if spread > bound / 3.0 {
            "over a third of bound"
        } else {
            ""
        };
        println!(
            "{name:<18} {med:>14.6} {spread:>8.4} {min:>14.6} {max:>14.6} {bound:>7.3}  {flag}"
        );
    }
    if !all_correct {
        println!("some runs reported correct=false");
    }
    Ok(steady)
}
