//! The null-sink overhead gate: tracing into a [`NullSink`] must cost
//! under 2 % of the untraced end-to-end QRD solve, whose event engine
//! bookkeeping this pins too.
//!
//! Untraced and null-sink solves run in alternating pairs, each pair
//! swapping which side goes first, so drift in the host's speed lands on
//! both sides alike. The program prints the median per-pair ratio (null ÷
//! untraced), its interquartile range and each side's median time, and
//! exits 1 when the median ratio is above [`BOUND`].
//!
//! Run: `cargo bench -p eit-bench --bench trace_overhead` (arguments,
//! such as the `--bench` cargo passes, are ignored).

use eit_arch::ArchSpec;
use eit_bench::prepared;
use eit_core::{schedule, SchedulerOptions};
use eit_cp::{NullSink, TraceHandle};
use eit_ir::Graph;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Measured pairs (about 1.5 s). On a shared 2-vCPU host, 70 runs at
/// 100 or 200 pairs gave median ratios between 0.987 and 1.013.
const PAIRS: usize = 200;
/// Unmeasured pairs first, to warm caches and the allocator.
const WARMUP: usize = 5;
/// Largest median null ÷ untraced ratio that passes.
const BOUND: f64 = 1.02;

/// One QRD solve: its makespan and wall time in seconds.
fn solve(g: &Graph, spec: &ArchSpec, traced: bool) -> (i32, f64) {
    let t0 = Instant::now();
    let r = schedule(
        g,
        spec,
        &SchedulerOptions {
            timeout: Some(Duration::from_secs(60)),
            trace: traced.then(|| TraceHandle::new(NullSink)),
            ..Default::default()
        },
    );
    let secs = t0.elapsed().as_secs_f64();
    (r.makespan.expect("QRD must schedule"), secs)
}

/// Median and interquartile range of `v`, which is sorted in place.
fn median_iqr(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.75) - at(0.25))
}

fn main() -> ExitCode {
    let p = prepared("qrd");
    let spec = ArchSpec::eit();
    let mut untraced = Vec::with_capacity(PAIRS);
    let mut null = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..WARMUP + PAIRS {
        let null_first = pair % 2 == 1;
        let ((m_u, t_u), (m_n, t_n)) = if null_first {
            let n = solve(&p.graph, &spec, true);
            (solve(&p.graph, &spec, false), n)
        } else {
            let u = solve(&p.graph, &spec, false);
            (u, solve(&p.graph, &spec, true))
        };
        assert_eq!(m_u, m_n, "the null sink changed the QRD makespan");
        if pair >= WARMUP {
            untraced.push(t_u * 1e3);
            null.push(t_n * 1e3);
            ratios.push(t_n / t_u);
        }
    }
    let (ratio, iqr) = median_iqr(&mut ratios);
    let (untraced_ms, _) = median_iqr(&mut untraced);
    let (null_ms, _) = median_iqr(&mut null);
    println!(
        "trace_overhead: {PAIRS} pairs, QRD untraced {untraced_ms:.3} ms, \
         null sink {null_ms:.3} ms (medians)"
    );
    println!("trace_overhead: null/untraced median ratio {ratio:.4}, IQR {iqr:.4}, bound {BOUND}");
    if ratio > BOUND {
        eprintln!("trace_overhead: FAIL: median ratio {ratio:.4} is above {BOUND}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
