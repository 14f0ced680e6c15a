//! Table 2 — Overlapping iterations with focus on limiting the number of
//! reconfigurations (§4.3's ad-hoc *overlapped execution*).
//!
//! Twelve QRD iterations are pipelined by executing the k-th instruction
//! bundle of all iterations back to back. Two bundle sources:
//!
//! - **Manual**: the architects' style — a greedy ordering that minimises
//!   the number of effective instructions, scheduled *without memory
//!   allocation* (exactly what the paper says the hand-written machine
//!   code does);
//! - **Automated**: bundles read off our CP schedule (with memory
//!   allocation).
//!
//! The shape to reproduce: both mask the 7-cycle pipeline latency,
//! reconfigurations stay around 1.5–2 per iteration, and the automated
//! flow lands within ~20 % of the manual baseline.
//!
//! Run: `cargo run --release -p eit-bench --bin table2 [--arch A] [--metrics FILE]`

use eit_arch::ArchSpec;
use eit_bench::{arch_arg, metrics_arg, prepared, rule, write_metrics, Json, RunMetrics};
use eit_core::{
    bundles_from_schedule, manual_style_bundles, overlapped_execution, schedule, Bundle,
    SchedulerOptions,
};
use std::time::Duration;

fn row(
    label: &str,
    bundles: &[Bundle],
    p: &eit_bench::Prepared,
    m: usize,
    spec: &ArchSpec,
) -> Json {
    let r = overlapped_execution(&p.graph, spec, bundles, m);
    // Structural validation (memory excluded, as in the paper's manual
    // baseline which has no allocation).
    let v = eit_arch::validate_structure_with(&r.graph, spec, &r.schedule, false);
    assert!(v.is_empty(), "{label}: overlap schedule invalid: {v:?}");
    println!(
        "{:>10} {:>9} {:>12} {:>8} {:>14.2} {:>18.4}",
        label,
        r.n_bundles,
        r.makespan,
        r.reconfig_switches,
        r.reconfig_switches as f64 / m as f64,
        r.throughput
    );
    Json::Obj(vec![
        ("variant".into(), Json::str(label)),
        ("instructions".into(), Json::int(r.n_bundles as u64)),
        ("makespan".into(), Json::num(r.makespan as f64)),
        ("reconfigs".into(), Json::int(r.reconfig_switches as u64)),
        ("throughput".into(), Json::num(r.throughput)),
    ])
}

fn main() {
    let m = 12;
    let spec = arch_arg();
    let p = prepared("qrd");
    println!("Table 2: overlapped execution of {m} QRD iterations");
    rule(78);
    println!(
        "{:>10} {:>9} {:>12} {:>8} {:>14} {:>18}",
        "", "#instr", "length (cc)", "#reconf", "#reconf/#iter", "thr (iter/cc)"
    );
    rule(78);

    // Manual: instruction-count-minimising greedy, no memory allocation.
    let manual = manual_style_bundles(&p.graph, &spec);
    let manual_row = row("manual", &manual, &p, m, &spec);

    // Automated: CP schedule with memory allocation, bundles extracted.
    let r = schedule(
        &p.graph,
        &spec,
        &SchedulerOptions {
            timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        },
    );
    let s = r.schedule.expect("QRD must schedule");
    let auto = bundles_from_schedule(&p.graph, &s);
    let auto_row = row("automated", &auto, &p, m, &spec);

    rule(78);
    println!("paper reference: manual 460 cc, 18 reconf (1.5/iter), 0.026 iter/cc;");
    println!("                 automated 540 cc, 24 reconf (2/iter), 0.022 iter/cc");

    if let Some(path) = metrics_arg() {
        let mut metrics = RunMetrics::new("table2", "qrd");
        metrics
            .arch(&spec)
            .solver(r.status, r.makespan, &r.stats)
            .section("iterations", Json::int(m as u64))
            .section("rows", Json::Arr(vec![manual_row, auto_row]));
        write_metrics(&metrics, &path);
    }
}
