//! Streaming throughput: compare the three ways of §4.3 to execute many
//! iterations of a kernel — one-at-a-time, overlapped execution, and
//! modulo scheduling (both reconfiguration models).
//!
//! Run: `cargo run --release --example streaming_pipeline [qrd|arf|matmul|fir|detector]`

use eit::arch::ArchSpec;
use eit::core::{
    bundles_from_schedule, manual_style_bundles, modulo_schedule, overlapped_execution, schedule,
    validate_modulo, ModuloOptions, SchedulerOptions,
};
use std::time::Duration;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "arf".into());
    let kernel = eit::apps::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown kernel {name}; use qrd|arf|matmul|fir|detector");
        std::process::exit(1);
    });
    let mut graph = kernel.graph.clone();
    eit::ir::merge_pipeline_ops(&mut graph);
    let spec = ArchSpec::eit();
    let m = 12;

    println!("kernel: {name}, {m} iterations\n");
    println!(
        "{:<34} {:>12} {:>16}",
        "strategy", "cc/iter", "thr (iter/cc)"
    );
    println!("{}", "-".repeat(66));

    // Baseline: a single optimally scheduled iteration, repeated serially.
    let single = schedule(
        &graph,
        &spec,
        &SchedulerOptions {
            timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        },
    );
    let s = single.schedule.expect("kernel must schedule");
    println!(
        "{:<34} {:>12} {:>16.4}",
        "serial (no overlap)",
        s.makespan,
        1.0 / s.makespan as f64
    );

    // Overlapped execution on the CP schedule's bundles.
    let bundles = bundles_from_schedule(&graph, &spec, &s);
    let ov = overlapped_execution(&graph, &spec, &bundles, m);
    println!(
        "{:<34} {:>12.1} {:>16.4}",
        "overlapped execution (automated)",
        ov.makespan as f64 / m as f64,
        ov.throughput
    );

    // Overlapped execution on manual-style bundles.
    let manual = manual_style_bundles(&graph, &spec);
    let ovm = overlapped_execution(&graph, &spec, &manual, m);
    println!(
        "{:<34} {:>12.1} {:>16.4}",
        "overlapped execution (manual)",
        ovm.makespan as f64 / m as f64,
        ovm.throughput
    );

    // Modulo scheduling, reconfigurations post hoc.
    let excl = modulo_schedule(&graph, &spec, &ModuloOptions::default())
        .expect("modulo (excl) must find an II");
    assert!(validate_modulo(&graph, &spec, &excl, 4).is_empty());
    println!(
        "{:<34} {:>12} {:>16.4}",
        format!("modulo, reconfig post hoc (II {})", excl.ii_issue),
        excl.actual_ii,
        excl.throughput
    );

    // Modulo scheduling with reconfigurations in the optimisation.
    let incl = modulo_schedule(
        &graph,
        &spec,
        &ModuloOptions {
            include_reconfig: true,
            ..Default::default()
        },
    )
    .expect("modulo (incl) must find an II");
    assert!(validate_modulo(&graph, &spec, &incl, 4).is_empty());
    println!(
        "{:<34} {:>12} {:>16.4}",
        format!("modulo, reconfig modelled (II {})", incl.ii_issue),
        incl.actual_ii,
        incl.throughput
    );

    println!();
    println!(
        "modulo scheduling sustains a *stable* throughput of one result every {} cc,\n\
         while overlapped execution is bursty: all {m} outputs land in the schedule tail.",
        incl.actual_ii
    );
}
