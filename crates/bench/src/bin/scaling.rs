//! Solve-time scaling sweep (extension beyond the paper): synthetic
//! kernels of growing size through the full scheduling pipeline,
//! reporting |V|, makespan and solver effort.
//!
//! Run: `cargo run --release -p eit-bench --bin scaling [--arch A]`

use eit_apps::synth::{build, SynthParams};
use eit_bench::harness_args;
use eit_core::{list_schedule, schedule, SchedulerOptions};
use std::time::Duration;

fn main() {
    let spec = harness_args(&["--arch"]).arch;
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "|V|", "ops", "CP", "heuristic", "nodes", "fails", "time (ms)"
    );
    for (layers, width) in [(2usize, 4usize), (3, 6), (4, 8), (5, 10), (6, 12)] {
        let k = build(SynthParams {
            layers,
            width,
            seed: 11,
            scalar_fraction: 0.15,
        });
        let mut g = k.graph.clone();
        eit_ir::merge_pipeline_ops(&mut g);
        let ops = g.ids().filter(|&n| g.category(n).is_op()).count();
        let r = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                timeout: Some(Duration::from_secs(60)),
                ..Default::default()
            },
        );
        let heur = list_schedule(&g, &spec)
            .map(|h| h.schedule.makespan.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>6} {:>6} {:>9} {:>9} {:>10} {:>10} {:>12.1}",
            g.len(),
            ops,
            r.makespan.map_or("-".into(), |m| m.to_string()),
            heur,
            r.stats.nodes,
            r.stats.fails,
            r.stats.time.as_secs_f64() * 1e3,
        );
    }
}
