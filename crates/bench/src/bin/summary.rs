//! Kernel summary: the paper's graph-properties columns for every
//! bundled kernel, before and after the merge pass, priced on the EIT
//! preset.
//!
//! Run: `cargo run --release -p eit-bench --bin summary`

use eit_arch::ArchSpec;
use eit_bench::harness_args;
use eit_ir::merge_pipeline_ops;

fn main() {
    harness_args(&[]);
    let eit = ArchSpec::eit();
    println!(
        "{:<8} {:>6} {:>6} {:>8} {:>9}   {:>6} {:>6} {:>8} {:>7}",
        "kernel", "|V|", "|E|", "|Cr.P|", "#v_data", "|V|'", "|E|'", "|Cr.P|'", "folds"
    );
    for name in ["qrd", "arf", "matmul", "fir", "detector", "blockmm"] {
        let k = eit_apps::by_name(name).unwrap();
        let g0 = &k.graph;
        let cp0 = g0.critical_path(&eit.latency_of(g0));
        let vd = g0.count(eit_ir::Category::VectorData);
        let mut g1 = g0.clone();
        let stats = merge_pipeline_ops(&mut g1);
        let cp1 = g1.critical_path(&eit.latency_of(&g1));
        println!(
            "{:<8} {:>6} {:>6} {:>8} {:>9}   {:>6} {:>6} {:>8} {:>7}",
            name,
            g0.len(),
            g0.edge_count(),
            cp0,
            vd,
            g1.len(),
            g1.edge_count(),
            cp1,
            stats.nodes_removed / 2,
        );
    }
    println!("\n(primed columns: after the fig. 6 pipeline-merge pass)");
}
