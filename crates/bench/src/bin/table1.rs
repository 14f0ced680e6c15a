//! Table 1 — Scheduling QR decomposition on the EIT architecture.
//!
//! Reproduces the paper's memory-size sweep: the QRD kernel is scheduled
//! with combined memory allocation at decreasing slot budgets. The shape
//! to reproduce: the schedule length equals the critical path and stays
//! *constant* across memory sizes ("memory size is a secondary issue"),
//! until the budget crosses the kernel's live-set floor, below which the
//! instance is infeasible. The paper reports 173 cc at 64/32/16/10 slots,
//! a timeout at 9 and an infeasibility proof at 8; our kernel's live-set
//! floor sits at 8 slots (it has 8 vector inputs alive at cycle 0).
//!
//! Run: `cargo run --release -p eit-bench --bin table1 [--arch A] [--metrics FILE]`

use eit_bench::{arch_arg, graph_props, metrics_arg, prepared, rule, write_metrics, RunMetrics};
use eit_core::json::Json;
use eit_core::{schedule, SchedulerOptions};
use eit_cp::SearchStatus;
use std::time::Duration;

fn main() {
    let metrics_path = metrics_arg();
    let arch = arch_arg();
    let mut rows = Vec::new();
    let p = prepared("qrd");
    let (v, e, cp) = graph_props(&p.graph);
    let vd = p.graph.count(eit_ir::Category::VectorData);
    println!("Table 1: scheduling QRD with memory allocation");
    println!("application properties: |V| = {v}, |E| = {e}, |Cr.P| = {cp}, #v_data = {vd}");
    println!("(paper: |V| = 143, |E| = 194, |Cr.P| = 169, #v_data = 49)");
    rule(78);
    println!(
        "{:>15} {:>12} {:>12} {:>12} {:>14}",
        "#slots avail", "length (cc)", "#slots used", "status", "opt. time (ms)"
    );
    rule(78);

    for slots in [64u32, 32, 16, 10, 9, 8, 7, 6] {
        let spec = arch.clone().with_slots(slots);
        let r = schedule(
            &p.graph,
            &spec,
            &SchedulerOptions {
                timeout: Some(Duration::from_secs(120)),
                ..Default::default()
            },
        );
        let status = match r.status {
            SearchStatus::Optimal => "optimal",
            SearchStatus::Feasible => "feasible*",
            SearchStatus::Infeasible => "infeasible",
            SearchStatus::Unknown => "timeout",
        };
        let (len, used) = match &r.schedule {
            Some(s) => {
                // Safety net: re-validate through the simulator.
                let violations = eit_arch::validate_structure(&p.graph, &spec, s);
                assert!(
                    violations.is_empty(),
                    "slots={slots}: schedule fails validation: {violations:?}"
                );
                (s.makespan.to_string(), s.slots_used(&p.graph).to_string())
            }
            None => ("-".into(), "-".into()),
        };
        println!(
            "{:>15} {:>12} {:>12} {:>12} {:>14.1}",
            slots,
            len,
            used,
            status,
            r.stats.time.as_secs_f64() * 1e3
        );
        rows.push(Json::Obj(vec![
            ("slots".into(), Json::int(slots as u64)),
            ("status".into(), Json::str(status)),
            (
                "makespan".into(),
                r.makespan.map_or(Json::Null, |m| Json::num(m as f64)),
            ),
            (
                "slots_used".into(),
                r.schedule
                    .as_ref()
                    .map_or(Json::Null, |s| Json::int(s.slots_used(&p.graph) as u64)),
            ),
            ("nodes".into(), Json::int(r.stats.nodes)),
            ("time_us".into(), Json::int(r.stats.time.as_micros() as u64)),
        ]));
    }
    rule(78);
    println!("paper reference: 173 cc at 64/32/16/10 slots (33/28/16/10 used, ~1.8 s),");
    println!("                 9 slots → timeout, 8 slots → infeasible");

    if let Some(path) = metrics_path {
        let mut m = RunMetrics::new("table1", "qrd");
        m.arch(&arch).section("rows", Json::Arr(rows));
        write_metrics(&m, &path);
    }
}
