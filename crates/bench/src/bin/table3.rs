//! Table 3 — Pipelining with focus on limiting the number of
//! reconfigurations: modulo scheduling, with and without
//! reconfigurations in the optimisation, for QRD, ARF and MATMUL.
//!
//! The shape to reproduce: the model *excluding* reconfigurations finds a
//! low issue-II fast but pays many post-hoc reconfiguration stalls; the
//! model *including* them (configuration bands) spends more optimisation
//! effort and yields a better actual II — except for MATMUL, whose single
//! configuration needs no steady-state reconfiguration at all, so both
//! models tie at the resource-bound II of 4 with throughput 0.250.
//!
//! Run: `cargo run --release -p eit-bench --bin table3 [--arch A] [--metrics FILE]`

use eit_bench::{arch_arg, graph_props, metrics_arg, prepared, rule, write_metrics, RunMetrics};
use eit_core::json::Json;
use eit_core::{modulo_schedule, validate_modulo, ModuloOptions};
use std::time::Duration;

fn main() {
    let metrics_path = metrics_arg();
    let arch = arch_arg();
    let mut rows = Vec::new();
    println!("Table 3: modulo scheduling, excluding vs including reconfigurations");
    rule(110);
    println!(
        "{:>8} {:>20} | {:>8} {:>6} {:>9} {:>9} | {:>8} {:>9} {:>9} {:>12}",
        "app",
        "(|V|,|E|,|Cr.P|)",
        "init II",
        "#rec",
        "act. II",
        "thr",
        "II",
        "thr",
        "", // spacing
        "opt time(ms)"
    );
    rule(110);

    for name in ["qrd", "arf", "matmul"] {
        let p = prepared(name);
        let (v, e, cp) = graph_props(&p.graph);
        let spec = arch.clone();

        let excl = modulo_schedule(
            &p.graph,
            &spec,
            &ModuloOptions {
                timeout_per_ii: Duration::from_secs(60),
                total_timeout: Duration::from_secs(300),
                ..Default::default()
            },
        )
        .expect("excl variant must find an II");
        assert!(
            validate_modulo(&p.graph, &spec, &excl, 4).is_empty(),
            "{name}: excl modulo schedule invalid"
        );

        let incl = modulo_schedule(
            &p.graph,
            &spec,
            &ModuloOptions {
                include_reconfig: true,
                timeout_per_ii: Duration::from_secs(60),
                total_timeout: Duration::from_secs(300),
                ..Default::default()
            },
        )
        .expect("incl variant must find an II");
        assert!(
            validate_modulo(&p.graph, &spec, &incl, 4).is_empty(),
            "{name}: incl modulo schedule invalid"
        );

        // Table 3 counts the *initial* configuration load for MATMUL
        // ("no reconfiguration is needed after the first instruction"),
        // so report max(switches, 1) in the #rec column like the paper.
        let rec_col = excl.switches.max(1);
        println!(
            "{:>8} {:>20} | {:>8} {:>6} {:>9} {:>9.3} | {:>8} {:>9.3} {:>9} {:>12.1}",
            name,
            format!("({v},{e},{cp})"),
            excl.ii_issue,
            rec_col,
            excl.actual_ii,
            excl.throughput,
            incl.actual_ii,
            incl.throughput,
            if incl.timed_out { "timeout*" } else { "" },
            incl.opt_time.as_secs_f64() * 1e3,
        );
        rows.push(Json::Obj(vec![
            ("app".into(), Json::str(name)),
            ("nodes".into(), Json::int(v as u64)),
            ("edges".into(), Json::int(e as u64)),
            ("critical_path".into(), Json::num(cp as f64)),
            ("excl_ii_issue".into(), Json::num(excl.ii_issue as f64)),
            ("excl_switches".into(), Json::int(rec_col as u64)),
            ("excl_actual_ii".into(), Json::num(excl.actual_ii as f64)),
            ("excl_throughput".into(), Json::num(excl.throughput)),
            ("incl_actual_ii".into(), Json::num(incl.actual_ii as f64)),
            ("incl_throughput".into(), Json::num(incl.throughput)),
            ("incl_timed_out".into(), Json::Bool(incl.timed_out)),
            (
                "incl_opt_time_us".into(),
                Json::int(incl.opt_time.as_micros() as u64),
            ),
        ]));
    }
    rule(110);
    println!("left block: optimisation excluding reconfigurations (stalls added post hoc);");
    println!("right block: optimisation including reconfigurations (configuration bands).");
    println!("paper reference: QRD (143,194,169) 32/23/55/0.018 vs 46/0.022 (3055 ms, timeout);");
    println!("                 ARF (88,128,56) 16/16/32/0.031 vs 24/0.042 (80061 ms);");
    println!("                 MATMUL (44,68,8) 4/1/4/0.250 vs 4/0.250 (2135 ms)");

    if let Some(path) = metrics_path {
        let mut m = RunMetrics::new("table3", "qrd+arf+matmul");
        m.arch(&arch).section("rows", Json::Arr(rows));
        write_metrics(&m, &path);
    }
}
