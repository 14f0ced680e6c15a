//! Extension experiment: steady-state memory allocation for modulo
//! schedules. The paper assumes sufficient memory ("allocation boils down
//! to repeating … with a certain offset"); this harness *solves* the
//! steady-state allocation (N in-flight iterations at the issue II) with
//! the full constraint model and reports the real slot footprint. The
//! allocation search restarts (the settings perfbench's steady-state
//! workload uses); II is raised above the lane bound only when the
//! allocation is proven infeasible, and a budget that runs out is
//! reported as `undecided`.
//!
//! Run: `cargo run --release -p eit-bench --bin modulo_memory [--arch A]`

use eit_arch::validate_structure;
use eit_bench::{harness_args, prepared, rule};
use eit_core::modulo::assemble_result;
use eit_core::{
    allocate_modulo_memory_with, ii_lower_bound, modulo_schedule, schedule_at_ii, AllocOptions,
    AllocOutcome, IiOutcome, ModuloOptions,
};
use std::time::Duration;

fn main() {
    let spec = &harness_args(&["--arch"]).arch;
    let opts = AllocOptions {
        restarts: Some(eit_cp::RestartConfig::default()),
        ..Default::default()
    };
    println!("Steady-state memory footprint of modulo schedules (4 in-flight iterations)");
    rule(86);
    println!(
        "{:>10} {:>8} {:>10} {:>14} {:>14} {:>12}",
        "kernel", "II", "#v_data×4", "slots used", "of available", "valid"
    );
    rule(86);
    for name in ["qrd", "arf", "matmul", "fir"] {
        let p = prepared(name);
        let Some(r) = modulo_schedule(
            &p.graph,
            spec,
            &ModuloOptions {
                timeout_per_ii: Duration::from_secs(30),
                total_timeout: Duration::from_secs(120),
                ..Default::default()
            },
        ) else {
            println!("{name:>10}: no modulo schedule");
            continue;
        };
        // Sweep II upward from the lane bound while the steady state is
        // proven not to fit (extension result: for deep serial kernels
        // the vector memory, not the lanes, can limit the II).
        let lb = ii_lower_bound(&p.graph, spec);
        let lane_ii = r.ii_issue;
        let mut r = r;
        loop {
            match allocate_modulo_memory_with(&p.graph, spec, &r, 4, &opts) {
                AllocOutcome::Allocated(big, sched) => {
                    let v = validate_structure(&big, spec, &sched);
                    let raised = if r.ii_issue > lane_ii { "*" } else { "" };
                    println!(
                        "{:>10} {:>8} {:>10} {:>14} {:>14} {:>12}",
                        format!("{name}{raised}"),
                        r.ii_issue,
                        big.count(eit_ir::Category::VectorData),
                        sched.slots_used(&big),
                        spec.n_slots(),
                        if v.is_empty() { "yes" } else { "NO" },
                    );
                    break;
                }
                AllocOutcome::Unknown => {
                    println!(
                        "{name:>10} {:>8} — undecided: no allocation or proof within {} s",
                        r.ii_issue,
                        opts.timeout.as_secs()
                    );
                    break;
                }
                AllocOutcome::Infeasible => {}
            }
            let next = (r.ii_issue + 1..=lb + 64).find_map(|ii| {
                match schedule_at_ii(&p.graph, spec, ii, false, Duration::from_secs(10)) {
                    IiOutcome::Feasible(s) => Some(assemble_result(&p.graph, spec, false, ii, s)),
                    _ => None,
                }
            });
            let Some(next) = next else {
                println!(
                    "{name:>10} {:>8} — steady state proven not to fit; no II up to {} schedules",
                    r.ii_issue,
                    lb + 64
                );
                break;
            };
            r = next;
        }
    }
    rule(86);
    println!("* = II raised above the lane bound until the steady state fits the memory");
}
