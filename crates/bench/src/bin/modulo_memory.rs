//! Extension experiment: steady-state memory allocation for modulo
//! schedules. The paper assumes sufficient memory ("allocation boils down
//! to repeating … with a certain offset"); this harness *solves* the
//! steady-state allocation (N in-flight iterations at the issue II) with
//! the full constraint model and reports the real slot footprint.
//!
//! Run: `cargo run --release -p eit-bench --bin modulo_memory [--arch A]`

use eit_arch::validate_structure;
use eit_bench::{arch_arg, prepared, rule};
use eit_core::modulo::assemble_result;
use eit_core::{
    allocate_modulo_memory, ii_lower_bound, modulo_schedule, schedule_at_ii, IiOutcome,
    ModuloOptions,
};
use std::time::Duration;

fn main() {
    println!("Steady-state memory footprint of modulo schedules (4 in-flight iterations)");
    rule(86);
    println!(
        "{:>10} {:>8} {:>10} {:>14} {:>14} {:>12}",
        "kernel", "II", "#v_data×4", "slots used", "of available", "valid"
    );
    rule(86);
    let arch = arch_arg();
    for name in ["qrd", "arf", "matmul", "fir"] {
        let p = prepared(name);
        let spec = arch.clone();
        let Some(r) = modulo_schedule(
            &p.graph,
            &spec,
            &ModuloOptions {
                timeout_per_ii: Duration::from_secs(30),
                total_timeout: Duration::from_secs(120),
                ..Default::default()
            },
        ) else {
            println!("{name:>10}: no modulo schedule");
            continue;
        };
        match allocate_modulo_memory(&p.graph, &spec, &r, 4) {
            Some((big, sched)) => {
                let v = validate_structure(&big, &spec, &sched);
                println!(
                    "{:>10} {:>8} {:>10} {:>14} {:>14} {:>12}",
                    name,
                    r.ii_issue,
                    big.count(eit_ir::Category::VectorData),
                    sched.slots_used(&big),
                    spec.n_slots(),
                    if v.is_empty() { "yes" } else { "NO" },
                );
            }
            None => {
                // The lane-bound II does not fit in memory: sweep II
                // upward to the *memory-bound* II (extension result: for
                // deep serial kernels the vector memory, not the lanes,
                // limits the initiation interval).
                let spec2 = spec;
                let lb = ii_lower_bound(&p.graph, &spec2);
                let mut found = None;
                for ii in (r.ii_issue + 1)..=(lb + 64) {
                    let IiOutcome::Feasible(s) =
                        schedule_at_ii(&p.graph, &spec2, ii, false, Duration::from_secs(10))
                    else {
                        continue;
                    };
                    let rr = assemble_result(&p.graph, &spec2, false, ii, s);
                    if let Some((big, sched)) = allocate_modulo_memory(&p.graph, &spec2, &rr, 4) {
                        let v = validate_structure(&big, &spec2, &sched);
                        found = Some((ii, sched.slots_used(&big), v.is_empty()));
                        break;
                    }
                }
                match found {
                    Some((ii, used, ok)) => println!(
                        "{:>10} {:>8} {:>10} {:>14} {:>14} {:>12}",
                        format!("{name}*"),
                        ii,
                        "-",
                        used,
                        spec2.n_slots(),
                        if ok { "yes" } else { "NO" },
                    ),
                    None => println!(
                        "{name:>10} {:>8} — lane-bound II infeasible in memory; none found ≤ {}",
                        r.ii_issue,
                        lb + 64
                    ),
                }
            }
        }
    }
    rule(86);
    println!("* = II raised above the lane bound until the steady state fits the memory");
}
