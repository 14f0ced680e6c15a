//! Quickstart: write a kernel in the DSL, schedule it with memory
//! allocation, and replay it on the cycle-accurate simulator.
//!
//! Run: `cargo run --release --example quickstart`

use eit::arch::{simulate, ArchSpec};
use eit::core::{schedule, SchedulerOptions};
use eit::dsl::Ctx;
use eit::ir::sem::Value;
use std::collections::HashMap;

fn main() {
    // 1. Write the kernel. Running the DSL both evaluates it (for
    //    functional debugging) and records the dataflow IR.
    let ctx = Ctx::new("quickstart");
    let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
    let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
    let sum = a.v_add(&b); // element-wise add on the vector core
    let dot = sum.v_dotp(&b); // dot product → scalar
    let norm = dot.sqrt(); // scalar accelerator
    println!(
        "DSL evaluation: sum·b = {}, √ = {}",
        dot.value(),
        norm.value()
    );

    // 2. Extract the IR and fold pre/post-processing chains (fig. 6).
    let mut graph = ctx.finish();
    graph
        .validate()
        .expect("the DSL emits valid bipartite DAGs");
    eit::ir::merge_pipeline_ops(&mut graph);
    let spec = ArchSpec::eit();
    println!(
        "IR: {} nodes, {} edges, critical path {} cc",
        graph.len(),
        graph.edge_count(),
        graph.critical_path(&spec.latency_of(&graph)),
    );

    // 3. Schedule with combined memory allocation on the EIT machine.
    let result = schedule(&graph, &spec, &SchedulerOptions::default());
    let sched = result.schedule.expect("kernel must schedule");
    println!(
        "schedule: {} cc ({:?}), {} memory slots used",
        sched.makespan,
        result.status,
        sched.slots_used(&graph)
    );

    // 4. Replay on the simulator: structural rules + functional values.
    let mut inputs = HashMap::new();
    inputs.insert(a.node(), Value::V(a.value()));
    inputs.insert(b.node(), Value::V(b.value()));
    let report = simulate(&graph, &spec, &sched, &inputs);
    assert!(report.ok(), "violations: {:?}", report.violations);
    let out = graph.outputs()[0];
    println!(
        "simulator: OK — output {:?} (expected {})",
        report.values[&out],
        norm.value()
    );
    assert!(report.values[&out].approx_eq(&Value::S(norm.value()), 1e-9));

    // 5. The machine code is a per-cycle configuration stream.
    let code = eit::arch::ConfigStream::from_schedule(&graph, &spec, &sched);
    println!(
        "configuration stream ({} switches):",
        code.reconfig_switches()
    );
    print!("{code}");

    // 6. And a Gantt view of the same schedule.
    println!();
    print!("{}", eit::arch::render_gantt(&graph, &spec, &sched));
}
