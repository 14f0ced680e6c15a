//! End-to-end integration: every kernel goes DSL → IR → merge pass →
//! CP schedule (with memory allocation) → cycle-accurate simulation with
//! functional output verification.

use eit::arch::{simulate, validate_structure, ArchSpec};
use eit::core::{schedule, SchedulerOptions};
use eit::cp::SearchStatus;
use std::time::Duration;

fn opts(secs: u64) -> SchedulerOptions {
    SchedulerOptions {
        timeout: Some(Duration::from_secs(secs)),
        ..Default::default()
    }
}

fn run_kernel(name: &str) {
    let kernel = eit::apps::by_name(name).unwrap();
    let mut graph = kernel.graph.clone();
    graph.validate().unwrap();
    eit::ir::merge_pipeline_ops(&mut graph);
    graph.validate().unwrap();

    let spec = ArchSpec::eit();
    let result = schedule(&graph, &spec, &opts(120));
    assert_eq!(
        result.status,
        SearchStatus::Optimal,
        "{name} must solve to optimality"
    );
    let sched = result.schedule.unwrap();

    // Structural validation.
    let violations = validate_structure(&graph, &spec, &sched);
    assert!(violations.is_empty(), "{name}: {violations:?}");

    // Functional replay: every expected output must match.
    let report = simulate(&graph, &spec, &sched, &kernel.inputs);
    assert!(report.ok(), "{name}: {:?}", report.violations);
    for (node, expect) in &kernel.expected {
        assert!(
            report.values[node].approx_eq(expect, 1e-9),
            "{name}: output {node:?} mismatch: {:?} vs {expect:?}",
            report.values[node]
        );
    }
}

#[test]
fn qrd_end_to_end() {
    run_kernel("qrd");
}

#[test]
fn arf_end_to_end() {
    run_kernel("arf");
}

#[test]
fn matmul_end_to_end() {
    run_kernel("matmul");
}

#[test]
fn fir_end_to_end() {
    run_kernel("fir");
}

#[test]
fn detector_end_to_end() {
    run_kernel("detector");
}

#[test]
fn blockmm_end_to_end() {
    run_kernel("blockmm");
}

#[test]
fn makespan_equals_critical_path_when_memory_suffices() {
    // The paper's central Table 1 observation.
    let kernel = eit::apps::by_name("qrd").unwrap();
    let mut graph = kernel.graph.clone();
    eit::ir::merge_pipeline_ops(&mut graph);
    let cp = graph.critical_path(&ArchSpec::eit().latency_of(&graph));
    for slots in [64u32, 16, 8] {
        let spec = ArchSpec::eit().with_slots(slots);
        let r = schedule(&graph, &spec, &opts(120));
        assert_eq!(r.makespan, Some(cp), "slots={slots}");
    }
}

#[test]
fn below_live_set_floor_is_infeasible() {
    let kernel = eit::apps::by_name("qrd").unwrap();
    let mut graph = kernel.graph.clone();
    eit::ir::merge_pipeline_ops(&mut graph);
    // 8 inputs alive at cycle 0 → 7 slots can never work.
    let spec = ArchSpec::eit().with_slots(7);
    let r = schedule(&graph, &spec, &opts(60));
    assert_eq!(r.status, SearchStatus::Infeasible);
}

#[test]
fn memoryless_schedule_never_longer() {
    for name in ["qrd", "arf", "matmul"] {
        let kernel = eit::apps::by_name(name).unwrap();
        let mut graph = kernel.graph.clone();
        eit::ir::merge_pipeline_ops(&mut graph);
        let spec = ArchSpec::eit();
        let with_mem = schedule(&graph, &spec, &opts(120)).makespan.unwrap();
        let no_mem = schedule(
            &graph,
            &spec,
            &SchedulerOptions {
                memory: false,
                ..opts(120)
            },
        )
        .makespan
        .unwrap();
        assert!(no_mem <= with_mem, "{name}: {no_mem} > {with_mem}");
    }
}

#[test]
fn schedule_respects_every_documented_resource() {
    // A kernel that simultaneously exercises all three units.
    let ctx = eit::dsl::Ctx::new("mixed");
    let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
    let b = ctx.vector([4.0, 3.0, 2.0, 1.0]);
    let d1 = a.v_dotp(&b);
    let d2 = b.v_dotp(&a);
    let s1 = d1.sqrt();
    let s2 = d2.rsqrt();
    let m = ctx.merge([&s1, &s2, &d1, &d2]);
    let _ = m.v_add(&a);
    let mut graph = ctx.finish();
    eit::ir::merge_pipeline_ops(&mut graph);
    let spec = ArchSpec::eit();
    let r = schedule(&graph, &spec, &opts(60));
    let sched = r.schedule.expect("mixed kernel schedules");
    assert!(validate_structure(&graph, &spec, &sched).is_empty());
}

#[test]
fn compile_facade_handles_every_kernel() {
    use eit::core::pipeline::{compile, CompileOptions};
    for name in ["qrd", "arf", "matmul", "fir", "detector", "blockmm"] {
        let kernel = eit::apps::by_name(name).unwrap();
        let out = compile(
            kernel.graph.clone(),
            &ArchSpec::eit(),
            &CompileOptions {
                scheduler: SchedulerOptions {
                    timeout: Some(Duration::from_secs(120)),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.status, SearchStatus::Optimal, "{name}");
        // The compiled schedule still replays functionally.
        let report =
            eit::arch::simulate(&out.graph, &ArchSpec::eit(), &out.schedule, &kernel.inputs);
        assert!(report.ok(), "{name}: {:?}", report.violations);
        assert!(out.program.n_instructions > 0, "{name}");
    }
}

#[test]
fn kernels_retarget_to_the_wide_machine() {
    // "We plan to continue this work by targeting other vector
    // architectures" — the machine model is a parameter, so retargeting
    // is a one-liner. On the 8-lane machine MATMUL's 16 dot products
    // issue in 2 cycles instead of 4.
    let spec = ArchSpec::wide();
    spec.validate().unwrap();
    for name in ["matmul", "arf", "qrd"] {
        let kernel = eit::apps::by_name(name).unwrap();
        let mut g = kernel.graph.clone();
        eit::ir::merge_pipeline_ops(&mut g);
        let r = schedule(&g, &spec, &opts(120));
        let sched = r
            .schedule
            .unwrap_or_else(|| panic!("{name} on wide machine"));
        let report = eit::arch::simulate(&g, &spec, &sched, &kernel.inputs);
        assert!(report.ok(), "{name}: {:?}", report.violations);
    }
    // MATMUL issue: 16 dotp / 8 lanes = 2 cycles + pipeline + merges.
    let kernel = eit::apps::by_name("matmul").unwrap();
    let mut g = kernel.graph.clone();
    eit::ir::merge_pipeline_ops(&mut g);
    let wide = schedule(&g, &spec, &opts(60)).makespan.unwrap();
    let narrow = schedule(&g, &ArchSpec::eit(), &opts(60)).makespan.unwrap();
    assert!(wide <= narrow, "wide {wide} vs narrow {narrow}");
}
