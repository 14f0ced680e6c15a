//! Ablations of three design choices DESIGN.md calls out, one block each:
//!
//! - the fig. 6 merge pass on/off on a pre/post-heavy chain: size,
//!   critical path, makespan and median solve time of 21 solves;
//! - the §3.5 phased search (op starts, then slots) vs a single
//!   first-fail phase over the same variables on QRD: objective, search
//!   nodes and fails;
//! - the 39-slot steady-state allocation of QRD's include-reconfig modulo
//!   schedule (4 iterations), plain DFS vs `RestartConfig::default()`,
//!   each under a 2 s cap. The restarting search must allocate.
//!
//! Run: `cargo run --release --example ablation`

use eit::arch::ArchSpec;
use eit::core::{
    allocate_modulo_memory_with, build_model, modulo_schedule, schedule, AllocOptions,
    AllocOutcome, ModuloOptions, SchedulerOptions,
};
use eit::cp::{minimize, Phase, RestartConfig, SearchConfig, VarSel};
use eit::ir::Graph;
use std::time::{Duration, Instant};

fn merged(mut g: Graph) -> Graph {
    eit::ir::merge_pipeline_ops(&mut g);
    g
}

/// QRD has no foldable chains (its DSL form is already core-op-dense),
/// so the merge pass is ablated on a synthetic chain of
/// hermitian → multiply → sort steps.
fn chain() -> Graph {
    let ctx = eit::dsl::Ctx::new("chainy");
    let mut prev = ctx.vector([1.0, 2.0, 3.0, 4.0]);
    let b = ctx.vector([2.0, 2.0, 2.0, 2.0]);
    for _ in 0..6 {
        prev = prev.hermitian().v_mul(&b).sort();
    }
    ctx.finish()
}

fn merge_pass(spec: &ArchSpec) {
    println!("merge pass (chain of 6 hermitian/mul/sort steps, median of 21 solves):");
    for (name, g) in [("off", chain()), ("on", merged(chain()))] {
        let cp = g.critical_path(&spec.latency_of(&g));
        let mut makespan = 0;
        let mut us: Vec<f64> = (0..21)
            .map(|_| {
                let t0 = Instant::now();
                let r = schedule(
                    &g,
                    spec,
                    &SchedulerOptions {
                        timeout: Some(Duration::from_secs(30)),
                        ..Default::default()
                    },
                );
                makespan = r.makespan.expect("the chain schedules");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        us.sort_by(f64::total_cmp);
        println!(
            "  {name:>3}: |V| {:>3}, critical path {cp:>3} cc, makespan {makespan:>3} cc, solve {:>6.0} µs",
            g.len(),
            us[10]
        );
    }
}

fn phases(spec: &ArchSpec) {
    println!("search phases (QRD):");
    let g = merged(eit::apps::by_name("qrd").expect("built-in kernel").graph);
    for (name, single, timeout) in [("phased", false, 20), ("single first-fail", true, 5)] {
        let mut built = build_model(&g, spec, &SchedulerOptions::default());
        let phases = if single {
            let all = built.phases.iter().flat_map(|p| p.vars.clone()).collect();
            vec![Phase::new(all, VarSel::FirstFail)]
        } else {
            built.phases.clone()
        };
        let cfg = SearchConfig {
            phases,
            timeout: Some(Duration::from_secs(timeout)),
            ..Default::default()
        };
        let r = minimize(&mut built.model, built.objective, &cfg);
        println!(
            "  {name:>17}: objective {:?}, {} nodes, {} fails, {:?} ({timeout} s cap)",
            r.objective, r.stats.nodes, r.stats.fails, r.status
        );
    }
}

fn restarts() {
    println!("restarts + nogoods (QRD incl steady state, 4 iterations, 39 slots, 2 s cap):");
    let g = merged(eit::apps::by_name("qrd").expect("built-in kernel").graph);
    let modulo = modulo_schedule(
        &g,
        &ArchSpec::eit(),
        &ModuloOptions {
            include_reconfig: true,
            ..Default::default()
        },
    )
    .expect("qrd incl pipelines");
    let spec = ArchSpec::eit().with_slots(39);
    for (name, restarts) in [
        ("plain DFS", None),
        ("restarts", Some(RestartConfig::default())),
    ] {
        let t0 = Instant::now();
        let out = allocate_modulo_memory_with(
            &g,
            &spec,
            &modulo,
            4,
            &AllocOptions {
                timeout: Duration::from_secs(2),
                restarts,
            },
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = match out {
            AllocOutcome::Allocated(..) => "allocated",
            AllocOutcome::Infeasible => "infeasible",
            AllocOutcome::Unknown => "undecided",
        };
        println!("  {name:>9}: {verdict} in {ms:.0} ms");
        if restarts.is_some() {
            assert_eq!(verdict, "allocated", "the restarting search must allocate");
        }
    }
}

fn main() {
    let spec = ArchSpec::eit();
    merge_pass(&spec);
    phases(&spec);
    restarts();
}
