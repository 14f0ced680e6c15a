//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - the fig. 6 merge pass on/off (node count and schedule quality);
//! - the three-phase search vs a single first-fail phase.

use criterion::{criterion_group, criterion_main, Criterion};
use eit_arch::ArchSpec;
use eit_bench::prepared;
use eit_core::{build_model, schedule, SchedulerOptions};
use eit_cp::{minimize, Phase, SearchConfig, ValSel, VarSel};
use std::time::Duration;

fn bench_merge_pass(c: &mut Criterion) {
    // The QRD kernel has no foldable chains (its DSL form is already
    // core-op-dense), so ablate on a pre/post-heavy synthetic kernel.
    use eit_dsl::Ctx;
    let build_chainy = || {
        let ctx = Ctx::new("chainy");
        let mut prev = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 2.0, 2.0, 2.0]);
        for _ in 0..6 {
            let h = prev.hermitian();
            let m = h.v_mul(&b);
            prev = m.sort();
        }
        ctx.finish()
    };
    c.bench_function("ablation/merge_pass_off", |b| {
        b.iter(|| {
            let g = build_chainy();
            let r = schedule(
                &g,
                &ArchSpec::eit(),
                &SchedulerOptions {
                    timeout: Some(Duration::from_secs(30)),
                    ..Default::default()
                },
            );
            r.makespan.unwrap()
        })
    });
    c.bench_function("ablation/merge_pass_on", |b| {
        b.iter(|| {
            let mut g = build_chainy();
            eit_ir::merge_pipeline_ops(&mut g);
            let r = schedule(
                &g,
                &ArchSpec::eit(),
                &SchedulerOptions {
                    timeout: Some(Duration::from_secs(30)),
                    ..Default::default()
                },
            );
            r.makespan.unwrap()
        })
    });
}

fn bench_phased_search(c: &mut Criterion) {
    let p = prepared("qrd");
    let spec = ArchSpec::eit();
    let mut group = c.benchmark_group("ablation/phases");
    group.sample_size(10);
    group.bench_function("three_phase", |b| {
        b.iter(|| {
            let mut built = build_model(&p.graph, &spec, &SchedulerOptions::default());
            let cfg = SearchConfig {
                phases: built.phases.clone(),
                timeout: Some(Duration::from_secs(20)),
                ..Default::default()
            };
            minimize(&mut built.model, built.objective, &cfg).objective
        })
    });
    group.bench_function("single_phase_first_fail", |b| {
        b.iter(|| {
            let mut built = build_model(&p.graph, &spec, &SchedulerOptions::default());
            let all: Vec<_> = built.phases.iter().flat_map(|p| p.vars.clone()).collect();
            let cfg = SearchConfig {
                phases: vec![Phase::new(all, VarSel::FirstFail, ValSel::Min)],
                timeout: Some(Duration::from_secs(5)),
                ..Default::default()
            };
            minimize(&mut built.model, built.objective, &cfg).objective
        })
    });
    group.finish();
}

criterion_group!(benches, bench_merge_pass, bench_phased_search);
criterion_main!(benches);
