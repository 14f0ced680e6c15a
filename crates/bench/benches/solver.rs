//! Micro-benchmarks of the CP solver substrate: domain operations,
//! propagation fixpoints, the two global constraints, and end-to-end
//! search on synthetic kernels of increasing size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eit_apps::synth::{build, SynthParams};
use eit_arch::ArchSpec;
use eit_core::alloc::{allocate_modulo_memory_with, AllocOptions, AllocOutcome};
use eit_core::{modulo_schedule, schedule, ModuloOptions, SchedulerOptions};
use eit_cp::props::cumulative::CumTask;
use eit_cp::props::diff2::Rect;
use eit_cp::{Domain, Model, Phase, SearchConfig, ValSel, VarSel};
use std::time::Duration;

fn bench_domain(c: &mut Criterion) {
    c.bench_function("solver/domain_remove_middle", |b| {
        b.iter(|| {
            let mut d = Domain::interval(0, 999);
            for v in (100..900).step_by(7) {
                d.remove_value(v);
            }
            d.size()
        })
    });
    // The hybrid representation's raison d'être: on a span-128 domain
    // (every start/slot variable under a realistic horizon) the bitset
    // path does `remove_value` and `contains` as word ops where the
    // pinned interval list splits and scans runs. Same op stream, same
    // observable results — only the representation differs.
    for (name, pin) in [("bitset", false), ("interval", true)] {
        c.bench_function(&format!("solver/domain_small_ops_{name}"), |b| {
            b.iter(|| {
                let mut d = Domain::interval(0, 127);
                if pin {
                    d.pin();
                }
                let mut member = 0u32;
                for v in (0..128).step_by(3) {
                    d.remove_value(v);
                }
                for v in 0..128 {
                    member += d.contains(v) as u32;
                }
                (d.size(), member)
            })
        });
    }
    c.bench_function("solver/domain_intersect_holey", |b| {
        let a = Domain::from_values((0..1000).filter(|v| v % 3 != 0));
        let bd = Domain::from_values((0..1000).filter(|v| v % 5 != 0));
        b.iter(|| {
            let mut x = a.clone();
            x.intersect(&bd);
            x.size()
        })
    });
}

fn bench_propagation(c: &mut Criterion) {
    c.bench_function("solver/cumulative_fixpoint_100_tasks", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let tasks: Vec<CumTask> = (0..100)
                .map(|_| CumTask {
                    start: m.new_var(0, 200),
                    dur: 2,
                    req: 1,
                })
                .collect();
            m.cumulative(tasks, 4);
            assert!(eit_cp::search::propagate_root(&mut m));
        })
    });
    c.bench_function("solver/diff2_fixpoint_50_rects", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let one = m.new_const(1);
            let rects: Vec<Rect> = (0..50)
                .map(|_| {
                    let x = m.new_var(0, 100);
                    let y = m.new_var(0, 15);
                    let l = m.new_var(1, 20);
                    Rect {
                        origin: [x, y],
                        len: [l, one],
                    }
                })
                .collect();
            m.diff2(rects);
            assert!(eit_cp::search::propagate_root(&mut m));
        })
    });
}

fn bench_synthetic_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/synthetic_schedule");
    group.sample_size(10);
    for (layers, width) in [(2usize, 4usize), (4, 6), (6, 8)] {
        let k = build(SynthParams {
            layers,
            width,
            seed: 7,
            ..Default::default()
        });
        let mut g = k.graph.clone();
        eit_ir::merge_pipeline_ops(&mut g);
        let n = g.len();
        group.bench_with_input(BenchmarkId::from_parameter(n), &(), |b, _| {
            b.iter(|| {
                let r = schedule(
                    &g,
                    &ArchSpec::eit(),
                    &SchedulerOptions {
                        timeout: Some(Duration::from_secs(30)),
                        ..Default::default()
                    },
                );
                r.makespan
            })
        });
    }
    group.finish();
}

fn bench_search_heuristics(c: &mut Criterion) {
    // N-ary all-different-style packing via cumulative: first-fail
    // variable selection, smallest value first.
    c.bench_function("solver/packing_first_fail", |b| {
        b.iter(|| {
            let mut m = Model::new();
            let vars: Vec<_> = (0..24).map(|_| m.new_var(0, 11)).collect();
            m.cumulative(
                vars.iter()
                    .map(|&v| CumTask {
                        start: v,
                        dur: 1,
                        req: 1,
                    })
                    .collect(),
                2,
            );
            let cfg = SearchConfig {
                phases: vec![Phase::new(vars, VarSel::FirstFail, ValSel::Min)],
                ..Default::default()
            };
            let r = eit_cp::solve(&mut m, &cfg);
            assert!(r.is_sat());
        })
    });
}

fn bench_parallel_ab(c: &mut Criterion) {
    // Sequential vs `--jobs 4` speculative II sweep on QRD with
    // reconfigurations modelled. QRD's lower bound is tight (II = 22 is
    // feasible on the first probe), so parallelism can only add
    // thread-spawn overhead here — the pair documents that the sweep's
    // parallel mode costs little when there is nothing to overlap.
    let k = eit_apps::by_name("qrd").expect("built-in kernel");
    let mut g = k.graph.clone();
    eit_ir::merge_pipeline_ops(&mut g);
    let mopts = |jobs| ModuloOptions {
        include_reconfig: true,
        jobs,
        ..Default::default()
    };
    let modulo = modulo_schedule(&g, &ArchSpec::eit(), &mopts(1)).expect("qrd incl pipelines");

    let mut group = c.benchmark_group("solver/parallel_ab");
    group.sample_size(10);
    for (name, jobs) in [("sweep_seq", 1usize), ("sweep_jobs4", 4)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let r = modulo_schedule(&g, &ArchSpec::eit(), &mopts(jobs)).unwrap();
                assert_eq!(r.ii_issue, modulo.ii_issue);
                r.actual_ii
            })
        });
    }
    group.finish();
}

fn bench_restart_ab(c: &mut Criterion) {
    // Restarts + nogood recording on a phase-transition instance: QRD's
    // steady-state memory allocation at a 39-slot budget. A plain sequential dive commits to a bad prefix
    // and thrashes until the 2 s cap; geometric restarts abandon the
    // prefix, the recorded nogoods stop the next dive from re-entering
    // it, and the single-threaded search finds a valid allocation well
    // inside the budget. This is the CP-native analogue of the clause
    // learning the SAT-based modulo schedulers lean on.
    let k = eit_apps::by_name("qrd").expect("built-in kernel");
    let mut g = k.graph.clone();
    eit_ir::merge_pipeline_ops(&mut g);
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

    let mut group = c.benchmark_group("solver/restart_ab");
    group.sample_size(10);
    for (name, restarts) in [
        ("alloc_plain_2s_cap", None),
        (
            "alloc_restarts_nogoods",
            Some(eit_cp::RestartConfig::default()),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = allocate_modulo_memory_with(
                    &g,
                    &spec,
                    &modulo,
                    4,
                    &AllocOptions {
                        timeout: Duration::from_secs(2),
                        restarts,
                        ..Default::default()
                    },
                );
                if restarts.is_some() {
                    assert!(
                        matches!(out, AllocOutcome::Allocated(..)),
                        "restarts+nogoods should crack the 39-slot allocation within budget"
                    );
                }
                matches!(out, AllocOutcome::Allocated(..))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_domain,
    bench_propagation,
    bench_synthetic_scaling,
    bench_search_heuristics,
    bench_parallel_ab,
    bench_restart_ab
);
criterion_main!(benches);
