//! Property-based integration tests: randomly generated kernels must
//! schedule, validate and replay correctly; solver invariants must hold
//! on arbitrary inputs.

use eit::apps::synth::{build, SynthParams};
use eit::arch::{simulate, validate_structure, ArchSpec};
use eit::core::{schedule, SchedulerOptions};
use eit::cp::{Domain, SearchStatus};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any synthetic kernel the generator emits schedules optimally and
    /// survives the full simulator, with all expected outputs matching.
    #[test]
    fn synthetic_kernels_schedule_and_replay(seed in 0u64..500, layers in 1usize..4, width in 2usize..6) {
        let k = build(SynthParams { seed, layers, width, scalar_fraction: 0.2 });
        let mut g = k.graph.clone();
        prop_assert!(g.validate().is_ok());
        eit::ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        });
        prop_assert_eq!(r.status, SearchStatus::Optimal);
        let sched = r.schedule.unwrap();
        prop_assert!(validate_structure(&g, &spec, &sched).is_empty());
        let report = simulate(&g, &spec, &sched, &k.inputs);
        prop_assert!(report.ok(), "{:?}", report.violations);
        for (node, expect) in &k.expected {
            prop_assert!(report.values[node].approx_eq(expect, 1e-6));
        }
    }

    /// The makespan is bounded below by the critical path and above by
    /// the serial horizon.
    #[test]
    fn makespan_bounds(seed in 0u64..500) {
        let k = build(SynthParams { seed, layers: 3, width: 4, scalar_fraction: 0.1 });
        let mut g = k.graph.clone();
        eit::ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let cp = g.critical_path(&spec.latency_of(&g));
        let r = schedule(&g, &spec, &SchedulerOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        });
        let m = r.makespan.unwrap();
        prop_assert!(m >= cp, "makespan {m} < critical path {cp}");
        prop_assert!(m <= eit::core::model::serial_horizon(&g, &spec) + 7);
    }

    /// Adding memory never shortens the schedule; removing the memory
    /// model never lengthens it.
    #[test]
    fn memory_constraints_are_monotone(seed in 0u64..200) {
        let k = build(SynthParams { seed, layers: 2, width: 4, scalar_fraction: 0.1 });
        let mut g = k.graph.clone();
        eit::ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let base = SchedulerOptions { timeout: Some(Duration::from_secs(30)), ..Default::default() };
        let with_mem = schedule(&g, &spec, &base).makespan.unwrap();
        let no_mem = schedule(&g, &spec, &SchedulerOptions { memory: false, ..base }).makespan.unwrap();
        prop_assert!(no_mem <= with_mem);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Domain operations agree with a reference set model.
    #[test]
    fn domain_matches_btreeset(values in prop::collection::btree_set(-50i32..50, 0..40),
                               below in -60i32..60, above in -60i32..60,
                               removed in prop::collection::vec(-50i32..50, 0..10)) {
        use std::collections::BTreeSet;
        let mut d = Domain::from_values(values.iter().copied());
        let mut set: BTreeSet<i32> = values;
        d.remove_below(below);
        set.retain(|&v| v >= below);
        d.remove_above(above);
        set.retain(|&v| v <= above);
        for v in removed {
            d.remove_value(v);
            set.remove(&v);
        }
        prop_assert_eq!(d.size() as usize, set.len());
        for v in -60..60 {
            prop_assert_eq!(d.contains(v), set.contains(&v), "v={}", v);
        }
        if !set.is_empty() {
            prop_assert_eq!(d.min(), *set.iter().next().unwrap());
            prop_assert_eq!(d.max(), *set.iter().last().unwrap());
        }
    }

    /// Intersection is the set intersection.
    #[test]
    fn domain_intersection_is_set_intersection(a in prop::collection::btree_set(-30i32..30, 0..30),
                                               b in prop::collection::btree_set(-30i32..30, 0..30)) {
        let mut da = Domain::from_values(a.iter().copied());
        let db = Domain::from_values(b.iter().copied());
        da.intersect(&db);
        let expect: Vec<i32> = a.intersection(&b).copied().collect();
        let got: Vec<i32> = da.iter().collect();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(da.is_empty(), a.intersection(&b).count() == 0);
    }

    /// The DSL's eager evaluation agrees with the canonical opcode
    /// semantics for binary vector ops.
    #[test]
    fn dsl_matches_canonical_semantics(av in prop::collection::vec(-10.0f64..10.0, 4),
                                       bv in prop::collection::vec(-10.0f64..10.0, 4),
                                       which in 0usize..4) {
        use eit::ir::sem::{apply, Value};
        use eit::ir::{CoreOp, Opcode};
        let ctx = eit::dsl::Ctx::new("p");
        let a = ctx.vector([av[0], av[1], av[2], av[3]]);
        let b = ctx.vector([bv[0], bv[1], bv[2], bv[3]]);
        let (dsl_val, op) = match which {
            0 => (Value::V(a.v_add(&b).value()), Opcode::vector(CoreOp::Add)),
            1 => (Value::V(a.v_sub(&b).value()), Opcode::vector(CoreOp::Sub)),
            2 => (Value::V(a.v_mul(&b).value()), Opcode::vector(CoreOp::Mul)),
            _ => (Value::S(a.v_dotp(&b).value()), Opcode::vector(CoreOp::DotP)),
        };
        let canon = apply(&op, &[Value::V(a.value()), Value::V(b.value())]).unwrap();
        prop_assert!(canon[0].approx_eq(&dsl_val, 1e-9));
    }
}

/// Deterministic regression companion to the proptests: one fixed seed
/// exercised deeply (structure + metrics sanity).
#[test]
fn fixed_seed_full_pipeline() {
    let k = build(SynthParams {
        seed: 2024,
        layers: 4,
        width: 6,
        scalar_fraction: 0.25,
    });
    let mut g = k.graph.clone();
    eit::ir::merge_pipeline_ops(&mut g);
    let spec = ArchSpec::eit();
    let r = schedule(
        &g,
        &spec,
        &SchedulerOptions {
            timeout: Some(Duration::from_secs(60)),
            ..Default::default()
        },
    );
    let sched = r.schedule.expect("seeded kernel schedules");
    let report = simulate(&g, &spec, &sched, &k.inputs);
    assert!(report.ok(), "{:?}", report.violations);
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.lane_cycles >= g.count(eit::ir::Category::VectorOp) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Modulo scheduling on random kernels: the issue II respects the
    /// resource lower bound and the unrolled schedule validates.
    #[test]
    fn modulo_schedules_validate_on_synthetic_kernels(seed in 0u64..100) {
        use eit::core::{ii_lower_bound, modulo_schedule, validate_modulo, ModuloOptions};
        let k = build(SynthParams { seed, layers: 2, width: 4, scalar_fraction: 0.2 });
        let mut g = k.graph.clone();
        eit::ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions {
            timeout_per_ii: Duration::from_secs(10),
            total_timeout: Duration::from_secs(30),
            ..Default::default()
        });
        prop_assume!(r.is_some()); // rare hard instances may time out
        let r = r.unwrap();
        prop_assert!(r.ii_issue >= ii_lower_bound(&g, &spec));
        prop_assert!(r.actual_ii >= r.ii_issue);
        let v = validate_modulo(&g, &spec, &r, 4);
        prop_assert!(v.is_empty(), "{:?}", v);
    }

    /// Overlapped execution on random kernels: the transform always
    /// produces a structurally valid multi-iteration schedule whose
    /// reconfiguration count is bounded by the bundle count.
    #[test]
    fn overlap_validates_on_synthetic_kernels(seed in 0u64..100, m in 2usize..10) {
        use eit::core::{manual_style_bundles, overlapped_execution};
        let k = build(SynthParams { seed, layers: 2, width: 4, scalar_fraction: 0.2 });
        let mut g = k.graph.clone();
        eit::ir::merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let bundles = manual_style_bundles(&g, &spec);
        let total_ops: usize = bundles.iter().map(|b| {
            b.vector_ops.len()
                + usize::from(b.scalar_op.is_some())
                + usize::from(b.index_merge_op.is_some())
        }).sum();
        prop_assert_eq!(total_ops, g.ids().filter(|&n| g.category(n).is_op()).count());
        let ov = overlapped_execution(&g, &spec, &bundles, m);
        let v = eit::arch::validate_structure_with(&ov.graph, &spec, &ov.schedule, false);
        prop_assert!(v.is_empty(), "{:?}", v);
        prop_assert!(ov.reconfig_switches < bundles.len().max(1) * 2);
    }
}
