//! Property-based integration tests: randomly generated kernels must
//! schedule, validate and replay correctly; solver invariants must hold
//! on arbitrary inputs. Each property runs a fixed number of cases drawn
//! from its own deterministic stream ([`Cases`]), so every run sees the
//! same inputs and a failure names the case that broke.

use eit::apps::synth::{build, SynthParams};
use eit::apps::Kernel;
use eit::arch::{simulate, validate_structure, ArchSpec};
use eit::core::{schedule, SchedulerOptions};
use eit::cp::{Domain, SearchStatus};
use eit::ir::{Graph, NodeId, OpClass};
use std::collections::BTreeSet;
use std::ops::Range;
use std::time::Duration;

/// The case stream of one property: splitmix64 seeded with the FNV-1a
/// hash of `properties::<test name>`. An integer in `lo..hi` is
/// `lo + next % (hi - lo)`; a vector draws its length first.
struct Cases(u64);

impl Cases {
    fn new(test: &str) -> Self {
        let seed = format!("properties::{test}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        Cases(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn int(&mut self, r: Range<i64>) -> i64 {
        r.start + (self.next_u64() % (r.end - r.start) as u64) as i64
    }

    /// A float in `r` from the draw's top 53 bits.
    fn float(&mut self, r: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        r.start + unit * (r.end - r.start)
    }

    fn vec<T>(&mut self, len: Range<i64>, mut elem: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.int(len);
        (0..n).map(|_| elem(self)).collect()
    }

    fn set(&mut self, len: Range<i64>, r: Range<i64>) -> BTreeSet<i32> {
        self.vec(len, |c| c.int(r.clone()) as i32)
            .into_iter()
            .collect()
    }
}

/// A synthetic kernel and its graph after the merge pass, the kernel's
/// values keyed on that graph.
fn synth(seed: u64, layers: usize, width: usize, scalar_fraction: f64) -> (Kernel, Graph) {
    let mut k = build(SynthParams {
        seed,
        layers,
        width,
        scalar_fraction,
    });
    let mut g = k.graph.clone();
    k.rekey(&eit::ir::merge_pipeline_ops(&mut g).ids);
    (k, g)
}

fn opts(secs: u64) -> SchedulerOptions {
    SchedulerOptions {
        timeout: Some(Duration::from_secs(secs)),
        ..Default::default()
    }
}

/// Any synthetic kernel the generator emits schedules optimally and
/// survives the full simulator, with all expected outputs matching.
#[test]
fn synthetic_kernels_schedule_and_replay() {
    let mut cases = Cases::new("synthetic_kernels_schedule_and_replay");
    for case in 0..16 {
        let seed = cases.int(0..500) as u64;
        let layers = cases.int(1..4) as usize;
        let width = cases.int(2..6) as usize;
        let at = format!("case {case}: seed {seed} layers {layers} width {width}");
        let (k, g) = synth(seed, layers, width, 0.2);
        assert!(k.graph.validate().is_ok(), "{at}");
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &opts(30));
        assert_eq!(r.status, SearchStatus::Optimal, "{at}");
        let sched = r.schedule.unwrap();
        assert!(validate_structure(&g, &spec, &sched).is_empty(), "{at}");
        let report = simulate(&g, &spec, &sched, &k.inputs);
        assert!(report.ok(), "{at}: {:?}", report.violations);
        for (node, expect) in &k.expected {
            assert!(report.values[node].approx_eq(expect, 1e-6), "{at}");
        }
    }
}

/// The makespan is bounded below by the critical path and above by
/// the serial horizon.
#[test]
fn makespan_bounds() {
    let mut cases = Cases::new("makespan_bounds");
    for case in 0..16 {
        let seed = cases.int(0..500) as u64;
        let (_, g) = synth(seed, 3, 4, 0.1);
        let spec = ArchSpec::eit();
        let cp = g.critical_path(&spec.latency_of(&g));
        let r = schedule(&g, &spec, &opts(30));
        let m = r.makespan.unwrap();
        assert!(
            m >= cp,
            "case {case}: seed {seed}: makespan {m} < critical path {cp}"
        );
        assert!(
            m <= eit::core::model::serial_horizon(&g, &spec) + 7,
            "case {case}: seed {seed}"
        );
    }
}

/// Adding memory never shortens the schedule; removing the memory
/// model never lengthens it.
#[test]
fn memory_constraints_are_monotone() {
    let mut cases = Cases::new("memory_constraints_are_monotone");
    for case in 0..16 {
        let seed = cases.int(0..200) as u64;
        let (_, g) = synth(seed, 2, 4, 0.1);
        let spec = ArchSpec::eit();
        let with_mem = schedule(&g, &spec, &opts(30)).makespan.unwrap();
        let no_memory = SchedulerOptions {
            memory: false,
            ..opts(30)
        };
        let no_mem = schedule(&g, &spec, &no_memory).makespan.unwrap();
        assert!(no_mem <= with_mem, "case {case}: seed {seed}");
    }
}

/// Domain operations agree with a reference set model.
#[test]
fn domain_matches_btreeset() {
    let mut cases = Cases::new("domain_matches_btreeset");
    for case in 0..64 {
        let values = cases.set(0..40, -50..50);
        let below = cases.int(-60..60) as i32;
        let above = cases.int(-60..60) as i32;
        let removed = cases.vec(0..10, |c| c.int(-50..50) as i32);
        let at = format!(
            "case {case}: values {values:?} below {below} above {above} removed {removed:?}"
        );
        let mut d = Domain::from_values(values.iter().copied());
        let mut set = values;
        d.remove_below(below);
        set.retain(|&v| v >= below);
        d.remove_above(above);
        set.retain(|&v| v <= above);
        for v in removed {
            d.remove_value(v);
            set.remove(&v);
        }
        assert_eq!(d.size() as usize, set.len(), "{at}");
        for v in -60..60 {
            assert_eq!(d.contains(v), set.contains(&v), "{at}: v={v}");
        }
        if let (Some(&lo), Some(&hi)) = (set.first(), set.last()) {
            assert_eq!((d.min(), d.max()), (lo, hi), "{at}");
        }
    }
}

/// Intersection is the set intersection.
#[test]
fn domain_intersection_is_set_intersection() {
    let mut cases = Cases::new("domain_intersection_is_set_intersection");
    for case in 0..64 {
        let a = cases.set(0..30, -30..30);
        let b = cases.set(0..30, -30..30);
        let mut da = Domain::from_values(a.iter().copied());
        let db = Domain::from_values(b.iter().copied());
        da.intersect(&db);
        let expect: Vec<i32> = a.intersection(&b).copied().collect();
        let got: Vec<i32> = da.iter().collect();
        assert_eq!(got, expect, "case {case}: a {a:?} b {b:?}");
        assert_eq!(da.is_empty(), expect.is_empty(), "case {case}");
    }
}

/// The DSL's eager evaluation agrees with the canonical opcode
/// semantics for binary vector ops.
#[test]
fn dsl_matches_canonical_semantics() {
    use eit::ir::sem::{apply, Value};
    use eit::ir::{CoreOp, Opcode};
    let mut cases = Cases::new("dsl_matches_canonical_semantics");
    for case in 0..64 {
        let av = cases.vec(4..5, |c| c.float(-10.0..10.0));
        let bv = cases.vec(4..5, |c| c.float(-10.0..10.0));
        let which = cases.int(0..4);
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
        assert!(
            canon[0].approx_eq(&dsl_val, 1e-9),
            "case {case}: av {av:?} bv {bv:?} which {which}"
        );
    }
}

/// Deterministic regression companion to the properties: one fixed seed
/// exercised deeply (structure + metrics sanity).
#[test]
fn fixed_seed_full_pipeline() {
    let (k, g) = synth(2024, 4, 6, 0.25);
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts(60));
    let sched = r.schedule.expect("seeded kernel schedules");
    let report = simulate(&g, &spec, &sched, &k.inputs);
    assert!(report.ok(), "{:?}", report.violations);
    assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    assert!(report.lane_cycles >= g.count(eit::ir::Category::VectorOp) as u64);
}

/// Modulo scheduling on random kernels: the issue II respects the
/// resource lower bound and the unrolled schedule validates.
#[test]
fn modulo_schedules_validate_on_synthetic_kernels() {
    use eit::core::{ii_lower_bound, modulo_schedule, validate_modulo, ModuloOptions};
    let mut cases = Cases::new("modulo_schedules_validate_on_synthetic_kernels");
    for case in 0..10 {
        let seed = cases.int(0..100) as u64;
        let (_, g) = synth(seed, 2, 4, 0.2);
        let spec = ArchSpec::eit();
        let r = modulo_schedule(
            &g,
            &spec,
            &ModuloOptions {
                timeout_per_ii: Duration::from_secs(10),
                total_timeout: Duration::from_secs(30),
                ..Default::default()
            },
        );
        // Rare hard instances may time out; they are skipped, not failed.
        let Some(r) = r else { continue };
        let at = format!("case {case}: seed {seed}");
        assert!(r.ii_issue >= ii_lower_bound(&g, &spec), "{at}");
        assert!(r.actual_ii >= r.ii_issue, "{at}");
        let v = validate_modulo(&g, &spec, &r, 4);
        assert!(v.is_empty(), "{at}: {v:?}");
    }
}

/// Overlapped execution on random kernels: manual bundling issues every
/// op once, filling each unit to its replica count, and the transform
/// always produces a structurally valid multi-iteration schedule whose
/// reconfiguration count is bounded by the bundle count.
#[test]
fn overlap_validates_on_synthetic_kernels() {
    use eit::core::{manual_style_bundles, overlapped_execution};
    let mut cases = Cases::new("overlap_validates_on_synthetic_kernels");
    // The EIT, and the EIT with two accelerators and two index/merge
    // units, where a bundle can carry two ops of one unit.
    let mut replicated = ArchSpec::eit();
    replicated.units.units[1].count = 2;
    replicated.units.units[2].count = 2;
    for case in 0..10 {
        let seed = cases.int(0..100) as u64;
        let m = cases.int(2..10) as usize;
        let (_, g) = synth(seed, 2, 4, 0.2);
        for (arch, spec) in [("eit", ArchSpec::eit()), ("replicated", replicated.clone())] {
            let at = format!("case {case}: seed {seed} m {m} {arch}");
            let bundles = manual_style_bundles(&g, &spec);
            let total_ops: usize = bundles.iter().map(|b| b.ops.len()).sum();
            assert_eq!(
                total_ops,
                g.ids().filter(|&n| g.category(n).is_op()).count(),
                "{at}"
            );
            // Bundles fill units to capacity: an op left ready beside a
            // bundle has another configuration or finds its unit full.
            let mut bundled = vec![false; g.len()];
            for b in &bundles {
                let book = |n: NodeId| {
                    let class = OpClass::of(&g.node(n).kind).unwrap();
                    let u = spec.units.unit_index(class).unwrap();
                    (u, spec.units.class_width(class).unwrap())
                };
                let mut used = vec![0; spec.units.units.len()];
                for &op in &b.ops {
                    let (u, w) = book(op);
                    used[u] += w;
                }
                for n in g
                    .ids()
                    .filter(|&n| g.category(n).is_op() && !b.ops.contains(&n))
                {
                    let mut producers = g.preds(n).iter().filter_map(|&d| g.producer(d));
                    if bundled[n.idx()] || !producers.all(|p| bundled[p.idx()]) {
                        continue;
                    }
                    let cfg = g.opcode(n).unwrap().config();
                    let (u, w) = book(n);
                    assert!(
                        cfg.is_some() && cfg != b.vector_config
                            || used[u] + w > spec.units.units[u].count,
                        "{at}: {n:?} fits its bundle"
                    );
                }
                for &op in &b.ops {
                    bundled[op.idx()] = true;
                }
            }
            let ov = overlapped_execution(&g, &spec, &bundles, m);
            let v = eit::arch::validate_structure_with(&ov.graph, &spec, &ov.schedule, false);
            assert!(v.is_empty(), "{at}: {v:?}");
            assert!(ov.reconfig_switches < bundles.len().max(1) * 2, "{at}");
        }
    }
}
