//! Failure injection: randomly corrupt valid schedules and check the
//! validator/simulator catches the corruption — or, when a mutation
//! happens to produce another valid schedule, that the functional replay
//! still yields correct outputs. Either way, silent acceptance of a wrong
//! answer is impossible.

use eit::arch::{simulate, validate_structure, ArchSpec, Schedule};
use eit::core::{schedule, SchedulerOptions};
use eit::ir::Category;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn scheduled(name: &str) -> (eit::ir::Graph, ArchSpec, Schedule, eit::apps::Kernel) {
    let kernel = eit::apps::by_name(name).unwrap();
    let mut g = kernel.graph.clone();
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
    (g, spec, r.schedule.unwrap(), kernel)
}

/// Apply one random mutation; returns a human-readable tag.
fn mutate(rng: &mut StdRng, g: &eit::ir::Graph, spec: &ArchSpec, s: &mut Schedule) -> &'static str {
    loop {
        match rng.gen_range(0..4) {
            0 => {
                // Shift an op's start without moving its output datum.
                let ops: Vec<_> = g.ids().filter(|&n| g.category(n).is_op()).collect();
                let op = ops[rng.gen_range(0..ops.len())];
                let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
                let new = s.start[op.idx()] + delta;
                if new < 0 {
                    continue;
                }
                s.start[op.idx()] = new;
                return "op start shift";
            }
            1 => {
                // Move a vector datum into a random slot.
                let vd: Vec<_> = g
                    .ids()
                    .filter(|&n| g.category(n) == Category::VectorData)
                    .collect();
                let d = vd[rng.gen_range(0..vd.len())];
                let old = s.slot[d.idx()];
                let new = rng.gen_range(0..spec.n_slots());
                if old == Some(new) {
                    continue;
                }
                s.slot[d.idx()] = Some(new);
                return "slot move";
            }
            2 => {
                // Drop a slot assignment entirely.
                let vd: Vec<_> = g
                    .ids()
                    .filter(|&n| g.category(n) == Category::VectorData)
                    .collect();
                let d = vd[rng.gen_range(0..vd.len())];
                if s.slot[d.idx()].is_none() {
                    continue;
                }
                s.slot[d.idx()] = None;
                return "slot drop";
            }
            _ => {
                // Desynchronise a data node from its producer.
                let datas: Vec<_> = g
                    .ids()
                    .filter(|&n| g.category(n).is_data() && g.producer(n).is_some())
                    .collect();
                let d = datas[rng.gen_range(0..datas.len())];
                s.start[d.idx()] += 1;
                return "data start skew";
            }
        }
    }
}

#[test]
fn corrupted_schedules_never_pass_silently() {
    let (g, spec, base, kernel) = scheduled("matmul");
    assert!(validate_structure(&g, &spec, &base).is_empty());
    let mut rng = StdRng::seed_from_u64(1234);
    let mut caught = 0;
    let mut survived = 0;
    for _ in 0..200 {
        let mut s = base.clone();
        let _tag = mutate(&mut rng, &g, &spec, &mut s);
        s.compute_makespan(&g, &spec.latency_of(&g));
        let report = simulate(&g, &spec, &s, &kernel.inputs);
        if report.ok() {
            // The mutation produced another valid schedule — then the
            // outputs must still be exactly right.
            survived += 1;
            for (node, expect) in &kernel.expected {
                assert!(
                    report.values[node].approx_eq(expect, 1e-9),
                    "valid-looking mutant computed a wrong value"
                );
            }
        } else {
            caught += 1;
        }
    }
    // The vast majority of random corruptions must be caught.
    assert!(caught > 150, "caught {caught}, survived {survived}");
}

#[test]
fn specific_corruptions_produce_specific_violations() {
    use eit::arch::Violation;
    let (g, spec, base, _) = scheduled("matmul");

    // Data start skew → DataStart (and usually Precedence).
    let datas: Vec<_> = g
        .ids()
        .filter(|&n| g.category(n).is_data() && g.producer(n).is_some())
        .collect();
    let mut s = base.clone();
    s.start[datas[0].idx()] += 3;
    let v = validate_structure(&g, &spec, &s);
    assert!(
        v.iter().any(|x| matches!(x, Violation::DataStart { .. })),
        "{v:?}"
    );

    // Slot drop → MissingSlot.
    let vd: Vec<_> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorData)
        .collect();
    let mut s = base.clone();
    s.slot[vd[0].idx()] = None;
    let v = validate_structure(&g, &spec, &s);
    assert!(
        v.iter().any(|x| matches!(x, Violation::MissingSlot { .. })),
        "{v:?}"
    );

    // Out-of-range slot → SlotOutOfRange.
    let mut s = base.clone();
    s.slot[vd[0].idx()] = Some(spec.n_slots() + 7);
    let v = validate_structure(&g, &spec, &s);
    assert!(
        v.iter()
            .any(|x| matches!(x, Violation::SlotOutOfRange { .. })),
        "{v:?}"
    );
}
