//! Constraint-by-constraint tests of the scheduling model: each test
//! builds a minimal kernel where exactly one of the paper's constraints
//! (1)–(11) is binding, and checks the schedule respects it.

use eit::arch::{validate_structure, ArchSpec, Geometry};
use eit::core::{schedule, SchedulerOptions};
use eit::dsl::Ctx;
use eit::ir::Category;
use std::time::Duration;

fn opts() -> SchedulerOptions {
    SchedulerOptions {
        timeout: Some(Duration::from_secs(30)),
        ..Default::default()
    }
}

/// (1)/(4): a dependent chain is spaced by exactly the pipeline latency.
#[test]
fn precedence_spacing_is_pipeline_latency() {
    let ctx = Ctx::new("chain");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let x = a.v_add(&b);
    let y = x.v_add(&b); // same config — only latency separates them
    let _ = y;
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let ops: Vec<_> = g.ids().filter(|&n| g.category(n).is_op()).collect();
    let gap = (s.start_of(ops[1]) - s.start_of(ops[0])).abs();
    assert_eq!(gap, spec.pipeline_depth());
}

/// (2): five independent same-config ops need two issue cycles.
#[test]
fn lane_capacity_forces_second_issue_cycle() {
    let ctx = Ctx::new("five");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    for _ in 0..5 {
        let _ = a.v_add(&b);
    }
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    // 4 ops in one cycle + 1 in the next: makespan = latency + 1.
    assert_eq!(s.makespan, spec.pipeline_depth() + 1);
    assert!(validate_structure(&g, &spec, &s).is_empty());
}

/// (3): differently-configured independent ops cannot share a cycle even
/// with lanes to spare.
#[test]
fn config_uniqueness_serialises_mixed_ops() {
    let ctx = Ctx::new("mixed");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let _ = a.v_add(&b);
    let _ = a.v_mul(&b);
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let ops: Vec<_> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorOp)
        .collect();
    assert_ne!(s.start_of(ops[0]), s.start_of(ops[1]));
}

/// Matrix ops occupy all lanes: a matrix op and a vector op never share
/// a cycle.
#[test]
fn matrix_op_excludes_vector_coissue() {
    let ctx = Ctx::new("mx");
    let m = ctx.matrix([[1.0; 4]; 4]);
    let _ = m.m_squsum();
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let _ = a.v_add(&a.v_add(&a)); // some vector work
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let m_op = g
        .ids()
        .find(|&n| g.category(n) == Category::MatrixOp)
        .unwrap();
    for n in g.ids() {
        if g.category(n) == Category::VectorOp {
            assert_ne!(s.start_of(n), s.start_of(m_op));
        }
    }
}

/// (7): the two inputs of one op never land in the same page on
/// different lines.
#[test]
fn same_op_inputs_respect_page_line_rule() {
    let ctx = Ctx::new("pl");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let _ = a.v_add(&b);
    let g = ctx.finish();
    // Tiny memory: 4 banks, one page, 2 lines — the only legal layouts
    // put a and b on the same line or in different... same page always,
    // so same line is forced.
    let mut spec = ArchSpec::eit();
    spec.n_banks = 4;
    spec.page_size = 4;
    spec.slots_per_bank = 2;
    spec.slot_cap = None;
    // Shrink the crossbar with the geometry: validate() rejects port
    // budgets no 4-bank memory could serve.
    spec.max_vector_reads = 4;
    spec.max_vector_writes = 2;
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let geo = Geometry::of(&spec);
    let ins = g.inputs();
    let sa = s.slot_of(ins[0]).unwrap();
    let sb = s.slot_of(ins[1]).unwrap();
    assert_eq!(geo.page(sa), geo.page(sb)); // single page
    assert_eq!(geo.line(sa), geo.line(sb)); // so lines must match
    assert_ne!(geo.bank(sa), geo.bank(sb)); // and banks must differ
    assert!(validate_structure(&g, &spec, &s).is_empty());
}

/// (8): two same-config ops that co-issue have their four inputs spread
/// over distinct banks with one line per page.
#[test]
fn coissued_ops_have_compatible_inputs() {
    let ctx = Ctx::new("co");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let c = ctx.vector([0.0, 0.0, 1.0, 0.0]);
    let d = ctx.vector([0.0, 0.0, 0.0, 1.0]);
    let _ = a.v_add(&b);
    let _ = c.v_add(&d);
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let ops: Vec<_> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorOp)
        .collect();
    // Optimal schedule co-issues them (same config, enough lanes).
    assert_eq!(s.start_of(ops[0]), s.start_of(ops[1]));
    // The simulator re-checks the bank/page/line rules on the union of
    // their reads; zero violations proves (8) held.
    assert!(validate_structure(&g, &spec, &s).is_empty());
}

/// (10)/(11): with exactly enough slots, the allocator must reuse a dead
/// slot, and the reuse must not overlap lifetimes.
#[test]
fn slot_reuse_under_pressure() {
    let ctx = Ctx::new("reuse");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let x = a.v_add(&b); // consumes a, b
    let y = x.v_mul(&b); // consumes x, b
    let _ = y;
    let g = ctx.finish();
    // 4 vector data (a, b, x, y) in only 2 slots: a dies at the add's
    // issue, x reuses its slot at the pipeline boundary (read-before-
    // write makes the touching lifetimes hazard-free), and y reuses a
    // dead slot again.
    let spec = ArchSpec::eit().with_slots(2);
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.expect("2 slots suffice with reuse");
    assert!(s.slots_used(&g) <= 2);
    assert!(validate_structure(&g, &spec, &s).is_empty());
    // One slot cannot hold the two simultaneously-live inputs.
    let spec1 = ArchSpec::eit().with_slots(1);
    let r1 = schedule(&g, &spec1, &opts());
    assert!(r1.schedule.is_none());
}

/// (5): the objective is the latest completion, not the latest start.
#[test]
fn makespan_includes_trailing_latency() {
    let ctx = Ctx::new("tail");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let d = a.v_squsum(); // 7 cc
    let _ = d.sqrt(); // + 8 cc accelerator latency
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    assert_eq!(r.makespan, Some(7 + 8));
}

/// Accelerator occupancy: two independent iterative ops are separated by
/// the occupancy (2 cc), not the latency.
#[test]
fn accelerator_occupancy_spacing() {
    let ctx = Ctx::new("acc");
    let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
    let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
    let d1 = a.v_squsum();
    let d2 = b.v_squsum();
    let _ = d1.sqrt();
    let _ = d2.sqrt();
    let g = ctx.finish();
    let spec = ArchSpec::eit();
    let r = schedule(&g, &spec, &opts());
    let s = r.schedule.unwrap();
    let accs: Vec<_> = g
        .ids()
        .filter(|&n| g.category(n) == Category::ScalarOp)
        .collect();
    let gap = (s.start_of(accs[0]) - s.start_of(accs[1])).abs();
    assert!(gap >= spec.duration(&g.node(accs[0]).kind));
    // And the two squsums co-issue, so the accelerator spacing is the
    // only reason the sqrt starts differ.
    assert!(validate_structure(&g, &spec, &s).is_empty());
}
