//! Solver-independent schedule/allocation verification.
//!
//! The simulator ([`crate::sim`]) is the reproduction's first safety net,
//! but it shares helper code (geometry, access checks, lifetime
//! bookkeeping) with the rest of the stack. This module is the *second*,
//! adversarial net: it re-derives every timing rule directly from the
//! [`ArchSpec`] with its own arithmetic and its own algorithms — per-cycle
//! occupancy maps instead of sorted interval sweeps, inline `slot %
//! n_banks` geometry instead of [`crate::memory::Geometry`] — so a bug in
//! one implementation cannot silently excuse the same bug in the other.
//! The differential fuzzer (`eit-core::fuzz`) cross-checks the two on
//! every generated schedule.
//!
//! Rules enforced (straight-line, [`verify_schedule`]):
//!
//! 1. precedence `s_i + l_i ≤ s_j` and exact data availability
//!    `s_data = s_op + l_op` (paper constraints (1)/(4), 7-cc pipeline);
//! 2. lane capacity (each op takes its class width: a matrix op all four
//!    lanes, a vector op one on the EIT instance) and a single
//!    vector-core configuration per cycle ((2)/(3));
//! 3. unit-capacity scalar accelerator and index/merge unit, including
//!    multi-cycle occupancies;
//! 4. memory (§3.4): every vector datum in an in-range slot, exclusive
//!    slot lifetimes ((10)/(11)), ≤ `max_vector_reads` reads and
//!    ≤ `max_vector_writes` writes per cycle (two matrix reads + one
//!    matrix write on the EIT instance), one read and one write per bank
//!    per cycle, and one line per page per direction (fig. 8). As in the
//!    simulator, only vector-core accesses count against the ports; reads
//!    happen at issue, writes at write-back.
//!
//! For software-pipelined kernels, [`verify_modulo`] checks the same
//! resource rules folded modulo the initiation interval — the steady
//! state where every window cycle hosts work from several iterations at
//! once — plus intra-iteration precedence on the absolute starts.
//!
//! Both entry points *never panic*: malformed input (wrong-length
//! schedule vectors, cyclic graphs, missing start entries, a nonsensical
//! spec) degrades to [`Violation::MalformedSchedule`].

use crate::memory::AccessViolation;
use crate::schedule::Schedule;
use crate::sim::Violation;
use crate::spec::ArchSpec;
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;

/// Lanes an op occupies: its class width from the unit table (a matrix
/// op all four lanes on EIT, a vector op one unless the table widens it).
fn lanes_of(spec: &ArchSpec, g: &Graph, n: NodeId) -> u32 {
    let class = OpClass::of(&g.node(n).kind);
    class.and_then(|c| spec.units.class_width(c)).unwrap_or(1)
}

/// Per-cycle occupancy check for every capacity-limited unit beyond the
/// vector core, in table order, honouring replication (`count`) and
/// per-class widths. `fold` maps an absolute cycle into the window the
/// occupancy is accounted in (identity for straight-line schedules,
/// `t mod ii` for modulo ones).
fn check_units(
    g: &Graph,
    spec: &ArchSpec,
    start: &dyn Fn(NodeId) -> i32,
    duration: &dyn Fn(NodeId) -> i32,
    fold: &dyn Fn(i32) -> i32,
    out: &mut Vec<Violation>,
) {
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        if classes.contains(&OpClass::Vector) || classes.contains(&OpClass::Matrix) {
            continue; // the lane rule covers the vector core
        }
        let is_accel = classes
            .iter()
            .any(|c| matches!(c, OpClass::ScalarIterative | OpClass::ScalarSimple));
        let mut nodes: Vec<(NodeId, u32)> = g
            .ids()
            .filter_map(|n| {
                let c = OpClass::of(&g.node(n).kind)?;
                if !classes.contains(&c) {
                    return None;
                }
                Some((n, spec.units.class_width(c).unwrap_or(1)))
            })
            .collect();
        nodes.sort_by_key(|&(n, _)| (start(n), n.idx()));
        let mut busy: HashMap<i32, (u32, NodeId)> = HashMap::new();
        let mut reported: Vec<(NodeId, NodeId)> = Vec::new();
        for (n, w) in nodes {
            for dt in 0..duration(n).max(1) {
                let t = fold(start(n).saturating_add(dt));
                let e = busy.entry(t).or_insert((0, n));
                if e.0 + w > unit.count {
                    let prev = e.1;
                    if !reported.contains(&(prev, n)) {
                        reported.push((prev, n));
                        out.push(if is_accel {
                            Violation::AcceleratorOverlap { a: prev, b: n }
                        } else {
                            Violation::IndexMergeOverlap { a: prev, b: n }
                        });
                    }
                } else {
                    e.0 += w;
                }
            }
        }
    }
}

/// Starts are cycles of a real execution: non-negative. And (1)/(4), the
/// 7-cycle pipeline: a consumer may not start before its operand's
/// write-back, and a produced datum starts *exactly* at it.
fn check_timing(
    g: &Graph,
    spec: &ArchSpec,
    start: &dyn Fn(NodeId) -> i32,
    out: &mut Vec<Violation>,
) {
    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    for n in g.ids() {
        if start(n) < 0 {
            out.push(Violation::NegativeStart { node: n });
        }
    }
    for (f, t) in g.edges() {
        if start(f).saturating_add(latency(f)) > start(t) {
            out.push(Violation::Precedence { from: f, to: t });
        }
        if g.category(f).is_op()
            && g.category(t).is_data()
            && start(t) != start(f).saturating_add(latency(f))
        {
            out.push(Violation::DataStart { op: f, data: t });
        }
    }
}

/// (2)/(3) on the vector core: per cycle — `fold` maps an issue cycle
/// into the window it is accounted in, as in [`check_units`] — the ops
/// issued there fit the lanes and share one configuration. A core op
/// holds the core in its issue cycle only (the spec refuses any other
/// vector-core occupancy).
fn check_core(
    g: &Graph,
    spec: &ArchSpec,
    start: &dyn Fn(NodeId) -> i32,
    fold: &dyn Fn(i32) -> i32,
    out: &mut Vec<Violation>,
) {
    type CoreCycle = (u32, Vec<(NodeId, Option<VectorConfig>)>);
    let mut core_cycles: HashMap<i32, CoreCycle> = HashMap::new();
    for n in g.ids() {
        if matches!(g.category(n), Category::VectorOp | Category::MatrixOp) {
            let e = core_cycles.entry(fold(start(n))).or_default();
            e.0 += lanes_of(spec, g, n);
            e.1.push((n, g.opcode(n).and_then(|o| o.config())));
        }
    }
    let mut cycles: Vec<i32> = core_cycles.keys().copied().collect();
    cycles.sort_unstable();
    for cycle in cycles {
        let (used, ops) = &core_cycles[&cycle];
        if *used > spec.n_lanes {
            out.push(Violation::LaneOverflow { cycle, used: *used });
        }
        let mut cfg = None;
        let mut conflict = false;
        for (n, c) in ops {
            match c {
                None => out.push(Violation::MalformedSchedule {
                    detail: format!("node {n:?} on the vector core has no configuration"),
                }),
                Some(c) => {
                    conflict |= cfg.is_some_and(|prev: VectorConfig| prev != *c);
                    cfg = Some(*c);
                }
            }
        }
        if conflict {
            out.push(Violation::ConfigConflict { cycle });
        }
    }
}

/// Verify a straight-line schedule against every architectural rule,
/// re-derived from `spec`. `check_memory = false` skips §3.4 (the paper's
/// manual baseline and modulo schedules assume sufficient memory).
///
/// Returns all violations found; an empty vector means the schedule is
/// proven legal under the documented machine model. Never panics.
pub fn verify_schedule(
    g: &Graph,
    spec: &ArchSpec,
    sched: &Schedule,
    check_memory: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = spec.validate() {
        out.push(Violation::MalformedSchedule {
            detail: format!("invalid ArchSpec: {e}"),
        });
        return out;
    }
    if sched.start.len() != g.len() || sched.slot.len() != g.len() {
        out.push(Violation::MalformedSchedule {
            detail: format!(
                "schedule covers {} starts / {} slots for a {}-node graph",
                sched.start.len(),
                sched.slot.len(),
                g.len()
            ),
        });
        return out;
    }
    let start = |n: NodeId| sched.start[n.idx()];
    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);

    check_timing(g, spec, &start, &mut out);

    // A schedule claiming to finish before its own last write-back is
    // lying about the makespan.
    let completion = g
        .ids()
        .map(|n| start(n).saturating_add(latency(n)))
        .max()
        .unwrap_or(0);
    if sched.makespan < completion {
        out.push(Violation::MalformedSchedule {
            detail: format!(
                "declared makespan {} < latest completion {completion}",
                sched.makespan
            ),
        });
    }

    // (2)/(3): per-cycle lane budget and configuration uniqueness.
    check_core(g, spec, &start, &|t| t, &mut out);

    // Capacity-limited units beyond the vector core: per-cycle occupancy
    // maps (the simulator uses a sorted interval sweep — different
    // algorithm, same rule), driven by the spec's unit table.
    check_units(g, spec, &start, &duration, &|t| t, &mut out);

    if !check_memory {
        return out;
    }

    // §3.4 — memory. Geometry from first principles over the linear slot
    // enumeration: bank = slot mod n_banks, line = slot / n_banks,
    // page = bank / page_size.
    let n_slots = spec.n_slots();
    let bank = |slot: u32| slot % spec.n_banks;
    let line = |slot: u32| slot / spec.n_banks;
    let page = |slot: u32| bank(slot) / spec.page_size;

    let vdata: Vec<NodeId> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorData)
        .collect();
    for &d in &vdata {
        match sched.slot[d.idx()] {
            None => out.push(Violation::MissingSlot { data: d }),
            Some(s) if s >= n_slots => out.push(Violation::SlotOutOfRange { data: d, slot: s }),
            _ => {}
        }
    }

    // (10)/(11): a slot holds one live datum at a time. Lifetime re-derived
    // from the paper's (10): own start to latest consumer start (min one
    // cycle, long enough to be written).
    let life = |d: NodeId| {
        let s = start(d);
        let e = g
            .succs(d)
            .iter()
            .map(|&c| start(c))
            .max()
            .unwrap_or(s + 1)
            .max(s + 1);
        (s, e)
    };
    let mut by_slot: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for &d in &vdata {
        if let Some(s) = sched.slot[d.idx()] {
            by_slot.entry(s).or_default().push(d);
        }
    }
    let mut slots: Vec<u32> = by_slot.keys().copied().collect();
    slots.sort_unstable();
    for slot in slots {
        let ds = &by_slot[&slot];
        for (i, &a) in ds.iter().enumerate() {
            for &b in &ds[i + 1..] {
                let (a0, a1) = life(a);
                let (b0, b1) = life(b);
                if a0 < b1 && b0 < a1 {
                    out.push(Violation::SlotLifetimeOverlap { a, b, slot });
                }
            }
        }
    }

    // Port budgets, 1R/1W per bank, one line per page per direction — all
    // per cycle, reads at issue (broadcast-deduplicated) and writes at
    // write-back, vector-core accesses only.
    let mut reads_at: HashMap<i32, Vec<u32>> = HashMap::new();
    let mut writes_at: HashMap<i32, Vec<u32>> = HashMap::new();
    for n in g.ids() {
        if !matches!(g.category(n), Category::VectorOp | Category::MatrixOp) {
            continue;
        }
        for &d in g.preds(n) {
            if g.category(d) == Category::VectorData {
                if let Some(s) = sched.slot[d.idx()] {
                    reads_at.entry(start(n)).or_default().push(s);
                }
            }
        }
        let wb = start(n).saturating_add(latency(n));
        for &d in g.succs(n) {
            if g.category(d) == Category::VectorData {
                if let Some(s) = sched.slot[d.idx()] {
                    writes_at.entry(wb).or_default().push(s);
                }
            }
        }
    }
    let mut cycles: Vec<i32> = reads_at.keys().chain(writes_at.keys()).copied().collect();
    cycles.sort_unstable();
    cycles.dedup();
    for t in cycles {
        let mut push = |d| {
            out.push(Violation::Memory {
                cycle: t,
                detail: d,
            })
        };
        let mut reads = reads_at.remove(&t).unwrap_or_default();
        reads.sort_unstable();
        reads.dedup(); // same slot twice in one cycle = one broadcast read
        let writes = writes_at.remove(&t).unwrap_or_default();
        if reads.len() > spec.max_vector_reads as usize {
            push(AccessViolation::TooManyReads {
                count: reads.len(),
                max: spec.max_vector_reads,
            });
        }
        if writes.len() > spec.max_vector_writes as usize {
            push(AccessViolation::TooManyWrites {
                count: writes.len(),
                max: spec.max_vector_writes,
            });
        }
        for (slots, write) in [(&reads, false), (&writes, true)] {
            let mut by_bank: HashMap<u32, Vec<u32>> = HashMap::new();
            let mut by_page: HashMap<u32, Vec<u32>> = HashMap::new();
            for s in slots.iter().copied() {
                by_bank.entry(bank(s)).or_default().push(s);
                by_page.entry(page(s)).or_default().push(line(s));
            }
            let mut banks: Vec<u32> = by_bank.keys().copied().collect();
            banks.sort_unstable();
            for b in banks {
                let ss = by_bank.remove(&b).unwrap_or_default();
                if ss.len() > 1 {
                    push(if write {
                        AccessViolation::BankWriteConflict { bank: b, slots: ss }
                    } else {
                        AccessViolation::BankReadConflict { bank: b, slots: ss }
                    });
                }
            }
            let mut pages: Vec<u32> = by_page.keys().copied().collect();
            pages.sort_unstable();
            for p in pages {
                let mut lines = by_page.remove(&p).unwrap_or_default();
                lines.sort_unstable();
                lines.dedup();
                if lines.len() > 1 {
                    push(AccessViolation::PageLineConflict { page: p, lines });
                }
            }
        }
    }

    out
}

/// Verify an overlapped-execution schedule (§4.3, Table 2): the
/// replicated `M`-iteration graph with the bundle-interleaved schedule
/// produced by `overlapped_execution`.
///
/// Overlapped execution assumes sufficient memory (as the paper's manual
/// baseline does), so the §3.4 memory rules are skipped; everything else
/// from [`verify_schedule`] applies — precedence and exact data starts
/// across the *replicated* graph, per-cycle lane budget, one vector-core
/// configuration per cycle, and unit occupancies. On top of those, the
/// defining rule of the technique is enforced: the core reconfigures
/// only **between** issue cycles, and every switch costs
/// `spec.reconfig_cost` idle cycles — two consecutive core-issue cycles
/// with different configurations closer than `reconfig_cost + 1` apart
/// are a [`Violation::ReconfigStall`]. Never panics.
pub fn verify_overlapped(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> Vec<Violation> {
    let mut out = verify_schedule(g, spec, sched, false);
    if out
        .iter()
        .any(|v| matches!(v, Violation::MalformedSchedule { .. }))
    {
        return out;
    }
    // Issue cycles of the vector core, with the configuration each one
    // carries (uniqueness per cycle is already checked above; on a
    // conflicting cycle any one of its configs serves for the gap rule).
    let mut cfg_at: HashMap<i32, VectorConfig> = HashMap::new();
    for n in g.ids() {
        if matches!(g.category(n), Category::VectorOp | Category::MatrixOp) {
            if let Some(c) = g.opcode(n).and_then(|o| o.config()) {
                cfg_at.insert(sched.start[n.idx()], c);
            }
        }
    }
    let mut cycles: Vec<i32> = cfg_at.keys().copied().collect();
    cycles.sort_unstable();
    for w in cycles.windows(2) {
        let (prev, cur) = (w[0], w[1]);
        if cfg_at[&prev] != cfg_at[&cur] {
            let gap = cur - prev;
            let need = spec.reconfig_cost + 1;
            if gap < need {
                out.push(Violation::ReconfigStall {
                    prev_cycle: prev,
                    cycle: cur,
                    gap,
                    need,
                });
            }
        }
    }
    out
}

/// Verify a modulo (software-pipelined) schedule: the same resource rules
/// folded modulo the initiation interval `ii`, so the steady state —
/// where cycle `c` hosts work from every iteration with the same
/// `s mod ii` — respects the machine over *all* kernel iterations, plus
/// intra-iteration precedence on the absolute starts. Memory ports are
/// not checked (the paper's modulo model assumes sufficient memory; the
/// allocator's output is verified separately as a straight-line
/// schedule). Never panics.
pub fn verify_modulo(
    g: &Graph,
    spec: &ArchSpec,
    starts: &HashMap<NodeId, i32>,
    ii: i32,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if let Err(e) = spec.validate() {
        out.push(Violation::MalformedSchedule {
            detail: format!("invalid ArchSpec: {e}"),
        });
        return out;
    }
    if ii < 1 {
        out.push(Violation::MalformedSchedule {
            detail: format!("initiation interval {ii} < 1"),
        });
        return out;
    }
    for n in g.ids() {
        if !starts.contains_key(&n) {
            out.push(Violation::MalformedSchedule {
                detail: format!("node {n:?} has no start in the modulo schedule"),
            });
        }
    }
    if !out.is_empty() {
        return out;
    }
    let start = |n: NodeId| starts[&n];
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);

    // Intra-iteration timing (the kernels are feedback-free DAGs, so
    // there are no loop-carried edges to offset by II).
    check_timing(g, spec, &start, &mut out);

    // Steady-state lane budget and config uniqueness per window cycle
    // t = s mod ii: iterations k and k+1 co-issue whatever folds together.
    check_core(g, spec, &start, &|t| t.rem_euclid(ii), &mut out);

    // Capacity-limited units with wraparound: an occupancy longer than II
    // collides with the next iteration's own instance of the same op.
    check_units(g, spec, &start, &duration, &|t| t.rem_euclid(ii), &mut out);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{CoreOp, DataKind, Opcode};

    fn tiny() -> (Graph, Schedule) {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o, out) = g.add_op_with_output(
            Opcode::vector(CoreOp::Add),
            &[a, b],
            DataKind::Vector,
            "add",
        );
        let mut s = Schedule::new(g.len());
        s.start[o.idx()] = 0;
        s.start[out.idx()] = 7;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.slot[out.idx()] = Some(2);
        s.makespan = 7;
        (g, s)
    }

    #[test]
    fn legal_schedule_verifies_clean() {
        let (g, s) = tiny();
        let v = verify_schedule(&g, &ArchSpec::eit(), &s, true);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn understated_makespan_flagged() {
        let (g, mut s) = tiny();
        s.makespan = 3;
        let v = verify_schedule(&g, &ArchSpec::eit(), &s, true);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MalformedSchedule { .. })));
    }

    #[test]
    fn short_vectors_degrade_to_diagnostic() {
        let (g, _) = tiny();
        let s = Schedule::new(1);
        let v = verify_schedule(&g, &ArchSpec::eit(), &s, true);
        assert!(
            matches!(v.as_slice(), [Violation::MalformedSchedule { .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn bank_conflict_found_independently() {
        let (g, mut s) = tiny();
        let ins = g.inputs();
        s.slot[ins[0].idx()] = Some(0);
        s.slot[ins[1].idx()] = Some(16); // same bank, different line
        let v = verify_schedule(&g, &ArchSpec::eit(), &s, true);
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::Memory {
                detail: AccessViolation::BankReadConflict { .. },
                ..
            }
        )));
        // Same page, different lines: also the fig. 8 page rule.
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::Memory {
                detail: AccessViolation::PageLineConflict { .. },
                ..
            }
        )));
    }

    #[test]
    fn modulo_wraparound_catches_folded_lane_overflow() {
        // Five single-lane ops spread over 5 cycles: fine at II=5 (one op
        // per window cycle folds to ≤4 lanes... actually 1 each), but at
        // II=1 all five fold onto window cycle 0 → 5 > 4 lanes.
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let mut starts = HashMap::new();
        starts.insert(a, 0);
        for i in 0..5 {
            let (o, d) = g.add_op_with_output(
                Opcode::vector(CoreOp::Add),
                &[a, a],
                DataKind::Vector,
                &format!("o{i}"),
            );
            starts.insert(o, 7 * (i + 1));
            starts.insert(d, 7 * (i + 1) + 7);
        }
        let spec = ArchSpec::eit();
        assert!(verify_modulo(&g, &spec, &starts, 5)
            .iter()
            .all(|v| !matches!(v, Violation::LaneOverflow { .. })));
        assert!(verify_modulo(&g, &spec, &starts, 1)
            .iter()
            .any(|v| matches!(v, Violation::LaneOverflow { used: 5, .. })));
    }

    /// Two dependent vector ops of different configurations (add → mul),
    /// with data starts pinned to the pipeline write-back. `gap` is the
    /// extra space between the first op's write-back and the second op's
    /// issue.
    fn two_config_chain(spec: &ArchSpec, gap: i32) -> (Graph, Schedule) {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, d1) = g.add_op_with_output(
            Opcode::vector(CoreOp::Add),
            &[a, b],
            DataKind::Vector,
            "add",
        );
        let (o2, d2) = g.add_op_with_output(
            Opcode::vector(CoreOp::Mul),
            &[d1, b],
            DataKind::Vector,
            "mul",
        );
        let l = spec.latency(&g.node(o1).kind);
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[d1.idx()] = l;
        s.start[o2.idx()] = l + gap;
        s.start[d2.idx()] = 2 * l + gap;
        s.makespan = 2 * l + gap;
        (g, s)
    }

    #[test]
    fn overlapped_schedule_with_stalls_verifies_clean() {
        let spec = ArchSpec::eit();
        // The pipeline latency (7) already exceeds reconfig_cost (1), so
        // a dependence-legal schedule has the stall built in.
        let (g, s) = two_config_chain(&spec, spec.reconfig_cost);
        let v = verify_overlapped(&g, &spec, &s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_reconfig_stall_is_flagged() {
        // Force the two configurations onto adjacent cycles on a machine
        // whose reconfiguration costs more than one idle cycle.
        let mut spec = ArchSpec::eit();
        spec.reconfig_cost = 10;
        let (g, s) = two_config_chain(&spec, 0);
        let v = verify_overlapped(&g, &spec, &s);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::ReconfigStall {
                    gap: 7,
                    need: 11,
                    ..
                }
            )),
            "{v:?}"
        );
        // With the stall restored the same machine accepts it.
        let (g, s) = two_config_chain(&spec, spec.reconfig_cost);
        let v = verify_overlapped(&g, &spec, &s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn overlapped_inherits_straight_line_rules() {
        let spec = ArchSpec::eit();
        let (g, mut s) = two_config_chain(&spec, spec.reconfig_cost);
        // Break precedence: consumer op before its operand's write-back.
        let ops: Vec<_> = g.ids().filter(|&n| g.category(n).is_op()).collect();
        s.start[ops[1].idx()] = 1;
        let v = verify_overlapped(&g, &spec, &s);
        assert!(v.iter().any(|x| matches!(x, Violation::Precedence { .. })));
    }

    #[test]
    fn modulo_bad_ii_and_missing_starts_are_diagnostics() {
        let (g, _) = tiny();
        let v = verify_modulo(&g, &ArchSpec::eit(), &HashMap::new(), 0);
        assert!(
            matches!(v.as_slice(), [Violation::MalformedSchedule { .. }]),
            "{v:?}"
        );
        let v = verify_modulo(&g, &ArchSpec::eit(), &HashMap::new(), 4);
        assert!(!v.is_empty());
        assert!(v
            .iter()
            .all(|x| matches!(x, Violation::MalformedSchedule { .. })));
    }

    #[test]
    fn vector_ops_are_charged_their_class_width() {
        let (spec, g, s) = crate::sim::tests::two_lane_adds();
        let overflow = Violation::LaneOverflow { cycle: 0, used: 6 };
        assert!(verify_schedule(&g, &spec, &s, true).contains(&overflow));
        assert!(verify_overlapped(&g, &spec, &s).contains(&overflow));
        let starts = g.ids().map(|n| (n, s.start_of(n))).collect();
        assert!(verify_modulo(&g, &spec, &starts, 8).contains(&overflow));
    }
}
