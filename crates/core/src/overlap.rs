//! Overlapped execution — the architects' ad-hoc two-phase pipelining
//! technique (§4.3, Table 2).
//!
//! Phase 1 orders the operations of a *single* iteration into a sequence
//! of instruction bundles. A bundle is one issue cycle of the
//! configuration stream, an [`eit_arch::Cycle`]: same-configuration
//! vector ops up to the lane count (or one matrix op), alongside as many
//! ops of every other unit as the unit's replicas hold. Phase 2 executes
//! the same bundle of `M` consecutive iterations back to back: all `k`-th
//! bundles of iterations `0..M`, then all `(k+1)`-th bundles, and so on.
//! With `M` larger than the pipeline depth the latency between dependent
//! bundles of one iteration is fully masked, and the vector core only
//! reconfigures at bundle boundaries, so the number of reconfigurations
//! is bounded by the number of bundles.
//!
//! Two bundle sources reproduce Table 2's two rows:
//! - [`bundles_from_schedule`] — the *automated* path: bundles read off a
//!   CP schedule (with memory allocation);
//! - [`manual_style_bundles`] — the *manual* path: a greedy
//!   instruction-count-minimising ordering, the way the architects write
//!   machine code by hand ("the objective of minimizing the number of
//!   effective instructions", no memory allocation).

use crate::replicate::replicate;
use eit_arch::{ArchSpec, ConfigStream, Cycle, Schedule};
use eit_ir::{Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;

/// Read bundles off an existing single-iteration schedule: the issuing
/// cycles of its configuration stream, in issue order.
pub fn bundles_from_schedule(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> Vec<Cycle> {
    let cs = ConfigStream::from_schedule(g, spec, sched);
    cs.cycles
        .into_iter()
        .filter(|c| !c.ops.is_empty())
        .collect()
}

/// Greedy instruction-count-minimising bundling, mimicking hand-written
/// machine code: at each step issue the ready configuration with the most
/// ready vector ops, and piggy-back the other ready ops, each unit filled
/// up to its replica count.
pub fn manual_style_bundles(g: &Graph, spec: &ArchSpec) -> Vec<Cycle> {
    let mut remaining_preds: Vec<usize> = g
        .ids()
        .map(|n| {
            g.preds(n)
                .iter()
                .filter(|&&p| g.category(p).is_data() && g.producer(p).is_some())
                .count()
        })
        .collect();
    let is_op = |n: NodeId| g.category(n).is_op();
    let config = |n: NodeId| g.opcode(n).and_then(|o| o.config());
    let mut scheduled = vec![false; g.len()];
    let mut free = Vec::new();
    let mut bundles = Vec::new();
    let n_ops = g.ids().filter(|&n| is_op(n)).count();
    let mut done = 0;

    while done < n_ops {
        // Ready ops: all producing ops of their operands already bundled.
        let ready: Vec<NodeId> = g
            .ids()
            .filter(|&n| is_op(n) && !scheduled[n.idx()] && remaining_preds[n.idx()] == 0)
            .collect();
        debug_assert!(!ready.is_empty(), "DAG must always have ready ops");

        // Group ready vector ops by configuration; pick the biggest group.
        let mut groups: HashMap<VectorConfig, Vec<NodeId>> = HashMap::new();
        for &n in &ready {
            if let Some(cfg) = config(n) {
                groups.entry(cfg).or_default().push(n);
            }
        }
        let group = groups
            .into_iter()
            .max_by_key(|(_, v)| (v.len(), std::cmp::Reverse(v[0].idx())));
        let mut bundle = Cycle::default();
        // That group, then the ready ops of the other units, each taken
        // while its unit has replicas left for the op's class width.
        free.clear();
        free.extend(spec.units.units.iter().map(|u| u.count));
        let others = ready.iter().copied().filter(|&n| config(n).is_none());
        for op in group.into_iter().flat_map(|(_, ops)| ops).chain(others) {
            let class = OpClass::of(&g.node(op).kind).expect("a ready node is an op");
            let (Some(u), Some(w)) = (spec.units.unit_index(class), spec.units.class_width(class))
            else {
                continue;
            };
            if free[u] >= w {
                free[u] -= w;
                bundle.issue(g, spec, op);
            }
        }
        assert!(!bundle.ops.is_empty(), "no ready op fits its unit");

        // Commit the bundle and release successors.
        for &op in &bundle.ops {
            scheduled[op.idx()] = true;
            done += 1;
            for &d in g.succs(op) {
                for &consumer in g.succs(d) {
                    remaining_preds[consumer.idx()] -= 1;
                }
            }
        }
        bundles.push(bundle);
    }
    bundles
}

/// Result of the overlap transform.
#[derive(Debug)]
pub struct OverlapResult {
    /// The M-iteration graph the schedule refers to.
    pub graph: Graph,
    pub schedule: Schedule,
    pub iterations: usize,
    pub makespan: i32,
    /// Reconfigurations (configuration switches between issuing cycles).
    pub reconfig_switches: usize,
    /// Switches + the initial configuration load.
    pub config_loads: usize,
    /// Iterations per clock cycle.
    pub throughput: f64,
    /// Number of single-iteration instruction bundles.
    pub n_bundles: usize,
}

/// Execute `m` iterations with the overlapped-execution discipline:
/// bundle `k` of iterations `0..m` back to back, then bundle `k+1`, with
/// a `reconfig_cost` stall at configuration switches and dependency
/// stretching when the interleave alone does not mask a latency.
pub fn overlapped_execution(
    g: &Graph,
    spec: &ArchSpec,
    bundles: &[Cycle],
    m: usize,
) -> OverlapResult {
    assert!(m >= 1);
    let (big, map) = replicate(g, m);

    let mut sched = Schedule::new(big.len());
    // ready[node] = earliest cycle the replicated node's output exists.
    let mut start = vec![0i32; big.len()];
    let mut cursor: i32 = 0;
    let mut prev_cfg: Option<VectorConfig> = None;

    for b in bundles {
        // Reconfiguration stall at a configuration switch.
        if let Some(cfg) = b.vector_config {
            if prev_cfg.is_some() && prev_cfg != Some(cfg) {
                cursor += spec.reconfig_cost;
            }
            prev_cfg = Some(cfg);
        }
        // Multi-cycle units (the iterative accelerator ops) force a wider
        // issue stride so consecutive iterations do not overlap them.
        let stride = b
            .ops
            .iter()
            .map(|&op| spec.duration(&g.node(op).kind))
            .max()
            .unwrap_or(1)
            .max(1);
        for ids in map.iter().take(m) {
            // Earliest legal issue for this iteration's copy of the bundle.
            let mut earliest = cursor;
            for &op in &b.ops {
                let cop = ids[op.idx()];
                for &d in big.preds(cop) {
                    if let Some(p) = big.producer(d) {
                        let ready = start[p.idx()] + spec.latency(&big.node(p).kind);
                        earliest = earliest.max(ready);
                    }
                }
            }
            for &op in &b.ops {
                let cop = ids[op.idx()];
                start[cop.idx()] = earliest;
                for &d in big.succs(cop) {
                    start[d.idx()] = earliest + spec.latency(&big.node(cop).kind);
                }
            }
            cursor = earliest + stride;
        }
    }

    sched.start = start;
    sched.compute_makespan(&big, &spec.latency_of(&big));
    let cs = ConfigStream::from_schedule(&big, spec, &sched);
    let makespan = sched.makespan;
    OverlapResult {
        reconfig_switches: cs.reconfig_switches(),
        config_loads: cs.config_loads(),
        throughput: m as f64 / makespan.max(1) as f64,
        makespan,
        n_bundles: bundles.len(),
        iterations: m,
        graph: big,
        schedule: sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{schedule, SchedulerOptions};
    use eit_arch::sim::validate_structure_with;
    use eit_dsl::Ctx;

    /// A chain of two dependent vector ops of different types.
    fn chain_graph() -> Graph {
        let ctx = Ctx::new("chain");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([0.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _ = x.v_mul(&b);
        ctx.finish()
    }

    #[test]
    fn manual_bundles_cover_all_ops_once() {
        let g = chain_graph();
        let bundles = manual_style_bundles(&g, &ArchSpec::eit());
        let total: usize = bundles.iter().map(|b| b.ops.len()).sum();
        assert_eq!(total, 2);
        assert_eq!(bundles.len(), 2); // dependent ops cannot share a bundle
    }

    #[test]
    fn overlap_masks_pipeline_latency() {
        let g = chain_graph();
        let spec = ArchSpec::eit();
        let bundles = manual_style_bundles(&g, &spec);
        // Single iteration: 2 dependent pipeline trips ≈ 15 cc.
        let single = overlapped_execution(&g, &spec, &bundles, 1);
        assert!(single.makespan >= 14);
        // 12 overlapped iterations: issue dominates, latency masked.
        let many = overlapped_execution(&g, &spec, &bundles, 12);
        assert!(many.throughput > 4.0 * single.throughput);
        // Validity (no memory in overlap experiments, as in the paper).
        let v = validate_structure_with(&many.graph, &spec, &many.schedule, false);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn reconfigurations_bounded_by_bundles() {
        let g = chain_graph();
        let spec = ArchSpec::eit();
        let bundles = manual_style_bundles(&g, &spec);
        let r = overlapped_execution(&g, &spec, &bundles, 12);
        // One switch between the two bundle types (add → mul), no matter
        // how many iterations.
        assert_eq!(r.reconfig_switches, 1);
        assert_eq!(r.config_loads, 2);
    }

    #[test]
    fn automated_bundles_round_trip_through_cp_schedule() {
        let g = chain_graph();
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        let s = r.schedule.unwrap();
        let bundles = bundles_from_schedule(&g, &spec, &s);
        assert_eq!(bundles.len(), 2);
        let o = overlapped_execution(&g, &spec, &bundles, 8);
        let v = validate_structure_with(&o.graph, &spec, &o.schedule, false);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn overlapped_execution_passes_the_independent_verifier() {
        // Both bundle sources, several interleave depths, checked by the
        // adversarial eit-arch verifier (including the reconfig-stall
        // rule) — the same gate `eitc --overlap --verify` runs.
        let g = chain_graph();
        let spec = ArchSpec::eit();
        let manual = manual_style_bundles(&g, &spec);
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        let auto = bundles_from_schedule(&g, &spec, &r.schedule.unwrap());
        for bundles in [&manual, &auto] {
            for m in [1, 4, 12] {
                let o = overlapped_execution(&g, &spec, bundles, m);
                let v = eit_arch::verify_overlapped(&o.graph, &spec, &o.schedule);
                assert!(v.is_empty(), "m={m}: {v:?}");
            }
        }
    }

    #[test]
    fn output_burstiness_all_outputs_in_tail() {
        // The paper's noted drawback: all output lands at the end.
        let g = chain_graph();
        let spec = ArchSpec::eit();
        let bundles = manual_style_bundles(&g, &spec);
        let m = 8;
        let r = overlapped_execution(&g, &spec, &bundles, m);
        let outs = r.graph.outputs();
        let last_issue_window = r.makespan - 7 - m as i32;
        let late = outs
            .iter()
            .filter(|&&o| r.schedule.start_of(o) > last_issue_window)
            .count();
        assert_eq!(late, outs.len(), "outputs cluster in the schedule tail");
    }
}
