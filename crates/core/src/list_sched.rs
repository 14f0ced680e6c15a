//! Heuristic baseline: critical-path list scheduling.
//!
//! The classic alternative to the paper's CP approach — what a
//! conventional compiler backend would do. Operations are ranked by
//! *slack* (critical-path priority) and placed greedily at the earliest
//! cycle where their unit and the vector core's configuration allow. No
//! backtracking and no memory allocation, so the result is feasible but
//! not optimal — the gap to the CP schedule is the value the paper's
//! method adds (`--bin scaling` and EXPERIMENTS.md).

use eit_arch::{ArchSpec, Schedule};
use eit_ir::{Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;

/// Result of [`list_schedule`].
#[derive(Debug)]
pub struct ListScheduleResult {
    pub schedule: Schedule,
    /// Ops placed later than their earliest start because of resources.
    pub delayed_ops: usize,
}

/// Schedule `g` heuristically, without memory slots. Returns `None` on a
/// cyclic graph, or when an op finds no free cycle within 100,000 of its
/// earliest start.
pub fn list_schedule(g: &Graph, spec: &ArchSpec) -> Option<ListScheduleResult> {
    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);

    // Priority: longest path to a sink (standard CP ranking).
    let order = g.topo_order()?;
    let mut rank: Vec<i32> = vec![0; g.len()];
    for &u in order.iter().rev() {
        let tail = g.succs(u).iter().map(|&v| rank[v.idx()]).max().unwrap_or(0);
        rank[u.idx()] = tail + latency(u);
    }

    let mut sched = Schedule::new(g.len());
    // Replicas in use per (unit-table index, cycle), and the vector
    // core's configuration per cycle.
    let mut load: HashMap<(usize, i32), u32> = HashMap::new();
    let mut config_at: HashMap<i32, VectorConfig> = HashMap::new();
    let mut delayed = 0usize;

    // Application inputs start at 0; a produced datum is placed with
    // its producer.
    let mut placed: Vec<bool> = g
        .ids()
        .map(|n| g.category(n).is_data() && g.producer(n).is_none())
        .collect();

    // Ops in priority order, respecting topology.
    let mut ops: Vec<NodeId> = g.ids().filter(|&n| g.category(n).is_op()).collect();
    ops.sort_by_key(|&n| std::cmp::Reverse(rank[n.idx()]));

    // Repeated sweeps until every op is placed (dependencies may force
    // multiple passes over the priority list).
    let mut remaining = ops.len();
    while remaining > 0 {
        let mut progressed = false;
        for &op in &ops {
            if placed[op.idx()] || !g.preds(op).iter().all(|&d| placed[d.idx()]) {
                continue;
            }
            // Earliest start by data readiness.
            let est = g
                .preds(op)
                .iter()
                .map(|&d| sched.start_of(d))
                .max()
                .unwrap_or(0);
            let dur = duration(op);
            // The unit the table assigns to the op's class, the replicas
            // one op takes, and the unit's replica count.
            let unit = OpClass::of(&g.node(op).kind).and_then(|c| {
                let u = spec.units.unit_index(c)?;
                Some((u, spec.units.class_width(c)?, spec.units.units[u].count))
            });
            // Only vector-core ops carry a configuration.
            let cfg = g.opcode(op).and_then(|o| o.config());

            // The first cycle where the unit has `width` replicas free
            // over the op's occupancy and the vector core is not
            // configured differently in the issue cycle.
            let fits = |t: i32| {
                unit.is_none_or(|(u, width, count)| {
                    (t..t + dur).all(|c| load.get(&(u, c)).unwrap_or(&0) + width <= count)
                }) && cfg.is_none_or(|c| config_at.get(&t).is_none_or(|&held| held == c))
            };
            let t = (est..=est + 100_000).find(|&t| fits(t))?;

            sched.start[op.idx()] = t;
            if t > est {
                delayed += 1;
            }
            if let Some((u, width, _)) = unit {
                for c in t..t + dur {
                    *load.entry((u, c)).or_default() += width;
                }
            }
            if let Some(c) = cfg {
                config_at.insert(t, c);
            }
            for &d in g.succs(op) {
                sched.start[d.idx()] = t + latency(op);
                placed[d.idx()] = true;
            }
            placed[op.idx()] = true;
            remaining -= 1;
            progressed = true;
        }
        if !progressed {
            return None;
        }
    }

    sched.compute_makespan(g, &spec.latency_of(g));
    Some(ListScheduleResult {
        schedule: sched,
        delayed_ops: delayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{schedule, SchedulerOptions};
    use eit_arch::{validate_structure_with, verify_schedule};
    use eit_dsl::Ctx;
    use eit_ir::Category;
    use std::time::Duration;

    fn kernel() -> Graph {
        let ctx = Ctx::new("k");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let x = a.v_add(&b);
        let y = x.v_mul(&b);
        let d = y.v_dotp(&a);
        let _ = d.rsqrt();
        ctx.finish()
    }

    #[test]
    fn heuristic_schedule_is_structurally_valid() {
        let g = kernel();
        let spec = ArchSpec::eit();
        let r = list_schedule(&g, &spec).unwrap();
        // The heuristic assigns no slots, so only the resource and
        // precedence structure is asserted here.
        let v = validate_structure_with(&g, &spec, &r.schedule, false);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn heuristic_never_beats_cp_optimum() {
        let g = kernel();
        let spec = ArchSpec::eit();
        let heur = list_schedule(&g, &spec).unwrap();
        let opt = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                memory: false,
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        assert!(heur.schedule.makespan >= opt.makespan.unwrap());
    }

    #[test]
    fn heuristic_handles_all_kernels() {
        for name in ["qrd", "arf", "matmul", "fir", "detector"] {
            let k = eit_apps_build(name);
            let spec = ArchSpec::eit();
            let r = list_schedule(&k, &spec).unwrap();
            let v = validate_structure_with(&k, &spec, &r.schedule, false);
            assert!(v.is_empty(), "{name}: {v:?}");
        }
    }

    /// FNV-1a 64 over every node's start (i32) and slot (u32, `u32::MAX`
    /// for none), little-endian, of the six kernels on both presets.
    #[test]
    fn starts_and_slots_are_pinned() {
        for (arch, name, want) in [
            ("eit", "qrd", 0x658d_8750_36b4_1b91),
            ("eit", "arf", 0x3447_63a9_53a6_9d83),
            ("eit", "matmul", 0x00f4_e511_af8a_e319),
            ("eit", "fir", 0xfd92_8fbb_51dc_511d),
            ("eit", "detector", 0x7127_b2e8_9d5e_ea34),
            ("eit", "blockmm", 0x0a5d_1db9_73b0_597d),
            ("wide", "qrd", 0x9cbf_30a1_3b6f_a651),
            ("wide", "arf", 0x40be_dbf2_ddf0_b8f7),
            ("wide", "matmul", 0x78cb_7d77_321e_f039),
            ("wide", "fir", 0xfd92_8fbb_51dc_511d),
            ("wide", "detector", 0x3d54_9bc8_dfdb_45dc),
            ("wide", "blockmm", 0x0a5d_1db9_73b0_597d),
        ] {
            let spec = ArchSpec::preset(arch).unwrap();
            let mut g = eit_apps::by_name(name).unwrap().graph;
            eit_ir::merge_pipeline_ops(&mut g);
            let r = list_schedule(&g, &spec).unwrap();
            let mut h = eit_cp::Fnv64::new();
            for n in g.ids() {
                h.write(&r.schedule.start_of(n).to_le_bytes());
                h.write(&r.schedule.slot_of(n).unwrap_or(u32::MAX).to_le_bytes());
            }
            assert_eq!(h.finish(), want, "{arch}/{name}");
        }
    }

    /// Four independent `rsqrt`s become ready in the same cycle. One
    /// accelerator serialises them; two replicas run them in pairs.
    #[test]
    fn replicated_accelerator_overlaps_scalar_ops() {
        let ctx = Ctx::new("k");
        for i in 0..4 {
            let v = ctx.vector([1.0 + i as f64, 2.0, 3.0, 4.0]);
            let _ = v.v_squsum().rsqrt();
        }
        let g = ctx.finish();
        let scalar_starts = |spec: &ArchSpec| {
            let r = list_schedule(&g, spec).unwrap();
            assert!(verify_schedule(&g, spec, &r.schedule, false).is_empty());
            assert!(validate_structure_with(&g, spec, &r.schedule, false).is_empty());
            let mut s: Vec<i32> = g
                .ids()
                .filter(|&n| g.category(n) == Category::ScalarOp)
                .map(|n| r.schedule.start_of(n))
                .collect();
            s.sort_unstable();
            s
        };
        let mut two = ArchSpec::eit();
        two.units.units[1].count = 2; // the scalar accelerator
        two.validate().unwrap();
        assert_eq!(scalar_starts(&ArchSpec::eit()), [7, 9, 11, 13]);
        assert_eq!(scalar_starts(&two), [7, 7, 9, 9]);
    }

    /// The qrd and detector kernels stay valid under both verifiers on a
    /// two-accelerator machine.
    #[test]
    fn replicated_accelerator_schedules_verify() {
        let mut two = ArchSpec::eit();
        two.units.units[1].count = 2;
        for name in ["qrd", "detector"] {
            let mut g = eit_apps::by_name(name).unwrap().graph;
            eit_ir::merge_pipeline_ops(&mut g);
            let r = list_schedule(&g, &two).unwrap();
            let v = verify_schedule(&g, &two, &r.schedule, false);
            assert!(v.is_empty(), "{name}: {v:?}");
            let v = validate_structure_with(&g, &two, &r.schedule, false);
            assert!(v.is_empty(), "{name}: {v:?}");
        }
    }

    fn eit_apps_build(name: &str) -> Graph {
        // Local mini-builders to avoid a dev-dependency cycle: reuse the
        // DSL directly for representative graphs of each shape.
        let ctx = Ctx::new(name);
        match name {
            "matmul" | "fir" => {
                let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
                let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
                let mut acc = a.v_mul(&b);
                for _ in 0..4 {
                    acc = acc.v_mac(&b, &a);
                }
            }
            _ => {
                let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
                let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
                let n = a.v_squsum().add(&b.v_squsum());
                let inv = n.rsqrt();
                let q = a.v_scale(&inv);
                let r = b.v_dotp(&q);
                let p = q.v_scale(&r);
                let _ = b.v_sub(&p);
            }
        }
        ctx.finish()
    }
}
