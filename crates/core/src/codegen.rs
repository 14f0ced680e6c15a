//! Code generation: render a schedule with memory allocation into the
//! machine-code artefact of the flow (fig. 2) — a commented configuration
//! program for the EIT's per-cycle-reloadable configuration memories,
//! plus the memory map the allocator chose.
//!
//! The output is the textual form of [`eit_arch::ConfigStream`]: one line
//! per active cycle with the vector-core configuration word, issued lane
//! operations, one `ACC[..]` or `IDX/MRG[..]` entry per op issued on the
//! other units and the memory accesses with their slot/bank/line/page
//! coordinates. It contains "all
//! information needed by a code generator turning this schedule into
//! machine code" (§1) — and in this reproduction it *is* that final form.

use eit_arch::{ArchSpec, ConfigStream, Geometry, Schedule};
use eit_ir::{Category, Graph, NodeId, VectorConfig};
use std::fmt::Write as _;

/// A generated program: the listing plus summary metrics.
#[derive(Debug)]
pub struct Program {
    pub listing: String,
    pub n_cycles: usize,
    pub n_instructions: usize,
    pub reconfig_switches: usize,
    pub utilization: f64,
}

fn config_word(cfg: &VectorConfig) -> String {
    let mut w = String::new();
    if cfg.matrix {
        w.push_str("M:");
    } else {
        w.push_str("V:");
    }
    if let Some((p, idx)) = cfg.pre {
        let _ = write!(w, "{p:?}@{idx}>");
    }
    let _ = write!(w, "{:?}", cfg.core);
    if let Some(p) = cfg.post {
        let _ = write!(w, ">{p:?}");
    }
    w
}

/// Generate the configuration program for a scheduled kernel.
pub fn generate(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> Program {
    let cs = ConfigStream::from_schedule(g, spec, sched);
    let geo = Geometry::of(spec);
    let mut out = String::new();

    let _ = writeln!(out, "; kernel: {}", g.name);
    let _ = writeln!(
        out,
        "; machine: {} lanes, {}-stage pipeline, {} banks x {} slots, {} pages",
        spec.n_lanes,
        spec.pipeline_depth(),
        spec.n_banks,
        spec.slots_per_bank,
        spec.n_pages()
    );
    let _ = writeln!(out, "; makespan: {} cc", sched.makespan);

    // Memory map.
    let _ = writeln!(
        out,
        ";\n; memory map (slot: bank/line/page <- datum [lifetime))"
    );
    let mut vdata: Vec<NodeId> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorData)
        .collect();
    vdata.sort_by_key(|&n| (sched.slot_of(n), sched.start_of(n)));
    for d in vdata {
        if let Some(slot) = sched.slot_of(d) {
            let (s0, s1) = sched.lifetime(g, d);
            let _ = writeln!(
                out,
                ";   slot {:3}: b{:02}/l{}/p{} <- {:<18} [{s0:4}, {s1:4})",
                slot,
                geo.bank(slot),
                geo.line(slot),
                geo.page(slot),
                g.node(d).name,
            );
        }
    }

    // Instruction stream.
    let _ = writeln!(out, ";\n; configuration stream");
    let mut n_instructions = 0;
    let mut prev_cfg: Option<VectorConfig> = None;
    for (t, c) in cs.cycles.iter().enumerate() {
        if c.ops.is_empty() && c.writes.is_empty() {
            continue;
        }
        let mut line = format!("{t:5}: ");
        if let Some(cfg) = &c.vector_config {
            if prev_cfg.is_some() && prev_cfg != Some(*cfg) {
                line.push_str("RECFG ");
            }
            prev_cfg = Some(*cfg);
            let names: Vec<&str> = c
                .ops
                .iter()
                .filter(|&&op| g.opcode(op).and_then(|o| o.config()).is_some())
                .map(|&op| g.node(op).name.as_str())
                .collect();
            let _ = write!(line, "{:<24} lanes={names:?} ", config_word(cfg));
            n_instructions += 1;
        }
        // One instruction per op of the units off the vector core.
        for &op in &c.ops {
            match g.category(op) {
                Category::ScalarOp => {
                    let opcode = g.opcode(op).unwrap();
                    let _ = write!(line, "ACC[{opcode:?} {}] ", g.node(op).name);
                }
                Category::Index | Category::Merge => {
                    let _ = write!(line, "IDX/MRG[{}] ", g.node(op).name);
                }
                _ => continue,
            }
            n_instructions += 1;
        }
        if !c.reads.is_empty() {
            let slots: Vec<u32> = c.reads.iter().map(|&(_, s)| s).collect();
            let _ = write!(line, "RD{slots:?} ");
        }
        if !c.writes.is_empty() {
            let slots: Vec<u32> = c.writes.iter().map(|&(_, s)| s).collect();
            let _ = write!(line, "WR{slots:?}");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }

    Program {
        n_cycles: cs.cycles.len(),
        n_instructions,
        reconfig_switches: cs.reconfig_switches(),
        utilization: cs.utilization(spec),
        listing: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{schedule, SchedulerOptions};
    use eit_dsl::Ctx;

    fn scheduled_chain() -> (Graph, ArchSpec, Schedule) {
        let ctx = Ctx::new("chain");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let x = a.v_add(&b);
        let _ = x.v_dotp(&b).sqrt();
        let g = ctx.finish();
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        (g, spec, r.schedule.unwrap())
    }

    #[test]
    fn listing_contains_every_section() {
        let (g, spec, s) = scheduled_chain();
        let p = generate(&g, &spec, &s);
        assert!(p.listing.contains("memory map"));
        assert!(p.listing.contains("configuration stream"));
        assert!(p.listing.contains("V:Add"));
        assert!(p.listing.contains("V:DotP"));
        assert!(p.listing.contains("ACC["));
        assert!(p.listing.contains("RD["));
        assert!(p.listing.contains("WR["));
    }

    #[test]
    fn reconfig_markers_match_metric() {
        let (g, spec, s) = scheduled_chain();
        let p = generate(&g, &spec, &s);
        let markers = p.listing.matches("RECFG").count();
        assert_eq!(markers, p.reconfig_switches);
        assert!(p.reconfig_switches >= 1); // add → dotp switches
    }

    #[test]
    fn instruction_count_covers_all_ops() {
        let (g, spec, s) = scheduled_chain();
        let p = generate(&g, &spec, &s);
        // 2 vector issues + 1 accelerator op = 3 instruction slots.
        assert_eq!(p.n_instructions, 3);
        assert_eq!(p.n_cycles as i32, s.makespan + 1);
    }

    #[test]
    fn memory_map_lists_all_allocated_vectors() {
        let (g, spec, s) = scheduled_chain();
        let p = generate(&g, &spec, &s);
        let vdata = g.count(Category::VectorData);
        assert_eq!(p.listing.matches("slot ").count(), vdata);
    }
}
