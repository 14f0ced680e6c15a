//! VCD (Value Change Dump) export of schedules: view a schedule's
//! resource activity as waveforms in GTKWave or any VCD viewer — the
//! hardware-native rendition of the Gantt chart.
//!
//! Signals emitted:
//! - `lane0..laneN` (wire 1): vector-lane occupancy, one per spec lane;
//! - `vconfig` (wire 8): the vector core's configuration index
//!   (0 = idle, k = the k-th distinct configuration in issue order);
//! - one wire-1 occupancy signal per replica of every non-vector
//!   functional unit of the spec's unit table, named after the unit
//!   (non-alphanumeric characters become `_`, so the EIT preset emits
//!   `scalar_accel` and `index_merge`) with the replica number appended
//!   when the unit has more than one (`scalar_accel0`, `scalar_accel1`),
//!   booked by [`ConfigStream::replica_rows`];
//! - `mem_reads`, `mem_writes` (wire 8): vector-memory port activity.

use crate::code::ConfigStream;
use crate::schedule::Schedule;
use crate::spec::ArchSpec;
use eit_ir::{Graph, VectorConfig};
use std::fmt::Write as _;

fn ident(i: usize) -> String {
    // Printable VCD identifier characters ! .. ~
    let mut n = i;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

fn signal_name(unit: &str) -> String {
    unit.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Render a schedule as a VCD document.
pub fn to_vcd(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> String {
    let cs = ConfigStream::from_schedule(g, spec, sched);
    let lanes = spec.n_lanes as usize;

    let mut out = String::new();
    let _ = writeln!(out, "$date eit-vector schedule dump $end");
    let _ = writeln!(out, "$version eit-arch vcd exporter $end");
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(
        out,
        "$scope module {} $end",
        if g.name.is_empty() { "kernel" } else { &g.name }
    );

    let mut ids = Vec::new();
    let mut next_id = 0usize;
    let mut declare = |out: &mut String, width: u32, name: &str| -> String {
        let id = ident(next_id);
        next_id += 1;
        let _ = writeln!(out, "$var wire {width} {id} {name} $end");
        ids.push(id.clone());
        id
    };

    let lane_ids: Vec<String> = (0..lanes)
        .map(|k| declare(&mut out, 1, &format!("lane{k}")))
        .collect();
    let cfg_id = declare(&mut out, 8, "vconfig");
    // One occupancy wire per replica of every unit off the lanes, with
    // its per-cycle busy bits.
    let unit_wires: Vec<(String, Vec<bool>)> = cs
        .replica_rows(g, spec)
        .into_iter()
        .map(|(label, row)| {
            let busy = row.iter().map(Option::is_some).collect();
            (declare(&mut out, 1, &signal_name(&label)), busy)
        })
        .collect();
    let rd_id = declare(&mut out, 8, "mem_reads");
    let wr_id = declare(&mut out, 8, "mem_writes");
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    let n = cs.cycles.len();

    // Distinct-config numbering.
    let mut seen: Vec<VectorConfig> = Vec::new();
    let mut cfg_index = |c: VectorConfig| -> usize {
        match seen.iter().position(|&x| x == c) {
            Some(i) => i + 1,
            None => {
                seen.push(c);
                seen.len()
            }
        }
    };

    // Emit changes only when a value differs from the previous cycle:
    // (lane busy bits, config number, unit busy bits, reads, writes).
    type CycleState = (Vec<bool>, usize, Vec<bool>, usize, usize);
    let mut prev: Option<CycleState> = None;
    for (t, c) in cs.cycles.iter().enumerate() {
        let mut lanes_now = vec![false; lanes];
        for l in lanes_now.iter_mut().take(c.lanes as usize) {
            *l = true;
        }
        let cfg_now = c.vector_config.map_or(0, &mut cfg_index);
        let units_now: Vec<bool> = unit_wires.iter().map(|(_, busy)| busy[t]).collect();
        let state = (
            lanes_now.clone(),
            cfg_now,
            units_now.clone(),
            c.reads.len(),
            c.writes.len(),
        );
        if prev.as_ref() != Some(&state) {
            let _ = writeln!(out, "#{t}");
            let dump_all = prev.is_none();
            let p = prev.as_ref();
            for k in 0..lanes {
                if dump_all || p.map(|p| p.0[k]) != Some(lanes_now[k]) {
                    let _ = writeln!(out, "{}{}", u8::from(lanes_now[k]), lane_ids[k]);
                }
            }
            if dump_all || p.map(|p| p.1) != Some(cfg_now) {
                let _ = writeln!(out, "b{cfg_now:b} {cfg_id}");
            }
            for (k, (id, _)) in unit_wires.iter().enumerate() {
                if dump_all || p.map(|p| p.2[k]) != Some(units_now[k]) {
                    let _ = writeln!(out, "{}{}", u8::from(units_now[k]), id);
                }
            }
            if dump_all || p.map(|p| p.3) != Some(c.reads.len()) {
                let _ = writeln!(out, "b{:b} {rd_id}", c.reads.len());
            }
            if dump_all || p.map(|p| p.4) != Some(c.writes.len()) {
                let _ = writeln!(out, "b{:b} {wr_id}", c.writes.len());
            }
            prev = Some(state);
        }
    }
    let _ = writeln!(out, "#{}", n.max(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{CoreOp, DataKind, Opcode};

    fn scheduled() -> (Graph, ArchSpec, Schedule) {
        let mut g = Graph::new("wave");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, d1) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "x");
        let (o2, d2) =
            g.add_op_with_output(Opcode::vector(CoreOp::Mul), &[d1, b], DataKind::Vector, "y");
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[d1.idx()] = 7;
        s.start[o2.idx()] = 7;
        s.start[d2.idx()] = 14;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.slot[d1.idx()] = Some(2);
        s.slot[d2.idx()] = Some(3);
        s.makespan = 14;
        (g, ArchSpec::eit(), s)
    }

    #[test]
    fn vcd_structure_is_wellformed() {
        let (g, spec, s) = scheduled();
        let vcd = to_vcd(&g, &spec, &s);
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("$var wire 8"));
        // Two issue points → at least timestamps #0 and #7.
        assert!(vcd.contains("#0\n"));
        assert!(vcd.contains("#7\n"));
    }

    #[test]
    fn config_indices_distinguish_ops() {
        let (g, spec, s) = scheduled();
        let vcd = to_vcd(&g, &spec, &s);
        // Config 1 (add) at t=0, config 2 (mul) at t=7.
        assert!(vcd.contains("b1 "));
        assert!(vcd.contains("b10 ")); // 2 in binary
    }

    #[test]
    fn unit_signals_carry_spec_names() {
        let (g, spec, s) = scheduled();
        let vcd = to_vcd(&g, &spec, &s);
        // The EIT preset's unit names, sanitised for VCD identifiers.
        assert!(vcd.contains(" scalar_accel $end"), "{vcd}");
        assert!(vcd.contains(" index_merge $end"), "{vcd}");
        // A wide machine declares all eight lanes.
        let vcd = to_vcd(&g, &ArchSpec::wide(), &s);
        assert!(vcd.contains(" lane7 $end"), "{vcd}");
    }

    #[test]
    fn idents_are_unique_and_printable() {
        let ids: Vec<String> = (0..200).map(ident).collect();
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
        for id in ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }
}
