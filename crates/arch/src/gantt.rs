//! Text Gantt rendering of schedules — one row per resource, one column
//! per cycle, for eyeballing pipelines, gaps and reconfigurations.
//!
//! ```text
//! lane0        |AAAA....BBBB|
//! lane1        |AAAA........|
//! scalar-accel |....s-......|
//! ```
//!
//! The row set is derived from the [`ArchSpec`]: one row per vector lane
//! (`n_lanes` of them) and one row per replica of every functional unit
//! of the spec's unit table beyond the vector core, labelled as
//! [`ConfigStream::replica_rows`] books them (`scalar-accel`, or
//! `scalar-accel0` and `scalar-accel1` for two) — a wide or custom
//! machine renders with its own shape, nothing assumes the 4-lane EIT
//! instance.

use crate::code::{ConfigStream, Occupant};
use crate::schedule::Schedule;
use crate::spec::ArchSpec;
use eit_ir::OpClass;
use std::fmt::Write as _;

/// Render a schedule as a text Gantt chart. Lane rows draw ops with
/// letters cycling per configuration (`#` for matrix ops across the
/// matrix width); unit rows draw `s`/`i`/`m` per op class, `-` for the
/// occupancy of multi-cycle ops, `.` for idle.
pub fn render_gantt(g: &eit_ir::Graph, spec: &ArchSpec, sched: &Schedule) -> String {
    let n = (sched.makespan + 1).max(1) as usize;
    let lanes = spec.n_lanes as usize;
    let mut lane_rows = vec![vec!['.'; n]; lanes];

    // Stable letter per vector configuration.
    let cs = ConfigStream::from_schedule(g, spec, sched);
    let mut seen_cfgs: Vec<eit_ir::VectorConfig> = Vec::new();
    let mut letter_of = |cfg: eit_ir::VectorConfig| -> char {
        let idx = match seen_cfgs.iter().position(|&c| c == cfg) {
            Some(i) => i,
            None => {
                seen_cfgs.push(cfg);
                seen_cfgs.len() - 1
            }
        };
        (b'A' + (idx % 26) as u8) as char
    };

    for (t, c) in cs.cycles.iter().enumerate() {
        if let Some(cfg) = c.vector_config {
            let ch = if cfg.matrix { '#' } else { letter_of(cfg) };
            for row in lane_rows.iter_mut().take(c.lanes as usize) {
                row[t] = ch;
            }
        }
    }
    // One row per replica of every unit off the lanes.
    let mark = |cell: Occupant| match cell {
        None => '.',
        Some((op, 0)) => match OpClass::of(&g.node(op).kind) {
            Some(OpClass::Index) => 'i',
            Some(OpClass::Merge) => 'm',
            _ => 's',
        },
        Some(_) => '-',
    };
    let unit_rows: Vec<(String, String)> = cs
        .replica_rows(g, spec)
        .into_iter()
        .map(|(label, row)| (label, row.into_iter().map(mark).collect()))
        .collect();

    // Align every label to the widest one.
    let label_w = unit_rows
        .iter()
        .map(|(label, _)| label.len())
        .chain(std::iter::once(
            format!("lane{}", lanes.saturating_sub(1)).len(),
        ))
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(out, "cycles 0..{} (one column per cc)", sched.makespan);
    for (k, row) in lane_rows.iter().enumerate() {
        let label = format!("lane{k}");
        let _ = writeln!(
            out,
            "{label:<label_w$} |{}|",
            row.iter().collect::<String>()
        );
    }
    for (label, row) in &unit_rows {
        let _ = writeln!(out, "{label:<label_w$} |{row}|");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{CoreOp, DataKind, Graph, Opcode, ScalarOp};

    #[test]
    fn gantt_shows_all_units() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o, d) = g.add_op_with_output(
            Opcode::vector(CoreOp::DotP),
            &[a, b],
            DataKind::Scalar,
            "dot",
        );
        let (sq, dq) = g.add_op_with_output(
            Opcode::Scalar(ScalarOp::Sqrt),
            &[d],
            DataKind::Scalar,
            "sqrt",
        );
        let spec = ArchSpec::eit();
        let mut s = Schedule::new(g.len());
        s.start[o.idx()] = 0;
        s.start[d.idx()] = 7;
        s.start[sq.idx()] = 7;
        s.start[dq.idx()] = 15;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.makespan = 15;
        let txt = render_gantt(&g, &spec, &s);
        assert!(txt.contains("|A"), "{txt}");
        assert!(txt.contains("lane0"), "{txt}");
        // Unit rows carry the spec's unit names.
        assert!(txt.contains("scalar-accel"), "{txt}");
        assert!(txt.contains("index-merge"), "{txt}");
        // sqrt occupies 2 cycles: 's' then '-'.
        assert!(txt.contains("s-"), "{txt}");
        // Header + one row per lane + one per non-vector unit.
        assert_eq!(txt.lines().count(), 1 + 4 + 2);
    }

    #[test]
    fn matrix_ops_fill_all_lanes() {
        let mut g = Graph::new("t");
        let ins: Vec<_> = (0..4)
            .map(|i| g.add_data(DataKind::Vector, &format!("i{i}")))
            .collect();
        let m = g.add_op(Opcode::matrix(CoreOp::SquSum), "m");
        for &i in &ins {
            g.add_edge(i, m);
        }
        let out = g.add_data(DataKind::Vector, "o");
        g.add_edge(m, out);
        let mut s = Schedule::new(g.len());
        s.start[out.idx()] = 7;
        for (k, &i) in ins.iter().enumerate() {
            s.slot[i.idx()] = Some(k as u32);
        }
        s.slot[out.idx()] = Some(4);
        s.makespan = 7;
        let txt = render_gantt(&g, &ArchSpec::eit(), &s);
        for lane in 0..4 {
            assert!(
                txt.lines()
                    .any(|l| l.starts_with(&format!("lane{lane}")) && l.contains('#')),
                "{txt}"
            );
        }
    }

    #[test]
    fn replicated_units_draw_one_row_per_replica() {
        // Two sqrts issue in one cycle on two accelerators.
        let mut g = Graph::new("t");
        let x = g.add_data(DataKind::Scalar, "x");
        let ops: Vec<_> = (0..2)
            .map(|k| {
                let name = format!("sqrt{k}");
                g.add_op_with_output(
                    Opcode::Scalar(ScalarOp::Sqrt),
                    &[x],
                    DataKind::Scalar,
                    &name,
                )
            })
            .collect();
        let mut spec = ArchSpec::eit();
        for u in &mut spec.units.units {
            if u.name == "scalar-accel" {
                u.count = 2;
            }
        }
        let mut s = Schedule::new(g.len());
        for &(o, d) in &ops {
            s.start[o.idx()] = 1;
            s.start[d.idx()] = 9;
        }
        s.makespan = 9;
        let txt = render_gantt(&g, &spec, &s);
        let rows: Vec<&str> = txt
            .lines()
            .filter(|l| l.starts_with("scalar-accel"))
            .collect();
        assert_eq!(rows.len(), 2, "{txt}");
        assert!(rows[0].starts_with("scalar-accel0 |.s-"), "{txt}");
        assert!(rows[1].starts_with("scalar-accel1 |.s-"), "{txt}");
        // A single index/merge unit keeps its plain name.
        assert!(
            txt.lines()
                .any(|l| l.split_whitespace().next() == Some("index-merge")),
            "{txt}"
        );
        let vcd = crate::vcd::to_vcd(&g, &spec, &s);
        for wire in [
            " scalar_accel0 $end",
            " scalar_accel1 $end",
            " index_merge $end",
        ] {
            assert!(vcd.contains(wire), "{vcd}");
        }
    }

    #[test]
    fn row_shape_follows_the_spec() {
        let g = Graph::new("t");
        let s = Schedule::new(0);
        // The wide machine renders 8 lane rows without touching the code.
        let txt = render_gantt(&g, &ArchSpec::wide(), &s);
        assert_eq!(txt.lines().count(), 1 + 8 + 2);
        assert!(txt.contains("lane7"), "{txt}");
    }
}
