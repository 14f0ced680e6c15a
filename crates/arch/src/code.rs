//! Machine code as a per-cycle configuration stream.
//!
//! The EIT's "instructions" are configuration words loaded into the
//! resource elements' configuration memories, re-loadable every cycle
//! (§1.1). A [`ConfigStream`] is the schedule rendered into that form:
//! for every cycle, the vector core's configuration, every op issued on
//! any unit of the spec's table, and the memory reads/writes with their
//! slots. This is the artifact a code generator would emit, and it is
//! where reconfigurations become countable: a reconfiguration happens
//! when two *consecutive issuing cycles* carry different vector-core
//! configurations.

use crate::schedule::Schedule;
use crate::spec::ArchSpec;
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::fmt;

/// One cycle of the configuration stream.
#[derive(Clone, Debug, Default)]
pub struct Cycle {
    /// Vector-core configuration, if any vector/matrix op issues.
    pub vector_config: Option<VectorConfig>,
    /// Every op issued this cycle, ordered by the index of its unit in
    /// the spec's table, then by node id.
    pub ops: Vec<NodeId>,
    /// Lane-worths the vector core issues this cycle: each vector-core op
    /// counts its class width (a matrix op the spec's matrix width).
    pub lanes: u32,
    /// Vector memory reads `(datum, slot)` of this cycle.
    pub reads: Vec<(NodeId, u32)>,
    /// Vector memory writes `(datum, slot)` of this cycle.
    pub writes: Vec<(NodeId, u32)>,
}

impl Cycle {
    /// Issue `op` in this cycle: insert it into `ops` in (unit index,
    /// node id) order and, for a vector-core op, take its configuration
    /// and add its class width to `lanes`. Returns whether `op` issues on
    /// the vector core.
    pub fn issue(&mut self, g: &Graph, spec: &ArchSpec, op: NodeId) -> bool {
        let key = |n: NodeId| (spec.units.unit_of(&g.node(n).kind), n);
        let op_key = key(op);
        let at = self.ops.partition_point(|&o| key(o) < op_key);
        self.ops.insert(at, op);
        let Some(cfg) = g.opcode(op).and_then(|o| o.config()) else {
            return false;
        };
        self.vector_config = Some(cfg);
        let class = OpClass::of(&g.node(op).kind);
        self.lanes += class.and_then(|c| spec.units.class_width(c)).unwrap_or(1);
        true
    }
}

/// A schedule rendered cycle-by-cycle.
#[derive(Clone, Debug)]
pub struct ConfigStream {
    pub cycles: Vec<Cycle>,
}

impl ConfigStream {
    /// Render `sched` into a configuration stream. Reads are attributed to
    /// the issue cycle of the consuming vector-core op; writes to its
    /// write-back cycle (`issue + pipeline`, the cycle the output datum
    /// starts — within a cycle reads precede writes, so a lifetime ending
    /// exactly where another begins is hazard-free, matching the Diff2
    /// touching-rectangles semantics of constraint (11)).
    pub fn from_schedule(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> Self {
        let n_cycles = (sched.makespan + 1).max(0) as usize;
        let mut cycles = vec![Cycle::default(); n_cycles];

        for id in g.ids() {
            if !g.category(id).is_op() {
                continue;
            }
            let t = sched.start_of(id) as usize;
            let Some(c) = cycles.get_mut(t) else {
                continue;
            };
            if !c.issue(g, spec, id) {
                continue;
            }
            // Reads: vector operands, at issue.
            for &d in g.preds(id) {
                if g.category(d) == Category::VectorData {
                    if let Some(slot) = sched.slot_of(d) {
                        c.reads.push((d, slot));
                    }
                }
            }
            // Writes: vector outputs, at write-back.
            let wb = t + spec.latency(&g.node(id).kind) as usize;
            if let Some(c) = cycles.get_mut(wb) {
                for &d in g.succs(id) {
                    if g.category(d) == Category::VectorData {
                        if let Some(slot) = sched.slot_of(d) {
                            c.writes.push((d, slot));
                        }
                    }
                }
            }
        }
        ConfigStream { cycles }
    }
    /// Number of configuration *switches*: issuing cycles whose vector
    /// configuration differs from the previous issuing cycle's.
    pub fn reconfig_switches(&self) -> usize {
        let mut prev: Option<VectorConfig> = None;
        let mut switches = 0;
        for c in &self.cycles {
            if let Some(cfg) = c.vector_config {
                if let Some(p) = prev {
                    if p != cfg {
                        switches += 1;
                    }
                }
                prev = Some(cfg);
            }
        }
        switches
    }

    /// Number of configuration *loads*, counting the initial one — the
    /// quantity Table 3 reports as `# rec.` (MATMUL: 1).
    pub fn config_loads(&self) -> usize {
        let any_issue = self.cycles.iter().any(|c| c.vector_config.is_some());
        self.reconfig_switches() + usize::from(any_issue)
    }

    /// Lane-cycles actually used by the vector core.
    pub fn lane_cycles_used(&self) -> u64 {
        self.cycles.iter().map(|c| u64::from(c.lanes)).sum()
    }

    /// Vector-core utilisation: used lane-cycles over available ones.
    pub fn utilization(&self, spec: &ArchSpec) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.lane_cycles_used() as f64 / (spec.n_lanes as u64 * self.cycles.len() as u64) as f64
    }
}

impl fmt::Display for ConfigStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, c) in self.cycles.iter().enumerate() {
            if c.ops.is_empty() && c.writes.is_empty() {
                continue;
            }
            write!(f, "cc {t:4}: ")?;
            if let Some(cfg) = &c.vector_config {
                write!(f, "V[{:?}×{}] ", cfg.core, c.lanes)?;
            }
            if !c.ops.is_empty() {
                write!(f, "ops{:?} ", c.ops)?;
            }
            if !c.reads.is_empty() {
                write!(
                    f,
                    "R{:?} ",
                    c.reads.iter().map(|&(_, s)| s).collect::<Vec<_>>()
                )?;
            }
            if !c.writes.is_empty() {
                write!(
                    f,
                    "W{:?}",
                    c.writes.iter().map(|&(_, s)| s).collect::<Vec<_>>()
                )?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{CoreOp, DataKind, Opcode};

    /// Two different op types back to back → 1 switch, 2 loads.
    #[test]
    fn reconfig_counting() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "x");
        let (o2, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::Mul), &[a, b], DataKind::Vector, "y");
        let (o3, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::Mul), &[a, b], DataKind::Vector, "z");
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[o2.idx()] = 1;
        s.start[o3.idx()] = 5; // idle gap does not reconfigure
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.makespan = 12;
        let cs = ConfigStream::from_schedule(&g, &ArchSpec::eit(), &s);
        assert_eq!(cs.reconfig_switches(), 1);
        assert_eq!(cs.config_loads(), 2);
    }

    #[test]
    fn single_config_app_has_one_load() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[a, b], DataKind::Scalar, "x");
        let (o2, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::DotP), &[b, a], DataKind::Scalar, "y");
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[o2.idx()] = 1;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.makespan = 8;
        let cs = ConfigStream::from_schedule(&g, &ArchSpec::eit(), &s);
        assert_eq!(cs.reconfig_switches(), 0);
        assert_eq!(cs.config_loads(), 1);
    }

    #[test]
    fn reads_at_issue_writes_at_writeback() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o, out) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "x");
        let mut s = Schedule::new(g.len());
        s.start[o.idx()] = 2;
        s.start[out.idx()] = 9;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.slot[out.idx()] = Some(2);
        s.makespan = 9;
        let cs = ConfigStream::from_schedule(&g, &ArchSpec::eit(), &s);
        assert_eq!(cs.cycles[2].reads.len(), 2);
        assert_eq!(cs.cycles[9].writes, vec![(out, 2)]); // 2 + 7
    }

    #[test]
    fn utilization_counts_matrix_as_four_lanes() {
        let mut g = Graph::new("t");
        let ins: Vec<NodeId> = (0..4)
            .map(|i| g.add_data(DataKind::Vector, &format!("i{i}")))
            .collect();
        let m = g.add_op(Opcode::matrix(CoreOp::SquSum), "m");
        for &i in &ins {
            g.add_edge(i, m);
        }
        let out = g.add_data(DataKind::Vector, "o");
        g.add_edge(m, out);
        let mut s = Schedule::new(g.len());
        s.makespan = 1;
        let cs = ConfigStream::from_schedule(&g, &ArchSpec::eit(), &s);
        assert_eq!(cs.lane_cycles_used(), 4);
        assert_eq!(cs.utilization(&ArchSpec::eit()), 0.5); // 4 of 8
    }
}
