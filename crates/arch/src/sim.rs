//! Cycle-accurate validation and functional replay of schedules.
//!
//! The paper evaluates schedules analytically; this simulator is the
//! reproduction's safety net. Given a graph, an [`ArchSpec`] and a
//! [`Schedule`], it enforces *every* architectural rule the CP model is
//! supposed to respect:
//!
//! - precedence and exact data-availability times ((1) and (4));
//! - lane capacity and one-configuration-per-cycle ((2) and (3));
//! - unit-capacity accelerator and index/merge units;
//! - memory ports, read/write budgets and the page/line rule (§3.4),
//!   with reads at issue and writes at write-back;
//! - slot-lifetime exclusivity ((10)/(11)) — verified twice: as interval
//!   disjointness *and* by replaying memory contents, so a stale read
//!   (an op consuming a slot that another datum has overwritten) is
//!   caught even if the lifetime bookkeeping were wrong;
//! - functional correctness: every operation is executed through
//!   [`eit_ir::sem::apply`] and the memory replay checks the values flow
//!   through the slots the allocation says they do.
//!
//! Modelling choices (documented in DESIGN.md): the index/merge unit and
//! the scalar accelerator access data through dedicated paths, so only
//! vector-core accesses count against the memory ports; graph inputs are
//! pre-loaded before cycle 0.

use crate::code::ConfigStream;
use crate::memory::{check_access, Geometry, VectorMemory};
use crate::schedule::Schedule;
use crate::spec::ArchSpec;
use eit_ir::sem::{apply, Value};
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;
use std::fmt;

/// One broken rule found during validation/replay.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    NegativeStart {
        node: NodeId,
    },
    Precedence {
        from: NodeId,
        to: NodeId,
    },
    DataStart {
        op: NodeId,
        data: NodeId,
    },
    LaneOverflow {
        cycle: i32,
        used: u32,
    },
    ConfigConflict {
        cycle: i32,
    },
    /// Two consecutive vector-core issue cycles carry different
    /// configurations without the reconfiguration stall between them
    /// (overlapped-execution rule: the core switches only at bundle
    /// boundaries and each switch costs `reconfig_cost` idle cycles).
    ReconfigStall {
        prev_cycle: i32,
        cycle: i32,
        gap: i32,
        need: i32,
    },
    AcceleratorOverlap {
        a: NodeId,
        b: NodeId,
    },
    IndexMergeOverlap {
        a: NodeId,
        b: NodeId,
    },
    Memory {
        cycle: i32,
        detail: crate::memory::AccessViolation,
    },
    MissingSlot {
        data: NodeId,
    },
    SlotOutOfRange {
        data: NodeId,
        slot: u32,
    },
    SlotLifetimeOverlap {
        a: NodeId,
        b: NodeId,
        slot: u32,
    },
    StaleRead {
        reader: NodeId,
        data: NodeId,
        slot: u32,
        found: Option<NodeId>,
    },
    MissingInput {
        data: NodeId,
    },
    Semantic {
        op: NodeId,
        error: String,
    },
    /// The schedule (or the graph it claims to describe) is structurally
    /// broken — wrong vector lengths, a cyclic graph, an op without an
    /// opcode. Reported instead of panicking so corrupt input degrades to
    /// a diagnostic.
    MalformedSchedule {
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// How busy one unit of the spec's [`UnitTable`](crate::UnitTable) was.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitUtilization {
    /// The unit's name in the table.
    pub name: String,
    /// Lane utilization (used lane-cycles / available) for the unit
    /// serving the vector class; busy cycles over `count × cycles` for
    /// every other unit.
    pub utilization: f64,
}

/// Activity counters beyond the headline utilization numbers, computed
/// from the configuration stream: occupancy histograms, per-bank traffic,
/// port-pressure peaks and the reconfiguration timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounters {
    /// `lane_histogram[k]` = cycles issuing exactly `k` lane-worths of
    /// vector work (a matrix op counts as the spec's matrix width); index
    /// runs `0..=n_lanes`.
    pub lane_histogram: Vec<u64>,
    /// Physical (broadcast-deduplicated) reads served per bank over the
    /// whole run.
    pub bank_reads: Vec<u64>,
    /// Writes landed per bank over the whole run.
    pub bank_writes: Vec<u64>,
    /// Highest simultaneous read count, and the first cycle it occurs.
    pub peak_reads: u32,
    pub peak_reads_cycle: i32,
    /// Highest simultaneous write count, and the first cycle it occurs.
    pub peak_writes: u32,
    pub peak_writes_cycle: i32,
    /// Every configuration load `(cycle, config)`, the initial one
    /// included — the timeline behind [`SimReport::config_loads`].
    pub reconfig_timeline: Vec<(i32, VectorConfig)>,
}

impl SimCounters {
    /// Tally the stream. Reads are broadcast-deduplicated per cycle to
    /// match the port rules ([`check_access`] sees the same sets).
    pub fn from_stream(cs: &ConfigStream, spec: &ArchSpec) -> Self {
        let geo = Geometry::of(spec);
        let mut c = SimCounters {
            lane_histogram: vec![0; spec.n_lanes as usize + 1],
            bank_reads: vec![0; spec.n_banks as usize],
            bank_writes: vec![0; spec.n_banks as usize],
            ..Default::default()
        };
        let mut prev_cfg: Option<VectorConfig> = None;
        for (t, cyc) in cs.cycles.iter().enumerate() {
            let t = t as i32;
            let k = (cyc.lanes as usize).min(c.lane_histogram.len() - 1);
            c.lane_histogram[k] += 1;

            let mut slots: Vec<u32> = cyc.reads.iter().map(|&(_, s)| s).collect();
            slots.sort_unstable();
            slots.dedup();
            for &s in &slots {
                c.bank_reads[geo.bank(s) as usize] += 1;
            }
            if slots.len() as u32 > c.peak_reads {
                c.peak_reads = slots.len() as u32;
                c.peak_reads_cycle = t;
            }
            for &(_, s) in &cyc.writes {
                c.bank_writes[geo.bank(s) as usize] += 1;
            }
            if cyc.writes.len() as u32 > c.peak_writes {
                c.peak_writes = cyc.writes.len() as u32;
                c.peak_writes_cycle = t;
            }

            if let Some(cfg) = cyc.vector_config {
                if prev_cfg != Some(cfg) {
                    c.reconfig_timeline.push((t, cfg));
                }
                prev_cfg = Some(cfg);
            }
        }
        c
    }
}

/// Outcome of [`simulate`].
#[derive(Debug)]
pub struct SimReport {
    pub violations: Vec<Violation>,
    /// Value of every data node (present when inputs were supplied and
    /// evaluation succeeded).
    pub values: HashMap<NodeId, Value>,
    pub makespan: i32,
    pub lane_cycles: u64,
    pub utilization: f64,
    /// One entry per unit of the spec's table, in table order.
    pub units: Vec<UnitUtilization>,
    pub reconfig_switches: usize,
    pub config_loads: usize,
    pub counters: SimCounters,
}

impl SimReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn on_vector_core(cat: Category) -> bool {
    matches!(cat, Category::VectorOp | Category::MatrixOp)
}

/// Shape check shared by validation and simulation: a schedule whose
/// vectors do not cover the graph cannot be indexed safely. Returns the
/// violations (empty = well-shaped).
pub(crate) fn check_shape(g: &Graph, sched: &Schedule) -> Vec<Violation> {
    let mut out = Vec::new();
    if sched.start.len() != g.len() || sched.slot.len() != g.len() {
        out.push(Violation::MalformedSchedule {
            detail: format!(
                "schedule covers {} starts / {} slots for a {}-node graph",
                sched.start.len(),
                sched.slot.len(),
                g.len()
            ),
        });
    }
    out
}

/// Structural validation only (no values needed).
pub fn validate_structure(g: &Graph, spec: &ArchSpec, sched: &Schedule) -> Vec<Violation> {
    validate_structure_with(g, spec, sched, true)
}

/// Structural validation with the memory checks optionally disabled —
/// used for baselines that the paper explicitly describes as "scheduled
/// without memory allocation" (Table 2's manual column) and for modulo
/// schedules, where the paper assumes sufficient memory.
pub fn validate_structure_with(
    g: &Graph,
    spec: &ArchSpec,
    sched: &Schedule,
    check_memory: bool,
) -> Vec<Violation> {
    let mut out = check_shape(g, sched);
    if !out.is_empty() {
        return out;
    }
    if let Err(e) = spec.validate() {
        out.push(Violation::MalformedSchedule {
            detail: format!("invalid ArchSpec: {e}"),
        });
        return out;
    }

    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);

    // Starts are non-negative.
    for n in g.ids() {
        if sched.start_of(n) < 0 {
            out.push(Violation::NegativeStart { node: n });
        }
    }

    // (1): s_i + l_i ≤ s_j on every edge; (4): data starts exactly at
    // producer completion.
    for (from, to) in g.edges() {
        if sched.start_of(from) + latency(from) > sched.start_of(to) {
            out.push(Violation::Precedence { from, to });
        }
        if g.category(from).is_op() && g.category(to).is_data() {
            let expect = sched.start_of(from) + latency(from);
            if sched.start_of(to) != expect {
                out.push(Violation::DataStart { op: from, data: to });
            }
        }
    }

    // (2)/(3): lane capacity and configuration uniqueness per cycle.
    let mut by_cycle: HashMap<i32, Vec<NodeId>> = HashMap::new();
    for n in g.ids() {
        if on_vector_core(g.category(n)) {
            by_cycle.entry(sched.start_of(n)).or_default().push(n);
        }
    }
    for (&cycle, ops) in &by_cycle {
        let used: u32 = ops
            .iter()
            .map(|&o| {
                if g.category(o) == Category::MatrixOp {
                    spec.matrix_lanes()
                } else {
                    1
                }
            })
            .sum();
        if used > spec.n_lanes {
            out.push(Violation::LaneOverflow { cycle, used });
        }
        // A node can only reach here with `Category::{Vector,Matrix}Op`,
        // which guarantees a vector-core opcode with a configuration — but
        // corrupt input must degrade to a diagnostic, never a panic.
        let mut cfgs = Vec::with_capacity(ops.len());
        for &o in ops {
            match g.opcode(o).and_then(|op| op.config()) {
                Some(c) => cfgs.push(c),
                None => out.push(Violation::MalformedSchedule {
                    detail: format!("node {o:?} co-issued on the vector core has no configuration"),
                }),
            }
        }
        if cfgs.windows(2).any(|w| w[0] != w[1]) {
            out.push(Violation::ConfigConflict { cycle });
        }
    }

    // Capacity-limited resources beyond the vector core: one sorted
    // interval sweep per unit of the table, with a width-aware active set
    // so replicated units (`count > 1`) are honoured. Ops occupy their
    // unit for their duration (iterative accelerator ops several cycles).
    for unit in &spec.units.units {
        let classes: Vec<OpClass> = unit.ops.iter().map(|o| o.class).collect();
        if classes.contains(&OpClass::Vector) || classes.contains(&OpClass::Matrix) {
            continue; // the lane rule above covers the vector core
        }
        let is_accel = classes
            .iter()
            .any(|c| matches!(c, OpClass::ScalarIterative | OpClass::ScalarSimple));
        let mut items: Vec<(NodeId, i32, i32, u32)> = g
            .ids()
            .filter_map(|n| {
                let c = OpClass::of(&g.node(n).kind)?;
                if !classes.contains(&c) {
                    return None;
                }
                let w = spec.units.class_width(c).unwrap_or(1);
                let s = sched.start_of(n);
                Some((n, s, s + duration(n).max(1), w))
            })
            .collect();
        items.sort_by_key(|&(n, s, _, _)| (s, n.idx()));
        let mut active: Vec<(NodeId, i32, u32)> = Vec::new(); // (node, end, width)
        for (n, s, e, w) in items {
            active.retain(|&(_, end, _)| end > s);
            let used: u32 = active.iter().map(|&(_, _, w)| w).sum();
            if used + w > unit.count {
                let prev = active[0].0;
                out.push(if is_accel {
                    Violation::AcceleratorOverlap { a: prev, b: n }
                } else {
                    Violation::IndexMergeOverlap { a: prev, b: n }
                });
            } else {
                active.push((n, e, w));
            }
        }
    }

    if !check_memory {
        return out;
    }

    // Memory: every vector datum needs an in-range slot.
    let n_slots = spec.n_slots();
    for n in g.ids() {
        if g.category(n) == Category::VectorData {
            match sched.slot_of(n) {
                None => out.push(Violation::MissingSlot { data: n }),
                Some(s) if s >= n_slots => out.push(Violation::SlotOutOfRange { data: n, slot: s }),
                _ => {}
            }
        }
    }

    // Slot lifetime exclusivity (10)/(11).
    let vdata: Vec<NodeId> = g
        .ids()
        .filter(|&n| g.category(n) == Category::VectorData)
        .collect();
    for (i, &a) in vdata.iter().enumerate() {
        for &b in &vdata[i + 1..] {
            if let (Some(sa), Some(sb)) = (sched.slot_of(a), sched.slot_of(b)) {
                if sa == sb {
                    let (a0, a1) = sched.lifetime(g, a);
                    let (b0, b1) = sched.lifetime(g, b);
                    if a0 < b1 && b0 < a1 {
                        out.push(Violation::SlotLifetimeOverlap { a, b, slot: sa });
                    }
                }
            }
        }
    }

    // Port and page/line checks per cycle (vector-core accesses only).
    let mut reads_at: HashMap<i32, Vec<u32>> = HashMap::new();
    let mut writes_at: HashMap<i32, Vec<u32>> = HashMap::new();
    for n in g.ids() {
        if !on_vector_core(g.category(n)) {
            continue;
        }
        let t = sched.start_of(n);
        for &d in g.preds(n) {
            if g.category(d) == Category::VectorData {
                if let Some(s) = sched.slot_of(d) {
                    reads_at.entry(t).or_default().push(s);
                }
            }
        }
        let wb = t + latency(n);
        for &d in g.succs(n) {
            if g.category(d) == Category::VectorData {
                if let Some(s) = sched.slot_of(d) {
                    writes_at.entry(wb).or_default().push(s);
                }
            }
        }
    }
    let mut cycles: Vec<i32> = reads_at.keys().chain(writes_at.keys()).copied().collect();
    cycles.sort_unstable();
    cycles.dedup();
    for t in cycles {
        let empty = Vec::new();
        // Two operands in the same slot are one physical (broadcast) read.
        let mut r = reads_at.get(&t).unwrap_or(&empty).clone();
        r.sort_unstable();
        r.dedup();
        let w = writes_at.get(&t).unwrap_or(&empty);
        for v in check_access(spec, &r, w) {
            out.push(Violation::Memory {
                cycle: t,
                detail: v,
            });
        }
    }

    out
}

/// Full simulation: structural validation plus functional memory replay.
pub fn simulate(
    g: &Graph,
    spec: &ArchSpec,
    sched: &Schedule,
    inputs: &HashMap<NodeId, Value>,
) -> SimReport {
    let mut violations = validate_structure(g, spec, sched);

    // A schedule that cannot be indexed (or a cyclic graph) cannot be
    // replayed; report what validation found and stop before any of the
    // phases below would panic.
    let order = if check_shape(g, sched).is_empty() {
        g.topo_order()
    } else {
        None
    };
    let Some(order) = order else {
        if !violations
            .iter()
            .any(|v| matches!(v, Violation::MalformedSchedule { .. }))
        {
            violations.push(Violation::MalformedSchedule {
                detail: "cyclic graph: no topological order for functional replay".into(),
            });
        }
        return SimReport {
            violations,
            values: HashMap::new(),
            makespan: sched.makespan,
            lane_cycles: 0,
            utilization: 0.0,
            units: Vec::new(),
            reconfig_switches: 0,
            config_loads: 0,
            counters: SimCounters::default(),
        };
    };

    // Phase 1: functional evaluation in topological order.
    let mut values: HashMap<NodeId, Value> = HashMap::new();
    'eval: for &n in &order {
        match g.category(n) {
            c if c.is_data() => {
                if g.producer(n).is_none() {
                    match inputs.get(&n) {
                        Some(&v) => {
                            values.insert(n, v);
                        }
                        None => {
                            violations.push(Violation::MissingInput { data: n });
                        }
                    }
                }
                // Produced data gets its value when its producer runs.
            }
            _ => {
                let mut ins = Vec::with_capacity(g.preds(n).len());
                for &p in g.preds(n) {
                    match values.get(&p) {
                        Some(&v) => ins.push(v),
                        None => continue 'eval, // upstream input missing
                    }
                }
                let Some(op) = g.opcode(n) else {
                    violations.push(Violation::MalformedSchedule {
                        detail: format!("op node {n:?} has no opcode"),
                    });
                    continue 'eval;
                };
                match apply(&op, &ins) {
                    Ok(outs) => {
                        for (&d, v) in g.succs(n).iter().zip(outs) {
                            values.insert(d, v);
                        }
                    }
                    Err(e) => violations.push(Violation::Semantic {
                        op: n,
                        error: e.to_string(),
                    }),
                }
            }
        }
    }

    // Phase 2: memory replay. Writes land at the producer's write-back
    // cycle; application inputs are pre-loaded. Reads (vector-core issue
    // and index-unit reads) must find the expected datum.
    let mut mem = VectorMemory::new(spec.n_slots());
    #[derive(Clone, Copy)]
    enum Ev {
        Read {
            reader: NodeId,
            data: NodeId,
            slot: u32,
        },
        Write {
            data: NodeId,
            slot: u32,
        },
    }
    let mut events: Vec<(i32, u8, Ev)> = Vec::new(); // (cycle, order: read=0, write=1)
    for n in g.ids() {
        match g.category(n) {
            Category::VectorData => {
                let Some(slot) = sched.slot_of(n) else {
                    continue;
                };
                if slot >= spec.n_slots() {
                    continue;
                }
                match g.producer(n) {
                    None => events.push((-1, 1, Ev::Write { data: n, slot })),
                    Some(p) => {
                        // Write-back lands at the datum's start cycle; reads
                        // in the same cycle see the previous occupant.
                        let wb = sched.start_of(p) + spec.latency(&g.node(p).kind);
                        events.push((wb, 1, Ev::Write { data: n, slot }));
                    }
                }
            }
            c if c.is_op() => {
                for &d in g.preds(n) {
                    if g.category(d) == Category::VectorData {
                        if let Some(slot) = sched.slot_of(d) {
                            if slot < spec.n_slots() {
                                events.push((
                                    sched.start_of(n),
                                    0,
                                    Ev::Read {
                                        reader: n,
                                        data: d,
                                        slot,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // Per cycle: reads see the pre-write memory state (so a slot re-used
    // by a datum *starting* this cycle still serves its old occupant's
    // last read), except that a read of a datum *written this very cycle*
    // is satisfied by pipeline forwarding — the paper's constraint (4)
    // allows a consumer to start exactly at the datum's start cycle.
    events.sort_by_key(|&(t, ord, _)| (t, ord));
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].0;
        let mut j = i;
        while j < events.len() && events[j].0 == cycle {
            j += 1;
        }
        let this_cycle = &events[i..j];
        // Forwarding set: (slot, datum) written this cycle.
        let forwarded: Vec<(u32, NodeId)> = this_cycle
            .iter()
            .filter_map(|&(_, _, ev)| match ev {
                Ev::Write { data, slot } => Some((slot, data)),
                _ => None,
            })
            .collect();
        for &(_, _, ev) in this_cycle {
            if let Ev::Read { reader, data, slot } = ev {
                let ok = mem.read(slot, data).is_ok() || forwarded.contains(&(slot, data));
                if !ok {
                    let found = mem.read(slot, data).err().flatten();
                    violations.push(Violation::StaleRead {
                        reader,
                        data,
                        slot,
                        found,
                    });
                }
            }
        }
        for &(_, _, ev) in this_cycle {
            if let Ev::Write { data, slot } = ev {
                let v = values
                    .get(&data)
                    .copied()
                    .unwrap_or(Value::S(eit_ir::Cplx::ZERO));
                mem.write(slot, data, v);
            }
        }
        i = j;
    }

    // Metrics.
    let cs = ConfigStream::from_schedule(g, spec, sched);
    let counters = SimCounters::from_stream(&cs, spec);
    let lane_cycles = cs.lane_cycles_used();
    let total = (sched.makespan + 1).max(1) as f64;
    let utilization = cs.utilization(spec);
    let mut busy = vec![0i64; spec.units.units.len()];
    for n in g.ids() {
        if let Some(u) = spec.units.unit_of(&g.node(n).kind) {
            busy[u] += spec.duration(&g.node(n).kind) as i64;
        }
    }
    let vector_unit = spec.units.unit_index(OpClass::Vector);
    let units = spec
        .units
        .units
        .iter()
        .zip(busy)
        .enumerate()
        .map(|(u, (unit, busy))| UnitUtilization {
            name: unit.name.clone(),
            utilization: if Some(u) == vector_unit {
                utilization
            } else {
                (busy as f64 / (f64::from(unit.count) * total)).min(1.0)
            },
        })
        .collect();
    SimReport {
        utilization,
        units,
        reconfig_switches: cs.reconfig_switches(),
        config_loads: cs.config_loads(),
        lane_cycles,
        makespan: sched.makespan,
        violations,
        values,
        counters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_ir::{CoreOp, Cplx, DataKind, Opcode};

    /// a, b → add → out; a hand-built legal schedule.
    fn tiny() -> (Graph, Schedule, HashMap<NodeId, Value>) {
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
        let mut inputs = HashMap::new();
        inputs.insert(a, Value::V([Cplx::real(1.0); 4]));
        inputs.insert(b, Value::V([Cplx::real(2.0); 4]));
        (g, s, inputs)
    }

    #[test]
    fn legal_schedule_passes_and_computes() {
        let (g, s, inputs) = tiny();
        let r = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert!(r.ok(), "violations: {:?}", r.violations);
        let out = g.outputs()[0];
        assert_eq!(r.values[&out], Value::V([Cplx::real(3.0); 4]));
    }

    #[test]
    fn counters_track_banks_peaks_and_reconfigs() {
        let (g, s, inputs) = tiny();
        let rep = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        let c = &rep.counters;
        // One issuing cycle with 1 lane busy, the rest idle.
        assert_eq!(c.lane_histogram[1], 1);
        assert_eq!(c.lane_histogram[0], 7);
        // Slots 0 and 1 (banks 0, 1) read at cc 0; slot 2 written at cc 7.
        assert_eq!(c.bank_reads[0], 1);
        assert_eq!(c.bank_reads[1], 1);
        assert_eq!(c.bank_writes[2], 1);
        assert_eq!((c.peak_reads, c.peak_reads_cycle), (2, 0));
        assert_eq!((c.peak_writes, c.peak_writes_cycle), (1, 7));
        // The timeline is exactly the config loads, here the initial one.
        assert_eq!(c.reconfig_timeline.len(), rep.config_loads);
        assert_eq!(c.reconfig_timeline[0].0, 0);
    }

    #[test]
    fn premature_consumer_flagged() {
        let (g, mut s, inputs) = tiny();
        let out = g.outputs()[0];
        s.start[out.idx()] = 5; // before the pipeline finishes
        let r = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert!(r.violations.iter().any(|v| matches!(
            v,
            Violation::Precedence { .. } | Violation::DataStart { .. }
        )));
    }

    #[test]
    fn bank_conflict_flagged() {
        let (g, mut s, inputs) = tiny();
        let ins = g.inputs();
        s.slot[ins[0].idx()] = Some(0);
        s.slot[ins[1].idx()] = Some(16); // same bank, different line
        let r = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Memory { .. })));
    }

    #[test]
    fn missing_slot_flagged() {
        let (g, mut s, inputs) = tiny();
        let ins = g.inputs();
        s.slot[ins[0].idx()] = None;
        let r = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingSlot { .. })));
    }

    #[test]
    fn five_coissued_vector_ops_overflow_lanes() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let mut s_nodes = Vec::new();
        for i in 0..5 {
            let (o, out) = g.add_op_with_output(
                Opcode::vector(CoreOp::Add),
                &[a, b],
                DataKind::Vector,
                &format!("o{i}"),
            );
            s_nodes.push((o, out));
        }
        let mut s = Schedule::new(g.len());
        for (i, &(o, out)) in s_nodes.iter().enumerate() {
            s.start[o.idx()] = 0;
            s.start[out.idx()] = 7;
            s.slot[out.idx()] = Some(2 + i as u32);
        }
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.makespan = 7;
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::LaneOverflow { used: 5, .. })));
    }

    #[test]
    fn different_configs_same_cycle_flagged() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, d1) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "x");
        let (o2, d2) =
            g.add_op_with_output(Opcode::vector(CoreOp::Mul), &[a, b], DataKind::Vector, "y");
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[o2.idx()] = 0;
        s.start[d1.idx()] = 7;
        s.start[d2.idx()] = 7;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.slot[d1.idx()] = Some(2);
        s.slot[d2.idx()] = Some(3);
        s.makespan = 7;
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::ConfigConflict { cycle: 0 })));
    }

    #[test]
    fn accelerator_iterative_ops_cannot_overlap() {
        let mut g = Graph::new("t");
        let x = g.add_data(DataKind::Scalar, "x");
        let (o1, d1) = g.add_op_with_output(
            Opcode::Scalar(eit_ir::ScalarOp::Sqrt),
            &[x],
            DataKind::Scalar,
            "s1",
        );
        let (o2, d2) = g.add_op_with_output(
            Opcode::Scalar(eit_ir::ScalarOp::Sqrt),
            &[x],
            DataKind::Scalar,
            "s2",
        );
        let spec = ArchSpec::eit();
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[o2.idx()] = 1; // within sqrt's 2-cycle occupancy
        s.start[d1.idx()] = 8;
        s.start[d2.idx()] = 9;
        s.makespan = 9;
        let v = validate_structure(&g, &spec, &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::AcceleratorOverlap { .. })));
    }

    #[test]
    fn stale_read_detected_on_slot_reuse() {
        // d1 is read at cc 15, but d2 (starting at cc 14) reuses d1's slot
        // and physically overwrites it at cc 14 — a stale read.
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o1, d1) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "p1");
        let (o2, d2) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "p2");
        let (o3, d3) =
            g.add_op_with_output(Opcode::vector(CoreOp::Mul), &[d1, b], DataKind::Vector, "c");
        let mut s = Schedule::new(g.len());
        s.start[o1.idx()] = 0;
        s.start[d1.idx()] = 7;
        s.start[o2.idx()] = 7;
        s.start[d2.idx()] = 14;
        s.start[o3.idx()] = 15; // reads d1 at 15, after d2's write at 14
        s.start[d3.idx()] = 22;
        s.slot[a.idx()] = Some(0);
        s.slot[b.idx()] = Some(1);
        s.slot[d1.idx()] = Some(2);
        s.slot[d2.idx()] = Some(2); // same slot, overlapping lifetime
        s.slot[d3.idx()] = Some(3);
        s.makespan = 22;
        let mut inputs = HashMap::new();
        inputs.insert(a, Value::V([Cplx::real(1.0); 4]));
        inputs.insert(b, Value::V([Cplx::real(2.0); 4]));
        let r = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StaleRead { .. })));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SlotLifetimeOverlap { .. })));
    }

    #[test]
    fn missing_input_reported() {
        let (g, s, _) = tiny();
        let r = simulate(&g, &ArchSpec::eit(), &s, &HashMap::new());
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::MissingInput { .. })));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use eit_ir::{CoreOp, Cplx, DataKind, Opcode};

    /// Matrix op consuming/producing four vectors, hand-scheduled legally.
    #[test]
    fn matrix_op_simulates_functionally() {
        let mut g = Graph::new("m");
        let rows: Vec<NodeId> = (0..4)
            .map(|i| g.add_data(DataKind::Vector, &format!("r{i}")))
            .collect();
        let m = g.add_op(Opcode::matrix(CoreOp::SquSum), "squsum");
        for &r in &rows {
            g.add_edge(r, m);
        }
        let out = g.add_data(DataKind::Vector, "out");
        g.add_edge(m, out);

        let spec = ArchSpec::eit();
        let mut s = Schedule::new(g.len());
        s.start[out.idx()] = 7;
        for (k, &r) in rows.iter().enumerate() {
            s.slot[r.idx()] = Some(k as u32); // distinct banks, line 0
        }
        s.slot[out.idx()] = Some(4);
        s.makespan = 7;

        let mut inputs = HashMap::new();
        for (k, &r) in rows.iter().enumerate() {
            inputs.insert(r, Value::V([Cplx::real(k as f64 + 1.0); 4]));
        }
        let rep = simulate(&g, &spec, &s, &inputs);
        assert!(rep.ok(), "{:?}", rep.violations);
        // row k has 4 elements of value k+1 → squsum = 4(k+1)².
        let Value::V(v) = rep.values[&out] else {
            panic!()
        };
        for (k, &vk) in v.iter().enumerate() {
            let expect = 4.0 * ((k + 1) * (k + 1)) as f64;
            assert!(vk.approx_eq(Cplx::real(expect), 1e-9));
        }
        assert_eq!(rep.lane_cycles, 4);
    }

    #[test]
    fn negative_start_flagged() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let (o, d) =
            g.add_op_with_output(Opcode::vector(CoreOp::SquSum), &[a], DataKind::Scalar, "x");
        let mut s = Schedule::new(g.len());
        s.start[o.idx()] = -1;
        s.start[d.idx()] = 6;
        s.slot[a.idx()] = Some(0);
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::NegativeStart { .. })));
    }

    #[test]
    fn page_line_rule_enforced_in_simulation() {
        // Two inputs of one op in the same page but different lines.
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let b = g.add_data(DataKind::Vector, "b");
        let (o, d) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, b], DataKind::Vector, "x");
        let mut s = Schedule::new(g.len());
        s.start[o.idx()] = 0;
        s.start[d.idx()] = 7;
        s.slot[a.idx()] = Some(0); // bank 0, line 0, page 0
        s.slot[b.idx()] = Some(17); // bank 1, line 1, page 0 — same page!
        s.slot[d.idx()] = Some(2);
        s.makespan = 7;
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::Memory {
                    detail: crate::memory::AccessViolation::PageLineConflict { .. },
                    ..
                }
            )),
            "{v:?}"
        );
    }

    #[test]
    fn same_slot_double_read_is_one_broadcast() {
        // One op reading the same datum twice (a·conj(a)).
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let o = g.add_op(Opcode::vector(CoreOp::DotP), "dot");
        g.add_edge(a, o);
        g.add_edge(a, o);
        let d = g.add_data(DataKind::Scalar, "d");
        g.add_edge(o, d);
        let mut s = Schedule::new(g.len());
        s.start[d.idx()] = 7;
        s.slot[a.idx()] = Some(3);
        s.makespan = 7;
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn short_schedule_reports_malformed_instead_of_panicking() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let (_, _) =
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, a], DataKind::Vector, "x");
        let s = Schedule::new(1); // three nodes, one entry
        let v = validate_structure(&g, &ArchSpec::eit(), &s);
        assert!(
            matches!(v.as_slice(), [Violation::MalformedSchedule { .. }]),
            "{v:?}"
        );
        let rep = simulate(&g, &ArchSpec::eit(), &s, &HashMap::new());
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x, Violation::MalformedSchedule { .. })));
    }

    #[test]
    fn cyclic_graph_reports_malformed_instead_of_panicking() {
        let mut g = Graph::new("t");
        let a = g.add_data(DataKind::Vector, "a");
        let o = g.add_op(Opcode::vector(CoreOp::Add), "o");
        g.add_edge(a, o);
        g.add_edge(o, a); // cycle
        let s = Schedule::new(g.len());
        let rep = simulate(&g, &ArchSpec::eit(), &s, &HashMap::new());
        assert!(rep
            .violations
            .iter()
            .any(|x| matches!(x, Violation::MalformedSchedule { .. })));
    }

    #[test]
    fn invalid_spec_reports_malformed() {
        let (g, s, _) = {
            let mut g = Graph::new("t");
            let a = g.add_data(DataKind::Vector, "a");
            g.add_op_with_output(Opcode::vector(CoreOp::Add), &[a, a], DataKind::Vector, "x");
            let s = Schedule::new(g.len());
            (g, s, ())
        };
        let mut spec = ArchSpec::eit();
        spec.n_lanes = 0;
        let v = validate_structure(&g, &spec, &s);
        assert!(
            matches!(v.as_slice(), [Violation::MalformedSchedule { .. }]),
            "{v:?}"
        );
    }

    #[test]
    fn utilization_reflects_gaps() {
        let (g, s, inputs) = {
            // reuse tiny(): one op over 7 cycles → 1 lane-cycle of 4×8.
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
            let mut inputs = HashMap::new();
            inputs.insert(a, Value::V([Cplx::real(1.0); 4]));
            inputs.insert(b, Value::V([Cplx::real(2.0); 4]));
            (g, s, inputs)
        };
        let rep = simulate(&g, &ArchSpec::eit(), &s, &inputs);
        assert_eq!(rep.lane_cycles, 1);
        assert!((rep.utilization - 1.0 / 32.0).abs() < 1e-12);
    }
}
