//! The machine model (§1.1 of the paper), lifted into data.
//!
//! One struct gathers every architectural parameter the scheduler and the
//! simulator need: the lane geometry of the CMAC vector core, the paged
//! vector memory, and — new since the parametric-architecture refactor —
//! a data-driven [`UnitTable`] describing the functional units themselves
//! (name, opcode classes served, latency, occupancy, replication count).
//! Nothing downstream assumes the EIT's fixed three-unit mix any more;
//! [`ArchSpec::eit`] is merely the paper's instance of the table, and
//! [`ArchSpec::wide`] a doubled design-space variant. Both render to the
//! versioned XML format in [`crate::xml`] and reload bit-for-bit.

use eit_ir::{LatencyModel, NodeKind, OpClass};

/// One opcode class served by a functional unit: how long it takes, how
/// long it blocks the unit, and how many replicas it consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitOp {
    /// Which op class this row prices.
    pub class: OpClass,
    /// `l_i`: cycles from issue until the result is usable.
    pub latency: i32,
    /// `d_i`: cycles the op occupies the unit (initiation interval of the
    /// unit for this class).
    pub occupancy: i32,
    /// Replicas of the unit one op consumes; `0` means *all* of them
    /// (e.g. a matrix op takes the whole lane group).
    pub width: u32,
}

/// A replicated functional unit and the opcode classes it serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncUnit {
    /// Stable name, used for XML, hashing, and render row labels.
    pub name: String,
    /// Number of identical replicas (lanes for the vector core).
    pub count: u32,
    /// The classes this unit serves, with per-class timing.
    pub ops: Vec<UnitOp>,
}

/// The functional-unit table of one architecture. Unit order is
/// significant: resource constraints are posted in table order, so two
/// specs with the same units in a different order are different machines
/// as far as trace determinism is concerned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTable {
    pub units: Vec<FuncUnit>,
}

impl UnitTable {
    /// The paper's three-unit mix, priced by a [`LatencyModel`]: an
    /// `n_lanes`-wide vector core (matrix ops take every lane), a
    /// unit-capacity scalar accelerator with split iterative/simple
    /// timing, and a unit-capacity index/merge unit.
    pub fn classic(m: &LatencyModel, n_lanes: u32) -> UnitTable {
        UnitTable {
            units: vec![
                FuncUnit {
                    name: "vector-core".into(),
                    count: n_lanes,
                    ops: vec![
                        UnitOp {
                            class: OpClass::Vector,
                            latency: m.vector_pipeline,
                            occupancy: m.vector_duration,
                            width: 1,
                        },
                        UnitOp {
                            class: OpClass::Matrix,
                            latency: m.vector_pipeline,
                            occupancy: m.vector_duration,
                            width: 0,
                        },
                    ],
                },
                FuncUnit {
                    name: "scalar-accel".into(),
                    count: 1,
                    ops: vec![
                        UnitOp {
                            class: OpClass::ScalarIterative,
                            latency: m.accel_iterative,
                            occupancy: m.accel_duration_iterative,
                            width: 1,
                        },
                        UnitOp {
                            class: OpClass::ScalarSimple,
                            latency: m.accel_simple,
                            occupancy: m.accel_duration_simple,
                            width: 1,
                        },
                    ],
                },
                FuncUnit {
                    name: "index-merge".into(),
                    count: 1,
                    ops: vec![
                        UnitOp {
                            class: OpClass::Index,
                            latency: m.index_merge,
                            occupancy: m.index_merge,
                            width: 1,
                        },
                        UnitOp {
                            class: OpClass::Merge,
                            latency: m.index_merge,
                            occupancy: m.index_merge,
                            width: 1,
                        },
                    ],
                },
            ],
        }
    }

    /// The unit serving `class` (first match) and its pricing row.
    pub fn lookup(&self, class: OpClass) -> Option<(&FuncUnit, &UnitOp)> {
        self.units
            .iter()
            .find_map(|u| u.ops.iter().find(|op| op.class == class).map(|op| (u, op)))
    }

    /// Latency of one op class; `None` if no unit serves it.
    pub fn class_latency(&self, class: OpClass) -> Option<i32> {
        self.lookup(class).map(|(_, op)| op.latency)
    }

    /// Occupancy of one op class; `None` if no unit serves it.
    pub fn class_occupancy(&self, class: OpClass) -> Option<i32> {
        self.lookup(class).map(|(_, op)| op.occupancy)
    }

    /// Replicas one op of `class` consumes, with `width = 0` resolved to
    /// the unit's full replica count.
    pub fn class_width(&self, class: OpClass) -> Option<u32> {
        self.lookup(class)
            .map(|(u, op)| if op.width == 0 { u.count } else { op.width })
    }

    /// `l_i` for a node kind (0 for data nodes and unserved classes —
    /// [`ArchSpec::validate`] guarantees the latter never happens on a
    /// spec the pipeline accepted).
    pub fn latency(&self, kind: &NodeKind) -> i32 {
        OpClass::of(kind)
            .and_then(|c| self.class_latency(c))
            .unwrap_or(0)
    }

    /// `d_i` for a node kind (0 for data nodes and unserved classes).
    pub fn duration(&self, kind: &NodeKind) -> i32 {
        OpClass::of(kind)
            .and_then(|c| self.class_occupancy(c))
            .unwrap_or(0)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArchSpec {
    /// Parallel processing lanes in PE3 (each four CMACs). A vector op
    /// occupies one lane, a matrix op all of them.
    pub n_lanes: u32,
    /// Memory banks of the vector memory.
    pub n_banks: u32,
    /// Banks per page (pages share one access descriptor).
    pub page_size: u32,
    /// Slots (vector-sized words) per bank — the paper's "memory size"
    /// sweep of Table 1 varies the total slot count.
    pub slots_per_bank: u32,
    /// Vectors readable from the whole memory per cycle (two 4×4
    /// matrices).
    pub max_vector_reads: u32,
    /// Vectors writable per cycle (one 4×4 matrix).
    pub max_vector_writes: u32,
    /// Cycles lost when the vector core's configuration changes between
    /// two consecutive (issuing) instructions.
    pub reconfig_cost: i32,
    /// Optional cap on the usable slot count (the paper's Table 1 sweeps
    /// budgets like 10 that are not multiples of the bank count); slots
    /// `0..cap` of the linear enumeration remain usable.
    pub slot_cap: Option<u32>,
    /// The functional-unit table: which units exist, what they serve, and
    /// at what latency/occupancy. Shared by the scheduler, simulator and
    /// both verifiers.
    pub units: UnitTable,
}

impl ArchSpec {
    /// The EIT instance: 4 lanes, 7-stage pipeline, 16 banks in 4-bank
    /// pages, 8 reads + 4 writes per cycle, 1-cycle reconfiguration.
    pub fn eit() -> Self {
        ArchSpec {
            n_lanes: 4,
            n_banks: 16,
            page_size: 4,
            slots_per_bank: 4, // 64 slots by default; Table 1 sweeps this
            max_vector_reads: 8,
            max_vector_writes: 4,
            reconfig_cost: 1,
            slot_cap: None,
            units: UnitTable::classic(&LatencyModel::default(), 4),
        }
    }

    /// A wider hypothetical machine for design-space studies: double the
    /// EIT everywhere — 8 lanes, 32 banks (still 4-bank pages), 8 slots
    /// per bank (256 slots), double the port budgets.
    pub fn wide() -> Self {
        let mut s = Self::eit();
        s.n_lanes = 8;
        s.n_banks = 32;
        s.slots_per_bank = 8;
        s.max_vector_reads = 16;
        s.max_vector_writes = 8;
        s.units = UnitTable::classic(&LatencyModel::default(), 8);
        s
    }

    /// The builtin presets by name; these are the values `--arch eit` /
    /// `--arch wide` load, and they render to the same XML format as any
    /// custom machine.
    pub fn preset(name: &str) -> Option<ArchSpec> {
        match name {
            "eit" => Some(Self::eit()),
            "wide" => Some(Self::wide()),
            _ => None,
        }
    }

    /// Names accepted by [`ArchSpec::preset`].
    pub fn preset_names() -> &'static [&'static str] {
        &["eit", "wide"]
    }

    /// Same machine with a different total slot budget. `n_slots` need not
    /// be a multiple of the bank count; the scheduler simply caps the
    /// linear slot enumeration at `n_slots`.
    pub fn with_slots(mut self, n_slots: u32) -> Self {
        self.slots_per_bank = n_slots.div_ceil(self.n_banks);
        self.slot_cap = Some(n_slots);
        self
    }

    /// Largest latency, occupancy or reconfiguration cost a valid spec
    /// may declare. The models add a few of these per node and sum them
    /// over the graph into the serial horizon, all in the solver's `i32`
    /// domains; no vector pipeline is a million cycles deep.
    pub const MAX_CYCLES: i32 = 1 << 20;

    /// Largest lane, bank or unit count a valid spec may declare. Counts
    /// become `i32` resource capacities in the models.
    pub const MAX_COUNT: u32 = 1 << 16;

    /// Largest physical slot count (`banks × slots_per_bank`) a valid
    /// spec may declare. The slot-geometry propagator enumerates a slot
    /// domain per vector datum, so this bounds its memory as well as
    /// keeping slots inside the solver's `i32` values.
    pub const MAX_SLOTS: u32 = 1 << 20;

    /// Total number of usable memory slots. The bank × slot product
    /// saturates at `u32::MAX` instead of wrapping; [`ArchSpec::validate`]
    /// rejects every spec with more than [`ArchSpec::MAX_SLOTS`] slots.
    pub fn n_slots(&self) -> u32 {
        let physical = self.n_banks.saturating_mul(self.slots_per_bank);
        self.slot_cap.map_or(physical, |c| c.min(physical))
    }

    /// Number of pages.
    pub fn n_pages(&self) -> u32 {
        self.n_banks / self.page_size
    }

    /// Pipeline depth in cycles (= vector-op latency).
    pub fn pipeline_depth(&self) -> i32 {
        self.units.class_latency(OpClass::Vector).unwrap_or(0)
    }

    /// Lanes a matrix op occupies on this machine (the resolved width of
    /// the matrix class — every lane, on a spec that passes
    /// [`ArchSpec::validate`]).
    pub fn matrix_lanes(&self) -> u32 {
        self.units
            .class_width(OpClass::Matrix)
            .unwrap_or(self.n_lanes)
    }

    /// `l_i` for a node kind, from the unit table.
    pub fn latency(&self, kind: &NodeKind) -> i32 {
        self.units.latency(kind)
    }

    /// `d_i` for a node kind, from the unit table.
    pub fn duration(&self, kind: &NodeKind) -> i32 {
        self.units.duration(kind)
    }

    /// Latency function over a graph, for `Graph` analyses.
    pub fn latency_of<'g>(&'g self, g: &'g eit_ir::Graph) -> impl Fn(eit_ir::NodeId) -> i32 + 'g {
        move |id| self.latency(&g.node(id).kind)
    }

    /// Sanity-check the parameter set; returns a description of the first
    /// inconsistency found. Error messages name the XML attribute they
    /// refer to, in the same style as the parsers.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_lanes == 0 {
            return Err("lanes=\"0\": must be positive".into());
        }
        if self.n_banks == 0 {
            return Err("banks=\"0\": must be positive".into());
        }
        if self.page_size == 0 {
            return Err("page_size=\"0\": must be positive".into());
        }
        if self.page_size > self.n_banks {
            return Err(format!(
                "page_size=\"{}\": exceeds the bank count (banks=\"{}\")",
                self.page_size, self.n_banks
            ));
        }
        if !self.n_banks.is_multiple_of(self.page_size) {
            return Err(format!(
                "banks=\"{}\": not a multiple of page_size=\"{}\"",
                self.n_banks, self.page_size
            ));
        }
        if self.slots_per_bank == 0 {
            return Err("slots_per_bank=\"0\": memory needs at least one slot per bank".into());
        }
        let physical = self.n_banks as u64 * self.slots_per_bank as u64;
        if physical > Self::MAX_SLOTS as u64 {
            return Err(format!(
                "slots_per_bank=\"{}\": banks=\"{}\" × slots_per_bank is {physical} slots, \
                 more than the solver's limit of {}",
                self.slots_per_bank,
                self.n_banks,
                Self::MAX_SLOTS
            ));
        }
        for (attr, v) in [("lanes", self.n_lanes), ("banks", self.n_banks)] {
            if v > Self::MAX_COUNT {
                return Err(format!(
                    "{attr}=\"{v}\": exceeds the limit of {}",
                    Self::MAX_COUNT
                ));
            }
        }
        if self.max_vector_reads == 0 {
            return Err("max_vector_reads=\"0\": must be positive".into());
        }
        if self.max_vector_writes == 0 {
            return Err("max_vector_writes=\"0\": must be positive".into());
        }
        // Each bank serves at most one read and one write per cycle
        // (§3.4), so a port budget beyond the bank count can never be
        // reached — reject it as a description error.
        if self.max_vector_reads > self.n_banks {
            return Err(format!(
                "max_vector_reads=\"{}\": exceeds what the bank geometry can serve \
                 (one read per bank per cycle, banks=\"{}\")",
                self.max_vector_reads, self.n_banks
            ));
        }
        if self.max_vector_writes > self.n_banks {
            return Err(format!(
                "max_vector_writes=\"{}\": exceeds what the bank geometry can serve \
                 (one write per bank per cycle, banks=\"{}\")",
                self.max_vector_writes, self.n_banks
            ));
        }
        if self.reconfig_cost < 0 {
            return Err(format!(
                "reconfig_cost=\"{}\": cannot be negative",
                self.reconfig_cost
            ));
        }
        if self.reconfig_cost > Self::MAX_CYCLES {
            return Err(format!(
                "reconfig_cost=\"{}\": exceeds the limit of {} cycles",
                self.reconfig_cost,
                Self::MAX_CYCLES
            ));
        }
        if self.slot_cap == Some(0) {
            return Err("slot_cap=\"0\": must be positive when present".into());
        }

        // Unit table.
        if self.units.units.is_empty() {
            return Err("arch: needs at least one <unit>".into());
        }
        let mut seen_names: Vec<&str> = Vec::new();
        let mut seen_classes: Vec<OpClass> = Vec::new();
        for u in &self.units.units {
            if u.name.is_empty() {
                return Err("unit name=\"\": must be non-empty".into());
            }
            if seen_names.contains(&u.name.as_str()) {
                return Err(format!("unit name=\"{}\": duplicate unit name", u.name));
            }
            seen_names.push(&u.name);
            if u.count == 0 {
                return Err(format!(
                    "unit name=\"{}\" count=\"0\": must be positive",
                    u.name
                ));
            }
            if u.count > Self::MAX_COUNT {
                return Err(format!(
                    "unit name=\"{}\" count=\"{}\": exceeds the limit of {}",
                    u.name,
                    u.count,
                    Self::MAX_COUNT
                ));
            }
            if u.ops.is_empty() {
                return Err(format!(
                    "unit name=\"{}\": serves no op class (needs at least one <op>)",
                    u.name
                ));
            }
            for op in &u.ops {
                if seen_classes.contains(&op.class) {
                    return Err(format!(
                        "op class=\"{}\": served by more than one unit",
                        op.class
                    ));
                }
                seen_classes.push(op.class);
                if op.latency < 1 {
                    return Err(format!(
                        "op class=\"{}\" latency=\"{}\": must be at least 1",
                        op.class, op.latency
                    ));
                }
                if op.occupancy < 1 {
                    return Err(format!(
                        "op class=\"{}\" occupancy=\"{}\": must be at least 1",
                        op.class, op.occupancy
                    ));
                }
                for (attr, v) in [("latency", op.latency), ("occupancy", op.occupancy)] {
                    if v > Self::MAX_CYCLES {
                        return Err(format!(
                            "op class=\"{}\" {attr}=\"{v}\": exceeds the limit of {} cycles",
                            op.class,
                            Self::MAX_CYCLES
                        ));
                    }
                }
                if op.width > u.count {
                    return Err(format!(
                        "op class=\"{}\" width=\"{}\": exceeds unit count=\"{}\"",
                        op.class, op.width, u.count
                    ));
                }
            }
        }
        for c in OpClass::ALL {
            if !seen_classes.contains(&c) {
                return Err(format!("arch: no unit serves op class=\"{c}\""));
            }
        }
        // The lane budget and the vector-core replica count are the same
        // physical thing; keep them in lock-step so the memory rules
        // (keyed on n_lanes) and the unit constraints cannot drift apart.
        for c in [OpClass::Vector, OpClass::Matrix] {
            if let Some((u, _)) = self.units.lookup(c) {
                if u.count != self.n_lanes {
                    return Err(format!(
                        "unit name=\"{}\" count=\"{}\": the unit serving class=\"{}\" \
                         must have count equal to lanes=\"{}\"",
                        u.name, u.count, c, self.n_lanes
                    ));
                }
            }
        }
        // A matrix op fills the vector core (the paper's "all lanes at
        // once"); the schedulers rely on it to keep matrix ops from
        // co-issuing with anything else on the core.
        if let Some((u, op)) = self.units.lookup(OpClass::Matrix) {
            if op.width != 0 && op.width != u.count {
                return Err(format!(
                    "op class=\"{}\" width=\"{}\": a matrix op occupies every lane; \
                     use width=\"0\" or the unit count=\"{}\"",
                    op.class, op.width, u.count
                ));
            }
        }
        Ok(())
    }
}

impl Default for ArchSpec {
    fn default() -> Self {
        Self::eit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eit_instance_matches_paper() {
        let a = ArchSpec::eit();
        assert_eq!(a.n_lanes, 4);
        assert_eq!(a.n_banks, 16);
        assert_eq!(a.page_size, 4);
        assert_eq!(a.n_pages(), 4);
        assert_eq!(a.max_vector_reads, 8);
        assert_eq!(a.max_vector_writes, 4);
        assert_eq!(a.pipeline_depth(), 7);
        assert_eq!(a.matrix_lanes(), 4);
        assert_eq!(a.n_slots(), 64);
    }

    #[test]
    fn presets_validate() {
        ArchSpec::eit().validate().unwrap();
        ArchSpec::wide().validate().unwrap();
        assert_eq!(ArchSpec::wide().n_lanes, 8);
        assert_eq!(ArchSpec::wide().n_pages(), 8);
        assert_eq!(ArchSpec::preset("eit"), Some(ArchSpec::eit()));
        assert_eq!(ArchSpec::preset("wide"), Some(ArchSpec::wide()));
        assert_eq!(ArchSpec::preset("weird"), None);
    }

    #[test]
    fn wide_doubles_the_memory_too() {
        // Regression: wide() used to leave slots_per_bank at the EIT
        // default, silently giving the "double everything" machine only
        // 128 slots.
        let w = ArchSpec::wide();
        assert_eq!(w.slots_per_bank, 8);
        assert_eq!(w.n_slots(), 256);
        assert_eq!(w.matrix_lanes(), 8);
        w.validate().unwrap();
    }

    #[test]
    fn invalid_parameter_sets_are_rejected() {
        let mut s = ArchSpec::eit();
        s.page_size = 3; // 16 % 3 != 0
        assert!(s.validate().unwrap_err().starts_with("banks=\"16\""));
        let mut s = ArchSpec::eit();
        s.n_lanes = 0;
        assert!(s.validate().is_err());
        let mut s = ArchSpec::eit();
        s.reconfig_cost = -1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn strengthened_validation_names_the_attribute() {
        let mut s = ArchSpec::eit();
        s.page_size = 32; // > n_banks
        assert!(s.validate().unwrap_err().starts_with("page_size=\"32\""));

        let mut s = ArchSpec::eit();
        s.slot_cap = Some(0);
        assert!(s.validate().unwrap_err().starts_with("slot_cap=\"0\""));

        let mut s = ArchSpec::eit();
        s.max_vector_reads = 17; // 16 banks serve at most 16 reads
        assert!(s
            .validate()
            .unwrap_err()
            .starts_with("max_vector_reads=\"17\""));

        let mut s = ArchSpec::eit();
        s.max_vector_writes = 17;
        assert!(s
            .validate()
            .unwrap_err()
            .starts_with("max_vector_writes=\"17\""));
    }

    #[test]
    fn specs_overflowing_the_solver_domains_are_rejected() {
        // banks × slots_per_bank used to wrap in u32 and reach the solver
        // as an empty slot domain.
        let mut s = ArchSpec::eit();
        s.n_banks = 2_000_000_000;
        assert_eq!(s.n_slots(), u32::MAX);
        assert!(s
            .validate()
            .unwrap_err()
            .starts_with("slots_per_bank=\"4\""));
        let mut s = ArchSpec::eit();
        s.slots_per_bank = 1_000_000_000;
        assert!(s
            .validate()
            .unwrap_err()
            .contains("more than the solver's limit"));
        // The largest slot count within the limit is accepted.
        let mut s = ArchSpec::eit();
        s.n_banks = 4;
        s.max_vector_reads = 4;
        s.slots_per_bank = ArchSpec::MAX_SLOTS / 4;
        s.validate().unwrap();
        s.slots_per_bank += 1;
        assert!(s
            .validate()
            .unwrap_err()
            .contains("more than the solver's limit"));
        // 2^31 - 2 slots fit i32 but would make the slot-geometry
        // propagator enumerate billions of values.
        let mut s = ArchSpec::eit();
        s.n_banks = 2_147_483_646;
        s.page_size = 2;
        s.slots_per_bank = 1;
        assert!(s.validate().unwrap_err().contains("banks=\"2147483646\""));
        // A lane count past i32 used to wrap into a negative capacity.
        let mut s = ArchSpec::eit();
        s.n_lanes = 4_000_000_000;
        s.units.units[0].count = 4_000_000_000; // the vector core
        assert!(s
            .validate()
            .unwrap_err()
            .starts_with("lanes=\"4000000000\""));
        let mut s = ArchSpec::eit();
        s.n_banks = ArchSpec::MAX_COUNT * 2;
        s.slots_per_bank = 1;
        assert!(s.validate().unwrap_err().starts_with("banks="));
        let mut s = ArchSpec::eit();
        s.units.units[1].count = ArchSpec::MAX_COUNT + 1;
        assert!(s.validate().unwrap_err().contains("exceeds the limit"));
        let mut s = ArchSpec::eit();
        s.units.units[1].count = ArchSpec::MAX_COUNT;
        s.validate().unwrap();

        // Cycle counts are summed over the graph into the horizon.
        let mut s = ArchSpec::eit();
        s.units.units[0].ops[0].latency = 2_000_000_000;
        assert!(s.validate().unwrap_err().contains("latency=\"2000000000\""));
        let mut s = ArchSpec::eit();
        s.units.units[1].ops[1].occupancy = ArchSpec::MAX_CYCLES + 1;
        assert!(s.validate().unwrap_err().contains("occupancy="));
        let mut s = ArchSpec::eit();
        s.reconfig_cost = ArchSpec::MAX_CYCLES + 1;
        assert!(s.validate().unwrap_err().starts_with("reconfig_cost="));
        let mut s = ArchSpec::eit();
        s.units.units[0].ops[0].latency = ArchSpec::MAX_CYCLES;
        s.validate().unwrap();
    }

    #[test]
    fn unit_table_inconsistencies_are_rejected() {
        // Lane count and vector-core replica count must agree.
        let mut s = ArchSpec::eit();
        s.n_lanes = 2;
        assert!(s.validate().unwrap_err().contains("count"));

        // A class served twice is ambiguous.
        let mut s = ArchSpec::eit();
        let extra = s.units.units[1].clone();
        s.units.units.push(FuncUnit {
            name: "accel2".into(),
            ..extra
        });
        assert!(s.validate().unwrap_err().contains("more than one unit"));

        // Every class must be served.
        let mut s = ArchSpec::eit();
        s.units.units.pop();
        assert!(s.validate().unwrap_err().contains("no unit serves"));

        // Width cannot exceed the replica count.
        let mut s = ArchSpec::eit();
        s.units.units[1].ops[0].width = 5;
        assert!(s.validate().unwrap_err().contains("width=\"5\""));

        // A matrix op narrower than the core would co-issue with other
        // vector-core ops, which neither scheduler models.
        let mut s = ArchSpec::eit();
        s.units.units[0].ops[1].width = 2;
        assert!(s.validate().unwrap_err().contains("width=\"2\""));
        s.units.units[0].ops[1].width = 4;
        s.validate().unwrap();
    }

    #[test]
    fn unit_table_lookups_price_the_classic_mix() {
        let s = ArchSpec::eit();
        assert_eq!(s.units.class_latency(OpClass::Vector), Some(7));
        assert_eq!(s.units.class_latency(OpClass::Matrix), Some(7));
        assert_eq!(s.units.class_latency(OpClass::ScalarIterative), Some(8));
        assert_eq!(s.units.class_latency(OpClass::ScalarSimple), Some(2));
        assert_eq!(s.units.class_latency(OpClass::Index), Some(1));
        assert_eq!(s.units.class_occupancy(OpClass::ScalarIterative), Some(2));
        assert_eq!(s.units.class_width(OpClass::Vector), Some(1));
        assert_eq!(s.units.class_width(OpClass::Matrix), Some(4)); // width 0 = all
    }

    #[test]
    fn slot_budget_caps_exactly() {
        let a = ArchSpec::eit().with_slots(33);
        assert_eq!(a.slots_per_bank, 3);
        assert_eq!(a.n_slots(), 33);
        let b = ArchSpec::eit().with_slots(64);
        assert_eq!(b.n_slots(), 64);
        let c = ArchSpec::eit().with_slots(10);
        assert_eq!(c.n_slots(), 10);
    }
}
