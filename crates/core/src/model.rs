//! The combined scheduling + memory-allocation constraint model
//! (§3.3–3.5 of the paper) and its solution procedure.
//!
//! Constraint-by-constraint mapping to the paper, with the helper that
//! posts each row. The helpers are shared: the modulo probe
//! ([`crate::modulo::build_probe`]) posts (1)/(4), (2) and (3) through them,
//! and the steady-state allocator ([`crate::alloc`]) posts (6)–(11)
//! through `post_memory` over constant starts.
//!
//! | Paper | Here | Posted by |
//! |---|---|---|
//! | (1) `s_i + l_i ≤ s_j` on edges | [`eit_cp::Model::precedence`] | `post_precedences` |
//! | (2) unit capacity | one `Cumulative` per unit of the table: the lanes over vector+matrix ops, r∈{1,4}, cap 4; the accelerator and index/merge units at cap 1 | `post_unit_capacities` |
//! | (3) `s_i ≠ s_j` for differently-configured vector ops | one `one_config_per_cycle` over (start, configuration), pruning as the pairwise `s_i ≠ s_j` would | `post_config_separation` |
//! | (4) data start = producer completion | no constraint: a produced datum's start is a view of its producer's start, shifted by the latency (`Store::view`) | `post_precedences` |
//! | (5) makespan objective | completion views (start + latency) + `max_of`, minimized | [`build_model`] |
//! | (6) slot/line/page channeling | `slot_geometry` | `post_memory` |
//! | (7) same-op input compatibility | `page_line_implies` | `post_memory` |
//! | (8)/(9) co-scheduled input/output compatibility | `cond_same_time` over co-issuable op pairs; over two fixed starts, nothing (unequal) or `page_line_implies` (equal) | `post_memory` |
//! | (10) lifetimes | `life ≥ s_c − s_d` per consumer (`linear_leq`), `life ≥ 1`; only lower bounds, since `Diff2` prunes on the minimum; a constant when every endpoint is fixed | `post_memory` |
//! | (11) slot reuse | `Diff2` over `(s, slot, life, 1)` rectangles | `post_memory` |
//! | §3.5 search | [`Phase`]s over op starts → slots; a datum's start is fixed with its producer's (4), so the paper's data-start phase has nothing to branch on | [`build_model`] |

use crate::obs::PhaseTimings;
use eit_arch::{ArchSpec, Schedule};
use eit_cp::props::cumulative::CumTask;
use eit_cp::props::diff2::Rect;
use eit_cp::props::reify::GuardedPair;
use eit_cp::trace::TraceHandle;
use eit_cp::{
    minimize, Model, Phase, PropProfile, SearchConfig, SearchStats, SearchStatus, VarId, VarSel,
};
use eit_ir::{Category, Graph, NodeId, OpClass, VectorConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Options for [`schedule`].
#[derive(Clone, Debug)]
pub struct SchedulerOptions {
    /// Include the memory-allocation constraints (6)–(11). Without them
    /// the model is pure scheduling — the paper's manual-baseline setting.
    pub memory: bool,
    /// Solver wall-clock budget.
    pub timeout: Option<Duration>,
    /// Structured search-event sink, forwarded to the solver.
    pub trace: Option<TraceHandle>,
    /// Emit a [`eit_cp::trace::SearchEvent::StateHash`] digest of the
    /// store every N search nodes (`None`/0 = off); only meaningful with
    /// a trace attached.
    pub state_hash_every: Option<u64>,
    /// Per-propagator profiling with wall-time attribution; the profile
    /// comes back in [`ScheduleResult::propagator_profile`].
    pub profile: bool,
    /// Cooperative cancellation (service deadlines).
    /// A deadline-bearing token ([`eit_cp::CancelToken::with_deadline`])
    /// enforces a per-request wall-clock budget without a watchdog
    /// thread. Excluded from [`crate::rr::SolveKey::schedule`] like
    /// `timeout`: budgets shape *when* a run stops, not its trajectory.
    pub cancel: Option<eit_cp::CancelToken>,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            memory: true,
            timeout: Some(Duration::from_secs(600)), // the paper's 10 min
            trace: None,
            state_hash_every: None,
            profile: false,
            cancel: None,
        }
    }
}

impl SchedulerOptions {
    /// The branch-and-bound config for `phases` under these options: the
    /// one [`schedule`] runs.
    pub fn search_config(&self, phases: Vec<Phase>) -> SearchConfig {
        SearchConfig {
            phases,
            timeout: self.timeout,
            trace: self.trace.clone(),
            state_hash_every: self.state_hash_every,
            cancel: self.cancel.clone(),
            ..Default::default()
        }
    }
}

/// The constructed CP model with its variable handles.
pub struct BuiltModel {
    pub model: Model,
    /// Start variable per node.
    pub start: Vec<VarId>,
    /// Slot variable per node (`Some` for vector data when memory is on).
    pub slot: Vec<Option<VarId>>,
    /// Makespan objective.
    pub objective: VarId,
    /// The §3.5 search: op starts, then slots (when memory is on).
    pub phases: Vec<Phase>,
    pub horizon: i32,
    /// Build-time spans: `model_build` (total) and the nested
    /// `longest_path` preprocessing.
    pub timings: PhaseTimings,
}

/// Largest serial horizon the models accept: half the `i32` range, so
/// the sums built on it (makespan, lifetimes, `ii·k + t`) still fit.
pub const MAX_HORIZON: i32 = i32::MAX / 2;

/// A safe horizon: every op executed serially. Saturates at
/// [`MAX_HORIZON`]; the entry points refuse such graphs first with
/// [`checked_horizon`].
pub fn serial_horizon(g: &Graph, spec: &ArchSpec) -> i32 {
    checked_horizon(g, spec).unwrap_or(MAX_HORIZON)
}

/// The serial horizon, or why it does not fit the solver's domains.
pub fn checked_horizon(g: &Graph, spec: &ArchSpec) -> Result<i32, String> {
    let h: i64 = g
        .ids()
        .map(|i| {
            spec.latency(&g.node(i).kind)
                .max(spec.duration(&g.node(i).kind)) as i64
        })
        .sum();
    if h > MAX_HORIZON as i64 {
        return Err(format!(
            "serial horizon of {h} cycles exceeds the solver's limit of {MAX_HORIZON}"
        ));
    }
    Ok((h as i32).max(1))
}

/// Build the paper's model for `g` on `spec`. A cyclic graph builds a
/// model that root propagation refutes: its precedences chase each other
/// past the horizon.
pub fn build_model(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> BuiltModel {
    let build_start = Instant::now();
    let mut timings = PhaseTimings::new();
    let horizon = serial_horizon(g, spec);
    let mut m = Model::new();

    // --- start variables ---------------------------------------------------
    let op_start: Vec<Option<VarId>> = g
        .ids()
        .map(|i| {
            g.category(i)
                .is_op()
                .then(|| m.new_var_named(0, horizon, &format!("s_{}", g.node(i).name)))
        })
        .collect();
    let start = post_precedences(&mut m, g, spec, &op_start, horizon);

    let latency = |i: NodeId| spec.latency(&g.node(i).kind);

    // Longest-path preprocessing: earliest starts tighten every domain's
    // lower bound, and the critical path is a sound lower bound on the
    // makespan (these are implied by (1)/(4) but save the solver from
    // rediscovering them at every node). A cyclic graph has neither.
    let es = timings.time("longest_path", || {
        g.least_starts(&latency, &|_, ready| ready)
    });
    let mut critical_path = 0;
    for (i, &e) in g.ids().zip(es.as_deref().unwrap_or_default()) {
        m.store
            .remove_below(start[i.idx()], e)
            .expect("earliest start exceeds horizon");
        critical_path = critical_path.max(e + latency(i));
    }

    post_unit_capacities(&mut m, g, spec, |i| start[i.idx()]);
    post_config_separation(&mut m, g, |i| start[i.idx()]);

    // (5) makespan = max completion over op nodes; a completion is a
    // view of the op's start.
    let objective = m.new_var_named(critical_path, horizon + spec.pipeline_depth(), "makespan");
    let completions: Vec<VarId> = g
        .ids()
        .filter(|&i| g.category(i).is_op())
        .map(|i| m.view(start[i.idx()], latency(i)))
        .collect();
    m.max_of(completions, objective);

    let slot = if opts.memory {
        post_memory(&mut m, g, spec, &start, horizon + spec.pipeline_depth())
    } else {
        vec![None; g.len()]
    };

    // --- §3.5 search: op starts, then slots -----------------------------------
    let op_starts: Vec<VarId> = op_start.iter().flatten().copied().collect();
    let slots: Vec<VarId> = g.ids().filter_map(|i| slot[i.idx()]).collect();
    let mut phases = vec![Phase::new(op_starts, VarSel::SmallestMin)];
    if !slots.is_empty() {
        phases.push(Phase::new(slots, VarSel::FirstFail));
    }

    timings.push("model_build", build_start.elapsed());

    BuiltModel {
        model: m,
        start,
        slot,
        objective,
        phases,
        horizon,
        timings,
    }
}

/// The start variable of every node over the op starts `op_start`
/// (absolute starts, also in the modulo probe), with (1) and (4). An
/// application input starts at the constant 0 (§3.3.3). A produced
/// datum's start is (4) itself: a view of its producer's start shifted
/// by the producer's latency, so outputs of one op share one view. Its
/// producer's start is capped so the datum starts by `data_max`. Every
/// edge into an op gets the precedence (1).
pub(crate) fn post_precedences(
    m: &mut Model,
    g: &Graph,
    spec: &ArchSpec,
    op_start: &[Option<VarId>],
    data_max: i32,
) -> Vec<VarId> {
    let zero = m.new_const(0);
    let latency = |n: NodeId| spec.latency(&g.node(n).kind);
    let s: Vec<VarId> = g
        .ids()
        .map(|n| match op_start[n.idx()] {
            Some(op) => op,
            None => match g.producer(n) {
                None => zero,
                Some(p) => {
                    let sp = op_start[p.idx()].expect("a producer is an op");
                    m.store
                        .remove_above(sp, data_max - latency(p))
                        .expect("the horizon covers every latency");
                    m.view(sp, latency(p))
                }
            },
        })
        .collect();
    for (from, to) in g.edges() {
        if g.category(to).is_op() {
            m.precedence(s[from.idx()], latency(from), s[to.idx()]);
        }
    }
    s
}

/// (2) one `Cumulative` per functional unit, in table order, over the
/// ops it serves at `slot_of` — a start cycle in the straight-line model,
/// a window position in the modulo probe. Capacity is the unit's replica
/// count and an op requires its class width, so on the classic table
/// this is the paper's three: the lanes (vector 1, matrix every lane,
/// cap 4), then the accelerator and the index/merge unit at cap 1. A
/// unit serving no op of `g` posts nothing.
pub(crate) fn post_unit_capacities(
    m: &mut Model,
    g: &Graph,
    spec: &ArchSpec,
    slot_of: impl Fn(NodeId) -> VarId,
) {
    for unit in &spec.units.units {
        let tasks: Vec<CumTask> = g
            .ids()
            .filter_map(|n| {
                let class = OpClass::of(&g.node(n).kind)?;
                unit.ops.iter().any(|o| o.class == class).then(|| CumTask {
                    start: slot_of(n),
                    dur: spec.duration(&g.node(n).kind),
                    req: spec.units.class_width(class).unwrap_or(1) as i32,
                })
            })
            .collect();
        if !tasks.is_empty() {
            m.cumulative(tasks, unit.count as i32);
        }
    }
}

/// The configuration a vector-core op needs the core to hold.
fn config(g: &Graph, op: NodeId) -> VectorConfig {
    g.opcode(op)
        .and_then(|o| o.config())
        .expect("every vector-core opcode has a configuration")
}

/// (3) one configuration per cycle: differently-configured vector ops
/// must not share `slot_of` — a start cycle in the straight-line model, a
/// window slot in the modulo probe. One propagator over every vector op,
/// with its configuration numbered in order of first appearance. (Matrix
/// ops are kept apart from every other vector-core op by the lane
/// `Cumulative`: a matrix op fills the core.)
pub(crate) fn post_config_separation(m: &mut Model, g: &Graph, slot_of: impl Fn(NodeId) -> VarId) {
    let mut configs: Vec<VectorConfig> = Vec::new();
    let tasks: Vec<(VarId, u32)> = g
        .ids()
        .filter(|&i| g.category(i) == Category::VectorOp)
        .map(|i| {
            let c = config(g, i);
            let k = configs.iter().position(|&d| d == c).unwrap_or_else(|| {
                configs.push(c);
                configs.len() - 1
            });
            (slot_of(i), k as u32)
        })
        .collect();
    if configs.len() > 1 {
        m.one_config_per_cycle(tasks);
    }
}

/// The memory allocation constraints (6)–(11) over the start variables
/// `start`; returns the slot variable of every vector datum. A start
/// already fixed when this runs (every start, in the steady-state
/// allocator) folds to a constant: two fixed vector ops either never
/// co-issue (no (8)/(9) constraint) or always do (`page_line_implies`
/// directly), and a lifetime whose endpoints are all fixed becomes a
/// constant rectangle length. `life_max` bounds the variable lifetimes.
pub(crate) fn post_memory(
    m: &mut Model,
    g: &Graph,
    spec: &ArchSpec,
    start: &[VarId],
    life_max: i32,
) -> Vec<Option<VarId>> {
    let vdata: Vec<NodeId> = g
        .ids()
        .filter(|&i| g.category(i) == Category::VectorData)
        .collect();

    let n_slots = spec.n_slots() as i32;
    let mut slot = vec![None; g.len()];
    let mut page_line = vec![None; g.len()];
    for &d in &vdata {
        let s = m.new_var_named(0, n_slots - 1, &format!("slot_{}", g.node(d).name));
        let l = m.new_var(0, spec.slots_per_bank as i32 - 1);
        let p = m.new_var(0, spec.n_pages() as i32 - 1);
        // (6)
        m.slot_geometry(s, l, p, spec.n_banks as i32, spec.page_size as i32);
        slot[d.idx()] = Some(s);
        page_line[d.idx()] = Some((p, l));
    }
    let geo = |d: NodeId| page_line[d.idx()].expect("every vector datum has a page and line");
    let fixed = |m: &Model, v: VarId| m.store.fixed_value(v);

    // The vector inputs and outputs of every vector-core op.
    let vector_data = |ds: &[NodeId]| -> Vec<NodeId> {
        ds.iter()
            .copied()
            .filter(|&d| g.category(d) == Category::VectorData)
            .collect()
    };
    let vec_core_io: Vec<(NodeId, [Vec<NodeId>; 2])> = g
        .ids()
        .filter(|&i| matches!(g.category(i), Category::VectorOp | Category::MatrixOp))
        .map(|op| (op, [vector_data(g.preds(op)), vector_data(g.succs(op))]))
        .collect();

    // (7): inputs of one vector-core op; plus the outputs of one matrix
    // op, which are written simultaneously.
    for grp in vec_core_io.iter().flat_map(|(_, io)| io) {
        for (x, &d) in grp.iter().enumerate() {
            for &e in &grp[x + 1..] {
                let ((page_d, line_d), (page_e, line_e)) = (geo(d), geo(e));
                m.page_line_implies(page_d, line_d, page_e, line_e);
            }
        }
    }

    // (8)/(9): pairs of vector ops that may co-issue: the same config
    // (different configs are already start-separated by (3)) and, when
    // every start is fixed, the same start. Each op meets the later ops
    // of its group in op order.
    let vector_ops: Vec<_> = vec_core_io
        .iter()
        .filter(|(op, _)| g.category(*op) == Category::VectorOp)
        .map(|(op, io)| {
            let s = start[op.idx()];
            (s, fixed(m, s), config(g, *op), io)
        })
        .collect();
    let all_fixed = vector_ops.iter().all(|&(_, t, _, _)| t.is_some());
    let mut groups: HashMap<(Option<i32>, VectorConfig), Vec<usize>> = HashMap::new();
    for (a, &(_, t, c, _)) in vector_ops.iter().enumerate() {
        groups
            .entry((t.filter(|_| all_fixed), c))
            .or_default()
            .push(a);
    }
    for (a, &(si, ti, ci, io_i)) in vector_ops.iter().enumerate() {
        let group = &groups[&(ti.filter(|_| all_fixed), ci)];
        for &b in &group[group.partition_point(|&b| b <= a)..] {
            let (sj, tj, _, io_j) = vector_ops[b];
            let both_fixed = ti.zip(tj);
            if both_fixed.is_some_and(|(ti, tj)| ti != tj) {
                continue;
            }
            let mut pairs = Vec::new();
            for (xs, ys) in io_i.iter().zip(io_j) {
                for &d in xs {
                    for &e in ys {
                        if d != e {
                            let ((page_d, line_d), (page_e, line_e)) = (geo(d), geo(e));
                            pairs.push(GuardedPair {
                                page_d,
                                line_d,
                                page_e,
                                line_e,
                            });
                        }
                    }
                }
            }
            if both_fixed.is_some() {
                for p in pairs {
                    m.page_line_implies(p.page_d, p.line_d, p.page_e, p.line_e);
                }
            } else if !pairs.is_empty() {
                m.cond_same_time(si, sj, pairs);
            }
        }
    }

    // (10)/(11): lifetimes and slot reuse as non-overlapping rectangles.
    //
    // The paper's (10) sets life = max(consumer starts) − s. Taken
    // literally, a datum consumed at its own start cycle gets a
    // zero-length rectangle and silently drops out of Diff2 even
    // though it occupies its slot at the read instant; we therefore
    // clamp lifetimes to ≥ 1 (consumers read at their start cycle, and
    // reads precede writes within a cycle, so rectangles *touching* is
    // still hazard-free). Only lower bounds are posted: Diff2 prunes
    // on the minimum length, which equals the true lifetime.
    let mut rects = Vec::with_capacity(vdata.len());
    let one = m.new_const(1);
    for &d in &vdata {
        let sd = start[d.idx()];
        let folded = fixed(m, sd).and_then(|s0| {
            g.succs(d)
                .iter()
                .try_fold(1, |life, &c| Some(life.max(fixed(m, start[c.idx()])? - s0)))
        });
        let life = match folded {
            Some(life) => m.new_const(life),
            None => {
                let life = m.new_var_named(1, life_max, "life");
                for &c in g.succs(d) {
                    // life ≥ s_c − s_d
                    m.linear_leq(vec![(1, start[c.idx()]), (-1, sd), (-1, life)], 0);
                }
                life
            }
        };
        rects.push(Rect {
            origin: [sd, slot[d.idx()].unwrap()],
            len: [life, one],
        });
    }
    m.diff2(rects);
    slot
}

/// Result of a scheduling run.
#[derive(Debug)]
pub struct ScheduleResult {
    pub schedule: Option<Schedule>,
    pub status: SearchStatus,
    pub stats: SearchStats,
    pub makespan: Option<i32>,
    /// Wall-clock spans: model build, longest-path, search, extraction.
    pub timings: PhaseTimings,
    /// Per-propagator accounting (aggregated by name, sorted by cost);
    /// empty unless [`SchedulerOptions::profile`] was set.
    pub propagator_profile: Vec<PropProfile>,
    /// Domain-representation histogram of the model as built, before
    /// search: `(bitset_vars, interval_vars)`.
    pub domain_reps: (usize, usize),
}

/// Extract a [`Schedule`] from a solver solution.
fn extract(g: &Graph, spec: &ArchSpec, built: &BuiltModel, sol: &eit_cp::Solution) -> Schedule {
    let mut s = Schedule::new(g.len());
    for i in g.ids() {
        s.start[i.idx()] = sol.value(built.start[i.idx()]);
        s.slot[i.idx()] = built.slot[i.idx()].map(|v| sol.value(v) as u32);
    }
    s.compute_makespan(g, &spec.latency_of(g));
    s
}

/// Schedule `g` on `spec`: build the model, run the phased
/// branch-and-bound, extract the best schedule. A cyclic graph gets no
/// schedule and the status [`SearchStatus::Infeasible`].
pub fn schedule(g: &Graph, spec: &ArchSpec, opts: &SchedulerOptions) -> ScheduleResult {
    let mut built = build_model(g, spec, opts);
    let domain_reps = built.model.store.domain_rep_counts();
    let mut timings = PhaseTimings::new();
    timings.extend(&built.timings);
    if opts.profile {
        built.model.engine.enable_profiling();
    }
    let cfg = opts.search_config(built.phases.clone());
    let r = timings.time("search", || {
        minimize(&mut built.model, built.objective, &cfg)
    });
    let schedule = timings.time("extract", || {
        r.best.as_ref().map(|sol| extract(g, spec, &built, sol))
    });
    let propagator_profile = if opts.profile {
        built.model.engine.profile_by_name()
    } else {
        Vec::new()
    };

    ScheduleResult {
        makespan: r.objective,
        schedule,
        status: r.status,
        stats: r.stats,
        timings,
        propagator_profile,
        domain_reps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_arch::sim::validate_structure;
    use eit_dsl::Ctx;
    use eit_ir::merge_pipeline_ops;

    fn matmul_graph() -> Graph {
        eit_apps::by_name("matmul").unwrap().graph
    }

    #[test]
    fn matmul_graph_matches_paper_size() {
        let g = matmul_graph();
        g.validate().unwrap();
        assert_eq!(g.len(), 44); // |V| = 44 (fig. 3 / Table 3)
        assert_eq!(g.edge_count(), 68); // |E| = 68
    }

    #[test]
    fn schedules_matmul_with_memory_and_simulator_agrees() {
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let opts = SchedulerOptions {
            timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let r = schedule(&g, &spec, &opts);
        let s = r.schedule.expect("matmul must schedule");
        let v = validate_structure(&g, &spec, &s);
        assert!(v.is_empty(), "violations: {v:?}");
        // 16 dot products on 4 lanes, one config: issue takes 4 cycles,
        // merges bound the tail. The optimum is small but ≥ issue+pipeline.
        assert!(s.makespan >= 4 + 7, "makespan {}", s.makespan);
    }

    #[test]
    fn memoryless_schedule_is_no_longer_than_with_memory() {
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let spec = ArchSpec::eit();
        let with_mem = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        let without = schedule(
            &g,
            &spec,
            &SchedulerOptions {
                memory: false,
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            },
        );
        assert!(without.makespan.unwrap() <= with_mem.makespan.unwrap());
    }

    #[test]
    fn tiny_chain_is_exactly_latency_bound() {
        // a→add→b→mul→c : two dependent vector ops = 14 cc + issue.
        let ctx = Ctx::new("chain");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([1.0, 1.0, 0.0, 0.0]);
        let x = a.v_add(&b);
        let _y = x.v_mul(&b);
        let g = ctx.finish();
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        assert_eq!(r.status, SearchStatus::Optimal);
        assert_eq!(r.makespan, Some(14));
    }

    #[test]
    fn expired_deadline_returns_quickly_without_a_schedule() {
        // A deadline in the past cancels the search at the first budget
        // check — the call must come back immediately (not after the
        // 600 s default timeout) and without claiming any result.
        let mut g = matmul_graph();
        merge_pipeline_ops(&mut g);
        let token = eit_cp::CancelToken::with_deadline(std::time::Instant::now());
        let t0 = std::time::Instant::now();
        let r = schedule(
            &g,
            &ArchSpec::eit(),
            &SchedulerOptions {
                cancel: Some(token),
                ..Default::default()
            },
        );
        assert!(r.schedule.is_none());
        assert_eq!(r.status, SearchStatus::Unknown);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancelled solve took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn infeasible_when_memory_too_small() {
        // Two simultaneous inputs + outputs cannot fit in 1 slot.
        let ctx = Ctx::new("too-small");
        let a = ctx.vector([1.0, 0.0, 0.0, 0.0]);
        let b = ctx.vector([1.0, 1.0, 0.0, 0.0]);
        let _ = a.v_add(&b);
        let g = ctx.finish();
        let mut spec = ArchSpec::eit();
        spec.n_banks = 1;
        spec.page_size = 1;
        spec.slots_per_bank = 1; // a single slot
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        assert_eq!(r.status, SearchStatus::Infeasible);
    }

    #[test]
    fn a_cyclic_graph_is_infeasible_not_a_panic() {
        // fir with its output fed back into its first op.
        let mut g = eit_apps::by_name("fir").unwrap().graph;
        let first = g.ids().find(|&n| g.category(n).is_op()).unwrap();
        let out = g.outputs()[0];
        g.add_edge(out, first);
        let spec = ArchSpec::eit();
        for memory in [false, true] {
            let opts = SchedulerOptions {
                memory,
                timeout: Some(Duration::from_secs(30)),
                ..Default::default()
            };
            let built = build_model(&g, &spec, &opts);
            assert_eq!(built.phases.len(), 1 + usize::from(memory));
            let r = schedule(&g, &spec, &opts);
            assert!(r.schedule.is_none());
            assert_eq!(r.status, SearchStatus::Infeasible, "memory {memory}");
        }
    }

    #[test]
    fn fixed_start_memory_model_accepts_the_schedulers_answers() {
        // The steady-state allocator posts (6)–(11) over constant starts;
        // every straight-line answer, starts and slots fixed, must be a
        // root fixpoint of that folded model.
        let spec = ArchSpec::eit();
        for name in ["qrd", "arf", "matmul", "fir", "detector", "blockmm"] {
            let mut g = eit_apps::by_name(name).unwrap().graph;
            merge_pipeline_ops(&mut g);
            let s = schedule(&g, &spec, &SchedulerOptions::default())
                .schedule
                .unwrap_or_else(|| panic!("{name} must schedule"));
            let mut m = Model::new();
            let start: Vec<VarId> = g.ids().map(|n| m.new_const(s.start_of(n))).collect();
            let slot = post_memory(&mut m, &g, &spec, &start, s.makespan.max(1));
            for n in g.ids() {
                if let Some(v) = slot[n.idx()] {
                    m.store.fix(v, s.slot_of(n).unwrap() as i32).unwrap();
                }
            }
            assert!(
                m.engine.fixpoint(&mut m.store).is_ok(),
                "{name}: the folded memory model rejects the schedule"
            );
        }
    }
}
