//! Deterministic differential fuzzing of the whole toolchain.
//!
//! Every case is derived from a seed, generates a random DFG, and pushes
//! it through every independent path the stack offers, cross-checking the
//! outputs against each other and against the two redundant verifiers:
//!
//! - **IR interchange** — `to_xml` → `from_xml` must round-trip byte-for-
//!   byte, and the re-parsed graph must schedule *identically* (the model
//!   build and search are deterministic).
//! - **List scheduler** — the heuristic baseline's output must pass both
//!   [`eit_arch::validate_structure_with`] (the simulator's rules) and
//!   [`eit_arch::verify_schedule`] (the independent re-derivation); any
//!   disagreement between the two verifiers is itself a failure.
//! - **CP scheduler** — same double verification with the memory model
//!   on, plus execution of the configuration stream through
//!   [`eit_arch::simulate`], whose every output must equal the reference
//!   interpreter's ([`eit_ir::eval_graph`]), and the optimality
//!   cross-check `makespan(CP) ≤ makespan(list)` whenever the solver
//!   proves optimality.
//! - **Modulo scheduler** — `jobs = 1` vs `jobs = 4` must produce
//!   byte-identical results (the speculative-sweep determinism contract),
//!   and the winner must pass both the unrolled validation
//!   ([`crate::modulo::validate_modulo`]) and the independent wraparound
//!   verifier ([`eit_arch::verify_modulo`]).
//!
//! A failing case is shrunk to a minimal reproducer (greedy sink-removal
//! while the same stage keeps failing) and written to disk as XML plus a
//! description, so `fuzz --seed S --cases N` failures are one file away
//! from a unit test. Everything is seed-deterministic: same seed, same
//! graphs, same verdicts, on every platform (the in-repo `rand` shim is a
//! fixed splitmix64).

use crate::list_sched::list_schedule;
use crate::model::{schedule, SchedulerOptions};
use crate::modulo::{
    modulo_schedule, modulo_schedule_checked, validate_modulo, Backend, ModuloOptions,
};
use eit_arch::{
    simulate, to_arch_xml, validate_structure_with, verify_modulo, verify_schedule, ArchSpec,
    Schedule, SimReport, UnitTable, Violation,
};
use eit_cp::SearchStatus;
use eit_ir::sem::Value;
use eit_ir::{
    eval_graph, from_xml, to_xml, CoreOp, Cplx, DataKind, Graph, NodeId, OpClass, Opcode, ScalarOp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Fuzzing run parameters. Everything is deterministic in `seed`.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master seed; case `i` runs on a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Number of cases to generate.
    pub cases: u64,
    /// Where to write shrunk reproducers (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Solver budget per scheduling call. Generated graphs are small, so
    /// this is a safety net, not a tuning knob.
    pub solver_timeout: Duration,
    /// Also run the modulo `jobs=1` vs `jobs=4` differential (the most
    /// expensive stage).
    pub check_modulo: bool,
    /// Shrink failures before reporting.
    pub shrink: bool,
    /// Fuzz the architecture×kernel product space: each case runs on a
    /// seed-derived random [`ArchSpec`] (always `validate()`-clean)
    /// instead of the fixed EIT instance, and reproducers ship the arch
    /// XML next to the kernel XML.
    pub arch_fuzz: bool,
    /// Cross-check the CP modulo sweep against the independent SAT
    /// backend and the CP/SAT race on every case where CP finds a
    /// schedule: equal II, and each schedule clean under both verifiers.
    /// Implies the modulo stage.
    pub backend_fuzz: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 5,
            cases: 200,
            out_dir: Some(PathBuf::from("fuzz-failures")),
            solver_timeout: Duration::from_secs(20),
            check_modulo: true,
            shrink: true,
            arch_fuzz: false,
            backend_fuzz: false,
        }
    }
}

/// One failing case, shrunk and serialised.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Case index within the run.
    pub case: u64,
    /// The derived seed that regenerates the *original* (pre-shrink) graph.
    pub case_seed: u64,
    /// Which differential stage failed.
    pub stage: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// XML of the (shrunk) reproducer graph.
    pub graph_xml: String,
    /// `eit-arch/1` XML of the architecture the case ran on (`None` when
    /// the run used the builtin EIT instance).
    pub arch_xml: Option<String>,
    /// With `out_dir` set: the reproducer's kernel XML, or the file that
    /// could not be written and why.
    pub reproducer: Option<Result<PathBuf, String>>,
}

/// Outcome of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    pub cases: u64,
    /// Total differential checks executed (a case contributes several).
    pub checks: u64,
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// splitmix64 — the per-case seed derivation (matches the rand shim's
/// generator family, but independent of its stream).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The seed driving case `i` of a run with master seed `seed`.
pub fn case_seed(seed: u64, case: u64) -> u64 {
    mix(seed ^ mix(case.wrapping_add(1)))
}

/// Generate a random layered DFG directly on the IR: vector arithmetic
/// with forward dependencies, dot-product reductions through the scalar
/// accelerator, index/merge traffic, and the occasional whole-matrix op —
/// the same statistical character as the paper's kernels, but unbiased by
/// the DSL's construction patterns.
pub fn gen_graph(rng: &mut StdRng) -> Graph {
    let mut g = Graph::new("fuzz");
    let n_in = rng.gen_range(2..5);
    let mut vecs: Vec<NodeId> = (0..n_in)
        .map(|i| g.add_data(DataKind::Vector, &format!("in{i}")))
        .collect();
    let mut scals: Vec<NodeId> = Vec::new();
    let layers = rng.gen_range(1..4);
    let mut uid = 0usize;
    for _ in 0..layers {
        let width = rng.gen_range(1..4);
        let mut next: Vec<NodeId> = Vec::new();
        for _ in 0..width {
            uid += 1;
            let name = format!("n{uid}");
            let a = vecs[rng.gen_range(0..vecs.len())];
            let b = vecs[rng.gen_range(0..vecs.len())];
            match rng.gen_range(0..10) {
                0..=3 => {
                    let core = [CoreOp::Add, CoreOp::Sub, CoreOp::Mul][rng.gen_range(0..3usize)];
                    let (_, d) = g.add_op_with_output(
                        Opcode::vector(core),
                        &[a, b],
                        DataKind::Vector,
                        &name,
                    );
                    next.push(d);
                }
                4 => {
                    let c = vecs[rng.gen_range(0..vecs.len())];
                    let (_, d) = g.add_op_with_output(
                        Opcode::vector(CoreOp::Mac),
                        &[a, b, c],
                        DataKind::Vector,
                        &name,
                    );
                    next.push(d);
                }
                5 | 6 => {
                    // Reduce to a scalar; sometimes push it through the
                    // accelerator and scale a vector back up.
                    let (_, s) = g.add_op_with_output(
                        Opcode::vector(CoreOp::DotP),
                        &[a, b],
                        DataKind::Scalar,
                        &name,
                    );
                    if rng.gen_bool(0.6) {
                        let (_, t) = g.add_op_with_output(
                            Opcode::Scalar(ScalarOp::Sqrt),
                            &[s],
                            DataKind::Scalar,
                            &format!("{name}s"),
                        );
                        let (_, d) = g.add_op_with_output(
                            Opcode::vector(CoreOp::Scale),
                            &[a, t],
                            DataKind::Vector,
                            &format!("{name}v"),
                        );
                        next.push(d);
                    } else {
                        scals.push(s);
                    }
                }
                7 => {
                    let k = rng.gen_range(0..4) as u8;
                    let (_, s) =
                        g.add_op_with_output(Opcode::Index(k), &[a], DataKind::Scalar, &name);
                    scals.push(s);
                }
                8 => {
                    if scals.len() >= 4 {
                        let ins: Vec<NodeId> = (0..4)
                            .map(|_| scals[rng.gen_range(0..scals.len())])
                            .collect();
                        let (_, d) =
                            g.add_op_with_output(Opcode::Merge, &ins, DataKind::Vector, &name);
                        next.push(d);
                    } else {
                        let (_, s) = g.add_op_with_output(
                            Opcode::vector(CoreOp::SquSum),
                            &[a],
                            DataKind::Scalar,
                            &name,
                        );
                        scals.push(s);
                    }
                }
                _ => {
                    if vecs.len() >= 4 {
                        let ins: Vec<NodeId> =
                            (0..4).map(|_| vecs[rng.gen_range(0..vecs.len())]).collect();
                        let (_, d) = g.add_op_with_output(
                            Opcode::matrix(CoreOp::SquSum),
                            &ins,
                            DataKind::Vector,
                            &name,
                        );
                        next.push(d);
                    }
                }
            }
        }
        vecs.extend(next);
    }
    g
}

/// Generate a random, always-[`ArchSpec::validate`]-clean architecture:
/// the classic three-unit mix with randomized prices on a
/// randomized memory geometry. Bounds keep the machine inside the
/// envelope the constraint model covers (the crossbar never narrower
/// than what the lane count can demand, pages dividing banks), so any
/// differential failure on a generated arch is a toolchain bug, not a
/// nonsensical machine.
pub fn gen_arch(rng: &mut StdRng) -> ArchSpec {
    let n_lanes = rng.gen_range(1..5u32);
    let n_banks = [8u32, 16, 32][rng.gen_range(0..3usize)];
    let page_size = [2u32, 4, 8][rng.gen_range(0..3usize)];
    let slots_per_bank = rng.gen_range(2..9u32);
    // Drawn in this order, so a seed keeps naming the same machine.
    let (vector, iterative, simple, iterative_occupancy, index_merge): (i32, i32, i32, i32, i32) = (
        rng.gen_range(2..10),
        rng.gen_range(4..11),
        rng.gen_range(1..4),
        rng.gen_range(1..4),
        rng.gen_range(1..3),
    );
    let mut units = UnitTable::classic(n_lanes);
    for op in units.units.iter_mut().flat_map(|u| &mut u.ops) {
        (op.latency, op.occupancy) = match op.class {
            OpClass::Vector | OpClass::Matrix => (vector, 1),
            OpClass::ScalarIterative => (iterative, iterative_occupancy),
            OpClass::ScalarSimple => (simple, 1),
            OpClass::Index | OpClass::Merge => (index_merge, index_merge),
        };
    }
    let spec = ArchSpec {
        n_lanes,
        n_banks,
        page_size,
        slots_per_bank,
        // EIT proportions: two reads and one write per lane per cycle,
        // floored at a matrix op's four simultaneous input reads and
        // never beyond what the banks can serve.
        max_vector_reads: (2 * n_lanes).max(4).min(n_banks),
        max_vector_writes: n_lanes.max(2).min(n_banks),
        reconfig_cost: rng.gen_range(1..5),
        slot_cap: None,
        units,
    };
    debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    spec
}

/// Deterministic input values for every producer-less data node, keyed on
/// the node index alone so shrinking never changes a surviving input.
pub fn inputs_for(g: &Graph) -> HashMap<NodeId, Value> {
    let mut inputs = HashMap::new();
    for n in g.ids() {
        if g.category(n).is_data() && g.producer(n).is_none() {
            let f = |k: u64| {
                let h = mix(n.idx() as u64 * 8 + k);
                ((h % 401) as f64 - 200.0) / 100.0 // [-2, 2] in 0.01 steps
            };
            let v = match g.node(n).kind {
                eit_ir::NodeKind::Data(DataKind::Vector) => Value::V(std::array::from_fn(|k| {
                    Cplx::new(f(2 * k as u64), f(2 * k as u64 + 1))
                })),
                _ => Value::S(Cplx::new(f(0), f(1))),
            };
            inputs.insert(n, v);
        }
    }
    inputs
}

fn fmt_violations(tag: &str, vs: &[Violation]) -> String {
    let head: Vec<String> = vs.iter().take(4).map(|v| v.to_string()).collect();
    format!("{tag}: {} violation(s): {}", vs.len(), head.join("; "))
}

/// An executed schedule passes when `simulate` reports no violation and
/// delivers every output with the reference interpreter's value.
fn check_replay(g: &Graph, rep: &SimReport, inputs: &HashMap<NodeId, Value>) -> Result<(), String> {
    if !rep.ok() {
        return Err(fmt_violations("simulate", &rep.violations));
    }
    let reference = eval_graph(g, inputs).map_err(|e| format!("eval_graph: {e:?}"))?;
    for o in g.outputs() {
        match (rep.values.get(&o), reference.get(&o)) {
            (Some(got), Some(want)) if got.approx_eq(want, 1e-9) => {}
            (got, want) => {
                return Err(format!(
                    "output {o:?}: simulated {got:?}, reference {want:?}"
                ))
            }
        }
    }
    Ok(())
}

/// The simulator's structural rules and the independent verifier on one
/// schedule (`memory`: with the §3.4 rules): they must agree, and find
/// nothing. A disagreement fails stage `verifier-disagreement`, naming
/// the schedule `what`; violations both find fail `stage`.
fn verify_both(
    g: &Graph,
    spec: &ArchSpec,
    s: &Schedule,
    memory: bool,
    what: &str,
    stage: &str,
) -> Result<(), (String, String)> {
    let sim_v = validate_structure_with(g, spec, s, memory);
    let ver_v = verify_schedule(g, spec, s, memory);
    if sim_v.is_empty() != ver_v.is_empty() {
        let detail = format!(
            "{what}: {} vs {}",
            fmt_violations("simulator", &sim_v),
            fmt_violations("independent", &ver_v)
        );
        return Err(("verifier-disagreement".into(), detail));
    }
    if !sim_v.is_empty() {
        return Err((stage.into(), fmt_violations("both verifiers", &sim_v)));
    }
    Ok(())
}

/// Run every differential stage on one graph against the builtin EIT
/// instance. `Ok(checks)` counts the stages executed; `Err((stage,
/// detail))` is the first disagreement.
pub fn check_case(g: &Graph, opts: &FuzzOptions) -> Result<u64, (String, String)> {
    check_case_on(g, &ArchSpec::eit(), opts)
}

/// Run every differential stage on one `(graph, architecture)` pair.
pub fn check_case_on(
    g: &Graph,
    spec: &ArchSpec,
    opts: &FuzzOptions,
) -> Result<u64, (String, String)> {
    let fail = |stage: &str, detail: String| Err((stage.to_string(), detail));
    let mut checks = 0u64;
    let spec = spec.clone();

    // Stage: the generator's output is valid IR.
    checks += 1;
    if let Err(e) = g.validate() {
        return fail("ir-validate", format!("generated graph invalid: {e:?}"));
    }

    // Stage: XML round-trip is the identity on the wire format.
    checks += 1;
    let xml = to_xml(g);
    let g2 = match from_xml(&xml) {
        Ok(g2) => g2,
        Err(e) => return fail("xml-roundtrip", format!("re-parse failed: {e}")),
    };
    if to_xml(&g2) != xml {
        return fail("xml-roundtrip", "re-serialisation differs".into());
    }

    let inputs = inputs_for(g);

    // Stage: list scheduler output satisfies both verifiers.
    checks += 1;
    let list = list_schedule(g, &spec);
    if let Some(r) = &list {
        verify_both(
            g,
            &spec,
            &r.schedule,
            false,
            "list schedule",
            "list-schedule",
        )?;
    }

    // Stage: CP scheduler with the memory model, doubly verified and
    // functionally replayed.
    checks += 1;
    let sched_opts = SchedulerOptions {
        timeout: Some(opts.solver_timeout),
        ..Default::default()
    };
    let cp = schedule(g, &spec, &sched_opts);
    if let Some(s) = &cp.schedule {
        verify_both(g, &spec, s, true, "CP schedule", "cp-schedule")?;
        if let Err(e) = check_replay(g, &simulate(g, &spec, s, &inputs), &inputs) {
            return fail("cp-replay", e);
        }

        // Determinism: the XML-roundtripped graph must schedule
        // identically (ids are dense and order-preserved on the wire).
        checks += 1;
        let cp2 = schedule(&g2, &spec, &sched_opts);
        if cp.status == SearchStatus::Optimal
            && cp2.status == SearchStatus::Optimal
            && cp2.schedule.as_ref() != Some(s)
        {
            return fail(
                "xml-schedule-determinism",
                format!(
                    "same graph through XML schedules differently \
                     (makespan {:?} vs {:?})",
                    cp.makespan, cp2.makespan
                ),
            );
        }

        // Optimality cross-check against the heuristic baseline, on the
        // memoryless model both can solve.
        checks += 1;
        if let Some(lr) = &list {
            let cp_nomem = schedule(
                g,
                &spec,
                &SchedulerOptions {
                    memory: false,
                    timeout: Some(opts.solver_timeout),
                    ..Default::default()
                },
            );
            if cp_nomem.status == SearchStatus::Optimal {
                if let Some(m) = cp_nomem.makespan {
                    if m > lr.schedule.makespan {
                        return fail(
                            "cp-vs-list",
                            format!(
                                "optimal CP makespan {m} worse than list {}",
                                lr.schedule.makespan
                            ),
                        );
                    }
                }
            }
        }
    }

    // Stage: memory allocation under slot pressure — a budget of about
    // half the data nodes forces real slot reuse, which is where
    // lifetime-disjointness bugs live. Infeasible is a fine outcome;
    // a produced schedule must survive both verifiers and replay.
    checks += 1;
    let n_data = g.ids().filter(|&n| g.category(n).is_data()).count() as u32;
    let tight_spec = spec.clone().with_slots(n_data.div_ceil(2).max(4));
    let tight = schedule(g, &tight_spec, &sched_opts);
    if let Some(s) = &tight.schedule {
        verify_both(
            g,
            &tight_spec,
            s,
            true,
            "tight-slot schedule",
            "tight-slots",
        )?;
        if let Err(e) = check_replay(g, &simulate(g, &tight_spec, s, &inputs), &inputs) {
            return fail("tight-slots-replay", e);
        }
    }

    // Stage: modulo sweep determinism (jobs=1 vs jobs=4) and wraparound
    // verification of the winner.
    if opts.check_modulo || opts.backend_fuzz {
        checks += 1;
        let mopts = |jobs: usize| ModuloOptions {
            include_reconfig: false,
            timeout_per_ii: opts.solver_timeout,
            total_timeout: opts.solver_timeout.saturating_mul(4),
            jobs,
            ..Default::default()
        };
        let r1 = modulo_schedule(g, &spec, &mopts(1));
        let r4 = modulo_schedule(g, &spec, &mopts(4));
        match (&r1, &r4) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                if (a.ii_issue, a.switches, a.actual_ii) != (b.ii_issue, b.switches, b.actual_ii)
                    || a.s != b.s
                {
                    return fail(
                        "modulo-jobs-determinism",
                        format!(
                            "jobs=1 II {} ({} switches) vs jobs=4 II {} ({} switches)",
                            a.ii_issue, a.switches, b.ii_issue, b.switches
                        ),
                    );
                }
                checks += 1;
                let unrolled = validate_modulo(g, &spec, a, 3);
                if !unrolled.is_empty() {
                    return fail("modulo-unrolled", fmt_violations("3 iterations", &unrolled));
                }
                let wrapped = verify_modulo(g, &spec, &a.s, a.ii_issue);
                if !wrapped.is_empty() {
                    return fail(
                        "modulo-wraparound",
                        fmt_violations(&format!("II {}", a.ii_issue), &wrapped),
                    );
                }
                // Stage: cross-backend differential. The CDCL/CNF sweep is
                // an independent implementation of the same model, and the
                // race answers each candidate with whichever side decides
                // it first, so both must land on CP's minimum feasible II
                // with a (different) concrete schedule that satisfies both
                // verifiers.
                if opts.backend_fuzz {
                    for backend in [Backend::Sat, Backend::Race] {
                        checks += 1;
                        let name = backend.as_str();
                        let bopts = ModuloOptions {
                            backend,
                            ..mopts(1)
                        };
                        let br = match modulo_schedule_checked(g, &spec, &bopts) {
                            Err(e) => {
                                return fail("modulo-backend-differential", format!("{name}: {e}"));
                            }
                            Ok(None) => {
                                return fail(
                                    "modulo-backend-differential",
                                    format!("cp found II {} but {name} found nothing", a.ii_issue),
                                );
                            }
                            Ok(Some(br)) => br,
                        };
                        if br.ii_issue != a.ii_issue {
                            return fail(
                                "modulo-backend-differential",
                                format!("cp II {} vs {name} II {}", a.ii_issue, br.ii_issue),
                            );
                        }
                        let unrolled = validate_modulo(g, &spec, &br, 3);
                        if !unrolled.is_empty() {
                            return fail(
                                "modulo-backend-differential",
                                fmt_violations(&format!("{name} unrolled"), &unrolled),
                            );
                        }
                        let wrapped = verify_modulo(g, &spec, &br.s, br.ii_issue);
                        if !wrapped.is_empty() {
                            return fail(
                                "modulo-backend-differential",
                                fmt_violations(&format!("{name} wraparound"), &wrapped),
                            );
                        }
                    }
                }
            }
            (a, b) => {
                return fail(
                    "modulo-jobs-determinism",
                    format!(
                        "jobs=1 found a schedule: {}, jobs=4: {}",
                        a.is_some(),
                        b.is_some()
                    ),
                );
            }
        }
    }

    Ok(checks)
}

/// Greedy shrink against the builtin EIT instance.
pub fn shrink(g: &Graph, stage: &str, opts: &FuzzOptions) -> Graph {
    shrink_on(g, &ArchSpec::eit(), stage, opts)
}

/// Greedy shrink: repeatedly delete sink ops (with their now-dead
/// outputs) and orphan inputs while the same stage keeps failing on the
/// same architecture.
pub fn shrink_on(g: &Graph, spec: &ArchSpec, stage: &str, opts: &FuzzOptions) -> Graph {
    let mut cur = g.clone();
    let mut budget = 200usize;
    loop {
        let mut progressed = false;
        let candidates: Vec<Vec<NodeId>> = {
            let mut cs = Vec::new();
            for n in cur.ids() {
                if cur.category(n).is_op() && cur.succs(n).iter().all(|&d| cur.succs(d).is_empty())
                {
                    let mut set = vec![n];
                    set.extend(cur.succs(n).iter().copied());
                    cs.push(set);
                } else if cur.category(n).is_data()
                    && cur.succs(n).is_empty()
                    && cur.producer(n).is_none()
                {
                    cs.push(vec![n]);
                }
            }
            cs
        };
        for set in candidates {
            if budget == 0 {
                return cur;
            }
            budget -= 1;
            let mut next = cur.clone();
            next.remove_nodes(&set);
            if next.is_empty() {
                continue;
            }
            if matches!(&check_case_on(&next, spec, opts), Err((s, _)) if s == stage) {
                cur = next;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// Record a straight-line scheduling run of `g` as an `eit-trace/2`
/// file, so every shrunk reproducer ships a replayable solver trajectory
/// next to its XML. Fails if the file cannot be created or written.
fn record_reproducer_trace(
    g: &Graph,
    spec: &ArchSpec,
    path: &std::path::Path,
    timeout: Duration,
) -> std::io::Result<()> {
    use crate::record::RecorderSink;
    use eit_cp::trace::TraceHandle;
    use std::sync::{Arc, Mutex};
    let mut sched_opts = SchedulerOptions {
        timeout: Some(timeout),
        state_hash_every: Some(crate::rr::DEFAULT_HASH_EVERY),
        ..Default::default()
    };
    let header =
        crate::rr::SolveKey::schedule(g, spec, &sched_opts).header(sched_opts.state_hash_every);
    let sink = Arc::new(Mutex::new(RecorderSink::create(path, &header)?));
    sched_opts.trace = Some(TraceHandle::new(Arc::clone(&sink)));
    schedule(g, spec, &sched_opts);
    let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
    sink.finish()
}

/// Write one failure's reproducer into `dir`: the kernel XML, the arch
/// XML when the case ran on a generated machine (ready for `eitc
/// --arch`), a `.txt` summary and a replayable `eit-trace/2` recording
/// of the minimal graph's scheduler run (`eitc --replay` validates it).
/// Returns the kernel XML's path, or names the first file that could not
/// be written and why.
fn write_reproducer(
    dir: &Path,
    f: &FuzzFailure,
    minimal: &Graph,
    original_len: usize,
    spec: &ArchSpec,
    opts: &FuzzOptions,
) -> Result<PathBuf, String> {
    let cannot = |what: &str, path: &Path, e: std::io::Error| {
        format!("cannot {what} {}: {e}", path.display())
    };
    std::fs::create_dir_all(dir).map_err(|e| cannot("create", dir, e))?;
    let base = dir.join(format!("seed{}-case{}", opts.seed, f.case));
    let write = |path: PathBuf, text: &str| match std::fs::write(&path, text) {
        Ok(()) => Ok(path),
        Err(e) => Err(cannot("write", &path, e)),
    };
    let xml = write(base.with_extension("xml"), &f.graph_xml)?;
    if let Some(ax) = &f.arch_xml {
        write(base.with_extension("arch.xml"), ax)?;
    }
    let arch = if f.arch_xml.is_some() {
        "generated (see .arch.xml)"
    } else {
        "eit"
    };
    let summary = format!(
        "seed: {}\ncase: {}\ncase_seed: {}\nstage: {}\ndetail: {}\n\
         nodes: {} (shrunk from {original_len})\narch: {arch}\n",
        opts.seed,
        f.case,
        f.case_seed,
        f.stage,
        f.detail,
        minimal.len(),
    );
    write(base.with_extension("txt"), &summary)?;
    let trace = base.with_extension("trace");
    record_reproducer_trace(minimal, spec, &trace, opts.solver_timeout)
        .map_err(|e| cannot("write", &trace, e))?;
    Ok(xml)
}

/// Run the full differential fuzzer. Deterministic in `opts.seed`.
///
/// With `arch_fuzz` set, each case's seed first draws a random
/// architecture ([`gen_arch`]), then the kernel, so the run walks the
/// architecture×kernel product space; a failure's reproducer is then an
/// arch-XML + kernel-XML *pair*.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let mut report = FuzzReport::default();
    for case in 0..opts.cases {
        let cs = case_seed(opts.seed, case);
        let mut rng = StdRng::seed_from_u64(cs);
        let spec = if opts.arch_fuzz {
            gen_arch(&mut rng)
        } else {
            ArchSpec::eit()
        };
        let g = gen_graph(&mut rng);
        report.cases += 1;
        match check_case_on(&g, &spec, opts) {
            Ok(n) => report.checks += n,
            Err((stage, detail)) => {
                let minimal = if opts.shrink {
                    shrink_on(&g, &spec, &stage, opts)
                } else {
                    g.clone()
                };
                // Re-derive the detail from the minimal graph when the
                // shrink preserved the stage (it always does by
                // construction, but don't trust — re-check).
                let detail = match check_case_on(&minimal, &spec, opts) {
                    Err((_, d)) => d,
                    Ok(_) => detail,
                };
                let mut failure = FuzzFailure {
                    case,
                    case_seed: cs,
                    stage,
                    detail,
                    graph_xml: to_xml(&minimal),
                    arch_xml: opts.arch_fuzz.then(|| to_arch_xml(&spec)),
                    reproducer: None,
                };
                failure.reproducer = opts
                    .out_dir
                    .as_ref()
                    .map(|dir| write_reproducer(dir, &failure, &minimal, g.len(), &spec, opts));
                report.failures.push(failure);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use eit_arch::validate_structure;

    fn quick(seed: u64, cases: u64, modulo: bool) -> FuzzOptions {
        FuzzOptions {
            seed,
            cases,
            out_dir: None,
            solver_timeout: Duration::from_secs(10),
            check_modulo: modulo,
            shrink: true,
            arch_fuzz: false,
            backend_fuzz: false,
        }
    }

    #[test]
    fn backend_fuzz_smoke_finds_no_disagreement() {
        let mut o = quick(11, 12, true);
        o.backend_fuzz = true;
        let rep = run(&o);
        assert!(
            rep.failures.is_empty(),
            "cross-backend differential failed: {:?}",
            rep.failures
                .iter()
                .map(|f| (&f.stage, &f.detail))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn reproducer_write_errors_name_the_file_and_the_reason() {
        let g = gen_graph(&mut StdRng::seed_from_u64(case_seed(5, 0)));
        let f = FuzzFailure {
            case: 0,
            case_seed: case_seed(5, 0),
            stage: "planted".into(),
            detail: "a failure to write out".into(),
            graph_xml: to_xml(&g),
            arch_xml: None,
            reproducer: None,
        };
        let opts = quick(5, 1, false);
        let spec = ArchSpec::eit();
        let tmp = std::env::temp_dir().join(format!("eit-fuzz-reproducer-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        // An out_dir under a regular file cannot be created.
        let file = tmp.join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let dir = file.join("out");
        let err = write_reproducer(&dir, &f, &g, g.len(), &spec, &opts).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot create {}: ", dir.display())),
            "{err}"
        );
        // A writable out_dir gets the kernel XML, the summary and the trace.
        let dir = tmp.join("out");
        let xml = write_reproducer(&dir, &f, &g, g.len(), &spec, &opts).unwrap();
        assert_eq!(xml, dir.join("seed5-case0.xml"));
        for ext in ["xml", "txt", "trace"] {
            assert!(dir.join(format!("seed5-case0.{ext}")).is_file(), "{ext}");
        }
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn generator_is_deterministic() {
        let a = gen_graph(&mut StdRng::seed_from_u64(7));
        let b = gen_graph(&mut StdRng::seed_from_u64(7));
        assert_eq!(to_xml(&a), to_xml(&b));
        let c = gen_graph(&mut StdRng::seed_from_u64(8));
        assert_ne!(to_xml(&a), to_xml(&c));
    }

    #[test]
    fn generated_arches_are_deterministic_and_always_valid() {
        let a = gen_arch(&mut StdRng::seed_from_u64(7));
        let b = gen_arch(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let mut distinct = 0;
        for case in 0..100 {
            let spec = gen_arch(&mut StdRng::seed_from_u64(case_seed(1, case)));
            spec.validate()
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{spec:?}"));
            if spec != a {
                distinct += 1;
            }
        }
        // The generator actually walks the space.
        assert!(distinct > 90, "only {distinct} distinct arches in 100");
    }

    /// FNV-1a of `to_arch_xml(gen_arch(seed))`: a seed names the same
    /// machine release to release, so a recorded `--arch-fuzz` failure
    /// stays reproducible.
    #[test]
    fn generated_arches_are_pinned() {
        for (seed, want) in [
            (0u64, 0xb1b6_374d_a0ff_9b4b_u64),
            (1, 0xd882_d5e7_3cf3_277a),
            (2, 0x4641_6eb8_4d39_cf73),
            (3, 0x9fad_2741_c1ff_2407),
            (7, 0x05dc_73a1_d2af_5973),
            (42, 0x462c_ac7a_f504_1d02),
        ] {
            let xml = to_arch_xml(&gen_arch(&mut StdRng::seed_from_u64(seed)));
            assert_eq!(eit_cp::fnv1a(xml.as_bytes()), want, "seed {seed}:\n{xml}");
        }
    }

    #[test]
    fn arch_kernel_product_space_smoke() {
        let mut opts = quick(11, 6, false);
        opts.arch_fuzz = true;
        let r = run(&opts);
        assert!(
            r.ok(),
            "{:?}",
            r.failures
                .iter()
                .map(|f| (&f.stage, &f.detail, &f.arch_xml))
                .collect::<Vec<_>>()
        );
        assert_eq!(r.cases, 6);
    }

    #[test]
    fn generated_graphs_are_valid_ir() {
        for case in 0..50 {
            let g = gen_graph(&mut StdRng::seed_from_u64(case_seed(1, case)));
            g.validate()
                .unwrap_or_else(|e| panic!("case {case}: {e:?}\n{}", to_xml(&g)));
        }
    }

    /// The CI gate in miniature — and the pinned regression corpus: these
    /// exact seeds once covered real bugs found while bringing the fuzzer
    /// up (see DESIGN.md §5g), so they must stay green forever.
    #[test]
    fn pinned_seeds_pass_differentially() {
        for seed in [5, 41, 97] {
            let r = run(&quick(seed, 8, false));
            assert!(
                r.ok(),
                "seed {seed}: {:?}",
                r.failures
                    .iter()
                    .map(|f| (&f.stage, &f.detail))
                    .collect::<Vec<_>>()
            );
            assert_eq!(r.cases, 8);
            assert!(r.checks >= 8 * 4);
        }
    }

    #[test]
    fn pinned_seed_passes_with_modulo_differential() {
        let r = run(&quick(5, 3, true));
        assert!(
            r.ok(),
            "{:?}",
            r.failures
                .iter()
                .map(|f| (&f.stage, &f.detail))
                .collect::<Vec<_>>()
        );
    }

    /// Planted-bug drill: corrupt a schedule and make sure the
    /// differential harness would notice — guards the harness itself.
    #[test]
    fn harness_detects_planted_corruption() {
        let g = gen_graph(&mut StdRng::seed_from_u64(case_seed(5, 0)));
        let spec = ArchSpec::eit();
        let r = schedule(&g, &spec, &SchedulerOptions::default());
        let mut s = r.schedule.expect("tiny graph must schedule");
        // Move every op one cycle earlier than its data allows.
        for n in g.ids() {
            if g.category(n).is_op() && s.start[n.idx()] > 0 {
                s.start[n.idx()] -= 1;
                break;
            }
        }
        let sim_v = validate_structure(&g, &spec, &s);
        let ver_v = verify_schedule(&g, &spec, &s, true);
        assert!(!sim_v.is_empty());
        assert!(!ver_v.is_empty());
    }

    #[test]
    fn shrink_produces_smaller_failing_case() {
        // Plant a failure by using an impossible stage check: instead,
        // drive shrink directly with a stage that any graph fails — the
        // cheapest honest probe is a synthetic one: a graph whose XML
        // round-trip we sabotage is hard to build, so exercise shrink's
        // contract on a case that *passes* (it must return the graph
        // unchanged).
        let opts = quick(5, 1, false);
        let g = gen_graph(&mut StdRng::seed_from_u64(case_seed(5, 0)));
        let shrunk = shrink(&g, "no-such-stage", &opts);
        assert_eq!(to_xml(&shrunk), to_xml(&g));
    }
}
