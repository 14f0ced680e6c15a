//! `compile`: the straight-line fig. 2 path, closed loop, one thread.
//!
//! A round compiles all six table kernels with `CompileOptions::default()`
//! (memory model on, CSE, merge), renders the listing, and checks the
//! schedule with `verify_schedule` and `simulate` against the kernel's
//! expected outputs. The kernel list does not depend on the seed.

use crate::trace::Tracer;
use crate::{guarded, note_failure, Bench, Metrics, Step};
use eit_apps::Kernel;
use eit_arch::{simulate, verify_schedule, ArchSpec};
use eit_core::{
    build_model, compile, generate, render_compiled, schedule, CompileOptions, Compiled,
    SchedulerOptions,
};
use std::hint::black_box;
use std::time::Instant;

/// The six table kernels, in the order a round compiles them.
pub const KERNELS: [&str; 6] = ["matmul", "fir", "arf", "qrd", "detector", "blockmm"];

struct Case {
    /// Built from the DSL in set-up; each op compiles a clone of its graph.
    kernel: Kernel,
    /// Listing and makespan of the set-up compile.
    listing: String,
    makespan: i32,
}

pub struct CompileBench {
    spec: ArchSpec,
    cases: Vec<Case>,
    /// Makespan each kernel's latest op produced.
    observed: Vec<u64>,
}

impl Bench for CompileBench {
    // A round takes 15–40 ms: a run of 30 s or more has 750 or more
    // rounds, so p95 leaves over 35 beyond.
    const TAIL_PERCENTILE: f64 = 95.0;

    fn setup(_seed: u64) -> Result<Self, String> {
        let spec = ArchSpec::eit();
        let mut cases = Vec::new();
        for name in KERNELS {
            let kernel = eit_apps::by_name(name).ok_or(format!("unknown kernel {name}"))?;
            let out = compile(kernel.graph.clone(), &spec, &CompileOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
            cases.push(Case {
                listing: render_compiled(&out),
                makespan: out.schedule.makespan,
                kernel,
            });
        }
        let mut b = CompileBench {
            spec,
            observed: vec![0; cases.len()],
            cases,
        };
        if b.step(&mut Tracer::off()).failed > 0 {
            return Err("compile: the warm-up round failed its checks".into());
        }
        Ok(b)
    }

    fn step(&mut self, tr: &mut Tracer) -> Step {
        let t = Instant::now();
        let mut failed = 0;
        for (i, c) in self.cases.iter().enumerate() {
            let name = c.kernel.name;
            let r = guarded(name, || {
                if tr.enabled() {
                    tr.span("op", |tr| traced_op(&self.spec, c, tr))
                } else {
                    let out = compile(
                        c.kernel.graph.clone(),
                        &self.spec,
                        &CompileOptions::default(),
                    )
                    .map_err(|e| format!("{name}: {e}"))?;
                    let listing = render_compiled(&out);
                    check(&self.spec, c, &out, &listing, tr)
                }
            });
            match r {
                Ok(m) => self.observed[i] = m,
                Err(e) => {
                    failed += 1;
                    note_failure(&e);
                }
            }
        }
        Step {
            ms: t.elapsed().as_secs_f64() * 1e3,
            ops: self.cases.len() as u64,
            failed,
        }
    }

    fn cc_sum(&self) -> u64 {
        self.observed.iter().sum()
    }

    fn layer_metrics(&mut self, tr: &Tracer, out: &mut Metrics) {
        let own = tr.self_ms_per_id();
        let counts = tr.counts_per_id();
        out.median_of(&own, "dsl.build", "dsl.build_ms", 1.0, "ms");
        out.median_of(&own, "ir.passes", "ir.passes_ms", 1.0, "ms");
        out.median_of(&own, "core.model_build", "core.model_build_ms", 1.0, "ms");
        // `schedule` builds the model itself: its search share is the
        // span minus the separately timed build, per round.
        let mut search: Vec<f64> = own
            .get("core.schedule")
            .into_iter()
            .flatten()
            .zip(own.get("core.model_build").into_iter().flatten())
            .map(|(s, b)| s - b)
            .collect();
        out.push("core.search_ms", crate::stats::median(&mut search), "ms");
        for name in ["cp.nodes", "cp.fails", "cp.propagations"] {
            out.median_of(&counts, name, name, 1.0, "count");
        }
        out.median_of(&own, "core.codegen", "core.codegen_ms", 1.0, "ms");
        out.median_of(&own, "core.render", "core.render_ms", 1.0, "ms");
        out.median_of(&own, "arch.verify", "arch.verify_ms", 1.0, "ms");
        out.median_of(&own, "arch.simulate", "arch.simulate_ms", 1.0, "ms");
    }
}

/// The op of [`eit_core::compile`] taken apart, so that each public call
/// into a layer gets its own span. Produces the same listing.
fn traced_op(spec: &ArchSpec, c: &Case, tr: &mut Tracer) -> Result<u64, String> {
    let name = c.kernel.name;
    let kernel = tr
        .span("dsl.build", |_| eit_apps::by_name(name))
        .ok_or(format!("unknown kernel {name}"))?;
    let mut g = kernel.graph;
    let (cse, merge) = tr.span("ir.passes", |_| {
        g.validate().map_err(|e| format!("{name}: {e}"))?;
        let cse = eit_ir::eliminate_common_subexpressions(&mut g);
        let merge = eit_ir::merge_pipeline_ops(&mut g);
        Ok::<_, String>((cse, merge))
    })?;
    let opts = SchedulerOptions::default();
    tr.span("core.model_build", |_| {
        black_box(build_model(&g, spec, &opts))
    });
    let r = tr.span("core.schedule", |_| schedule(&g, spec, &opts));
    tr.count("cp.nodes", r.stats.nodes as f64);
    tr.count("cp.fails", r.stats.fails as f64);
    tr.count("cp.propagations", r.stats.propagations as f64);
    let sched = r
        .schedule
        .ok_or(format!("{name}: no schedule ({:?})", r.status))?;
    let program = tr.span("core.codegen", |_| generate(&g, spec, &sched));
    let out = Compiled {
        graph: g,
        schedule: sched,
        program,
        status: r.status,
        cse,
        merge,
        solver: r.stats,
        timings: r.timings,
        propagator_profile: r.propagator_profile,
        domain_reps: r.domain_reps,
    };
    let listing = tr.span("core.render", |_| render_compiled(&out));
    check(spec, c, &out, &listing, tr)
}

/// The op's own checks: both verifiers clean, every expected output
/// reproduced, and the listing and makespan of the set-up compile.
fn check(
    spec: &ArchSpec,
    c: &Case,
    out: &Compiled,
    listing: &str,
    tr: &mut Tracer,
) -> Result<u64, String> {
    let name = c.kernel.name;
    let v = tr.span("arch.verify", |_| {
        verify_schedule(&out.graph, spec, &out.schedule, true)
    });
    if let Some(first) = v.first() {
        return Err(format!("{name}: verify_schedule: {first:?}"));
    }
    let rep = tr.span("arch.simulate", |_| {
        simulate(&out.graph, spec, &out.schedule, &c.kernel.inputs)
    });
    if !rep.ok() {
        return Err(format!("{name}: simulate: {:?}", rep.violations.first()));
    }
    for (node, want) in &c.kernel.expected {
        if !rep
            .values
            .get(node)
            .is_some_and(|v| v.approx_eq(want, 1e-9))
        {
            return Err(format!(
                "{name}: output {node:?} differs from the expected value"
            ));
        }
    }
    if out.schedule.makespan != c.makespan || listing != c.listing {
        return Err(format!("{name}: schedule differs from the set-up compile"));
    }
    Ok(out.schedule.makespan as u64)
}
