//! Golden test for the run-metrics document: a real compile of a small
//! kernel produces a [`RunMetrics`] JSON that parses back through the
//! in-repo parser with the expected shape and internally consistent
//! numbers. This is the same guarantee the CI smoke check leans on.

use eit_bench::{Json, RunMetrics};
use eit_core::{compile, CompileOptions, SchedulerOptions};
use std::time::Duration;

fn compile_matmul() -> (eit_core::Compiled, eit_arch::ArchSpec) {
    let kernel = eit_apps::by_name("matmul").unwrap();
    let spec = eit_arch::ArchSpec::eit();
    let out = compile(
        kernel.graph.clone(),
        &spec,
        &CompileOptions {
            scheduler: SchedulerOptions {
                timeout: Some(Duration::from_secs(60)),
                profile: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("matmul must compile");
    (out, spec)
}

#[test]
fn metrics_document_round_trips_with_consistent_numbers() {
    let (out, spec) = compile_matmul();

    let mut m = RunMetrics::new("test", "matmul");
    m.arch(&spec)
        .solver(out.status, Some(out.schedule.makespan), &out.solver)
        .spans(&out.timings)
        .propagators(&out.propagator_profile)
        .program(&out.program);

    let text = m.render();
    let doc = Json::parse(&text).expect("rendered metrics must parse");

    // Header: versioned schema first, then provenance.
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(eit_bench::metrics::SCHEMA)
    );
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("test"));
    assert_eq!(doc.get("kernel").and_then(Json::as_str), Some("matmul"));

    // Arch section mirrors the spec.
    let arch = doc.get("arch").expect("arch section");
    assert_eq!(
        arch.get("lanes").and_then(Json::as_u64),
        Some(spec.n_lanes as u64)
    );
    assert_eq!(
        arch.get("slots").and_then(Json::as_u64),
        Some(spec.n_slots() as u64)
    );

    // Solver section is consistent with the returned stats.
    let solver = doc.get("solver").expect("solver section");
    assert_eq!(solver.get("status").and_then(Json::as_str), Some("optimal"));
    assert_eq!(
        solver.get("makespan").and_then(Json::as_u64),
        Some(out.schedule.makespan as u64)
    );
    assert_eq!(
        solver.get("nodes").and_then(Json::as_u64),
        Some(out.solver.nodes)
    );
    assert_eq!(
        solver.get("propagations").and_then(Json::as_u64),
        Some(out.solver.propagations)
    );

    // Spans are non-empty and cover the pipeline stages in order.
    let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
    let phases: Vec<&str> = spans
        .iter()
        .map(|s| s.get("phase").and_then(Json::as_str).unwrap())
        .collect();
    for required in ["validate", "model_build", "search", "codegen"] {
        assert!(phases.contains(&required), "missing span {required}");
    }
    let pos = |p: &str| phases.iter().position(|x| *x == p).unwrap();
    assert!(pos("validate") < pos("model_build"));
    assert!(pos("model_build") < pos("search"));
    assert!(pos("search") < pos("codegen"));

    // Propagator invocations sum to the solver's propagation count: the
    // profile and the search statistics describe the same run.
    let props = doc
        .get("propagators")
        .and_then(Json::as_arr)
        .expect("propagators");
    assert!(!props.is_empty());
    let invocations: u64 = props
        .iter()
        .map(|p| p.get("invocations").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(invocations, out.solver.propagations);

    // The parsed document re-renders byte-identically (stable writer).
    assert_eq!(doc.render(), text);
}

#[test]
fn sim_section_round_trips() {
    let (out, spec) = compile_matmul();
    let kernel = eit_apps::by_name("matmul").unwrap();
    let report = eit_arch::simulate(&out.graph, &spec, &out.schedule, &kernel.inputs);

    let mut m = RunMetrics::new("test", "matmul");
    m.sim(&report);
    let doc = Json::parse(&m.render()).expect("sim metrics must parse");

    let sim = doc.get("sim").expect("sim section");
    assert_eq!(sim.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        sim.get("makespan").and_then(Json::as_u64),
        Some(report.makespan as u64)
    );
    let hist = sim
        .get("lane_histogram")
        .and_then(Json::as_arr)
        .expect("lane histogram");
    assert_eq!(hist.len(), spec.n_lanes as usize + 1);
    let timeline = sim
        .get("reconfig_timeline")
        .and_then(Json::as_arr)
        .expect("timeline");
    assert_eq!(timeline.len(), report.config_loads as usize);
    assert_eq!(timeline[0].get("cycle").and_then(Json::as_u64), Some(0));
}

/// `eitc --modulo --metrics`: every probe names the backend that decided
/// it, and each worker sums CP search nodes/failures and SAT
/// decisions/conflicts apart, so a race never adds the two units up.
#[test]
fn modulo_probe_metrics_keep_cp_and_sat_units_apart() {
    let dir = std::env::temp_dir();
    for backend in ["cp", "sat", "race"] {
        let path = dir.join(format!(
            "eit-probe-units-{backend}-{}.json",
            std::process::id()
        ));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_eitc"))
            .args(["fir", "--modulo", "--backend", backend, "--metrics"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = Json::parse(&text).expect("metrics parse");
        let modulo = doc.get("modulo").expect("modulo section");
        let int = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).unwrap();
        let probes = modulo.get("probes").and_then(Json::as_arr).unwrap();
        assert!(!probes.is_empty(), "{backend}: no probes");
        // (nodes, fails) of the CP-decided probes, then of the SAT ones.
        let mut by_unit = [[0u64; 2]; 2];
        for p in probes {
            let decided = p.get("backend").and_then(Json::as_str).unwrap();
            match backend {
                "race" => assert!(decided == "cp" || decided == "sat", "{decided}"),
                _ => assert_eq!(decided, backend),
            }
            let unit = &mut by_unit[usize::from(decided == "sat")];
            unit[0] += int(p, "nodes");
            unit[1] += int(p, "fails");
        }
        // One worker probing bottom-up stops at the winner, so the
        // workers block covers exactly the listed probes.
        let workers = modulo.get("workers").and_then(Json::as_arr).unwrap();
        let sum = |k: &str| workers.iter().map(|w| int(w, k)).sum::<u64>();
        assert_eq!(
            [
                [sum("nodes"), sum("fails")],
                [sum("decisions"), sum("conflicts")]
            ],
            by_unit,
            "{backend}"
        );
    }
}
