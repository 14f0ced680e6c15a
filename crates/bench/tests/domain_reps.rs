//! The hybrid bitset domain representation is a pure speed change on
//! the paper's six table kernels. Each kernel's straight-line model and
//! its probe at the winning II are solved twice — once as built, once
//! with every domain pinned to the interval list
//! (`Store::set_bitset(false)`) — and the two runs must agree on the
//! answer, the node count, every start time and the full search-event
//! stream.

use eit_arch::ArchSpec;
use eit_bench::prepared;
use eit_core::{build_model, build_probe, modulo_schedule, ModuloOptions, SchedulerOptions};
use eit_cp::trace::{MemorySink, SearchEvent, TraceHandle};
use eit_cp::{minimize, solve, Model, SearchConfig, SearchResult, VarId};
use std::sync::{Arc, Mutex};

const KERNELS: [&str; 6] = ["qrd", "arf", "matmul", "fir", "detector", "blockmm"];

/// What one run must reproduce under the other representation.
#[derive(Debug, PartialEq)]
struct Run {
    objective: Option<i32>,
    nodes: u64,
    starts: Option<Vec<i32>>,
    events: Vec<SearchEvent>,
}

/// Solve `model` (optionally pinned first) under `cfg` with a memory
/// sink attached, and capture the run.
fn run(
    model: &mut Model,
    pinned: bool,
    cfg: SearchConfig,
    starts: &[VarId],
    search: impl Fn(&mut Model, &SearchConfig) -> SearchResult,
) -> Run {
    if pinned {
        model.store.set_bitset(false);
        assert_eq!(
            model.store.domain_rep_counts().0,
            0,
            "a domain escaped the pin"
        );
    } else {
        assert!(
            model.store.domain_rep_counts().0 > 0,
            "no bitset domain to compare"
        );
    }
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..cfg
    };
    let r = search(model, &cfg);
    let events = sink.lock().unwrap().events.iter().cloned().collect();
    Run {
        objective: r.objective,
        nodes: r.stats.nodes,
        starts: r
            .best
            .map(|sol| starts.iter().map(|&v| sol.value(v)).collect()),
        events,
    }
}

#[test]
fn straight_line_search_is_representation_independent() {
    let spec = ArchSpec::eit();
    let opts = SchedulerOptions::default();
    for name in KERNELS {
        let g = prepared(name).graph;
        let [bits, ivs] = [false, true].map(|pinned| {
            let mut built = build_model(&g, &spec, &opts);
            let cfg = opts.search_config(built.phases.clone());
            let obj = built.objective;
            run(&mut built.model, pinned, cfg, &built.start, |m, c| {
                minimize(m, obj, c)
            })
        });
        assert!(bits.starts.is_some(), "{name} must schedule");
        assert!(!bits.events.is_empty(), "{name} traced nothing");
        assert_eq!(bits, ivs, "{name}: pinned domains changed the search");
    }
}

#[test]
fn modulo_probe_search_is_representation_independent() {
    let spec = ArchSpec::eit();
    let opts = ModuloOptions::default();
    for name in KERNELS {
        let g = prepared(name).graph;
        let ii = modulo_schedule(&g, &spec, &opts)
            .unwrap_or_else(|| panic!("{name} must pipeline"))
            .ii_issue;
        let [bits, ivs] = [false, true].map(|pinned| {
            let mut pm = build_probe(&g, &spec, ii, opts.include_reconfig)
                .expect("table kernels build")
                .expect("the winning II is not statically refuted");
            let cfg = opts.probe_config(pm.phases.clone());
            run(&mut pm.model, pinned, cfg, &pm.s_var, solve)
        });
        assert!(
            bits.starts.is_some(),
            "{name} probe at II {ii} must be feasible"
        );
        assert_eq!(
            bits, ivs,
            "{name}: pinned domains changed the probe at II {ii}"
        );
    }
}
