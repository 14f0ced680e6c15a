//! The search behind the pinned listings: every CP probe of the modulo
//! sweep on the six table kernels, excl- and incl-reconfig, pinned as
//! `(ii, outcome, nodes, fails)`. The listings in `listings.rs` pin only
//! the winning schedule's bytes; a change in propagation strength that
//! leaves the winner alone still moves a probe's node or fail count, and
//! fails here by kernel and mode.

use eit_arch::ArchSpec;
use eit_core::{modulo_schedule_checked, Backend, ModuloOptions};
use std::time::Duration;

type Probe = (i32, &'static str, u64, u64);

/// Per kernel: the excl-reconfig probes, then the incl-reconfig probes,
/// lowest candidate II first.
const PINNED: [(&str, &[Probe], &[Probe]); 6] = [
    (
        "qrd",
        &[(22, "feasible", 64, 0)],
        &[(22, "feasible", 79, 0)],
    ),
    ("arf", &[(7, "feasible", 53, 0)], &[(7, "feasible", 30, 0)]),
    (
        "matmul",
        &[(4, "feasible", 36, 0)],
        &[(4, "feasible", 21, 0)],
    ),
    ("fir", &[(3, "feasible", 14, 0)], &[(3, "feasible", 10, 0)]),
    (
        "detector",
        &[(42, "feasible", 83, 0)],
        &[(42, "feasible", 100, 0)],
    ),
    (
        "blockmm",
        &[(12, "feasible", 24, 0)],
        &[(12, "feasible", 14, 0)],
    ),
];

fn probes(name: &str, include_reconfig: bool) -> Vec<Probe> {
    // The kernel exactly as `eitc --modulo` schedules it: merge pass only.
    let mut g = eit_apps::by_name(name).expect("table kernel").graph;
    eit_ir::merge_pipeline_ops(&mut g);
    let opts = ModuloOptions {
        include_reconfig,
        backend: Backend::Cp,
        timeout_per_ii: Duration::from_secs(120),
        total_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let r = modulo_schedule_checked(&g, &ArchSpec::eit(), &opts)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .unwrap_or_else(|| panic!("{name}: no schedule"));
    r.probes
        .iter()
        .map(|p| (p.ii, p.outcome, p.nodes, p.fails))
        .collect()
}

#[test]
fn modulo_probe_counts_are_pinned() {
    let mut moved = Vec::new();
    for (name, excl, incl) in PINNED {
        for (mode, want) in [("excl", excl), ("incl", incl)] {
            let got = probes(name, mode == "incl");
            if got != want {
                moved.push(format!("{name} {mode}: got {got:?}, pinned {want:?}"));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "probe counts moved:\n{}",
        moved.join("\n")
    );
}
