//! Exact repetition: runs made from one seed repeat every count the
//! benchmark marks exact, and a different seed changes only the `serve`
//! request order. Run with `cargo test --release` (the solver is slow
//! in a debug build).

use eit_perfbench::{run, serve, Workload};
use std::sync::OnceLock;

/// Per-layer counts that must repeat exactly. The `sat.*` counters come
/// from the `sat` backend's sweep alone: a race loser's counters depend
/// on when it was cancelled.
const EXACT: [&str; 13] = [
    "cp.nodes",
    "cp.fails",
    "cp.propagations",
    "core.probes",
    "core.probe_nodes",
    "sat.vars",
    "sat.clauses",
    "core.alloc_allocated",
    "core.alloc_infeasible",
    "core.alloc_unknown",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_evictions",
];

/// Exact counts plus `sat.conflicts` of three short traced runs: seed 7
/// twice, then seed 8. Shared by the tests below.
fn traced_runs() -> &'static [Vec<(&'static str, f64)>; 3] {
    static RUNS: OnceLock<[Vec<(&'static str, f64)>; 3]> = OnceLock::new();
    RUNS.get_or_init(|| {
        [7, 7, 8].map(|seed| {
            let r = run(Workload::Compile, seed, 2.0, true, None).expect("traced run");
            assert!(r.correct && r.failed == 0, "traced run failed its checks");
            EXACT
                .iter()
                .chain(&["sat.conflicts"])
                .map(|&n| (n, r.metrics.get(n).unwrap_or_else(|| panic!("no {n}"))))
                .collect()
        })
    })
}

fn without_conflicts(v: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    v.iter()
        .filter(|(n, _)| *n != "sat.conflicts")
        .copied()
        .collect()
}

#[test]
fn traced_counts_repeat_and_ignore_the_seed() {
    let [a, b, c] = traced_runs();
    assert_eq!(
        without_conflicts(a),
        without_conflicts(b),
        "one seed, two runs"
    );
    // The kernel lists, allocation budgets and the serve hit/miss mix do
    // not depend on the seed, so neither do the counts.
    assert_eq!(without_conflicts(a), without_conflicts(c), "two seeds");
}

/// The CDCL search of the `sat` backend should repeat exactly too. It
/// does not yet: the CNF encoder walks hash maps (`HashMap<i32, Lit>`
/// residue literals), whose order changes from one map to the next, so
/// the order of clauses and of literals within them, and with it the
/// conflict count, vary from one encoding to the next. This
/// test names that defect until the encoder emits clauses in a fixed
/// order.
#[test]
fn sat_conflicts_repeat() {
    let [a, b, _] = traced_runs();
    let conflicts = |v: &[(&str, f64)]| v.iter().find(|(n, _)| *n == "sat.conflicts").map(|p| p.1);
    assert_eq!(
        conflicts(a),
        conflicts(b),
        "sat.conflicts, one seed, two runs"
    );
}

#[test]
fn schedule_cc_sum_repeats_on_every_workload() {
    for w in Workload::ALL {
        let cc = |seed| {
            let r = run(w, seed, 0.5, false, None).expect("untraced run");
            assert!(
                r.correct && r.failed == 0,
                "{}: failed its checks",
                w.name()
            );
            assert_eq!(r.metrics.get("success_rate"), Some(1.0));
            r.metrics.get("schedule_cc_sum").expect("schedule_cc_sum")
        };
        let first = cc(3);
        assert_eq!(first, cc(3), "{}", w.name());
        assert_eq!(first, cc(4), "{}", w.name());
    }
}

#[test]
fn the_seed_orders_serve_requests_and_nothing_else() {
    let (a, b) = (serve::request_order(1), serve::request_order(2));
    assert_eq!(a, serve::request_order(1));
    assert_ne!(a, b);
    let sorted = |mut v: Vec<usize>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(a), sorted(b), "same requests, another order");
}
