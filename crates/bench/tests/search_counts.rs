//! The straight-line search behind the pinned listings: the CP
//! branch-and-bound of each table kernel under
//! `CompileOptions::default()` (the `eitc KERNEL` path), pinned as
//! `(nodes, fails)`. `listings.rs` pins only the winning schedule's
//! bytes, and the benchmark reports only the sums over the six kernels;
//! a propagation change that alters the search fails here by kernel.

use eit_arch::ArchSpec;
use eit_core::{compile, CompileOptions};

/// `(kernel, nodes, fails)`; the sums are 473 nodes and 8 fails.
const PINNED: [(&str, u64, u64); 6] = [
    ("matmul", 29, 0),
    ("fir", 25, 0),
    ("arf", 81, 8),
    ("qrd", 111, 0),
    ("detector", 134, 0),
    ("blockmm", 93, 0),
];

#[test]
fn straight_line_search_counts_are_pinned() {
    let spec = ArchSpec::eit();
    let mut moved = Vec::new();
    for (name, nodes, fails) in PINNED {
        let g = eit_apps::by_name(name).expect("table kernel").graph;
        let c =
            compile(g, &spec, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = (c.solver.nodes, c.solver.fails);
        if got != (nodes, fails) {
            moved.push(format!(
                "{name}: got (nodes, fails) {got:?}, pinned {:?}",
                (nodes, fails)
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "straight-line search moved:\n{}",
        moved.join("\n")
    );
}
