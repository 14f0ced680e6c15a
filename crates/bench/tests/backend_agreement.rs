//! Differential check of the two modulo-scheduling decision procedures
//! on the paper's six table kernels: the CP sweep and the CDCL/CNF sweep
//! are independent implementations of the same §4.3 model, so they must
//! agree on the minimum feasible II everywhere, and both schedules must
//! pass the solver-independent verifier AND the unrolled simulator
//! validation. Any divergence here is a bug in one of the backends (or,
//! more interestingly, in the shared model).

use eit_arch::ArchSpec;
use eit_core::modulo::assemble_result;
use eit_core::{
    least_starts, modulo_cnf_dimacs, modulo_schedule_checked, validate_modulo, Backend,
    ModuloError, ModuloOptions,
};
use eit_ir::{Graph, IrError};
use std::collections::HashMap;
use std::time::Duration;

const KERNELS: [&str; 6] = ["qrd", "arf", "matmul", "fir", "detector", "blockmm"];

/// The kernel exactly as `eitc --modulo` schedules it: merge pass only.
fn prepared(name: &str) -> Graph {
    let mut g = eit_apps::by_name(name).expect("table kernel").graph;
    eit_ir::merge_pipeline_ops(&mut g);
    g
}

fn opts(backend: Backend) -> ModuloOptions {
    ModuloOptions {
        backend,
        timeout_per_ii: Duration::from_secs(120),
        total_timeout: Duration::from_secs(120),
        ..Default::default()
    }
}

#[test]
fn sat_and_cp_agree_on_ii_for_all_table_kernels() {
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name);
        let cp = modulo_schedule_checked(&g, &spec, &opts(Backend::Cp))
            .unwrap_or_else(|e| panic!("{name}: cp backend failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: cp found no schedule"));
        let sat = modulo_schedule_checked(&g, &spec, &opts(Backend::Sat))
            .unwrap_or_else(|e| panic!("{name}: sat backend failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: sat found no schedule"));

        assert_eq!(
            sat.ii_issue, cp.ii_issue,
            "{name}: backends disagree on the minimum feasible II"
        );
        assert_eq!(cp.backend, "cp");
        assert_eq!(sat.backend, "sat");
        assert!(sat.sat.is_some(), "{name}: sat result must carry counters");

        for (label, r) in [("cp", &cp), ("sat", &sat)] {
            let v = eit_arch::verify_modulo(&g, &spec, &r.s, r.ii_issue);
            assert!(v.is_empty(), "{name}/{label}: verifier found {v:?}");
            let v = validate_modulo(&g, &spec, r, 3);
            assert!(v.is_empty(), "{name}/{label}: simulator found {v:?}");
        }
    }
}

#[test]
fn race_agrees_with_cp_on_ii_for_all_table_kernels() {
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name);
        let cp = modulo_schedule_checked(&g, &spec, &opts(Backend::Cp))
            .unwrap_or_else(|e| panic!("{name}: cp backend failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: cp found no schedule"));
        let race = modulo_schedule_checked(&g, &spec, &opts(Backend::Race))
            .unwrap_or_else(|e| panic!("{name}: race failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: race found no schedule"));
        assert_eq!(
            race.ii_issue, cp.ii_issue,
            "{name}: race winner must land on the CP II"
        );
        assert!(
            race.backend == "cp" || race.backend == "sat",
            "{name}: unattributed race winner {:?}",
            race.backend
        );
        let v = eit_arch::verify_modulo(&g, &spec, &race.s, race.ii_issue);
        assert!(v.is_empty(), "{name}/race: verifier found {v:?}");
    }
}

#[test]
fn qrd_cnf_is_identical_across_encodings() {
    // The encoder walks its per-residue tables in ascending order, so one
    // model gives one clause list, byte for byte, on every run.
    let spec = ArchSpec::eit();
    let g = prepared("qrd");
    let dimacs = || {
        let (ii, text) = modulo_cnf_dimacs(&g, &spec, &ModuloOptions::default())
            .expect("qrd encodes")
            .expect("qrd has an encodable candidate");
        assert_eq!(ii, 22, "first encodable qrd candidate");
        text
    };
    let first = dimacs();
    assert!(
        first.contains("\np cnf 6068 16128\n"),
        "qrd at II 22 changed size"
    );
    for _ in 0..3 {
        assert!(dimacs() == first, "two encodings of qrd at II 22 differ");
    }
}

#[test]
fn least_starts_of_the_cp_window_are_no_later_and_verify_clean() {
    // The SAT probe derives stages from a window with the least-start
    // pass. Fed the CP winner's window, the pass keeps every residue,
    // starts no node later than CP does, and the result verifies.
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name);
        let cp = modulo_schedule_checked(&g, &spec, &opts(Backend::Cp))
            .unwrap_or_else(|e| panic!("{name}: cp backend failed: {e}"))
            .unwrap_or_else(|| panic!("{name}: cp found no schedule"));
        let ii = cp.ii_issue;
        let t: HashMap<_, _> = g
            .ids()
            .filter(|&n| g.category(n).is_op())
            .map(|n| (n, cp.s[&n].rem_euclid(ii)))
            .collect();
        let s = least_starts(&g, &spec, ii, &t).expect("table kernels are acyclic");
        for n in g.ids() {
            assert!(s[&n] <= cp.s[&n], "{name}: node {n:?} starts later");
            if let Some(&r) = t.get(&n) {
                assert_eq!(s[&n].rem_euclid(ii), r, "{name}: op {n:?} left its residue");
            }
        }
        let v = eit_arch::verify_modulo(&g, &spec, &s, ii);
        assert!(v.is_empty(), "{name}: verifier found {v:?}");
        let r = assemble_result(&g, &spec, false, ii, s);
        let v = validate_modulo(&g, &spec, &r, 3);
        assert!(v.is_empty(), "{name}: simulator found {v:?}");
    }
}

#[test]
fn a_cyclic_graph_is_refused_by_every_modulo_entry_point() {
    // fir with one edge from its output back to its first op: the IR
    // rejects it as cyclic, and so must the sweep on either backend and
    // the `--emit cnf` entry point, with the IR's error and no panic.
    let mut g = prepared("fir");
    let out = g.outputs()[0];
    let first = g
        .ids()
        .find(|&n| g.category(n).is_op())
        .expect("fir has ops");
    g.add_edge(out, first);
    assert_eq!(g.validate(), Err(IrError::Cyclic));
    let spec = ArchSpec::eit();
    let want = ModuloError::InvalidGraph(IrError::Cyclic);
    for backend in [Backend::Cp, Backend::Sat, Backend::Race] {
        let r = modulo_schedule_checked(&g, &spec, &opts(backend));
        assert_eq!(r.err(), Some(want.clone()), "{backend:?}");
    }
    let r = modulo_cnf_dimacs(&g, &spec, &ModuloOptions::default());
    assert_eq!(r.err(), Some(want));
}
