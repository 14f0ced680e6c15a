//! The propagation work behind the pinned listings. Each table kernel's
//! straight-line search under `CompileOptions::default()` (the
//! `eitc KERNEL` path) is pinned by its propagator-run count, which is
//! exact and deterministic: a model change that keeps the search tree
//! (`search_counts.rs`) but makes propagation do more or less work fails
//! here by kernel. The second test pins the shape of the models: a
//! derived start or completion is a view, not an `x+c=y` propagator, and
//! the one-configuration-per-cycle rule (3) is one propagator, not
//! pairwise `neq` — in the straight-line model and in every CP probe of
//! the modulo sweeps.

use eit_arch::ArchSpec;
use eit_bench::prepared;
use eit_core::{
    build_model, build_probe, compile, modulo_schedule_checked, Backend, CompileOptions,
    ModuloOptions, SchedulerOptions,
};
use eit_cp::Model;

/// `(kernel, propagator runs)`; the sum is 13,346.
const PINNED: [(&str, u64); 6] = [
    ("matmul", 626),
    ("fir", 358),
    ("arf", 1882),
    ("qrd", 2865),
    ("detector", 5007),
    ("blockmm", 2608),
];

const KERNELS: [&str; 6] = ["qrd", "arf", "matmul", "fir", "detector", "blockmm"];

#[test]
fn straight_line_propagations_are_pinned() {
    let spec = ArchSpec::eit();
    let mut moved = Vec::new();
    for (name, runs) in PINNED {
        let g = eit_apps::by_name(name).expect("table kernel").graph;
        let c =
            compile(g, &spec, &CompileOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        if c.solver.propagations != runs {
            moved.push(format!(
                "{name}: got {} propagations, pinned {runs}",
                c.solver.propagations
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "straight-line propagation moved:\n{}",
        moved.join("\n")
    );
}

/// The names of `m`'s posted propagators that (4), (5) and (3) no
/// longer use.
fn replaced_rows(m: &Model) -> Vec<&'static str> {
    m.engine
        .profile_by_name()
        .iter()
        .map(|p| p.name)
        .filter(|&n| n == "x+c=y" || n == "neq")
        .collect()
}

#[test]
fn no_model_posts_offset_equalities_or_pairwise_configurations() {
    let spec = ArchSpec::eit();
    for name in KERNELS {
        let g = prepared(name).graph;
        let built = build_model(&g, &spec, &SchedulerOptions::default());
        assert_eq!(replaced_rows(&built.model), Vec::<&str>::new(), "{name}");
        for include_reconfig in [false, true] {
            let opts = ModuloOptions {
                include_reconfig,
                backend: Backend::Cp,
                ..Default::default()
            };
            let r = modulo_schedule_checked(&g, &spec, &opts)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .unwrap_or_else(|| panic!("{name}: no schedule"));
            assert!(!r.probes.is_empty(), "{name}: no probe ran");
            for p in &r.probes {
                let pm = build_probe(&g, &spec, p.ii, include_reconfig)
                    .expect("table kernels build")
                    .expect("a probed II builds");
                assert_eq!(
                    replaced_rows(&pm.model),
                    Vec::<&str>::new(),
                    "{name} probe at II {} (incl {include_reconfig})",
                    p.ii
                );
            }
        }
    }
}
