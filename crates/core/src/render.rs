//! Canonical textual renderings of compilation results.
//!
//! `eitc` prints these strings to stdout, and the `eit-serve` daemon
//! returns the very same strings in its responses — one implementation,
//! so a cached service response is byte-identical to a one-shot compile
//! by construction (the CI serve gate `cmp`s the two).

use crate::modulo::ModuloResult;
use crate::pipeline::Compiled;
use eit_ir::Graph;
use std::fmt::Write as _;

/// The straight-line compile report exactly as `eitc <kernel>` prints
/// it: a status summary line followed by the machine listing.
pub fn render_compiled(out: &Compiled) -> String {
    format!(
        "; status {:?}; {} instructions, {} reconfig switches, utilization {:.1}%\n{}",
        out.status,
        out.program.n_instructions,
        out.program.reconfig_switches,
        out.program.utilization * 100.0,
        out.program.listing
    )
}

/// The modulo-schedule report exactly as `eitc <kernel> --modulo`
/// prints it: the II summary line followed by the steady-state rows in
/// (time, name) order: each op's window position `t = s mod II` and
/// stage `k = s div II`.
pub fn render_modulo(g: &Graph, r: &ModuloResult) -> String {
    let mut out = format!(
        "; modulo schedule: II {} ({} switches, actual {}), throughput {:.4} iter/cc\n",
        r.ii_issue, r.switches, r.actual_ii, r.throughput
    );
    let ii = r.ii_issue;
    let mut rows: Vec<(i32, String)> =
        r.s.iter()
            .filter(|(&n, _)| g.category(n).is_op())
            .map(|(&n, &s)| {
                let (t, k) = (s.rem_euclid(ii), s.div_euclid(ii));
                (t, format!("  t={t:3} k={k:2}  {}", g.node(n).name))
            })
            .collect();
    rows.sort();
    for (_, row) in rows {
        let _ = writeln!(out, "{row}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo::{modulo_schedule, ModuloOptions};
    use crate::pipeline::{compile, CompileOptions};
    use eit_arch::ArchSpec;
    use eit_dsl::Ctx;

    fn tiny() -> Graph {
        let ctx = Ctx::new("tiny");
        let a = ctx.vector([1.0, 2.0, 3.0, 4.0]);
        let b = ctx.vector([2.0, 3.0, 4.0, 5.0]);
        let _ = a.v_add(&b).v_dotp(&b).sqrt();
        ctx.finish()
    }

    #[test]
    fn compiled_rendering_has_status_line_and_listing() {
        let out = compile(tiny(), &ArchSpec::eit(), &CompileOptions::default()).unwrap();
        let s = render_compiled(&out);
        assert!(s.starts_with("; status Optimal; "));
        assert!(s.contains("configuration stream"));
        assert!(s.ends_with('\n'));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(s, render_compiled(&out));
    }

    #[test]
    fn modulo_rendering_is_deterministic() {
        let g = tiny();
        let spec = ArchSpec::eit();
        let r = modulo_schedule(&g, &spec, &ModuloOptions::default()).unwrap();
        let s = render_modulo(&g, &r);
        assert!(s.starts_with("; modulo schedule: II "));
        assert!(s.lines().count() > 1);
        assert_eq!(s, render_modulo(&g, &r));
    }
}
