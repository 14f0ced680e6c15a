//! The SAT probe (`sat_probe`) and the `--emit cnf` escape hatch, both
//! over `eit_sat`'s window encoding of one candidate II: residue
//! literals and configuration selectors, with stages derived by
//! [`least_starts`] from a model.

use super::sweep::{ProbeSlot, Probed};
use super::{
    check_graph, ii_lower_bound, least_starts, Backend, IiOutcome, ModuloError, ModuloOptions,
    SatStats,
};
use eit_arch::ArchSpec;
use eit_ir::Graph;
use eit_sat::EncodeError;
use std::time::Instant;

/// The SAT probe: encode the candidate straight into a fresh CDCL
/// solver, solve it, decode a model's window and derive its least
/// starts. The sweep still runs both verifiers on a winner this probe
/// decided before accepting it.
pub(super) fn sat_probe(g: &Graph, spec: &ArchSpec, slot: &ProbeSlot) -> Probed {
    let deadline = eit_cp::deadline_after(Instant::now(), slot.budget);
    let cancelled = || slot.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut stop = || deadline.is_some_and(|d| Instant::now() >= d) || cancelled();
    let mut solver = eit_sat::Solver::new();
    let mut sink = eit_sat::WithStop {
        sink: &mut solver,
        stop: &mut stop,
    };
    let decoder = match eit_sat::encode_modulo_into(g, spec, slot.ii, &mut sink) {
        Ok(Some(decoder)) => decoder,
        Ok(None) => {
            return Probed {
                sat: Some(SatStats::default()),
                ..Probed::bare(Backend::Sat, IiOutcome::Infeasible)
            }
        }
        Err(EncodeError::Stopped { vars, clauses }) => {
            let outcome = if cancelled() {
                IiOutcome::Cancelled
            } else {
                IiOutcome::Timeout
            };
            return Probed {
                sat: Some(SatStats {
                    vars: u64::from(vars),
                    clauses,
                    ..Default::default()
                }),
                ..Probed::bare(Backend::Sat, outcome)
            };
        }
        Err(EncodeError::IiBelowOne(ii)) => {
            return Probed::bare(
                Backend::Sat,
                IiOutcome::Malformed(ModuloError::IiBelowOne(ii)),
            )
        }
    };
    let mut sat = SatStats {
        vars: u64::from(decoder.vars),
        clauses: decoder.clauses,
        ..Default::default()
    };
    // A cancelled probe (a race whose CP side decided first, an expired
    // deadline, a candidate above the winner) stops within one row of
    // the encoding, here, at the solver's bounded polls, or once a model
    // turns up; a model found after cancellation is not decoded.
    if cancelled() {
        return Probed {
            sat: Some(sat),
            ..Probed::bare(Backend::Sat, IiOutcome::Cancelled)
        };
    }
    let out = solver.solve(&mut stop);
    let st = &solver.stats;
    sat.decisions = st.decisions;
    sat.conflicts = st.conflicts;
    sat.propagations = st.propagations;
    sat.restarts = st.restarts;
    let outcome = match out {
        eit_sat::SolveOutcome::Sat if cancelled() => IiOutcome::Cancelled,
        eit_sat::SolveOutcome::Sat => {
            let t = decoder.decode(&|v| solver.model_value(v));
            let s = least_starts(g, spec, slot.ii, &t);
            IiOutcome::Feasible(s.expect("the sweep refuses a cyclic graph first"))
        }
        eit_sat::SolveOutcome::Unsat => IiOutcome::Infeasible,
        eit_sat::SolveOutcome::Stopped if cancelled() => IiOutcome::Cancelled,
        eit_sat::SolveOutcome::Stopped => IiOutcome::Timeout,
    };
    Probed {
        outcome,
        backend: Backend::Sat,
        nodes: sat.decisions,
        fails: sat.conflicts,
        sat: Some(sat),
    }
}

pub(super) fn check_sat_supported(opts: &ModuloOptions) -> Result<(), ModuloError> {
    if opts.include_reconfig {
        return Err(ModuloError::UnsupportedBackend(
            "the SAT encoding covers the exclude-reconfig modulo model only; \
             use the cp backend for --modulo incl"
                .into(),
        ));
    }
    Ok(())
}

/// The `--emit cnf` escape hatch: render the first encodable candidate
/// II of the sweep as a DIMACS problem (with the sweep position recorded
/// in comment lines) so the instance can be handed to an external SAT
/// solver. Returns `Ok(None)` when every candidate in the sweep range is
/// statically refuted before encoding.
pub fn modulo_cnf_dimacs(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
) -> Result<Option<(i32, String)>, ModuloError> {
    check_sat_supported(opts)?;
    check_graph(g, spec)?;
    let lb = ii_lower_bound(g, spec);
    let ub = crate::model::serial_horizon(g, spec);
    for ii in lb..=ub {
        let enc = eit_sat::encode_modulo(g, spec, ii).map_err(|e| match e {
            EncodeError::IiBelowOne(ii) => ModuloError::IiBelowOne(ii),
            EncodeError::Stopped { .. } => unreachable!("a Cnf sink never stops"),
        })?;
        if let Some(enc) = enc {
            let comments = [
                format!("eit modulo model (sec 4.3), candidate II {ii}"),
                format!("sweep range {lb}..={ub}; first encodable candidate"),
                format!("graph {}, {} nodes", g.name, g.len()),
            ];
            return Ok(Some((ii, enc.cnf.to_dimacs(&comments))));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{case_seed, gen_arch, gen_graph};
    use eit_cp::CancelToken;
    use eit_ir::{Category, NodeId, OpClass};
    use eit_sat::{ClauseSink, Cnf, Lit, SolveOutcome};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    type Rows = Vec<(NodeId, Vec<Lit>)>;

    /// The pairwise window encoding the configuration selectors replaced,
    /// kept as the reference the linear one must be equisatisfiable with:
    /// an exactly-one per op (pairwise at-most-one), one clause per
    /// residue for every differently-configured vector-op pair, and the
    /// same per-unit counters. `None` where an op's occupancy exceeds
    /// the window.
    fn encode_pairwise(g: &Graph, spec: &ArchSpec, ii: i32) -> Option<(Cnf, Rows)> {
        let duration = |n: NodeId| spec.duration(&g.node(n).kind);
        let ops: Vec<NodeId> = g.ids().filter(|&n| g.category(n).is_op()).collect();
        let widths: Vec<i32> = ops.iter().map(|&n| ii - duration(n).max(1) + 1).collect();
        if widths.iter().any(|&w| w < 1) {
            return None;
        }
        let mut cnf = Cnf::default();
        let mut x: Vec<Vec<Lit>> = Vec::new();
        for &width in &widths {
            let row: Vec<Lit> = (0..width).map(|_| Lit::pos(cnf.new_var())).collect();
            cnf.add_clause(&row);
            for (r, &l) in row.iter().enumerate() {
                for &o in &row[r + 1..] {
                    cnf.add_clause(&[l.negated(), o.negated()]);
                }
            }
            x.push(row);
        }
        let config = |n: NodeId| {
            (g.category(n) == Category::VectorOp).then(|| g.opcode(n).and_then(|o| o.config()))
        };
        for (a, &na) in ops.iter().enumerate() {
            for (b, &nb) in ops.iter().enumerate().skip(a + 1) {
                let (Some(ca), Some(cb)) = (config(na), config(nb)) else {
                    continue;
                };
                if ca != cb {
                    for (la, lb) in x[a].iter().zip(&x[b]) {
                        cnf.add_clause(&[la.negated(), lb.negated()]);
                    }
                }
            }
        }
        for unit in &spec.units.units {
            let mut per_residue: Vec<Vec<(Lit, i32)>> = vec![Vec::new(); ii as usize];
            for (i, &n) in ops.iter().enumerate() {
                let Some(c) = OpClass::of(&g.node(n).kind) else {
                    continue;
                };
                if !unit.ops.iter().any(|o| o.class == c) {
                    continue;
                }
                let w = spec.units.class_width(c).unwrap_or(1) as i32;
                for (r, &l) in x[i].iter().enumerate() {
                    for items in &mut per_residue[r..r + duration(n) as usize] {
                        items.push((l, w));
                    }
                }
            }
            for items in &per_residue {
                eit_sat::at_most_k(&mut cnf, items, unit.count as i32);
            }
        }
        Some((cnf, ops.into_iter().zip(x).collect()))
    }

    fn solve(cnf: &Cnf) -> Option<Vec<bool>> {
        let mut s = eit_sat::Solver::from_cnf(cnf);
        match s.solve(&mut || false) {
            SolveOutcome::Sat => Some((0..cnf.n_vars).map(|v| s.model_value(v)).collect()),
            _ => None,
        }
    }

    #[test]
    fn the_linear_window_cnf_is_equisatisfiable_with_the_pairwise_one() {
        // Fuzz graphs on the EIT and on generated machines, every
        // candidate from the lower bound up to the first feasible one.
        let (mut feasible, mut refuted) = (0, 0);
        for case in 0..100 {
            let mut rng = StdRng::seed_from_u64(case_seed(36, case));
            let spec = if case % 2 == 0 {
                ArchSpec::eit()
            } else {
                gen_arch(&mut rng)
            };
            let g = gen_graph(&mut rng);
            let lb = ii_lower_bound(&g, &spec);
            for ii in lb..lb + 8 {
                let linear = eit_sat::encode_modulo(&g, &spec, ii).unwrap();
                let pairwise = encode_pairwise(&g, &spec, ii);
                assert_eq!(
                    linear.is_none(),
                    pairwise.is_none(),
                    "case {case} II {ii}: only one encoding refutes statically"
                );
                let (Some(linear), Some((reference, rows))) = (linear, pairwise) else {
                    continue;
                };
                let model = solve(&linear.cnf);
                assert_eq!(
                    model.is_some(),
                    solve(&reference).is_some(),
                    "case {case} II {ii}: the encodings disagree"
                );
                let Some(model) = model else {
                    refuted += 1;
                    continue;
                };
                feasible += 1;
                // The first true residue of each row, every other residue
                // false: a model of the reference CNF.
                let t = linear.decoder.decode(&|v| model[v as usize]);
                let mut pinned = reference;
                for (n, row) in &rows {
                    for (r, &l) in row.iter().enumerate() {
                        pinned.add_clause(&[if r as i32 == t[n] { l } else { l.negated() }]);
                    }
                }
                assert!(
                    solve(&pinned).is_some(),
                    "case {case} II {ii}: the reduced window breaks the reference"
                );
                let s = least_starts(&g, &spec, ii, &t).expect("fuzz graphs are acyclic");
                let v = eit_arch::verify_modulo(&g, &spec, &s, ii);
                assert!(v.is_empty(), "case {case} II {ii}: {v:?}");
                break;
            }
        }
        assert!(
            feasible == 100 && refuted >= 50,
            "{feasible} feasible, {refuted} refuted"
        );
    }

    fn detector() -> Graph {
        let mut g = eit_apps::by_name("detector").expect("table kernel").graph;
        eit_ir::merge_pipeline_ops(&mut g);
        g
    }

    #[test]
    fn decoding_is_total_and_the_least_starts_meet_the_precedences() {
        // All-false and all-true assignments are no models, yet each
        // decodes to a residue inside every op's window, and the derived
        // starts meet (1) on every edge into an op and (4) on every datum.
        let g = detector();
        let spec = ArchSpec::eit();
        let ii = ii_lower_bound(&g, &spec);
        let enc = eit_sat::encode_modulo(&g, &spec, ii)
            .unwrap()
            .expect("detector encodes at its lower bound");
        let latency = spec.latency_of(&g);
        for value in [false, true] {
            let t = enc.decoder.decode(&|_| value);
            for n in g.ids().filter(|&n| g.category(n).is_op()) {
                let last = ii - spec.duration(&g.node(n).kind).max(1);
                assert!((0..=last).contains(&t[&n]), "{value}: {n:?} at {}", t[&n]);
            }
            let s = least_starts(&g, &spec, ii, &t).expect("detector is acyclic");
            for (from, to) in g.edges() {
                if g.category(to).is_op() {
                    assert!(s[&from] + latency(from) <= s[&to], "{value}: (1) on {to:?}");
                } else {
                    assert_eq!(s[&to], s[&from] + latency(from), "{value}: (4) on {to:?}");
                }
            }
            assert!(g.inputs().iter().all(|d| s[d] == 0), "{value}: inputs at 0");
        }
    }

    #[test]
    fn a_stopped_encode_ends_early_and_the_probe_answers_cancelled() {
        let g = detector();
        let spec = ArchSpec::eit();
        let ii = ii_lower_bound(&g, &spec);
        let full = eit_sat::encode_modulo(&g, &spec, ii)
            .unwrap()
            .expect("detector encodes at its lower bound");
        let mut cnf = eit_sat::Cnf::default();
        let mut polls = 0;
        let r = eit_sat::encode_modulo_into(
            &g,
            &spec,
            ii,
            &mut eit_sat::WithStop {
                sink: &mut cnf,
                stop: || {
                    polls += 1;
                    polls > 100
                },
            },
        );
        let Err(EncodeError::Stopped { vars, clauses }) = r else {
            panic!("the encoder did not stop");
        };
        assert_eq!((vars, clauses), (cnf.n_vars, cnf.clauses.len() as u64));
        assert!(clauses > 0 && clauses < full.cnf.clauses.len() as u64 / 10);

        let cancel = CancelToken::new();
        cancel.cancel();
        let slot = ProbeSlot {
            ii,
            budget: Duration::from_secs(60),
            cancel: Some(cancel),
            trace: None,
        };
        let p = sat_probe(&g, &spec, &slot);
        assert!(matches!(p.outcome, IiOutcome::Cancelled));
        let sat = p.sat.expect("a stopped probe reports its SAT work");
        assert!(sat.clauses < full.cnf.clauses.len() as u64);
    }
}
