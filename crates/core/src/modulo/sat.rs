//! The SAT probe (`sat_probe`) and the `--emit cnf` escape hatch, both
//! over `eit_sat`'s order encoding of one candidate II.

use super::sweep::{ProbeSlot, Probed};
use super::{ii_lower_bound, Backend, IiOutcome, ModuloError, ModuloOptions, SatStats};
use eit_arch::ArchSpec;
use eit_ir::Graph;
use eit_sat::EncodeError;
use std::time::Instant;

/// The SAT probe: encode the candidate straight into a fresh CDCL
/// solver, solve it, and decode a model. The driver still runs both
/// verifiers on a winner this probe decided before accepting it.
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
        Err(EncodeError::Unsupported { node, detail }) => {
            return Probed::bare(
                Backend::Sat,
                IiOutcome::Malformed(ModuloError::ModelBuild { node, detail }),
            )
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
            IiOutcome::Feasible(decoder.decode(g, spec, &|v| solver.model_value(v)))
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
    crate::model::checked_horizon(g, spec).map_err(ModuloError::TooLarge)?;
    let lb = ii_lower_bound(g, spec);
    let ub = crate::model::serial_horizon(g, spec);
    for ii in lb..=ub {
        let enc = eit_sat::encode_modulo(g, spec, ii).map_err(|e| match e {
            EncodeError::Unsupported { node, detail } => ModuloError::ModelBuild { node, detail },
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
    use eit_cp::CancelToken;
    use std::time::Duration;

    fn detector() -> Graph {
        let mut g = eit_apps::by_name("detector").expect("table kernel").graph;
        eit_ir::merge_pipeline_ops(&mut g);
        g
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
