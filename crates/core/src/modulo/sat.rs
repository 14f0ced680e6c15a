//! The SAT probe (`sat_probe`) and the `--emit cnf` escape hatch, both
//! over `eit_sat`'s order encoding of one candidate II.

use super::sweep::{ProbeSlot, Probed};
use super::{ii_lower_bound, Backend, IiOutcome, ModuloError, ModuloOptions, SatStats};
use eit_arch::ArchSpec;
use eit_ir::Graph;
use std::time::Instant;

/// The SAT probe: encode the candidate straight into a fresh CDCL
/// solver, solve it, and decode a model. The driver still runs both
/// verifiers on a winner this probe decided before accepting it.
pub(super) fn sat_probe(g: &Graph, spec: &ArchSpec, slot: &ProbeSlot) -> Probed {
    let deadline = eit_cp::deadline_after(Instant::now(), slot.budget);
    let cancelled = || slot.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut solver = eit_sat::Solver::new();
    let decoder = match eit_sat::encode_modulo_into(g, spec, slot.ii, &mut solver) {
        Ok(Some(decoder)) => decoder,
        Ok(None) => {
            return Probed {
                sat: Some(SatStats::default()),
                ..Probed::bare(Backend::Sat, IiOutcome::Infeasible)
            }
        }
        Err(e) => {
            return Probed::bare(
                Backend::Sat,
                IiOutcome::Malformed(ModuloError::ModelBuild {
                    node: e.node,
                    detail: e.detail,
                }),
            )
        }
    };
    let mut sat = SatStats {
        vars: u64::from(decoder.vars),
        clauses: decoder.clauses,
        ..Default::default()
    };
    // A cancelled probe (a race whose CP side decided first, an expired
    // deadline, a candidate above the winner) stops here, at the
    // solver's bounded polls, or once a model turns up; a model found
    // after cancellation is not decoded.
    if cancelled() {
        return Probed {
            sat: Some(sat),
            ..Probed::bare(Backend::Sat, IiOutcome::Cancelled)
        };
    }
    let mut stop = || deadline.is_some_and(|d| Instant::now() >= d) || cancelled();
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
        let enc = eit_sat::encode_modulo(g, spec, ii).map_err(|e| ModuloError::ModelBuild {
            node: e.node.clone(),
            detail: e.detail,
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
