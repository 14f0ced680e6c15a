//! The CP probe: one candidate II's CSP (`build_probe`) and its
//! satisfaction search (`probe_ii`).

use super::sweep::{ProbeSlot, Probed};
use super::{config_groups, Backend, IiOutcome, ModuloError, ModuloOptions};
use crate::model::{post_config_separation, post_precedences, post_unit_capacities};
use eit_arch::ArchSpec;
use eit_cp::props::diff2::Rect;
use eit_cp::{solve, Model, Phase, SearchConfig, SearchStatus, VarId, VarSel};
use eit_ir::{Graph, NodeId};
use std::collections::HashMap;
use std::time::Duration;

/// Attempt one candidate II (public so harnesses can probe specific IIs).
/// A candidate below 1 is [`IiOutcome::Malformed`].
pub fn schedule_at_ii(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    include_reconfig: bool,
    budget: Duration,
) -> IiOutcome {
    let opts = ModuloOptions {
        include_reconfig,
        ..Default::default()
    };
    let slot = ProbeSlot {
        ii,
        budget,
        cancel: None,
        trace: None,
    };
    probe_ii(g, spec, &opts, &slot).outcome
}

/// The per-candidate-II CSP with its variable handles, ready to solve.
pub struct ProbeModel {
    pub model: Model,
    /// The probe's phased search (bands → op starts → window → stages →
    /// data, or the bandless subset).
    pub phases: Vec<Phase>,
    /// Absolute start per node.
    pub s_var: Vec<VarId>,
}

/// Build the CSP for one candidate II. Returns `Ok(None)` when a static
/// capacity cut already refutes the candidate — no search runs, so a
/// recorded probe stream for such a candidate is empty. Edges (1)/(4),
/// unit capacities (2) and configurations (3) are posted as in
/// [`crate::model`], over `s` and the window `t`. Every graph the IR
/// accepts builds; the only `Err` is [`ModuloError::IiBelowOne`].
pub fn build_probe(
    g: &Graph,
    spec: &ArchSpec,
    ii: i32,
    include_reconfig: bool,
) -> Result<Option<ProbeModel>, ModuloError> {
    if ii < 1 {
        return Err(ModuloError::IiBelowOne(ii));
    }
    let duration = |n: NodeId| spec.duration(&g.node(n).kind);
    let cp = g.critical_path(&|n| spec.latency(&g.node(n).kind));
    // Stage bound: latency alone needs cp/ii stages, but the banded model
    // can force a wrap-around (stage increment) at every hop of a
    // dependency chain whose next band lies earlier in the window, so the
    // op-count depth of the graph is the safe additional allowance.
    let op_depth = g.critical_path(&|n| i32::from(g.category(n).is_op()));
    let k_max = cp / ii + if include_reconfig { op_depth } else { 2 };
    let horizon = (k_max + 1) * ii;

    let mut m = Model::new();
    let mut t_var: HashMap<NodeId, VarId> = HashMap::new();
    // Window positions and stages of the ops, in graph order.
    let mut t_list: Vec<VarId> = Vec::new();
    let mut k_list: Vec<VarId> = Vec::new();
    let mut op_start: Vec<Option<VarId>> = Vec::with_capacity(g.len());

    for n in g.ids() {
        if g.category(n).is_op() {
            // No window wrap-around: the op's occupancy fits inside one
            // window instance.
            let t = m.new_var_named(0, ii - duration(n).max(1), &format!("t_{}", g.node(n).name));
            let k = m.new_var(0, k_max);
            let s = m.new_var(0, horizon);
            // s = ii·k + t, domain-consistent (bounds-only channeling
            // starves the window Cumulative of pruning).
            m.mod_channel(s, k, t, ii);
            t_var.insert(n, t);
            t_list.push(t);
            k_list.push(k);
            op_start.push(Some(s));
        } else {
            op_start.push(None);
        }
    }

    // Data starts and precedences on s.
    let s_var = post_precedences(&mut m, g, spec, &op_start, horizon + spec.pipeline_depth());

    // Window resource constraints on t, one Cumulative per unit.
    post_unit_capacities(&mut m, g, spec, |n| t_var[&n]);

    // One configuration per window slot.
    post_config_separation(&mut m, g, |n| t_var[&n]);

    // Contiguous configuration bands (the include-reconfig model).
    let mut band_vars: Vec<VarId> = Vec::new();
    if include_reconfig {
        let groups = config_groups(g);
        let mut rects = Vec::new();
        let zero = m.new_const(0);
        let one = m.new_const(1);
        let mut len_terms: Vec<(i64, VarId)> = Vec::new();
        for (cfg, members) in &groups {
            let b = m.new_var(0, ii - 1);
            // Static capacity cut: a band must hold its group's issue
            // work — at least ceil(ops * req / lanes) slots, as a core op
            // issues in one cycle (time-table filtering cannot see this
            // while the band is still loose).
            let lanes = spec.n_lanes as i64;
            let work = members.len() as i64 * if cfg.matrix { lanes } else { 1 };
            let need = ((work + lanes - 1) / lanes).max(1) as i32;
            if need > ii {
                return Ok(None);
            }
            let len = m.new_var(need, ii);
            // b + len <= ii
            m.linear_leq(vec![(1, b), (1, len)], ii as i64);
            for &op in members {
                // b <= t_op <= b + len - 1
                m.linear_leq(vec![(1, b), (-1, t_var[&op])], 0);
                m.linear_leq(vec![(1, t_var[&op]), (-1, b), (-1, len)], -1);
            }
            rects.push(Rect {
                origin: [b, zero],
                len: [len, one],
            });
            len_terms.push((1, len));
            band_vars.push(b);
            band_vars.push(len);
        }
        if rects.len() > 1 {
            m.diff2(rects);
        }
        // Bands partition (a subset of) the window: sum len <= II.
        if !len_terms.is_empty() {
            m.linear_leq(len_terms, ii as i64);
        }
    }

    // Search: configuration bands first (they shape the window), then
    // absolute op starts — list-scheduling style, as in the main model —
    // then any window/stage variables propagation left open, then data.
    let op_s: Vec<VarId> = g
        .ids()
        .filter(|&n| g.category(n).is_op())
        .map(|n| s_var[n.idx()])
        .collect();
    let data_s: Vec<VarId> = g
        .ids()
        .filter(|&n| g.category(n).is_data())
        .map(|n| s_var[n.idx()])
        .collect();
    let mut phases = Vec::new();
    if !band_vars.is_empty() {
        phases.push(Phase::new(band_vars, VarSel::InputOrder));
        phases.push(Phase::new(op_s, VarSel::SmallestMin));
        phases.push(Phase::new(t_list, VarSel::FirstFail));
        phases.push(Phase::new(k_list, VarSel::SmallestMin));
    } else {
        phases.push(Phase::new(t_list, VarSel::FirstFail));
        phases.push(Phase::new(k_list, VarSel::SmallestMin));
    }
    phases.push(Phase::new(data_s, VarSel::SmallestMin));

    Ok(Some(ProbeModel {
        model: m,
        phases,
        s_var,
    }))
}

/// The CP probe: build the candidate's CSP and run its satisfaction
/// search under the slot's budget, token and trace buffer.
pub(super) fn probe_ii(
    g: &Graph,
    spec: &ArchSpec,
    opts: &ModuloOptions,
    slot: &ProbeSlot,
) -> Probed {
    let pm = match build_probe(g, spec, slot.ii, opts.include_reconfig) {
        Ok(Some(pm)) => pm,
        Ok(None) => return Probed::bare(Backend::Cp, IiOutcome::Infeasible),
        Err(e) => return Probed::bare(Backend::Cp, IiOutcome::Malformed(e)),
    };
    let ProbeModel {
        mut model,
        phases,
        s_var,
    } = pm;
    let cfg = SearchConfig {
        timeout: Some(slot.budget),
        cancel: slot.cancel.clone(),
        trace: slot.trace.clone(),
        ..opts.probe_config(phases)
    };
    let r = solve(&mut model, &cfg);
    let outcome = match r.status {
        SearchStatus::Optimal | SearchStatus::Feasible => {
            let sol = r.best.unwrap();
            IiOutcome::Feasible(g.ids().map(|n| (n, sol.value(s_var[n.idx()]))).collect())
        }
        SearchStatus::Infeasible => IiOutcome::Infeasible,
        SearchStatus::Unknown if r.cancelled => IiOutcome::Cancelled,
        SearchStatus::Unknown => IiOutcome::Timeout,
    };
    Probed {
        outcome,
        backend: Backend::Cp,
        nodes: r.stats.nodes,
        fails: r.stats.fails,
        sat: None,
    }
}
