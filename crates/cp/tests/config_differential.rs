//! The one-configuration-per-cycle propagator against the pairwise
//! `x ≠ y` it replaces. On random instances (tasks with holey domains and
//! a configuration each) the global propagator and one `NeqOffset` per
//! differently configured pair must leave identical domains after every
//! fix of a random dive, and must give identical searches: the same
//! solution sequence, optimum and node and fail counts.

use eit_cp::props::basic::{NeqOffset, OneConfigPerCycle};
use eit_cp::{minimize, solve_all, Domain, Model, Phase, SearchConfig, SearchStats, VarId, VarSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One instance: a domain and a configuration per task.
type Tasks = Vec<(Domain, u32)>;

fn random_tasks(rng: &mut StdRng) -> Tasks {
    let hi = rng.gen_range(2..7);
    let configs = rng.gen_range(1..4);
    (0..rng.gen_range(2..8))
        .map(|_| {
            let vals: Vec<i32> = (0..=hi).filter(|_| rng.gen_bool(0.6)).collect();
            let dom = if vals.is_empty() {
                Domain::singleton(rng.gen_range(0..=hi))
            } else {
                Domain::from_values(vals)
            };
            (dom, rng.gen_range(0..configs))
        })
        .collect()
}

/// The model of `tasks` with (3) posted globally or pairwise.
fn build(tasks: &Tasks, global: bool) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = tasks
        .iter()
        .map(|(d, _)| m.store.new_var_with_domain(d.clone(), ""))
        .collect();
    if global {
        let t = vars.iter().zip(tasks).map(|(&v, &(_, c))| (v, c)).collect();
        m.post(Box::new(OneConfigPerCycle::new(t)));
    } else {
        for i in 0..tasks.len() {
            for j in i + 1..tasks.len() {
                if tasks[i].1 != tasks[j].1 {
                    m.post(Box::new(NeqOffset {
                        x: vars[i],
                        y: vars[j],
                        c: 0,
                    }));
                }
            }
        }
    }
    (m, vars)
}

fn domains(m: &Model, vars: &[VarId]) -> Vec<Domain> {
    vars.iter().map(|&v| m.store.dom(v).clone()).collect()
}

#[test]
fn global_and_pairwise_agree_after_every_fix() {
    let mut rng = StdRng::seed_from_u64(0x00C0_4F16);
    let mut fixes = 0;
    for case in 0..400 {
        let tasks = random_tasks(&mut rng);
        let (mut g, vars) = build(&tasks, true);
        let (mut p, _) = build(&tasks, false);
        let root = (
            g.engine.fixpoint(&mut g.store),
            p.engine.fixpoint(&mut p.store),
        );
        assert_eq!(root.0, root.1, "case {case}: root outcome");
        if root.0.is_err() {
            continue;
        }
        assert_eq!(domains(&g, &vars), domains(&p, &vars), "case {case}: root");
        // A few random dives: fix an unfixed task to a value of its
        // domain, propagate both, compare; pop everything after a dive.
        for _ in 0..3 {
            let mut depth = 0;
            while let Some(&v) = vars
                .iter()
                .filter(|&&v| !g.store.is_fixed(v))
                .nth(rng.gen_range(0..vars.len()) % vars.len().max(1))
                .or_else(|| vars.iter().find(|&&v| !g.store.is_fixed(v)))
            {
                let vals: Vec<i32> = g.store.dom(v).iter().collect();
                let val = vals[rng.gen_range(0..vals.len())];
                g.store.push_level();
                p.store.push_level();
                depth += 1;
                fixes += 1;
                g.store.fix(v, val).unwrap();
                p.store.fix(v, val).unwrap();
                let got = (
                    g.engine.fixpoint(&mut g.store),
                    p.engine.fixpoint(&mut p.store),
                );
                assert_eq!(got.0, got.1, "case {case}: outcome after {v:?} = {val}");
                if got.0.is_err() {
                    break;
                }
                assert_eq!(
                    domains(&g, &vars),
                    domains(&p, &vars),
                    "case {case}: after {v:?} = {val}"
                );
            }
            for _ in 0..depth {
                g.store.pop_level();
                p.store.pop_level();
            }
        }
    }
    assert!(fixes > 1000, "only {fixes} fixes compared");
}

/// Every solution in search order, plus the minimized maximum with its
/// search statistics.
fn search(tasks: &Tasks, global: bool) -> (Vec<Vec<i32>>, Option<i32>, SearchStats) {
    let (mut m, vars) = build(tasks, global);
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars.clone(), VarSel::InputOrder)],
        ..Default::default()
    };
    let (_, sols) = solve_all(&mut m, &cfg, 10_000);
    let all = sols
        .iter()
        .map(|s| vars.iter().map(|&v| s.value(v)).collect())
        .collect();
    let (mut m, vars) = build(tasks, global);
    let obj = m.new_var(0, 10);
    m.max_of(vars.clone(), obj);
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail)],
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    (all, r.objective, r.stats)
}

#[test]
fn global_and_pairwise_search_identically() {
    let mut rng = StdRng::seed_from_u64(0x000C_0F1C);
    for case in 0..300 {
        let tasks = random_tasks(&mut rng);
        let (g_sols, g_obj, g) = search(&tasks, true);
        let (p_sols, p_obj, p) = search(&tasks, false);
        assert_eq!(g_sols, p_sols, "case {case}: solutions {tasks:?}");
        assert_eq!(g_obj, p_obj, "case {case}: optimum {tasks:?}");
        assert_eq!(
            (g.nodes, g.fails),
            (p.nodes, p.fails),
            "case {case}: search effort {tasks:?}"
        );
    }
}
