//! Offset views against the `y = x + c` propagator they replace. Random
//! models over base variables and derived positions `x + c` are built
//! twice: once with every derived position a real variable tied to its
//! source by `XPlusCEqY`, once with it a view (`Store::view`). Both must
//! reach the same root fixpoint on every position, and the same
//! optimum, incumbent, node and fail counts; every incumbent must satisfy
//! the constraints.

use eit_cp::props::basic::{NeqOffset, OneConfigPerCycle, XPlusCEqY, XPlusCLeqY};
use eit_cp::props::cumulative::{CumTask, Cumulative};
use eit_cp::props::diff2::Rect;
use eit_cp::props::linear::LinearLeq;
use eit_cp::{minimize, Domain, Model, Phase, SearchConfig, SearchStatus, VarId, VarSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A constraint over positions (bases first, then derived positions).
#[derive(Clone, Debug)]
enum C {
    Neq(usize, usize),
    Leq(usize, i32, usize),         // x + c ≤ y
    LinLeq(Vec<(i64, usize)>, i64), // Σ aᵢxᵢ ≤ c
    Cumulative(Vec<(usize, i32, i32)>, i32),
    Diff2(Vec<(usize, usize, i32, i32)>), // (x, y, w, h)
    Config(Vec<(usize, u32)>),            // at most one configuration per value
}

fn check(c: &C, a: &[i32]) -> bool {
    match c {
        C::Neq(x, y) => a[*x] != a[*y],
        C::Leq(x, k, y) => a[*x] + k <= a[*y],
        C::LinLeq(terms, k) => terms.iter().map(|&(co, v)| co * a[v] as i64).sum::<i64>() <= *k,
        C::Cumulative(tasks, cap) => {
            let lo = tasks.iter().map(|&(v, _, _)| a[v]).min().unwrap_or(0);
            let hi = tasks.iter().map(|&(v, d, _)| a[v] + d).max().unwrap_or(0);
            (lo..hi).all(|t| {
                tasks
                    .iter()
                    .filter(|&&(v, d, _)| a[v] <= t && t < a[v] + d)
                    .map(|&(_, _, r)| r)
                    .sum::<i32>()
                    <= *cap
            })
        }
        C::Diff2(rects) => rects.iter().enumerate().all(|(i, &(x1, y1, w1, h1))| {
            rects[i + 1..].iter().all(|&(x2, y2, w2, h2)| {
                let x_overlap = a[x1] < a[x2] + w2 && a[x2] < a[x1] + w1;
                let y_overlap = a[y1] < a[y2] + h2 && a[y2] < a[y1] + h1;
                w1 == 0 || h1 == 0 || w2 == 0 || h2 == 0 || !(x_overlap && y_overlap)
            })
        }),
        C::Config(tasks) => tasks
            .iter()
            .all(|&(x, cx)| tasks.iter().all(|&(y, cy)| cx == cy || a[x] != a[y])),
    }
}

fn post(c: &C, m: &mut Model, vars: &[VarId]) {
    match c {
        C::Neq(x, y) => {
            m.post(Box::new(NeqOffset {
                x: vars[*x],
                y: vars[*y],
                c: 0,
            }));
        }
        C::Leq(x, k, y) => {
            m.post(Box::new(XPlusCLeqY {
                x: vars[*x],
                c: *k,
                y: vars[*y],
            }));
        }
        C::LinLeq(terms, k) => {
            let t = terms.iter().map(|&(co, v)| (co, vars[v])).collect();
            m.post(Box::new(LinearLeq::new(t, *k)));
        }
        C::Cumulative(tasks, cap) => {
            let t = tasks
                .iter()
                .map(|&(v, dur, req)| CumTask {
                    start: vars[v],
                    dur,
                    req,
                })
                .collect();
            m.post(Box::new(Cumulative::new(t, *cap)));
        }
        C::Diff2(rects) => {
            let r = rects
                .iter()
                .map(|&(x, y, w, h)| Rect {
                    origin: [vars[x], vars[y]],
                    len: [m.new_const(w), m.new_const(h)],
                })
                .collect();
            m.diff2(r);
        }
        C::Config(tasks) => {
            let t = tasks.iter().map(|&(x, cfg)| (vars[x], cfg)).collect();
            m.post(Box::new(OneConfigPerCycle::new(t)));
        }
    }
}

/// One random model: base domains, derived positions `(source, offset)`
/// (a source may itself be derived), and constraints over all positions.
#[derive(Debug)]
struct Instance {
    bases: Vec<Domain>,
    derived: Vec<(usize, i32)>,
    cs: Vec<C>,
}

fn random_instance(rng: &mut StdRng) -> Instance {
    let hi = rng.gen_range(2..6);
    let bases: Vec<Domain> = (0..rng.gen_range(2..5))
        .map(|_| {
            let vals: Vec<i32> = (0..=hi).filter(|_| rng.gen_bool(0.7)).collect();
            if vals.is_empty() {
                Domain::singleton(rng.gen_range(0..=hi))
            } else {
                Domain::from_values(vals)
            }
        })
        .collect();
    let mut derived = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let src = rng.gen_range(0..bases.len() + derived.len());
        derived.push((src, rng.gen_range(-3..=3)));
    }
    let n = bases.len() + derived.len();
    let pos = |rng: &mut StdRng| rng.gen_range(0..n);
    let cs = (0..rng.gen_range(1..5))
        .map(|_| match rng.gen_range(0..7) {
            0 => C::Neq(pos(rng), pos(rng)),
            1 => C::Leq(pos(rng), rng.gen_range(-2..3), pos(rng)),
            2 => {
                let terms = (0..rng.gen_range(1..4))
                    .map(|_| (rng.gen_range(-2i64..3), pos(rng)))
                    .collect();
                C::LinLeq(terms, rng.gen_range(-3i64..10))
            }
            3 => {
                let tasks = (0..rng.gen_range(2..5))
                    .map(|_| (pos(rng), rng.gen_range(1..3), rng.gen_range(1..3)))
                    .collect();
                C::Cumulative(tasks, rng.gen_range(1..4))
            }
            4 => {
                // A unit of capacity 1.
                let tasks = (0..rng.gen_range(2..4))
                    .map(|_| (pos(rng), rng.gen_range(1..3), 1))
                    .collect();
                C::Cumulative(tasks, 1)
            }
            5 => {
                let rects = (0..rng.gen_range(2..5))
                    .map(|_| {
                        let (x, y) = (pos(rng), pos(rng));
                        (x, y, rng.gen_range(0..3), rng.gen_range(1..3))
                    })
                    .collect();
                C::Diff2(rects)
            }
            _ => {
                let tasks = (0..rng.gen_range(2..5))
                    .map(|_| (pos(rng), rng.gen_range(0..3)))
                    .collect();
                C::Config(tasks)
            }
        })
        .collect();
    Instance { bases, derived, cs }
}

/// What one build of an instance must reproduce under the other.
#[derive(Debug, PartialEq)]
struct Run {
    /// Every position's domain at the root fixpoint (`None`: it failed).
    root: Option<Vec<Domain>>,
    status: SearchStatus,
    objective: Option<i32>,
    best: Option<Vec<i32>>,
    nodes: u64,
    fails: u64,
}

/// Build `inst` with derived positions as views or as `XPlusCEqY`-tied
/// variables, plus `obj = max(positions)`; returns the model, the
/// positions and `obj`.
fn build(inst: &Instance, views: bool) -> (Model, Vec<VarId>, VarId) {
    let mut m = Model::new();
    let mut vars: Vec<VarId> = inst
        .bases
        .iter()
        .map(|d| m.store.new_var_with_domain(d.clone(), ""))
        .collect();
    for &(src, c) in &inst.derived {
        let v = if views {
            m.view(vars[src], c)
        } else {
            let y = m.new_var(-20, 20);
            m.post(Box::new(XPlusCEqY { x: vars[src], c, y }));
            y
        };
        vars.push(v);
    }
    for c in &inst.cs {
        post(c, &mut m, &vars);
    }
    let obj = m.new_var(-20, 20);
    m.max_of(vars.clone(), obj);
    (m, vars, obj)
}

/// The root fixpoint of one build, and the minimization of another.
fn run(inst: &Instance, views: bool) -> Run {
    let (mut m, vars, _) = build(inst, views);
    let root = m.engine.fixpoint(&mut m.store).ok().map(|()| {
        vars.iter()
            .map(|&v| m.store.domain(v).into_owned())
            .collect()
    });
    let (mut m, vars, obj) = build(inst, views);
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars.clone(), VarSel::SmallestMin)],
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    Run {
        root,
        status: r.status,
        objective: r.objective,
        best: r
            .best
            .map(|sol| vars.iter().map(|&v| sol.value(v)).collect()),
        nodes: r.stats.nodes,
        fails: r.stats.fails,
    }
}

#[test]
fn views_reach_the_fixpoints_and_search_of_eq_offset() {
    let mut rng = StdRng::seed_from_u64(0x000F_F5E7);
    let (cases, mut solved) = (400, 0);
    for case in 0..cases {
        let inst = random_instance(&mut rng);
        let (viewed, tied) = (run(&inst, true), run(&inst, false));
        assert_eq!(viewed, tied, "case {case}: {inst:?}");
        if let Some(best) = &viewed.best {
            solved += 1;
            let nb = inst.bases.len();
            for (j, &(src, c)) in inst.derived.iter().enumerate() {
                assert_eq!(best[nb + j], best[src] + c, "case {case}: view value");
            }
            for c in &inst.cs {
                assert!(check(c, best), "case {case}: {c:?} violated by {best:?}");
            }
        }
    }
    assert!(
        (cases / 4..cases).contains(&solved),
        "{solved} of {cases} solved"
    );
}
