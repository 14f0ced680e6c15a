//! Differential testing of the solver against brute force: random small
//! CSPs are solved both by exhaustive enumeration and by the CP search;
//! the outcomes (satisfiability, optimal objective) must agree exactly.
//!
//! This is the strongest correctness evidence a solver can have short of
//! proofs: any unsound propagator (pruning a value that belongs to a
//! solution) or incomplete search shows up as a disagreement.

use eit_cp::props::basic::{NeqOffset, XPlusCEqY, XPlusCLeqY};
use eit_cp::props::cumulative::{CumTask, Cumulative};
use eit_cp::props::diff2::{Diff2, Rect};
use eit_cp::props::geometry::{ModChannel, SlotGeometry};
use eit_cp::props::linear::LinearLeq;
use eit_cp::props::reify::PageLineImplies;
use eit_cp::{minimize, solve, Model, Phase, SearchConfig, SearchStatus, VarId, VarSel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A `Diff2` rectangle length: a constant, or one of the instance's
/// variables (constraint (11) uses lifetime variables as lengths).
#[derive(Clone, Copy, Debug)]
enum Ext {
    Fixed(i32),
    Var(usize),
}

impl Ext {
    fn value(self, a: &[i32]) -> i32 {
        match self {
            Ext::Fixed(w) => w,
            Ext::Var(v) => a[v],
        }
    }
}

/// A declarative constraint we can both post and brute-force-check.
#[derive(Clone, Debug)]
enum C {
    Neq(usize, usize),
    Leq(usize, i32, usize),         // x + c ≤ y
    EqOff(usize, i32, usize),       // y = x + c
    LinLeq(Vec<(i64, usize)>, i64), // Σ aᵢxᵢ ≤ c
    Cumulative(Vec<(usize, i32, i32)>, i32),
    Diff2(Vec<(usize, usize, Ext, Ext)>),        // (x, y, w, h)
    ModChannel(usize, usize, usize, i32),        // s = m·k + t, t ∈ [0, m)
    SlotGeometry(usize, usize, usize, i32, i32), // (slot, line, page, banks, page_size)
    PageLineImplies(usize, usize, usize, usize), // (page_d, line_d, page_e, line_e)
}

fn check(c: &C, a: &[i32]) -> bool {
    match c {
        C::Neq(x, y) => a[*x] != a[*y],
        C::Leq(x, k, y) => a[*x] + k <= a[*y],
        C::EqOff(x, k, y) => a[*y] == a[*x] + k,
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
        C::Diff2(rects) => {
            // A rectangle with a zero length occupies nothing.
            let solid: Vec<(i32, i32, i32, i32)> = rects
                .iter()
                .map(|&(x, y, w, h)| (a[x], a[y], w.value(a), h.value(a)))
                .filter(|&(_, _, w, h)| w > 0 && h > 0)
                .collect();
            for (i, &(x1, y1, w1, h1)) in solid.iter().enumerate() {
                for &(x2, y2, w2, h2) in &solid[i + 1..] {
                    let x_overlap = x1 < x2 + w2 && x2 < x1 + w1;
                    let y_overlap = y1 < y2 + h2 && y2 < y1 + h1;
                    if x_overlap && y_overlap {
                        return false;
                    }
                }
            }
            true
        }
        C::ModChannel(s, k, t, m) => a[*t] < *m && a[*s] == m * a[*k] + a[*t],
        C::SlotGeometry(slot, line, page, banks, page_size) => {
            a[*line] == a[*slot] / banks && a[*page] == (a[*slot] % banks) / page_size
        }
        C::PageLineImplies(pd, ld, pe, le) => a[*pd] != a[*pe] || a[*ld] == a[*le],
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
        C::EqOff(x, k, y) => {
            m.post(Box::new(XPlusCEqY {
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
                .map(|&(v, d, r)| CumTask {
                    start: vars[v],
                    dur: d,
                    req: r,
                })
                .collect();
            m.post(Box::new(Cumulative::new(t, *cap)));
        }
        C::Diff2(rects) => {
            let r = rects
                .iter()
                .map(|&(x, y, w, h)| {
                    let mut len = |e: Ext| match e {
                        Ext::Fixed(c) => m.new_const(c),
                        Ext::Var(v) => vars[v],
                    };
                    Rect {
                        origin: [vars[x], vars[y]],
                        len: [len(w), len(h)],
                    }
                })
                .collect();
            m.diff2(r);
        }
        C::ModChannel(s, k, t, modulus) => {
            m.post(Box::new(ModChannel::new(
                vars[*s], vars[*k], vars[*t], *modulus,
            )));
        }
        C::SlotGeometry(slot, line, page, banks, page_size) => {
            m.post(Box::new(SlotGeometry::new(
                vars[*slot],
                vars[*line],
                vars[*page],
                *banks,
                *page_size,
            )));
        }
        C::PageLineImplies(pd, ld, pe, le) => {
            m.post(Box::new(PageLineImplies {
                page_d: vars[*pd],
                line_d: vars[*ld],
                page_e: vars[*pe],
                line_e: vars[*le],
            }));
        }
    }
}

/// Enumerate all assignments over `n` vars with domain `0..=hi`; return
/// (any satisfying assignment exists, minimal objective value of
/// `max(vars)` over satisfying assignments).
fn brute_force(n: usize, hi: i32, cs: &[C]) -> (bool, Option<i32>) {
    let mut a = vec![0i32; n];
    let mut sat = false;
    let mut best: Option<i32> = None;
    loop {
        if cs.iter().all(|c| check(c, &a)) {
            sat = true;
            let obj = *a.iter().max().unwrap();
            best = Some(best.map_or(obj, |b: i32| b.min(obj)));
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == n {
                return (sat, best);
            }
            a[i] += 1;
            if a[i] > hi {
                a[i] = 0;
                i += 1;
            } else {
                break;
            }
        }
    }
}

fn random_instance(rng: &mut StdRng, n: usize, hi: i32) -> Vec<C> {
    let mut cs = Vec::new();
    let n_cons = rng.gen_range(1..5);
    for _ in 0..n_cons {
        let c = match rng.gen_range(0..10) {
            0 => C::Neq(rng.gen_range(0..n), rng.gen_range(0..n)),
            1 => C::Leq(
                rng.gen_range(0..n),
                rng.gen_range(-2..3),
                rng.gen_range(0..n),
            ),
            2 => C::EqOff(
                rng.gen_range(0..n),
                rng.gen_range(-2..3),
                rng.gen_range(0..n),
            ),
            3 => {
                let k = rng.gen_range(1..=n);
                let terms = (0..k)
                    .map(|_| (rng.gen_range(-2i64..3), rng.gen_range(0..n)))
                    .collect();
                C::LinLeq(terms, rng.gen_range(-3i64..10))
            }
            4 => {
                let k = rng.gen_range(2..=n);
                let tasks = (0..k)
                    .map(|_| {
                        (
                            rng.gen_range(0..n),
                            rng.gen_range(1..3),
                            rng.gen_range(1..3),
                        )
                    })
                    .collect();
                C::Cumulative(tasks, rng.gen_range(1..4))
            }
            5 => {
                // A unit of capacity 1, as the scheduler posts the
                // accelerator and the index/merge unit.
                let k = rng.gen_range(2..=n);
                let tasks = (0..k)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(1..3), 1))
                    .collect();
                C::Cumulative(tasks, 1)
            }
            6 => {
                // Up to six rectangles over at most four variables, so
                // origins are often shared; a length is a variable a
                // third of the time, else a constant in 0..3.
                let k = rng.gen_range(2..=6);
                let ext = |rng: &mut StdRng| {
                    if rng.gen_range(0..3) == 0 {
                        Ext::Var(rng.gen_range(0..n))
                    } else {
                        Ext::Fixed(rng.gen_range(0..3))
                    }
                };
                let rects = (0..k)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n), ext(rng), ext(rng)))
                    .collect();
                C::Diff2(rects)
            }
            // The three channelings draw their variables independently,
            // so aliased arguments (s = k, slot = page, …) occur too.
            7 => C::ModChannel(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..=hi),
            ),
            8 => {
                let banks = rng.gen_range(1..=hi);
                C::SlotGeometry(
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                    banks,
                    rng.gen_range(1..=banks),
                )
            }
            _ => C::PageLineImplies(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0..n),
            ),
        };
        // Drop degenerate self-referencing binary constraints.
        let degenerate = matches!(
            &c,
            C::Neq(x, y) | C::Leq(x, _, y) | C::EqOff(x, _, y) if x == y
        );
        if !degenerate {
            cs.push(c);
        }
    }
    cs
}

/// Satisfiability of `cs` by a complete CP search.
fn cp_satisfiable(n: usize, hi: i32, cs: &[C]) -> bool {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..n).map(|_| m.new_var(0, hi)).collect();
    for c in cs {
        post(c, &mut m, &vars);
    }
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail)],
        ..Default::default()
    };
    let r = solve(&mut m, &cfg);
    r.status == SearchStatus::Optimal && r.best.is_some()
}

/// Minimize `max(vars)` under `cs` on `m` (a fresh model, set up by the
/// caller: engine, domain representation) with an optional restart
/// policy; returns the optimum, the best solution's decision values and
/// the full stats block so callers can compare search effort.
fn minimize_max(
    mut m: Model,
    n: usize,
    hi: i32,
    cs: &[C],
    restarts: Option<eit_cp::RestartConfig>,
) -> (Option<i32>, Option<Vec<i32>>, eit_cp::SearchStats) {
    let vars: Vec<VarId> = (0..n).map(|_| m.new_var(0, hi)).collect();
    for c in cs {
        post(c, &mut m, &vars);
    }
    let obj = m.new_var(0, hi);
    m.max_of(vars.clone(), obj);
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
        restarts,
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    let best = r
        .best
        .as_ref()
        .map(|sol| vars.iter().map(|&v| sol.value(v)).collect());
    (r.objective, best, r.stats)
}

/// The tentpole's equivalence guarantee: the event-driven engine explores
/// the same search tree as the single-queue FIFO baseline — identical
/// optima and identical incumbent solutions — while doing no more search
/// work.
///
/// Propagator-invocation counts are deliberately *not* compared here: on
/// tiny dense instances the tiered scheduler re-runs cheap arithmetic
/// propagators per event where FIFO batches events while a propagator
/// waits in the queue, so the totals can go either way. On the
/// structured scheduling models the event engine cut QRD's invocations
/// from 39 420 to 10 542 (the verdict is recorded in DESIGN.md §5e);
/// from there on the per-layer `cp.propagations` count of the perfbench
/// benchmark tracks the event engine, not this micro-CSP suite.
#[test]
fn event_engine_agrees_with_fifo_baseline() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..300 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (ev_obj, ev_best, ev) = minimize_max(Model::new(), n, hi, &cs, None);
        let (ff_obj, ff_best, ff) = minimize_max(Model::with_fifo_baseline(), n, hi, &cs, None);
        let (ev_nodes, ev_fails, ff_nodes, ff_fails) = (ev.nodes, ev.fails, ff.nodes, ff.fails);
        assert_eq!(ev_obj, ff_obj, "case {case}: optimum differs: {cs:?}");
        assert_eq!(ev_best, ff_best, "case {case}: incumbent differs: {cs:?}");
        assert!(
            ev_nodes <= ff_nodes,
            "case {case}: event engine explored more nodes ({ev_nodes} > {ff_nodes}): {cs:?}"
        );
        assert!(
            ev_fails <= ff_fails,
            "case {case}: event engine failed more ({ev_fails} > {ff_fails}): {cs:?}"
        );
    }
}

/// Complete enumeration must produce the identical solution *set* under
/// both engines — not just the same optimum.
#[test]
fn event_engine_enumerates_the_same_solutions_as_fifo() {
    use eit_cp::solve_all;
    let mut rng = StdRng::seed_from_u64(0xE7E7);
    for case in 0..150 {
        let n = rng.gen_range(2..4);
        let hi = rng.gen_range(2..4);
        let cs = random_instance(&mut rng, n, hi);
        let mut sets = Vec::new();
        for fifo in [false, true] {
            let mut m = if fifo {
                Model::with_fifo_baseline()
            } else {
                Model::new()
            };
            let vars: Vec<VarId> = (0..n).map(|_| m.new_var(0, hi)).collect();
            for c in &cs {
                post(c, &mut m, &vars);
            }
            let cfg = SearchConfig {
                phases: vec![Phase::new(vars.clone(), VarSel::InputOrder)],
                ..Default::default()
            };
            let (_, sols) = solve_all(&mut m, &cfg, 10_000);
            let keys: Vec<Vec<i32>> = sols
                .iter()
                .map(|s| vars.iter().map(|&v| s.value(v)).collect())
                .collect();
            sets.push(keys);
        }
        // Identical search order ⇒ identical enumeration order, so compare
        // without sorting: order differences are themselves a regression.
        assert_eq!(sets[0], sets[1], "case {case}: {cs:?}");
    }
}

/// A copy of `s` with the same variable ids and current domains, at the
/// root level.
fn copy_store(s: &eit_cp::Store) -> eit_cp::Store {
    let mut c = eit_cp::Store::new();
    for i in 0..s.num_vars() {
        c.new_var_with_domain(s.dom(VarId(i as u32)).clone(), "");
    }
    c
}

/// Diff2 plus `x + c ≤ y` side constraints, posted on `s` into a fresh
/// engine. With `rescan` the engine is the FIFO baseline, where every
/// Diff2 run rescans all pairs on freshly read bounds.
fn diff2_engine(
    s: &eit_cp::Store,
    rects: &[Rect],
    leqs: &[(VarId, i32, VarId)],
    rescan: bool,
) -> eit_cp::Engine {
    let mut e = eit_cp::Engine::new();
    e.set_fifo_baseline(rescan);
    e.post(Box::new(Diff2::new(rects.to_vec(), s)), s);
    for &(x, c, y) in leqs {
        e.post(Box::new(XPlusCLeqY { x, c, y }), s);
    }
    e
}

/// Diff2's incremental runs — the bounds snapshot kept across re-runs in
/// one fixpoint, the pair loop over moved rectangles and the cached
/// pigeonhole peak — must prune exactly what full rescans prune. Random
/// bound tightenings and backtracks drive one long-lived engine; after
/// every fixpoint its domains must equal those a freshly posted Diff2
/// reaches from the same start with a full rescan on every run (or both
/// must fail). Side constraints move rectangle bounds between Diff2 runs
/// of one fixpoint; shared origins and a shared `one` length make one
/// pruning move several rectangles.
#[test]
fn diff2_incremental_matches_full_rescan() {
    let mut rng = StdRng::seed_from_u64(0xD1FF2);
    let (mut pruned, mut failed, mut fixpoints) = (0u32, 0u32, 0u32);
    for case in 0..300 {
        let mut s = eit_cp::Store::new();
        let hi = rng.gen_range(3..8);
        let pool: Vec<VarId> = (0..rng.gen_range(3..9)).map(|_| s.new_var(0, hi)).collect();
        let one = s.new_const(1);
        let len = |rng: &mut StdRng, s: &mut eit_cp::Store| match rng.gen_range(0..4) {
            0 => one,
            1 => pool[rng.gen_range(0..pool.len())],
            2 => s.new_var(rng.gen_range(0..2), rng.gen_range(2..5)),
            _ => s.new_const(rng.gen_range(1..4)),
        };
        let rects: Vec<Rect> = (0..rng.gen_range(2..=6))
            .map(|_| Rect {
                origin: [
                    pool[rng.gen_range(0..pool.len())],
                    pool[rng.gen_range(0..pool.len())],
                ],
                len: [len(&mut rng, &mut s), len(&mut rng, &mut s)],
            })
            .collect();
        let leqs: Vec<(VarId, i32, VarId)> = (0..rng.gen_range(0..3))
            .map(|_| {
                let x = pool[rng.gen_range(0..pool.len())];
                let y = pool[rng.gen_range(0..pool.len())];
                (x, rng.gen_range(0..3), y)
            })
            .filter(|&(x, _, y)| x != y)
            .collect();
        let vars: Vec<VarId> = (0..s.num_vars()).map(|i| VarId(i as u32)).collect();
        let mut inc = diff2_engine(&s, &rects, &leqs, false);
        if inc.fixpoint(&mut s).is_err() {
            continue;
        }
        for step in 0..40 {
            if s.depth() > 0 && rng.gen_range(0..3) == 0 {
                s.pop_level();
                continue;
            }
            s.push_level();
            // Tighten one to three bounds, never to an empty domain.
            for _ in 0..rng.gen_range(1..4) {
                let v = vars[rng.gen_range(0..vars.len())];
                let val = rng.gen_range(s.min(v)..=s.max(v));
                let r = if rng.gen_bool(0.5) {
                    s.remove_below(v, val)
                } else {
                    s.remove_above(v, val)
                };
                r.expect("a tightening inside the bounds cannot fail");
            }
            let mut fresh = copy_store(&s);
            let before = s.change_count();
            let got = inc.fixpoint(&mut s);
            let want = diff2_engine(&fresh, &rects, &leqs, true).fixpoint(&mut fresh);
            fixpoints += 1;
            assert_eq!(
                got.is_err(),
                want.is_err(),
                "case {case} step {step}: verdicts differ: {rects:?} {leqs:?}"
            );
            if got.is_err() {
                failed += 1;
                s.pop_level();
                continue;
            }
            if s.change_count() > before {
                pruned += 1;
            }
            for &v in &vars {
                assert_eq!(
                    (s.min(v), s.max(v), s.size(v)),
                    (fresh.min(v), fresh.max(v), fresh.size(v)),
                    "case {case} step {step}: {v:?} differs: {rects:?} {leqs:?}"
                );
            }
        }
    }
    // The walk must reach pruning and failing fixpoints, not only no-ops.
    assert!(
        pruned > 300,
        "only {pruned} of {fixpoints} fixpoints pruned"
    );
    assert!(
        failed > 150,
        "only {failed} of {fixpoints} fixpoints failed"
    );
}

/// Two stores built side by side with the same variable ids: in `fast`
/// a rectangle's time extent is a constant, in `general` a variable that
/// [`Twin::fix_extents`] fixes one level above the root.
struct Twin {
    fast: eit_cp::Store,
    general: eit_cp::Store,
    extents: Vec<(VarId, i32)>,
}

impl Twin {
    fn both(&mut self, f: impl Fn(&mut eit_cp::Store) -> VarId) -> VarId {
        let v = f(&mut self.fast);
        assert_eq!(v, f(&mut self.general), "the twin stores diverged");
        v
    }

    fn extent(&mut self, v: i32) -> VarId {
        let x = self.fast.new_const(v);
        assert_eq!(x, self.general.new_var(v, v + 1));
        self.extents.push((x, v));
        x
    }

    fn fix_extents(&mut self) {
        self.fast.push_level();
        self.general.push_level();
        for &(x, v) in &self.extents {
            self.general.fix(x, v).unwrap();
        }
    }
}

/// The constant-extent `Diff2` path must prune exactly what the general
/// pair loop prunes on the same rectangles. Time origins and lengths are
/// constants in one store and variables fixed above the root in its twin,
/// so one `Diff2` takes each path. Lengths may be zero, heights share a
/// `one` constant (or are zero), row origins are slot variables with holes
/// or views of them, and `x + c ≤ y` side constraints move rows between
/// `Diff2` runs of one fixpoint. Random tightenings and backtracks drive
/// both long-lived engines; after every fixpoint their domains must be
/// equal, or both must fail.
#[test]
fn diff2_fixed_extents_match_the_general_path() {
    let mut rng = StdRng::seed_from_u64(0xF1DE);
    let (mut pruned, mut failed, mut fixpoints) = (0u32, 0u32, 0u32);
    for case in 0..300 {
        let mut tw = Twin {
            fast: eit_cp::Store::new(),
            general: eit_cp::Store::new(),
            extents: Vec::new(),
        };
        let rows = rng.gen_range(2..6);
        let pool: Vec<VarId> = (0..rng.gen_range(2..7))
            .map(|_| {
                let v = tw.both(|s| s.new_var(0, rows));
                if rng.gen_bool(0.3) {
                    let hole = rng.gen_range(1..rows);
                    tw.fast.remove_value(v, hole).unwrap();
                    tw.general.remove_value(v, hole).unwrap();
                }
                v
            })
            .collect();
        let one = tw.both(|s| s.new_const(1));
        let rects: Vec<Rect> = (0..rng.gen_range(2..=7))
            .map(|_| {
                let t = tw.extent(rng.gen_range(0..6));
                let w = tw.extent(rng.gen_range(0..4));
                let base = pool[rng.gen_range(0..pool.len())];
                let y = match rng.gen_range(0..3) {
                    0 => {
                        let c = rng.gen_range(1..3);
                        tw.both(|s| s.view(base, c))
                    }
                    _ => base,
                };
                let h = match rng.gen_range(0..6) {
                    0 => tw.both(|s| s.new_const(0)),
                    1 => tw.both(|s| s.new_const(2)),
                    _ => one,
                };
                Rect {
                    origin: [t, y],
                    len: [w, h],
                }
            })
            .collect();
        let leqs: Vec<(VarId, i32, VarId)> = (0..rng.gen_range(0..3))
            .map(|_| {
                let x = pool[rng.gen_range(0..pool.len())];
                let y = pool[rng.gen_range(0..pool.len())];
                (x, rng.gen_range(0..2), y)
            })
            .filter(|&(x, _, y)| x != y)
            .collect();
        let engine = |s: &eit_cp::Store, fixed: bool| {
            let d = Diff2::new(rects.clone(), s);
            assert_eq!(d.has_fixed_extents(), fixed, "case {case}: wrong path");
            let mut e = eit_cp::Engine::new();
            e.post(Box::new(d), s);
            for &(x, c, y) in &leqs {
                e.post(Box::new(XPlusCLeqY { x, c, y }), s);
            }
            e
        };
        let mut fast = engine(&tw.fast, true);
        let mut general = engine(&tw.general, false);
        tw.fix_extents();
        let vars: Vec<VarId> = (0..tw.fast.num_vars()).map(|i| VarId(i as u32)).collect();
        for step in 0..40 {
            if step > 0 {
                if tw.fast.depth() > 1 && rng.gen_range(0..3) == 0 {
                    tw.fast.pop_level();
                    tw.general.pop_level();
                    continue;
                }
                tw.fast.push_level();
                tw.general.push_level();
                for _ in 0..rng.gen_range(1..4) {
                    let v = pool[rng.gen_range(0..pool.len())];
                    let val = rng.gen_range(tw.fast.min(v)..=tw.fast.max(v));
                    let below = rng.gen_bool(0.5);
                    for s in [&mut tw.fast, &mut tw.general] {
                        let r = if below {
                            s.remove_below(v, val)
                        } else {
                            s.remove_above(v, val)
                        };
                        r.expect("a tightening inside the bounds cannot fail");
                    }
                }
            }
            let before = tw.fast.change_count();
            let got = fast.fixpoint(&mut tw.fast);
            let want = general.fixpoint(&mut tw.general);
            fixpoints += 1;
            assert_eq!(
                got.is_err(),
                want.is_err(),
                "case {case} step {step}: verdicts differ: {rects:?} {leqs:?}"
            );
            if got.is_err() {
                failed += 1;
                if step == 0 {
                    break;
                }
                tw.fast.pop_level();
                tw.general.pop_level();
                continue;
            }
            if tw.fast.change_count() > before {
                pruned += 1;
            }
            for &v in &vars {
                assert_eq!(
                    (tw.fast.min(v), tw.fast.max(v), tw.fast.size(v)),
                    (tw.general.min(v), tw.general.max(v), tw.general.size(v)),
                    "case {case} step {step}: {v:?} differs: {rects:?} {leqs:?}"
                );
            }
        }
    }
    eprintln!("{pruned} pruned, {failed} failed of {fixpoints} fixpoints");
    assert!(
        pruned > 300,
        "only {pruned} of {fixpoints} fixpoints pruned"
    );
    assert!(
        failed > 150,
        "only {failed} of {fixpoints} fixpoints failed"
    );
}

/// A time origin fixed only by root propagation is not a constant: the
/// root fixpoint runs one level above the root, and the next search on
/// the model unwinds it. A `Diff2` built on the store a search left
/// behind keeps the general path, and the model still solves the same
/// way twice.
#[test]
fn diff2_over_a_root_propagated_origin_keeps_the_general_path() {
    let mut m = Model::new();
    let t = m.new_var(0, 5);
    let three = m.new_const(3);
    m.precedence(three, 0, t);
    m.precedence(t, 0, three);
    let (zero, one, two, four) = (
        m.new_const(0),
        m.new_const(1),
        m.new_const(2),
        m.new_const(4),
    );
    let ys = [m.new_var(0, 1), m.new_var(0, 1)];
    let rects = vec![
        Rect {
            origin: [t, ys[0]],
            len: [two, one],
        },
        Rect {
            origin: [zero, ys[1]],
            len: [four, one],
        },
    ];
    let cfg = SearchConfig {
        phases: vec![Phase::new(ys.to_vec(), VarSel::InputOrder)],
        ..Default::default()
    };
    assert_eq!(eit_cp::solve_all(&mut m, &cfg, 10).1.len(), 4);
    assert!(m.store.depth() > 0 && m.store.is_fixed(t));
    let d = Diff2::new(rects, &m.store);
    assert!(!d.has_fixed_extents());
    m.post(Box::new(d));
    // [3, 5) and [0, 4) overlap in time: the rows must differ.
    for _ in 0..2 {
        let (r, sols) = eit_cp::solve_all(&mut m, &cfg, 10);
        assert_eq!((r.status, sols.len()), (SearchStatus::Optimal, 2));
    }
}

#[test]
fn satisfiability_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..300 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (bf_sat, _) = brute_force(n, hi, &cs);
        let cp_sat = cp_satisfiable(n, hi, &cs);
        assert_eq!(bf_sat, cp_sat, "case {case}: {cs:?}");
    }
}

#[test]
fn optimal_objective_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for case in 0..300 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (_, bf_best) = brute_force(n, hi, &cs);
        let (cp_best, ..) = minimize_max(Model::new(), n, hi, &cs, None);
        assert_eq!(bf_best, cp_best, "case {case}: {cs:?}");
    }
}

#[test]
fn restart_bnb_agrees_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for case in 0..200 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (_, bf_best) = brute_force(n, hi, &cs);

        let mut m = Model::new();
        let vars: Vec<VarId> = (0..n).map(|_| m.new_var(0, hi)).collect();
        for c in &cs {
            post(c, &mut m, &vars);
        }
        let obj = m.new_var(0, hi);
        m.max_of(vars.clone(), obj);
        let cfg = SearchConfig {
            phases: vec![Phase::new(vars, VarSel::SmallestMin)],
            ..Default::default()
        };
        let r = minimize(&mut m, obj, &cfg);
        assert_eq!(bf_best, r.objective, "case {case}: {cs:?}");
    }
}

/// Restarted search with nogood recording is a different *trajectory*
/// through the same space — the optimum it proves must still be the
/// brute-force optimum. A budget of one fail makes it restart on nearly
/// every instance that fails at all.
#[test]
fn restarted_nogood_search_agrees_with_brute_force() {
    let rc = eit_cp::RestartConfig {
        base: 1,
        factor_percent: 150,
    };
    let mut rng = StdRng::seed_from_u64(0x9060);
    let mut total_restarts = 0u64;
    let mut total_nogoods = 0u64;
    // Restart BnB fails rarely on instances this small, so it takes 1000
    // cases to cross the coverage floors below.
    for case in 0..1000 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (_, bf_best) = brute_force(n, hi, &cs);
        let (obj, _, stats) = minimize_max(Model::new(), n, hi, &cs, Some(rc));
        assert_eq!(bf_best, obj, "case {case}: {cs:?}");
        total_restarts += stats.restarts;
        total_nogoods += stats.nogoods_posted;
    }
    // The suite must actually exercise the machinery, not just configure it.
    assert!(total_restarts > 100, "only {total_restarts} restarts fired");
    assert!(total_nogoods > 100, "only {total_nogoods} nogoods recorded");
}

/// The hybrid bitset representation is a pure speed change: pinned
/// interval-list domains and bitset domains must drive the *identical*
/// search — same optimum, same incumbent, same node/fail/propagation
/// counts — with and without restarts layered on top.
#[test]
fn bitset_and_interval_domains_are_search_equivalent() {
    let mut rng = StdRng::seed_from_u64(0xB175E7);
    for case in 0..150 {
        let n = rng.gen_range(2..5);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        for restarts in [
            None,
            Some(eit_cp::RestartConfig {
                base: 2,
                factor_percent: 150,
            }),
        ] {
            let mut pinned = Model::new();
            pinned.store.set_bitset(false);
            let (obj_b, best_b, st_b) = minimize_max(Model::new(), n, hi, &cs, restarts);
            let (obj_i, best_i, st_i) = minimize_max(pinned, n, hi, &cs, restarts);
            assert_eq!(obj_b, obj_i, "case {case} restarts={restarts:?}: {cs:?}");
            assert_eq!(best_b, best_i, "case {case} restarts={restarts:?}: {cs:?}");
            assert_eq!(
                (st_b.nodes, st_b.fails, st_b.propagations),
                (st_i.nodes, st_i.fails, st_i.propagations),
                "case {case} restarts={restarts:?}: search effort diverged: {cs:?}"
            );
        }
    }
}

/// Op-level differential across the representation boundary, including
/// the i32 edges where offset arithmetic can wrap: a bitset store and a
/// pinned interval store fed the identical op stream must agree on every
/// observable (bounds, size, membership, success/failure) at every step.
#[test]
fn domain_ops_agree_across_representations_at_extreme_bounds() {
    use eit_cp::Store;
    let windows: &[(i32, i32)] = &[
        (i32::MIN, i32::MIN + 100),
        (i32::MAX - 100, i32::MAX),
        (i32::MIN, i32::MIN + 500), // wide: stays interval in both stores
        (-64, 64),
        (-3, 130),
    ];
    let mut rng = StdRng::seed_from_u64(0xED6E);
    for case in 0..200 {
        let mut bits = Store::new();
        let mut ivs = Store::new();
        ivs.set_bitset(false);
        let (lo, hi) = windows[rng.gen_range(0..windows.len())];
        let lo = lo.saturating_add(rng.gen_range(0..8));
        let hi = hi.saturating_sub(rng.gen_range(0..8));
        let vb = bits.new_var(lo, hi);
        let vi = ivs.new_var(lo, hi);
        for step in 0..60 {
            // Probe a value near the current bounds (i64 so the ±2 slack
            // can't overflow at the i32 edges).
            let pick = |r: &mut StdRng, s: &Store, v: VarId| -> i32 {
                let (mn, mx) = (s.min(v) as i64, s.max(v) as i64);
                r.gen_range(mn - 2..=mx + 2)
                    .clamp(i32::MIN as i64, i32::MAX as i64) as i32
            };
            let val = pick(&mut rng, &bits, vb);
            let op = rng.gen_range(0..5);
            if op == 4 && bits.depth() > 0 && rng.gen_bool(0.5) {
                bits.pop_level();
                ivs.pop_level();
            } else if op == 4 {
                bits.push_level();
                ivs.push_level();
            } else {
                let rb = match op {
                    0 => bits.remove_value(vb, val),
                    1 => bits.remove_below(vb, val),
                    2 => bits.remove_above(vb, val),
                    _ => bits.fix(vb, val),
                };
                let ri = match op {
                    0 => ivs.remove_value(vi, val),
                    1 => ivs.remove_below(vi, val),
                    2 => ivs.remove_above(vi, val),
                    _ => ivs.fix(vi, val),
                };
                assert_eq!(
                    rb.is_err(),
                    ri.is_err(),
                    "case {case} step {step}: op {op} val {val} disagreed on failure"
                );
                if rb.is_err() {
                    break;
                }
            }
            assert_eq!(bits.min(vb), ivs.min(vi), "case {case} step {step}");
            assert_eq!(bits.max(vb), ivs.max(vi), "case {case} step {step}");
            assert_eq!(bits.size(vb), ivs.size(vi), "case {case} step {step}");
            for _ in 0..8 {
                let p = pick(&mut rng, &bits, vb);
                assert_eq!(
                    bits.dom(vb).contains(p),
                    ivs.dom(vi).contains(p),
                    "case {case} step {step}: membership of {p} diverged"
                );
            }
        }
    }
}

/// Test double for the parallel II sweep's cancellation path: a propagator
/// that cancels its token after a fixed number of wakes, planting the
/// cancellation *inside* a propagation fixpoint mid-search — exactly where
/// a winning neighbour probe would land it.
struct CancelAfter {
    token: eit_cp::CancelToken,
    vars: Vec<VarId>,
    countdown: u64,
}

impl eit_cp::Propagator for CancelAfter {
    fn subscribe(&self, subs: &mut eit_cp::Subscriptions) {
        for &v in &self.vars {
            subs.watch(v, eit_cp::DomainEvent::ANY);
        }
    }

    fn propagate(
        &mut self,
        _store: &mut eit_cp::Store,
        _wake: &eit_cp::Wake<'_>,
    ) -> eit_cp::PropResult {
        if self.countdown > 0 {
            self.countdown -= 1;
            if self.countdown == 0 {
                self.token.cancel();
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "cancel-after"
    }
}

/// A probe aborted mid-fixpoint must leave no poisoned state behind: the
/// trail unwinds to the root, and re-running the search on the *same*
/// model instance reproduces the sequential optimum and incumbent. This
/// is the invariant the speculative II sweep leans on when it hands a
/// cancelled model back (or drops it) after a lower II wins.
#[test]
fn cancellation_mid_fixpoint_leaves_no_poisoned_state() {
    let mut rng = StdRng::seed_from_u64(0xCA9CE1);
    let mut exercised = 0u32;
    for _ in 0..120 {
        let n = rng.gen_range(3..6);
        let hi = rng.gen_range(2..5);
        let cs = random_instance(&mut rng, n, hi);
        let (reference, reference_best, _) = minimize_max(Model::new(), n, hi, &cs, None);

        // Same model, but with a countdown propagator that cancels the
        // run partway through, then a clean re-solve on that same model.
        for countdown in [1u64, 5, 20] {
            let token = eit_cp::CancelToken::new();
            let mut m = Model::new();
            let vars: Vec<VarId> = (0..n).map(|_| m.new_var(0, hi)).collect();
            for c in &cs {
                post(c, &mut m, &vars);
            }
            let obj = m.new_var(0, hi);
            m.max_of(vars.clone(), obj);
            m.post(Box::new(CancelAfter {
                token: token.clone(),
                vars: vars.clone(),
                countdown,
            }));
            let cfg = SearchConfig {
                phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
                cancel: Some(token.clone()),
                ..Default::default()
            };
            let r1 = minimize(&mut m, obj, &cfg);
            if r1.cancelled {
                exercised += 1;
                // A cancelled run must never claim a completed search.
                assert_ne!(r1.status, SearchStatus::Optimal);
                assert_ne!(r1.status, SearchStatus::Infeasible);
            }

            // Re-solve the same model with the cancellation disarmed: the
            // trail must have unwound so the second run sees the root
            // store (plus only confluent root propagation) and lands on
            // the sequential optimum.
            let cfg2 = SearchConfig {
                phases: vec![Phase::new(vars.clone(), VarSel::FirstFail)],
                ..Default::default()
            };
            let r2 = minimize(&mut m, obj, &cfg2);
            assert_eq!(r2.objective, reference, "countdown={countdown} cs={cs:?}");
            let best2: Option<Vec<i32>> = r2
                .best
                .as_ref()
                .map(|sol| vars.iter().map(|&v| sol.value(v)).collect());
            assert_eq!(best2, reference_best, "countdown={countdown} cs={cs:?}");
        }
    }
    // The loop must actually have exercised mid-search cancellation, not
    // just armed tokens that never fired before the search finished.
    assert!(exercised > 50, "only {exercised} cancelled runs");
}
