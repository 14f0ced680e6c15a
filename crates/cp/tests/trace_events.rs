//! Tracing contract tests: a fixed CSP must produce the *identical*
//! event stream on every run (events carry no timestamps), the stream's
//! counts must agree with `SearchStats`, and the null sink must observe
//! exactly the same solver trajectory as no sink at all.

use eit_cp::props::basic::{MaxOf, NeqOffset};
use eit_cp::trace::{MemorySink, NullSink, SearchEvent, TraceHandle};
use eit_cp::{
    minimize, solve, Model, Phase, SearchConfig, SearchResult, SearchStatus, ValSel, VarId, VarSel,
};
use std::sync::{Arc, Mutex};

/// A small but non-trivial BnB instance: color 5 mutually-different vars,
/// minimize the max.
fn build() -> (Model, VarId, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..5).map(|_| m.new_var(0, 6)).collect();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            m.post(Box::new(NeqOffset {
                x: vars[i],
                y: vars[j],
                c: 0,
            }));
        }
    }
    let obj = m.new_var(0, 6);
    m.post(Box::new(MaxOf {
        xs: vars.clone(),
        y: obj,
    }));
    (m, obj, vars)
}

fn traced_run(val_sel: ValSel, restart: bool) -> (SearchResult, Vec<SearchEvent>) {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail, val_sel)],
        restart_on_solution: restart,
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    let events = sink.lock().unwrap().events.iter().cloned().collect();
    (r, events)
}

#[test]
fn event_stream_is_deterministic_across_runs() {
    for val_sel in [ValSel::Min, ValSel::Max] {
        for restart in [false, true] {
            let (r1, e1) = traced_run(val_sel, restart);
            let (r2, e2) = traced_run(val_sel, restart);
            assert_eq!(r1.objective, r2.objective);
            assert!(!e1.is_empty());
            assert_eq!(e1, e2, "stream differs for {val_sel:?} restart={restart}");
        }
    }
}

#[test]
fn event_counts_agree_with_search_stats() {
    let (r, events) = traced_run(ValSel::Min, true);
    assert_eq!(r.status, SearchStatus::Optimal);
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count() as u64;
    assert_eq!(count("start"), 1);
    assert_eq!(count("done"), 1);
    assert_eq!(count("fail"), r.stats.fails);
    assert_eq!(count("solution"), r.stats.solutions);
    // Every solution of a minimization updates the incumbent bound.
    assert_eq!(count("bound"), r.stats.solutions);
    // Every backtrack closes a level some branch opened (fails at node
    // entry — bound pruning — contribute fails without branches, so
    // branch and fail counts are not otherwise related).
    assert!(count("backtrack") <= count("branch"));
    assert!(count("branch") > 0);
    // The final event is the Done record carrying the exit status.
    match events.last().unwrap() {
        SearchEvent::Done {
            status,
            nodes,
            fails,
            solutions,
        } => {
            assert_eq!(*status, "optimal");
            assert_eq!(*nodes, r.stats.nodes);
            assert_eq!(*fails, r.stats.fails);
            assert_eq!(*solutions, r.stats.solutions);
        }
        other => panic!("expected Done last, got {other:?}"),
    }
}

#[test]
fn null_sink_does_not_change_the_search() {
    let (mut plain_model, obj, vars) = build();
    let plain_cfg = SearchConfig {
        phases: vec![Phase::new(vars.clone(), VarSel::FirstFail, ValSel::Min)],
        restart_on_solution: true,
        ..Default::default()
    };
    let plain = minimize(&mut plain_model, obj, &plain_cfg);

    let (mut traced_model, obj2, vars2) = build();
    let traced_cfg = SearchConfig {
        phases: vec![Phase::new(vars2, VarSel::FirstFail, ValSel::Min)],
        restart_on_solution: true,
        trace: Some(TraceHandle::new(NullSink)),
        ..Default::default()
    };
    let traced = minimize(&mut traced_model, obj2, &traced_cfg);

    assert_eq!(plain.objective, traced.objective);
    assert_eq!(plain.stats.nodes, traced.stats.nodes);
    assert_eq!(plain.stats.fails, traced.stats.fails);
    assert_eq!(plain.stats.propagations, traced.stats.propagations);
    let _ = vars;
}

#[test]
fn satisfaction_search_traces_without_objective() {
    let mut m = Model::new();
    let x = m.new_var(0, 3);
    let y = m.new_var(0, 3);
    m.post(Box::new(NeqOffset { x, y, c: 0 }));
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vec![x, y], VarSel::InputOrder, ValSel::Min)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = solve(&mut m, &cfg);
    assert!(r.is_sat());
    let sink = sink.lock().unwrap();
    assert_eq!(sink.counts.solutions, 1);
    assert_eq!(sink.counts.bounds, 0, "no objective, no bound updates");
    assert!(sink.events.iter().any(|e| matches!(
        e,
        SearchEvent::Solution {
            objective: None,
            ..
        }
    )));
}

#[test]
fn node_limit_abort_is_traced() {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail, ValSel::Min)],
        node_limit: Some(3),
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let _ = minimize(&mut m, obj, &cfg);
    let sink = sink.lock().unwrap();
    assert_eq!(sink.counts.node_limits, 1);
}

/// Every `SearchEvent` variant — both `Solution` objective shapes and
/// all terminal events included — survives the JSONL writer → parser
/// round trip unchanged.
#[test]
fn jsonl_roundtrip_covers_every_variant() {
    let all = vec![
        SearchEvent::Start {
            vars: 7,
            propagators: 12,
        },
        SearchEvent::Branch {
            depth: 3,
            var: 4,
            val: -2,
        },
        SearchEvent::Fail { depth: 2 },
        SearchEvent::Backtrack { depth: 1 },
        SearchEvent::Solution {
            objective: Some(-9),
            nodes: 41,
        },
        SearchEvent::Solution {
            objective: None,
            nodes: 42,
        },
        SearchEvent::BoundUpdate { bound: 5 },
        SearchEvent::Restart { bound: 4 },
        SearchEvent::DeadlineHit { nodes: 100 },
        SearchEvent::NodeLimitHit { nodes: 200 },
        SearchEvent::Cancelled { nodes: 300 },
        SearchEvent::StateHash {
            nodes: 64,
            hash: 0xdead_beef_0123_4567,
        },
        SearchEvent::Stream { id: 11 },
        SearchEvent::Done {
            status: "optimal",
            nodes: 99,
            fails: 55,
            solutions: 3,
        },
        SearchEvent::Done {
            status: "infeasible",
            nodes: 1,
            fails: 1,
            solutions: 0,
        },
        SearchEvent::Done {
            status: "feasible",
            nodes: 9,
            fails: 2,
            solutions: 1,
        },
        SearchEvent::Done {
            status: "unknown",
            nodes: 0,
            fails: 0,
            solutions: 0,
        },
    ];
    for e in &all {
        let line = e.to_json();
        let back = SearchEvent::from_json(&line)
            .unwrap_or_else(|| panic!("unparseable JSONL line: {line}"));
        assert_eq!(&back, e, "round trip changed {line}");
        // And the round trip is a fixpoint.
        assert_eq!(back.to_json(), line);
    }
    // Garbage is rejected, not misparsed.
    for bad in [
        "",
        "{}",
        "{\"event\":\"branch\",\"depth\":1}",
        "{\"event\":\"nope\"}",
        "not json at all",
    ] {
        assert!(
            SearchEvent::from_json(bad).is_none(),
            "accepted garbage: {bad:?}"
        );
    }
}

/// A real solver stream round-trips line by line — the writer and the
/// parser agree on everything the solver actually emits.
#[test]
fn solver_stream_roundtrips_through_jsonl() {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail, ValSel::Min)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        state_hash_every: Some(2),
        restart_on_solution: true,
        ..Default::default()
    };
    let _ = minimize(&mut m, obj, &cfg);
    let sink = sink.lock().unwrap();
    assert!(!sink.events.is_empty());
    for e in &sink.events {
        let line = e.to_json();
        assert_eq!(SearchEvent::from_json(&line).as_ref(), Some(e));
    }
}
