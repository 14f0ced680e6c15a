//! Tracing contract tests: a fixed CSP must produce the *identical*
//! event stream on every run (events carry no timestamps), the stream's
//! counts must agree with `SearchStats`, and the null sink must observe
//! exactly the same solver trajectory as no sink at all. A recording
//! (`eitc --record`, `eit_core::record`) is this stream, one
//! `SearchEvent::to_json` line per event, so a deterministic stream is a
//! byte-identical file.

use eit_cp::props::basic::{MaxOf, NeqOffset};
use eit_cp::trace::{MemorySink, NullSink, SearchEvent, TraceHandle};
use eit_cp::{
    minimize, solve, Model, Phase, SearchConfig, SearchResult, SearchStatus, VarId, VarSel,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn traced_run(var_sel: VarSel) -> (SearchResult, Vec<SearchEvent>) {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, var_sel)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    let events = sink.lock().unwrap().events.clone();
    (r, events)
}

#[test]
fn event_stream_is_deterministic_across_runs() {
    for var_sel in [VarSel::FirstFail, VarSel::InputOrder] {
        let (r1, e1) = traced_run(var_sel);
        let (r2, e2) = traced_run(var_sel);
        assert_eq!(r1.objective, r2.objective);
        assert!(!e1.is_empty());
        assert_eq!(e1, e2, "stream differs for {var_sel:?}");
    }
}

#[test]
fn event_counts_agree_with_search_stats() {
    let (r, events) = traced_run(VarSel::FirstFail);
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
        phases: vec![Phase::new(vars, VarSel::FirstFail)],
        ..Default::default()
    };
    let plain = minimize(&mut plain_model, obj, &plain_cfg);

    let (mut traced_model, obj2, vars2) = build();
    let traced_cfg = SearchConfig {
        phases: vec![Phase::new(vars2, VarSel::FirstFail)],
        trace: Some(TraceHandle::new(NullSink)),
        ..Default::default()
    };
    let traced = minimize(&mut traced_model, obj2, &traced_cfg);

    assert_eq!(plain.objective, traced.objective);
    assert_eq!(plain.stats.nodes, traced.stats.nodes);
    assert_eq!(plain.stats.fails, traced.stats.fails);
    assert_eq!(plain.stats.propagations, traced.stats.propagations);
}

#[test]
fn satisfaction_search_traces_without_objective() {
    let mut m = Model::new();
    let x = m.new_var(0, 3);
    let y = m.new_var(0, 3);
    m.post(Box::new(NeqOffset { x, y, c: 0 }));
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vec![x, y], VarSel::InputOrder)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = solve(&mut m, &cfg);
    assert!(r.is_sat());
    let sink = sink.lock().unwrap();
    let count = |k: &str| sink.events.iter().filter(|e| e.kind() == k).count();
    assert_eq!(count("solution"), 1);
    assert_eq!(count("bound"), 0, "no objective, no bound updates");
    assert!(sink.events.iter().any(|e| matches!(
        e,
        SearchEvent::Solution {
            objective: None,
            ..
        }
    )));
}

#[test]
fn deadline_abort_is_traced() {
    // A zero budget expires before the first node: the search must say
    // so in the stream, then close it with an `unknown` Done.
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail)],
        timeout: Some(Duration::ZERO),
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    assert_eq!(r.status, SearchStatus::Unknown);
    let sink = sink.lock().unwrap();
    let n = sink.events.len();
    assert!(n >= 2, "{:?}", sink.events);
    assert_eq!(sink.events[n - 2], SearchEvent::DeadlineHit { nodes: 0 });
    assert!(matches!(
        sink.events[n - 1],
        SearchEvent::Done {
            status: "unknown",
            ..
        }
    ));
}
