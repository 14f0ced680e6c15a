//! The event lines of an `eit-trace/2` recording (`eitc --record`): every
//! [`SearchEvent::to_json`] line is a flat JSON object that a general
//! JSON parser reads back with every field of the event intact.

use eit_core::json::Json;
use eit_cp::props::basic::{MaxOf, NeqOffset};
use eit_cp::trace::{MemorySink, SearchEvent, TraceHandle};
use eit_cp::{minimize, Model, Phase, SearchConfig, VarId, VarSel};
use std::sync::{Arc, Mutex};

/// The object `e.to_json()` must parse to, built field by field. The
/// match is exhaustive, so a new variant cannot skip this test.
fn expected(e: &SearchEvent) -> Json {
    let n = |v: i64| Json::Num(v as f64);
    let mut fields = vec![("event", Json::str(e.kind()))];
    match *e {
        SearchEvent::Start { vars, propagators } => {
            fields.push(("vars", n(vars as i64)));
            fields.push(("propagators", n(propagators as i64)));
        }
        SearchEvent::Branch { depth, var, val } => {
            fields.push(("depth", n(depth as i64)));
            fields.push(("var", n(var as i64)));
            fields.push(("val", n(val as i64)));
        }
        SearchEvent::Fail { depth } | SearchEvent::Backtrack { depth } => {
            fields.push(("depth", n(depth as i64)));
        }
        SearchEvent::Solution { objective, nodes } => {
            fields.push(("objective", objective.map_or(Json::Null, |o| n(o as i64))));
            fields.push(("nodes", n(nodes as i64)));
        }
        SearchEvent::BoundUpdate { bound } | SearchEvent::Restart { bound } => {
            fields.push(("bound", n(bound as i64)));
        }
        SearchEvent::DeadlineHit { nodes } | SearchEvent::Cancelled { nodes } => {
            fields.push(("nodes", n(nodes as i64)));
        }
        SearchEvent::StateHash { nodes, hash } => {
            fields.push(("nodes", n(nodes as i64)));
            fields.push(("hash", Json::str(format!("{hash:016x}"))));
        }
        SearchEvent::Stream { id } => fields.push(("id", n(id as i64))),
        SearchEvent::Done {
            status,
            nodes,
            fails,
            solutions,
        } => {
            fields.push(("status", Json::str(status)));
            fields.push(("nodes", n(nodes as i64)));
            fields.push(("fails", n(fails as i64)));
            fields.push(("solutions", n(solutions as i64)));
        }
    }
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn parse_line(e: &SearchEvent) -> Json {
    let line = e.to_json();
    assert!(!line.contains('\n'), "multi-line record: {line}");
    Json::parse(&line).unwrap_or_else(|err| panic!("unparseable JSONL line {line}: {err}"))
}

#[test]
fn jsonl_writer_emits_every_field_of_every_variant() {
    let all = [
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
            status: "unknown",
            nodes: 0,
            fails: 0,
            solutions: 0,
        },
    ];
    for e in &all {
        assert_eq!(parse_line(e), expected(e), "{e:?}");
    }
    // The digest is hex text because a JSON number (an f64) would lose
    // its low bits; all 64 survive the string.
    let hash = parse_line(&all[10])
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(u64::from_str_radix(&hash, 16), Ok(0xdead_beef_0123_4567));
}

#[test]
fn solver_stream_lines_parse_with_every_field() {
    // Five mutually different vars, minimise the max: a real
    // branch-and-bound stream with restarts, bounds and state hashes.
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
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        state_hash_every: Some(2),
        ..Default::default()
    };
    let _ = minimize(&mut m, obj, &cfg);
    let sink = sink.lock().unwrap();
    for kind in ["start", "branch", "restart", "state_hash", "done"] {
        assert!(
            sink.events.iter().any(|e| e.kind() == kind),
            "no {kind} event in the stream"
        );
    }
    for e in &sink.events {
        assert_eq!(parse_line(e), expected(e), "{e:?}");
    }
}
