//! Structured search tracing: typed events, pluggable sinks, and a
//! cheap-when-off handle threaded through the search drivers.
//!
//! The solver emits a [`SearchEvent`] at every decision, failure,
//! backtrack, incumbent, restart and budget abort. Sinks decide what to
//! do with the stream: drop it ([`NullSink`]) or keep every event in
//! memory ([`MemorySink`]); `eit_core::record` writes it to an
//! `eit-trace/2` file, one [`SearchEvent::to_json`] line per event.
//!
//! Cost model: with no sink configured the per-event cost is a single
//! `Option` discriminant check — the event value is never even
//! constructed (the emit path takes a closure). With a sink configured,
//! each event takes one uncontended mutex lock plus whatever the sink
//! does. Events carry no timestamps, so a fixed model always produces an
//! identical stream — which is what the determinism tests pin down. The
//! event-driven propagation engine keeps that property: priority tiers
//! drain lowest-first, each tier is FIFO, and wake tags are sorted before
//! delivery, so the propagator execution order (and hence the search tree
//! and this stream) is a pure function of the model.

use std::fmt;
use std::sync::{Arc, Mutex};

/// Streaming FNV-1a 64-bit hasher. Hand-rolled on purpose: store digests
/// and trace-file hashes are recorded on disk and must not drift with
/// std's unspecified `DefaultHasher`.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit digest of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One step of the search, in the order the solver took it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchEvent {
    /// Search began: model shape at the root.
    Start { vars: usize, propagators: usize },
    /// A decision was posted: `var = val` tried at `depth`.
    Branch { depth: usize, var: u32, val: i32 },
    /// Propagation refuted the current node.
    Fail { depth: usize },
    /// The solver returned to `depth` after exhausting a subtree.
    Backtrack { depth: usize },
    /// A (new incumbent) solution was found.
    Solution { objective: Option<i32>, nodes: u64 },
    /// The branch-and-bound upper bound tightened to `bound`.
    BoundUpdate { bound: i32 },
    /// Restart-based BnB re-dove from the root under `bound`.
    Restart { bound: i32 },
    /// The wall-clock deadline fired after `nodes` nodes.
    DeadlineHit { nodes: u64 },
    /// A cooperative cancellation token stopped the search.
    Cancelled { nodes: u64 },
    /// Periodic FNV-1a digest of every variable's (min, max) bounds at a
    /// propagation fixpoint, emitted every
    /// [`crate::SearchConfig::state_hash_every`] nodes. Ties a trace to
    /// the solver's actual domain trajectory, not just its decisions.
    StateHash { nodes: u64, hash: u64 },
    /// Sub-stream delimiter in a merged trace: all following events until
    /// the next `Stream` belong to parallel worker/probe `id` (the II for
    /// sweep probes).
    Stream { id: u32 },
    /// Search finished with `status` (as [`crate::SearchStatus`] renders).
    Done {
        status: &'static str,
        nodes: u64,
        fails: u64,
        solutions: u64,
    },
}

impl SearchEvent {
    /// Stable lower-case tag, used as the JSONL `event` field.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchEvent::Start { .. } => "start",
            SearchEvent::Branch { .. } => "branch",
            SearchEvent::Fail { .. } => "fail",
            SearchEvent::Backtrack { .. } => "backtrack",
            SearchEvent::Solution { .. } => "solution",
            SearchEvent::BoundUpdate { .. } => "bound",
            SearchEvent::Restart { .. } => "restart",
            SearchEvent::DeadlineHit { .. } => "deadline",
            SearchEvent::Cancelled { .. } => "cancelled",
            SearchEvent::StateHash { .. } => "state_hash",
            SearchEvent::Stream { .. } => "stream",
            SearchEvent::Done { .. } => "done",
        }
    }

    /// One JSON object per event; no timestamps, so streams are
    /// reproducible byte-for-byte.
    pub fn to_json(&self) -> String {
        let kind = self.kind();
        match self {
            SearchEvent::Start { vars, propagators } => {
                format!("{{\"event\":\"{kind}\",\"vars\":{vars},\"propagators\":{propagators}}}")
            }
            SearchEvent::Branch { depth, var, val } => {
                format!("{{\"event\":\"{kind}\",\"depth\":{depth},\"var\":{var},\"val\":{val}}}")
            }
            SearchEvent::Fail { depth } | SearchEvent::Backtrack { depth } => {
                format!("{{\"event\":\"{kind}\",\"depth\":{depth}}}")
            }
            SearchEvent::Solution { objective, nodes } => match objective {
                Some(o) => {
                    format!("{{\"event\":\"{kind}\",\"objective\":{o},\"nodes\":{nodes}}}")
                }
                None => format!("{{\"event\":\"{kind}\",\"objective\":null,\"nodes\":{nodes}}}"),
            },
            SearchEvent::BoundUpdate { bound } | SearchEvent::Restart { bound } => {
                format!("{{\"event\":\"{kind}\",\"bound\":{bound}}}")
            }
            SearchEvent::DeadlineHit { nodes } | SearchEvent::Cancelled { nodes } => {
                format!("{{\"event\":\"{kind}\",\"nodes\":{nodes}}}")
            }
            // The hash goes out as a hex string: JSON numbers are f64 and
            // would silently lose the top bits of a 64-bit digest.
            SearchEvent::StateHash { nodes, hash } => {
                format!("{{\"event\":\"{kind}\",\"nodes\":{nodes},\"hash\":\"{hash:016x}\"}}")
            }
            SearchEvent::Stream { id } => {
                format!("{{\"event\":\"{kind}\",\"id\":{id}}}")
            }
            SearchEvent::Done {
                status,
                nodes,
                fails,
                solutions,
            } => format!(
                "{{\"event\":\"{kind}\",\"status\":\"{status}\",\"nodes\":{nodes},\
                 \"fails\":{fails},\"solutions\":{solutions}}}"
            ),
        }
    }
}

/// Receiver end of the event stream. Implementations must be cheap per
/// call — they run inside the search hot loop when tracing is on.
pub trait TraceSink: Send {
    fn record(&mut self, event: &SearchEvent);
    /// Push buffered output to its destination (end of search).
    fn flush(&mut self) {}
}

/// Sharing a sink between threads (sweep workers) or keeping a handle
/// for post-run inspection: any `Arc<Mutex<Sink>>` is itself a sink.
impl<S: TraceSink> TraceSink for Arc<Mutex<S>> {
    fn record(&mut self, event: &SearchEvent) {
        self.lock().unwrap_or_else(|e| e.into_inner()).record(event);
    }
    fn flush(&mut self) {
        self.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// Cloneable, thread-safe handle the search carries. `None`-handle cost
/// is a branch; see the module docs.
#[derive(Clone)]
pub struct TraceHandle(Arc<Mutex<dyn TraceSink>>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

impl TraceHandle {
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        TraceHandle(Arc::new(Mutex::new(sink)))
    }

    #[inline]
    pub fn emit(&self, event: &SearchEvent) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(event);
    }

    pub fn flush(&self) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

/// Discards everything; exists so "tracing configured but off" has a
/// concrete, benchmarkable representative.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &SearchEvent) {}
}

/// Keeps every event, in order, for post-run inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    pub events: Vec<SearchEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &SearchEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_keeps_every_event_in_order() {
        let mut sink = MemorySink::default();
        for depth in 0..5 {
            sink.record(&SearchEvent::Fail { depth });
        }
        let want: Vec<SearchEvent> = (0..5).map(|depth| SearchEvent::Fail { depth }).collect();
        assert_eq!(sink.events, want);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let events = [
            SearchEvent::Start {
                vars: 3,
                propagators: 2,
            },
            SearchEvent::Branch {
                depth: 1,
                var: 0,
                val: 7,
            },
            SearchEvent::Solution {
                objective: Some(4),
                nodes: 9,
            },
            SearchEvent::Solution {
                objective: None,
                nodes: 10,
            },
            SearchEvent::Done {
                status: "optimal",
                nodes: 9,
                fails: 2,
                solutions: 1,
            },
        ];
        let lines: Vec<String> = events.iter().map(SearchEvent::to_json).collect();
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}') && !line.contains('\n'),
                "bad line {line}"
            );
            assert!(line.contains("\"event\":\""));
        }
        assert_eq!(
            lines[1],
            "{\"event\":\"branch\",\"depth\":1,\"var\":0,\"val\":7}"
        );
        assert_eq!(
            lines[3],
            "{\"event\":\"solution\",\"objective\":null,\"nodes\":10}"
        );
    }

    #[test]
    fn shared_sink_is_inspectable_through_the_arc() {
        let shared = Arc::new(Mutex::new(MemorySink::default()));
        let handle = TraceHandle::new(Arc::clone(&shared));
        handle.emit(&SearchEvent::Fail { depth: 1 });
        handle.emit(&SearchEvent::Backtrack { depth: 0 });
        let sink = shared.lock().unwrap();
        assert_eq!(
            sink.events,
            vec![
                SearchEvent::Fail { depth: 1 },
                SearchEvent::Backtrack { depth: 0 }
            ]
        );
    }
}
