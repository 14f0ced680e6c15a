//! Structured search tracing: typed events, pluggable sinks, and a
//! cheap-when-off handle threaded through the search drivers.
//!
//! The solver emits a [`SearchEvent`] at every decision, failure,
//! backtrack, incumbent, restart and budget abort. Sinks decide what to
//! do with the stream: drop it ([`NullSink`]), keep a bounded ring of
//! recent events plus totals ([`MemorySink`]), stream JSON lines to a
//! writer ([`JsonlSink`]), or print a throttled progress line to stderr
//! ([`ProgressSink`]).
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

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// The node budget was exhausted.
    NodeLimitHit { nodes: u64 },
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
            SearchEvent::NodeLimitHit { .. } => "node_limit",
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
            SearchEvent::DeadlineHit { nodes }
            | SearchEvent::NodeLimitHit { nodes }
            | SearchEvent::Cancelled { nodes } => {
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

    /// Parse one line as produced by [`SearchEvent::to_json`]. Returns
    /// `None` on anything the writer cannot have emitted (unknown event
    /// kinds, missing fields, malformed JSON), which makes the roundtrip
    /// `from_json(to_json(e)) == Some(e)` the parser's whole contract.
    pub fn from_json(line: &str) -> Option<SearchEvent> {
        let fields = parse_flat_json(line)?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let int = |key: &str| match get(key) {
            Some(JsonField::Int(n)) => Some(*n),
            _ => None,
        };
        let kind = match get("event") {
            Some(JsonField::Str(s)) => s.as_str(),
            _ => return None,
        };
        Some(match kind {
            "start" => SearchEvent::Start {
                vars: int("vars")? as usize,
                propagators: int("propagators")? as usize,
            },
            "branch" => SearchEvent::Branch {
                depth: int("depth")? as usize,
                var: int("var")? as u32,
                val: int("val")? as i32,
            },
            "fail" => SearchEvent::Fail {
                depth: int("depth")? as usize,
            },
            "backtrack" => SearchEvent::Backtrack {
                depth: int("depth")? as usize,
            },
            "solution" => SearchEvent::Solution {
                objective: match get("objective")? {
                    JsonField::Null => None,
                    JsonField::Int(n) => Some(*n as i32),
                    JsonField::Str(_) => return None,
                },
                nodes: int("nodes")? as u64,
            },
            "bound" => SearchEvent::BoundUpdate {
                bound: int("bound")? as i32,
            },
            "restart" => SearchEvent::Restart {
                bound: int("bound")? as i32,
            },
            "deadline" => SearchEvent::DeadlineHit {
                nodes: int("nodes")? as u64,
            },
            "node_limit" => SearchEvent::NodeLimitHit {
                nodes: int("nodes")? as u64,
            },
            "cancelled" => SearchEvent::Cancelled {
                nodes: int("nodes")? as u64,
            },
            "state_hash" => SearchEvent::StateHash {
                nodes: int("nodes")? as u64,
                hash: match get("hash")? {
                    JsonField::Str(s) => u64::from_str_radix(s, 16).ok()?,
                    _ => return None,
                },
            },
            "stream" => SearchEvent::Stream {
                id: int("id")? as u32,
            },
            "done" => SearchEvent::Done {
                status: match get("status")? {
                    // Interned back to the static statuses the solver emits.
                    JsonField::Str(s) => match s.as_str() {
                        "optimal" => "optimal",
                        "feasible" => "feasible",
                        "infeasible" => "infeasible",
                        "unknown" => "unknown",
                        _ => return None,
                    },
                    _ => return None,
                },
                nodes: int("nodes")? as u64,
                fails: int("fails")? as u64,
                solutions: int("solutions")? as u64,
            },
            _ => return None,
        })
    }
}

/// A flat JSON value as the event writer emits them: no nesting, no
/// floats, no escape sequences inside strings.
enum JsonField {
    Str(String),
    Int(i64),
    Null,
}

/// Minimal parser for the writer's own single-line flat objects. Not a
/// general JSON parser by design: it accepts exactly the shapes
/// [`SearchEvent::to_json`] produces.
fn parse_flat_json(line: &str) -> Option<Vec<(String, JsonField)>> {
    let mut rest = line.trim().strip_prefix('{')?.strip_suffix('}')?.trim();
    let mut fields = Vec::new();
    if rest.is_empty() {
        return Some(fields);
    }
    loop {
        rest = rest.trim_start().strip_prefix('"')?;
        let end = rest.find('"')?;
        let key = rest[..end].to_string();
        rest = rest[end + 1..].trim_start().strip_prefix(':')?.trim_start();
        if let Some(r) = rest.strip_prefix('"') {
            let end = r.find('"')?;
            if r[..end].contains('\\') {
                return None; // the writer never emits escapes
            }
            fields.push((key, JsonField::Str(r[..end].to_string())));
            rest = &r[end + 1..];
        } else if let Some(r) = rest.strip_prefix("null") {
            fields.push((key, JsonField::Null));
            rest = r;
        } else {
            let end = rest
                .find(|c: char| c != '-' && !c.is_ascii_digit())
                .unwrap_or(rest.len());
            fields.push((key, JsonField::Int(rest[..end].parse().ok()?)));
            rest = &rest[end..];
        }
        rest = rest.trim_start();
        if rest.is_empty() {
            return Some(fields);
        }
        rest = rest.strip_prefix(',')?;
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

/// Event totals by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub starts: u64,
    pub branches: u64,
    pub fails: u64,
    pub backtracks: u64,
    pub solutions: u64,
    pub bounds: u64,
    pub restarts: u64,
    pub deadlines: u64,
    pub node_limits: u64,
    pub cancels: u64,
    pub state_hashes: u64,
    pub streams: u64,
    pub dones: u64,
}

impl EventCounts {
    pub fn bump(&mut self, event: &SearchEvent) {
        match event {
            SearchEvent::Start { .. } => self.starts += 1,
            SearchEvent::Branch { .. } => self.branches += 1,
            SearchEvent::Fail { .. } => self.fails += 1,
            SearchEvent::Backtrack { .. } => self.backtracks += 1,
            SearchEvent::Solution { .. } => self.solutions += 1,
            SearchEvent::BoundUpdate { .. } => self.bounds += 1,
            SearchEvent::Restart { .. } => self.restarts += 1,
            SearchEvent::DeadlineHit { .. } => self.deadlines += 1,
            SearchEvent::NodeLimitHit { .. } => self.node_limits += 1,
            SearchEvent::Cancelled { .. } => self.cancels += 1,
            SearchEvent::StateHash { .. } => self.state_hashes += 1,
            SearchEvent::Stream { .. } => self.streams += 1,
            SearchEvent::Done { .. } => self.dones += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.starts
            + self.branches
            + self.fails
            + self.backtracks
            + self.solutions
            + self.bounds
            + self.restarts
            + self.deadlines
            + self.node_limits
            + self.cancels
            + self.state_hashes
            + self.streams
            + self.dones
    }
}

/// Keeps totals for every event and a bounded ring of the most recent
/// ones. `capacity = 0` keeps totals only. Events the ring could not
/// retain — evicted oldest-first, or skipped entirely at capacity 0 —
/// are tallied in [`MemorySink::dropped`], so a bounded sink on a
/// multi-minute solve reports exactly how much history it shed instead
/// of growing without limit.
#[derive(Debug, Default)]
pub struct MemorySink {
    capacity: usize,
    pub events: VecDeque<SearchEvent>,
    pub counts: EventCounts,
    /// Events seen but no longer (or never) held in `events`.
    pub dropped: u64,
}

impl MemorySink {
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            capacity,
            events: VecDeque::new(),
            counts: EventCounts::default(),
            dropped: 0,
        }
    }

    /// Ring large enough that nothing is evicted in practice.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &SearchEvent) {
        self.counts.bump(event);
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// Streams one JSON object per line to any writer.
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl JsonlSink<BufWriter<File>> {
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink { out }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &SearchEvent) {
        // An I/O error mid-search must not kill the solve; drop the line.
        let _ = writeln!(self.out, "{}", event.to_json());
    }
    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Throttled human progress on stderr: incumbents and restarts print
/// immediately, everything else at most once per interval.
pub struct ProgressSink {
    every: Duration,
    last: Instant,
    counts: EventCounts,
}

impl ProgressSink {
    pub fn new(every: Duration) -> Self {
        ProgressSink {
            every,
            last: Instant::now(),
            counts: EventCounts::default(),
        }
    }

    fn line(&self) -> String {
        format!(
            "[search] branches={} fails={} solutions={} restarts={}",
            self.counts.branches, self.counts.fails, self.counts.solutions, self.counts.restarts
        )
    }
}

impl Default for ProgressSink {
    fn default() -> Self {
        Self::new(Duration::from_millis(250))
    }
}

impl TraceSink for ProgressSink {
    fn record(&mut self, event: &SearchEvent) {
        self.counts.bump(event);
        match event {
            SearchEvent::Solution { objective, nodes } => {
                eprintln!("[search] incumbent objective={objective:?} at node {nodes}");
                self.last = Instant::now();
            }
            SearchEvent::Restart { bound } => {
                eprintln!("[search] restart under bound {bound}");
                self.last = Instant::now();
            }
            SearchEvent::Done {
                status,
                nodes,
                fails,
                solutions,
            } => {
                eprintln!(
                    "[search] done: {status} nodes={nodes} fails={fails} solutions={solutions}"
                );
            }
            _ => {
                if self.last.elapsed() >= self.every {
                    eprintln!("{}", self.line());
                    self.last = Instant::now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_counts_and_rings() {
        let mut sink = MemorySink::new(2);
        for depth in 0..5 {
            sink.record(&SearchEvent::Fail { depth });
        }
        assert_eq!(sink.counts.fails, 5);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0], SearchEvent::Fail { depth: 3 });
        assert_eq!(sink.events[1], SearchEvent::Fail { depth: 4 });
        assert_eq!(sink.dropped, 3);
    }

    #[test]
    fn capacity_zero_keeps_totals_and_counts_drops() {
        let mut sink = MemorySink::new(0);
        for depth in 0..4 {
            sink.record(&SearchEvent::Fail { depth });
        }
        assert_eq!(sink.counts.fails, 4);
        assert!(sink.events.is_empty());
        assert_eq!(sink.dropped, 4);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&SearchEvent::Start {
            vars: 3,
            propagators: 2,
        });
        sink.record(&SearchEvent::Branch {
            depth: 1,
            var: 0,
            val: 7,
        });
        sink.record(&SearchEvent::Solution {
            objective: Some(4),
            nodes: 9,
        });
        sink.record(&SearchEvent::Solution {
            objective: None,
            nodes: 10,
        });
        sink.record(&SearchEvent::Done {
            status: "optimal",
            nodes: 9,
            fails: 2,
            solutions: 1,
        });
        sink.flush();
        let text = String::from_utf8(sink.out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
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
        let shared = Arc::new(Mutex::new(MemorySink::unbounded()));
        let handle = TraceHandle::new(Arc::clone(&shared));
        handle.emit(&SearchEvent::Fail { depth: 1 });
        handle.emit(&SearchEvent::Backtrack { depth: 0 });
        let sink = shared.lock().unwrap();
        assert_eq!(sink.counts.total(), 2);
        assert_eq!(sink.counts.backtracks, 1);
    }
}
