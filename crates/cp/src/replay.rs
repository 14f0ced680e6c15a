//! Replay: re-validate a recorded solve in O(trace) without re-searching.
//!
//! The solver is deterministic — a fixed model and configuration always
//! produce the same event stream — so replay does not interpret the
//! recorded decisions itself. Instead it re-drives the real search with a
//! [`ValidatingSink`] that compares every live event against the recorded
//! stream in lock-step and raises a [`CancelToken`] at the first
//! mismatch. The comparison forces the replay to follow the recorded
//! trajectory: while events agree the solver is, by induction, in exactly
//! the recorded state (same branches, same propagation outcomes, same
//! store digests), and the moment they disagree the search aborts within
//! one node. A faithful replay therefore costs exactly the recorded tree
//! — node for node — and a divergent one costs the shared prefix plus one
//! node, never a re-search.
//!
//! Two strictness levels:
//! - **strict**: every event must match exactly, byte for byte. Any
//!   solver change that alters the trajectory fails.
//! - **lenient**: only *outcome* events are compared — incumbents
//!   ([`SearchEvent::Solution`], objective only), bound updates, store
//!   digests ([`SearchEvent::StateHash`], hash only) and the terminal
//!   [`SearchEvent::Done`] (status + solution count). Changes that merely
//!   shuffle fail/backtrack bookkeeping pass; anything that changes what
//!   the solver concluded, or the states it passed through, still fails.
//!
//! A mismatch produces a [`DivergenceReport`]: the first mismatching
//! event index, expected vs actual, a window of recorded context around
//! it, and the depth/node statistics at the divergence point.
//!
//! [`replay_with`] runs any solve under the validator, so a driver of
//! many searches (the modulo II sweep) is replayed by running the driver
//! itself; [`replay`] wraps it around one [`minimize`]/[`solve`]. A driver
//! that buffers its searches' events and forwards them when it ends (the
//! sweep does) is checked only then: a divergent replay of it costs the
//! whole live run.

use crate::cancel::CancelToken;
use crate::search::{minimize, solve, SearchConfig, SearchResult};
use crate::store::VarId;
use crate::trace::{SearchEvent, TraceHandle, TraceSink};
use std::fmt;
use std::sync::{Arc, Mutex};

/// How [`replay`] compares live events against the recording.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// `true`: any event mismatch fails. `false` (lenient): only
    /// outcome/hash mismatches fail.
    pub strict: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { strict: true }
    }
}

/// Where and how a replay first left the recorded trajectory.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// Index into the recorded event stream of the first mismatch.
    pub index: usize,
    /// What the recording says should have happened there (`None`: the
    /// live run produced more events than were recorded).
    pub expected: Option<SearchEvent>,
    /// What the live run actually produced (`None`: the live run ended
    /// before reaching this recorded event).
    pub actual: Option<SearchEvent>,
    /// Recorded events surrounding the mismatch (up to
    /// [`CONTEXT_WINDOW`] on each side), for orientation.
    pub context: Vec<SearchEvent>,
    /// Index of the first context event in the recorded stream.
    pub context_start: usize,
    /// Search depth when the divergence surfaced.
    pub depth: usize,
    /// Live node count when the divergence surfaced.
    pub nodes: u64,
}

/// Recorded events kept on each side of a divergence.
pub const CONTEXT_WINDOW: usize = 3;

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at recorded event {} (depth {}, {} live nodes):",
            self.index, self.depth, self.nodes
        )?;
        match &self.expected {
            Some(e) => writeln!(f, "  expected: {}", e.to_json())?,
            None => writeln!(f, "  expected: <end of recorded trace>")?,
        }
        match &self.actual {
            Some(e) => writeln!(f, "  actual:   {}", e.to_json())?,
            None => writeln!(f, "  actual:   <live run emitted no event here>")?,
        }
        writeln!(f, "  recorded context:")?;
        for (i, e) in self.context.iter().enumerate() {
            let idx = self.context_start + i;
            let marker = if idx == self.index { ">>" } else { "  " };
            writeln!(f, "  {marker} [{idx}] {}", e.to_json())?;
        }
        Ok(())
    }
}

/// Outcome of one [`replay`] or [`replay_with`] run.
#[derive(Debug)]
pub struct ReplayReport<R = SearchResult> {
    /// The replay matched the recording end to end.
    pub ok: bool,
    /// Events actually compared (in lenient mode, outcome events only;
    /// [`SearchEvent::Stream`] markers are compared but not counted).
    pub checked: u64,
    /// Total events in the recording.
    pub recorded_events: usize,
    pub divergence: Option<DivergenceReport>,
    /// Search nodes the live run reported, summed over its
    /// [`SearchEvent::Done`] events (one per search it traced).
    pub live_nodes: u64,
    /// The re-driven run's own result (for [`replay`]: objective, stats,
    /// status). On a clean strict replay its node count equals the
    /// recorded one.
    pub result: R,
}

/// Is `e` an outcome event — one lenient mode still checks? A
/// [`SearchEvent::Stream`] marker counts: which searches a driver ran,
/// in which order, is part of what it concluded.
fn is_outcome(e: &SearchEvent) -> bool {
    matches!(
        e,
        SearchEvent::Solution { .. }
            | SearchEvent::BoundUpdate { .. }
            | SearchEvent::StateHash { .. }
            | SearchEvent::Stream { .. }
            | SearchEvent::Done { .. }
    )
}

/// Lenient comparison: same outcome, bookkeeping fields ignored.
fn lenient_eq(expected: &SearchEvent, actual: &SearchEvent) -> bool {
    use SearchEvent::*;
    match (expected, actual) {
        (Solution { objective: a, .. }, Solution { objective: b, .. }) => a == b,
        (BoundUpdate { bound: a }, BoundUpdate { bound: b }) => a == b,
        (StateHash { hash: a, .. }, StateHash { hash: b, .. }) => a == b,
        (Stream { id: a }, Stream { id: b }) => a == b,
        (
            Done {
                status: a,
                solutions: sa,
                ..
            },
            Done {
                status: b,
                solutions: sb,
                ..
            },
        ) => a == b && sa == sb,
        _ => false,
    }
}

/// The lock-step comparator. Plugs into the search as an ordinary trace
/// sink; when a live event disagrees with the recording it files a
/// [`DivergenceReport`] and cancels the search, so replay never explores
/// past the first divergence.
pub struct ValidatingSink {
    recorded: Vec<SearchEvent>,
    cursor: usize,
    strict: bool,
    cancel: CancelToken,
    divergence: Option<DivergenceReport>,
    checked: u64,
    /// Depth/nodes trackers fed from the live stream, for the report.
    depth: usize,
    nodes: u64,
    /// Sum of the live `Done` events' node counts.
    done_nodes: u64,
}

impl ValidatingSink {
    pub fn new(recorded: Vec<SearchEvent>, strict: bool, cancel: CancelToken) -> Self {
        ValidatingSink {
            recorded,
            cursor: 0,
            strict,
            cancel,
            divergence: None,
            checked: 0,
            depth: 0,
            nodes: 0,
            done_nodes: 0,
        }
    }

    fn diverge(&mut self, index: usize, actual: Option<SearchEvent>) {
        let lo = index.saturating_sub(CONTEXT_WINDOW);
        let hi = (index + CONTEXT_WINDOW + 1).min(self.recorded.len());
        self.divergence = Some(DivergenceReport {
            index,
            expected: self.recorded.get(index).cloned(),
            actual,
            context: self.recorded[lo..hi].to_vec(),
            context_start: lo,
            depth: self.depth,
            nodes: self.nodes,
        });
        self.cancel.cancel();
    }

    /// Called after the search returns: a live run that ended while
    /// checked recorded events remain is itself a divergence.
    fn finish(&mut self) {
        if self.divergence.is_some() {
            return;
        }
        let remaining = self.recorded[self.cursor..]
            .iter()
            .position(|e| self.strict || is_outcome(e));
        if let Some(off) = remaining {
            self.diverge(self.cursor + off, None);
        }
    }
}

impl TraceSink for ValidatingSink {
    fn record(&mut self, live: &SearchEvent) {
        match live {
            SearchEvent::Branch { depth, .. }
            | SearchEvent::Fail { depth }
            | SearchEvent::Backtrack { depth } => self.depth = *depth,
            SearchEvent::Solution { nodes, .. } | SearchEvent::StateHash { nodes, .. } => {
                self.nodes = *nodes
            }
            SearchEvent::Done { nodes, .. } => {
                self.nodes = *nodes;
                self.done_nodes += nodes;
            }
            _ => {}
        }
        // After a divergence the search is being cancelled; whatever it
        // emits on the way out (including the Cancelled event our own
        // token caused) is noise, not further mismatches.
        if self.divergence.is_some() {
            return;
        }
        if !self.strict && !is_outcome(live) {
            return;
        }
        // Skip recorded events the lenient comparator does not check.
        while !self.strict && self.cursor < self.recorded.len() {
            if is_outcome(&self.recorded[self.cursor]) {
                break;
            }
            self.cursor += 1;
        }
        let Some(expected) = self.recorded.get(self.cursor) else {
            // Live run goes on past the end of the recording.
            self.diverge(self.recorded.len(), Some(live.clone()));
            return;
        };
        let matches = if self.strict {
            expected == live
        } else {
            lenient_eq(expected, live)
        };
        if matches {
            self.cursor += 1;
            self.checked += u64::from(!matches!(live, SearchEvent::Stream { .. }));
        } else {
            self.diverge(self.cursor, Some(live.clone()));
        }
    }
}

/// Run `run` under a [`ValidatingSink`] for `recorded` and return the
/// verdict with the run's own result.
///
/// `run` receives the validator's trace handle and its token, and must
/// route both into every search it makes (replacing any trace or token of
/// its own): the first mismatch raises the token. Its budgets are kept,
/// but wall-clock deadlines are inherently nondeterministic — replay
/// deterministic (completed) recordings.
pub fn replay_with<R>(
    recorded: &[SearchEvent],
    opts: &ReplayOptions,
    run: impl FnOnce(TraceHandle, CancelToken) -> R,
) -> ReplayReport<R> {
    let cancel = CancelToken::new();
    let sink = Arc::new(Mutex::new(ValidatingSink::new(
        recorded.to_vec(),
        opts.strict,
        cancel.clone(),
    )));
    let result = run(TraceHandle::new(Arc::clone(&sink)), cancel);
    let mut sink = sink.lock().unwrap_or_else(|e| e.into_inner());
    sink.finish();
    ReplayReport {
        ok: sink.divergence.is_none(),
        checked: sink.checked,
        recorded_events: recorded.len(),
        divergence: sink.divergence.take(),
        live_nodes: sink.done_nodes,
        result,
    }
}

/// Re-drive `model` under `config` and validate it against `recorded`:
/// [`replay_with`] around one search.
///
/// `config` must reconstruct the recorded run exactly (same phases, same
/// restart policy, same [`SearchConfig::state_hash_every`] as the trace
/// header); `objective` selects minimization vs satisfaction, matching
/// the original call.
pub fn replay(
    model: &mut crate::model::Model,
    objective: Option<VarId>,
    config: &SearchConfig,
    recorded: &[SearchEvent],
    opts: &ReplayOptions,
) -> ReplayReport {
    replay_with(recorded, opts, |trace, cancel| {
        let cfg = SearchConfig {
            trace: Some(trace),
            cancel: Some(cancel),
            ..config.clone()
        };
        match objective {
            Some(obj) => minimize(model, obj, &cfg),
            None => solve(model, &cfg),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::props::basic::{MaxOf, NeqOffset};
    use crate::search::{Phase, SearchStatus, ValSel, VarSel};
    use crate::trace::MemorySink;

    /// 5 mutually-different vars, minimize the max: small but real BnB.
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

    fn cfg(vars: Vec<VarId>, val_sel: ValSel) -> SearchConfig {
        SearchConfig {
            phases: vec![Phase::new(vars, VarSel::FirstFail, val_sel)],
            state_hash_every: Some(2),
            ..Default::default()
        }
    }

    fn record(val_sel: ValSel) -> (Vec<SearchEvent>, SearchResult) {
        let (mut m, obj, vars) = build();
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let mut c = cfg(vars, val_sel);
        c.trace = Some(TraceHandle::new(Arc::clone(&sink)));
        let r = minimize(&mut m, obj, &c);
        let events = sink.lock().unwrap().events.clone();
        (events, r)
    }

    #[test]
    fn faithful_replay_matches_node_for_node() {
        let (events, recorded_result) = record(ValSel::Min);
        let (mut m, obj, vars) = build();
        let report = replay(
            &mut m,
            Some(obj),
            &cfg(vars, ValSel::Min),
            &events,
            &ReplayOptions { strict: true },
        );
        assert!(report.ok, "unexpected divergence: {:?}", report.divergence);
        assert_eq!(report.checked as usize, events.len());
        // "Without re-searching": the replay explored exactly the
        // recorded tree.
        assert_eq!(report.result.stats.nodes, recorded_result.stats.nodes);
        assert_eq!(report.result.objective, recorded_result.objective);
        assert_eq!(report.result.status, SearchStatus::Optimal);
    }

    #[test]
    fn perturbed_value_ordering_diverges_at_first_branch() {
        let (events, _) = record(ValSel::Min);
        let (mut m, obj, vars) = build();
        // The injected perturbation: flip the value ordering.
        let report = replay(
            &mut m,
            Some(obj),
            &cfg(vars, ValSel::Max),
            &events,
            &ReplayOptions { strict: true },
        );
        assert!(!report.ok);
        let d = report.divergence.expect("divergence report");
        // First mismatch is the very first decision: Start matches, the
        // first Branch picks max instead of min.
        assert!(matches!(d.expected, Some(SearchEvent::Branch { .. })));
        assert!(matches!(d.actual, Some(SearchEvent::Branch { .. })));
        assert_ne!(d.expected, d.actual);
        assert!(!d.context.is_empty());
        assert!(d.context_start <= d.index);
        // The search aborted immediately rather than exploring the
        // perturbed tree.
        assert!(report.result.cancelled);
        assert!(report.result.stats.nodes <= 2);
    }

    #[test]
    fn lenient_replay_tolerates_bookkeeping_but_not_outcomes() {
        let (events, _) = record(ValSel::Min);
        // Drop every fail/backtrack event — lenient must still pass.
        let thinned: Vec<SearchEvent> = events
            .iter()
            .filter(|e| !matches!(e, SearchEvent::Fail { .. } | SearchEvent::Backtrack { .. }))
            .cloned()
            .collect();
        let (mut m, obj, vars) = build();
        let report = replay(
            &mut m,
            Some(obj),
            &cfg(vars.clone(), ValSel::Min),
            &thinned,
            &ReplayOptions { strict: false },
        );
        assert!(report.ok, "lenient diverged: {:?}", report.divergence);

        // But a corrupted store digest must fail even leniently.
        let mut corrupt = events;
        for e in &mut corrupt {
            if let SearchEvent::StateHash { hash, .. } = e {
                *hash ^= 1;
                break;
            }
        }
        let (mut m2, obj2, vars2) = build();
        let report = replay(
            &mut m2,
            Some(obj2),
            &cfg(vars2, ValSel::Min),
            &corrupt,
            &ReplayOptions { strict: false },
        );
        assert!(!report.ok);
        let d = report.divergence.unwrap();
        assert!(matches!(d.expected, Some(SearchEvent::StateHash { .. })));
    }

    #[test]
    fn truncated_recording_is_reported_as_missing_live_events() {
        let (events, _) = record(ValSel::Min);
        let cut = &events[..events.len() - 1]; // drop the Done record
        let (mut m, obj, vars) = build();
        let report = replay(
            &mut m,
            Some(obj),
            &cfg(vars, ValSel::Min),
            cut,
            &ReplayOptions { strict: true },
        );
        assert!(!report.ok);
        let d = report.divergence.unwrap();
        assert_eq!(d.index, cut.len());
        assert!(d.expected.is_none());
        assert!(matches!(d.actual, Some(SearchEvent::Done { .. })));
    }

    #[test]
    fn overlong_recording_is_reported_at_the_first_unreached_event() {
        let (mut events, _) = record(ValSel::Min);
        events.push(SearchEvent::Fail { depth: 0 });
        let (mut m, obj, vars) = build();
        let report = replay(
            &mut m,
            Some(obj),
            &cfg(vars, ValSel::Min),
            &events,
            &ReplayOptions { strict: true },
        );
        assert!(!report.ok);
        let d = report.divergence.unwrap();
        assert_eq!(d.index, events.len() - 1);
        assert!(d.actual.is_none());
        let report_text = d.to_string();
        assert!(report_text.contains("divergence at recorded event"));
    }

    #[test]
    fn replay_with_checks_stream_markers_without_counting_them() {
        // Two searches behind `Stream` markers, as the II sweep forwards
        // its probes.
        let run = |trace: TraceHandle, cancel: Option<CancelToken>| {
            for id in [1, 2] {
                trace.emit(&SearchEvent::Stream { id });
                let (mut m, obj, vars) = build();
                let c = SearchConfig {
                    trace: Some(trace.clone()),
                    cancel: cancel.clone(),
                    ..cfg(vars, ValSel::Min)
                };
                minimize(&mut m, obj, &c);
            }
        };
        let (one, one_result) = record(ValSel::Min);
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        run(TraceHandle::new(Arc::clone(&sink)), None);
        let events = sink.lock().unwrap().events.clone();
        let second = events
            .iter()
            .rposition(|e| matches!(e, SearchEvent::Stream { .. }))
            .unwrap();
        for strict in [true, false] {
            let opts = ReplayOptions { strict };
            let rep = replay_with(&events, &opts, |t, c| run(t, Some(c)));
            assert!(rep.ok, "strict={strict}: {:?}", rep.divergence);
            assert_eq!(rep.live_nodes, 2 * one_result.stats.nodes);
            if strict {
                assert_eq!(rep.checked as usize, 2 * one.len());
            }
            // Without the first search the recording claims a run that
            // began at stream 2: refused at its first event.
            let rep = replay_with(&events[second..], &opts, |t, c| run(t, Some(c)));
            assert!(!rep.ok, "strict={strict}");
            let d = rep.divergence.unwrap();
            assert_eq!(d.index, 0);
            assert_eq!(d.actual, Some(SearchEvent::Stream { id: 1 }));
        }
    }
}
