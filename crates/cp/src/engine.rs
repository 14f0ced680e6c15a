//! Event-driven propagation engine: modification events, prioritised
//! scheduling and the fixpoint loop.
//!
//! Propagators are owned by the [`Engine`]; each registers (variable,
//! event-mask) watches via [`Propagator::subscribe`]. When a watched
//! variable's domain shrinks, the store logs a classified
//! [`DomainEvent`]; the engine wakes only the propagators whose mask
//! intersects the event, records the *tag* of the watch that fired (so a
//! propagator can tell which of its tasks/rects/terms moved), and queues
//! the propagator in one of three priority tiers — cheap arithmetic
//! filtering runs to fixpoint before expensive global constraints fire.
//! [`Engine::fixpoint`] runs until no queued propagator remains or some
//! domain empties.
//!
//! Scheduling is deterministic: tiers are FIFO, tiers drain lowest-first,
//! and wake tags are delivered in sorted order, so a fixed instance
//! always produces the same propagation sequence (and hence the same
//! trace stream).

use crate::domain::DomainEvent;
use crate::store::{Fail, PropResult, Store, VarId};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Sentinel tag for untagged watches ([`Subscriptions::watch`]).
const UNTAGGED: u32 = u32::MAX;

/// Number of scheduling tiers (one per [`Priority`] variant).
const NUM_TIERS: usize = 3;

/// How many propagator runs may elapse between cancellation polls inside
/// a fixpoint. Small enough that a heavy global propagator chain aborts
/// in microseconds, large enough that the atomic load never shows up in
/// profiles.
const CANCEL_POLL_PERIOD: u32 = 32;

/// Scheduling cost class of a propagator; cheaper tiers drain first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Priority {
    /// Binary/ternary arithmetic: O(1)-ish bound rules.
    Arith = 0,
    /// Linear (in)equalities and reified/conditional constraints.
    Linear = 1,
    /// Global constraints: `Cumulative`, `Disjunctive`, `Diff2`.
    Global = 2,
}

/// Watch registrations collected from [`Propagator::subscribe`].
///
/// The engine owns one reusable buffer, so subscribing allocates nothing
/// in the steady state.
#[derive(Default)]
pub struct Subscriptions {
    entries: Vec<(VarId, DomainEvent, u32)>,
}

impl Subscriptions {
    /// Wake the propagator whenever `v` fires an event in `mask`.
    /// The wake carries no tag: the propagator sees a full rescan.
    pub fn watch(&mut self, v: VarId, mask: DomainEvent) {
        self.entries.push((v, mask, UNTAGGED));
    }

    /// Like [`Subscriptions::watch`], but the wake records `tag` (an
    /// index meaningful to the propagator: a task, rectangle or term
    /// position) so it can filter incrementally.
    pub fn watch_tagged(&mut self, v: VarId, mask: DomainEvent, tag: u32) {
        assert_ne!(tag, UNTAGGED, "tag value reserved");
        self.entries.push((v, mask, tag));
    }
}

/// Why a propagator is running: the dirty-variable information
/// accumulated since its previous run.
pub struct Wake<'a> {
    all: bool,
    tags: &'a [u32],
    rerun_in_round: bool,
}

impl Wake<'_> {
    /// True if the propagator must rescan everything: its first run, a
    /// [`Engine::schedule_all`], an untagged watch fired, or the engine
    /// is in FIFO-baseline mode.
    #[inline]
    pub fn rescan(&self) -> bool {
        self.all
    }

    /// Sorted, deduplicated tags of the tagged watches that fired since
    /// this propagator's previous run. Empty when [`Wake::rescan`] is
    /// true (the set is not tracked on full rescans).
    #[inline]
    pub fn tags(&self) -> &[u32] {
        self.tags
    }

    /// True if this propagator already ran earlier in the *same*
    /// [`Engine::fixpoint`] call. Internal caches built during a run are
    /// only valid on such re-runs: between fixpoint calls the search may
    /// have backtracked, which silently rewinds domains.
    #[inline]
    pub fn rerun_in_round(&self) -> bool {
        self.rerun_in_round
    }
}

#[cfg(test)]
impl Wake<'static> {
    /// A full-rescan wake, for driving one `propagate` call by hand.
    pub(crate) fn full() -> Self {
        Wake {
            all: true,
            tags: &[],
            rerun_in_round: false,
        }
    }
}

/// A filtering algorithm attached to a set of variables.
///
/// `propagate` must be *monotone* (only ever remove values); idempotence
/// is not required — the engine reaches a fixpoint by re-queueing on
/// change. A propagator that *is* idempotent (one run reaches its own
/// fixpoint) should say so via [`Propagator::idempotent`]; the engine
/// then skips the self-requeue its own prunings would cause.
pub trait Propagator: Send {
    /// Register the (variable, event-mask) watches that wake this
    /// propagator. Called once at [`Engine::post`] time; the mask must be
    /// *complete*: any event that could enable new pruning must wake it.
    fn subscribe(&self, subs: &mut Subscriptions);

    /// Filter domains; `Err(Fail)` signals inconsistency of the node.
    /// `wake` describes what changed since the previous run and may be
    /// used to skip provably clean work — never to prune differently.
    fn propagate(&mut self, store: &mut Store, wake: &Wake<'_>) -> PropResult;

    /// Diagnostic name.
    fn name(&self) -> &'static str {
        "propagator"
    }

    /// Scheduling tier. Defaults to the middle tier.
    fn priority(&self) -> Priority {
        Priority::Linear
    }

    /// True if a single `propagate` run always reaches this propagator's
    /// own fixpoint, so events produced by its own run need not requeue
    /// it.
    fn idempotent(&self) -> bool {
        false
    }
}

/// Identifier of a registered propagator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PropId(pub u32);

/// Per-propagator accounting, indexed by [`PropId`].
///
/// Counters are always maintained (a few integer adds per invocation);
/// wall-clock attribution is off by default because reading the clock
/// twice per propagation is the one genuinely expensive part — enable it
/// with [`Engine::enable_profiling`].
#[derive(Clone, Copy, Debug)]
pub struct PropProfile {
    /// Diagnostic name as reported by [`Propagator::name`].
    pub name: &'static str,
    /// Times `propagate` ran.
    pub invocations: u64,
    /// Wake notifications delivered (event matched the mask). A wake on
    /// an already-queued propagator counts once more here but leads to a
    /// single invocation, so `wakes ≥ invocations` over event-driven
    /// runs.
    pub wakes: u64,
    /// Invocations that completed without pruning anything.
    pub no_op_runs: u64,
    /// Domain mutations performed across all invocations.
    pub prunings: u64,
    /// Invocations that ended in `Err(Fail)`.
    pub failures: u64,
    /// Cumulative wall time; zero unless timing was enabled.
    pub time: Duration,
}

/// Render aggregated profile rows (as from [`Engine::profile_by_name`])
/// plus a total line. `total_invocations` is the engine's propagation
/// count, which the invocation column must sum to.
pub fn render_profile_table(rows: &[PropProfile], total_invocations: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "propagator", "invocations", "wakes", "no_op_runs", "prunings", "failures", "time_us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
            r.name,
            r.invocations,
            r.wakes,
            r.no_op_runs,
            r.prunings,
            r.failures,
            r.time.as_micros()
        );
    }
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "total",
        total_invocations,
        rows.iter().map(|r| r.wakes).sum::<u64>(),
        rows.iter().map(|r| r.no_op_runs).sum::<u64>(),
        rows.iter().map(|r| r.prunings).sum::<u64>(),
        rows.iter().map(|r| r.failures).sum::<u64>(),
        rows.iter().map(|r| r.time.as_micros()).sum::<u128>()
    );
    out
}

/// One watch entry on a variable's subscriber list.
#[derive(Clone, Copy)]
struct SubEntry {
    prop: u32,
    mask: DomainEvent,
    tag: u32,
}

/// Dirty info accumulated for a queued propagator since its last run.
#[derive(Default)]
struct Pending {
    /// An untagged watch fired (or the run was forced): full rescan.
    all: bool,
    /// Distinct tags fired, in arrival order (sorted before delivery).
    tags: Vec<u32>,
    /// Bitset over tag values backing O(1) dedup of `tags`.
    seen: Vec<u64>,
}

impl Pending {
    fn note(&mut self, tag: u32) {
        if tag == UNTAGGED {
            self.all = true;
            return;
        }
        let (word, bit) = (tag as usize / 64, tag as usize % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & (1 << bit) == 0 {
            self.seen[word] |= 1 << bit;
            self.tags.push(tag);
        }
    }

    /// Reset, keeping both buffers allocated. O(|tags|), not O(|seen|).
    fn clear(&mut self) {
        self.all = false;
        for &t in &self.tags {
            self.seen[t as usize / 64] &= !(1 << (t as usize % 64));
        }
        self.tags.clear();
    }
}

pub struct Engine {
    props: Vec<Box<dyn Propagator>>,
    /// var index → watch entries.
    subs: Vec<Vec<SubEntry>>,
    queued: Vec<bool>,
    /// One FIFO queue per priority tier; lowest tier drains first.
    tiers: [VecDeque<u32>; NUM_TIERS],
    /// Tier index per propagator (resolved once at post time).
    tier_of: Vec<u8>,
    idempotent: Vec<bool>,
    /// Per-propagator dirty info, parallel to `props`.
    pending: Vec<Pending>,
    /// Fixpoint round a propagator last ran in, parallel to `props`.
    last_run_round: Vec<u64>,
    /// Incremented on every `fixpoint` call; 0 = never.
    round: u64,
    /// Total number of `propagate` invocations (statistics).
    pub propagations: u64,
    /// Parallel to `props`.
    profiles: Vec<PropProfile>,
    /// When true, attribute wall time to each propagator run.
    timed_profiling: bool,
    /// When true, emulate the pre-event engine: a single FIFO queue, no
    /// event-mask filtering, no idempotence skips, full rescans only.
    fifo_baseline: bool,
    /// Cooperative cancellation, polled every [`CANCEL_POLL_PERIOD`]
    /// propagator runs inside [`Engine::fixpoint`] so a long fixpoint
    /// aborts promptly. `None` (the default) costs one branch per run.
    cancel: Option<crate::cancel::CancelToken>,
    /// Reused across `post` calls so subscribing does not allocate.
    sub_buf: Subscriptions,
}

impl Engine {
    pub fn new() -> Self {
        Engine {
            props: Vec::new(),
            subs: Vec::new(),
            queued: Vec::new(),
            tiers: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            tier_of: Vec::new(),
            idempotent: Vec::new(),
            pending: Vec::new(),
            last_run_round: Vec::new(),
            round: 0,
            propagations: 0,
            profiles: Vec::new(),
            timed_profiling: false,
            fifo_baseline: false,
            cancel: None,
            sub_buf: Subscriptions::default(),
        }
    }

    /// Install (or clear) the cancellation token polled inside
    /// [`Engine::fixpoint`]. A cancelled fixpoint cleans up exactly like a
    /// propagation failure — queue flushed, pending events dropped — and
    /// returns `Err(Fail)`; callers that installed a token must check it
    /// to tell cancellation from genuine refutation.
    pub fn set_cancel(&mut self, token: Option<crate::cancel::CancelToken>) {
        self.cancel = token;
    }

    /// Turn on per-propagator wall-time attribution (counters are always
    /// on). Call before solving; timing starts from the next fixpoint.
    pub fn enable_profiling(&mut self) {
        self.timed_profiling = true;
    }

    /// Disable event-mask filtering, priority tiers, idempotence skips
    /// and incremental wake info: every change wakes every subscriber
    /// into one FIFO queue with a full rescan. This reproduces the
    /// pre-event engine and exists only as the reference the differential
    /// suite checks the event engine against. Call before posting so the
    /// initial schedule is pure FIFO too.
    pub fn set_fifo_baseline(&mut self, on: bool) {
        self.fifo_baseline = on;
    }

    /// Per-propagator accounting, one entry per registered propagator in
    /// [`PropId`] order.
    pub fn profiles(&self) -> &[PropProfile] {
        &self.profiles
    }

    /// Profiles aggregated by propagator name, sorted by descending cost
    /// (time when timing was on, else prunings).
    pub fn profile_by_name(&self) -> Vec<PropProfile> {
        let mut by_name: Vec<PropProfile> = Vec::new();
        for p in &self.profiles {
            match by_name.iter_mut().find(|a| a.name == p.name) {
                Some(a) => {
                    a.invocations += p.invocations;
                    a.wakes += p.wakes;
                    a.no_op_runs += p.no_op_runs;
                    a.prunings += p.prunings;
                    a.failures += p.failures;
                    a.time += p.time;
                }
                None => by_name.push(*p),
            }
        }
        by_name.sort_by(|a, b| {
            (b.time, b.prunings, b.invocations).cmp(&(a.time, a.prunings, a.invocations))
        });
        by_name
    }

    /// Render the sorted "propagator flamegraph" table.
    pub fn profile_table(&self) -> String {
        render_profile_table(&self.profile_by_name(), self.propagations)
    }

    pub fn num_propagators(&self) -> usize {
        self.props.len()
    }

    /// Register a propagator and schedule its first (full-rescan) run.
    pub fn post(&mut self, p: Box<dyn Propagator>, store: &Store) -> PropId {
        let id = self.props.len() as u32;
        let mut buf = std::mem::take(&mut self.sub_buf);
        buf.entries.clear();
        p.subscribe(&mut buf);
        if self.subs.len() < store.num_vars() {
            self.subs.resize_with(store.num_vars(), Vec::new);
        }
        for &(v, mask, tag) in &buf.entries {
            debug_assert!(v.idx() < store.num_vars(), "unknown var in {}", p.name());
            debug_assert!(!mask.is_empty(), "empty event mask in {}", p.name());
            self.subs[v.idx()].push(SubEntry {
                prop: id,
                mask,
                tag,
            });
        }
        self.sub_buf = buf;
        let tier = if self.fifo_baseline {
            0
        } else {
            p.priority() as u8
        };
        self.tier_of.push(tier);
        self.idempotent.push(p.idempotent());
        self.profiles.push(PropProfile {
            name: p.name(),
            invocations: 0,
            wakes: 0,
            no_op_runs: 0,
            prunings: 0,
            failures: 0,
            time: Duration::ZERO,
        });
        self.props.push(p);
        self.queued.push(true);
        self.pending.push(Pending {
            all: true,
            ..Pending::default()
        });
        self.last_run_round.push(0);
        self.tiers[tier as usize].push_back(id);
        PropId(id)
    }

    fn enqueue(&mut self, id: u32) {
        if !self.queued[id as usize] {
            self.queued[id as usize] = true;
            self.tiers[self.tier_of[id as usize] as usize].push_back(id);
        }
    }

    /// Deliver the store's modification log to subscribers. `just_ran`
    /// names the propagator whose run produced these events (if any), so
    /// an idempotent propagator is not requeued by its own prunings.
    fn drain_events(&mut self, store: &mut Store, just_ran: Option<u32>) {
        if !store.has_events() {
            return;
        }
        for (var, ev) in store.take_events() {
            // Vars created after the last `post` have no subscription slot.
            if (var as usize) >= self.subs.len() {
                continue;
            }
            let entries = std::mem::take(&mut self.subs[var as usize]);
            for e in &entries {
                if !self.fifo_baseline {
                    if !ev.intersects(e.mask) {
                        continue;
                    }
                    if Some(e.prop) == just_ran && self.idempotent[e.prop as usize] {
                        continue; // at its own fixpoint already
                    }
                }
                self.profiles[e.prop as usize].wakes += 1;
                self.pending[e.prop as usize].note(e.tag);
                self.enqueue(e.prop);
            }
            self.subs[var as usize] = entries;
        }
    }

    /// Pop the next propagator to run: lowest non-empty tier, FIFO
    /// within the tier.
    fn pop_next(&mut self) -> Option<u32> {
        self.tiers.iter_mut().find_map(|t| t.pop_front())
    }

    /// Run propagation to fixpoint. On failure, the queue is flushed so the
    /// engine is clean for the post-backtrack state. A pending cancellation
    /// (see [`Engine::set_cancel`]) takes the same cleanup path and also
    /// returns `Err(Fail)`.
    pub fn fixpoint(&mut self, store: &mut Store) -> PropResult {
        self.round += 1;
        self.drain_events(store, None);
        let mut runs_until_poll = CANCEL_POLL_PERIOD;
        while let Some(id) = self.pop_next() {
            if let Some(c) = &self.cancel {
                runs_until_poll -= 1;
                if runs_until_poll == 0 {
                    runs_until_poll = CANCEL_POLL_PERIOD;
                    if c.is_cancelled() {
                        self.reset_queue();
                        store.take_events();
                        return Err(Fail);
                    }
                }
            }
            let idx = id as usize;
            self.queued[idx] = false;
            self.propagations += 1;
            let changes_before = store.change_count();
            let t0 = if self.timed_profiling {
                Some(Instant::now())
            } else {
                None
            };
            let mut pending = std::mem::take(&mut self.pending[idx]);
            pending.tags.sort_unstable();
            let wake = Wake {
                all: pending.all || self.fifo_baseline,
                tags: &pending.tags,
                rerun_in_round: self.last_run_round[idx] == self.round,
            };
            self.last_run_round[idx] = self.round;
            // Temporarily move the propagator out to satisfy the borrow
            // checker while it mutates the store.
            let mut p = std::mem::replace(&mut self.props[idx], Box::new(NoOp));
            let r = p.propagate(store, &wake);
            self.props[idx] = p;
            pending.clear();
            self.pending[idx] = pending;
            let prof = &mut self.profiles[idx];
            prof.invocations += 1;
            let pruned = store.change_count() - changes_before;
            prof.prunings += pruned;
            match r {
                Ok(()) if pruned == 0 => prof.no_op_runs += 1,
                Err(Fail) => prof.failures += 1,
                Ok(()) => {}
            }
            if let Some(t0) = t0 {
                prof.time += t0.elapsed();
            }
            match r {
                Ok(()) => self.drain_events(store, Some(id)),
                Err(Fail) => {
                    self.reset_queue();
                    store.take_events();
                    return Err(Fail);
                }
            }
        }
        Ok(())
    }

    /// Schedule every propagator for a full rescan (used after posting
    /// bound tightenings at a search restart boundary).
    pub fn schedule_all(&mut self) {
        for id in 0..self.props.len() as u32 {
            self.pending[id as usize].all = true;
            self.enqueue(id);
        }
    }

    /// Flush every tier and the pending dirty info in one pass over the
    /// queued entries (no per-element pops).
    fn reset_queue(&mut self) {
        let Engine {
            tiers,
            queued,
            pending,
            ..
        } = self;
        for tier in tiers.iter_mut() {
            for &id in tier.iter() {
                queued[id as usize] = false;
                pending[id as usize].clear();
            }
            tier.clear();
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

struct NoOp;
impl Propagator for NoOp {
    fn subscribe(&self, _: &mut Subscriptions) {}
    fn propagate(&mut self, _: &mut Store, _: &Wake<'_>) -> PropResult {
        Ok(())
    }
    fn name(&self) -> &'static str {
        "noop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x ≤ y, bounds-consistent.
    struct Leq {
        x: VarId,
        y: VarId,
    }
    impl Propagator for Leq {
        fn subscribe(&self, subs: &mut Subscriptions) {
            subs.watch(self.x, DomainEvent::MIN);
            subs.watch(self.y, DomainEvent::MAX);
        }
        fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
            s.remove_above(self.x, s.max(self.y))?;
            s.remove_below(self.y, s.min(self.x))
        }
        fn name(&self) -> &'static str {
            "leq"
        }
        fn priority(&self) -> Priority {
            Priority::Arith
        }
        fn idempotent(&self) -> bool {
            true
        }
    }

    #[test]
    fn fixpoint_chains_inequalities() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let c = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.post(Box::new(Leq { x: b, y: c }), &s);
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.remove_above(c, 4).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.max(a), 4);
        assert_eq!(s.max(b), 4);
    }

    #[test]
    fn fixpoint_detects_failure_and_cleans_queue() {
        let mut s = Store::new();
        let a = s.new_var(5, 10);
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        // Store-level ops stay legal; the *propagator* must detect that
        // a ∈ [8,10] cannot be ≤ b ∈ [5,6].
        s.remove_below(a, 8).unwrap();
        s.remove_above(b, 6).unwrap();
        assert_eq!(e.fixpoint(&mut s), Err(Fail));
        s.pop_level();
        // Engine must be reusable after failure.
        s.push_level();
        s.remove_above(b, 7).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(s.max(a), 7);
    }

    #[test]
    fn propagator_runs_once_per_wakeup_batch() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.fixpoint(&mut s).unwrap();
        let before = e.propagations;
        s.push_level();
        // Two changes to watched vars in one batch → at most 2 runs
        // (initial + requeue), not 4.
        s.remove_above(b, 8).unwrap();
        s.remove_below(a, 1).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert!(e.propagations - before <= 2);
    }

    #[test]
    fn event_masks_filter_wakeups() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        // Leq watches a:MIN and b:MAX only.
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.fixpoint(&mut s).unwrap();
        let before = e.propagations;
        s.push_level();
        // MAX change on a and MIN change on b: both outside the mask.
        s.remove_above(a, 9).unwrap();
        s.remove_below(b, 1).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert_eq!(e.propagations, before, "masked-out events must not wake");
        // ...but the FIFO baseline ignores masks and does wake.
        let mut s2 = Store::new();
        let a2 = s2.new_var(0, 10);
        let b2 = s2.new_var(0, 10);
        let mut e2 = Engine::new();
        e2.set_fifo_baseline(true);
        e2.post(Box::new(Leq { x: a2, y: b2 }), &s2);
        e2.fixpoint(&mut s2).unwrap();
        let before2 = e2.propagations;
        s2.push_level();
        s2.remove_above(a2, 9).unwrap();
        e2.fixpoint(&mut s2).unwrap();
        assert_eq!(e2.propagations, before2 + 1);
    }

    #[test]
    fn idempotent_propagator_not_requeued_by_own_prunings() {
        // Watches both bounds of both vars, prunes on every first run.
        struct Shrink {
            x: VarId,
            idem: bool,
        }
        impl Propagator for Shrink {
            fn subscribe(&self, subs: &mut Subscriptions) {
                subs.watch(self.x, DomainEvent::ANY);
            }
            fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
                let m = s.min(self.x);
                if s.max(self.x) > m {
                    s.remove_above(self.x, s.max(self.x) - 1)?;
                }
                Ok(())
            }
            fn name(&self) -> &'static str {
                "shrink"
            }
            fn idempotent(&self) -> bool {
                self.idem
            }
        }
        for (idem, expected) in [(true, 1u64), (false, 11u64)] {
            let mut s = Store::new();
            let x = s.new_var(0, 10);
            let mut e = Engine::new();
            e.post(Box::new(Shrink { x, idem }), &s);
            e.fixpoint(&mut s).unwrap();
            assert_eq!(e.propagations, expected, "idem={idem}");
        }
    }

    #[test]
    fn priority_tiers_run_cheap_before_global() {
        use std::sync::{Arc, Mutex};
        struct Recorder {
            x: VarId,
            label: &'static str,
            prio: Priority,
            log: Arc<Mutex<Vec<&'static str>>>,
        }
        impl Propagator for Recorder {
            fn subscribe(&self, subs: &mut Subscriptions) {
                subs.watch(self.x, DomainEvent::ANY);
            }
            fn propagate(&mut self, _: &mut Store, _: &Wake<'_>) -> PropResult {
                self.log.lock().unwrap().push(self.label);
                Ok(())
            }
            fn priority(&self) -> Priority {
                self.prio
            }
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut s = Store::new();
        let x = s.new_var(0, 10);
        let mut e = Engine::new();
        // Posted most-expensive-first; must still run cheapest-first.
        for (label, prio) in [
            ("global", Priority::Global),
            ("linear", Priority::Linear),
            ("arith", Priority::Arith),
        ] {
            e.post(
                Box::new(Recorder {
                    x,
                    label,
                    prio,
                    log: Arc::clone(&log),
                }),
                &s,
            );
        }
        e.fixpoint(&mut s).unwrap();
        assert_eq!(*log.lock().unwrap(), vec!["arith", "linear", "global"]);
    }

    #[test]
    fn tagged_wakes_deliver_dirty_indices() {
        use std::sync::{Arc, Mutex};
        struct TagSpy {
            vars: Vec<VarId>,
            seen: Arc<Mutex<Vec<Vec<u32>>>>,
        }
        impl Propagator for TagSpy {
            fn subscribe(&self, subs: &mut Subscriptions) {
                for (i, &v) in self.vars.iter().enumerate() {
                    subs.watch_tagged(v, DomainEvent::ANY, i as u32);
                }
            }
            fn propagate(&mut self, _: &mut Store, w: &Wake<'_>) -> PropResult {
                if !w.rescan() {
                    self.seen.lock().unwrap().push(w.tags().to_vec());
                }
                Ok(())
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut s = Store::new();
        let vars: Vec<VarId> = (0..4).map(|_| s.new_var(0, 10)).collect();
        let mut e = Engine::new();
        e.post(
            Box::new(TagSpy {
                vars: vars.clone(),
                seen: Arc::clone(&seen),
            }),
            &s,
        );
        e.fixpoint(&mut s).unwrap(); // initial full rescan, not recorded
        s.push_level();
        s.remove_below(vars[3], 2).unwrap();
        s.remove_below(vars[1], 2).unwrap();
        s.remove_above(vars[3], 8).unwrap(); // duplicate var: tag deduped
        e.fixpoint(&mut s).unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![vec![1, 3]]);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    struct Leq {
        x: VarId,
        y: VarId,
    }
    impl Propagator for Leq {
        fn subscribe(&self, subs: &mut Subscriptions) {
            subs.watch(self.x, DomainEvent::MIN);
            subs.watch(self.y, DomainEvent::MAX);
        }
        fn propagate(&mut self, s: &mut Store, _: &Wake<'_>) -> PropResult {
            s.remove_above(self.x, s.max(self.y))?;
            s.remove_below(self.y, s.min(self.x))
        }
        fn name(&self) -> &'static str {
            "leq"
        }
    }

    #[test]
    fn invocations_sum_to_engine_propagations() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let c = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.post(Box::new(Leq { x: b, y: c }), &s);
        e.fixpoint(&mut s).unwrap();
        s.push_level();
        s.remove_above(c, 4).unwrap();
        e.fixpoint(&mut s).unwrap();
        let sum: u64 = e.profiles().iter().map(|p| p.invocations).sum();
        assert_eq!(sum, e.propagations);
        assert!(sum > 0);
    }

    #[test]
    fn prunings_sum_to_propagator_driven_store_changes() {
        // At the root fixpoint every domain mutation comes from a
        // propagator, so profile prunings must equal the store's change
        // counter exactly.
        let mut s = Store::new();
        let a = s.new_var(3, 10);
        let b = s.new_var(0, 8);
        let c = s.new_var(0, 5);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.post(Box::new(Leq { x: b, y: c }), &s);
        e.fixpoint(&mut s).unwrap();
        let prunings: u64 = e.profiles().iter().map(|p| p.prunings).sum();
        assert_eq!(prunings, s.change_count());
        assert!(prunings > 0, "chained bounds must have pruned something");
    }

    #[test]
    fn failures_are_attributed_and_timing_is_gated() {
        let mut s = Store::new();
        let a = s.new_var(5, 10);
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.fixpoint(&mut s).unwrap();
        assert_eq!(
            e.profiles()[0].time,
            Duration::ZERO,
            "timing off by default"
        );
        s.push_level();
        s.remove_below(a, 8).unwrap();
        s.remove_above(b, 6).unwrap();
        assert_eq!(e.fixpoint(&mut s), Err(Fail));
        assert_eq!(e.profiles()[0].failures, 1);
        s.pop_level();

        e.enable_profiling();
        s.push_level();
        s.remove_above(b, 5).unwrap();
        e.fixpoint(&mut s).unwrap();
        assert!(e.profiles()[0].time > Duration::ZERO);
    }

    #[test]
    fn wakes_and_no_op_runs_are_counted() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.fixpoint(&mut s).unwrap();
        // Initial run on full domains prunes nothing.
        assert_eq!(e.profiles()[0].no_op_runs, 1);
        assert_eq!(e.profiles()[0].wakes, 0, "initial schedule is not a wake");
        s.push_level();
        s.remove_above(b, 8).unwrap(); // matches b:MAX → one wake
        e.fixpoint(&mut s).unwrap();
        assert_eq!(e.profiles()[0].wakes, 1);
        // That run pruned a's max, so no new no-op.
        assert_eq!(e.profiles()[0].no_op_runs, 1);
        assert_eq!(e.profiles()[0].invocations, 2);
    }

    #[test]
    fn table_aggregates_by_name() {
        let mut s = Store::new();
        let a = s.new_var(0, 10);
        let b = s.new_var(0, 10);
        let c = s.new_var(0, 10);
        let mut e = Engine::new();
        e.post(Box::new(Leq { x: a, y: b }), &s);
        e.post(Box::new(Leq { x: b, y: c }), &s);
        e.fixpoint(&mut s).unwrap();
        let rows = e.profile_by_name();
        assert_eq!(rows.len(), 1, "same-name propagators merge");
        assert_eq!(rows[0].name, "leq");
        assert_eq!(rows[0].invocations, e.propagations);
        let table = e.profile_table();
        assert!(table.contains("leq"));
        assert!(table.contains("total"));
        assert!(table.contains("no_op_runs"));
        assert!(table.contains("wakes"));
    }
}

#[cfg(test)]
mod schedule_all_tests {
    use super::*;
    use crate::store::Store;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    struct Counter(Arc<AtomicU32>);
    impl Propagator for Counter {
        fn subscribe(&self, _: &mut Subscriptions) {}
        fn propagate(&mut self, _: &mut Store, _: &Wake<'_>) -> PropResult {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn name(&self) -> &'static str {
            "counter"
        }
    }

    #[test]
    fn schedule_all_requeues_every_propagator() {
        let mut s = Store::new();
        let _x = s.new_var(0, 1);
        let counts = [Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0))];
        let mut e = Engine::new();
        e.post(Box::new(Counter(Arc::clone(&counts[0]))), &s);
        e.post(Box::new(Counter(Arc::clone(&counts[1]))), &s);
        e.fixpoint(&mut s).unwrap(); // initial run: each once
        e.schedule_all();
        e.fixpoint(&mut s).unwrap(); // once more each
        assert_eq!(counts[0].load(Ordering::Relaxed), 2);
        assert_eq!(counts[1].load(Ordering::Relaxed), 2);
        assert_eq!(e.num_propagators(), 2);
    }
}
