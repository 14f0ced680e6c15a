//! Cooperative cancellation for parallel solver harnesses.
//!
//! A [`CancelToken`] is a cheap cloneable flag shared between a running
//! search and the coordinator that may decide its result is no longer
//! needed (a speculative II probe overtaken by a lower feasible II, the
//! losing backend of a race, a service request whose client deadline
//! expired, …). Cancellation is *polled*: the search loop checks the
//! token at every node (with the deadline budget) and
//! the propagation engine checks it periodically inside
//! [`crate::engine::Engine::fixpoint`], so even a probe stuck in a long
//! fixpoint stops within a bounded number of propagator runs.
//!
//! Besides the explicit [`CancelToken::cancel`] flag a token can carry a
//! **wall-clock deadline** ([`CancelToken::with_deadline`]): once the
//! deadline passes, [`CancelToken::is_cancelled`] reports `true` without
//! anyone calling `cancel()`. Because cancellation is polled anyway,
//! a per-request time budget needs no dedicated watchdog thread per
//! solve — the deadline rides along wherever the token is already
//! checked. [`CancelToken::child`] derives a token that is independently
//! cancellable but also trips when its parent (or the parent's deadline)
//! does, which is how a request-level budget reaches every speculative
//! probe of a modulo sweep without collapsing their individual
//! cancellation.
//!
//! A cancelled run is reported as *aborted*, exactly like a timeout:
//! `completed` stays `false`, an exhausted-looking tree is **not**
//! interpreted as an infeasibility proof, and the trail is unwound to the
//! root as usual — cancellation never poisons the store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The instant `budget` after `start`, or `None` — no deadline — when
/// that lies beyond what [`Instant`] can represent. Every budget-to-
/// deadline conversion goes through here, so a huge budget (say
/// `Duration::MAX`) means "unbounded" instead of an overflow panic.
pub fn deadline_after(start: Instant, budget: Duration) -> Option<Instant> {
    start.checked_add(budget)
}

/// Shared cancellation flag, optionally deadline-bearing. Cloning is
/// cheap (an [`Arc`] bump per link in the parent chain); all clones
/// observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
    parent: Option<Box<CancelToken>>,
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that trips itself once `deadline` passes, with no
    /// watchdog thread: the clock is read inside [`Self::is_cancelled`],
    /// which the search already polls at every node.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::default(),
            deadline: Some(deadline),
            parent: None,
        }
    }

    /// The wall-clock deadline this token trips at, if any (the
    /// tightest along the parent chain).
    pub fn deadline(&self) -> Option<Instant> {
        match (
            self.deadline,
            self.parent.as_ref().and_then(|p| p.deadline()),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Derive a child token: cancellable on its own without affecting
    /// siblings, but also tripped whenever this token is cancelled or
    /// its deadline passes.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::default(),
            deadline: None,
            parent: Some(Box::new(self.clone())),
        }
    }

    /// Request cancellation. Idempotent; never blocks. Does not affect
    /// the parent (if any) — only this token and its children.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_trips_without_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.deadline().is_some());
    }

    #[test]
    fn unrepresentable_budget_means_no_deadline() {
        let now = Instant::now();
        assert_eq!(deadline_after(now, Duration::MAX), None);
        assert!(deadline_after(now, Duration::from_secs(60)).is_some());
    }

    #[test]
    fn child_sees_parent_cancellation_but_not_vice_versa() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!b.is_cancelled());
        assert!(!parent.is_cancelled());
        parent.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn child_inherits_parent_deadline() {
        let parent = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let c = parent.child();
        assert!(c.is_cancelled());
        assert!(c.deadline().is_some());
    }
}
