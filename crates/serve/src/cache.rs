//! Content-addressed schedule cache with single-flight compilation.
//!
//! Entries are keyed on [`SolveKey`] — `(ir_hash, arch_hash,
//! config_string)` — so two requests hit the same entry exactly when
//! the solver would have seen the same input. Config strings
//! deliberately exclude wall-clock budgets, `jobs`, and cancellation
//! state: those decide *whether* a solve finishes in time, never *what*
//! it produces, so caching across them is sound (see DESIGN.md §5i).
//!
//! Concurrency contract (*single-flight*): the first requester of a
//! missing key becomes the **leader** and gets a [`MissGuard`]; everyone
//! else asking for that key blocks on a condvar until the leader either
//! [`MissGuard::fulfill`]s (waiters wake up as cache hits) or drops the
//! guard without fulfilling — a panic or a missed deadline — in which
//! case one waiter is promoted to leader and compiles. A hot key is
//! therefore compiled exactly once no matter how many clients race on
//! it.
//!
//! Eviction is LRU over *Ready* entries (in-flight slots are never
//! evicted — someone is blocked on them), driven by a monotonic tick
//! rather than wall-clock time so behavior is deterministic under test.

use eit_core::SolveKey;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Counters exposed through the `stats` op and the aggregated metrics
/// document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a Ready entry (including promoted waiters).
    pub hits: u64,
    /// Lookups that made the caller the compile leader.
    pub misses: u64,
    /// Entries inserted via [`MissGuard::fulfill`].
    pub inserts: u64,
    /// Ready entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Lookups that blocked behind an in-flight leader (whether they
    /// ended as hits or were promoted).
    pub waits: u64,
}

enum Slot<T> {
    /// A leader is compiling this key right now.
    InFlight,
    Ready {
        value: Arc<T>,
        last_used: u64,
    },
}

struct Inner<T> {
    map: HashMap<SolveKey, Slot<T>>,
    tick: u64,
    stats: CacheStats,
}

/// See the module docs for the single-flight contract.
pub struct ScheduleCache<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    cv: Condvar,
}

/// Result of a lookup: either the value, or the obligation to produce
/// it.
pub enum Lease<'a, T> {
    Hit(Arc<T>),
    Miss(MissGuard<'a, T>),
}

/// Held by the compile leader for a key. Dropping it without calling
/// [`fulfill`](MissGuard::fulfill) abandons the slot and promotes a
/// waiter, so a panicking or cancelled leader never wedges the key.
pub struct MissGuard<'a, T> {
    cache: &'a ScheduleCache<T>,
    key: SolveKey,
    fulfilled: bool,
}

impl<T> ScheduleCache<T> {
    pub fn new(cap: usize) -> ScheduleCache<T> {
        ScheduleCache {
            // cap 0 would make every insert evict itself forever.
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Look up `key`; block while another thread is compiling it.
    pub fn get_or_lease(&self, key: &SolveKey) -> Lease<'_, T> {
        let mut inner = self.lock();
        let mut waited = false;
        loop {
            match inner.map.get(key) {
                Some(Slot::Ready { .. }) => {
                    inner.tick += 1;
                    let tick = inner.tick;
                    let Some(Slot::Ready { value, last_used }) = inner.map.get_mut(key) else {
                        unreachable!("slot vanished under the lock");
                    };
                    *last_used = tick;
                    let v = Arc::clone(value);
                    inner.stats.hits += 1;
                    return Lease::Hit(v);
                }
                Some(Slot::InFlight) => {
                    if !waited {
                        waited = true;
                        inner.stats.waits += 1;
                    }
                    inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    inner.map.insert(key.clone(), Slot::InFlight);
                    inner.stats.misses += 1;
                    return Lease::Miss(MissGuard {
                        cache: self,
                        key: key.clone(),
                        fulfilled: false,
                    });
                }
            }
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Number of Ready entries currently resident.
    pub fn entries(&self) -> usize {
        self.lock()
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Take the cache lock even if a thread panicked while holding it:
    /// every critical section leaves `Inner` consistent between
    /// statements, so one contained panic must not wedge every later
    /// request.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> MissGuard<'_, T> {
    /// Publish the compiled value, evicting least-recently-used Ready
    /// entries if the cache is over capacity, and wake all waiters.
    pub fn fulfill(mut self, value: T) -> Arc<T> {
        let value = Arc::new(value);
        let mut inner = self.cache.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            self.key.clone(),
            Slot::Ready {
                value: Arc::clone(&value),
                last_used: tick,
            },
        );
        inner.stats.inserts += 1;
        // Evict down to capacity, oldest Ready entry first. In-flight
        // slots don't count toward nor yield to capacity.
        loop {
            let ready = inner
                .map
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= self.cache.cap {
                break;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if k != &self.key => Some((*last_used, k)),
                    _ => None,
                })
                .min_by_key(|(t, _)| *t)
                .map(|(_, k)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    inner.stats.evictions += 1;
                }
                None => break, // only the fresh entry is Ready
            }
        }
        self.fulfilled = true;
        drop(inner);
        self.cache.cv.notify_all();
        value
    }
}

impl<T> Drop for MissGuard<'_, T> {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Abandoned (leader panicked or bailed): clear the in-flight
        // slot and wake waiters so one of them becomes the new leader.
        let mut inner = self.cache.lock();
        if matches!(inner.map.get(&self.key), Some(Slot::InFlight)) {
            inner.map.remove(&self.key);
        }
        drop(inner);
        self.cache.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> SolveKey {
        SolveKey {
            ir_hash: n,
            arch_hash: 0xa,
            config: "mode=schedule;test".into(),
        }
    }

    #[test]
    fn miss_then_hit_returns_the_same_arc() {
        let cache: ScheduleCache<String> = ScheduleCache::new(8);
        let v = match cache.get_or_lease(&key(1)) {
            Lease::Miss(g) => g.fulfill("schedule".into()),
            Lease::Hit(_) => panic!("cold cache hit"),
        };
        match cache.get_or_lease(&key(1)) {
            Lease::Hit(h) => assert!(Arc::ptr_eq(&h, &v)),
            Lease::Miss(_) => panic!("warm cache miss"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn abandoned_lease_promotes_the_next_caller_to_leader() {
        let cache: ScheduleCache<String> = ScheduleCache::new(8);
        match cache.get_or_lease(&key(1)) {
            Lease::Miss(g) => drop(g), // leader "panics"
            Lease::Hit(_) => panic!("cold cache hit"),
        }
        assert!(matches!(cache.get_or_lease(&key(1)), Lease::Miss(_)));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache: ScheduleCache<u64> = ScheduleCache::new(2);
        for n in 0..2 {
            match cache.get_or_lease(&key(n)) {
                Lease::Miss(g) => {
                    g.fulfill(n);
                }
                Lease::Hit(_) => panic!("cold hit"),
            }
        }
        // Touch key(0) so key(1) is the LRU victim.
        assert!(matches!(cache.get_or_lease(&key(0)), Lease::Hit(_)));
        match cache.get_or_lease(&key(2)) {
            Lease::Miss(g) => {
                g.fulfill(2);
            }
            Lease::Hit(_) => panic!("cold hit"),
        }
        assert_eq!(cache.entries(), 2);
        assert!(matches!(cache.get_or_lease(&key(0)), Lease::Hit(_)));
        assert!(matches!(cache.get_or_lease(&key(1)), Lease::Miss(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn poisoned_lock_keeps_serving() {
        let cache: ScheduleCache<u64> = ScheduleCache::new(8);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.inner.lock().unwrap();
                panic!("injected fault inside the cache's critical section");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        match cache.get_or_lease(&key(1)) {
            Lease::Miss(g) => {
                g.fulfill(1);
            }
            Lease::Hit(_) => panic!("cold hit"),
        }
        assert!(matches!(cache.get_or_lease(&key(1)), Lease::Hit(_)));
        assert_eq!(cache.stats().inserts, 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let cache: ScheduleCache<u64> = ScheduleCache::new(0);
        match cache.get_or_lease(&key(1)) {
            Lease::Miss(g) => {
                g.fulfill(1);
            }
            Lease::Hit(_) => panic!("cold hit"),
        }
        assert_eq!(cache.entries(), 1);
        assert!(matches!(cache.get_or_lease(&key(1)), Lease::Hit(_)));
    }
}
