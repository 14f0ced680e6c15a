//! Aggregated server-side metrics in the `eit-run-metrics/1` schema.
//!
//! Where the table binaries emit one document per solve, the daemon
//! aggregates across every request it served: outcome counters, queue
//! behavior (depth high-water mark, rejections), deadline misses,
//! contained panics, cache effectiveness, and latency quantiles over
//! both queue and solve time. The document is returned by the `stats`
//! op and optionally written to `--metrics FILE` at shutdown, so CI can
//! assert on cache hit rates with the same tooling it already uses for
//! one-shot runs.

use crate::cache::CacheStats;
use eit_core::json::Json;
use std::sync::{Mutex, MutexGuard};

/// Matches `eit_bench::metrics::SCHEMA` (serve can't depend on bench —
/// the dependency points the other way).
pub const SCHEMA: &str = "eit-run-metrics/1";

#[derive(Debug, Default)]
struct Counters {
    requests: u64,
    ok: u64,
    errors: u64,
    bad_requests: u64,
    rejected_overload: u64,
    deadline_misses: u64,
    panics_contained: u64,
    queue_depth: u64,
    queue_depth_max: u64,
    queue_us: Vec<u64>,
    solve_us: Vec<u64>,
}

/// Thread-safe aggregation shared by the acceptor, readers, and
/// workers.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    inner: Mutex<Counters>,
}

/// A request's terminal classification, for the outcome counters.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    Ok,
    BadRequest,
    Overloaded,
    Deadline,
    Panic,
    OtherError,
}

impl ServerMetrics {
    /// Take the counters even if a thread panicked while holding them:
    /// a contained panic must not take the `stats` op down with it.
    fn counters(&self) -> MutexGuard<'_, Counters> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn record_outcome(&self, outcome: Outcome) {
        let mut c = self.counters();
        c.requests += 1;
        match outcome {
            Outcome::Ok => c.ok += 1,
            Outcome::BadRequest => {
                c.errors += 1;
                c.bad_requests += 1;
            }
            Outcome::Overloaded => {
                c.errors += 1;
                c.rejected_overload += 1;
            }
            Outcome::Deadline => c.deadline_misses += 1,
            Outcome::Panic => {
                c.errors += 1;
                c.panics_contained += 1;
            }
            Outcome::OtherError => c.errors += 1,
        }
    }

    /// A compile request entered the admission queue.
    pub fn enqueued(&self) {
        let mut c = self.counters();
        c.queue_depth += 1;
        c.queue_depth_max = c.queue_depth_max.max(c.queue_depth);
    }

    /// A worker picked a compile request up after `queue_us` in line.
    pub fn dequeued(&self, queue_us: u64) {
        let mut c = self.counters();
        c.queue_depth = c.queue_depth.saturating_sub(1);
        c.queue_us.push(queue_us);
    }

    /// A cold solve finished (hits record no solve time).
    pub fn solved(&self, solve_us: u64) {
        self.counters().solve_us.push(solve_us);
    }

    /// Render the aggregated `eit-run-metrics/1` document. `cache` and
    /// `entries` come from the [`ScheduleCache`](crate::cache) at call
    /// time.
    pub fn document(&self, cache: CacheStats, entries: usize) -> Json {
        let c = self.counters();
        let lookups = cache.hits + cache.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            cache.hits as f64 / lookups as f64
        };
        let serve = Json::Obj(vec![
            ("requests".into(), Json::int(c.requests)),
            ("ok".into(), Json::int(c.ok)),
            ("errors".into(), Json::int(c.errors)),
            ("bad_requests".into(), Json::int(c.bad_requests)),
            ("rejected_overload".into(), Json::int(c.rejected_overload)),
            ("deadline_misses".into(), Json::int(c.deadline_misses)),
            ("panics_contained".into(), Json::int(c.panics_contained)),
            ("queue_depth".into(), Json::int(c.queue_depth)),
            ("queue_depth_max".into(), Json::int(c.queue_depth_max)),
            (
                "queue_us_p50".into(),
                Json::int(percentile(&c.queue_us, 50)),
            ),
            (
                "queue_us_p99".into(),
                Json::int(percentile(&c.queue_us, 99)),
            ),
            (
                "solve_us_p50".into(),
                Json::int(percentile(&c.solve_us, 50)),
            ),
            (
                "solve_us_p99".into(),
                Json::int(percentile(&c.solve_us, 99)),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::int(cache.hits)),
                    ("misses".into(), Json::int(cache.misses)),
                    ("inserts".into(), Json::int(cache.inserts)),
                    ("evictions".into(), Json::int(cache.evictions)),
                    ("waits".into(), Json::int(cache.waits)),
                    ("entries".into(), Json::int(entries as u64)),
                    ("hit_rate".into(), Json::Num(hit_rate)),
                ]),
            ),
        ]);
        Json::Obj(vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("tool".into(), Json::str("eit-serve")),
            ("kernel".into(), Json::str("*")),
            ("serve".into(), serve),
        ])
    }
}

/// Nearest-rank percentile; 0 on an empty sample.
fn percentile(samples: &[u64], p: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50), 50);
        assert_eq!(percentile(&xs, 99), 99);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn poisoned_lock_keeps_counting() {
        let m = ServerMetrics::default();
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = m.inner.lock().unwrap();
                panic!("injected fault inside the metrics' critical section");
            })
            .join()
        });
        assert!(panicked.is_err());
        assert!(m.inner.is_poisoned());
        m.record_outcome(Outcome::Ok);
        m.enqueued();
        m.dequeued(10);
        m.solved(20);
        let doc = m.document(CacheStats::default(), 0);
        let serve = doc.get("serve").unwrap();
        assert_eq!(serve.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(serve.get("queue_depth_max").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn document_aggregates_outcomes_and_cache() {
        let m = ServerMetrics::default();
        m.record_outcome(Outcome::Ok);
        m.record_outcome(Outcome::Deadline);
        m.record_outcome(Outcome::Panic);
        m.enqueued();
        m.enqueued();
        m.dequeued(100);
        m.solved(5000);
        let doc = m.document(
            CacheStats {
                hits: 3,
                misses: 1,
                inserts: 1,
                evictions: 0,
                waits: 2,
            },
            1,
        );
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("eit-serve"));
        let serve = doc.get("serve").unwrap();
        assert_eq!(serve.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(serve.get("deadline_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(
            serve.get("panics_contained").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(serve.get("queue_depth").and_then(Json::as_u64), Some(1));
        assert_eq!(serve.get("queue_depth_max").and_then(Json::as_u64), Some(2));
        let cache = serve.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(3));
        assert_eq!(cache.get("hit_rate").and_then(Json::as_f64), Some(0.75));
        // The whole document survives a compact round-trip.
        let reparsed = Json::parse(&doc.render_compact()).unwrap();
        assert_eq!(reparsed.render_compact(), doc.render_compact());
    }
}
