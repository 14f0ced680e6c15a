//! Observability and scheduler bookkeeping must be (nearly) free.
//!
//! Tracing off vs [`NullSink`] on the end-to-end QRD solve: the null-sink
//! run must stay within noise (<2 %) of the untraced run — the emit path
//! behind a disabled handle is one branch, and behind a null handle one
//! virtual call per event. The untraced run includes the event engine's
//! full queue bookkeeping (event log draining, mask tests, tier queues,
//! tag delivery), so this budget also pins that bookkeeping.

use criterion::{criterion_group, criterion_main, Criterion};
use eit_arch::ArchSpec;
use eit_bench::prepared;
use eit_core::{schedule, SchedulerOptions};
use eit_cp::{NullSink, TraceHandle};
use std::time::Duration;

fn solve_qrd(trace: Option<TraceHandle>) -> i32 {
    let p = prepared("qrd");
    let r = schedule(
        &p.graph,
        &ArchSpec::eit(),
        &SchedulerOptions {
            timeout: Some(Duration::from_secs(60)),
            trace,
            ..Default::default()
        },
    );
    r.makespan.expect("QRD must schedule")
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(20);
    g.bench_function("solve_qrd/no_sink", |b| b.iter(|| solve_qrd(None)));
    g.bench_function("solve_qrd/null_sink", |b| {
        b.iter(|| solve_qrd(Some(TraceHandle::new(NullSink))))
    });
    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
