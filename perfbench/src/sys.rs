//! Process resource counters and the host-speed probe.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live
/// or joined) in seconds, from `/proc/self/stat`. Its 10 ms tick is
/// small against a measured window of seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: Vec<f64> = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    match ticks[..] {
        [user, sys] => (user + sys) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size of the process so far, in MiB: `VmHWM` of
/// `/proc/self/status`. Not `ru_maxrss`, which keeps the high-water mark
/// of the image before `exec`: under `cargo run` that is cargo's own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Words in the probe's table: 1 MiB, as large as a server core's L2.
/// The table lives as long as the probe, so it adds a fixed 1 MiB to
/// `peak_rss_mb`.
const PROBE_WORDS: usize = 1 << 18;

/// `iters` rounds of the fixed probe loop: four independent xorshift
/// streams, each bumping a counter at a pseudo-random index of `table`.
/// The loop has high instruction-level parallelism and misses the cache,
/// so like the solver it slows down when another tenant shares the core
/// (SMT) or the last-level cache; a register-only loop does not see
/// either. Returns the wall time in ms.
fn probe_loop(table: &mut [u32], iters: u32) -> f64 {
    let t = Instant::now();
    let mask = table.len() - 1;
    let mut streams = [1u64, 2, 3, 4].map(|i| black_box(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i)));
    for _ in 0..black_box(iters) {
        for x in &mut streams {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let i = *x as usize & mask;
            table[i] = table[i].wrapping_add(1);
        }
    }
    black_box(&table);
    t.elapsed().as_secs_f64() * 1e3
}

/// Iterations of one [`HostProbe`] pass: 2–4 ms on the 2 GHz server
/// cores the benchmark was tuned on.
const PASS_ITERS: u32 = 300_000;

/// Probe pass time, in ms, of the reference host that [`HostProbe::scale`]
/// maps every run onto.
pub const REF_PASS_MS: f64 = 3.0;

/// The host-speed probe interleaved with a run: short passes of the
/// fixed loop taken between latency samples, so that the passes on
/// either side of a sample read the host's speed while it ran.
pub struct HostProbe {
    table: Vec<u32>,
    /// Wall time of every pass, in ms.
    pub passes: Vec<f64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// A probe with its table faulted in by one untimed pass.
    pub fn new() -> HostProbe {
        let mut table = vec![0u32; PROBE_WORDS];
        probe_loop(&mut table, PASS_ITERS);
        HostProbe {
            table,
            passes: Vec::new(),
        }
    }

    /// Time one pass and keep it; returns its wall time in ms.
    pub fn pass(&mut self) -> f64 {
        let ms = probe_loop(&mut self.table, PASS_ITERS);
        self.passes.push(ms);
        ms
    }

    /// Median pass time of `passes[range]`, the range cut to the
    /// passes taken, in ms.
    pub fn median(&self, range: Range<usize>) -> f64 {
        let hi = range.end.min(self.passes.len());
        crate::stats::median(&mut self.passes[range.start.min(hi)..hi].to_vec())
    }

    /// The factor that maps a time measured while `passes[range]` were
    /// taken onto the reference host: [`REF_PASS_MS`] over their median.
    /// Above 1 on a host faster than the reference, below 1 on a slower.
    pub fn scale(&self, range: Range<usize>) -> f64 {
        REF_PASS_MS / self.median(range)
    }
}

/// `host.calib_ms`: the median of five passes of 1.5 M rounds of the
/// probe loop, after one pass that faults the table in. Taken before and
/// after every run, so that a change in a run's figures can be told
/// apart from host drift.
pub fn calib_ms() -> f64 {
    let mut table = vec![0u32; PROBE_WORDS];
    probe_loop(&mut table, 1_500_000);
    let mut v: Vec<f64> = (0..5).map(|_| probe_loop(&mut table, 1_500_000)).collect();
    crate::stats::median(&mut v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_ranges_are_cut_to_the_passes_taken() {
        let mut p = HostProbe::new();
        p.passes = vec![2.0, 4.0, 6.0];
        assert_eq!(p.median(0..3), 4.0);
        // The last sample of a run may have no pass after it.
        assert_eq!(p.median(2..4), 6.0);
        assert_eq!(p.scale(0..2), REF_PASS_MS / 3.0);
    }
}
