//! Order statistics over latency samples.
//!
//! A failed op's sample is `f64::INFINITY`, so it sorts beyond every
//! measured sample: it counts as missing the tail.

/// Median of `v` (sorts `v` in place; the mean of the two middle values
/// for an even count). `NaN` on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the method of Python's
/// `statistics.quantiles(data, n=4)` (the default, "exclusive"), so the
/// steadiness report reads the same spread as a check written in Python.
pub fn quartiles(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The tail the benchmark reports: a percentile with at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample at `percentile` (nearest rank; ms, infinite when it is
    /// a failed op).
    pub value: f64,
    pub percentile: f64,
    /// Samples beyond `value`.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Tail of `v` (sorts `v` in place) at the highest percentile of
/// [`LADDER`] that is at most `want` and still has `TAIL_BEYOND` samples
/// beyond it. Each workload fixes `want` so that its runs reach it with
/// room to spare; the ladder only steps down on a host so slow that a
/// run falls short. With no rung left, the maximum is reported.
pub fn tail(v: &mut [f64], want: f64) -> Tail {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in LADDER.into_iter().filter(|&p| p <= want) {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        if rank <= n && n - rank >= TAIL_BEYOND {
            return Tail {
                value: v[rank - 1],
                percentile: p,
                beyond: n - rank,
                samples: n,
            };
        }
    }
    Tail {
        value: v.last().copied().unwrap_or(f64::NAN),
        percentile: 100.0,
        beyond: 0,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn tail_steps_down_until_ten_samples_lie_beyond() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut v, 99.0);
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
        let t = tail(&mut v[..999], 99.0);
        assert_eq!((t.value, t.percentile, t.beyond), (950.0, 95.0, 49));
        let t = tail(&mut v, 95.0);
        assert_eq!((t.value, t.beyond), (950.0, 50));
        let mut few = [2.0, 1.0];
        assert_eq!(tail(&mut few, 99.9).value, 2.0);
    }

    #[test]
    fn failed_samples_sort_beyond_the_tail() {
        let mut v: Vec<f64> = (1..=37).map(f64::from).collect();
        v.extend([f64::INFINITY; 3]);
        assert_eq!(tail(&mut v, 75.0).value, 30.0);
        assert_eq!(median(&mut [1.0, f64::INFINITY, 2.0]), 2.0);
    }
}
