//! Medians, quartiles and tail percentiles.

/// Median of unsorted values (mean of the two middle ones when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spread printed here is the one a reader would recompute from the
/// numbers. A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread every host-clock number is printed with.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// A percentile by nearest rank, with the number of samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub pct: f64,
    pub value: u64,
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], pct: f64) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of nothing");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    // The epsilon keeps 99.9 % of 24 000 at rank 23 976, not one above it.
    let rank = ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    Percentile {
        pct,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The tail of a latency sample: the highest of p99.9, p99, p95 and p90
/// that still has at least [`MIN_BEYOND`] samples beyond it, so the number
/// is not set by one or two outliers. Below 100 samples no tail qualifies
/// and the median is returned (with its `pct` saying so).
pub fn tail(sorted: &[u64]) -> Percentile {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .map(|p| percentile(sorted, p))
        .find(|p| p.beyond >= MIN_BEYOND)
        .unwrap_or_else(|| percentile(sorted, 50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(
            percentile(&v, 99.0),
            Percentile {
                pct: 99.0,
                value: 990,
                beyond: 10
            }
        );
        assert_eq!(percentile(&v, 50.0).value, 500);
        assert_eq!(percentile(&v, 100.0).beyond, 0);
        assert_eq!(percentile(&[42], 99.0).value, 42);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 24 000 round trips: p99.9 has 24 beyond.
        let big: Vec<u64> = (0..24_000).collect();
        assert_eq!(tail(&big).pct, 99.9);
        assert_eq!(tail(&big).beyond, 24);
        // 2048 messages: p99.9 has 2 beyond, p99 has 20.
        let m: Vec<u64> = (0..2048).collect();
        assert_eq!(tail(&m).pct, 99.0);
        assert_eq!(tail(&m).beyond, 20);
        // 1000 samples: exactly 10 beyond p99 still qualifies.
        let k: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&k).pct, 99.0);
        // 999 samples: p99 has 9 beyond, so p95 is reported.
        let k: Vec<u64> = (0..999).collect();
        assert_eq!(tail(&k).pct, 95.0);
        // 600 connects: p99 has 6 beyond, p95 has 30.
        let c: Vec<u64> = (0..600).collect();
        assert_eq!(tail(&c).pct, 95.0);
        assert_eq!(tail(&c).beyond, 30);
        // 150 samples: p95 has 7 beyond, p90 has 15.
        let s: Vec<u64> = (0..150).collect();
        assert_eq!(tail(&s).pct, 90.0);
        // Too few for any tail: the median, labelled as such.
        let few: Vec<u64> = (0..50).collect();
        assert_eq!(tail(&few).pct, 50.0);
    }
}
