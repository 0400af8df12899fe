//! Order statistics over trial values and simulated-latency
//! histograms.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), because the driver that accepts or rejects
//! a later PR computes its spreads that way; `flexbench agree` and the
//! driver must agree on what a spread is.

use crate::surface::{impl_json_struct, LatencyHistogram};

/// Median, quartiles, extremes and count of one timed metric over the
/// trials of a run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    pub n: u64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl_json_struct!(Summary {
    n,
    median,
    q1,
    q3,
    min,
    max
});

impl Summary {
    /// Summarise `values` (any order). An empty slice gives all zeros.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&v);
        Summary {
            n: v.len() as u64,
            median,
            q1,
            q3,
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// A metric that is one exact value, not a sample (simulated time,
    /// a count, a peak).
    pub fn exact(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
        }
    }
}

/// `[q1, median, q3]` of an ascending slice, as
/// `statistics.quantiles(v, n=4)` gives them: position `i·(n+1)/4`
/// (1-based), interpolated linearly and clamped to the ends. With one
/// value all three are that value.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [sorted[0]; 3];
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The highest of p99.9, p99, p90 and p50 that still has at least ten
/// samples beyond it, with the percentile chosen. A tail percentile
/// with fewer samples behind it is one packet's luck, not a
/// distribution.
pub fn highest_supported_quantile(count: u64) -> f64 {
    // Ten samples beyond p99.9 take 10 000 samples, and so on down.
    for (q, needed) in [(0.999, 10_000), (0.99, 1_000), (0.9, 100)] {
        if count >= needed {
            return q;
        }
    }
    0.5
}

/// p50, the tail percentile [`highest_supported_quantile`] allows, and
/// the sample count of a simulated-latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimLatency {
    pub p50_ns: u64,
    pub tail_ns: u64,
    pub tail_quantile: f64,
    pub samples: u64,
}

impl_json_struct!(SimLatency {
    p50_ns,
    tail_ns,
    tail_quantile,
    samples
});

impl SimLatency {
    pub fn of(hist: &LatencyHistogram) -> SimLatency {
        let q = highest_supported_quantile(hist.count());
        SimLatency {
            p50_ns: hist.p50(),
            tail_ns: hist.value_at_quantile(q),
            tail_quantile: q,
            samples: hist.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1,2,3,4,5,6,7,8,9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.5, 5.0, 7.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: Python
        // clamps the index, not the value, so two points extrapolate.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn summary_orders_its_input_and_reports_spread() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(Summary::of(&[]), Summary::default());
        assert_eq!(Summary::exact(7.0).q3, 7.0);
        assert_eq!(median(&[9.0, 7.0]), 8.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(9_999), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(99), 0.5);
        let mut h = LatencyHistogram::new();
        for v in 1..=20_000u64 {
            h.record(v);
        }
        let s = SimLatency::of(&h);
        assert_eq!(s.tail_quantile, 0.999);
        assert_eq!(s.samples, 20_000);
        assert!(s.p50_ns.abs_diff(10_000) <= 100);
        assert!(s.tail_ns.abs_diff(19_980) <= 200);
    }
}
