//! SLO evaluation over windowed telemetry.
//!
//! An [`SloSpec`] states what "healthy" means — a p99.9 forwarding
//! latency bound, a ceiling on the unexplained-drop rate, a floor on
//! the microflow-cache hit rate — and [`evaluate`] checks every live
//! window of a [`WindowedSeries`] against it, producing an
//! [`SloReport`] that names each breach window and the value that
//! crossed its bound. Windowed evaluation is the point: a lifetime
//! p99.9 can look fine while one bad millisecond blows the budget.

use crate::timeseries::WindowedSeries;

/// What the dataplane must achieve, per window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Per-window p99.9 forwarding latency must stay at or below this
    /// many nanoseconds.
    pub p999_latency_ns: u64,
    /// Per-window unexplained-drop rate (infrastructure drops over
    /// packets observed) must stay at or below this fraction.
    pub max_unexplained_drop_rate: f64,
    /// Per-window microflow-cache hit rate must stay at or above this
    /// fraction (windows with no lookups are exempt).
    pub min_cache_hit_rate: f64,
}

impl SloSpec {
    /// A deliberately generous spec a healthy module passes easily:
    /// p99.9 ≤ 100 µs, ≤ 1 % unexplained drops, ≥ 10 % cache hits.
    pub fn generous() -> SloSpec {
        SloSpec {
            p999_latency_ns: 100_000,
            max_unexplained_drop_rate: 0.01,
            min_cache_hit_rate: 0.10,
        }
    }
}

/// One window that violated one metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// Start of the breaching window, nanoseconds.
    pub window_start_ns: u64,
    /// Which metric breached: "p999_latency_ns",
    /// "unexplained_drop_rate" or "cache_hit_rate".
    pub metric: String,
    /// The observed value.
    pub value: f64,
    /// The bound it violated.
    pub bound: f64,
}

/// The outcome of evaluating a spec over a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// True when no window breached any metric.
    pub healthy: bool,
    /// Non-empty windows examined.
    pub windows_evaluated: u64,
    /// Every breach found, in window order.
    pub breaches: Vec<SloBreach>,
}

crate::impl_json_struct!(SloSpec {
    p999_latency_ns,
    max_unexplained_drop_rate,
    min_cache_hit_rate
});
crate::impl_json_struct!(SloBreach {
    window_start_ns,
    metric,
    value,
    bound
});
crate::impl_json_struct!(SloReport {
    healthy,
    windows_evaluated,
    breaches
});

/// Check every non-empty live window of `series` against `spec`.
///
/// Latency is only checked for windows that forwarded packets, and the
/// cache floor only for windows that saw lookups — an idle window is
/// healthy, not vacuously in breach.
pub fn evaluate(spec: &SloSpec, series: &WindowedSeries) -> SloReport {
    let mut breaches = Vec::new();
    let mut evaluated = 0u64;
    for w in series.windows() {
        if w.is_empty() {
            continue;
        }
        evaluated += 1;
        if !w.latency.is_empty() {
            let p999 = w.latency.p999();
            if p999 > spec.p999_latency_ns {
                breaches.push(SloBreach {
                    window_start_ns: w.start_ns,
                    metric: "p999_latency_ns".into(),
                    value: p999 as f64,
                    bound: spec.p999_latency_ns as f64,
                });
            }
        }
        let drop_rate = w.unexplained_drop_rate();
        if drop_rate > spec.max_unexplained_drop_rate {
            breaches.push(SloBreach {
                window_start_ns: w.start_ns,
                metric: "unexplained_drop_rate".into(),
                value: drop_rate,
                bound: spec.max_unexplained_drop_rate,
            });
        }
        if let Some(hit_rate) = w.cache_hit_rate() {
            if hit_rate < spec.min_cache_hit_rate {
                breaches.push(SloBreach {
                    window_start_ns: w.start_ns,
                    metric: "cache_hit_rate".into(),
                    value: hit_rate,
                    bound: spec.min_cache_hit_rate,
                });
            }
        }
    }
    SloReport {
        healthy: breaches.is_empty(),
        windows_evaluated: evaluated,
        breaches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson, Value};

    fn spec() -> SloSpec {
        SloSpec {
            p999_latency_ns: 1_000,
            max_unexplained_drop_rate: 0.1,
            min_cache_hit_rate: 0.5,
        }
    }

    #[test]
    fn healthy_series_reports_healthy() {
        let mut s = WindowedSeries::new(1_000, 8);
        for t in 0..100u64 {
            s.record_forwarded(t * 30, 500.0);
        }
        s.record_cache(0, 90, 10, 0, 90);
        let report = evaluate(&spec(), &s);
        assert!(report.healthy);
        assert!(report.breaches.is_empty());
        assert_eq!(report.windows_evaluated, 3);
    }

    #[test]
    fn latency_breach_names_the_window() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(100, 500.0);
        s.record_forwarded(2_500, 50_000.0); // the bad millisecond
        let report = evaluate(&spec(), &s);
        assert!(!report.healthy);
        assert_eq!(report.breaches.len(), 1);
        let b = &report.breaches[0];
        assert_eq!(b.window_start_ns, 2_000);
        assert_eq!(b.metric, "p999_latency_ns");
        assert!(b.value >= 50_000.0 * 0.99);
        assert_eq!(b.bound, 1_000.0);
    }

    #[test]
    fn drop_rate_breach_detected() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(10, 100.0);
        s.record_drop(20, true);
        let report = evaluate(&spec(), &s);
        assert!(!report.healthy);
        assert_eq!(report.breaches[0].metric, "unexplained_drop_rate");
        assert!((report.breaches[0].value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn app_drops_are_explained_and_pass() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(10, 100.0);
        for _ in 0..9 {
            s.record_drop(20, false);
        }
        assert!(evaluate(&spec(), &s).healthy);
    }

    #[test]
    fn cache_floor_exempts_windows_without_lookups() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(10, 100.0); // no lookups here
        s.record_cache(2_500, 1, 9, 0, 10); // 10% hit rate, floor is 50%
        let report = evaluate(&spec(), &s);
        assert_eq!(report.breaches.len(), 1);
        assert_eq!(report.breaches[0].metric, "cache_hit_rate");
        assert_eq!(report.breaches[0].window_start_ns, 2_000);
    }

    #[test]
    fn one_window_can_breach_multiple_metrics() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(10, 50_000.0);
        s.record_drop(20, true);
        s.record_cache(30, 0, 10, 0, 10);
        let report = evaluate(&spec(), &s);
        assert_eq!(report.breaches.len(), 3);
        assert_eq!(report.windows_evaluated, 1);
    }

    #[test]
    fn empty_series_is_healthy() {
        let report = evaluate(&spec(), &WindowedSeries::default());
        assert!(report.healthy);
        assert_eq!(report.windows_evaluated, 0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded(10, 50_000.0);
        s.record_drop(20, true);
        let report = evaluate(&spec(), &s);
        let json = report.to_json().to_string();
        let back = SloReport::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn generous_spec_is_generous() {
        let g = SloSpec::generous();
        let mut s = WindowedSeries::new(1_000_000, 8);
        for t in 0..1_000u64 {
            s.record_forwarded(t * 900, 2_000.0);
        }
        s.record_cache(0, 900, 100, 0, 100);
        assert!(evaluate(&g, &s).healthy);
        let json = g.to_json().to_string();
        assert_eq!(
            SloSpec::from_json(&Value::parse(&json).unwrap()).unwrap(),
            g
        );
    }
}
