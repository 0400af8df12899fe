//! Property tests for the observability primitives: the histogram's
//! relative-error bound, merge-equals-concatenation, trace-ring loss
//! accounting, and windowed-series conservation under a bounded ring.
//!
//! Each property runs [`CASES`] seeded cases under plain `cargo test`;
//! a failure names the case's seed, which reproduces it alone.

use flexsfp_obs::{
    DataplaneEvent, EventKind, FlightRecord, FlightVerdict, FromJson, LatencyHistogram, Sample,
    ToJson, TraceRing, Value, WindowedSeries,
};
use flexsfp_traffic::rng::Xoshiro256;

const CASES: u64 = 256;

/// Run `property` over [`CASES`] generators seeded `seed`, `seed + 1`, ….
fn for_each_case(seed: u64, mut property: impl FnMut(&mut Xoshiro256, u64)) {
    for case in seed..seed + CASES {
        property(&mut Xoshiro256::seed_from_u64(case), case);
    }
}

/// Between `lo` and `hi - 1` samples drawn by `draw`.
fn samples(
    rng: &mut Xoshiro256,
    lo: usize,
    hi: usize,
    mut draw: impl FnMut(&mut Xoshiro256) -> u64,
) -> Vec<u64> {
    (0..rng.range_usize(lo, hi)).map(|_| draw(rng)).collect()
}

/// Any `u64`, with the magnitude itself drawn uniformly so small and
/// huge values are equally likely.
fn any_u64(rng: &mut Xoshiro256) -> u64 {
    rng.next_u64() >> rng.range_u64(0, 64)
}

fn histogram_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// The exact sample quantile using the same rank rule as the
/// histogram: the `ceil(q·n)`-th smallest sample, clamped to `[1, n]`.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let target = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(target - 1) as usize]
}

/// `h`'s estimate of quantile `q` is within 1 % of the exact sample
/// quantile, with a ±1 floor for the integer rounding of tiny values.
fn assert_quantile_close(h: &LatencyHistogram, sorted: &[u64], q: f64, case: u64) {
    let exact = exact_quantile(sorted, q);
    let approx = h.value_at_quantile(q);
    let err = approx.abs_diff(exact) as f64;
    assert!(
        err <= (exact as f64 * 0.01).max(1.0),
        "case {case:#x}: q={q} exact={exact} approx={approx} err={err}"
    );
}

/// For arbitrary u64 samples, every quantile estimate is within 1 %
/// relative error of the exact sample quantile computed with the same
/// rank rule.
#[test]
fn quantile_relative_error_bound() {
    for_each_case(0x9e0, |rng, case| {
        let mut xs = samples(rng, 1, 500, any_u64);
        let h = histogram_of(&xs);
        xs.sort_unstable();
        for _ in 0..rng.range_usize(1, 8) {
            // The top of the range is the closed end: q = 1 is the maximum.
            let q = if rng.chance(0.1) { 1.0 } else { rng.next_f64() };
            assert_quantile_close(&h, &xs, q, case);
        }
    });
}

/// merge(a, b) is bit-identical to one histogram fed both streams, so
/// its quantiles are those of the concatenated samples.
#[test]
fn merge_quantiles_equal_concat() {
    for_each_case(0x3e96e, |rng, case| {
        let xs = samples(rng, 0, 300, |r| r.range_u64(0, 1_000_000));
        let ys = samples(rng, 0, 300, |r| r.range_u64(0, 1_000_000));
        let mut all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        let mut merged = histogram_of(&xs);
        merged.merge(&histogram_of(&ys));
        assert_eq!(merged, histogram_of(&all), "case {case:#x}");
        if !all.is_empty() {
            all.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                assert_quantile_close(&merged, &all, q, case);
            }
        }
    });
}

/// Exact min/max/count survive any merge order.
#[test]
fn merge_preserves_exact_extrema() {
    for_each_case(0xe87, |rng, case| {
        let xs = samples(rng, 1, 100, any_u64);
        let ys = samples(rng, 1, 100, any_u64);
        let mut a = histogram_of(&xs);
        a.merge(&histogram_of(&ys));
        let all = || xs.iter().chain(&ys).copied();
        assert_eq!(Some(a.min()), all().min(), "case {case:#x}");
        assert_eq!(Some(a.max()), all().max(), "case {case:#x}");
        assert_eq!(a.count(), (xs.len() + ys.len()) as u64, "case {case:#x}");
    });
}

/// A trace ring never loses items silently: across any sequence of
/// pushes and drains, pushed == drained + overwritten + buffered, and
/// what is buffered is the newest items in order.
fn ring_conserves<T: PartialEq + std::fmt::Debug>(seed: u64, make: impl Fn(u64) -> T) {
    for_each_case(seed, |rng, case| {
        let capacity = rng.range_usize(1, 32);
        let mut ring = TraceRing::new(capacity);
        let (mut pushed, mut collected) = (0u64, 0u64);
        for _ in 0..rng.range_usize(0, 400) {
            if rng.chance(0.5) {
                ring.push(make(pushed));
                pushed += 1;
            } else {
                let out = ring.drain();
                assert!(out.len() <= capacity, "case {case:#x}");
                collected += out.len() as u64;
                let newest: Vec<T> = (pushed - out.len() as u64..pushed).map(&make).collect();
                assert_eq!(out, newest, "case {case:#x}");
            }
        }
        assert_eq!(ring.drained(), collected, "case {case:#x}");
        let buffered = ring.drain().len() as u64;
        assert!(buffered <= capacity as u64, "case {case:#x}");
        assert_eq!(
            pushed,
            ring.drained() + ring.overwritten(),
            "case {case:#x}"
        );
    });
}

#[test]
fn event_ring_conserves_events() {
    ring_conserves(0xe4e27, |t| DataplaneEvent {
        timestamp_ns: t,
        kind: EventKind::AuthReject,
    });
    ring_conserves(0xf11647, |seq| FlightRecord {
        seq,
        arrival_ns: seq * 100,
        queue_bytes: 0,
        queue_pkts: 0,
        cache_hit: seq % 2 == 0,
        stages: Vec::new(),
        verdict: FlightVerdict::ToControl,
    });
}

/// Merging every rotated window histogram (the evicted catch-all plus
/// the live ring) is bit-identical to a lifetime histogram fed the same
/// latency stream — rotation never loses or double-counts a sample,
/// whatever the width, capacity and timestamp pattern — and the ring
/// never holds more live windows than its capacity.
#[test]
fn window_rotation_conserves_histogram() {
    for_each_case(0x21d0, |rng, case| {
        let width = rng.range_u64(1, 5_000);
        let capacity = rng.range_usize(1, 16);
        let mut series = WindowedSeries::new(width, capacity);
        let mut lifetime = LatencyHistogram::new();
        let n = rng.range_usize(0, 400);
        for _ in 0..n {
            let (ts, lat) = (rng.range_u64(0, 1_000_000), rng.range_u64(0, 1_000_000));
            series.record_forwarded_n(ts, lat as f64, 1);
            lifetime.record_f64(lat as f64);
            assert!(series.windows().len() <= capacity, "case {case:#x}");
        }
        let merged = series.lifetime();
        assert_eq!(merged.latency, lifetime, "case {case:#x}");
        assert_eq!(merged.forwarded, n as u64, "case {case:#x}");
        assert!(
            series
                .windows()
                .windows(2)
                .all(|w| w[0].start_ns < w[1].start_ns),
            "case {case:#x}: live windows out of order"
        );
    });
}

/// Counter conservation across rotation boundaries: forwarded, drop and
/// cache counters summed over evicted + live windows equal exactly what
/// was recorded, for any interleaving of record kinds (including
/// out-of-order and ancient timestamps), within the capacity bound.
#[test]
fn window_rotation_conserves_counters() {
    for_each_case(0xc0047, |rng, case| {
        let width = rng.range_u64(1, 2_000);
        let capacity = rng.range_usize(1, 8);
        let mut series = WindowedSeries::new(width, capacity);
        let (mut fwd, mut app, mut unexplained) = (0u64, 0u64, 0u64);
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        for _ in 0..rng.range_usize(0, 300) {
            let ts = rng.range_u64(0, 200_000);
            match rng.range_u64(0, 4) {
                0 => {
                    series.record_forwarded_n(ts, ts as f64, 1);
                    fwd += 1;
                }
                1 => {
                    series.record_drop(ts, false);
                    app += 1;
                }
                2 => {
                    series.record_drop(ts, true);
                    unexplained += 1;
                }
                _ => {
                    // An eviction delta and an occupancy gauge derived
                    // from the same draws; all-zero deltas record nothing.
                    let (h, m) = (rng.range_u64(0, 10), rng.range_u64(0, 10));
                    series.record_cache(ts, h, m, h % 3, h + m);
                    hits += h;
                    misses += m;
                    evictions += h % 3;
                }
            }
            assert!(series.windows().len() <= capacity, "case {case:#x}");
        }
        let total = series.lifetime();
        assert_eq!(total.forwarded, fwd, "case {case:#x}");
        assert_eq!(total.drops_app, app, "case {case:#x}");
        assert_eq!(total.drops_unexplained, unexplained, "case {case:#x}");
        assert_eq!(total.cache_hits, hits, "case {case:#x}");
        assert_eq!(total.cache_misses, misses, "case {case:#x}");
        assert_eq!(total.cache_evictions, evictions, "case {case:#x}");
        assert_eq!(total.latency.count(), fwd, "case {case:#x}");
        // The JSON wire format carries the whole series losslessly.
        let text = series.to_json().to_string();
        let back = WindowedSeries::from_json(&Value::parse(&text).unwrap());
        assert_eq!(back, Some(series), "case {case:#x}");
    });
}

/// A latency `record_f64` must take: NaN, ±∞, a negative, `1e30`, any
/// bit pattern, or an ordinary reading.
fn any_latency(rng: &mut Xoshiro256) -> f64 {
    match rng.range_u64(0, 7) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -rng.next_f64() * 1_000.0,
        4 => 1e30,
        5 => f64::from_bits(rng.next_u64()),
        _ => rng.next_f64() * 5_000.0,
    }
}

/// `record_sample_n(v.into(), n)` and `record_n(v, n)` leave exactly what `n`
/// single records leave — counts, extrema and the saturating sum — from
/// an empty, an ordinary, a `u64::MAX`-count or a saturated-sum
/// histogram.
#[test]
fn record_n_equals_n_single_records() {
    for_each_case(0x4ec0, |rng, case| {
        let mut start = any_histogram(rng);
        if rng.chance(0.25) {
            start.record_f64(f64::MAX);
            assert_eq!(start.sum_quanta(), u128::MAX, "case {case:#x}");
        }
        let (v, n) = (any_latency(rng), rng.range_u64(0, 50));
        let (mut once, mut singly) = (start.clone(), start.clone());
        once.record_sample_n(Sample::from(v), n);
        (0..n).for_each(|_| singly.record_f64(v));
        assert_eq!(once, singly, "case {case:#x}: record_sample_n({v}, {n})");
        let v = any_u64(rng);
        let (mut once, mut singly) = (start.clone(), start);
        once.record_n(v, n);
        (0..n).for_each(|_| singly.record(v));
        assert_eq!(once, singly, "case {case:#x}: record_n({v}, {n})");
    });
}

/// `record_forwarded_n(ts, lat, n)` leaves exactly what `n`
/// `record_forwarded_n(ts, lat, 1)` calls leave, interleaved with drops and
/// cache deltas at out-of-order timestamps that rotate the ring.
#[test]
fn record_forwarded_n_equals_n_single_records() {
    for_each_case(0xf0a4d, |rng, case| {
        let mut once = WindowedSeries::new(rng.range_u64(1, 2_000), rng.range_usize(1, 8));
        let mut singly = once.clone();
        for _ in 0..rng.range_usize(0, 200) {
            let ts = rng.range_u64(0, 100_000);
            match rng.range_u64(0, 4) {
                0 | 1 => {
                    let (lat, n) = (any_latency(rng), rng.range_u64(0, 50));
                    once.record_forwarded_n(ts, lat, n);
                    (0..n).for_each(|_| singly.record_forwarded_n(ts, lat, 1));
                }
                2 => {
                    let unexplained = rng.chance(0.5);
                    once.record_drop(ts, unexplained);
                    singly.record_drop(ts, unexplained);
                }
                _ => {
                    let (h, m) = (rng.range_u64(0, 5), rng.range_u64(0, 5));
                    once.record_cache(ts, h, m, h % 2, h + m);
                    singly.record_cache(ts, h, m, h % 2, h + m);
                }
            }
            assert_eq!(once, singly, "case {case:#x}");
        }
    });
}

/// Empty, one bucket holding `u64::MAX` samples, or up to 200 samples.
fn any_histogram(rng: &mut Xoshiro256) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    match rng.range_u64(0, 4) {
        0 => {}
        1 => h.record_n(any_u64(rng), u64::MAX),
        _ => {
            for _ in 0..rng.range_usize(1, 200) {
                h.record(any_u64(rng));
            }
        }
    }
    h
}
