//! Log-linear HDR-style latency histogram.
//!
//! The hardware pattern behind this model: a line-rate latency monitor
//! cannot store per-packet samples, so it buckets each measurement into
//! a log-linear grid — a linear array of buckets per power-of-two tier —
//! and increments a counter. With 128 sub-buckets per tier the bucket
//! midpoint is never more than 1/128 ≈ 0.78 % away from the true value,
//! comfortably inside the ≤1 % relative-error budget, while the whole
//! grid for the full `u64` range fits in < 4 k counters (bounded
//! memory). Two histograms recorded on different modules merge by adding
//! bucket counts, which is exactly what the fleet collector does.

use crate::json::{FromJson, ToJson, Value, Writer};

/// log2 of the number of linear sub-buckets per power-of-two tier.
const SUB_BUCKET_BITS: u32 = 7;
/// Linear sub-buckets per tier (values below this are recorded exactly).
const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS; // 128
/// Upper half of a tier's sub-buckets (the part each new tier adds).
const SUB_BUCKET_HALF: u64 = SUB_BUCKET_COUNT / 2; // 64
/// Buckets in the whole grid: `index_for(u64::MAX) + 1`.
const BUCKETS: usize = 3_776;

/// log2 of the fixed-point quantum for the running sum: sums are held
/// as integer multiples of 2^-20 ns (≈ 1 fs), so addition is exact,
/// associative, and commutative — a merge of per-shard histograms is
/// bit-identical to recording the same samples serially, which the
/// sharded-dataplane parity suite asserts down to the mean.
const SUM_QUANTUM_BITS: u32 = 20;

/// 2⁶³ as an `f64`: below it, [`round_half_away`] applies.
const TWO_TO_63: f64 = 9_223_372_036_854_775_808.0;

/// `x.round() as u64` for `0 <= x < 2⁶³`. Baseline x86-64 has no
/// rounding instruction, so `f64::round` is a call; this is two signed
/// conversions, each one instruction in this range, and a compare.
/// `x - trunc(x)` is exact, so comparing it with one half decides as
/// round-half-away-from-zero does.
fn round_half_away(x: f64) -> u64 {
    let t = x as i64;
    (t + i64::from(x - t as f64 >= 0.5)) as u64
}

/// Quantize a nonnegative finite nanosecond sample to sum quanta.
fn quantize(v: f64) -> u128 {
    let scaled = v * (1u64 << SUM_QUANTUM_BITS) as f64;
    if scaled < TWO_TO_63 {
        return u128::from(round_half_away(scaled));
    }
    let scaled = scaled.round();
    // f64→u128 is a libcall: go through u64 below 2⁶⁴ quanta (≈ 4.9
    // hours). Both casts saturate, so the top is `u128::MAX`.
    if scaled < u64::MAX as f64 {
        u128::from(scaled as u64)
    } else {
        scaled as u128
    }
}

/// A floating-point nanosecond sample as a histogram books it: its
/// bucket value (rounded to the nearest nanosecond) and its exact share
/// of the sum. Converted once, one sample goes into several histograms
/// (a module's lifetime population and its window's) for the price of
/// one conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    value: u64,
    quanta: u128,
}

impl From<f64> for Sample {
    /// Negative and non-finite samples book as 0 ns.
    fn from(v: f64) -> Sample {
        let clamped = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let value = if clamped < TWO_TO_63 {
            round_half_away(clamped)
        } else {
            clamped.round().min(u64::MAX as f64) as u64
        };
        Sample {
            value,
            quanta: quantize(clamped),
        }
    }
}

/// A mergeable log-linear latency histogram over `u64` nanosecond
/// values with ≤1 % relative quantile error and bounded memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHistogram {
    /// Bucket counts, grown on demand up to the highest recorded index
    /// (at most 3 776 entries for the full `u64` range).
    counts: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Exact sum of raw recorded values in fixed-point quanta of
    /// 2^-[`SUM_QUANTUM_BITS`] ns. Integer addition makes the mean
    /// independent of recording/merge order.
    sum_q: u128,
    /// Exact minimum recorded value.
    min: u64,
    /// Exact maximum recorded value.
    max: u64,
}

/// Bucket index for a value: identity below [`SUB_BUCKET_COUNT`], then
/// [`SUB_BUCKET_HALF`] buckets per power-of-two tier.
fn index_for(v: u64) -> usize {
    if v < SUB_BUCKET_COUNT {
        v as usize
    } else {
        // 2^h <= v < 2^(h+1), h >= SUB_BUCKET_BITS.
        let h = 63 - u64::from(v.leading_zeros());
        let shift = h - u64::from(SUB_BUCKET_BITS - 1);
        let sub = v >> shift; // in [SUB_BUCKET_HALF*2 .. SUB_BUCKET_COUNT*2) / 2
        (SUB_BUCKET_COUNT + (shift - 1) * SUB_BUCKET_HALF + (sub - SUB_BUCKET_HALF)) as usize
    }
}

/// Representative (midpoint) value of a bucket index — the inverse of
/// [`index_for`] up to the bucket's width.
fn value_for(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKET_COUNT {
        idx
    } else {
        let t = idx - SUB_BUCKET_COUNT;
        let shift = t / SUB_BUCKET_HALF + 1;
        let sub = t % SUB_BUCKET_HALF + SUB_BUCKET_HALF;
        let low = sub << shift;
        low + (1u64 << shift) / 2
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of the same sample.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.add(v, u128::from(v) << SUM_QUANTUM_BITS, n);
    }

    /// Record a floating-point nanosecond sample (rounded to the
    /// nearest integer bucket; the exact value still feeds the mean).
    pub fn record_f64(&mut self, v: f64) {
        self.record_sample_n(Sample::from(v), 1);
    }

    /// Record `n` occurrences of the same sample: exactly what `n` calls
    /// of [`record_f64`](Self::record_f64) leave.
    pub fn record_sample_n(&mut self, s: Sample, n: u64) {
        self.add(s.value, s.quanta, n);
    }

    /// The one recording body: `n` samples in `v`'s bucket, each adding
    /// `quanta` to the sum. Every counter saturates, as in
    /// [`merge`](Self::merge), so `n` at once equals `n` one at a time
    /// even at the top of the range.
    fn add(&mut self, v: u64, quanta: u128, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index_for(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(n);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(n);
        // A sample below 2⁶⁴ quanta times a `u64` count cannot overflow
        // the product: one widening multiply instead of a checked one.
        let added = match u64::try_from(quanta) {
            Ok(q) => u128::from(q) * u128::from(n),
            Err(_) => quanta.saturating_mul(u128::from(n)),
        };
        self.sum_q = self.sum_q.saturating_add(added);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value (0 when empty).
    /// Test-only: `crates/obs/tests/prop.rs` and `tests/pinned_trace.rs`: the
    /// exact minimum checked and pinned.
    /// Test-only: `crates/obs/tests/prop.rs` and `tests/pinned_trace.rs`: the
    /// exact minimum checked and pinned.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty), exact to the sum
    /// quantum and — because the underlying sum is an integer —
    /// identical no matter how the samples were split across
    /// histograms before merging.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Sum of recorded values in nanoseconds (quantized to
    /// 2^-20 ns on recording).
    pub fn sum(&self) -> f64 {
        self.sum_q as f64 / (1u64 << SUM_QUANTUM_BITS) as f64
    }

    /// The raw fixed-point sum in 2^-20 ns quanta — the
    /// order-independent integer behind [`sum`](Self::sum).
    ///
    /// Test-only: `crates/obs/tests/prop.rs` and
    /// `crates/core/tests/telemetry_pinned.rs`: the exact sum, which the
    /// export carries only as two halves.
    pub fn sum_quanta(&self) -> u128 {
        self.sum_q
    }

    /// The value at quantile `q` (0..=1): the representative value of
    /// the bucket holding the `ceil(q·count)`-th smallest sample,
    /// clamped into the exact `[min, max]` range. Within 1 % relative
    /// error of the true sample quantile.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= target {
                return value_for(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Merge another histogram into this one. Bucket counts add, so the
    /// result is identical to having recorded both sample streams into
    /// one histogram (mergeability is what lets the fleet collector
    /// aggregate per-module histograms without raw samples). The adds
    /// saturate: what a collector merges was decoded from text.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] = self.counts[i].saturating_add(c);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_q = self.sum_q.saturating_add(other.sum_q);
    }

    /// Iterate non-empty buckets as `(representative_value, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.occupied().map(|(i, c)| (value_for(i), c))
    }

    /// Non-empty buckets as `(index, count)`: the JSON form's `counts`.
    fn occupied(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let counts = self.counts.iter().copied().enumerate();
        counts.filter(|&(_, c)| c > 0)
    }
}

// Hand-written (not `impl_json_struct!`) because the in-tree JSON
// `Value` has no 128-bit number, so the fixed-point sum crosses the
// wire as two u64 halves, and because `counts` is sparse: the occupied
// buckets as `[index, count]` pairs in index order. A rack's histograms
// span hundreds of nanoseconds to tens of microseconds and leave nearly
// every bucket between `min` and `max` empty.
impl ToJson for LatencyHistogram {
    /// The members in byte order of their names, as a parsed object's
    /// map holds them.
    fn write_json(&self, w: &mut Writer) {
        w.begin_object();
        w.key("count").u64(self.count);
        w.key("counts").begin_array();
        for pair in self.occupied() {
            pair.write_json(w);
        }
        w.end_array();
        w.key("max").u64(self.max);
        w.key("min").u64(self.min);
        w.key("sum_q_hi").u64((self.sum_q >> 64) as u64);
        w.key("sum_q_lo").u64(self.sum_q as u64);
        w.end_object();
    }
}

impl LatencyHistogram {
    /// Do the fields agree with each other the way recording and
    /// merging leave them? The text a histogram is decoded from comes
    /// from a module, so it is input: `count` is the sum of the
    /// buckets, an empty histogram is the default one, and otherwise
    /// `min` and `max` fall in the lowest and the highest occupied
    /// bucket. Everything that indexes, clamps or walks by `min`/`max`
    /// (`value_at_quantile`'s `clamp(min, max)` panics on `min > max`)
    /// may then trust them.
    fn is_consistent(&self) -> bool {
        let total = self
            .counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c));
        if total != Some(self.count) {
            return false;
        }
        let occupied = |&c: &u64| c > 0;
        match (
            self.counts.iter().position(occupied),
            self.counts.iter().rposition(occupied),
        ) {
            (Some(lowest), Some(highest)) => {
                self.min <= self.max
                    && index_for(self.min) == lowest
                    && index_for(self.max) == highest
            }
            _ => *self == LatencyHistogram::default(),
        }
    }
}

impl FromJson for LatencyHistogram {
    /// Total: a document whose fields disagree with each other decodes
    /// to `None`, like one with a field missing. So does a pair whose
    /// index is off the grid or not above the previous one, or whose
    /// count is zero, and it does before any bucket is allocated for it.
    fn from_json(v: &Value) -> Option<Self> {
        let mut counts = Vec::new();
        for pair in v["counts"].as_array()? {
            let (index, count): (usize, u64) = FromJson::from_json(pair)?;
            if index >= BUCKETS || index < counts.len() || count == 0 {
                return None;
            }
            counts.resize(index, 0);
            counts.push(count);
        }
        let hi: u64 = FromJson::from_json(&v["sum_q_hi"])?;
        let lo: u64 = FromJson::from_json(&v["sum_q_lo"])?;
        let decoded = LatencyHistogram {
            counts,
            count: FromJson::from_json(&v["count"])?,
            sum_q: (u128::from(hi) << 64) | u128::from(lo),
            min: FromJson::from_json(&v["min"])?,
            max: FromJson::from_json(&v["max"])?,
        };
        decoded.is_consistent().then_some(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The u64 shortcut is the plain u128 cast at, just below and just
    /// above 2⁶⁴ quanta, and saturates at the top as that cast does.
    #[test]
    fn quantize_matches_the_u128_cast_across_two_to_the_64_quanta() {
        let per_ns = (1u64 << SUM_QUANTUM_BITS) as f64;
        let cast = |v: f64| {
            let scaled = (v * per_ns).round();
            if scaled >= u128::MAX as f64 {
                u128::MAX
            } else {
                scaled as u128
            }
        };
        let edge = 2f64.powi(64) / per_ns;
        let cases = [
            0.0,
            0.4,
            0.5,
            1_234.567,
            edge.next_down(),
            edge,
            edge.next_up(),
            edge * 3.0,
            2f64.powi(128) / per_ns,
            f64::MAX,
            f64::INFINITY,
        ];
        for v in cases {
            assert_eq!(quantize(v), cast(v), "{v:e} ns");
        }
        assert_eq!(quantize(edge.next_down()), (1 << 64) - 2048);
        assert_eq!(quantize(edge), 1 << 64);
        assert_eq!(quantize(edge.next_up()), (1 << 64) + 4096);
        assert_eq!(quantize(f64::MAX), u128::MAX);
    }

    /// The rounding shortcut is `f64::round` wherever it is taken: at
    /// and beside every half, where `x + 0.5` would already round, up to
    /// 2⁵³ where every `f64` is whole, and up to the 2⁶³ edge.
    #[test]
    fn round_half_away_is_f64_round_below_two_to_the_63() {
        let mut cases = vec![0.0, -0.0, 0.5, 1.5, 2.5, 0.25, 299.5, 1_234.567];
        cases.extend([0.5f64, 1.5, 2.5, 4_503_599_627_370_495.5].map(f64::next_down));
        cases.extend([0.5f64, 1.5, 2.5, 2f64.powi(52)].map(f64::next_up));
        cases.extend([2f64.powi(52), 2f64.powi(53) + 2.0, TWO_TO_63.next_down()]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread over every binade below 2⁶³.
            let exponent = (x >> 58) as i32;
            cases.push(f64::from_bits(x >> 12 | 0x3ff0_0000_0000_0000) * 2f64.powi(exponent - 1));
        }
        for v in cases {
            assert!(v < TWO_TO_63);
            assert_eq!(round_half_away(v), v.round() as u64, "{v:e}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 64, 127] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), 127);
    }

    #[test]
    fn index_value_round_trip_error_bound() {
        // Every representable value's bucket midpoint is within 1 %.
        for shift in 0..57u32 {
            for sub in [64u64, 65, 100, 127] {
                let v = sub << (shift + 1);
                let idx = index_for(v);
                let rep = value_for(idx);
                let err = rep.abs_diff(v) as f64;
                assert!(err <= v as f64 * 0.01, "v={v} rep={rep} err={err}");
            }
        }
        // Linear region: exact.
        for v in 0..128u64 {
            assert_eq!(value_for(index_for(v)), v);
        }
    }

    #[test]
    fn indexes_are_contiguous_and_monotone() {
        // Bucket index is nondecreasing in the value, and every value
        // maps inside the bounded grid.
        let mut last = 0usize;
        for h in 7..63u32 {
            for v in [1u64 << h, (1u64 << h) + 1, (1u64 << (h + 1)) - 1] {
                let idx = index_for(v);
                assert!(idx >= last, "index regressed at {v}");
                assert!(idx < 3776, "index {idx} out of grid at {v}");
                last = idx;
            }
        }
        assert_eq!(index_for(127), 127);
        assert_eq!(index_for(128), 128);
        assert_eq!(index_for(255), 191);
        assert_eq!(index_for(256), 192);
    }

    #[test]
    fn quantiles_match_exact_within_bound() {
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            // A deterministic heavy-tailed-ish sequence.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 40) % (1 + i * 37);
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        let n = samples.len() as u64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let target = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = samples[(target - 1) as usize];
            let approx = h.value_at_quantile(q);
            let err = approx.abs_diff(exact) as f64;
            assert!(
                err <= exact as f64 * 0.01,
                "q={q} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in 0..5_000u64 {
            let x = v * v % 77_777;
            a.record(x);
            all.record(x);
        }
        for v in 0..3_000u64 {
            let x = v * 13 % 901;
            b.record(x);
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 8_000);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record_f64(100.5);
        h.record_f64(299.5);
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 200.0).abs() < 1e-9);
        assert_eq!(h.min(), 101); // f64::round is half-away-from-zero
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn bounded_memory_for_extreme_values() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.counts.len(), BUCKETS);
        assert_eq!(index_for(u64::MAX), BUCKETS - 1);
        assert_eq!(h.max(), u64::MAX);
        // The p100 estimate stays within 1 % even at the top of range.
        let err = h.value_at_quantile(1.0).abs_diff(u64::MAX) as f64;
        assert!(err <= u64::MAX as f64 * 0.01);
    }

    #[test]
    fn mean_is_exact_under_any_merge_split() {
        // Fractional samples whose f64 running sum depends on the order
        // of addition — the fixed-point sum must not.
        let samples: Vec<f64> = (0..10_000)
            .map(|i| 0.1 + (i as f64) * 0.3 + 1e9 * f64::from(i % 7))
            .collect();
        let mut serial = LatencyHistogram::new();
        for &s in &samples {
            serial.record_f64(s);
        }
        // Round-robin the same samples across 8 shards and merge back.
        let mut shards = vec![LatencyHistogram::new(); 8];
        for (i, &s) in samples.iter().enumerate() {
            shards[i % 8].record_f64(s);
        }
        let mut merged = LatencyHistogram::new();
        for sh in &shards {
            merged.merge(sh);
        }
        assert_eq!(merged, serial);
        assert_eq!(merged.mean().to_bits(), serial.mean().to_bits());
        assert_eq!(merged.sum_quanta(), serial.sum_quanta());
    }

    #[test]
    fn histogram_round_trips_through_json() {
        use crate::json::{FromJson, ToJson};
        let mut h = LatencyHistogram::new();
        h.record_f64(123.456);
        h.record(u64::MAX); // pushes the fixed-point sum past 64 bits
        let back = LatencyHistogram::from_json(&h.to_json()).expect("round trip");
        assert_eq!(back, h);
        assert_eq!(back.sum_quanta(), h.sum_quanta());
    }

    #[test]
    fn fields_that_disagree_do_not_decode() {
        use crate::json::{FromJson, ToJson, Value};
        let mut h = LatencyHistogram::new();
        for v in [40, 300, 300, 9_000] {
            h.record(v);
        }
        let good = h.to_json();
        assert_eq!(
            good.to_string(),
            r#"{"count":4,"counts":[[40,1],[203,2],[518,1]],"max":9000,"min":40,"sum_q_hi":0,"sum_q_lo":10108272640}"#
        );
        assert_eq!(LatencyHistogram::from_json(&good), Some(h));
        assert_eq!(
            LatencyHistogram::from_json(&LatencyHistogram::new().to_json()),
            Some(LatencyHistogram::new())
        );
        // One field rewritten at a time; each leaves a document whose
        // fields no recording could have produced.
        let with = |key: &str, value: Value| {
            let mut doc = good.as_object().unwrap().clone();
            doc.insert(key.to_string(), value);
            Value::Object(doc)
        };
        let counts = |text: &str| with("counts", Value::parse(text).unwrap());
        let rejected = [
            (
                "count above the buckets' sum",
                with("count", 5u64.to_json()),
            ),
            (
                "count below the buckets' sum",
                with("count", 3u64.to_json()),
            ),
            ("min above max", with("min", 9_001u64.to_json())),
            ("min below the lowest bucket", with("min", 39u64.to_json())),
            ("max beyond the buckets", with("max", u64::MAX.to_json())),
            (
                "max below the highest bucket",
                with("max", 300u64.to_json()),
            ),
            ("no buckets under a count", counts("[]")),
            (
                "buckets whose sum overflows",
                counts("[[40,18446744073709551615],[203,18446744073709551615]]"),
            ),
            // What the pair form alone can say: each of these a decoder
            // that places or adds pairs would accept, or allocate by.
            ("an index far off the grid", counts("[[1000000000000,1]]")),
            ("an index at the grid", counts("[[40,1],[203,2],[3776,1]]")),
            (
                "a bucket listed twice",
                counts("[[40,1],[203,1],[203,1],[518,1]]"),
            ),
            ("buckets out of order", counts("[[203,2],[40,1],[518,1]]")),
            (
                "an empty bucket between",
                counts("[[40,1],[100,0],[203,2],[518,1]]"),
            ),
            (
                "an empty bucket after",
                counts("[[40,1],[203,2],[518,1],[600,0]]"),
            ),
            (
                "a negative index",
                counts("[[-1,0],[40,1],[203,2],[518,1]]"),
            ),
            ("a pair of three", counts("[[40,1,0],[203,2],[518,1]]")),
            ("a dense array", counts("[0,1,2,1]")),
        ];
        for (what, doc) in &rejected {
            assert_eq!(LatencyHistogram::from_json(doc), None, "{what}");
        }
        // An empty histogram that claims an extreme is not the empty one.
        let mut empty = LatencyHistogram::new()
            .to_json()
            .as_object()
            .unwrap()
            .clone();
        empty.insert("max".to_string(), 7u64.to_json());
        assert_eq!(LatencyHistogram::from_json(&Value::Object(empty)), None);
    }

    #[test]
    fn recording_saturates_like_merge() {
        use crate::json::{FromJson, ToJson};
        // The `u64::MAX`-count bucket the collector's saturation test
        // and the property generators build, then more of the same.
        let mut h = LatencyHistogram::new();
        h.record_n(700, u64::MAX);
        h.record(700);
        h.record_f64(700.25);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), [(700, u64::MAX)]);
        // count = Σ counts still holds, so the histogram's own export
        // decodes.
        assert_eq!(LatencyHistogram::from_json(&h.to_json()), Some(h));
    }

    #[test]
    fn negative_and_nan_samples_clamp_to_zero() {
        let mut h = LatencyHistogram::new();
        h.record_f64(-5.0);
        h.record_f64(f64::NAN);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
