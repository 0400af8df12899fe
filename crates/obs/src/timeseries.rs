//! Windowed time-series telemetry.
//!
//! Lifetime aggregates answer "how fast overall" but not "what happened
//! at 12:03 when p99.9 spiked". This module keeps a rotating ring of
//! fixed-width time buckets, each holding a mergeable latency histogram
//! plus rate counters, so a collector can compute `rate()` and
//! p99.9-over-window per module and fleet-wide.
//!
//! Rotation never loses data: when a bucket ages out of the ring it is
//! merged into a single `evicted` catch-all bucket, so the union of the
//! evicted bucket and the live windows always equals the lifetime
//! aggregate, and the ring never holds more than its capacity (both
//! checked bit for bit over seeded timestamp patterns in `tests/prop.rs`).

use crate::histogram::{LatencyHistogram, Sample};

/// Default window width: 1 ms of simulated time.
pub(crate) const DEFAULT_WINDOW_WIDTH_NS: u64 = 1_000_000;

/// Default number of live windows retained before eviction.
pub(crate) const DEFAULT_WINDOW_CAPACITY: usize = 32;

/// One fixed-width time bucket of dataplane activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowBucket {
    /// Bucket start, nanoseconds since module boot (aligned to the
    /// series width; 0 for the evicted catch-all).
    pub start_ns: u64,
    /// Forwarding latency of packets that departed in this window.
    pub latency: LatencyHistogram,
    /// Packets forwarded in this window.
    pub forwarded: u64,
    /// Packets dropped by the app's verdict (explained drops).
    pub drops_app: u64,
    /// Packets dropped by the infrastructure — FIFO overflow, link
    /// down, unsorted arrival (unexplained drops, SLO-relevant).
    pub drops_unexplained: u64,
    /// Microflow-cache hits attributed to this window.
    pub cache_hits: u64,
    /// Microflow-cache misses attributed to this window.
    pub cache_misses: u64,
    /// Microflow-cache evictions attributed to this window — a sustained
    /// nonzero rate here is the signature of heavy-hitter set conflict
    /// (more live flows than ways in some sets).
    pub cache_evictions: u64,
    /// High-water mark of resident cache entries observed during this
    /// window. A gauge, not a counter: merging buckets (rotation or
    /// shard/fleet aggregation) takes the max across sources.
    pub cache_occupancy: u64,
}

impl WindowBucket {
    /// A bucket starting at `start_ns` with nothing recorded.
    pub fn at(start_ns: u64) -> WindowBucket {
        WindowBucket {
            start_ns,
            ..WindowBucket::default()
        }
    }

    /// True when nothing has been recorded into this bucket.
    pub fn is_empty(&self) -> bool {
        self.forwarded == 0
            && self.drops_app == 0
            && self.drops_unexplained == 0
            && self.cache_hits == 0
            && self.cache_misses == 0
            && self.cache_evictions == 0
            && self.latency.is_empty()
    }

    /// Packets observed in this window (forwarded plus all drops).
    pub fn packets(&self) -> u64 {
        self.forwarded
            .saturating_add(self.drops_app)
            .saturating_add(self.drops_unexplained)
    }

    /// Fraction of observed packets dropped unexplained (0.0 when the
    /// window saw no packets).
    pub fn unexplained_drop_rate(&self) -> f64 {
        if self.packets() == 0 {
            0.0
        } else {
            self.drops_unexplained as f64 / self.packets() as f64
        }
    }

    /// Cache hit rate over this window, `None` when it saw no lookups.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits.saturating_add(self.cache_misses);
        if lookups == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / lookups as f64)
        }
    }

    /// Fold another bucket into this one (histograms merge losslessly;
    /// counters add). Keeps the earlier `start_ns` of the two unless
    /// this bucket is still empty, in which case it adopts `other`'s.
    pub fn merge(&mut self, other: &WindowBucket) {
        if self.is_empty() {
            self.start_ns = other.start_ns;
        } else {
            self.start_ns = self.start_ns.min(other.start_ns);
        }
        self.latency.merge(&other.latency);
        self.forwarded = self.forwarded.saturating_add(other.forwarded);
        self.drops_app = self.drops_app.saturating_add(other.drops_app);
        self.drops_unexplained = self
            .drops_unexplained
            .saturating_add(other.drops_unexplained);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.cache_evictions = self.cache_evictions.saturating_add(other.cache_evictions);
        self.cache_occupancy = self.cache_occupancy.max(other.cache_occupancy);
    }
}

/// A rotating ring of [`WindowBucket`]s over simulated time.
///
/// Buckets are created on demand (quiet windows occupy no memory) and
/// kept sorted by `start_ns`. When more than `capacity` live windows
/// exist, the oldest is merged into the `evicted` catch-all — samples
/// are conserved across rotation, never double-counted or lost.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    width_ns: u64,
    capacity: u64,
    windows: Vec<WindowBucket>,
    evicted: WindowBucket,
}

impl Default for WindowedSeries {
    fn default() -> WindowedSeries {
        WindowedSeries::new(DEFAULT_WINDOW_WIDTH_NS, DEFAULT_WINDOW_CAPACITY)
    }
}

impl WindowedSeries {
    /// A series of `capacity` live windows, each `width_ns` wide.
    /// Width and capacity are clamped to at least 1.
    pub fn new(width_ns: u64, capacity: usize) -> WindowedSeries {
        WindowedSeries {
            width_ns: width_ns.max(1),
            capacity: capacity.max(1) as u64,
            windows: Vec::new(),
            evicted: WindowBucket::default(),
        }
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Maximum number of live windows before eviction.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Live windows, oldest first.
    pub fn windows(&self) -> &[WindowBucket] {
        &self.windows
    }

    fn aligned(&self, timestamp_ns: u64) -> u64 {
        timestamp_ns - timestamp_ns % self.width_ns
    }

    /// The index of the newest live window when it covers
    /// `timestamp_ns`: where nearly every sample lands, found without
    /// the division `aligned` takes.
    fn newest_covering(&self, timestamp_ns: u64) -> Option<usize> {
        let newest = self.windows.len().checked_sub(1)?;
        let start = self.windows[newest].start_ns;
        (timestamp_ns >= start && timestamp_ns - start < self.width_ns).then_some(newest)
    }

    /// What [`new`](Self::new) and recording guarantee and every method
    /// relies on (`aligned` divides by the width), asked of a decoded
    /// series: width and capacity at least 1, no more live windows than
    /// the capacity, their starts aligned and strictly ascending.
    fn coherent(&self) -> bool {
        self.width_ns >= 1
            && self.capacity >= 1
            && self.windows.len() as u64 <= self.capacity
            && self.windows.iter().all(|w| w.start_ns % self.width_ns == 0)
            && self
                .windows
                .windows(2)
                .all(|w| w[0].start_ns < w[1].start_ns)
    }

    /// The bucket covering `timestamp_ns`, creating (and rotating) as
    /// needed. Timestamps older than the oldest live window land in the
    /// evicted catch-all so a late sample is counted, not lost.
    fn bucket_mut(&mut self, timestamp_ns: u64) -> &mut WindowBucket {
        if let Some(newest) = self.newest_covering(timestamp_ns) {
            return &mut self.windows[newest];
        }
        let start = self.aligned(timestamp_ns);
        // Reverse scan: packets arrive nearly in order, so a window
        // near the newest ends it at once.
        let at = match self.windows.iter().rposition(|w| w.start_ns <= start) {
            Some(idx) if self.windows[idx].start_ns == start => return &mut self.windows[idx],
            Some(idx) => idx + 1,
            None if self.windows.is_empty() => 0,
            None => return &mut self.evicted,
        };
        // A new newest window, or a gap between two live ones: either
        // way the ring grew, so rotate whatever no longer fits.
        self.windows.insert(at, WindowBucket::at(start));
        let excess = self.windows.len().saturating_sub(self.capacity());
        for old in self.windows.drain(..excess) {
            self.evicted.merge(&old);
        }
        match at.checked_sub(excess) {
            Some(idx) => &mut self.windows[idx],
            None => &mut self.evicted,
        }
    }

    /// The `[start, end)` of the window `timestamp_ns` falls in: every
    /// timestamp in it is recorded into the same bucket until something
    /// else rotates the ring.
    pub fn window_of(&self, timestamp_ns: u64) -> std::ops::Range<u64> {
        let start = match self.newest_covering(timestamp_ns) {
            Some(newest) => self.windows[newest].start_ns,
            None => self.aligned(timestamp_ns),
        };
        start..start.saturating_add(self.width_ns)
    }

    /// Record `n` forwarded packets of one latency (in nanoseconds) at
    /// `timestamp_ns`.
    pub fn record_forwarded_n(&mut self, timestamp_ns: u64, latency: impl Into<Sample>, n: u64) {
        if n == 0 {
            return;
        }
        let b = self.bucket_mut(timestamp_ns);
        b.forwarded = b.forwarded.saturating_add(n);
        b.latency.record_sample_n(latency.into(), n);
    }

    /// Record a dropped packet; `unexplained` is true for drops the app
    /// did not ask for (FIFO overflow, link down, unsorted arrival).
    pub fn record_drop(&mut self, timestamp_ns: u64, unexplained: bool) {
        let b = self.bucket_mut(timestamp_ns);
        let counter = if unexplained {
            &mut b.drops_unexplained
        } else {
            &mut b.drops_app
        };
        *counter = counter.saturating_add(1);
    }

    /// Attribute a delta of microflow-cache activity to `timestamp_ns`:
    /// hit/miss/eviction deltas plus the current resident-entry count
    /// (recorded as the window's high-water mark). A window with no
    /// lookups or evictions records nothing — the occupancy gauge is
    /// only meaningful alongside cache activity, and quiet windows must
    /// not churn buckets.
    pub fn record_cache(
        &mut self,
        timestamp_ns: u64,
        hits: u64,
        misses: u64,
        evictions: u64,
        occupancy: u64,
    ) {
        if hits == 0 && misses == 0 && evictions == 0 {
            return;
        }
        let b = self.bucket_mut(timestamp_ns);
        b.cache_hits = b.cache_hits.saturating_add(hits);
        b.cache_misses = b.cache_misses.saturating_add(misses);
        b.cache_evictions = b.cache_evictions.saturating_add(evictions);
        b.cache_occupancy = b.cache_occupancy.max(occupancy);
    }

    /// Everything the series has ever absorbed, folded into one bucket
    /// (evicted catch-all plus all live windows). By construction this
    /// equals the lifetime aggregate bit-for-bit.
    pub fn lifetime(&self) -> WindowBucket {
        let mut total = self.evicted.clone();
        for w in &self.windows {
            total.merge(w);
        }
        total
    }

    /// Merge another series' buckets into this one window-by-window
    /// (fleet-wide aggregation). Buckets with matching starts merge;
    /// the other's evicted catch-all folds into ours.
    pub fn merge(&mut self, other: &WindowedSeries) {
        self.evicted.merge(&other.evicted);
        for w in &other.windows {
            let start = self.aligned(w.start_ns);
            if let Some(mine) = self.windows.iter_mut().find(|m| m.start_ns == start) {
                mine.merge(w);
            } else {
                let at = self
                    .windows
                    .iter()
                    .position(|m| m.start_ns > w.start_ns)
                    .unwrap_or(self.windows.len());
                self.windows.insert(at, w.clone());
            }
        }
        while self.windows.len() as u64 > self.capacity {
            let old = self.windows.remove(0);
            self.evicted.merge(&old);
        }
    }
}

crate::impl_json_struct!(WindowBucket {
    start_ns,
    latency,
    forwarded,
    drops_app,
    drops_unexplained,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_occupancy
});
crate::impl_json_struct!(WindowedSeries {
    width_ns,
    capacity,
    windows,
    evicted
} if WindowedSeries::coherent);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson, Value};

    #[test]
    fn buckets_align_to_width() {
        let mut s = WindowedSeries::new(1_000, 4);
        s.record_forwarded_n(0, 10.0, 1);
        s.record_forwarded_n(999, 20.0, 1);
        s.record_forwarded_n(1_000, 30.0, 1);
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[0].start_ns, 0);
        assert_eq!(s.windows()[0].forwarded, 2);
        assert_eq!(s.windows()[1].start_ns, 1_000);
        assert_eq!(s.windows()[1].forwarded, 1);
    }

    #[test]
    fn quiet_windows_are_skipped() {
        let mut s = WindowedSeries::new(1_000, 8);
        s.record_forwarded_n(500, 1.0, 1);
        s.record_forwarded_n(10_500, 1.0, 1);
        assert_eq!(s.windows().len(), 2);
        assert_eq!(s.windows()[1].start_ns, 10_000);
    }

    #[test]
    fn eviction_merges_into_catch_all() {
        let mut s = WindowedSeries::new(100, 2);
        for t in [0u64, 150, 250, 350] {
            s.record_forwarded_n(t, t as f64, 1);
        }
        assert_eq!(s.windows().len(), 2);
        // Windows 0 and 100 rotated out; their packets survive.
        assert_eq!(s.evicted.forwarded, 2);
        assert_eq!(s.lifetime().forwarded, 4);
        assert_eq!(s.lifetime().latency.count(), 4);
    }

    #[test]
    fn late_samples_land_in_evicted_not_lost() {
        let mut s = WindowedSeries::new(100, 2);
        for t in [0u64, 150, 250, 350] {
            s.record_forwarded_n(t, 1.0, 1);
        }
        // Oldest live window now starts at 200; t=20 is ancient.
        s.record_drop(20, true);
        assert_eq!(s.evicted.drops_unexplained, 1);
        assert_eq!(s.lifetime().drops_unexplained, 1);
    }

    #[test]
    fn out_of_order_within_ring_finds_its_bucket() {
        let mut s = WindowedSeries::new(100, 8);
        s.record_forwarded_n(50, 1.0, 1);
        s.record_forwarded_n(250, 1.0, 1);
        s.record_forwarded_n(80, 1.0, 1); // back into the first window
        s.record_drop(150, false); // gap window between the two
        assert_eq!(s.windows().len(), 3);
        assert_eq!(
            s.windows().iter().map(|w| w.start_ns).collect::<Vec<_>>(),
            vec![0, 100, 200]
        );
        assert_eq!(s.windows()[0].forwarded, 2);
        assert_eq!(s.windows()[1].drops_app, 1);
    }

    #[test]
    fn a_gap_window_at_capacity_evicts_the_oldest() {
        let mut s = WindowedSeries::new(10, 2);
        for t in [0u64, 20, 10] {
            s.record_forwarded_n(t, t as f64, 1);
        }
        let starts: Vec<u64> = s.windows().iter().map(|w| w.start_ns).collect();
        assert_eq!(starts, vec![10, 20]);
        // The late sample went into the gap window, not the evicted one.
        assert_eq!(s.windows()[0].latency.max(), 10);
        assert_eq!(s.evicted.forwarded, 1);
        assert_eq!(s.lifetime().forwarded, 3);
    }

    #[test]
    fn late_samples_between_live_windows_never_grow_the_ring() {
        let mut s = WindowedSeries::new(10, 4);
        s.record_forwarded_n(0, 1.0, 1);
        for pair in 1..=10_000u64 {
            // A new newest window, then a late sample in the gap it left.
            s.record_forwarded_n(pair * 20, 1.0, 1);
            s.record_drop(pair * 20 - 10, true);
            assert!(s.windows().len() <= s.capacity());
        }
        assert_eq!(s.lifetime().forwarded, 10_001);
        assert_eq!(s.lifetime().drops_unexplained, 10_000);
    }

    #[test]
    fn lifetime_matches_reference_histogram() {
        let mut s = WindowedSeries::new(1_000, 3);
        let mut reference = LatencyHistogram::new();
        for i in 0..500u64 {
            let lat = (i * 37 % 9_000 + 100) as f64;
            s.record_forwarded_n(i * 61, lat, 1);
            reference.record_f64(lat);
        }
        assert_eq!(s.lifetime().latency, reference);
        assert_eq!(s.lifetime().forwarded, 500);
    }

    #[test]
    fn rates_and_emptiness() {
        let mut b = WindowBucket::default();
        assert!(b.is_empty());
        assert_eq!(b.unexplained_drop_rate(), 0.0);
        assert_eq!(b.cache_hit_rate(), None);
        b.forwarded = 3;
        b.drops_unexplained = 1;
        b.cache_hits = 9;
        b.cache_misses = 1;
        assert!(!b.is_empty());
        assert!((b.unexplained_drop_rate() - 0.25).abs() < 1e-12);
        assert!((b.cache_hit_rate().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cache_deltas_attributed_to_window() {
        let mut s = WindowedSeries::new(1_000, 4);
        s.record_cache(100, 5, 2, 1, 40);
        s.record_cache(100, 0, 0, 0, 99); // no-op: creates no bucket churn
        assert_eq!(s.windows().len(), 1);
        assert_eq!(s.windows()[0].cache_hits, 5);
        assert_eq!(s.windows()[0].cache_misses, 2);
        assert_eq!(s.windows()[0].cache_evictions, 1);
        // Occupancy is a high-water mark, untouched by the no-op call.
        assert_eq!(s.windows()[0].cache_occupancy, 40);
        s.record_cache(200, 1, 0, 0, 38); // lower gauge never regresses the mark
        assert_eq!(s.windows()[0].cache_occupancy, 40);
        s.record_cache(300, 1, 0, 0, 55);
        assert_eq!(s.windows()[0].cache_occupancy, 55);
    }

    #[test]
    fn occupancy_merges_as_max_evictions_add() {
        let mut a = WindowBucket::default();
        let mut b = WindowBucket::default();
        a.cache_evictions = 3;
        a.cache_occupancy = 10;
        a.cache_misses = 1;
        b.cache_evictions = 4;
        b.cache_occupancy = 25;
        b.cache_misses = 1;
        a.merge(&b);
        assert_eq!(a.cache_evictions, 7);
        assert_eq!(a.cache_occupancy, 25);
        // A bucket with only evictions still counts as non-empty.
        let c = WindowBucket {
            cache_evictions: 1,
            ..WindowBucket::default()
        };
        assert!(!c.is_empty());
    }

    #[test]
    fn fleet_merge_lines_up_buckets() {
        let mut a = WindowedSeries::new(1_000, 4);
        let mut b = WindowedSeries::new(1_000, 4);
        a.record_forwarded_n(500, 10.0, 1);
        b.record_forwarded_n(700, 20.0, 1);
        b.record_forwarded_n(1_500, 30.0, 1);
        a.merge(&b);
        assert_eq!(a.windows().len(), 2);
        assert_eq!(a.windows()[0].forwarded, 2);
        assert_eq!(a.windows()[1].forwarded, 1);
        assert_eq!(a.lifetime().forwarded, 3);
    }

    #[test]
    fn series_round_trips_through_json() {
        let mut s = WindowedSeries::new(100, 2);
        for t in [0u64, 150, 250, 350] {
            s.record_forwarded_n(t, t as f64 + 1.0, 1);
        }
        s.record_drop(300, true);
        s.record_cache(320, 4, 1, 2, 17);
        let json = s.to_json().to_string();
        let back = WindowedSeries::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.lifetime(), s.lifetime());
    }

    #[test]
    fn fields_that_disagree_do_not_decode() {
        let mut s = WindowedSeries::new(100, 2);
        s.record_forwarded_n(150, 1.0, 1);
        s.record_forwarded_n(250, 1.0, 1);
        let good = s.to_json();
        assert_eq!(WindowedSeries::from_json(&good), Some(s.clone()));
        let crafted = |key: &str, value: Value| {
            let mut doc = good.as_object().expect("an object").clone();
            doc.insert(key.to_string(), value);
            Value::Object(doc)
        };
        let starts = |starts: &[u64]| {
            let windows: Vec<WindowBucket> = starts.iter().map(|&t| WindowBucket::at(t)).collect();
            crafted("windows", windows.to_json())
        };
        for (what, doc) in [
            ("zero width", crafted("width_ns", 0u64.to_json())),
            ("zero capacity", crafted("capacity", 0u64.to_json())),
            (
                "more windows than capacity",
                crafted("capacity", 1u64.to_json()),
            ),
            ("a start off the grid", starts(&[100, 250])),
            ("starts out of order", starts(&[200, 100])),
            ("a start twice", starts(&[100, 100])),
        ] {
            assert_eq!(WindowedSeries::from_json(&doc), None, "{what}");
        }
        // What decodes merges and records without a panic.
        let mut back = WindowedSeries::from_json(&starts(&[0, 100])).unwrap();
        back.merge(&s);
        back.record_drop(1_000, true);
        assert_eq!(back.lifetime().forwarded, 2);
    }

    #[test]
    fn window_of_is_the_bucket_a_timestamp_lands_in() {
        let mut s = WindowedSeries::new(1_000, 4);
        assert_eq!(s.window_of(1_234), 1_000..2_000);
        assert_eq!(s.window_of(999), 0..1_000);
        assert_eq!(s.window_of(u64::MAX), u64::MAX - u64::MAX % 1_000..u64::MAX);
        s.record_forwarded_n(1_999, 1.0, 1);
        assert_eq!(s.windows()[0].start_ns, s.window_of(1_999).start);
    }

    #[test]
    fn recording_saturates_like_merge() {
        let mut full = WindowBucket {
            forwarded: u64::MAX,
            drops_app: u64::MAX,
            drops_unexplained: u64::MAX,
            cache_hits: u64::MAX,
            cache_misses: u64::MAX,
            cache_evictions: u64::MAX,
            ..WindowBucket::at(0)
        };
        full.latency.record_n(7, u64::MAX);
        let mut s = WindowedSeries {
            width_ns: 100,
            capacity: 2,
            windows: vec![full.clone()],
            evicted: WindowBucket::default(),
        };
        s.record_forwarded_n(50, 7.0, 1);
        s.record_drop(50, true);
        s.record_drop(50, false);
        s.record_cache(50, 1, 1, 1, 3);
        // Every counter stays at the top; only the sum still grows.
        full.cache_occupancy = 3;
        full.latency.record_f64(7.0);
        assert_eq!(full.latency.count(), u64::MAX);
        assert_eq!(s.windows(), [full]);
        let back = WindowedSeries::from_json(&s.to_json());
        assert_eq!(back, Some(s));
    }

    #[test]
    fn width_and_capacity_clamp() {
        let s = WindowedSeries::new(0, 0);
        assert_eq!(s.width_ns(), 1);
        assert_eq!(s.capacity(), 1);
    }
}
