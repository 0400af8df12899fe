//! The telemetry wire format.
//!
//! A [`TelemetrySnapshot`] is what one module serializes over its
//! OOB/management channel on each scrape: lifetime counters, the
//! latency histogram, the DOM/laser-health readout and the drained
//! event-ring contents. Every field is plain serde data so the host
//! can decode it without sharing module internals.

use crate::events::DataplaneEvent;
use crate::histogram::LatencyHistogram;

/// Floor applied when converting a zero/negative optical power to dBm,
/// standing in for the receiver sensitivity floor of a real module.
pub(crate) const DBM_FLOOR: f64 = -40.0;

/// Convert an optical power in milliwatts to dBm, clamped at
/// [`DBM_FLOOR`] so a dark lane serializes as a finite number.
pub(crate) fn mw_to_dbm(mw: f64) -> f64 {
    if mw > 0.0 {
        (10.0 * mw.log10()).max(DBM_FLOOR)
    } else {
        DBM_FLOOR
    }
}

/// Named DOM (digital optical monitoring) readout.
///
/// Replaces the bare `(f64, f64, f64, f64)` tuple the management
/// client used to return — with four same-typed fields, a tuple is an
/// invitation to swap tx for rx silently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomSnapshot {
    /// Transmit optical power, dBm.
    pub tx_power_dbm: f64,
    /// Receive optical power, dBm.
    pub rx_power_dbm: f64,
    /// Laser bias current, mA.
    pub bias_ma: f64,
    /// Module case temperature, °C.
    pub temp_c: f64,
}

impl DomSnapshot {
    /// Build a snapshot from raw milliwatt powers (the units the I²C
    /// DOM registers report in).
    pub fn from_milliwatts(
        tx_power_mw: f64,
        rx_power_mw: f64,
        bias_ma: f64,
        temp_c: f64,
    ) -> DomSnapshot {
        DomSnapshot {
            tx_power_dbm: mw_to_dbm(tx_power_mw),
            rx_power_dbm: mw_to_dbm(rx_power_mw),
            bias_ma,
            temp_c,
        }
    }
}

/// Frame/byte/error counters for one direction of one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames seen.
    pub frames: u64,
    /// Bytes seen.
    pub bytes: u64,
    /// Errored frames.
    pub errors: u64,
}

impl PortCounters {
    /// Fold another port's counters into this one (shard merge).
    fn merge(&mut self, other: &PortCounters) {
        self.frames = self.frames.saturating_add(other.frames);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.errors = self.errors.saturating_add(other.errors);
    }
}

/// Lifetime packet-drop counters, broken out by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// Dropped because the ingress FIFO overflowed.
    pub fifo_overflow: u64,
    /// Dropped by the packet-processing app's verdict.
    pub app: u64,
    /// Dropped because the egress link was down.
    pub link: u64,
    /// Dropped because the packet arrived out of order in the offered trace.
    pub unsorted: u64,
}

impl DropCounters {
    /// Total drops across all reasons (saturating, like every sum
    /// here: a collector runs them over snapshots decoded from text).
    pub fn total(&self) -> u64 {
        self.fifo_overflow
            .saturating_add(self.app)
            .saturating_add(self.link)
            .saturating_add(self.unsorted)
    }

    /// Fold another module's drop counters into this one (shard merge).
    fn merge(&mut self, other: &DropCounters) {
        self.fifo_overflow = self.fifo_overflow.saturating_add(other.fifo_overflow);
        self.app = self.app.saturating_add(other.app);
        self.link = self.link.saturating_add(other.link);
        self.unsorted = self.unsorted.saturating_add(other.unsorted);
    }
}

/// Lifetime microflow action-cache counters (the PPE fast path).
///
/// All four are monotonic. A packet that finds a live plan counts one
/// `hit`; a packet that has to take the slow path counts one `miss`;
/// displacing a live entry on insert counts one `eviction`; and a
/// plan discarded because its epoch is stale (the control plane
/// touched a table since it was recorded) counts one `invalidation`
/// (invalidated lookups also count as misses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that replayed a memoized plan.
    pub hits: u64,
    /// Lookups that fell through to the slow path.
    pub misses: u64,
    /// Live entries displaced by an insert into a full set.
    pub evictions: u64,
    /// Stale-epoch plans discarded at lookup time.
    pub invalidations: u64,
}

impl CacheStats {
    /// Fold another cache's counters into this one (shard merge).
    fn merge(&mut self, other: &CacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.invalidations = self.invalidations.saturating_add(other.invalidations);
    }

    /// Total lookups (hits + misses).
    fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Exact-match table geometry and lifetime counters (the PPE's
/// hardware hash tables — e.g. the NAT's source-IP table).
///
/// `capacity`/`occupied` are gauges read in O(1) from the flat table;
/// `hits`/`misses`/`insert_failures` are monotonic counters. All zero
/// when the running app exposes no table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableTelemetry {
    /// Total entry slots (buckets × ways).
    pub capacity: u64,
    /// Slots currently occupied.
    pub occupied: u64,
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Inserts rejected with a full bucket.
    pub insert_failures: u64,
}

impl TableTelemetry {
    /// Occupancy as a fraction of capacity (0.0 when there is no table).
    pub fn load_factor(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupied as f64 / self.capacity as f64
        }
    }

    /// Fold another shard's table telemetry into this one. Counters
    /// add, saturating; `capacity` and `occupied` take the maximum —
    /// shards hold *replicas* of the same table (control frames are
    /// broadcast), so summing them would multiply the apparent occupancy.
    fn merge_shard(&mut self, other: &TableTelemetry) {
        self.capacity = self.capacity.max(other.capacity);
        self.occupied = self.occupied.max(other.occupied);
        self.hits = self.hits.saturating_add(other.hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.insert_failures = self.insert_failures.saturating_add(other.insert_failures);
    }
}

/// Lifetime control-plane/OTA resilience counters.
///
/// All monotonic. These are the module-side half of the chaos story:
/// how many duplicate chunks it absorbed, how many updates it tore
/// down, how many requests it had to reject. The host-side half
/// (retries, backoff, resyncs) lives in the management client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlCounters {
    /// Duplicate last-chunk retransmits acknowledged idempotently.
    pub dup_chunk_acks: u64,
    /// Updates aborted (explicit `AbortUpdate` or error teardown).
    pub update_aborts: u64,
    /// Update FSM operations rejected with an error.
    pub update_errors: u64,
    /// `QueryUpdate` progress probes served (each one is a host
    /// resynchronising after a lost exchange).
    pub status_queries: u64,
}

impl CtrlCounters {
    /// Fold another shard's counters into this one, saturating.
    fn merge(&mut self, other: &CtrlCounters) {
        self.dup_chunk_acks = self.dup_chunk_acks.saturating_add(other.dup_chunk_acks);
        self.update_aborts = self.update_aborts.saturating_add(other.update_aborts);
        self.update_errors = self.update_errors.saturating_add(other.update_errors);
        self.status_queries = self.status_queries.saturating_add(other.status_queries);
    }
}

/// One module's full telemetry export for one scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Module identifier (serial).
    pub module_id: String,
    /// Monotonic per-module snapshot sequence number.
    pub seq: u64,
    /// Name of the running packet-processing app.
    pub app: String,
    /// Version of the running app image.
    pub app_version: u32,
    /// Lifetime boot count.
    pub boots: u32,
    /// Electrical (host-facing) receive counters.
    pub edge_rx: PortCounters,
    /// Electrical (host-facing) transmit counters.
    pub edge_tx: PortCounters,
    /// Optical (line-facing) receive counters.
    pub optical_rx: PortCounters,
    /// Optical (line-facing) transmit counters.
    pub optical_tx: PortCounters,
    /// Lifetime drop counters by reason.
    pub drops: DropCounters,
    /// Lifetime per-packet forwarding latency histogram.
    pub latency: LatencyHistogram,
    /// DOM readout at snapshot time.
    pub dom: DomSnapshot,
    /// Laser fault diagnosis label ("healthy", "laser_degradation", …).
    pub laser_fault: String,
    /// 1 when the laser is diagnosed healthy, else 0 (gauge-friendly).
    pub laser_healthy: bool,
    /// Events drained from the module's trace ring for this snapshot.
    pub events: Vec<DataplaneEvent>,
    /// Lifetime count of events lost to ring overwrite (module ring
    /// plus any app-internal rings) — nonzero means `events` has gaps.
    pub events_overwritten: u64,
    /// Lifetime count of events drained over all snapshots.
    pub events_drained: u64,
    /// Microflow action-cache counters (all zero when the running app
    /// has no cache or it is disabled).
    pub cache: CacheStats,
    /// Exact-match table geometry and counters (all zero when the
    /// running app exposes no hardware table).
    pub table: TableTelemetry,
    /// Control-plane/OTA resilience counters.
    pub ctrl: CtrlCounters,
    /// Windowed time-series of recent activity (latency, drops, cache
    /// lookups per window), so the collector can compute rates and
    /// per-window quantiles instead of lifetime-only aggregates.
    pub windows: crate::timeseries::WindowedSeries,
}

impl TelemetrySnapshot {
    /// Fold one shard's snapshot into this one, producing the fleet
    /// view a collector would compute for a sharded dataplane: one
    /// logical module whose counters, histograms, windowed series and
    /// event trace span every shard.
    ///
    /// Additive state (port/drop/cache/ctrl counters, the latency
    /// histogram, the windowed series, event-loss tallies) merges
    /// exactly — every underlying structure is mergeable without
    /// approximation — and saturates at `u64::MAX`, since a collector
    /// merges snapshots decoded from text. Event traces concatenate and
    /// re-sort by timestamp. Identity fields (`module_id`, `app`,
    /// `app_version`, the DOM/laser readout) keep this snapshot's values
    /// — shards run identical images, so shard 0 speaks for the fleet —
    /// while `seq` and `boots` take the maximum across shards.
    pub fn merge_shard(&mut self, other: &TelemetrySnapshot) {
        self.seq = self.seq.max(other.seq);
        self.boots = self.boots.max(other.boots);
        self.edge_rx.merge(&other.edge_rx);
        self.edge_tx.merge(&other.edge_tx);
        self.optical_rx.merge(&other.optical_rx);
        self.optical_tx.merge(&other.optical_tx);
        self.drops.merge(&other.drops);
        self.latency.merge(&other.latency);
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.timestamp_ns);
        self.events_overwritten = self
            .events_overwritten
            .saturating_add(other.events_overwritten);
        self.events_drained = self.events_drained.saturating_add(other.events_drained);
        self.cache.merge(&other.cache);
        self.table.merge_shard(&other.table);
        self.ctrl.merge(&other.ctrl);
        self.windows.merge(&other.windows);
    }
}

crate::impl_json_struct!(DomSnapshot {
    tx_power_dbm,
    rx_power_dbm,
    bias_ma,
    temp_c
});
crate::impl_json_struct!(PortCounters {
    frames,
    bytes,
    errors
});
crate::impl_json_struct!(DropCounters {
    fifo_overflow,
    app,
    link,
    unsorted
});
crate::impl_json_struct!(CacheStats {
    hits,
    misses,
    evictions,
    invalidations
});
crate::impl_json_struct!(TableTelemetry {
    capacity,
    occupied,
    hits,
    misses,
    insert_failures
});
crate::impl_json_struct!(CtrlCounters {
    dup_chunk_acks,
    update_aborts,
    update_errors,
    status_queries
});
crate::impl_json_struct!(TelemetrySnapshot {
    module_id,
    seq,
    app,
    app_version,
    boots,
    edge_rx,
    edge_tx,
    optical_rx,
    optical_tx,
    drops,
    latency,
    dom,
    laser_fault,
    laser_healthy,
    events,
    events_overwritten,
    events_drained,
    cache,
    table,
    ctrl,
    windows,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    #[test]
    fn mw_to_dbm_reference_points() {
        assert!((mw_to_dbm(1.0) - 0.0).abs() < 1e-9);
        assert!((mw_to_dbm(2.0) - 3.0103).abs() < 1e-3);
        assert!((mw_to_dbm(0.5) + 3.0103).abs() < 1e-3);
        assert_eq!(mw_to_dbm(0.0), DBM_FLOOR);
        assert_eq!(mw_to_dbm(-1.0), DBM_FLOOR);
    }

    #[test]
    fn dom_snapshot_from_milliwatts() {
        let d = DomSnapshot::from_milliwatts(1.0, 0.5, 6.5, 41.0);
        assert!((d.tx_power_dbm - 0.0).abs() < 1e-9);
        assert!(d.rx_power_dbm < 0.0);
        assert_eq!(d.bias_ma, 6.5);
        assert_eq!(d.temp_c, 41.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut latency = LatencyHistogram::new();
        latency.record(300);
        latency.record(1_200);
        let snap = TelemetrySnapshot {
            module_id: "FSFP-0003".into(),
            seq: 7,
            app: "l4-firewall".into(),
            app_version: 2,
            boots: 1,
            edge_rx: PortCounters {
                frames: 10,
                bytes: 12_800,
                errors: 0,
            },
            edge_tx: PortCounters {
                frames: 9,
                bytes: 11_520,
                errors: 0,
            },
            optical_rx: PortCounters::default(),
            optical_tx: PortCounters {
                frames: 9,
                bytes: 11_520,
                errors: 1,
            },
            drops: DropCounters {
                fifo_overflow: 1,
                app: 2,
                link: 0,
                unsorted: 3,
            },
            latency,
            dom: DomSnapshot::from_milliwatts(1.0, 0.8, 6.0, 40.0),
            laser_fault: "healthy".into(),
            laser_healthy: true,
            events: vec![DataplaneEvent {
                timestamp_ns: 5,
                kind: EventKind::AuthReject,
            }],
            events_overwritten: 0,
            events_drained: 1,
            cache: CacheStats {
                hits: 900,
                misses: 100,
                evictions: 4,
                invalidations: 2,
            },
            table: TableTelemetry {
                capacity: 32_768,
                occupied: 8_192,
                hits: 700,
                misses: 300,
                insert_failures: 5,
            },
            ctrl: CtrlCounters {
                dup_chunk_acks: 3,
                update_aborts: 1,
                update_errors: 2,
                status_queries: 5,
            },
            windows: {
                let mut w = crate::timeseries::WindowedSeries::new(1_000_000, 8);
                w.record_forwarded_n(500, 300.0, 1);
                w.record_forwarded_n(1_200_000, 1_200.0, 1);
                w.record_drop(1_300_000, true);
                w
            },
        };
        use crate::json::{FromJson, ToJson, Value};
        let json = snap.to_json().to_string();
        let back = TelemetrySnapshot::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.drops.total(), 6);
        assert_eq!(back.latency.count(), 2);
        assert_eq!(back.cache.lookups(), 1000);
        assert!((back.cache.hit_rate() - 0.9).abs() < 1e-12);
        assert!((back.table.load_factor() - 0.25).abs() < 1e-12);
    }

    /// Shard `shard`'s snapshot of one NAT module.
    fn shard_snap(shard: u64) -> TelemetrySnapshot {
        let mut latency = LatencyHistogram::new();
        latency.record(100 * (shard + 1));
        let mut windows = crate::timeseries::WindowedSeries::new(1_000_000, 8);
        windows.record_forwarded_n(500, 100.0 * (shard + 1) as f64, 1);
        TelemetrySnapshot {
            module_id: format!("FSFP-S{shard}"),
            seq: 1 + shard,
            app: "nat44".into(),
            app_version: 1,
            boots: 1,
            edge_rx: PortCounters {
                frames: 10 + shard,
                bytes: 640,
                errors: 0,
            },
            edge_tx: PortCounters::default(),
            optical_rx: PortCounters::default(),
            optical_tx: PortCounters {
                frames: 10 + shard,
                bytes: 640,
                errors: shard,
            },
            drops: DropCounters {
                fifo_overflow: shard,
                app: 1,
                link: 0,
                unsorted: 0,
            },
            latency,
            dom: DomSnapshot::from_milliwatts(1.0, 0.8, 6.0, 40.0),
            laser_fault: "healthy".into(),
            laser_healthy: true,
            events: vec![DataplaneEvent {
                timestamp_ns: 10 - shard,
                kind: EventKind::AuthReject,
            }],
            events_overwritten: shard,
            events_drained: 1,
            cache: CacheStats {
                hits: 100 * (shard + 1),
                misses: 10,
                evictions: 0,
                invalidations: 0,
            },
            table: TableTelemetry {
                capacity: 1024,
                occupied: 100 + shard,
                hits: 50,
                misses: 5,
                insert_failures: shard,
            },
            ctrl: CtrlCounters {
                dup_chunk_acks: shard,
                update_aborts: 0,
                update_errors: 0,
                status_queries: 1,
            },
            windows,
        }
    }
    #[test]
    fn shard_merge_sums_counters_and_histograms() {
        let mut merged = shard_snap(0);
        merged.merge_shard(&shard_snap(1));
        // Additive state sums exactly...
        assert_eq!(merged.edge_rx.frames, 21);
        assert_eq!(merged.optical_tx.errors, 1);
        assert_eq!(merged.drops.total(), 3);
        assert_eq!(merged.latency.count(), 2);
        assert_eq!(merged.cache.hits, 300);
        // Table counters add; geometry/occupancy take the replica max.
        assert_eq!(merged.table.hits, 100);
        assert_eq!(merged.table.insert_failures, 1);
        assert_eq!(merged.table.capacity, 1024);
        assert_eq!(merged.table.occupied, 101);
        assert_eq!(merged.ctrl.dup_chunk_acks, 1);
        assert_eq!(merged.events_overwritten, 1);
        assert_eq!(merged.events_drained, 2);
        // ...events concatenate in timestamp order...
        assert_eq!(merged.events.len(), 2);
        assert!(merged.events[0].timestamp_ns <= merged.events[1].timestamp_ns);
        // ...windows fold bucket-wise (same bucket here)...
        assert_eq!(merged.windows.windows().len(), 1);
        assert_eq!(merged.windows.lifetime().packets(), 2);
        // ...and identity stays with the receiver, seq/boots take max.
        assert_eq!(merged.module_id, "FSFP-S0");
        assert_eq!(merged.seq, 2);
        assert_eq!(merged.boots, 1);
    }

    /// A collector merges snapshots decoded from text, so every sum
    /// saturates: two shards at `u64::MAX` merge to `u64::MAX`, never
    /// to an overflow panic (debug) or a wrapped count (release).
    #[test]
    fn shard_merge_saturates_decoded_counters() {
        use crate::json::{FromJson, ToJson, Value};
        let mut full = shard_snap(0);
        let s = &mut full;
        for field in [
            &mut s.events_overwritten,
            &mut s.events_drained,
            &mut s.table.hits,
            &mut s.table.misses,
            &mut s.table.insert_failures,
            &mut s.ctrl.dup_chunk_acks,
            &mut s.ctrl.update_aborts,
            &mut s.ctrl.update_errors,
            &mut s.ctrl.status_queries,
        ] {
            *field = u64::MAX;
        }
        let text = full.to_json().to_string();
        let decoded = TelemetrySnapshot::from_json(&Value::parse(&text).unwrap()).unwrap();
        let mut merged = decoded.clone();
        merged.merge_shard(&decoded);
        let (t, c) = (merged.table, merged.ctrl);
        assert_eq!(
            [
                merged.events_overwritten,
                merged.events_drained,
                t.hits,
                t.misses,
                t.insert_failures,
                c.dup_chunk_acks,
                c.update_aborts,
                c.update_errors,
                c.status_queries,
            ],
            [u64::MAX; 9]
        );
    }

    #[test]
    fn cache_stats_rates() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            invalidations: 0,
        };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
