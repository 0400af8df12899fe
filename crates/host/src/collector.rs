//! Host-side fleet metrics collector.
//!
//! The exporter half of the telemetry pipeline (§4.1/§5.3): modules
//! serialize [`TelemetrySnapshot`]s over their management channel; the
//! collector keeps the latest snapshot per module, accumulates the
//! traced dataplane events, merges the per-module latency histograms
//! into a fleet-wide distribution, and renders everything as
//! Prometheus text exposition or JSON.
//!
//! Snapshots carry *lifetime* counters and histograms, so a fresh
//! snapshot **replaces** the stored one for that module — merging two
//! snapshots of the same module would double-count. Only the
//! cross-module fleet histogram is produced by merging.

use crate::chaos::ImpairStats;
use crate::mgmt::{MgmtError, TransportStats};
use flexsfp_obs::json::Writer;
use flexsfp_obs::{
    DataplaneEvent, LatencyHistogram, SloReport, SloSpec, TelemetrySnapshot, ToJson,
    WindowedSeries, XbarTelemetry,
};
use std::collections::BTreeMap;

mod families;

/// Git revision baked in at build time (`git describe`, or `unknown`
/// outside a checkout) — exported through `flexsfp_build_info`.
pub const GIT_DESCRIBE: &str = env!("FLEXSFP_GIT_DESCRIBE");

/// Traced events retained per module on the host (ring rings drain into
/// this bounded log; oldest entries are discarded first).
pub(crate) const EVENT_LOG_CAPACITY: usize = 1024;

/// Per-module state held by the collector.
#[derive(Debug, Clone)]
struct ModuleRecord {
    /// Latest lifetime snapshot (replaced wholesale on each scrape).
    snapshot: TelemetrySnapshot,
    /// Accumulated event trace across scrapes, capped at
    /// [`EVENT_LOG_CAPACITY`] most-recent entries.
    events: Vec<DataplaneEvent>,
}

/// Aggregates telemetry from a fleet of modules and renders metrics.
#[derive(Debug, Clone, Default)]
pub struct FleetCollector {
    modules: BTreeMap<String, ModuleRecord>,
    /// Sweep entries that failed to scrape (unreachable modules).
    scrape_failures: u64,
    /// Host-side control-transport counters, when provided.
    transport: Option<TransportStats>,
    /// Per-module channel impairment accounting, when provided.
    channels: BTreeMap<String, ImpairStats>,
    /// Fleet SLO spec; when set, `flexsfp_slo_*` families are rendered
    /// from each module's windowed series.
    slo: Option<SloSpec>,
    /// Per-switch crossbar telemetry, when a rack fabric reports.
    xbars: BTreeMap<String, XbarTelemetry>,
}

impl FleetCollector {
    /// An empty collector.
    pub fn new() -> FleetCollector {
        FleetCollector::default()
    }

    /// Number of modules seen so far.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True before any snapshot has been ingested.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Ingest one snapshot, replacing the module's previous one. The
    /// snapshot's drained events are appended to the module's host-side
    /// event log.
    pub fn ingest(&mut self, snapshot: TelemetrySnapshot) {
        let mut events = self
            .modules
            .get_mut(&snapshot.module_id)
            .map(|rec| std::mem::take(&mut rec.events))
            .unwrap_or_default();
        events.extend(snapshot.events.iter().cloned());
        let excess = events.len().saturating_sub(EVENT_LOG_CAPACITY);
        events.drain(..excess);
        let id = snapshot.module_id.clone();
        self.modules.insert(id, ModuleRecord { snapshot, events });
    }

    /// Ingest a whole sweep (e.g. `FleetManager::telemetry_snapshots`).
    pub fn ingest_all(&mut self, snapshots: impl IntoIterator<Item = TelemetrySnapshot>) {
        for s in snapshots {
            self.ingest(s);
        }
    }

    /// Ingest a per-module sweep where unreachable modules reported an
    /// error. `Ok` snapshots are ingested; `Err` entries increment the
    /// exported scrape-failure counter. Returns the number ingested.
    pub fn ingest_sweep(
        &mut self,
        sweep: impl IntoIterator<Item = Result<TelemetrySnapshot, MgmtError>>,
    ) -> usize {
        let mut ok = 0;
        for entry in sweep {
            match entry {
                Ok(s) => {
                    self.ingest(s);
                    ok += 1;
                }
                Err(_) => self.scrape_failures += 1,
            }
        }
        ok
    }

    /// Lifetime count of failed scrape entries seen by
    /// [`ingest_sweep`](Self::ingest_sweep).
    pub fn scrape_failures(&self) -> u64 {
        self.scrape_failures
    }

    /// Record the management client's transport-layer counters (from
    /// [`ManagementClient::transport_stats`](crate::ManagementClient::transport_stats))
    /// for export.
    pub fn set_transport_stats(&mut self, stats: TransportStats) {
        self.transport = Some(stats);
    }

    /// Record one module's channel impairment accounting (from
    /// [`ImpairedPort::stats`](crate::chaos::ImpairedPort::stats)) for export.
    pub fn set_channel_stats(&mut self, module_id: &str, stats: ImpairStats) {
        self.channels.insert(module_id.to_string(), stats);
    }

    /// Record one crossbar switch's fabric telemetry (from
    /// [`CrossbarSwitch::telemetry`](crate::CrossbarSwitch::telemetry))
    /// for export as the `flexsfp_xbar_*` family. Snapshots carry
    /// lifetime counters, so a fresh one replaces the stored one.
    pub fn set_xbar_stats(&mut self, switch_id: &str, telemetry: XbarTelemetry) {
        self.xbars.insert(switch_id.to_string(), telemetry);
    }

    /// Latest crossbar telemetry for one switch, if it has reported.
    pub fn xbar(&self, switch_id: &str) -> Option<&XbarTelemetry> {
        self.xbars.get(switch_id)
    }

    /// Set (or replace) the fleet SLO spec. Subsequent renders include
    /// per-module `flexsfp_slo_*` families evaluated against each
    /// module's windowed time-series.
    pub fn set_slo_spec(&mut self, spec: SloSpec) {
        self.slo = Some(spec);
    }

    /// Evaluate the configured SLO spec against every module's latest
    /// windowed series. Empty when no spec is set.
    pub fn slo_reports(&self) -> BTreeMap<String, SloReport> {
        let Some(spec) = self.slo else {
            return BTreeMap::new();
        };
        self.modules
            .iter()
            .map(|(id, rec)| {
                (
                    id.clone(),
                    flexsfp_obs::slo::evaluate(&spec, &rec.snapshot.windows),
                )
            })
            .collect()
    }

    /// Fleet-wide windowed series: every module's series merged bucket
    /// by bucket (mergeability is the point of the rotating design).
    pub fn fleet_windows(&self) -> WindowedSeries {
        let mut iter = self.modules.values();
        let Some(first) = iter.next() else {
            return WindowedSeries::default();
        };
        let mut merged = first.snapshot.windows.clone();
        for rec in iter {
            merged.merge(&rec.snapshot.windows);
        }
        merged
    }

    /// Latest snapshot for one module, if it has reported.
    pub fn module(&self, module_id: &str) -> Option<&TelemetrySnapshot> {
        self.modules.get(module_id).map(|r| &r.snapshot)
    }

    /// Accumulated event trace for one module (most recent
    /// `EVENT_LOG_CAPACITY` entries).
    pub fn recent_events(&self, module_id: &str) -> Option<&[DataplaneEvent]> {
        self.modules.get(module_id).map(|r| r.events.as_slice())
    }

    /// Fleet-wide latency distribution: the per-module lifetime
    /// histograms merged into one (mergeability is the point of the
    /// log-linear design — no raw samples cross the wire).
    pub fn fleet_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for rec in self.modules.values() {
            merged.merge(&rec.snapshot.latency);
        }
        merged
    }

    /// Render the fleet as Prometheus text exposition: every family in
    /// the `families` table whose source is set, in table order.
    pub fn render_prometheus(&self) -> String {
        families::render(self)
    }

    /// Latest snapshots (and accumulated event logs) as a compact JSON
    /// document, `{id: {"recent_events": [...], "snapshot": {...}}}` in
    /// module-id order. A latency histogram's `counts` lists only its
    /// occupied buckets, as `[index, count]` pairs. Written through one
    /// [`Writer`] by each type's `write_json`, members in byte order of
    /// their names; no tree is built.
    /// For a human, re-render the parsed text with
    /// [`Value::to_string_pretty`](flexsfp_obs::Value::to_string_pretty).
    pub fn to_json(&self) -> String {
        let mut w = Writer::compact();
        w.begin_object();
        for (id, rec) in &self.modules {
            w.key(id).begin_object();
            rec.events.write_json(w.key("recent_events"));
            rec.snapshot.write_json(w.key("snapshot"));
            w.end_object();
        }
        w.end_object();
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetManager;
    use flexsfp_core::auth::AuthKey;
    use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
    use flexsfp_obs::{FromJson, Value};
    use flexsfp_ppe::Direction;

    fn fleet(n: usize) -> FleetManager {
        let modules = (0..n)
            .map(|i| {
                let cfg = ModuleConfig {
                    id: format!("FSFP-{i:04}"),
                    ..ModuleConfig::default()
                };
                FlexSfp::new(cfg, Box::new(flexsfp_ppe::engine::PassThrough))
            })
            .collect();
        FleetManager::new(modules, AuthKey::DEFAULT)
    }

    fn packets(n: u16) -> Vec<SimPacket> {
        (0..n)
            .map(|i| SimPacket {
                arrival_ns: u64::from(i) * 2_000,
                direction: Direction::EdgeToOptical,
                frame: flexsfp_wire::builder::PacketBuilder::eth_ipv4_udp(
                    flexsfp_wire::MacAddr([2; 6]),
                    flexsfp_wire::MacAddr([4; 6]),
                    0xc0a80001,
                    0x08080808,
                    5_000 + i,
                    443,
                    b"payload",
                ),
            })
            .collect()
    }

    #[test]
    fn four_module_fleet_scrape_renders_prometheus() {
        let f = fleet(4);
        for i in 0..4 {
            f.with_module(i, |m| {
                m.run(packets(10 + 5 * i as u16));
            });
        }
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        assert_eq!(c.len(), 4);

        let text = c.render_prometheus();
        // Per-module packet counters, all four modules present.
        for (i, frames) in [(0, 10), (1, 15), (2, 20), (3, 25)] {
            let line = format!(
                "flexsfp_frames_total{{module=\"FSFP-{i:04}\",port=\"edge\",direction=\"rx\"}} {frames}\n"
            );
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
        // Byte counters are present and nonzero.
        assert!(text.contains(
            "flexsfp_bytes_total{module=\"FSFP-0000\",port=\"optical\",direction=\"tx\"}"
        ));
        // p99 latency per module and fleet-wide.
        assert!(text.contains("flexsfp_latency_ns{module=\"FSFP-0002\",quantile=\"0.99\"}"));
        assert!(text.contains("flexsfp_fleet_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("flexsfp_fleet_latency_ns_count 70\n"));
        // Laser health gauges.
        assert!(text.contains("flexsfp_laser_healthy{module=\"FSFP-0003\"} 1\n"));
        assert!(
            text.contains("flexsfp_laser_fault_info{module=\"FSFP-0001\",fault=\"healthy\"} 1\n")
        );
        // Every sample line is well-formed: `name{...} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (lhs, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            assert!(!lhs.is_empty());
        }

        // The fleet histogram equals the merge of the stored ones.
        assert_eq!(c.fleet_latency().count(), 70);
    }

    #[test]
    fn a_snapshot_with_a_crafted_histogram_never_reaches_the_fleet_merge() {
        // A snapshot arrives as text from a module the collector does
        // not control. Whatever of it decodes is ingested, merged and
        // rendered, and none of that may panic; a latency histogram
        // whose fields disagree must not decode in the first place
        // (`min > max` alone would panic the quantile clamp below).
        let f = fleet(1);
        f.with_module(0, |m| m.run(packets(12)));
        let honest = f.telemetry_snapshots().remove(0).expect("scraped");
        let doc = honest.to_json();
        let latency = doc.get("latency").as_object().expect("an object").clone();
        let crafted = |key: &str, value: Value| {
            let mut latency = latency.clone();
            latency.insert(key.to_string(), value);
            let mut doc = doc.as_object().expect("an object").clone();
            doc.insert("latency".to_string(), Value::Object(latency));
            Value::Object(doc)
        };
        let max = honest.latency.max();
        // The honest `[index, count]` pairs with the last one rewritten:
        // split in two, or followed by an empty bucket, it sums to the
        // same count.
        let mut pairs = latency["counts"].as_array().expect("pairs").clone();
        let (last, count) = pairs
            .pop()
            .and_then(|p| <(u64, u64)>::from_json(&p))
            .unwrap();
        assert!(count > 1, "the split needs two samples in one bucket");
        let listed = |rewritten: &[(u64, u64)]| {
            let mut pairs = pairs.clone();
            pairs.extend(rewritten.iter().map(ToJson::to_json));
            crafted("counts", Value::Array(pairs))
        };
        let documents = [
            ("untouched", doc.clone(), true),
            ("min above max", crafted("min", (max + 1).to_json()), false),
            (
                "max beyond the buckets",
                crafted("max", u64::MAX.to_json()),
                false,
            ),
            (
                "count above the buckets' sum",
                crafted("count", 1_000u64.to_json()),
                false,
            ),
            (
                "no buckets",
                crafted("counts", Vec::<u64>::new().to_json()),
                false,
            ),
            ("the pairs rewritten", listed(&[(last, count)]), true),
            (
                "an index far off the grid",
                listed(&[(1_000_000_000_000, count)]),
                false,
            ),
            (
                "a bucket listed twice",
                listed(&[(last, count - 1), (last, 1)]),
                false,
            ),
            (
                "an empty bucket after the last",
                listed(&[(last, count), (last + 1, 0)]),
                false,
            ),
        ];
        for (what, doc, decodes) in documents {
            let snapshot = TelemetrySnapshot::from_json(&doc);
            assert_eq!(snapshot.is_some(), decodes, "{what}");
            let mut c = FleetCollector::new();
            c.ingest_all(snapshot);
            assert_eq!(c.fleet_latency().count(), if decodes { 12 } else { 0 });
            assert!(c.fleet_latency().p999() <= max, "{what}");
            assert!(!c.render_prometheus().is_empty(), "{what}");
        }
    }

    #[test]
    fn a_snapshot_with_a_crafted_series_never_reaches_the_fleet_merge() {
        // The windowed series' methods divide by its width and keep its
        // windows sorted on the width's grid: a series whose fields
        // disagree must not decode, or merging it with a second module's
        // live window panics (`"width_ns": 0` did, in `aligned`).
        let f = fleet(2);
        for i in 0..2 {
            f.with_module(i, |m| m.run(packets(12)));
        }
        let mut scraped = f.telemetry_snapshots().into_iter().flatten();
        let (honest, other) = (scraped.next().unwrap(), scraped.next().unwrap());
        assert!(!other.windows.windows().is_empty());
        let doc = honest.to_json();
        let series = doc.get("windows").as_object().expect("an object").clone();
        let crafted = |key: &str, value: Value| {
            let mut series = series.clone();
            series.insert(key.to_string(), value);
            let mut doc = doc.as_object().expect("an object").clone();
            doc.insert("windows".to_string(), Value::Object(series));
            Value::Object(doc)
        };
        let live = honest.windows.windows();
        let mut unsorted = live.to_vec();
        unsorted.push(live[0].clone());
        let mut off_grid = live.to_vec();
        off_grid[0].start_ns += 1;
        let documents = [
            ("untouched", doc.clone(), true),
            ("zero width", crafted("width_ns", 0u64.to_json()), false),
            ("zero capacity", crafted("capacity", 0u64.to_json()), false),
            (
                "a start off the grid",
                crafted("windows", off_grid.to_json()),
                false,
            ),
            (
                "a window twice",
                crafted("windows", unsorted.to_json()),
                false,
            ),
        ];
        for (what, doc, decodes) in documents {
            let snapshot = TelemetrySnapshot::from_json(&doc);
            assert_eq!(snapshot.is_some(), decodes, "{what}");
            let mut c = FleetCollector::new();
            c.set_slo_spec(SloSpec::generous());
            c.ingest_all(snapshot);
            c.ingest(other.clone());
            let forwarded = if decodes { 24 } else { 12 };
            assert_eq!(c.fleet_windows().lifetime().forwarded, forwarded, "{what}");
            assert_eq!(c.slo_reports().len(), c.len(), "{what}");
            assert!(!c.render_prometheus().is_empty(), "{what}");
        }
    }

    /// `doc` with every lifetime and per-window counter at `u64::MAX`
    /// and every latency histogram one bucket holding `u64::MAX`
    /// samples: each field is a value a module could have sent.
    fn saturated(doc: &Value) -> Value {
        const COUNTERS: [&str; 22] = [
            "frames",
            "bytes",
            "errors",
            "fifo_overflow",
            "app",
            "link",
            "unsorted",
            "hits",
            "misses",
            "evictions",
            "invalidations",
            "insert_failures",
            "events_overwritten",
            "events_drained",
            "forwarded",
            "drops_app",
            "drops_unexplained",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_occupancy",
            "dup_chunk_acks",
        ];
        match doc {
            Value::Object(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(key, value)| {
                        let value = match value {
                            Value::UInt(_) if COUNTERS.contains(&key.as_str()) => {
                                Value::UInt(u64::MAX)
                            }
                            Value::Object(_) if key == "latency" => {
                                let mut full = LatencyHistogram::new();
                                full.record_n(700, u64::MAX);
                                full.to_json()
                            }
                            other => saturated(other),
                        };
                        (key.clone(), value)
                    })
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.iter().map(saturated).collect()),
            other => other.clone(),
        }
    }

    #[test]
    fn snapshots_with_every_counter_at_the_maximum_merge_and_render() {
        // Every sum a collector runs over decoded snapshots saturates:
        // `"cache": {"hits": 18446744073709551615, "misses": 1}` alone
        // used to overflow `CacheStats::lookups()` under the hit-ratio
        // family, and two such modules every fleet-wide merge.
        let f = fleet(2);
        for i in 0..2 {
            f.with_module(i, |m| m.run(packets(12)));
        }
        let mut c = FleetCollector::new();
        c.set_slo_spec(SloSpec::generous());
        for honest in f.telemetry_snapshots().into_iter().flatten() {
            let text = saturated(&honest.to_json()).to_string_pretty();
            let doc = Value::parse(&text).expect("well-formed");
            let snapshot = TelemetrySnapshot::from_json(&doc).expect("decodes");
            assert_eq!(snapshot.cache.hits, u64::MAX);
            assert_eq!(snapshot.latency.count(), u64::MAX);
            assert_eq!(snapshot.windows.windows()[0].forwarded, u64::MAX);
            c.ingest(snapshot);
        }
        assert_eq!(c.len(), 2);
        let latency = c.fleet_latency();
        assert_eq!(latency.count(), u64::MAX);
        assert_eq!((latency.p50(), latency.max()), (700, 700));
        let lifetime = c.fleet_windows().lifetime();
        assert_eq!(lifetime.forwarded, u64::MAX);
        assert_eq!(lifetime.packets(), u64::MAX);
        assert_eq!(lifetime.cache_hit_rate(), Some(1.0));
        assert_eq!(c.slo_reports().len(), 2);
        let text = c.render_prometheus();
        assert!(text.contains("flexsfp_flow_cache_hit_ratio{module=\"FSFP-0000\"} 1\n"));
        assert!(!c.to_json().is_empty());

        // The hit-ratio family's first operand pair, as the issue
        // found it: one module, hits at the maximum and one miss.
        let mut one = f.telemetry_snapshots().remove(0).expect("scraped");
        one.cache.hits = u64::MAX;
        one.cache.misses = 1;
        let doc = Value::parse(&one.to_json().to_string_pretty()).expect("well-formed");
        let mut c = FleetCollector::new();
        c.ingest_all(TelemetrySnapshot::from_json(&doc));
        assert!(c
            .render_prometheus()
            .contains("flexsfp_flow_cache_hit_ratio{module=\"FSFP-0000\"} 1\n"));
    }

    #[test]
    fn a_snapshot_with_a_number_beyond_f64_never_reaches_the_renderers() {
        // `1e400` is well-formed JSON whose `f64` is infinite. Decoded,
        // it rendered `flexsfp_temperature_c{…} inf`, which is no
        // exposition text, and exported `null`, which no longer decodes
        // as a snapshot: the parser refuses it instead.
        let f = fleet(1);
        f.with_module(0, |m| m.run(packets(12)));
        let honest = f.telemetry_snapshots().remove(0).expect("scraped");
        let text = honest.to_json().to_string();
        let temp = format!("\"temp_c\":{}", Value::Float(honest.dom.temp_c));
        assert!(text.contains(&temp), "{text}");
        for huge in ["1e400", "-1e400", "1".repeat(400).as_str()] {
            let crafted = text.replace(&temp, &format!("\"temp_c\":{huge}"));
            let parsed = Value::parse(&crafted);
            let mut c = FleetCollector::new();
            c.ingest_all(parsed.iter().filter_map(TelemetrySnapshot::from_json));
            let prom = c.render_prometheus();
            for sample in prom.lines().filter(|l| !l.starts_with('#')) {
                let value = sample.rsplit(' ').next().unwrap_or_default();
                assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{sample}");
            }
            let export = Value::parse(&c.to_json()).expect("the export parses");
            for (id, module) in export.as_object().expect("an object") {
                assert!(
                    TelemetrySnapshot::from_json(&module["snapshot"]).is_some(),
                    "{huge}: {id}'s export does not decode"
                );
            }
            let error = parsed.expect_err(huge);
            assert_eq!(error.message, "number out of range", "{huge}");
            assert_eq!(&crafted[error.offset..][..huge.len()], huge);
        }
    }

    #[test]
    fn reingest_replaces_rather_than_double_counts() {
        let f = fleet(1);
        f.with_module(0, |m| {
            m.run(packets(10));
        });
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        assert_eq!(c.module("FSFP-0000").unwrap().latency.count(), 10);

        // More traffic, second scrape: lifetime count grows to 25 — it
        // must not become 35 by summing the two snapshots.
        f.with_module(0, |m| {
            m.run(packets(15));
        });
        c.ingest_sweep(f.telemetry_snapshots());
        assert_eq!(c.len(), 1);
        assert_eq!(c.module("FSFP-0000").unwrap().latency.count(), 25);
        assert_eq!(c.fleet_latency().count(), 25);
        assert_eq!(c.module("FSFP-0000").unwrap().seq, 2);
    }

    #[test]
    fn event_log_accumulates_across_scrapes_and_stays_bounded() {
        use flexsfp_ppe::engine::DropAll;
        let cfg = ModuleConfig {
            id: "FSFP-0000".into(),
            ..ModuleConfig::default()
        };
        let f = FleetManager::new(vec![FlexSfp::new(cfg, Box::new(DropAll))], AuthKey::DEFAULT);
        let mut c = FleetCollector::new();
        // Each run drops every packet, tracing one event per drop.
        for _ in 0..3 {
            f.with_module(0, |m| {
                m.run(packets(20));
            });
            c.ingest_sweep(f.telemetry_snapshots());
        }
        // 60 events accumulated on the host even though each scrape
        // only carried that round's 20.
        assert_eq!(c.recent_events("FSFP-0000").unwrap().len(), 60);
        assert_eq!(c.module("FSFP-0000").unwrap().events.len(), 20);
        assert_eq!(c.module("FSFP-0000").unwrap().drops.app, 60);
    }

    #[test]
    fn event_log_keeps_the_newest_entries_at_the_cap() {
        let f = fleet(1);
        let mut snap = f.telemetry_snapshots().remove(0).unwrap();
        let numbered = |range: std::ops::Range<u64>| -> Vec<DataplaneEvent> {
            range
                .map(|timestamp_ns| DataplaneEvent {
                    timestamp_ns,
                    kind: flexsfp_obs::EventKind::ParseError,
                })
                .collect()
        };
        let cap = EVENT_LOG_CAPACITY as u64;
        let stamps = |c: &FleetCollector| -> Vec<u64> {
            let log = c.recent_events("FSFP-0000").unwrap();
            log.iter().map(|e| e.timestamp_ns).collect()
        };
        // A first snapshot that alone overflows the log…
        let mut c = FleetCollector::new();
        snap.events = numbered(0..cap + 10);
        c.ingest(snap.clone());
        assert_eq!(stamps(&c), (10..cap + 10).collect::<Vec<_>>());
        // …and a later one that pushes the oldest out.
        snap.events = numbered(cap + 10..cap + 15);
        c.ingest(snap);
        assert_eq!(stamps(&c), (15..cap + 15).collect::<Vec<_>>());
    }

    #[test]
    fn flow_cache_metrics_rendered() {
        use flexsfp_apps::nat::StaticNat;
        use flexsfp_ppe::PacketProcessor;
        let cfg = ModuleConfig {
            id: "FSFP-0000".into(),
            ..ModuleConfig::default()
        };
        let mut nat = StaticNat::new();
        nat.add_mapping(0xc0a80001, 0x65400001).unwrap();
        nat.set_flow_cache(true);
        let f = FleetManager::new(vec![FlexSfp::new(cfg, Box::new(nat))], AuthKey::DEFAULT);
        f.with_module(0, |m| {
            m.run(packets(4));
        });
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        let snap = c.module("FSFP-0000").unwrap();
        // 4 packets of distinct flows (varying sport): all misses.
        assert_eq!(snap.cache.misses, 4);
        let text = c.render_prometheus();
        assert!(
            text.contains("flexsfp_flow_cache_total{module=\"FSFP-0000\",outcome=\"miss\"} 4\n"),
            "missing cache counter in:\n{text}"
        );
        assert!(text.contains("flexsfp_flow_cache_hit_ratio{module=\"FSFP-0000\"} 0\n"));
    }

    #[test]
    fn table_metrics_rendered() {
        use flexsfp_apps::nat::StaticNat;
        let cfg = ModuleConfig {
            id: "FSFP-0000".into(),
            ..ModuleConfig::default()
        };
        let mut nat = StaticNat::new();
        nat.add_mapping(0xc0a80001, 0x65400001).unwrap();
        let f = FleetManager::new(vec![FlexSfp::new(cfg, Box::new(nat))], AuthKey::DEFAULT);
        f.with_module(0, |m| {
            m.run(packets(4));
        });
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        let snap = c.module("FSFP-0000").unwrap();
        assert_eq!(snap.table.capacity, 32_768);
        assert_eq!(snap.table.occupied, 1);
        let text = c.render_prometheus();
        assert!(
            text.contains("flexsfp_table_capacity{module=\"FSFP-0000\"} 32768\n"),
            "missing table capacity in:\n{text}"
        );
        assert!(text.contains("flexsfp_table_entries{module=\"FSFP-0000\"} 1\n"));
        assert!(text.contains("flexsfp_table_insert_failures_total{module=\"FSFP-0000\"} 0\n"));
        assert!(text.contains("flexsfp_table_lookups_total{module=\"FSFP-0000\",outcome="));
        assert!(text.contains("flexsfp_table_load_factor{module=\"FSFP-0000\"} "));
    }

    #[test]
    fn window_slo_and_build_info_metrics_rendered() {
        let f = fleet(2);
        for i in 0..2 {
            f.with_module(i, |m| {
                m.run(packets(50));
            });
        }
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        c.set_slo_spec(SloSpec::generous());
        let text = c.render_prometheus();
        assert!(text.contains("flexsfp_build_info{version=\""), "{text}");
        assert!(text.contains("flexsfp_events_overwritten_total{module=\"FSFP-0000\"}"));
        assert!(text.contains("flexsfp_events_drained_total{module=\"FSFP-0001\"}"));
        assert!(text.contains("flexsfp_window_latency_p999_ns{module=\"FSFP-0000\"}"));
        assert!(text.contains("flexsfp_window_forwarded_pps{module=\"FSFP-0000\"}"));
        assert!(text.contains("flexsfp_fleet_window_latency_p999_ns "));
        assert!(text.contains("flexsfp_slo_healthy{module=\"FSFP-0000\"} 1\n"));
        assert!(text.contains("flexsfp_slo_p999_latency_bound_ns 100000\n"));
        assert!(c.slo_reports().values().all(|r| r.healthy));
        // Both modules' windows merge into the fleet series.
        assert_eq!(c.fleet_windows().lifetime().forwarded, 100);

        // A hostile spec breaches everywhere and flips the gauges.
        c.set_slo_spec(SloSpec {
            p999_latency_ns: 1,
            max_unexplained_drop_rate: 0.0,
            min_cache_hit_rate: 0.0,
        });
        let reports = c.slo_reports();
        assert!(reports.values().all(|r| !r.healthy));
        assert!(reports.values().all(|r| !r.breaches.is_empty()));
        let text = c.render_prometheus();
        assert!(text.contains("flexsfp_slo_healthy{module=\"FSFP-0000\"} 0\n"));
        // Without a spec no SLO families render at all.
        let plain = FleetCollector::new().render_prometheus();
        assert!(!plain.contains("flexsfp_slo_"));
        assert!(plain.contains("flexsfp_build_info{"));
    }

    #[test]
    fn json_export_parses_and_carries_all_modules() {
        let f = fleet(2);
        for i in 0..2 {
            f.with_module(i, |m| {
                m.run(packets(5));
            });
        }
        let mut c = FleetCollector::new();
        c.ingest_sweep(f.telemetry_snapshots());
        let doc = Value::parse(&c.to_json()).unwrap();
        let obj = doc.as_object().unwrap();
        assert_eq!(obj.len(), 2);
        assert_eq!(
            doc["FSFP-0001"]["snapshot"]["app"],
            Value::from("passthrough")
        );
        assert_eq!(
            doc["FSFP-0000"]["snapshot"]["edge_rx"]["frames"],
            Value::from(5u64)
        );
    }

    #[test]
    fn empty_collector_renders_valid_document() {
        let c = FleetCollector::new();
        let text = c.render_prometheus();
        assert!(text.contains("flexsfp_modules 0\n"));
        assert!(text.contains("flexsfp_fleet_latency_ns_count 0\n"));
        assert!(text.contains("flexsfp_scrape_failures_total 0\n"));
        assert_eq!(c.to_json(), "{}");
    }

    #[test]
    fn xbar_family_renders_per_crosspoint_detail() {
        use crate::crossbar::CrossbarSwitch;
        use flexsfp_wire::builder::PacketBuilder;
        use flexsfp_wire::MacAddr;

        let mut sw = CrossbarSwitch::new(4, 2);
        let a = MacAddr([0xa; 6]);
        let b = MacAddr([0xc; 6]);
        let frame =
            |dst, src| PacketBuilder::eth_ipv4_udp(dst, src, 0xc0a80001, 0xc0a80002, 9, 80, b"x");
        sw.insert_flexsfp(0, FlexSfp::passthrough());
        sw.inject(1, frame(a, b), 0);
        sw.drain();
        // Burst into the depth-2 crosspoint (0 → 1): overflows counted.
        for _ in 0..6 {
            sw.inject(0, frame(b, a), 1_000_000);
        }
        sw.drain();

        let mut c = FleetCollector::new();
        c.ingest_all(sw.module_snapshots());
        c.set_xbar_stats("tor0", sw.telemetry());
        assert_eq!(c.xbar("tor0").unwrap().dropped, 3);

        let text = c.render_prometheus();
        assert!(
            text.contains("flexsfp_xbar_ports{switch=\"tor0\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("flexsfp_xbar_depth{switch=\"tor0\"} 2\n"));
        assert!(text.contains("flexsfp_xbar_dropped_total{switch=\"tor0\"} 3\n"));
        assert!(text.contains(
            "flexsfp_xbar_crosspoint_dropped_total{switch=\"tor0\",input=\"0\",output=\"1\"} 3\n"
        ));
        assert!(text.contains(
            "flexsfp_xbar_crosspoint_high_water{switch=\"tor0\",input=\"0\",output=\"1\"} 2\n"
        ));
        assert!(text.contains("flexsfp_xbar_output_grants_total{switch=\"tor0\",output=\"1\"} "));
        // The cage module's ordinary snapshot rides the same collector.
        assert_eq!(c.len(), 1);
        // Without any xbar report the family is absent entirely.
        let plain = FleetCollector::new().render_prometheus();
        assert!(!plain.contains("flexsfp_xbar_"));
    }

    #[test]
    fn ctrl_counters_surface_in_prometheus() {
        use crate::chaos::{FaultPlan, ImpairedPort};
        use crate::mgmt::ManagementClient;

        // One healthy module, one whose channel is dead: the sweep
        // yields 1 snapshot + 1 scrape failure.
        let ports: Vec<ImpairedPort<FlexSfp>> = vec![
            ImpairedPort::new(
                {
                    let cfg = ModuleConfig {
                        id: "FSFP-0000".into(),
                        ..ModuleConfig::default()
                    };
                    FlexSfp::new(cfg, Box::new(flexsfp_ppe::engine::PassThrough))
                },
                FaultPlan::ideal(1),
            ),
            ImpairedPort::new(
                {
                    let cfg = ModuleConfig {
                        id: "FSFP-0001".into(),
                        ..ModuleConfig::default()
                    };
                    FlexSfp::new(cfg, Box::new(flexsfp_ppe::engine::PassThrough))
                },
                FaultPlan::ideal(1).with_drop(1.0),
            ),
        ];
        let f = FleetManager::with_client(ports, ManagementClient::new(AuthKey::DEFAULT));
        let mut c = FleetCollector::new();
        assert_eq!(c.ingest_sweep(f.telemetry_snapshots()), 1);
        assert_eq!(c.scrape_failures(), 1);
        c.set_transport_stats(f.client().transport_stats());
        f.with_module(0, |p| {
            c.set_channel_stats("FSFP-0000", p.stats());
        });

        let text = c.render_prometheus();
        // Module-side FSM counters.
        assert!(text.contains("flexsfp_ctrl_dup_chunk_acks_total{module=\"FSFP-0000\"} 0\n"));
        assert!(text.contains("flexsfp_ctrl_update_aborts_total{module=\"FSFP-0000\"} 0\n"));
        // Host transport counters: the dead module burned retries.
        assert!(text.contains("flexsfp_ctrl_retries_total"));
        assert!(text.contains("flexsfp_ctrl_timeouts_total"));
        assert!(text.contains("flexsfp_ctrl_backoff_ns_total"));
        // Channel fault accounting.
        assert!(
            text.contains("flexsfp_ctrl_link_faults_total{module=\"FSFP-0000\",kind=\"drop\"} 0\n")
        );
        assert!(text.contains("flexsfp_scrape_failures_total 1\n"));
    }
}
