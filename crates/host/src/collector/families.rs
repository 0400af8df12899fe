//! The `flexsfp_*` metric families, each declared once, and the one
//! loop that renders them.
//!
//! [`FAMILIES`] is the whole exposition in document order. An entry
//! states a family's name, help and kind, and — as its [`Scope`]
//! variant — where its samples come from plus the plain `fn` that
//! reads one instance of that scope. [`render`] alone writes headers,
//! walks scopes, supplies the `module=`/`switch=` label and decides
//! presence; adding a family is one entry in the table.

use super::{FleetCollector, GIT_DESCRIBE};
use crate::chaos::ImpairStats;
use crate::mgmt::TransportStats;
use flexsfp_obs::prometheus::Label::{self, Int, Text};
use flexsfp_obs::{
    CrosspointCounters, LatencyHistogram, PortCounters, PromText, SloReport, SloSpec,
    TelemetrySnapshot, WindowBucket, WindowedSeries, XbarTelemetry,
};

const VERSION: &str = env!("CARGO_PKG_VERSION");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Summary,
}

/// Where a family's samples come from: what its `fn` reads one
/// instance of, and thereby when the family is in the document.
enum Scope {
    /// The collector itself: always present, no scope label.
    Fleet(fn(&FleetCollector, &mut Samples<'_>)),
    /// Each module's latest snapshot (`module=`); the header is
    /// present even with no modules.
    Module(fn(&TelemetrySnapshot, &mut Samples<'_>)),
    /// Each module's merged live windows (`module=`); present as
    /// `Module`.
    Window(fn(&Recent, &mut Samples<'_>)),
    /// Each module's SLO verdict (`module=`), when a spec is set.
    Slo(fn(&SloReport, &mut Samples<'_>)),
    /// The SLO spec, when set.
    Spec(fn(&SloSpec, &mut Samples<'_>)),
    /// The management client's transport counters, when set.
    Transport(fn(&TransportStats, &mut Samples<'_>)),
    /// Each reporting control channel (`module=`), when any reports.
    Channel(fn(&ImpairStats, &mut Samples<'_>)),
    /// Each reporting crossbar (`switch=`), when any reports.
    Xbar(fn(&XbarTelemetry, &mut Samples<'_>)),
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: Kind,
    scope: Scope,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }

    /// One entry of [`FAMILIES`]: `Counter.family(name, help, scope)`.
    const fn family(self, name: &'static str, help: &'static str, scope: Scope) -> Family {
        Family {
            name,
            help,
            kind: self,
            scope,
        }
    }
}

/// The samples of one family: what a family's `fn` writes to. The
/// renderer sets the scope label; the `fn` adds only its own.
struct Samples<'a> {
    p: &'a mut PromText,
    name: &'a str,
    scope: Option<(&'a str, &'a str)>,
}

impl<'a> Samples<'a> {
    /// One sample named by `name`'s parts, the scope label first. The
    /// labels are chained, not collected, and each is written straight
    /// into the document.
    fn put_as(&mut self, name: &[&str], labels: &[(&str, Label<'_>)], value: f64) {
        let scope = self.scope.map(|(k, v)| (k, Text(v)));
        let labels = scope.into_iter().chain(labels.iter().copied());
        self.p.sample(name, labels, value);
    }

    /// One sample carrying `labels` after the scope label.
    fn put(&mut self, labels: &[(&str, Label<'_>)], value: f64) {
        self.put_as(&[self.name], labels, value);
    }

    /// The one sample of a family with no labels of its own.
    fn value(&mut self, value: f64) {
        self.put(&[], value);
    }

    /// One sample per `(label value, count)` pair under label `key`.
    fn by(&mut self, key: &str, counts: &[(&str, u64)]) {
        for (v, n) in counts {
            self.put(&[(key, Text(v))], *n as f64);
        }
    }

    /// A summary's quantile samples and its derived `_sum`/`_count`.
    fn summary(&mut self, h: &LatencyHistogram) {
        for (q, v) in [
            ("0.5", h.p50()),
            ("0.9", h.p90()),
            ("0.99", h.p99()),
            ("0.999", h.p999()),
        ] {
            self.put(&[("quantile", Text(q))], v as f64);
        }
        let name = self.name;
        self.put_as(&[name, "_sum"], &[], h.sum());
        self.put_as(&[name, "_count"], &[], h.count() as f64);
    }

    /// Run `emit` once per `(id, instance)`, under `label="id"`.
    fn each<T: 'a>(
        &mut self,
        label: &'a str,
        items: impl IntoIterator<Item = (&'a String, &'a T)>,
        emit: fn(&T, &mut Samples<'_>),
    ) {
        for (id, item) in items {
            self.scope = Some((label, id));
            emit(item, self);
        }
    }
}

/// Merge of a series' live (in-ring) windows only — the "recent" view
/// the window gauges are computed from (the evicted catch-all belongs
/// to the lifetime figures).
struct Recent {
    bucket: WindowBucket,
    /// Forwarding rate over the retained windows, packets per second.
    forwarded_pps: f64,
}

impl Recent {
    fn of(series: &WindowedSeries) -> Recent {
        let live = series.windows();
        let mut bucket = WindowBucket::default();
        for w in live {
            bucket.merge(w);
        }
        let span_ns = live.len() as f64 * series.width_ns() as f64;
        let forwarded_pps = if live.is_empty() {
            0.0
        } else {
            bucket.forwarded as f64 * 1e9 / span_ns
        };
        Recent {
            bucket,
            forwarded_pps,
        }
    }
}

/// One sample per port (edge/optical) and direction (rx/tx).
fn ports(s: &TelemetrySnapshot, out: &mut Samples<'_>, get: fn(&PortCounters) -> u64) {
    for (port, dir, c) in [
        ("edge", "rx", &s.edge_rx),
        ("edge", "tx", &s.edge_tx),
        ("optical", "rx", &s.optical_rx),
        ("optical", "tx", &s.optical_tx),
    ] {
        out.put(
            &[("port", Text(port)), ("direction", Text(dir))],
            get(c) as f64,
        );
    }
}

/// One sample per crosspoint that ever saw a frame.
fn crosspoints(x: &XbarTelemetry, out: &mut Samples<'_>, get: fn(&CrosspointCounters) -> u64) {
    for c in &x.crosspoints {
        out.put(
            &[("input", Int(c.input)), ("output", Int(c.output))],
            get(c) as f64,
        );
    }
}

use Kind::{Counter, Gauge, Summary};
use Scope::{Channel, Fleet, Module, Slo, Spec, Transport, Window, Xbar};

/// Every family the collector exports, in document order.
static FAMILIES: &[Family] = &[
    Gauge.family(
        "flexsfp_build_info",
        "Collector build identity (value is always 1).",
        Fleet(|_, out| {
            out.put(
                &[("version", Text(VERSION)), ("git", Text(GIT_DESCRIBE))],
                1.0,
            )
        }),
    ),
    Gauge.family(
        "flexsfp_modules",
        "Modules reporting telemetry.",
        Fleet(|c, out| out.value(c.modules.len() as f64)),
    ),
    Gauge.family(
        "flexsfp_app_info",
        "Running packet-processing application (value is always 1).",
        Module(|s, out| {
            let version = u64::from(s.app_version);
            out.put(&[("app", Text(&s.app)), ("version", Int(version))], 1.0);
        }),
    ),
    Counter.family(
        "flexsfp_boots_total",
        "Lifetime module boot count.",
        Module(|s, out| out.value(f64::from(s.boots))),
    ),
    Counter.family(
        "flexsfp_frames_total",
        "Frames per module, port (edge/optical) and direction (rx/tx).",
        Module(|s, out| ports(s, out, |c| c.frames)),
    ),
    Counter.family(
        "flexsfp_bytes_total",
        "Bytes per module, port (edge/optical) and direction (rx/tx).",
        Module(|s, out| ports(s, out, |c| c.bytes)),
    ),
    Counter.family(
        "flexsfp_errors_total",
        "Errored frames per module, port and direction.",
        Module(|s, out| ports(s, out, |c| c.errors)),
    ),
    Counter.family(
        "flexsfp_drops_total",
        "Packets dropped, by module and reason.",
        Module(|s, out| {
            let d = &s.drops;
            let counts = [
                ("fifo_overflow", d.fifo_overflow),
                ("app", d.app),
                ("link", d.link),
                ("unsorted", d.unsorted),
            ];
            out.by("reason", &counts);
        }),
    ),
    Counter.family(
        "flexsfp_flow_cache_total",
        "Microflow action cache lookups, by module and outcome.",
        Module(|s, out| {
            let c = &s.cache;
            let counts = [
                ("hit", c.hits),
                ("miss", c.misses),
                ("eviction", c.evictions),
                ("invalidation", c.invalidations),
            ];
            out.by("outcome", &counts);
        }),
    ),
    Gauge.family(
        "flexsfp_flow_cache_hit_ratio",
        "Microflow cache hit ratio over the module lifetime (0 when the cache is unused).",
        Module(|s, out| out.value(s.cache.hit_rate())),
    ),
    Counter.family(
        "flexsfp_table_lookups_total",
        "Exact-match table lookups, by module and outcome.",
        Module(|s, out| {
            let t = &s.table;
            out.by("outcome", &[("hit", t.hits), ("miss", t.misses)]);
        }),
    ),
    Counter.family(
        "flexsfp_table_insert_failures_total",
        "Exact-match table inserts rejected with a full bucket.",
        Module(|s, out| out.value(s.table.insert_failures as f64)),
    ),
    Gauge.family(
        "flexsfp_table_entries",
        "Occupied exact-match table entries (0 when the app has no table).",
        Module(|s, out| out.value(s.table.occupied as f64)),
    ),
    Gauge.family(
        "flexsfp_table_capacity",
        "Total exact-match table entry slots (buckets x ways).",
        Module(|s, out| out.value(s.table.capacity as f64)),
    ),
    Gauge.family(
        "flexsfp_table_load_factor",
        "Exact-match table occupancy as a fraction of capacity.",
        Module(|s, out| out.value(s.table.load_factor())),
    ),
    Summary.family(
        "flexsfp_latency_ns",
        "Per-module lifetime forwarding latency, nanoseconds.",
        Module(|s, out| out.summary(&s.latency)),
    ),
    Summary.family(
        "flexsfp_fleet_latency_ns",
        "Fleet-wide forwarding latency (per-module histograms merged).",
        Fleet(|c, out| out.summary(&c.fleet_latency())),
    ),
    Gauge.family(
        "flexsfp_laser_healthy",
        "1 when the laser is diagnosed healthy, else 0.",
        Module(|s, out| out.value(f64::from(u8::from(s.laser_healthy)))),
    ),
    Gauge.family(
        "flexsfp_laser_fault_info",
        "Current laser fault diagnosis label (value is always 1).",
        Module(|s, out| out.put(&[("fault", Text(&s.laser_fault))], 1.0)),
    ),
    Gauge.family(
        "flexsfp_tx_power_dbm",
        "DOM transmit optical power, dBm.",
        Module(|s, out| out.value(s.dom.tx_power_dbm)),
    ),
    Gauge.family(
        "flexsfp_rx_power_dbm",
        "DOM receive optical power, dBm.",
        Module(|s, out| out.value(s.dom.rx_power_dbm)),
    ),
    Gauge.family(
        "flexsfp_bias_ma",
        "DOM laser bias current, mA.",
        Module(|s, out| out.value(s.dom.bias_ma)),
    ),
    Gauge.family(
        "flexsfp_temperature_c",
        "Module case temperature, °C.",
        Module(|s, out| out.value(s.dom.temp_c)),
    ),
    Counter.family(
        "flexsfp_events_overwritten_total",
        "Dataplane events lost to ring overwrite before draining.",
        Module(|s, out| out.value(s.events_overwritten as f64)),
    ),
    Counter.family(
        "flexsfp_events_drained_total",
        "Dataplane events drained over all scrapes.",
        Module(|s, out| out.value(s.events_drained as f64)),
    ),
    // Windowed (recent) views, computed over the live ring only — the
    // lifetime histogram above cannot show a regression that started a
    // minute ago; these can.
    Gauge.family(
        "flexsfp_window_latency_p999_ns",
        "p99.9 forwarding latency over the retained windows, nanoseconds.",
        Window(|r, out| out.value(r.bucket.latency.p999() as f64)),
    ),
    Gauge.family(
        "flexsfp_window_forwarded_pps",
        "Forwarding rate over the retained windows, packets per second.",
        Window(|r, out| out.value(r.forwarded_pps)),
    ),
    Gauge.family(
        "flexsfp_window_unexplained_drop_ratio",
        "Unexplained drops / packets over the retained windows.",
        Window(|r, out| out.value(r.bucket.unexplained_drop_rate())),
    ),
    Gauge.family(
        "flexsfp_fleet_window_latency_p999_ns",
        "Fleet-wide p99.9 over the retained windows (bucket-merged).",
        Fleet(|c, out| {
            let recent = Recent::of(&c.fleet_windows());
            out.value(recent.bucket.latency.p999() as f64);
        }),
    ),
    Gauge.family(
        "flexsfp_slo_healthy",
        "1 when the module meets the fleet SLO spec over its windows.",
        Slo(|r, out| out.value(f64::from(u8::from(r.healthy)))),
    ),
    Gauge.family(
        "flexsfp_slo_breached_windows",
        "Windows breaching the SLO spec in the latest evaluation.",
        Slo(|r, out| out.value(r.breaches.len() as f64)),
    ),
    Gauge.family(
        "flexsfp_slo_windows_evaluated",
        "Non-empty windows evaluated against the SLO spec.",
        Slo(|r, out| out.value(r.windows_evaluated as f64)),
    ),
    Gauge.family(
        "flexsfp_slo_p999_latency_bound_ns",
        "Configured p99.9 latency bound, nanoseconds.",
        Spec(|spec, out| out.value(spec.p999_latency_ns as f64)),
    ),
    Gauge.family(
        "flexsfp_slo_max_unexplained_drop_rate",
        "Configured unexplained-drop ceiling (fraction of packets).",
        Spec(|spec, out| out.value(spec.max_unexplained_drop_rate)),
    ),
    Gauge.family(
        "flexsfp_slo_min_cache_hit_rate",
        "Configured flow-cache hit-rate floor.",
        Spec(|spec, out| out.value(spec.min_cache_hit_rate)),
    ),
    // Control-channel resilience counters (§5.3): the module-side
    // update FSM view…
    Counter.family(
        "flexsfp_ctrl_dup_chunk_acks_total",
        "Retransmitted update chunks acknowledged idempotently.",
        Module(|s, out| out.value(s.ctrl.dup_chunk_acks as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_update_aborts_total",
        "In-progress updates torn down by AbortUpdate.",
        Module(|s, out| out.value(s.ctrl.update_aborts as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_update_errors_total",
        "Update protocol requests rejected by the FSM.",
        Module(|s, out| out.value(s.ctrl.update_errors as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_status_queries_total",
        "QueryUpdate progress probes answered.",
        Module(|s, out| out.value(s.ctrl.status_queries as f64)),
    ),
    // …the host-side transport view…
    Counter.family(
        "flexsfp_ctrl_retries_total",
        "Control requests retransmitted after a timeout.",
        Transport(|t, out| out.value(t.retries as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_timeouts_total",
        "Control exchanges that got no response.",
        Transport(|t, out| out.value(t.timeouts as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_aborts_sent_total",
        "AbortUpdate teardowns sent by the client.",
        Transport(|t, out| out.value(t.aborts_sent as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_resyncs_total",
        "Deploy resynchronisations via QueryUpdate.",
        Transport(|t, out| out.value(t.resyncs as f64)),
    ),
    Counter.family(
        "flexsfp_ctrl_backoff_ns_total",
        "Cumulative virtual retry backoff, nanoseconds.",
        Transport(|t, out| out.value(t.backoff_ns as f64)),
    ),
    // …and the cable's own fault accounting, when fault injection (or
    // an equivalently instrumented channel) is in the path.
    Counter.family(
        "flexsfp_ctrl_link_faults_total",
        "Control-channel faults by module and kind.",
        Channel(|s, out| {
            let counts = [
                ("drop", s.request_drops + s.response_drops),
                ("duplicate", s.duplicates),
                ("corruption", s.corruptions),
                ("flap", s.flaps),
                ("unanswered", s.unanswered),
            ];
            out.by("kind", &counts);
        }),
    ),
    // The crossbar fabric, when a rack switch reports: aggregate
    // geometry and flow, per-output arbitration, and the sparse
    // per-crosspoint queue detail.
    Gauge.family(
        "flexsfp_xbar_ports",
        "Crossbar port count (the matrix is square).",
        Xbar(|x, out| out.value(x.ports as f64)),
    ),
    Gauge.family(
        "flexsfp_xbar_depth",
        "Slots per crosspoint queue.",
        Xbar(|x, out| out.value(x.depth as f64)),
    ),
    Counter.family(
        "flexsfp_xbar_enqueued_total",
        "Frames accepted into crosspoint queues.",
        Xbar(|x, out| out.value(x.enqueued as f64)),
    ),
    Counter.family(
        "flexsfp_xbar_granted_total",
        "Frames granted by output arbitration.",
        Xbar(|x, out| out.value(x.granted as f64)),
    ),
    Counter.family(
        "flexsfp_xbar_dropped_total",
        "Frames rejected on a full crosspoint queue.",
        Xbar(|x, out| out.value(x.dropped as f64)),
    ),
    Gauge.family(
        "flexsfp_xbar_queued",
        "Frames currently parked in crosspoint queues.",
        Xbar(|x, out| out.value(x.queued() as f64)),
    ),
    Gauge.family(
        "flexsfp_xbar_depth_high_water",
        "Deepest occupancy any crosspoint ever reached.",
        Xbar(|x, out| out.value(x.high_water as f64)),
    ),
    Counter.family(
        "flexsfp_xbar_output_grants_total",
        "Arbitration grants issued, by switch and output port.",
        Xbar(|x, out| {
            for (output, n) in x.output_grants.iter().enumerate() {
                out.put(&[("output", Int(output as u64))], *n as f64);
            }
        }),
    ),
    Counter.family(
        "flexsfp_xbar_crosspoint_enqueued_total",
        "Frames accepted, by switch and crosspoint (sparse).",
        Xbar(|x, out| crosspoints(x, out, |c| c.enqueued)),
    ),
    Counter.family(
        "flexsfp_xbar_crosspoint_dropped_total",
        "Frames rejected on a full queue, by switch and crosspoint (sparse).",
        Xbar(|x, out| crosspoints(x, out, |c| c.dropped)),
    ),
    Gauge.family(
        "flexsfp_xbar_crosspoint_high_water",
        "Deepest queue occupancy, by switch and crosspoint (sparse).",
        Xbar(|x, out| crosspoints(x, out, |c| c.high_water)),
    ),
    Counter.family(
        "flexsfp_scrape_failures_total",
        "Sweep entries that failed to scrape (module unreachable).",
        Fleet(|c, out| out.value(c.scrape_failures as f64)),
    ),
];

/// Render the fleet as Prometheus text exposition.
pub(super) fn render(c: &FleetCollector) -> String {
    let mut p = PromText::new();
    // Merged once per module per render, read by every `Window` family.
    let recents: Vec<Recent> = c
        .modules
        .values()
        .map(|rec| Recent::of(&rec.snapshot.windows))
        .collect();
    let reports = c.slo_reports();
    for f in FAMILIES {
        // Presence: fleet, module and window families are always in the
        // document; the rest only when their source is set.
        match f.scope {
            Slo(_) | Spec(_) if c.slo.is_none() => continue,
            Transport(_) if c.transport.is_none() => continue,
            Channel(_) if c.channels.is_empty() => continue,
            Xbar(_) if c.xbars.is_empty() => continue,
            _ => {}
        }
        p.header(f.name, f.help, f.kind.as_str());
        let mut out = Samples {
            p: &mut p,
            name: f.name,
            scope: None,
        };
        match f.scope {
            Fleet(emit) => emit(c, &mut out),
            Module(emit) => {
                let snapshots = c.modules.iter().map(|(id, rec)| (id, &rec.snapshot));
                out.each("module", snapshots, emit);
            }
            Window(emit) => out.each("module", c.modules.keys().zip(&recents), emit),
            Slo(emit) => out.each("module", &reports, emit),
            Spec(emit) => c.slo.iter().for_each(|spec| emit(spec, &mut out)),
            Transport(emit) => c.transport.iter().for_each(|t| emit(t, &mut out)),
            Channel(emit) => out.each("module", &c.channels, emit),
            Xbar(emit) => out.each("switch", &c.xbars, emit),
        }
    }
    p.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What only a declared table can be asked: every family is named
    /// and typed by the conventions before it is ever rendered.
    #[test]
    fn family_table_follows_the_naming_conventions() {
        let mut names = std::collections::BTreeSet::new();
        for f in FAMILIES {
            let name = f.name;
            assert!(names.insert(name), "{name} declared twice");
            let rest = name.strip_prefix("flexsfp_").unwrap_or("");
            assert!(
                !rest.is_empty()
                    && rest
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} does not match ^flexsfp_[a-z0-9_]+$"
            );
            assert_eq!(
                f.kind == Kind::Counter,
                name.ends_with("_total"),
                "{name}: counters, and only counters, end in _total"
            );
            assert!(
                f.help.len() > 1 && f.help.ends_with('.'),
                "{name}: help is a sentence ending in a full stop"
            );
        }
    }
}
