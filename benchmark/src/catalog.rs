//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, each with unit and direction. `BENCHMARK.json`
//! at the repo root states the same lists (plus the regression bounds,
//! which live only there); a unit test keeps the two in step.

/// Default seed: `0x51`, the seed `bench::perf` has always used.
pub const DEFAULT_SEED: u64 = 81;

pub const WORKLOADS: [&str; 5] = ["nat_hot", "flows_256k", "sharded_2", "rack_2tor", "churn"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// The seven end-to-end metrics, reported on every workload.
/// `failed_ratio` must be 0 and therefore cannot carry a relative
/// bound; the driver contract carries it as `attempted`/`failed`.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s", "lower"),
    def("mpps", "Mpkt/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
    def("sim_delivery", "ratio", "higher"),
    def("sim_p50_ns", "sim_ns", "lower"),
    def("sim_p999_ns", "sim_ns", "lower"),
    def("failed_ratio", "ratio", "lower"),
];

/// Per-layer metrics. A workload that does not exercise a layer
/// reports 0 for it (see README, "Reading a zero").
pub const PER_LAYER: &[MetricDef] = &[
    // Exact spans from the traced pass.
    def("traffic.gen.ns_per_pkt", "ns", "lower"),
    def("apps.process.ns_per_pkt", "ns", "lower"),
    def("core.module.self_ns_per_pkt", "ns", "lower"),
    def("core.batch.mean_fill", "pkt/call", "higher"),
    def("core.control.ns_per_op", "ns", "lower"),
    def("core.telemetry.snapshot_us", "us", "lower"),
    def("bench.shard.self_ns_per_pkt", "ns", "lower"),
    def("bench.shard.inline_self_ns_per_pkt", "ns", "lower"),
    def("bench.shard.worker_busy_share", "ratio", "higher"),
    def("bench.shard.backpressure", "count", "lower"),
    def("bench.shard.imbalance", "ratio", "lower"),
    def("bench.shard.frame_copies", "count", "lower"),
    def("bench.shard.chunk_allocs", "count", "lower"),
    def("host.link.carry_ns_per_pkt", "ns", "lower"),
    def("host.crossbar.inject_ns_per_pkt", "ns", "lower"),
    def("host.crossbar.drain_ns_per_pkt", "ns", "lower"),
    def("host.collector.scrape_ms", "ms", "lower"),
    def("host.module.build_ms", "ms", "lower"),
    def("ppe.table.populate_ns_per_entry", "ns", "lower"),
    def("flexbench.loop.self_ns_per_pkt", "ns", "lower"),
    def("flexbench.mpps_raw", "Mpkt/s", "higher"),
    def("flexbench.host_speed", "ratio", "higher"),
    def("trace.overhead_ratio", "ratio", "higher"),
    def("trace.span_coverage", "ratio", "higher"),
    // Counts at the same boundaries; exact for a fixed seed.
    def("ppe.cache.hit_ratio", "ratio", "higher"),
    def("ppe.cache.evictions_per_kpkt", "1/kpkt", "lower"),
    def("ppe.table.hit_ratio", "ratio", "higher"),
    def("ppe.table.load_factor", "ratio", "lower"),
    def("ppe.table.insert_failures", "count", "lower"),
    def("core.drops.fifo_overflow", "count", "lower"),
    def("core.drops.app", "count", "lower"),
    def("core.drops.unsorted", "count", "lower"),
    def("fabric.xbar.queued_share", "ratio", "lower"),
    def("fabric.xbar.dropped", "count", "lower"),
    def("fabric.xbar.high_water", "count", "lower"),
    def("host.link.dropped", "count", "lower"),
    def("host.link.duplicated", "count", "lower"),
    def("host.link.corrupted", "count", "lower"),
    def("wire.arena.allocations", "count", "lower"),
    def("heap.allocs_per_kpkt", "1/kpkt", "lower"),
    def("heap.bytes_per_pkt", "B/pkt", "lower"),
    // Isolated kernels, ns per call unless the unit says otherwise.
    def("ppe.flowkey.extract_ns", "ns", "lower"),
    def("ppe.parser.parse_ns", "ns", "lower"),
    def("ppe.cache.lookup_ns", "ns", "lower"),
    def("ppe.cache.insert_ns", "ns", "lower"),
    def("ppe.table.lookup_ns", "ns", "lower"),
    def("ppe.table.insert_ns", "ns", "lower"),
    def("ppe.table.remove_ns", "ns", "lower"),
    def("fabric.hash.crc32_ns", "ns", "lower"),
    def("fabric.ring.item_ns", "ns", "lower"),
    def("fabric.xbar.offer_arbitrate_ns", "ns", "lower"),
    def("wire.checksum.update_ns", "ns", "lower"),
    def("wire.arena.lease_recycle_ns", "ns", "lower"),
    def("wire.builder.udp_frame_ns", "ns", "lower"),
    def("obs.histogram.record_ns", "ns", "lower"),
    def("obs.json.snapshot_roundtrip_us", "us", "lower"),
    // One line per §3 application (recorded in nat_hot's child).
    def("apps.nat.process_ns_per_pkt", "ns", "lower"),
    def("apps.firewall.process_ns_per_pkt", "ns", "lower"),
    def("apps.vlan-tagger.process_ns_per_pkt", "ns", "lower"),
    def("apps.tunnel-gw.process_ns_per_pkt", "ns", "lower"),
    def("apps.l4-lb.process_ns_per_pkt", "ns", "lower"),
    def("apps.telemetry.process_ns_per_pkt", "ns", "lower"),
    def("apps.rate-limiter.process_ns_per_pkt", "ns", "lower"),
    def("apps.dns-filter.process_ns_per_pkt", "ns", "lower"),
    def("apps.sanitizer.process_ns_per_pkt", "ns", "lower"),
    def("apps.syn-flood-guard.process_ns_per_pkt", "ns", "lower"),
    def("apps.ipv6-filter.process_ns_per_pkt", "ns", "lower"),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{json, APP_NAMES};
    use std::collections::BTreeSet;

    fn benchmark_json() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::Value::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        assert!(PER_LAYER.len() <= 128);
        for app in APP_NAMES {
            assert!(per_layer(&format!("apps.{app}.process_ns_per_pkt")).is_some());
        }
    }

    #[test]
    fn benchmark_json_states_the_same_lists() {
        let b = benchmark_json();
        let workloads: Vec<&str> = b["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        // failed_ratio is always 0, which the contract forbids for a
        // bounded metric; every other end-to-end metric is bounded.
        let bounded: Vec<&MetricDef> = END_TO_END
            .iter()
            .filter(|d| d.name != "failed_ratio")
            .collect();
        let listed = b["end_to_end"].as_array().unwrap();
        assert_eq!(listed.len(), bounded.len());
        for (entry, d) in listed.iter().zip(bounded) {
            assert_eq!(entry["name"].as_str(), Some(d.name));
            assert_eq!(entry["unit"].as_str(), Some(d.unit));
            assert_eq!(entry["better"].as_str(), Some(d.better));
            let bound = entry["bound"].as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let listed = b["per_layer"].as_array().unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, d) in listed.iter().zip(PER_LAYER) {
            assert_eq!(entry["name"].as_str(), Some(d.name));
            assert_eq!(entry["unit"].as_str(), Some(d.unit));
            assert_eq!(entry["better"].as_str(), Some(d.better));
        }
        assert_eq!(b["paths"].as_array().unwrap().len(), 1);
        assert_eq!(b["paths"][0].as_str(), Some("benchmark"));
    }
}
