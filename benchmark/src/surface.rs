//! The one file through which the benchmark touches the program.
//!
//! Every other file imports program items from here and nowhere else,
//! so when a later change moves, renames or deletes a public item the
//! fix is in this file only. The items are listed in
//! `benchmark/README.md`; keep the two in step.
//!
//! Deliberately absent: `LegacySwitch`, `run_sharded_timed` /
//! `TimedTransport`, and `bench::{perf, soak, rack, slo}::run`. ROADMAP
//! item 3 plans to fold or delete them, and the benchmark must survive
//! that.

// obs: histogram, JSON codec, telemetry types.
pub use flexsfp_obs::{
    impl_json_struct, json, CacheStats, DataplaneEvent, FlightStamp, FromJson, LatencyHistogram,
    TableTelemetry, TelemetrySnapshot, ToJson,
};
// wire: frames, arena, checksum.
pub use flexsfp_wire::checksum::update32 as checksum_update32;
pub use flexsfp_wire::{MacAddr, PacketArena, PacketBuilder};
// fabric: hash, ring, crosspoint matrix.
pub use flexsfp_fabric::hash::crc32;
pub use flexsfp_fabric::ring::channel as ring_channel;
pub use flexsfp_fabric::{CrosspointMatrix, ResourceManifest};
// ppe: processor contract, flow cache, tables, parser.
pub use flexsfp_ppe::engine::{
    BatchPacket, PassThrough, ProcessContext, TableOp, TableOpResult, Verdict,
};
pub use flexsfp_ppe::{
    ActionPlan, Direction, FlowCache, FlowKey, HashTable, PacketProcessor, Parser,
};
// core: the module, its streaming session, the in-band control plane.
pub use flexsfp_core::control::{ControlPlane, ControlRequest, CtlTableOp, CONTROL_PORT};
pub use flexsfp_core::module::{
    FlexSfp, Interface, ModuleConfig, OutputPacket, SimPacket, SimReport,
};
pub use flexsfp_core::ShellKind;
// apps: the eleven §3 applications.
pub use flexsfp_apps::sanitizer::SanitizerPolicy;
pub use flexsfp_apps::tunnel::TunnelKind;
pub use flexsfp_apps::{
    AclAction, AclFirewall, AclRule, DnsFilter, Ipv6SubscriberFilter, L4LoadBalancer,
    PerSourceRateLimiter, Sanitizer, StaticNat, SynFloodGuard, TelemetryProbe, TunnelGateway,
    VlanTagger,
};
// host: crossbar ToR, lossy spans, fleet collector.
pub use flexsfp_host::{
    CrossbarStats, CrossbarSwitch, FaultPlan, FiberLink, FleetCollector, LinkChaosStats, LossyLink,
    TimedDelivery,
};
// traffic: generator and presets.
pub use flexsfp_traffic::gen::ArrivalModel;
pub use flexsfp_traffic::profiles::{flash_crowd, metro_subscribers};
pub use flexsfp_traffic::{SizeModel, TraceBuilder, TracePacket, TraceStream};
// bench: the sharded dataplane and its parallelism policy.
pub use flexsfp_bench::par::effective_parallelism;
pub use flexsfp_bench::shard::{run_sharded, ShardedRun};

/// Names of the §3 applications, as each reports itself.
pub const APP_NAMES: [&str; 11] = [
    "nat",
    "firewall",
    "vlan-tagger",
    "tunnel-gw",
    "l4-lb",
    "telemetry",
    "rate-limiter",
    "dns-filter",
    "sanitizer",
    "syn-flood-guard",
    "ipv6-filter",
];

/// Private source block of the NAT workloads (192.168.0.0).
pub const PRIVATE_BASE: u32 = 0xc0a8_0000;
/// Public pool the NAT workloads translate into (101.64.0.0).
pub const PUBLIC_BASE: u32 = 0x6540_0000;

/// One §3 application by its own name, configured as
/// `crates/bench/tests/stream_parity.rs::app_by_name` configures it.
pub fn app_by_name(name: &str) -> Box<dyn PacketProcessor> {
    match name {
        "nat" => {
            let mut nat = StaticNat::new();
            for i in 0..4096u32 {
                nat.add_mapping(PRIVATE_BASE + i, PUBLIC_BASE + i)
                    .expect("4 096 mappings fit the prototype table");
            }
            Box::new(nat)
        }
        "firewall" => {
            let mut fw = AclFirewall::new(64);
            fw.add_rule(AclRule {
                src: Some((PRIVATE_BASE, 28)),
                dst: None,
                protocol: Some(17),
                src_port: None,
                dst_port: None,
                priority: 1,
                action: AclAction::Permit,
            });
            Box::new(fw)
        }
        "dns-filter" => Box::new(DnsFilter::new()),
        "ipv6-filter" => Box::new(Ipv6SubscriberFilter::new()),
        "l4-lb" => Box::new(L4LoadBalancer::new(
            0x0a00_0005,
            80,
            vec![0x0a00_0101, 0x0a00_0102],
        )),
        "rate-limiter" => Box::new(PerSourceRateLimiter::new()),
        "sanitizer" => Box::new(Sanitizer::new(SanitizerPolicy::default())),
        "syn-flood-guard" => Box::new(SynFloodGuard::new(1024, 100, 1_000_000)),
        "telemetry" => Box::new(TelemetryProbe::new(256, 1_000_000, 50_000)),
        "tunnel-gw" => Box::new(TunnelGateway::new(
            TunnelKind::Gre { key: 7 },
            0x0a00_0001,
            0x0a00_0002,
        )),
        "vlan-tagger" => Box::new(VlanTagger::new(100)),
        other => panic!("unknown app {other}"),
    }
}

/// An authenticated in-band control frame carrying one table op,
/// addressed to the module `config` describes.
pub fn control_frame(config: &ModuleConfig, op: CtlTableOp) -> Vec<u8> {
    let payload = ControlPlane::encode_request(&config.auth_key, &ControlRequest::Table(op));
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        MacAddr([0xee; 6]),
        0x0a00_0101,
        config.mgmt_ip,
        40_000,
        CONTROL_PORT,
        &payload,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_reports_the_name_it_is_built_under() {
        for name in APP_NAMES {
            assert_eq!(app_by_name(name).name(), name);
        }
    }
}
