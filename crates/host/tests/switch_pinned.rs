//! One seeded switch run, pinned whole.
//!
//! An 8-port, depth-3 crossbar — six pass-through FlexSFP cages, one
//! plain SFP, one ACL firewall screening the uplink's ingress — takes
//! 60 000 seeded injections: bursts at one instant that converge on one
//! output (so crosspoints queue and overflow), unknown destinations
//! that flood, stations that move, runts, denied sources. Everything
//! the run can show is folded into literals computed once on the code
//! that visited every queue and ran a whole module simulation per
//! frame: every delivery (departure time, port, frame bytes, in the
//! order `inject` and `drain` hand them back), the exact
//! [`CrossbarStats`], and the collector's Prometheus and JSON documents
//! over the switch telemetry and all seven module snapshots (so every
//! module's lifetime latency histogram, window series, port counters
//! and event ring is in the digest too), and the `Debug` text of what
//! that JSON decodes back to.
//!
//! A change that makes the inject path cheaper must leave all five
//! alone. One that means to change behaviour updates the literals and
//! says why; one that changes only the JSON wire form moves the JSON
//! digest and leaves the decoded one.

use flexsfp_apps::{AclAction, AclFirewall, AclRule};
use flexsfp_core::module::{FlexSfp, ModuleConfig};
use flexsfp_core::ShellKind;
use flexsfp_host::{CrossbarStats, CrossbarSwitch, FleetCollector, SwitchStats, TimedDelivery};
use flexsfp_obs::{DataplaneEvent, FromJson, TelemetrySnapshot, Value};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{fnv1a, MacAddr, FNV1A_OFFSET};

const PORTS: usize = 8;
const DEPTH: usize = 3;
const UPLINK: usize = 7;
/// The port left a standard SFP, so runts reach the bridge itself.
const PLAIN: usize = 6;
const INJECTIONS: usize = 60_000;
/// Stations 0–7 live on the port of their number; 8–11 never send, so
/// frames to them flood for the whole run.
const STATIONS: u64 = 12;
const SEED: u64 = 0x5317_c4ed;
/// The /24 the uplink firewall denies on its wire-side ingress.
const DENIED: (u32, u8) = (0x0a63_0000, 24);

fn station(i: u64) -> MacAddr {
    MacAddr([0x02, 0x5a, 0, 0, 0, i as u8])
}

fn build_switch() -> CrossbarSwitch {
    let mut sw = CrossbarSwitch::new(PORTS, DEPTH);
    for port in 0..PLAIN {
        let cfg = ModuleConfig {
            id: format!("sw-p{port}"),
            ..ModuleConfig::default()
        };
        sw.insert_flexsfp(port, FlexSfp::new(cfg, Box::new(PassThrough)));
    }
    let mut fw = AclFirewall::new(16);
    fw.screen_direction = Some(Direction::OpticalToEdge);
    fw.add_rule(AclRule {
        src: Some(DENIED),
        dst: None,
        protocol: None,
        src_port: None,
        dst_port: None,
        priority: 1,
        action: AclAction::Deny,
    });
    let cfg = ModuleConfig {
        id: "sw-uplink".into(),
        shell: ShellKind::OneWayFilter {
            ppe_direction: Direction::OpticalToEdge,
        },
        ..ModuleConfig::default()
    };
    sw.insert_flexsfp(UPLINK, FlexSfp::new(cfg, Box::new(fw)));
    sw
}

/// The order-sensitive digest of a delivery stream.
fn fold(digest: &mut u64, deliveries: &[TimedDelivery]) {
    for d in deliveries {
        let mut h = fnv1a(*digest, &d.departure_ns.to_le_bytes());
        h = fnv1a(h, &(d.port as u32).to_le_bytes());
        h = fnv1a(h, &(d.frame.len() as u32).to_le_bytes());
        *digest = fnv1a(h, &d.frame);
    }
}

/// Replace the value of the one label that moves with every commit.
fn normalise(text: &str) -> String {
    let Some(start) = text.find("git=\"") else {
        return text.to_string();
    };
    let value = start + "git=\"".len();
    let end = value + text[value..].find('"').expect("closing quote");
    format!("{}GIT{}", &text[..value], &text[end..])
}

struct Run {
    deliveries: u64,
    digest: u64,
    stats: CrossbarStats,
    prometheus: u64,
    json: u64,
    decoded: u64,
}

/// The FNV-1a of the `Debug` text of every module's snapshot and event
/// log as the export's text decodes them: a change to the wire form
/// alone moves the hash of the text, not this.
fn decoded(collector: &FleetCollector) -> u64 {
    let doc = Value::parse(&collector.to_json()).expect("the export parses");
    let modules: Vec<_> = doc
        .as_object()
        .expect("an object of modules")
        .iter()
        .map(|(id, module)| {
            let snapshot = TelemetrySnapshot::from_json(&module["snapshot"]);
            let events = Vec::<DataplaneEvent>::from_json(&module["recent_events"]);
            assert_eq!(snapshot.as_ref(), collector.module(id), "{id}");
            (id, snapshot, events)
        })
        .collect();
    fnv1a(FNV1A_OFFSET, format!("{modules:?}").as_bytes())
}

fn run() -> Run {
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let mut sw = build_switch();
    let (mut digest, mut deliveries) = (FNV1A_OFFSET, 0u64);
    let mut t_ns = 0u64;
    for step in 0..INJECTIONS {
        // Most injections share an instant with the one before (a
        // burst); the gaps between bursts let the outputs catch up.
        t_ns += [0, 0, 0, 40, 300, 1_500, 9_000][rng.range_usize(0, 7)];
        let port = rng.range_usize(0, PORTS);
        let (port, frame) = if step % 997 == 996 {
            // A runt, on the plain port and on a module port in turn.
            let on = if step % 2 == 0 { PLAIN } else { 2 };
            (on, vec![0x55; rng.range_usize(1, 14)])
        } else {
            // A station usually sends from its own port; now and then it
            // shows up on another one and the bridge re-learns it.
            let src = if rng.chance(0.02) {
                rng.range_u64(0, 8)
            } else {
                port as u64
            };
            // Half the traffic converges on the uplink's station.
            let dst = if rng.chance(0.5) {
                UPLINK as u64
            } else {
                rng.range_u64(0, STATIONS)
            };
            let dst_mac = if rng.chance(0.01) {
                MacAddr([0xff; 6])
            } else {
                station(dst)
            };
            // One source in sixteen sits in the prefix the uplink denies.
            let src_ip = if rng.chance(1.0 / 16.0) {
                DENIED.0 + rng.range_u64(1, 255) as u32
            } else {
                0x0a00_0000 + rng.range_u64(1, 4_096) as u32
            };
            let payload = vec![step as u8; [18, 86, 470, 1_458][rng.range_usize(0, 4)]];
            let frame = PacketBuilder::eth_ipv4_udp(
                dst_mac,
                station(src),
                src_ip,
                0x0a01_0000 + dst as u32,
                4_000 + (step % 61) as u16,
                443,
                &payload,
            );
            (port, frame)
        };
        let out = sw.inject(port, frame, t_ns);
        deliveries += out.len() as u64;
        fold(&mut digest, &out);
    }
    let out = sw.drain();
    deliveries += out.len() as u64;
    fold(&mut digest, &out);

    let mut collector = FleetCollector::new();
    collector.ingest_all(sw.module_snapshots());
    collector.set_xbar_stats("sw", sw.telemetry());
    Run {
        deliveries,
        digest,
        stats: sw.stats(),
        prometheus: fnv1a(
            FNV1A_OFFSET,
            normalise(&collector.render_prometheus()).as_bytes(),
        ),
        json: fnv1a(FNV1A_OFFSET, collector.to_json().as_bytes()),
        decoded: decoded(&collector),
    }
}

#[test]
fn seeded_switch_run_is_pinned() {
    let got = run();
    assert!(got.stats.conserved(), "{:?}", got.stats);
    assert_eq!(got.stats.sw.delivered, got.deliveries);
    assert_eq!(
        got.stats,
        CrossbarStats {
            sw: SwitchStats {
                received: 60_000,
                flooded: 10_394,
                flood_copies: 62_364,
                module_copies: 0,
                dropped_by_modules: 453,
                diverted_by_modules: 0,
                to_control: 0,
                absorbed_by_modules: 0,
                dropped_malformed: 60,
                filtered_hairpin: 6_203,
                delivered: 115_360,
            },
            crosspoint_dropped: 288,
            queued: 0,
        }
    );
    assert_eq!(
        got.digest, 0x22aa_9aaf_1de3_1aa1,
        "deliveries moved: {:#018x}",
        got.digest
    );
    assert_eq!(
        got.prometheus, 0x3a83_27eb_a21c_c8c6,
        "Prometheus text moved: {:#018x}",
        got.prometheus
    );
    assert_eq!(
        got.json, 0x5f2b_00c8_d4ea_1151,
        "JSON document moved: {:#018x}",
        got.json
    );
    assert_eq!(
        got.decoded, 0x7882_8d23_57c0_7b86,
        "decoded snapshots moved: {:#018x}",
        got.decoded
    );
}
