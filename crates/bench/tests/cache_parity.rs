//! Flow-cache transparency: with the microflow action cache enabled,
//! every application must produce byte-identical output to the
//! cache-off slow path — same frames, same departure times, same
//! egress — including across mid-stream table mutations, which must
//! invalidate memoized plans rather than replay stale ones.
//!
//! Every §3 application is covered. Apps that decline the cache
//! (`set_flow_cache` returns false) still run both passes: the digest
//! equality then pins determinism and guards the day they adopt it.

use flexsfp_apps::firewall::{AclAction, AclFirewall, AclRule};
use flexsfp_apps::sanitizer::SanitizerPolicy;
use flexsfp_apps::tunnel::TunnelKind;
use flexsfp_apps::{
    DnsFilter, Ipv6SubscriberFilter, L4LoadBalancer, PerSourceRateLimiter, Sanitizer, StaticNat,
    SynFloodGuard, TelemetryProbe, TunnelGateway, VlanTagger,
};
use flexsfp_core::control::ControlRequest;
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputDigest, SimPacket};
use flexsfp_ppe::{Direction, PacketProcessor, TableOp};
use flexsfp_traffic::gen::ArrivalModel;
use flexsfp_traffic::{SizeModel, TraceBuilder};

#[path = "../src/ctl.rs"]
mod ctl;
use ctl::control_frame;

const PRIVATE_BASE: u32 = 0xc0a8_0000;
const PUBLIC_BASE: u32 = 0x6540_0000;
const FLOWS: usize = 32;
const PACKETS: usize = 6_000;

/// Run `packets` through a module built around `app` and digest every
/// output packet (departure, egress, frame bytes). Returns the digest
/// and the forwarded count.
fn digest_run(
    mut app: Box<dyn PacketProcessor>,
    cache_on: bool,
    packets: Vec<SimPacket>,
) -> (u64, u64) {
    app.set_flow_cache(cache_on);
    let mut module = FlexSfp::new(ModuleConfig::default(), app);
    let mut digest = OutputDigest::default();
    let report = module.run_stream_with(packets, |out| digest.fold(&out));
    (digest.value(), report.forwarded.0 + report.forwarded.1)
}

/// A mixed UDP/TCP workload with IMIX-ish sizes over the NAT source
/// range (the ports and addresses also exercise the other apps).
fn workload(seed: u64) -> Vec<SimPacket> {
    TraceBuilder::new(seed)
        .flows(FLOWS)
        .src_base(PRIVATE_BASE)
        .sizes(SizeModel::Imix)
        .arrivals(ArrivalModel::Paced { utilization: 0.8 })
        .tcp_share(0.5)
        .build(PACKETS)
        .into_iter()
        .map(|p| SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame,
        })
        .collect()
}

fn nat_app() -> Box<dyn PacketProcessor> {
    let mut nat = StaticNat::new();
    for i in 0..FLOWS as u32 {
        nat.add_mapping(PRIVATE_BASE + i, PUBLIC_BASE + i)
            .expect("mapping install");
    }
    Box::new(nat)
}

/// Every §3 application under test, by name.
fn all_apps() -> Vec<(&'static str, Box<dyn PacketProcessor>)> {
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
    vec![
        ("nat", nat_app()),
        ("firewall", Box::new(fw)),
        ("dnsfilter", Box::new(DnsFilter::new())),
        ("ipv6filter", Box::new(Ipv6SubscriberFilter::new())),
        (
            "lb",
            Box::new(L4LoadBalancer::new(
                0x0a00_0005,
                80,
                vec![0x0a00_0101, 0x0a00_0102],
            )),
        ),
        ("ratelimit", Box::new(PerSourceRateLimiter::new())),
        (
            "sanitizer",
            Box::new(Sanitizer::new(SanitizerPolicy::default())),
        ),
        (
            "synflood",
            Box::new(SynFloodGuard::new(1024, 100, 1_000_000)),
        ),
        (
            "telemetry",
            Box::new(TelemetryProbe::new(256, 1_000_000, 50_000)),
        ),
        (
            "tunnel",
            Box::new(TunnelGateway::new(
                TunnelKind::Gre { key: 7 },
                0x0a00_0001,
                0x0a00_0002,
            )),
        ),
        ("vlan", Box::new(VlanTagger::new(100))),
    ]
}

#[test]
fn every_app_is_cache_transparent() {
    let mut checked = 0;
    for seed in [0x51u64, 0xbeef] {
        for (name, _) in all_apps() {
            // Rebuild the app per pass: state (rate limiter buckets,
            // flow tables) must start identical.
            let app_off = all_apps().into_iter().find(|(n, _)| *n == name).unwrap().1;
            let app_on = all_apps().into_iter().find(|(n, _)| *n == name).unwrap().1;
            let (d_off, fwd_off) = digest_run(app_off, false, workload(seed));
            let (d_on, fwd_on) = digest_run(app_on, true, workload(seed));
            assert_eq!(
                d_on, d_off,
                "app `{name}` output diverged with flow cache on (seed {seed:#x})"
            );
            assert_eq!(fwd_on, fwd_off, "app `{name}` forwarded count diverged");
            checked += 1;
        }
    }
    assert_eq!(checked, 22, "11 apps x 2 seeds");
}

/// Interleave table-mutating control frames into the data stream:
/// every mapping is remapped to a new public address mid-run, then one
/// mapping is deleted. Cached plans recorded before each mutation are
/// stale afterwards; the cache-on run must still match cache-off byte
/// for byte.
fn mutating_stream(config: &ModuleConfig) -> Vec<SimPacket> {
    let mut packets = workload(0x51);
    let n = packets.len();
    for i in 0..4 {
        let at = n * (i + 1) / 5;
        let arrival_ns = packets[at].arrival_ns;
        let flow = (i as u32) % FLOWS as u32;
        let op = if i == 3 {
            TableOp::Delete {
                table: 0,
                key: (PRIVATE_BASE + flow).to_be_bytes().to_vec(),
            }
        } else {
            TableOp::Insert {
                table: 0,
                key: (PRIVATE_BASE + flow).to_be_bytes().to_vec(),
                value: (PUBLIC_BASE + 0x100 + flow).to_be_bytes().to_vec(),
            }
        };
        packets.insert(
            at,
            SimPacket {
                arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(config, &ControlRequest::Table(op)),
            },
        );
    }
    packets
}

#[test]
fn mid_stream_table_mutations_invalidate_cached_plans() {
    let run = |cache_on: bool| {
        let mut app = nat_app();
        app.set_flow_cache(cache_on);
        let mut module = FlexSfp::new(ModuleConfig::default(), app);
        let stream = mutating_stream(&module.config);
        let mut digest = OutputDigest::default();
        let mut saw_new_public = false;
        let report = module.run_stream_with(stream, |out| {
            digest.fold(&out);
            // Post-mutation frames must carry the remapped public
            // address — a stale replayed plan would keep the old one.
            if out.frame.len() >= 30 {
                let src = u32::from_be_bytes(out.frame[26..30].try_into().unwrap());
                if (PUBLIC_BASE + 0x100..PUBLIC_BASE + 0x100 + FLOWS as u32).contains(&src) {
                    saw_new_public = true;
                }
            }
        });
        assert_eq!(report.control_handled, 4, "all mutations handled");
        assert!(saw_new_public, "remapped address visible in output");
        digest.value()
    };
    assert_eq!(
        run(true),
        run(false),
        "mid-stream mutations: cache-on output diverged from slow path"
    );
}

#[test]
fn clearing_the_table_mid_stream_stays_transparent() {
    // Reprogram-style staleness: wipe the whole table mid-stream. All
    // cached plans are stale at once; cache-on must degrade exactly
    // like cache-off (packets fall through as table misses).
    let run = |cache_on: bool| {
        let mut app = nat_app();
        app.set_flow_cache(cache_on);
        let mut module = FlexSfp::new(ModuleConfig::default(), app);
        let mut packets = workload(0x7a);
        let mid = packets.len() / 2;
        let arrival_ns = packets[mid].arrival_ns;
        packets.insert(
            mid,
            SimPacket {
                arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(
                    &module.config,
                    &ControlRequest::Table(TableOp::Clear { table: 0 }),
                ),
            },
        );
        let mut digest = OutputDigest::default();
        let report = module.run_stream_with(packets, |out| digest.fold(&out));
        assert_eq!(report.control_handled, 1);
        digest.value()
    };
    assert_eq!(run(true), run(false), "table clear: cache-on diverged");
}

/// Control frames between data packets in [`churning_stream`].
const CHURN_EVERY: usize = 64;

/// `churn`'s in-band writes, denser: every [`CHURN_EVERY`] packets a
/// control frame remaps a subscriber whose flow has a resident plan,
/// deletes one, re-inserts the one deleted before it, or writes (or
/// deletes) an address no flow uses. Returns the stream and the
/// number of control frames in it.
fn churning_stream(config: &ModuleConfig) -> (Vec<SimPacket>, u64) {
    let mut packets = workload(0xc4);
    let points: Vec<usize> = (CHURN_EVERY..packets.len()).step_by(CHURN_EVERY).collect();
    // Back to front, so each insert leaves the earlier positions put.
    for (i, &at) in points.iter().enumerate().rev() {
        let i = i as u32;
        let flow = |salt: u32| PRIVATE_BASE + (i / 4 * 7 + salt) % FLOWS as u32;
        let unused = PRIVATE_BASE + 0x1000 + i;
        let key = |addr: u32| addr.to_be_bytes().to_vec();
        let op = match i % 8 {
            0 | 4 => TableOp::Insert {
                table: 0,
                key: key(flow(0)),
                value: key(PUBLIC_BASE + 0x100 + i),
            },
            1 | 5 => TableOp::Delete {
                table: 0,
                key: key(flow(3)),
            },
            2 | 6 => TableOp::Insert {
                table: 0,
                key: key(flow(3)),
                value: key(PUBLIC_BASE + (flow(3) - PRIVATE_BASE)),
            },
            3 => TableOp::Insert {
                table: 0,
                key: key(unused),
                value: key(PUBLIC_BASE + 0x2000 + i),
            },
            _ => TableOp::Delete {
                table: 0,
                key: key(unused),
            },
        };
        let arrival_ns = packets[at].arrival_ns;
        packets.insert(
            at,
            SimPacket {
                arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(config, &ControlRequest::Table(op)),
            },
        );
    }
    (packets, points.len() as u64)
}

/// Every kind of write `churning_stream` makes, with the flows it
/// touches resident: cache-on output equals cache-off byte for byte.
#[test]
fn subscriber_churn_stays_transparent() {
    let run = |cache_on: bool| {
        let mut app = nat_app();
        app.set_flow_cache(cache_on);
        let mut module = FlexSfp::new(ModuleConfig::default(), app);
        let (stream, writes) = churning_stream(&module.config);
        let mut digest = OutputDigest::default();
        let (mut remapped, mut untranslated) = (0u64, 0u64);
        let report = module.run_stream_with(stream, |out| {
            digest.fold(&out);
            if out.frame.len() >= 30 {
                let src = u32::from_be_bytes(out.frame[26..30].try_into().unwrap());
                remapped += u64::from((PUBLIC_BASE + 0x100..PUBLIC_BASE + 0x2000).contains(&src));
                untranslated += u64::from(src >> 16 == PRIVATE_BASE >> 16);
            }
        });
        assert_eq!(report.control_handled, writes, "every write handled");
        assert!(writes > 80, "{writes} writes");
        // Both a remap and a delete reached the output.
        assert!(
            remapped > 0 && untranslated > 0,
            "{remapped} / {untranslated}"
        );
        (digest.value(), module.telemetry_snapshot().cache)
    };
    let ((on, stats), (off, _)) = (run(true), run(false));
    assert_eq!(on, off, "subscriber churn: cache-on output diverged");
    assert!(stats.invalidations > 0, "{stats:?}");
    // Precision: a write invalidates the plans of the address it writes,
    // not the cache. Measured 0.983 (5 899 of 6 000 lookups hit) with
    // 4 096 dependency buckets; 0.563 when every write flushes the cache.
    assert!(stats.hit_rate() > 0.95, "{stats:?}");
}
