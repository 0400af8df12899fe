//! Every app answers `TableOp::ReadCounter` from the counters its
//! dataplane counts into: for each index of its bank a real packet and
//! byte count, and `NotFound` one past the bank.
//!
//! Each §3 app is built to count on the same small mix of frames (a
//! DNS query for a blocked name, TCP to a DoH resolver and to a
//! balanced service, plain UDP, IPv6, ARP, a runt), offered in both
//! directions. A counter's bytes must lie between its packets times the
//! shortest frame offered and its packets times the longest frame plus
//! what an encapsulation adds, and every app must count something.
//! The runt, which no app's parser accepts, is counted too: alone, in
//! every direction an app inspects, at its own length.

use flexsfp::apps::sanitizer::SanitizerPolicy;
use flexsfp::apps::tunnel::TunnelKind;
use flexsfp::apps::{
    AclFirewall, DnsFilter, Ipv6SubscriberFilter, L4LoadBalancer, PerSourceRateLimiter, Sanitizer,
    StaticNat, SynFloodGuard, TelemetryProbe, TunnelGateway, VlanTagger,
};
use flexsfp::ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp::wire::dns;
use flexsfp::wire::tcp::TcpFlags;
use flexsfp::wire::{EtherType, MacAddr, PacketBuilder};

const CLIENT: u32 = 0xc0a8_0001; // 192.168.0.1
const DOH: u32 = 0x0101_0101; // 1.1.1.1
const VIP: u32 = 0x0a00_0005; // 10.0.0.5

/// Bytes an app may add to a frame before counting it (a VXLAN or GRE
/// header, a VLAN tag pair).
const GROWTH: u64 = 64;

/// The frames every app is offered.
fn frames() -> Vec<Vec<u8>> {
    let (a, b) = (MacAddr([2; 6]), MacAddr([4; 6]));
    let syn = TcpFlags {
        syn: true,
        ..TcpFlags::default()
    };
    let query = dns::build_query(7, "ads.example", 1);
    let mut ipv6 = vec![0u8; 48];
    ipv6[0] = 0x60;
    ipv6[4..8].copy_from_slice(&[0, 8, 17, 64]);
    vec![
        PacketBuilder::eth_ipv4_udp(a, b, CLIENT, 0x0808_0808, 40_000, 53, &query),
        PacketBuilder::eth_ipv4_tcp(a, b, CLIENT, DOH, 40_001, 443, 1, syn, &[]),
        PacketBuilder::eth_ipv4_tcp(a, b, CLIENT, VIP, 40_002, 80, 1, syn, &[0; 100]),
        PacketBuilder::eth_ipv4_udp(a, b, CLIENT, 0x0a00_0009, 1_000, 2_000, &[0; 300]),
        PacketBuilder::ethernet(a, b, EtherType::Ipv6, &ipv6),
        PacketBuilder::ethernet(a, b, EtherType::Arp, &[0; 28]),
        vec![0; 10],
    ]
}

/// Each app, configured so the frames above reach its counters, and
/// the counters its bank holds.
fn apps() -> Vec<(Box<dyn PacketProcessor>, u32)> {
    let mut nat = StaticNat::new();
    nat.add_mapping(CLIENT, 0x6540_0001).unwrap();
    let mut dns = DnsFilter::new();
    assert!(dns.block_domain("ads.example") && dns.block_doh_resolver(DOH));
    let mut limiter = PerSourceRateLimiter::new();
    assert!(limiter.add_limit(CLIENT, 32, 8_000, 200));
    vec![
        (Box::new(nat), 4),
        (Box::new(AclFirewall::new(8)), 5),
        (Box::new(VlanTagger::new(100)), 4),
        (
            Box::new(TunnelGateway::new(
                TunnelKind::Vxlan { vni: 9 },
                0x0a00_0001,
                0x0a00_0002,
            )),
            4,
        ),
        (Box::new(L4LoadBalancer::new(VIP, 80, vec![0x0a00_0101])), 4),
        (Box::new(TelemetryProbe::new(64, 1_000, 200)), 4),
        (Box::new(limiter), 4),
        (Box::new(dns), 4),
        (Box::new(Sanitizer::new(SanitizerPolicy::default())), 8),
        (Box::new(SynFloodGuard::new(64, 1, 1_000_000)), 4),
        (Box::new(Ipv6SubscriberFilter::new()), 5),
    ]
}

/// Packets and bytes over `app`'s `bank` counters.
fn totals(app: &mut dyn PacketProcessor, bank: u32) -> (u64, u64) {
    (0..bank)
        .map(
            |index| match app.control_op(&TableOp::ReadCounter { index }) {
                TableOpResult::Counter { packets, bytes } => (packets, bytes),
                other => panic!("{}: counter {index} reads {other:?}", app.name()),
            },
        )
        .fold((0, 0), |(p, b), (packets, bytes)| (p + packets, b + bytes))
}

#[test]
fn every_counter_reads_real_bytes_and_none_past_the_bank() {
    let frames = frames();
    let shortest = frames.iter().map(Vec::len).min().unwrap() as u64;
    let longest = frames.iter().map(Vec::len).max().unwrap() as u64 + GROWTH;
    for (mut app, bank) in apps() {
        let name = app.name().to_string();
        for round in 0..4u64 {
            for (i, frame) in frames.iter().enumerate() {
                let direction = if round % 2 == 0 {
                    Direction::EdgeToOptical
                } else {
                    Direction::OpticalToEdge
                };
                let ctx = ProcessContext {
                    timestamp_ns: round * 1_000 + i as u64,
                    direction,
                };
                app.process(&ctx, &mut frame.clone());
            }
        }
        let mut counted = 0;
        for index in 0..bank {
            let TableOpResult::Counter { packets, bytes } =
                app.control_op(&TableOp::ReadCounter { index })
            else {
                panic!("{name}: counter {index} is not a counter");
            };
            assert!(
                packets * shortest <= bytes && bytes <= packets * longest,
                "{name}: counter {index} reads {packets} packets, {bytes} bytes"
            );
            counted += packets;
        }
        assert!(counted > 0, "{name} counted nothing");
        assert_eq!(
            app.control_op(&TableOp::ReadCounter { index: bank }),
            TableOpResult::NotFound,
            "{name}: one past its {bank} counters"
        );
    }
    // The runt alone, through a fresh app. The NAT, the firewall and the
    // IPv6 filter leave one direction untouched and uncounted; every app
    // counts what it inspects.
    let runt = frames.last().unwrap().clone();
    assert_eq!(runt.len(), 10);
    for (mut app, bank) in apps() {
        let name = app.name().to_string();
        for direction in [Direction::EdgeToOptical, Direction::OpticalToEdge] {
            let before = totals(app.as_mut(), bank);
            let verdict = app.process(
                &ProcessContext {
                    timestamp_ns: 0,
                    direction,
                },
                &mut runt.clone(),
            );
            let after = totals(app.as_mut(), bank);
            let counted = (after.0 - before.0, after.1 - before.1);
            let inspected = counted.0 > 0 && counted.1 == 10 * counted.0;
            assert!(
                inspected || counted == (0, 0) && verdict == Verdict::Forward,
                "{name} {direction:?}: the runt {verdict:?}, counted {counted:?}"
            );
        }
        assert_ne!(
            totals(app.as_mut(), bank),
            (0, 0),
            "{name} never counted the runt"
        );
    }
}
