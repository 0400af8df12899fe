//! The §2.1 telecom scenario: retrofit a legacy aggregation switch by
//! swapping its SFPs for FlexSFPs — no chassis or switch-OS change.
//!
//! A 4-port fixed-function L2 switch aggregates FTTH subscribers toward
//! an uplink. We first show the legacy switch forwarding everything
//! blindly, then drop FlexSFPs into the subscriber ports to add
//! per-subscriber DNS filtering and rate limiting, and into the uplink
//! to add QinQ service tagging — all at the cable, mid-span.
//!
//! Run with: `cargo run --example legacy_switch_retrofit`

use flexsfp::apps::{DnsFilter, PerSourceRateLimiter, VlanTagger};
use flexsfp::core::module::{FlexSfp, ModuleConfig};
use flexsfp::core::ShellKind;
use flexsfp::host::CrossbarSwitch;
use flexsfp::ppe::Direction;
use flexsfp::wire::builder::PacketBuilder;
use flexsfp::wire::ipv4::parse_addr;
use flexsfp::wire::{dns, MacAddr};

const SUBSCRIBER_MAC: MacAddr = MacAddr([0x02, 0xaa, 0, 0, 0, 1]);
const UPLINK_MAC: MacAddr = MacAddr([0x02, 0xbb, 0, 0, 0, 1]);
const SUBSCRIBER_PORT: usize = 0;
const UPLINK_PORT: usize = 3;

fn dns_query(name: &str) -> Vec<u8> {
    let q = dns::build_query(0x4242, name, 1);
    PacketBuilder::eth_ipv4_udp(
        UPLINK_MAC,
        SUBSCRIBER_MAC,
        parse_addr("10.100.1.10").unwrap(),
        parse_addr("9.9.9.9").unwrap(),
        40_000,
        53,
        &q,
    )
}

fn bulk_frame(len: usize) -> Vec<u8> {
    let mut f = PacketBuilder::eth_ipv4_udp(
        UPLINK_MAC,
        SUBSCRIBER_MAC,
        parse_addr("10.100.1.10").unwrap(),
        parse_addr("203.0.113.7").unwrap(),
        50_000,
        443,
        &vec![0u8; len - 42],
    );
    f.truncate(len);
    f
}

fn wire_facing(app: Box<dyn flexsfp::ppe::PacketProcessor>) -> FlexSfp {
    // Subscriber-port policies screen traffic arriving from the wire,
    // so the PPE sits on the optical→edge path.
    FlexSfp::new(
        ModuleConfig {
            shell: ShellKind::OneWayFilter {
                ppe_direction: Direction::OpticalToEdge,
            },
            ..ModuleConfig::default()
        },
        app,
    )
}

fn main() {
    let mut sw = CrossbarSwitch::new(4, 16);

    // Teach the switch where the uplink lives.
    sw.inject(
        UPLINK_PORT,
        PacketBuilder::ethernet(
            SUBSCRIBER_MAC,
            UPLINK_MAC,
            flexsfp::wire::EtherType::Ipv4,
            &PacketBuilder::ipv4_udp(
                parse_addr("203.0.113.1").unwrap(),
                parse_addr("10.100.1.10").unwrap(),
                1,
                2,
                b"hi",
            ),
        ),
        0,
    );

    // --- Before the retrofit: the legacy switch forwards everything.
    let delivered = sw.inject(SUBSCRIBER_PORT, dns_query("ads.tracker.example"), 1_000);
    println!(
        "legacy switch: DNS query to a tracker domain delivered to {} port(s) — no policy possible",
        delivered.len()
    );

    // --- The retrofit: swap SFPs for FlexSFPs, port by port.
    // Subscriber port: DNS filter + 8 Mb/s rate limit.
    let mut filter = DnsFilter::new();
    filter.block_domain("tracker.example");
    sw.insert_flexsfp(SUBSCRIBER_PORT, wire_facing(Box::new(filter)));
    println!("\ninserted FlexSFP (dns-filter) into subscriber port {SUBSCRIBER_PORT}");

    // Uplink port: QinQ service tag for the metro core.
    let mut tagger = VlanTagger::new(10).with_s_tag(500);
    tagger.drop_tagged_ingress = false;
    sw.insert_flexsfp(
        UPLINK_PORT,
        FlexSfp::new(ModuleConfig::default(), Box::new(tagger)),
    );
    println!("inserted FlexSFP (vlan-tagger, QinQ S-tag 500) into uplink port {UPLINK_PORT}");

    // Blocked domain: dropped in the cage, the switch ASIC never sees it.
    let out = sw.inject(SUBSCRIBER_PORT, dns_query("ads.tracker.example"), 2_000);
    println!(
        "\nDNS query for ads.tracker.example -> delivered to {} ports (blocked at the cable)",
        out.len()
    );
    assert!(out.is_empty());

    // Legitimate DNS passes and leaves the uplink double-tagged.
    let out = sw.inject(SUBSCRIBER_PORT, dns_query("example.org"), 3_000);
    assert_eq!(out.len(), 1);
    let parsed = flexsfp::ppe::Parser.parse(&out[0].frame).unwrap();
    println!(
        "DNS query for example.org -> uplink port {} with VLAN stack {:?}",
        out[0].port, parsed.vlans
    );
    assert_eq!(parsed.vlans, vec![500, 10]);

    // Swap the subscriber port policy at runtime: rate limiting instead.
    let mut limiter = PerSourceRateLimiter::new();
    limiter.add_limit(parse_addr("10.100.1.0").unwrap(), 24, 8_000_000, 3_000);
    sw.remove_flexsfp(SUBSCRIBER_PORT);
    sw.insert_flexsfp(SUBSCRIBER_PORT, wire_facing(Box::new(limiter)));
    println!("\nswapped subscriber-port module for a rate limiter (8 Mb/s, 3 kB burst)");

    // 20 × 1 kB in 10 µs: way over rate. A 1 kB frame holds the 10 G
    // uplink for 816 ns and the subscriber sends every 500 ns, so some
    // deliveries wait a turn in the crosspoint: count fates after the
    // drain, not per `inject`.
    let before = sw.stats().sw;
    for i in 0..20 {
        sw.inject(SUBSCRIBER_PORT, bulk_frame(1000), 10_000 + i * 500);
    }
    sw.drain();
    let stats = sw.stats();
    let passed = stats.sw.delivered - before.delivered;
    let dropped = stats.sw.dropped_by_modules - before.dropped_by_modules;
    println!("burst of 20 x 1 kB: {passed} passed (burst credit), {dropped} dropped at the cable");
    assert_eq!(passed, 3);
    assert_eq!(dropped, 17);
    assert!(stats.conserved(), "{stats:?}");

    println!(
        "\nswitch stats: {} received, {} delivered, {} dropped by port modules, {} MACs learned",
        stats.sw.received,
        stats.sw.delivered,
        stats.sw.dropped_by_modules,
        sw.learned()
    );
    println!("\nretrofit example OK — the chassis never changed");
}
