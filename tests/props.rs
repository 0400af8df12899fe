//! Cross-crate property tests: invariants that must hold for arbitrary
//! generated workloads and configurations.
//!
//! Each property runs seeded cases under plain `cargo test`; a failure
//! names the case's seed, which reproduces it alone.

use flexsfp::apps::{Sanitizer, StaticNat};
use flexsfp::core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp::ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp::traffic::gen::ArrivalModel;
use flexsfp::traffic::rng::Xoshiro256;
use flexsfp::traffic::{SizeModel, TraceBuilder};
use flexsfp::wire::builder::PacketBuilder;
use flexsfp::wire::ipv4::Ipv4Packet;
use flexsfp::wire::{MacAddr, UdpDatagram};

/// Run `property` over `cases` generators seeded `seed`, `seed + 1`, ….
fn for_each_case(seed: u64, cases: u64, mut property: impl FnMut(&mut Xoshiro256, u64)) {
    for case in seed..seed + cases {
        property(&mut Xoshiro256::seed_from_u64(case), case);
    }
}

/// A passthrough module forwards every frame of any seeded trace
/// unmodified, in order, with conserved byte counts.
#[test]
fn passthrough_module_conserves_frames() {
    for_each_case(0x9a55, 32, |rng, case| {
        let n = rng.range_usize(50, 300);
        let utilization = 0.05 + 0.95 * rng.next_f64();
        let trace = TraceBuilder::new(rng.next_u64())
            .sizes(SizeModel::Imix)
            .arrivals(ArrivalModel::Paced { utilization })
            .build(n);
        let frames: Vec<Vec<u8>> = trace.iter().map(|p| p.frame.clone()).collect();
        let offered_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        let mut module = FlexSfp::passthrough();
        let report = module.run(
            trace
                .into_iter()
                .map(|p| SimPacket {
                    arrival_ns: p.arrival_ns,
                    direction: Direction::EdgeToOptical,
                    frame: p.frame,
                })
                .collect(),
        );
        assert_eq!(report.forwarded.1 as usize, n, "case {case:#x}");
        assert_eq!(report.forwarded_bytes, offered_bytes, "case {case:#x}");
        assert_eq!(report.drops.total(), 0, "case {case:#x}");
        assert_eq!(report.outputs.len(), n, "case {case:#x}");
        for (out, sent) in report.outputs.iter().zip(&frames) {
            assert_eq!(&out.frame, sent, "case {case:#x}");
        }
        // Latency is always positive and finite.
        assert!(report.latency.histogram().min() > 0, "case {case:#x}");
        assert!(report.latency.max_ns().is_finite(), "case {case:#x}");
        assert!(
            report.latency.histogram().p99() as f64 <= report.latency.max_ns(),
            "case {case:#x}"
        );
    });
}

/// NAT translation: for arbitrary mappings, the translated packet
/// carries the mapped source, valid checksums, and identical
/// payload bytes; unmapped sources pass untouched. Cache off and
/// cache on, where the second packet of each flow replays a plan.
#[test]
fn nat_translation_invariants() {
    const DST: u32 = 0x0808_0808;
    for_each_case(0x5a7, 256, |rng, case| {
        let addr = |rng: &mut Xoshiro256| rng.range_u64(1, 0xffff_fffe) as u32;
        let (private, public) = (addr(rng), addr(rng));
        let other = loop {
            let other = addr(rng);
            if other != private {
                break other;
            }
        };
        let sport = rng.range_u64(1, 65_535) as u16;
        let dport = rng.range_u64(1, 65_535) as u16;
        let payload: Vec<u8> = (0..rng.range_usize(0, 200))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let build = |src: u32| {
            PacketBuilder::eth_ipv4_udp(
                MacAddr([2; 6]),
                MacAddr([4; 6]),
                src,
                DST,
                sport,
                dport,
                &payload,
            )
        };
        for cache in [false, true] {
            let mut nat = StaticNat::new();
            nat.add_mapping(private, public).unwrap();
            nat.set_flow_cache(cache);
            for round in 0..2 {
                let at = format!("case {case:#x}, cache {cache}, round {round}");
                let mut mapped = build(private);
                assert_eq!(
                    nat.process(&ProcessContext::egress(), &mut mapped),
                    Verdict::Forward,
                    "{at}"
                );
                let ip = Ipv4Packet::new_checked(&mapped[14..]).unwrap();
                assert_eq!(ip.src(), public, "{at}");
                assert!(ip.verify_checksum(), "{at}");
                let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
                assert!(udp.verify_checksum_v4(public, DST), "{at}");
                assert_eq!(udp.payload(), &payload[..], "{at}");

                let mut unmapped = build(other);
                let before = unmapped.clone();
                nat.process(&ProcessContext::egress(), &mut unmapped);
                assert_eq!(unmapped, before, "{at}");
            }
            let stats = nat.cache_stats().unwrap();
            let lookups = stats.hits + stats.misses;
            assert_eq!(lookups, if cache { 4 } else { 0 }, "case {case:#x}");
        }
    });
}

/// The sanitizer never modifies packets it forwards, and its
/// counters exactly partition the offered packets.
#[test]
fn sanitizer_partitions_traffic() {
    for_each_case(0x5a91, 32, |rng, case| {
        let n = rng.range_usize(20, 150);
        let trace = TraceBuilder::new(rng.next_u64()).build(n);
        let mut s = Sanitizer::default();
        let mut forwarded = 0u64;
        for p in &trace {
            let mut f = p.frame.clone();
            let before = f.clone();
            match s.process(&ProcessContext::egress(), &mut f) {
                Verdict::Forward => {
                    forwarded += 1;
                    assert_eq!(f, before, "case {case:#x}");
                }
                Verdict::Drop => {}
                other => panic!("case {case:#x}: unexpected verdict {other:?}"),
            }
        }
        assert_eq!(s.stats.passed, forwarded, "case {case:#x}");
        let TableOpResult::Counter {
            packets: dropped, ..
        } = s.control_op(&TableOp::ReadCounter { index: 1 })
        else {
            panic!("case {case:#x}: the sanitizer counts its drops");
        };
        assert_eq!(s.stats.passed + dropped, n as u64, "case {case:#x}");
    });
}

/// Module outputs are always sorted by departure time, for any
/// shell and load.
#[test]
fn outputs_sorted_by_departure() {
    for_each_case(0x50b7, 32, |rng, case| {
        let cfg = if rng.chance(0.5) {
            ModuleConfig::two_way_2x()
        } else {
            ModuleConfig::default()
        };
        let utilization = 0.3 + 0.7 * rng.next_f64();
        let mut module = FlexSfp::new(cfg, Box::new(flexsfp::ppe::engine::PassThrough));
        let trace = TraceBuilder::new(rng.next_u64())
            .sizes(SizeModel::Fixed(60))
            .arrivals(ArrivalModel::Poisson { utilization })
            .build(200);
        let packets = trace
            .into_iter()
            .enumerate()
            .map(|(i, p)| SimPacket {
                arrival_ns: p.arrival_ns,
                direction: if i % 2 == 0 {
                    Direction::EdgeToOptical
                } else {
                    Direction::OpticalToEdge
                },
                frame: p.frame,
            })
            .collect();
        let report = module.run(packets);
        assert!(!report.outputs.is_empty(), "case {case:#x}");
        for w in report.outputs.windows(2) {
            assert!(w[0].departure_ns <= w[1].departure_ns, "case {case:#x}");
        }
    });
}
