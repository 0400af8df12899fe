//! One seeded impaired span, pinned whole.
//!
//! 10 000 seeded outputs — sizes from a runt to a full frame, an empty
//! frame now and then, departure times that collide and run backwards,
//! a few edge-side outputs a fiber never carries — cross a
//! [`LossyLink`] whose plan drops, jitters, corrupts and duplicates
//! often enough that every branch is taken hundreds of times. The span
//! is driven two ways: the whole slice in one `carry`, and one frame a
//! call (how a rack moves a host's frame to its ToR). The delivery
//! stream (arrival time, frame bytes, in the order `carry` hands them
//! back) and the exact [`LinkChaosStats`] of both are literals computed
//! once on the code whose `carry` held the impairment inline.
//!
//! Per frame the draws come in one order (drop, jitter, corrupt with
//! its two bit-picking draws, duplicate), but the two drives meet the
//! frames in different orders — one `carry` sorts its slice by arrival
//! before impairing it — so each has its own literals.

use flexsfp_core::module::{Interface, OutputPacket, SimPacket};
use flexsfp_host::{FaultPlan, FiberLink, LinkChaosStats, LossyLink};
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::{fnv1a, FNV1A_OFFSET};

const FRAMES: usize = 10_000;
const SEED: u64 = 0x11c4_9a05;

fn span() -> LossyLink {
    FiberLink::new(30.0).impaired(
        FaultPlan::ideal(SEED ^ 0x51ed)
            .with_drop(0.1)
            .with_duplicate(0.05)
            .with_corrupt(0.1)
            .with_jitter(200),
    )
}

fn outputs() -> Vec<OutputPacket> {
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let mut t_ns = 5_000u64;
    (0..FRAMES)
        .map(|i| {
            // Mostly forwards, often not at all, sometimes backwards.
            t_ns = t_ns + [0, 0, 70, 400, 1_300][rng.range_usize(0, 5)] - rng.range_u64(0, 2) * 35;
            let len = if i % 97 == 96 {
                0
            } else {
                rng.range_usize(7, 1_515)
            };
            let fill = rng.next_u64() as u8;
            OutputPacket {
                departure_ns: t_ns,
                egress: if i % 211 == 210 {
                    Interface::Edge
                } else {
                    Interface::Optical
                },
                frame: (0..len).map(|b| fill.wrapping_add(b as u8)).collect(),
                latency_ns: 0.0,
            }
        })
        .collect()
}

/// The order-sensitive digest of a carried stream.
fn fold(digest: &mut u64, carried: &[SimPacket]) {
    for p in carried {
        let mut h = fnv1a(*digest, &p.arrival_ns.to_le_bytes());
        h = fnv1a(h, &(p.frame.len() as u32).to_le_bytes());
        *digest = fnv1a(h, &p.frame);
    }
}

#[test]
fn one_carry_over_the_whole_slice_is_pinned() {
    let mut link = span();
    let carried = link.carry(&outputs());
    let mut digest = FNV1A_OFFSET;
    fold(&mut digest, &carried);
    let stats = link.stats();
    assert_eq!(carried.len() as u64, stats.delivered);
    assert!(carried
        .windows(2)
        .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    let pinned = LinkChaosStats {
        offered: 9_953,
        delivered: 9_351,
        dropped: 1_004,
        duplicated: 402,
        corrupted: 915,
        jitter_ns_total: 1_797_131,
    };
    assert_eq!(stats, pinned);
    assert_eq!(
        digest, 0xcea8_8173_ce1f_7b29,
        "delivery digest moved: {digest:#018x}"
    );
}

#[test]
fn one_carry_a_frame_is_pinned() {
    let mut link = span();
    let mut digest = FNV1A_OFFSET;
    let mut delivered = 0u64;
    for output in outputs() {
        let carried = link.carry(std::slice::from_ref(&output));
        delivered += carried.len() as u64;
        fold(&mut digest, &carried);
    }
    let stats = link.stats();
    assert_eq!(delivered, stats.delivered);
    let pinned = LinkChaosStats {
        offered: 9_953,
        delivered: 9_358,
        dropped: 1_004,
        duplicated: 409,
        corrupted: 914,
        jitter_ns_total: 1_794_721,
    };
    assert_eq!(stats, pinned);
    assert_eq!(
        digest, 0xbbd8_c71a_2c03_05bb,
        "delivery digest moved: {digest:#018x}"
    );
}
