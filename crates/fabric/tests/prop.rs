//! Property tests for fabric substrate invariants.
//!
//! Each property runs a fixed number of seeded cases under plain
//! `cargo test`; a failure names the case's seed, which reproduces it
//! alone.

use flexsfp_fabric::fifo::Fifo;
use flexsfp_fabric::flash::{SpiFlash, FLASH_BYTES, SECTOR_BYTES};
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_fabric::sram::{MemoryKind, MemoryPlanner, TableShape};
use flexsfp_fabric::stream::{BusWidth, DatapathConfig};
use flexsfp_fabric::ClockDomain;
use flexsfp_traffic::rng::Xoshiro256;
use std::collections::VecDeque;

const CASES: u64 = 256;

/// Every case materialises the 16 MiB flash model; three dozen cover
/// the sectors and the lengths.
const FLASH_CASES: u64 = 36;

/// Run `property` over `cases` generators seeded `seed`, `seed + 1`, ….
fn for_each_case(seed: u64, cases: u64, mut property: impl FnMut(&mut Xoshiro256, u64)) {
    for case in seed..seed + cases {
        property(&mut Xoshiro256::seed_from_u64(case), case);
    }
}

/// Between `lo` and `hi - 1` random bytes.
fn bytes(rng: &mut Xoshiro256, lo: usize, hi: usize) -> Vec<u8> {
    (0..rng.range_usize(lo, hi))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// FIFO preserves order and never exceeds capacity; pushes+overflows
/// account for every offer.
#[test]
fn fifo_order_and_accounting() {
    for_each_case(0xf1f0, CASES, |rng, case| {
        let capacity = rng.range_usize(1, 64);
        let mut f = Fifo::new(capacity);
        let mut model = VecDeque::new();
        let mut offered = 0u64;
        for _ in 0..rng.range_usize(0, 200) {
            if rng.chance(0.5) {
                let v = rng.next_u64() as u16;
                offered += 1;
                if f.push(v).is_ok() {
                    model.push_back(v);
                }
                assert!(f.len() <= capacity, "case {case:#x}");
            } else {
                assert_eq!(f.pop(), model.pop_front(), "case {case:#x}");
            }
        }
        let stats = f.stats();
        assert_eq!(stats.pushed + stats.overflows, offered, "case {case:#x}");
        assert_eq!(f.len(), model.len(), "case {case:#x}");
        // Drain fully in order.
        while let Some(expect) = model.pop_front() {
            assert_eq!(f.pop(), Some(expect), "case {case:#x}");
        }
        assert!(f.is_empty(), "case {case:#x}");
    });
}

/// Beats are monotone in packet length and inversely monotone in
/// width.
#[test]
fn occupancy_monotonicity() {
    for_each_case(0x0cc0, CASES, |rng, case| {
        let len = rng.range_usize(1, 3_000);
        let clock = ClockDomain::XGMII_10G;
        let mut prev = u64::MAX;
        for width in BusWidth::all() {
            let cfg = DatapathConfig { width, clock };
            let beats = cfg.beats_for(len);
            assert!(beats <= prev, "case {case:#x}: {width:?}");
            prev = beats;
            assert!(cfg.beats_for(len + 1) >= beats, "case {case:#x}: {width:?}");
        }
    });
}

/// Flash: program-after-erase round-trips arbitrary data at arbitrary
/// sector-aligned locations.
#[test]
fn flash_round_trip() {
    for_each_case(0xf1a5, FLASH_CASES, |rng, case| {
        let sector = rng.range_usize(0, FLASH_BYTES / SECTOR_BYTES);
        let data = bytes(rng, 1, 512);
        let mut flash = SpiFlash::new();
        let addr = sector * SECTOR_BYTES;
        flash.erase_sector(addr).unwrap();
        flash.program(addr, &data).unwrap();
        assert_eq!(
            flash.read(addr, data.len()).unwrap(),
            &data[..],
            "case {case:#x}"
        );
        // Reprogramming without erase fails unless only clearing bits.
        let inverted: Vec<u8> = data.iter().map(|b| !b).collect();
        if data.iter().any(|&b| b != 0xff) {
            assert!(flash.program(addr, &inverted).is_err(), "case {case:#x}");
        }
    });
}

/// Resource manifest addition is commutative/associative and `sum`
/// agrees with folding.
#[test]
fn manifest_algebra() {
    for_each_case(0xa19e, CASES, |rng, case| {
        let mut m = || {
            let mut x = || rng.next_u64() & 0xffff;
            ResourceManifest::new(x(), x(), x(), x())
        };
        let (a, b, c) = (m(), m(), m());
        assert_eq!(a + b, b + a, "case {case:#x}");
        assert_eq!((a + b) + c, a + (b + c), "case {case:#x}");
        let sum: ResourceManifest = [a, b, c].into_iter().sum();
        assert_eq!(sum, a + b + c, "case {case:#x}");
        // fits_within is reflexive and monotone under addition.
        assert!(a.fits_within(&(a + b)), "case {case:#x}");
    });
}

/// Memory planner: allocated bits always cover the requested bits.
#[test]
fn planner_never_underallocates() {
    for_each_case(0x91a2, CASES, |rng, case| {
        let (entries, bits) = (rng.range_u64(1, 100_000), rng.range_u64(1, 256));
        let shape = TableShape::new(entries, bits);
        let placement = MemoryPlanner::place(shape);
        let allocated = match placement.kind {
            MemoryKind::Usram => placement.blocks * 768,
            MemoryKind::Lsram => placement.blocks * 20 * 1024,
        };
        assert!(
            allocated >= shape.total_bits(),
            "case {case:#x}: {entries}x{bits}: allocated {allocated} < needed {}",
            shape.total_bits()
        );
    });
}

/// Power is monotone in utilization, activity and clock.
#[test]
fn power_monotonicity() {
    for_each_case(0x90e2, CASES, |rng, case| {
        let (u1, u2, act) = (rng.next_f64(), rng.next_f64(), rng.next_f64());
        let model = flexsfp_fabric::PowerModel::flexsfp_prototype();
        let design = flexsfp_fabric::resources::table1::USED;
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let at = |clock, util| model.power(&design, clock, 2, util, act);
        let p_lo = at(ClockDomain::XGMII_10G, lo).total_w();
        let p_hi = at(ClockDomain::XGMII_10G, hi).total_w();
        assert!(p_lo <= p_hi + 1e-12, "case {case:#x}");
        let f1 = at(ClockDomain::XGMII_10G, lo).fabric_dynamic_w;
        let f2 = at(ClockDomain::XGMII_10G_X2, lo).fabric_dynamic_w;
        assert!(f2 >= f1, "case {case:#x}");
    });
}
