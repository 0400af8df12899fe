//! Property tests for PPE invariants: tables vs a model, meters vs an
//! analytic bound, LPM vs naive search.
//!
//! Each property runs [`CASES`] seeded cases under plain `cargo test`;
//! a failure names the case's seed, which reproduces it alone.

use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::match_kinds::LpmTable;
use flexsfp_ppe::meter::{Color, TokenBucket};
use flexsfp_ppe::tables::{HashTable, TableError};
use flexsfp_traffic::rng::Xoshiro256;
use std::collections::{BTreeMap, HashMap};

const CASES: u64 = 256;

/// Run `property` over [`CASES`] generators seeded `seed`, `seed + 1`, ….
fn for_each_case(seed: u64, mut property: impl FnMut(&mut Xoshiro256, u64)) {
    for case in seed..seed + CASES {
        property(&mut Xoshiro256::seed_from_u64(case), case);
    }
}

/// The hardware hash table agrees with a HashMap model on every
/// lookup, modulo capacity-induced insertion failures (which the
/// model then also forgets).
#[test]
fn hash_table_vs_model() {
    for_each_case(0x7ab1e, |rng, case| {
        let mut table: HashTable<u32, u16> = HashTable::new(16, 2);
        let mut model: HashMap<u32, u16> = HashMap::new();
        for _ in 0..rng.range_usize(0, 300) {
            let r = rng.next_u64();
            let key = u32::from(r as u8); // small key space forces collisions
            let v = (r >> 8) as u16;
            if r >> 24 & 1 == 1 {
                match table.insert(key, v) {
                    Ok(()) => {
                        model.insert(key, v);
                    }
                    Err(TableError::BucketFull) => {
                        // Model must NOT have it (update would succeed).
                        assert!(!model.contains_key(&key), "case {case:#x}");
                    }
                }
            } else {
                assert_eq!(table.remove(&key), model.remove(&key), "case {case:#x}");
            }
            assert_eq!(table.len(), model.len(), "case {case:#x}");
            assert_eq!(table.is_empty(), model.is_empty(), "case {case:#x}");
        }
        for (k, v) in &model {
            assert_eq!(table.peek(k), Some(*v), "case {case:#x}");
        }
    });
}

/// The flat fingerprinted layout agrees with an ordered BTreeMap
/// model under arbitrary insert/remove/peek/clear interleavings,
/// and a full iteration yields exactly the model's entries. The
/// tiny key space forces both bucket collisions and 1-byte
/// fingerprint aliases, which must fall through to the full key
/// compare — never resolve to another key's value.
#[test]
fn flat_table_vs_btreemap_model() {
    for_each_case(0xf1a7, |rng, case| {
        let mut table: HashTable<u32, u16> = HashTable::new(8, 2);
        let mut model: BTreeMap<u32, u16> = BTreeMap::new();
        for _ in 0..rng.range_usize(0, 400) {
            let r = rng.next_u64();
            let key = r as u32 % 64;
            let v = (r >> 8) as u16;
            match (r >> 24) % 10 {
                0..=5 => match table.insert(key, v) {
                    Ok(()) => {
                        model.insert(key, v);
                    }
                    Err(TableError::BucketFull) => {
                        assert!(!model.contains_key(&key), "case {case:#x}");
                    }
                },
                6..=7 => assert_eq!(table.remove(&key), model.remove(&key), "case {case:#x}"),
                8 => assert_eq!(table.peek(&key), model.get(&key).copied(), "case {case:#x}"),
                _ => {
                    table.clear();
                    model.clear();
                }
            }
            assert_eq!(table.len(), model.len(), "case {case:#x}");
        }
        let mut got: Vec<(u32, u16)> = table.iter().collect();
        got.sort_unstable();
        let want: Vec<(u32, u16)> = model.into_iter().collect();
        assert_eq!(got, want, "case {case:#x}");
    });
}

/// Token bucket conformance: green bytes over any packet schedule
/// never exceed burst + rate × elapsed.
#[test]
fn token_bucket_long_run_bound() {
    for_each_case(0x70c3, |rng, case| {
        let rate_bps = rng.range_u64(1, 100_000) * 1000;
        let burst = rng.range_u64(64, 100_000);
        let mut tb = TokenBucket::new(rate_bps, burst);
        let mut now = 0u64;
        let mut green_bytes = 0u64;
        for _ in 0..rng.range_usize(1, 200) {
            let len = rng.range_usize(1, 2000);
            now += rng.range_u64(0, 1_000_000);
            if tb.meter(len, now) == Color::Green {
                green_bytes += len as u64;
            }
        }
        let budget = burst as f64 + (rate_bps / 8) as f64 * (now as f64 / 1e9);
        assert!(
            green_bytes as f64 <= budget + 2000.0,
            "case {case:#x}: green {green_bytes} > budget {budget}"
        );
    });
}

/// LPM lookup equals the naive longest-match scan.
#[test]
fn lpm_vs_naive() {
    let mask = |len: u8| match len {
        0 => 0,
        _ => u32::MAX << (32 - u32::from(len)),
    };
    for_each_case(0x1b3, |rng, case| {
        let mut lpm = LpmTable::new();
        let mut naive: Vec<(u32, u8, u16)> = Vec::new();
        for _ in 0..rng.range_usize(0, 50) {
            let r = rng.next_u64();
            let len = (r >> 32) as u8 % 33;
            let (masked, v) = (r as u32 & mask(len), (r >> 40) as u16);
            lpm.insert(masked, len, v);
            naive.retain(|(p, l, _)| !(*p == masked && *l == len));
            naive.push((masked, len, v));
        }
        for _ in 0..rng.range_usize(1, 50) {
            // Half the probes fall inside an installed prefix.
            let r = rng.next_u64();
            let addr = match naive.get((r >> 32) as usize % (2 * naive.len() + 1)) {
                Some(&(p, l, _)) => p | (r as u32 & !mask(l)),
                None => r as u32,
            };
            let expect = naive
                .iter()
                .filter(|(p, l, _)| addr & mask(*l) == *p)
                .max_by_key(|(_, l, _)| *l)
                .map(|(_, l, v)| (*l, *v));
            assert_eq!(lpm.lookup(addr), expect, "case {case:#x}, {addr:#x}");
        }
    });
}

/// `CounterBank::snapshot` is consistent under interleaved `count`
/// calls: every snapshot equals a model accumulated from exactly
/// the counts issued so far — no torn, stale or phantom values.
#[test]
fn counter_reads_consistent_under_interleaved_counts() {
    for_each_case(0xc047, |rng, case| {
        let mut bank = CounterBank::new(4);
        let mut model = [(0u64, 0u64); 4]; // (packets, bytes)
        for _ in 0..rng.range_usize(0, 300) {
            // Indices 4 and 5 are out of range: counted nowhere.
            let (idx, bytes) = (rng.range_usize(0, 6), rng.range_usize(1, 2000));
            bank.count(idx, bytes);
            if idx < 4 {
                model[idx].0 += 1;
                model[idx].1 += bytes as u64;
            }
            if rng.chance(0.5) {
                for (i, want) in model.iter().enumerate() {
                    let c = bank.get(i).expect("in the bank");
                    assert_eq!((c.packets, c.bytes), *want, "case {case:#x}");
                }
                assert_eq!(bank.get(4), None, "case {case:#x}");
            }
        }
    });
}
