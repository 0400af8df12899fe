//! Property tests for core-module invariants: bitstream container
//! robustness, authentication soundness, and the update FSM under
//! arbitrary chunkings.
//!
//! Each property runs a fixed number of seeded cases under plain
//! `cargo test`; a failure names the case's seed, which reproduces it
//! alone.

use flexsfp_core::auth::{self, AuthKey};
use flexsfp_core::bitstream::Bitstream;
use flexsfp_core::reprogram::{UpdateFsm, MAX_CHUNK};
use flexsfp_fabric::hash::crc32;
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_fabric::SpiFlash;
use flexsfp_traffic::rng::Xoshiro256;

const CASES: u64 = 256;

/// A commit materialises the 16 MiB flash model and erases a 4 MiB slot;
/// two dozen cases cover the chunkings.
const FLASH_CASES: u64 = 24;

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

/// Bitstream serialization round-trips arbitrary metadata.
#[test]
fn bitstream_round_trip() {
    for_each_case(0xb175, CASES, |rng, case| {
        let app: String = (0..rng.range_usize(1, 13))
            .map(|_| char::from(b'a' + rng.range_u64(0, 26) as u8))
            .collect();
        // The payload is 100 bits per LUT, up to 2 MiB, and a round trip
        // CRCs every byte twice: draw the LUT count's magnitude uniformly
        // so most images stay small and a few reach full size.
        let manifest = ResourceManifest::new(
            rng.range_u64(0, 200_000) >> rng.range_u64(0, 18),
            rng.range_u64(0, 200_000),
            rng.range_u64(0, 2_000),
            rng.range_u64(0, 700),
        );
        let bs = Bitstream::new(
            &app,
            rng.next_u64() as u32,
            manifest,
            rng.range_u64(1, 500_000_000),
        );
        let parsed = Bitstream::from_bytes(&bs.to_bytes());
        assert_eq!(parsed, Ok(bs), "case {case:#x}");
    });
}

/// Arbitrary bytes never panic the bitstream parser, and any single-bit
/// flip of a valid image is detected.
#[test]
fn bitstream_integrity() {
    let valid = Bitstream::new("app", 1, ResourceManifest::ZERO, 1).to_bytes();
    for_each_case(0x1d7e6, CASES, |rng, case| {
        let _ = Bitstream::from_bytes(&bytes(rng, 0, 300));
        let mut image = valid.clone();
        let pos = rng.range_usize(0, image.len() * 8);
        image[pos / 8] ^= 1 << (pos % 8);
        assert!(
            Bitstream::from_bytes(&image).is_err(),
            "case {case:#x}: bit flip at {pos} undetected"
        );
    });
}

/// Authentication: tags verify for the exact (key, message) pair and
/// fail for any prefix/suffix/other-key variation.
#[test]
fn auth_soundness() {
    for_each_case(0xa074, CASES, |rng, case| {
        let mut key_bytes = [0u8; 16];
        key_bytes.fill_with(|| rng.next_u64() as u8);
        let key = AuthKey(key_bytes);
        let msg = bytes(rng, 0, 200);
        let tag = auth::tag(&key, &msg);
        assert!(auth::verify(&key, &msg, &tag), "case {case:#x}");
        // Extension attack: appending a byte must break the tag.
        let mut extended = msg.clone();
        extended.push(rng.next_u64() as u8);
        assert!(!auth::verify(&key, &extended, &tag), "case {case:#x}");
        // Truncation breaks it too (when non-empty).
        if let Some((_, truncated)) = msg.split_last() {
            assert!(!auth::verify(&key, truncated, &tag), "case {case:#x}");
        }
        // A different key fails (with overwhelming probability).
        key_bytes[0] ^= 1;
        assert!(
            !auth::verify(&AuthKey(key_bytes), &msg, &tag),
            "case {case:#x}"
        );
    });
}

/// The update FSM accepts any chunking of a valid image and commits
/// exactly the original bytes to flash.
#[test]
fn update_fsm_arbitrary_chunking() {
    for_each_case(0xc4a2c, FLASH_CASES, |rng, case| {
        let image = bytes(rng, 1, 5_000);
        let chunk_sizes: Vec<usize> = (0..rng.range_usize(1, 40))
            .map(|_| rng.range_usize(1, MAX_CHUNK))
            .collect();
        let slot = rng.range_usize(1, 4);
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        fsm.begin(slot, image.len(), crc32(&image)).unwrap();
        let mut sent = 0usize;
        for (seq, size) in chunk_sizes.iter().cycle().enumerate() {
            if sent == image.len() {
                break;
            }
            let take = (*size).min(image.len() - sent);
            fsm.chunk(seq as u32, &image[sent..sent + take]).unwrap();
            sent += take;
        }
        assert_eq!(fsm.commit(&mut flash), Ok(slot), "case {case:#x}");
        assert_eq!(flash.image(slot).unwrap(), &image[..], "case {case:#x}");
    });
}

/// A wrong CRC is always rejected and leaves the slot erased.
#[test]
fn update_fsm_rejects_bad_crc() {
    for_each_case(0xbadc2c, FLASH_CASES, |rng, case| {
        let image = bytes(rng, 1, 2_000);
        let wrong = rng.next_u64() as u32;
        if wrong == crc32(&image) {
            return;
        }
        let mut fsm = UpdateFsm::new();
        let mut flash = SpiFlash::new();
        fsm.begin(1, image.len(), wrong).unwrap();
        for (seq, chunk) in image.chunks(MAX_CHUNK).enumerate() {
            fsm.chunk(seq as u32, chunk).unwrap();
        }
        assert!(fsm.commit(&mut flash).is_err(), "case {case:#x}");
        assert_eq!(
            (flash.erase_count, flash.image(1).unwrap()),
            (0, &[][..]),
            "case {case:#x}"
        );
    });
}
