//! Hardware hash primitives.
//!
//! The dataplane hashes for two reasons: flow-table bucket indexing (the
//! NAT's 32 k-entry source-IP table) and flow steering (the Katran-like
//! load-balancing use case). FPGAs implement these as CRC-32 trees and
//! Toeplitz matrices; both are bit-exact reproduced here so table layouts
//! are stable across the whole workspace.

/// CRC-32 lookup tables (reflected 0xEDB88320). `CRC32_TABLES[0]` is
/// the classic per-byte table — the byte-parallel formulation a
/// synthesized CRC circuit unrolls into; `CRC32_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which lets
/// [`crc32`] fold four input bytes per step.
const CRC32_TABLES: [[u32; 256]; 4] = {
    let mut tables = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected). Four bytes per step
/// (slicing-by-4: four independent table reads XORed together), then
/// one table step per remaining byte — the same XOR tree a hardware
/// CRC unrolls, four levels at a time. A table key is 13 bytes and is
/// hashed on every insert, lookup and bucket touch, so the serial
/// byte-at-a-time chain was a third of a table probe.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut words = data.chunks_exact(4);
    for w in &mut words {
        crc ^= u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = CRC32_TABLES[3][(crc & 0xff) as usize]
            ^ CRC32_TABLES[2][((crc >> 8) & 0xff) as usize]
            ^ CRC32_TABLES[1][((crc >> 16) & 0xff) as usize]
            ^ CRC32_TABLES[0][(crc >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLES[0][usize::from((crc as u8) ^ b)];
    }
    !crc
}

/// The Microsoft RSS default Toeplitz key, the de-facto standard for
/// NIC flow steering.
pub const RSS_DEFAULT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Toeplitz hash of `input` under `key` (must be at least
/// `input.len() + 4` bytes long).
pub(crate) fn toeplitz(key: &[u8], input: &[u8]) -> u32 {
    assert!(
        key.len() >= input.len() + 4,
        "Toeplitz key too short for input"
    );
    let mut result: u32 = 0;
    // The sliding 32-bit window over the key.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_key_bit_index = 32usize;
    for &byte in input {
        for bit in (0..8).rev() {
            if byte & (1 << bit) != 0 {
                result ^= window;
            }
            // Shift the window left by one, pulling in the next key bit.
            let next_bit = if next_key_bit_index / 8 < key.len() {
                (key[next_key_bit_index / 8] >> (7 - (next_key_bit_index % 8))) & 1
            } else {
                0
            };
            window = (window << 1) | u32::from(next_bit);
            next_key_bit_index += 1;
        }
    }
    result
}

/// Toeplitz hash of an IPv4 4-tuple (src, dst, sport, dport) in RSS
/// field order.
pub fn toeplitz_v4_4tuple(key: &[u8], src: u32, dst: u32, sport: u16, dport: u16) -> u32 {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src.to_be_bytes());
    input[4..8].copy_from_slice(&dst.to_be_bytes());
    input[8..10].copy_from_slice(&sport.to_be_bytes());
    input[10..12].copy_from_slice(&dport.to_be_bytes());
    toeplitz(key, &input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The canonical "123456789" check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length() {
        // The reference: one table step per byte.
        let bytewise = |data: &[u8]| {
            !data.iter().fold(0xffff_ffffu32, |crc, &b| {
                (crc >> 8) ^ CRC32_TABLES[0][usize::from((crc as u8) ^ b)]
            })
        };
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let data: Vec<u8> = (0..67)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..4 {
            for end in start..=data.len() {
                assert_eq!(crc32(&data[start..end]), bytewise(&data[start..end]));
            }
        }
    }

    #[test]
    fn toeplitz_rss_published_vectors() {
        // Verification suite from the Microsoft RSS specification:
        // 66.9.149.187:2794 -> 161.142.100.80:1766  => 0x51ccc178
        let src = u32::from_be_bytes([66, 9, 149, 187]);
        let dst = u32::from_be_bytes([161, 142, 100, 80]);
        let h = toeplitz_v4_4tuple(&RSS_DEFAULT_KEY, src, dst, 2794, 1766);
        assert_eq!(h, 0x51cc_c178);
    }

    #[test]
    fn toeplitz_more_rss_vectors() {
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let src = u32::from_be_bytes([199, 92, 111, 2]);
        let dst = u32::from_be_bytes([65, 69, 140, 83]);
        assert_eq!(
            toeplitz_v4_4tuple(&RSS_DEFAULT_KEY, src, dst, 14230, 4739),
            0xc626_b0ea
        );
    }

    #[test]
    fn hash_distributes_buckets() {
        // Sanity: over 4k sequential addresses, all 16 buckets of a
        // CRC-indexed table get used.
        let mut seen = [false; 16];
        for i in 0u32..4096 {
            let h = crc32(&i.to_be_bytes());
            seen[(h & 0xf) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "key too short")]
    fn short_key_panics() {
        toeplitz(&[0u8; 8], &[0u8; 8]);
    }
}
