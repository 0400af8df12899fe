//! Keyed message authentication for control and reconfiguration packets.
//!
//! The paper requires that "the control plane authenticates
//! reconfiguration packets whose payload carries a new bitstream" (§4.2)
//! without prescribing a construction. A 128-bit-keyed SipHash-2-4 with a
//! 64-bit tag is the classic embedded choice (tiny state, no tables, a
//! handful of ARX rounds per 8 bytes — trivially synthesizable), so we
//! implement it from scratch here rather than pulling a crypto crate.

/// A 128-bit authentication key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthKey(pub [u8; 16]);

impl AuthKey {
    /// The all-zero key (factory default — rotate before deployment).
    pub const DEFAULT: AuthKey = AuthKey([0; 16]);

    /// Derive a key from a passphrase (test/deployment convenience; a
    /// real deployment provisions random keys).
    pub fn from_passphrase(phrase: &str) -> AuthKey {
        // Two chained SipHash invocations under fixed keys spread the
        // phrase entropy across 16 bytes.
        let k0 = siphash24(&AuthKey([0x5a; 16]), phrase.as_bytes());
        let k1 = siphash24(&AuthKey([0xa5; 16]), phrase.as_bytes());
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&k0.to_le_bytes());
        key[8..].copy_from_slice(&k1.to_le_bytes());
        AuthKey(key)
    }
}

fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 of `data` under `key`, returning the 64-bit tag.
pub(crate) fn siphash24(key: &AuthKey, data: &[u8]) -> u64 {
    let k0 = u64::from_le_bytes(key.0[0..8].try_into().unwrap());
    let k1 = u64::from_le_bytes(key.0[8..16].try_into().unwrap());
    let mut v = [
        k0 ^ 0x736f6d6570736575,
        k1 ^ 0x646f72616e646f6d,
        k0 ^ 0x6c7967656e657261,
        k1 ^ 0x7465646279746573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    // Final block: remaining bytes + length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Compute the authentication tag for a control-plane payload.
pub fn tag(key: &AuthKey, payload: &[u8]) -> [u8; 8] {
    siphash24(key, payload).to_le_bytes()
}

/// Constant-time-ish tag verification (XOR-accumulate; good enough for a
/// model — the property that matters is correctness, not timing).
pub fn verify(key: &AuthKey, payload: &[u8], presented: &[u8; 8]) -> bool {
    let expected = tag(key, payload);
    expected
        .iter()
        .zip(presented)
        .fold(0u8, |acc, (a, b)| acc | (a ^ b))
        == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Official SipHash-2-4 test vector from the reference
    /// implementation: key 000102…0f, input 00 01 02 … (len 0..8).
    #[test]
    fn reference_vectors() {
        let mut key = [0u8; 16];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let key = AuthKey(key);
        // vectors_sip64 from the SipHash reference repo (first 4).
        let expected: [u64; 4] = [
            u64::from_le_bytes([0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72]),
            u64::from_le_bytes([0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74]),
            u64::from_le_bytes([0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d]),
            u64::from_le_bytes([0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85]),
        ];
        let data: Vec<u8> = (0u8..8).collect();
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(siphash24(&key, &data[..len]), *want, "len {len}");
        }
    }

    #[test]
    fn tag_verify_round_trip() {
        let key = AuthKey::from_passphrase("fleet-key-1");
        let payload = b"write table 0 entry";
        let t = tag(&key, payload);
        assert!(verify(&key, payload, &t));
        // Tampered payload fails.
        assert!(!verify(&key, b"write table 0 entrx", &t));
        // Wrong key fails.
        let other = AuthKey::from_passphrase("fleet-key-2");
        assert!(!verify(&other, payload, &t));
        // Tampered tag fails.
        let mut bad = t;
        bad[3] ^= 1;
        assert!(!verify(&key, payload, &bad));
    }

    #[test]
    fn passphrase_derivation_is_stable_and_distinct() {
        let a = AuthKey::from_passphrase("alpha");
        let b = AuthKey::from_passphrase("alpha");
        let c = AuthKey::from_passphrase("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, AuthKey::DEFAULT);
    }

    #[test]
    fn long_messages() {
        let key = AuthKey::from_passphrase("k");
        let long = vec![0xabu8; 10_000];
        let t1 = siphash24(&key, &long);
        let mut tweaked = long.clone();
        tweaked[9_999] ^= 1;
        assert_ne!(t1, siphash24(&key, &tweaked));
    }
}
