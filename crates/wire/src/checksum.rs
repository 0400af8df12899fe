//! Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! The FlexSFP NAT case study rewrites the IPv4 source address at line
//! rate; in hardware that is done with an incremental checksum update
//! rather than a full recompute, because the full recompute would need the
//! whole header to stream past before the checksum field can be emitted.
//! [`update16`]/[`update32`] model exactly that hardware primitive, and the
//! property tests prove equivalence with the full recompute.

/// One's-complement sum of a byte slice, folding carries, *without* the
/// final inversion. Odd trailing byte is padded with zero on the right,
/// as the wire format requires.
pub fn raw_sum(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    fold(sum)
}

/// Fold a 32-bit running sum into 16 bits of one's-complement arithmetic.
///
/// Two end-around adds, unconditionally: the first leaves at most
/// `0x1fffe`, the second at most `0xffff`, and either is the identity
/// on a sum that already fits — so this is the "repeat while it
/// carries" loop without a data-dependent branch on every checksum.
pub fn fold(sum: u32) -> u32 {
    let sum = (sum & 0xffff) + (sum >> 16);
    (sum & 0xffff) + (sum >> 16)
}

/// RFC 1071 Internet checksum of `data` (the value to place in the
/// checksum field, i.e. the inverted folded sum).
pub fn checksum(data: &[u8]) -> u16 {
    !(raw_sum(data) as u16)
}

/// Raw sum of the IPv4/TCP/UDP pseudo-header.
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], protocol: u8, l4_len: u16) -> u32 {
    let mut sum = 0u32;
    sum += u32::from(u16::from_be_bytes([src[0], src[1]]));
    sum += u32::from(u16::from_be_bytes([src[2], src[3]]));
    sum += u32::from(u16::from_be_bytes([dst[0], dst[1]]));
    sum += u32::from(u16::from_be_bytes([dst[2], dst[3]]));
    sum += u32::from(protocol);
    sum += u32::from(l4_len);
    fold(sum)
}

/// Incrementally update checksum `old_check` when a 16-bit field changes
/// from `old` to `new` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
pub fn update16(old_check: u16, old: u16, new: u16) -> u16 {
    let sum = u32::from(!old_check) + u32::from(!old) + u32::from(new);
    !(fold(sum) as u16)
}

/// Incrementally update checksum when a 32-bit field (e.g. an IPv4
/// address) changes. Applies [`update16`] to both halves.
pub fn update32(old_check: u16, old: u32, new: u32) -> u16 {
    let c = update16(old_check, (old >> 16) as u16, (new >> 16) as u16);
    update16(c, old as u16, new as u16)
}

/// The one's-complement amount a 32-bit field change `old → new` (e.g.
/// an IPv4 address) adds to a checksum's complement: RFC 1624's
/// `~m + m'` for both halves, folded. Computed once per flow and
/// replayed with [`apply_delta`].
pub fn delta32(old: u32, new: u32) -> u16 {
    let halves =
        u32::from(!(old >> 16) as u16) + (new >> 16) + u32::from(!(old as u16)) + (new & 0xffff);
    fold(halves) as u16
}

/// Patch checksum `old_check` by a precomputed field-change delta
/// (`HC' = ~(~HC + delta)`). Bit-identical to [`update32`] on the same
/// change: one's-complement addition is
/// associative, every partial sum folds to the one representative in
/// `1..=0xffff` of its class modulo `0xffff`, and the only sum that
/// folds to zero is the all-zero one — which both forms reach under
/// exactly the same condition (`~HC = 0` and a zero delta).
pub fn apply_delta(old_check: u16, delta: u16) -> u16 {
    !(fold(u32::from(!old_check) + u32::from(delta)) as u16)
}

/// FNV-1a 64-bit offset basis: the state every [`fnv1a`] fold starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a 64-bit FNV-1a `state` and return the new state.
/// Not a wire checksum: the workspace's one order-sensitive digest, for
/// pinning traces and output streams in tests and benchmark reports.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0100_0000_01b3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values that sit on every one's-complement edge: both zeros, the
    /// carry boundary and their neighbours.
    const EDGES: [u16; 8] = [0, 1, 2, 0x7fff, 0x8000, 0xfffd, 0xfffe, 0xffff];

    #[test]
    fn delta_patch_equals_incremental_update_32() {
        let words = |hi: u16, lo: u16| u32::from(hi) << 16 | u32::from(lo);
        for &c in &EDGES {
            for &oh in &EDGES {
                for &ol in &EDGES {
                    for &nh in &EDGES {
                        for &nl in &EDGES {
                            let (o, n) = (words(oh, ol), words(nh, nl));
                            assert_eq!(apply_delta(c, delta32(o, n)), update32(c, o, n));
                        }
                    }
                }
            }
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let c = x as u16;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (o, n) = (x as u32, (x >> 32) as u32);
            assert_eq!(apply_delta(c, delta32(o, n)), update32(c, o, n));
        }
    }

    #[test]
    fn fold_is_the_carry_loop_without_the_loop() {
        let looped = |mut sum: u32| {
            while sum > 0xffff {
                sum = (sum & 0xffff) + (sum >> 16);
            }
            sum
        };
        for hi in [0u32, 1, 2, 0x7fff, 0x8000, 0xfffe, 0xffff] {
            for &lo in &EDGES {
                let sum = hi << 16 | u32::from(lo);
                assert_eq!(fold(sum), looped(sum), "{sum:#x}");
            }
        }
        let mut x = 0x1234_5678_9abc_def1u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            assert_eq!(fold(x as u32), looped(x as u32));
        }
    }

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(raw_sum(&data), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_right() {
        // 0x01 padded becomes word 0x0100.
        assert_eq!(raw_sum(&[0x01]), 0x0100);
        assert_eq!(raw_sum(&[0x00, 0x02, 0x01]), 0x0102);
    }

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn verification_property() {
        // A buffer with its checksum embedded sums to 0xffff.
        let mut header = vec![
            0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let c = checksum(&header);
        header[10..12].copy_from_slice(&c.to_be_bytes());
        // Known-good value for this canonical example header.
        assert_eq!(c, 0xb861);
        assert_eq!(raw_sum(&header), 0xffff);
    }

    #[test]
    fn incremental_16_matches_recompute() {
        let mut data = vec![0x45u8, 0x00, 0x01, 0x02, 0xaa, 0xbb, 0x00, 0x00];
        let c0 = checksum(&data);
        // Change word at offset 4 from 0xaabb to 0x1234.
        let updated = update16(c0, 0xaabb, 0x1234);
        data[4..6].copy_from_slice(&0x1234u16.to_be_bytes());
        assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn incremental_32_matches_recompute() {
        let mut data = vec![0u8; 20];
        data[0] = 0x45;
        data[12..16].copy_from_slice(&0xc0a80001u32.to_be_bytes());
        let c0 = checksum(&data);
        let updated = update32(c0, 0xc0a80001, 0x0a000001);
        data[12..16].copy_from_slice(&0x0a000001u32.to_be_bytes());
        assert_eq!(updated, checksum(&data));
    }

    #[test]
    fn pseudo_header_known_value() {
        // 192.168.0.1 -> 192.168.0.199, UDP, len 0x5f
        let s = pseudo_header_sum([192, 168, 0, 1], [192, 168, 0, 199], 17, 0x5f);
        // Manual: c0a8 + 0001 + c0a8 + 00c7 + 0011 + 005f = 0x1_8288 -> 0x8289
        assert_eq!(s, 0x8289);
    }
}
