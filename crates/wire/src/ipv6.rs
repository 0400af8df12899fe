//! IPv6 packet view.
//!
//! The paper's telecom retrofit scenario (§2.1) names "per-subscriber IPv6
//! filtering" as a policy a FlexSFP must enforce on legacy switches, so the
//! dataplane needs a first-class IPv6 view even though the NAT case study
//! is IPv4-only.

use crate::addr::IpProtocol;
use crate::{be16, check_len, Result, WireError};

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// A 128-bit IPv6 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv6Addr(pub [u8; 16]);

impl Ipv6Addr {
    /// Build from a slice; panics if `b.len() != 16`.
    fn from_bytes(b: &[u8]) -> Ipv6Addr {
        let mut out = [0u8; 16];
        out.copy_from_slice(b);
        Ipv6Addr(out)
    }

    /// The /64 prefix as a u64 — used by per-subscriber prefix filters.
    pub fn prefix64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }
}

impl core::fmt::Display for Ipv6Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Simple full form (no ::-compression): fine for diagnostics.
        for (i, pair) in self.0.chunks(2).enumerate() {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{:x}", u16::from_be_bytes([pair[0], pair[1]]))?;
        }
        Ok(())
    }
}

/// A typed view over an IPv6 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv6Packet<T> {
    /// Wrap without validation.
    /// Test-only: `crates/apps/src/ipv6filter.rs` and
    /// `crates/ppe/src/parser.rs`: IPv6 test packets (no builder writes IPv6).
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv6Packet { buffer }
    }

    /// Wrap `buffer`, validating version and payload length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        let p = Ipv6Packet { buffer };
        if p.version() != 6 {
            return Err(WireError::BadVersion);
        }
        if HEADER_LEN + p.payload_len() as usize > p.buffer.as_ref().len() {
            return Err(WireError::BadLength);
        }
        Ok(p)
    }

    /// IP version field (must be 6).
    fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Payload length field.
    fn payload_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Next header (L4 protocol or extension header).
    pub fn next_header(&self) -> IpProtocol {
        IpProtocol::from_u8(self.buffer.as_ref()[6])
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// Source address.
    pub fn src(&self) -> Ipv6Addr {
        Ipv6Addr::from_bytes(&self.buffer.as_ref()[8..24])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv6Addr {
        Ipv6Addr::from_bytes(&self.buffer.as_ref()[24..40])
    }

    /// The payload (exactly `payload_len` bytes past the header).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + self.payload_len() as usize]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv6Packet<T> {
    /// Set version (upper nibble of byte 0).
    /// Test-only: `crates/apps/src/ipv6filter.rs` and
    /// `crates/ppe/src/parser.rs`: IPv6 test packets (no builder writes IPv6).
    pub fn set_version(&mut self, v: u8) {
        let b = self.buffer.as_mut();
        b[0] = (v << 4) | (b[0] & 0x0f);
    }

    /// Set the source address.
    /// Test-only: `crates/apps/src/ipv6filter.rs` and
    /// `crates/ppe/src/parser.rs`: IPv6 test packets (no builder writes IPv6).
    pub fn set_src(&mut self, a: Ipv6Addr) {
        self.buffer.as_mut()[8..24].copy_from_slice(&a.0);
    }

    /// Set the destination address.
    /// Test-only: `crates/apps/src/ipv6filter.rs`: IPv6 test packets
    /// (no builder writes IPv6).
    pub fn set_dst(&mut self, a: Ipv6Addr) {
        self.buffer.as_mut()[24..40].copy_from_slice(&a.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + 8];
        // Payload length 8, next header UDP, hop limit 64.
        buf[4..8].copy_from_slice(&[0, 8, 17, 64]);
        let mut p = Ipv6Packet::new_unchecked(&mut buf);
        p.set_version(6);
        let mut src = [0u8; 16];
        src[0] = 0x20;
        src[1] = 0x01;
        src[15] = 1;
        p.set_src(Ipv6Addr(src));
        p.set_dst(Ipv6Addr([0xff; 16]));
        buf
    }

    #[test]
    fn field_round_trip() {
        let buf = sample();
        let p = Ipv6Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 6);
        assert_eq!(p.payload_len(), 8);
        assert_eq!(p.next_header(), IpProtocol::Udp);
        assert_eq!(p.hop_limit(), 64);
        assert_eq!((p.dst().0[0], p.src().0[0]), (0xff, 0x20));
        assert_eq!(p.payload().len(), 8);
    }

    #[test]
    fn version_check() {
        let mut buf = sample();
        buf[0] = 0x45;
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadVersion
        );
    }

    #[test]
    fn payload_len_check() {
        let mut buf = sample();
        buf[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv6Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn prefix64_is_the_top_half() {
        let pfx = Ipv6Addr::from_bytes(&[
            0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0x42, 0, 0, 0, 0, 0, 0, 0, 1,
        ]);
        assert_eq!(pfx.prefix64(), 0x20010db8_00000042);
    }

    #[test]
    fn display_full_form() {
        let a = Ipv6Addr::from_bytes(&[0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(a.to_string(), "2001:db8:0:0:0:0:0:1");
    }
}
