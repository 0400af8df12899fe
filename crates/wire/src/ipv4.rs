//! IPv4 packet view with options support and checksum helpers.

use crate::addr::IpProtocol;
use crate::{be16, check_len, checksum, set_be16, Result, WireError};

/// Minimum IPv4 header length (no options).
const MIN_HEADER_LEN: usize = 20;

/// A typed view over an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Wrap `buffer`, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), MIN_HEADER_LEN)?;
        let p = Ipv4Packet { buffer };
        let buf = p.buffer.as_ref();
        if p.version() != 4 {
            return Err(WireError::BadVersion);
        }
        let ihl = p.header_len();
        if !(MIN_HEADER_LEN..=60).contains(&ihl) || buf.len() < ihl {
            return Err(WireError::BadLength);
        }
        let total = p.total_len() as usize;
        if total < ihl || total > buf.len() {
            return Err(WireError::BadLength);
        }
        Ok(p)
    }

    /// IP version field (must be 4).
    fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total length field (header + payload).
    fn total_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// More-fragments flag.
    fn more_frags(&self) -> bool {
        self.buffer.as_ref()[6] & 0x20 != 0
    }

    /// Fragment offset in 8-byte units.
    pub fn frag_offset(&self) -> u16 {
        be16(self.buffer.as_ref(), 6) & 0x1fff
    }

    /// True if this packet is a fragment (offset != 0 or MF set).
    pub fn is_fragment(&self) -> bool {
        self.more_frags() || self.frag_offset() != 0
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Layer-4 protocol.
    pub fn protocol(&self) -> IpProtocol {
        IpProtocol::from_u8(self.buffer.as_ref()[9])
    }

    /// Header checksum field.
    pub fn header_checksum(&self) -> u16 {
        be16(self.buffer.as_ref(), 10)
    }

    /// Source address.
    pub fn src(&self) -> u32 {
        crate::be32(self.buffer.as_ref(), 12)
    }

    /// Destination address.
    pub fn dst(&self) -> u32 {
        crate::be32(self.buffer.as_ref(), 16)
    }

    /// True if any IP options are present — the paper's packet-sanitizer
    /// use case strips/drops these.
    pub fn has_options(&self) -> bool {
        self.header_len() > MIN_HEADER_LEN
    }

    /// The L4 payload (between header and `total_len`).
    pub fn payload(&self) -> &[u8] {
        let ihl = self.header_len();
        let total = self.total_len() as usize;
        &self.buffer.as_ref()[ihl..total]
    }

    /// Verify the header checksum (sum over header must fold to 0xffff).
    pub fn verify_checksum(&self) -> bool {
        let hdr = &self.buffer.as_ref()[..self.header_len()];
        checksum::raw_sum(hdr) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Set version (upper nibble of byte 0).
    pub fn set_version(&mut self, v: u8) {
        let b = self.buffer.as_mut();
        b[0] = (v << 4) | (b[0] & 0x0f);
    }

    /// Set header length in bytes (must be a multiple of 4).
    pub fn set_header_len(&mut self, len: usize) {
        let b = self.buffer.as_mut();
        b[0] = (b[0] & 0xf0) | ((len / 4) as u8 & 0x0f);
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        set_be16(self.buffer.as_mut(), 2, len);
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        set_be16(self.buffer.as_mut(), 4, id);
    }

    /// Set flags+fragment offset: DF, MF and 13-bit offset.
    pub fn set_fragment(&mut self, dont_frag: bool, more_frags: bool, offset: u16) {
        let v = (u16::from(dont_frag) << 14) | (u16::from(more_frags) << 13) | (offset & 0x1fff);
        set_be16(self.buffer.as_mut(), 6, v);
    }

    /// Set the TTL.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
    }

    /// Set the L4 protocol.
    pub fn set_protocol(&mut self, p: IpProtocol) {
        self.buffer.as_mut()[9] = p.to_u8();
    }

    /// Set the header checksum field.
    pub fn set_header_checksum(&mut self, c: u16) {
        set_be16(self.buffer.as_mut(), 10, c);
    }

    /// Set the source address.
    pub fn set_src(&mut self, addr: u32) {
        crate::set_be32(self.buffer.as_mut(), 12, addr);
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, addr: u32) {
        crate::set_be32(self.buffer.as_mut(), 16, addr);
    }

    /// Rewrite the source address and patch the header checksum with the
    /// RFC 1624 incremental update — the exact hardware operation the
    /// FlexSFP NAT performs at line rate.
    ///
    /// Test-only: `crates/ppe/tests/oracle.rs`: a reference NAT rewrite,
    /// written with this crate alone.
    pub fn rewrite_src_incremental(&mut self, new_src: u32) {
        let old = self.src();
        let c = checksum::update32(self.header_checksum(), old, new_src);
        self.set_src(new_src);
        self.set_header_checksum(c);
    }

    /// Rewrite the destination address with incremental checksum patch.
    ///
    /// Test-only: `crates/ppe/tests/oracle.rs`: a reference NAT rewrite,
    /// written with this crate alone.
    pub fn rewrite_dst_incremental(&mut self, new_dst: u32) {
        let old = self.dst();
        let c = checksum::update32(self.header_checksum(), old, new_dst);
        self.set_dst(new_dst);
        self.set_header_checksum(c);
    }

    /// Recompute and store the header checksum from scratch.
    pub fn fill_checksum(&mut self) {
        self.set_header_checksum(0);
        let ihl = self.header_len();
        let c = checksum::checksum(&self.buffer.as_ref()[..ihl]);
        self.set_header_checksum(c);
    }
}

/// Format an IPv4 address (host-order u32 as used by the views) dotted.
pub fn fmt_addr(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        addr >> 24,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// Parse `a.b.c.d` into the u32 representation. Returns `None` on syntax
/// errors or out-of-range octets.
pub fn parse_addr(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut addr = 0u32;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        addr = (addr << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;

    fn sample_packet() -> Vec<u8> {
        PacketBuilder::ipv4_udp(
            parse_addr("192.168.0.1").unwrap(),
            parse_addr("10.0.0.2").unwrap(),
            1234,
            53,
            b"hello",
        )
    }

    #[test]
    fn parse_round_trip() {
        let buf = sample_packet();
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.protocol(), IpProtocol::Udp);
        assert_eq!(fmt_addr(p.src()), "192.168.0.1");
        assert_eq!(fmt_addr(p.dst()), "10.0.0.2");
        assert!(p.verify_checksum());
        assert!(!p.has_options());
        assert!(!p.is_fragment());
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = sample_packet();
        buf[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadVersion
        );
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut buf = sample_packet();
        buf[0] = 0x44; // IHL=4 words = 16 bytes < 20
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn total_len_overflow_rejected() {
        let mut buf = sample_packet();
        let huge = (buf.len() + 1) as u16;
        buf[2..4].copy_from_slice(&huge.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength
        );
    }

    #[test]
    fn incremental_src_rewrite_keeps_checksum_valid() {
        let mut buf = sample_packet();
        let mut p = Ipv4Packet::new_unchecked(&mut buf);
        p.rewrite_src_incremental(parse_addr("100.64.7.9").unwrap());
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(fmt_addr(p.src()), "100.64.7.9");
        assert!(p.verify_checksum());
    }

    #[test]
    fn incremental_dst_rewrite_keeps_checksum_valid() {
        let mut buf = sample_packet();
        let mut p = Ipv4Packet::new_unchecked(&mut buf);
        p.rewrite_dst_incremental(parse_addr("172.16.5.5").unwrap());
        let p = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum());
    }

    #[test]
    fn addr_parse_fmt() {
        assert_eq!(parse_addr("1.2.3.4"), Some(0x01020304));
        assert_eq!(parse_addr("255.255.255.255"), Some(0xffffffff));
        assert_eq!(parse_addr("256.0.0.1"), None);
        assert_eq!(parse_addr("1.2.3"), None);
        assert_eq!(parse_addr("1.2.3.4.5"), None);
        assert_eq!(parse_addr("a.b.c.d"), None);
        assert_eq!(fmt_addr(0x01020304), "1.2.3.4");
    }

    #[test]
    fn fragment_flags() {
        let mut buf = sample_packet();
        let mut p = Ipv4Packet::new_unchecked(&mut buf);
        p.set_fragment(true, false, 0);
        assert!(!p.more_frags());
        assert!(!p.is_fragment());
        p.set_fragment(false, true, 185);
        assert!(p.more_frags());
        assert_eq!(p.frag_offset(), 185);
        assert!(p.is_fragment());
    }
}
