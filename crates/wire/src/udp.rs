//! UDP datagram view.

use crate::{be16, check_len, checksum, set_be16, Result, WireError};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A typed view over a UDP datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        UdpDatagram { buffer }
    }

    /// Wrap `buffer`, validating header and length field.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        let d = UdpDatagram { buffer };
        let len = d.len() as usize;
        if len < HEADER_LEN || len > d.buffer.as_ref().len() {
            return Err(WireError::BadLength);
        }
        Ok(d)
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// Length field (header + payload).
    fn len(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Checksum field.
    fn checksum_field(&self) -> u16 {
        be16(self.buffer.as_ref(), 6)
    }

    /// Payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..self.len() as usize]
    }

    /// Verify the checksum against an IPv4 pseudo-header. A zero checksum
    /// field counts as valid (checksum disabled).
    /// Test-only: `crates/ppe/tests/oracle.rs` and `crates/wire/tests/prop.rs`:
    /// rewritten and built datagrams keep a valid checksum.
    pub fn verify_checksum_v4(&self, src: u32, dst: u32) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let ph = checksum::pseudo_header_sum(src.to_be_bytes(), dst.to_be_bytes(), 17, self.len());
        let body = checksum::raw_sum(&self.buffer.as_ref()[..self.len() as usize]);
        checksum::fold(ph + body) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    /// Set the source port (no checksum patch; see
    /// [`UdpDatagram::fill_checksum_v4`]).
    pub fn set_src_port(&mut self, p: u16) {
        set_be16(self.buffer.as_mut(), 0, p);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        set_be16(self.buffer.as_mut(), 2, p);
    }

    /// Set the length field.
    pub fn set_len(&mut self, l: u16) {
        set_be16(self.buffer.as_mut(), 4, l);
    }

    /// Set the checksum field.
    fn set_checksum(&mut self, c: u16) {
        set_be16(self.buffer.as_mut(), 6, c);
    }

    /// Compute and store the checksum over an IPv4 pseudo-header. Produces
    /// 0xffff instead of 0 per RFC 768 (0 means "no checksum").
    pub fn fill_checksum_v4(&mut self, src: u32, dst: u32) {
        self.set_checksum(0);
        let len = self.len();
        let ph = checksum::pseudo_header_sum(src.to_be_bytes(), dst.to_be_bytes(), 17, len);
        let body = checksum::raw_sum(&self.buffer.as_ref()[..len as usize]);
        let mut c = !(checksum::fold(ph + body) as u16);
        if c == 0 {
            c = 0xffff;
        }
        self.set_checksum(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN];
        buf.extend_from_slice(b"abcd");
        let mut d = UdpDatagram::new_unchecked(&mut buf);
        d.set_src_port(5000);
        d.set_dst_port(53);
        d.set_len(12);
        d.fill_checksum_v4(0x0a000001, 0x0a000002);
        buf
    }

    #[test]
    fn parse_and_verify() {
        let buf = sample();
        let d = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert_eq!(d.src_port(), 5000);
        assert_eq!(d.dst_port(), 53);
        assert_eq!(d.len(), 12);
        assert_eq!(d.payload(), b"abcd");
        assert!(d.verify_checksum_v4(0x0a000001, 0x0a000002));
        // Wrong pseudo-header fails.
        assert!(!d.verify_checksum_v4(0x0a000001, 0x0a000003));
    }

    #[test]
    fn zero_checksum_is_accepted() {
        let mut buf = sample();
        buf[6] = 0;
        buf[7] = 0;
        let d = UdpDatagram::new_checked(&buf[..]).unwrap();
        assert!(d.verify_checksum_v4(1, 2));
    }

    #[test]
    fn bad_len_rejected() {
        let mut buf = sample();
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // < header
        assert!(UdpDatagram::new_checked(&buf[..]).is_err());
        buf[4..6].copy_from_slice(&200u16.to_be_bytes()); // > buffer
        assert!(UdpDatagram::new_checked(&buf[..]).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(UdpDatagram::new_checked(&[0u8; 7][..]).is_err());
    }
}
