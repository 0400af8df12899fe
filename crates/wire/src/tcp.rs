//! TCP segment view.

use crate::{be16, be32, check_len, checksum, set_be16, set_be32, Result, WireError};

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits (low byte of the flags word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN — sender finished.
    pub fin: bool,
    /// SYN — synchronize sequence numbers.
    pub syn: bool,
    /// RST — reset connection.
    pub rst: bool,
    /// PSH — push data.
    pub psh: bool,
    /// ACK — acknowledgment valid.
    pub ack: bool,
    /// URG — urgent pointer valid.
    pub urg: bool,
    /// ECE — ECN echo.
    pub ece: bool,
    /// CWR — congestion window reduced.
    pub cwr: bool,
}

impl TcpFlags {
    /// Decode from the on-wire byte.
    pub fn from_u8(v: u8) -> TcpFlags {
        TcpFlags {
            fin: v & 0x01 != 0,
            syn: v & 0x02 != 0,
            rst: v & 0x04 != 0,
            psh: v & 0x08 != 0,
            ack: v & 0x10 != 0,
            urg: v & 0x20 != 0,
            ece: v & 0x40 != 0,
            cwr: v & 0x80 != 0,
        }
    }

    /// Encode to the on-wire byte.
    pub fn to_u8(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
            | u8::from(self.urg) << 5
            | u8::from(self.ece) << 6
            | u8::from(self.cwr) << 7
    }

    /// Flags of a connection-opening segment.
    pub fn syn_only() -> TcpFlags {
        TcpFlags {
            syn: true,
            ..Default::default()
        }
    }
}

/// A typed view over a TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> TcpSegment<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        TcpSegment { buffer }
    }

    /// Wrap `buffer`, validating the data offset.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), MIN_HEADER_LEN)?;
        let s = TcpSegment { buffer };
        let dof = s.header_len();
        if !(MIN_HEADER_LEN..=60).contains(&dof) || dof > s.buffer.as_ref().len() {
            return Err(WireError::BadLength);
        }
        Ok(s)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        be32(self.buffer.as_ref(), 4)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Flag bits.
    pub fn flags(&self) -> TcpFlags {
        TcpFlags::from_u8(self.buffer.as_ref()[13])
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        be16(self.buffer.as_ref(), 14)
    }

    /// Checksum field.
    pub fn checksum_field(&self) -> u16 {
        be16(self.buffer.as_ref(), 16)
    }

    /// Options region.
    pub fn options(&self) -> &[u8] {
        &self.buffer.as_ref()[MIN_HEADER_LEN..self.header_len()]
    }

    /// Payload following the header (to end of buffer — the caller slices
    /// the buffer to the IP payload bounds first).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }

    /// Verify the checksum against an IPv4 pseudo-header.
    pub fn verify_checksum_v4(&self, src: u32, dst: u32) -> bool {
        let buf = self.buffer.as_ref();
        let ph =
            checksum::pseudo_header_sum(src.to_be_bytes(), dst.to_be_bytes(), 6, buf.len() as u16);
        checksum::fold(ph + checksum::raw_sum(buf)) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> TcpSegment<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, p: u16) {
        set_be16(self.buffer.as_mut(), 0, p);
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        set_be16(self.buffer.as_mut(), 2, p);
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, v: u32) {
        set_be32(self.buffer.as_mut(), 4, v);
    }

    /// Set the header length in bytes (multiple of 4).
    pub fn set_header_len(&mut self, len: usize) {
        let b = self.buffer.as_mut();
        b[12] = (((len / 4) as u8) << 4) | (b[12] & 0x0f);
    }

    /// Set the flag bits.
    pub fn set_flags(&mut self, f: TcpFlags) {
        self.buffer.as_mut()[13] = f.to_u8();
    }

    /// Set the receive window.
    pub fn set_window(&mut self, w: u16) {
        set_be16(self.buffer.as_mut(), 14, w);
    }

    /// Set the checksum field.
    pub fn set_checksum(&mut self, c: u16) {
        set_be16(self.buffer.as_mut(), 16, c);
    }

    /// Compute and store the checksum over an IPv4 pseudo-header.
    pub fn fill_checksum_v4(&mut self, src: u32, dst: u32) {
        self.set_checksum(0);
        let buf = self.buffer.as_ref();
        let ph =
            checksum::pseudo_header_sum(src.to_be_bytes(), dst.to_be_bytes(), 6, buf.len() as u16);
        let c = !(checksum::fold(ph + checksum::raw_sum(buf)) as u16);
        self.set_checksum(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; MIN_HEADER_LEN + 6];
        let mut s = TcpSegment::new_unchecked(&mut buf);
        s.set_src_port(443);
        s.set_dst_port(51000);
        s.set_seq(0xdeadbeef);
        s.set_header_len(20);
        s.set_flags(TcpFlags {
            ack: true,
            psh: true,
            ..Default::default()
        });
        s.set_window(65535);
        buf[20..26].copy_from_slice(b"payload"[..6].as_ref());
        let mut s = TcpSegment::new_unchecked(&mut buf);
        s.fill_checksum_v4(0xc0a80101, 0xc0a80102);
        buf
    }

    #[test]
    fn parse_fields() {
        let buf = sample();
        let s = TcpSegment::new_checked(&buf[..]).unwrap();
        assert_eq!(s.src_port(), 443);
        assert_eq!(s.dst_port(), 51000);
        assert_eq!(s.seq(), 0xdeadbeef);
        assert_eq!(s.header_len(), 20);
        assert!(s.flags().ack);
        assert!(s.flags().psh);
        assert!(!s.flags().syn);
        assert_eq!(s.window(), 65535);
        assert_eq!(s.payload(), &b"payloa"[..]);
        assert!(s.verify_checksum_v4(0xc0a80101, 0xc0a80102));
        assert!(!s.verify_checksum_v4(0xc0a80101, 0xc0a80103));
    }

    #[test]
    fn flags_round_trip() {
        for v in 0u8..=255 {
            assert_eq!(TcpFlags::from_u8(v).to_u8(), v);
        }
        assert!(TcpFlags::syn_only().syn);
        assert!(!TcpFlags::syn_only().ack);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = sample();
        buf[12] = 0x40; // 16-byte header < 20
        assert!(TcpSegment::new_checked(&buf[..]).is_err());
        buf[12] = 0xf0; // 60-byte header > buffer
        assert!(TcpSegment::new_checked(&buf[..]).is_err());
    }
}
