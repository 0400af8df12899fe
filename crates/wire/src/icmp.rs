//! ICMPv4 message view.

use crate::{be16, check_len, checksum, set_be16, Result};

/// Minimum ICMP header length (type, code, checksum, rest-of-header).
pub const HEADER_LEN: usize = 8;

/// ICMPv4 message types the dataplane distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3).
    DestUnreachable,
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11).
    TimeExceeded,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IcmpType {
    /// Decode from the on-wire type byte.
    fn from_u8(v: u8) -> IcmpType {
        match v {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestUnreachable,
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            other => IcmpType::Other(other),
        }
    }

    /// Encode to the on-wire type byte.
    fn to_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
            IcmpType::Other(v) => v,
        }
    }
}

/// A typed view over an ICMPv4 message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> IcmpPacket<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        IcmpPacket { buffer }
    }

    /// Wrap `buffer`, validating the fixed header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        Ok(IcmpPacket { buffer })
    }

    /// Message type.
    pub fn msg_type(&self) -> IcmpType {
        IcmpType::from_u8(self.buffer.as_ref()[0])
    }

    /// Echo identifier (valid for echo request/reply).
    pub fn echo_ident(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Echo sequence number (valid for echo request/reply).
    pub fn echo_seq(&self) -> u16 {
        be16(self.buffer.as_ref(), 6)
    }

    /// Data past the 8-byte header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Verify the message checksum (covers the whole ICMP message).
    pub fn verify_checksum(&self) -> bool {
        checksum::raw_sum(self.buffer.as_ref()) == 0xffff
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> IcmpPacket<T> {
    /// Set the message type.
    pub fn set_msg_type(&mut self, t: IcmpType) {
        self.buffer.as_mut()[0] = t.to_u8();
    }

    /// Set the message code.
    pub fn set_code(&mut self, c: u8) {
        self.buffer.as_mut()[1] = c;
    }

    /// Set the echo identifier.
    pub fn set_echo_ident(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 4, v);
    }

    /// Set the echo sequence number.
    pub fn set_echo_seq(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 6, v);
    }

    /// Recompute and store the checksum.
    pub fn fill_checksum(&mut self) {
        set_be16(self.buffer.as_mut(), 2, 0);
        let c = checksum::checksum(self.buffer.as_ref());
        set_be16(self.buffer.as_mut(), 2, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let mut buf = vec![0u8; HEADER_LEN + 16];
        let mut p = IcmpPacket::new_unchecked(&mut buf);
        p.set_msg_type(IcmpType::EchoRequest);
        p.set_code(0);
        p.set_echo_ident(0x1234);
        p.set_echo_seq(7);
        p.fill_checksum();
        let p = IcmpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.msg_type(), IcmpType::EchoRequest);
        assert_eq!(p.echo_ident(), 0x1234);
        assert_eq!(p.echo_seq(), 7);
        assert!(p.verify_checksum());
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut buf = vec![0u8; HEADER_LEN];
        let mut p = IcmpPacket::new_unchecked(&mut buf);
        p.set_msg_type(IcmpType::EchoReply);
        p.fill_checksum();
        buf[7] ^= 1;
        assert!(!IcmpPacket::new_checked(&buf[..]).unwrap().verify_checksum());
    }

    #[test]
    fn type_round_trip() {
        for v in [0u8, 3, 8, 11, 42] {
            assert_eq!(IcmpType::from_u8(v).to_u8(), v);
        }
    }
}
