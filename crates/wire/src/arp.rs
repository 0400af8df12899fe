//! ARP packet view (Ethernet/IPv4 only, which is what an SFP at the edge
//! of a legacy L2 network sees).

use crate::addr::MacAddr;
use crate::{be16, check_len, set_be16, Result, WireError};

/// Length of an Ethernet/IPv4 ARP packet.
pub const PACKET_LEN: usize = 28;

/// ARP operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOperation {
    /// Who-has request (1).
    Request,
    /// Is-at reply (2).
    Reply,
    /// Any other opcode, preserved verbatim.
    Other(u16),
}

impl ArpOperation {
    /// Decode from the on-wire opcode.
    pub fn from_u16(v: u16) -> ArpOperation {
        match v {
            1 => ArpOperation::Request,
            2 => ArpOperation::Reply,
            other => ArpOperation::Other(other),
        }
    }

    /// Encode to the on-wire opcode.
    pub fn to_u16(self) -> u16 {
        match self {
            ArpOperation::Request => 1,
            ArpOperation::Reply => 2,
            ArpOperation::Other(v) => v,
        }
    }
}

/// A typed view over an Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> ArpPacket<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        ArpPacket { buffer }
    }

    /// Wrap `buffer`, validating length and the hardware/protocol types
    /// (must be Ethernet/IPv4).
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), PACKET_LEN)?;
        let p = ArpPacket { buffer };
        let b = p.buffer.as_ref();
        if be16(b, 0) != 1 || be16(b, 2) != 0x0800 || b[4] != 6 || b[5] != 4 {
            return Err(WireError::Malformed);
        }
        Ok(p)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Operation (request/reply).
    pub fn operation(&self) -> ArpOperation {
        ArpOperation::from_u16(be16(self.buffer.as_ref(), 6))
    }

    /// Sender hardware address.
    pub fn sender_mac(&self) -> MacAddr {
        MacAddr::from_bytes(&self.buffer.as_ref()[8..14])
    }

    /// Sender protocol (IPv4) address.
    pub fn sender_ip(&self) -> u32 {
        crate::be32(self.buffer.as_ref(), 14)
    }

    /// Target protocol (IPv4) address.
    pub fn target_ip(&self) -> u32 {
        crate::be32(self.buffer.as_ref(), 24)
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> ArpPacket<T> {
    /// Write the fixed Ethernet/IPv4 preamble (htype/ptype/hlen/plen).
    pub fn init_ethernet_ipv4(&mut self) {
        let b = self.buffer.as_mut();
        set_be16(b, 0, 1);
        set_be16(b, 2, 0x0800);
        b[4] = 6;
        b[5] = 4;
    }

    /// Set the operation.
    pub fn set_operation(&mut self, op: ArpOperation) {
        set_be16(self.buffer.as_mut(), 6, op.to_u16());
    }

    /// Set the sender hardware address.
    pub fn set_sender_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[8..14].copy_from_slice(m.as_bytes());
    }

    /// Set the sender protocol address.
    pub fn set_sender_ip(&mut self, ip: u32) {
        crate::set_be32(self.buffer.as_mut(), 14, ip);
    }

    /// Set the target hardware address.
    pub fn set_target_mac(&mut self, m: MacAddr) {
        self.buffer.as_mut()[18..24].copy_from_slice(m.as_bytes());
    }

    /// Set the target protocol address.
    pub fn set_target_ip(&mut self, ip: u32) {
        crate::set_be32(self.buffer.as_mut(), 24, ip);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut buf = vec![0u8; PACKET_LEN];
        let mut p = ArpPacket::new_unchecked(&mut buf);
        p.init_ethernet_ipv4();
        p.set_operation(ArpOperation::Request);
        p.set_sender_mac(MacAddr([1; 6]));
        p.set_sender_ip(0x0a000001);
        p.set_target_mac(MacAddr::ZERO);
        p.set_target_ip(0x0a000002);
        buf
    }

    #[test]
    fn parse_round_trip() {
        let buf = sample();
        let p = ArpPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.operation(), ArpOperation::Request);
        assert_eq!(p.sender_mac(), MacAddr([1; 6]));
        assert_eq!(p.sender_ip(), 0x0a000001);
        assert_eq!(p.target_ip(), 0x0a000002);
    }

    #[test]
    fn non_ethernet_rejected() {
        let mut buf = sample();
        buf[0] = 0;
        buf[1] = 6; // htype = IEEE 802
        assert_eq!(
            ArpPacket::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn opcode_round_trip() {
        for v in [1u16, 2, 9] {
            assert_eq!(ArpOperation::from_u16(v).to_u16(), v);
        }
    }
}
