//! VXLAN (RFC 7348) view — the second tunnel format of the §3
//! transformation use case. VXLAN rides over UDP (dst port 4789).

use crate::{check_len, Result, WireError};

/// VXLAN header length.
pub const HEADER_LEN: usize = 8;
/// IANA-assigned VXLAN UDP destination port.
pub const UDP_PORT: u16 = 4789;

/// A typed view over a VXLAN packet (header + inner Ethernet frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VxlanPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> VxlanPacket<T> {
    /// Wrap without validation.
    fn new_unchecked(buffer: T) -> Self {
        VxlanPacket { buffer }
    }

    /// Wrap `buffer`, validating the I flag and reserved bits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        let p = VxlanPacket { buffer };
        let b = p.buffer.as_ref();
        // Flags: only bit 3 (I) may be set; it MUST be set.
        if b[0] != 0x08 || b[1] != 0 || b[2] != 0 || b[3] != 0 || b[7] != 0 {
            return Err(WireError::Malformed);
        }
        Ok(p)
    }

    /// The 24-bit VXLAN network identifier.
    pub fn vni(&self) -> u32 {
        let b = self.buffer.as_ref();
        (u32::from(b[4]) << 16) | (u32::from(b[5]) << 8) | u32::from(b[6])
    }

    /// The encapsulated Ethernet frame.
    #[cfg(test)]
    pub(crate) fn inner_frame(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> VxlanPacket<T> {
    /// Write the valid-I-flag header and the VNI (masked to 24 bits).
    pub(crate) fn init(&mut self, vni: u32) {
        let b = self.buffer.as_mut();
        b[0] = 0x08;
        b[1] = 0;
        b[2] = 0;
        b[3] = 0;
        b[4] = (vni >> 16) as u8;
        b[5] = (vni >> 8) as u8;
        b[6] = vni as u8;
        b[7] = 0;
    }
}

/// Build a VXLAN header for `vni` followed by `inner_frame`.
pub fn encapsulate(vni: u32, inner_frame: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    VxlanPacket::new_unchecked(&mut out[..]).init(vni);
    out.extend_from_slice(inner_frame);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encapsulate_round_trip() {
        let inner = vec![0xaau8; 60];
        let buf = encapsulate(0x123456, &inner);
        let p = VxlanPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(p.vni(), 0x123456);
        assert_eq!(p.inner_frame(), &inner[..]);
    }

    #[test]
    fn vni_masked_to_24_bits() {
        let buf = encapsulate(0xff_123456, &[]);
        assert_eq!(VxlanPacket::new_checked(&buf[..]).unwrap().vni(), 0x123456);
    }

    #[test]
    fn missing_i_flag_rejected() {
        let mut buf = encapsulate(1, &[]);
        buf[0] = 0;
        assert_eq!(
            VxlanPacket::new_checked(&buf[..]).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn reserved_bits_rejected() {
        let mut buf = encapsulate(1, &[]);
        buf[7] = 1;
        assert!(VxlanPacket::new_checked(&buf[..]).is_err());
    }
}
