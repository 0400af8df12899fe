//! Ethernet II frame view.

use crate::addr::{EtherType, MacAddr};
use crate::{be16, check_len, set_be16, Result};

/// Length of the Ethernet II header (dst + src + ethertype), excluding FCS.
pub const HEADER_LEN: usize = 14;
/// Minimum frame length on the wire excluding FCS (64 - 4).
pub const MIN_FRAME_NO_FCS: usize = 60;

/// A typed view over an Ethernet II frame (without FCS).
///
/// ```
/// use flexsfp_wire::{EthernetFrame, EtherType, MacAddr};
/// let mut buf = vec![0u8; 64];
/// let mut f = EthernetFrame::new_unchecked(&mut buf);
/// f.set_dst(MacAddr([0xff; 6]));
/// f.set_ethertype(EtherType::Ipv4);
/// assert_eq!(f.ethertype(), EtherType::Ipv4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap `buffer` without validation. Accessors may panic if it is
    /// shorter than [`HEADER_LEN`]; prefer [`EthernetFrame::new_checked`].
    pub fn new_unchecked(buffer: T) -> Self {
        EthernetFrame { buffer }
    }

    /// Wrap `buffer`, validating that the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        Ok(EthernetFrame { buffer })
    }

    /// Destination MAC address.
    pub fn dst(&self) -> MacAddr {
        MacAddr::from_bytes(&self.buffer.as_ref()[0..6])
    }

    /// Source MAC address.
    pub fn src(&self) -> MacAddr {
        MacAddr::from_bytes(&self.buffer.as_ref()[6..12])
    }

    /// EtherType of the payload.
    pub fn ethertype(&self) -> EtherType {
        EtherType::from_u16(be16(self.buffer.as_ref(), 12))
    }

    /// The payload following the 14-byte header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC address.
    pub fn set_dst(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(addr.as_bytes());
    }

    /// Set the source MAC address.
    pub fn set_src(&mut self, addr: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(addr.as_bytes());
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        set_be16(self.buffer.as_mut(), 12, ty.to_u16());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireError;

    fn sample() -> Vec<u8> {
        let mut f = vec![0u8; HEADER_LEN + 4];
        f[0..6].copy_from_slice(&[0xaa; 6]);
        f[6..12].copy_from_slice(&[0xbb; 6]);
        f[12..14].copy_from_slice(&[0x08, 0x00]);
        f[14..18].copy_from_slice(&[1, 2, 3, 4]);
        f
    }

    #[test]
    fn parse_fields() {
        let frame = EthernetFrame::new_checked(sample()).unwrap();
        assert_eq!(frame.dst(), MacAddr([0xaa; 6]));
        assert_eq!(frame.src(), MacAddr([0xbb; 6]));
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn set_fields_round_trip() {
        let mut buf = sample();
        let mut frame = EthernetFrame::new_unchecked(&mut buf);
        frame.set_dst(MacAddr([1; 6]));
        frame.set_src(MacAddr([2; 6]));
        frame.set_ethertype(EtherType::Ipv6);
        buf[HEADER_LEN] = 0xee;
        let frame = EthernetFrame::new_checked(&buf).unwrap();
        assert_eq!(frame.dst(), MacAddr([1; 6]));
        assert_eq!(frame.src(), MacAddr([2; 6]));
        assert_eq!(frame.ethertype(), EtherType::Ipv6);
        assert_eq!(frame.payload()[0], 0xee);
    }

    #[test]
    fn too_short_rejected() {
        let err = EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                required: 14,
                available: 13
            }
        );
    }
}
