//! 802.1Q VLAN tag view (also used as the inner/outer tag of 802.1ad QinQ).
//!
//! A [`VlanFrame`] views the 4-byte tag that follows the Ethernet source
//! address: 16 bits of TCI (PCP, DEI, VID) followed by the encapsulated
//! EtherType. VLAN tagging / QinQ stacking is one of the paper's §3
//! "Packet Transformation" use cases.

use crate::addr::EtherType;
use crate::{be16, check_len, Result};

/// Length of one 802.1Q tag (TCI + inner EtherType).
pub const TAG_LEN: usize = 4;

/// Tag Control Information: priority, drop-eligible, VLAN id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tci {
    /// Priority Code Point (0..=7).
    pub pcp: u8,
    /// Drop Eligible Indicator.
    pub dei: bool,
    /// VLAN identifier (0..=4095; 0 = priority tag, 4095 reserved).
    pub vid: u16,
}

impl Tci {
    /// Decode from the on-wire 16-bit TCI.
    pub fn from_u16(v: u16) -> Tci {
        Tci {
            pcp: (v >> 13) as u8,
            dei: v & 0x1000 != 0,
            vid: v & 0x0fff,
        }
    }

    /// Encode to the on-wire 16-bit TCI. VID is masked to 12 bits.
    pub fn to_u16(self) -> u16 {
        (u16::from(self.pcp & 0x7) << 13) | (u16::from(self.dei) << 12) | (self.vid & 0x0fff)
    }
}

/// A typed view over the VLAN tag region (starting at the TCI), i.e. the
/// bytes at offset 14 of a tagged Ethernet frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlanFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> VlanFrame<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        VlanFrame { buffer }
    }

    /// Wrap `buffer`, validating the 4-byte tag fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), TAG_LEN)?;
        Ok(VlanFrame { buffer })
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The tag control information.
    pub fn tci(&self) -> Tci {
        Tci::from_u16(be16(self.buffer.as_ref(), 0))
    }

    /// VLAN identifier shortcut.
    pub fn vid(&self) -> u16 {
        self.tci().vid
    }

    /// The EtherType of the encapsulated payload.
    pub fn inner_ethertype(&self) -> EtherType {
        EtherType::from_u16(be16(self.buffer.as_ref(), 2))
    }

    /// Payload following the tag.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[TAG_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> VlanFrame<T> {
    /// Mutable payload following the tag.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[TAG_LEN..]
    }
}

/// Insert a VLAN tag into a raw Ethernet frame buffer, returning the new
/// frame. `tag_ethertype` is the tag's own ethertype (0x8100 C-tag or
/// 0x88a8 S-tag for QinQ outer tags).
pub fn push_tag(frame: &[u8], tag_ethertype: EtherType, tci: Tci) -> Result<Vec<u8>> {
    check_len(frame, crate::ethernet::HEADER_LEN)?;
    let mut out = Vec::with_capacity(frame.len() + TAG_LEN);
    out.extend_from_slice(&frame[0..12]);
    out.extend_from_slice(&tag_ethertype.to_u16().to_be_bytes());
    out.extend_from_slice(&tci.to_u16().to_be_bytes());
    out.extend_from_slice(&frame[12..]);
    Ok(out)
}

/// Remove the outermost VLAN tag from a raw Ethernet frame buffer.
/// Returns `(tci, untagged_frame)`, or an error if the frame is untagged.
pub fn pop_tag(frame: &[u8]) -> Result<(Tci, Vec<u8>)> {
    check_len(frame, crate::ethernet::HEADER_LEN + TAG_LEN)?;
    let ethertype = EtherType::from_u16(be16(frame, 12));
    if !ethertype.is_vlan() {
        return Err(crate::WireError::Malformed);
    }
    let tci = Tci::from_u16(be16(frame, 14));
    let mut out = Vec::with_capacity(frame.len() - TAG_LEN);
    out.extend_from_slice(&frame[0..12]);
    out.extend_from_slice(&frame[16..]);
    Ok((tci, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::EthernetFrame;
    use crate::MacAddr;

    #[test]
    fn tci_round_trip() {
        let t = Tci {
            pcp: 5,
            dei: true,
            vid: 0x123,
        };
        assert_eq!(Tci::from_u16(t.to_u16()), t);
        // VID masked to 12 bits.
        let big = Tci {
            pcp: 0,
            dei: false,
            vid: 0xffff,
        };
        assert_eq!(Tci::from_u16(big.to_u16()).vid, 0x0fff);
    }

    fn plain_frame() -> Vec<u8> {
        let mut buf = vec![0u8; 60];
        let mut f = EthernetFrame::new_unchecked(&mut buf);
        f.set_dst(MacAddr([0xd; 6]));
        f.set_src(MacAddr([0x5; 6]));
        f.set_ethertype(EtherType::Ipv4);
        buf
    }

    #[test]
    fn push_then_pop_is_identity() {
        let frame = plain_frame();
        let tci = Tci {
            pcp: 3,
            dei: false,
            vid: 100,
        };
        let tagged = push_tag(&frame, EtherType::Vlan, tci).unwrap();
        assert_eq!(tagged.len(), frame.len() + TAG_LEN);
        let eth = EthernetFrame::new_checked(&tagged[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Vlan);
        let vlan = VlanFrame::new_checked(eth.payload()).unwrap();
        assert_eq!(vlan.vid(), 100);
        assert_eq!(vlan.inner_ethertype(), EtherType::Ipv4);

        let (popped, untagged) = pop_tag(&tagged).unwrap();
        assert_eq!(popped, tci);
        assert_eq!(untagged, frame);
    }

    #[test]
    fn qinq_double_stack() {
        let frame = plain_frame();
        let c = Tci {
            pcp: 0,
            dei: false,
            vid: 10,
        };
        let s = Tci {
            pcp: 0,
            dei: false,
            vid: 200,
        };
        let ct = push_tag(&frame, EtherType::Vlan, c).unwrap();
        let st = push_tag(&ct, EtherType::QinQ, s).unwrap();
        let eth = EthernetFrame::new_checked(&st[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::QinQ);
        let outer = VlanFrame::new_checked(eth.payload()).unwrap();
        assert_eq!(outer.vid(), 200);
        assert_eq!(outer.inner_ethertype(), EtherType::Vlan);
        let inner = VlanFrame::new_checked(outer.payload()).unwrap();
        assert_eq!(inner.vid(), 10);
        assert_eq!(inner.inner_ethertype(), EtherType::Ipv4);
    }

    #[test]
    fn pop_untagged_is_error() {
        assert!(pop_tag(&plain_frame()).is_err());
    }
}
