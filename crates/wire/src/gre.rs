//! GRE (RFC 2784/2890) view — one of the tunnel encapsulations the paper's
//! §3 "Packet Transformation" use case inserts at the optical edge.

use crate::addr::EtherType;
use crate::{be32, check_len, set_be16, set_be32, Result, WireError};

/// Base GRE header length (flags + protocol).
pub(crate) const BASE_HEADER_LEN: usize = 4;

/// A typed view over a GRE packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrePacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> GrePacket<T> {
    /// Wrap `buffer`, validating version and that all optional fields fit.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), BASE_HEADER_LEN)?;
        let p = GrePacket { buffer };
        if p.version() != 0 {
            return Err(WireError::BadVersion);
        }
        check_len(p.buffer.as_ref(), p.header_len())?;
        Ok(p)
    }

    /// Checksum-present flag.
    pub(crate) fn has_checksum(&self) -> bool {
        self.buffer.as_ref()[0] & 0x80 != 0
    }

    /// Key-present flag (RFC 2890).
    pub(crate) fn has_key(&self) -> bool {
        self.buffer.as_ref()[0] & 0x20 != 0
    }

    /// Sequence-present flag (RFC 2890).
    pub(crate) fn has_sequence(&self) -> bool {
        self.buffer.as_ref()[0] & 0x10 != 0
    }

    /// GRE version (must be 0).
    fn version(&self) -> u8 {
        self.buffer.as_ref()[1] & 0x07
    }

    /// Total header length including present optional fields.
    pub fn header_len(&self) -> usize {
        let mut len = BASE_HEADER_LEN;
        if self.has_checksum() {
            len += 4; // checksum + reserved
        }
        if self.has_key() {
            len += 4;
        }
        if self.has_sequence() {
            len += 4;
        }
        len
    }

    /// The key field, if present.
    pub fn key(&self) -> Option<u32> {
        if !self.has_key() {
            return None;
        }
        let off = BASE_HEADER_LEN + if self.has_checksum() { 4 } else { 0 };
        Some(be32(self.buffer.as_ref(), off))
    }

    /// Encapsulated payload.
    /// Test-only: `crates/wire/tests/prop.rs`: the inner bytes of random
    /// tunnels.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[self.header_len()..]
    }
}

/// Build a GRE header with an optional key into a fresh Vec.
pub fn build_header(protocol: EtherType, key: Option<u32>) -> Vec<u8> {
    let mut hdr = vec![0u8; BASE_HEADER_LEN + if key.is_some() { 4 } else { 0 }];
    if key.is_some() {
        hdr[0] |= 0x20;
    }
    set_be16(&mut hdr, 2, protocol.to_u16());
    if let Some(k) = key {
        set_be32(&mut hdr, 4, k);
    }
    hdr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_header() {
        let mut buf = build_header(EtherType::Ipv4, None);
        buf.extend_from_slice(b"inner");
        let p = GrePacket::new_checked(&buf[..]).unwrap();
        assert!(!p.has_checksum());
        assert!(!p.has_key());
        assert!(!p.has_sequence());
        assert_eq!(p.version(), 0);
        assert_eq!(buf[2..4], [0x08, 0x00]);
        assert_eq!(p.header_len(), 4);
        assert_eq!(p.payload(), b"inner");
        assert_eq!(p.key(), None);
    }

    #[test]
    fn keyed_header() {
        let mut buf = build_header(EtherType::Ipv4, Some(0xcafe_f00d));
        buf.extend_from_slice(b"x");
        let p = GrePacket::new_checked(&buf[..]).unwrap();
        assert!(p.has_key());
        assert_eq!(p.header_len(), 8);
        assert_eq!(p.key(), Some(0xcafe_f00d));
        assert_eq!(p.payload(), b"x");
    }

    #[test]
    fn nonzero_version_rejected() {
        let mut buf = build_header(EtherType::Ipv4, None);
        buf[1] |= 0x01;
        assert_eq!(
            GrePacket::new_checked(&buf[..]).unwrap_err(),
            WireError::BadVersion
        );
    }

    #[test]
    fn truncated_optional_fields_rejected() {
        let mut buf = build_header(EtherType::Ipv4, None);
        buf[0] |= 0x20; // claims key, but none present
        assert!(GrePacket::new_checked(&buf[..]).is_err());
    }
}
