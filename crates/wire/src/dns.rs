//! Minimal DNS view: header fields and first-question extraction.
//!
//! The paper cites P4DDPI-style DNS filtering and DoH blocking as edge
//! policies a FlexSFP should enforce (§2.1, §3). The module only needs to
//! read the query name of the first question at line rate — it never
//! builds responses — so this view is deliberately minimal. Name
//! decompression is bounded to protect the hardware pipeline model from
//! compression-loop attacks.

use crate::{be16, check_len, Result, WireError};

/// DNS fixed header length.
const HEADER_LEN: usize = 12;
/// Maximum length of a presentation-format name we will extract.
pub(crate) const MAX_NAME_LEN: usize = 255;
/// Bound on compression-pointer hops (loop protection).
const MAX_POINTER_HOPS: usize = 8;

/// A typed view over the DNS fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsHeader<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> DnsHeader<T> {
    /// Wrap `buffer`, validating the fixed header fits.
    pub fn new_checked(buffer: T) -> Result<Self> {
        check_len(buffer.as_ref(), HEADER_LEN)?;
        Ok(DnsHeader { buffer })
    }

    /// True if this is a response (QR bit).
    pub fn is_response(&self) -> bool {
        self.buffer.as_ref()[2] & 0x80 != 0
    }

    /// Question count.
    pub(crate) fn qdcount(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Parse the first question following the header.
    pub fn first_question(&self) -> Result<DnsQuestion> {
        if self.qdcount() == 0 {
            return Err(WireError::Malformed);
        }
        parse_question(self.buffer.as_ref(), HEADER_LEN)
    }
}

/// A decoded DNS question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Query name in lowercase presentation format (`example.com`).
    pub qname: String,
    /// Query type (1 = A, 28 = AAAA, 65 = HTTPS, ...).
    pub qtype: u16,
    /// Query class (1 = IN).
    pub qclass: u16,
}

fn parse_question(buf: &[u8], qname_off: usize) -> Result<DnsQuestion> {
    let (qname, end) = parse_name(buf, qname_off)?;
    check_len(buf, end + 4)?;
    Ok(DnsQuestion {
        qname,
        qtype: be16(buf, end),
        qclass: be16(buf, end + 2),
    })
}

/// Parse a (possibly compressed) DNS name starting at `off`. Returns the
/// lowercase presentation-format name and the offset just past the name's
/// in-place encoding.
fn parse_name(buf: &[u8], mut off: usize) -> Result<(String, usize)> {
    let mut name = String::new();
    let mut hops = 0usize;
    let mut end_after: Option<usize> = None;
    loop {
        check_len(buf, off + 1)?;
        let len = buf[off] as usize;
        if len == 0 {
            off += 1;
            break;
        }
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            check_len(buf, off + 2)?;
            hops += 1;
            if hops > MAX_POINTER_HOPS {
                return Err(WireError::Malformed);
            }
            let target = (usize::from(buf[off] & 0x3f) << 8) | usize::from(buf[off + 1]);
            if end_after.is_none() {
                end_after = Some(off + 2);
            }
            if target >= off {
                // Forward pointers enable loops; reject.
                return Err(WireError::Malformed);
            }
            off = target;
            continue;
        }
        if len & 0xc0 != 0 {
            return Err(WireError::Malformed);
        }
        check_len(buf, off + 1 + len)?;
        if !name.is_empty() {
            name.push('.');
        }
        for &b in &buf[off + 1..off + 1 + len] {
            name.push(b.to_ascii_lowercase() as char);
        }
        if name.len() > MAX_NAME_LEN {
            return Err(WireError::Malformed);
        }
        off += 1 + len;
    }
    Ok((name, end_after.unwrap_or(off)))
}

/// Encode a presentation-format name into wire format labels.
pub(crate) fn encode_name(name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(name.len() + 2);
    for label in name.split('.').filter(|l| !l.is_empty()) {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
    out
}

/// Build a minimal standard query for `name` with the given qtype.
pub fn build_query(id: u16, name: &str, qtype: u16) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out[0..2].copy_from_slice(&id.to_be_bytes());
    out[2] = 0x01; // RD
    out[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&encode_name(name));
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_parse_query() {
        let q = build_query(0x99aa, "DoH.Example.COM", 28);
        let h = DnsHeader::new_checked(&q[..]).unwrap();
        assert_eq!(q[..2], 0x99aa_u16.to_be_bytes());
        assert!(!h.is_response());
        assert_eq!(h.qdcount(), 1);
        let question = h.first_question().unwrap();
        assert_eq!(question.qname, "doh.example.com");
        assert_eq!(question.qtype, 28);
        assert_eq!(question.qclass, 1);
    }

    #[test]
    fn compression_pointer_resolved() {
        // Header + name "a.bc" at offset 12, then a second name that is a
        // pointer to offset 12.
        let mut buf = vec![0u8; HEADER_LEN];
        buf[4..6].copy_from_slice(&1u16.to_be_bytes());
        buf.extend_from_slice(&[1, b'a', 2, b'b', b'c', 0]); // offset 12..18
        let ptr_off = buf.len();
        buf.extend_from_slice(&[0xc0, 12]); // pointer to 12
        buf.extend_from_slice(&[0, 1, 0, 1]); // qtype/qclass for pointer name
        let (name, end) = parse_name(&buf, ptr_off).unwrap();
        assert_eq!(name, "a.bc");
        assert_eq!(end, ptr_off + 2);
    }

    #[test]
    fn pointer_loop_rejected() {
        // A name at offset 12 that points forward/to itself.
        let mut buf = vec![0u8; HEADER_LEN];
        buf.extend_from_slice(&[0xc0, 12]);
        assert!(parse_name(&buf, 12).is_err());
    }

    #[test]
    fn truncated_name_rejected() {
        let mut buf = vec![0u8; HEADER_LEN];
        buf.extend_from_slice(&[5, b'a', b'b']); // label claims 5, has 2
        assert!(parse_name(&buf, 12).is_err());
    }

    #[test]
    fn zero_questions_rejected() {
        let buf = [0u8; HEADER_LEN];
        let h = DnsHeader::new_checked(&buf[..]).unwrap();
        assert!(h.first_question().is_err());
    }

    #[test]
    fn overlong_name_rejected() {
        let mut buf = vec![0u8; HEADER_LEN];
        // 5 labels of 63 bytes = 319 chars > 255.
        for _ in 0..5 {
            buf.push(63);
            buf.extend_from_slice(&[b'x'; 63]);
        }
        buf.push(0);
        assert!(parse_name(&buf, HEADER_LEN).is_err());
    }
}
