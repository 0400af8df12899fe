//! # flexsfp-wire
//!
//! Typed, zero-copy wire formats for the FlexSFP dataplane.
//!
//! The design follows the smoltcp idiom: each protocol exposes a thin
//! wrapper type (e.g. [`EthernetFrame`]) parameterized over any byte
//! container (`T: AsRef<[u8]>`, optionally `AsMut<[u8]>` for setters).
//! Constructors validate length with [`WireError`] instead of panicking,
//! so malformed packets arriving at an SFP interface can never crash the
//! dataplane model.
//!
//! Protocols implemented (everything the paper's use cases in §3 touch):
//! Ethernet II, 802.1Q VLAN (incl. QinQ), ARP, IPv4 (with options), IPv6,
//! TCP, UDP, ICMPv4, GRE, VXLAN, IP-in-IP and a minimal DNS view for
//! DNS/DoH filtering. [`checksum`] provides the Internet checksum and the
//! RFC 1624 incremental update used by the NAT fast path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod arena;
pub mod arp;
pub mod builder;
pub mod checksum;
pub mod dns;
pub mod ethernet;
pub mod gre;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod tcp;
pub mod udp;
pub mod vlan;
pub mod vxlan;

pub use addr::{EtherType, IpProtocol, MacAddr};
pub use arena::PacketArena;
pub use arp::{ArpOperation, ArpPacket};
pub use builder::PacketBuilder;
pub use checksum::{fnv1a, FNV1A_OFFSET};
pub use dns::DnsHeader;
pub use ethernet::EthernetFrame;
pub use gre::GrePacket;
pub use icmp::{IcmpPacket, IcmpType};
pub use ipv4::Ipv4Packet;
pub use ipv6::Ipv6Packet;
pub use tcp::TcpSegment;
pub use udp::UdpDatagram;
pub use vlan::VlanFrame;
pub use vxlan::VxlanPacket;

/// Errors produced when interpreting raw bytes as a protocol unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the protocol's fixed header.
    Truncated {
        /// Bytes required by the header.
        required: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A length field points outside the buffer or below the header size.
    BadLength,
    /// A version or type field holds a value this view cannot represent.
    BadVersion,
    /// A field combination is malformed (reserved bits set, bad flags, ...).
    Malformed,
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated {
                required,
                available,
            } => write!(f, "truncated: need {required} bytes, have {available}"),
            WireError::BadLength => write!(f, "length field inconsistent with buffer"),
            WireError::BadVersion => write!(f, "unsupported version or type"),
            WireError::Malformed => write!(f, "malformed field combination"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience result alias for wire operations.
pub type Result<T> = core::result::Result<T, WireError>;

pub(crate) fn check_len(buf: &[u8], required: usize) -> Result<()> {
    if buf.len() < required {
        Err(WireError::Truncated {
            required,
            available: buf.len(),
        })
    } else {
        Ok(())
    }
}

/// Read a big-endian u16 at `off` (caller guarantees bounds).
pub(crate) fn be16(buf: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([buf[off], buf[off + 1]])
}

/// Read a big-endian u32 at `off` (caller guarantees bounds).
pub(crate) fn be32(buf: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

pub(crate) fn set_be16(buf: &mut [u8], off: usize, value: u16) {
    buf[off..off + 2].copy_from_slice(&value.to_be_bytes());
}

pub(crate) fn set_be32(buf: &mut [u8], off: usize, value: u32) {
    buf[off..off + 4].copy_from_slice(&value.to_be_bytes());
}
