//! Link-layer addresses and protocol number enums shared across formats.

use core::fmt;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as "unset".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Build from a byte slice; panics if `b.len() != 6`.
    pub fn from_bytes(b: &[u8]) -> MacAddr {
        let mut out = [0u8; 6];
        out.copy_from_slice(b);
        MacAddr(out)
    }

    /// The raw octets.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// True if the group (multicast) bit is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True if this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True for a plain unicast address (not multicast, not broadcast).
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(b: [u8; 6]) -> Self {
        MacAddr(b)
    }
}

impl From<u64> for MacAddr {
    /// Take the low 48 bits of `v` as an address (big-endian order).
    fn from(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }
}

/// EtherType values the FlexSFP dataplane recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// 802.1Q VLAN tag (0x8100).
    Vlan,
    /// 802.1ad service tag, outer tag of QinQ (0x88a8).
    QinQ,
    /// IPv6 (0x86dd).
    Ipv6,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Decode from the on-wire 16-bit value.
    pub fn from_u16(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            0x88a8 => EtherType::QinQ,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }

    /// Encode to the on-wire 16-bit value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::QinQ => 0x88a8,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Other(v) => v,
        }
    }

    /// True if this ethertype introduces a VLAN tag (C-tag or S-tag).
    pub fn is_vlan(self) -> bool {
        matches!(self, EtherType::Vlan | EtherType::QinQ)
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// IP protocol numbers the dataplane recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMPv4 (1).
    Icmp,
    /// IP-in-IP encapsulation (4).
    IpIp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// GRE (47).
    Gre,
    /// ICMPv6 (58).
    Icmpv6,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Decode from the on-wire protocol number.
    pub fn from_u8(v: u8) -> IpProtocol {
        match v {
            1 => IpProtocol::Icmp,
            4 => IpProtocol::IpIp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            47 => IpProtocol::Gre,
            58 => IpProtocol::Icmpv6,
            other => IpProtocol::Other(other),
        }
    }

    /// Encode to the on-wire protocol number.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::IpIp => 4,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Gre => 47,
            IpProtocol::Icmpv6 => 58,
            IpProtocol::Other(v) => v,
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Other(v) => write!(f, "proto {v}"),
            other => write!(f, "{other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_flags() {
        let m = MacAddr([0x02, 0x00, 0x5e, 0x10, 0x20, 0x30]);
        assert_eq!(m.to_string(), "02:00:5e:10:20:30");
        assert!(m.is_unicast());
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let mc = MacAddr([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(mc.is_multicast());
        assert!(!mc.is_unicast());
    }

    #[test]
    fn mac_from_u64_takes_low_48_bits() {
        let m = MacAddr::from(0x0011_2233_4455_u64);
        assert_eq!(m, MacAddr([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]));
        // The top 16 bits are discarded.
        let m2 = MacAddr::from(0xffff_0011_2233_4455_u64);
        assert_eq!(m2, m);
    }

    #[test]
    fn ethertype_round_trip() {
        for v in [0x0800u16, 0x0806, 0x8100, 0x88a8, 0x86dd, 0x1234] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
        assert!(EtherType::Vlan.is_vlan());
        assert!(EtherType::QinQ.is_vlan());
        assert!(!EtherType::Ipv4.is_vlan());
    }

    #[test]
    fn ip_protocol_round_trip() {
        for v in [1u8, 4, 6, 17, 47, 58, 200] {
            assert_eq!(IpProtocol::from_u8(v).to_u8(), v);
        }
    }
}
