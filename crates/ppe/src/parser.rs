//! The configurable header parser.
//!
//! The first block of every PPE pipeline walks the header stack once and
//! produces a fixed field bundle ([`ParsedPacket`]) that match stages key
//! on — exactly how an RMT parser front-end feeds its match-action
//! stages. The parser is tolerant: unknown or truncated upper layers
//! yield a bundle with those layers absent rather than an error, because
//! the hardware must keep forwarding traffic it does not understand.

use flexsfp_wire::{
    ethernet, ipv4::Ipv4Packet, ipv6::Ipv6Packet, tcp::TcpSegment, udp::UdpDatagram, vlan,
    EtherType, EthernetFrame, IpProtocol, MacAddr, VlanFrame,
};

/// Maximum VLAN tags the parser follows (QinQ = 2).
pub(crate) const MAX_VLAN_TAGS: usize = 2;

/// L4 summary for the match stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L4 {
    /// TCP with ports and flags byte.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Raw flag byte.
        flags: u8,
    },
    /// UDP with ports.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// ICMP with type/code.
    Icmp {
        /// ICMP type byte.
        icmp_type: u8,
        /// ICMP code byte.
        code: u8,
    },
    /// Another protocol, or a fragment whose L4 header is unavailable.
    Other,
}

/// IPv4 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Summary {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Protocol.
    pub protocol: IpProtocol,
    /// True if the packet is a fragment.
    pub is_fragment: bool,
    /// True if IP options are present.
    pub has_options: bool,
    /// Byte offset of the IPv4 header within the frame.
    pub offset: usize,
    /// Header length in bytes.
    pub header_len: usize,
}

/// IPv6 summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Summary {
    /// Source /64 prefix (subscriber identifier in PON/FTTH scenarios).
    pub src_prefix64: u64,
    /// Next header.
    pub next_header: IpProtocol,
    /// Hop limit.
    pub hop_limit: u8,
    /// Byte offset of the IPv6 header within the frame.
    pub offset: usize,
}

/// The parsed field bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket {
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source MAC.
    pub src_mac: MacAddr,
    /// VLAN IDs outermost-first (up to `MAX_VLAN_TAGS`).
    pub vlans: Vec<u16>,
    /// EtherType after any VLAN tags.
    pub ethertype: EtherType,
    /// IPv4 layer, when present and valid.
    pub ipv4: Option<Ipv4Summary>,
    /// IPv6 layer, when present and valid.
    pub ipv6: Option<Ipv6Summary>,
    /// L4 layer, when parsed.
    pub l4: L4,
    /// Byte offset where the L4 header starts, when known.
    pub l4_offset: Option<usize>,
}

impl ParsedPacket {
    /// The 5-tuple `(src, dst, proto, sport, dport)` when the packet is
    /// IPv4 TCP/UDP — the canonical key of firewall and NAT tables.
    pub fn five_tuple(&self) -> Option<(u32, u32, u8, u16, u16)> {
        let ip = self.ipv4?;
        match self.l4 {
            L4::Tcp {
                src_port, dst_port, ..
            } => Some((ip.src, ip.dst, 6, src_port, dst_port)),
            L4::Udp { src_port, dst_port } => Some((ip.src, ip.dst, 17, src_port, dst_port)),
            _ => None,
        }
    }
}

/// The parser block. Stateless: it follows VLAN tags and parses into L4
/// headers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parser;

impl Parser {
    /// Parse a frame into the field bundle. Returns `None` only when the
    /// frame is too short to hold an Ethernet header at all.
    pub fn parse(&self, frame: &[u8]) -> Option<ParsedPacket> {
        let eth = EthernetFrame::new_checked(frame).ok()?;
        let mut parsed = ParsedPacket {
            dst_mac: eth.dst(),
            src_mac: eth.src(),
            vlans: Vec::new(),
            ethertype: eth.ethertype(),
            ipv4: None,
            ipv6: None,
            l4: L4::Other,
            l4_offset: None,
        };

        let mut offset = ethernet::HEADER_LEN;
        let mut ethertype = eth.ethertype();
        while ethertype.is_vlan() && parsed.vlans.len() < MAX_VLAN_TAGS {
            let Ok(v) = VlanFrame::new_checked(&frame[offset..]) else {
                return Some(parsed);
            };
            parsed.vlans.push(v.vid());
            ethertype = v.inner_ethertype();
            offset += vlan::TAG_LEN;
        }
        parsed.ethertype = ethertype;

        match ethertype {
            EtherType::Ipv4 => Self::parse_ipv4(frame, offset, &mut parsed),
            EtherType::Ipv6 => Self::parse_ipv6(frame, offset, &mut parsed),
            _ => {}
        }
        Some(parsed)
    }

    fn parse_ipv4(frame: &[u8], offset: usize, parsed: &mut ParsedPacket) {
        let Ok(ip) = Ipv4Packet::new_checked(&frame[offset..]) else {
            return;
        };
        let summary = Ipv4Summary {
            src: ip.src(),
            dst: ip.dst(),
            protocol: ip.protocol(),
            is_fragment: ip.is_fragment(),
            has_options: ip.has_options(),
            offset,
            header_len: ip.header_len(),
        };
        parsed.ipv4 = Some(summary);
        // A non-first fragment has no L4 header.
        if ip.frag_offset() != 0 {
            return;
        }
        let l4_off = offset + ip.header_len();
        parsed.l4_offset = Some(l4_off);
        parsed.l4 = Self::parse_l4_at(ip.protocol(), ip.payload());
    }

    fn parse_ipv6(frame: &[u8], offset: usize, parsed: &mut ParsedPacket) {
        let Ok(ip) = Ipv6Packet::new_checked(&frame[offset..]) else {
            return;
        };
        parsed.ipv6 = Some(Ipv6Summary {
            src_prefix64: ip.src().prefix64(),
            next_header: ip.next_header(),
            hop_limit: ip.hop_limit(),
            offset,
        });
        let l4_off = offset + flexsfp_wire::ipv6::HEADER_LEN;
        parsed.l4_offset = Some(l4_off);
        parsed.l4 = Self::parse_l4_at(ip.next_header(), ip.payload());
    }

    fn parse_l4_at(protocol: IpProtocol, payload: &[u8]) -> L4 {
        match protocol {
            IpProtocol::Tcp => match TcpSegment::new_checked(payload) {
                Ok(t) => L4::Tcp {
                    src_port: t.src_port(),
                    dst_port: t.dst_port(),
                    flags: t.flags().to_u8(),
                },
                Err(_) => L4::Other,
            },
            IpProtocol::Udp => match UdpDatagram::new_checked(payload) {
                Ok(u) => L4::Udp {
                    src_port: u.src_port(),
                    dst_port: u.dst_port(),
                },
                Err(_) => L4::Other,
            },
            IpProtocol::Icmp => {
                if payload.len() >= 2 {
                    L4::Icmp {
                        icmp_type: payload[0],
                        code: payload[1],
                    }
                } else {
                    L4::Other
                }
            }
            _ => L4::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::tcp::TcpFlags;

    const SRC: u32 = 0xc0a80a01;
    const DST: u32 = 0x08080808;

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            4321,
            53,
            b"query",
        )
    }

    #[test]
    fn parses_plain_udp() {
        let p = Parser.parse(&udp_frame()).unwrap();
        assert_eq!(p.dst_mac, MacAddr([1; 6]));
        assert_eq!(p.ethertype, EtherType::Ipv4);
        assert!(p.vlans.is_empty());
        let ip = p.ipv4.unwrap();
        assert_eq!(ip.src, SRC);
        assert_eq!(ip.dst, DST);
        assert_eq!(ip.protocol, IpProtocol::Udp);
        assert_eq!(ip.offset, 14);
        assert_eq!(
            p.l4,
            L4::Udp {
                src_port: 4321,
                dst_port: 53
            }
        );
        assert_eq!(p.l4_offset, Some(34));
        assert_eq!(p.five_tuple(), Some((SRC, DST, 17, 4321, 53)));
    }

    #[test]
    fn parses_tcp_flags() {
        let f = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            80,
            5000,
            7,
            TcpFlags::syn_only(),
            &[],
        );
        let p = Parser.parse(&f).unwrap();
        match p.l4 {
            L4::Tcp {
                src_port,
                dst_port,
                flags,
            } => {
                assert_eq!(src_port, 80);
                assert_eq!(dst_port, 5000);
                assert_eq!(flags, 0x02);
            }
            other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn parses_single_vlan() {
        let f = PacketBuilder::with_vlan(&udp_frame(), 100, 3);
        let p = Parser.parse(&f).unwrap();
        assert_eq!(p.vlans, vec![100]);
        assert_eq!(p.ethertype, EtherType::Ipv4);
        assert!(p.ipv4.is_some());
    }

    #[test]
    fn parses_qinq() {
        let inner = PacketBuilder::with_vlan(&udp_frame(), 10, 0);
        let f = flexsfp_wire::vlan::push_tag(
            &inner,
            EtherType::QinQ,
            flexsfp_wire::vlan::Tci {
                pcp: 0,
                dei: false,
                vid: 200,
            },
        )
        .unwrap();
        let p = Parser.parse(&f).unwrap();
        assert_eq!(p.vlans, vec![200, 10]);
        assert!(p.ipv4.is_some());
    }

    #[test]
    fn fragment_has_no_l4() {
        let mut f = udp_frame();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut f[14..]);
            ip.set_fragment(false, true, 100);
            ip.fill_checksum();
        }
        let p = Parser.parse(&f).unwrap();
        let ip = p.ipv4.unwrap();
        assert!(ip.is_fragment);
        assert_eq!(p.l4, L4::Other);
        assert_eq!(p.five_tuple(), None);
    }

    #[test]
    fn truncated_l4_is_other_not_error() {
        // IPv4 claims UDP but carries only 3 payload bytes.
        let short_ip = PacketBuilder::ipv4(SRC, DST, IpProtocol::Udp, &[1, 2, 3]);
        let f =
            PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4, &short_ip);
        let p = Parser.parse(&f).unwrap();
        assert!(p.ipv4.is_some());
        assert_eq!(p.l4, L4::Other);
    }

    #[test]
    fn garbage_ethertype_parses_l2_only() {
        let f = PacketBuilder::ethernet(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            EtherType::Other(0x1234),
            b"opaque",
        );
        let p = Parser.parse(&f).unwrap();
        assert!(p.ipv4.is_none());
        assert!(p.ipv6.is_none());
        assert_eq!(p.l4, L4::Other);
        assert_eq!(p.ethertype, EtherType::Other(0x1234));
    }

    #[test]
    fn too_short_frame_is_none() {
        assert!(Parser.parse(&[0u8; 10]).is_none());
    }

    #[test]
    fn ipv6_prefix_extraction() {
        let mut ip6 = vec![0u8; 40 + 8];
        // Payload length 8, next header UDP, hop limit 64.
        ip6[4..8].copy_from_slice(&[0, 8, 17, 64]);
        {
            let mut p = Ipv6Packet::new_unchecked(&mut ip6);
            p.set_version(6);
            let mut src = [0u8; 16];
            src[..8].copy_from_slice(&0x20010db8_00000001u64.to_be_bytes());
            p.set_src(flexsfp_wire::ipv6::Ipv6Addr(src));
        }
        // Build a valid 8-byte UDP header in the payload.
        {
            let mut u = UdpDatagram::new_unchecked(&mut ip6[40..]);
            u.set_src_port(1000);
            u.set_dst_port(2000);
            u.set_len(8);
        }
        let f = PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv6, &ip6);
        let p = Parser.parse(&f).unwrap();
        let v6 = p.ipv6.unwrap();
        assert_eq!(v6.src_prefix64, 0x20010db8_00000001);
        assert_eq!(v6.next_header, IpProtocol::Udp);
        assert_eq!(
            p.l4,
            L4::Udp {
                src_port: 1000,
                dst_port: 2000
            }
        );
    }
}
