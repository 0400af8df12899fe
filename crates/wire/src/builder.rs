//! Packet construction helpers.
//!
//! [`PacketBuilder`] assembles complete, checksum-correct frames for tests,
//! traffic generators and the tunnel-encapsulation datapath actions. All
//! emitted packets validate under the corresponding checked views.

use crate::addr::{EtherType, IpProtocol, MacAddr};
use crate::ethernet::{self, EthernetFrame};
use crate::ipv4::Ipv4Packet;
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use crate::vlan::{self, Tci};
use crate::{gre, vxlan};

/// Builder for complete frames and packets.
///
/// The associated functions return owned byte vectors; each layer's
/// checksums and length fields are filled in.
#[derive(Debug, Clone, Copy)]
pub struct PacketBuilder;

impl PacketBuilder {
    /// An IPv4 header followed by `payload`, with `protocol` and correct
    /// header checksum. TTL defaults to 64.
    pub fn ipv4(src: u32, dst: u32, protocol: IpProtocol, payload: &[u8]) -> Vec<u8> {
        let total = 20 + payload.len();
        let mut buf = vec![0u8; total];
        {
            let mut p = Ipv4Packet::new_unchecked(&mut buf);
            p.set_version(4);
            p.set_header_len(20);
            p.set_total_len(total as u16);
            p.set_ttl(64);
            p.set_fragment(true, false, 0);
            p.set_protocol(protocol);
            p.set_src(src);
            p.set_dst(dst);
            p.fill_checksum();
        }
        buf[20..].copy_from_slice(payload);
        buf
    }

    /// An IPv4/UDP packet with correct checksums.
    pub fn ipv4_udp(src: u32, dst: u32, src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let udp_len = crate::udp::HEADER_LEN + payload.len();
        let mut udp = vec![0u8; udp_len];
        {
            let mut d = UdpDatagram::new_unchecked(&mut udp);
            d.set_src_port(src_port);
            d.set_dst_port(dst_port);
            d.set_len(udp_len as u16);
        }
        udp[crate::udp::HEADER_LEN..].copy_from_slice(payload);
        UdpDatagram::new_unchecked(&mut udp).fill_checksum_v4(src, dst);
        Self::ipv4(src, dst, IpProtocol::Udp, &udp)
    }

    /// An Ethernet II frame around `payload`, padded to the 60-byte
    /// minimum (frame length excluding FCS).
    pub fn ethernet(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
        let body = ethernet::HEADER_LEN + payload.len();
        let len = body.max(ethernet::MIN_FRAME_NO_FCS);
        let mut buf = vec![0u8; len];
        {
            let mut f = EthernetFrame::new_unchecked(&mut buf);
            f.set_dst(dst);
            f.set_src(src);
            f.set_ethertype(ethertype);
        }
        buf[ethernet::HEADER_LEN..body].copy_from_slice(payload);
        buf
    }

    /// A full Ethernet/IPv4/UDP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn eth_ipv4_udp(
        dst_mac: MacAddr,
        src_mac: MacAddr,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::eth_ipv4_udp_into(
            &mut buf, dst_mac, src_mac, src, dst, src_port, dst_port, payload,
        );
        buf
    }

    /// Write a complete Ethernet/IPv4/UDP frame into `buf` in place,
    /// reusing its existing capacity (at most one allocation, and none when
    /// `buf` comes from a [`crate::PacketArena`]). Byte-for-byte identical
    /// to [`PacketBuilder::eth_ipv4_udp`].
    #[allow(clippy::too_many_arguments)]
    pub fn eth_ipv4_udp_into(
        buf: &mut Vec<u8>,
        dst_mac: MacAddr,
        src_mac: MacAddr,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) {
        let udp_len = crate::udp::HEADER_LEN + payload.len();
        let body =
            Self::eth_ipv4_skeleton_into(buf, dst_mac, src_mac, src, dst, IpProtocol::Udp, udp_len);
        let l4_at = ethernet::HEADER_LEN + 20;
        let udp = &mut buf[l4_at..body];
        udp[crate::udp::HEADER_LEN..].copy_from_slice(payload);
        {
            let mut d = UdpDatagram::new_unchecked(&mut *udp);
            d.set_src_port(src_port);
            d.set_dst_port(dst_port);
            d.set_len(udp_len as u16);
        }
        UdpDatagram::new_unchecked(udp).fill_checksum_v4(src, dst);
    }

    /// A full Ethernet/IPv4/TCP frame. Test-only: `crates/apps/src/nat.rs`:
    /// the product writes into an arena buffer with `eth_ipv4_tcp_into`.
    #[allow(clippy::too_many_arguments)]
    pub fn eth_ipv4_tcp(
        dst_mac: MacAddr,
        src_mac: MacAddr,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::eth_ipv4_tcp_into(
            &mut buf, dst_mac, src_mac, src, dst, src_port, dst_port, seq, flags, payload,
        );
        buf
    }

    /// Write a complete Ethernet/IPv4/TCP frame into `buf` in place,
    /// reusing its existing capacity. A 20-byte TCP header, window
    /// 0xffff, checksums filled.
    #[allow(clippy::too_many_arguments)]
    pub fn eth_ipv4_tcp_into(
        buf: &mut Vec<u8>,
        dst_mac: MacAddr,
        src_mac: MacAddr,
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) {
        let tcp_len = crate::tcp::MIN_HEADER_LEN + payload.len();
        let body =
            Self::eth_ipv4_skeleton_into(buf, dst_mac, src_mac, src, dst, IpProtocol::Tcp, tcp_len);
        let l4_at = ethernet::HEADER_LEN + 20;
        let tcp = &mut buf[l4_at..body];
        tcp[crate::tcp::MIN_HEADER_LEN..].copy_from_slice(payload);
        {
            let mut s = TcpSegment::new_unchecked(&mut *tcp);
            s.set_src_port(src_port);
            s.set_dst_port(dst_port);
            s.set_seq(seq);
            s.set_header_len(crate::tcp::MIN_HEADER_LEN);
            s.set_flags(flags);
            s.set_window(0xffff);
        }
        TcpSegment::new_unchecked(tcp).fill_checksum_v4(src, dst);
    }

    /// Zero `buf`, size it for an Ethernet + IPv4 frame with an
    /// `l4_len`-byte L4 section (padding to the Ethernet minimum), and fill
    /// in both headers with the same defaults as [`PacketBuilder::ipv4`].
    /// Returns the body length (headers + L4, before padding).
    fn eth_ipv4_skeleton_into(
        buf: &mut Vec<u8>,
        dst_mac: MacAddr,
        src_mac: MacAddr,
        src: u32,
        dst: u32,
        protocol: IpProtocol,
        l4_len: usize,
    ) -> usize {
        let ip_total = 20 + l4_len;
        let body = ethernet::HEADER_LEN + ip_total;
        buf.clear();
        buf.resize(body.max(ethernet::MIN_FRAME_NO_FCS), 0);
        {
            let mut f = EthernetFrame::new_unchecked(&mut buf[..]);
            f.set_dst(dst_mac);
            f.set_src(src_mac);
            f.set_ethertype(EtherType::Ipv4);
        }
        {
            let mut p = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..body]);
            p.set_version(4);
            p.set_header_len(20);
            p.set_total_len(ip_total as u16);
            p.set_ttl(64);
            p.set_fragment(true, false, 0);
            p.set_protocol(protocol);
            p.set_src(src);
            p.set_dst(dst);
            p.fill_checksum();
        }
        body
    }

    /// Add an 802.1Q tag to an existing frame. Test-only:
    /// `crates/ppe/src/parser.rs`: tagged input for a parser's tests.
    pub fn with_vlan(frame: &[u8], vid: u16, pcp: u8) -> Vec<u8> {
        vlan::push_tag(
            frame,
            EtherType::Vlan,
            Tci {
                pcp,
                dei: false,
                vid,
            },
        )
        .expect("frame shorter than an Ethernet header")
    }

    /// GRE-encapsulate an IPv4 packet inside a new outer IPv4 header.
    pub fn gre_encap(outer_src: u32, outer_dst: u32, key: Option<u32>, inner_ip: &[u8]) -> Vec<u8> {
        let mut gre_payload = gre::build_header(EtherType::Ipv4, key);
        gre_payload.extend_from_slice(inner_ip);
        Self::ipv4(outer_src, outer_dst, IpProtocol::Gre, &gre_payload)
    }

    /// IP-in-IP encapsulate an IPv4 packet.
    pub fn ipip_encap(outer_src: u32, outer_dst: u32, inner_ip: &[u8]) -> Vec<u8> {
        Self::ipv4(outer_src, outer_dst, IpProtocol::IpIp, inner_ip)
    }

    /// VXLAN-encapsulate an Ethernet frame inside outer IPv4/UDP.
    /// The UDP source port carries the inner flow entropy, as RFC 7348
    /// recommends.
    pub fn vxlan_encap(
        outer_src: u32,
        outer_dst: u32,
        src_port_entropy: u16,
        vni: u32,
        inner_frame: &[u8],
    ) -> Vec<u8> {
        let vx = vxlan::encapsulate(vni, inner_frame);
        Self::ipv4_udp(outer_src, outer_dst, src_port_entropy, vxlan::UDP_PORT, &vx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4;

    const SRC: u32 = 0xc0a80001; // 192.168.0.1
    const DST: u32 = 0x0a000002; // 10.0.0.2

    /// The nested reference `eth_ipv4_tcp_into` must equal: an IPv4/TCP
    /// packet built by `PacketBuilder::ipv4` around a hand-set segment.
    #[allow(clippy::too_many_arguments)]
    fn ipv4_tcp(
        src: u32,
        dst: u32,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let tcp_len = crate::tcp::MIN_HEADER_LEN + payload.len();
        let mut tcp = vec![0u8; tcp_len];
        {
            let mut s = TcpSegment::new_unchecked(&mut tcp);
            s.set_src_port(src_port);
            s.set_dst_port(dst_port);
            s.set_seq(seq);
            s.set_header_len(crate::tcp::MIN_HEADER_LEN);
            s.set_flags(flags);
            s.set_window(0xffff);
        }
        tcp[crate::tcp::MIN_HEADER_LEN..].copy_from_slice(payload);
        TcpSegment::new_unchecked(&mut tcp).fill_checksum_v4(src, dst);
        PacketBuilder::ipv4(src, dst, IpProtocol::Tcp, &tcp)
    }

    #[test]
    fn ipv4_udp_validates() {
        let buf = PacketBuilder::ipv4_udp(SRC, DST, 1111, 2222, b"data");
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.protocol(), IpProtocol::Udp);
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum_v4(SRC, DST));
        assert_eq!(udp.payload(), b"data");
    }

    #[test]
    fn ipv4_tcp_validates() {
        let buf = ipv4_tcp(SRC, DST, 80, 5000, 42, TcpFlags::syn_only(), b"xyz");
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum_v4(SRC, DST));
        assert!(tcp.flags().syn);
        assert_eq!(tcp.payload(), b"xyz");
    }

    #[test]
    fn ethernet_padding_to_minimum() {
        let f = PacketBuilder::ethernet(MacAddr::BROADCAST, MacAddr([1; 6]), EtherType::Ipv4, b"x");
        assert_eq!(f.len(), ethernet::MIN_FRAME_NO_FCS);
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        assert_eq!(eth.payload()[0], b'x');
    }

    #[test]
    fn vlan_tagging() {
        let f = PacketBuilder::eth_ipv4_udp(MacAddr([2; 6]), MacAddr([3; 6]), SRC, DST, 1, 2, b"p");
        let tagged = PacketBuilder::with_vlan(&f, 300, 5);
        let eth = EthernetFrame::new_checked(&tagged[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Vlan);
        let v = crate::vlan::VlanFrame::new_checked(eth.payload()).unwrap();
        assert_eq!(v.vid(), 300);
        assert_eq!(v.tci().pcp, 5);
    }

    #[test]
    fn gre_encap_decap() {
        let inner = PacketBuilder::ipv4_udp(SRC, DST, 9, 10, b"in");
        let outer = PacketBuilder::gre_encap(0x01010101, 0x02020202, Some(7), &inner);
        let ip = Ipv4Packet::new_checked(&outer[..]).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Gre);
        assert!(ip.verify_checksum());
        let g = crate::gre::GrePacket::new_checked(ip.payload()).unwrap();
        assert_eq!(g.key(), Some(7));
        assert_eq!(g.payload(), &inner[..]);
    }

    #[test]
    fn ipip_encap_decap() {
        let inner = PacketBuilder::ipv4_udp(SRC, DST, 9, 10, b"in");
        let outer = PacketBuilder::ipip_encap(0x01010101, 0x02020202, &inner);
        let ip = Ipv4Packet::new_checked(&outer[..]).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::IpIp);
        assert_eq!(ip.payload(), &inner[..]);
        // The inner packet is itself valid.
        let inner_view = Ipv4Packet::new_checked(ip.payload()).unwrap();
        assert_eq!(inner_view.src(), SRC);
    }

    #[test]
    fn vxlan_encap_decap() {
        let inner =
            PacketBuilder::ethernet(MacAddr([9; 6]), MacAddr([8; 6]), EtherType::Ipv4, b"q");
        let outer = PacketBuilder::vxlan_encap(0x0b0b0b0b, 0x0c0c0c0c, 0xbeef, 5001, &inner);
        let ip = Ipv4Packet::new_checked(&outer[..]).unwrap();
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert_eq!(udp.dst_port(), vxlan::UDP_PORT);
        assert_eq!(udp.src_port(), 0xbeef);
        let vx = VxlanView(udp.payload());
        let v = crate::vxlan::VxlanPacket::new_checked(vx.0).unwrap();
        assert_eq!(v.vni(), 5001);
        assert_eq!(v.inner_frame(), &inner[..]);
    }

    struct VxlanView<'a>(&'a [u8]);

    #[test]
    fn in_place_builders_match_allocating_path() {
        let arena = crate::PacketArena::new();
        for payload_len in [0usize, 1, 18, 100, 1472] {
            let payload = vec![0x5au8; payload_len];
            let nested_udp = {
                // The historical nested construction: UDP inside IPv4
                // inside Ethernet, one allocation per layer.
                let ip = PacketBuilder::ipv4_udp(SRC, DST, 1111, 2222, &payload);
                PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4, &ip)
            };
            let mut buf = arena.lease();
            PacketBuilder::eth_ipv4_udp_into(
                &mut buf,
                MacAddr([1; 6]),
                MacAddr([2; 6]),
                SRC,
                DST,
                1111,
                2222,
                &payload,
            );
            assert_eq!(buf, nested_udp, "UDP payload_len={payload_len}");
            arena.recycle(buf);

            let nested_tcp = {
                let ip = ipv4_tcp(SRC, DST, 80, 5000, 7, TcpFlags::syn_only(), &payload);
                PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4, &ip)
            };
            let mut buf = arena.lease();
            PacketBuilder::eth_ipv4_tcp_into(
                &mut buf,
                MacAddr([1; 6]),
                MacAddr([2; 6]),
                SRC,
                DST,
                80,
                5000,
                7,
                TcpFlags::syn_only(),
                &payload,
            );
            assert_eq!(buf, nested_tcp, "TCP payload_len={payload_len}");
            arena.recycle(buf);
        }
        assert_eq!(arena.allocations(), 1, "all frames reuse one buffer");
    }

    #[test]
    fn fmt_helpers_agree_with_builder() {
        let buf = PacketBuilder::ipv4_udp(SRC, DST, 1, 2, &[]);
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(ipv4::fmt_addr(ip.src()), "192.168.0.1");
        assert_eq!(ipv4::parse_addr("10.0.0.2"), Some(ip.dst()));
    }
}
