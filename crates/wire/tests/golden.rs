//! Golden-vector tests: parse/emit round-trips against known byte images.
//!
//! The images below were hand-verified against RFC 791/768/793 checksum
//! arithmetic (the IPv4 header checksum of the UDP image sums to 0x701f,
//! the UDP pseudo-header checksum to 0x80b7, the TCP one to 0xdf26).
//! They pin the wire format: any change to header layout, checksum
//! computation, padding or VLAN tag insertion fails these tests with a
//! byte-level diff. Everything here runs with default features — no
//! proptest, no external dependencies.

use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::ethernet::EthernetFrame;
use flexsfp_wire::ipv4::Ipv4Packet;
use flexsfp_wire::tcp::{TcpFlags, TcpSegment};
use flexsfp_wire::udp::UdpDatagram;
use flexsfp_wire::vlan::{self, VlanFrame};
use flexsfp_wire::{EtherType, IpProtocol, MacAddr};

const SRC_IP: u32 = 0xc0a8_0001; // 192.168.0.1
const DST_IP: u32 = 0x0a00_0002; // 10.0.0.2

/// IPv4/UDP, 192.168.0.1:1234 -> 10.0.0.2:80, payload b"flexsfp".
const GOLDEN_IPV4_UDP: [u8; 35] = [
    0x45, 0x00, 0x00, 0x23, 0x00, 0x00, 0x40, 0x00, // ver/ihl tos len id flags(DF)
    0x40, 0x11, 0x70, 0x1f, 0xc0, 0xa8, 0x00, 0x01, // ttl=64 proto=17 csum src
    0x0a, 0x00, 0x00, 0x02, // dst
    0x04, 0xd2, 0x00, 0x50, 0x00, 0x0f, 0x80, 0xb7, // sport dport ulen ucsum
    0x66, 0x6c, 0x65, 0x78, 0x73, 0x66, 0x70, // "flexsfp"
];

/// IPv4/TCP SYN, 192.168.0.1:80 -> 10.0.0.2:443, seq 0x01020304, no payload.
const GOLDEN_IPV4_TCP: [u8; 40] = [
    0x45, 0x00, 0x00, 0x28, 0x00, 0x00, 0x40, 0x00, //
    0x40, 0x06, 0x70, 0x25, 0xc0, 0xa8, 0x00, 0x01, //
    0x0a, 0x00, 0x00, 0x02, //
    0x00, 0x50, 0x01, 0xbb, 0x01, 0x02, 0x03, 0x04, // sport dport seq
    0x00, 0x00, 0x00, 0x00, 0x50, 0x02, 0xff, 0xff, // ack off/flags(SYN) win
    0xdf, 0x26, 0x00, 0x00, // csum urg
];

/// The UDP packet above in an Ethernet II frame, padded to the 60-byte
/// minimum (no FCS).
const GOLDEN_ETH_UDP: [u8; 60] = [
    0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // dst/src MAC
    0x08, 0x00, // EtherType IPv4
    0x45, 0x00, 0x00, 0x23, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x70, 0x1f, //
    0xc0, 0xa8, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02, //
    0x04, 0xd2, 0x00, 0x50, 0x00, 0x0f, 0x80, 0xb7, //
    0x66, 0x6c, 0x65, 0x78, 0x73, 0x66, 0x70, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // pad
];

/// The same frame with an 802.1Q tag, VID 100, PCP 3 (TCI 0x6064).
const GOLDEN_ETH_VLAN_UDP: [u8; 64] = [
    0x02, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x02, //
    0x81, 0x00, 0x60, 0x64, // 802.1Q tag: TPID, TCI pcp=3 vid=100
    0x08, 0x00, //
    0x45, 0x00, 0x00, 0x23, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x70, 0x1f, //
    0xc0, 0xa8, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02, //
    0x04, 0xd2, 0x00, 0x50, 0x00, 0x0f, 0x80, 0xb7, //
    0x66, 0x6c, 0x65, 0x78, 0x73, 0x66, 0x70, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
];

#[test]
fn emit_ipv4_udp_matches_golden_image() {
    let buf = PacketBuilder::ipv4_udp(SRC_IP, DST_IP, 1234, 80, b"flexsfp");
    assert_eq!(buf, GOLDEN_IPV4_UDP);
}

#[test]
fn parse_ipv4_udp_golden_image() {
    let ip = Ipv4Packet::new_checked(&GOLDEN_IPV4_UDP[..]).unwrap();
    assert!(ip.verify_checksum());
    assert_eq!(GOLDEN_IPV4_UDP[0] >> 4, 4);
    assert_eq!(ip.ttl(), 64);
    assert_eq!(ip.protocol(), IpProtocol::Udp);
    assert_eq!(ip.src(), SRC_IP);
    assert_eq!(ip.dst(), DST_IP);
    let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
    assert!(udp.verify_checksum_v4(SRC_IP, DST_IP));
    assert_eq!(udp.src_port(), 1234);
    assert_eq!(udp.dst_port(), 80);
    assert_eq!(udp.payload(), b"flexsfp");
}

/// The TCP packet above in an Ethernet II frame, padded to the 60-byte
/// minimum: what `eth_ipv4_tcp_into` writes.
#[test]
fn emit_eth_tcp_matches_golden_image() {
    let mut frame = Vec::new();
    PacketBuilder::eth_ipv4_tcp_into(
        &mut frame,
        MacAddr::from(0x02_00_00_00_00_01u64),
        MacAddr::from(0x02_00_00_00_00_02u64),
        SRC_IP,
        DST_IP,
        80,
        443,
        0x0102_0304,
        TcpFlags::syn_only(),
        &[],
    );
    assert_eq!(frame[..14], GOLDEN_ETH_UDP[..14], "MACs and EtherType");
    assert_eq!(frame[14..54], GOLDEN_IPV4_TCP);
    assert_eq!(frame[54..], [0; 6], "padding");
}

#[test]
fn parse_ipv4_tcp_golden_image() {
    let ip = Ipv4Packet::new_checked(&GOLDEN_IPV4_TCP[..]).unwrap();
    assert!(ip.verify_checksum());
    assert_eq!(ip.protocol(), IpProtocol::Tcp);
    let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
    assert!(tcp.verify_checksum_v4(SRC_IP, DST_IP));
    assert_eq!(tcp.src_port(), 80);
    assert_eq!(tcp.dst_port(), 443);
    assert_eq!(ip.payload()[4..8], 0x0102_0304_u32.to_be_bytes());
    assert!(tcp.flags().syn);
    assert!(!tcp.flags().ack);
    assert_eq!(ip.payload()[14..16], [0xff, 0xff]);
    assert!(tcp.payload().is_empty());
}

#[test]
fn emit_eth_udp_matches_golden_image() {
    let frame = PacketBuilder::eth_ipv4_udp(
        MacAddr::from(0x02_00_00_00_00_01u64),
        MacAddr::from(0x02_00_00_00_00_02u64),
        SRC_IP,
        DST_IP,
        1234,
        80,
        b"flexsfp",
    );
    assert_eq!(frame, GOLDEN_ETH_UDP);
}

#[test]
fn parse_eth_udp_golden_image() {
    let eth = EthernetFrame::new_checked(&GOLDEN_ETH_UDP[..]).unwrap();
    assert_eq!(eth.dst(), MacAddr::from(0x02_00_00_00_00_01u64));
    assert_eq!(eth.src(), MacAddr::from(0x02_00_00_00_00_02u64));
    assert_eq!(eth.ethertype(), EtherType::Ipv4);
    let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
    assert!(ip.verify_checksum());
    // The Ethernet minimum-size pad is outside the IP datagram.
    assert_eq!(eth.payload()[2..4], 35_u16.to_be_bytes());
}

#[test]
fn vlan_tag_insertion_matches_golden_image() {
    let tagged = PacketBuilder::with_vlan(&GOLDEN_ETH_UDP, 100, 3);
    assert_eq!(tagged, GOLDEN_ETH_VLAN_UDP);
}

#[test]
fn parse_vlan_golden_image() {
    let eth = EthernetFrame::new_checked(&GOLDEN_ETH_VLAN_UDP[..]).unwrap();
    assert_eq!(eth.ethertype(), EtherType::Vlan);
    let v = VlanFrame::new_checked(eth.payload()).unwrap();
    assert_eq!(v.vid(), 100);
    // PCP in the top three bits of the TCI, DEI below it clear.
    assert_eq!(eth.payload()[0] >> 4, 3 << 1);
    assert_eq!(v.inner_ethertype(), EtherType::Ipv4);
    let ip = Ipv4Packet::new_checked(v.payload()).unwrap();
    assert!(ip.verify_checksum());
    assert_eq!(ip.dst(), DST_IP);
}

#[test]
fn vlan_pop_recovers_untagged_golden_image() {
    let (tci, untagged) = vlan::pop_tag(&GOLDEN_ETH_VLAN_UDP).unwrap();
    assert_eq!(tci.vid, 100);
    assert_eq!(tci.pcp, 3);
    assert_eq!(untagged, GOLDEN_ETH_UDP);
}
