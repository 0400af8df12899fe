//! Property tests for wire-format invariants.
//!
//! Each property runs [`CASES`] seeded cases under plain `cargo test`;
//! a failure names the case's seed, which reproduces it alone.

use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::checksum;
use flexsfp_wire::dns;
use flexsfp_wire::ipv4::Ipv4Packet;
use flexsfp_wire::tcp::TcpFlags;
use flexsfp_wire::udp::UdpDatagram;
use flexsfp_wire::vlan::{self, Tci};
use flexsfp_wire::{EtherType, EthernetFrame, MacAddr, TcpSegment};

const CASES: u64 = 256;

/// Run `property` over [`CASES`] generators seeded `seed`, `seed + 1`, ….
fn for_each_case(seed: u64, mut property: impl FnMut(&mut Xoshiro256, u64)) {
    for case in seed..seed + CASES {
        property(&mut Xoshiro256::seed_from_u64(case), case);
    }
}

/// Between `lo` and `hi - 1` random bytes.
fn bytes(rng: &mut Xoshiro256, lo: usize, hi: usize) -> Vec<u8> {
    (0..rng.range_usize(lo, hi))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// A random in-range TCI.
fn tci(rng: &mut Xoshiro256) -> Tci {
    let r = rng.next_u64();
    Tci {
        pcp: r as u8 % 8,
        dei: r >> 8 & 1 == 1,
        vid: (r >> 16) as u16 % 4096,
    }
}

/// Any built IPv4/UDP packet validates under the checked views and
/// carries the payload intact.
#[test]
fn built_udp_packets_validate() {
    for_each_case(0x0d9, |rng, case| {
        let (a, p) = (rng.next_u64(), rng.next_u64());
        let (src, dst, sport, dport) = (a as u32, (a >> 32) as u32, p as u16, (p >> 16) as u16);
        let payload = bytes(rng, 0, 1200);
        let buf = PacketBuilder::ipv4_udp(src, dst, sport, dport, &payload);
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(ip.verify_checksum(), "case {case:#x}");
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum_v4(src, dst), "case {case:#x}");
        assert_eq!(udp.src_port(), sport, "case {case:#x}");
        assert_eq!(udp.dst_port(), dport, "case {case:#x}");
        assert_eq!(udp.payload(), &payload[..], "case {case:#x}");
    });
}

/// Built TCP packets validate and preserve header fields.
#[test]
fn built_tcp_packets_validate() {
    for_each_case(0x7c9, |rng, case| {
        let (a, p) = (rng.next_u64(), rng.next_u64());
        let (src, dst, sport, dport) = (a as u32, (a >> 32) as u32, p as u16, (p >> 16) as u16);
        let (seq, flag_byte) = ((p >> 32) as u32, rng.next_u64() as u8);
        let payload = bytes(rng, 0, 600);
        let flags = TcpFlags::from_u8(flag_byte);
        let buf = PacketBuilder::ipv4_tcp(src, dst, sport, dport, seq, flags, &payload);
        let ip = Ipv4Packet::new_checked(&buf[..]).unwrap();
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum_v4(src, dst), "case {case:#x}");
        assert_eq!(tcp.seq(), seq, "case {case:#x}");
        assert_eq!(tcp.flags().to_u8(), flag_byte, "case {case:#x}");
        assert_eq!(tcp.payload(), &payload[..], "case {case:#x}");
    });
}

/// Incremental checksum update (RFC 1624) over an arbitrary 32-bit
/// field change equals a full recompute.
#[test]
fn incremental_update_equals_recompute() {
    for_each_case(0x1624, |rng, case| {
        let mut header = bytes(rng, 20, 21);
        let new_src = rng.next_u64() as u32;
        // Zero the checksum field, compute, then store it.
        header[10] = 0;
        header[11] = 0;
        let c0 = checksum::checksum(&header);
        header[10..12].copy_from_slice(&c0.to_be_bytes());

        let old_src = u32::from_be_bytes(header[12..16].try_into().unwrap());
        let incremental = checksum::update32(c0, old_src, new_src);

        header[12..16].copy_from_slice(&new_src.to_be_bytes());
        header[10] = 0;
        header[11] = 0;
        let recomputed = checksum::checksum(&header);
        assert_eq!(incremental, recomputed, "case {case:#x}");
    });
}

/// A buffer containing its own checksum always folds to 0xffff.
#[test]
fn embedded_checksum_folds_to_all_ones() {
    for_each_case(0xf01d, |rng, case| {
        let mut data = bytes(rng, 4, 256);
        data[0] = 0;
        data[1] = 0;
        let c = checksum::checksum(&data);
        data[0..2].copy_from_slice(&c.to_be_bytes());
        assert_eq!(checksum::raw_sum(&data), 0xffff, "case {case:#x}");
    });
}

/// VLAN push followed by pop returns the original frame and TCI.
#[test]
fn vlan_push_pop_identity() {
    for_each_case(0x8100, |rng, case| {
        let frame = bytes(rng, 14, 200);
        let tci = tci(rng);
        let tagged = vlan::push_tag(&frame, EtherType::Vlan, tci).unwrap();
        let (popped, untagged) = vlan::pop_tag(&tagged).unwrap();
        assert_eq!(popped, tci, "case {case:#x}");
        assert_eq!(untagged, frame, "case {case:#x}");
    });
}

/// TCI encode/decode round-trips for all in-range values.
#[test]
fn tci_round_trip() {
    for_each_case(0x7c1, |rng, case| {
        let t = tci(rng);
        assert_eq!(Tci::from_u16(t.to_u16()), t, "case {case:#x}");
    });
}

/// Ethernet setters and getters are inverse.
#[test]
fn ethernet_field_round_trip() {
    for_each_case(0xe7e, |rng, case| {
        let (a, b) = (rng.next_u64().to_be_bytes(), rng.next_u64().to_be_bytes());
        let dst = MacAddr(a[..6].try_into().unwrap());
        let src = MacAddr(b[..6].try_into().unwrap());
        let ety = u16::from_be_bytes([a[6], a[7]]);
        let mut buf = vec![0u8; 60];
        let mut f = EthernetFrame::new_unchecked(&mut buf);
        f.set_dst(dst);
        f.set_src(src);
        f.set_ethertype(EtherType::from_u16(ety));
        let f = EthernetFrame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.dst(), dst, "case {case:#x}");
        assert_eq!(f.src(), src, "case {case:#x}");
        assert_eq!(f.ethertype().to_u16(), ety, "case {case:#x}");
    });
}

/// DNS name encode/parse round-trips for valid label strings: one to
/// four labels of 1 to 20 characters from `[a-z0-9]`.
#[test]
fn dns_query_round_trip() {
    for_each_case(0xd25, |rng, case| {
        let labels: Vec<String> = (0..rng.range_usize(1, 5))
            .map(|_| {
                (0..rng.range_usize(1, 21))
                    .map(|_| {
                        char::from(b"abcdefghijklmnopqrstuvwxyz0123456789"[rng.range_usize(0, 36)])
                    })
                    .collect()
            })
            .collect();
        let name = labels.join(".");
        let (id, qtype) = (rng.next_u64() as u16, rng.range_u64(1, 300) as u16);
        let q = dns::build_query(id, &name, qtype);
        let h = dns::DnsHeader::new_checked(&q[..]).unwrap();
        assert_eq!(h.id(), id, "case {case:#x}");
        let question = h.first_question().unwrap();
        assert_eq!(question.qname, name, "case {case:#x}");
        assert_eq!(question.qtype, qtype, "case {case:#x}");
    });
}

/// Parsing arbitrary bytes never panics — the views either accept or
/// return an error (hardware cannot afford a crash path).
#[test]
fn arbitrary_bytes_never_panic() {
    for_each_case(0xba5e, |rng, _| {
        let data = bytes(rng, 0, 128);
        let _ = EthernetFrame::new_checked(&data[..]);
        let _ = Ipv4Packet::new_checked(&data[..]);
        let _ = UdpDatagram::new_checked(&data[..]);
        let _ = TcpSegment::new_checked(&data[..]);
        let _ = flexsfp_wire::Ipv6Packet::new_checked(&data[..]);
        let _ = flexsfp_wire::ArpPacket::new_checked(&data[..]);
        let _ = flexsfp_wire::GrePacket::new_checked(&data[..]);
        let _ = flexsfp_wire::VxlanPacket::new_checked(&data[..]);
        let _ = flexsfp_wire::IcmpPacket::new_checked(&data[..]);
        if let Ok(h) = dns::DnsHeader::new_checked(&data[..]) {
            let _ = h.first_question();
        }
    });
}

/// GRE encap puts the inner packet back out unchanged.
#[test]
fn gre_encap_preserves_inner() {
    for_each_case(0x62e, |rng, case| {
        let payload = bytes(rng, 0, 200);
        let a = rng.next_u64();
        let (osrc, odst) = (a as u32, (a >> 32) as u32);
        let key = rng.chance(0.5).then(|| rng.next_u64() as u32);
        let inner =
            PacketBuilder::ipv4(osrc ^ 1, odst ^ 1, flexsfp_wire::IpProtocol::Udp, &payload);
        let outer = PacketBuilder::gre_encap(osrc, odst, key, &inner);
        let ip = Ipv4Packet::new_checked(&outer[..]).unwrap();
        let g = flexsfp_wire::GrePacket::new_checked(ip.payload()).unwrap();
        assert_eq!(g.key(), key, "case {case:#x}");
        assert_eq!(g.payload(), &inner[..], "case {case:#x}");
    });
}
