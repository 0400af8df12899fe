//! The active control plane as a network endpoint (§4.1, third model).
//!
//! "The control plane is not limited to configuring the data plane, but
//! can also originate and terminate traffic, transforming the SFP from a
//! reactive device into an active network component … the SFP could act
//! as a self-contained microservice node." The minimal useful
//! microservices are the ones that make the module addressable on the
//! network it lives in: an ARP responder and an ICMP echo responder for
//! the management address. The `respond` entry point inspects a frame
//! and, when it targets the module, produces the reply the control
//! plane originates.

use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{
    arp, icmp, ArpOperation, ArpPacket, EtherType, EthernetFrame, IcmpPacket, IcmpType, IpProtocol,
    Ipv4Packet, MacAddr,
};

/// Inspect `frame`; when it is an ARP request or ICMP echo request for
/// `(mac, ip)`, build the reply frame the control plane sends back out
/// the interface the request arrived on.
pub(crate) fn respond(frame: &[u8], mac: MacAddr, ip: u32) -> Option<Vec<u8>> {
    let eth = EthernetFrame::new_checked(frame).ok()?;
    match eth.ethertype() {
        EtherType::Arp => {
            let req = ArpPacket::new_checked(eth.payload()).ok()?;
            if req.operation() != ArpOperation::Request || req.target_ip() != ip {
                return None;
            }
            let mut reply = vec![0u8; arp::PACKET_LEN];
            {
                let mut a = ArpPacket::new_unchecked(&mut reply);
                a.init_ethernet_ipv4();
                a.set_operation(ArpOperation::Reply);
                a.set_sender_mac(mac);
                a.set_sender_ip(ip);
                a.set_target_mac(req.sender_mac());
                a.set_target_ip(req.sender_ip());
            }
            Some(PacketBuilder::ethernet(
                req.sender_mac(),
                mac,
                EtherType::Arp,
                &reply,
            ))
        }
        EtherType::Ipv4 => {
            // Unicast to our MAC (or broadcast ping) with our IP.
            if eth.dst() != mac && !eth.dst().is_broadcast() {
                return None;
            }
            let ipv4 = Ipv4Packet::new_checked(eth.payload()).ok()?;
            if ipv4.dst() != ip || ipv4.protocol() != IpProtocol::Icmp {
                return None;
            }
            let echo = IcmpPacket::new_checked(ipv4.payload()).ok()?;
            if echo.msg_type() != IcmpType::EchoRequest || !echo.verify_checksum() {
                return None;
            }
            // Build the reply: same ident/seq/payload, type 0.
            let mut reply_icmp = vec![0u8; icmp::HEADER_LEN + echo.payload().len()];
            {
                let mut r = IcmpPacket::new_unchecked(&mut reply_icmp);
                r.set_msg_type(IcmpType::EchoReply);
                r.set_code(0);
                r.set_echo_ident(echo.echo_ident());
                r.set_echo_seq(echo.echo_seq());
            }
            reply_icmp[icmp::HEADER_LEN..].copy_from_slice(echo.payload());
            IcmpPacket::new_unchecked(&mut reply_icmp).fill_checksum();
            let reply_ip = PacketBuilder::ipv4(ip, ipv4.src(), IpProtocol::Icmp, &reply_icmp);
            Some(PacketBuilder::ethernet(
                eth.src(),
                mac,
                EtherType::Ipv4,
                &reply_ip,
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUR_MAC: MacAddr = MacAddr([0x02, 0xf5, 0x0f, 0, 0, 1]);
    const OUR_IP: u32 = 0x0a00_0164;
    const PEER_MAC: MacAddr = MacAddr([0x02, 0xee, 0, 0, 0, 9]);
    const PEER_IP: u32 = 0x0a00_0101;

    fn arp_request(target_ip: u32) -> Vec<u8> {
        let mut body = vec![0u8; arp::PACKET_LEN];
        let mut a = ArpPacket::new_unchecked(&mut body);
        a.init_ethernet_ipv4();
        a.set_operation(ArpOperation::Request);
        a.set_sender_mac(PEER_MAC);
        a.set_sender_ip(PEER_IP);
        a.set_target_mac(MacAddr::default());
        a.set_target_ip(target_ip);
        PacketBuilder::ethernet(MacAddr([0xff; 6]), PEER_MAC, EtherType::Arp, &body)
    }

    fn ping_request(dst_ip: u32, payload: &[u8]) -> Vec<u8> {
        let mut icmp_bytes = vec![0u8; icmp::HEADER_LEN + payload.len()];
        {
            let mut p = IcmpPacket::new_unchecked(&mut icmp_bytes);
            p.set_msg_type(IcmpType::EchoRequest);
            p.set_echo_ident(0x77);
            p.set_echo_seq(3);
        }
        icmp_bytes[icmp::HEADER_LEN..].copy_from_slice(payload);
        IcmpPacket::new_unchecked(&mut icmp_bytes).fill_checksum();
        let ip = PacketBuilder::ipv4(PEER_IP, dst_ip, IpProtocol::Icmp, &icmp_bytes);
        PacketBuilder::ethernet(OUR_MAC, PEER_MAC, EtherType::Ipv4, &ip)
    }

    #[test]
    fn answers_arp_for_our_ip() {
        let reply = respond(&arp_request(OUR_IP), OUR_MAC, OUR_IP).unwrap();
        let eth = EthernetFrame::new_checked(&reply[..]).unwrap();
        assert_eq!(eth.dst(), PEER_MAC);
        assert_eq!(eth.src(), OUR_MAC);
        let a = ArpPacket::new_checked(eth.payload()).unwrap();
        assert_eq!(a.operation(), ArpOperation::Reply);
        assert_eq!(a.sender_mac(), OUR_MAC);
        assert_eq!(a.sender_ip(), OUR_IP);
        assert_eq!(a.target_ip(), PEER_IP);
    }

    #[test]
    fn ignores_arp_for_other_hosts() {
        assert!(respond(&arp_request(0x0a00_01ff), OUR_MAC, OUR_IP).is_none());
    }

    #[test]
    fn answers_ping_with_payload_echo() {
        let payload = b"flexsfp-alive";
        let reply = respond(&ping_request(OUR_IP, payload), OUR_MAC, OUR_IP).unwrap();
        let eth = EthernetFrame::new_checked(&reply[..]).unwrap();
        assert_eq!(eth.dst(), PEER_MAC);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.src(), OUR_IP);
        assert_eq!(ip.dst(), PEER_IP);
        assert!(ip.verify_checksum());
        let echo = IcmpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(echo.msg_type(), IcmpType::EchoReply);
        assert_eq!(echo.echo_ident(), 0x77);
        assert_eq!(echo.echo_seq(), 3);
        assert_eq!(echo.payload(), payload);
        assert!(echo.verify_checksum());
    }

    #[test]
    fn ignores_ping_for_other_ips_and_non_echo() {
        assert!(respond(&ping_request(0x0a00_01ff, b"x"), OUR_MAC, OUR_IP).is_none());
        // Corrupted checksum is ignored (don't answer broken probes):
        // flip the ICMP payload byte at eth(14)+ip(20)+icmp(8).
        let mut broken = ping_request(OUR_IP, b"x");
        broken[42] ^= 0xff;
        assert!(respond(&broken, OUR_MAC, OUR_IP).is_none());
    }

    #[test]
    fn ignores_foreign_unicast_mac() {
        let mut req = ping_request(OUR_IP, b"x");
        // Addressed at L2 to someone else: a bump-in-the-wire must not
        // answer traffic merely passing through.
        EthernetFrame::new_unchecked(&mut req[..]).set_dst(MacAddr([0x02, 0x12, 0, 0, 0, 1]));
        assert!(respond(&req, OUR_MAC, OUR_IP).is_none());
    }

    #[test]
    fn ignores_non_ip_non_arp() {
        let frame = PacketBuilder::ethernet(OUR_MAC, PEER_MAC, EtherType::Other(0x1234), b"??");
        assert!(respond(&frame, OUR_MAC, OUR_IP).is_none());
    }
}
