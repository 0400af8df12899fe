//! Tunnel encapsulation gateways: GRE, VXLAN and IP-in-IP (§3).
//!
//! "Programmable SFPs can insert tunneling headers for GRE, VXLAN, or
//! IP-in-IP without involving the host." The gateway encapsulates in the
//! edge→optical direction and decapsulates matching tunnels in the
//! reverse direction, so the host sees plain traffic while the fiber
//! carries the overlay.

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::action::{Action, ActionEngine, ActionOutcome};
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp_wire::IpProtocol;

/// Tunnel type selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelKind {
    /// GRE with a key (RFC 2890).
    Gre {
        /// GRE key identifying the tenant/service.
        key: u32,
    },
    /// VXLAN (RFC 7348).
    Vxlan {
        /// VXLAN network identifier.
        vni: u32,
    },
    /// Plain IP-in-IP (RFC 2003).
    IpIp,
}

/// Counter indices.
pub mod counters {
    /// Frames encapsulated.
    pub(crate) const ENCAPPED: usize = 0;
    /// Frames decapsulated.
    pub(crate) const DECAPPED: usize = 1;
    /// Reverse-direction frames that were not our tunnel.
    pub(crate) const PASSED: usize = 2;
}

/// The tunnel gateway application.
pub struct TunnelGateway {
    /// Tunnel type and identifier.
    pub kind: TunnelKind,
    /// Outer source address (this module's underlay address).
    pub local: u32,
    /// Outer destination (remote tunnel endpoint).
    pub remote: u32,
    engine: ActionEngine,
    parser: Parser,
}

impl TunnelGateway {
    /// A gateway tunnelling `local → remote`.
    pub fn new(kind: TunnelKind, local: u32, remote: u32) -> TunnelGateway {
        TunnelGateway {
            kind,
            local,
            remote,
            engine: ActionEngine::new(4),
            parser: Parser,
        }
    }

    fn encap_action(&self) -> Action {
        match self.kind {
            TunnelKind::Gre { key } => Action::EncapGre {
                src: self.local,
                dst: self.remote,
                key,
            },
            TunnelKind::Vxlan { vni } => Action::EncapVxlan {
                src: self.local,
                dst: self.remote,
                vni,
            },
            TunnelKind::IpIp => Action::EncapIpIp {
                src: self.local,
                dst: self.remote,
            },
        }
    }

    /// Is this reverse-direction packet our tunnel's traffic?
    fn is_our_tunnel(&self, packet: &[u8]) -> bool {
        let Some(parsed) = self.parser.parse(packet) else {
            return false;
        };
        let Some(ip) = parsed.ipv4 else {
            return false;
        };
        if ip.dst != self.local || ip.src != self.remote {
            return false;
        }
        match self.kind {
            TunnelKind::Gre { key } => {
                ip.protocol == IpProtocol::Gre
                    && flexsfp_wire::GrePacket::new_checked(&packet[ip.offset + ip.header_len..])
                        .map(|g| g.key() == Some(key))
                        .unwrap_or(false)
            }
            TunnelKind::Vxlan { vni } => {
                matches!(parsed.l4, flexsfp_ppe::parser::L4::Udp { dst_port, .. } if dst_port == flexsfp_wire::vxlan::UDP_PORT)
                    && parsed
                        .l4_offset
                        .and_then(|off| {
                            flexsfp_wire::VxlanPacket::new_checked(
                                &packet[off + flexsfp_wire::udp::HEADER_LEN..],
                            )
                            .ok()
                        })
                        .map(|v| v.vni() == vni)
                        .unwrap_or(false)
            }
            TunnelKind::IpIp => ip.protocol == IpProtocol::IpIp,
        }
    }

    fn decap(&mut self, packet: &mut Vec<u8>) -> Verdict {
        match self.kind {
            TunnelKind::Gre { .. } | TunnelKind::IpIp => {
                let Some(parsed) = self.parser.parse(packet) else {
                    return Verdict::Drop;
                };
                match self
                    .engine
                    .apply(Action::DecapTunnel, packet, &parsed, None)
                {
                    ActionOutcome::Continue { .. } => {}
                    ActionOutcome::Final(v) => return v,
                }
            }
            TunnelKind::Vxlan { .. } => {
                // VXLAN decap recovers the whole inner Ethernet frame.
                let Some(parsed) = self.parser.parse(packet) else {
                    return Verdict::Drop;
                };
                let Some(l4_off) = parsed.l4_offset else {
                    return Verdict::Drop;
                };
                let inner_start =
                    l4_off + flexsfp_wire::udp::HEADER_LEN + flexsfp_wire::vxlan::HEADER_LEN;
                if inner_start >= packet.len() {
                    return Verdict::Drop;
                }
                let inner = packet[inner_start..].to_vec();
                *packet = inner;
            }
        }
        self.engine.counters.count(counters::DECAPPED, packet.len());
        Verdict::Forward
    }
}

impl PacketProcessor for TunnelGateway {
    fn name(&self) -> &str {
        "tunnel-gw"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        match ctx.direction {
            Direction::EdgeToOptical => {
                let Some(parsed) = self.parser.parse(packet) else {
                    return Verdict::Drop;
                };
                // Only IP traffic is tunnelled for GRE/IPIP; VXLAN can
                // carry any Ethernet frame.
                if parsed.ipv4.is_none() && !matches!(self.kind, TunnelKind::Vxlan { .. }) {
                    return Verdict::Forward;
                }
                match self
                    .engine
                    .apply(self.encap_action(), packet, &parsed, None)
                {
                    ActionOutcome::Continue { .. } => {}
                    ActionOutcome::Final(v) => return v,
                }
                self.engine.counters.count(counters::ENCAPPED, packet.len());
                Verdict::Forward
            }
            Direction::OpticalToEdge => {
                if self.is_our_tunnel(packet) {
                    self.decap(packet)
                } else {
                    self.engine.counters.count(counters::PASSED, packet.len());
                    Verdict::Forward
                }
            }
        }
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // Header construction tables + length/checksum recompute units.
        match self.kind {
            TunnelKind::Vxlan { .. } => ResourceManifest::new(5_100, 6_400, 22, 2),
            TunnelKind::Gre { .. } => ResourceManifest::new(4_300, 5_600, 18, 1),
            TunnelKind::IpIp => ResourceManifest::new(3_700, 4_900, 16, 1),
        }
    }

    fn pipeline_depth(&self) -> u32 {
        2
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Runtime endpoint re-pointing: key "remote", 4-byte value.
            TableOp::Insert {
                table: 0,
                key,
                value,
            } if key == b"remote" => {
                let Ok(bytes) = <[u8; 4]>::try_from(&value[..]) else {
                    return TableOpResult::BadEncoding;
                };
                self.remote = u32::from_be_bytes(bytes);
                TableOpResult::Ok
            }
            TableOp::ReadCounter { index } => self.engine.counters.get(*index as usize).into(),
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::MacAddr;

    const LOCAL: u32 = 0x0a640001;
    const REMOTE: u32 = 0x0a640002;

    fn host_frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80005,
            0x5db8d822,
            3333,
            80,
            b"payload",
        )
    }

    fn round_trip(kind: TunnelKind) {
        let mut gw = TunnelGateway::new(kind, LOCAL, REMOTE);
        let mut pkt = host_frame();
        let orig = pkt.clone();
        // Encap toward the fiber.
        assert_eq!(
            gw.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_ne!(pkt, orig);
        assert_eq!(gw.engine.counters.get(counters::ENCAPPED).packets, 1);
        // The far-end module would decap; simulate the return path by
        // swapping outer addresses.
        let mut returning = pkt.clone();
        {
            let parsed = Parser.parse(&returning).unwrap();
            let ip = parsed.ipv4.unwrap();
            let mut view = Ipv4Packet::new_unchecked(&mut returning[ip.offset..]);
            view.set_src(REMOTE);
            view.set_dst(LOCAL);
            view.fill_checksum();
        }
        assert_eq!(
            gw.process(&ProcessContext::ingress(), &mut returning),
            Verdict::Forward
        );
        assert_eq!(gw.engine.counters.get(counters::DECAPPED).packets, 1);
        // Inner frame recovered intact.
        assert_eq!(returning, orig);
    }

    #[test]
    fn gre_round_trip() {
        round_trip(TunnelKind::Gre { key: 7001 });
    }

    #[test]
    fn ipip_round_trip() {
        round_trip(TunnelKind::IpIp);
    }

    #[test]
    fn vxlan_round_trip() {
        round_trip(TunnelKind::Vxlan { vni: 88 });
    }

    #[test]
    fn foreign_traffic_passes_reverse() {
        let mut gw = TunnelGateway::new(TunnelKind::Gre { key: 1 }, LOCAL, REMOTE);
        let mut pkt = host_frame();
        let before = pkt.clone();
        assert_eq!(
            gw.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
        assert_eq!(gw.engine.counters.get(counters::PASSED).packets, 1);
    }

    #[test]
    fn wrong_gre_key_not_decapped() {
        let mut gw_a = TunnelGateway::new(TunnelKind::Gre { key: 1 }, LOCAL, REMOTE);
        let mut gw_b = TunnelGateway::new(TunnelKind::Gre { key: 2 }, LOCAL, REMOTE);
        let mut pkt = host_frame();
        gw_a.process(&ProcessContext::egress(), &mut pkt);
        // Swap addresses for the return.
        {
            let parsed = Parser.parse(&pkt).unwrap();
            let ip = parsed.ipv4.unwrap();
            let mut view = Ipv4Packet::new_unchecked(&mut pkt[ip.offset..]);
            view.set_src(REMOTE);
            view.set_dst(LOCAL);
            view.fill_checksum();
        }
        let before = pkt.clone();
        // Key-2 gateway refuses to decap key-1 traffic.
        assert_eq!(
            gw_b.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
        assert_eq!(gw_b.engine.counters.get(counters::PASSED).packets, 1);
    }

    #[test]
    fn non_ip_not_tunnelled_by_gre() {
        let mut gw = TunnelGateway::new(TunnelKind::Gre { key: 1 }, LOCAL, REMOTE);
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        let before = arp.clone();
        assert_eq!(
            gw.process(&ProcessContext::egress(), &mut arp),
            Verdict::Forward
        );
        assert_eq!(arp, before);
    }

    #[test]
    fn vxlan_tunnels_any_frame() {
        let mut gw = TunnelGateway::new(TunnelKind::Vxlan { vni: 9 }, LOCAL, REMOTE);
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            gw.process(&ProcessContext::egress(), &mut arp),
            Verdict::Forward
        );
        assert_eq!(gw.engine.counters.get(counters::ENCAPPED).packets, 1);
        let p = Parser.parse(&arp).unwrap();
        assert!(p.ipv4.is_some());
    }

    #[test]
    fn runtime_endpoint_repoint() {
        let mut gw = TunnelGateway::new(TunnelKind::IpIp, LOCAL, REMOTE);
        let new_remote: u32 = 0x0a6400aa;
        assert_eq!(
            gw.control_op(&TableOp::Insert {
                table: 0,
                key: b"remote".to_vec(),
                value: new_remote.to_be_bytes().to_vec(),
            }),
            TableOpResult::Ok
        );
        let mut pkt = host_frame();
        gw.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.dst(), new_remote);
    }

    use flexsfp_ppe::parser::Parser;
}
