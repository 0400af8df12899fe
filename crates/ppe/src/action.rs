//! Action primitives of the match-action pipeline.
//!
//! Each [`Action`] is one hardware edit unit: field rewrites with
//! incremental checksum maintenance, VLAN push/pop, tunnel encap/decap
//! and counting. The paper positions exactly this action vocabulary as
//! FlexSFP's sweet spot: "composed L2–L4 functions — multi-field
//! parse/edit, label/tunnel manipulation, per-packet hashing for
//! steering, and in-band timestamping" (§5.3).

use crate::cache::{self, PlanOp, PlanRecorder};
use crate::counters::CounterBank;
use crate::engine::Verdict;
use crate::parser::ParsedPacket;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::{ethernet, EtherType, EthernetFrame, IpProtocol};

/// One action unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Rewrite the IPv4 source address (incremental checksums).
    SetIpv4Src(u32),
    /// Rewrite the IPv4 destination address (incremental checksums).
    SetIpv4Dst(u32),
    /// Push an 802.1Q tag.
    PushVlan {
        /// VLAN id.
        vid: u16,
        /// Priority code point.
        pcp: u8,
    },
    /// Push an 802.1ad S-tag (QinQ outer tag).
    PushSTag {
        /// Service VLAN id.
        vid: u16,
    },
    /// Pop the outermost VLAN tag (no-op if untagged).
    PopVlan,
    /// GRE-encapsulate the IP payload in a new outer IPv4 header.
    EncapGre {
        /// Outer source address.
        src: u32,
        /// Outer destination address.
        dst: u32,
        /// Optional GRE key.
        key: u32,
    },
    /// IP-in-IP encapsulate.
    EncapIpIp {
        /// Outer source address.
        src: u32,
        /// Outer destination address.
        dst: u32,
    },
    /// VXLAN-encapsulate the whole frame in outer IPv4/UDP.
    EncapVxlan {
        /// Outer source address.
        src: u32,
        /// Outer destination address.
        dst: u32,
        /// VXLAN network identifier.
        vni: u32,
    },
    /// Strip one outer IPv4 tunnel layer (GRE or IP-in-IP).
    DecapTunnel,
    /// Count packet+bytes on counter `0`..bank size.
    Count(usize),
}

impl Action {
    /// True for the actions whose edit is a function of the flow key and
    /// the action's own operands alone: field rewrites with
    /// flow-constant values, tag push/pop, counting (a pure increment).
    /// These compile to [`PlanOp`]s, so a plan recorded on a flow's first
    /// packet replays bit-exactly on every later one. Encap/decap embeds
    /// per-packet bytes (lengths, entropy hashes). This is the one list
    /// of pure actions, and [`ActionEngine::apply`] asks it.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Action::SetIpv4Src(_)
                | Action::SetIpv4Dst(_)
                | Action::PushVlan { .. }
                | Action::PushSTag { .. }
                | Action::PopVlan
                | Action::Count(_)
        )
    }
}

/// Outcome of applying one action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionOutcome {
    /// Continue with the next action; `true` if the packet bytes or
    /// layout changed (requiring a re-parse before further matching).
    Continue {
        /// Packet was modified.
        modified: bool,
    },
    /// Stop: a verdict was decided.
    Final(Verdict),
}

/// Executes actions against packets, owning the counter bank the
/// actions reference.
#[derive(Debug)]
pub struct ActionEngine {
    /// Counter bank indexed by [`Action::Count`].
    pub counters: CounterBank,
}

impl ActionEngine {
    /// An engine with `n_counters` counters.
    pub fn new(n_counters: usize) -> ActionEngine {
        ActionEngine {
            counters: CounterBank::new(n_counters),
        }
    }

    /// Apply one action. `parsed` must describe the current `packet`.
    ///
    /// A pure action ([`Action::is_pure`]) is compiled against the packet
    /// into [`PlanOp`]s, which are appended to `rec` when the caller is
    /// recording a plan for the flow cache and then run: the ops are the
    /// edit, so what a cached flow replays is what its first packet
    /// executed. Any other edit invalidates `rec`.
    //
    // Forced inline, with the compile step and the op loop behind it:
    // callers name the variant, so inlined the compile folds to that
    // variant's arm and the loop to its ops. Left to the `#[inline]`
    // hint all three stayed calls, and the NAT slow path read 87–100
    // ns/packet against the parent's 51–60 (CHANGES.md, PR 19).
    #[inline(always)]
    pub fn apply(
        &mut self,
        action: Action,
        packet: &mut Vec<u8>,
        parsed: &ParsedPacket,
        rec: Option<&mut PlanRecorder>,
    ) -> ActionOutcome {
        let Some(ops) = cache::compile_action(&action, packet, parsed) else {
            return impure(action, packet, parsed, rec);
        };
        let ops = ops.as_slice();
        if let Some(rec) = rec {
            ops.iter().for_each(|&op| rec.push(op));
        }
        cache::run_ops(ops, packet, &mut self.counters);
        ActionOutcome::Continue {
            modified: ops.iter().any(|op| !matches!(op, PlanOp::Count { .. })),
        }
    }
}

/// The actions no plan can hold, each with its own implementation.
fn impure(
    action: Action,
    packet: &mut Vec<u8>,
    parsed: &ParsedPacket,
    rec: Option<&mut PlanRecorder>,
) -> ActionOutcome {
    if let Some(rec) = rec {
        rec.invalidate();
    }
    match action {
        Action::EncapGre { src, dst, key } => encap_ip_layer(packet, parsed, |inner| {
            PacketBuilder::gre_encap(src, dst, Some(key), inner)
        }),
        Action::EncapIpIp { src, dst } => encap_ip_layer(packet, parsed, |inner| {
            PacketBuilder::ipip_encap(src, dst, inner)
        }),
        Action::EncapVxlan { src, dst, vni } => {
            // Entropy source port from the inner flow (RFC 7348).
            let entropy = 0xc000 | (flexsfp_fabric::hash::crc32(packet) & 0x3fff) as u16;
            let outer = PacketBuilder::vxlan_encap(src, dst, entropy, vni, packet);
            let mut frame = Vec::with_capacity(ethernet::HEADER_LEN + outer.len());
            frame.extend_from_slice(&packet[..ethernet::HEADER_LEN]);
            frame.extend_from_slice(&outer);
            *packet = frame;
            // The outer frame carries IPv4 regardless of what the
            // inner frame was.
            EthernetFrame::new_unchecked(&mut packet[..]).set_ethertype(EtherType::Ipv4);
            ActionOutcome::Continue { modified: true }
        }
        Action::DecapTunnel => decap_tunnel(packet, parsed),
        pure => unreachable!("{pure:?} compiles to plan ops"),
    }
}

/// Replace the IP layer with `wrap(inner_ip)`, keeping the Ethernet (and
/// VLAN) headers in place.
fn encap_ip_layer(
    packet: &mut Vec<u8>,
    parsed: &ParsedPacket,
    wrap: impl FnOnce(&[u8]) -> Vec<u8>,
) -> ActionOutcome {
    let Some(ip) = parsed.ipv4 else {
        return ActionOutcome::Continue { modified: false };
    };
    let inner = packet[ip.offset..].to_vec();
    let outer = wrap(&inner);
    packet.truncate(ip.offset);
    packet.extend_from_slice(&outer);
    ActionOutcome::Continue { modified: true }
}

fn decap_tunnel(packet: &mut Vec<u8>, parsed: &ParsedPacket) -> ActionOutcome {
    let Some(ip) = parsed.ipv4 else {
        return ActionOutcome::Continue { modified: false };
    };
    let inner_start = match ip.protocol {
        IpProtocol::IpIp => ip.offset + ip.header_len,
        IpProtocol::Gre => {
            let gre_off = ip.offset + ip.header_len;
            match flexsfp_wire::GrePacket::new_checked(&packet[gre_off..]) {
                Ok(g) => gre_off + g.header_len(),
                Err(_) => return ActionOutcome::Final(Verdict::Drop),
            }
        }
        _ => return ActionOutcome::Continue { modified: false },
    };
    let inner = packet[inner_start..].to_vec();
    packet.truncate(ip.offset);
    packet.extend_from_slice(&inner);
    ActionOutcome::Continue { modified: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{Parser, L4};
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::tcp::TcpSegment;
    use flexsfp_wire::udp::UdpDatagram;
    use flexsfp_wire::MacAddr;

    const SRC: u32 = 0xc0a80001;
    const DST: u32 = 0x0a000002;
    const NEW: u32 = 0x644f0001;

    fn engine() -> ActionEngine {
        ActionEngine::new(8)
    }

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            1000,
            2000,
            b"pp",
        )
    }

    fn apply(e: &mut ActionEngine, action: Action, pkt: &mut Vec<u8>) -> ActionOutcome {
        let parsed = Parser.parse(pkt).unwrap();
        e.apply(action, pkt, &parsed, None)
    }

    #[test]
    fn src_rewrite_fixes_all_checksums() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let out = apply(&mut e, Action::SetIpv4Src(NEW), &mut pkt);
        assert_eq!(out, ActionOutcome::Continue { modified: true });
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), NEW);
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum_v4(NEW, DST));
    }

    #[test]
    fn dst_rewrite_on_tcp_fixes_l4() {
        let mut e = engine();
        let mut pkt = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            80,
            1234,
            9,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            b"x",
        );
        apply(&mut e, Action::SetIpv4Dst(NEW), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.dst(), NEW);
        assert!(ip.verify_checksum());
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum_v4(SRC, NEW));
    }

    #[test]
    fn rewrite_to_same_address_is_noop() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let before = pkt.clone();
        let out = apply(&mut e, Action::SetIpv4Src(SRC), &mut pkt);
        assert_eq!(out, ActionOutcome::Continue { modified: false });
        assert_eq!(pkt, before);
    }

    #[test]
    fn vlan_push_pop() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let orig = pkt.clone();
        apply(&mut e, Action::PushVlan { vid: 100, pcp: 3 }, &mut pkt);
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.vlans, vec![100]);
        apply(&mut e, Action::PopVlan, &mut pkt);
        assert_eq!(pkt, orig);
    }

    #[test]
    fn qinq_stag_over_ctag() {
        let mut e = engine();
        let mut pkt = udp_frame();
        apply(&mut e, Action::PushVlan { vid: 10, pcp: 0 }, &mut pkt);
        apply(&mut e, Action::PushSTag { vid: 500 }, &mut pkt);
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.vlans, vec![500, 10]);
    }

    #[test]
    fn pop_on_untagged_is_noop() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let before = pkt.clone();
        let out = apply(&mut e, Action::PopVlan, &mut pkt);
        assert_eq!(out, ActionOutcome::Continue { modified: false });
        assert_eq!(pkt, before);
    }

    #[test]
    fn gre_encap_then_decap_round_trips() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let orig = pkt.clone();
        apply(
            &mut e,
            Action::EncapGre {
                src: 0x01010101,
                dst: 0x02020202,
                key: 99,
            },
            &mut pkt,
        );
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.ipv4.unwrap().protocol, IpProtocol::Gre);
        assert_eq!(p.ipv4.unwrap().dst, 0x02020202);
        apply(&mut e, Action::DecapTunnel, &mut pkt);
        assert_eq!(pkt, orig);
    }

    #[test]
    fn ipip_encap_then_decap_round_trips() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let orig = pkt.clone();
        apply(
            &mut e,
            Action::EncapIpIp {
                src: 0x01010101,
                dst: 0x02020202,
            },
            &mut pkt,
        );
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.ipv4.unwrap().protocol, IpProtocol::IpIp);
        apply(&mut e, Action::DecapTunnel, &mut pkt);
        assert_eq!(pkt, orig);
    }

    #[test]
    fn vxlan_encap_wraps_whole_frame() {
        let mut e = engine();
        let mut pkt = udp_frame();
        let orig = pkt.clone();
        apply(
            &mut e,
            Action::EncapVxlan {
                src: 0x0b0b0b0b,
                dst: 0x0c0c0c0c,
                vni: 42,
            },
            &mut pkt,
        );
        let p = Parser.parse(&pkt).unwrap();
        match p.l4 {
            L4::Udp { dst_port, .. } => assert_eq!(dst_port, flexsfp_wire::vxlan::UDP_PORT),
            other => panic!("expected VXLAN UDP, got {other:?}"),
        }
        // The inner frame is recoverable.
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        flexsfp_wire::VxlanPacket::new_checked(udp.payload()).unwrap();
        assert_eq!(&udp.payload()[flexsfp_wire::vxlan::HEADER_LEN..], &orig[..]);
    }

    #[test]
    fn count_accumulates() {
        let mut e = engine();
        let mut pkt = udp_frame();
        apply(&mut e, Action::Count(2), &mut pkt);
        apply(&mut e, Action::Count(2), &mut pkt);
        assert_eq!(e.counters.get(2).packets, 2);
    }

    #[test]
    fn ip_actions_on_non_ip_are_noops() {
        let mut e = engine();
        let mut pkt = PacketBuilder::ethernet(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            EtherType::Other(0x9999),
            b"opaque",
        );
        let before = pkt.clone();
        for a in [
            Action::SetIpv4Src(1),
            Action::SetIpv4Dst(1),
            Action::DecapTunnel,
            Action::EncapGre {
                src: 1,
                dst: 2,
                key: 3,
            },
        ] {
            let out = apply(&mut e, a, &mut pkt);
            assert_eq!(out, ActionOutcome::Continue { modified: false }, "{a:?}");
            assert_eq!(pkt, before, "{a:?}");
        }
    }
}
