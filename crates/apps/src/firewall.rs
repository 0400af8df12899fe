//! Per-port ACL firewalling at the optical edge.
//!
//! §3: "packet filtering and firewalling can occur directly at the
//! optical edge, dropping traffic before it reaches the NIC, the switch,
//! or even the customer premises." Rules are 5-tuple ternary matches
//! with priorities; the default policy is configurable. Rules can be
//! installed at runtime from the control plane (table id 0 with a
//! serialized rule encoding).

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_obs::json::{FromJson, Value};
use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::match_kinds::{TernaryEntry, TernaryTable};
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::pipeline::KeySelector;
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// What a matching rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AclAction {
    /// Let the packet through.
    Permit,
    /// Silently drop it.
    Deny,
    /// Send it to the control plane (e.g. log-and-punt).
    Punt,
}

/// One ACL rule over the IPv4 5-tuple; `None` fields are wildcards.
/// Address fields take `(addr, prefix_len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclRule {
    /// Source prefix.
    pub src: Option<(u32, u8)>,
    /// Destination prefix.
    pub dst: Option<(u32, u8)>,
    /// IP protocol.
    pub protocol: Option<u8>,
    /// Exact source port.
    pub src_port: Option<u16>,
    /// Exact destination port.
    pub dst_port: Option<u16>,
    /// Priority: lower wins.
    pub priority: u32,
    /// Action on match.
    pub action: AclAction,
}

flexsfp_obs::impl_json_enum!(AclAction { Permit, Deny, Punt });
flexsfp_obs::impl_json_struct!(AclRule {
    src,
    dst,
    protocol,
    src_port,
    dst_port,
    priority,
    action,
});

impl AclRule {
    fn to_entry(self) -> TernaryEntry<AclAction> {
        let mut value = [0u8; 13];
        let mut mask = [0u8; 13];
        if let Some((addr, len)) = self.src {
            let m = prefix_mask(len);
            value[0..4].copy_from_slice(&(addr & m).to_be_bytes());
            mask[0..4].copy_from_slice(&m.to_be_bytes());
        }
        if let Some((addr, len)) = self.dst {
            let m = prefix_mask(len);
            value[4..8].copy_from_slice(&(addr & m).to_be_bytes());
            mask[4..8].copy_from_slice(&m.to_be_bytes());
        }
        if let Some(p) = self.protocol {
            value[8] = p;
            mask[8] = 0xff;
        }
        if let Some(p) = self.src_port {
            value[9..11].copy_from_slice(&p.to_be_bytes());
            mask[9..11].copy_from_slice(&[0xff, 0xff]);
        }
        if let Some(p) = self.dst_port {
            value[11..13].copy_from_slice(&p.to_be_bytes());
            mask[11..13].copy_from_slice(&[0xff, 0xff]);
        }
        TernaryEntry {
            value,
            mask,
            priority: self.priority,
            data: self.action,
        }
    }
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len.min(32)))
    }
}

/// Counter indices.
pub mod counters {
    /// Permitted packets.
    pub(crate) const PERMITTED: usize = 0;
    /// Denied packets.
    pub(crate) const DENIED: usize = 1;
    /// Punted packets.
    pub(crate) const PUNTED: usize = 2;
    /// Non-matchable (non-IPv4-TCP/UDP) packets.
    pub(crate) const UNMATCHED: usize = 3;
}

/// The ACL firewall application.
pub struct AclFirewall {
    table: TernaryTable<AclAction>,
    counters: CounterBank,
    parser: Parser,
    /// Policy for packets with no matching rule.
    pub default_action: AclAction,
    /// Directions the firewall screens (both by default).
    pub screen_direction: Option<Direction>,
}

impl AclFirewall {
    /// A firewall with room for `capacity` rules and a default-permit
    /// policy.
    pub fn new(capacity: usize) -> AclFirewall {
        AclFirewall {
            table: TernaryTable::new(capacity),
            counters: CounterBank::new(8),
            parser: Parser,
            default_action: AclAction::Permit,
            screen_direction: None,
        }
    }

    /// What [`new`](Self::new)`(capacity)` occupies. Ternary rows are
    /// the cost driver (LUT-cascade TCAM emulation, 64 rows a block).
    pub fn manifest(capacity: usize) -> ResourceManifest {
        ResourceManifest::new(3_200, 4_100, 24, 2)
            + ResourceManifest::new(4_200, 1_400, 0, 0).scaled(capacity.div_ceil(64) as u64)
    }

    /// Install a rule; `false` when the table is full.
    pub fn add_rule(&mut self, rule: AclRule) -> bool {
        self.table.insert(rule.to_entry())
    }

    /// Remove all rules at `priority`; returns how many were removed.
    fn remove_priority(&mut self, priority: u32) -> usize {
        self.table.remove_priority(priority)
    }
}

impl PacketProcessor for AclFirewall {
    fn name(&self) -> &str {
        "firewall"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        if let Some(dir) = self.screen_direction {
            if ctx.direction != dir {
                return Verdict::Forward;
            }
        }
        let Some(parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        let Some(key) = KeySelector::FiveTuple.extract(&parsed) else {
            // Not an IPv4 TCP/UDP packet: fail according to policy on
            // the L3 source alone when IPv4, else forward L2 control
            // traffic (ARP must keep working on a retrofit port).
            self.counters.count(counters::UNMATCHED, packet.len());
            return Verdict::Forward;
        };
        let action = self
            .table
            .lookup(&key)
            .map_or(self.default_action, |e| e.data);
        match action {
            AclAction::Permit => {
                self.counters.count(counters::PERMITTED, packet.len());
                Verdict::Forward
            }
            AclAction::Deny => {
                self.counters.count(counters::DENIED, packet.len());
                Verdict::Drop
            }
            AclAction::Punt => {
                self.counters.count(counters::PUNTED, packet.len());
                Verdict::ToControlPlane
            }
        }
    }

    fn resource_manifest(&self) -> ResourceManifest {
        AclFirewall::manifest(self.table.capacity())
    }

    fn pipeline_depth(&self) -> u32 {
        1
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            TableOp::Insert {
                table: 0, value, ..
            } => {
                let Some(rule) = std::str::from_utf8(value)
                    .ok()
                    .and_then(|s| Value::parse(s).ok())
                    .and_then(|v| AclRule::from_json(&v))
                else {
                    return TableOpResult::BadEncoding;
                };
                crate::installed(self.add_rule(rule))
            }
            TableOp::Delete { table: 0, key } => {
                let Ok(bytes) = <[u8; 4]>::try_from(&key[..]) else {
                    return TableOpResult::BadEncoding;
                };
                let priority = u32::from_be_bytes(bytes);
                if self.remove_priority(priority) > 0 {
                    TableOpResult::Ok
                } else {
                    TableOpResult::NotFound
                }
            }
            TableOp::ReadCounter { index } => self.counters.get(*index as usize).into(),
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wildcard rule with the given action and priority.
    fn any(priority: u32, action: AclAction) -> AclRule {
        AclRule {
            src: None,
            dst: None,
            protocol: None,
            src_port: None,
            dst_port: None,
            priority,
            action,
        }
    }
    use flexsfp_obs::json::ToJson;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    const INSIDE: u32 = 0xc0a80101;
    const OUTSIDE: u32 = 0x2d2d2d2d;

    fn udp(src: u32, dst: u32, dport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            dst,
            1234,
            dport,
            b"x",
        )
    }

    fn tcp(src: u32, dst: u32, dport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            dst,
            1234,
            dport,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        )
    }

    #[test]
    fn deny_rule_blocks_matching_traffic() {
        let mut fw = AclFirewall::new(64);
        assert!(fw.add_rule(AclRule {
            src: None,
            dst: None,
            protocol: Some(17),
            src_port: None,
            dst_port: Some(53),
            priority: 10,
            action: AclAction::Deny,
        }));
        let mut dns = udp(INSIDE, OUTSIDE, 53);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut dns),
            Verdict::Drop
        );
        let mut web = udp(INSIDE, OUTSIDE, 443);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut web),
            Verdict::Forward
        );
        assert_eq!(fw.counters.get(counters::DENIED).packets, 1);
        assert_eq!(fw.counters.get(counters::PERMITTED).packets, 1);
    }

    #[test]
    fn priority_order_first_match_wins() {
        let mut fw = AclFirewall::new(64);
        // Specific permit for one host overrides a broad deny.
        fw.add_rule(AclRule {
            src: Some((INSIDE, 32)),
            ..any(1, AclAction::Permit)
        });
        fw.add_rule(AclRule {
            src: Some((0xc0a80100, 24)),
            ..any(5, AclAction::Deny)
        });
        let mut ours = tcp(INSIDE, OUTSIDE, 80);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut ours),
            Verdict::Forward
        );
        let mut neighbor = tcp(0xc0a80102, OUTSIDE, 80);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut neighbor),
            Verdict::Drop
        );
    }

    #[test]
    fn default_deny_policy() {
        let mut fw = AclFirewall::new(8);
        fw.default_action = AclAction::Deny;
        fw.add_rule(AclRule {
            dst_port: Some(443),
            protocol: Some(6),
            ..any(1, AclAction::Permit)
        });
        let mut https = tcp(INSIDE, OUTSIDE, 443);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut https),
            Verdict::Forward
        );
        let mut telnet = tcp(INSIDE, OUTSIDE, 23);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut telnet),
            Verdict::Drop
        );
    }

    #[test]
    fn punt_action_diverts_to_control_plane() {
        let mut fw = AclFirewall::new(8);
        fw.add_rule(AclRule {
            dst_port: Some(22),
            protocol: Some(6),
            ..any(1, AclAction::Punt)
        });
        let mut ssh = tcp(OUTSIDE, INSIDE, 22);
        assert_eq!(
            fw.process(&ProcessContext::ingress(), &mut ssh),
            Verdict::ToControlPlane
        );
        assert_eq!(fw.counters.get(counters::PUNTED).packets, 1);
    }

    #[test]
    fn arp_passes_even_with_default_deny() {
        let mut fw = AclFirewall::new(8);
        fw.default_action = AclAction::Deny;
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut arp),
            Verdict::Forward
        );
        assert_eq!(fw.counters.get(counters::UNMATCHED).packets, 1);
    }

    #[test]
    fn directional_screening() {
        let mut fw = AclFirewall::new(8);
        fw.screen_direction = Some(Direction::OpticalToEdge);
        fw.add_rule(any(1, AclAction::Deny));
        // Egress unscreened.
        let mut out = tcp(INSIDE, OUTSIDE, 80);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut out),
            Verdict::Forward
        );
        // Ingress screened.
        let mut inbound = tcp(OUTSIDE, INSIDE, 80);
        assert_eq!(
            fw.process(&ProcessContext::ingress(), &mut inbound),
            Verdict::Drop
        );
    }

    #[test]
    fn control_plane_rule_install() {
        let mut fw = AclFirewall::new(8);
        let rule = AclRule {
            protocol: Some(17),
            dst_port: Some(53),
            ..any(3, AclAction::Deny)
        };
        let r = fw.control_op(&TableOp::Insert {
            table: 0,
            key: vec![],
            value: rule.to_json().to_string().into_bytes(),
        });
        assert_eq!(r, TableOpResult::Ok);
        let mut dns = udp(INSIDE, OUTSIDE, 53);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut dns),
            Verdict::Drop
        );
        // Delete by priority.
        assert_eq!(
            fw.control_op(&TableOp::Delete {
                table: 0,
                key: 3u32.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        let mut dns2 = udp(INSIDE, OUTSIDE, 53);
        assert_eq!(
            fw.process(&ProcessContext::egress(), &mut dns2),
            Verdict::Forward
        );
    }

    #[test]
    fn capacity_exhaustion_reported() {
        let mut fw = AclFirewall::new(1);
        assert!(fw.add_rule(any(1, AclAction::Deny)));
        assert!(!fw.add_rule(any(2, AclAction::Deny)));
        let r = fw.control_op(&TableOp::Insert {
            table: 0,
            key: vec![],
            value: any(3, AclAction::Deny).to_json().to_string().into_bytes(),
        });
        assert_eq!(r, TableOpResult::TableFull);
    }

    #[test]
    fn manifest_scales_with_rules() {
        let small = AclFirewall::new(64);
        let big = AclFirewall::new(1024);
        assert!(big.resource_manifest().lut4 > small.resource_manifest().lut4);
        // Both fit the device.
        assert!(flexsfp_fabric::Device::mpf200t()
            .fit(big.resource_manifest())
            .fits());
    }
}
