//! Per-subscriber IPv6 source filtering (§2.1).
//!
//! The telecom retrofit scenario names "per-subscriber policies such as
//! IPv6 filtering" as something legacy aggregation switches cannot do.
//! This app implements SAVI/BCP 38-style source validation at the access
//! port: each subscriber port owns a set of delegated /64 prefixes, and
//! IPv6 traffic heading upstream must source from one of them; IPv6 from
//! any other prefix is dropped. `block_all_v6` drops every IPv6 packet
//! (the crude legacy "IPv6 filtering").

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::tables::HashTable;
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp_wire::EtherType;

/// Filter statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct V6FilterStats {
    /// IPv6 packets from delegated prefixes.
    pub valid: u64,
    /// IPv6 packets from unknown prefixes.
    pub unknown: u64,
    /// IPv6 packets dropped by the block-all policy.
    pub blocked_all: u64,
    /// Non-IPv6 traffic passed through.
    pub non_v6: u64,
}

/// The per-subscriber IPv6 source filter.
pub struct Ipv6SubscriberFilter {
    /// Delegated /64 prefixes → subscriber id.
    prefixes: HashTable<u64, u32>,
    /// Crude mode: block every IPv6 packet (some operators' first ask).
    pub block_all_v6: bool,
    /// Direction screened (upstream: edge→optical).
    pub screen_direction: Direction,
    /// Statistics.
    stats: V6FilterStats,
    parser: Parser,
}

impl Default for Ipv6SubscriberFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl Ipv6SubscriberFilter {
    /// A strict filter with room for 4 096 delegations.
    pub fn new() -> Ipv6SubscriberFilter {
        Ipv6SubscriberFilter {
            prefixes: HashTable::with_capacity(4_096),
            block_all_v6: false,
            screen_direction: Direction::EdgeToOptical,
            stats: V6FilterStats::default(),
            parser: Parser,
        }
    }

    /// Delegate `prefix64` to `subscriber`.
    pub fn delegate(&mut self, prefix64: u64, subscriber: u32) -> bool {
        self.prefixes.insert(prefix64, subscriber).is_ok()
    }
}

impl PacketProcessor for Ipv6SubscriberFilter {
    fn name(&self) -> &str {
        "ipv6-filter"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        if ctx.direction != self.screen_direction {
            return Verdict::Forward;
        }
        let Some(parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        if parsed.ethertype != EtherType::Ipv6 {
            self.stats.non_v6 += 1;
            return Verdict::Forward;
        }
        if self.block_all_v6 {
            self.stats.blocked_all += 1;
            return Verdict::Drop;
        }
        let Some(v6) = parsed.ipv6 else {
            // Claimed IPv6 but malformed: never let it upstream.
            self.stats.unknown += 1;
            return Verdict::Drop;
        };
        if self.prefixes.lookup(&v6.src_prefix64).is_some() {
            self.stats.valid += 1;
            return Verdict::Forward;
        }
        self.stats.unknown += 1;
        Verdict::Drop
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // 64-bit exact match over 4k entries: (64+32+32) b × 4 096 =
        // modest LSRAM + a shallow parse path.
        ResourceManifest::new(3_800, 4_600, 18, 26)
    }

    fn pipeline_depth(&self) -> u32 {
        1
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Table 0: delegations. key = 8-byte prefix, value = 4-byte
            // subscriber id.
            TableOp::Insert {
                table: 0,
                key,
                value,
            } => {
                let (Ok(p), Ok(s)) = (
                    <[u8; 8]>::try_from(&key[..]),
                    <[u8; 4]>::try_from(&value[..]),
                ) else {
                    return TableOpResult::BadEncoding;
                };
                crate::installed(self.delegate(u64::from_be_bytes(p), u32::from_be_bytes(s)))
            }
            TableOp::Delete { table: 0, key } => {
                let Ok(p) = <[u8; 8]>::try_from(&key[..]) else {
                    return TableOpResult::BadEncoding;
                };
                match self.prefixes.remove(&u64::from_be_bytes(p)) {
                    Some(_) => TableOpResult::Ok,
                    None => TableOpResult::NotFound,
                }
            }
            TableOp::ReadCounter { index } => {
                let packets = match index {
                    0 => self.stats.valid,
                    1 => self.stats.unknown,
                    2 => self.stats.blocked_all,
                    _ => return TableOpResult::NotFound,
                };
                TableOpResult::Counter { packets, bytes: 0 }
            }
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::ipv6::{Ipv6Addr, Ipv6Packet};
    use flexsfp_wire::MacAddr;

    const SUB_PREFIX: u64 = 0x2001_0db8_0001_0000;

    fn v6_frame(src_prefix: u64) -> Vec<u8> {
        let mut ip6 = vec![0u8; 40 + 8];
        // Payload length 8, next header UDP, hop limit 64.
        ip6[4..8].copy_from_slice(&[0, 8, 17, 64]);
        {
            let mut p = Ipv6Packet::new_unchecked(&mut ip6);
            p.set_version(6);
            let mut src = [0u8; 16];
            src[..8].copy_from_slice(&src_prefix.to_be_bytes());
            src[15] = 0x42;
            p.set_src(Ipv6Addr(src));
            p.set_dst(Ipv6Addr([
                0x20, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9,
            ]));
        }
        {
            let mut u = flexsfp_wire::UdpDatagram::new_unchecked(&mut ip6[40..]);
            u.set_src_port(1000);
            u.set_dst_port(2000);
            u.set_len(8);
        }
        PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv6, &ip6)
    }

    fn filter() -> Ipv6SubscriberFilter {
        let mut f = Ipv6SubscriberFilter::new();
        assert!(f.delegate(SUB_PREFIX, 1001));
        f
    }

    #[test]
    fn delegated_prefix_passes() {
        let mut f = filter();
        let mut pkt = v6_frame(SUB_PREFIX);
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(f.stats.valid, 1);
    }

    #[test]
    fn unknown_prefix_dropped_strict() {
        let mut f = filter();
        let mut pkt = v6_frame(0x2001_0db8_9999_0000);
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(f.stats.unknown, 1);
    }

    #[test]
    fn block_all_mode() {
        let mut f = filter();
        f.block_all_v6 = true;
        let mut pkt = v6_frame(SUB_PREFIX); // even the delegated one
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(f.stats.blocked_all, 1);
    }

    #[test]
    fn ipv4_unaffected() {
        let mut f = filter();
        let mut v4 = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            0x08080808,
            1,
            2,
            b"x",
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut v4),
            Verdict::Forward
        );
        assert_eq!(f.stats.non_v6, 1);
    }

    #[test]
    fn downstream_direction_unscreened() {
        let mut f = filter();
        let mut pkt = v6_frame(0xdead_beef_0000_0000);
        assert_eq!(
            f.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(f.stats.unknown, 0);
    }

    #[test]
    fn malformed_v6_dropped() {
        let mut f = filter();
        // EtherType says IPv6 but only 10 bytes follow.
        let mut pkt = PacketBuilder::ethernet(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            EtherType::Ipv6,
            &[0x60, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
    }

    #[test]
    fn control_plane_delegation_lifecycle() {
        let mut f = Ipv6SubscriberFilter::new();
        let r = f.control_op(&TableOp::Insert {
            table: 0,
            key: SUB_PREFIX.to_be_bytes().to_vec(),
            value: 77u32.to_be_bytes().to_vec(),
        });
        assert_eq!(r, TableOpResult::Ok);
        assert_eq!(f.prefixes.len(), 1);
        let mut pkt = v6_frame(SUB_PREFIX);
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(
            f.control_op(&TableOp::Delete {
                table: 0,
                key: SUB_PREFIX.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        let mut pkt = v6_frame(SUB_PREFIX);
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(
            f.control_op(&TableOp::ReadCounter { index: 1 }),
            TableOpResult::Counter {
                packets: 1,
                bytes: 0
            }
        );
    }

    #[test]
    fn fits_device() {
        assert!(flexsfp_fabric::Device::mpf200t()
            .fit(Ipv6SubscriberFilter::new().resource_manifest())
            .fits());
    }
}
