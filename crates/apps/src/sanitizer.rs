//! Packet sanitization and protocol validation (§3): "removing
//! deprecated headers, blocking malformed packets".
//!
//! The sanitizer enforces a configurable hygiene policy at the optical
//! edge: malformed L3/L4 headers, bad IP checksums, IPv4 options
//! (deprecated in practice and a classic evasion vector), tiny-fragment
//! attacks and spoofed RFC 1918 sources can each be dropped before they
//! touch the switch.

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp_wire::ipv4::Ipv4Packet;
use flexsfp_wire::EtherType;

/// Reasons a packet can be rejected, with independent counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// Frames shorter than an Ethernet header / unparseable L2.
    pub runt: u64,
    /// IPv4 header failed validation (version/length/checksum).
    pub bad_ip_header: u64,
    /// IPv4 options present.
    pub ip_options: u64,
    /// Fragment with a tiny offset (overlap-attack signature).
    pub tiny_fragment: u64,
    /// RFC 1918 source seen on the optical (public) side.
    pub spoofed_private: u64,
    /// TTL of zero on arrival.
    pub zero_ttl: u64,
    /// Clean packets passed.
    pub passed: u64,
}

impl SanitizerStats {
    /// Total drops.
    fn dropped(&self) -> u64 {
        self.runt
            + self.bad_ip_header
            + self.ip_options
            + self.tiny_fragment
            + self.spoofed_private
            + self.zero_ttl
    }
}

/// Policy switches.
#[derive(Debug, Clone, Copy)]
pub struct SanitizerPolicy {
    /// Verify the IPv4 header checksum.
    pub check_ip_checksum: bool,
    /// Drop packets carrying IPv4 options.
    pub drop_ip_options: bool,
    /// Drop first fragments too small to contain a full L4 header and
    /// non-first fragments with offset 1 (tiny-fragment attack).
    pub drop_tiny_fragments: bool,
    /// Drop RFC 1918 sources arriving from the optical side.
    pub drop_private_from_optical: bool,
    /// Drop packets that arrive with TTL 0.
    pub drop_zero_ttl: bool,
}

impl Default for SanitizerPolicy {
    fn default() -> Self {
        SanitizerPolicy {
            check_ip_checksum: true,
            drop_ip_options: true,
            drop_tiny_fragments: true,
            drop_private_from_optical: true,
            drop_zero_ttl: true,
        }
    }
}

fn is_rfc1918(addr: u32) -> bool {
    (addr & 0xff00_0000) == 0x0a00_0000 // 10/8
        || (addr & 0xfff0_0000) == 0xac10_0000 // 172.16/12
        || (addr & 0xffff_0000) == 0xc0a8_0000 // 192.168/16
}

/// The sanitizer application.
pub struct Sanitizer {
    /// Policy in force.
    pub policy: SanitizerPolicy,
    /// Statistics.
    pub stats: SanitizerStats,
    parser: Parser,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Self::new(SanitizerPolicy::default())
    }
}

impl Sanitizer {
    /// A sanitizer enforcing `policy`.
    pub fn new(policy: SanitizerPolicy) -> Sanitizer {
        Sanitizer {
            policy,
            stats: SanitizerStats::default(),
            parser: Parser,
        }
    }
}

impl PacketProcessor for Sanitizer {
    fn name(&self) -> &str {
        "sanitizer"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            self.stats.runt += 1;
            return Verdict::Drop;
        };
        if parsed.ethertype == EtherType::Ipv4 {
            // Re-validate at full strictness (the parser is tolerant).
            let ip_off = match parsed.ipv4 {
                Some(ip) => ip.offset,
                None => {
                    // Claimed IPv4 but failed structural validation.
                    self.stats.bad_ip_header += 1;
                    return Verdict::Drop;
                }
            };
            let ip = match Ipv4Packet::new_checked(&packet[ip_off..]) {
                Ok(ip) => ip,
                Err(_) => {
                    self.stats.bad_ip_header += 1;
                    return Verdict::Drop;
                }
            };
            if self.policy.check_ip_checksum && !ip.verify_checksum() {
                self.stats.bad_ip_header += 1;
                return Verdict::Drop;
            }
            if self.policy.drop_zero_ttl && ip.ttl() == 0 {
                self.stats.zero_ttl += 1;
                return Verdict::Drop;
            }
            if self.policy.drop_ip_options && ip.has_options() {
                self.stats.ip_options += 1;
                return Verdict::Drop;
            }
            if self.policy.drop_tiny_fragments && ip.frag_offset() == 1 {
                self.stats.tiny_fragment += 1;
                return Verdict::Drop;
            }
            if self.policy.drop_private_from_optical
                && ctx.direction == flexsfp_ppe::Direction::OpticalToEdge
                && is_rfc1918(ip.src())
            {
                self.stats.spoofed_private += 1;
                return Verdict::Drop;
            }
        }
        self.stats.passed += 1;
        Verdict::Forward
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // Pure combinational validation: no tables at all.
        ResourceManifest::new(3_900, 4_300, 10, 0)
    }

    fn pipeline_depth(&self) -> u32 {
        1
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            TableOp::ReadCounter { index } => {
                let packets = match index {
                    0 => self.stats.passed,
                    1 => self.stats.dropped(),
                    2 => self.stats.bad_ip_header,
                    3 => self.stats.ip_options,
                    4 => self.stats.spoofed_private,
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
    use flexsfp_wire::{IpProtocol, MacAddr};

    fn clean_frame(src: u32) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            0x08080808,
            1000,
            2000,
            b"ok",
        )
    }

    #[test]
    fn clean_traffic_passes() {
        let mut s = Sanitizer::default();
        let mut pkt = clean_frame(0x2d2d2d2d);
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(s.stats.passed, 1);
        assert_eq!(s.stats.dropped(), 0);
    }

    #[test]
    fn corrupted_checksum_dropped() {
        let mut s = Sanitizer::default();
        let mut pkt = clean_frame(0x2d2d2d2d);
        pkt[14 + 10] ^= 0xff; // flip checksum bits
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(s.stats.bad_ip_header, 1);
    }

    #[test]
    fn truncated_ip_dropped() {
        let mut s = Sanitizer::default();
        // EtherType says IPv4 but only 6 bytes follow.
        let mut pkt = PacketBuilder::ethernet(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            EtherType::Ipv4,
            &[0x45, 0, 0, 99, 0, 0],
        );
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(s.stats.bad_ip_header, 1);
    }

    #[test]
    fn ip_options_dropped() {
        let mut s = Sanitizer::default();
        // Build a 24-byte header (IHL=6) with a NOP-padded options word.
        let payload = b"data";
        let total = 24 + payload.len();
        let mut ip = vec![0u8; total];
        ip[0] = 0x46;
        ip[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        ip[8] = 64;
        ip[9] = IpProtocol::Udp.to_u8();
        ip[20] = 0x01; // NOP options
        ip[21] = 0x01;
        ip[22] = 0x01;
        ip[23] = 0x00; // EOL
        let c = flexsfp_wire::checksum::checksum(&ip[..24]);
        ip[10..12].copy_from_slice(&c.to_be_bytes());
        ip[24..].copy_from_slice(payload);
        let mut pkt =
            PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4, &ip);
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(s.stats.ip_options, 1);
        // With the policy off, it passes.
        let mut lax = Sanitizer::new(SanitizerPolicy {
            drop_ip_options: false,
            ..SanitizerPolicy::default()
        });
        let mut pkt2 =
            PacketBuilder::ethernet(MacAddr([1; 6]), MacAddr([2; 6]), EtherType::Ipv4, &ip);
        assert_eq!(
            lax.process(&ProcessContext::ingress(), &mut pkt2),
            Verdict::Forward
        );
    }

    #[test]
    fn tiny_fragment_dropped() {
        let mut s = Sanitizer::default();
        let mut pkt = clean_frame(0x2d2d2d2d);
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut pkt[14..]);
            ip.set_fragment(false, true, 1);
            ip.fill_checksum();
        }
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(s.stats.tiny_fragment, 1);
    }

    #[test]
    fn private_source_from_optical_dropped() {
        let mut s = Sanitizer::default();
        for src in [0x0a010101u32, 0xac100101, 0xc0a80101] {
            let mut pkt = clean_frame(src);
            assert_eq!(
                s.process(&ProcessContext::ingress(), &mut pkt),
                Verdict::Drop,
                "{src:08x}"
            );
        }
        assert_eq!(s.stats.spoofed_private, 3);
        // The same sources are fine from the edge (that's where they
        // legitimately live).
        let mut pkt = clean_frame(0x0a010101);
        assert_eq!(
            s.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
    }

    #[test]
    fn zero_ttl_dropped() {
        let mut s = Sanitizer::default();
        let mut pkt = clean_frame(0x2d2d2d2d);
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut pkt[14..]);
            ip.set_ttl(0);
            ip.fill_checksum();
        }
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(s.stats.zero_ttl, 1);
    }

    #[test]
    fn runt_frames_dropped() {
        let mut s = Sanitizer::default();
        let mut runt = vec![0u8; 8];
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut runt),
            Verdict::Drop
        );
        assert_eq!(s.stats.runt, 1);
    }

    #[test]
    fn non_ip_passes() {
        let mut s = Sanitizer::default();
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            s.process(&ProcessContext::ingress(), &mut arp),
            Verdict::Forward
        );
    }

    #[test]
    fn counters_via_control_plane() {
        let mut s = Sanitizer::default();
        let mut pkt = clean_frame(0x0a000001);
        s.process(&ProcessContext::ingress(), &mut pkt);
        assert_eq!(
            s.control_op(&TableOp::ReadCounter { index: 4 }),
            TableOpResult::Counter {
                packets: 1,
                bytes: 0
            }
        );
    }
}
