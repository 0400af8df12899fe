//! DNS and DoH filtering (P4DDPI-style, §2.1/§3).
//!
//! Two mechanisms the telecom retrofit scenario needs:
//!
//! 1. **Plain-DNS qname filtering** — UDP/53 queries are shallow-parsed
//!    in the dataplane; queries for blocked domains (or their
//!    subdomains) are dropped.
//! 2. **DoH resolver blocking** — DNS-over-HTTPS hides qnames inside
//!    TLS, so enforcement falls back to blocking TCP/443 to known DoH
//!    resolver addresses (the operational state of the art).

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::parser::{Parser, L4};
use flexsfp_ppe::tables::HashTable;
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp_wire::dns::DnsHeader;

/// Filter statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FilterStats {
    /// DNS queries inspected.
    pub inspected: u64,
    /// Queries dropped on a blocklist hit.
    pub blocked_dns: u64,
    /// TCP/443 packets to blocked DoH resolvers dropped.
    pub blocked_doh: u64,
}

/// Blocked domains the qname matcher is synthesised for.
const DOMAIN_CAPACITY: usize = 256;
/// DoH resolver addresses the exact-match table holds.
const DOH_CAPACITY: usize = 1_024;

/// The DNS/DoH filter application, sized for 256 blocked domains and
/// 1 024 DoH resolvers whatever it holds.
pub struct DnsFilter {
    blocked_domains: Vec<String>,
    doh_resolvers: HashTable<u32, u32>,
    /// Statistics.
    stats: FilterStats,
    parser: Parser,
}

impl Default for DnsFilter {
    fn default() -> Self {
        Self::new()
    }
}

impl DnsFilter {
    /// An empty filter.
    pub fn new() -> DnsFilter {
        DnsFilter {
            blocked_domains: Vec::new(),
            doh_resolvers: HashTable::with_capacity(DOH_CAPACITY),
            stats: FilterStats::default(),
            parser: Parser,
        }
    }

    /// Block `domain` and all its subdomains; `false` when all 256
    /// slots hold other domains.
    pub fn block_domain(&mut self, domain: &str) -> bool {
        let domain = domain.to_ascii_lowercase();
        if self.blocked_domains.contains(&domain) {
            return true;
        }
        if self.blocked_domains.len() == DOMAIN_CAPACITY {
            return false;
        }
        self.blocked_domains.push(domain);
        true
    }

    /// Block TCP/443 to a known DoH resolver address; `false` when the
    /// table has no room for it.
    pub fn block_doh_resolver(&mut self, addr: u32) -> bool {
        self.doh_resolvers.insert(addr, 1).is_ok()
    }

    /// `qname` is a blocked domain or one of its subdomains.
    fn is_blocked_name(&self, qname: &str) -> bool {
        self.blocked_domains.iter().any(|d| {
            qname
                .as_bytes()
                .strip_suffix(d.as_bytes())
                .is_some_and(|rest| rest.is_empty() || rest.ends_with(b"."))
        })
    }
}

impl PacketProcessor for DnsFilter {
    fn name(&self) -> &str {
        "dns-filter"
    }

    fn process(&mut self, _ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        let Some(ip) = parsed.ipv4 else {
            return Verdict::Forward;
        };
        match parsed.l4 {
            L4::Udp { dst_port: 53, .. } => {
                self.stats.inspected += 1;
                let Some(l4_off) = parsed.l4_offset else {
                    return Verdict::Forward;
                };
                let dns_bytes = &packet[l4_off + flexsfp_wire::udp::HEADER_LEN..];
                let question = DnsHeader::new_checked(dns_bytes)
                    .ok()
                    .filter(|h| !h.is_response())
                    .and_then(|h| h.first_question().ok());
                match question {
                    Some(q) => {
                        if self.is_blocked_name(&q.qname) {
                            self.stats.blocked_dns += 1;
                            return Verdict::Drop;
                        }
                        Verdict::Forward
                    }
                    // Malformed DNS is not ours to judge: it passes.
                    None => Verdict::Forward,
                }
            }
            L4::Tcp { dst_port: 443, .. } => {
                if self.doh_resolvers.lookup(&ip.dst).is_some() {
                    self.stats.blocked_doh += 1;
                    Verdict::Drop
                } else {
                    Verdict::Forward
                }
            }
            _ => Verdict::Forward,
        }
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // The qname matcher is the expensive part: a label-walking FSM
        // plus a suffix-comparison table per domain slot.
        const SLOTS: u64 = DOMAIN_CAPACITY as u64;
        ResourceManifest::new(7_200 + 220 * SLOTS, 8_500 + 180 * SLOTS, 40, 6)
    }

    fn pipeline_depth(&self) -> u32 {
        3 // parse → qname walk → verdict
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Table 0: blocked domains (key = UTF-8 domain).
            TableOp::Insert { table: 0, key, .. } => {
                let Ok(domain) = std::str::from_utf8(key) else {
                    return TableOpResult::BadEncoding;
                };
                crate::installed(self.block_domain(domain))
            }
            // Table 1: DoH resolver addresses.
            TableOp::Insert { table: 1, key, .. } => {
                let Ok(bytes) = <[u8; 4]>::try_from(&key[..]) else {
                    return TableOpResult::BadEncoding;
                };
                crate::installed(self.block_doh_resolver(u32::from_be_bytes(bytes)))
            }
            TableOp::ReadCounter { index } => {
                let packets = match index {
                    0 => self.stats.inspected,
                    1 => self.stats.blocked_dns,
                    2 => self.stats.blocked_doh,
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
    use flexsfp_wire::dns;
    use flexsfp_wire::MacAddr;

    const CLIENT: u32 = 0xc0a80010;
    const RESOLVER: u32 = 0x08080808;
    const DOH: u32 = 0x01010101; // 1.1.1.1

    fn dns_query(name: &str) -> Vec<u8> {
        let q = dns::build_query(0x1234, name, 1);
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            RESOLVER,
            40_000,
            53,
            &q,
        )
    }

    fn filter() -> DnsFilter {
        let mut f = DnsFilter::new();
        f.block_domain("ads.example");
        f.block_doh_resolver(DOH);
        f
    }

    #[test]
    fn blocked_domain_dropped() {
        let mut f = filter();
        let mut q = dns_query("ads.example");
        assert_eq!(f.process(&ProcessContext::egress(), &mut q), Verdict::Drop);
        assert_eq!(f.stats.blocked_dns, 1);
    }

    #[test]
    fn subdomain_of_blocked_dropped() {
        let mut f = filter();
        let mut q = dns_query("tracker.ads.example");
        assert_eq!(f.process(&ProcessContext::egress(), &mut q), Verdict::Drop);
    }

    #[test]
    fn unrelated_domains_pass() {
        let mut f = filter();
        for name in ["example.com", "notads.example.com", "ads.example.org"] {
            let mut q = dns_query(name);
            assert_eq!(
                f.process(&ProcessContext::egress(), &mut q),
                Verdict::Forward,
                "{name}"
            );
        }
        assert_eq!(f.stats.blocked_dns, 0);
        assert_eq!(f.stats.inspected, 3);
    }

    #[test]
    fn case_insensitive_matching() {
        let mut f = filter();
        let mut q = dns_query("ADS.Example");
        assert_eq!(f.process(&ProcessContext::egress(), &mut q), Verdict::Drop);
    }

    #[test]
    fn doh_resolver_blocked_on_443() {
        let mut f = filter();
        let mut tls = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            DOH,
            50_000,
            443,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut tls),
            Verdict::Drop
        );
        assert_eq!(f.stats.blocked_doh, 1);
        // Ordinary HTTPS to another address passes.
        let mut ok = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            0x5db8d822,
            50_000,
            443,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut ok),
            Verdict::Forward
        );
    }

    #[test]
    fn dns_responses_not_filtered() {
        let mut f = filter();
        // A response (QR bit set) for a blocked name still passes —
        // we filter queries, not answers arriving from the resolver.
        let mut resp_payload = dns::build_query(1, "ads.example", 1);
        resp_payload[2] |= 0x80;
        let mut frame = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            RESOLVER,
            CLIENT,
            40_000,
            53,
            &resp_payload,
        );
        assert_eq!(
            f.process(&ProcessContext::ingress(), &mut frame),
            Verdict::Forward
        );
    }

    #[test]
    fn malformed_dns_is_forwarded() {
        let mut f = filter();
        let mut junk = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            RESOLVER,
            40_000,
            53,
            &[0xff; 5], // shorter than a DNS header
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut junk),
            Verdict::Forward
        );
    }

    #[test]
    fn control_plane_blocklist_management() {
        let mut f = DnsFilter::new();
        assert_eq!(
            f.control_op(&TableOp::Insert {
                table: 0,
                key: b"doh.example".to_vec(),
                value: vec![]
            }),
            TableOpResult::Ok
        );
        let mut q = dns_query("doh.example");
        assert_eq!(f.process(&ProcessContext::egress(), &mut q), Verdict::Drop);
        assert_eq!(
            f.control_op(&TableOp::Insert {
                table: 1,
                key: DOH.to_be_bytes().to_vec(),
                value: vec![]
            }),
            TableOpResult::Ok
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
    fn a_suffix_matches_only_at_a_label_boundary() {
        let mut f = DnsFilter::new();
        f.block_domain("example.com");
        for (name, verdict) in [
            ("example.com", Verdict::Drop),
            ("www.example.com", Verdict::Drop),
            ("notexample.com", Verdict::Forward),
            ("example.com.evil", Verdict::Forward),
            ("xample.com", Verdict::Forward),
        ] {
            let mut q = dns_query(name);
            assert_eq!(
                f.process(&ProcessContext::egress(), &mut q),
                verdict,
                "{name}"
            );
        }
    }

    fn insert(table: u8, key: impl Into<Vec<u8>>) -> TableOp {
        TableOp::Insert {
            table,
            key: key.into(),
            value: vec![],
        }
    }

    #[test]
    fn a_domain_takes_one_slot_and_the_slots_are_fixed() {
        let mut f = DnsFilter::new();
        let cost = f.resource_manifest();
        for i in 0..DOMAIN_CAPACITY {
            assert_eq!(
                f.control_op(&insert(0, format!("d{i}.example"))),
                TableOpResult::Ok
            );
        }
        // Blocking a blocked domain again takes no slot, even when full.
        assert_eq!(f.control_op(&insert(0, "D0.Example")), TableOpResult::Ok);
        assert_eq!(f.blocked_domains.len(), DOMAIN_CAPACITY);
        assert_eq!(
            f.control_op(&insert(0, "one-more.example")),
            TableOpResult::TableFull
        );
        let mut q = dns_query("one-more.example");
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut q),
            Verdict::Forward
        );
        assert_eq!(f.resource_manifest(), cost);
    }

    #[test]
    fn a_refused_doh_resolver_answers_table_full() {
        let mut f = DnsFilter::new();
        let refused = (0..=DOH_CAPACITY as u32)
            .find(|&addr| f.control_op(&insert(1, addr.to_be_bytes())) != TableOpResult::Ok)
            .expect("a full table refuses");
        assert_eq!(
            f.control_op(&insert(1, refused.to_be_bytes())),
            TableOpResult::TableFull
        );
        let mut tls = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            refused,
            50_000,
            443,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut tls),
            Verdict::Forward
        );
    }

    #[test]
    fn non_dns_udp_not_inspected() {
        let mut f = filter();
        let mut ntp = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            CLIENT,
            RESOLVER,
            123,
            123,
            &[0u8; 48],
        );
        assert_eq!(
            f.process(&ProcessContext::egress(), &mut ntp),
            Verdict::Forward
        );
        assert_eq!(f.stats.inspected, 0);
    }
}
