//! Per-source rate limiting (§3): "rate-limiting traffic from selected
//! sources", Nimble-style, enforced before traffic ever reaches the
//! switch.
//!
//! Each configured source prefix owns a token bucket. Packets from
//! unconfigured sources follow the default policy (forward, or a shared
//! default bucket).

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::match_kinds::LpmTable;
use flexsfp_ppe::meter::{Color, TokenBucket};
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// Counter-style statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LimiterStats {
    /// Packets passed (green).
    pub passed: u64,
    /// Packets dropped (red).
    pub dropped: u64,
    /// Packets from sources with no limit configured.
    pub unlimited: u64,
}

/// The per-source rate limiter application.
pub struct PerSourceRateLimiter {
    // prefix -> bucket index
    classifier: LpmTable<u32>,
    buckets: Vec<TokenBucket>,
    /// Statistics.
    stats: LimiterStats,
    parser: Parser,
}

impl Default for PerSourceRateLimiter {
    fn default() -> Self {
        Self::new()
    }
}

impl PerSourceRateLimiter {
    /// An empty limiter (everything unlimited until configured).
    pub fn new() -> PerSourceRateLimiter {
        PerSourceRateLimiter {
            classifier: LpmTable::new(),
            buckets: Vec::new(),
            stats: LimiterStats::default(),
            parser: Parser,
        }
    }

    /// Limit `prefix/len` to `rate_bps` with `burst_bytes` of burst.
    /// Returns the bucket index.
    pub fn add_limit(&mut self, prefix: u32, len: u8, rate_bps: u64, burst_bytes: u64) -> usize {
        let idx = self.buckets.len();
        self.buckets.push(TokenBucket::new(rate_bps, burst_bytes));
        self.classifier.insert(prefix, len, idx as u32);
        idx
    }
}

impl PacketProcessor for PerSourceRateLimiter {
    fn name(&self) -> &str {
        "rate-limiter"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        let Some(ip) = parsed.ipv4 else {
            self.stats.unlimited += 1;
            return Verdict::Forward;
        };
        let Some((_len, bucket_idx)) = self.classifier.lookup(ip.src) else {
            self.stats.unlimited += 1;
            return Verdict::Forward;
        };
        match self.buckets[bucket_idx as usize].meter(packet.len(), ctx.timestamp_ns) {
            Color::Green => {
                self.stats.passed += 1;
                Verdict::Forward
            }
            Color::Red => {
                self.stats.dropped += 1;
                Verdict::Drop
            }
        }
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // LPM classifier + one credit register pair per bucket.
        ResourceManifest::new(
            4_600 + 40 * self.buckets.len() as u64,
            5_200 + 96 * self.buckets.len() as u64,
            16 + self.buckets.len() as u64 / 4,
            2,
        )
    }

    fn pipeline_depth(&self) -> u32 {
        2
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // key = prefix(4) | len(1); value = rate_bps(8) | burst(8)
            TableOp::Insert {
                table: 0,
                key,
                value,
            } => {
                if key.len() != 5 || value.len() != 16 {
                    return TableOpResult::BadEncoding;
                }
                let prefix = u32::from_be_bytes(key[0..4].try_into().unwrap());
                let len = key[4];
                if len > 32 {
                    return TableOpResult::BadEncoding;
                }
                let rate = u64::from_be_bytes(value[0..8].try_into().unwrap());
                let burst = u64::from_be_bytes(value[8..16].try_into().unwrap());
                if rate < 8 || burst == 0 {
                    return TableOpResult::BadEncoding;
                }
                self.add_limit(prefix, len, rate, burst);
                TableOpResult::Ok
            }
            TableOp::ReadCounter { index } => match index {
                0 => TableOpResult::Counter {
                    packets: self.stats.passed,
                    bytes: 0,
                },
                1 => TableOpResult::Counter {
                    packets: self.stats.dropped,
                    bytes: 0,
                },
                _ => TableOpResult::NotFound,
            },
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    fn frame(src: u32, len: usize) -> Vec<u8> {
        let mut f = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            0x08080808,
            1,
            2,
            &vec![0u8; len.saturating_sub(42)],
        );
        f.truncate(len.max(60));
        f
    }

    #[test]
    fn limited_source_is_throttled() {
        let mut rl = PerSourceRateLimiter::new();
        // 8 Mb/s = 1 MB/s, 5 kB burst on 10.0.0.0/8.
        rl.add_limit(0x0a000000, 8, 8_000_000, 5_000);
        let mut passed = 0;
        let mut dropped = 0;
        // Offer 100 × 1000 B instantly: burst allows ~5.
        for _ in 0..100 {
            let mut pkt = frame(0x0a010203, 1000);
            match rl.process(&ProcessContext::egress().at(0), &mut pkt) {
                Verdict::Forward => passed += 1,
                Verdict::Drop => dropped += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(passed, 5);
        assert_eq!(dropped, 95);
        assert_eq!(rl.stats.passed, 5);
    }

    #[test]
    fn rate_recovers_over_time() {
        let mut rl = PerSourceRateLimiter::new();
        rl.add_limit(0x0a000000, 8, 8_000_000, 1_000);
        let mut pkt = frame(0x0a000001, 1000);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Forward
        );
        let mut pkt = frame(0x0a000001, 1000);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(1), &mut pkt),
            Verdict::Drop
        );
        // After 1 ms, 1000 bytes of credit at 1 MB/s.
        let mut pkt = frame(0x0a000001, 1000);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(1_000_001), &mut pkt),
            Verdict::Forward
        );
    }

    #[test]
    fn unconfigured_sources_unlimited() {
        let mut rl = PerSourceRateLimiter::new();
        rl.add_limit(0x0a000000, 8, 8_000, 100);
        for _ in 0..50 {
            let mut pkt = frame(0xc0a80001, 1000);
            assert_eq!(
                rl.process(&ProcessContext::egress().at(0), &mut pkt),
                Verdict::Forward
            );
        }
        assert_eq!(rl.stats.unlimited, 50);
        assert_eq!(rl.stats.dropped, 0);
    }

    #[test]
    fn longest_prefix_limit_wins() {
        let mut rl = PerSourceRateLimiter::new();
        // Broad generous limit, narrow tight limit.
        rl.add_limit(0x0a000000, 8, 80_000_000, 100_000);
        rl.add_limit(0x0a0a0000, 16, 8_000, 60); // one 60B packet only
        let mut pkt = frame(0x0a0a0001, 60);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Forward
        );
        let mut pkt = frame(0x0a0a0001, 60);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Drop
        );
        // A sibling under the /8 is unaffected by the /16's exhaustion.
        let mut pkt = frame(0x0a0b0001, 60);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Forward
        );
    }

    #[test]
    fn control_plane_configuration() {
        let mut rl = PerSourceRateLimiter::new();
        let mut key = 0x0a000000u32.to_be_bytes().to_vec();
        key.push(8);
        let mut value = 8_000_000u64.to_be_bytes().to_vec();
        value.extend_from_slice(&1_000u64.to_be_bytes());
        assert_eq!(
            rl.control_op(&TableOp::Insert {
                table: 0,
                key,
                value
            }),
            TableOpResult::Ok
        );
        assert_eq!(rl.buckets.len(), 1);
        let mut pkt = frame(0x0a000001, 1000);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Forward
        );
        let mut pkt = frame(0x0a000001, 1000);
        assert_eq!(
            rl.process(&ProcessContext::egress().at(0), &mut pkt),
            Verdict::Drop
        );
        // Stats via counters.
        assert_eq!(
            rl.control_op(&TableOp::ReadCounter { index: 1 }),
            TableOpResult::Counter {
                packets: 1,
                bytes: 0
            }
        );
    }

    #[test]
    fn bad_configs_rejected() {
        let mut rl = PerSourceRateLimiter::new();
        assert_eq!(
            rl.control_op(&TableOp::Insert {
                table: 0,
                key: vec![1, 2, 3],
                value: vec![0; 16]
            }),
            TableOpResult::BadEncoding
        );
        let mut key = 0u32.to_be_bytes().to_vec();
        key.push(40); // bad prefix length
        assert_eq!(
            rl.control_op(&TableOp::Insert {
                table: 0,
                key,
                value: vec![0; 16]
            }),
            TableOpResult::BadEncoding
        );
    }
}
