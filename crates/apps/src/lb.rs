//! A Katran-style L4 load balancer at the optical boundary (§3).
//!
//! "Load balancing is another natural fit, such as hashing over packet
//! headers to distribute flows across uplinks, similar to Katran, but
//! executed directly at the optical boundary." VIP traffic is steered to
//! backends with a Maglev-style consistent-hash table (flat lookup
//! array — exactly the structure an LSRAM holds), so backend changes
//! disturb a minimal fraction of flows. Steering rewrites the
//! destination address (DNAT-style, as Katran's IPIP-encap equivalent).

use flexsfp_fabric::hash::{crc32, toeplitz_v4_4tuple, RSS_DEFAULT_KEY};
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::action::{Action, ActionEngine, ActionOutcome};
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// Size of the Maglev lookup table (a prime, per the Maglev paper).
pub(crate) const TABLE_SIZE: usize = 65_537;
/// Backends the 8-bit lookup entries can index.
pub(crate) const MAX_BACKENDS: usize = 256;

/// Counter indices.
pub mod counters {
    /// VIP packets steered.
    pub(crate) const STEERED: usize = 0;
    /// Non-VIP packets passed through.
    pub(crate) const PASSED: usize = 1;
    /// VIP packets dropped because no backend is healthy.
    pub(crate) const NO_BACKEND: usize = 2;
    /// Frames the parser refused (dropped).
    pub(crate) const UNPARSED: usize = 3;
    /// Counters in the bank.
    pub(crate) const LEN: usize = 4;
}

/// Build a Maglev lookup table mapping `TABLE_SIZE` slots onto the given
/// backends (by index). Returns an empty Vec when `backends` is empty.
pub(crate) fn maglev_table(backends: &[u32], table_size: usize) -> Vec<u32> {
    if backends.is_empty() {
        return Vec::new();
    }
    let m = table_size as u64;
    // Per-backend permutation parameters from two hashes.
    let params: Vec<(u64, u64)> = backends
        .iter()
        .map(|b| {
            let h1 = u64::from(crc32(&b.to_be_bytes()));
            let h2 = u64::from(crc32(&(b ^ 0xffff_ffff).to_be_bytes()));
            (h1 % m, h2 % (m - 1) + 1)
        })
        .collect();
    let mut next = vec![0u64; backends.len()];
    let mut entry = vec![u32::MAX; table_size];
    let mut filled = 0usize;
    while filled < table_size {
        for (i, &(offset, skip)) in params.iter().enumerate() {
            // Find this backend's next preferred empty slot.
            loop {
                let c = ((offset + next[i] * skip) % m) as usize;
                next[i] += 1;
                if entry[c] == u32::MAX {
                    entry[c] = i as u32;
                    filled += 1;
                    break;
                }
            }
            if filled == table_size {
                break;
            }
        }
    }
    entry
}

/// The L4 load balancer application.
pub struct L4LoadBalancer {
    /// The virtual IP being balanced.
    pub vip: u32,
    /// Service port on the VIP (0 = any port).
    pub vip_port: u16,
    backends: Vec<u32>,
    lookup: Vec<u32>,
    engine: ActionEngine,
    parser: Parser,
}

impl L4LoadBalancer {
    /// A balancer for `vip:vip_port` over `backends`. Panics with more
    /// than 256 of them.
    pub fn new(vip: u32, vip_port: u16, backends: Vec<u32>) -> L4LoadBalancer {
        assert!(
            backends.len() <= MAX_BACKENDS,
            "more than {MAX_BACKENDS} backends"
        );
        let lookup = maglev_table(&backends, TABLE_SIZE);
        L4LoadBalancer {
            vip,
            vip_port,
            backends,
            lookup,
            engine: ActionEngine::new(counters::LEN),
            parser: Parser,
        }
    }

    /// Rebuild the Maglev table over the backend set as it now stands.
    fn rebuild(&mut self) {
        self.lookup = maglev_table(&self.backends, TABLE_SIZE);
    }

    /// The backend a given 4-tuple steers to (diagnostics / tests).
    pub(crate) fn backend_for(&self, src: u32, dst: u32, sport: u16, dport: u16) -> Option<u32> {
        if self.lookup.is_empty() {
            return None;
        }
        let h = toeplitz_v4_4tuple(&RSS_DEFAULT_KEY, src, dst, sport, dport);
        let slot = (h as usize) % self.lookup.len();
        self.backends.get(self.lookup[slot] as usize).copied()
    }
}

impl PacketProcessor for L4LoadBalancer {
    fn name(&self) -> &str {
        "l4-lb"
    }

    fn process(&mut self, _ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            self.engine.counters.count(counters::UNPARSED, packet.len());
            return Verdict::Drop;
        };
        let Some((src, dst, _proto, sport, dport)) = parsed.five_tuple() else {
            self.engine.counters.count(counters::PASSED, packet.len());
            return Verdict::Forward;
        };
        if dst != self.vip || (self.vip_port != 0 && dport != self.vip_port) {
            self.engine.counters.count(counters::PASSED, packet.len());
            return Verdict::Forward;
        }
        let Some(backend) = self.backend_for(src, dst, sport, dport) else {
            self.engine
                .counters
                .count(counters::NO_BACKEND, packet.len());
            return Verdict::Drop;
        };
        match self
            .engine
            .apply(Action::SetIpv4Dst(backend), packet, &parsed, None)
        {
            ActionOutcome::Continue { .. } => {}
            ActionOutcome::Final(v) => return v,
        }
        self.engine.counters.count(counters::STEERED, packet.len());
        Verdict::Forward
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // Toeplitz tree + the 64k-entry lookup array in LSRAM
        // (65 537 × 8 b ≈ 512 kb ≈ 26 blocks).
        ResourceManifest::new(6_800, 7_900, 30, 26)
    }

    fn pipeline_depth(&self) -> u32 {
        2
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Insert/delete backends by 4-byte address; key unused.
            TableOp::Insert {
                table: 0, value, ..
            } => {
                let Ok(bytes) = <[u8; 4]>::try_from(&value[..]) else {
                    return TableOpResult::BadEncoding;
                };
                let b = u32::from_be_bytes(bytes);
                if self.backends.contains(&b) {
                    return TableOpResult::Ok;
                }
                if self.backends.len() == MAX_BACKENDS {
                    return TableOpResult::TableFull;
                }
                self.backends.push(b);
                self.rebuild();
                TableOpResult::Ok
            }
            TableOp::Delete { table: 0, key } => {
                let Ok(bytes) = <[u8; 4]>::try_from(&key[..]) else {
                    return TableOpResult::BadEncoding;
                };
                let b = u32::from_be_bytes(bytes);
                let before = self.backends.len();
                self.backends.retain(|x| *x != b);
                if self.backends.len() == before {
                    return TableOpResult::NotFound;
                }
                self.rebuild();
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

    const VIP: u32 = 0x0a636363;
    const B1: u32 = 0x0a000001;
    const B2: u32 = 0x0a000002;
    const B3: u32 = 0x0a000003;

    fn lb() -> L4LoadBalancer {
        L4LoadBalancer::new(VIP, 80, vec![B1, B2, B3])
    }

    fn vip_frame(src: u32, sport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            VIP,
            sport,
            80,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        )
    }

    #[test]
    fn vip_traffic_steers_to_a_backend() {
        let mut lb = lb();
        let mut pkt = vip_frame(0xc0a80001, 5000);
        assert_eq!(
            lb.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert!([B1, B2, B3].contains(&ip.dst()));
        assert!(ip.verify_checksum());
        assert_eq!(crate::packets(&lb.engine.counters, counters::STEERED), 1);
    }

    #[test]
    fn same_flow_always_same_backend() {
        let mut lb = lb();
        let mut first = None;
        for _ in 0..10 {
            let mut pkt = vip_frame(0xc0a80001, 5000);
            lb.process(&ProcessContext::egress(), &mut pkt);
            let dst = Ipv4Packet::new_checked(&pkt[14..]).unwrap().dst();
            match first {
                None => first = Some(dst),
                Some(d) => assert_eq!(dst, d),
            }
        }
    }

    #[test]
    fn non_vip_traffic_passes() {
        let mut lb = lb();
        let mut pkt = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            0x08080808,
            5000,
            80,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        );
        let before = pkt.clone();
        assert_eq!(
            lb.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
        assert_eq!(crate::packets(&lb.engine.counters, counters::PASSED), 1);
    }

    #[test]
    fn wrong_port_passes() {
        let mut lb = lb();
        let mut pkt = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            VIP,
            5000,
            8080,
            0,
            flexsfp_wire::tcp::TcpFlags::syn_only(),
            &[],
        );
        let before = pkt.clone();
        lb.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(pkt, before);
    }

    #[test]
    fn no_backends_drops_vip_traffic() {
        let mut lb = L4LoadBalancer::new(VIP, 80, vec![]);
        let mut pkt = vip_frame(1, 2);
        assert_eq!(
            lb.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(crate::packets(&lb.engine.counters, counters::NO_BACKEND), 1);
    }

    #[test]
    fn maglev_balance_is_even() {
        let table = maglev_table(&[B1, B2, B3], TABLE_SIZE);
        let mut counts = [0usize; 3];
        for &e in &table {
            counts[e as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        // Maglev guarantees near-perfect balance.
        assert!(max / min < 1.02, "imbalance: {counts:?}");
    }

    #[test]
    fn maglev_minimal_disruption_on_backend_loss() {
        let before = maglev_table(&[B1, B2, B3], TABLE_SIZE);
        let after = maglev_table(&[B1, B3], TABLE_SIZE);
        // Slots that pointed to the surviving backends should mostly
        // stay put: only ~1/3 of slots (B2's) must move.
        let mut moved_surviving = 0usize;
        let mut surviving = 0usize;
        for (b, a) in before.iter().zip(&after) {
            let before_backend = [B1, B2, B3][*b as usize];
            let after_backend = [B1, B3][*a as usize];
            if before_backend != B2 {
                surviving += 1;
                if before_backend != after_backend {
                    moved_surviving += 1;
                }
            }
        }
        let disruption = moved_surviving as f64 / surviving as f64;
        assert!(disruption < 0.25, "disruption {disruption:.3}");
    }

    #[test]
    fn flow_distribution_across_backends() {
        let lb = lb();
        let mut counts = std::collections::HashMap::new();
        for i in 0..3000u32 {
            let b = lb
                .backend_for(0xc0a80000 + i, VIP, 1024 + (i % 1000) as u16, 80)
                .unwrap();
            *counts.entry(b).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
        for (_, c) in counts {
            assert!(c > 700, "uneven flow split: {c}");
        }
    }

    #[test]
    fn a_257th_backend_is_refused() {
        let mut lb = L4LoadBalancer::new(VIP, 80, (1..=MAX_BACKENDS as u32).collect());
        let insert = |b: u32| TableOp::Insert {
            table: 0,
            key: vec![],
            value: b.to_be_bytes().to_vec(),
        };
        // A backend already present is no new entry.
        assert_eq!(lb.control_op(&insert(1)), TableOpResult::Ok);
        assert_eq!(lb.control_op(&insert(0)), TableOpResult::TableFull);
        assert_eq!(lb.backends.len(), MAX_BACKENDS);
    }

    #[test]
    #[should_panic(expected = "more than 256 backends")]
    fn a_balancer_is_built_over_at_most_256_backends() {
        L4LoadBalancer::new(VIP, 80, (0..=MAX_BACKENDS as u32).collect());
    }

    #[test]
    fn control_plane_backend_management() {
        let mut lb = L4LoadBalancer::new(VIP, 80, vec![B1]);
        assert_eq!(
            lb.control_op(&TableOp::Insert {
                table: 0,
                key: vec![],
                value: B2.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        assert_eq!(lb.backends, &[B1, B2]);
        assert_eq!(
            lb.control_op(&TableOp::Delete {
                table: 0,
                key: B1.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        assert_eq!(lb.backends, &[B2]);
        assert_eq!(
            lb.control_op(&TableOp::Delete {
                table: 0,
                key: B1.to_be_bytes().to_vec()
            }),
            TableOpResult::NotFound
        );
    }
}
