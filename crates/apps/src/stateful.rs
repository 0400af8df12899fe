//! Stateful in-line security: a SYN-flood guard built on the
//! FlowBlaze-style EFSM engine (§3: "programmable hardware platforms
//! like FlowBlaze and Domino have shown that even more advanced stateful
//! forwarding logic can be achieved at line rate using compact
//! match-action logic").
//!
//! Per-source EFSM: a source opening TCP connections accumulates a
//! pending-SYN credit that completed handshakes (ACKs) pay back; sources
//! whose deficit crosses a threshold are quarantined for a cooling-off
//! period, then given a clean slate. All state lives in a hardware hash
//! table; the transition rows are exactly the closed vocabulary the EFSM
//! engine synthesizes.

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::parser::{Parser, L4};
use flexsfp_ppe::state::{Condition, EfsmTable, PacketEvent, RegOp, Transition};
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// EFSM states.
const TRACKING: u16 = 0;
const QUARANTINED: u16 = 1;

/// Register assignment: r0 = pending-SYN deficit, r1 = quarantine
/// entry timestamp.
const R_DEFICIT: usize = 0;
const R_QUARANTINE_T: usize = 1;

const SYN: u8 = 0x02;
const ACK: u8 = 0x10;

/// Guard statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GuardStats {
    /// TCP packets inspected.
    pub inspected: u64,
    /// Packets dropped while a source was quarantined.
    pub dropped: u64,
    /// Non-TCP traffic passed through.
    pub passed_non_tcp: u64,
}

/// The SYN-flood guard application.
pub struct SynFloodGuard {
    efsm: EfsmTable<u32>,
    /// Statistics.
    stats: GuardStats,
    /// Deficit (SYNs minus ACKs) that triggers quarantine.
    pub threshold: u64,
    parser: Parser,
}

impl SynFloodGuard {
    /// A guard tracking `capacity` sources; quarantine after `threshold`
    /// unanswered SYNs, release after `quarantine_ns`.
    pub fn new(capacity: usize, threshold: u64, quarantine_ns: u64) -> SynFloodGuard {
        let transitions = vec![
            // Deficit crossed the threshold: quarantine the source.
            Transition {
                from: TRACKING,
                condition: Condition::RegGt(R_DEFICIT, threshold),
                to: QUARANTINED,
                ops: vec![RegOp::LoadTime(R_QUARANTINE_T)],
                verdict: Verdict::Drop,
            },
            // A SYN raises the deficit.
            Transition {
                from: TRACKING,
                condition: Condition::TcpFlagsSet(SYN),
                to: TRACKING,
                ops: vec![RegOp::Inc(R_DEFICIT)],
                verdict: Verdict::Forward,
            },
            // An ACK (handshake completion) pays one back.
            Transition {
                from: TRACKING,
                condition: Condition::TcpFlagsSet(ACK),
                to: TRACKING,
                ops: vec![RegOp::SubSat(R_DEFICIT, 1)],
                verdict: Verdict::Forward,
            },
            // Other TCP segments of tracked sources pass.
            Transition {
                from: TRACKING,
                condition: Condition::Always,
                to: TRACKING,
                ops: vec![],
                verdict: Verdict::Forward,
            },
            // Quarantine expiry: clean slate.
            Transition {
                from: QUARANTINED,
                condition: Condition::ElapsedGt(R_QUARANTINE_T, quarantine_ns),
                to: TRACKING,
                ops: vec![RegOp::Clear(R_DEFICIT)],
                verdict: Verdict::Forward,
            },
            // Still quarantined: drop everything.
            Transition {
                from: QUARANTINED,
                condition: Condition::Always,
                to: QUARANTINED,
                ops: vec![],
                verdict: Verdict::Drop,
            },
        ];
        SynFloodGuard {
            efsm: EfsmTable::new(capacity, transitions),
            stats: GuardStats::default(),
            threshold,
            parser: Parser,
        }
    }
}

impl PacketProcessor for SynFloodGuard {
    fn name(&self) -> &str {
        "syn-flood-guard"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        let (Some(ip), L4::Tcp { flags, .. }) = (parsed.ipv4, parsed.l4) else {
            self.stats.passed_non_tcp += 1;
            return Verdict::Forward;
        };
        self.stats.inspected += 1;
        let verdict = self.efsm.step(
            ip.src,
            &PacketEvent {
                len: packet.len() as u32,
                timestamp_ns: ctx.timestamp_ns,
                tcp_flags: flags,
            },
        );
        if verdict == Verdict::Drop {
            self.stats.dropped += 1;
        }
        verdict
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // EFSM engine (condition evaluators + register ALUs) + the
        // per-flow state table (32 b key + 16 b state + 4×64 b regs).
        ResourceManifest::new(6_200, 7_400, 32, 44)
    }

    fn pipeline_depth(&self) -> u32 {
        3 // parse → state lookup → transition/update
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Manual release of a source (key = 4-byte IP).
            TableOp::Delete { table: 0, key } => {
                let Ok(b) = <[u8; 4]>::try_from(&key[..]) else {
                    return TableOpResult::BadEncoding;
                };
                match self.efsm.evict(&u32::from_be_bytes(b)) {
                    Some(_) => TableOpResult::Ok,
                    None => TableOpResult::NotFound,
                }
            }
            TableOp::ReadCounter { index } => {
                let packets = match index {
                    0 => self.stats.inspected,
                    1 => self.stats.dropped,
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
    use flexsfp_wire::tcp::TcpFlags;
    use flexsfp_wire::MacAddr;

    const ATTACKER: u32 = 0x0bad0001;

    fn quarantined(g: &SynFloodGuard, src: u32) -> bool {
        g.efsm.peek(&src).is_some_and(|f| f.state == QUARANTINED)
    }
    const CLIENT: u32 = 0xc0a80001;
    const SERVER: u32 = 0x0a000050;

    fn tcp(src: u32, flags: TcpFlags, sport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            src,
            SERVER,
            sport,
            443,
            0,
            flags,
            &[],
        )
    }

    fn syn() -> TcpFlags {
        TcpFlags::syn_only()
    }

    fn ack() -> TcpFlags {
        TcpFlags {
            ack: true,
            ..Default::default()
        }
    }

    fn guard() -> SynFloodGuard {
        SynFloodGuard::new(1024, 10, 1_000_000)
    }

    #[test]
    fn normal_client_never_quarantined() {
        let mut g = guard();
        // 50 handshakes: SYN then ACK each time.
        for i in 0..50u64 {
            let mut s = tcp(CLIENT, syn(), 5000 + i as u16);
            assert_eq!(
                g.process(&ProcessContext::egress().at(i * 1000), &mut s),
                Verdict::Forward
            );
            let mut a = tcp(CLIENT, ack(), 5000 + i as u16);
            assert_eq!(
                g.process(&ProcessContext::egress().at(i * 1000 + 500), &mut a),
                Verdict::Forward
            );
        }
        assert!(!quarantined(&g, CLIENT));
        assert_eq!(g.stats.dropped, 0);
    }

    #[test]
    fn syn_flood_gets_quarantined_then_released() {
        let mut g = guard();
        let mut dropped_at = None;
        for i in 0..20u64 {
            let mut s = tcp(ATTACKER, syn(), 6000 + i as u16);
            if g.process(&ProcessContext::egress().at(i * 100), &mut s) == Verdict::Drop {
                dropped_at = Some(i);
                break;
            }
        }
        // Threshold 10: the 12th SYN (deficit 11 > 10) is dropped.
        assert_eq!(dropped_at, Some(11));
        assert!(quarantined(&g, ATTACKER));
        // Everything from the attacker drops during quarantine.
        let mut a = tcp(ATTACKER, ack(), 1);
        assert_eq!(
            g.process(&ProcessContext::egress().at(5_000), &mut a),
            Verdict::Drop
        );
        // After the cooling-off period the source gets a clean slate.
        let mut s = tcp(ATTACKER, syn(), 7000);
        assert_eq!(
            g.process(&ProcessContext::egress().at(2_100_000), &mut s),
            Verdict::Forward
        );
        assert!(!quarantined(&g, ATTACKER));
    }

    #[test]
    fn sources_are_isolated() {
        let mut g = guard();
        for i in 0..15u64 {
            let mut s = tcp(ATTACKER, syn(), 6000 + i as u16);
            let _ = g.process(&ProcessContext::egress().at(i * 100), &mut s);
        }
        assert!(quarantined(&g, ATTACKER));
        let mut s = tcp(CLIENT, syn(), 5000);
        assert_eq!(
            g.process(&ProcessContext::egress().at(2_000), &mut s),
            Verdict::Forward
        );
        assert!(g.efsm.peek(&CLIENT).is_some(), "client tracked");
    }

    #[test]
    fn non_tcp_unaffected() {
        let mut g = guard();
        let mut udp = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            ATTACKER,
            SERVER,
            1,
            53,
            b"q",
        );
        assert_eq!(
            g.process(&ProcessContext::egress(), &mut udp),
            Verdict::Forward
        );
        assert_eq!(g.stats.passed_non_tcp, 1);
        assert_eq!(g.stats.inspected, 0);
    }

    #[test]
    fn manual_release_via_control_plane() {
        let mut g = guard();
        for i in 0..15u64 {
            let mut s = tcp(ATTACKER, syn(), 6000 + i as u16);
            let _ = g.process(&ProcessContext::egress().at(i * 100), &mut s);
        }
        assert!(quarantined(&g, ATTACKER));
        assert_eq!(
            g.control_op(&TableOp::Delete {
                table: 0,
                key: ATTACKER.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        assert!(!quarantined(&g, ATTACKER));
        let mut s = tcp(ATTACKER, syn(), 9000);
        assert_eq!(
            g.process(&ProcessContext::egress().at(99_999), &mut s),
            Verdict::Forward
        );
    }

    #[test]
    fn counters_and_fit() {
        let mut g = guard();
        for i in 0..15u64 {
            let mut s = tcp(ATTACKER, syn(), 6000 + i as u16);
            let _ = g.process(&ProcessContext::egress().at(i * 100), &mut s);
        }
        match g.control_op(&TableOp::ReadCounter { index: 1 }) {
            TableOpResult::Counter { packets, .. } => assert!(packets > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(flexsfp_fabric::Device::mpf200t()
            .fit(g.resource_manifest())
            .fits());
    }
}
