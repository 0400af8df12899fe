//! FlowBlaze-style stateful processing: per-flow extended finite state
//! machines (EFSM).
//!
//! The paper cites FlowBlaze and Domino as evidence that "even more
//! advanced stateful forwarding logic can be achieved at line rate using
//! compact match-action logic" (§3). This module reproduces the EFSM
//! abstraction: each flow carries a state id and a small register file;
//! a transition table maps `(state, condition)` to `(next state, register
//! updates, packet verdict)`. Conditions and updates are drawn from a
//! closed, hardware-synthesizable vocabulary rather than arbitrary code.

use crate::engine::Verdict;
use crate::tables::{HashTable, TableError, TableKey};

/// Number of per-flow registers (FlowBlaze uses a comparable budget).
pub(crate) const REGISTERS: usize = 4;

/// Per-flow context stored in the state table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowContext {
    /// Current EFSM state.
    pub state: u16,
    /// Register file.
    pub regs: [u64; REGISTERS],
}

impl Default for FlowContext {
    fn default() -> Self {
        FlowContext {
            state: 0,
            regs: [0; REGISTERS],
        }
    }
}

/// Packet-derived inputs available to conditions and updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketEvent {
    /// Frame length in bytes.
    pub len: u32,
    /// Arrival timestamp, ns.
    pub timestamp_ns: u64,
    /// TCP flags byte (0 when not TCP).
    pub tcp_flags: u8,
}

/// Guard conditions — the closed comparison vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// Always true (default transition).
    Always,
    /// A TCP flag bit (mask) is set.
    TcpFlagsSet(u8),
    /// Register `reg` > `imm`.
    RegGt(usize, u64),
    /// Register `reg` ≤ `imm`.
    RegLe(usize, u64),
    /// Time since register `reg` (a stored timestamp) exceeds `imm` ns.
    ElapsedGt(usize, u64),
    /// Frame length > `imm` bytes.
    LenGt(u32),
}

impl Condition {
    fn eval(&self, flow: &FlowContext, ev: &PacketEvent) -> bool {
        match *self {
            Condition::Always => true,
            Condition::TcpFlagsSet(mask) => ev.tcp_flags & mask == mask,
            Condition::RegGt(r, imm) => flow.regs[r] > imm,
            Condition::RegLe(r, imm) => flow.regs[r] <= imm,
            Condition::ElapsedGt(r, imm) => ev.timestamp_ns.saturating_sub(flow.regs[r]) > imm,
            Condition::LenGt(imm) => ev.len > imm,
        }
    }
}

/// Register update operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOp {
    /// `reg = imm`.
    Set(usize, u64),
    /// `reg += imm`.
    AddImm(usize, u64),
    /// `reg -= imm`, saturating at zero.
    SubSat(usize, u64),
    /// `reg += frame length`.
    AddLen(usize),
    /// `reg = packet timestamp`.
    LoadTime(usize),
    /// `reg += 1`.
    Inc(usize),
    /// `reg = 0`.
    Clear(usize),
}

impl RegOp {
    fn apply(&self, flow: &mut FlowContext, ev: &PacketEvent) {
        match *self {
            RegOp::Set(r, v) => flow.regs[r] = v,
            RegOp::AddImm(r, v) => flow.regs[r] = flow.regs[r].wrapping_add(v),
            RegOp::SubSat(r, v) => flow.regs[r] = flow.regs[r].saturating_sub(v),
            RegOp::AddLen(r) => flow.regs[r] = flow.regs[r].wrapping_add(u64::from(ev.len)),
            RegOp::LoadTime(r) => flow.regs[r] = ev.timestamp_ns,
            RegOp::Inc(r) => flow.regs[r] = flow.regs[r].wrapping_add(1),
            RegOp::Clear(r) => flow.regs[r] = 0,
        }
    }
}

/// One EFSM transition row.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Matching current state.
    pub from: u16,
    /// Guard condition.
    pub condition: Condition,
    /// Next state.
    pub to: u16,
    /// Register updates, applied in order.
    pub ops: Vec<RegOp>,
    /// Verdict for the triggering packet.
    pub verdict: Verdict,
}

/// A per-flow EFSM table: flow key → [`FlowContext`], plus the shared
/// transition rows (the "EFSM program").
#[derive(Debug)]
pub struct EfsmTable<K: TableKey> {
    flows: HashTable<K, FlowContext>,
    transitions: Vec<Transition>,
}

impl<K: TableKey> EfsmTable<K> {
    /// A table for `capacity` flows running `transitions`.
    pub fn new(capacity: usize, transitions: Vec<Transition>) -> EfsmTable<K> {
        EfsmTable {
            flows: HashTable::with_capacity(capacity),
            transitions,
        }
    }

    /// Flows the table holds.
    pub fn capacity(&self) -> usize {
        self.flows.capacity()
    }

    /// Process one packet of flow `key`: find the first transition whose
    /// `from` and condition match, apply it, and return its verdict; with
    /// no match the packet is forwarded (fail-open).
    /// Flows are created in state 0 on first sight. If the flow table
    /// bucket is full the packet is forwarded statelessly (fail-open),
    /// mirroring what the hardware must do.
    pub fn step(&mut self, key: K, ev: &PacketEvent) -> Verdict {
        let mut flow = self.flows.lookup(&key).unwrap_or_default();
        let hit = self
            .transitions
            .iter()
            .find(|t| t.from == flow.state && t.condition.eval(&flow, ev));
        let verdict = match hit {
            Some(t) => {
                for op in &t.ops {
                    op.apply(&mut flow, ev);
                }
                flow.state = t.to;
                t.verdict
            }
            None => Verdict::Forward,
        };
        match self.flows.insert(key, flow) {
            Ok(()) => verdict,
            Err(TableError::BucketFull) => Verdict::Forward,
        }
    }

    /// A flow's context. Test-only: `crates/apps/src/stateful.rs`: a
    /// source's state read back.
    pub fn peek(&self, key: &K) -> Option<FlowContext> {
        self.flows.peek(key)
    }

    /// Remove a flow (e.g. idle timeout sweep from the control plane).
    pub fn evict(&mut self, key: &K) -> Option<FlowContext> {
        self.flows.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SYN: u8 = 0x02;
    const ACK: u8 = 0x10;

    /// A SYN-flood guard: state 0 (new) → SYN moves to state 1 and
    /// forwards; a second SYN within 1 ms in state 1 increments a
    /// counter and drops after 3 repeats; an ACK moves to established.
    fn syn_guard() -> EfsmTable<u32> {
        EfsmTable::new(
            1024,
            vec![
                Transition {
                    from: 0,
                    condition: Condition::TcpFlagsSet(SYN),
                    to: 1,
                    ops: vec![RegOp::LoadTime(0), RegOp::Inc(1)],
                    verdict: Verdict::Forward,
                },
                Transition {
                    from: 1,
                    condition: Condition::TcpFlagsSet(ACK),
                    to: 2,
                    ops: vec![RegOp::Clear(1)],
                    verdict: Verdict::Forward,
                },
                Transition {
                    from: 1,
                    condition: Condition::RegGt(1, 3),
                    to: 3, // blocked
                    ops: vec![],
                    verdict: Verdict::Drop,
                },
                Transition {
                    from: 1,
                    condition: Condition::TcpFlagsSet(SYN),
                    to: 1,
                    ops: vec![RegOp::Inc(1)],
                    verdict: Verdict::Forward,
                },
                Transition {
                    from: 3,
                    condition: Condition::Always,
                    to: 3,
                    ops: vec![],
                    verdict: Verdict::Drop,
                },
            ],
        )
    }

    fn ev(flags: u8, t: u64) -> PacketEvent {
        PacketEvent {
            len: 64,
            timestamp_ns: t,
            tcp_flags: flags,
        }
    }

    #[test]
    fn handshake_reaches_established() {
        let mut t = syn_guard();
        assert_eq!(t.step(1, &ev(SYN, 0)), Verdict::Forward);
        assert_eq!(t.step(1, &ev(ACK, 1000)), Verdict::Forward);
        assert_eq!(t.peek(&1).unwrap().state, 2);
        assert_eq!(t.peek(&1).unwrap().regs[1], 0);
    }

    #[test]
    fn repeated_syns_get_blocked() {
        let mut t = syn_guard();
        for i in 0..4 {
            assert_eq!(t.step(2, &ev(SYN, i * 100)), Verdict::Forward, "syn {i}");
        }
        // Fifth packet: reg1 is now 4 > 3 -> blocked state, drop.
        assert_eq!(t.step(2, &ev(SYN, 500)), Verdict::Drop);
        assert_eq!(t.peek(&2).unwrap().state, 3);
        // Everything from the blocked flow drops, even non-SYN.
        assert_eq!(t.step(2, &ev(ACK, 600)), Verdict::Drop);
    }

    #[test]
    fn flows_are_independent() {
        let mut t = syn_guard();
        for i in 0..4 {
            t.step(10, &ev(SYN, i));
        }
        t.step(10, &ev(SYN, 10));
        assert_eq!(t.peek(&10).unwrap().state, 3);
        // A different flow is unaffected.
        assert_eq!(t.step(11, &ev(SYN, 20)), Verdict::Forward);
        assert_eq!(t.peek(&11).unwrap().state, 1);
        assert_eq!(t.flows.len(), 2);
    }

    #[test]
    fn unknown_state_forwards() {
        let mut t: EfsmTable<u32> = EfsmTable::new(16, vec![]);
        assert_eq!(t.step(5, &ev(0, 0)), Verdict::Forward);
    }

    #[test]
    fn byte_counting_with_addlen() {
        let mut t: EfsmTable<u32> = EfsmTable::new(
            16,
            vec![Transition {
                from: 0,
                condition: Condition::Always,
                to: 0,
                ops: vec![RegOp::AddLen(2)],
                verdict: Verdict::Forward,
            }],
        );
        for _ in 0..5 {
            t.step(
                9,
                &PacketEvent {
                    len: 1500,
                    timestamp_ns: 0,
                    tcp_flags: 0,
                },
            );
        }
        assert_eq!(t.peek(&9).unwrap().regs[2], 7500);
    }

    #[test]
    fn subsat_saturates_at_zero() {
        let mut t: EfsmTable<u32> = EfsmTable::new(
            16,
            vec![Transition {
                from: 0,
                condition: Condition::Always,
                to: 0,
                ops: vec![RegOp::SubSat(0, 5)],
                verdict: Verdict::Forward,
            }],
        );
        t.step(1, &ev(0, 0));
        assert_eq!(t.peek(&1).unwrap().regs[0], 0); // not underflowed
    }

    #[test]
    fn elapsed_condition() {
        let mut t: EfsmTable<u32> = EfsmTable::new(
            16,
            vec![
                Transition {
                    from: 0,
                    condition: Condition::Always,
                    to: 1,
                    ops: vec![RegOp::LoadTime(0)],
                    verdict: Verdict::Forward,
                },
                Transition {
                    from: 1,
                    condition: Condition::ElapsedGt(0, 1_000_000),
                    to: 0,
                    ops: vec![],
                    verdict: Verdict::ToControlPlane,
                },
                Transition {
                    from: 1,
                    condition: Condition::Always,
                    to: 1,
                    ops: vec![],
                    verdict: Verdict::Forward,
                },
            ],
        );
        assert_eq!(t.step(1, &ev(0, 0)), Verdict::Forward);
        assert_eq!(t.step(1, &ev(0, 500_000)), Verdict::Forward);
        // >1 ms since the stored timestamp: report to control plane.
        assert_eq!(t.step(1, &ev(0, 1_600_000)), Verdict::ToControlPlane);
    }

    #[test]
    fn eviction() {
        let mut t = syn_guard();
        t.step(3, &ev(SYN, 0));
        assert!(t.peek(&3).is_some());
        let ctx = t.evict(&3).unwrap();
        assert_eq!(ctx.state, 1);
        assert!(t.peek(&3).is_none());
        assert!(t.flows.is_empty());
    }
}
