//! The microflow action cache — the PPE's per-flow fast path.
//!
//! Real dataplanes (OVS's microflow cache, VPP's flow tables, and the
//! paper's fixed-function fast path fronting a control-plane slow path)
//! win their throughput by memoizing the *resolved outcome* of the
//! first packet of a flow and replaying it for every subsequent packet
//! of the same flow. This module provides that machinery:
//!
//! * [`FlowKey`] — a 24-byte key extracted with a *shallow* parse (a
//!   handful of direct byte reads, no [`Parser`](crate::parser::Parser)
//!   walk, no allocation) over direction, VLAN stack, the IPv4 5-tuple
//!   and the structural bits that determine how the full parser would
//!   classify the frame;
//! * [`ActionPlan`] — the memoized outcome: an ordered list of
//!   [`PlanOp`] byte edits (absolute rewrites whose values are
//!   flow-constant, RFC 1624 incremental checksum patches, VLAN tag
//!   push/pop, counter increments) plus the final [`Verdict`]. It is
//!   the heap-backed *interchange* form; the cache stores plans as
//!   fixed-size [`InlinePlan`]s and hands them out as [`PlanView`]s.
//!   A plan that does not fit an [`InlinePlan`] is not cached — like a
//!   full bucket in [`crate::tables`], it is refused, not moved to
//!   another memory — and its flow stays on the slow path;
//! * [`FlowCache`] — a fixed-capacity, set-associative (4-way) cache
//!   from key to plan with hit/miss/evict/invalidate counters and an
//!   **epoch**: every control-plane table mutation bumps the epoch, and
//!   a plan recorded under an older epoch is discarded at lookup time,
//!   so a stale plan is never replayed. A way is one 64-byte slot
//!   (key, epoch and plan together) behind a 1-byte fingerprint tag,
//!   so a hit reads one tag line and one slot and chases no pointer;
//! * [`PlanRecorder`] — what the slow path hands
//!   [`ActionEngine::apply`](crate::action::ActionEngine::apply) to
//!   record a plan *by* executing it. `apply` compiles a pure action
//!   against the packet into at most three [`PlanOp`]s, returned by
//!   value, appends them to the recorder and runs them through the op
//!   loop [`replay`] runs. Each pure action's edit has that one
//!   implementation, so a flow's first packet and its later ones are
//!   edited by the same code (including the UDP zero-checksum special
//!   cases) and there is no second copy to keep in step. What holds the
//!   ops to the wire formats is outside the datapath: the seeded
//!   differential oracle in `tests/oracle.rs`, written with
//!   `flexsfp_wire` alone. Recording fills an [`InlinePlan`] in place,
//!   so a miss allocates nothing;
//! * [`FlowFront`] — the cache as a processor owns it, with the one
//!   policy for when a packet takes a memoised plan and how a batch
//!   window is prefetched; a processor supplies a [`FlowProgram`] (which
//!   packets qualify, its slow path, what a hit accounts besides the
//!   replay, what to touch for a predicted miss) and nothing else.
//!
//! # Keying contract
//!
//! A plan may be replayed for any frame with an equal [`FlowKey`], so a
//! processor must only record plans whose edits and verdict are a pure
//! function of the key fields (and of table state, which the epoch
//! guards). The key deliberately covers everything the cacheable
//! action/selector vocabulary reads: direction, VLAN count + both raw
//! TCIs, the IPv4 5-tuple, the DSCP/ECN byte, and the fragment/L4
//! structure bits. It does *not* cover MACs, TTL, IP options, payload
//! bytes or packet length — processors keying on those must not record
//! plans, and [`ActionEngine::apply`](crate::action::ActionEngine::apply)
//! invalidates the recording of every data-dependent action (metering,
//! TTL decrement, entropy-hashed encapsulation).

use crate::action::Action;
use crate::counters::CounterBank;
use crate::engine::{BatchPacket, Direction, ProcessContext, Verdict};
use crate::parser::{ParsedPacket, L4};
use crate::pipeline::stamp_stages;
use flexsfp_obs::{CacheStats, FlightStamp};
use flexsfp_wire::{checksum, EtherType};

/// Associativity of the cache (entries per set).
pub(crate) const WAYS: usize = 4;

/// Default flow capacity (sets × ways) of a processor's cache.
pub(crate) const DEFAULT_FLOWS: usize = 4096;

/// Packets a cache-owning processor's `process_batch` handles per
/// two-pass window: touch every packet's cache set first, then run the
/// per-packet logic in order. Equals the module's PPE batch, and is
/// small enough that the window's keys stay on the stack.
pub(crate) const BATCH_WINDOW: usize = 32;

/// L4 classification bits of a [`FlowKey`] (mirrors what the full
/// parser would produce for the same frame).
const L4_NONE: u8 = 0; // no TCP/UDP header (other proto, fragment, truncated)
const L4_TCP: u8 = 1;
const L4_UDP: u8 = 2;

/// The microflow key: 24 bytes covering every field the cacheable
/// action/selector vocabulary can read. Compared and hashed as three
/// 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey([u64; 3]);

impl FlowKey {
    /// Shallow-extract a key from a raw frame. Returns `None` whenever
    /// the frame is not a canonical IPv4-over-Ethernet frame the key
    /// can fully describe (non-IPv4 ethertype, IP options, bad
    /// version/length fields, >2 VLAN tags) — those frames always take
    /// the slow path, which is correct for any traffic mix and free
    /// for the line-rate workloads this cache exists for.
    pub fn extract(frame: &[u8], direction: Direction) -> Option<FlowKey> {
        // Ethernet + VLAN stack (mirrors Parser::parse's walk).
        if frame.len() < 14 {
            return None;
        }
        let mut off = 12usize;
        let mut et = u16::from_be_bytes([frame[off], frame[off + 1]]);
        let mut vlans = 0u8;
        let mut outer_tci = 0u16;
        let mut inner_tci = 0u16;
        off = 14;
        while EtherType::from_u16(et).is_vlan() && vlans < 2 {
            if frame.len() < off + 4 {
                return None; // truncated tag: parser stops early — slow path
            }
            let tci = u16::from_be_bytes([frame[off], frame[off + 1]]);
            if vlans == 0 {
                outer_tci = tci;
            } else {
                inner_tci = tci;
            }
            et = u16::from_be_bytes([frame[off + 2], frame[off + 3]]);
            off += 4;
            vlans += 1;
        }
        if et != 0x0800 {
            return None; // non-IPv4 (incl. >2 tags): slow path
        }

        // IPv4 header: require the canonical option-less shape so all
        // field offsets are key-determined.
        if frame.len() < off + 20 || frame[off] != 0x45 {
            return None;
        }
        let total = u16::from_be_bytes([frame[off + 2], frame[off + 3]]) as usize;
        if !(20..=frame.len() - off).contains(&total) {
            return None; // Ipv4Packet::new_checked would reject: slow path
        }
        let dscp_ecn = frame[off + 1];
        let frag = u16::from_be_bytes([frame[off + 6], frame[off + 7]]);
        let more_frags = frag & 0x2000 != 0;
        let frag_offset = frag & 0x1fff;
        let proto = frame[off + 9];
        let src = &frame[off + 12..off + 16];
        let dst = &frame[off + 16..off + 20];

        // L4 classification, replicating the validity checks of
        // TcpSegment/UdpDatagram::new_checked over ip.payload() so the
        // key always agrees with what the full parser would see.
        let mut l4 = L4_NONE;
        let mut sport = [0u8; 2];
        let mut dport = [0u8; 2];
        if frag_offset == 0 {
            let l4_off = off + 20;
            let payload_len = total - 20;
            match proto {
                6 if payload_len >= 20 => {
                    let doff = usize::from(frame[l4_off + 12] >> 4) * 4;
                    if (20..=60).contains(&doff) && doff <= payload_len {
                        l4 = L4_TCP;
                        sport = [frame[l4_off], frame[l4_off + 1]];
                        dport = [frame[l4_off + 2], frame[l4_off + 3]];
                    }
                }
                17 if payload_len >= 8 => {
                    let ulen = u16::from_be_bytes([frame[l4_off + 4], frame[l4_off + 5]]) as usize;
                    if (8..=payload_len).contains(&ulen) {
                        l4 = L4_UDP;
                        sport = [frame[l4_off], frame[l4_off + 1]];
                        dport = [frame[l4_off + 2], frame[l4_off + 3]];
                    }
                }
                _ => {}
            }
        }

        let mut k = [0u8; 24];
        k[0] = u8::from(direction == Direction::OpticalToEdge)
            | (vlans << 1)
            | (l4 << 3)
            | (u8::from(more_frags) << 5)
            | (u8::from(frag_offset != 0) << 6);
        k[1] = dscp_ecn;
        k[2..4].copy_from_slice(&outer_tci.to_be_bytes());
        k[4..6].copy_from_slice(&inner_tci.to_be_bytes());
        k[6] = proto;
        k[8..12].copy_from_slice(src);
        k[12..16].copy_from_slice(dst);
        k[16..18].copy_from_slice(&sport);
        k[18..20].copy_from_slice(&dport);
        Some(FlowKey([
            u64::from_le_bytes(k[0..8].try_into().unwrap()),
            u64::from_le_bytes(k[8..16].try_into().unwrap()),
            u64::from_le_bytes(k[16..24].try_into().unwrap()),
        ]))
    }

    /// Cheap multiply-mix hash over the three key words.
    fn hash(&self) -> u64 {
        let [a, b, c] = self.0;
        let h = (a.rotate_left(17) ^ b).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ c.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        h ^ (h >> 31)
    }

    // Field accessors (the inverse of the packing in `extract`), used
    // by the shard dispatcher to derive flow hashes and fast filters
    // from one extraction instead of re-parsing the frame.

    /// Number of VLAN tags on the frame (0..=2).
    pub fn vlan_count(&self) -> u8 {
        ((self.0[0] >> 1) & 0x3) as u8
    }

    /// True when the key classified a valid TCP or UDP header (first
    /// fragment or unfragmented, header fully inside the IP payload).
    pub fn l4_valid(&self) -> bool {
        (self.0[0] >> 3) & 0x3 != u64::from(L4_NONE)
    }

    /// True when the frame is any fragment (more-fragments set or a
    /// nonzero fragment offset).
    #[cfg(test)]
    fn is_fragment(&self) -> bool {
        self.0[0] & 0x60 != 0
    }

    /// IPv4 protocol number.
    pub fn proto(&self) -> u8 {
        ((self.0[0] >> 48) & 0xff) as u8
    }

    /// IPv4 source address (host byte order).
    pub fn src_ip(&self) -> u32 {
        (self.0[1] as u32).swap_bytes()
    }

    /// IPv4 destination address (host byte order).
    pub fn dst_ip(&self) -> u32 {
        ((self.0[1] >> 32) as u32).swap_bytes()
    }

    /// L4 source port (0 when [`l4_valid`](Self::l4_valid) is false).
    pub fn src_port(&self) -> u16 {
        (self.0[2] as u16).swap_bytes()
    }

    /// L4 destination port (0 when [`l4_valid`](Self::l4_valid) is false).
    pub fn dst_port(&self) -> u16 {
        ((self.0[2] >> 16) as u16).swap_bytes()
    }
}

/// A pre-parsed [`FlowKey`] carried alongside a frame through the
/// dispatch pipeline, so the frame is shallow-parsed exactly once no
/// matter how many stages (dispatcher hash, control filter, microflow
/// cache) need key fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyHint {
    /// No extraction has been attempted; consumers extract on demand.
    #[default]
    Unknown,
    /// Extraction was attempted and the frame has no canonical key
    /// (slow path for the cache, structural hash for the dispatcher).
    Absent,
    /// The extracted key.
    Key(FlowKey),
}

impl KeyHint {
    /// Extract once, capturing the miss as [`KeyHint::Absent`].
    pub fn compute(frame: &[u8], direction: Direction) -> KeyHint {
        match FlowKey::extract(frame, direction) {
            Some(k) => KeyHint::Key(k),
            None => KeyHint::Absent,
        }
    }

    /// The key, extracting now only if no attempt was recorded yet.
    pub(crate) fn resolve(self, frame: &[u8], direction: Direction) -> Option<FlowKey> {
        match self {
            KeyHint::Unknown => FlowKey::extract(frame, direction),
            KeyHint::Absent => None,
            KeyHint::Key(k) => Some(k),
        }
    }
}

/// One replayable edit unit of an [`ActionPlan`]. Eight bytes, so the
/// four ops of a NAT plan share a cache slot's line with its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Write `data[..len]` at `offset` (values are flow-constant).
    Write {
        /// Byte offset within the frame.
        offset: u16,
        /// Number of bytes written (≤ 4).
        len: u8,
        /// The bytes to write.
        data: [u8; 4],
    },
    /// RFC 1624 incremental patch of the 16-bit checksum at `offset`
    /// for one field change, carried as the change's precomputed
    /// one's-complement [`delta`](checksum::delta32) and run through
    /// [`checksum::apply_delta`] — bit-exact with
    /// [`checksum::update32`] on the same change, at a third of its
    /// operands' size. With `udp`, the UDP special cases apply: a stored
    /// checksum of zero ("no checksum") is left untouched, and a patched
    /// result of zero is folded to `0xffff`.
    IncrCheck {
        /// Byte offset of the checksum field.
        offset: u16,
        /// `checksum::delta32` of the field change.
        delta: u16,
        /// Apply UDP zero-checksum semantics.
        udp: bool,
    },
    /// Insert a 4-byte VLAN tag (TPID + TCI) after the MAC addresses.
    PushTag {
        /// TPID and TCI, in wire order.
        bytes: [u8; 4],
    },
    /// Remove the outermost 4-byte VLAN tag.
    PopTag,
    /// Increment counter `index` by one packet and the packet's
    /// *current* length (lengths are per-packet; the increment is the
    /// only side effect, which is what makes counting cacheable).
    Count {
        /// Counter index.
        index: u32,
    },
}

/// A memoized, replayable per-flow outcome — the heap-backed
/// interchange form. [`FlowCache::insert`] accepts it; inside the cache
/// a plan lives as an [`InlinePlan`] and comes back as a [`PlanView`].
#[derive(Debug, Clone, PartialEq)]
pub struct ActionPlan {
    /// Ordered edits to apply.
    pub ops: Vec<PlanOp>,
    /// Final verdict (never [`Verdict::ToControlPlane`] — those flows
    /// are uncacheable by construction).
    pub verdict: Verdict,
    /// Per-stage (index, hit) attribution, stamped on a replayed packet.
    pub stage_stats: Vec<(u8, bool)>,
    /// Nothing reads this: a cached plan does not keep it. It goes when
    /// the benchmark's plan-insert kernel stops setting it.
    pub cycles: u64,
}

/// A cached plan's per-stage hit attribution: stages `0..n` in order —
/// what the slow path records — with stage `i`'s hit in bit `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageStats {
    /// Stages attributed.
    n: u8,
    /// Bit `i` set: stage `i` hit.
    hits: u8,
}

impl StageStats {
    /// The `(stage, hit)` pairs in recording order.
    fn iter(&self) -> impl Iterator<Item = (u8, bool)> {
        let hits = self.hits;
        (0..self.n).map(move |i| (i, hits >> i & 1 != 0))
    }
}

/// A borrowed plan: what [`FlowCache::lookup`] returns and [`replay`]
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanView<'a> {
    /// Ordered edits to apply.
    pub ops: &'a [PlanOp],
    /// Final verdict.
    pub verdict: Verdict,
    /// Per-stage (index, hit) attribution.
    stage_stats: StageStats,
}

/// Ops an [`InlinePlan`] holds: the NAT's translated-flow plan (address
/// write, IP and L4 checksum patches, counter) exactly.
pub(crate) const INLINE_OPS: usize = 4;

/// Stage attributions an [`InlinePlan`] holds: one per stage of the
/// deepest pipeline the fabric fits.
pub(crate) const INLINE_STAGES: usize = crate::pipeline::MAX_STAGES;

const _: () = assert!(INLINE_STAGES <= 8 && INLINE_OPS < 0xf);
const _: () = assert!(core::mem::size_of::<PlanOp>() == 8);

/// A plan in fixed-size `Copy` form: what a cache slot stores and what
/// [`PlanRecorder`] records into, so neither a hit nor a miss touches
/// the heap. 36 bytes: a 3-byte header, a byte of padding and
/// `INLINE_OPS` ops. A plan with more ops, more than `INLINE_STAGES`
/// stage attributions or attributions that are not stages `0..n` in
/// order does not fit and is not cached.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct InlinePlan {
    /// Ops in the low nibble, stage attributions in the high one.
    counts: u8,
    verdict: Verdict,
    /// Bit `i` set: stage `i` hit.
    stage_hits: u8,
    ops: [PlanOp; INLINE_OPS],
}

impl InlinePlan {
    const EMPTY: InlinePlan = InlinePlan {
        counts: 0,
        verdict: Verdict::Forward,
        stage_hits: 0,
        ops: [PlanOp::PopTag; INLINE_OPS],
    };

    fn n_ops(&self) -> usize {
        usize::from(self.counts & 0xf)
    }

    fn n_stats(&self) -> usize {
        usize::from(self.counts >> 4)
    }

    /// Append an op; `false` when the plan is full.
    fn push_op(&mut self, op: PlanOp) -> bool {
        let n = self.n_ops();
        if n == INLINE_OPS {
            return false;
        }
        self.ops[n] = op;
        self.counts += 1;
        true
    }

    /// Append a stage attribution; `false` when it is not the next
    /// stage in order or the plan is full.
    fn push_stat(&mut self, stage: u8, hit: bool) -> bool {
        let n = self.n_stats();
        if n == INLINE_STAGES || usize::from(stage) != n {
            return false;
        }
        self.stage_hits |= u8::from(hit) << n;
        self.counts += 1 << 4;
        true
    }

    /// Borrow the plan for [`replay`]. Test-only:
    /// `crates/ppe/tests/oracle.rs`: record on one packet, replay on the
    /// next.
    pub fn view(&self) -> PlanView<'_> {
        PlanView {
            ops: &self.ops[..self.n_ops()],
            verdict: self.verdict,
            stage_stats: StageStats {
                n: self.n_stats() as u8,
                hits: self.stage_hits,
            },
        }
    }
}

/// Packs the interchange form; the error hands back a plan that does
/// not fit.
impl TryFrom<ActionPlan> for InlinePlan {
    type Error = ActionPlan;

    // Inlined into `insert::<ActionPlan>`, which other crates
    // instantiate: as a call it moves the 56-byte plan in and out and
    // costs flexbench's `ppe.cache.insert_ns` kernel 10 ns of its 16.
    #[inline]
    fn try_from(plan: ActionPlan) -> Result<InlinePlan, ActionPlan> {
        let mut inline = InlinePlan {
            verdict: plan.verdict,
            ..InlinePlan::EMPTY
        };
        let fits = plan.ops.iter().all(|&op| inline.push_op(op))
            && plan
                .stage_stats
                .iter()
                .all(|&(stage, hit)| inline.push_stat(stage, hit));
        if fits {
            Ok(inline)
        } else {
            Err(plan)
        }
    }
}

/// Run plan ops against a packet, in order: the one implementation of
/// every pure action's byte edits. [`replay`] runs a cached plan's ops
/// through it and [`ActionEngine::apply`](crate::action::ActionEngine::apply)
/// the ops one action just compiled to, so a flow's first packet and its
/// thousandth are edited by the same code.
#[inline(always)]
pub(crate) fn run_ops(ops: &[PlanOp], packet: &mut Vec<u8>, counters: &mut CounterBank) {
    for op in ops {
        match *op {
            PlanOp::Write { offset, len, data } => {
                let o = offset as usize;
                if len == 4 {
                    // An address: one fixed-size store, no memcpy call.
                    packet[o..o + 4].copy_from_slice(&data);
                } else {
                    packet[o..o + len as usize].copy_from_slice(&data[..len as usize]);
                }
            }
            PlanOp::IncrCheck { offset, delta, udp } => {
                let o = offset as usize;
                let oldc = u16::from_be_bytes([packet[o], packet[o + 1]]);
                if udp && oldc == 0 {
                    continue;
                }
                let mut newc = checksum::apply_delta(oldc, delta);
                if udp && newc == 0 {
                    newc = 0xffff;
                }
                packet[o..o + 2].copy_from_slice(&newc.to_be_bytes());
            }
            PlanOp::PushTag { bytes } => {
                // Open four bytes behind the MAC addresses in place;
                // `splice` does the same through an iterator, slower.
                let len = packet.len();
                packet.resize(len + 4, 0);
                packet.copy_within(12..len, 16);
                packet[12..16].copy_from_slice(&bytes);
            }
            PlanOp::PopTag => {
                packet.drain(12..16);
            }
            PlanOp::Count { index } => {
                counters.count(index as usize, packet.len());
            }
        }
    }
}

/// Replay a plan against a packet: run its ops, return its verdict.
/// Counter increments land in `counters`.
///
/// Test-only: `crates/ppe/tests/oracle.rs`: it replays a plan recorded
/// on one packet onto the flow's next, which the cache does only on a hit.
pub fn replay(plan: PlanView<'_>, packet: &mut Vec<u8>, counters: &mut CounterBank) -> Verdict {
    run_ops(plan.ops, packet, counters);
    plan.verdict
}

/// Records a plan alongside slow-path execution. Starts valid; any
/// uncacheable action or verdict invalidates it, in which case
/// [`PlanRecorder::finish`] returns `None` and nothing is cached.
///
/// Records straight into an [`InlinePlan`], so a cache miss allocates
/// nothing; the first op or stage attribution that does not fit
/// invalidates the recording like an impure action does.
#[derive(Debug)]
pub struct PlanRecorder {
    plan: InlinePlan,
    invalid: bool,
}

impl Default for PlanRecorder {
    fn default() -> PlanRecorder {
        PlanRecorder::new()
    }
}

impl PlanRecorder {
    /// A fresh, valid recorder. Test-only: `crates/ppe/tests/oracle.rs`:
    /// record on one packet, replay on the next.
    pub fn new() -> PlanRecorder {
        PlanRecorder {
            plan: InlinePlan::EMPTY,
            invalid: false,
        }
    }

    /// Append an op.
    pub fn push(&mut self, op: PlanOp) {
        self.invalid |= !self.plan.push_op(op);
    }

    /// Record one stage's hit/miss attribution.
    pub fn stage_stat(&mut self, stage: u8, hit: bool) {
        self.invalid |= !self.plan.push_stat(stage, hit);
    }

    /// Mark the flow uncacheable (an impure action ran).
    pub fn invalidate(&mut self) {
        self.invalid = true;
    }

    /// Finish recording. Returns `None` when the flow is uncacheable.
    /// Test-only: `crates/ppe/tests/oracle.rs`: record on one packet,
    /// replay on the next.
    pub fn finish(self, verdict: Verdict) -> Option<InlinePlan> {
        if self.invalid || verdict == Verdict::ToControlPlane {
            return None;
        }
        Some(InlinePlan {
            verdict,
            ..self.plan
        })
    }
}

/// Ops the longest action compiles to: an address rewrite is the write,
/// the IP checksum patch and the L4 checksum patch.
const ACTION_OPS: usize = 3;

/// What one pure action compiles to against one packet, by value: up to
/// [`ACTION_OPS`] ops on the stack, none when the action is a no-op
/// there.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActionOps {
    ops: [PlanOp; ACTION_OPS],
    len: usize,
}

impl ActionOps {
    const NONE: ActionOps = ActionOps {
        ops: [PlanOp::PopTag; ACTION_OPS],
        len: 0,
    };

    #[inline]
    fn push(&mut self, op: PlanOp) {
        self.ops[self.len] = op;
        self.len += 1;
    }

    /// The ops, in the order they run.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[PlanOp] {
        &self.ops[..self.len]
    }
}

/// Compile one action against the packet it is about to edit (`parsed`
/// describes `packet`): the ops that *are* the edit, or `None` for an
/// action [`Action::is_pure`] excludes. The dynamic no-op and bounds
/// conditions live here and nowhere else — no IPv4 layer, an address
/// already in place, no tag to pop, an L4 checksum field a truncated
/// frame cuts off — and each compiles to fewer ops or none.
/// [`ActionEngine::apply`](crate::action::ActionEngine::apply) is
/// the one caller: it records the ops and runs them through
/// [`run_ops`].
#[inline(always)]
pub(crate) fn compile_action(
    action: &Action,
    packet: &[u8],
    parsed: &ParsedPacket,
) -> Option<ActionOps> {
    if !action.is_pure() {
        return None;
    }
    let mut ops = ActionOps::NONE;
    match *action {
        Action::SetIpv4Src(new) => compile_rewrite_addr(packet, parsed, new, true, &mut ops),
        Action::SetIpv4Dst(new) => compile_rewrite_addr(packet, parsed, new, false, &mut ops),
        Action::PushVlan { vid, pcp } => {
            let tci = (u16::from(pcp & 0x7) << 13) | (vid & 0x0fff);
            let mut bytes = [0u8; 4];
            bytes[..2].copy_from_slice(&0x8100u16.to_be_bytes());
            bytes[2..].copy_from_slice(&tci.to_be_bytes());
            ops.push(PlanOp::PushTag { bytes });
        }
        Action::PushSTag { vid } => {
            let mut bytes = [0u8; 4];
            bytes[..2].copy_from_slice(&0x88a8u16.to_be_bytes());
            bytes[2..].copy_from_slice(&(vid & 0x0fff).to_be_bytes());
            ops.push(PlanOp::PushTag { bytes });
        }
        Action::PopVlan => {
            // A no-op unless the outer ethertype is a tag with room behind it.
            if packet.len() >= 18
                && EtherType::from_u16(u16::from_be_bytes([packet[12], packet[13]])).is_vlan()
            {
                ops.push(PlanOp::PopTag);
            }
        }
        Action::Count(idx) => ops.push(PlanOp::Count { index: idx as u32 }),
        _ => unreachable!("`Action::is_pure` admits only the actions compiled above"),
    }
    Some(ops)
}

/// Shared compile path for src/dst rewrites: the address, the IP header
/// checksum, and the TCP/UDP checksum (whose pseudo-header covers the
/// addresses) where the frame still holds that field.
#[inline(always)]
fn compile_rewrite_addr(
    packet: &[u8],
    parsed: &ParsedPacket,
    new: u32,
    is_src: bool,
    ops: &mut ActionOps,
) {
    let Some(ip) = parsed.ipv4 else { return };
    let old = if is_src { ip.src } else { ip.dst };
    if old == new {
        return;
    }
    let addr_off = ip.offset + if is_src { 12 } else { 16 };
    ops.push(PlanOp::Write {
        offset: addr_off as u16,
        len: 4,
        data: new.to_be_bytes(),
    });
    let delta = checksum::delta32(old, new);
    ops.push(PlanOp::IncrCheck {
        offset: (ip.offset + 10) as u16,
        delta,
        udp: false,
    });
    if let Some(l4_off) = parsed.l4_offset {
        match parsed.l4 {
            L4::Tcp { .. } if packet.len() >= l4_off + 18 => {
                ops.push(PlanOp::IncrCheck {
                    offset: (l4_off + 16) as u16,
                    delta,
                    udp: false,
                });
            }
            L4::Udp { .. } if packet.len() >= l4_off + 8 => {
                ops.push(PlanOp::IncrCheck {
                    offset: (l4_off + 6) as u16,
                    delta,
                    udp: true,
                });
            }
            _ => {}
        }
    }
}

/// One way of the cache: key, epoch and plan side by side in 64 bytes,
/// so a hit costs one slot fetch and no pointer chase. Key and plan
/// share the slab on purpose: a dense key-only slab scans faster, but a
/// second large slab is a second TLB miss per hit. No alignment
/// attribute either: an over-aligned slab goes through the allocator's
/// aligned path, which neither recycles freed blocks nor leaves the
/// heap unfragmented (it cost `nat_hot` a fifth of its set-up time and
/// RSS when tried); at `malloc`'s 16 bytes a slot spans two lines at
/// most.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Slot {
    key: FlowKey,
    /// [`FlowCache::stamp`] of the plan's dependency at recording
    /// time, or [`STALE_EPOCH`].
    epoch: u32,
    plan: InlinePlan,
}

const _: () = assert!(core::mem::size_of::<Slot>() == 64);

const EMPTY_SLOT: Slot = Slot {
    key: FlowKey([0; 3]),
    epoch: 0,
    plan: InlinePlan::EMPTY,
};

/// Resident plans up to which [`FlowCache::touch_window`] does nothing:
/// 4 096 slots are 256 KB, inside the per-core L2 of anything current,
/// where a probe is a hit already.
const L2_RESIDENT_PLANS: usize = 4096;

/// Stamp no live plan carries: bumps stop one short of it, and the
/// restamp at that count marks every resident slot with it, so a plan
/// from 2³² bumps ago can never look current.
const STALE_EPOCH: u32 = u32::MAX;

/// Nonzero 1-byte fingerprint from the hash bits furthest from the
/// set-index bits; 0 is reserved for "empty way".
fn fingerprint(hash: u64) -> u8 {
    ((hash >> 56) as u8).max(1)
}

/// log2 of the dependency epochs a cache keeps: a bump of one
/// dependency invalidates the plans of every dependency hashed to its
/// bucket. 4 096 `u32`s are 16 KB, so the hit path's one extra load
/// stays in L1.
const DEP_BITS: u32 = 12;
const DEP_BUCKETS: usize = 1 << DEP_BITS;

/// The bucket of dependency `dep`: the top bits of a Fibonacci hash, so
/// consecutive addresses land in distinct buckets.
#[inline(always)]
fn dep_bucket(dep: u32) -> usize {
    (dep.wrapping_mul(0x9e37_79b9) >> (u32::BITS - DEP_BITS)) as usize
}

/// The dependency rule of [`FlowCache::lookup`] and [`FlowCache::insert`]:
/// every plan under one dependency, which `bump_epoch` invalidates.
fn one_dependency(_key: &FlowKey) -> u32 {
    0
}

/// Fixed-capacity, `WAYS`-way set-associative microflow cache.
///
/// Laid out like [`HashTable`](crate::tables::HashTable): a dense array
/// of 1-byte fingerprint tags (0 = empty way) scanned on every probe,
/// and one slab of slots touched only where a tag matches.
///
/// A slot stores the stamp `global + deps[bucket]` of the plan's
/// dependency at recording time; the plan is live while that sum is
/// unchanged. Both terms only grow, so any bump of either ends it.
#[derive(Debug)]
pub struct FlowCache {
    tags: Vec<u8>,
    slots: Vec<Slot>,
    set_mask: usize,
    victim: Vec<u8>,
    /// Global bumps since the last restamp.
    global: u32,
    /// Bumps of each dependency bucket since the last restamp.
    deps: Box<[u32; DEP_BUCKETS]>,
    /// Every bump since the last restamp, global and per bucket: at
    /// least any stamp, and restamped at [`STALE_EPOCH`].
    bumps: u32,
    /// Slots currently holding a plan (valid, any epoch) — maintained
    /// on insert/invalidate so occupancy telemetry is O(1).
    resident: usize,
    stats: CacheStats,
}

impl Default for FlowCache {
    fn default() -> FlowCache {
        FlowCache::new(DEFAULT_FLOWS)
    }
}

impl FlowCache {
    /// A cache holding about `flows` plans (rounded up to a power-of-two
    /// number of `WAYS`-way sets).
    pub fn new(flows: usize) -> FlowCache {
        let sets = flows.max(WAYS).div_ceil(WAYS).next_power_of_two();
        FlowCache {
            tags: vec![0; sets * WAYS],
            // Written, not zero-mapped: first touch of the slab belongs
            // to construction, not to the first packets.
            slots: vec![EMPTY_SLOT; sets * WAYS],
            set_mask: sets - 1,
            victim: vec![0; sets],
            global: 0,
            deps: vec![0; DEP_BUCKETS].try_into().expect("DEP_BUCKETS epochs"),
            bumps: 0,
            resident: 0,
            stats: CacheStats::default(),
        }
    }

    /// Total plan capacity (sets × ways).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Slots currently holding a plan, in O(1). Counts every valid
    /// entry including stale-epoch ones not yet discarded — the memory
    /// actually in use, which is what occupancy telemetry wants.
    pub(crate) fn resident(&self) -> usize {
        self.resident
    }

    /// Invalidate every cached plan in O(1): entries recorded before the
    /// bump are discarded lazily at lookup time. Call when a table is
    /// cleared or replaced wholesale.
    fn bump_epoch(&mut self) {
        self.global += 1;
        self.count_bump();
    }

    /// Invalidate, in O(1), the plans recorded under dependency `dep`
    /// (and those whose dependency shares its bucket).
    fn bump_dependency(&mut self, dep: u32) {
        self.deps[dep_bucket(dep)] += 1;
        self.count_bump();
    }

    /// Count a bump. Slots keep 32-bit stamps, and a stamp is at most
    /// `bumps`: once per 2³² − 1 bumps the count reaches [`STALE_EPOCH`],
    /// every resident slot is restamped stale (O(capacity)) and the
    /// epochs restart, so counters and occupancy read exactly as with
    /// 64-bit epochs.
    fn count_bump(&mut self) {
        self.bumps += 1;
        if self.bumps == STALE_EPOCH {
            for (slot, _) in self
                .slots
                .iter_mut()
                .zip(&self.tags)
                .filter(|(_, &t)| t != 0)
            {
                slot.epoch = STALE_EPOCH;
            }
            self.global = 0;
            self.deps.fill(0);
            self.bumps = 0;
        }
    }

    /// The stamp a plan under dependency `dep` carries while live.
    #[inline(always)]
    fn stamp(&self, dep: u32) -> u32 {
        self.global + self.deps[dep_bucket(dep)]
    }

    /// Lifetime hit/miss/evict/invalidate counters.
    fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entries under the dependency rule `rule` — O(capacity).
    #[cfg(test)]
    fn live_len_with(&self, rule: impl Fn(&FlowKey) -> u32) -> usize {
        self.slots
            .iter()
            .zip(&self.tags)
            .filter(|(s, &t)| t != 0 && s.epoch == self.stamp(rule(&s.key)))
            .count()
    }

    /// Live entries under [`one_dependency`].
    #[cfg(test)]
    fn live_len(&self) -> usize {
        self.live_len_with(one_dependency)
    }

    /// First slot of `key`'s set and the tag a way holding it carries.
    #[inline]
    fn locate(&self, key: &FlowKey) -> (usize, u8) {
        let h = key.hash();
        ((h as usize & self.set_mask) * WAYS, fingerprint(h))
    }

    /// The way of `key`'s set holding `key`, scanning tags first.
    #[inline]
    fn find(&self, key: &FlowKey) -> Option<usize> {
        let (base, fp) = self.locate(key);
        let tags = &self.tags[base..base + WAYS];
        let slots = &self.slots[base..base + WAYS];
        let way = tags
            .iter()
            .zip(slots)
            .position(|(&tag, slot)| tag == fp && slot.key == *key);
        way.map(|w| base + w)
    }

    /// Pass 1 of a batch window: load what pass 2's [`lookup`]s (and
    /// the [`insert`]s after its misses) will read, with no side effect
    /// on the cache. Returns a bitmask of the keys whose tags already
    /// say the lookup will miss, so the caller can touch its slow
    /// path's state for those too.
    ///
    /// Two short loops over independent loads — every tag line, then
    /// every slot — instead of one long per-packet iteration: a slot's
    /// address depends on its tag line, and with the dependent pair
    /// inside one iteration the out-of-order window holds two or three
    /// packets and the misses queue. Split, a window's slot fetches are
    /// all in flight together. The crate forbids `unsafe`, so there is
    /// no prefetch intrinsic: these are plain loads kept alive by
    /// `black_box`, which costs the core the same miss slot and
    /// nothing else.
    ///
    /// [`lookup`]: Self::lookup
    /// [`insert`]: Self::insert
    pub(crate) fn touch_window(&self, keys: &[Option<FlowKey>; BATCH_WINDOW]) -> u32 {
        const NONE: usize = usize::MAX;
        if self.resident <= L2_RESIDENT_PLANS {
            // The plans in use fit a core's L2: there is no miss to
            // overlap, and the §5.1 path should not pay for the loads.
            return 0;
        }
        let mut bases = [NONE; BATCH_WINDOW];
        let mut found = [NONE; BATCH_WINDOW];
        for ((key, base), found) in keys.iter().zip(&mut bases).zip(&mut found) {
            let Some(key) = key else { continue };
            let (b, fp) = self.locate(key);
            *base = b;
            // Last match wins scanning backwards: the first matching
            // way, as `find` picks it, without a branch per tag.
            for (w, &tag) in self.tags[b..b + WAYS].iter().enumerate().rev() {
                if tag == fp {
                    *found = b + w;
                }
            }
        }
        let mut misses = 0u32;
        for (i, (&base, &found)) in bases.iter().zip(&found).enumerate() {
            if found != NONE {
                // A hit reads the whole slot: first word to last op.
                let slot = &self.slots[found];
                std::hint::black_box((slot.key.0[0], slot.plan.ops[INLINE_OPS - 1]));
            } else if base != NONE {
                misses |= 1 << i;
                // The insert after the miss reads the epoch of every
                // occupied way up to the first free one, and writes there.
                for w in base..base + WAYS {
                    std::hint::black_box(self.slots[w].epoch);
                    if self.tags[w] == 0 {
                        break;
                    }
                }
            }
        }
        misses
    }

    /// Look up a plan. Counts a hit or a miss; a stale entry is
    /// discarded (counted as an invalidation *and* a miss).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<PlanView<'_>> {
        self.lookup_with(key, one_dependency)
    }

    /// [`lookup`](Self::lookup) with plans stamped under `rule`.
    #[inline(always)]
    fn lookup_with(
        &mut self,
        key: &FlowKey,
        rule: impl Fn(&FlowKey) -> u32,
    ) -> Option<PlanView<'_>> {
        if let Some(i) = self.find(key) {
            if self.slots[i].epoch == self.stamp(rule(key)) {
                self.stats.hits += 1;
                return Some(self.slots[i].plan.view());
            }
            self.tags[i] = 0;
            self.resident -= 1;
            self.stats.invalidations += 1;
        }
        self.stats.misses += 1;
        None
    }

    /// Insert a plan recorded now. Prefers the entry's own slot
    /// (re-record) or an empty/stale way; otherwise evicts round-robin
    /// within the set. A plan that does not fit an [`InlinePlan`] is
    /// refused: nothing is cached and nothing changes.
    pub fn insert(&mut self, key: FlowKey, plan: impl TryInto<InlinePlan>) {
        self.insert_with(key, plan, one_dependency);
    }

    /// [`insert`](Self::insert) with plans stamped under `rule`: a way is
    /// stale when its stamp is not its own key's.
    #[inline(always)]
    fn insert_with(
        &mut self,
        key: FlowKey,
        plan: impl TryInto<InlinePlan>,
        rule: impl Fn(&FlowKey) -> u32,
    ) {
        let Ok(plan) = plan.try_into() else { return };
        let (base, fp) = self.locate(&key);
        // Same key or a free/stale way first.
        let preferred = (base..base + WAYS).find(|&i| {
            let s = &self.slots[i];
            self.tags[i] == 0
                || (self.tags[i] == fp && s.key == key)
                || s.epoch != self.stamp(rule(&s.key))
        });
        let i = match preferred {
            Some(i) => {
                self.resident += usize::from(self.tags[i] == 0);
                i
            }
            None => {
                let set = base / WAYS;
                let w = usize::from(self.victim[set]) % WAYS;
                self.victim[set] = self.victim[set].wrapping_add(1);
                self.stats.evictions += 1;
                base + w
            }
        };
        self.tags[i] = fp;
        self.slots[i] = Slot {
            key,
            epoch: self.stamp(rule(&key)),
            plan,
        };
    }
}

/// What a [`FlowFront`] drives: a processor minus its flow cache.
pub trait FlowProgram {
    /// Whether a packet in this context may be served from the cache.
    fn cacheable(&self, ctx: &ProcessContext) -> bool;

    /// The full path. With `rec` it records what it does: the plan the
    /// front caches and the stage attributions it stamps.
    fn slow_path(
        &mut self,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
        rec: Option<&mut PlanRecorder>,
    ) -> Verdict;

    /// A packet is about to be served from a plan: the counters its
    /// replay increments.
    fn hit(&mut self) -> &mut CounterBank;

    /// Load what the slow path will read for `key`, whose lookup a
    /// batch window's first pass predicts will miss.
    fn touch_miss(&self, _key: &FlowKey) {}

    /// The table key the slow path reads for `key`: its plan stays live
    /// until [`FlowFront::bump_dependency`] of that key or
    /// [`FlowFront::bump_epoch`]. By default every plan has one
    /// dependency, and only `bump_epoch` invalidates.
    fn dependency(key: &FlowKey) -> u32 {
        one_dependency(key)
    }
}

/// The microflow cache as a processor owns it: the [`FlowCache`], the
/// switches for it and for flight stamping, and the one policy for when
/// a packet takes a memoised plan and how a window is prefetched. The
/// owner bumps a dependency or the epoch on every write plans were
/// resolved against.
#[derive(Debug)]
pub struct FlowFront {
    pub(crate) cache: FlowCache,
    cache_enabled: bool,
    /// Flight-recorder stamping switch (off by default: the hot path
    /// pays one predictable branch per packet for it).
    flight_enabled: bool,
    /// Stamp of the most recently processed packet while stamping is on.
    last_flight: Option<FlightStamp>,
}

impl FlowFront {
    /// A front over a cache of about `flows` plans, both switches off.
    pub fn new(flows: usize) -> FlowFront {
        FlowFront {
            cache: FlowCache::new(flows),
            cache_enabled: false,
            flight_enabled: false,
            last_flight: None,
        }
    }

    /// Invalidate every plan in O(1): call when a table is cleared or
    /// replaced wholesale.
    pub fn bump_epoch(&mut self) {
        self.cache.bump_epoch();
    }

    /// Invalidate in O(1) the plans whose [`FlowProgram::dependency`] is
    /// `dep`: call on every write of table key `dep`.
    pub fn bump_dependency(&mut self, dep: u32) {
        self.cache.bump_dependency(dep);
    }

    /// [`PacketProcessor::set_flow_cache`](crate::PacketProcessor::set_flow_cache).
    pub fn set_flow_cache(&mut self, enabled: bool) -> bool {
        self.cache_enabled = enabled;
        true
    }

    /// [`PacketProcessor::set_flight_recording`](crate::PacketProcessor::set_flight_recording).
    pub fn set_flight_recording(&mut self, enabled: bool) -> bool {
        self.flight_enabled = enabled;
        if !enabled {
            self.last_flight = None;
        }
        true
    }

    /// [`PacketProcessor::flight_stamp`](crate::PacketProcessor::flight_stamp).
    pub fn flight_stamp(&self) -> Option<FlightStamp> {
        self.last_flight.clone()
    }

    /// [`PacketProcessor::cache_stats`](crate::PacketProcessor::cache_stats).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    /// [`PacketProcessor::cache_occupancy`](crate::PacketProcessor::cache_occupancy).
    pub fn cache_occupancy(&self) -> Option<u64> {
        Some(self.cache.resident() as u64)
    }

    /// The key the cache is consulted under: the hint's, extracted now
    /// if the dispatcher did not, or `None` when the cache is off, the
    /// program rules the packet out or the frame has no canonical key.
    #[inline(always)]
    fn key(
        &self,
        cacheable: bool,
        ctx: &ProcessContext,
        packet: &[u8],
        hint: KeyHint,
    ) -> Option<FlowKey> {
        if self.cache_enabled && cacheable {
            hint.resolve(packet, ctx.direction)
        } else {
            None
        }
    }

    /// Process one packet under its [`key`](Self::key); `None` takes the
    /// slow path without consulting the cache.
    fn process_keyed<P: FlowProgram>(
        &mut self,
        program: &mut P,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
        key: Option<FlowKey>,
    ) -> Verdict {
        if let Some(plan) = key.and_then(|key| self.cache.lookup_with(&key, P::dependency)) {
            // Fast path: no parse, no table lookup, no checksum
            // recompute. The recorded stage footprint stamps the packet
            // as the slow path did (only `cache_hit` tells them apart).
            if self.flight_enabled {
                self.last_flight = Some(stamp_stages(true, plan.stage_stats.iter()));
            }
            return replay(plan, packet, program.hit());
        }
        // Miss or no key: the full path, recorded when there is a plan
        // to cache for the flow's next packet or a stamp to build.
        let mut rec = PlanRecorder::new();
        let recording = key.is_some() || self.flight_enabled;
        let verdict = program.slow_path(ctx, packet, recording.then_some(&mut rec));
        if self.flight_enabled {
            self.last_flight = Some(stamp_stages(false, rec.plan.view().stage_stats.iter()));
        }
        if let (Some(key), Some(plan)) = (key, rec.finish(verdict)) {
            self.cache.insert_with(key, plan, P::dependency);
        }
        verdict
    }

    /// [`PacketProcessor::process`](crate::PacketProcessor::process) for
    /// `program` behind this front.
    #[inline]
    pub fn process(
        &mut self,
        program: &mut impl FlowProgram,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
    ) -> Verdict {
        let key = self.key(program.cacheable(ctx), ctx, packet, KeyHint::Unknown);
        self.process_keyed(program, ctx, packet, key)
    }

    /// [`PacketProcessor::process_batch`](crate::PacketProcessor::process_batch)
    /// for `program` behind this front.
    #[inline]
    pub fn process_batch(&mut self, program: &mut impl FlowProgram, batch: &mut [BatchPacket]) {
        for window in batch.chunks_mut(BATCH_WINDOW) {
            // Pass 1: resolve every slot's key once (honoring the
            // dispatcher's pre-parsed hint) and touch what pass 2 will
            // read — the cache sets, then the program's own state for
            // the packets whose tags already say the cache will miss —
            // so the window's cache misses overlap instead of queueing.
            let mut keys = [None; BATCH_WINDOW];
            for (slot, key) in window.iter().zip(&mut keys) {
                *key = self.key(
                    program.cacheable(&slot.ctx),
                    &slot.ctx,
                    &slot.frame,
                    slot.key,
                );
            }
            let mut misses = self.cache.touch_window(&keys);
            while misses != 0 {
                if let Some(key) = &keys[misses.trailing_zeros() as usize] {
                    program.touch_miss(key);
                }
                misses &= misses - 1;
            }
            // Pass 2: the per-packet logic, in order — a miss on one
            // packet still makes the next packet of its flow hit.
            for (slot, key) in window.iter_mut().zip(keys) {
                slot.verdict = self.process_keyed(program, &slot.ctx, &mut slot.frame, key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    const SRC: u32 = 0xc0a8_0001;
    const DST: u32 = 0x0a00_0002;

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

    fn plan(ops: Vec<PlanOp>) -> ActionPlan {
        ActionPlan {
            ops,
            verdict: Verdict::Forward,
            stage_stats: Vec::new(),
            cycles: 7,
        }
    }

    fn inline(ops: Vec<PlanOp>) -> InlinePlan {
        plan(ops).try_into().unwrap()
    }

    #[test]
    fn key_extracts_for_canonical_udp() {
        let f = udp_frame();
        let k = FlowKey::extract(&f, Direction::EdgeToOptical).unwrap();
        // Same frame, other direction: different key.
        let k2 = FlowKey::extract(&f, Direction::OpticalToEdge).unwrap();
        assert_ne!(k, k2);
        // Different source port: different key.
        let f2 = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            1001,
            2000,
            b"pp",
        );
        assert_ne!(FlowKey::extract(&f2, Direction::EdgeToOptical).unwrap(), k);
        // Same 5-tuple, different payload: same key.
        let f3 = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            1000,
            2000,
            b"qq",
        );
        assert_eq!(FlowKey::extract(&f3, Direction::EdgeToOptical).unwrap(), k);
    }

    #[test]
    fn key_accessors_invert_the_packing() {
        let f = udp_frame();
        let k = FlowKey::extract(&f, Direction::EdgeToOptical).unwrap();
        assert_eq!(k.vlan_count(), 0);
        assert!(k.l4_valid());
        assert!(!k.is_fragment());
        assert_eq!(k.proto(), 17);
        assert_eq!(k.src_ip(), SRC);
        assert_eq!(k.dst_ip(), DST);
        assert_eq!(k.src_port(), 1000);
        assert_eq!(k.dst_port(), 2000);
        // Tagged frame: vlan count tracks the stack.
        let tagged = PacketBuilder::with_vlan(&f, 100, 3);
        let kt = FlowKey::extract(&tagged, Direction::EdgeToOptical).unwrap();
        assert_eq!(kt.vlan_count(), 1);
        assert_eq!(kt.src_ip(), SRC);
        // Fragment: L4 invalid, ports zeroed, fragment bit visible.
        let mut frag = udp_frame();
        {
            let mut ip = flexsfp_wire::ipv4::Ipv4Packet::new_unchecked(&mut frag[14..]);
            ip.set_fragment(false, true, 100);
            ip.fill_checksum();
        }
        let kf = FlowKey::extract(&frag, Direction::EdgeToOptical).unwrap();
        assert!(!kf.l4_valid());
        assert!(kf.is_fragment());
        assert_eq!(kf.src_port(), 0);
        assert_eq!(kf.proto(), 17);
    }

    #[test]
    fn key_hint_resolves_without_reparsing() {
        let f = udp_frame();
        let dir = Direction::EdgeToOptical;
        let k = FlowKey::extract(&f, dir).unwrap();
        assert_eq!(KeyHint::compute(&f, dir), KeyHint::Key(k));
        assert_eq!(KeyHint::Key(k).resolve(&f, dir), Some(k));
        assert_eq!(KeyHint::Unknown.resolve(&f, dir), Some(k));
        // Absent is sticky: no re-extraction even for a parsable frame.
        assert_eq!(KeyHint::Absent.resolve(&f, dir), None);
        assert_eq!(KeyHint::compute(&[0u8; 10], dir), KeyHint::Absent);
        assert_eq!(KeyHint::default(), KeyHint::Unknown);
    }

    #[test]
    fn key_rejects_non_canonical_frames() {
        // Non-IP.
        let arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            EtherType::Arp,
            &[0u8; 28],
        );
        assert!(FlowKey::extract(&arp, Direction::EdgeToOptical).is_none());
        // Runt.
        assert!(FlowKey::extract(&[0u8; 10], Direction::EdgeToOptical).is_none());
        // Bad IP version nibble.
        let mut bad = udp_frame();
        bad[14] = 0x65;
        assert!(FlowKey::extract(&bad, Direction::EdgeToOptical).is_none());
        // Total-length larger than the frame.
        let mut bad = udp_frame();
        bad[16] = 0xff;
        assert!(FlowKey::extract(&bad, Direction::EdgeToOptical).is_none());
    }

    #[test]
    fn key_sees_vlan_stack() {
        let f = udp_frame();
        let tagged = PacketBuilder::with_vlan(&f, 100, 3);
        let k0 = FlowKey::extract(&f, Direction::EdgeToOptical).unwrap();
        let k1 = FlowKey::extract(&tagged, Direction::EdgeToOptical).unwrap();
        assert_ne!(k0, k1);
        // Different VID: different key.
        let tagged2 = PacketBuilder::with_vlan(&f, 101, 3);
        assert_ne!(
            FlowKey::extract(&tagged2, Direction::EdgeToOptical).unwrap(),
            k1
        );
    }

    #[test]
    fn key_l4_bits_track_parser() {
        // A fragment (offset != 0) has no L4 in the parser; the key
        // must differ from the first-fragment key.
        let mut frag = udp_frame();
        {
            let mut ip = flexsfp_wire::ipv4::Ipv4Packet::new_unchecked(&mut frag[14..]);
            ip.set_fragment(false, true, 100);
            ip.fill_checksum();
        }
        let whole = udp_frame();
        let kw = FlowKey::extract(&whole, Direction::EdgeToOptical).unwrap();
        let kf = FlowKey::extract(&frag, Direction::EdgeToOptical).unwrap();
        assert_ne!(kw, kf);
        let parsed = Parser.parse(&frag).unwrap();
        assert_eq!(parsed.l4, L4::Other);
    }

    /// A plan recorded while `apply` edits one packet, then replayed on a
    /// fresh copy of it: both must land on the bytes a reference written
    /// with `flexsfp_wire` alone computes. The seeded matrix (every pure
    /// action, second packets of a flow) is `tests/oracle.rs`.
    #[test]
    fn replay_matches_slow_path_rewrite() {
        use crate::action::{ActionEngine, ActionOutcome};
        use flexsfp_wire::ipv4::Ipv4Packet;
        let new_src = 0x6540_0001;
        // Reference: the IP header's own incremental rewrite, then the
        // same RFC 1624 update on the UDP checksum at 14 + 20 + 6.
        let mut want = udp_frame();
        Ipv4Packet::new_unchecked(&mut want[14..]).rewrite_src_incremental(new_src);
        let udp_check = u16::from_be_bytes([want[40], want[41]]);
        want[40..42].copy_from_slice(&checksum::update32(udp_check, SRC, new_src).to_be_bytes());
        // Slow path, recording.
        let mut slow = udp_frame();
        let parsed = Parser.parse(&slow).unwrap();
        let mut engine = ActionEngine::new(4);
        let mut rec = PlanRecorder::new();
        for (action, modified) in [
            (Action::SetIpv4Src(new_src), true),
            (Action::Count(0), false),
        ] {
            let out = engine.apply(action, &mut slow, &parsed, Some(&mut rec));
            assert_eq!(out, ActionOutcome::Continue { modified });
        }
        assert_eq!(slow, want, "slow-path bytes must equal the reference");
        // Replay on a fresh copy of the same flow.
        let plan = rec.finish(Verdict::Forward).unwrap();
        assert_eq!(plan.view().ops.len(), 4);
        let mut fast = udp_frame();
        let mut bank = CounterBank::new(4);
        assert_eq!(replay(plan.view(), &mut fast, &mut bank), Verdict::Forward);
        assert_eq!(fast, want, "replayed bytes must equal the reference");
        assert_eq!(bank.get(0), engine.counters.get(0));
        assert_eq!(bank.get(0).packets, 1);
    }

    #[test]
    fn replay_udp_zero_checksum_skipped() {
        let mut zeroed = udp_frame();
        // Zero the UDP checksum (legal: "no checksum computed").
        zeroed[40] = 0;
        zeroed[41] = 0;
        let plan = inline(vec![PlanOp::IncrCheck {
            offset: 40,
            delta: checksum::delta32(SRC, 0x6540_0001),
            udp: true,
        }]);
        let before = zeroed.clone();
        let mut bank = CounterBank::new(1);
        replay(plan.view(), &mut zeroed, &mut bank);
        assert_eq!(zeroed, before, "zero UDP checksum must stay zero");
    }

    #[test]
    fn push_pop_tag_round_trip() {
        let orig = udp_frame();
        let mut pkt = orig.clone();
        let mut bank = CounterBank::new(1);
        let push = inline(vec![PlanOp::PushTag {
            bytes: [0x81, 0x00, 0x00, 0x64],
        }]);
        replay(push.view(), &mut pkt, &mut bank);
        assert_eq!(Parser.parse(&pkt).unwrap().vlans, vec![100u16]);
        let pop = inline(vec![PlanOp::PopTag]);
        replay(pop.view(), &mut pkt, &mut bank);
        assert_eq!(pkt, orig);
    }

    #[test]
    fn cache_hit_miss_and_eviction_counters() {
        let mut c = FlowCache::new(8); // 2 sets × 4 ways
        let f = udp_frame();
        let k = FlowKey::extract(&f, Direction::EdgeToOptical).unwrap();
        assert!(c.lookup(&k).is_none());
        c.insert(k, plan(vec![]));
        assert!(c.lookup(&k).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // Overfill one set far beyond its ways: evictions must occur.
        for sport in 0..64u16 {
            let f = PacketBuilder::eth_ipv4_udp(
                MacAddr([1; 6]),
                MacAddr([2; 6]),
                SRC,
                DST,
                sport,
                2000,
                b"x",
            );
            let k = FlowKey::extract(&f, Direction::EdgeToOptical).unwrap();
            c.insert(k, plan(vec![]));
        }
        assert!(c.stats().evictions > 0);
        assert!(c.live_len() <= 8);
    }

    fn flow_key(sport: u16) -> FlowKey {
        let f = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            DST,
            sport,
            2000,
            b"x",
        );
        FlowKey::extract(&f, Direction::EdgeToOptical).unwrap()
    }

    #[test]
    fn resident_gauge_tracks_slot_transitions() {
        let mut c = FlowCache::new(8);
        let k = flow_key(1);
        assert_eq!(c.resident(), 0);
        c.insert(k, plan(vec![]));
        assert_eq!(c.resident(), 1);
        c.insert(k, plan(vec![])); // re-record: same slot
        assert_eq!(c.resident(), 1);
        // A stale plan still occupies memory until a lookup discards it.
        c.bump_epoch();
        assert_eq!(c.resident(), 1);
        assert_eq!(c.live_len(), 0);
        assert!(c.lookup(&k).is_none());
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn epoch_bump_invalidates_stale_plans() {
        let mut c = FlowCache::new(8);
        let k = FlowKey::extract(&udp_frame(), Direction::EdgeToOptical).unwrap();
        c.insert(k, plan(vec![]));
        assert!(c.lookup(&k).is_some());
        c.bump_epoch();
        assert!(c.lookup(&k).is_none(), "stale plan must not replay");
        assert_eq!(c.stats().invalidations, 1);
        // Re-recorded under the new epoch: live again.
        c.insert(k, plan(vec![]));
        assert!(c.lookup(&k).is_some());
    }

    #[test]
    fn recorder_invalidation_blocks_caching() {
        let mut f = udp_frame();
        let parsed = Parser.parse(&f).unwrap();
        assert!(compile_action(&Action::DecapTunnel, &f, &parsed).is_none());
        let mut rec = PlanRecorder::new();
        crate::action::ActionEngine::new(0).apply(
            Action::DecapTunnel,
            &mut f,
            &parsed,
            Some(&mut rec),
        );
        assert!(rec.finish(Verdict::Forward).is_none());
        let rec = PlanRecorder::new();
        assert!(rec.finish(Verdict::ToControlPlane).is_none());
    }

    #[test]
    fn recorder_refuses_what_the_inline_form_cannot_hold() {
        let full = || {
            let mut rec = PlanRecorder::new();
            for i in 0..INLINE_OPS as u32 {
                rec.push(PlanOp::Count { index: i });
            }
            rec.stage_stat(0, true);
            rec.stage_stat(1, false);
            rec
        };
        // Exactly INLINE_OPS ops and dense stats: recorded in full.
        let fits = full().finish(Verdict::Drop).unwrap();
        let v = fits.view();
        assert_eq!(v.ops.len(), INLINE_OPS);
        assert_eq!(v.ops[3], PlanOp::Count { index: 3 });
        assert_eq!(
            v.stage_stats.iter().collect::<Vec<_>>(),
            [(0, true), (1, false)]
        );
        assert_eq!(v.verdict, Verdict::Drop);
        // One op more or an out-of-order stage each make the flow
        // uncacheable, whatever is recorded afterwards.
        let overflow: [fn(&mut PlanRecorder); 2] =
            [|r| r.push(PlanOp::PopTag), |r| r.stage_stat(5, true)];
        for outgrow in overflow {
            let mut rec = full();
            outgrow(&mut rec);
            rec.stage_stat(2, true);
            assert!(rec.finish(Verdict::Forward).is_none());
        }
    }

    /// The obvious cache the real one must be indistinguishable from:
    /// per-set vectors of `(key, (global, dependency) epochs, valid,
    /// plan)`, 64-bit epochs, heap plans, and the fit rule, the staleness
    /// rule and the insert preference spelled out.
    struct ModelCache {
        sets: Vec<Vec<ModelWay>>,
        victim: Vec<u8>,
        global: u64,
        /// Per dependency bucket.
        deps: Vec<u64>,
        rule: Box<dyn Fn(&FlowKey) -> u32>,
        stats: CacheStats,
    }

    type ModelWay = (FlowKey, (u64, u64), bool, ActionPlan);

    impl ModelCache {
        fn new(sets: usize, rule: impl Fn(&FlowKey) -> u32 + 'static) -> ModelCache {
            let empty = (FlowKey([0; 3]), (0, 0), false, plan(vec![]));
            ModelCache {
                sets: vec![vec![empty; WAYS]; sets],
                victim: vec![0; sets],
                global: 0,
                deps: vec![0; DEP_BUCKETS],
                rule: Box::new(rule),
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, key: &FlowKey) -> usize {
            key.hash() as usize & (self.sets.len() - 1)
        }

        /// The epochs a plan for `key` recorded now carries.
        fn epochs(&self, key: &FlowKey) -> (u64, u64) {
            (self.global, self.deps[dep_bucket((self.rule)(key))])
        }

        fn bump_dependency(&mut self, dep: u32) {
            self.deps[dep_bucket(dep)] += 1;
        }

        fn lookup(&mut self, key: &FlowKey) -> Option<ActionPlan> {
            let set = self.set_of(key);
            let now = self.epochs(key);
            for way in &mut self.sets[set] {
                if way.2 && way.0 == *key {
                    if way.1 == now {
                        self.stats.hits += 1;
                        return Some(way.3.clone());
                    }
                    way.2 = false;
                    self.stats.invalidations += 1;
                    break;
                }
            }
            self.stats.misses += 1;
            None
        }

        /// What a slot can hold: [`INLINE_OPS`] ops, stages `0..n` in
        /// order up to [`INLINE_STAGES`].
        fn fits(plan: &ActionPlan) -> bool {
            plan.ops.len() <= INLINE_OPS
                && plan.stage_stats.len() <= INLINE_STAGES
                && (0u8..).zip(&plan.stage_stats).all(|(i, s)| s.0 == i)
        }

        fn insert(&mut self, key: FlowKey, plan: ActionPlan) {
            if !ModelCache::fits(&plan) {
                return; // refused: not cached, nothing changes
            }
            let set = self.set_of(&key);
            // Each way's own epochs: a way is stale when they moved.
            let now: Vec<_> = self.sets[set].iter().map(|w| self.epochs(&w.0)).collect();
            let entry = (key, self.epochs(&key), true, plan);
            let ways = &mut self.sets[set];
            // Same key → free → stale, in way order; else round-robin.
            if let Some(way) = ways
                .iter_mut()
                .zip(now)
                .find(|(w, now)| !w.2 || w.0 == key || w.1 != *now)
            {
                *way.0 = entry;
                return;
            }
            let w = usize::from(self.victim[set]) % ways.len();
            self.victim[set] = self.victim[set].wrapping_add(1);
            ways[w] = entry;
            self.stats.evictions += 1;
        }

        fn resident(&self) -> usize {
            self.sets.iter().flatten().filter(|w| w.2).count()
        }

        fn live_len(&self) -> usize {
            let live = |w: &&ModelWay| w.2 && w.1 == self.epochs(&w.0);
            self.sets.iter().flatten().filter(live).count()
        }
    }

    fn owned(v: PlanView<'_>) -> ActionPlan {
        ActionPlan {
            ops: v.ops.to_vec(),
            verdict: v.verdict,
            stage_stats: v.stage_stats.iter().collect(),
            cycles: 0,
        }
    }

    /// Seeded random insert/lookup/bump sequences over 1, 4 and 8 sets
    /// — with plans on both sides of every inline limit, global bumps
    /// beside dependency bumps (two dependencies share a bucket, one
    /// belongs to no key), and one run taken across the bump-count wrap
    /// — must be indistinguishable from the model on every observable.
    #[test]
    fn cache_matches_the_obvious_model() {
        let mut state = 0x5eed_cafe_f00d_0001u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let twin = (1..).find(|&d| dep_bucket(d) == dep_bucket(0)).unwrap();
        // The keys' six dependencies, then one no key has.
        let dep_values = [0, twin, 1, 2, 3, 4, 0xdead_beef];
        let rule = move |key: &FlowKey| dep_values[(key.0[0] % 6) as usize];
        for (sets, near_wrap) in [(1, false), (4, false), (8, false), (4, true)] {
            let mut cache = FlowCache::new(sets * WAYS);
            let mut model = ModelCache::new(sets, rule);
            assert_eq!(cache.capacity(), sets * WAYS);
            let (mut refused, mut cached) = (0, 0);
            let mut crossed = !near_wrap;
            for step in 0..30_000 {
                if !crossed && cache.bumps > 2 && cache.live_len_with(rule) > 2 {
                    // Skip ahead to one bump short of the wrap, as if the
                    // bumps between had all been global, then bump across
                    // it and replay the bumps that brought every epoch to
                    // where it stands now: this epoch's plans are still
                    // resident, and unless the wrap restamped them look
                    // current.
                    crossed = true;
                    let (global, deps, bumps) = (cache.global, cache.deps.clone(), cache.bumps);
                    let skip = STALE_EPOCH - 1 - bumps;
                    (cache.global, cache.bumps) = (global + skip, bumps + skip);
                    model.global += u64::from(skip);
                    for _ in 0..=global {
                        cache.bump_epoch();
                        model.global += 1;
                    }
                    for (b, &n) in deps.iter().enumerate().filter(|(_, &n)| n > 0) {
                        let dep = *dep_values.iter().find(|&&d| dep_bucket(d) == b).unwrap();
                        for _ in 0..n {
                            cache.bump_dependency(dep);
                            model.bump_dependency(dep);
                        }
                    }
                    assert_eq!(
                        (cache.global, &cache.deps, cache.bumps),
                        (global, &deps, bumps)
                    );
                    assert_eq!(cache.live_len_with(rule), 0);
                }
                // 48 keys over at most 32 ways: every set overflows.
                let k = next() % 48;
                let key = FlowKey([k, k.wrapping_mul(0x9e37_79b9), k << 7]);
                match next() % 20 {
                    0..=9 => {
                        let got = cache.lookup_with(&key, rule).map(owned);
                        assert_eq!(got, model.lookup(&key), "step {step}");
                    }
                    10..=17 => {
                        // 0..=6 ops; stats dense or not.
                        let r = next();
                        let n_stats = (r >> 8) % 4;
                        let p = ActionPlan {
                            ops: (0..r % 7)
                                .map(|i| PlanOp::Count {
                                    index: (r >> 16) as u32 + i as u32,
                                })
                                .collect(),
                            verdict: if r & 0x80 == 0 {
                                Verdict::Forward
                            } else {
                                Verdict::Drop
                            },
                            stage_stats: (0..n_stats)
                                .map(|i| {
                                    (((r >> 40) % 8 == 0) as u8 + i as u8, r >> (20 + i) & 1 == 1)
                                })
                                .collect(),
                            cycles: 0,
                        };
                        if ModelCache::fits(&p) {
                            cached += 1;
                        } else {
                            refused += 1;
                        }
                        cache.insert_with(key, p.clone(), rule);
                        model.insert(key, p);
                    }
                    18 => {
                        cache.bump_epoch();
                        model.global += 1;
                    }
                    _ => {
                        let dep = dep_values[(next() % 7) as usize];
                        cache.bump_dependency(dep);
                        model.bump_dependency(dep);
                    }
                }
                assert_eq!(cache.stats(), model.stats, "step {step}");
                assert_eq!(cache.resident(), model.resident(), "step {step}");
                if step % 64 == 0 {
                    assert_eq!(cache.live_len_with(rule), model.live_len(), "step {step}");
                }
            }
            assert!(refused > 1_000 && cached > 1_000, "{refused} / {cached}");
            assert!(cache.stats().evictions > 0 && cache.stats().invalidations > 0);
            assert!(crossed, "the bump count never wrapped");
        }
    }

    #[test]
    fn touch_window_predicts_misses_and_changes_nothing() {
        let key = |i: u64| FlowKey([i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i << 9]);
        let absent = key(1_000_000);
        let mut c = FlowCache::new(16_384);
        c.insert(key(0), plan(vec![]));
        let mut window = [None; BATCH_WINDOW];
        window[3] = Some(absent);
        // While the resident plans fit an L2 there is nothing to touch,
        // and so nothing is predicted.
        assert_eq!(c.touch_window(&window), 0);
        for i in 1..8_000 {
            c.insert(key(i), plan(vec![]));
        }
        assert!(c.resident() > L2_RESIDENT_PLANS);
        let present = (0..8_000).map(key).find(|k| c.find(k).is_some());
        window[0] = present;
        let (stats, resident) = (c.stats(), c.resident());
        // Slot 0 holds a resident key, slot 3 an absent one, the rest
        // carry no key: only slot 3 is a predicted miss.
        assert_eq!(c.touch_window(&window), 1 << 3);
        assert_eq!((c.stats(), c.resident()), (stats, resident));
        assert!(c.lookup(&present.unwrap()).is_some());
        assert!(c.lookup(&absent).is_none());
    }

    /// Global and dependency bumps share one count, and whichever bump
    /// takes it to the wrap restamps every resident plan: the epochs
    /// restart at zero, where a plan from 2³² bumps ago was stamped.
    #[test]
    fn dependency_epoch_wrap_never_revives_a_plan() {
        let rule = |key: &FlowKey| key.src_ip();
        for global_wraps in [false, true] {
            let mut c = FlowCache::new(8);
            let old = flow_key(1);
            c.insert_with(old, plan(vec![]), rule);
            // `old` was stamped 0. Pretend 2³² − 2 bumps of other
            // dependencies went by without a lookup of it; the next
            // bump, of yet another dependency or global, wraps.
            c.bumps = STALE_EPOCH - 1;
            if global_wraps {
                c.bump_epoch();
            } else {
                c.bump_dependency(SRC + 1);
            }
            assert_eq!((c.global, c.bumps, c.stamp(SRC)), (0, 0, 0));
            assert_eq!((c.resident(), c.live_len_with(rule)), (1, 0));
            assert!(
                c.lookup_with(&old, rule).is_none(),
                "a plan from 2^32 bumps ago replayed"
            );
            assert_eq!(c.stats().invalidations, 1);
            assert_eq!(c.resident(), 0);
        }
    }
}
