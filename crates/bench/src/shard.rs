//! The sharded multicore dataplane: one simulation spread across every
//! core, digest-identical to the serial path.
//!
//! `run_stream_with` drives one [`FlexSfp`] on one thread — `mpps` in the
//! committed `BENCH_throughput.json`, and the ceiling for every rack-
//! and city-scale experiment built on top of it. This module splits a single workload
//! across N per-core module instances the way an RSS-capable NIC
//! splits a line into queues:
//!
//! 1. **Dispatch** — the dispatcher extracts each frame's microflow
//!    key ([`flexsfp_ppe::FlowKey`]) exactly once and derives
//!    everything from it: the CRC-32 flow hash that picks the shard
//!    (`hash_of_key`), the control-plane negative filter
//!    ([`ControlPlane::may_classify`]), and the key hint the shard's
//!    flow cache will use — no stage downstream re-parses the frame.
//!    Frames the key cannot describe (non-IPv4, options, deep tag
//!    stacks) take `slow_flow_hash`, a full shallow parse that
//!    agrees with the fused path wherever both are defined (the
//!    parse-edge-case suite pins this). Frames the control plane
//!    claims are *broadcast* to all shards (see below).
//! 2. **Per-shard modules** — each shard is a full [`FlexSfp`] (its
//!    own flow cache, PPE server model, flight recorder, windowed
//!    telemetry), fed over a bounded SPSC ring
//!    ([`flexsfp_fabric::ring`]) whose slots hold whole chunks of up
//!    to `CHUNK` messages, swapped under one lock and one publish.
//!    The dispatcher plus `min(shards, threads − 1)` workers run
//!    ([`par::effective_parallelism`]), each worker stepping the lanes
//!    of shards `w, w + W, …` round-robin. A lane touches every frame
//!    of a chunk before it handles any: the dispatcher's core wrote
//!    them, and misses taken together overlap where one per packet
//!    stalls. Chunk buffers are all made at set-up
//!    ([`ShardedRun::chunk_allocs`]); frames cross the rings as moves,
//!    and the only copy is the control-frame broadcast
//!    ([`ShardedRun::frame_copies`]).
//! 3. **Reconcile** — a sequence-indexed window buffer merges the
//!    shard output streams back into exactly the serial sink order.
//!    Watermarks make the merge safe and bounded: at a per-transport
//!    cadence ([`BARRIER_EVERY`] threaded, `INLINE_BARRIER_EVERY`
//!    inline) the dispatcher broadcasts a flush barrier; a shard that
//!    has flushed everything up to sequence `s` says so, and the
//!    window releases outputs only below the minimum watermark across
//!    shards — an O(1) slot write per output and an O(1) pop per
//!    release, no heap.
//!
//! # Why the digest cannot change
//!
//! Serial `run_stream_with` emits outputs in global input order (the
//! batched pipeline drains in admission order, and every out-of-band
//! path — control, microservice, bypass — flushes the batch before
//! emitting). The reconciler reproduces exactly that order from the
//! tags. The *contents* of each output match because every §3
//! application keys its dataplane state by flow or by source, and the
//! dispatch hash maps each flow to exactly one shard; control-plane
//! mutations (table writes, reboots) are broadcast to every shard in
//! stream position, so all shards make the same state transitions the
//! serial module makes. Departure *times* match because the PPE
//! queueing model is work-conserving and the offered loads of the
//! golden workloads never backlog the server (utilization ≤ 1), so a
//! packet's departure depends only on its own arrival and length —
//! not on queue-mates that may now live on other shards. The digest
//! parity suite (`stream_parity`) pins all of this for all 11 apps at
//! 1/2/4/8 shards, down to the exact mean latency (the histogram sum
//! is an integer, so per-shard merges are bit-exact).
//!
//! Control frames are answered by shard 0 only (the *primary*);
//! replicas apply the mutation but suppress the duplicate response.
//! The merged [`SimReport`] therefore takes `control_handled` from the
//! primary, input accounting from the dispatcher (broadcasts would
//! double-count), and sums or max-merges everything else; latency
//! histograms merge exactly.

use crate::par;
use flexsfp_core::module::{OutputPacket, PPE_BATCH};
use flexsfp_core::{ControlPlane, FlexSfp, ModuleConfig, SimPacket, SimReport, StreamSession};
use flexsfp_fabric::hash::crc32;
use flexsfp_fabric::ring::{channel, Consumer, Producer};
use flexsfp_obs::TelemetrySnapshot;
use flexsfp_ppe::{Direction, FlowKey, KeyHint};
use flexsfp_wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, Ipv6Packet, VlanFrame};
use std::collections::VecDeque;

/// Messages staged per ring crossing: one slot lock and one position
/// publish per `CHUNK` packets instead of per packet.
pub(crate) const CHUNK: usize = 64;
/// Capacity of a shard→dispatcher chunk buffer. A worker pushes its
/// output buffer once it holds `CHUNK` outputs, and the message that
/// gets it there can emit a whole PPE batch (or a flushed partial one
/// plus a watermark), so an output chunk runs to `CHUNK + PPE_BATCH − 1`
/// messages.
pub(crate) const OUT_CHUNK: usize = CHUNK + PPE_BATCH;
/// Depth of every dispatcher→shard and shard→dispatcher ring, in
/// chunks. It bounds the frames in flight per ring — a term of
/// `perf::sharded_arena_bound` — and with them how far the dispatcher
/// may run ahead of a shard. The two sides are a pipeline of bursty
/// stages (the dispatcher feeds nothing while it releases a barrier
/// interval to the sink), and backlog is what keeps one busy through
/// the other's burst: on the 2-core sandbox 8 → 32 chunks is worth a
/// tenth of the 2-shard throughput and 32 → 64 nothing, while every
/// chunk of depth keeps 128 more frames (128 B or more each) live per shard.
/// At 32 the slot buffers of a run are `2 · shards · 32` of ≈ 5.5 KB.
pub(crate) const RING_CHUNKS: usize = 32;
/// Global-sequence distance between flush barriers on the threaded
/// transport. Bounds reconciler window growth to roughly one barrier
/// interval plus the in-flight ring contents, and bounds how long a
/// shard may sit on a partial batch.
pub const BARRIER_EVERY: u64 = 4096;
/// Barrier distance on the inline transport. Every barrier flushes
/// each shard's partial PPE batch, so a tight cadence wastes batch
/// amortization (at 4 shards and a 32-packet batch, a 256 cadence
/// truncates every other batch); a loose one grows the reconciler's
/// resident window — how many output frames stay live before the sink
/// can recycle them. 1024 keeps the flush tax under a percent while
/// the window (≈48 KB of slots plus the frames) still sits in L2,
/// far inside the sharded arena bound.
pub(crate) const INLINE_BARRIER_EVERY: u64 = 1024;

/// Map a 32-bit flow hash onto `shards` buckets with a multiply-shift
/// (Lemire) reduction: uniform like `% shards` but free of the
/// per-packet integer division a runtime modulus would cost.
fn shard_index(hash: u32, shards: usize) -> usize {
    ((u64::from(hash) * shards as u64) >> 32) as usize
}

/// Take a frame's header lines into this core's cache, writable. A
/// frame the other core just wrote is a miss wherever it is first read;
/// touching a whole chunk's frames back to back lets those misses
/// overlap instead of stalling one packet at a time. The store writes
/// back the byte it read, which also claims the line for the edits
/// that follow. (No prefetch intrinsic: the workspace forbids
/// `unsafe`.)
fn touch_header(frame: &mut [u8]) {
    // The first and last of the first 64 bytes: the one or two cache
    // lines the header spans, wherever the buffer starts.
    let Some(last) = frame.len().min(64).checked_sub(1) else {
        return;
    };
    for i in [0, last] {
        frame[i] = std::hint::black_box(frame[i]);
    }
}

/// Flow hash from an already-extracted key: no frame access at all.
fn hash_of_key(key: &FlowKey) -> u32 {
    let mut tuple = [0u8; 13];
    tuple[0..4].copy_from_slice(&key.src_ip().to_be_bytes());
    tuple[4..8].copy_from_slice(&key.dst_ip().to_be_bytes());
    if key.l4_valid() {
        tuple[8] = key.proto();
        tuple[9..11].copy_from_slice(&key.src_port().to_be_bytes());
        tuple[11..13].copy_from_slice(&key.dst_port().to_be_bytes());
        crc32(&tuple)
    } else {
        // No valid L4 (fragment, other proto, truncated header): the
        // address pair alone keys the flow, so every fragment of a
        // datagram lands on the same shard.
        crc32(&tuple[0..8])
    }
}

/// The reference shallow parse, for frames outside the key's canonical
/// shape — and the oracle the fused path is property-tested against:
/// whenever [`FlowKey::extract`] succeeds, this function returns
/// exactly [`hash_of_key`] of that key.
///
/// CRC-32 (the fabric hash primitive) over the packed
/// src/dst/proto/ports 5-tuple for IPv4 with a valid first-fragment
/// L4 header, src/dst for other IPv4, the analogous tuple for IPv6
/// (with a bounded extension-header walk), and the MAC pair for
/// anything else. Up to two VLAN tags are transparent. Every packet
/// of a flow — and every non-flow frame between the same two
/// stations — lands on the same shard.
fn slow_flow_hash(frame: &[u8]) -> u32 {
    let mac_hash = |f: &[u8]| crc32(f.get(0..12).unwrap_or(f));
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return mac_hash(frame);
    };
    // Skip up to two 802.1Q/802.1ad tags so tagged, QinQ-tagged and
    // untagged packets of the same flow hash together.
    let mut ethertype = eth.ethertype();
    let mut l3 = eth.payload();
    let mut tags = 0u8;
    while ethertype.is_vlan() && tags < 2 {
        match VlanFrame::new_checked(l3) {
            Ok(v) => {
                ethertype = v.inner_ethertype();
                l3 = &l3[4..];
                tags += 1;
            }
            Err(_) => return mac_hash(frame),
        }
    }
    match ethertype {
        EtherType::Ipv4 => {
            let Ok(ip) = Ipv4Packet::new_checked(l3) else {
                return mac_hash(frame);
            };
            let mut tuple = [0u8; 13];
            tuple[0..4].copy_from_slice(&ip.src().to_be_bytes());
            tuple[4..8].copy_from_slice(&ip.dst().to_be_bytes());
            // L4 validity mirrors FlowKey::extract: first fragment
            // only (offset 0 — MF may be set, the first fragment
            // still carries the L4 header), header fully inside the
            // IP payload.
            let payload = ip.payload();
            let l4_ports = if ip.frag_offset() != 0 {
                None
            } else {
                match ip.protocol() {
                    IpProtocol::Tcp if payload.len() >= 20 => {
                        let doff = usize::from(payload[12] >> 4) * 4;
                        ((20..=60).contains(&doff) && doff <= payload.len())
                            .then(|| (6u8, [payload[0], payload[1], payload[2], payload[3]]))
                    }
                    IpProtocol::Udp if payload.len() >= 8 => {
                        let ulen = u16::from_be_bytes([payload[4], payload[5]]) as usize;
                        ((8..=payload.len()).contains(&ulen))
                            .then(|| (17u8, [payload[0], payload[1], payload[2], payload[3]]))
                    }
                    _ => None,
                }
            };
            match l4_ports {
                Some((proto, ports)) => {
                    tuple[8] = proto;
                    tuple[9..13].copy_from_slice(&ports);
                    crc32(&tuple)
                }
                None => crc32(&tuple[0..8]),
            }
        }
        EtherType::Ipv6 => {
            let Ok(ip) = Ipv6Packet::new_checked(l3) else {
                return mac_hash(frame);
            };
            let mut tuple = [0u8; 37];
            tuple[0..16].copy_from_slice(&ip.src().0);
            tuple[16..32].copy_from_slice(&ip.dst().0);
            // Bounded extension-header walk: hop-by-hop (0), routing
            // (43) and destination-options (60) are sized (len+1)*8
            // and skipped; a fragment header (44) means no ports (the
            // L4 header may be in another fragment); anything else
            // terminates the walk.
            let mut next = l3[6];
            let mut off = 40usize;
            for _ in 0..4 {
                match next {
                    0 | 43 | 60 => {
                        if l3.len() < off + 8 {
                            return crc32(&tuple[0..32]);
                        }
                        let ext_len = (usize::from(l3[off + 1]) + 1) * 8;
                        next = l3[off];
                        off += ext_len;
                    }
                    6 | 17 if l3.len() >= off + 4 => {
                        tuple[32] = next;
                        tuple[33..37].copy_from_slice(&l3[off..off + 4]);
                        return crc32(&tuple);
                    }
                    _ => return crc32(&tuple[0..32]),
                }
            }
            crc32(&tuple[0..32])
        }
        _ => mac_hash(frame),
    }
}

/// One message on a dispatcher→shard ring.
enum ShardMsg {
    /// A dataplane packet routed to this shard by flow hash; `seq` is
    /// the global input sequence number and `key` the dispatcher's
    /// one-and-only shallow parse of the frame.
    Packet {
        seq: u64,
        pkt: SimPacket,
        key: KeyHint,
    },
    /// A control-plane frame, broadcast to every shard so table
    /// mutations and reboots replicate; only the primary answers.
    Control {
        seq: u64,
        pkt: SimPacket,
        key: KeyHint,
    },
    /// Flush barrier: emit everything pending, then acknowledge that
    /// all outputs with sequence ≤ `upto` have been emitted.
    Barrier { upto: u64 },
    /// End of stream: finish the session and report.
    Eof,
}

/// One message on a shard→dispatcher ring.
enum ShardOut {
    /// An output packet, tagged with the input sequence that produced it.
    Out(u64, OutputPacket),
    /// Everything with sequence ≤ `upto` from this shard is out.
    Watermark(u64),
    /// The shard is done; its run report and telemetry.
    Done(Box<ShardDone>),
}

/// A finished shard's results.
struct ShardDone {
    report: SimReport,
    snapshot: TelemetrySnapshot,
}

/// One shard's execution state: the module, its live stream session,
/// and whether this shard answers control frames. The same engine runs
/// on a worker thread (threaded transport) or inline on the dispatcher
/// (clamped/single-shard transport) — transport choice cannot change
/// behavior.
struct ShardEngine {
    module: FlexSfp,
    session: Option<StreamSession>,
    primary: bool,
}

impl ShardEngine {
    fn new(mut module: FlexSfp, primary: bool) -> ShardEngine {
        let session = module.begin_stream();
        ShardEngine {
            module,
            session: Some(session),
            primary,
        }
    }

    /// Process one message; returns true when the shard is done (Eof).
    fn handle(&mut self, msg: ShardMsg, emit: &mut impl FnMut(ShardOut)) -> bool {
        let session = self.session.as_mut().expect("message after Eof");
        match msg {
            ShardMsg::Packet { seq, pkt, key } => {
                session.offer_with_key(&mut self.module, seq, pkt, key, &mut |tag, out| {
                    emit(ShardOut::Out(tag, out))
                });
                false
            }
            ShardMsg::Control { seq, pkt, key } => {
                if self.primary {
                    session.offer_with_key(&mut self.module, seq, pkt, key, &mut |tag, out| {
                        emit(ShardOut::Out(tag, out))
                    });
                } else {
                    // Replica: apply the mutation, suppress the
                    // duplicate response. Flush first so the
                    // suppressing sink can only ever see the control
                    // reply — never batched dataplane outputs.
                    session.flush(&mut self.module, &mut |tag, out| {
                        emit(ShardOut::Out(tag, out))
                    });
                    session.offer_with_key(&mut self.module, seq, pkt, key, &mut |_, _| {});
                }
                false
            }
            ShardMsg::Barrier { upto } => {
                session.flush(&mut self.module, &mut |tag, out| {
                    emit(ShardOut::Out(tag, out))
                });
                emit(ShardOut::Watermark(upto));
                false
            }
            ShardMsg::Eof => {
                let session = self.session.take().expect("double Eof");
                let report = session.finish(&mut self.module, &mut |tag, out| {
                    emit(ShardOut::Out(tag, out))
                });
                let snapshot = self.module.telemetry_snapshot();
                emit(ShardOut::Done(Box::new(ShardDone { report, snapshot })));
                true
            }
        }
    }
}

/// The departure-order reconciler: buffers tagged shard outputs and
/// releases them in global input order, gated by per-shard watermarks.
///
/// Invariant: an output with sequence `s` is released only once every
/// shard's watermark exceeds `s` — i.e. every shard has flushed
/// everything it will ever emit at or below `s`, and (because each
/// ring is FIFO and the watermark token follows the outputs it covers)
/// those outputs are already buffered. Release order is therefore
/// strictly ascending in `s`, independent of thread timing: exactly
/// the serial sink order.
///
/// Sequences are unique (each input emits at most one output), so the
/// buffer is a sequence-indexed sliding window over `[base, base+len)`
/// rather than a heap: accepting an output is one slot write, each
/// release is one pop — O(1) per packet where the former
/// `BinaryHeap` paid O(log window) twice.
struct Reconciler {
    /// Slot `i` holds the output for sequence `base + i`, if any.
    window: VecDeque<Option<OutputPacket>>,
    /// Sequence number of `window[0]`; everything below is released.
    base: u64,
    /// Per shard: all outputs with sequence < `watermarks[i]` are final.
    watermarks: Vec<u64>,
    results: Vec<Option<ShardDone>>,
    done: usize,
}

impl Reconciler {
    fn new(shards: usize) -> Reconciler {
        Reconciler {
            window: VecDeque::new(),
            base: 0,
            watermarks: vec![0; shards],
            results: (0..shards).map(|_| None).collect(),
            done: 0,
        }
    }

    fn accept(&mut self, shard: usize, msg: ShardOut, sink: &mut impl FnMut(OutputPacket)) {
        match msg {
            ShardOut::Out(seq, out) => {
                assert!(seq >= self.base, "output arrived after its release point");
                let idx = (seq - self.base) as usize;
                if idx == self.window.len() {
                    // In-order arrival — the overwhelmingly common case
                    // (inline transport: every packet): append directly
                    // instead of growing through resize_with.
                    self.window.push_back(Some(out));
                } else {
                    if self.window.len() <= idx {
                        self.window.resize_with(idx + 1, || None);
                    }
                    self.window[idx] = Some(out);
                }
            }
            ShardOut::Watermark(upto) => {
                self.watermarks[shard] = self.watermarks[shard].max(upto + 1);
                self.release(sink);
            }
            ShardOut::Done(d) => {
                self.watermarks[shard] = u64::MAX;
                self.results[shard] = Some(*d);
                self.done += 1;
                self.release(sink);
            }
        }
    }

    fn release(&mut self, sink: &mut impl FnMut(OutputPacket)) {
        let floor = *self.watermarks.iter().min().expect("at least one shard");
        while self.base < floor {
            match self.window.pop_front() {
                Some(Some(out)) => sink(out),
                // A sequence that produced no output (drop, or an
                // input consumed by another path): slot stays empty.
                Some(None) => {}
                // Window exhausted: everything below the floor that
                // will ever exist has been released.
                None => {
                    self.base = floor;
                    return;
                }
            }
            self.base += 1;
        }
    }
}

/// Dispatcher-side accounting, merged into the final report.
#[derive(Default)]
struct DispatchStats {
    offered: u64,
    offered_bytes: u64,
    unsorted: u64,
    last_arrival_ns: u64,
    backpressure: u64,
    full_ring_yields: u64,
    idle_rounds: u64,
    routed: Vec<u64>,
    frame_copies: u64,
    chunk_allocs: u64,
}

/// How messages reach shards and outputs come back. Two
/// implementations: worker threads over SPSC rings, or inline
/// execution on the dispatcher thread (single shard, or parallelism
/// clamped by nesting / `FLEXSFP_THREADS=1`). The dispatch loop and
/// reconciler are shared, so both produce identical output streams.
trait Transport<F: FnMut(OutputPacket)> {
    /// Queue `msg` for `shard`. May buffer; order per shard is
    /// preserved.
    fn send(
        &mut self,
        shard: usize,
        msg: ShardMsg,
        recon: &mut Reconciler,
        sink: &mut F,
        stats: &mut DispatchStats,
    );
    /// Push every buffered chunk out now (barrier/Eof points).
    fn flush(&mut self, recon: &mut Reconciler, sink: &mut F, stats: &mut DispatchStats);
    /// Nonblocking drain of shard outputs into the reconciler.
    fn poll(&mut self, recon: &mut Reconciler, sink: &mut F);
    /// Block (yielding) until every shard has reported Done.
    fn wait_done(&mut self, recon: &mut Reconciler, sink: &mut F);
    /// Global-sequence distance between flush barriers. Barriers are
    /// digest-neutral (a flush drains pending outputs in admission
    /// order, it never reorders or retimes them), so each transport
    /// picks the cadence that suits its cost model.
    fn barrier_every(&self) -> u64;
}

/// Inline transport: engines live on the dispatcher thread and handle
/// every message synchronously. The degenerate one-core case — and the
/// reference the threaded path is digest-compared against in tests.
struct InlineTransport {
    engines: Vec<ShardEngine>,
}

impl<F: FnMut(OutputPacket)> Transport<F> for InlineTransport {
    fn send(
        &mut self,
        shard: usize,
        msg: ShardMsg,
        recon: &mut Reconciler,
        sink: &mut F,
        _stats: &mut DispatchStats,
    ) {
        self.engines[shard].handle(msg, &mut |out| recon.accept(shard, out, sink));
    }

    fn flush(&mut self, _recon: &mut Reconciler, _sink: &mut F, _stats: &mut DispatchStats) {}
    fn poll(&mut self, _recon: &mut Reconciler, _sink: &mut F) {}
    fn wait_done(&mut self, _recon: &mut Reconciler, _sink: &mut F) {}
    fn barrier_every(&self) -> u64 {
        INLINE_BARRIER_EVERY
    }
}

/// Threaded transport: chunk rings to and from every shard's lane.
/// The dispatcher stages up to [`CHUNK`] messages per shard and swaps
/// the full buffer into the ring; what `push_slice` hands back is the
/// next staging buffer. Every buffer that will ever go round is made
/// at set-up ([`sized_ring`]), so the run itself allocates none.
struct ThreadedTransport {
    to_shard: Vec<Producer<ShardMsg>>,
    from_shard: Vec<Consumer<ShardOut>>,
    /// Per-shard staging for outgoing messages.
    staged: Vec<Vec<ShardMsg>>,
    /// The chunk of shard outputs being reconciled.
    inbox: Vec<ShardOut>,
}

/// The one place a threaded run makes a chunk buffer, so that
/// [`ShardedRun::chunk_allocs`] is a count and not a formula.
fn chunk_buf<T>(chunk: usize, chunk_allocs: &mut u64) -> Vec<T> {
    *chunk_allocs += 1;
    Vec::with_capacity(chunk)
}

/// A ring of [`RING_CHUNKS`] chunks whose slots already hold buffers
/// of `chunk` messages, plus one more such buffer for its producer to
/// stage in. A ring's slots start unallocated and take whatever
/// buffers its callers swap in, so this takes it round once: a
/// one-message chunk (`filler`) is pushed into each slot and popped
/// straight back out in exchange for a fresh buffer, which the slot
/// keeps. The buffers a run circulates are then `RING_CHUNKS + 2` per
/// ring from its first packet, whatever its length.
fn sized_ring<T>(
    chunk: usize,
    filler: T,
    chunk_allocs: &mut u64,
) -> (Producer<T>, Consumer<T>, Vec<T>) {
    let (mut tx, mut rx) = channel(RING_CHUNKS);
    let mut lap = chunk_buf(chunk, chunk_allocs);
    lap.push(filler);
    for _ in 0..RING_CHUNKS {
        tx.push_slice(&mut lap);
        lap = chunk_buf(chunk, chunk_allocs);
        rx.pop_chunk(&mut lap, usize::MAX);
    }
    lap.clear();
    (tx, rx, lap)
}

impl ThreadedTransport {
    fn push_staged<F: FnMut(OutputPacket)>(
        &mut self,
        shard: usize,
        recon: &mut Reconciler,
        sink: &mut F,
        stats: &mut DispatchStats,
    ) {
        if self.staged[shard].is_empty() {
            return;
        }
        let mut stalled = false;
        while self.to_shard[shard].push_slice(&mut self.staged[shard]) == 0 {
            // Backpressure: the shard's ring is full. Drain outputs so
            // workers (and the reconciler) make progress, then retry.
            if !stalled {
                stats.backpressure += 1;
                stalled = true;
            }
            self.drain(recon, sink);
            stats.full_ring_yields += 1;
            std::thread::yield_now();
        }
    }

    /// Move every queued shard output into the reconciler.
    ///
    /// # Panics
    /// Panics, naming the shard, if a shard's outbound ring closed
    /// before its `Done` arrived: the worker that owned it unwound, and
    /// waiting on it would never end (`thread::scope` re-raises a
    /// worker's panic only once the dispatcher leaves the scope).
    fn drain<F: FnMut(OutputPacket)>(&mut self, recon: &mut Reconciler, sink: &mut F) {
        let ThreadedTransport {
            from_shard, inbox, ..
        } = self;
        for (shard, rx) in from_shard.iter_mut().enumerate() {
            // Read before draining, so that a `Done` pushed ahead of
            // the drop is already in the reconciler when it is judged.
            let closed = rx.is_closed();
            while rx.pop_chunk(inbox, usize::MAX) > 0 {
                for out in inbox.drain(..) {
                    recon.accept(shard, out, sink);
                }
            }
            assert!(
                !closed || recon.results[shard].is_some(),
                "shard {shard}'s worker died before the shard reported Done"
            );
        }
    }
}

impl<F: FnMut(OutputPacket)> Transport<F> for ThreadedTransport {
    fn send(
        &mut self,
        shard: usize,
        msg: ShardMsg,
        recon: &mut Reconciler,
        sink: &mut F,
        stats: &mut DispatchStats,
    ) {
        self.staged[shard].push(msg);
        if self.staged[shard].len() >= CHUNK {
            self.push_staged(shard, recon, sink, stats);
        }
    }

    fn flush(&mut self, recon: &mut Reconciler, sink: &mut F, stats: &mut DispatchStats) {
        for shard in 0..self.staged.len() {
            self.push_staged(shard, recon, sink, stats);
        }
    }

    fn poll(&mut self, recon: &mut Reconciler, sink: &mut F) {
        self.drain(recon, sink);
    }

    fn wait_done(&mut self, recon: &mut Reconciler, sink: &mut F) {
        while recon.done < recon.results.len() {
            self.drain(recon, sink);
            std::thread::yield_now();
        }
    }

    fn barrier_every(&self) -> u64 {
        BARRIER_EVERY
    }
}

/// The dispatch loop shared by all transports: account, enforce
/// global arrival order, extract each frame's key once, classify
/// control frames (broadcast) vs dataplane (flow-hash from the key),
/// and punctuate with flush barriers.
fn drive<I, F, T>(
    packets: I,
    shards: usize,
    classifier: &ControlPlane,
    transport: &mut T,
    recon: &mut Reconciler,
    sink: &mut F,
) -> DispatchStats
where
    I: IntoIterator<Item = SimPacket>,
    F: FnMut(OutputPacket),
    T: Transport<F>,
{
    let mut stats = DispatchStats {
        routed: vec![0; shards],
        ..DispatchStats::default()
    };
    let mut seq = 0u64;
    let mut prev_arrival = 0u64;
    let barrier_every = transport.barrier_every();
    // Countdown instead of `seq % barrier_every`: the cadence is a
    // runtime value, and a u64 division per packet is real money at
    // ~100 ns/packet budgets.
    let mut until_barrier = barrier_every;
    // Outputs come back a chunk at a time, so look for them as often.
    let mut until_poll = CHUNK;
    for pkt in packets {
        stats.offered += 1;
        stats.offered_bytes += pkt.frame.len() as u64;
        if pkt.arrival_ns < prev_arrival {
            // The serial path drops globally-unsorted stragglers; the
            // dispatcher must enforce the same *global* order — shard
            // subsequences of an unsorted trace could each look sorted.
            stats.unsorted += 1;
            continue;
        }
        prev_arrival = pkt.arrival_ns;
        stats.last_arrival_ns = stats.last_arrival_ns.max(pkt.arrival_ns);

        // THE shallow parse: one key extraction feeds the control
        // filter, the shard hash, and (carried as a hint) the shard's
        // microflow cache.
        let key = KeyHint::compute(&pkt.frame, pkt.direction);
        let maybe_control = match key {
            KeyHint::Key(k) => classifier.may_classify(&k),
            _ => true,
        };
        let is_control = pkt.direction == Direction::EdgeToOptical
            && maybe_control
            && classifier.classify(&pkt.frame);
        if is_control {
            // Broadcast: every shard must replay the mutation in
            // stream position. Shard 0 answers; replicas suppress.
            // The original frame moves to the last shard; the other
            // copies are the pipeline's only frame copies, accounted.
            stats.frame_copies += shards as u64 - 1;
            for shard in 0..shards - 1 {
                let dup = SimPacket {
                    arrival_ns: pkt.arrival_ns,
                    direction: pkt.direction,
                    frame: pkt.frame.clone(),
                };
                transport.send(
                    shard,
                    ShardMsg::Control { seq, pkt: dup, key },
                    recon,
                    sink,
                    &mut stats,
                );
            }
            transport.send(
                shards - 1,
                ShardMsg::Control { seq, pkt, key },
                recon,
                sink,
                &mut stats,
            );
        } else {
            let shard = match key {
                KeyHint::Key(k) => shard_index(hash_of_key(&k), shards),
                _ => shard_index(slow_flow_hash(&pkt.frame), shards),
            };
            stats.routed[shard] += 1;
            transport.send(
                shard,
                ShardMsg::Packet { seq, pkt, key },
                recon,
                sink,
                &mut stats,
            );
        }
        seq += 1;
        until_barrier -= 1;
        if until_barrier == 0 {
            until_barrier = barrier_every;
            for shard in 0..shards {
                transport.send(
                    shard,
                    ShardMsg::Barrier { upto: seq - 1 },
                    recon,
                    sink,
                    &mut stats,
                );
            }
            transport.flush(recon, sink, &mut stats);
        }
        until_poll -= 1;
        if until_poll == 0 {
            until_poll = CHUNK;
            transport.poll(recon, sink);
        }
    }
    for shard in 0..shards {
        transport.send(shard, ShardMsg::Eof, recon, sink, &mut stats);
    }
    transport.flush(recon, sink, &mut stats);
    transport.wait_done(recon, sink);
    stats
}

/// Result of a sharded run: the merged report and telemetry, plus
/// dispatch-layer accounting.
pub struct ShardedRun {
    /// Aggregate simulation report, field-for-field comparable to the
    /// serial [`FlexSfp::run_stream_with`] report (outputs not retained).
    pub report: SimReport,
    /// Merged telemetry snapshot across all shard modules.
    pub snapshot: TelemetrySnapshot,
    /// Number of shards the run used.
    pub shards: usize,
    /// Dispatcher stall episodes on full shard rings (backpressure).
    pub backpressure: u64,
    /// Times the dispatcher yielded its core because a shard's ring was
    /// full: how long the [`ShardedRun::backpressure`] episodes lasted,
    /// summed over the rings. 0 on the inline transport.
    pub full_ring_yields: u64,
    /// Rounds in which a worker found no chunk in any of its lanes and
    /// yielded, summed over the workers: how long they waited on the
    /// dispatcher. 0 on the inline transport.
    pub idle_rounds: u64,
    /// Dataplane packets routed per shard (control broadcasts excluded).
    pub routed: Vec<u64>,
    /// Frame copies made anywhere in the pipeline. Only control-frame
    /// broadcasts copy (shards−1 copies each); dataplane frames move
    /// from dispatcher to shard to reconciler, so a workload without
    /// control frames shows 0 — the zero-copy witness.
    pub frame_copies: u64,
    /// Chunk buffers made for the rings over the whole run. All are
    /// made at set-up and circulate from then on — per shard two rings
    /// of slot buffers plus the one in each producer's hands and the
    /// lane's inbox, and the dispatcher's one drain inbox — so this is
    /// O(shards) regardless of trace length (0 on the inline
    /// transport).
    pub chunk_allocs: u64,
}

/// Run one packet stream across `shards` module instances and emit
/// every output, in exactly the serial `run_stream_with` sink order,
/// to `sink`.
///
/// `make_module` is called once per shard (on the worker thread that
/// owns the shard) and must build modules with the same `config` the
/// dispatcher classifies control frames with — shards are replicas of
/// one logical module, not distinct devices.
///
/// The run never has more runnable threads than
/// [`par::effective_parallelism`] allows: the calling thread
/// dispatches and reconciles, and `min(shards, threads − 1)` workers
/// share the shards between them. With one shard or one effective
/// thread (`FLEXSFP_THREADS=1`, a one-core host) everything runs inline
/// on the calling thread — same engines, same reconciler,
/// byte-identical output.
///
/// # Panics
/// Panics if a worker thread panics (in `make_module` or in a module):
/// the dispatcher finds the dead worker's ring closed and fails the
/// run, naming the shard, instead of waiting for it. A panic in `sink`
/// or in `packets` unwinds through here likewise; the workers notice
/// and stop.
pub fn run_sharded<I, M, F>(
    shards: usize,
    config: &ModuleConfig,
    make_module: M,
    packets: I,
    mut sink: F,
) -> ShardedRun
where
    I: IntoIterator<Item = SimPacket>,
    M: Fn(usize) -> FlexSfp + Send + Sync,
    F: FnMut(OutputPacket),
{
    let shards = shards.max(1);
    let classifier = ControlPlane::new(config.mgmt_mac, config.mgmt_ip, config.auth_key);
    let mut recon = Reconciler::new(shards);

    let workers = par::shard_workers(shards, par::effective_parallelism());
    let stats = if workers == 0 {
        let mut transport = InlineTransport {
            engines: (0..shards)
                .map(|i| ShardEngine::new(make_module(i), i == 0))
                .collect(),
        };
        drive(
            packets,
            shards,
            &classifier,
            &mut transport,
            &mut recon,
            &mut sink,
        )
    } else {
        // Worker threads + rings.
        // Rings and every chunk buffer are made here, before the
        // workers exist: `RING_CHUNKS + 1` per ring, a lane's inbox,
        // and the one inbox all outbound rings drain into.
        let mut chunk_allocs = 0;
        let mut transport = ThreadedTransport {
            to_shard: Vec::with_capacity(shards),
            from_shard: Vec::with_capacity(shards),
            staged: Vec::with_capacity(shards),
            inbox: chunk_buf(OUT_CHUNK, &mut chunk_allocs),
        };
        let mut links: Vec<Vec<Link>> = (0..workers).map(|_| Vec::new()).collect();
        for shard in 0..shards {
            let (msg_tx, rx, staging) = sized_ring(CHUNK, ShardMsg::Eof, &mut chunk_allocs);
            let (tx, out_rx, outbuf) =
                sized_ring(OUT_CHUNK, ShardOut::Watermark(0), &mut chunk_allocs);
            transport.to_shard.push(msg_tx);
            transport.from_shard.push(out_rx);
            transport.staged.push(staging);
            links[shard % workers].push(Link {
                shard,
                rx,
                tx,
                inbox: chunk_buf(CHUNK, &mut chunk_allocs),
                outbuf,
            });
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = links
                .into_iter()
                .map(|links| {
                    let make_module = &make_module;
                    scope.spawn(move || worker_loop(links, make_module))
                })
                .collect();
            // The transport moves into this closure so that a panic on
            // this thread drops it — closing every inbound ring, which
            // is what tells the workers to stop — before the scope
            // waits for them.
            let mut transport = transport;
            let mut stats = drive(
                packets,
                shards,
                &classifier,
                &mut transport,
                &mut recon,
                &mut sink,
            );
            stats.chunk_allocs = chunk_allocs;
            // Every lane has reported `Done`, so every worker is on its
            // way out.
            stats.idle_rounds = workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum();
            stats
        })
    };

    merge(stats, recon, shards)
}

/// The worker side of one shard's rings, as the dispatcher hands it
/// over: which shard, the two ring ends, and the chunk buffers the
/// lane pops into and fills.
struct Link {
    shard: usize,
    rx: Consumer<ShardMsg>,
    tx: Producer<ShardOut>,
    inbox: Vec<ShardMsg>,
    outbuf: Vec<ShardOut>,
}

/// Everything one shard needs on the worker that runs it.
struct Lane {
    engine: ShardEngine,
    link: Link,
}

/// What one [`Lane::step`] found.
enum Step {
    /// No chunk was waiting.
    Idle,
    /// A chunk was handled; there may be more.
    Worked,
    /// The shard reported `Done`, or the dispatcher is gone: retire.
    Finished,
}

impl Lane {
    /// Handle at most one inbound chunk. Outputs buffer up to
    /// [`CHUNK`] deep but always go out at barriers and Eof, so
    /// watermark latency is bounded by the barrier cadence.
    ///
    /// The inbound ring closes only when the dispatcher's transport is
    /// dropped, which a finished run does after every `Done` and an
    /// unwinding one at any time: a lane that finds it closed has
    /// nobody left to work for, and says so instead of waiting.
    fn step(&mut self) -> Step {
        let Link {
            rx,
            tx,
            inbox,
            outbuf,
            ..
        } = &mut self.link;
        if rx.pop_chunk(inbox, CHUNK) == 0 {
            return if rx.is_closed() {
                Step::Finished
            } else {
                Step::Idle
            };
        }
        for msg in inbox.iter_mut() {
            if let ShardMsg::Packet { pkt, .. } | ShardMsg::Control { pkt, .. } = msg {
                touch_header(&mut pkt.frame);
            }
        }
        for msg in inbox.drain(..) {
            let flush_now = matches!(msg, ShardMsg::Barrier { .. } | ShardMsg::Eof);
            let done = self.engine.handle(msg, &mut |out| outbuf.push(out));
            if outbuf.len() >= CHUNK || (flush_now && !outbuf.is_empty()) {
                while tx.push_slice(outbuf) == 0 {
                    if rx.is_closed() {
                        return Step::Finished;
                    }
                    std::thread::yield_now();
                }
            }
            if done {
                return Step::Finished;
            }
        }
        Step::Worked
    }
}

/// The worker side of the threaded transport: build this worker's
/// shards (on this thread, as [`run_sharded`] promises), then step
/// their lanes round-robin, one chunk each, until all have finished —
/// yielding the core only when a whole round found no work. Returns
/// how many rounds did ([`ShardedRun::idle_rounds`]).
fn worker_loop<M: Fn(usize) -> FlexSfp>(links: Vec<Link>, make_module: &M) -> u64 {
    let mut lanes: Vec<Lane> = links
        .into_iter()
        .map(|link| Lane {
            engine: ShardEngine::new(make_module(link.shard), link.shard == 0),
            link,
        })
        .collect();
    let mut idle_rounds = 0;
    while !lanes.is_empty() {
        let mut worked = false;
        lanes.retain_mut(|lane| match lane.step() {
            Step::Idle => true,
            Step::Worked => {
                worked = true;
                true
            }
            // Retiring is not waiting: only a round of `Idle` lanes
            // counts and yields.
            Step::Finished => {
                worked = true;
                false
            }
        });
        if !worked {
            idle_rounds += 1;
            std::thread::yield_now();
        }
    }
    idle_rounds
}

/// Merge the dispatcher's accounting and every shard's report and
/// snapshot into the aggregate view.
fn merge(stats: DispatchStats, recon: Reconciler, shards: usize) -> ShardedRun {
    let results: Vec<ShardDone> = recon
        .results
        .into_iter()
        .map(|r| r.expect("every shard reported Done"))
        .collect();
    let mut report = SimReport {
        // Input accounting comes from the dispatcher: control
        // broadcasts reach every shard and would count `offered` once
        // per shard. Unsorted stragglers never reach a shard at all.
        offered: stats.offered,
        offered_bytes: stats.offered_bytes,
        duration_ns: stats.last_arrival_ns,
        ..SimReport::default()
    };
    report.drops.unsorted = stats.unsorted;
    let mut snapshot: Option<TelemetrySnapshot> = None;
    for (i, shard) in results.iter().enumerate() {
        let r = &shard.report;
        report.forwarded.0 += r.forwarded.0;
        report.forwarded.1 += r.forwarded.1;
        report.forwarded_bytes += r.forwarded_bytes;
        report.drops.fifo_overflow += r.drops.fifo_overflow;
        report.drops.app += r.drops.app;
        report.drops.link += r.drops.link;
        report.to_control += r.to_control;
        report.cp_originated += r.cp_originated;
        if i == 0 {
            // The primary alone answers control frames; replicas
            // handled the same frames but their counts are duplicates.
            report.control_handled = r.control_handled;
        }
        report.latency.merge(&r.latency);
        report.duration_ns = report.duration_ns.max(r.duration_ns);
        match snapshot.as_mut() {
            None => snapshot = Some(shard.snapshot.clone()),
            Some(s) => s.merge_shard(&shard.snapshot),
        }
    }
    ShardedRun {
        report,
        snapshot: snapshot.expect("at least one shard"),
        shards,
        backpressure: stats.backpressure,
        full_ring_yields: stats.full_ring_yields,
        idle_rounds: stats.idle_rounds,
        routed: stats.routed,
        frame_copies: stats.frame_copies,
        chunk_allocs: stats.chunk_allocs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash `drive` routes by: [`hash_of_key`] where the frame has
    /// a key, the full shallow parse where it has none.
    fn flow_hash(frame: &[u8]) -> u32 {
        // The key's direction bit does not feed the hash, so either
        // direction yields the same result.
        match FlowKey::extract(frame, Direction::EdgeToOptical) {
            Some(key) => hash_of_key(&key),
            None => slow_flow_hash(frame),
        }
    }

    fn shard_for(frame: &[u8], shards: usize) -> usize {
        shard_index(flow_hash(frame), shards)
    }

    /// Minimal Ethernet/IPv4/UDP frame with the given 5-tuple, padded
    /// with `extra` payload bytes.
    fn udp_frame(src: u32, dst: u32, sport: u16, dport: u16, extra: usize) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]); // dst MAC
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]); // src MAC
        f.extend_from_slice(&0x0800u16.to_be_bytes());
        let ip_len = 20 + 8 + extra;
        f.push(0x45); // v4, IHL 5
        f.push(0);
        f.extend_from_slice(&(ip_len as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
        f.push(64); // TTL
        f.push(17); // UDP
        f.extend_from_slice(&[0, 0]); // checksum (unchecked here)
        f.extend_from_slice(&src.to_be_bytes());
        f.extend_from_slice(&dst.to_be_bytes());
        f.extend_from_slice(&sport.to_be_bytes());
        f.extend_from_slice(&dport.to_be_bytes());
        f.extend_from_slice(&((8 + extra) as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0]); // UDP checksum
        f.extend(std::iter::repeat_n(0xabu8, extra));
        f
    }

    /// Minimal Ethernet/IPv4/TCP frame with a configurable data offset.
    fn tcp_frame(
        src: u32,
        dst: u32,
        sport: u16,
        dport: u16,
        doff_words: u8,
        extra: usize,
    ) -> Vec<u8> {
        let tcp_len = 20 + extra;
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
        f.extend_from_slice(&0x0800u16.to_be_bytes());
        f.push(0x45);
        f.push(0);
        f.extend_from_slice(&((20 + tcp_len) as u16).to_be_bytes());
        f.extend_from_slice(&[0, 0, 0, 0]);
        f.push(64);
        f.push(6); // TCP
        f.extend_from_slice(&[0, 0]);
        f.extend_from_slice(&src.to_be_bytes());
        f.extend_from_slice(&dst.to_be_bytes());
        f.extend_from_slice(&sport.to_be_bytes());
        f.extend_from_slice(&dport.to_be_bytes());
        f.extend_from_slice(&[0, 0, 0, 0]); // seq
        f.extend_from_slice(&[0, 0, 0, 0]); // ack
        f.push(doff_words << 4);
        f.push(0x10); // flags
        f.extend_from_slice(&[0xff, 0xff, 0, 0, 0, 0]); // win, csum, urg
        f.extend(std::iter::repeat_n(0xcdu8, extra));
        f
    }

    /// Wrap a frame's L3 in `n` VLAN tags (innermost first ethertype
    /// preserved).
    fn with_tags(frame: &[u8], tags: &[(u16, u16)]) -> Vec<u8> {
        let mut f = frame[0..12].to_vec();
        for &(tpid, tci) in tags {
            f.extend_from_slice(&tpid.to_be_bytes());
            f.extend_from_slice(&tci.to_be_bytes());
        }
        f.extend_from_slice(&frame[12..]); // original ethertype onward
        f
    }

    /// Minimal IPv6 frame: optional extension-header chain, then an
    /// upper-layer header starting with the given 4 port bytes.
    fn ipv6_frame(
        src_last: u8,
        dst_last: u8,
        exts: &[(u8, usize)],
        last_nh: u8,
        l4: &[u8],
    ) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 2]);
        f.extend_from_slice(&[0x02, 0, 0, 0, 0, 1]);
        f.extend_from_slice(&0x86ddu16.to_be_bytes());
        let mut body = Vec::new();
        // Extension headers, each (next_header, total_len_in_8s - 1).
        for (i, &(_nh, len8)) in exts.iter().enumerate() {
            let next = if i + 1 < exts.len() {
                exts[i + 1].0
            } else {
                last_nh
            };
            body.push(next);
            body.push((len8 - 1) as u8);
            body.extend(std::iter::repeat_n(0u8, len8 * 8 - 2));
        }
        body.extend_from_slice(l4);
        f.push(0x60); // version 6
        f.extend_from_slice(&[0, 0, 0]);
        f.extend_from_slice(&(body.len() as u16).to_be_bytes());
        f.push(exts.first().map(|e| e.0).unwrap_or(last_nh));
        f.push(64); // hop limit
        let mut src = [0u8; 16];
        src[15] = src_last;
        let mut dst = [0u8; 16];
        dst[15] = dst_last;
        f.extend_from_slice(&src);
        f.extend_from_slice(&dst);
        f.extend_from_slice(&body);
        f
    }

    #[test]
    fn hash_is_flow_stable_and_spreads() {
        // Same 5-tuple → same shard, regardless of payload length.
        let mut a = udp_frame(0xc0a8_0001, 0x6540_0001, 1111, 53, 10);
        let b = udp_frame(0xc0a8_0001, 0x6540_0001, 1111, 53, 700);
        assert_eq!(shard_for(&a, 8), shard_for(&b, 8));
        // Different flows spread: 64 flows over 8 shards must touch
        // more than one shard.
        let shards: std::collections::HashSet<usize> = (0..64u32)
            .map(|i| shard_for(&udp_frame(0xc0a8_0000 + i, 0x6540_0001, 1024, 53, 10), 8))
            .collect();
        assert!(shards.len() > 1, "all flows landed on one shard");
        // Truncated runts fall back to the MAC hash instead of
        // panicking; so does the empty frame.
        a.truncate(10);
        let _ = shard_for(&a, 4);
        let _ = shard_for(&[], 4);
    }

    #[test]
    fn vlan_tag_is_transparent_to_the_flow_hash() {
        let plain = udp_frame(0xc0a8_0001, 0x6540_0001, 4242, 80, 10);
        let tagged = with_tags(&plain, &[(0x8100, 0x2001)]);
        assert_eq!(flow_hash(&plain), flow_hash(&tagged));
    }

    #[test]
    fn qinq_double_tag_is_transparent_to_the_flow_hash() {
        let plain = udp_frame(0xc0a8_0001, 0x6540_0001, 4242, 80, 10);
        let qinq = with_tags(&plain, &[(0x88a8, 0x0064), (0x8100, 0x2001)]);
        assert_eq!(flow_hash(&plain), flow_hash(&qinq));
        // The double-tagged frame still has a key (≤ 2 tags), so the
        // fused path covers it; a triple stack falls to the slow path
        // without panicking.
        assert!(FlowKey::extract(&qinq, Direction::EdgeToOptical).is_some());
        let triple = with_tags(
            &plain,
            &[(0x88a8, 0x0064), (0x8100, 0x2001), (0x8100, 0x2002)],
        );
        assert!(FlowKey::extract(&triple, Direction::EdgeToOptical).is_none());
        let _ = flow_hash(&triple);
    }

    #[test]
    fn ipv6_extension_chain_walks_to_the_ports() {
        let ports = [0x12u8, 0x34, 0x56, 0x78, 0, 0, 0, 0];
        // Direct TCP vs hop-by-hop → dst-opts → TCP: same flow tuple,
        // same hash — extension headers are transparent.
        let direct = ipv6_frame(1, 2, &[], 6, &ports);
        let chained = ipv6_frame(1, 2, &[(0, 1), (60, 2)], 6, &ports);
        assert_eq!(flow_hash(&direct), flow_hash(&chained));
        // Different ports, different hash (ports are in the tuple).
        let other = ipv6_frame(1, 2, &[], 6, &[0x12, 0x34, 0x56, 0x79, 0, 0, 0, 0]);
        assert_ne!(flow_hash(&direct), flow_hash(&other));
        // A fragment header hides the ports: both port variants hash
        // to the address pair.
        let frag_a = ipv6_frame(1, 2, &[(44, 1)], 6, &ports);
        let frag_b = ipv6_frame(1, 2, &[(44, 1)], 6, &[9, 9, 9, 9, 0, 0, 0, 0]);
        assert_eq!(flow_hash(&frag_a), flow_hash(&frag_b));
        // A truncated extension chain degrades to the address hash
        // deterministically.
        let mut trunc = chained.clone();
        trunc.truncate(14 + 40 + 4);
        assert_eq!(flow_hash(&trunc), flow_hash(&trunc));
    }

    /// The fused-path oracle: wherever the key extracts, hashing the
    /// key must equal the full shallow parse — over valid frames, L4
    /// validity edge cases, fragments, tags, and every truncation.
    #[test]
    fn fused_and_slow_flow_hash_agree() {
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        let base = udp_frame(0xc0a8_0001, 0x6540_0001, 4242, 80, 24);
        corpus.push(base.clone());
        corpus.push(tcp_frame(0xc0a8_0001, 0x6540_0001, 321, 443, 5, 4));
        corpus.push(tcp_frame(0xc0a8_0001, 0x6540_0001, 321, 443, 8, 16)); // options
        corpus.push(tcp_frame(0xc0a8_0001, 0x6540_0001, 321, 443, 4, 0)); // doff < 20: invalid
        corpus.push(tcp_frame(0xc0a8_0001, 0x6540_0001, 321, 443, 15, 0)); // doff > payload
        corpus.push(with_tags(&base, &[(0x8100, 0x2001)]));
        corpus.push(with_tags(&base, &[(0x88a8, 0x0064), (0x8100, 0x2001)]));
        // Fragments: first (MF set) and non-first (offset != 0).
        let mut mf = base.clone();
        mf[20] = 0x20;
        corpus.push(mf);
        let mut offset_frag = base.clone();
        offset_frag[20] = 0x00;
        offset_frag[21] = 0x10;
        corpus.push(offset_frag);
        // UDP length field shorter than payload / longer than payload.
        let mut short_ulen = base.clone();
        short_ulen[39] = 8;
        corpus.push(short_ulen);
        let mut long_ulen = base.clone();
        long_ulen[38] = 0xff;
        corpus.push(long_ulen);
        // Non-IP, IPv6, garbage.
        let mut arp = base.clone();
        arp[12] = 0x08;
        arp[13] = 0x06;
        corpus.push(arp);
        corpus.push(ipv6_frame(1, 2, &[], 17, &[0, 53, 0, 53, 0, 8, 0, 0]));
        corpus.push(vec![0xff; 64]);
        // Every truncation of every corpus frame, plus seeded random
        // byte mutations: the property must hold over malformed
        // inputs, not just well-formed ones.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for f in &corpus {
            for cut in 0..=f.len() {
                frames.push(f[..cut].to_vec());
            }
        }
        use flexsfp_traffic::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(0x5eed);
        for _ in 0..2_000 {
            let mut f = corpus[(rng.next_u64() as usize) % corpus.len()].clone();
            for _ in 0..1 + rng.next_u64() % 4 {
                let i = (rng.next_u64() as usize) % f.len();
                f[i] = rng.next_u64() as u8;
            }
            frames.push(f);
        }
        for f in &frames {
            assert_eq!(flow_hash(f), flow_hash(f), "hash must be deterministic");
            if let Some(key) = FlowKey::extract(f, Direction::EdgeToOptical) {
                assert_eq!(
                    hash_of_key(&key),
                    slow_flow_hash(f),
                    "fused and slow parse diverged on {f:02x?}"
                );
            }
        }
    }

    #[test]
    fn reconciler_releases_in_seq_order_behind_watermarks() {
        let out = |departure_ns: u64| OutputPacket {
            departure_ns,
            egress: flexsfp_core::Interface::Optical,
            frame: vec![],
            latency_ns: 0.0,
        };
        let mut r = Reconciler::new(2);
        let mut got: Vec<u64> = Vec::new();
        // Outputs arrive out of order across shards; nothing may be
        // released before both shards' watermarks pass it.
        r.accept(0, ShardOut::Out(3, out(3)), &mut |o| {
            got.push(o.departure_ns)
        });
        r.accept(1, ShardOut::Out(1, out(1)), &mut |o| {
            got.push(o.departure_ns)
        });
        r.accept(0, ShardOut::Watermark(5), &mut |o| got.push(o.departure_ns));
        assert!(got.is_empty(), "released past shard 1's watermark");
        r.accept(1, ShardOut::Out(0, out(0)), &mut |o| {
            got.push(o.departure_ns)
        });
        r.accept(1, ShardOut::Watermark(2), &mut |o| got.push(o.departure_ns));
        assert_eq!(got, vec![0, 1], "seq ≤ 2 released in order, 3 held");
        r.accept(1, ShardOut::Watermark(5), &mut |o| got.push(o.departure_ns));
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn reconciler_window_slides_without_unbounded_growth() {
        let out = |seq: u64| OutputPacket {
            departure_ns: seq,
            egress: flexsfp_core::Interface::Optical,
            frame: vec![],
            latency_ns: 0.0,
        };
        let mut r = Reconciler::new(1);
        let mut got = 0u64;
        // Stream 10k outputs with a watermark every 64: the window
        // must stay at one barrier interval, not the whole stream.
        for seq in 0..10_000u64 {
            r.accept(0, ShardOut::Out(seq, out(seq)), &mut |_| {});
            if (seq + 1) % 64 == 0 {
                r.accept(0, ShardOut::Watermark(seq), &mut |o| {
                    assert_eq!(o.departure_ns, got);
                    got += 1;
                });
                assert!(r.window.len() <= 64, "window grew: {}", r.window.len());
            }
        }
        assert_eq!(got, 9_984);
    }
}
