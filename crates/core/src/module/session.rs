//! The per-packet dataplane: the PPE's busy-server + finite-FIFO model,
//! the one accounting context every fate is booked through, and the
//! streaming session that walks a packet down Figure 1 — ingress
//! accounting, the microservice gate, the arbiter, FIFO admission into
//! the PPE batch (or the bypass), and verdict dispatch at batch flush.

use super::flight::{FlightCapture, FlightState};
use super::{FlexSfp, Interface, OutputPacket, SimPacket, SimReport};
use flexsfp_fabric::serdes::Transceiver;
use flexsfp_fabric::stream::DatapathConfig;
use flexsfp_obs::{
    CacheStats, DropCounters, DropReason, EventKind, EventRing, FlightStamp, FlightVerdict,
    LatencyHistogram, Sample, WindowedSeries,
};
use flexsfp_ppe::{BatchPacket, Direction, KeyHint, ProcessContext, Verdict};
use std::collections::VecDeque;
use std::ops::Range;

/// PPE batch size: packets admitted to the PPE are queued and handed to
/// [`process_batch`](flexsfp_ppe::PacketProcessor::process_batch) in
/// fixed-size vectors, VPP-style, amortizing dispatch and per-packet bookkeeping. Any event that could
/// observe or mutate dataplane state out of order (control frames,
/// microservice replies, bypass-path outputs, end of trace) flushes the
/// pending batch first, so results are bit-identical to per-packet
/// processing.
///
/// Public because it bounds the number of frames a module holds in
/// flight: a streaming run's arena allocation count is at most this
/// window (plus generator slack), which is the O(1)-memory bound the
/// perf harness enforces per thread.
pub const PPE_BATCH: usize = 32;

/// The prototype's 64 b datapath (§5.1): a packet holds the PPE one
/// cycle per 8-byte beat.
const DATAPATH: DatapathConfig = DatapathConfig::prototype_10g();

/// One crossing of a 10GBASE-R SerDes + PCS, ps.
const SERDES_PS: u64 = 100_000;

/// Simulated time is `u64` picoseconds. Arrivals stop below 2⁶³ ps
/// (≈ 106 days), leaving the upper half of the range to the service,
/// pipeline and SerDes time a departure adds.
const ARRIVAL_BOUND_PS: u64 = 1 << 63;

/// Tag and timing of one dataplane packet on its way to dispatch. The
/// queueing model runs at admit time (admission order is arrival
/// order), so the departure time is already known when the packet joins
/// the batch; the bypass path fills in its own two SerDes crossings.
#[derive(Debug, Clone, Copy)]
struct Transit {
    /// Caller-supplied input tag (the global input sequence number in
    /// sharded runs), threaded through to the sink unchanged.
    tag: u64,
    arrival_ns: u64,
    arrival_ps: u64,
    departure_ps: u64,
}

/// The one accounting context of the per-packet path: everything a
/// packet's fate is booked into — the run's report, clock and latency
/// population, the egress lanes, the event ring, the lifetime drop
/// counters, the windowed series, the cache baseline and the flight
/// ring — borrowed for as long as one fate (or one batch of them)
/// takes. Built only by [`Accounts::new`], the one place the module's
/// fields are split.
///
/// Forwarded latency is booked per run, not per packet: the forwards of
/// one latency (compared by bits) that depart in one window are one
/// `n`-fold insert into the latency histogram and the window's, whatever
/// other latencies come between them. A run holds a few latencies of one
/// window; the inserts into one bucket commute, so the order they
/// settle in shows nowhere. The run settles when a forward departs in
/// another window and before anything else writes the series (a drop, a
/// cache delta), so no bucket sees writes reordered across windows. A
/// stream's run also settles when the context is dropped. A one-frame
/// pass leaves its run on the module, where the next pass extends it,
/// and the module settles it before anything reads or replaces its
/// telemetry.
struct Accounts<'a> {
    report: &'a mut SimReport,
    last_time_ns: &'a mut u64,
    /// The module's lifetime latency population when the run is a
    /// one-frame pass; `None` books into the report's.
    latency: Option<&'a mut LatencyHistogram>,
    run: &'a mut LatencyRun,
    /// A one-frame pass: `run` stays unsettled on the module.
    keep_run: bool,
    edge: &'a mut Transceiver,
    optical: &'a mut Transceiver,
    events: &'a mut EventRing,
    lifetime_drops: &'a mut DropCounters,
    windows: &'a mut WindowedSeries,
    last_cache: &'a mut CacheStats,
    flight: Option<&'a mut FlightState>,
}

/// How many latencies one run holds: a cage module sees its bypass
/// latency and one per frame size of an IMIX mix.
const RUN_LATENCIES: usize = 4;

/// Forwards booked but not yet recorded, all departing in `window`.
/// The first forward of each latency (compared by bits) in a window is
/// recorded when it is booked, which creates the window's bucket and
/// sizes both histograms for it; the run counts the repeats,
/// `(latency_ns, n)` for the first `len` entries of `repeats`. So
/// settling never allocates, and a histogram grows when it would have
/// grown had every forward been recorded at once.
#[derive(Default)]
pub(super) struct LatencyRun {
    window: Range<u64>,
    repeats: [(f64, u64); RUN_LATENCIES],
    len: usize,
}

impl LatencyRun {
    /// Count a repeat of a latency the run's window has already
    /// recorded. False for one it has not, which the caller records;
    /// the run counts its repeats from then on if it has room.
    fn repeat(&mut self, latency_ns: f64) -> bool {
        let seen = self.repeats[..self.len]
            .iter_mut()
            .find(|(l, _)| l.to_bits() == latency_ns.to_bits());
        if let Some((_, n)) = seen {
            *n += 1;
            return true;
        }
        if self.len < RUN_LATENCIES {
            self.repeats[self.len] = (latency_ns, 0);
            self.len += 1;
        }
        false
    }

    /// Record the repeats into `latency` and the window they departed
    /// in, and start over, the window forgotten too: the series may be
    /// replaced before the next forward.
    pub(super) fn settle(&mut self, latency: &mut LatencyHistogram, windows: &mut WindowedSeries) {
        // No latency held: nothing departed since the last settle.
        if self.len == 0 {
            return;
        }
        for &(latency_ns, n) in &self.repeats[..self.len] {
            record_forwards(latency, windows, self.window.start, latency_ns, n);
        }
        *self = LatencyRun::default();
    }
}

/// Record `n` forwards of `latency_ns` that departed in the window
/// starting at `window_ns` into `latency` and the series.
fn record_forwards(
    latency: &mut LatencyHistogram,
    windows: &mut WindowedSeries,
    window_ns: u64,
    latency_ns: f64,
    n: u64,
) {
    if n > 0 {
        let sample = Sample::from(latency_ns);
        latency.record_sample_n(sample, n);
        windows.record_forwarded_n(window_ns, sample, n);
    }
}

/// The population a run's forwarded latency goes to: the module's
/// lifetime one for a one-frame pass, else the report's.
fn population<'b>(
    lifetime: &'b mut Option<&mut LatencyHistogram>,
    report: &'b mut SimReport,
) -> &'b mut LatencyHistogram {
    match lifetime {
        Some(lifetime) => lifetime,
        None => report.latency.histogram_mut(),
    }
}

/// The drop-reason table, counter half: which counter a reason bumps.
fn drop_counter(drops: &mut DropCounters, reason: DropReason) -> &mut u64 {
    match reason {
        DropReason::FifoOverflow => &mut drops.fifo_overflow,
        DropReason::App => &mut drops.app,
        DropReason::LinkDown => &mut drops.link,
        DropReason::UnsortedArrival => &mut drops.unsorted,
    }
}

/// What a run books into besides the module: its report and its
/// clock.
#[derive(Default)]
struct RunBook {
    report: SimReport,
    last_time_ns: u64,
    /// A one-frame pass: latency goes to the module's lifetime
    /// histogram, and `report.latency` stays empty.
    one_frame: bool,
}

impl<'a> Accounts<'a> {
    /// Split the module and the session's run book into the accounting
    /// context of one run.
    fn new(m: &'a mut FlexSfp, book: &'a mut RunBook) -> Self {
        let latency = if book.one_frame {
            Some(&mut m.lifetime_latency)
        } else {
            // A stream's run goes to its report: what passes left for
            // the lifetime population is recorded first.
            m.settle_passes();
            None
        };
        Accounts {
            report: &mut book.report,
            last_time_ns: &mut book.last_time_ns,
            latency,
            run: &mut m.latency_run,
            keep_run: book.one_frame,
            edge: &mut m.edge,
            optical: &mut m.optical,
            events: &mut m.events,
            lifetime_drops: &mut m.lifetime_drops,
            windows: &mut m.windows,
            last_cache: &mut m.last_cache,
            flight: m.flight.as_mut(),
        }
    }

    /// Book one forwarded packet's latency: a repeat in the run's
    /// window is counted, anything else recorded, the run settled first
    /// when the packet departs in another window.
    fn forwarded(&mut self, departure_ns: u64, latency_ns: f64) {
        if !self.run.window.contains(&departure_ns) {
            self.settle();
            self.run.window = self.windows.window_of(departure_ns);
        }
        if !self.run.repeat(latency_ns) {
            let latency = population(&mut self.latency, self.report);
            record_forwards(latency, self.windows, self.run.window.start, latency_ns, 1);
        }
    }

    /// Record the pending run, if any.
    fn settle(&mut self) {
        let latency = population(&mut self.latency, self.report);
        self.run.settle(latency, self.windows);
    }

    /// Fold a batch's cache-counter delta into the window `ts` falls
    /// in. Saturating: a reboot swaps the application and resets its
    /// counters mid-run.
    fn cache(&mut self, ts: u64, stats: CacheStats, occupancy: u64) {
        self.settle();
        self.windows.record_cache(
            ts,
            stats.hits.saturating_sub(self.last_cache.hits),
            stats.misses.saturating_sub(self.last_cache.misses),
            stats.evictions.saturating_sub(self.last_cache.evictions),
            occupancy,
        );
        *self.last_cache = stats;
    }

    /// Book one dropped packet: the run's and the lifetime counter, a
    /// `Drop` event, and the window `ts` falls in. Only the
    /// application's own verdict is an explained drop; every other
    /// reason counts against the SLO's unexplained-drop bound.
    fn drop(&mut self, reason: DropReason, ts: u64) -> FlightVerdict {
        *drop_counter(&mut self.report.drops, reason) += 1;
        *drop_counter(self.lifetime_drops, reason) += 1;
        self.events.record(ts, EventKind::Drop { reason });
        self.settle();
        self.windows.record_drop(ts, reason != DropReason::App);
        FlightVerdict::Dropped { reason }
    }

    /// The egress gate: lane accounting, and on the optical lane the
    /// link budget, which no longer closes once the laser has degraded.
    fn transmit(&mut self, egress: Interface, len: usize) -> bool {
        match egress {
            Interface::Edge => self.edge.record_tx(len),
            Interface::Optical => self.optical.link_up(3.0) && self.optical.record_tx(len),
        }
    }

    /// Hand one output to the sink and advance the run's clock.
    fn emit<F: FnMut(u64, OutputPacket)>(&mut self, tag: u64, out: OutputPacket, sink: &mut F) {
        *self.last_time_ns = (*self.last_time_ns).max(out.departure_ns);
        sink(tag, out);
    }

    /// A frame the control plane originates (microservice or control
    /// reply) leaves `egress` after the softcore's ~10 µs, through the
    /// same gate as dataplane output. False when the lane refused it:
    /// that is a link drop, not a reply.
    fn reply<F: FnMut(u64, OutputPacket)>(
        &mut self,
        tag: u64,
        arrival_ns: u64,
        egress: Interface,
        frame: Vec<u8>,
        sink: &mut F,
    ) -> bool {
        if !self.transmit(egress, frame.len()) {
            self.drop(DropReason::LinkDown, arrival_ns);
            return false;
        }
        let out = OutputPacket {
            departure_ns: arrival_ns + 10_000,
            egress,
            frame,
            latency_ns: 10_000.0,
        };
        self.emit(tag, out, sink);
        true
    }

    /// Verdict dispatch for one processed packet: drop/divert
    /// accounting, egress lane accounting, latency recording,
    /// time-series feeding and output emission — shared exactly by the
    /// batched and bypass paths. Returns what became of the packet.
    fn dispatch<F: FnMut(u64, OutputPacket)>(
        &mut self,
        t: Transit,
        frame: Vec<u8>,
        verdict: Verdict,
        direction: Direction,
        sink: &mut F,
    ) -> FlightVerdict {
        let natural = Interface::egress_for(direction);
        let egress = match verdict {
            Verdict::Drop => return self.drop(DropReason::App, t.arrival_ns),
            Verdict::ToControlPlane => {
                self.report.to_control += 1;
                return FlightVerdict::ToControl;
            }
            Verdict::Forward => natural,
            Verdict::Reflect => natural.other(),
        };
        if !self.transmit(egress, frame.len()) {
            return self.drop(DropReason::LinkDown, t.arrival_ns);
        }

        let departure_ns = t.departure_ps / 1_000;
        let latency_ns = (t.departure_ps - t.arrival_ps) as f64 / 1e3;
        self.forwarded(departure_ns, latency_ns);
        match egress {
            Interface::Edge => self.report.forwarded.0 += 1,
            Interface::Optical => self.report.forwarded.1 += 1,
        }
        self.report.forwarded_bytes += frame.len() as u64;
        let out = OutputPacket {
            departure_ns,
            egress,
            frame,
            latency_ns,
        };
        self.emit(t.tag, out, sink);
        FlightVerdict::Forwarded { departure_ns }
    }

    /// Complete a sampled packet's postcard; `cap` is `None` for the
    /// unsampled majority.
    fn postcard(
        &mut self,
        cap: Option<FlightCapture>,
        arrival_ns: u64,
        stamp: FlightStamp,
        verdict: FlightVerdict,
    ) {
        if let (Some(cap), Some(flight)) = (cap, self.flight.as_deref_mut()) {
            flight.push(arrival_ns, cap, stamp, verdict);
        }
    }
}

impl Drop for Accounts<'_> {
    fn drop(&mut self) {
        if !self.keep_run {
            self.settle();
        }
    }
}

/// One queued-entry record of the PPE server model.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish_ps: u64,
    bytes: usize,
}

/// A busy-server + finite-FIFO model of the PPE.
#[derive(Debug, Default)]
struct PpeServer {
    free_ps: u64,
    fifo_bytes: usize,
    in_flight: VecDeque<InFlight>,
    /// Running sum of `in_flight` bytes, so admission is O(1) instead
    /// of re-summing the queue per packet.
    backlog: usize,
}

impl PpeServer {
    /// An idle server with an empty `fifo_bytes` FIFO, on the queue
    /// buffer it already has.
    fn reset(&mut self, fifo_bytes: usize) {
        self.free_ps = 0;
        self.fifo_bytes = fifo_bytes;
        self.in_flight.clear();
        self.backlog = 0;
    }

    /// Entries that completed service by `arrival_ps` have left the
    /// FIFO. Idempotent, so observing the queue before admitting to it
    /// does not perturb the model.
    fn retire(&mut self, arrival_ps: u64) {
        while let Some(front) = self.in_flight.front() {
            if front.finish_ps > arrival_ps {
                break;
            }
            self.backlog -= front.bytes;
            self.in_flight.pop_front();
        }
    }

    /// Try to admit a packet arriving at `arrival_ps` needing
    /// `service_ps` of PPE time. Returns the service start time, or
    /// `None` on FIFO overflow.
    fn admit(&mut self, arrival_ps: u64, len: usize, service_ps: u64) -> Option<u64> {
        self.retire(arrival_ps);
        if self.backlog + len > self.fifo_bytes {
            return None;
        }
        let start = self.free_ps.max(arrival_ps);
        let finish = start + service_ps;
        self.free_ps = finish;
        self.backlog += len;
        self.in_flight.push_back(InFlight {
            finish_ps: finish,
            bytes: len,
        });
        Some(start)
    }

    /// The queue a packet arriving at `arrival_ps` would see.
    fn depth_at(&mut self, arrival_ps: u64) -> FlightCapture {
        self.retire(arrival_ps);
        FlightCapture {
            queue_bytes: self.backlog as u64,
            queue_pkts: self.in_flight.len() as u64,
        }
    }
}

/// An in-progress streaming run: the loop state of
/// [`FlexSfp::run_stream_with`] reified as a value, so callers can
/// drive packets one at a time instead of surrendering an iterator.
/// Built by [`FlexSfp::begin_stream`]; the sharded dataplane holds one
/// session per shard module and interleaves [`offer`](Self::offer)
/// calls with ring I/O.
///
/// Each offered packet carries a caller-chosen `tag` (the global input
/// sequence number in sharded runs), handed back verbatim with every
/// output that packet produces — including outputs released later by a
/// batch flush — so a reconciler can restore global order without
/// inspecting frames.
///
/// The session borrows nothing from the module: `&mut FlexSfp` is
/// passed to each call, keeping the module usable for telemetry and
/// OOB control between offers. Run one live session per module;
/// interleaving two sessions over one module would share transceiver
/// and window state in arrival-order-breaking ways.
pub struct StreamSession {
    book: RunBook,
    server: PpeServer,
    ppe_period_ps: u64,
    pipeline_cycles: u64,
    prev_arrival: u64,
    batch: Vec<BatchPacket>,
    pending: Vec<Transit>,
}

impl StreamSession {
    /// A fresh run against `m`, with `m`'s clocks and FIFO geometry.
    pub(super) fn new(m: &FlexSfp) -> StreamSession {
        let mut session = StreamSession {
            book: RunBook::default(),
            server: PpeServer::default(),
            ppe_period_ps: 0,
            pipeline_cycles: 0,
            prev_arrival: 0,
            batch: Vec::with_capacity(PPE_BATCH),
            pending: Vec::with_capacity(PPE_BATCH),
        };
        session.rewind(m);
        session
    }

    /// Back to the first instant of a run against `m` as it is now — an
    /// OTA reboot may have swapped the application, and the
    /// configuration is a public field — keeping the report's buffers.
    fn rewind(&mut self, m: &FlexSfp) {
        debug_assert!(self.batch.is_empty() && self.pending.is_empty());
        self.server.reset(m.config.fifo_bytes);
        self.ppe_period_ps = m.config.ppe_clock.period_ps();
        self.pipeline_cycles = m.pipeline_cycles;
        self.book.last_time_ns = 0;
        self.prev_arrival = 0;
    }

    fn accounts<'a>(&'a mut self, m: &'a mut FlexSfp) -> Accounts<'a> {
        Accounts::new(m, &mut self.book)
    }

    /// Run the pending PPE batch (if any) through the application and
    /// dispatch every slot's verdict in admission order. When `cap` is
    /// set, the newest slot is a sampled packet (the sampler forces an
    /// immediate flush) and its postcard is completed here: the
    /// application's stage stamp joins the queue observation and the
    /// dispatch verdict.
    fn flush_batch<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        cap: Option<FlightCapture>,
        sink: &mut F,
    ) {
        let Some(&newest) = self.pending.last() else {
            return;
        };
        m.app.process_batch(&mut self.batch);
        let cache = m
            .app
            .cache_stats()
            .map(|stats| (stats, m.app.cache_occupancy().unwrap_or(0)));
        // The sampled packet is the newest slot, so the processor's most
        // recent stamp is its stage trace, and the last verdict
        // dispatched below is its fate.
        let stamp = cap.and_then(|_| m.app.flight_stamp()).unwrap_or_default();
        let mut acct = Accounts::new(m, &mut self.book);
        // The batch's cache delta goes to the window its newest packet
        // lands in.
        if let Some((stats, occupancy)) = cache {
            acct.cache(newest.arrival_ns, stats, occupancy);
        }
        let mut fate = None;
        for (slot, t) in self.batch.drain(..).zip(self.pending.drain(..)) {
            let verdict = acct.dispatch(t, slot.frame, slot.verdict, slot.ctx.direction, sink);
            if cap.is_some() {
                fate = Some(verdict);
            }
        }
        if let Some(fate) = fate {
            acct.postcard(cap, newest.arrival_ns, stamp, fate);
        }
    }

    /// Flush the pending PPE batch to the sink. Offers already do this
    /// at every ordering boundary; the dispatcher calls it at flush
    /// barriers so shard progress is bounded between watermarks.
    pub fn flush<F: FnMut(u64, OutputPacket)>(&mut self, m: &mut FlexSfp, sink: &mut F) {
        self.flush_batch(m, None, sink);
    }

    /// Offer one packet to the module, emitting any outputs it (or a
    /// batch flush it triggers) produces to `sink` as `(tag, output)`
    /// pairs. Packets must be offered in nondecreasing arrival order;
    /// stragglers are dropped and counted exactly as in
    /// [`FlexSfp::run_stream_with`].
    pub fn offer<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        tag: u64,
        pkt: SimPacket,
        sink: &mut F,
    ) {
        self.offer_with_key(m, tag, pkt, KeyHint::Unknown, sink);
    }

    /// [`offer`](Self::offer) with a caller-supplied pre-parsed key
    /// hint. The sharded dispatcher extracts each frame's
    /// [`FlowKey`](flexsfp_ppe::FlowKey) once for flow hashing and
    /// hands it down here, so the shard neither re-parses for the
    /// control-plane arbiter nor for the microflow cache — the
    /// single-parse path: every downstream decision (the microservice
    /// filter, the arbiter filter, the PPE's flow cache) reuses the
    /// key. `offer` itself calls this with [`KeyHint::Unknown`]: the
    /// gates then stay conservative and the one extraction happens
    /// lazily in the PPE pipeline, so the serial path performs exactly
    /// one parse too (and none for packets the pipeline never keys —
    /// cache disabled, bypass).
    ///
    /// The path is the paper's Figure 1, in order: ingress accounting,
    /// the microservice gate, the arbiter, then FIFO admission into the
    /// PPE batch (or the bypass), and dispatch when the batch flushes.
    pub fn offer_with_key<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        tag: u64,
        pkt: SimPacket,
        hint: KeyHint,
        sink: &mut F,
    ) {
        let ts = pkt.arrival_ns;
        self.book.report.offered += 1;
        self.book.report.offered_bytes += pkt.frame.len() as u64;
        if ts < self.prev_arrival {
            // Straggler in a host-composed trace: drop and count
            // before it reaches ingress accounting.
            self.accounts(m).drop(DropReason::UnsortedArrival, ts);
            return;
        }
        self.prev_arrival = ts;
        self.book.last_time_ns = self.book.last_time_ns.max(ts);
        // Ingress lane accounting; a disabled lane is a link drop.
        let lane = match pkt.direction {
            Direction::EdgeToOptical => &mut m.edge,
            Direction::OpticalToEdge => &mut m.optical,
        };
        if !lane.record_rx(pkt.frame.len()) {
            self.accounts(m).drop(DropReason::LinkDown, ts);
            return;
        }
        if self.answer_microservice(m, tag, &pkt, hint, sink)
            || self.divert_control(m, tag, &pkt, hint, sink)
        {
            return;
        }

        assert!(
            ts < ARRIVAL_BOUND_PS.div_ceil(1_000),
            "arrival at {ts} ns is at or past the 2^63 ps (about 106 days) bound of simulated time"
        );
        let arrival_ps = ts * 1_000;
        // One sampler draw per dataplane packet (PPE and bypass
        // alike), taken before the FIFO decision so overflow drops
        // are observable in the flight record too. Control and
        // microservice frames diverted above never draw.
        let sampled = m.flight.as_mut().is_some_and(FlightState::sample);
        if !m.config.shell.ppe_applies(pkt.direction) {
            // Bypass path: SerDes in, merge, SerDes out. Flush so
            // outputs still reach the sink in arrival order. No PPE
            // queue and no stages here: a sampled packet gets an honest
            // all-zero postcard bar the verdict.
            self.flush_batch(m, None, sink);
            let t = Transit {
                tag,
                arrival_ns: ts,
                arrival_ps,
                departure_ps: arrival_ps + 2 * SERDES_PS,
            };
            let mut acct = self.accounts(m);
            let fate = acct.dispatch(t, pkt.frame, Verdict::Forward, pkt.direction, sink);
            let cap = sampled.then(FlightCapture::default);
            acct.postcard(cap, ts, FlightStamp::default(), fate);
            return;
        }

        let len = pkt.frame.len();
        let service_ps = DATAPATH.beats_for(len) * self.ppe_period_ps;
        // Observe the queue a sampled packet meets before it is
        // admitted (admission changes the backlog).
        let cap = sampled.then(|| self.server.depth_at(arrival_ps));
        let Some(start_ps) = self.server.admit(arrival_ps, len, service_ps) else {
            let mut acct = self.accounts(m);
            let fate = acct.drop(DropReason::FifoOverflow, ts);
            acct.postcard(cap, ts, FlightStamp::default(), fate);
            return;
        };
        let ctx = ProcessContext {
            timestamp_ns: ts,
            direction: pkt.direction,
        };
        self.batch.push(BatchPacket::with_key(ctx, pkt.frame, hint));
        self.pending.push(Transit {
            tag,
            arrival_ns: ts,
            arrival_ps,
            departure_ps: start_ps
                + service_ps
                + self.pipeline_cycles * self.ppe_period_ps
                + 2 * SERDES_PS,
        });
        // A sampled packet flushes immediately: batching is
        // semantically per-packet, so results are unchanged, and the
        // postcard completes while the packet is the processor's most
        // recent.
        if sampled || self.batch.len() == PPE_BATCH {
            self.flush_batch(m, cap, sink);
        }
    }

    /// Active-Control-Plane shell: the control plane terminates
    /// traffic addressed to the module itself (ARP, ICMP echo) from
    /// either interface — the §4.1 "microservice node". True when
    /// `pkt` was such a frame and has been answered.
    ///
    /// Fast filter: an untagged canonical-IPv4 frame (the key
    /// extracted and saw no VLANs) can only be a microservice frame
    /// if it is ICMP addressed to the management IP — `respond`
    /// parses the same bytes at the same offsets. Keyless frames
    /// (ARP, non-IPv4, odd shapes) and tagged frames still take the
    /// full parse, so behavior is unchanged.
    fn answer_microservice<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        tag: u64,
        pkt: &SimPacket,
        hint: KeyHint,
        sink: &mut F,
    ) -> bool {
        let maybe_mine = m.config.shell.control_plane_active()
            && match hint {
                KeyHint::Key(k) => {
                    k.vlan_count() != 0 || (k.dst_ip() == m.config.mgmt_ip && k.proto() == 1)
                }
                _ => true,
            };
        let Some(reply) = maybe_mine
            .then(|| crate::microservice::respond(&pkt.frame, m.config.mgmt_mac, m.config.mgmt_ip))
            .flatten()
        else {
            return false;
        };
        // Keep sink emission in arrival order.
        self.flush_batch(m, None, sink);
        // Replies exit the interface the request arrived on.
        let back = Interface::egress_for(pkt.direction).other();
        let mut acct = self.accounts(m);
        if acct.reply(tag, pkt.arrival_ns, back, reply, sink) {
            acct.report.cp_originated += 1;
        }
        true
    }

    /// Arbiter: control-plane frames divert before the PPE. True when
    /// `pkt` was one (answered, or rejected and traced).
    ///
    /// Fast filter: `classify` demands unicast-to-us IPv4 to the
    /// management IP on the control port. For an untagged frame
    /// whose key extracted, the destination IP in the key is the
    /// one `classify` would read, so a mismatch proves the frame is
    /// dataplane without the full parse (this removes the last
    /// per-packet parse from the serial fast path). Tagged or
    /// keyless frames fall through to `classify` unchanged.
    fn divert_control<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        tag: u64,
        pkt: &SimPacket,
        hint: KeyHint,
        sink: &mut F,
    ) -> bool {
        let maybe_control = match hint {
            KeyHint::Key(k) => m.control.may_classify(&k),
            _ => true,
        };
        if pkt.direction != Direction::EdgeToOptical
            || !maybe_control
            || !m.control.classify(&pkt.frame)
        {
            return false;
        }
        // The pending batch must run first: control ops mutate tables,
        // and earlier packets belong to the pre-mutation state.
        self.flush_batch(m, None, sink);
        match m.with_control(|control, ctx| control.handle_frame(&pkt.frame, ctx)) {
            Some(resp) => {
                // The response merges into the edge-bound stream.
                let mut acct = self.accounts(m);
                if acct.reply(tag, pkt.arrival_ns, Interface::Edge, resp, sink) {
                    acct.report.control_handled += 1;
                }
            }
            // A classified control frame that failed decode or
            // authentication: trace the rejection.
            None => m.events.record(pkt.arrival_ns, EventKind::AuthReject),
        }
        m.maybe_reboot();
        true
    }

    /// The end of a run, bar its latency population: flush the final
    /// partial batch, stamp the duration, advance the module's clock.
    fn close<F: FnMut(u64, OutputPacket)>(&mut self, m: &mut FlexSfp, sink: &mut F) {
        self.flush_batch(m, None, sink);
        self.book.report.duration_ns = self.book.last_time_ns;
        m.clock_ns = m.clock_ns.max(self.book.last_time_ns);
    }

    /// Close the run: flush the final partial batch, stamp the
    /// duration, and fold the run into the module's lifetime
    /// telemetry — byte-identical to how `run_stream_with` ends.
    pub fn finish<F: FnMut(u64, OutputPacket)>(
        mut self,
        m: &mut FlexSfp,
        sink: &mut F,
    ) -> SimReport {
        self.close(m, sink);
        m.lifetime_latency
            .merge(self.book.report.latency.histogram());
        self.book.report
    }

    /// One packet as one whole, independent run on this session's
    /// buffers: what [`FlexSfp::run`]`(vec![pkt])` does to the module
    /// and to the sink, without what it allocates. This is how a switch
    /// cage carries one frame: consecutive frames reach a cage with no
    /// ordering between their timestamps, so they cannot share a
    /// stream. Whatever the session was in the middle of must have been
    /// flushed.
    ///
    /// A pass does only what changes the module. It starts from an idle
    /// PPE server, an empty FIFO and a zero clock, under the module's
    /// configuration as it is now and the pipeline depth of the
    /// application it last booted, and zeroes the counters it reports.
    /// It books through one accounting context per fate, and its
    /// latency straight into the module's lifetime histogram, where
    /// [`finish`](Self::finish) would have merged it: a repeat of a
    /// latency already recorded in the same window waits on the module
    /// and is recorded with the others before anything reads the
    /// telemetry. So the returned report, valid until the next call,
    /// has `latency` empty as well as `outputs` (they went to the sink,
    /// in processing order).
    pub fn run_one<F: FnMut(u64, OutputPacket)>(
        &mut self,
        m: &mut FlexSfp,
        pkt: SimPacket,
        sink: &mut F,
    ) -> &SimReport {
        self.rewind(m);
        self.book.report = SimReport::default();
        self.book.one_frame = true;
        self.offer(m, 0, pkt, sink);
        self.close(m, sink);
        self.book.one_frame = false;
        &self.book.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthKey;
    use crate::control::{ControlPlane, ControlRequest, ControlResponse};
    use crate::module::testutil::{
        control_frame, data_frame, echo_request, line_rate_trace, ota_requests, passthrough_image,
    };
    use crate::module::ModuleConfig;
    use crate::ShellKind;
    use flexsfp_fabric::clock::ClockDomain;
    use flexsfp_ppe::engine::{DropAll, PassThrough};
    use flexsfp_wire::MacAddr;

    #[test]
    #[should_panic(expected = "2^63 ps")]
    fn an_arrival_past_the_time_bound_panics() {
        let last_ns = ARRIVAL_BOUND_PS.div_ceil(1_000) - 1;
        let packet = |arrival_ns| SimPacket {
            arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: data_frame(64),
        };
        let mut m = FlexSfp::passthrough();
        let report = m.run(vec![packet(last_ns)]);
        assert_eq!(report.outputs[0].departure_ns, last_ns + 276);
        m.run(vec![packet(last_ns + 1)]);
    }

    #[test]
    fn passthrough_forwards_at_line_rate() {
        let mut m = FlexSfp::passthrough();
        let trace = line_rate_trace(Direction::EdgeToOptical, 2_000, 64);
        let report = m.run(trace);
        assert_eq!(report.offered, 2_000);
        assert_eq!(report.forwarded.1, 2_000);
        assert_eq!(report.drops.total(), 0);
        assert!(report.latency.mean_ns() > 0.0);
        // Sub-microsecond transit (the low-latency claim).
        assert!(
            report.latency.max_ns() < 1_000.0,
            "max latency {} ns",
            report.latency.max_ns()
        );
        // Percentiles are ordered and bracketed by min/max.
        let hist = report.latency.histogram();
        assert!(hist.p50() <= hist.p99());
        assert!(hist.p99() as f64 <= report.latency.max_ns());
    }

    #[test]
    fn one_way_filter_bypasses_reverse_direction() {
        // Even with a drop-all app, optical→edge traffic passes the
        // One-Way-Filter untouched.
        let mut m = FlexSfp::new(ModuleConfig::default(), Box::new(DropAll));
        let fwd = m.run(line_rate_trace(Direction::EdgeToOptical, 100, 128));
        assert_eq!(fwd.drops.app, 100);
        assert_eq!(fwd.forwarded.1, 0);
        let rev = m.run(line_rate_trace(Direction::OpticalToEdge, 100, 128));
        assert_eq!(rev.forwarded.0, 100);
        assert_eq!(rev.drops.total(), 0);
    }

    #[test]
    fn two_way_core_at_1x_overloads_and_2x_sustains() {
        // Figure 1 / §4.1: aggregating both directions doubles the PPE
        // load; at 1× clock the FIFO overflows, at 2× it keeps up.
        let mut trace = Vec::new();
        let n = 5_000;
        let gap_ns = ((64 + 20) as f64 * 0.8).ceil() as u64;
        for i in 0..n {
            let t = i as u64 * gap_ns;
            trace.push(SimPacket {
                arrival_ns: t,
                direction: Direction::EdgeToOptical,
                frame: data_frame(64),
            });
            trace.push(SimPacket {
                arrival_ns: t,
                direction: Direction::OpticalToEdge,
                frame: data_frame(64),
            });
        }

        let mut slow = FlexSfp::new(
            ModuleConfig {
                shell: ShellKind::TwoWayCore,
                ppe_clock: ClockDomain::XGMII_10G,
                ..Default::default()
            },
            Box::new(PassThrough),
        );
        let r_slow = slow.run(trace.clone());
        assert!(
            r_slow.drops.fifo_overflow > 0,
            "1x Two-Way-Core should overflow: {:?}",
            r_slow.drops
        );

        let mut fast = FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(PassThrough));
        let r_fast = fast.run(trace);
        assert_eq!(r_fast.drops.total(), 0, "{:?}", r_fast.drops);
        assert_eq!(r_fast.forwarded.0 + r_fast.forwarded.1, 2 * n as u64);
    }

    #[test]
    fn control_frames_divert_and_answer() {
        let mut m = FlexSfp::passthrough();
        let frame = control_frame(&m.config, &ControlRequest::Ping { nonce: 5 });
        let report = m.run(vec![SimPacket {
            arrival_ns: 0,
            direction: Direction::EdgeToOptical,
            frame,
        }]);
        assert_eq!(report.control_handled, 1);
        assert_eq!(report.forwarded.1, 0); // did not hit the dataplane
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].egress, Interface::Edge);
        let out = &report.outputs[0].frame;
        let eth = flexsfp_wire::EthernetFrame::new_checked(&out[..]).unwrap();
        let ip = flexsfp_wire::Ipv4Packet::new_checked(eth.payload()).unwrap();
        let udp = flexsfp_wire::UdpDatagram::new_checked(ip.payload()).unwrap();
        let resp = ControlPlane::decode_response(&AuthKey::DEFAULT, udp.payload()).unwrap();
        assert_eq!(resp, ControlResponse::Pong { nonce: 5 });
    }

    #[test]
    fn ota_driven_in_band_is_traced_like_oob() {
        // The same deploy as above, but every request arrives as a
        // control frame on the wire: the commit and the reboot must
        // both be in the event ring, in that order.
        let mut m = FlexSfp::passthrough();
        let (image, crc) = passthrough_image(7);
        let trace: Vec<SimPacket> = ota_requests(1, &image, crc)
            .iter()
            .enumerate()
            .map(|(i, req)| SimPacket {
                arrival_ns: i as u64 * 20_000,
                direction: Direction::EdgeToOptical,
                frame: control_frame(&m.config, req),
            })
            .collect();
        let report = m.run(trace);
        assert_eq!(report.control_handled, report.offered);
        assert_eq!((m.boots(), m.app_version()), (2, 7));
        let snap = m.telemetry_snapshot();
        let kinds: Vec<&EventKind> = snap.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            [
                &EventKind::Reprogram { slot: 1 },
                &EventKind::Reboot { slot: 1, ok: true }
            ]
        );

        // An in-band abort of an active transfer is traced too.
        let abort = [
            ControlRequest::BeginUpdate {
                slot: 2,
                total_len: image.len(),
                crc32: crc,
            },
            ControlRequest::AbortUpdate,
        ];
        m.run(
            abort
                .iter()
                .map(|req| SimPacket {
                    arrival_ns: 0,
                    direction: Direction::EdgeToOptical,
                    frame: control_frame(&m.config, req),
                })
                .collect(),
        );
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, EventKind::UpdateAbort);
    }

    #[test]
    fn failed_laser_drops_optical_egress() {
        let mut m = FlexSfp::passthrough();
        m.set_laser_ttf_hours(10_000.0);
        m.age_laser(20_000.0); // 2× TTF: far beyond failure
        let report = m.run(line_rate_trace(Direction::EdgeToOptical, 50, 64));
        assert_eq!(report.drops.link, 50);
        assert_eq!(report.forwarded.1, 0);
        // ...but the edge-bound direction still works (electrical).
        let rev = m.run(line_rate_trace(Direction::OpticalToEdge, 50, 64));
        assert_eq!(rev.forwarded.0, 50);
    }

    #[test]
    fn failed_laser_also_silences_replies_toward_the_fibre() {
        // A laser below the link budget cannot carry the control
        // plane's own frames either: a ping from the fibre side gets no
        // answer and is booked as a link drop, while the same ping from
        // the host side is still answered out the electrical lane.
        let mut m = FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(PassThrough));
        m.config.shell = ShellKind::ActiveControlPlane;
        m.set_laser_ttf_hours(10_000.0);
        m.age_laser(20_000.0);
        let ping = |arrival_ns, direction| SimPacket {
            arrival_ns,
            direction,
            frame: echo_request(&ModuleConfig::default()),
        };
        let tx_before = m.optical.tx.frames;
        let report = m.run(vec![
            ping(0, Direction::OpticalToEdge),
            ping(100, Direction::EdgeToOptical),
        ]);
        assert_eq!(report.cp_originated, 1);
        assert_eq!(report.drops.link, 1);
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.outputs[0].egress, Interface::Edge);
        assert_eq!(m.optical.tx.frames, tx_before);
        assert_eq!(
            report.offered,
            report.forwarded.0
                + report.forwarded.1
                + report.drops.total()
                + report.to_control
                + report.cp_originated
                + report.control_handled
        );
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.drops.link, 1);
        assert_eq!(
            snap.events
                .iter()
                .map(|e| (e.timestamp_ns, &e.kind))
                .collect::<Vec<_>>(),
            [(
                0,
                &EventKind::Drop {
                    reason: DropReason::LinkDown
                }
            )]
        );
    }

    #[test]
    fn active_shell_answers_ping_from_the_wire() {
        let mut m = FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(PassThrough));
        m.config.shell = crate::ShellKind::ActiveControlPlane;
        // An ICMP echo request to the module's own management IP,
        // arriving from the optical side.
        let ping = echo_request(&m.config);
        let report = m.run(vec![
            SimPacket {
                arrival_ns: 0,
                direction: Direction::OpticalToEdge,
                frame: ping.clone(),
            },
            // Ordinary traffic still flows through the PPE.
            SimPacket {
                arrival_ns: 100,
                direction: Direction::OpticalToEdge,
                frame: data_frame(64),
            },
        ]);
        assert_eq!(report.cp_originated, 1);
        assert_eq!(report.forwarded.0, 1); // only the data frame transits
                                           // The reply went back out the optical side.
        let reply = report
            .outputs
            .iter()
            .find(|o| o.egress == Interface::Optical)
            .unwrap();
        let eth = flexsfp_wire::EthernetFrame::new_checked(&reply.frame[..]).unwrap();
        assert_eq!(eth.dst(), MacAddr([0xee; 6]));

        // A passive shell does NOT answer: it is a bump in the wire.
        let mut passive = FlexSfp::passthrough();
        let r2 = passive.run(vec![SimPacket {
            arrival_ns: 0,
            direction: Direction::OpticalToEdge,
            frame: ping,
        }]);
        assert_eq!(r2.cp_originated, 0);
        assert_eq!(r2.forwarded.0, 1); // forwarded like any other frame
    }

    #[test]
    fn unsorted_trace_drops_and_counts() {
        // A host-composed trace with a straggler must not abort the run:
        // the out-of-order packet is dropped, counted, and traced, and
        // everything else forwards normally.
        let mut m = FlexSfp::passthrough();
        let report = m.run(vec![
            SimPacket {
                arrival_ns: 100,
                direction: Direction::EdgeToOptical,
                frame: data_frame(64),
            },
            SimPacket {
                arrival_ns: 50,
                direction: Direction::EdgeToOptical,
                frame: data_frame(64),
            },
            SimPacket {
                arrival_ns: 200,
                direction: Direction::EdgeToOptical,
                frame: data_frame(64),
            },
        ]);
        assert_eq!(report.offered, 3);
        assert_eq!(report.drops.unsorted, 1);
        assert_eq!(report.drops.total(), 1);
        assert_eq!(report.forwarded.0 + report.forwarded.1, 2);
        assert_eq!(report.outputs.len(), 2);
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.drops.unsorted, 1);
        assert!(snap.events.iter().any(|e| e.kind
            == EventKind::Drop {
                reason: DropReason::UnsortedArrival
            }));
    }

    #[test]
    fn run_stream_matches_run_aggregates() {
        // The streaming entry point must agree with the materializing one
        // on every aggregate statistic; only `outputs` differs (empty).
        let packets = || -> Vec<SimPacket> {
            (0..200)
                .map(|i| SimPacket {
                    arrival_ns: i * 700,
                    direction: Direction::EdgeToOptical,
                    frame: data_frame(64 + (i as usize % 128)),
                })
                .collect()
        };
        let mut a = FlexSfp::passthrough();
        let full = a.run(packets());
        let mut b = FlexSfp::passthrough();
        let streamed = b.run_stream_with(packets(), |_| {});
        assert_eq!(streamed.offered, full.offered);
        assert_eq!(streamed.offered_bytes, full.offered_bytes);
        assert_eq!(streamed.forwarded, full.forwarded);
        assert_eq!(streamed.forwarded_bytes, full.forwarded_bytes);
        assert_eq!(streamed.drops, full.drops);
        assert_eq!(streamed.duration_ns, full.duration_ns);
        assert_eq!(
            streamed.latency.histogram().count(),
            full.latency.histogram().count()
        );
        assert!(streamed.outputs.is_empty());
        assert_eq!(
            full.outputs.len(),
            full.forwarded.0 as usize + full.forwarded.1 as usize
        );
    }

    #[test]
    fn windows_feed_snapshot_and_slo() {
        let mut m = FlexSfp::passthrough();
        let report = m.run(line_rate_trace(Direction::EdgeToOptical, 2_000, 64));
        assert_eq!(report.forwarded.1, 2_000);
        let life = m.windows().lifetime();
        assert_eq!(life.forwarded, 2_000);
        assert_eq!(life.latency.count(), 2_000);
        // The snapshot carries the same series.
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.windows.lifetime().forwarded, 2_000);
        // A generous SLO holds on the healthy run.
        let spec = flexsfp_obs::SloSpec::generous();
        let report = flexsfp_obs::slo::evaluate(&spec, m.windows());
        assert!(report.healthy, "breaches: {:?}", report.breaches);
        // App drops are explained: they never breach the
        // unexplained-drop bound, and the verdict stays healthy on a
        // latency-only spec.
        let mut d = FlexSfp::new(ModuleConfig::default(), Box::new(DropAll));
        d.run(line_rate_trace(Direction::EdgeToOptical, 500, 64));
        assert_eq!(d.windows().lifetime().drops_app, 500);
        assert_eq!(d.windows().lifetime().drops_unexplained, 0);
    }
}
