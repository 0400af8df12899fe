//! The FlexSFP module assembly and its packet-level simulator.
//!
//! [`FlexSfp`] wires together the components of the Figure 2 prototype:
//! two 10 G transceivers (electrical edge + optical), the PPE running the
//! loaded application, the Mi-V control plane, the arbiter/demux, the
//! SPI flash, and the SFF-8472 management interface. [`FlexSfp::run`]
//! pushes a timestamped packet sequence through the selected architecture
//! shell with a queueing model of the PPE (finite ingress FIFOs, a busy
//! server clocked at the PPE clock), producing latency, loss, throughput
//! and power accounting — the machinery behind the Figure 1, §5.1 and
//! §5.3 experiments.

use crate::auth::AuthKey;
use crate::bitstream::{Bitstream, BitstreamMeta};
use crate::control::{ControlContext, ControlPlane, ControlRequest, ControlResponse};
use crate::failure::{DiagnosisThresholds, FaultDiagnosis, VcselModel};
use crate::reprogram::UpdateState;
use crate::shell::{ControlPlaneClass, ShellKind};
use flexsfp_fabric::clock::ClockDomain;
use flexsfp_fabric::i2c::ManagementInterface;
use flexsfp_fabric::power::{PowerBreakdown, PowerModel};
use flexsfp_fabric::resources::{table1, Device, FitReport, ResourceManifest};
use flexsfp_fabric::serdes::{LineRate, Transceiver};
use flexsfp_fabric::stream::DatapathConfig;
use flexsfp_fabric::SpiFlash;
use flexsfp_obs::{
    CacheStats, DomSnapshot, DropCounters, DropReason, EventKind, EventRing, FlightRecord,
    FlightRing, FlightStamp, FlightVerdict, LatencyHistogram, PortCounters, TelemetrySnapshot,
    WindowedSeries,
};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::{BatchPacket, Direction, KeyHint, PacketProcessor, ProcessContext, Verdict};
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::{fnv1a, MacAddr, FNV1A_OFFSET};
use std::collections::VecDeque;

/// PPE batch size: packets admitted to the PPE are queued and handed to
/// [`PacketProcessor::process_batch`] in fixed-size vectors, VPP-style,
/// amortizing dispatch and per-packet bookkeeping. Any event that could
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

/// Physical interfaces of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Host-side edge connector (electrical).
    Edge,
    /// Optical cage.
    Optical,
}

impl Interface {
    /// Natural egress interface for traffic travelling in `dir`.
    pub fn egress_for(dir: Direction) -> Interface {
        match dir {
            Direction::EdgeToOptical => Interface::Optical,
            Direction::OpticalToEdge => Interface::Edge,
        }
    }

    /// The other interface.
    pub fn other(self) -> Interface {
        match self {
            Interface::Edge => Interface::Optical,
            Interface::Optical => Interface::Edge,
        }
    }
}

/// Module configuration.
#[derive(Debug, Clone)]
pub struct ModuleConfig {
    /// Module serial / identifier.
    pub id: String,
    /// Architecture shell.
    pub shell: ShellKind,
    /// Control-plane class (§4.1): fabric softcore or hard SoC.
    pub cp_class: ControlPlaneClass,
    /// Interface datapath (width/clock at the Ethernet cores).
    pub datapath: DatapathConfig,
    /// PPE clock (the Two-Way-Core mitigation raises this to 2×).
    pub ppe_clock: ClockDomain,
    /// Line rate of both interfaces.
    pub line_rate: LineRate,
    /// Ingress FIFO capacity in bytes (per direction feeding the PPE).
    pub fifo_bytes: usize,
    /// Per-crossing SerDes+PCS latency, ns.
    pub serdes_latency_ns: f64,
    /// Management MAC address.
    pub mgmt_mac: MacAddr,
    /// Management IPv4 address.
    pub mgmt_ip: u32,
    /// Control-plane authentication key.
    pub auth_key: AuthKey,
}

impl Default for ModuleConfig {
    fn default() -> Self {
        ModuleConfig {
            id: "FSFP-PROTO-001".into(),
            shell: ShellKind::one_way_egress(),
            cp_class: ControlPlaneClass::Softcore,
            datapath: DatapathConfig::prototype_10g(),
            ppe_clock: ClockDomain::XGMII_10G,
            line_rate: LineRate::TenGig,
            // 64 KiB of LSRAM-backed buffering per direction.
            fifo_bytes: 64 * 1024,
            serdes_latency_ns: 100.0,
            mgmt_mac: MacAddr([0x02, 0xf5, 0x0f, 0x00, 0x00, 0x01]),
            mgmt_ip: 0x0a00_0164,
            auth_key: AuthKey::DEFAULT,
        }
    }
}

impl ModuleConfig {
    /// A Two-Way-Core configuration with the paper's 2× PPE clock.
    pub fn two_way_2x() -> ModuleConfig {
        ModuleConfig {
            shell: ShellKind::TwoWayCore,
            ppe_clock: ClockDomain::XGMII_10G_X2,
            ..Default::default()
        }
    }
}

/// A packet offered to the module.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Arrival time at the ingress interface, ns.
    pub arrival_ns: u64,
    /// Direction of travel.
    pub direction: Direction,
    /// The Ethernet frame (without FCS).
    pub frame: Vec<u8>,
}

/// A packet emitted by the module.
#[derive(Debug, Clone)]
pub struct OutputPacket {
    /// Departure time, ns.
    pub departure_ns: u64,
    /// Egress interface.
    pub egress: Interface,
    /// The (possibly modified) frame.
    pub frame: Vec<u8>,
    /// Module transit latency, ns.
    pub latency_ns: f64,
}

/// The canonical digest of an output stream: an FNV-1a fold of every
/// packet's departure time (LE), egress interface (one byte, 1 =
/// optical), frame length (`u32` LE) and frame bytes, in sink order.
/// Two runs with equal digests emitted the same frames, with the same
/// timing, in the same order — what every parity check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest(u64);

impl Default for OutputDigest {
    fn default() -> Self {
        OutputDigest(FNV1A_OFFSET)
    }
}

impl OutputDigest {
    /// Fold one output packet into the digest.
    pub fn fold(&mut self, out: &OutputPacket) {
        let mut h = fnv1a(self.0, &out.departure_ns.to_le_bytes());
        h = fnv1a(h, &[matches!(out.egress, Interface::Optical) as u8]);
        h = fnv1a(h, &(out.frame.len() as u32).to_le_bytes());
        self.0 = fnv1a(h, &out.frame);
    }

    /// The digest of everything folded so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Latency aggregate over forwarded packets, backed by the shared
/// log-linear histogram (`flexsfp-obs`): percentiles within 1 %
/// relative error, bounded memory, and lossless merging across runs
/// and modules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    hist: LatencyHistogram,
}

impl LatencyStats {
    fn record(&mut self, l: f64) {
        self.hist.record_f64(l);
    }

    /// Fold another run's latency population into this one — exact,
    /// because the underlying histogram merge is exact (shard-report
    /// merge).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
    }

    /// Packets measured.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Minimum, ns (rounded to the nearest nanosecond).
    pub fn min_ns(&self) -> f64 {
        self.hist.min() as f64
    }

    /// Maximum, ns (rounded to the nearest nanosecond).
    pub fn max_ns(&self) -> f64 {
        self.hist.max() as f64
    }

    /// Mean latency, ns (exact).
    pub fn mean_ns(&self) -> f64 {
        self.hist.mean()
    }

    /// Median latency, ns.
    pub fn p50_ns(&self) -> f64 {
        self.hist.p50() as f64
    }

    /// 90th-percentile latency, ns.
    pub fn p90_ns(&self) -> f64 {
        self.hist.p90() as f64
    }

    /// 99th-percentile latency, ns.
    pub fn p99_ns(&self) -> f64 {
        self.hist.p99() as f64
    }

    /// 99.9th-percentile latency, ns.
    pub fn p999_ns(&self) -> f64 {
        self.hist.p999() as f64
    }

    /// The underlying mergeable histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Packets offered.
    pub offered: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Forwarded packets per egress interface: (edge, optical).
    pub forwarded: (u64, u64),
    /// Bytes forwarded (total).
    pub forwarded_bytes: u64,
    /// Drops by reason — the same counters the module exports for its
    /// lifetime in every telemetry snapshot.
    pub drops: DropCounters,
    /// Packets diverted to the control plane by app verdict.
    pub to_control: u64,
    /// Control-protocol requests handled (frames answered).
    pub control_handled: u64,
    /// Frames originated by the active control plane itself (ARP/ICMP
    /// microservice replies; Active-Control-Plane shell only).
    pub cp_originated: u64,
    /// Latency over forwarded dataplane packets.
    pub latency: LatencyStats,
    /// Wall-clock span of the run, ns (last departure or arrival).
    pub duration_ns: u64,
    /// Emitted packets (in departure order).
    pub outputs: Vec<OutputPacket>,
}

impl SimReport {
    /// Delivered dataplane throughput over the run, bits/s.
    pub fn delivered_bps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.forwarded_bytes as f64 * 8.0 / (self.duration_ns as f64 / 1e9)
    }

    /// Fraction of offered packets forwarded.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        (self.forwarded.0 + self.forwarded.1) as f64 / self.offered as f64
    }
}

/// Constructs an application from bitstream metadata at boot.
pub type AppFactory = Box<dyn Fn(&BitstreamMeta) -> Option<Box<dyn PacketProcessor>> + Send>;

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
    arrival_fs: u128,
    departure_fs: u128,
}

/// Deterministic 1-in-N Bernoulli sampler driving the flight recorder.
/// One PRNG draw per dataplane packet, so the decision for the k-th
/// packet depends only on `(seed, k)` and two runs over the same trace
/// produce byte-identical record sets.
#[derive(Debug)]
struct FlightSampler {
    rng: Xoshiro256,
    /// Sample when the draw is `<=` this threshold (`u64::MAX / every`,
    /// so `every = 1` samples everything).
    threshold: u64,
}

impl FlightSampler {
    fn new(every: u64, seed: u64) -> FlightSampler {
        FlightSampler {
            rng: Xoshiro256::seed_from_u64(seed),
            threshold: u64::MAX / every.max(1),
        }
    }

    fn sample(&mut self) -> bool {
        self.rng.next_u64() <= self.threshold
    }
}

/// Armed flight-recorder state: the sampler, the bounded postcard ring
/// and the monotone record sequence number.
#[derive(Debug)]
struct FlightState {
    sampler: FlightSampler,
    ring: FlightRing,
    seq: u64,
}

/// Queue observation taken at admit time for a sampled packet. The
/// bypass path has no PPE queue: its postcards carry the all-zero
/// default.
#[derive(Debug, Clone, Copy, Default)]
struct FlightCapture {
    queue_bytes: u64,
    queue_pkts: u64,
}

/// The one accounting context of the per-packet path: everything a
/// packet's fate is booked into — the run's report and clock, both
/// lanes, the event ring, the lifetime drop counters, the windowed
/// series and the flight ring — borrowed for as long as one fate (or
/// one batch of them) takes. Built only by [`FlexSfp::accounts`], the
/// one place the module's fields are split.
struct Accounts<'a> {
    report: &'a mut SimReport,
    last_time_ns: &'a mut u64,
    edge: &'a mut Transceiver,
    optical: &'a mut Transceiver,
    events: &'a mut EventRing,
    lifetime_drops: &'a mut DropCounters,
    windows: &'a mut WindowedSeries,
    flight: Option<&'a mut FlightState>,
}

/// The drop-reason table, counter half: which counter a reason bumps.
fn drop_counter(drops: &mut DropCounters, reason: DropReason) -> &mut u64 {
    match reason {
        DropReason::FifoOverflow => &mut drops.fifo_overflow,
        DropReason::App => &mut drops.app,
        DropReason::LinkDown => &mut drops.link,
        DropReason::UnsortedArrival => &mut drops.unsorted,
        DropReason::ParseError => {
            unreachable!("a parse failure is the application's drop verdict, not a module drop")
        }
    }
}

impl Accounts<'_> {
    /// Book one dropped packet: the run's and the lifetime counter, a
    /// `Drop` event, and the window `ts` falls in. Only the
    /// application's own verdict is an explained drop; every other
    /// reason counts against the SLO's unexplained-drop bound.
    fn drop(&mut self, reason: DropReason, ts: u64) -> FlightVerdict {
        *drop_counter(&mut self.report.drops, reason) += 1;
        *drop_counter(self.lifetime_drops, reason) += 1;
        self.events.record(ts, EventKind::Drop { reason });
        self.windows.record_drop(ts, reason != DropReason::App);
        FlightVerdict::Dropped { reason }
    }

    /// Ingress lane accounting; false when the lane is disabled.
    fn receive(&mut self, direction: Direction, len: usize) -> bool {
        match direction {
            Direction::EdgeToOptical => self.edge.record_rx(len),
            Direction::OpticalToEdge => self.optical.record_rx(len),
        }
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

        // u128 division compiles to a libcall; simulated times fit u64
        // femtoseconds (~5 h) in practice, so divide in u64 (a
        // multiply-shift) and keep the wide division as the fallback.
        let departure_ns = if t.departure_fs <= u128::from(u64::MAX) {
            (t.departure_fs as u64) / 1_000_000
        } else {
            (t.departure_fs / 1_000_000) as u64
        };
        let transit_fs = t.departure_fs - t.arrival_fs;
        let latency_ns = if transit_fs <= u128::from(u64::MAX) {
            transit_fs as u64 as f64 / 1e6
        } else {
            transit_fs as f64 / 1e6
        };
        self.report.latency.record(latency_ns);
        self.windows.record_forwarded(departure_ns, latency_ns);
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

    /// Stamp and ring-buffer a sampled packet's postcard; `cap` is
    /// `None` for the unsampled majority.
    fn postcard(
        &mut self,
        cap: Option<FlightCapture>,
        arrival_ns: u64,
        stamp: FlightStamp,
        verdict: FlightVerdict,
    ) {
        let (Some(cap), Some(flight)) = (cap, self.flight.as_deref_mut()) else {
            return;
        };
        let seq = flight.seq;
        flight.seq += 1;
        flight.ring.push(FlightRecord {
            seq,
            arrival_ns,
            queue_bytes: cap.queue_bytes,
            queue_pkts: cap.queue_pkts,
            cache_hit: stamp.cache_hit,
            stages: stamp.stages,
            verdict,
        });
    }
}

/// One queued-entry record of the PPE server model.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    finish_fs: u128,
    bytes: usize,
}

/// A busy-server + finite-FIFO model of the PPE.
#[derive(Debug)]
struct PpeServer {
    free_fs: u128,
    fifo_bytes: usize,
    in_flight: VecDeque<InFlight>,
    /// Running sum of `in_flight` bytes, so admission is O(1) instead
    /// of re-summing the queue per packet.
    backlog: usize,
}

impl PpeServer {
    fn new(fifo_bytes: usize) -> PpeServer {
        PpeServer {
            free_fs: 0,
            fifo_bytes,
            in_flight: VecDeque::new(),
            backlog: 0,
        }
    }

    /// Entries that completed service by `arrival_fs` have left the
    /// FIFO. Idempotent, so observing the queue before admitting to it
    /// does not perturb the model.
    fn retire(&mut self, arrival_fs: u128) {
        while let Some(front) = self.in_flight.front() {
            if front.finish_fs > arrival_fs {
                break;
            }
            self.backlog -= front.bytes;
            self.in_flight.pop_front();
        }
    }

    /// Try to admit a packet arriving at `arrival_fs` needing
    /// `service_fs` of PPE time. Returns the service start time, or
    /// `None` on FIFO overflow.
    fn admit(&mut self, arrival_fs: u128, len: usize, service_fs: u128) -> Option<u128> {
        self.retire(arrival_fs);
        if self.backlog + len > self.fifo_bytes {
            return None;
        }
        let start = self.free_fs.max(arrival_fs);
        let finish = start + service_fs;
        self.free_fs = finish;
        self.backlog += len;
        self.in_flight.push_back(InFlight {
            finish_fs: finish,
            bytes: len,
        });
        Some(start)
    }

    /// The queue a packet arriving at `arrival_fs` would see.
    fn depth_at(&mut self, arrival_fs: u128) -> FlightCapture {
        self.retire(arrival_fs);
        FlightCapture {
            queue_bytes: self.backlog as u64,
            queue_pkts: self.in_flight.len() as u64,
        }
    }
}

/// The FlexSFP module.
pub struct FlexSfp {
    /// Configuration.
    pub config: ModuleConfig,
    app: Box<dyn PacketProcessor>,
    app_version: u32,
    /// Embedded control plane.
    pub control: ControlPlane,
    /// SPI flash.
    pub flash: SpiFlash,
    /// SFF-8472 management EEPROM/diagnostics.
    pub mgmt: ManagementInterface,
    /// Edge (electrical) transceiver.
    pub edge: Transceiver,
    /// Optical transceiver.
    pub optical: Transceiver,
    /// Laser wear model.
    pub vcsel: VcselModel,
    laser_age_hours: f64,
    laser_ttf_hours: f64,
    boots: u32,
    factory: AppFactory,
    power_model: PowerModel,
    /// Dataplane event trace ring (a hardware trace buffer: drops,
    /// auth rejects, reprogram/reboot events), drained with each
    /// telemetry snapshot.
    pub events: EventRing,
    lifetime_drops: DropCounters,
    lifetime_latency: LatencyHistogram,
    /// High-water mark of simulated time, used to stamp events raised
    /// on the control path (which carries no packet timestamps).
    clock_ns: u64,
    snapshot_seq: u64,
    events_exported: u64,
    /// Flight recorder (sampled INT-style postcards); `None` until
    /// armed with [`enable_flight_recorder`](Self::enable_flight_recorder).
    flight: Option<FlightState>,
    /// Always-on windowed time-series over dataplane outcomes — what
    /// the SLO engine evaluates and the collector scrapes.
    windows: WindowedSeries,
    /// Application cache counters at the last batch flush, for
    /// per-window hit/miss deltas.
    last_cache: CacheStats,
}

impl std::fmt::Debug for FlexSfp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlexSfp")
            .field("id", &self.config.id)
            .field("shell", &self.config.shell.name())
            .field("app", &self.app.name())
            .field("boots", &self.boots)
            .finish()
    }
}

impl FlexSfp {
    /// Assemble a module running `app` under `config`.
    pub fn new(config: ModuleConfig, app: Box<dyn PacketProcessor>) -> FlexSfp {
        let control = ControlPlane::new(config.mgmt_mac, config.mgmt_ip, config.auth_key);
        let mut edge = Transceiver::new("electrical", config.line_rate);
        let mut optical = Transceiver::new("optical", config.line_rate);
        // The Mi-V startup sequence: configure transceivers, laser
        // driver and limiting amplifier (§5.1).
        edge.enable();
        optical.enable();
        let vcsel = VcselModel::default();
        let mut module = FlexSfp {
            config,
            app,
            app_version: 1,
            control,
            flash: SpiFlash::new(),
            mgmt: ManagementInterface::default(),
            edge,
            optical,
            vcsel,
            laser_age_hours: 0.0,
            laser_ttf_hours: vcsel.median_ttf_hours,
            boots: 1,
            factory: Box::new(default_factory),
            power_model: PowerModel::flexsfp_prototype(),
            events: EventRing::default(),
            lifetime_drops: DropCounters::default(),
            lifetime_latency: LatencyHistogram::new(),
            clock_ns: 0,
            snapshot_seq: 0,
            events_exported: 0,
            flight: None,
            windows: WindowedSeries::default(),
            last_cache: CacheStats::default(),
        };
        module.refresh_dom();
        module
    }

    /// A module with the default configuration and a pass-through app.
    pub fn passthrough() -> FlexSfp {
        FlexSfp::new(ModuleConfig::default(), Box::new(PassThrough))
    }

    /// Replace the application factory used at reboot.
    pub fn set_factory(&mut self, f: AppFactory) {
        self.factory = f;
    }

    /// Name of the running application.
    pub fn app_name(&self) -> &str {
        self.app.name()
    }

    /// Running application version.
    pub fn app_version(&self) -> u32 {
        self.app_version
    }

    /// Boot count.
    pub fn boots(&self) -> u32 {
        self.boots
    }

    /// Direct (mutable) access to the running application — the
    /// "local bus" between control core and PPE used by tests and the
    /// OOB management path.
    pub fn app_mut(&mut self) -> &mut dyn PacketProcessor {
        self.app.as_mut()
    }

    /// Arm the flight recorder: sample one in `every` dataplane packets
    /// (deterministically from `seed`), keeping up to `capacity`
    /// postcards in a bounded ring. Also turns on the running
    /// application's stage stamping; the setting survives reboots.
    pub fn enable_flight_recorder(&mut self, every: u64, seed: u64, capacity: usize) {
        self.flight = Some(FlightState {
            sampler: FlightSampler::new(every, seed),
            ring: FlightRing::new(capacity),
            seq: 0,
        });
        self.app.set_flight_recording(true);
    }

    /// Disarm the flight recorder, discarding any unread postcards and
    /// turning the application's stage stamping back off.
    pub fn disable_flight_recorder(&mut self) {
        self.app.set_flight_recording(false);
        self.flight = None;
    }

    /// Drain the recorded postcards, oldest first — what a
    /// `ReadFlightRecords` request on the OOB port returns. Empty when
    /// the recorder is disarmed.
    pub fn drain_flight_records(&mut self) -> Vec<FlightRecord> {
        self.flight
            .as_mut()
            .map(|f| f.ring.drain())
            .unwrap_or_default()
    }

    /// Postcards lost to ring overwrite since the recorder was armed.
    pub fn flight_overwritten(&self) -> u64 {
        self.flight.as_ref().map_or(0, |f| f.ring.overwritten())
    }

    /// The rolling windowed time-series (1 ms buckets by default) —
    /// also exported with every telemetry snapshot.
    pub fn windows(&self) -> &WindowedSeries {
        &self.windows
    }

    /// Replace the windowed-series geometry (bucket width × live-window
    /// count). Long soak runs widen the buckets and deepen the ring so
    /// the whole run stays SLO-evaluable instead of only the last
    /// 32 ms; call before offering traffic — swapping the series
    /// discards anything already recorded.
    pub fn configure_windows(&mut self, width_ns: u64, capacity: usize) {
        self.windows = WindowedSeries::new(width_ns, capacity);
    }

    /// Total design manifest: application + interfaces + control
    /// plane + shell plumbing (the Table 1 decomposition; the
    /// control-plane row is the Mi-V only for the softcore class).
    pub fn design_manifest(&self) -> ResourceManifest {
        self.app.resource_manifest()
            + self.config.cp_class.manifest()
            + table1::ELECTRICAL_IF
            + table1::OPTICAL_IF
            + self.config.shell.overhead_manifest()
    }

    /// Fit report of the whole design against the MPF200T.
    pub fn fit_report(&self) -> FitReport {
        Device::mpf200t().fit(self.design_manifest())
    }

    /// Module power at the given operating point. An SoC-class control
    /// plane adds its hard-processor watts to the static term.
    pub fn power(&self, line_utilization: f64, activity: f64) -> PowerBreakdown {
        let lanes = u32::from(self.edge.is_enabled()) + u32::from(self.optical.is_enabled());
        let mut p = self.power_model.power(
            &self.design_manifest(),
            self.config.ppe_clock,
            lanes,
            line_utilization,
            activity,
        );
        p.fpga_static_w += self.config.cp_class.extra_power_w();
        p
    }

    /// Age the laser by `hours` and refresh the DOM diagnostics.
    pub fn age_laser(&mut self, hours: f64) {
        self.laser_age_hours += hours;
        self.optical.health = self
            .vcsel
            .health_at(self.laser_age_hours, self.laser_ttf_hours);
        self.refresh_dom();
    }

    /// Override the sampled laser TTF (failure-injection hooks).
    pub fn set_laser_ttf_hours(&mut self, ttf: f64) {
        self.laser_ttf_hours = ttf;
    }

    /// Refresh the A2h diagnostics page from physical state.
    pub fn refresh_dom(&mut self) {
        let temp = 38.0 + 4.0 * self.power(1.0, 1.0).total_w();
        let rx_mw = 0.4; // nominal received light; link models override
        self.mgmt.update_dom(temp, 3.3, &self.optical.health, rx_mw);
    }

    /// Stamp an event raised on the control path, which carries no
    /// packet timestamps: one tick past the simulated-time high-water
    /// mark.
    fn trace(&mut self, kind: EventKind) {
        self.clock_ns += 1;
        self.events.record(self.clock_ns, kind);
    }

    /// Run `f` against the control plane with the module state a
    /// request handler may touch — the one path in-band control frames
    /// and the OOB port share. What `f` did to the update FSM is traced
    /// here, whichever port it came in on: a commit that flashed its
    /// slot is a `Reprogram`, and an abort that tore down an active
    /// update is an `UpdateAbort`, so a host resynchronising after
    /// channel loss is visible in the ring.
    fn with_control<R>(
        &mut self,
        f: impl FnOnce(&mut ControlPlane, &mut ControlContext<'_>) -> R,
    ) -> R {
        let receiving = match self.control.update_state() {
            UpdateState::Receiving { slot, .. } => Some(*slot as u8),
            _ => None,
        };
        let aborts = self.control.ctrl_counters().update_aborts;
        let dom = self.mgmt.read_dom();
        let mut ctx = ControlContext {
            app: self.app.as_mut(),
            flash: &mut self.flash,
            dom,
            module_id: &self.config.id,
            app_version: self.app_version,
            boots: self.boots,
        };
        let out = f(&mut self.control, &mut ctx);
        if let (Some(slot), UpdateState::Staged { .. }) = (receiving, self.control.update_state()) {
            self.trace(EventKind::Reprogram { slot });
        }
        if self.control.ctrl_counters().update_aborts > aborts {
            self.trace(EventKind::UpdateAbort);
        }
        out
    }

    /// Handle a control request arriving on the out-of-band management
    /// port (the arbiter's third port in Figure 1) — payload-level, no
    /// Ethernet framing. Returns the encoded response payload.
    pub fn handle_oob(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        let Some(req) = self.control.decode(payload) else {
            self.trace(EventKind::AuthReject);
            return None;
        };
        let resp = match req {
            // Telemetry and the flight ring are answered at module
            // level: the generic handler cannot see the transceivers,
            // event ring, laser model or flight recorder.
            ControlRequest::ReadTelemetry => {
                ControlResponse::Telemetry(Box::new(self.telemetry_snapshot()))
            }
            ControlRequest::ReadFlightRecords => {
                ControlResponse::FlightRecords(self.drain_flight_records())
            }
            req => {
                let resp = self.with_control(|control, ctx| control.handle(req, ctx));
                self.maybe_reboot();
                resp
            }
        };
        Some(self.control.encode(&resp))
    }

    /// Consume a pending activation and reboot from that flash slot.
    /// Falls back to the golden slot (0) when the staged image is
    /// corrupt, unknown to the factory, or does not fit the device.
    pub fn maybe_reboot(&mut self) -> bool {
        let Some(slot) = self.control.pending_activation.take() else {
            return false;
        };
        self.boots += 1;
        // The softcore restarts on reboot, so the in-memory update FSM
        // does not survive: tear down any in-progress transfer. This is
        // what keeps a rollback from wedging the next deploy.
        self.control.reset_update();
        let ok = self.try_boot_slot(slot);
        self.trace(EventKind::Reboot {
            slot: slot as u8,
            ok,
        });
        if ok {
            return true;
        }
        // Fallback: golden image.
        if !self.try_boot_slot(0) {
            // Last resort: a pass-through "factory" datapath.
            self.app = Box::new(PassThrough);
            self.app_version = 0;
        }
        true
    }

    fn try_boot_slot(&mut self, slot: usize) -> bool {
        let Ok(raw) = self
            .flash
            .read_slot(slot, flexsfp_fabric::flash::SLOT_BYTES)
        else {
            return false;
        };
        let Ok(bs) = Bitstream::from_bytes(trim_flash_image(raw)) else {
            return false;
        };
        // Fit check before activation.
        let total = bs.meta.manifest
            + table1::MI_V
            + table1::ELECTRICAL_IF
            + table1::OPTICAL_IF
            + self.config.shell.overhead_manifest();
        if !Device::mpf200t().fit(total).fits() {
            return false;
        }
        let Some(app) = (self.factory)(&bs.meta) else {
            return false;
        };
        self.app = app;
        self.app_version = bs.meta.version;
        // Recorder settings survive the reboot: re-arm stage stamping
        // on the freshly booted application.
        if self.flight.is_some() {
            self.app.set_flight_recording(true);
        }
        true
    }

    /// Run a packet sequence through the module, materializing every
    /// output packet sorted by departure time. Packets must be sorted by
    /// arrival time; out-of-order packets are dropped and counted (see
    /// [`run_stream_with`](Self::run_stream_with)).
    pub fn run(&mut self, packets: Vec<SimPacket>) -> SimReport {
        let mut outputs = Vec::with_capacity(packets.len());
        let mut report = self.run_stream_with(packets, |o| outputs.push(o));
        outputs.sort_by_key(|o| o.departure_ns);
        report.outputs = outputs;
        report
    }

    /// Run a packet stream through the module without retaining outputs:
    /// aggregate statistics only, memory O(1) in trace length. This is
    /// the throughput-measurement entry point — 10M+-packet runs are
    /// feasible because neither the trace nor the outputs are ever
    /// materialized.
    pub fn run_stream<I>(&mut self, packets: I) -> SimReport
    where
        I: IntoIterator<Item = SimPacket>,
    {
        self.run_stream_with(packets, |_| {})
    }

    /// The streaming simulation core behind [`run`](Self::run) and
    /// [`run_stream`](Self::run_stream): consume `packets` lazily and
    /// emit each output packet to `sink` as it is produced.
    ///
    /// Outputs reach the sink in processing order, which is not globally
    /// departure order (control-plane replies depart 10 µs after their
    /// request); [`run`](Self::run) re-sorts. The sink owns each frame —
    /// recycling them into the [`flexsfp_wire::PacketArena`] the trace
    /// was leased from keeps a whole run allocation-free.
    ///
    /// Packets must be offered sorted by arrival time. A packet that
    /// arrives before its predecessor is dropped and counted
    /// (`drops.unsorted`, plus an `UnsortedArrival` dataplane event)
    /// rather than aborting the run, so host-composed traces (e.g.
    /// merged fleet traffic) can never crash the process.
    pub fn run_stream_with<I, F>(&mut self, packets: I, mut sink: F) -> SimReport
    where
        I: IntoIterator<Item = SimPacket>,
        F: FnMut(OutputPacket),
    {
        let mut session = self.begin_stream();
        let mut tagged = |_tag: u64, out: OutputPacket| sink(out);
        for (seq, pkt) in packets.into_iter().enumerate() {
            session.offer(self, seq as u64, pkt, &mut tagged);
        }
        session.finish(self, &mut tagged)
    }

    /// Begin an incremental streaming run: the session half of
    /// [`run_stream_with`](Self::run_stream_with), reified for callers
    /// that cannot hand over a complete iterator — the sharded
    /// dataplane dispatcher interleaves packet offers with ring I/O
    /// and needs every output labelled with the input tag that
    /// produced it. Drive it with [`StreamSession::offer`] and close
    /// with [`StreamSession::finish`].
    pub fn begin_stream(&mut self) -> StreamSession {
        StreamSession {
            report: SimReport::default(),
            server: PpeServer::new(self.config.fifo_bytes),
            serdes_fs: (self.config.serdes_latency_ns * 1e6) as u128,
            ppe_period_fs: self.config.ppe_clock.period_fs() as u128,
            pipeline_cycles: 4 + 3 * u128::from(self.app.pipeline_depth()),
            last_time_ns: 0,
            prev_arrival: 0,
            last_beats: (usize::MAX, 0),
            batch: Vec::with_capacity(PPE_BATCH),
            pending: Vec::with_capacity(PPE_BATCH),
        }
    }

    /// Split the module into the per-packet accounting context of one
    /// run (`report`, `last_time_ns` are the session's).
    fn accounts<'a>(
        &'a mut self,
        report: &'a mut SimReport,
        last_time_ns: &'a mut u64,
    ) -> Accounts<'a> {
        Accounts {
            report,
            last_time_ns,
            edge: &mut self.edge,
            optical: &mut self.optical,
            events: &mut self.events,
            lifetime_drops: &mut self.lifetime_drops,
            windows: &mut self.windows,
            flight: self.flight.as_mut(),
        }
    }

    /// Produce one telemetry export: lifetime counters and latency
    /// histogram, the DOM/laser-health readout, and the drained event
    /// ring (module trace buffer plus the running app's own ring).
    /// This is what a `ReadTelemetry` request on the OOB port returns.
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        self.snapshot_seq += 1;
        self.refresh_dom();
        let dom = self.mgmt.read_dom();
        let diag = crate::failure::diagnose(&dom, &self.vcsel, &DiagnosisThresholds::default());
        let mut events = self.events.drain();
        events.extend(self.app.drain_events());
        events.sort_by_key(|e| e.timestamp_ns);
        self.events_exported += events.len() as u64;
        TelemetrySnapshot {
            module_id: self.config.id.clone(),
            seq: self.snapshot_seq,
            app: self.app.name().to_string(),
            app_version: self.app_version,
            boots: self.boots,
            edge_rx: port_counters(&self.edge.rx),
            edge_tx: port_counters(&self.edge.tx),
            optical_rx: port_counters(&self.optical.rx),
            optical_tx: port_counters(&self.optical.tx),
            drops: self.lifetime_drops,
            latency: self.lifetime_latency.clone(),
            dom: DomSnapshot::from_milliwatts(
                dom.tx_power_mw,
                dom.rx_power_mw,
                dom.tx_bias_ma,
                dom.temperature_c,
            ),
            laser_fault: fault_label(&diag).to_string(),
            laser_healthy: diag == FaultDiagnosis::Healthy,
            events,
            events_overwritten: self.events.overwritten() + self.app.events_lost(),
            events_drained: self.events_exported,
            cache: self.app.cache_stats().unwrap_or_default(),
            table: self.app.table_stats().unwrap_or_default(),
            ctrl: self.control.ctrl_counters(),
            windows: self.windows.clone(),
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
    report: SimReport,
    server: PpeServer,
    serdes_fs: u128,
    ppe_period_fs: u128,
    pipeline_cycles: u128,
    last_time_ns: u64,
    prev_arrival: u64,
    /// One-entry memo of beats_for(len): the ceiling division has a
    /// runtime divisor, and fixed-size workloads repeat one length.
    last_beats: (usize, u128),
    batch: Vec<BatchPacket>,
    pending: Vec<Transit>,
}

impl StreamSession {
    fn accounts<'a>(&'a mut self, m: &'a mut FlexSfp) -> Accounts<'a> {
        m.accounts(&mut self.report, &mut self.last_time_ns)
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
        // Fold this batch's cache-counter delta into the window its
        // newest packet lands in. Saturating: a reboot swaps the
        // application and resets its counters mid-run.
        if let Some(stats) = m.app.cache_stats() {
            m.windows.record_cache(
                newest.arrival_ns,
                stats.hits.saturating_sub(m.last_cache.hits),
                stats.misses.saturating_sub(m.last_cache.misses),
                stats.evictions.saturating_sub(m.last_cache.evictions),
                m.app.cache_occupancy().unwrap_or(0),
            );
            m.last_cache = stats;
        }
        // The sampled packet is the newest slot, so the processor's most
        // recent stamp is its stage trace, and the last verdict
        // dispatched below is its fate.
        let stamp = cap.and_then(|_| m.app.flight_stamp()).unwrap_or_default();
        let mut acct = m.accounts(&mut self.report, &mut self.last_time_ns);
        let mut fate = None;
        for (slot, t) in self.batch.drain(..).zip(self.pending.drain(..)) {
            fate = Some(acct.dispatch(t, slot.frame, slot.verdict, slot.ctx.direction, sink));
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
        self.report.offered += 1;
        self.report.offered_bytes += pkt.frame.len() as u64;
        if ts < self.prev_arrival {
            // Straggler in a host-composed trace: drop and count
            // before it reaches ingress accounting.
            self.accounts(m).drop(DropReason::UnsortedArrival, ts);
            return;
        }
        self.prev_arrival = ts;
        self.last_time_ns = self.last_time_ns.max(ts);
        let mut acct = self.accounts(m);
        if !acct.receive(pkt.direction, pkt.frame.len()) {
            acct.drop(DropReason::LinkDown, ts);
            return;
        }
        if self.answer_microservice(m, tag, &pkt, hint, sink)
            || self.divert_control(m, tag, &pkt, hint, sink)
        {
            return;
        }

        let arrival_fs = u128::from(ts) * 1_000_000;
        // One sampler draw per dataplane packet (PPE and bypass
        // alike), taken before the FIFO decision so overflow drops
        // are observable in the flight record too. Control and
        // microservice frames diverted above never draw.
        let sampled = m.flight.as_mut().is_some_and(|f| f.sampler.sample());
        if !m.config.shell.ppe_applies(pkt.direction) {
            // Bypass path: SerDes in, merge, SerDes out. Flush so
            // outputs still reach the sink in arrival order. No PPE
            // queue and no stages here: a sampled packet gets an honest
            // all-zero postcard bar the verdict.
            self.flush_batch(m, None, sink);
            let t = Transit {
                tag,
                arrival_ns: ts,
                arrival_fs,
                departure_fs: arrival_fs + 2 * self.serdes_fs,
            };
            let mut acct = self.accounts(m);
            let fate = acct.dispatch(t, pkt.frame, Verdict::Forward, pkt.direction, sink);
            let cap = sampled.then(FlightCapture::default);
            acct.postcard(cap, ts, FlightStamp::default(), fate);
            return;
        }

        let len = pkt.frame.len();
        if self.last_beats.0 != len {
            self.last_beats = (len, u128::from(m.config.datapath.beats_for(len)));
        }
        let service_fs = self.last_beats.1 * self.ppe_period_fs;
        // Observe the queue a sampled packet meets before it is
        // admitted (admission changes the backlog).
        let cap = sampled.then(|| self.server.depth_at(arrival_fs));
        let Some(start_fs) = self.server.admit(arrival_fs, len, service_fs) else {
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
            arrival_fs,
            departure_fs: start_fs
                + service_fs
                + self.pipeline_cycles * self.ppe_period_fs
                + 2 * self.serdes_fs,
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
        let Some((_svc, reply)) = maybe_mine
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

    /// Close the run: flush the final partial batch, stamp the
    /// duration, and fold the run into the module's lifetime
    /// telemetry — byte-identical to how `run_stream_with` ends.
    pub fn finish<F: FnMut(u64, OutputPacket)>(
        mut self,
        m: &mut FlexSfp,
        sink: &mut F,
    ) -> SimReport {
        self.flush_batch(m, None, sink);
        self.report.duration_ns = self.last_time_ns;
        m.lifetime_latency.merge(self.report.latency.histogram());
        m.clock_ns = m.clock_ns.max(self.last_time_ns);
        self.report
    }
}

fn port_counters(lane: &flexsfp_fabric::serdes::LaneCounters) -> PortCounters {
    PortCounters {
        frames: lane.frames,
        bytes: lane.bytes,
        errors: lane.errors,
    }
}

/// Stable lowercase label for a fault diagnosis (Prometheus-friendly).
fn fault_label(d: &FaultDiagnosis) -> &'static str {
    match d {
        FaultDiagnosis::Healthy => "healthy",
        FaultDiagnosis::LaserDegradation => "laser_degradation",
        FaultDiagnosis::LaserFailed => "laser_failed",
        FaultDiagnosis::DriverFault => "driver_fault",
        FaultDiagnosis::RxLoss => "rx_loss",
    }
}

/// Strip the trailing 0xFF erase fill from a flash slot read so the
/// bitstream parser sees only the image. The bitstream's own length
/// fields + CRC make this safe.
fn trim_flash_image(raw: &[u8]) -> &[u8] {
    // Find the last non-0xFF byte; the CRC trailer is extremely unlikely
    // to be 0xFFFFFFFF on a real image (and the golden images we write
    // never are).
    let end = raw.iter().rposition(|&b| b != 0xff).map_or(0, |p| p + 1);
    &raw[..end]
}

fn default_factory(meta: &BitstreamMeta) -> Option<Box<dyn PacketProcessor>> {
    match meta.app.as_str() {
        "passthrough" => Some(Box::new(PassThrough)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{ControlRequest, ControlResponse};
    use flexsfp_ppe::engine::DropAll;
    use flexsfp_wire::builder::PacketBuilder;

    fn data_frame(len: usize) -> Vec<u8> {
        let payload = vec![0xabu8; len.saturating_sub(14 + 20 + 8)];
        let mut f = PacketBuilder::eth_ipv4_udp(
            MacAddr([0x10; 6]),
            MacAddr([0x20; 6]),
            0xc0a80001,
            0x0a000001,
            1111,
            2222,
            &payload,
        );
        f.truncate(len.max(60));
        f
    }

    fn line_rate_trace(direction: Direction, n: usize, len: usize) -> Vec<SimPacket> {
        // 10G line rate: one `len`-byte frame every (len+20)*0.8 ns.
        let gap_ns = ((len + 20) as f64 * 0.8).ceil() as u64;
        (0..n)
            .map(|i| SimPacket {
                arrival_ns: i as u64 * gap_ns,
                direction,
                frame: data_frame(len),
            })
            .collect()
    }

    /// `req`, authenticated, in a UDP frame to the module's management
    /// address from a host station.
    fn control_frame(config: &ModuleConfig, req: &ControlRequest) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            config.mgmt_mac,
            MacAddr([0xee; 6]),
            0x0a000101,
            config.mgmt_ip,
            40_000,
            crate::control::CONTROL_PORT,
            &ControlPlane::encode_request(&config.auth_key, req),
        )
    }

    /// An ICMP echo request to the module's own management IP.
    fn echo_request(config: &ModuleConfig) -> Vec<u8> {
        let mut icmp_bytes = vec![0u8; 8 + 4];
        {
            let mut p = flexsfp_wire::IcmpPacket::new_unchecked(&mut icmp_bytes);
            p.set_msg_type(flexsfp_wire::IcmpType::EchoRequest);
            p.set_echo_ident(1);
            p.set_echo_seq(1);
        }
        flexsfp_wire::IcmpPacket::new_unchecked(&mut icmp_bytes).fill_checksum();
        let ip = PacketBuilder::ipv4(
            0x0a000101,
            config.mgmt_ip,
            flexsfp_wire::IpProtocol::Icmp,
            &icmp_bytes,
        );
        PacketBuilder::ethernet(
            config.mgmt_mac,
            MacAddr([0xee; 6]),
            flexsfp_wire::EtherType::Ipv4,
            &ip,
        )
    }

    /// The §5.1 passthrough bitstream at `version`, with its CRC.
    fn passthrough_image(version: u32) -> (Vec<u8>, u32) {
        let bs = Bitstream::new(
            "passthrough",
            version,
            ResourceManifest::new(100, 100, 0, 0),
            156_250_000,
        );
        let image = bs.to_bytes();
        let crc = flexsfp_fabric::hash::crc32(&image);
        (image, crc)
    }

    /// The request sequence that deploys `image` to `slot` and boots it.
    fn ota_requests(slot: usize, image: &[u8], crc32: u32) -> Vec<ControlRequest> {
        let mut reqs = vec![ControlRequest::BeginUpdate {
            slot,
            total_len: image.len(),
            crc32,
        }];
        for (seq, chunk) in image.chunks(crate::reprogram::MAX_CHUNK).enumerate() {
            reqs.push(ControlRequest::UpdateChunk {
                seq: seq as u32,
                data: chunk.to_vec(),
            });
        }
        reqs.push(ControlRequest::CommitUpdate);
        reqs.push(ControlRequest::Activate { slot });
        reqs
    }

    #[test]
    fn output_digest_is_the_pinned_order_sensitive_fnv1a_fold() {
        assert_eq!(OutputDigest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let out = |departure_ns, egress| OutputPacket {
            departure_ns,
            egress,
            frame: data_frame(60),
            latency_ns: 0.0,
        };
        let (a, b) = (out(100, Interface::Optical), out(200, Interface::Edge));
        let digest_of = |outs: [&OutputPacket; 2]| {
            let mut d = OutputDigest::default();
            outs.into_iter().for_each(|o| d.fold(o));
            d.value()
        };
        assert_ne!(digest_of([&a, &b]), digest_of([&b, &a]));
        assert_ne!(digest_of([&a, &b]), OutputDigest::default().value());
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
        assert!(report.latency.p50_ns() <= report.latency.p99_ns());
        assert!(report.latency.p99_ns() <= report.latency.max_ns());
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
    fn oob_port_reaches_control_plane() {
        let mut m = FlexSfp::passthrough();
        let req = ControlPlane::encode_request(&AuthKey::DEFAULT, &ControlRequest::GetInfo);
        let resp_payload = m.handle_oob(&req).unwrap();
        let resp = ControlPlane::decode_response(&AuthKey::DEFAULT, &resp_payload).unwrap();
        match resp {
            ControlResponse::Info { app, boots, .. } => {
                assert_eq!(app, "passthrough");
                assert_eq!(boots, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ota_update_and_reboot_via_oob() {
        let mut m = FlexSfp::passthrough();
        let (image, crc) = passthrough_image(7);
        let key = AuthKey::DEFAULT;
        for req in ota_requests(1, &image, crc) {
            let resp = m
                .handle_oob(&ControlPlane::encode_request(&key, &req))
                .unwrap();
            assert_eq!(
                ControlPlane::decode_response(&key, &resp).unwrap(),
                ControlResponse::Ack,
                "{req:?}"
            );
        }
        // The module rebooted into version 7.
        assert_eq!(m.boots(), 2);
        assert_eq!(m.app_version(), 7);
        assert_eq!(m.app_name(), "passthrough");
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
    fn corrupt_staged_image_falls_back_to_golden() {
        let mut m = FlexSfp::passthrough();
        // Write a golden image first.
        let golden = Bitstream::new("passthrough", 1, ResourceManifest::ZERO, 156_250_000);
        m.flash.write_slot(0, &golden.to_bytes()).unwrap();
        // Slot 2 contains garbage.
        m.flash.write_slot(2, b"not a bitstream").unwrap();
        m.control.pending_activation = Some(2);
        assert!(m.maybe_reboot());
        assert_eq!(m.boots(), 2);
        // Booted the golden image, not the garbage.
        assert_eq!(m.app_version(), 1);
        assert_eq!(m.app_name(), "passthrough");
    }

    #[test]
    fn oversized_design_refused_at_boot() {
        let mut m = FlexSfp::passthrough();
        let golden = Bitstream::new("passthrough", 1, ResourceManifest::ZERO, 156_250_000);
        m.flash.write_slot(0, &golden.to_bytes()).unwrap();
        // A design claiming more LUTs than the device has.
        let huge = Bitstream::new(
            "passthrough",
            9,
            ResourceManifest::new(500_000, 0, 0, 0),
            156_250_000,
        );
        m.flash.write_slot(1, &huge.to_bytes()).unwrap();
        m.control.pending_activation = Some(1);
        m.maybe_reboot();
        // Fell back to golden v1, not the huge v9.
        assert_eq!(m.app_version(), 1);
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
    fn dom_reflects_laser_aging() {
        let mut m = FlexSfp::passthrough();
        let healthy = m.mgmt.read_dom();
        m.set_laser_ttf_hours(100_000.0);
        m.age_laser(90_000.0);
        let aged = m.mgmt.read_dom();
        assert!(aged.tx_power_dbm() < healthy.tx_power_dbm());
        assert!(aged.tx_bias_ma > healthy.tx_bias_ma);
        let diag = crate::failure::diagnose(
            &aged,
            &m.vcsel,
            &crate::failure::DiagnosisThresholds::default(),
        );
        assert_ne!(diag, crate::failure::FaultDiagnosis::Healthy);
    }

    #[test]
    fn soc_control_plane_busts_the_sfp_envelope() {
        // §4.1: SoC-based control planes are "more expensive and
        // power-hungry" — with one, the module exceeds every SFP+
        // power class under stress, while the softcore stays inside.
        let softcore = FlexSfp::new(ModuleConfig::default(), Box::new(PassThrough));
        let soc = FlexSfp::new(
            ModuleConfig {
                cp_class: ControlPlaneClass::Soc,
                ..Default::default()
            },
            Box::new(PassThrough),
        );
        let p_soft = softcore.power(1.0, 1.0).total_w();
        let p_soc = soc.power(1.0, 1.0).total_w();
        assert!(p_soc > p_soft + 1.0);
        use flexsfp_fabric::power::PowerClass;
        assert!(PowerClass::classify(p_soft).is_some());
        assert!(PowerClass::classify(p_soc).is_none(), "SoC at {p_soc} W");
        // The SoC frees the Mi-V's fabric share.
        assert!(soc.design_manifest().lut4 < softcore.design_manifest().lut4);
    }

    #[test]
    fn power_accounting_matches_calibration() {
        let m = FlexSfp::passthrough();
        let idle = m.power(0.0, 0.0).total_w();
        let busy = m.power(1.0, 1.0).total_w();
        assert!(idle < busy);
        // Within the SFP+ envelope even flat out.
        assert!(busy < 2.0, "busy power {busy}");
    }

    #[test]
    fn fit_report_for_passthrough_fits() {
        let m = FlexSfp::passthrough();
        assert!(m.fit_report().fits());
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
    fn telemetry_snapshot_via_oob() {
        let mut m = FlexSfp::new(ModuleConfig::default(), Box::new(DropAll));
        m.run(line_rate_trace(Direction::EdgeToOptical, 20, 64));
        let req = ControlPlane::encode_request(&AuthKey::DEFAULT, &ControlRequest::ReadTelemetry);
        let resp_payload = m.handle_oob(&req).unwrap();
        let resp = ControlPlane::decode_response(&AuthKey::DEFAULT, &resp_payload).unwrap();
        let ControlResponse::Telemetry(snap) = resp else {
            panic!("expected telemetry");
        };
        assert_eq!(snap.seq, 1);
        assert_eq!(snap.app, "drop-all");
        assert_eq!(snap.edge_rx.frames, 20);
        assert_eq!(snap.drops.app, 20);
        assert_eq!(snap.drops.total(), 20);
        // Every app drop left a trace event.
        assert_eq!(snap.events.len(), 20);
        assert!(snap.events.iter().all(|e| e.kind
            == EventKind::Drop {
                reason: DropReason::App
            }));
        assert_eq!(snap.events_overwritten, 0);
        assert_eq!(snap.events_drained, 20);
        assert!(snap.laser_healthy);
        assert_eq!(snap.laser_fault, "healthy");
        // A second snapshot finds the ring drained but keeps lifetime
        // counters.
        let resp2 = m.handle_oob(&req).unwrap();
        let ControlResponse::Telemetry(snap2) =
            ControlPlane::decode_response(&AuthKey::DEFAULT, &resp2).unwrap()
        else {
            panic!("expected telemetry");
        };
        assert_eq!(snap2.seq, 2);
        assert!(snap2.events.is_empty());
        assert_eq!(snap2.drops.app, 20);
    }

    #[test]
    fn lifetime_stats_accumulate_across_runs() {
        let mut m = FlexSfp::passthrough();
        m.run(line_rate_trace(Direction::EdgeToOptical, 10, 64));
        m.run(line_rate_trace(Direction::EdgeToOptical, 15, 64));
        let snap = m.telemetry_snapshot();
        assert_eq!(snap.latency.count(), 25);
        assert_eq!(snap.edge_rx.frames, 25);
        assert_eq!(snap.optical_tx.frames, 25);
        assert!(snap.latency.p99() > 0);
    }

    #[test]
    fn reboot_and_auth_events_traced() {
        let mut m = FlexSfp::passthrough();
        // A garbage OOB payload is an auth reject.
        assert!(m.handle_oob(b"not a control payload").is_none());
        // A reboot into an empty slot falls back and is traced as
        // failed.
        m.control.pending_activation = Some(3);
        m.maybe_reboot();
        let snap = m.telemetry_snapshot();
        let kinds: Vec<&EventKind> = snap.events.iter().map(|e| &e.kind).collect();
        assert!(kinds.contains(&&EventKind::AuthReject));
        assert!(kinds.contains(&&EventKind::Reboot { slot: 3, ok: false }));
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
        let streamed = b.run_stream(packets());
        assert_eq!(streamed.offered, full.offered);
        assert_eq!(streamed.offered_bytes, full.offered_bytes);
        assert_eq!(streamed.forwarded, full.forwarded);
        assert_eq!(streamed.forwarded_bytes, full.forwarded_bytes);
        assert_eq!(streamed.drops, full.drops);
        assert_eq!(streamed.duration_ns, full.duration_ns);
        assert_eq!(streamed.latency.count(), full.latency.count());
        assert!(streamed.outputs.is_empty());
        assert_eq!(
            full.outputs.len(),
            full.forwarded.0 as usize + full.forwarded.1 as usize
        );
    }

    #[test]
    fn flight_recorder_samples_deterministically() {
        use flexsfp_obs::ToJson;
        // Two modules, same seed, same trace: the drained record sets
        // must be byte-identical through the JSON wire format.
        let run = || {
            let mut m = FlexSfp::passthrough();
            m.enable_flight_recorder(64, 0xf00d, 4096);
            m.run_stream(line_rate_trace(Direction::EdgeToOptical, 10_000, 64));
            m.drain_flight_records()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "1-in-64 over 10k packets must sample");
        // ~156 expected; the Bernoulli draw has some variance.
        assert!(a.len() > 50 && a.len() < 400, "sampled {}", a.len());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        // Sequence numbers are monotone and arrival times sorted.
        for w in a.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
        }
        // Every postcard carries a concrete departure (passthrough
        // forwards everything).
        for r in &a {
            match r.verdict {
                FlightVerdict::Forwarded { departure_ns } => {
                    assert!(departure_ns >= r.arrival_ns)
                }
                ref other => panic!("unexpected verdict {other:?}"),
            }
        }
    }

    #[test]
    fn flight_records_drain_via_oob() {
        let mut m = FlexSfp::passthrough();
        // Sample everything so the count is exact.
        m.enable_flight_recorder(1, 7, 512);
        m.run_stream(line_rate_trace(Direction::EdgeToOptical, 100, 64));
        let payload =
            ControlPlane::encode_request(&AuthKey::DEFAULT, &ControlRequest::ReadFlightRecords);
        let resp_payload = m.handle_oob(&payload).expect("response due");
        let resp = ControlPlane::decode_response(&AuthKey::DEFAULT, &resp_payload).unwrap();
        let ControlResponse::FlightRecords(records) = resp else {
            panic!("unexpected response {resp:?}");
        };
        assert_eq!(records.len(), 100);
        // Drained means drained: a second read returns nothing.
        let again = m.handle_oob(&payload).unwrap();
        match ControlPlane::decode_response(&AuthKey::DEFAULT, &again).unwrap() {
            ControlResponse::FlightRecords(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // Disarmed modules answer with an empty drain, not an error.
        m.disable_flight_recorder();
        let disarmed = m.handle_oob(&payload).unwrap();
        match ControlPlane::decode_response(&AuthKey::DEFAULT, &disarmed).unwrap() {
            ControlResponse::FlightRecords(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sampled_overflow_records_queue_depth() {
        // The overloaded 1× Two-Way-Core: sampled postcards must show
        // both growing queues and FIFO-overflow verdicts.
        let mut trace = Vec::new();
        let gap_ns = ((64 + 20) as f64 * 0.8).ceil() as u64;
        for i in 0..5_000u64 {
            let t = i * gap_ns;
            for direction in [Direction::EdgeToOptical, Direction::OpticalToEdge] {
                trace.push(SimPacket {
                    arrival_ns: t,
                    direction,
                    frame: data_frame(64),
                });
            }
        }
        let mut m = FlexSfp::new(
            ModuleConfig {
                shell: ShellKind::TwoWayCore,
                ppe_clock: ClockDomain::XGMII_10G,
                ..Default::default()
            },
            Box::new(PassThrough),
        );
        m.enable_flight_recorder(1, 1, 16_384);
        let report = m.run_stream(trace);
        assert!(report.drops.fifo_overflow > 0);
        let records = m.drain_flight_records();
        assert_eq!(records.len() as u64 + m.flight_overwritten(), 10_000);
        assert!(records.iter().any(|r| r.queue_pkts > 0));
        let overflows = records
            .iter()
            .filter(|r| {
                matches!(
                    r.verdict,
                    FlightVerdict::Dropped {
                        reason: DropReason::FifoOverflow
                    }
                )
            })
            .count();
        assert!(overflows > 0, "overflow drops must be sampled too");
        // An overflowed packet saw a full FIFO.
        let full = records
            .iter()
            .find(|r| {
                matches!(
                    r.verdict,
                    FlightVerdict::Dropped {
                        reason: DropReason::FifoOverflow
                    }
                )
            })
            .unwrap();
        assert!(full.queue_bytes > 0);
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
