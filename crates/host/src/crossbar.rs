//! The switch: a crosspoint-queued crossbar with a FlexSFP cage per port.
//!
//! The bridge itself is fixed-function — MAC learning, flooding, a
//! hairpin filter; it cannot filter, tag or observe. Each port's SFP
//! cage may hold a FlexSFP; frames entering a port traverse that module
//! optical→edge (toward the fabric) and frames leaving traverse
//! edge→optical, so the module is a per-port bump-in-the-wire exactly as
//! the paper's §2.1 retrofit describes: "each port becomes a
//! programmable enforcement point … without any modification to the
//! chassis or switch OS".
//!
//! The fabric is FlexCross-style (see PAPERS.md): every (input, output)
//! pair owns a bounded FIFO from [`flexsfp_fabric::xbar`], each output
//! port arbitrates round-robin over its column (so one congested
//! output never head-of-line-blocks traffic toward another), and each
//! granted frame serializes onto the wire at 10G line rate. The §2.1
//! retrofit is this switch with idle outputs: a frame injected while
//! its egress port is free is granted at once and comes back from
//! [`CrossbarSwitch::inject`] itself, departing one wire time later. A
//! rack-scale ToR — 47 access ports converging on one uplink — is the
//! same switch with its queues in use, and where there are queues there
//! is loss and latency.
//!
//! Accounting is exact, per copy: every frame the switch receives —
//! plus every copy created by flooding or by a duplicating module — ends
//! in exactly one counted fate ([`SwitchStats`]), extended with two
//! crossbar terms — frames dropped on a full crosspoint and frames still
//! queued — and [`CrossbarStats::conserved`] checks the identity.
//! Queue-induced latency (enqueue → grant) feeds a [`LatencyHistogram`]
//! so the rack workload can gate on p99.9; per-crosspoint
//! depth/drop/arbitration counters export as [`XbarTelemetry`] for the
//! `flexsfp_xbar_*` Prometheus family.

use crate::cage::{through_cage, Cage, ModulePass};
use flexsfp_core::module::FlexSfp;
use flexsfp_fabric::xbar::CrosspointMatrix;
use flexsfp_obs::{LatencyHistogram, TelemetrySnapshot, XbarTelemetry};
use flexsfp_ppe::Direction;
use flexsfp_wire::{EthernetFrame, MacAddr};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Port line rate, bits per nanosecond (10 Gb/s).
pub(crate) const LINE_RATE_BITS_PER_NS: u64 = 10;

/// Per-frame wire overhead: preamble + SFD + minimum inter-frame gap.
pub(crate) const FRAME_OVERHEAD_BYTES: u64 = 20;

/// Wire time of one frame at port line rate, ns.
///
/// Test-only: `crates/host/tests/cage_run.rs` and
/// `crates/host/tests/proportional.rs`: their crossbar models charge the
/// same wire time.
pub fn serialize_ns(frame_len: usize) -> u64 {
    ((frame_len as u64 + FRAME_OVERHEAD_BYTES) * 8).div_ceil(LINE_RATE_BITS_PER_NS)
}

/// A frame parked in a crosspoint queue.
#[derive(Debug, Clone)]
struct QueuedFrame {
    frame: Vec<u8>,
    enqueue_ns: u64,
}

/// One frame leaving a port, stamped with its wire-departure time (the
/// instant serialization completes).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedDelivery {
    /// Egress port.
    pub port: usize,
    /// The frame as it leaves the port (after any module processing).
    pub frame: Vec<u8>,
    /// Completion of serialization onto the egress wire, ns.
    pub departure_ns: u64,
}

/// The bridge pipeline's frame accounting.
///
/// The counters split into *sources* (frames entering the pipeline:
/// received from the wire, copies created by flooding, copies created
/// by modules) and *sinks* (final fates: delivered, dropped, diverted,
/// filtered, absorbed). [`CrossbarStats::conserved`] asserts the two
/// balance once the queue terms are added — the switch cannot leak a
/// frame without the identity breaking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames received across all ports.
    pub received: u64,
    /// Frames flooded (unknown destination).
    pub flooded: u64,
    /// Extra copies created by flooding (fanout − 1 per flooded frame).
    pub flood_copies: u64,
    /// Extra copies created by modules (mirror outputs, control-plane
    /// replies emitted next to a diverted request).
    pub module_copies: u64,
    /// Frames dropped by port modules, folded from each module's own
    /// per-run [`drops`](flexsfp_core::module::SimReport::drops) — app
    /// verdicts, FIFO overflow and parse errors alike.
    pub dropped_by_modules: u64,
    /// Module outputs that emerged on the unexpected interface
    /// (reflected back instead of passing through).
    pub diverted_by_modules: u64,
    /// Frames diverted to a module's control plane.
    pub to_control: u64,
    /// Frames consumed by a module with no other accounted fate (e.g.
    /// a control exchange that produced no reply).
    pub absorbed_by_modules: u64,
    /// Frames that failed Ethernet validation after the ingress cage.
    pub dropped_malformed: u64,
    /// Frames filtered because the destination sat on the ingress port
    /// (or the flood fanout was empty).
    pub filtered_hairpin: u64,
    /// Frames delivered out of ports.
    pub delivered: u64,
}

impl SwitchStats {
    /// Frames that entered the pipeline: received plus every created
    /// copy.
    fn sources(&self) -> u64 {
        self.received + self.flood_copies + self.module_copies
    }

    /// Frames that reached a final counted fate.
    pub fn sinks(&self) -> u64 {
        self.delivered
            + self.dropped_by_modules
            + self.diverted_by_modules
            + self.to_control
            + self.absorbed_by_modules
            + self.dropped_malformed
            + self.filtered_hairpin
    }

    /// Fold a cage pass into the counters (everything except the
    /// matched outputs, whose fate the caller decides).
    fn absorb_pass(&mut self, pass: &ModulePass) {
        self.dropped_by_modules += pass.dropped;
        self.diverted_by_modules += pass.diverted;
        self.to_control += pass.to_control;
        self.module_copies += pass.gains();
        self.absorbed_by_modules += pass.absorbed();
    }
}

/// Crossbar statistics: the bridge counters plus the two queue terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossbarStats {
    /// The shared bridge pipeline counters.
    pub sw: SwitchStats,
    /// Frames rejected on a full crosspoint queue.
    pub crosspoint_dropped: u64,
    /// Frames currently parked in crosspoint queues (drain to zero).
    pub queued: u64,
}

impl CrossbarStats {
    /// The conservation identity with the crossbar terms: every source
    /// frame is delivered, dropped, diverted, filtered, absorbed,
    /// crosspoint-dropped — or still sitting in a queue.
    pub fn conserved(&self) -> bool {
        self.sw.sources() == self.sw.sinks() + self.crosspoint_dropped + self.queued
    }
}

/// The learning table's hasher: one multiply-fold of the 48-bit
/// address, with no per-process key, so a table fills the same way on
/// every run. Every frame hashes twice (learn the source, look up the
/// destination); SipHash made that a tenth of a rack hop. Nothing
/// iterates the table, so its order is never seen.
#[derive(Default)]
struct MacHasher(u64);

impl Hasher for MacHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = bytes.iter().fold(self.0, |h, &b| h << 8 | u64::from(b));
    }

    /// The address array's length prefix, the same for every key.
    fn write_usize(&mut self, _len: usize) {}

    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9e37_79b9_7f4a_7c15;
        product as u64 ^ (product >> 64) as u64
    }
}

/// The fixed-function half of the switch, everything but the cages:
/// the learning table, the crosspoint fabric and the frame accounting.
struct Bridge {
    mac_table: HashMap<MacAddr, usize, BuildHasherDefault<MacHasher>>,
    matrix: CrosspointMatrix<QueuedFrame>,
    /// One bit per output whose column holds a frame (a `u64` per 64
    /// outputs), so servicing visits the outputs with work to do and
    /// not every port on every injection.
    backlogged: Vec<u64>,
    stats: SwitchStats,
    crosspoint_dropped: u64,
}

impl Bridge {
    /// Validate, learn, pick egress ports, park each copy in its
    /// crosspoint queue.
    fn enqueue(&mut self, port: usize, mut frame: Vec<u8>, t_ns: u64) {
        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.stats.dropped_malformed += 1;
            return;
        };
        let (src, dst) = (eth.src(), eth.dst());
        if src.is_unicast() {
            self.mac_table.insert(src, port);
        }
        match self.mac_table.get(&dst) {
            Some(&p) if p != port => self.park(port, p, frame, t_ns),
            // The destination is on the ingress port.
            Some(_) => self.stats.filtered_hairpin += 1,
            None => {
                self.stats.flooded += 1;
                let ports = self.matrix.ports();
                if ports == 1 {
                    self.stats.filtered_hairpin += 1; // nowhere to flood to
                    return;
                }
                self.stats.flood_copies += ports as u64 - 2;
                let mut egress = (0..ports).filter(|&p| p != port).peekable();
                while let Some(p) = egress.next() {
                    let copy = if egress.peek().is_some() {
                        frame.clone()
                    } else {
                        std::mem::take(&mut frame)
                    };
                    self.park(port, p, copy, t_ns);
                }
            }
        }
    }

    /// Offer one copy to the (`input`, `output`) crosspoint.
    fn park(&mut self, input: usize, output: usize, frame: Vec<u8>, enqueue_ns: u64) {
        let queued = QueuedFrame { frame, enqueue_ns };
        if self.matrix.offer(input, output, queued).is_ok() {
            self.backlogged[output / 64] |= 1 << (output % 64);
        } else {
            self.crosspoint_dropped += 1;
        }
    }

    /// Grant one frame toward `output`, if its column holds any.
    fn grant(&mut self, output: usize) -> Option<QueuedFrame> {
        let (_input, q) = self.matrix.arbitrate(output)?;
        if self.matrix.column_len(output) == 0 {
            self.backlogged[output / 64] &= !(1 << (output % 64));
        }
        Some(q)
    }
}

/// An N-port crosspoint-queued crossbar whose SFP cages accept FlexSFP
/// modules.
pub struct CrossbarSwitch {
    cages: Vec<Cage>,
    bridge: Bridge,
    /// Per-output: the time the port finishes its current transmission.
    out_free_ns: Vec<u64>,
    queue_latency: LatencyHistogram,
    time_ns: u64,
}

impl CrossbarSwitch {
    /// A crossbar with `ports` ports and `depth` slots per crosspoint,
    /// all cages holding standard SFPs.
    pub fn new(ports: usize, depth: usize) -> CrossbarSwitch {
        CrossbarSwitch {
            cages: (0..ports).map(|_| Cage::StandardSfp).collect(),
            bridge: Bridge {
                mac_table: HashMap::default(),
                matrix: CrosspointMatrix::new(ports, depth),
                backlogged: vec![0; ports.div_ceil(64)],
                stats: SwitchStats::default(),
                crosspoint_dropped: 0,
            },
            out_free_ns: vec![0; ports],
            queue_latency: LatencyHistogram::new(),
            time_ns: 0,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.cages.len()
    }

    /// Swap the SFP in `port` for a FlexSFP — the drop-in upgrade.
    pub fn insert_flexsfp(&mut self, port: usize, module: FlexSfp) {
        self.cages[port] = Cage::seat(module);
    }

    /// Revert `port` to a standard SFP.
    pub fn remove_flexsfp(&mut self, port: usize) -> Option<FlexSfp> {
        match std::mem::replace(&mut self.cages[port], Cage::StandardSfp) {
            Cage::FlexSfp(seat) => Some(seat.module),
            Cage::StandardSfp => None,
        }
    }

    /// Access the module in `port`, if any (for management via the OOB
    /// path).
    /// Test-only: `crates/host/tests/cage_run.rs` and
    /// `crates/host/tests/retrofit.rs`: a seated module driven directly.
    pub fn module_mut(&mut self, port: usize) -> Option<&mut FlexSfp> {
        self.cages[port].module_mut()
    }

    /// Learned MAC table size.
    pub fn learned(&self) -> usize {
        self.bridge.mac_table.len()
    }

    /// Statistics snapshot, including the current queue occupancy.
    pub fn stats(&self) -> CrossbarStats {
        CrossbarStats {
            sw: self.bridge.stats,
            crosspoint_dropped: self.bridge.crosspoint_dropped,
            queued: self.bridge.matrix.occupancy() as u64,
        }
    }

    /// Queue-induced latency distribution (enqueue → arbitration
    /// grant), the figure the rack SLO gates on.
    pub fn queue_latency(&self) -> &LatencyHistogram {
        &self.queue_latency
    }

    /// Offer a frame arriving from the wire on `port` at `t_ns`, then
    /// service every backlogged output up to that instant. Injection
    /// times must be globally non-decreasing: the service model's clock
    /// advances with them.
    ///
    /// A cage's module keeps no clock of its own between frames. Each
    /// frame crossing a cage, on ingress here or on egress at its
    /// grant, is one independent run of that one frame through the
    /// module ([`StreamSession::run_one`](flexsfp_core::module::StreamSession::run_one)):
    /// a fresh PPE server, latency booked into the module's lifetime
    /// telemetry. It has to be. An output that fell idle at `out_free_ns < t_ns` grants its
    /// next parked frame at that earlier instant, so a cage can see a
    /// grant stamped *before* an ingress it has already carried; a
    /// stream would refuse it as an unsorted arrival. One consequence
    /// is that a cage module's ingress FIFO never carries backlog from
    /// one frame to the next: what queues in this switch queues in the
    /// crosspoints.
    pub fn inject(&mut self, port: usize, frame: Vec<u8>, t_ns: u64) -> Vec<TimedDelivery> {
        assert!(port < self.cages.len(), "no such port");
        self.time_ns = self.time_ns.max(t_ns);
        let bridge = &mut self.bridge;
        bridge.stats.received += 1;
        // Ingress: wire → module (optical side faces the wire) → fabric.
        let pass = through_cage(
            &mut self.cages[port],
            frame,
            Direction::OpticalToEdge,
            t_ns,
            |frame| bridge.enqueue(port, frame, t_ns),
        );
        self.bridge.stats.absorb_pass(&pass);
        let mut out = Vec::new();
        self.service(Some(self.time_ns), &mut out);
        out
    }

    /// Service every backlogged output, in port order: while the port
    /// is idle at `until` (`None`: regardless of the clock) and its
    /// column holds frames, grant round-robin, serialize at line rate,
    /// and run the granted frame through the egress cage.
    fn service(&mut self, until: Option<u64>, out: &mut Vec<TimedDelivery>) {
        for word in 0..self.bridge.backlogged.len() {
            // Serving an output changes no other output's backlog.
            let mut bits = self.bridge.backlogged[word];
            while bits != 0 {
                let p = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while until.is_none_or(|now| self.out_free_ns[p] <= now) {
                    let Some(q) = self.bridge.grant(p) else {
                        break;
                    };
                    self.transmit(p, q, out);
                }
            }
        }
    }

    /// Drain every remaining queued frame regardless of the clock (end
    /// of run). Afterwards `stats().queued` is zero and the
    /// conservation identity closes without an in-flight term.
    pub fn drain(&mut self) -> Vec<TimedDelivery> {
        let mut out = Vec::new();
        self.service(None, &mut out);
        out.sort_by_key(|d| d.departure_ns);
        out
    }

    /// Grant one frame onto output `p`: record queue latency, advance
    /// the port clock and run the egress cage at the grant instant.
    fn transmit(&mut self, p: usize, q: QueuedFrame, out: &mut Vec<TimedDelivery>) {
        let grant_ns = self.out_free_ns[p].max(q.enqueue_ns);
        self.queue_latency.record(grant_ns - q.enqueue_ns);
        let done_ns = grant_ns + serialize_ns(q.frame.len());
        self.out_free_ns[p] = done_ns;
        // Egress: fabric → module (edge side faces the fabric) → wire.
        let pass = through_cage(
            &mut self.cages[p],
            q.frame,
            Direction::EdgeToOptical,
            grant_ns,
            |frame| {
                out.push(TimedDelivery {
                    port: p,
                    frame,
                    departure_ns: done_ns,
                })
            },
        );
        self.bridge.stats.delivered += pass.matched;
        self.bridge.stats.absorb_pass(&pass);
    }

    /// Switch-level crossbar telemetry: geometry, aggregates,
    /// per-output grants and the sparse per-crosspoint counters.
    pub fn telemetry(&self) -> XbarTelemetry {
        self.bridge.matrix.telemetry()
    }

    /// Telemetry snapshots of every FlexSFP in a cage, for collector
    /// ingestion next to the switch-level [`XbarTelemetry`].
    pub fn module_snapshots(&mut self) -> Vec<TelemetrySnapshot> {
        self.cages
            .iter_mut()
            .filter_map(|c| c.module_mut().map(|m| m.telemetry_snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_apps::{AclAction, AclFirewall, AclRule};
    use flexsfp_core::module::ModuleConfig;
    use flexsfp_ppe::Direction as Dir;
    use flexsfp_wire::builder::PacketBuilder;

    const HOST_A: MacAddr = MacAddr([0xa; 6]);
    const HOST_B: MacAddr = MacAddr([0xc; 6]);
    const HOST_C: MacAddr = MacAddr([0xe; 6]);

    fn frame(dst: MacAddr, src: MacAddr, dport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(dst, src, 0xc0a80001, 0xc0a80002, 999, dport, b"data")
    }

    fn mac(i: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, i])
    }

    #[test]
    fn learning_and_unicast_forwarding() {
        let mut sw = CrossbarSwitch::new(4, 32);
        let mut out = sw.inject(0, frame(HOST_B, HOST_A, 80), 0);
        out.extend(sw.drain());
        assert_eq!(out.len(), 3); // flooded to 1,2,3
        assert_eq!(sw.learned(), 1);
        let mut out = sw.inject(2, frame(HOST_A, HOST_B, 80), 10_000);
        out.extend(sw.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 0);
        let mut out = sw.inject(0, frame(HOST_B, HOST_A, 80), 20_000);
        out.extend(sw.drain());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        let s = sw.stats();
        assert_eq!(s.sw.flooded, 1);
        assert_eq!(s.sw.flood_copies, 2);
        assert_eq!(s.sw.delivered, 5);
        assert_eq!(s.queued, 0);
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn idle_outputs_deliver_from_inject_one_wire_time_later() {
        // The retrofit shape: injections spaced wider than a frame's
        // wire time find every output idle, so nothing ever waits in a
        // crosspoint and `inject` itself hands back the deliveries.
        let mut sw = CrossbarSwitch::new(3, 16);
        let wire_ns = serialize_ns(frame(HOST_B, HOST_A, 80).len());
        // A floods to both other ports; B's reply and A's next frame
        // find both hosts learned and go unicast.
        let steps = [
            (0, HOST_B, HOST_A, 2),
            (1, HOST_A, HOST_B, 1),
            (0, HOST_B, HOST_A, 1),
        ];
        for (i, (port, dst, src, fanout)) in steps.into_iter().enumerate() {
            let t = i as u64 * 2 * wire_ns;
            let out = sw.inject(port, frame(dst, src, 80), t);
            assert_eq!(out.len(), fanout);
            assert!(out.iter().all(|d| d.departure_ns == t + wire_ns));
            assert_eq!(sw.stats().queued, 0);
        }
        assert!(sw.drain().is_empty());
        assert_eq!(sw.queue_latency().max(), 0);
        assert!(sw.stats().conserved(), "{:?}", sw.stats());
    }

    #[test]
    fn serialization_spaces_departures_at_line_rate() {
        let mut sw = CrossbarSwitch::new(2, 64);
        sw.inject(0, frame(HOST_B, HOST_A, 80), 0);
        sw.inject(1, frame(HOST_A, HOST_B, 80), 1_000_000);
        // Two frames for port 1, back to back at the same instant: the
        // second must wait out the first's wire time.
        let f = frame(HOST_B, HOST_A, 80);
        let wire_ns = serialize_ns(f.len());
        let mut out = sw.inject(0, f.clone(), 2_000_000);
        out.extend(sw.inject(0, f, 2_000_000));
        out.extend(sw.drain());
        let times: Vec<u64> = out.iter().map(|d| d.departure_ns).collect();
        assert_eq!(times.len(), 2);
        assert_eq!(times[1] - times[0], wire_ns);
        // The first left one wire-time after its grant.
        assert_eq!(times[0], 2_000_000 + wire_ns);
    }

    #[test]
    fn congested_output_does_not_block_another() {
        let mut sw = CrossbarSwitch::new(4, 256);
        // Learn B@1 and C@2.
        sw.inject(1, frame(HOST_A, HOST_B, 80), 0);
        sw.inject(2, frame(HOST_A, HOST_C, 80), 1);
        sw.drain();
        let t0 = 1_000_000;
        // Input 0 bursts 64 frames toward B (output 1) at one instant —
        // a deep queue — then one frame toward C (output 2).
        for _ in 0..64 {
            sw.inject(0, frame(HOST_B, HOST_A, 80), t0);
        }
        let out = sw.inject(0, frame(HOST_C, HOST_A, 80), t0);
        // The frame to C departs after exactly one wire time: the
        // congested column toward B never touched it.
        let to_c: Vec<&TimedDelivery> = out.iter().filter(|d| d.port == 2).collect();
        assert_eq!(to_c.len(), 1);
        let f_len = frame(HOST_C, HOST_A, 80).len();
        assert_eq!(to_c[0].departure_ns, t0 + serialize_ns(f_len));
        sw.drain();
        let s = sw.stats();
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn crosspoint_overflow_is_counted_and_conserved() {
        let mut sw = CrossbarSwitch::new(2, 4);
        sw.inject(1, frame(HOST_A, HOST_B, 80), 0);
        sw.drain();
        // A burst at one instant toward port 1: the port grants one
        // frame immediately, four park in the crosspoint, the rest
        // overflow.
        let t0 = 1_000_000;
        for _ in 0..9 {
            sw.inject(0, frame(HOST_B, HOST_A, 80), t0);
        }
        sw.drain();
        let s = sw.stats();
        assert_eq!(s.crosspoint_dropped, 4);
        assert_eq!(s.sw.delivered, 1 + 5);
        assert_eq!(s.queued, 0);
        assert!(s.conserved(), "{s:?}");
        let t = sw.telemetry();
        assert_eq!(t.dropped, 4);
        let xp: Vec<_> = t
            .crosspoints
            .iter()
            .filter(|c| c.input == 0 && c.output == 1)
            .collect();
        assert_eq!(xp.len(), 1);
        assert_eq!(xp[0].dropped, 4);
        assert_eq!(xp[0].high_water, 4);
        // Queue latency was recorded for the parked frames.
        assert!(sw.queue_latency().count() >= 5);
        assert!(sw.queue_latency().p999() > 0);
    }

    #[test]
    fn cage_module_drops_fold_into_crossbar_stats() {
        let mut sw = CrossbarSwitch::new(2, 32);
        sw.inject(0, frame(HOST_B, HOST_A, 80), 0);
        sw.inject(1, frame(HOST_A, HOST_B, 80), 1_000);
        sw.drain();
        let mut fw = AclFirewall::new(16);
        fw.screen_direction = Some(Dir::OpticalToEdge);
        fw.add_rule(AclRule {
            src: None,
            dst: None,
            protocol: Some(17),
            src_port: None,
            dst_port: Some(53),
            priority: 1,
            action: AclAction::Deny,
        });
        let cfg = ModuleConfig {
            shell: flexsfp_core::ShellKind::OneWayFilter {
                ppe_direction: Dir::OpticalToEdge,
            },
            ..ModuleConfig::default()
        };
        sw.insert_flexsfp(0, FlexSfp::new(cfg, Box::new(fw)));
        let out = sw.inject(0, frame(HOST_B, HOST_A, 53), 2_000_000);
        assert!(out.is_empty());
        sw.drain();
        let s = sw.stats();
        assert_eq!(s.sw.dropped_by_modules, 1);
        assert!(s.conserved(), "{s:?}");
        // The cage module reports through the ordinary snapshot sweep.
        let snaps = sw.module_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].drops.app, 1);
    }

    #[test]
    fn telemetry_is_sparse_over_touched_crosspoints() {
        let mut sw = CrossbarSwitch::new(8, 16);
        for i in 0..4u8 {
            sw.inject(
                usize::from(i),
                frame(mac(100), mac(i), 80),
                u64::from(i) * 10_000,
            );
        }
        sw.drain();
        let t = sw.telemetry();
        assert_eq!(t.ports, 8);
        assert_eq!(t.depth, 16);
        // 4 floods × 7 egress ports = 28 touched crosspoints, far
        // fewer than the 64 in the matrix.
        assert_eq!(t.crosspoints.len(), 28);
        assert_eq!(t.enqueued, 28);
        assert_eq!(t.granted, 28);
        assert_eq!(t.queued(), 0);
        assert_eq!(t.output_grants.len(), 8);
        assert_eq!(t.output_grants.iter().sum::<u64>(), 28);
    }
}
