//! The module assembly itself: boot and reboot from flash, the OOB
//! management port, laser ageing, power and fit accounting, and the
//! telemetry snapshot.

use super::flight::FlightState;
use super::session::LatencyRun;
use super::{ModuleConfig, OutputPacket, SimPacket, SimReport, StreamSession};
use crate::bitstream::{Bitstream, BitstreamMeta};
use crate::control::{ControlContext, ControlPlane, ControlRequest, ControlResponse};
use crate::failure::{DiagnosisThresholds, FaultDiagnosis, VcselModel};
use crate::reprogram::UpdateState;
use flexsfp_fabric::i2c::ManagementInterface;
use flexsfp_fabric::power::{PowerBreakdown, PowerModel};
use flexsfp_fabric::resources::{table1, Device, FitReport, ResourceManifest};
use flexsfp_fabric::serdes::Transceiver;
use flexsfp_fabric::SpiFlash;
use flexsfp_obs::{
    CacheStats, DomSnapshot, DropCounters, EventKind, EventRing, FlightRecord, LatencyHistogram,
    TelemetrySnapshot, WindowedSeries,
};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::{stage_start_cycle, PacketProcessor};

/// Constructs an application from bitstream metadata at boot, asking
/// the module's fit predicate about the app's manifest before
/// allocating anything the configuration sizes.
pub type AppFactory = Box<
    dyn Fn(&BitstreamMeta, &dyn Fn(ResourceManifest) -> bool) -> Option<Box<dyn PacketProcessor>>
        + Send,
>;

/// The FlexSFP module.
pub struct FlexSfp {
    /// Configuration.
    pub config: ModuleConfig,
    pub(super) app: Box<dyn PacketProcessor>,
    app_version: u32,
    /// PPE cycles ahead of the running application's first stage,
    /// taken from its pipeline depth whenever an application boots.
    pub(super) pipeline_cycles: u64,
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
    pub(super) lifetime_drops: DropCounters,
    pub(super) lifetime_latency: LatencyHistogram,
    /// Forwards booked and not yet recorded. A stream records its run
    /// before the accounting context that booked it ends; one-frame
    /// passes leave theirs here for `lifetime_latency` and `windows`,
    /// and later passes in the same window extend it. Settled before
    /// either is read, replaced or written by anything else.
    pub(super) latency_run: LatencyRun,
    /// High-water mark of simulated time, used to stamp events raised
    /// on the control path (which carries no packet timestamps).
    pub(super) clock_ns: u64,
    snapshot_seq: u64,
    events_exported: u64,
    /// Flight recorder (sampled INT-style postcards); `None` until
    /// armed with [`enable_flight_recorder`](Self::enable_flight_recorder).
    pub(super) flight: Option<FlightState>,
    /// Always-on windowed time-series over dataplane outcomes — what
    /// the SLO engine evaluates and the collector scrapes.
    pub(super) windows: WindowedSeries,
    /// Application cache counters at the last batch flush, for
    /// per-window hit/miss deltas.
    pub(super) last_cache: CacheStats,
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
        let mut edge = Transceiver::new("electrical");
        let mut optical = Transceiver::new("optical");
        // The Mi-V startup sequence: configure transceivers, laser
        // driver and limiting amplifier (§5.1).
        edge.enable();
        optical.enable();
        let vcsel = VcselModel::default();
        let mut module = FlexSfp {
            config,
            pipeline_cycles: pipeline_cycles(app.as_ref()),
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
            latency_run: LatencyRun::default(),
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
    /// Test-only: `crates/bench/tests/chaos.rs` and `tests/end_to_end.rs`: a
    /// reboot counted.
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
        self.flight = Some(FlightState::new(every, seed, capacity));
        self.app.set_flight_recording(true);
    }

    /// Drain the recorded postcards, oldest first — what a
    /// `ReadFlightRecords` request on the OOB port returns. Empty when
    /// the recorder is disarmed.
    pub fn drain_flight_records(&mut self) -> Vec<FlightRecord> {
        self.flight
            .as_mut()
            .map(FlightState::drain)
            .unwrap_or_default()
    }

    /// Postcards lost to ring overwrite since the recorder was armed.
    #[cfg(test)]
    pub(crate) fn flight_overwritten(&self) -> u64 {
        self.flight.as_ref().map_or(0, FlightState::overwritten)
    }

    /// The rolling windowed time-series (1 ms buckets by default) —
    /// also exported with every telemetry snapshot. Mutable because
    /// what one-frame passes left unrecorded is recorded first.
    pub fn windows(&mut self) -> &WindowedSeries {
        self.settle_passes();
        &self.windows
    }

    /// Record what one-frame passes left pending.
    pub(super) fn settle_passes(&mut self) {
        self.latency_run
            .settle(&mut self.lifetime_latency, &mut self.windows);
    }

    /// Replace the windowed-series geometry (bucket width × live-window
    /// count). Long soak runs widen the buckets and deepen the ring so
    /// the whole run stays SLO-evaluable instead of only the last
    /// 32 ms; call before offering traffic — swapping the series
    /// discards anything already recorded.
    pub fn configure_windows(&mut self, width_ns: u64, capacity: usize) {
        self.settle_passes();
        self.windows = WindowedSeries::new(width_ns, capacity);
    }

    /// Total manifest of a design around an application of manifest
    /// `app`: application + control plane + interfaces + shell plumbing
    /// (the Table 1 decomposition; the control-plane row is the Mi-V
    /// only for the softcore class). Boot, `fit_report` and `power` all
    /// cost this.
    pub(crate) fn design_manifest(&self, app: ResourceManifest) -> ResourceManifest {
        app + self.config.cp_class.manifest()
            + table1::ELECTRICAL_IF
            + table1::OPTICAL_IF
            + self.config.shell.overhead_manifest()
    }

    /// Fit report of the whole design against the MPF200T.
    pub fn fit_report(&self) -> FitReport {
        Device::mpf200t().fit(self.design_manifest(self.app.resource_manifest()))
    }

    /// Module power at the given operating point. An SoC-class control
    /// plane adds its hard-processor watts to the static term.
    pub fn power(&self, line_utilization: f64, activity: f64) -> PowerBreakdown {
        let lanes = u32::from(self.edge.is_enabled()) + u32::from(self.optical.is_enabled());
        let mut p = self.power_model.power(
            &self.design_manifest(self.app.resource_manifest()),
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
    pub(super) fn with_control<R>(
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
    /// corrupt, unknown to the factory, or describes a design that does
    /// not fit the device, and to a built-in passthrough v0 when slot 0
    /// does not boot either. The fit is that of the design
    /// [`fit_report`](Self::fit_report) would read: the factory asks it
    /// before allocating, and the app it built is asked again.
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
            self.boot(Box::new(PassThrough), 0);
        }
        true
    }

    /// Make `app` the running application at `version`. Recorder
    /// settings survive a reboot: stage stamping is re-armed on it.
    fn boot(&mut self, app: Box<dyn PacketProcessor>, version: u32) {
        self.pipeline_cycles = pipeline_cycles(app.as_ref());
        self.app = app;
        self.app_version = version;
        if self.flight.is_some() {
            self.app.set_flight_recording(true);
        }
    }

    fn try_boot_slot(&mut self, slot: usize) -> bool {
        let Ok(image) = self.flash.image(slot) else {
            return false;
        };
        let Ok(bs) = Bitstream::from_bytes(image) else {
            return false;
        };
        let fits = |app| Device::mpf200t().fit(self.design_manifest(app)).fits();
        let Some(app) = (self.factory)(&bs.meta, &fits).filter(|app| fits(app.resource_manifest()))
        else {
            return false;
        };
        self.boot(app, bs.meta.version);
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

    /// The streaming simulation core behind [`run`](Self::run): consume
    /// `packets` lazily and emit each output packet to `sink` as it is
    /// produced. A sink that keeps nothing (`|_| {}`) runs in memory O(1)
    /// in trace length.
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
        StreamSession::new(self)
    }

    /// Produce one telemetry export: lifetime counters and latency
    /// histogram, the DOM/laser-health readout, and the drained event
    /// ring (module trace buffer plus the running app's own ring).
    /// This is what a `ReadTelemetry` request on the OOB port returns.
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        self.settle_passes();
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
            edge_rx: self.edge.rx,
            edge_tx: self.edge.tx,
            optical_rx: self.optical.rx,
            optical_tx: self.optical.tx,
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

/// What a packet's PPE transit adds to its service time, in cycles:
/// the start of the stage past `app`'s last.
fn pipeline_cycles(app: &dyn PacketProcessor) -> u64 {
    u64::from(stage_start_cycle(app.pipeline_depth() as usize))
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

fn default_factory(
    meta: &BitstreamMeta,
    _fits: &dyn Fn(ResourceManifest) -> bool,
) -> Option<Box<dyn PacketProcessor>> {
    match meta.app.as_str() {
        "passthrough" => Some(Box::new(PassThrough)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthKey;
    use crate::module::testutil::{line_rate_trace, ota_requests, passthrough_image};
    use crate::shell::ControlPlaneClass;
    use flexsfp_obs::json;
    use flexsfp_obs::DropReason;
    use flexsfp_ppe::engine::DropAll;
    use flexsfp_ppe::{Direction, ProcessContext, Verdict};

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
    fn corrupt_staged_image_falls_back_to_golden() {
        let mut m = FlexSfp::passthrough();
        // Write a golden image first.
        let golden = Bitstream::new("passthrough", 1, 156_250_000);
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

    /// A pass-through whose synthesized core occupies `.0` LUT4.
    struct Luts(u64);

    impl PacketProcessor for Luts {
        fn name(&self) -> &str {
            "luts"
        }

        fn process(&mut self, _: &ProcessContext, _: &mut Vec<u8>) -> Verdict {
            Verdict::Forward
        }

        fn resource_manifest(&self) -> ResourceManifest {
            ResourceManifest::new(self.0, 0, 0, 0)
        }
    }

    /// A `cp_class` module whose factory builds a `Luts` of the image's
    /// `lut4`, asking the fit predicate first when `asks`; its golden
    /// image is a zero-LUT v1.
    fn luts_module(cp_class: ControlPlaneClass, asks: bool) -> FlexSfp {
        let config = ModuleConfig {
            cp_class,
            ..Default::default()
        };
        let mut m = FlexSfp::new(config, Box::new(PassThrough));
        m.set_factory(Box::new(move |meta, fits| {
            let lut4 = meta.config["lut4"].as_u64()?;
            let asked = !asks || fits(ResourceManifest::new(lut4, 0, 0, 0));
            asked.then(|| Box::new(Luts(lut4)) as Box<dyn PacketProcessor>)
        }));
        let golden = Bitstream::new("luts", 1, 156_250_000).with_config(json!({"lut4": 0}));
        m.flash.write_slot(0, &golden.to_bytes()).unwrap();
        m
    }

    /// Reboot `m` into a v9 `Luts` image of `lut4`; the version it runs.
    fn boot_luts(m: &mut FlexSfp, lut4: u64) -> u32 {
        let image = Bitstream::new("luts", 9, 156_250_000).with_config(json!({"lut4": lut4}));
        m.flash.write_slot(1, &image.to_bytes()).unwrap();
        m.control.pending_activation = Some(1);
        assert!(m.maybe_reboot());
        m.app_version()
    }

    /// LUT4 left for the application once `m`'s control plane,
    /// interfaces and shell are placed.
    fn headroom(m: &FlexSfp) -> u64 {
        Device::mpf200t().capacity.lut4 - m.design_manifest(ResourceManifest::ZERO).lut4
    }

    #[test]
    fn boot_refuses_a_design_that_does_not_fit() {
        // Whether or not the factory asks first, the app it builds is
        // costed before it runs.
        for asks in [true, false] {
            let mut m = luts_module(ControlPlaneClass::Softcore, asks);
            let room = headroom(&m);
            assert_eq!(boot_luts(&mut m, room + 1), 1, "asks: {asks}");
            assert_eq!(boot_luts(&mut m, room), 9, "asks: {asks}");
            assert!(m.fit_report().fits());
            assert_eq!(m.fit_report().used.lut4, Device::mpf200t().capacity.lut4);
        }
    }

    #[test]
    fn boot_fit_counts_the_modules_control_plane() {
        // The SoC class frees the Mi-V's fabric: a design that fills it
        // boots on an SoC module and falls back to golden on a softcore.
        let mut soc = luts_module(ControlPlaneClass::Soc, true);
        let room = headroom(&soc);
        assert_eq!(boot_luts(&mut soc, room), 9);
        let mut softcore = luts_module(ControlPlaneClass::Softcore, true);
        assert!(headroom(&softcore) < room);
        assert_eq!(boot_luts(&mut softcore, room), 1);
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
        assert!(soc.fit_report().used.lut4 < softcore.fit_report().used.lut4);
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
}
