//! The three serial NAT workloads: `nat_hot`, `flows_256k`, `churn`.
//!
//! One generator thread pulls the stream and calls
//! `begin_stream`/`offer`/`finish` synchronously (closed loop, one
//! client); simulated time is paced by the stream's arrival stamps.

use crate::kernels;
use crate::spans::{maybe_traced, timed, ChunkTimed, SpanBuf, Trace, Tracer, GEN_CHUNK};
use crate::surface::{
    control_frame, metro_subscribers, ArrivalModel, CacheStats, CtlTableOp, Direction, FlexSfp,
    ModuleConfig, PacketArena, SimPacket, SimReport, SizeModel, StaticNat, TableTelemetry,
    TraceBuilder, TraceStream, PRIVATE_BASE, PUBLIC_BASE,
};
use crate::workload::{Built, Layers, Outcome, Sink, Workload};
use std::time::Instant;

/// Frame length of the §5.1 workloads: minimum size, worst-case rate.
const MIN_FRAME: usize = 60;
/// CGNAT block `metro_subscribers` draws its sources from.
const SUBSCRIBER_BASE: u32 = 0x0a64_0000;
/// Offset of the block remapped subscribers move into.
const REMAP_OFFSET: u32 = 0x0010_0000;

/// The traffic a serial workload offers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// 60 B frames paced at line rate (utilisation 1.0), as §5.1.
    MinFramePaced,
    /// `profiles::metro_subscribers`: IMIX at the given utilisation.
    MetroImix { utilization: f64 },
}

/// In-band control and telemetry activity mixed into the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// Every this-many-th packet is an authenticated control frame.
    pub control_every: u64,
    /// `telemetry_snapshot()` after every this many packets.
    pub snapshot_every: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SerialNat {
    pub name: &'static str,
    pub seed: u64,
    pub packets: u64,
    /// Flow population, and NAT mappings installed.
    pub flows: usize,
    /// NAT table slots (`StaticNat::with_capacity`).
    pub capacity: usize,
    pub traffic: Traffic,
    pub churn: Option<Churn>,
    /// Tenth-size smoke run: kernels sample less too.
    pub quick: bool,
}

impl SerialNat {
    /// §5.1: 64 mappings, 64 flows. Everything fits in L1, so
    /// per-packet instruction cost does the work.
    pub fn nat_hot(seed: u64, packets: u64) -> SerialNat {
        SerialNat {
            name: "nat_hot",
            seed,
            packets,
            flows: 64,
            capacity: 32_768,
            traffic: Traffic::MinFramePaced,
            churn: None,
            quick: false,
        }
    }

    /// The soak's scale: 262 144 flows in a 524 288-slot table. The
    /// working set leaves every cache.
    pub fn flows_256k(seed: u64, packets: u64) -> SerialNat {
        SerialNat {
            name: "flows_256k",
            seed,
            packets,
            flows: 262_144,
            capacity: 524_288,
            traffic: Traffic::MinFramePaced,
            churn: None,
            quick: false,
        }
    }

    /// 4 096 subscribers in an 8 192-slot table with a table write
    /// (and so a flow-cache epoch bump) every 8 192 packets.
    pub fn churn(seed: u64, packets: u64) -> SerialNat {
        SerialNat {
            name: "churn",
            seed,
            packets,
            flows: 4_096,
            capacity: 8_192,
            traffic: Traffic::MetroImix { utilization: 0.6 },
            churn: Some(Churn {
                control_every: 8_192,
                snapshot_every: 250_000,
            }),
            quick: false,
        }
    }

    fn private_base(&self) -> u32 {
        match self.traffic {
            Traffic::MinFramePaced => PRIVATE_BASE,
            Traffic::MetroImix { .. } => SUBSCRIBER_BASE,
        }
    }

    pub fn builder(&self) -> TraceBuilder {
        match self.traffic {
            Traffic::MinFramePaced => TraceBuilder::new(self.seed)
                .flows(self.flows)
                .src_base(PRIVATE_BASE)
                .sizes(SizeModel::Fixed(MIN_FRAME))
                .arrivals(ArrivalModel::Paced { utilization: 1.0 }),
            Traffic::MetroImix { utilization } => {
                metro_subscribers(self.seed, self.flows, utilization)
            }
        }
    }

    /// The NAT application, populated, flow cache on. Inserts that land
    /// in a full 4-way bucket are tolerated: those subscribers pass
    /// untranslated, deterministically (`ppe.table.insert_failures`).
    pub fn nat(&self) -> (StaticNat, u64) {
        let mut nat = StaticNat::with_capacity(self.capacity);
        let base = self.private_base();
        let t = Instant::now();
        for i in 0..self.flows as u32 {
            let _ = nat.add_mapping(base.wrapping_add(i), PUBLIC_BASE.wrapping_add(i));
        }
        (nat, t.elapsed().as_nanos() as u64)
    }

    /// The `j`-th control operation: remap one subscriber, delete
    /// another, re-insert it, and round again. Every one bumps the
    /// flow-cache epoch.
    fn control_op(&self, j: u64) -> CtlTableOp {
        let subscriber = |k: u64| {
            self.private_base()
                .wrapping_add((k.wrapping_mul(2_654_435_761) % self.flows as u64) as u32)
        };
        let key = |ip: u32| ip.to_be_bytes().to_vec();
        let round = j / 3;
        match j % 3 {
            0 => CtlTableOp::Insert {
                table: 0,
                key: key(subscriber(2 * round)),
                value: key(PUBLIC_BASE
                    .wrapping_add(REMAP_OFFSET)
                    .wrapping_add(round as u32)),
            },
            1 => CtlTableOp::Delete {
                table: 0,
                key: key(subscriber(2 * round + 1)),
            },
            _ => CtlTableOp::Insert {
                table: 0,
                key: key(subscriber(2 * round + 1)),
                value: key(PUBLIC_BASE.wrapping_add(round as u32)),
            },
        }
    }

    pub fn stream(&self, arena: &PacketArena) -> NatStream {
        let control_every = self.churn.map_or(u64::MAX, |c| c.control_every);
        let data_packets = self.packets - self.packets / control_every;
        NatStream {
            inner: self
                .builder()
                .stream_pooled(data_packets as usize, arena.clone()),
            spec: self.clone(),
            config: ModuleConfig::default(),
            remaining: self.packets,
            until_control: control_every,
            controls_sent: 0,
            last_arrival_ns: 0,
        }
    }
}

/// The workload's packet stream: the trace, with every
/// `control_every`-th slot taken by an in-band control frame built on
/// the spot (its cost is generation cost, as it is for any sender).
pub struct NatStream {
    inner: TraceStream,
    spec: SerialNat,
    config: ModuleConfig,
    remaining: u64,
    until_control: u64,
    controls_sent: u64,
    last_arrival_ns: u64,
}

impl Iterator for NatStream {
    type Item = SimPacket;

    #[inline]
    fn next(&mut self) -> Option<SimPacket> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.until_control -= 1;
        if self.until_control == 0 {
            self.until_control = self.spec.churn.map_or(u64::MAX, |c| c.control_every);
            let op = self.spec.control_op(self.controls_sent);
            self.controls_sent += 1;
            return Some(SimPacket {
                arrival_ns: self.last_arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(&self.config, op),
            });
        }
        let p = self.inner.next()?;
        self.last_arrival_ns = p.arrival_ns;
        Some(SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame,
        })
    }
}

pub struct State {
    pub module: FlexSfp,
    pub stream: NatStream,
    pub arena: PacketArena,
}

/// `FlexSfp::new` over a populated NAT, timed; wrapped for tracing when
/// `spans` is given.
pub fn nat_module(spec: &SerialNat, spans: Option<SpanBuf>) -> (FlexSfp, u64, u64) {
    let (nat, populate_ns) = spec.nat();
    let t = Instant::now();
    let mut module = FlexSfp::new(ModuleConfig::default(), maybe_traced(nat, spans));
    let build_ns = t.elapsed().as_nanos() as u64;
    module.app_mut().set_flow_cache(true);
    (module, build_ns, populate_ns)
}

/// Spans one traced serial pass can record per site.
pub fn span_capacity(packets: u64) -> usize {
    (packets as usize / GEN_CHUNK + 8) * 2
}

/// The serial loop. Returns the module's report and the control frames
/// offered.
fn drive<I: Iterator<Item = SimPacket>>(
    module: &mut FlexSfp,
    packets: I,
    sink: &mut Sink,
    churn: Option<Churn>,
    spans: &mut Option<SpanBuf>,
) -> (SimReport, u64) {
    // Countdowns, not `seq % every`: a 64-bit division per packet is a
    // fifth of nat_hot's whole budget.
    let control_every = churn.map_or(u64::MAX, |c| c.control_every);
    let snapshot_every = churn.map_or(u64::MAX, |c| c.snapshot_every);
    let (mut until_control, mut until_snapshot) = (control_every, snapshot_every);
    let mut control_sent = 0u64;
    let mut session = module.begin_stream();
    let mut out = |_tag: u64, o| sink.take(o);
    for (seq, pkt) in packets.enumerate() {
        until_control -= 1;
        if until_control == 0 {
            until_control = control_every;
            control_sent += 1;
            timed(spans, "core.control.op", 1, || {
                session.offer(module, seq as u64, pkt, &mut out)
            });
        } else {
            session.offer(module, seq as u64, pkt, &mut out);
        }
        until_snapshot -= 1;
        if until_snapshot == 0 {
            until_snapshot = snapshot_every;
            let snapshot = timed(spans, "core.telemetry.snapshot", 1, || {
                module.telemetry_snapshot()
            });
            std::hint::black_box(snapshot);
        }
    }
    let report = timed(spans, "core.module.finish", 0, || {
        session.finish(module, &mut out)
    });
    (report, control_sent)
}

/// Turn a module report into the outcome every workload reports.
pub fn outcome_of(
    report: &SimReport,
    sink: &Sink,
    timed_ns: u64,
    control_sent: u64,
    cache: CacheStats,
    table: TableTelemetry,
    arena_allocations: u64,
) -> Outcome {
    let forwarded = report.forwarded.0 + report.forwarded.1;
    let explained =
        forwarded + report.drops.total() + report.to_control + report.cp_originated + control_sent;
    let mut outcome = Outcome {
        timed_ns,
        offered: report.offered,
        forwarded,
        fingerprint: sink.fingerprint,
        digest: sink.digest,
        unexplained: report.offered.saturating_sub(explained),
        control_sent,
        control_handled: report.control_handled,
        // A module has no identity beyond "every packet has a named
        // fate", which `unexplained` already counts.
        conserved: true,
        latency: report.latency.histogram().clone(),
        ..Outcome::default()
    };
    let kpkt = report.offered.max(1) as f64 / 1e3;
    let c = &mut outcome.counts;
    c.insert("ppe.cache.hit_ratio", cache.hit_rate());
    c.insert(
        "ppe.cache.evictions_per_kpkt",
        cache.evictions as f64 / kpkt,
    );
    c.insert(
        "ppe.table.hit_ratio",
        table.hits as f64 / (table.hits + table.misses).max(1) as f64,
    );
    c.insert("ppe.table.load_factor", table.load_factor());
    c.insert("ppe.table.insert_failures", table.insert_failures as f64);
    c.insert(
        "core.drops.fifo_overflow",
        report.drops.fifo_overflow as f64,
    );
    c.insert("core.drops.app", report.drops.app as f64);
    c.insert("core.drops.unsorted", report.drops.unsorted as f64);
    c.insert("wire.arena.allocations", arena_allocations as f64);
    outcome
}

impl Workload for SerialNat {
    type State = State;

    fn name(&self) -> &'static str {
        self.name
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    fn build(&self, tracer: Option<&Tracer>) -> Built<State> {
        // One span per process_batch call: a 32-packet batch at best.
        let spans = tracer.map(|t| t.buf(0, self.packets as usize / 16 + 64));
        let (module, build_ns, populate_ns) = nat_module(self, spans);
        let arena = PacketArena::new();
        Built {
            state: State {
                module,
                stream: self.stream(&arena),
                arena,
            },
            module_build_ns: vec![build_ns],
            populate_ns,
            populated: self.flows as u64,
        }
    }

    fn run(&self, state: State, full_digest: bool, tracer: Option<&Tracer>) -> Outcome {
        let State {
            mut module,
            stream,
            arena,
        } = state;
        let mut sink = Sink::new(arena.clone(), full_digest);
        let mut spans = tracer.map(|t| t.buf(0, 1024));
        let start_ns = spans.as_ref().map(SpanBuf::now);
        let t = Instant::now();
        let (report, control_sent) = match tracer {
            None => drive(&mut module, stream, &mut sink, self.churn, &mut spans),
            Some(tr) => drive(
                &mut module,
                ChunkTimed::new(
                    stream,
                    tr.buf(0, span_capacity(self.packets)),
                    "traffic.gen",
                    Some("core.module.offer"),
                ),
                &mut sink,
                self.churn,
                &mut spans,
            ),
        };
        let timed_ns = t.elapsed().as_nanos() as u64;
        if let (Some(spans), Some(start_ns)) = (spans.as_mut(), start_ns) {
            let end_ns = spans.now();
            spans.record("flexbench.trial", start_ns, end_ns, report.offered as u32);
        }
        let app = module.app_mut();
        outcome_of(
            &report,
            &sink,
            timed_ns,
            control_sent,
            app.cache_stats().unwrap_or_default(),
            app.table_stats().unwrap_or_default(),
            arena.allocations(),
        )
        // `module` drops here, committing its application's spans.
    }

    fn layers(&self, trace: &Trace, traced: &Outcome, out: &mut Layers) {
        let packets = traced.offered.max(1) as f64;
        let module_self =
            trace.self_total_ns("core.module.offer") + trace.self_total_ns("core.module.finish");
        out.set("core.module.self_ns_per_pkt", module_self as f64 / packets);
        out.set(
            "core.batch.mean_fill",
            trace.items("apps.process") as f64 / trace.count("apps.process").max(1) as f64,
        );
        let covered = trace.total_ns("traffic.gen")
            + trace.total_ns("core.module.offer")
            + trace.total_ns("core.module.finish");
        out.set(
            "trace.span_coverage",
            covered as f64 / trace.total_ns("flexbench.trial").max(1) as f64,
        );
        if self.churn.is_some() {
            out.set(
                "core.control.ns_per_op",
                crate::stats::median(&trace.durations_ns("core.control.op")),
            );
            out.set(
                "core.telemetry.snapshot_us",
                crate::stats::median(&trace.durations_ns("core.telemetry.snapshot")) / 1e3,
            );
        }
    }

    fn kernels(&self, out: &mut Layers) {
        let arena = PacketArena::new();
        let sample = kernels::Sample::collect(
            self.builder()
                .stream_pooled(kernels::keys(self.quick), arena.clone())
                .map(|p| p.frame),
            &arena,
            self.quick,
        );
        kernels::keyed(&sample, self.capacity, self.capacity, self.flows, out);
        kernels::independent(&sample, self.quick, out);
        if self.name == "nat_hot" {
            kernels::apps(self.seed, self.quick, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_workload, Plan};

    /// A full-digest pass of `spec`, traced or not.
    fn pass(spec: &SerialNat, traced: bool) -> Outcome {
        let tracer = traced.then(|| Tracer::new(0));
        let built = spec.build(tracer.as_ref());
        spec.run(built.state, true, tracer.as_ref())
    }

    #[test]
    fn tracing_wrappers_are_transparent() {
        for spec in [SerialNat::nat_hot(81, 20_000), SerialNat::churn(81, 20_000)] {
            let plain = pass(&spec, false);
            let traced = pass(&spec, true);
            assert_eq!(
                plain.digest, traced.digest,
                "{}: Traced/ChunkTimed changed the digest",
                spec.name
            );
            assert_eq!(plain.fingerprint, traced.fingerprint);
            assert_eq!(plain.offered, 20_000);
            assert_eq!(plain.unexplained, 0);
        }
    }

    #[test]
    fn a_seed_repeats_its_digest_and_another_seed_changes_it() {
        for make in [SerialNat::nat_hot, SerialNat::flows_256k, SerialNat::churn] {
            let a = pass(&make(81, 6_000), false);
            let b = pass(&make(81, 6_000), false);
            let c = pass(&make(82, 6_000), false);
            assert_eq!((a.digest, a.fingerprint), (b.digest, b.fingerprint));
            assert_ne!(a.digest, c.digest);
            assert_ne!(a.fingerprint, c.fingerprint);
        }
    }

    #[test]
    fn churn_sends_and_gets_every_control_frame_handled() {
        let spec = SerialNat::churn(81, 40_000);
        let out = pass(&spec, false);
        assert_eq!(out.control_sent, 40_000 / 8_192);
        assert_eq!(out.control_handled, out.control_sent);
        assert_eq!(out.failed(out.fingerprint), 0);
        let hit = out.counts["ppe.cache.hit_ratio"];
        assert!(hit > 0.2 && hit < 0.9, "churn hit ratio {hit}");
    }

    #[test]
    fn nat_hot_forwards_everything_within_the_arena_bound() {
        let out = pass(&SerialNat::nat_hot(81, 20_000), false);
        assert_eq!(out.forwarded, 20_000);
        assert!(out.counts["wire.arena.allocations"] <= 48.0);
        assert!(out.counts["ppe.cache.hit_ratio"] > 0.99);
    }

    #[test]
    fn the_method_runs_end_to_end_and_spans_cover_the_trial() {
        let spec = SerialNat::churn(81, 30_000);
        let plan = Plan {
            seed: 81,
            seconds: 0.0,
            min_trials: 2,
            max_trials: 2,
            traced: true,
            quick: true,
        };
        let ran = run_workload(&spec, &plan);
        let r = &ran.result;
        assert!(r.correct(), "{:?}", r.checks_failed);
        assert_eq!(r.trials.len(), 2);
        assert_eq!(r.ops_attempted, 60_000);
        assert_eq!(r.end_to_end.len(), 7);
        let layer = |name: &str| {
            r.per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert!(layer("trace.span_coverage") > 0.9);
        assert!(layer("traffic.gen.ns_per_pkt") > 0.0);
        assert!(layer("apps.process.ns_per_pkt") > 0.0);
        assert!(layer("core.module.self_ns_per_pkt") > 0.0);
        assert!(layer("core.control.ns_per_op") > 0.0);
        assert!(layer("core.batch.mean_fill") >= 1.0);
        assert!(layer("ppe.table.lookup_ns") > 0.0);
        assert!(ran.trace.is_some());
    }
}
