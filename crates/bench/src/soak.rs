//! City-soak SLO workload (`experiments soak`).
//!
//! The flow-scale counterpart of [`crate::slo`]: instead of 64 flows at
//! a steady load, this streams a metro-ISP aggregation port through a
//! whole synthetic day — a `SUBSCRIBERS`-flow CGNAT population riding
//! a diurnal load curve (overnight trough → morning ramp → daytime
//! plateau → evening peak), a flash-crowd surge with microburst
//! interludes, and a volumetric DDoS phase from an unmapped source
//! block — all composed from [`flexsfp_traffic::profiles`] presets. NAT
//! table churn is injected in-band at every phase boundary: batches of
//! authenticated control frames remap and delete subscriber mappings
//! mid-run, so the microflow cache is repeatedly epoch-invalidated at
//! city scale while packets keep flowing.
//!
//! Every phase is *paced*: at utilization ≤ 1 the PPE service time
//! never exceeds the wire time, so the server never backlogs and each
//! departure depends only on the packet's own arrival and length. That
//! is the property that keeps the sharded dataplane digest-identical
//! to serial, and the soak asserts exactly that: the serial pass and
//! the [`crate::shard::run_sharded`] pass must fold every output
//! packet to the same FNV-1a digest, control churn included.
//! Microbursts ride in a burst-only interlude (the [`flash_crowd`]
//! preset with a zero-length paced stream) so their line-rate 1514 B
//! frames never overlap paced traffic — overlap would queue the
//! server and make departures shard-dependent by design, not by bug.
//!
//! The run is judged twice:
//!
//! * **per window** — an [`SloSpec`] with a 100 µs p99.9 bound and a
//!   *zero* unexplained-drop budget over 10 ms windows. The per-window
//!   cache floor is 0: at 256 k flows, windows dominated by first-touch
//!   lookups legitimately sit near 0 % and are not a defect;
//! * **over the lifetime** — the aggregate cache hit rate must clear
//!   `LIFETIME_CACHE_FLOOR`, which is where cache-geometry
//!   regressions at city scale actually show up.
//!
//! `BENCH_soak.json` (written by the `soak` subcommand, committed at
//! the repo root) records the verdict, the throughput (`mpps_soak`),
//! the table occupancy and the host it was measured on.
//!
//! [`flash_crowd`]: flexsfp_traffic::profiles::flash_crowd

use crate::ctl::control_frame;
use crate::perf::{self, host_meta, HostMeta};
use crate::render;
use crate::shard::run_sharded;
use flexsfp_apps::StaticNat;
use flexsfp_core::control::ControlRequest;
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputDigest, SimPacket};
use flexsfp_obs::slo::{SloReport, SloSpec};
use flexsfp_obs::TableTelemetry;
use flexsfp_ppe::{Direction, TableOp};
use flexsfp_traffic::{profiles, TraceBuilder, TraceStream};
use flexsfp_wire::PacketArena;
use std::collections::VecDeque;
use std::time::Instant;

/// Subscriber flow population — a city, not a rack (§2.1 aggregation).
pub(crate) const SUBSCRIBERS: usize = 262_144;
/// NAT exact-match table capacity backing the population (~50 % load;
/// a few percent of inserts land in full 4-way buckets and those
/// subscribers deterministically pass untranslated, as hardware would).
pub(crate) const TABLE_CAPACITY: usize = 524_288;
/// Distinct sources in the DDoS phase (all unmapped: pure miss traffic).
pub(crate) const ATTACK_SOURCES: usize = 16_384;
/// Packets in the full soak.
pub const FULL_PACKETS: usize = 2_000_000;
/// Packets in the `--quick` (CI) soak. The flow population does not
/// shrink with `--quick` — the whole point is table pressure.
pub const QUICK_PACKETS: usize = 500_000;
/// Aggregate cache hit rate the lifetime gate requires. Generous on a
/// healthy run (the full soak sits far above it) but a cache-geometry
/// regression that thrashes at 256 k flows falls straight through it.
pub(crate) const LIFETIME_CACHE_FLOOR: f64 = 0.10;

/// Telemetry window width: 10 ms, wide enough that the multi-second
/// simulated day fits the ring with room to spare.
const WINDOW_NS: u64 = 10_000_000;
/// Live windows kept for SLO evaluation.
const WINDOW_CAPACITY: usize = 1024;
/// Idle gap between phases, ns — keeps churn frames and the next
/// phase's paced stream from ever sharing the wire.
const PHASE_GAP_NS: u64 = 100_000;
/// Spacing between churn control frames, ns (≫ their service time, so
/// the control batch itself never backlogs the server).
const CTRL_SPACING_NS: u64 = 1_000;
/// Mappings remapped to a new public address per phase boundary.
const CHURN_REMAPS: usize = 48;
/// Mappings deleted per phase boundary.
const CHURN_DELETES: usize = 16;
/// Phase boundaries carrying churn (phases − 1).
const BOUNDARIES: usize = 6;

/// Private subscriber base — must match
/// [`profiles::metro_subscribers`]'s source block.
const SUB_BASE: u32 = 0x0a64_0000;
/// Public pool base for the initial NAT population.
const PUB_BASE: u32 = 0x6540_0000;
/// Offset into a second public block used by boundary remaps.
const REMAP_OFFSET: u32 = 0x0010_0000;

/// The per-window spec the soak is held to: 100 µs p99.9, *zero*
/// unexplained drops (nothing in a paced soak may overflow the FIFO),
/// and no per-window cache floor — first-touch windows at city scale
/// legitimately sit near 0 %. The cache is gated over the lifetime by
/// [`LIFETIME_CACHE_FLOOR`] instead.
pub(crate) fn soak_spec() -> SloSpec {
    SloSpec {
        p999_latency_ns: 100_000,
        max_unexplained_drop_rate: 0.0,
        min_cache_hit_rate: 0.0,
    }
}

/// Result of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Packets offered (paced phases + microbursts + control frames).
    pub packets: u64,
    /// Subscriber flow population.
    pub flows: u64,
    /// Distinct DDoS sources.
    pub attack_sources: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Wall-clock of the timed serial pass, s.
    pub wall_s: f64,
    /// Simulated packets per wall-clock second, millions (timed pass).
    pub mpps_soak: f64,
    /// Simulated span of the soak, ns.
    pub duration_ns: u64,
    /// Lifetime p99.9 forwarding latency, ns.
    pub p999_latency_ns: f64,
    /// Lifetime microflow-cache hit rate, 0..=1.
    pub cache_hit_rate: f64,
    /// The lifetime floor `cache_hit_rate` was gated against.
    pub cache_hit_floor: f64,
    /// Infrastructure drops (FIFO overflow + link + unsorted) — must
    /// be zero in a paced soak.
    pub unexplained_drops: u64,
    /// Application-verdict drops (explained; policy, not infra).
    pub app_drops: u64,
    /// Churn control frames handled (phase boundaries × batch size).
    pub control_handled: u64,
    /// NAT exact-match table geometry and counters after the run.
    pub table: TableTelemetry,
    /// Table occupancy as a fraction of capacity.
    pub table_load_factor: f64,
    /// Telemetry window width used for the SLO evaluation, ns.
    pub window_width_ns: u64,
    /// Shard count of the digest-verified sharded pass.
    pub shards: u64,
    /// FNV-1a digest (hex) over every output packet; the sharded pass
    /// must reproduce it exactly or the run aborts.
    pub digest: String,
    /// Arena buffers heap-allocated by the serial pass (O(1) witness).
    pub arena_allocations: u64,
    /// The per-window spec evaluated.
    pub spec: SloSpec,
    /// Per-window verdicts and breaches.
    pub report: SloReport,
    /// True when the windows pass `spec` *and* the lifetime cache rate
    /// clears `cache_hit_floor` *and* no drop is unexplained.
    pub healthy: bool,
    /// The machine the timed pass ran on.
    pub host: HostMeta,
}

flexsfp_obs::impl_json_struct!(Outcome {
    packets,
    flows,
    attack_sources,
    forwarded,
    wall_s,
    mpps_soak,
    duration_ns,
    p999_latency_ns,
    cache_hit_rate,
    cache_hit_floor,
    unexplained_drops,
    app_drops,
    control_handled,
    table,
    table_load_factor,
    window_width_ns,
    shards,
    digest,
    arena_allocations,
    spec,
    report,
    healthy,
    host
});

/// One diurnal phase: a preset builder and how many paced packets of
/// it the soak draws (0 = burst-only interlude).
struct Phase {
    builder: TraceBuilder,
    count: usize,
}

/// The synthetic day, as fractions of the packet budget. The evening
/// phase absorbs integer-division remainders so the paced total is
/// exactly `packets`.
fn phases(packets: usize, subscribers: usize, attack_sources: usize) -> Vec<Phase> {
    let pct = |p: usize| packets * p / 100;
    let evening = packets - pct(10) - pct(15) - pct(25) - pct(20) - pct(15);
    vec![
        // Overnight trough.
        Phase {
            builder: profiles::metro_subscribers(0xa1, subscribers, 0.10),
            count: pct(10),
        },
        // Morning ramp.
        Phase {
            builder: profiles::metro_subscribers(0xa2, subscribers, 0.40),
            count: pct(15),
        },
        // Daytime plateau.
        Phase {
            builder: profiles::metro_subscribers(0xa3, subscribers, 0.60),
            count: pct(25),
        },
        // Flash-crowd surge: the whole city piles on, still paced.
        Phase {
            builder: profiles::metro_subscribers(0xa4, subscribers, 0.95),
            count: pct(20),
        },
        // Burst interlude: the flash_crowd preset with a zero-length
        // paced stream yields only its pre-materialized line-rate
        // microbursts, which therefore never overlap paced traffic —
        // the condition that keeps sharded departures serial-identical.
        Phase {
            builder: profiles::flash_crowd(0xa5, subscribers.min(4_096)),
            count: 0,
        },
        // Volumetric DDoS from an unmapped block: pure table misses at
        // the worst-case packet rate, forwarded untranslated.
        Phase {
            builder: profiles::ddos_burst(0xa6, attack_sources),
            count: pct(15),
        },
        // Evening peak.
        Phase {
            builder: profiles::metro_subscribers(0xa7, subscribers, 0.70),
            count: evening,
        },
    ]
}

/// The churn batch injected at phase boundary `boundary`: remap
/// [`CHURN_REMAPS`] subscribers into a fresh public block, then delete
/// [`CHURN_DELETES`] more. Every op bumps the microflow-cache epoch,
/// so each boundary wipes every memoized plan in the module.
fn churn_ops(boundary: usize, subscribers: usize) -> Vec<TableOp> {
    let base = boundary * (CHURN_REMAPS + CHURN_DELETES);
    let key = |j: usize| {
        SUB_BASE
            .wrapping_add(((base + j) % subscribers) as u32)
            .to_be_bytes()
            .to_vec()
    };
    let mut ops = Vec::with_capacity(CHURN_REMAPS + CHURN_DELETES);
    for j in 0..CHURN_REMAPS {
        ops.push(TableOp::Insert {
            table: 0,
            key: key(j),
            value: (PUB_BASE + REMAP_OFFSET)
                .wrapping_add(((base + j) % subscribers) as u32)
                .to_be_bytes()
                .to_vec(),
        });
    }
    for j in 0..CHURN_DELETES {
        ops.push(TableOp::Delete {
            table: 0,
            key: key(CHURN_REMAPS + j),
        });
    }
    ops
}

/// Streams the phased day in arrival order with O(1) memory: one live
/// [`TraceStream`] at a time, each phase offset past the last arrival
/// seen, churn control frames emitted in the inter-phase gap.
struct PhasedStream {
    phases: std::vec::IntoIter<Phase>,
    current: Option<TraceStream>,
    ctrl: VecDeque<SimPacket>,
    config: ModuleConfig,
    subscribers: usize,
    boundary: usize,
    started: bool,
    offset_ns: u64,
    last_arrival_ns: u64,
    arena: PacketArena,
}

impl Iterator for PhasedStream {
    type Item = SimPacket;

    fn next(&mut self) -> Option<SimPacket> {
        loop {
            if let Some(p) = self.ctrl.pop_front() {
                self.last_arrival_ns = self.last_arrival_ns.max(p.arrival_ns);
                return Some(p);
            }
            if let Some(stream) = self.current.as_mut() {
                if let Some(tp) = stream.next() {
                    let arrival_ns = self.offset_ns + tp.arrival_ns;
                    self.last_arrival_ns = self.last_arrival_ns.max(arrival_ns);
                    return Some(SimPacket {
                        arrival_ns,
                        direction: Direction::EdgeToOptical,
                        frame: tp.frame,
                    });
                }
                self.current = None;
            }
            let phase = self.phases.next()?;
            if self.started {
                // Phase boundary: schedule the churn batch in the gap,
                // spaced so the control frames never backlog the server.
                let mut t = self.last_arrival_ns;
                for op in churn_ops(self.boundary, self.subscribers) {
                    t += CTRL_SPACING_NS;
                    self.ctrl.push_back(SimPacket {
                        arrival_ns: t,
                        direction: Direction::EdgeToOptical,
                        frame: control_frame(&self.config, &ControlRequest::Table(op)),
                    });
                }
                self.boundary += 1;
                self.offset_ns = t + PHASE_GAP_NS;
            }
            self.started = true;
            self.current = Some(phase.builder.stream_pooled(phase.count, self.arena.clone()));
        }
    }
}

/// The whole soak stream over `arena`.
fn stream(
    packets: usize,
    subscribers: usize,
    attack_sources: usize,
    arena: &PacketArena,
) -> PhasedStream {
    PhasedStream {
        phases: phases(packets, subscribers, attack_sources).into_iter(),
        current: None,
        ctrl: VecDeque::new(),
        config: ModuleConfig::default(),
        subscribers,
        boundary: 0,
        started: false,
        offset_ns: 0,
        last_arrival_ns: 0,
        arena: arena.clone(),
    }
}

/// A NAT module provisioned for the city: `subscribers` mappings in a
/// `capacity`-slot table, flow cache on. Inserts landing in full 4-way
/// buckets are tolerated — those subscribers pass untranslated,
/// deterministically, in serial and sharded alike.
fn nat_module(subscribers: usize, capacity: usize) -> FlexSfp {
    let mut nat = StaticNat::with_capacity(capacity);
    for i in 0..subscribers as u32 {
        let _ = nat.add_mapping(SUB_BASE.wrapping_add(i), PUB_BASE.wrapping_add(i));
    }
    let mut module = FlexSfp::new(ModuleConfig::default(), Box::new(nat));
    module.app_mut().set_flow_cache(true);
    module
}

/// Run the full soak at the committed scale: `SUBSCRIBERS` flows,
/// `ATTACK_SOURCES` DDoS sources, `TABLE_CAPACITY` table slots.
///
/// # Panics
///
/// Panics if the sharded pass does not reproduce the serial digest bit
/// for bit, if forwarded/offered counts diverge, or if either pass
/// heap-allocates more arena buffers than its O(1) in-flight bound —
/// those are correctness failures, not soak verdicts. SLO breaches and
/// a missed lifetime cache floor are verdicts: they make the returned
/// [`Outcome`] unhealthy (and the CLI exit nonzero) without panicking.
pub fn run(packets: usize, shards: usize) -> Outcome {
    run_scaled(packets, shards, SUBSCRIBERS, ATTACK_SOURCES, TABLE_CAPACITY)
}

/// [`run`] with an explicit scale, so tests can soak a small town in
/// milliseconds while CI soaks the city.
fn run_scaled(
    packets: usize,
    shards: usize,
    subscribers: usize,
    attack_sources: usize,
    table_capacity: usize,
) -> Outcome {
    let shards = shards.max(1);
    let spec = soak_spec();

    // Serial verification pass: digest every output, evaluate the SLO
    // windows, read the table and cache telemetry.
    let mut module = nat_module(subscribers, table_capacity);
    module.configure_windows(WINDOW_NS, WINDOW_CAPACITY);
    let arena = PacketArena::new();
    let mut digest = OutputDigest::default();
    let report = module.run_stream_with(
        stream(packets, subscribers, attack_sources, &arena),
        |out| {
            digest.fold(&out);
            arena.recycle(out.frame);
        },
    );
    let digest = digest.value();
    let arena_allocations = arena.allocations();
    // The serial perf bound is 48 in one size class; the soak's IMIX
    // fills both (58, quick or full) and adds burst and control frames
    // built outside the arena. 64 still pins O(1) in trace length.
    assert!(
        arena_allocations <= 64,
        "serial soak allocated {arena_allocations} arena buffers (bound 64)"
    );
    assert_eq!(
        report.control_handled,
        (BOUNDARIES * (CHURN_REMAPS + CHURN_DELETES)) as u64,
        "every churn frame must be handled"
    );
    let slo_report = flexsfp_obs::slo::evaluate(&spec, module.windows());
    let cache = module.app_mut().cache_stats().unwrap_or_default();
    let snapshot = module.telemetry_snapshot();

    // Sharded verification pass: byte-identical output or abort.
    {
        let arena = PacketArena::new();
        let mut sharded_digest = OutputDigest::default();
        let run = run_sharded(
            shards,
            &ModuleConfig::default(),
            |_| nat_module(subscribers, table_capacity),
            stream(packets, subscribers, attack_sources, &arena),
            |out| {
                sharded_digest.fold(&out);
                arena.recycle(out.frame);
            },
        );
        let sharded_digest = sharded_digest.value();
        assert_eq!(
            sharded_digest, digest,
            "sharded soak diverged from serial at {shards} shards \
             ({sharded_digest:016x} vs {digest:016x})"
        );
        assert_eq!(run.report.forwarded, report.forwarded);
        assert_eq!(run.report.offered, report.offered);
        assert!(
            arena.allocations() <= perf::sharded_arena_bound(shards) + 64,
            "sharded soak allocated {} arena buffers (bound {})",
            arena.allocations(),
            perf::sharded_arena_bound(shards) + 64
        );
    }

    // Timed serial pass, recycle-only sink. One rep: a soak is a
    // sustained-rate measurement, not a microbenchmark.
    let wall_s = {
        let mut module = nat_module(subscribers, table_capacity);
        module.configure_windows(WINDOW_NS, WINDOW_CAPACITY);
        let arena = PacketArena::new();
        let t0 = Instant::now();
        module.run_stream_with(
            stream(packets, subscribers, attack_sources, &arena),
            |out| arena.recycle(out.frame),
        );
        t0.elapsed().as_secs_f64()
    };

    let unexplained_drops = report.drops.fifo_overflow + report.drops.link + report.drops.unsorted;
    let cache_hit_rate = cache.hit_rate();
    let healthy =
        slo_report.healthy && cache_hit_rate >= LIFETIME_CACHE_FLOOR && unexplained_drops == 0;
    Outcome {
        packets: report.offered,
        flows: subscribers as u64,
        attack_sources: attack_sources as u64,
        forwarded: report.forwarded.0 + report.forwarded.1,
        wall_s,
        mpps_soak: report.offered as f64 / wall_s / 1e6,
        duration_ns: report.duration_ns,
        p999_latency_ns: report.latency.p999_ns(),
        cache_hit_rate,
        cache_hit_floor: LIFETIME_CACHE_FLOOR,
        unexplained_drops,
        app_drops: report.drops.app,
        control_handled: report.control_handled,
        table_load_factor: snapshot.table.load_factor(),
        table: snapshot.table,
        window_width_ns: WINDOW_NS,
        shards: shards as u64,
        digest: format!("{digest:016x}"),
        arena_allocations,
        spec,
        report: slo_report,
        healthy,
        host: host_meta(),
    }
}

/// Human-readable report: scale, throughput, verdicts, first breaches.
pub fn render(o: &Outcome) -> String {
    let rows = vec![vec![
        render::grouped(o.packets),
        render::grouped(o.flows),
        render::f(o.mpps_soak, 3),
        render::f(o.p999_latency_ns, 0),
        render::f(o.cache_hit_rate * 100.0, 2),
        o.unexplained_drops.to_string(),
        render::f(o.table_load_factor * 100.0, 1),
        o.report.windows_evaluated.to_string(),
        o.report.breaches.len().to_string(),
        if o.healthy { "yes" } else { "NO" }.to_string(),
    ]];
    let mut out = format!(
        "soak: metro city day over {} subscribers (digest {} identical serial/sharded at {} shards; \
         spec p99.9 ≤ {} ns, 0 unexplained drops, lifetime cache ≥ {:.0}%)\n\
         host: {} cores, {}\n{}",
        render::grouped(o.flows),
        o.digest,
        o.shards,
        o.spec.p999_latency_ns,
        o.cache_hit_floor * 100.0,
        o.host.cores,
        o.host.cpu_model,
        render::table(
            &[
                "packets",
                "flows",
                "Mpps (soak)",
                "p99.9 ns",
                "cache hit %",
                "unexplained",
                "table load %",
                "windows",
                "breaches",
                "healthy",
            ],
            &rows,
        )
    );
    if o.cache_hit_rate < o.cache_hit_floor {
        out.push_str(&format!(
            "\n  lifetime cache hit rate {:.2}% below floor {:.0}%",
            o.cache_hit_rate * 100.0,
            o.cache_hit_floor * 100.0
        ));
    }
    out.push_str(&render::breaches(&o.report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_obs::json::{FromJson, ToJson, Value};

    #[test]
    fn scaled_soak_is_healthy_and_shard_identical() {
        // A small town, same shape: all seven phases, six churn
        // boundaries, microburst interlude, two shards. run_scaled
        // itself asserts serial/sharded digest equality.
        let o = run_scaled(30_000, 2, 4_096, 512, 8_192);
        assert!(
            o.healthy,
            "soak unhealthy: hit {:.3}, breaches {:?}",
            o.cache_hit_rate, o.report.breaches
        );
        assert_eq!(o.unexplained_drops, 0);
        assert_eq!(
            o.control_handled,
            (BOUNDARIES * (CHURN_REMAPS + CHURN_DELETES)) as u64
        );
        // Offered = paced budget + 3×24 interlude bursts + churn.
        assert_eq!(o.packets, 30_000 + 72 + o.control_handled);
        assert!(o.cache_hit_rate > LIFETIME_CACHE_FLOOR);
        assert!(o.table.occupied > 0, "table telemetry populated");
        assert!(o.table_load_factor > 0.3, "load {}", o.table_load_factor);
        assert!(o.report.windows_evaluated > 0);
        assert!(o.mpps_soak > 0.0);
        assert!(o.p999_latency_ns < 100_000.0);
    }

    #[test]
    fn lifetime_cache_floor_gate_fires() {
        // 3 k packets over 32 k subscribers: almost every lookup is a
        // first touch, so the lifetime floor must fail the run even
        // though every window passes the per-window spec.
        let o = run_scaled(3_000, 1, 32_768, 512, 65_536);
        assert!(o.cache_hit_rate < LIFETIME_CACHE_FLOOR);
        assert!(!o.healthy);
        assert!(
            o.report.healthy,
            "per-window spec should pass; the lifetime floor is the gate"
        );
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = run_scaled(5_000, 1, 2_048, 256, 4_096);
        let text = o.to_json().to_string_pretty();
        let back = Outcome::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn render_names_the_verdict() {
        let o = run_scaled(5_000, 1, 2_048, 256, 4_096);
        let s = render(&o);
        assert!(s.contains("soak"));
        assert!(s.contains("Mpps"));
        assert!(s.contains(if o.healthy { "yes" } else { "NO" }));
    }
}
