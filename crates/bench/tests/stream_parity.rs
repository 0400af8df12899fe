//! The streaming dataplane path must be indistinguishable from the
//! materialized one: `FlexSfp::run` is a thin wrapper over
//! `run_stream_with`, and `TraceBuilder::stream` draws the same RNG
//! stream as `TraceBuilder::build`. This test pins the end-to-end
//! consequence on the §5.1 golden NAT workload: identical `SimReport`
//! aggregates AND identical output packets, byte for byte.
//!
//! The second half pins the sharded multicore path to the same
//! standard: for every §3 application, `shard::run_sharded` at 1, 2, 4
//! and 8 shards must produce the byte-identical output stream — in the
//! serial sink order — and the same report aggregates as serial
//! `run_stream_with`. This is the tentpole invariant of the sharded
//! dataplane: parallelism is a transport detail, never a behavior.

use flexsfp_apps::firewall::{AclAction, AclFirewall, AclRule};
use flexsfp_apps::sanitizer::SanitizerPolicy;
use flexsfp_apps::tunnel::TunnelKind;
use flexsfp_apps::{
    DnsFilter, Ipv6SubscriberFilter, L4LoadBalancer, PerSourceRateLimiter, Sanitizer, StaticNat,
    SynFloodGuard, TelemetryProbe, TunnelGateway, VlanTagger,
};
use flexsfp_bench::shard::run_sharded;
use flexsfp_core::control::ControlRequest;
use flexsfp_core::module::{
    FlexSfp, ModuleConfig, OutputDigest, OutputPacket, SimPacket, SimReport,
};
use flexsfp_ppe::{Direction, PacketProcessor, TableOp};
use flexsfp_traffic::gen::ArrivalModel;
use flexsfp_traffic::{SizeModel, TraceBuilder};

#[path = "../src/ctl.rs"]
mod ctl;
use ctl::control_frame;

const PRIVATE_BASE: u32 = 0xc0a8_0000;
const PUBLIC_BASE: u32 = 0x6540_0000;
const FLOWS: usize = 64;
const PACKETS: usize = 20_000;

fn nat_module() -> FlexSfp {
    let mut nat = StaticNat::new();
    for i in 0..FLOWS as u32 {
        nat.add_mapping(PRIVATE_BASE + i, PUBLIC_BASE + i)
            .expect("mapping install");
    }
    FlexSfp::new(ModuleConfig::default(), Box::new(nat))
}

fn golden_trace_builder() -> TraceBuilder {
    TraceBuilder::new(0x51)
        .flows(FLOWS)
        .src_base(PRIVATE_BASE)
        .sizes(SizeModel::Fixed(60))
        .arrivals(ArrivalModel::Paced { utilization: 1.0 })
}

fn as_sim(arrival_ns: u64, frame: Vec<u8>) -> SimPacket {
    SimPacket {
        arrival_ns,
        direction: Direction::EdgeToOptical,
        frame,
    }
}

#[test]
fn run_stream_matches_run_on_the_golden_nat_trace() {
    // Materialized path: build the whole trace, then run it.
    let trace: Vec<SimPacket> = golden_trace_builder()
        .build(PACKETS)
        .into_iter()
        .map(|p| as_sim(p.arrival_ns, p.frame))
        .collect();
    let batch = nat_module().run(trace);

    // Streaming path: generate packets on the fly, collect outputs from
    // the sink and apply run()'s departure-order sort.
    let mut streamed_outputs: Vec<OutputPacket> = Vec::new();
    let streamed = nat_module().run_stream_with(
        golden_trace_builder()
            .stream(PACKETS)
            .map(|p| as_sim(p.arrival_ns, p.frame)),
        |o| streamed_outputs.push(o),
    );
    streamed_outputs.sort_by_key(|o| o.departure_ns);

    // Aggregates agree exactly.
    assert_eq!(streamed.offered, batch.offered);
    assert_eq!(streamed.offered_bytes, batch.offered_bytes);
    assert_eq!(streamed.forwarded, batch.forwarded);
    assert_eq!(streamed.forwarded_bytes, batch.forwarded_bytes);
    assert_eq!(streamed.drops, batch.drops);
    assert_eq!(streamed.to_control, batch.to_control);
    assert_eq!(streamed.control_handled, batch.control_handled);
    assert_eq!(streamed.cp_originated, batch.cp_originated);
    assert_eq!(streamed.duration_ns, batch.duration_ns);
    assert_eq!(
        streamed.latency.histogram().count(),
        batch.latency.histogram().count()
    );
    assert_eq!(streamed.latency.mean_ns(), batch.latency.mean_ns());
    assert_eq!(
        streamed.latency.histogram().p99(),
        batch.latency.histogram().p99()
    );
    assert_eq!(streamed.latency.max_ns(), batch.latency.max_ns());

    // Outputs agree packet for packet, byte for byte.
    assert_eq!(streamed_outputs.len(), batch.outputs.len());
    for (s, b) in streamed_outputs.iter().zip(&batch.outputs) {
        assert_eq!(s.departure_ns, b.departure_ns);
        assert_eq!(s.egress, b.egress);
        assert_eq!(s.latency_ns, b.latency_ns);
        assert_eq!(s.frame, b.frame);
    }

    // And the workload did what §5.1 says: every packet forwarded.
    assert_eq!(batch.forwarded.0 + batch.forwarded.1, PACKETS as u64);
}

#[test]
fn run_stream_drop_sink_matches_run_aggregates() {
    let trace: Vec<SimPacket> = golden_trace_builder()
        .build(5_000)
        .into_iter()
        .map(|p| as_sim(p.arrival_ns, p.frame))
        .collect();
    let batch = nat_module().run(trace);

    let streamed = nat_module().run_stream_with(
        golden_trace_builder()
            .stream(5_000)
            .map(|p| as_sim(p.arrival_ns, p.frame)),
        |_| {},
    );
    assert_eq!(streamed.forwarded, batch.forwarded);
    assert_eq!(streamed.forwarded_bytes, batch.forwarded_bytes);
    assert_eq!(streamed.latency.mean_ns(), batch.latency.mean_ns());
    assert!(streamed.outputs.is_empty(), "drop sink keeps no outputs");
}

// ---------------------------------------------------------------------
// Sharded path: digest-identical to serial for every §3 application.
// ---------------------------------------------------------------------

/// Packets per sharded-parity workload; crosses multiple reconciler
/// barrier intervals on both transports (`shard::BARRIER_EVERY` =
/// 4096 threaded, `shard::INLINE_BARRIER_EVERY` = 1024 inline).
const SHARD_PACKETS: usize = 10_000;

/// Make `run_sharded` see `threads` effective threads for the holder of
/// the returned guard. The override is process-wide, so the sharded
/// tests of this binary take turns.
fn force_threads(threads: usize) -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("FLEXSFP_THREADS", threads.to_string());
    turn
}

/// Four effective threads: the threaded transport even on a one-core
/// runner, with a worker per shard at 2 shards and three workers
/// sharing the lanes at 4 and 8.
fn force_threaded() -> std::sync::MutexGuard<'static, ()> {
    force_threads(4)
}

/// Build the §3 application under test by name, fresh state each call.
fn app_by_name(name: &str) -> Box<dyn PacketProcessor> {
    match name {
        "nat" => {
            let mut nat = StaticNat::new();
            for i in 0..FLOWS as u32 {
                nat.add_mapping(PRIVATE_BASE + i, PUBLIC_BASE + i)
                    .expect("mapping install");
            }
            Box::new(nat)
        }
        "firewall" => {
            let mut fw = AclFirewall::new(64);
            fw.add_rule(AclRule {
                src: Some((PRIVATE_BASE, 28)),
                dst: None,
                protocol: Some(17),
                src_port: None,
                dst_port: None,
                priority: 1,
                action: AclAction::Permit,
            });
            Box::new(fw)
        }
        "dnsfilter" => Box::new(DnsFilter::new()),
        "ipv6filter" => Box::new(Ipv6SubscriberFilter::new()),
        "lb" => Box::new(L4LoadBalancer::new(
            0x0a00_0005,
            80,
            vec![0x0a00_0101, 0x0a00_0102],
        )),
        "ratelimit" => Box::new(PerSourceRateLimiter::new()),
        "sanitizer" => Box::new(Sanitizer::new(SanitizerPolicy::default())),
        "synflood" => Box::new(SynFloodGuard::new(1024, 100, 1_000_000)),
        "telemetry" => Box::new(TelemetryProbe::new(256, 1_000_000, 50_000)),
        "tunnel" => Box::new(TunnelGateway::new(
            TunnelKind::Gre { key: 7 },
            0x0a00_0001,
            0x0a00_0002,
        )),
        "vlan" => Box::new(VlanTagger::new(100)),
        other => panic!("unknown app {other}"),
    }
}

const ALL_APPS: [&str; 11] = [
    "nat",
    "firewall",
    "dnsfilter",
    "ipv6filter",
    "lb",
    "ratelimit",
    "sanitizer",
    "synflood",
    "telemetry",
    "tunnel",
    "vlan",
];

/// The mixed UDP/TCP IMIX workload from the cache-parity suite: the
/// ports and address ranges exercise every app's interesting paths.
fn shard_workload() -> Vec<SimPacket> {
    TraceBuilder::new(0x51)
        .flows(FLOWS)
        .src_base(PRIVATE_BASE)
        .sizes(SizeModel::Imix)
        .arrivals(ArrivalModel::Paced { utilization: 0.8 })
        .tcp_share(0.5)
        .build(SHARD_PACKETS)
        .into_iter()
        .map(|p| SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame,
        })
        .collect()
}

/// Serial reference: `run_stream_with` sink-order digest + report. Order
/// matters: the digest pins the sink *order*, not just the set.
fn serial_reference(app: &str, packets: Vec<SimPacket>) -> (u64, SimReport) {
    let mut module = FlexSfp::new(ModuleConfig::default(), app_by_name(app));
    let mut digest = OutputDigest::default();
    let report = module.run_stream_with(packets, |out| digest.fold(&out));
    (digest.value(), report)
}

/// Every aggregate the merged sharded report promises to reproduce.
fn assert_reports_match(app: &str, shards: usize, sharded: &SimReport, serial: &SimReport) {
    let ctx = |field: &str| format!("app `{app}` at {shards} shards: {field} diverged");
    assert_eq!(sharded.offered, serial.offered, "{}", ctx("offered"));
    assert_eq!(
        sharded.offered_bytes,
        serial.offered_bytes,
        "{}",
        ctx("offered_bytes")
    );
    assert_eq!(sharded.forwarded, serial.forwarded, "{}", ctx("forwarded"));
    assert_eq!(
        sharded.forwarded_bytes,
        serial.forwarded_bytes,
        "{}",
        ctx("forwarded_bytes")
    );
    assert_eq!(sharded.drops, serial.drops, "{}", ctx("drops"));
    assert_eq!(
        sharded.to_control,
        serial.to_control,
        "{}",
        ctx("to_control")
    );
    assert_eq!(
        sharded.control_handled,
        serial.control_handled,
        "{}",
        ctx("control_handled")
    );
    assert_eq!(
        sharded.cp_originated,
        serial.cp_originated,
        "{}",
        ctx("cp_originated")
    );
    assert_eq!(
        sharded.duration_ns,
        serial.duration_ns,
        "{}",
        ctx("duration_ns")
    );
    assert_eq!(
        sharded.latency.histogram().count(),
        serial.latency.histogram().count(),
        "{}",
        ctx("latency.count")
    );
    // The latency sum is a fixed-point integer, so merging per-shard
    // partials is associative and the mean is bit-exact — no epsilon.
    assert_eq!(
        sharded.latency.mean_ns().to_bits(),
        serial.latency.mean_ns().to_bits(),
        "{}",
        ctx("latency.mean")
    );
    assert_eq!(
        sharded.latency.histogram().p99(),
        serial.latency.histogram().p99(),
        "{}",
        ctx("latency.p99")
    );
    assert_eq!(
        sharded.latency.max_ns(),
        serial.latency.max_ns(),
        "{}",
        ctx("latency.max")
    );
}

/// The tentpole invariant: for all 11 §3 apps and shards ∈ {1,2,4,8},
/// the sharded run emits the byte-identical output stream in the
/// serial sink order and merges to the same report aggregates.
///
/// `FLEXSFP_THREADS=4` forces the threaded transport (worker threads +
/// SPSC rings) even on single-core CI runners; the 1-shard point takes
/// the inline transport. Both must be indistinguishable from serial.
#[test]
fn sharded_run_is_digest_identical_to_serial_for_every_app() {
    let _threaded = force_threaded();
    for app in ALL_APPS {
        let (serial_digest, serial_report) = serial_reference(app, shard_workload());
        for shards in [1usize, 2, 4, 8] {
            let mut digest = OutputDigest::default();
            let run = run_sharded(
                shards,
                &ModuleConfig::default(),
                |_| FlexSfp::new(ModuleConfig::default(), app_by_name(app)),
                shard_workload(),
                |out| digest.fold(&out),
            );
            let digest = digest.value();
            assert_eq!(
                digest, serial_digest,
                "app `{app}` at {shards} shards: output stream diverged from serial \
                 ({digest:016x} vs {serial_digest:016x})"
            );
            assert_reports_match(app, shards, &run.report, &serial_report);
            assert_eq!(run.shards, shards);
            assert_eq!(
                run.routed.iter().sum::<u64>(),
                serial_report.offered,
                "every dataplane packet routed exactly once"
            );
        }
    }
}

/// The IMIX workload with four in-band NAT table writes (three
/// inserts, one delete) spread through it.
fn control_mutating_stream(config: &ModuleConfig) -> Vec<SimPacket> {
    let mut packets = shard_workload();
    let n = packets.len();
    for i in 0..4 {
        let at = n * (i + 1) / 5;
        let arrival_ns = packets[at].arrival_ns;
        let flow = (i as u32) % FLOWS as u32;
        let op = if i == 3 {
            TableOp::Delete {
                table: 0,
                key: (PRIVATE_BASE + flow).to_be_bytes().to_vec(),
            }
        } else {
            TableOp::Insert {
                table: 0,
                key: (PRIVATE_BASE + flow).to_be_bytes().to_vec(),
                value: (PUBLIC_BASE + 0x100 + flow).to_be_bytes().to_vec(),
            }
        };
        packets.insert(
            at,
            SimPacket {
                arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(config, &ControlRequest::Table(op)),
            },
        );
    }
    packets
}

/// [`control_mutating_stream`] through NAT at each of `shard_counts`
/// must match the serial run byte for byte and report for report.
fn assert_control_mutations_replicate(shard_counts: &[usize]) {
    let config = ModuleConfig::default();
    let mut serial_digest = OutputDigest::default();
    let serial = FlexSfp::new(config.clone(), app_by_name("nat"))
        .run_stream_with(control_mutating_stream(&config), |out| {
            serial_digest.fold(&out)
        });
    assert_eq!(serial.control_handled, 4, "all four table ops handled");

    for &shards in shard_counts {
        let mut digest = OutputDigest::default();
        let run = run_sharded(
            shards,
            &config,
            |_| FlexSfp::new(config.clone(), app_by_name("nat")),
            control_mutating_stream(&config),
            |out| digest.fold(&out),
        );
        assert_eq!(
            digest, serial_digest,
            "control-mutating stream diverged at {shards} shards"
        );
        assert_reports_match("nat+control", shards, &run.report, &serial);
    }
}

/// Control frames must replicate to every shard (lockstep table state)
/// while only the primary answers: a stream with mid-run NAT table
/// mutations still matches serial byte for byte, and the control
/// counters don't multiply by the shard count.
#[test]
fn sharded_run_replicates_control_mutations_to_every_shard() {
    let _threaded = force_threaded();
    assert_control_mutations_replicate(&[2, 4]);
}

/// The same stream with more shards than threads: at 2 effective
/// threads one worker steps every lane, at 3 two workers split them,
/// so barriers and control broadcasts reach a worker that is in the
/// middle of another shard's chunk — and nothing observable may move.
#[test]
fn lanes_sharing_a_worker_replicate_control_mutations() {
    for threads in [2, 3] {
        let _threaded = force_threads(threads);
        assert_control_mutations_replicate(&[4, 8]);
    }
}

/// The tentpole's two resource witnesses on the threaded transport:
/// a dataplane-only stream crosses dispatcher → ring → shard →
/// reconciler with **zero** frame copies (frames move end to end), and
/// every chunk buffer the rings will ever circulate is made at set-up:
/// per shard two rings of `RING_CHUNKS` slot buffers plus the one in
/// their producer's hands, and the lane's inbox; and the dispatcher's
/// one drain inbox — `1 + shards · (2 · RING_CHUNKS + 3)`, whatever the
/// trace length.
#[test]
fn threaded_transport_is_zero_copy_with_constant_chunk_allocs() {
    /// `shard::RING_CHUNKS`, which is private to the crate.
    const RING_CHUNKS: u64 = 32;
    let _threaded = force_threaded();
    let shards = 4usize;
    let config = ModuleConfig::default();
    let trace = |packets: usize| {
        TraceBuilder::new(0x51)
            .flows(FLOWS)
            .src_base(PRIVATE_BASE)
            .sizes(SizeModel::Imix)
            .arrivals(ArrivalModel::Paced { utilization: 0.8 })
            .tcp_share(0.5)
            .build(packets)
            .into_iter()
            .map(|p| as_sim(p.arrival_ns, p.frame))
    };
    let long_trace = || trace(50_000);

    let run = run_sharded(
        shards,
        &config,
        |_| FlexSfp::new(config.clone(), app_by_name("nat")),
        long_trace(),
        |_| {},
    );
    assert_eq!(run.frame_copies, 0, "dataplane frames must move, not copy");
    assert_eq!(
        run.chunk_allocs,
        1 + shards as u64 * (2 * RING_CHUNKS + 3),
        "the rings must circulate the buffers made at set-up"
    );
    assert_eq!(run.routed.iter().sum::<u64>(), 50_000);
    let short = run_sharded(
        shards,
        &config,
        |_| FlexSfp::new(config.clone(), app_by_name("nat")),
        trace(5_000),
        |_| {},
    );
    assert_eq!(
        short.chunk_allocs, run.chunk_allocs,
        "chunk buffers are O(shards), not O(packets): 5 000 and 50 000 packets"
    );

    // Control frames are the one accounted copy: each broadcast leases
    // shards−1 duplicates from the shared arena, nothing else copies.
    let mut with_control: Vec<SimPacket> = long_trace().collect();
    for i in 0..4u32 {
        let at = with_control.len() * (i as usize + 1) / 5;
        let arrival_ns = with_control[at].arrival_ns;
        let op = TableOp::Insert {
            table: 0,
            key: (PRIVATE_BASE + i).to_be_bytes().to_vec(),
            value: (PUBLIC_BASE + 0x200 + i).to_be_bytes().to_vec(),
        };
        with_control.insert(
            at,
            SimPacket {
                arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: control_frame(&config, &ControlRequest::Table(op)),
            },
        );
    }
    let run = run_sharded(
        shards,
        &config,
        |_| FlexSfp::new(config.clone(), app_by_name("nat")),
        with_control,
        |_| {},
    );
    assert_eq!(run.report.control_handled, 4);
    assert_eq!(
        run.frame_copies,
        4 * (shards as u64 - 1),
        "only control broadcasts may copy"
    );
}

/// The run's two wait counts: 0 on the inline transport, and on the
/// threaded one the sums over every ring and every worker. The waits
/// are the program's own scheduling, so the threaded runs provoke them
/// by making one side slow. At 3 effective threads two workers share
/// the lanes. Odd shards take 200 ms to build on their worker, and
/// 40 000 packets overfill their rings meanwhile, so the dispatcher
/// yields on them. The sink sleeps 100 ms at its first output, so every
/// worker runs dry at least once and the sum is at least one round per
/// worker. None of it may move an output.
#[test]
fn shard_wait_counts_are_zero_inline_and_summed_over_workers() {
    let workload = || {
        TraceBuilder::new(0x51)
            .flows(FLOWS)
            .src_base(PRIVATE_BASE)
            .sizes(SizeModel::Imix)
            .arrivals(ArrivalModel::Paced { utilization: 0.8 })
            .build(40_000)
            .into_iter()
            .map(|p| as_sim(p.arrival_ns, p.frame))
    };
    let (serial_digest, serial_report) = serial_reference("nat", workload().collect());
    let run = |shards: usize, slow: bool| {
        let mut digest = OutputDigest::default();
        let mut slept = !slow;
        let run = run_sharded(
            shards,
            &ModuleConfig::default(),
            |shard| {
                if slow && shard % 2 == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                FlexSfp::new(ModuleConfig::default(), app_by_name("nat"))
            },
            workload(),
            |out| {
                if !slept {
                    slept = true;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                digest.fold(&out)
            },
        );
        assert_eq!(digest.value(), serial_digest, "{shards} shards");
        assert_reports_match("nat", shards, &run.report, &serial_report);
        run
    };
    {
        let _inline = force_threads(1);
        for shards in [1, 2, 4] {
            let r = run(shards, false);
            assert_eq!(
                (r.backpressure, r.full_ring_yields, r.idle_rounds),
                (0, 0, 0),
                "the inline transport never waits ({shards} shards)"
            );
        }
    }
    let _threaded = force_threads(3);
    for shards in [2, 4] {
        let r = run(shards, true);
        assert!(r.backpressure >= 1, "{shards} shards: no full ring");
        assert!(
            r.full_ring_yields >= r.backpressure,
            "{shards} shards: every episode yields at least once"
        );
        assert!(
            r.idle_rounds >= 2,
            "{shards} shards: two workers, {} idle rounds",
            r.idle_rounds
        );
    }
}

/// The threaded lanes read every frame's first and last header byte
/// before handling a chunk, so frames shorter than any header must
/// cross them untouched: every seventh frame of the IMIX workload is
/// cut to 0, 1, 13 or 59 bytes (prefixes of a workload frame) or to an
/// Ethernet header announcing IPv4 followed by ten bytes of it. The
/// arrival times stay, so no queue forms that the workload lacks. Every
/// app, at 2 and 4 shards on forced threads, must match serial byte for
/// byte.
#[test]
fn threaded_lanes_carry_frames_shorter_than_a_header() {
    let workload = || {
        let mut packets = shard_workload();
        let whole = packets[0].frame.clone();
        let mut truncated_ipv4 = whole[..14].to_vec();
        truncated_ipv4[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        truncated_ipv4.extend_from_slice(&whole[14..24]);
        let shorts = [
            Vec::new(),
            whole[..1].to_vec(),
            whole[..13].to_vec(),
            whole[..59].to_vec(),
            truncated_ipv4,
        ];
        for (i, pkt) in packets.iter_mut().enumerate().skip(3).step_by(7) {
            pkt.frame = shorts[i / 7 % shorts.len()].clone();
        }
        packets
    };
    let _threaded = force_threaded();
    for app in ALL_APPS {
        let (serial_digest, serial_report) = serial_reference(app, workload());
        for shards in [2, 4] {
            let mut digest = OutputDigest::default();
            let run = run_sharded(
                shards,
                &ModuleConfig::default(),
                |_| FlexSfp::new(ModuleConfig::default(), app_by_name(app)),
                workload(),
                |out| digest.fold(&out),
            );
            assert_eq!(
                digest.value(),
                serial_digest,
                "app `{app}` at {shards} shards: short frames changed the stream"
            );
            assert_reports_match(app, shards, &run.report, &serial_report);
        }
    }
}
