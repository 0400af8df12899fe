//! What the module's telemetry books about a run, pinned as literals
//! over seven seeded scenarios that reach every order in which the
//! dispatch loop writes latency and window state: equal latencies at
//! line rate, latencies that vary by size, FIFO overflow under a
//! 3-window ring, link drops between forwards, a flush per sampled
//! packet, the One-Way-Filter bypass, and one-frame runs.
//!
//! Each scenario pins the output digest, the FNV-1a of
//! `telemetry_snapshot()`'s compact JSON (which carries the lifetime
//! histogram and every window's histogram, `sum` halves included) as
//! `to_json()` renders it and as `write_json` streams it, the FNV-1a of
//! the `Debug` text of the snapshot that JSON decodes back to, and the
//! run's latency population: count, sum in quanta, min, max, p50 and
//! p99. A change to how forwarded packets are recorded passes
//! this file unmodified or it changed what the module exports. A change
//! to the wire form alone moves `snapshot` and leaves `decoded` where it
//! was.

use flexsfp_apps::StaticNat;
use flexsfp_core::module::{FlexSfp, ModuleConfig, OutputDigest, OutputPacket, SimPacket};
use flexsfp_core::ShellKind;
use flexsfp_fabric::clock::ClockDomain;
use flexsfp_obs::json::Writer;
use flexsfp_obs::{FromJson, LatencyHistogram, TelemetrySnapshot, ToJson, Value};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::{Direction, PacketProcessor};
use flexsfp_traffic::profiles::metro_subscribers;
use flexsfp_traffic::{ArrivalModel, SizeModel, TraceBuilder, TracePacket};
use flexsfp_wire::{fnv1a, FNV1A_OFFSET};

/// Private sources the NAT maps, one per flow.
const PRIVATE_BASE: u32 = 0xc0a8_0000;
/// The CGNAT block `metro_subscribers` draws its sources from.
const SUBSCRIBER_BASE: u32 = 0x0a64_0000;
const PUBLIC_BASE: u32 = 0x6540_0000;

/// An FNV-1a hash that prints the way it is written below.
#[derive(PartialEq)]
struct Hex(u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hex({:#018x})", self.0)
    }
}

/// A latency population, every field the histogram answers exactly.
#[derive(Debug, PartialEq)]
struct Latency {
    count: u64,
    sum_quanta: u128,
    min: u64,
    max: u64,
    p50: u64,
    p99: u64,
}

fn latency(h: &LatencyHistogram) -> Latency {
    Latency {
        count: h.count(),
        sum_quanta: h.sum_quanta(),
        min: h.min(),
        max: h.max(),
        p50: h.p50(),
        p99: h.p99(),
    }
}

/// What one scenario pins.
#[derive(Debug, PartialEq)]
struct Pinned {
    outputs: Hex,
    snapshot: Hex,
    streamed: Hex,
    decoded: Hex,
    latency: Latency,
}

/// Read back the module's telemetry after a scenario whose outputs
/// folded into `outputs`. The latency population pinned is the run's,
/// or the module's lifetime one when the scenario has no run report.
fn pinned(m: &mut FlexSfp, outputs: OutputDigest, run: Option<&LatencyHistogram>) -> Pinned {
    let snap = m.telemetry_snapshot();
    let text = snap.to_json().to_string();
    let mut w = Writer::compact();
    snap.write_json(&mut w);
    let parsed = Value::parse(&text).expect("the export parses");
    let decoded = TelemetrySnapshot::from_json(&parsed).expect("the export decodes");
    assert_eq!(decoded, snap, "the export decodes to the snapshot");
    Pinned {
        outputs: Hex(outputs.value()),
        snapshot: Hex(fnv1a(FNV1A_OFFSET, text.as_bytes())),
        streamed: Hex(fnv1a(FNV1A_OFFSET, w.into_string().as_bytes())),
        decoded: Hex(fnv1a(FNV1A_OFFSET, format!("{decoded:?}").as_bytes())),
        latency: latency(run.unwrap_or(&snap.latency)),
    }
}

/// One whole run through `run_stream_with`.
fn run(m: &mut FlexSfp, packets: impl IntoIterator<Item = SimPacket>) -> Pinned {
    let mut digest = OutputDigest::default();
    let report = m.run_stream_with(packets, |o| digest.fold(&o));
    pinned(m, digest, Some(report.latency.histogram()))
}

/// A NAT mapping `flows` sources from `private_base`, flow cache on.
fn nat(private_base: u32, flows: u32) -> Box<StaticNat> {
    let mut nat = StaticNat::new();
    for i in 0..flows {
        nat.add_mapping(private_base + i, PUBLIC_BASE + i).unwrap();
    }
    nat.set_flow_cache(true);
    Box::new(nat)
}

fn toward(direction: Direction) -> impl Fn(TracePacket) -> SimPacket {
    move |p| SimPacket {
        arrival_ns: p.arrival_ns,
        direction,
        frame: p.frame,
    }
}

/// §5.1's stream: 60 B frames from 64 mapped flows at line rate.
fn min_frames(seed: u64) -> TraceBuilder {
    TraceBuilder::new(seed)
        .flows(64)
        .src_base(PRIVATE_BASE)
        .sizes(SizeModel::Fixed(60))
        .arrivals(ArrivalModel::Paced { utilization: 1.0 })
}

/// Two IMIX streams, one per direction, each at `utilization`, merged
/// by arrival (edge→optical first on a tie).
fn two_way(seed: u64, utilization: f64, packets: usize) -> Vec<SimPacket> {
    let imix = |seed| {
        TraceBuilder::new(seed)
            .flows(64)
            .src_base(PRIVATE_BASE)
            .sizes(SizeModel::Imix)
            .arrivals(ArrivalModel::Paced { utilization })
    };
    let mut out: Vec<SimPacket> = imix(seed)
        .stream(packets)
        .map(toward(Direction::EdgeToOptical))
        .chain(
            imix(seed ^ 0x0e2e)
                .stream(packets)
                .map(toward(Direction::OpticalToEdge)),
        )
        .collect();
    out.sort_by_key(|p| p.arrival_ns);
    out
}

/// Paced 60 B NAT: every forwarded packet has the same latency, and
/// 30 000 of them span two 1 ms window boundaries.
#[test]
fn paced_nat_equal_latencies() {
    let mut m = FlexSfp::new(ModuleConfig::default(), nat(PRIVATE_BASE, 64));
    let got = run(
        &mut m,
        min_frames(0x51)
            .stream(30_000)
            .map(toward(Direction::EdgeToOptical)),
    );
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0xcffc5663e00f77e5),
            snapshot: Hex(0xe9a5969f14337ec3),
            streamed: Hex(0xe9a5969f14337ec3),
            decoded: Hex(0xe37fae2b6d8c6f21),
            latency: Latency {
                count: 30000,
                sum_quanta: 9915334650000,
                min: 315,
                max: 315,
                p50: 315,
                p99: 315,
            },
        }
    );
}

/// `metro_subscribers` IMIX: latencies vary with frame size.
#[test]
fn metro_imix_latencies_vary_by_size() {
    let mut m = FlexSfp::new(ModuleConfig::default(), nat(SUBSCRIBER_BASE, 512));
    let got = run(
        &mut m,
        metro_subscribers(0x52, 512, 0.8)
            .stream(8_000)
            .map(toward(Direction::EdgeToOptical)),
    );
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0x7db90b80fb58c0e0),
            snapshot: Hex(0xb0c1fe22a027f611),
            streamed: Hex(0xb0c1fe22a027f611),
            decoded: Hex(0xee4a250e709d4337),
            latency: Latency {
                count: 8000,
                sum_quanta: 4605963193709,
                min: 315,
                max: 1480,
                p50: 315,
                p99: 1480,
            },
        }
    );
}

/// Both directions into a 1x Two-Way-Core behind a 4 KiB FIFO: the
/// queue makes latencies fractional and close, overflow drops land
/// between admitted packets of one batch, and the 7 777 ns windows
/// rotate through a 3-window ring.
#[test]
fn fifo_overflow_across_rotation() {
    let config = ModuleConfig {
        shell: ShellKind::TwoWayCore,
        ppe_clock: ClockDomain::XGMII_10G,
        fifo_bytes: 4096,
        ..Default::default()
    };
    let mut m = FlexSfp::new(config, nat(PRIVATE_BASE, 64));
    m.configure_windows(7_777, 3);
    let got = run(&mut m, two_way(0x53, 0.9, 3_000));
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0x1ad1dbd801e16e7f),
            snapshot: Hex(0xe8623023f2a1b1d6),
            streamed: Hex(0xe8623023f2a1b1d6),
            decoded: Hex(0x0b4dc2a8d762afe6),
            latency: Latency {
                count: 4995,
                sum_quanta: 13724825944076,
                min: 315,
                max: 3564,
                p50: 2672,
                p99: 3472,
            },
        }
    );
}

/// A pass-through Two-Way-Core whose laser is aged past its TTF after
/// the first packets are offered: from the first flush on, every
/// edge→optical packet is a link drop between optical→edge forwards,
/// into windows narrower than a packet's transit. The trace starts at
/// 1 µs and its edge→optical stream 100 ns later, so the first flush
/// books a forward departing in one window before a drop arriving in
/// the window before: the drop finds its window older than the ring,
/// and lands in the evicted bucket. (No flow cache, so no cache delta
/// opens a window ahead of them.)
#[test]
fn dead_laser_drops_between_forwards() {
    let mut m = FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(PassThrough));
    m.configure_windows(200, 4);
    m.set_laser_ttf_hours(10_000.0);
    let mut trace = two_way(0x54, 0.4, 2_000);
    for p in &mut trace {
        p.arrival_ns += match p.direction {
            Direction::OpticalToEdge => 1_000,
            Direction::EdgeToOptical => 1_100,
        };
    }
    trace.sort_by_key(|p| p.arrival_ns);
    let mut digest = OutputDigest::default();
    let mut sink = |_tag: u64, o: OutputPacket| digest.fold(&o);
    let mut session = m.begin_stream();
    for (seq, pkt) in trace.into_iter().enumerate() {
        if seq == 10 {
            m.age_laser(20_000.0);
        }
        session.offer(&mut m, seq as u64, pkt, &mut sink);
    }
    let report = session.finish(&mut m, &mut sink);
    assert!(report.drops.link > 0 && report.forwarded.0 > 0);
    let got = pinned(&mut m, digest, Some(report.latency.histogram()));
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0x7598b64bd6a4b469),
            snapshot: Hex(0x289da56ef7695cb9),
            streamed: Hex(0x289da56ef7695cb9),
            decoded: Hex(0x9dd7bf7866d3fc3c),
            latency: Latency {
                count: 2000,
                sum_quanta: 824639592679,
                min: 238,
                max: 1401,
                p50: 310,
                p99: 964,
            },
        }
    );
}

/// The flight recorder at 1-in-7: every sampled packet flushes the
/// batch it joins, so batches end at arbitrary points.
#[test]
fn flight_recorder_flushes_per_sample() {
    let mut m = FlexSfp::new(ModuleConfig::default(), nat(SUBSCRIBER_BASE, 256));
    m.configure_windows(20_000, 16);
    m.enable_flight_recorder(7, 0xf11e, 256);
    let got = run(
        &mut m,
        metro_subscribers(0x55, 256, 0.9)
            .stream(6_000)
            .map(toward(Direction::EdgeToOptical)),
    );
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0xec92fc520d03e843),
            snapshot: Hex(0x621516107974cc30),
            streamed: Hex(0x621516107974cc30),
            decoded: Hex(0x8b4bfaba650b8a13),
            latency: Latency {
                count: 6000,
                sum_quanta: 3490036737738,
                min: 315,
                max: 1480,
                p50: 315,
                p99: 1480,
            },
        }
    );
}

/// A One-Way-Filter that processes edge→optical only: every
/// optical→edge packet takes the bypass, which flushes the pending
/// batch and is booked through an accounting context of its own.
#[test]
fn one_way_filter_bypass() {
    let config = ModuleConfig {
        shell: ShellKind::OneWayFilter {
            ppe_direction: Direction::EdgeToOptical,
        },
        ..Default::default()
    };
    let mut m = FlexSfp::new(config, nat(PRIVATE_BASE, 64));
    m.configure_windows(5_000, 8);
    let got = run(&mut m, two_way(0x56, 0.45, 3_000));
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0x11a674b3bb8b993f),
            snapshot: Hex(0x32369802c9210503),
            streamed: Hex(0x32369802c9210503),
            decoded: Hex(0x973641a6ad2dc584),
            latency: Latency {
                count: 6000,
                sum_quanta: 2370446137826,
                min: 200,
                max: 1480,
                p50: 201,
                p99: 1480,
            },
        }
    );
}

/// Frames carried one at a time by `StreamSession::run_one`, as a
/// switch cage does: each is a whole run recording straight into the
/// module's lifetime histogram, whose population is pinned.
#[test]
fn run_one_frames() {
    let mut m = FlexSfp::new(ModuleConfig::two_way_2x(), nat(PRIVATE_BASE, 64));
    m.configure_windows(1_000, 6);
    let mut digest = OutputDigest::default();
    let mut sink = |_tag: u64, o: OutputPacket| digest.fold(&o);
    let mut session = m.begin_stream();
    for pkt in two_way(0x57, 0.3, 400) {
        session.run_one(&mut m, pkt, &mut sink);
    }
    let got = pinned(&mut m, digest, None);
    assert_eq!(
        got,
        Pinned {
            outputs: Hex(0x2786f5a8f887ab66),
            snapshot: Hex(0xc6371e7c68441388),
            streamed: Hex(0xc6371e7c68441388),
            decoded: Hex(0xbee9044428f1d541),
            latency: Latency {
                count: 800,
                sum_quanta: 321525278547,
                min: 258,
                max: 840,
                p50: 258,
                p99: 840,
            },
        }
    );
}
