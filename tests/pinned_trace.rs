//! One seeded trace through every per-packet branch of `core::module`,
//! with everything the module books about it pinned as literals: the
//! output digest, every `SimReport` counter, the drained event ring,
//! the flight records and the window totals. A refactor of the module's
//! accounting passes this file unmodified or it changed behaviour.
//!
//! Two things are deliberately absent, because each is a known defect
//! with its own test: no microservice request arrives from the optical
//! side after the laser has died, and no in-band frame commits or
//! aborts an OTA update.

use flexsfp::apps::{AclAction, AclFirewall, AclRule, StaticNat};
use flexsfp::core::control::{ControlPlane, ControlRequest, CONTROL_PORT};
use flexsfp::core::module::{FlexSfp, ModuleConfig, OutputDigest, SimPacket, SimReport};
use flexsfp::core::ShellKind;
use flexsfp::fabric::clock::ClockDomain;
use flexsfp::obs::json::Writer;
use flexsfp::obs::{FlightRecord, FromJson, TelemetrySnapshot, ToJson, Value};
use flexsfp::ppe::{Direction, PacketProcessor, TableOp};
use flexsfp::traffic::rng::Xoshiro256;
use flexsfp::wire::builder::PacketBuilder;
use flexsfp::wire::{
    arp, fnv1a, ArpOperation, ArpPacket, EtherType, IcmpPacket, IcmpType, IpProtocol, MacAddr,
    FNV1A_OFFSET,
};
use flexsfp_core::auth::AuthKey;

const HOST_MAC: MacAddr = MacAddr([0xee; 6]);
const HOST_IP: u32 = 0x0a00_0101;

fn udp(src_ip: u32, dst_ip: u32, sport: u16, dport: u16, payload_len: usize) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(
        MacAddr([0x20; 6]),
        MacAddr([0x10; 6]),
        src_ip,
        dst_ip,
        sport,
        dport,
        &vec![0xab; payload_len],
    )
}

fn arp_request(config: &ModuleConfig) -> Vec<u8> {
    let mut body = vec![0u8; arp::PACKET_LEN];
    let mut a = ArpPacket::new_unchecked(&mut body);
    a.init_ethernet_ipv4();
    a.set_operation(ArpOperation::Request);
    a.set_sender_mac(HOST_MAC);
    a.set_sender_ip(HOST_IP);
    a.set_target_mac(MacAddr::ZERO);
    a.set_target_ip(config.mgmt_ip);
    PacketBuilder::ethernet(MacAddr::BROADCAST, HOST_MAC, EtherType::Arp, &body)
}

fn echo_request(config: &ModuleConfig, seq: u16) -> Vec<u8> {
    let mut icmp = vec![0u8; 8 + 16];
    {
        let mut p = IcmpPacket::new_unchecked(&mut icmp);
        p.set_msg_type(IcmpType::EchoRequest);
        p.set_echo_ident(7);
        p.set_echo_seq(seq);
    }
    IcmpPacket::new_unchecked(&mut icmp).fill_checksum();
    let ip = PacketBuilder::ipv4(HOST_IP, config.mgmt_ip, IpProtocol::Icmp, &icmp);
    PacketBuilder::ethernet(config.mgmt_mac, HOST_MAC, EtherType::Ipv4, &ip)
}

fn control_frame(config: &ModuleConfig, key: &AuthKey, req: &ControlRequest) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        HOST_MAC,
        HOST_IP,
        config.mgmt_ip,
        40_000,
        CONTROL_PORT,
        &ControlPlane::encode_request(key, req),
    )
}

/// An FNV-1a hash that prints the way it is written below.
#[derive(PartialEq)]
struct Hex(u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hex({:#018x})", self.0)
    }
}

fn hash_json<T: ToJson>(v: &T) -> Hex {
    Hex(fnv1a(FNV1A_OFFSET, v.to_json().to_string().as_bytes()))
}

/// The hash of the compact text `v` streams through a [`Writer`].
fn hash_streamed<T: ToJson>(v: &T) -> Hex {
    let mut w = Writer::compact();
    v.write_json(&mut w);
    Hex(fnv1a(FNV1A_OFFSET, w.into_string().as_bytes()))
}

/// The hash of the `Debug` text of what `v`'s JSON decodes back to: a
/// change to the wire form alone moves [`hash_json`], not this.
fn hash_decoded<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: &T) -> Hex {
    let parsed = Value::parse(&v.to_json().to_string()).expect("the JSON parses");
    let decoded = T::from_json(&parsed).expect("the JSON decodes");
    assert_eq!(&decoded, v, "the JSON decodes to what wrote it");
    Hex(fnv1a(FNV1A_OFFSET, format!("{decoded:?}").as_bytes()))
}

/// Every `SimReport` counter, flattened so one `assert_eq!` shows the
/// whole report on a mismatch.
#[derive(Debug, PartialEq)]
struct Counters {
    offered: u64,
    offered_bytes: u64,
    forwarded: (u64, u64),
    forwarded_bytes: u64,
    /// fifo_overflow, app, link, unsorted.
    drops: [u64; 4],
    to_control: u64,
    control_handled: u64,
    cp_originated: u64,
    latency_count: u64,
    /// min, p50, p99, max.
    latency_ns: [u64; 4],
    duration_ns: u64,
}

fn counters(r: &SimReport) -> Counters {
    let fates = r.forwarded.0
        + r.forwarded.1
        + r.drops.total()
        + r.to_control
        + r.cp_originated
        + r.control_handled;
    // A rejected control frame is the one fate with no report counter
    // (it is an `AuthReject` event); the traces below carry at most
    // one per run.
    assert!(r.offered - fates <= 1, "fates do not close: {r:?}");
    Counters {
        offered: r.offered,
        offered_bytes: r.offered_bytes,
        forwarded: r.forwarded,
        forwarded_bytes: r.forwarded_bytes,
        drops: [
            r.drops.fifo_overflow,
            r.drops.app,
            r.drops.link,
            r.drops.unsorted,
        ],
        to_control: r.to_control,
        control_handled: r.control_handled,
        cp_originated: r.cp_originated,
        latency_count: r.latency.count(),
        latency_ns: [
            r.latency.min_ns() as u64,
            r.latency.p50_ns() as u64,
            r.latency.p99_ns() as u64,
            r.latency.max_ns() as u64,
        ],
        duration_ns: r.duration_ns,
    }
}

/// What the module's own telemetry says after a run: the drained event
/// ring (count, first and last `(timestamp, label)`, and a hash over
/// the full kind + timestamp list), the drained flight records (count,
/// verdict-label tally, hash over every field), the window totals, a
/// hash over every bucket's JSON as `to_json()` renders it, one as
/// `write_json` streams it and one over what that JSON decodes to, and
/// the four lane frame counters.
#[derive(Debug, PartialEq)]
struct Telemetry {
    events: usize,
    first_event: (u64, &'static str),
    last_event: (u64, &'static str),
    events_hash: Hex,
    flights: usize,
    /// forwarded, fifo_overflow, app, link_down, to_control.
    flight_verdicts: [usize; 5],
    flights_hash: Hex,
    /// forwarded, drops_app, drops_unexplained, cache_hits,
    /// cache_misses, cache_evictions.
    window_totals: [u64; 6],
    live_windows: usize,
    windows_hash: Hex,
    windows_streamed: Hex,
    windows_decoded: Hex,
    /// edge rx, edge tx, optical rx, optical tx.
    lane_frames: [u64; 4],
    /// The same four lanes' error counters.
    lane_errors: [u64; 4],
    lifetime_drops: u64,
}

fn telemetry(snap: &TelemetrySnapshot, flights: &[FlightRecord]) -> Telemetry {
    let stamp = |e: &flexsfp::obs::DataplaneEvent| (e.timestamp_ns, e.kind.label());
    let verdicts = [
        "forwarded",
        "fifo_overflow",
        "app",
        "link_down",
        "to_control",
    ]
    .map(|l| flights.iter().filter(|r| r.verdict.label() == l).count());
    assert_eq!(verdicts.iter().sum::<usize>(), flights.len());
    let life = snap.windows.lifetime();
    Telemetry {
        events: snap.events.len(),
        first_event: snap.events.first().map_or((0, ""), stamp),
        last_event: snap.events.last().map_or((0, ""), stamp),
        events_hash: hash_json(&snap.events),
        flights: flights.len(),
        flight_verdicts: verdicts,
        flights_hash: hash_json(&flights.to_vec()),
        window_totals: [
            life.forwarded,
            life.drops_app,
            life.drops_unexplained,
            life.cache_hits,
            life.cache_misses,
            life.cache_evictions,
        ],
        live_windows: snap.windows.windows().len(),
        windows_hash: hash_json(&snap.windows),
        windows_streamed: hash_streamed(&snap.windows),
        windows_decoded: hash_decoded(&snap.windows),
        lane_frames: [
            snap.edge_rx.frames,
            snap.edge_tx.frames,
            snap.optical_rx.frames,
            snap.optical_tx.frames,
        ],
        lane_errors: [
            snap.edge_rx.errors,
            snap.edge_tx.errors,
            snap.optical_rx.errors,
            snap.optical_tx.errors,
        ],
        lifetime_drops: snap.drops.total(),
    }
}

/// Run one trace segment, folding its outputs (in sink order) into the
/// module-wide digest, and read back everything the module recorded.
fn run(m: &mut FlexSfp, digest: &mut OutputDigest, trace: Vec<SimPacket>) -> (Counters, Telemetry) {
    let report = m.run_stream_with(trace, |o| digest.fold(&o));
    let snap = m.telemetry_snapshot();
    let flights = m.drain_flight_records();
    (counters(&report), telemetry(&snap, &flights))
}

/// Background traffic: both directions, 24 private sources (the NAT
/// maps 16 of them), three destination ports (the firewall denies one
/// and punts another), mixed sizes, 120–700 ns apart.
struct Background {
    rng: Xoshiro256,
    now_ns: u64,
}

impl Background {
    fn next(&mut self) -> SimPacket {
        self.now_ns += self.rng.range_u64(120, 700);
        let direction = if self.rng.chance(0.4) {
            Direction::OpticalToEdge
        } else {
            Direction::EdgeToOptical
        };
        let src = 0xc0a8_0000 + self.rng.range_u64(0, 24) as u32;
        let dport = [53, 23, 179][self.rng.range_usize(0, 3)];
        let sport = 1_000 + self.rng.range_u64(0, 4) as u16;
        let len = self.rng.range_usize(18, 600);
        SimPacket {
            arrival_ns: self.now_ns,
            direction,
            frame: udp(src, 0x0808_0808, sport, dport, len),
        }
    }

    fn at(&self, direction: Direction, frame: Vec<u8>) -> SimPacket {
        SimPacket {
            arrival_ns: self.now_ns,
            direction,
            frame,
        }
    }
}

#[test]
fn every_branch_trace_is_pinned() {
    use Direction::{EdgeToOptical as E2O, OpticalToEdge as O2E};

    // ---- Module A: Active-Control-Plane NAT at 1x PPE clock behind a
    // 4 KiB FIFO, flow cache on, flight recorder 1-in-7.
    let config = ModuleConfig {
        shell: ShellKind::ActiveControlPlane,
        ppe_clock: ClockDomain::XGMII_10G,
        fifo_bytes: 4096,
        ..Default::default()
    };
    let mut nat = StaticNat::new();
    for i in 0..16u32 {
        nat.add_mapping(0xc0a8_0000 + i, 0x6540_0000 + i).unwrap();
    }
    nat.set_flow_cache(true);
    let mut a = FlexSfp::new(config.clone(), Box::new(nat));
    a.configure_windows(20_000, 64);
    a.enable_flight_recorder(7, 0xf11e, 4096);
    let mut bg = Background {
        rng: Xoshiro256::seed_from_u64(0x5f9_2025),
        now_ns: 0,
    };
    let remap = ControlRequest::Table(TableOp::Insert {
        table: 0,
        key: 0xc0a8_0003u32.to_be_bytes().to_vec(),
        value: 0x0b0b_0b0bu32.to_be_bytes().to_vec(),
    });
    let mut trace = Vec::new();
    for i in 0..1_400 {
        let mut pkt = bg.next();
        match i {
            // A straggler: 5 µs behind its predecessor.
            100 => pkt.arrival_ns -= 5_000,
            150 => pkt = bg.at(E2O, arp_request(&config)),
            160 => pkt = bg.at(O2E, arp_request(&config)),
            170 => pkt = bg.at(E2O, echo_request(&config, 1)),
            180 => pkt = bg.at(O2E, echo_request(&config, 2)),
            // An authenticated table write: 192.168.0.3 translates to
            // 11.11.11.11 from here on.
            400 => pkt = bg.at(E2O, control_frame(&config, &config.auth_key, &remap)),
            450 => {
                let bad = AuthKey([0xbd; 16]);
                pkt = bg.at(E2O, control_frame(&config, &bad, &remap));
            }
            // Both directions at line rate into a 1x PPE: the FIFO
            // overflows within a few dozen frames.
            700..=799 => {
                bg.now_ns = trace.last().map_or(0, |p: &SimPacket| p.arrival_ns) + 176;
                pkt = bg.at(E2O, udp(0xc0a8_0001, 0x0808_0808, 1_000, 53, 158));
                trace.push(bg.at(O2E, udp(0x0808_0808, 0xc0a8_0001, 53, 1_000, 158)));
            }
            _ => {}
        }
        trace.push(pkt);
    }
    let mut digest_a = OutputDigest::default();
    let (a1, a1_tel) = run(&mut a, &mut digest_a, trace);

    // The laser dies; edge→optical output now drops at the egress gate
    // while optical→edge output and edge-side replies still leave.
    a.set_laser_ttf_hours(10_000.0);
    a.age_laser(20_000.0);
    let mut trace = Vec::new();
    for i in 0..300 {
        let mut pkt = bg.next();
        if i == 50 {
            pkt = bg.at(E2O, echo_request(&config, 3));
        }
        trace.push(pkt);
    }
    let (a2, a2_tel) = run(&mut a, &mut digest_a, trace);

    // ---- Module B: One-Way-Filter with the firewall on optical→edge,
    // so edge→optical is the bypass path.
    let config = ModuleConfig {
        shell: ShellKind::OneWayFilter { ppe_direction: O2E },
        ..Default::default()
    };
    let mut fw = AclFirewall::new(16);
    for (priority, dst_port, action) in [(1, 23, AclAction::Deny), (2, 179, AclAction::Punt)] {
        assert!(fw.add_rule(AclRule {
            dst_port: Some(dst_port),
            ..AclRule::any(priority, action)
        }));
    }
    let mut b = FlexSfp::new(config, Box::new(fw));
    b.configure_windows(20_000, 64);
    b.enable_flight_recorder(7, 0xf11e, 4096);
    let mut digest_b = OutputDigest::default();
    let (b1, b1_tel) = run(&mut b, &mut digest_b, (0..500).map(|_| bg.next()).collect());
    // Dead laser: the bypass direction drops at egress.
    b.set_laser_ttf_hours(10_000.0);
    b.age_laser(20_000.0);
    let (b2, b2_tel) = run(&mut b, &mut digest_b, (0..100).map(|_| bg.next()).collect());
    // Optical lane disabled: optical→edge frames now die at ingress.
    b.optical.disable();
    let (b3, b3_tel) = run(&mut b, &mut digest_b, (0..100).map(|_| bg.next()).collect());

    assert_eq!(
        (Hex(digest_a.value()), Hex(digest_b.value())),
        (Hex(0x751a4f8b0da2f507), Hex(0xe42f7d0d5c91f61d)),
        "output digests (module A, module B)"
    );
    let want = [
        (
            Counters {
                offered: 1500,
                offered_bytes: 482600,
                forwarded: (594, 825),
                forwarded_bytes: 466355,
                drops: [74, 0, 0, 1],
                to_control: 0,
                control_handled: 1,
                cp_originated: 4,
                latency_count: 1419,
                latency_ns: [315, 620, 3440, 3470],
                duration_ns: 553652,
            },
            Telemetry {
                events: 76,
                first_event: (37999, "drop"),
                last_event: (308516, "drop"),
                events_hash: Hex(0x0206b2a5838a46c5),
                flights: 217,
                flight_verdicts: [202, 15, 0, 0, 0],
                flights_hash: Hex(0x034fe726ebf29349),
                window_totals: [1419, 0, 75, 549, 276, 0],
                live_windows: 28,
                windows_hash: Hex(0xd990144c506502a2),
                windows_streamed: Hex(0xd990144c506502a2),
                windows_decoded: Hex(0x9660a4c484703929),
                lane_frames: [903, 597, 596, 827],
                lane_errors: [0, 0, 0, 0],
                lifetime_drops: 75,
            },
        ),
        (
            Counters {
                offered: 300,
                offered_bytes: 105004,
                forwarded: (111, 0),
                forwarded_bytes: 39424,
                drops: [0, 0, 188, 0],
                to_control: 0,
                control_handled: 0,
                cp_originated: 1,
                latency_count: 111,
                latency_ns: [328, 628, 1240, 1471],
                duration_ns: 676119,
            },
            Telemetry {
                events: 188,
                first_event: (553596, "drop"),
                last_event: (676119, "drop"),
                events_hash: Hex(0xe3b5888c200ae78b),
                flights: 50,
                flight_verdicts: [17, 0, 0, 33, 0],
                flights_hash: Hex(0x2c9776f0fe67140b),
                window_totals: [1530, 0, 263, 726, 287, 0],
                live_windows: 34,
                windows_hash: Hex(0xa3a030947621e0df),
                windows_streamed: Hex(0xa3a030947621e0df),
                windows_decoded: Hex(0x861cef16c0ee5df7),
                lane_frames: [1092, 709, 707, 827],
                lane_errors: [0, 0, 0, 0],
                lifetime_drops: 263,
            },
        ),
        (
            Counters {
                offered: 500,
                offered_bytes: 178969,
                forwarded: (71, 298),
                forwarded_bytes: 132230,
                drops: [0, 62, 0, 0],
                to_control: 69,
                control_handled: 0,
                cp_originated: 0,
                latency_count: 369,
                latency_ns: [200, 201, 740, 894],
                duration_ns: 883596,
            },
            Telemetry {
                events: 62,
                first_event: (678793, "drop"),
                last_event: (876859, "drop"),
                events_hash: Hex(0x46ae2456f8c02d15),
                flights: 68,
                flight_verdicts: [50, 0, 10, 0, 8],
                flights_hash: Hex(0xace6c29dfc33c2bc),
                window_totals: [369, 62, 0, 0, 0, 0],
                live_windows: 12,
                windows_hash: Hex(0x5d4f55f97fba5fc1),
                windows_streamed: Hex(0x5d4f55f97fba5fc1),
                windows_decoded: Hex(0x1e81add98a5f3d2a),
                lane_frames: [298, 71, 202, 298],
                lane_errors: [0, 0, 0, 0],
                lifetime_drops: 62,
            },
        ),
        (
            Counters {
                offered: 100,
                offered_bytes: 36311,
                forwarded: (15, 0),
                forwarded_bytes: 6301,
                drops: [0, 11, 60, 0],
                to_control: 14,
                control_handled: 0,
                cp_originated: 0,
                latency_count: 15,
                latency_ns: [360, 636, 692, 693],
                duration_ns: 924410,
            },
            Telemetry {
                events: 71,
                first_event: (884578, "drop"),
                last_event: (923937, "drop"),
                events_hash: Hex(0xdc01077238b42936),
                flights: 13,
                flight_verdicts: [0, 0, 1, 10, 2],
                flights_hash: Hex(0x2f4956ccbf634317),
                window_totals: [384, 73, 60, 0, 0, 0],
                live_windows: 14,
                windows_hash: Hex(0xe43e0900410fb581),
                windows_streamed: Hex(0xe43e0900410fb581),
                windows_decoded: Hex(0x0aa960957ec1ad19),
                lane_frames: [358, 86, 242, 298],
                lane_errors: [0, 0, 0, 0],
                lifetime_drops: 133,
            },
        ),
        (
            Counters {
                offered: 100,
                offered_bytes: 34171,
                forwarded: (0, 0),
                forwarded_bytes: 0,
                drops: [0, 0, 100, 0],
                to_control: 0,
                control_handled: 0,
                cp_originated: 0,
                latency_count: 0,
                latency_ns: [0, 0, 0, 0],
                duration_ns: 967729,
            },
            Telemetry {
                events: 100,
                first_event: (924621, "drop"),
                last_event: (967729, "drop"),
                events_hash: Hex(0x1f6644473e979064),
                flights: 9,
                flight_verdicts: [0, 0, 0, 9, 0],
                flights_hash: Hex(0xc55cc8c2328b9382),
                window_totals: [384, 73, 160, 0, 0, 0],
                live_windows: 16,
                windows_hash: Hex(0xf4763579b9e84186),
                windows_streamed: Hex(0xf4763579b9e84186),
                windows_decoded: Hex(0x9c9e07a66ef1bbb6),
                lane_frames: [414, 86, 242, 298],
                lane_errors: [0, 0, 44, 0],
                lifetime_drops: 233,
            },
        ),
    ];
    let runs = [
        "A: healthy",
        "A: dead laser",
        "B: healthy",
        "B: dead laser",
        "B: optical lane disabled",
    ];
    let got = [
        (a1, a1_tel),
        (a2, a2_tel),
        (b1, b1_tel),
        (b2, b2_tel),
        (b3, b3_tel),
    ];
    for ((run, got), want) in runs.into_iter().zip(got).zip(want) {
        assert_eq!(got, want, "{run}");
    }
}
