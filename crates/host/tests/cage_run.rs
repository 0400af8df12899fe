//! A frame crossing a cage is one independent `FlexSfp::run` of that
//! frame.
//!
//! That sentence is the contract between the switch and the modules in
//! its cages, and everything a cage module reports — latency histogram,
//! window series, drops, events — follows from it. This suite holds the
//! switch to it from the outside: one module seated in port 0 of a
//! 2-port [`CrossbarSwitch`], and a twin built the same way that is only
//! ever driven through `FlexSfp::run(vec![one packet])`, fed by a model
//! of the bridge small enough to read (a learning table, one queue
//! toward the module's port, one wire clock). Both sides must deliver
//! the same frames in the same order on each port, book the same module
//! fates, and end with the same `telemetry_snapshot().to_json()` text.
//!
//! The sequence is built to reach what a cheaper cage pass could get
//! wrong: bursts that park frames, so a grant reaches the cage stamped
//! *before* an ingress it already saw (a persistent stream would drop it
//! as unsorted); same-instant frames through a shared PPE (a server
//! that is not fresh per frame would queue the second); ARP and ICMP
//! echo for the module itself; in-band `Ping` and table-write control
//! frames; runts; a disabled lane; a configuration rewritten through
//! `module_mut` (FIFO size, PPE clock, SerDes latency); and an in-band
//! OTA commit + activate in the middle, after which the application,
//! and with it the pipeline depth every latency sample depends on, is a
//! different one.
//! It runs for each of the 11 §3 applications from
//! [`flexsfp_apps::factory`], on alternating shells, and for an
//! Active-Control-Plane module.

use flexsfp_apps::factory::app_factory;
use flexsfp_apps::{AclAction, AclRule};
use flexsfp_core::auth::AuthKey;
use flexsfp_core::control::{ControlPlane, ControlRequest, CONTROL_PORT};
use flexsfp_core::module::{FlexSfp, Interface, ModuleConfig, SimPacket};
use flexsfp_core::reprogram::MAX_CHUNK;
use flexsfp_core::{Bitstream, ShellKind};
use flexsfp_fabric::clock::ClockDomain;
use flexsfp_fabric::hash::crc32;
use flexsfp_host::crossbar::serialize_ns;
use flexsfp_host::CrossbarSwitch;
use flexsfp_obs::{json, FlightRecord, FlightVerdict, ToJson, Value, WindowBucket};
use flexsfp_ppe::{Direction, TableOp};
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_traffic::{SizeModel, TraceBuilder};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::tcp::TcpFlags;
use flexsfp_wire::{
    arp, dns, ArpOperation, ArpPacket, EtherType, EthernetFrame, IcmpPacket, IcmpType, IpProtocol,
    MacAddr,
};
use std::collections::{BTreeMap, VecDeque};

/// The port whose cage holds the module; port 1 is a plain SFP.
const CAGE: usize = 0;
/// Deep enough that nothing in these sequences overflows a crosspoint,
/// so the bridge model needs no drop rule.
const DEPTH: usize = 64;
const MGMT_HOST: MacAddr = MacAddr([0xee; 6]);
const MGMT_HOST_IP: u32 = 0x0a00_0101;
const PRIVATE_BASE: u32 = 0xc0a8_0000;

/// The 11 §3 applications, as the factory names and configures them.
fn apps() -> Vec<(&'static str, Value)> {
    let deny_dns = AclRule {
        src: None,
        dst: None,
        protocol: Some(17),
        src_port: None,
        dst_port: Some(53),
        priority: 1,
        action: AclAction::Deny,
    };
    let punt_http = AclRule {
        protocol: Some(6),
        dst_port: Some(80),
        priority: 2,
        action: AclAction::Punt,
        ..deny_dns
    };
    vec![
        (
            "nat",
            json!({"table_size": 256, "mappings": [
                {"private": 0xc0a8_0001u32, "public": 0x6540_0001u32},
                {"private": 0xc0a8_0002u32, "public": 0x6540_0002u32},
                {"private": 0xc0a8_0003u32, "public": 0x6540_0003u32}
            ]}),
        ),
        (
            "firewall",
            json!({"rules": [deny_dns.to_json(), punt_http.to_json()]}),
        ),
        ("vlan-tagger", json!({"vid": 100})),
        (
            "tunnel-gw",
            json!({"kind": "gre", "local": 0x0a00_0001u32, "remote": 0x0a00_0002u32, "key": 7}),
        ),
        (
            "l4-lb",
            json!({"vip": 0x0a00_0005u32, "port": 80,
                   "backends": [0x0a00_0101u32, 0x0a00_0102u32]}),
        ),
        ("telemetry", json!({"flows": 128})),
        ("rate-limiter", json!({})),
        ("dns-filter", json!({"blocked": ["blocked.example"]})),
        ("sanitizer", json!({})),
        ("syn-flood-guard", json!({"threshold": 4})),
        ("ipv6-filter", json!({"block_all": true})),
    ]
}

fn meta(app: &str, version: u32, config: Value) -> Bitstream {
    Bitstream::new(app, version, 156_250_000).with_config(config)
}

/// Flight recorder: one dataplane packet in three sampled, into a ring
/// that holds every postcard of a script.
const SAMPLE_EVERY: u64 = 3;
const POSTCARDS: usize = 1_024;
/// Window series: 20 µs buckets, six live, so a script of about 600 µs
/// rotates its windows dozens of times.
const WINDOW_NS: u64 = 20_000;
const WINDOWS: usize = 6;

/// One module, built the same way twice, with its flight recorder armed
/// and its window series narrowed.
fn module(id: &str, shell: Option<ShellKind>, app: &str, config: &Value) -> FlexSfp {
    let mut cfg = match shell {
        None => ModuleConfig::default(),
        Some(shell) => ModuleConfig {
            shell,
            ..ModuleConfig::two_way_2x()
        },
    };
    cfg.id = id.into();
    let app =
        app_factory()(&meta(app, 1, config.clone()).meta, &|_| true).expect("a registered app");
    let mut m = FlexSfp::new(cfg, app);
    m.set_factory(app_factory());
    m.enable_flight_recorder(SAMPLE_EVERY, 0xf1_1647, POSTCARDS);
    m.configure_windows(WINDOW_NS, WINDOWS);
    m
}

fn side_a(i: u64) -> MacAddr {
    MacAddr([0x02, 0x0a, 0, 0, 0, i as u8])
}

fn side_b(i: u64) -> MacAddr {
    MacAddr([0x02, 0x0b, 0, 0, 0, i as u8])
}

fn control_frame_keyed(config: &ModuleConfig, key: &AuthKey, req: &ControlRequest) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        MGMT_HOST,
        MGMT_HOST_IP,
        config.mgmt_ip,
        40_000,
        CONTROL_PORT,
        &ControlPlane::encode_request(key, req),
    )
}

fn control_frame(config: &ModuleConfig, req: &ControlRequest) -> Vec<u8> {
    control_frame_keyed(config, &config.auth_key, req)
}

fn arp_request(config: &ModuleConfig, from: MacAddr) -> Vec<u8> {
    let mut body = vec![0u8; arp::PACKET_LEN];
    let mut a = ArpPacket::new_unchecked(&mut body);
    a.init_ethernet_ipv4();
    a.set_operation(ArpOperation::Request);
    a.set_sender_mac(from);
    a.set_sender_ip(MGMT_HOST_IP);
    a.set_target_mac(MacAddr::default());
    a.set_target_ip(config.mgmt_ip);
    PacketBuilder::ethernet(MacAddr([0xff; 6]), from, EtherType::Arp, &body)
}

fn echo_request(config: &ModuleConfig, from: MacAddr) -> Vec<u8> {
    let mut icmp = vec![0u8; 8 + 16];
    {
        let mut p = IcmpPacket::new_unchecked(&mut icmp);
        p.set_msg_type(IcmpType::EchoRequest);
        p.set_echo_ident(7);
        p.set_echo_seq(1);
    }
    IcmpPacket::new_unchecked(&mut icmp).fill_checksum();
    let ip = PacketBuilder::ipv4(MGMT_HOST_IP, config.mgmt_ip, IpProtocol::Icmp, &icmp);
    PacketBuilder::ethernet(config.mgmt_mac, from, EtherType::Ipv4, &ip)
}

/// A bare IPv6 header with no payload (next header 59).
fn ipv6_frame(dst: MacAddr, src: MacAddr) -> Vec<u8> {
    let mut ip = vec![0u8; 40];
    ip[0] = 0x60;
    ip[6] = 59;
    ip[7] = 64;
    ip[8..10].copy_from_slice(&[0x20, 0x01]);
    ip[23] = 1;
    ip[24..26].copy_from_slice(&[0x20, 0x01]);
    ip[39] = 2;
    PacketBuilder::ethernet(dst, src, EtherType::Ipv6, &ip)
}

/// One thing done to both sides.
enum Step {
    Inject {
        port: usize,
        frame: Vec<u8>,
        t_ns: u64,
    },
    OpticalLane(bool),
    EdgeLane(bool),
    /// The operator rewrites the configuration `module_mut` hands out:
    /// a FIFO only small frames fit, the other PPE clock, faster SerDes.
    Reconfigure,
}

/// The whole sequence for one module. Data frames come from a seeded
/// IMIX/TCP trace with the stations' MACs written in, plus DNS queries,
/// a SYN run, VLAN-tagged and IPv6 frames so every application has
/// something to act on; the special events sit at fixed positions.
fn script(config: &ModuleConfig, swap_to: &Bitstream, seed: u64) -> Vec<Step> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut trace = TraceBuilder::new(seed)
        .flows(6)
        .src_base(PRIVATE_BASE + 1)
        .dst_base(0x0a00_0005)
        .dport(80)
        .sizes(SizeModel::Imix)
        .tcp_share(0.5)
        .build(400)
        .into_iter();
    let image = swap_to.to_bytes();
    let mut ota: VecDeque<ControlRequest> = [ControlRequest::BeginUpdate {
        slot: 1,
        total_len: image.len(),
        crc32: crc32(&image),
    }]
    .into_iter()
    .chain(
        image
            .chunks(MAX_CHUNK)
            .enumerate()
            .map(|(seq, c)| ControlRequest::UpdateChunk {
                seq: seq as u32,
                data: c.to_vec(),
            }),
    )
    .chain([
        ControlRequest::CommitUpdate,
        ControlRequest::Activate { slot: 1 },
    ])
    .collect();

    let mut steps = Vec::new();
    let mut t_ns = 1_000u64;
    for i in 0..260usize {
        // Bursts at one instant (frames park toward the cage and are
        // granted later, stamped earlier than what the cage saw
        // meanwhile), near-instant pairs, and gaps that let the wire
        // drain.
        t_ns += [0, 0, 1, 60, 700, 2_500, 12_000][rng.range_usize(0, 7)];
        let from_a = rng.chance(0.5);
        let (port, src, dst) = if from_a {
            (
                CAGE,
                side_a(rng.range_u64(0, 3)),
                side_b(rng.range_u64(0, 3)),
            )
        } else {
            (1, side_b(rng.range_u64(0, 3)), side_a(rng.range_u64(0, 3)))
        };
        // Control and management-host frames enter on the plain port
        // (the edge side of the cage, where the arbiter listens); side
        // A's ARP, echo and runt enter through the cage.
        let mut data = || {
            let mut f = trace.next().expect("trace long enough").frame;
            f[0..6].copy_from_slice(&dst.0);
            f[6..12].copy_from_slice(&src.0);
            f
        };
        let (port, frame) = match i {
            30 => (CAGE, arp_request(config, side_a(9))),
            32 => (CAGE, echo_request(config, side_a(9))),
            60 => (1, control_frame(config, &ControlRequest::Ping { nonce: 7 })),
            62 => (
                1,
                control_frame(
                    config,
                    &ControlRequest::Table(TableOp::Insert {
                        table: 0,
                        key: (PRIVATE_BASE + 9).to_be_bytes().to_vec(),
                        value: 0x6540_0009u32.to_be_bytes().to_vec(),
                    }),
                ),
            ),
            64 => (1, arp_request(config, MGMT_HOST)),
            66 => (1, echo_request(config, MGMT_HOST)),
            // Wrong key: classified, refused, answered by nothing.
            68 => (
                1,
                control_frame_keyed(config, &AuthKey([9; 16]), &ControlRequest::GetInfo),
            ),
            80 => (CAGE, vec![0x55; 5]),
            81 => (1, vec![0x55; 13]),
            90 => {
                steps.push(Step::OpticalLane(false));
                continue;
            }
            100 => {
                steps.push(Step::OpticalLane(true));
                steps.push(Step::EdgeLane(false));
                continue;
            }
            108 => {
                steps.push(Step::EdgeLane(true));
                continue;
            }
            112 => {
                steps.push(Step::Reconfigure);
                continue;
            }
            // The OTA, one request every other step, traffic between.
            _ if i >= 120 && i % 2 == 0 && !ota.is_empty() => {
                (1, control_frame(config, &ota.pop_front().expect("checked")))
            }
            _ if i % 17 == 3 => (
                port,
                PacketBuilder::eth_ipv4_udp(
                    dst,
                    src,
                    PRIVATE_BASE + 2,
                    0x0808_0808,
                    5_353,
                    53,
                    &dns::build_query(i as u16, "www.blocked.example", 1),
                ),
            ),
            _ if i % 19 == 5 => (port, ipv6_frame(dst, src)),
            _ if i % 23 == 7 => (port, PacketBuilder::with_vlan(&data(), 42, 3)),
            // A run of SYNs from one source, past the guard's threshold.
            _ if (40..52).contains(&i) => (
                port,
                PacketBuilder::eth_ipv4_tcp(
                    dst,
                    src,
                    PRIVATE_BASE + 3,
                    0x0a00_0005,
                    2_000 + i as u16,
                    80,
                    1,
                    TcpFlags::syn_only(),
                    b"",
                ),
            ),
            _ => (port, data()),
        };
        steps.push(Step::Inject { port, frame, t_ns });
    }
    assert!(ota.is_empty(), "the sequence ended before the OTA did");
    steps
}

/// The module fates a cage pass books, as `host::cage` defines them.
#[derive(Debug, Default, PartialEq)]
struct Fates {
    dropped: u64,
    diverted: u64,
    to_control: u64,
    copies: u64,
    absorbed: u64,
}

/// The twin: a module only ever driven through `run(vec![one packet])`,
/// behind the smallest bridge that reproduces what a 2-port switch does
/// around its cage.
struct Twin {
    module: FlexSfp,
    table: BTreeMap<MacAddr, usize>,
    /// The one crosspoint toward the cage's port: (frame, enqueue time).
    parked: VecDeque<(Vec<u8>, u64)>,
    /// When the cage port's wire is free again.
    free_ns: u64,
    now_ns: u64,
    delivered: [Vec<Vec<u8>>; 2],
    fates: Fates,
    /// Latest arrival the module has been offered, and how often a pass
    /// arrived stamped before it.
    latest_pass_ns: u64,
    went_backwards: u64,
}

impl Twin {
    fn new(module: FlexSfp) -> Twin {
        Twin {
            module,
            table: BTreeMap::new(),
            parked: VecDeque::new(),
            free_ns: 0,
            now_ns: 0,
            delivered: [Vec::new(), Vec::new()],
            fates: Fates::default(),
            latest_pass_ns: 0,
            went_backwards: 0,
        }
    }

    /// One frame, one run.
    fn pass(&mut self, frame: Vec<u8>, direction: Direction, t_ns: u64) -> Vec<Vec<u8>> {
        self.went_backwards += u64::from(t_ns < self.latest_pass_ns);
        self.latest_pass_ns = self.latest_pass_ns.max(t_ns);
        let report = self.module.run(vec![SimPacket {
            arrival_ns: t_ns,
            direction,
            frame,
        }]);
        let expect = Interface::egress_for(direction);
        let mut matched = Vec::new();
        let mut diverted = 0;
        for o in report.outputs {
            if o.egress == expect {
                matched.push(o.frame);
            } else {
                diverted += 1;
            }
        }
        let (dropped, to_control) = (report.drops.total(), report.to_control);
        let outcomes = matched.len() as u64 + diverted + dropped + to_control;
        self.fates.dropped += dropped;
        self.fates.diverted += diverted;
        self.fates.to_control += to_control;
        self.fates.copies += outcomes.saturating_sub(1);
        self.fates.absorbed += 1u64.saturating_sub(outcomes);
        matched
    }

    fn inject(&mut self, port: usize, frame: Vec<u8>, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
        let entering = if port == CAGE {
            self.pass(frame, Direction::OpticalToEdge, t_ns)
        } else {
            vec![frame]
        };
        for frame in entering {
            let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
                continue;
            };
            if eth.src().is_unicast() {
                self.table.insert(eth.src(), port);
            }
            match self.table.get(&eth.dst()) {
                Some(&p) if p == port => {}
                _ if port == CAGE => self.delivered[1].push(frame),
                _ => self.parked.push_back((frame, t_ns)),
            }
        }
        self.service(Some(self.now_ns));
    }

    /// Grant parked frames while the cage port's wire is free (`None`:
    /// regardless of the clock, the end-of-run drain).
    fn service(&mut self, until: Option<u64>) {
        while until.is_none_or(|now| self.free_ns <= now) {
            let Some((frame, enqueue_ns)) = self.parked.pop_front() else {
                break;
            };
            let grant_ns = self.free_ns.max(enqueue_ns);
            self.free_ns = grant_ns + serialize_ns(frame.len());
            let leaving = self.pass(frame, Direction::EdgeToOptical, grant_ns);
            self.delivered[CAGE].extend(leaving);
        }
    }
}

/// Drive the switch and the twin through one script and compare.
fn assert_cage_is_one_run_per_frame(
    name: &str,
    shell: Option<ShellKind>,
    app: &str,
    config: &Value,
    swap_to: &Bitstream,
    seed: u64,
) -> (Fates, Vec<FlightRecord>) {
    let mut sw = CrossbarSwitch::new(2, DEPTH);
    sw.insert_flexsfp(CAGE, module(name, shell, app, config));
    let mut twin = Twin::new(module(name, shell, app, config));
    let mut delivered: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];

    let steps = script(&twin.module.config.clone(), swap_to, seed);
    for step in steps {
        match step {
            Step::Inject { port, frame, t_ns } => {
                for d in sw.inject(port, frame.clone(), t_ns) {
                    delivered[d.port].push(d.frame);
                }
                twin.inject(port, frame, t_ns);
            }
            Step::OpticalLane(on) => {
                let seated = sw.module_mut(CAGE).expect("seated");
                for m in [seated, &mut twin.module] {
                    if on {
                        m.optical.enable();
                    } else {
                        m.optical.disable();
                    }
                }
            }
            Step::EdgeLane(on) => {
                let seated = sw.module_mut(CAGE).expect("seated");
                for m in [seated, &mut twin.module] {
                    if on {
                        m.edge.enable();
                    } else {
                        m.edge.disable();
                    }
                }
            }
            Step::Reconfigure => {
                let seated = sw.module_mut(CAGE).expect("seated");
                for m in [seated, &mut twin.module] {
                    m.config.fifo_bytes = 600;
                    m.config.ppe_clock = if m.config.ppe_clock == ClockDomain::XGMII_10G {
                        ClockDomain::XGMII_10G_X2
                    } else {
                        ClockDomain::XGMII_10G
                    };
                }
            }
        }
    }
    for d in sw.drain() {
        delivered[d.port].push(d.frame);
    }
    twin.service(None);

    for (port, (got, want)) in delivered.iter().zip(&twin.delivered).enumerate() {
        assert_eq!(got.len(), want.len(), "{name}: deliveries on port {port}");
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            assert_eq!(got, want, "{name}: delivery {i} on port {port}");
        }
    }
    let s = sw.stats();
    assert!(s.conserved(), "{name}: {s:?}");
    assert_eq!(s.crosspoint_dropped, 0, "{name}: raise DEPTH");
    assert_eq!(
        Fates {
            dropped: s.sw.dropped_by_modules,
            diverted: s.sw.diverted_by_modules,
            to_control: s.sw.to_control,
            copies: s.sw.module_copies,
            absorbed: s.sw.absorbed_by_modules,
        },
        twin.fates,
        "{name}"
    );

    // The script did what it is there to do.
    let seated = sw.module_mut(CAGE).expect("seated");
    assert_eq!(
        (seated.boots(), seated.app_name()),
        (2, swap_to.meta.app.as_str()),
        "{name}: the OTA did not land"
    );
    assert!(
        twin.went_backwards > 0,
        "{name}: no pass was stamped before an earlier one"
    );
    assert!(twin.fates.dropped > 0, "{name}: nothing was dropped");
    assert!(twin.fates.diverted > 0, "{name}: no control reply");
    assert!(twin.fates.absorbed > 0, "{name}: no refused control frame");

    let windows = seated.windows();
    let packets = |w: &WindowBucket| w.forwarded + w.drops_app + w.drops_unexplained;
    let live: u64 = windows.windows().iter().map(packets).sum();
    assert!(
        packets(&windows.lifetime()) > live,
        "{name}: no window rotated out"
    );

    let got = seated.drain_flight_records();
    let want = twin.module.drain_flight_records();
    assert_eq!(got.len(), want.len(), "{name}: postcards");
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "{name}: postcard {i}");
    }
    assert!(got.len() < POSTCARDS, "{name}: raise POSTCARDS");
    let postcards = got;

    let got = seated.telemetry_snapshot().to_json().to_string_pretty();
    let want = twin
        .module
        .telemetry_snapshot()
        .to_json()
        .to_string_pretty();
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(0);
        panic!(
            "{name}: telemetry differs at line {}\n  cage: {:?}\n  run:  {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
    (twin.fates, postcards)
}

/// How many postcards ended in each fate: (forwarded, dropped, to control).
fn verdicts(postcards: &[FlightRecord]) -> (usize, usize, usize) {
    let count = |f: fn(&FlightVerdict) -> bool| postcards.iter().filter(|r| f(&r.verdict)).count();
    (
        count(|v| matches!(v, FlightVerdict::Forwarded { .. })),
        count(|v| matches!(v, FlightVerdict::Dropped { .. })),
        count(|v| matches!(v, FlightVerdict::ToControl)),
    )
}

#[test]
fn every_app_in_a_cage_behaves_as_one_run_per_frame() {
    for (i, (app, config)) in apps().into_iter().enumerate() {
        // Even positions keep the default One-Way-Filter (the ingress
        // pass bypasses the PPE); odd ones share a 2× PPE both ways.
        let shell = (i % 2 == 1).then_some(ShellKind::TwoWayCore);
        // The OTA lands on an application with another pipeline depth.
        let swap_to = match app {
            "dns-filter" | "syn-flood-guard" => meta("vlan-tagger", 2, json!({"vid": 7})),
            _ => meta("dns-filter", 2, json!({"blocked": ["blocked.example"]})),
        };
        let (fates, postcards) = assert_cage_is_one_run_per_frame(
            &format!("cage-{app}"),
            shell,
            app,
            &config,
            &swap_to,
            0xca6e_0000 + i as u64,
        );
        // The one application here with a punt rule reaches that fate,
        // and the sampler catches it there.
        assert_eq!(fates.to_control > 0, app == "firewall", "{app}: {fates:?}");
        let (forwarded, dropped, to_control) = verdicts(&postcards);
        assert!(
            forwarded > 0 && dropped > 0,
            "{app}: {:?}",
            verdicts(&postcards)
        );
        assert_eq!(
            to_control > 0,
            app == "firewall",
            "{app}: {to_control} punted postcards"
        );
        // On the One-Way-Filter the ingress pass takes the bypass,
        // whose postcards record no queue.
        if shell.is_none() {
            assert!(
                postcards
                    .iter()
                    .any(|r| r.queue_pkts == 0 && r.stages.is_empty()),
                "{app}: no bypass postcard"
            );
        }
    }
}

#[test]
fn an_active_control_plane_module_in_a_cage_behaves_as_one_run_per_frame() {
    let swap_to = meta("nat", 2, json!({"table_size": 64}));
    let (fates, postcards) = assert_cage_is_one_run_per_frame(
        "cage-acp",
        Some(ShellKind::ActiveControlPlane),
        "passthrough",
        &json!({}),
        &swap_to,
        0xca6e_00ac,
    );
    // Two ARP and two echo replies beside the six control replies.
    assert_eq!(fates.diverted, 10, "{fates:?}");
    let (forwarded, dropped, _) = verdicts(&postcards);
    assert!(forwarded > 0 && dropped > 0, "{:?}", verdicts(&postcards));
}
