//! Cross-crate integration tests: full modules under load, OTA
//! reprogramming between real applications, two-module fiber spans and
//! failure injection.

use flexsfp::apps::factory::app_factory;
use flexsfp::apps::{AclAction, AclFirewall, AclRule, StaticNat};
use flexsfp::core::bitstream::Bitstream;
use flexsfp::core::module::{FlexSfp, Interface, ModuleConfig, SimPacket};
use flexsfp::core::ShellKind;
use flexsfp::host::{FiberLink, ManagementClient};
use flexsfp::ppe::Direction;
use flexsfp::traffic::{SizeModel, TraceBuilder};
use flexsfp::wire::ipv4::Ipv4Packet;
use flexsfp_core::auth::AuthKey;

fn to_sim(trace: Vec<flexsfp::traffic::TracePacket>, dir: Direction) -> Vec<SimPacket> {
    trace
        .into_iter()
        .map(|p| SimPacket {
            arrival_ns: p.arrival_ns,
            direction: dir,
            frame: p.frame,
        })
        .collect()
}

#[test]
fn nat_module_sustains_imix_line_rate_with_verified_translations() {
    let mut nat = StaticNat::new();
    for i in 0..128u32 {
        nat.add_mapping(0xc0a8_0000 + i, 0x6540_0000 + i).unwrap();
    }
    let mut module = FlexSfp::new(ModuleConfig::default(), Box::new(nat));
    let trace = TraceBuilder::new(77)
        .flows(128)
        .sizes(SizeModel::Imix)
        .arrivals(flexsfp::traffic::gen::ArrivalModel::Paced { utilization: 1.0 })
        .build(10_000);
    let report = module.run(to_sim(trace, Direction::EdgeToOptical));
    assert_eq!(report.offered, 10_000);
    assert_eq!(report.drops.total(), 0, "{:?}", report.drops);
    assert_eq!(report.forwarded.1, 10_000);
    // Every output is translated into the public block with valid sums.
    for out in &report.outputs {
        let ip = Ipv4Packet::new_checked(&out.frame[14..]).unwrap();
        assert!((0x6540_0000..0x6540_0080).contains(&ip.src()));
        assert!(ip.verify_checksum());
    }
    // Sub-2µs worst case even at IMIX sizes.
    assert!(
        report.latency.max_ns() < 2_000.0,
        "{}",
        report.latency.max_ns()
    );
}

#[test]
fn ota_swap_from_nat_to_firewall_changes_behaviour() {
    let mut nat = StaticNat::new();
    nat.add_mapping(0xc0a80001, 0x65000001).unwrap();
    let mut module = FlexSfp::new(ModuleConfig::default(), Box::new(nat));
    module.set_factory(app_factory());
    let client = ManagementClient::new(AuthKey::DEFAULT);

    let frame = || {
        flexsfp::wire::builder::PacketBuilder::eth_ipv4_udp(
            flexsfp::wire::MacAddr([2; 6]),
            flexsfp::wire::MacAddr([4; 6]),
            0xc0a80001,
            0x08080808,
            999,
            53,
            b"q",
        )
    };

    // Phase 1: NAT translates.
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame: frame(),
    }]);
    let ip = Ipv4Packet::new_checked(&r.outputs[0].frame[14..]).unwrap();
    assert_eq!(ip.src(), 0x65000001);

    // Phase 2: deploy a default-deny firewall bitstream over the OOB
    // port and activate it.
    let fw_bs = Bitstream::new("firewall", 2, 156_250_000)
        .with_config(flexsfp_obs::json!({"default": "deny", "capacity": 16}));
    client.deploy(&mut module, 1, &fw_bs.to_bytes()).unwrap();
    assert_eq!(module.app_name(), "firewall");
    assert_eq!(module.boots(), 2);

    // Phase 3: the same packet is now dropped.
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame: frame(),
    }]);
    assert_eq!(r.drops.app, 1);
    assert_eq!(r.forwarded.1, 0);

    // Phase 4: install a permit rule at runtime; traffic flows again.
    let rule = AclRule {
        src: None,
        dst: None,
        protocol: Some(17),
        src_port: None,
        dst_port: Some(53),
        priority: 1,
        action: AclAction::Permit,
    };
    client
        .table_op(
            &mut module,
            flexsfp::ppe::TableOp::Insert {
                table: 0,
                key: vec![],
                value: flexsfp_obs::ToJson::to_json(&rule).to_string().into_bytes(),
            },
        )
        .unwrap();
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame: frame(),
    }]);
    assert_eq!(r.forwarded.1, 1);
}

#[test]
fn two_modules_over_fiber_with_firewall_at_far_end() {
    // A passthrough module feeds a fiber; the far module firewalls
    // what arrives from the wire.
    let mut near = FlexSfp::passthrough();
    let mut fw = AclFirewall::new(8);
    fw.add_rule(AclRule {
        src: None,
        dst: None,
        protocol: Some(17),
        src_port: None,
        dst_port: Some(4444),
        priority: 1,
        action: AclAction::Deny,
    });
    let mut far = FlexSfp::new(
        ModuleConfig {
            shell: ShellKind::OneWayFilter {
                ppe_direction: Direction::OpticalToEdge,
            },
            ..ModuleConfig::default()
        },
        Box::new(fw),
    );
    let mk = |dport: u16| {
        flexsfp::wire::builder::PacketBuilder::eth_ipv4_udp(
            flexsfp::wire::MacAddr([2; 6]),
            flexsfp::wire::MacAddr([4; 6]),
            0xc0a80001,
            0x0a000001,
            999,
            dport,
            b"x",
        )
    };
    let report_near = near.run(vec![
        SimPacket {
            arrival_ns: 0,
            direction: Direction::EdgeToOptical,
            frame: mk(4444),
        },
        SimPacket {
            arrival_ns: 1000,
            direction: Direction::EdgeToOptical,
            frame: mk(80),
        },
    ]);
    assert_eq!(report_near.forwarded.1, 2);
    let link = FiberLink::new(500.0);
    let report_far = far.run(link.carry(&report_near.outputs));
    // Port 4444 died at the far cage; port 80 made it to the host.
    assert_eq!(report_far.drops.app, 1);
    assert_eq!(report_far.forwarded.0, 1);
    assert_eq!(report_far.outputs[0].egress, Interface::Edge);
    // Fiber delay visible in arrival times.
    assert!(report_far.outputs[0].departure_ns > 2_450);
}

#[test]
fn degraded_laser_kills_long_span_but_not_short() {
    let mut module = FlexSfp::passthrough();
    module.set_laser_ttf_hours(100_000.0);
    module.age_laser(85_000.0); // ≈ 2.2 dB down
    let frame = flexsfp::wire::builder::PacketBuilder::eth_ipv4_udp(
        flexsfp::wire::MacAddr([2; 6]),
        flexsfp::wire::MacAddr([4; 6]),
        1,
        2,
        3,
        4,
        b"x",
    );
    // The optical egress link-budget check uses 3 dB of span loss:
    // -2 dBm - 2.17 dB - 3 dB = -7.2 dBm, still above -11.1 dBm.
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame: frame.clone(),
    }]);
    assert_eq!(r.forwarded.1, 1);
    // Age to failure: now even the 3 dB span is dark.
    module.age_laser(60_000.0);
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame,
    }]);
    assert_eq!(r.drops.link, 1);
    // And the DOM shows why — the targeted-repair story.
    let dom = module.mgmt.read_dom();
    let diag = flexsfp_core::failure::diagnose(
        &dom,
        &module.vcsel,
        &flexsfp_core::failure::DiagnosisThresholds::default(),
    );
    assert_eq!(diag, flexsfp_core::failure::FaultDiagnosis::LaserFailed);
}

#[test]
fn control_traffic_and_data_traffic_coexist() {
    // Interleave line-rate data with control pings; both must work.
    let mut module = FlexSfp::passthrough();
    let mgmt_mac = module.config.mgmt_mac;
    let mgmt_ip = module.config.mgmt_ip;
    let data = TraceBuilder::new(3)
        .sizes(SizeModel::Fixed(60))
        .arrivals(flexsfp::traffic::gen::ArrivalModel::Paced { utilization: 0.95 })
        .build(2_000);
    let mut packets = to_sim(data, Direction::EdgeToOptical);
    for k in 0..20u64 {
        let payload = flexsfp::core::ControlPlane::encode_request(
            &AuthKey::DEFAULT,
            &flexsfp::core::ControlRequest::Ping { nonce: k },
        );
        packets.push(SimPacket {
            arrival_ns: k * 5_000,
            direction: Direction::EdgeToOptical,
            frame: flexsfp::wire::builder::PacketBuilder::eth_ipv4_udp(
                mgmt_mac,
                flexsfp::wire::MacAddr([0xee; 6]),
                0x0a000101,
                mgmt_ip,
                40_000,
                flexsfp::core::control::CONTROL_PORT,
                &payload,
            ),
        });
    }
    packets.sort_by_key(|p| p.arrival_ns);
    let report = module.run(packets);
    assert_eq!(report.control_handled, 20);
    assert_eq!(report.forwarded.1, 2_000);
    assert_eq!(report.drops.total(), 0);
    // Control responses came back out the edge.
    assert_eq!(report.forwarded.0, 0);
    let responses = report
        .outputs
        .iter()
        .filter(|o| o.egress == Interface::Edge)
        .count();
    assert_eq!(responses, 20);
}

#[test]
fn reflect_verdict_hairpins() {
    struct Reflector;
    impl flexsfp::ppe::PacketProcessor for Reflector {
        fn name(&self) -> &str {
            "reflector"
        }
        fn process(
            &mut self,
            _ctx: &flexsfp::ppe::ProcessContext,
            _packet: &mut Vec<u8>,
        ) -> flexsfp::ppe::Verdict {
            flexsfp::ppe::Verdict::Reflect
        }
    }
    let mut module = FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(Reflector));
    let frame = flexsfp::wire::builder::PacketBuilder::eth_ipv4_udp(
        flexsfp::wire::MacAddr([2; 6]),
        flexsfp::wire::MacAddr([4; 6]),
        1,
        2,
        3,
        4,
        b"ping",
    );
    let r = module.run(vec![SimPacket {
        arrival_ns: 0,
        direction: Direction::EdgeToOptical,
        frame,
    }]);
    // The packet came back out the edge instead of the optical side.
    assert_eq!(r.forwarded.0, 1);
    assert_eq!(r.forwarded.1, 0);
}
