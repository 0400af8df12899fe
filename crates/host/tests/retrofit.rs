//! The §2.1 retrofit on the crossbar: a small bridge whose outputs are
//! idle, so every frame injected with spaced timestamps comes back from
//! `inject` itself, with FlexSFPs dropped into its cages one port at a
//! time. Frame conservation is asserted after every scenario.

use flexsfp_apps::{AclAction, AclFirewall, AclRule, VlanTagger};
use flexsfp_core::auth::AuthKey;
use flexsfp_core::module::{FlexSfp, ModuleConfig};
use flexsfp_host::{CrossbarSwitch, ManagementClient};
use flexsfp_ppe::{Direction as Dir, PacketProcessor, ProcessContext, Verdict};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;

const HOST_A: MacAddr = MacAddr([0xa; 6]); // even first octet: unicast
const HOST_B: MacAddr = MacAddr([0xc; 6]);

fn frame(dst: MacAddr, src: MacAddr, dport: u16) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(dst, src, 0xc0a80001, 0xc0a80002, 999, dport, b"data")
}

/// A two-port switch that has already learned A@0 and B@1.
fn learned_pair() -> CrossbarSwitch {
    let mut sw = CrossbarSwitch::new(2, 16);
    sw.inject(0, frame(HOST_B, HOST_A, 80), 0);
    sw.inject(1, frame(HOST_A, HOST_B, 80), 100);
    sw
}

#[test]
fn learning_and_unicast_forwarding() {
    let mut sw = CrossbarSwitch::new(4, 16);
    // A (port 0) talks first: flooded, A learned.
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 0);
    assert_eq!(out.len(), 3); // flooded to 1,2,3
    assert_eq!(sw.learned(), 1);
    // B replies from port 2: unicast straight to port 0.
    let out = sw.inject(2, frame(HOST_A, HOST_B, 80), 100);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, 0);
    assert_eq!(sw.learned(), 2);
    // Now A→B is unicast to port 2.
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 200);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, 2);
    let s = sw.stats();
    assert_eq!(s.sw.flooded, 1);
    // The flood created two extra copies; every frame is accounted.
    assert_eq!(s.sw.flood_copies, 2);
    assert_eq!(s.sw.delivered, 5);
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn same_port_destination_filtered() {
    let mut sw = CrossbarSwitch::new(2, 16);
    sw.inject(0, frame(HOST_B, HOST_A, 80), 0); // learn A@0
    sw.inject(0, frame(HOST_A, HOST_B, 80), 100); // learn B@0 too
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 200);
    assert!(out.is_empty());
    // Hairpin frames are counted, not leaked.
    let s = sw.stats();
    assert_eq!(s.sw.filtered_hairpin, 2);
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn malformed_frames_are_counted_not_leaked() {
    let mut sw = CrossbarSwitch::new(2, 16);
    let out = sw.inject(0, vec![0xde, 0xad], 0); // far too short
    assert!(out.is_empty());
    let s = sw.stats();
    assert_eq!(s.sw.dropped_malformed, 1);
    assert_eq!(s.sw.received, 1);
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn retrofit_firewall_blocks_at_the_port() {
    // Learn both hosts with permitted traffic first.
    let mut sw = learned_pair();
    // Insert a FlexSFP firewall into port 0 that denies UDP/53
    // arriving from the wire.
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
    // The PPE must sit on the wire-facing (optical→edge) path —
    // the paper's One-Way-Filter supports either placement (§4.1).
    let cfg = ModuleConfig {
        shell: flexsfp_core::ShellKind::OneWayFilter {
            ppe_direction: Dir::OpticalToEdge,
        },
        ..ModuleConfig::default()
    };
    sw.insert_flexsfp(0, FlexSfp::new(cfg, Box::new(fw)));
    // DNS from A is dropped in the cage, before the fabric sees it.
    let out = sw.inject(0, frame(HOST_B, HOST_A, 53), 1_000);
    assert!(out.is_empty());
    assert_eq!(sw.stats().sw.dropped_by_modules, 1);
    // Web traffic still flows.
    let out = sw.inject(0, frame(HOST_B, HOST_A, 443), 2_000);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].port, 1);
    assert!(sw.stats().conserved(), "{:?}", sw.stats());
}

#[test]
fn retrofit_vlan_tagger_tags_egress() {
    let mut sw = learned_pair();
    // Port 1's uplink gets a VLAN tagger: frames leaving port 1
    // carry VID 200.
    let mut tagger = VlanTagger::new(200);
    tagger.drop_tagged_ingress = false;
    sw.insert_flexsfp(1, FlexSfp::new(ModuleConfig::default(), Box::new(tagger)));
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 1_000);
    assert_eq!(out.len(), 1);
    let parsed = flexsfp_ppe::Parser.parse(&out[0].frame).unwrap();
    assert_eq!(parsed.vlans, vec![200]);
    assert!(sw.stats().conserved(), "{:?}", sw.stats());
}

#[test]
fn module_removal_restores_transparency() {
    let mut sw = learned_pair();
    let mut fw = AclFirewall::new(4);
    fw.default_action = AclAction::Deny;
    sw.insert_flexsfp(0, FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(fw)));
    assert!(sw.inject(0, frame(HOST_B, HOST_A, 80), 1_000).is_empty());
    let removed = sw.remove_flexsfp(0);
    assert!(removed.is_some());
    assert_eq!(sw.inject(0, frame(HOST_B, HOST_A, 80), 2_000).len(), 1);
    assert!(sw.stats().conserved(), "{:?}", sw.stats());
}

#[test]
fn control_diversion_counts_to_control() {
    /// Punts every frame to the embedded control plane.
    struct Punt;
    impl PacketProcessor for Punt {
        fn name(&self) -> &str {
            "punt"
        }
        fn process(&mut self, _ctx: &ProcessContext, _packet: &mut Vec<u8>) -> Verdict {
            Verdict::ToControlPlane
        }
    }

    let mut sw = learned_pair();
    sw.insert_flexsfp(0, FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(Punt)));
    // Every frame entering port 0 is consumed by the module's
    // control plane: counted, not leaked, and not a module "drop".
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 1_000);
    assert!(out.is_empty());
    let s = sw.stats();
    assert_eq!(s.sw.to_control, 1);
    assert_eq!(s.sw.dropped_by_modules, 0);
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn reflecting_module_counts_diverted_frames() {
    /// Bounces every frame back out the interface it came from.
    struct Reflector;
    impl PacketProcessor for Reflector {
        fn name(&self) -> &str {
            "reflector"
        }
        fn process(&mut self, _ctx: &ProcessContext, _packet: &mut Vec<u8>) -> Verdict {
            Verdict::Reflect
        }
    }

    let mut sw = learned_pair();
    sw.insert_flexsfp(
        1,
        FlexSfp::new(ModuleConfig::two_way_2x(), Box::new(Reflector)),
    );
    // A→B hits port 1's egress module, which reflects it back
    // toward the fabric: nothing is delivered, and the frame is
    // counted as diverted rather than vanishing.
    let out = sw.inject(0, frame(HOST_B, HOST_A, 80), 1_000);
    assert!(out.is_empty());
    let s = sw.stats();
    assert_eq!(s.sw.diverted_by_modules, 1);
    assert_eq!(s.sw.dropped_by_modules, 0);
    assert!(s.conserved(), "{s:?}");
}

#[test]
fn per_port_management_through_switch() {
    let mut sw = CrossbarSwitch::new(2, 16);
    sw.insert_flexsfp(0, FlexSfp::passthrough());
    let client = ManagementClient::new(AuthKey::DEFAULT);
    let m = sw.module_mut(0).unwrap();
    let info = client.info(m).unwrap();
    assert_eq!(info.app, "passthrough");
    assert!(sw.module_mut(1).is_none());
}
