//! Boot fit-checks the design it boots: the app the image's
//! configuration describes, plus the module's control plane, both
//! interfaces and the shell. What an image declares counts for nothing.
//!
//! Every image here is written as bytes and carries the `manifest` key
//! older tools wrote, declaring a LUT4 count and nothing else; boot
//! ignores it. A module boots slot 1 with a passthrough v1 golden image
//! in slot 0.

use flexsfp::apps::factory::app_factory;
use flexsfp::core::module::{FlexSfp, ModuleConfig};
use flexsfp::fabric::hash::crc32;
use flexsfp::obs::json;
use flexsfp::obs::json::Value;
use flexsfp::ppe::engine::PassThrough;

/// The version a staged image runs at when it boots.
const STAGED: u32 = 7;
/// The golden image's version.
const GOLDEN: u32 = 1;

/// An `app` image at `version` with `config`, declaring `lut4` LUT4.
fn image(app: &str, version: u32, lut4: u64, config: Value) -> Vec<u8> {
    let meta = json!({
        "app": app,
        "version": version,
        "clock_hz": 156_250_000u64,
        "config": config,
        "manifest": {"lut4": lut4, "ff": 0, "usram": 0, "lsram": 0},
    })
    .to_string();
    let mut out = b"FSBS".to_vec();
    out.extend_from_slice(&(meta.len() as u32).to_be_bytes());
    out.extend_from_slice(meta.as_bytes());
    out.extend_from_slice(&[0x5a; 256]);
    out.extend_from_slice(&crc32(&out).to_be_bytes());
    out
}

/// A default module with the app factory and a golden image, rebooted
/// into `app` with `config` declaring `lut4`.
fn boot(app: &str, lut4: u64, config: Value) -> FlexSfp {
    let mut m = FlexSfp::new(ModuleConfig::default(), Box::new(PassThrough));
    m.set_factory(app_factory());
    let golden = image("passthrough", GOLDEN, 0, json!({}));
    m.flash.write_slot(0, &golden).unwrap();
    m.flash
        .write_slot(1, &image(app, STAGED, lut4, config))
        .unwrap();
    m.control.pending_activation = Some(1);
    assert!(m.maybe_reboot());
    m
}

/// `app` with `config` booted golden: the design it asks for was
/// refused, and what runs fits.
fn assert_golden(app: &str, config: Value) {
    let m = boot(app, 0, config.clone());
    assert_eq!(
        (m.app_name(), m.app_version()),
        ("passthrough", GOLDEN),
        "{app} {config}"
    );
    assert!(m.fit_report().fits());
}

#[test]
fn under_declared_images_boot_golden() {
    assert_golden("nat", json!({"table_size": 2_097_152}));
    assert_golden("firewall", json!({"capacity": 65_536}));
    assert_golden("telemetry", json!({"flows": 1_048_576}));
}

#[test]
fn sizes_past_any_device_boot_golden() {
    // Costed before anything is allocated, without overflowing.
    assert_golden("nat", json!({"table_size": u64::MAX}));
    assert_golden("firewall", json!({"capacity": u64::MAX}));
    assert_golden("telemetry", json!({"flows": u64::MAX}));
    assert_golden("syn-flood-guard", json!({"capacity": u64::MAX}));
}

#[test]
fn an_over_declared_nat_that_fits_boots() {
    let m = boot("nat", 200_000, json!({}));
    assert_eq!((m.app_name(), m.app_version()), ("nat", STAGED));
    assert!(m.fit_report().fits());
}

#[test]
fn a_nat_of_no_entries_boots_golden() {
    assert_golden("nat", json!({"table_size": 0}));
}

#[test]
fn a_telemetry_probe_of_no_flows_boots_golden() {
    assert_golden("telemetry", json!({"flows": 0}));
}

#[test]
fn a_syn_flood_guard_of_no_entries_boots_golden() {
    assert_golden("syn-flood-guard", json!({"capacity": 0}));
}

/// `n` distinct blocked domains.
fn domains(n: usize) -> Value {
    Value::from(
        (0..n)
            .map(|i| Value::from(format!("d{i}.example")))
            .collect::<Vec<_>>(),
    )
}

#[test]
fn every_app_fits_after_every_boot() {
    // Each app over a sweep of what its configuration sizes, with
    // whether the design fits the MPF200T beside the default module's
    // softcore, interfaces and shell.
    let cases = [
        ("passthrough", json!({}), true),
        ("nat", json!({"table_size": 1}), true),
        ("nat", json!({}), true),
        ("nat", json!({"table_size": 65_536}), true),
        ("nat", json!({"table_size": 131_072}), false),
        ("nat", json!({"table_size": 2_097_152}), false),
        ("firewall", json!({"capacity": 1}), true),
        ("firewall", json!({}), true),
        ("firewall", json!({"capacity": 2_048}), true),
        ("firewall", json!({"capacity": 4_096}), false),
        ("firewall", json!({"capacity": 65_536}), false),
        ("vlan-tagger", json!({"vid": 100}), true),
        (
            "tunnel-gw",
            json!({"kind": "vxlan", "local": 1, "remote": 2, "vni": 3}),
            true,
        ),
        (
            "l4-lb",
            json!({"vip": 167772161u32, "port": 80, "backends": [1, 2]}),
            true,
        ),
        ("telemetry", json!({"flows": 1}), true),
        ("telemetry", json!({}), true),
        ("telemetry", json!({"flows": 32_768}), true),
        ("telemetry", json!({"flows": 65_536}), false),
        ("telemetry", json!({"flows": 1_048_576}), false),
        ("rate-limiter", json!({}), true),
        ("dns-filter", json!({"blocked": (domains(0))}), true),
        ("dns-filter", json!({"blocked": (domains(100))}), true),
        ("dns-filter", json!({"blocked": (domains(1_000))}), false),
        ("sanitizer", json!({}), true),
        ("syn-flood-guard", json!({"capacity": 1}), true),
        ("syn-flood-guard", json!({}), true),
        ("syn-flood-guard", json!({"capacity": 32_768}), true),
        ("syn-flood-guard", json!({"capacity": 65_536}), false),
        ("syn-flood-guard", json!({"capacity": 1_048_576}), false),
        ("ipv6-filter", json!({"block_all": true}), true),
    ];
    for (app, config, fits) in cases {
        let m = boot(app, 0, config.clone());
        let booted = (m.app_name(), m.app_version()) == (app, STAGED);
        assert_eq!(booted, fits, "{app} {config}");
        assert!(m.fit_report().fits(), "{app} {config}");
    }
}
