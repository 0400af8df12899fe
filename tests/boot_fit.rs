//! Boot fit-checks the design it boots: the app the image's
//! configuration describes, plus the module's control plane, both
//! interfaces and the shell. What an image declares counts for nothing.
//! An entry the image lists that the app refuses boots golden too, and
//! a control write fills a table without growing the design, so the
//! design boot checked is every design the app can become.
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
use flexsfp::ppe::{TableOp, TableOpResult};

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

/// A JSON list of `n` entries, the `i`th one `entry(i)`.
fn list(n: u32, entry: impl Fn(u32) -> Value) -> Value {
    Value::from((0..n).map(entry).collect::<Vec<_>>())
}

/// A load balancer on 10.0.0.1:80 over `n` distinct backends.
fn balancer(n: u32) -> Value {
    json!({"vip": 167772161u32, "port": 80, "backends": (list(n, |i| Value::from(i + 1)))})
}

/// The text of an ACL rule at `priority` that drops UDP to a port.
fn rule(priority: u32) -> String {
    format!(
        r#"{{"action":"Deny","dst":null,"dst_port":{},"priority":{priority},"protocol":17,"src":null,"src_port":null}}"#,
        priority % 65_536
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
        ("dns-filter", json!({"blocked": (domains(256))}), true),
        // One past capacity: the image lists a domain the app refuses.
        ("dns-filter", json!({"blocked": (domains(257))}), false),
        ("l4-lb", balancer(256), true),
        ("l4-lb", balancer(257), false),
        (
            "dns-filter",
            json!({"doh_resolvers": (list(1_025, Value::from))}),
            false,
        ),
        // A 4-entry NAT table is one bucket of four ways.
        (
            "nat",
            json!({"table_size": 4, "mappings": (list(4, |i| json!({"private": i, "public": i})))}),
            true,
        ),
        (
            "nat",
            json!({"table_size": 4, "mappings": (list(5, |i| json!({"private": i, "public": i})))}),
            false,
        ),
        (
            "firewall",
            json!({"capacity": 1, "rules": (list(1, |i| Value::parse(&rule(i)).unwrap()))}),
            true,
        ),
        (
            "firewall",
            json!({"capacity": 1, "rules": (list(2, |i| Value::parse(&rule(i)).unwrap()))}),
            false,
        ),
        (
            "ipv6-filter",
            json!({"delegations": (list(4_097, |i| json!({"prefix64": i, "subscriber": i})))}),
            false,
        ),
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

/// The `i`th distinct insert into one table of an app, and the most
/// entries that table may hold.
type Table = (fn(u32) -> TableOp, usize);

fn insert(table: u8, key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> TableOp {
    TableOp::Insert {
        table,
        key: key.into(),
        value: value.into(),
    }
}

#[test]
fn control_writes_never_grow_a_design_past_the_device() {
    // Every app at its default configuration (the balancer and the
    // tunnel need endpoints), with each table a control write fills.
    // An insert past what a table holds must answer `TableFull`, and
    // every insert answered `Ok` must leave a design that fits: the
    // design boot checked is the largest the app can become.
    let dns_domain: Table = (|i| insert(0, format!("d{i}.example"), []), 256);
    let doh_resolver: Table = (|i| insert(1, i.to_be_bytes(), []), 1_024);
    let apps: [(&str, Value, &[Table]); 11] = [
        (
            "nat",
            json!({}),
            &[(|i| insert(0, i.to_be_bytes(), (!i).to_be_bytes()), 32_768)],
        ),
        ("firewall", json!({}), &[(|i| insert(0, [], rule(i)), 256)]),
        ("vlan-tagger", json!({"vid": 100}), &[]),
        (
            "tunnel-gw",
            json!({"kind": "vxlan", "local": 1, "remote": 2, "vni": 3}),
            &[],
        ),
        // Two backends are configured: 254 more make 256.
        (
            "l4-lb",
            balancer(2),
            &[(|i| insert(0, [], (i + 3).to_be_bytes()), 254)],
        ),
        ("telemetry", json!({}), &[]),
        (
            "rate-limiter",
            json!({}),
            &[(
                |i| {
                    let mut key = i.to_be_bytes().to_vec();
                    key.push(32);
                    let mut value = 8_000_000u64.to_be_bytes().to_vec();
                    value.extend_from_slice(&1_000u64.to_be_bytes());
                    insert(0, key, value)
                },
                256,
            )],
        ),
        ("dns-filter", json!({}), &[dns_domain, doh_resolver]),
        ("sanitizer", json!({}), &[]),
        ("syn-flood-guard", json!({}), &[]),
        (
            "ipv6-filter",
            json!({}),
            &[(
                |i| insert(0, u64::from(i).to_be_bytes(), i.to_be_bytes()),
                4_096,
            )],
        ),
    ];
    for (app, config, tables) in apps {
        let mut m = boot(app, 0, config);
        assert_eq!((m.app_name(), m.app_version()), (app, STAGED));
        for (t, &(op, at_most)) in tables.iter().enumerate() {
            let mut held = 0;
            for i in 0..10_000 {
                match m.app_mut().control_op(&op(i)) {
                    TableOpResult::Ok => held += 1,
                    refused => {
                        assert_eq!(refused, TableOpResult::TableFull, "{app} table {t}");
                        break;
                    }
                }
                assert!(held <= at_most, "{app} table {t} took {held}");
                assert!(m.fit_report().fits(), "{app} table {t} at {held}");
            }
        }
    }
}
