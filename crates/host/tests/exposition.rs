//! The fleet collector's Prometheus exposition and JSON export, pinned
//! whole.
//!
//! One deterministic fleet that exercises every family the collector
//! can emit is rendered and compared byte for byte with
//! `golden/fleet.prom` (and the empty collector with
//! `golden/empty.prom`); only the `git="…"` label value, which moves
//! with every commit, is normalised. The same documents are then parsed
//! the way Prometheus's text parser would and checked for the
//! structural rules a scrape depends on. The same fleet's `to_json()`
//! is compared byte for byte with `golden/fleet.json`; the empty
//! collector's is `{}`.
//!
//! After an intended change to the exposition or the export, rewrite
//! the golden files with
//! `cargo test -p flexsfp-host --test exposition -- --ignored regenerate_golden`
//! and review the diff.

use flexsfp_apps::nat::StaticNat;
use flexsfp_core::auth::AuthKey;
use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp_host::mgmt::{MgmtError, TransportStats};
use flexsfp_host::{CrossbarSwitch, FleetCollector, FleetManager, ImpairStats};
use flexsfp_obs::SloSpec;
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::{Direction, PacketProcessor};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// `n` UDP packets over `flows` source ports, `gap_ns` apart.
fn packets(n: u16, flows: u16, gap_ns: u64) -> Vec<SimPacket> {
    (0..n)
        .map(|i| SimPacket {
            arrival_ns: u64::from(i) * gap_ns,
            direction: Direction::EdgeToOptical,
            frame: PacketBuilder::eth_ipv4_udp(
                MacAddr([2; 6]),
                MacAddr([4; 6]),
                0xc0a8_0001,
                0x0808_0808,
                5_000 + i % flows,
                443,
                b"payload",
            ),
        })
        .collect()
}

fn module(i: usize, fifo_bytes: usize, app: Box<dyn PacketProcessor>) -> FlexSfp {
    let cfg = ModuleConfig {
        id: format!("FSFP-{i:04}"),
        fifo_bytes,
        ..ModuleConfig::default()
    };
    let mut m = FlexSfp::new(cfg, app);
    // Narrow windows, so the window and SLO families see several.
    m.configure_windows(20_000, 16);
    m
}

/// Four modules with traffic and every optional source set, so every
/// family the collector knows is in the document.
fn full_fleet() -> FleetCollector {
    const FIFO: usize = 64 * 1024;
    let mut nat = StaticNat::new();
    nat.add_mapping(0xc0a8_0001, 0x6540_0001).unwrap();
    nat.set_flow_cache(true);
    let fleet = FleetManager::new(
        vec![
            module(0, FIFO, Box::new(PassThrough)),
            module(1, FIFO, Box::new(nat)),
            module(2, FIFO, Box::new(PassThrough)),
            module(3, 256, Box::new(PassThrough)),
        ],
        AuthKey::DEFAULT,
    );
    fleet.with_module(0, |m| m.run(packets(40, 40, 2_000)));
    // Eight flows, sixty packets: the flow cache both misses and hits.
    fleet.with_module(1, |m| m.run(packets(60, 8, 1_500)));
    // A laser aged to twice its time to failure: every frame dies on the link.
    fleet.with_module(2, |m| {
        m.set_laser_ttf_hours(10_000.0);
        m.age_laser(20_000.0);
        m.run(packets(25, 25, 2_000))
    });
    // A back-to-back burst into a 256-byte FIFO: overflow drops.
    fleet.with_module(3, |m| m.run(packets(30, 30, 0)));

    let mut c = FleetCollector::new();
    let sweep = fleet
        .telemetry_snapshots()
        .into_iter()
        .chain([Err(MgmtError::NoResponse)]);
    assert_eq!(c.ingest_sweep(sweep), 4);
    c.set_slo_spec(SloSpec {
        p999_latency_ns: 2_000,
        max_unexplained_drop_rate: 0.01,
        min_cache_hit_rate: 0.5,
    });
    c.set_transport_stats(TransportStats {
        retries: 7,
        timeouts: 3,
        aborts_sent: 1,
        resyncs: 2,
        backoff_ns: 1_250_000,
    });
    c.set_channel_stats(
        "FSFP-0000",
        ImpairStats {
            attempts: 40,
            delivered: 31,
            request_drops: 4,
            response_drops: 2,
            duplicates: 3,
            corruptions: 1,
            flaps: 1,
            flap_losses: 2,
        },
    );
    c.set_channel_stats("FSFP-0002", ImpairStats::default());

    // A 4-port, depth-2 crossbar: a burst 0 → 1 overflows its
    // crosspoint, and a second burst 2 → 1 is left parked undrained.
    let mut sw = CrossbarSwitch::new(4, 2);
    let (a, b, d) = (MacAddr([0xa; 6]), MacAddr([0xc; 6]), MacAddr([0xe; 6]));
    let frame = |dst, src| PacketBuilder::eth_ipv4_udp(dst, src, 1, 2, 9, 80, b"x");
    sw.inject(1, frame(a, b), 0);
    sw.inject(2, frame(a, d), 100_000);
    sw.drain();
    for _ in 0..6 {
        sw.inject(0, frame(b, a), 1_000_000);
    }
    sw.drain();
    for _ in 0..3 {
        sw.inject(2, frame(b, d), 2_000_000);
    }
    c.set_xbar_stats("tor0", sw.telemetry());
    c
}

/// Replace the value of the one label that moves with every commit.
fn normalise(text: &str) -> String {
    let Some(start) = text.find("git=\"") else {
        return text.to_string();
    };
    let value = start + "git=\"".len();
    let end = value + text[value..].find('"').expect("closing quote");
    format!("{}GIT{}", &text[..value], &text[end..])
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn assert_matches_golden(rendered: &str, name: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (see the module docs)", path.display()));
    let got = normalise(rendered);
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name}: first difference at line {}\n  rendered: {:?}\n  golden:   {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line),
    );
}

#[test]
fn full_fleet_matches_golden() {
    assert_matches_golden(&full_fleet().render_prometheus(), "fleet.prom");
}

#[test]
fn empty_collector_matches_golden() {
    assert_matches_golden(&FleetCollector::new().render_prometheus(), "empty.prom");
}

#[test]
fn full_fleet_json_matches_golden() {
    assert_matches_golden(&full_fleet().to_json(), "fleet.json");
}

#[test]
fn empty_collector_json_is_an_empty_object() {
    assert_eq!(FleetCollector::new().to_json(), "{}");
}

#[test]
#[ignore = "rewrites tests/golden/* from the current renderers"]
fn regenerate_golden() {
    std::fs::create_dir_all(golden_path("")).unwrap();
    for (name, c) in [
        ("fleet.prom", full_fleet()),
        ("empty.prom", FleetCollector::new()),
    ] {
        std::fs::write(golden_path(name), normalise(&c.render_prometheus())).unwrap();
    }
    std::fs::write(golden_path("fleet.json"), full_fleet().to_json()).unwrap();
}

/// The fixture really reaches what the golden file is meant to pin.
#[test]
fn full_fleet_exercises_every_source() {
    let c = full_fleet();
    let snap = |id| c.module(id).unwrap();
    assert!(snap("FSFP-0001").cache.hits > 0 && snap("FSFP-0001").cache.misses > 0);
    assert!(!snap("FSFP-0002").laser_healthy && snap("FSFP-0002").drops.link > 0);
    assert!(snap("FSFP-0003").drops.fifo_overflow > 0);
    assert_eq!(c.scrape_failures(), 1);
    let x = c.xbar("tor0").unwrap();
    assert!(x.dropped > 0 && x.queued() > 0);
    let reports = c.slo_reports();
    assert!(reports.values().any(|r| r.healthy) && reports.values().any(|r| !r.healthy));
}

// ---- The exposition validator ------------------------------------------

/// Parse `name{k="v",…} value` into the name, the label pairs (values
/// unescaped) and the value; panics on anything the text format
/// forbids.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let is_name = |s: &str| {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let (lhs, value) = line.rsplit_once(' ').expect("sample has a value");
    let value: f64 = value
        .parse()
        .unwrap_or_else(|_| panic!("bad value in {line:?}"));
    let Some((name, rest)) = lhs.split_once('{') else {
        assert!(is_name(lhs), "bad metric name in {line:?}");
        return (lhs.to_string(), Vec::new(), value);
    };
    assert!(is_name(name), "bad metric name in {line:?}");
    let body = rest
        .strip_suffix('}')
        .unwrap_or_else(|| panic!("unclosed label set in {line:?}"));
    assert!(!body.is_empty(), "empty label set in {line:?}");
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = std::iter::from_fn(|| chars.next_if(|&c| c != '=')).collect();
        assert!(is_name(&key), "bad label name {key:?} in {line:?}");
        assert_eq!(chars.next(), Some('='), "{line:?}");
        assert_eq!(chars.next(), Some('"'), "unquoted label value in {line:?}");
        let mut v = String::new();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('\\') => v.push('\\'),
                    Some('"') => v.push('"'),
                    Some('n') => v.push('\n'),
                    other => panic!("bad escape \\{other:?} in {line:?}"),
                },
                Some('\n') | None => panic!("unterminated label value in {line:?}"),
                Some(c) => v.push(c),
            }
        }
        assert!(
            labels.iter().all(|(k, _)| *k != key),
            "label {key:?} repeated in {line:?}"
        );
        labels.push((key, v));
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(c) => panic!("unexpected {c:?} after a label in {line:?}"),
        }
    }
    (name.to_string(), labels, value)
}

/// Check a whole document against what Prometheus's parser requires
/// and return the declared `(family, kind)` pairs in document order.
fn families(text: &str) -> Vec<(String, String)> {
    assert!(
        text.ends_with('\n'),
        "document must end with a line terminator"
    );
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut closed: BTreeSet<String> = BTreeSet::new();
    let mut seen: BTreeSet<(String, Vec<(String, String)>)> = BTreeSet::new();
    let mut current: Option<String> = None;
    // A family ends when anything belonging to another one shows up.
    let enter = |current: &mut Option<String>, closed: &mut BTreeSet<String>, family: &str| {
        if current.as_deref() != Some(family) {
            assert!(
                !closed.contains(family),
                "family {family} is not contiguous"
            );
            if let Some(prev) = current.replace(family.to_string()) {
                closed.insert(prev);
            }
        }
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _) = rest.split_once(' ').expect("HELP has text");
            enter(&mut current, &mut closed, name);
            assert!(helps.insert(name.to_string()), "second HELP for {name}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            enter(&mut current, &mut closed, name);
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown TYPE {kind} for {name}"
            );
            assert!(
                declared.iter().all(|(n, _)| n != name),
                "second TYPE for {name}"
            );
            assert!(
                helps.contains(name),
                "TYPE for {name} without a preceding HELP"
            );
            declared.push((name.to_string(), kind.to_string()));
        } else {
            assert!(!line.starts_with('#'), "stray comment {line:?}");
            let (name, labels, _) = parse_sample(line);
            // `_sum`/`_count` belong to the summary they trail; under
            // any other kind they are names of their own.
            let family = ["_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    let (_, kind) = declared.iter().find(|(n, _)| n == base)?;
                    (kind == "summary").then(|| base.to_string())
                })
                .unwrap_or_else(|| name.clone());
            let (_, kind) = declared
                .iter()
                .find(|(n, _)| *n == family)
                .unwrap_or_else(|| panic!("sample {name} has no HELP/TYPE before it"));
            let has_quantile = labels.iter().any(|(k, _)| k == "quantile");
            if kind == "summary" {
                assert_eq!(
                    has_quantile,
                    name == family,
                    "summary {family}: quantile label belongs on the bare name only ({line:?})"
                );
            } else {
                assert!(!has_quantile, "quantile outside a summary in {line:?}");
            }
            enter(&mut current, &mut closed, &family);
            let mut key = labels;
            key.sort();
            assert!(
                seen.insert((name, key)),
                "duplicate name + label set: {line:?}"
            );
        }
    }
    assert_eq!(
        helps.len(),
        declared.len(),
        "every HELP needs its TYPE: {helps:?}"
    );
    declared
}

#[test]
fn exposition_is_what_a_prometheus_parser_accepts() {
    // Every family with every source set; without them the SLO (6),
    // transport (5), channel (1) and crossbar (11) families are absent.
    let count = |c: FleetCollector| families(&c.render_prometheus()).len();
    assert_eq!(count(full_fleet()), 57);
    assert_eq!(count(FleetCollector::new()), 34);
}

/// The validator itself rejects the documents it exists to catch.
#[test]
fn validator_rejects_malformed_documents() {
    let rejects = |doc: &str| std::panic::catch_unwind(|| families(doc)).is_err();
    let head = "# HELP a_total A.\n# TYPE a_total counter\n";
    assert!(!rejects(&format!("{head}a_total{{m=\"x\"}} 1\n")));
    // No header; header after samples; family declared twice.
    assert!(rejects("a_total 1\n"));
    assert!(rejects(
        "# HELP a_total A.\na_total 1\n# TYPE a_total counter\n"
    ));
    assert!(rejects(&format!("{head}a_total 1\n{head}")));
    // Samples of one family split by another.
    assert!(rejects(&format!(
        "{head}a_total{{m=\"x\"}} 1\n# HELP b B.\n# TYPE b gauge\nb 1\na_total{{m=\"y\"}} 1\n"
    )));
    // Same name and label set twice, in either label order.
    assert!(rejects(&format!(
        "{head}a_total{{m=\"x\",n=\"y\"}} 1\na_total{{n=\"y\",m=\"x\"}} 2\n"
    )));
    // `_sum` under a counter is an undeclared family.
    assert!(rejects(&format!("{head}a_total_sum 1\n")));
    // Label syntax and escaping.
    assert!(rejects(&format!("{head}a_total{{m=x}} 1\n")));
    assert!(rejects(&format!("{head}a_total{{m=\"x\\q\"}} 1\n")));
    assert!(rejects(&format!("{head}a_total{{m=\"x\"\n")));
    assert!(rejects(&format!("{head}a_total{{m=\"x\",m=\"y\"}} 1\n")));
    assert!(rejects(&format!("{head}a_total{{}} 1\n")));
    assert!(rejects(&format!("{head}a_total{{m=\"x\"}} one\n")));
}
