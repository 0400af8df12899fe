//! Fleet operations: telemetry collection, the metrics pipeline (scrape
//! over the authenticated management channel, Prometheus text and JSON
//! out of the collector), OTA rollout and laser-fault diagnosis across a
//! pool of FlexSFPs (§3 monitoring, §4.1 fleet orchestration, §5.3
//! failure recovery).
//!
//! Run with: `cargo run --example fleet_telemetry`

use flexsfp::apps::factory::app_factory;
use flexsfp::apps::TelemetryProbe;
use flexsfp::core::bitstream::Bitstream;
use flexsfp::core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp::host::{FleetCollector, FleetManager};
use flexsfp::obs::Value;
use flexsfp::ppe::Direction;
use flexsfp::traffic::{SizeModel, TraceBuilder};
use flexsfp_core::auth::AuthKey;
use flexsfp_core::failure::FaultDiagnosis;

fn main() {
    // A pool of eight modules running telemetry probes, as a metro
    // operator would deploy across an aggregation ring.
    let modules: Vec<FlexSfp> = (0..8)
        .map(|i| {
            let cfg = ModuleConfig {
                id: format!("RING-A-{i:02}"),
                ..ModuleConfig::default()
            };
            let mut m = FlexSfp::new(cfg, Box::new(TelemetryProbe::new(8_192, 100_000, 50_000)));
            m.set_factory(app_factory());
            m
        })
        .collect();
    let fleet = FleetManager::new(modules, AuthKey::DEFAULT);
    println!("managing a fleet of {} FlexSFPs", fleet.len());

    // Drive traffic through module 3, including a microburst that SNMP
    // polling could never catch.
    let trace = TraceBuilder::new(2026)
        .flows(32)
        .sizes(SizeModel::Imix)
        .arrivals(flexsfp::traffic::gen::ArrivalModel::Poisson { utilization: 0.3 })
        .microburst(500_000, 80)
        .build(5_000);
    fleet.with_module(3, |m| {
        let packets: Vec<SimPacket> = trace
            .iter()
            .map(|p| SimPacket {
                arrival_ns: p.arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: p.frame.clone(),
            })
            .collect();
        let report = m.run(packets);
        println!(
            "module RING-A-03 forwarded {} frames, mean latency {:.0} ns",
            report.forwarded.1,
            report.latency.mean_ns()
        );
    });

    // Read the telemetry summary through the control plane.
    fleet.with_module(3, |m| {
        let op = flexsfp::ppe::TableOp::Read {
            table: 1,
            key: vec![],
        };
        if let flexsfp::ppe::TableOpResult::Value(v) = m.app_mut().control_op(&op) {
            let flows = u64::from_be_bytes(v[0..8].try_into().unwrap());
            let bursts = u64::from_be_bytes(v[8..16].try_into().unwrap());
            let peak = u64::from_be_bytes(v[16..24].try_into().unwrap());
            println!(
                "telemetry: {flows} flows tracked, {bursts} microburst(s), peak window {peak} B"
            );
            assert!(bursts >= 1, "the injected microburst must be detected");
        }
    });

    // Age one module's laser toward end-of-life and sweep the fleet.
    fleet.with_module(5, |m| {
        m.set_laser_ttf_hours(120_000.0);
        m.age_laser(115_000.0);
    });
    let health = fleet.health_report();
    println!("\nfleet health:");
    for entry in &health {
        match entry {
            Ok(h) => println!(
                "  {}: app {} v{}, {:.1} degC, diagnosis {:?}",
                h.module_id, h.app, h.app_version, h.temperature_c, h.diagnosis
            ),
            Err(e) => println!("  <unreachable: {e}>"),
        }
    }
    let service = fleet.modules_needing_service();
    println!("modules needing a TOSA swap: {service:?}");
    assert_eq!(service, vec![5]);
    assert!(matches!(
        health[5].as_ref().unwrap().diagnosis,
        FaultDiagnosis::LaserDegradation | FaultDiagnosis::LaserFailed
    ));

    // Scrape: one authenticated snapshot per module, drained event
    // rings included, ingested into the collector. A module that failed
    // to answer would count as a scrape failure instead of aborting the
    // sweep. The collector renders the whole fleet both ways.
    let mut collector = FleetCollector::new();
    assert_eq!(
        collector.ingest_sweep(fleet.telemetry_snapshots()),
        fleet.len()
    );
    collector.set_transport_stats(fleet.client().transport_stats());
    let text = collector.render_prometheus();
    // The JSON export is compact on the wire; parsed and re-rendered
    // indented, it reads.
    let json = collector.to_json();
    let indented = Value::parse(&json)
        .expect("the export parses")
        .to_string_pretty();
    for (title, document, bytes) in [
        ("Prometheus text exposition", &text, text.len()),
        ("JSON export, indented", &indented, json.len()),
    ] {
        println!("\n=== {title} (truncated) ===");
        for line in document.lines().take(30) {
            println!("{line}");
        }
        println!("... ({bytes} bytes total)");
    }
    assert_eq!(collector.len(), 8);
    for sample in [
        "flexsfp_frames_total{module=\"RING-A-03\",port=\"edge\",direction=\"rx\"} 5080",
        "flexsfp_bytes_total{module=\"RING-A-03\",port=\"optical\",direction=\"tx\"}",
        "flexsfp_latency_ns{module=\"RING-A-03\",quantile=\"0.99\"}",
        "flexsfp_fleet_latency_ns{quantile=\"0.99\"}",
        "flexsfp_laser_healthy{module=\"RING-A-00\"} 1",
    ] {
        assert!(text.contains(sample), "missing {sample}");
    }
    let fleet_hist = collector.fleet_latency();
    println!(
        "fleet latency: {} samples, p50 {} ns, p99 {} ns, max {} ns",
        fleet_hist.count(),
        fleet_hist.p50(),
        fleet_hist.p99(),
        fleet_hist.max()
    );
    assert!(fleet_hist.count() > 0 && fleet_hist.p99() >= fleet_hist.p50());

    // Roll out a new telemetry build fleet-wide, four modules at a time.
    let image = Bitstream::new("telemetry", 2, 156_250_000)
        .with_config(
            flexsfp_obs::json!({"flows": 16_384, "window_ns": 50_000, "burst_bytes": 40_000}),
        )
        .to_bytes();
    println!(
        "\nrolling out telemetry v2 ({} B image) across the fleet...",
        image.len()
    );
    let report = fleet.deploy_all(1, &image, 4);
    println!(
        "rollout complete: {} updated, {} rolled back to golden, {} failed, {} quarantined",
        report.updated.len(),
        report.rolled_back.len(),
        report.failed.len(),
        report.quarantined.len()
    );
    assert_eq!(report.updated.len(), 8);
    for i in 0..fleet.len() {
        fleet.with_module(i, |m| {
            assert_eq!(m.app_version(), 2);
            assert_eq!(m.app_name(), "telemetry");
        });
    }
    println!("every module rebooted into telemetry v2 without touching the host dataplane");
    println!("\nfleet example OK");
}
