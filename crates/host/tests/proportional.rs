//! Costs judged as a ratio of two things timed in one process, so the
//! machine's speed cancels.
//!
//! An injection costs what it moves, not what the switch could hold.
//! Two learned hosts exchange frames across an otherwise idle switch:
//! one crosspoint offer, one grant, one delivery per injection, whatever
//! the port count. The same exchange is timed on an 8-port and on a
//! 64-port switch. A service pass that asks every output to arbitrate,
//! with every arbiter visiting its whole column, makes 64 times the
//! queue visits on the larger switch and read 29–31 here, in debug and
//! release builds alike; a walk over the backlogged outputs, each
//! arbitrating over its column's valid bits, reads 1.0.
//!
//! A fleet export costs less than reading it back. A rack-sized
//! collector's `to_json()` is timed against `Value::parse` of the text
//! it wrote. Building the document as a `Value` tree and rendering that
//! read 1.4 of the parse in a release build and 1.1 in a debug one;
//! streaming it through one `Writer` read 0.3 and 0.4–0.5. Written
//! compact, with each histogram's occupied buckets only, it reads
//! 0.30–0.32 and 0.55: the write and the parse both take about a third
//! of what the pretty, dense document cost them.
//!
//! Beside the ratio, the same export's size is held under a ceiling, so
//! a return to pretty text or dense bucket arrays fails here.

use flexsfp_core::module::FlexSfp;
use flexsfp_host::crossbar::serialize_ns;
use flexsfp_host::{CrossbarSwitch, FleetCollector};
use flexsfp_obs::{DataplaneEvent, DropReason, EventKind, LatencyHistogram, Value, WindowedSeries};
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;
use std::time::{Duration, Instant};

const INJECTIONS: u64 = 50_000;
const HOST_A: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0xa]);
const HOST_B: MacAddr = MacAddr([0x02, 0, 0, 0, 0, 0xb]);

/// Wall nanoseconds per injection of the ping-pong on a `ports`-port
/// switch, hosts on the first and the last port.
fn ns_per_inject(ports: usize) -> f64 {
    let frame = |dst, src| PacketBuilder::eth_ipv4_udp(dst, src, 1, 2, 9, 80, &[0; 64]);
    let (ping, pong) = (frame(HOST_B, HOST_A), frame(HOST_A, HOST_B));
    let gap_ns = 2 * serialize_ns(ping.len());
    let mut sw = CrossbarSwitch::new(ports, 8);
    sw.inject(0, ping.clone(), 0);
    sw.inject(ports - 1, pong.clone(), gap_ns);
    sw.drain();
    let start = Instant::now();
    let mut delivered = 0;
    for i in 0..INJECTIONS {
        let (port, frame) = if i % 2 == 0 {
            (0, ping.clone())
        } else {
            (ports - 1, pong.clone())
        };
        delivered += sw.inject(port, frame, (i + 2) * gap_ns).len() as u64;
    }
    let elapsed = start.elapsed();
    assert_eq!(delivered, INJECTIONS, "every frame finds its output idle");
    elapsed.as_nanos() as f64 / INJECTIONS as f64
}

#[test]
fn an_injection_costs_the_same_on_8_and_on_64_ports() {
    // Alternate the two sizes and keep each one's best round: a stall
    // lands on one round, not on one size.
    let (mut small, mut large) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        small = small.min(ns_per_inject(8));
        large = large.min(ns_per_inject(64));
    }
    let ratio = large / small;
    println!("8 ports {small:.0} ns, 64 ports {large:.0} ns per injection: ratio {ratio:.2}");
    assert!(
        ratio <= 8.0,
        "64 ports cost {ratio:.1}x what 8 ports do per injection ({large:.0} against {small:.0} ns)"
    );
}

/// A collector holding `modules` snapshots the shape of a rack scrape's:
/// a lifetime histogram and eight 1 ms windows, and a log of drop
/// events. As in the rack, the latencies sit in a few buckets around
/// three frame sizes' transit times, and one sample in sixteen waits in
/// a crosspoint queue for up to 75 µs: nearly every bucket between a
/// histogram's `min` and `max` is empty.
fn fleet(modules: u64) -> FleetCollector {
    let mut c = FleetCollector::new();
    let template = FlexSfp::passthrough().telemetry_snapshot();
    for m in 0..modules {
        let mut snapshot = template.clone();
        snapshot.module_id = format!("FSFP-{m:04}");
        snapshot.latency = LatencyHistogram::new();
        snapshot.windows = WindowedSeries::default();
        for i in 0..4_000 {
            let latency_ns = match i % 16 {
                0 => 1_500 + (i * 7_919 + m * 104_729) % 73_500,
                r => [315, 640, 1_480][r as usize % 3] + i % 5,
            };
            snapshot.latency.record(latency_ns);
            snapshot
                .windows
                .record_forwarded_n(i * 2_000, latency_ns as f64, 1);
        }
        snapshot.events = (0..64)
            .map(|i| DataplaneEvent {
                timestamp_ns: i * 1_000,
                kind: EventKind::Drop {
                    reason: DropReason::LinkDown,
                },
            })
            .collect();
        c.ingest_all([snapshot]);
    }
    c
}

#[test]
fn a_fleet_export_costs_less_than_half_of_parsing_it() {
    let c = fleet(46);
    let text = c.to_json();
    // Alternate the two and keep each one's best round, as above.
    let (mut write, mut parse) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        let start = Instant::now();
        let written = c.to_json();
        write = write.min(start.elapsed());
        let start = Instant::now();
        let parsed = Value::parse(&written).expect("the export parses");
        parse = parse.min(start.elapsed());
        assert_eq!(written, text);
        assert_eq!(parsed.as_object().map(|m| m.len()), Some(46));
    }
    let ratio = write.as_secs_f64() / parse.as_secs_f64();
    println!(
        "{} bytes: to_json {write:?}, parse {parse:?}: ratio {ratio:.2}",
        text.len()
    );
    // Half in release, where CI holds it; a debug build's every writer
    // call is a real call and its timings swing wider, so it gets the
    // margin between the two readings.
    let bound = if cfg!(debug_assertions) { 0.75 } else { 0.5 };
    assert!(
        ratio < bound,
        "writing the export cost {ratio:.2}x parsing it ({write:?} against {parse:?})"
    );
}

/// `fleet(46).to_json().len()` is 670 677 bytes, compact with sparse
/// histograms; this is that plus 10 %. Pretty with dense bucket arrays,
/// the same fleet wrote 6 573 215 bytes, and compact but dense 1 093 039.
const EXPORT_CEILING: usize = 737_745;

#[test]
fn a_fleet_export_stays_compact_and_sparse() {
    let len = fleet(46).to_json().len();
    assert!(
        len <= EXPORT_CEILING,
        "the export grew to {len} bytes, past its {EXPORT_CEILING}-byte ceiling"
    );
}
