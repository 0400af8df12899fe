//! The crossbar against a model bridge.
//!
//! The model is the simplest possible MAC-learning bridge: a `BTreeMap`
//! MAC table and unbounded, instant queues. When no crosspoint
//! overflows, the crossbar must deliver exactly the same multiset of
//! (port, frame) pairs for *any* injection sequence — timing,
//! arbitration order and queueing may differ, the delivered frames may
//! not. The sequences are seeded and randomized (the workspace's
//! hermetic default build has no property-testing dependency, so this
//! is the same exploration driven by `flexsfp_traffic::Xoshiro256`).
//!
//! A second seeded test holds the learning table itself to the model,
//! injection by injection: stations that move port, broadcast and
//! multicast sources, hairpins and unknown destinations must give the
//! same deliveries in the same order, the same `learned()` and the same
//! flood and hairpin counters.
//!
//! A third, fully deterministic test overdrives one output through a
//! depth-2 matrix and pins the exact per-crosspoint drop counts.

use flexsfp_host::crossbar::CrossbarSwitch;
use flexsfp_traffic::Xoshiro256;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;
use std::collections::BTreeMap;

/// The reference bridge: same learning/flood/hairpin semantics as the
/// switches, no queues, no modules, no loss.
struct ModelBridge {
    ports: usize,
    table: BTreeMap<MacAddr, usize>,
    /// Frames flooded, copies beyond the first, frames filtered as
    /// hairpins, runts refused.
    flooded: u64,
    flood_copies: u64,
    hairpins: u64,
    malformed: u64,
}

impl ModelBridge {
    fn new(ports: usize) -> ModelBridge {
        ModelBridge {
            ports,
            table: BTreeMap::new(),
            flooded: 0,
            flood_copies: 0,
            hairpins: 0,
            malformed: 0,
        }
    }

    /// The deliveries of one frame, in port order.
    fn inject(&mut self, port: usize, frame: &[u8]) -> Vec<(usize, Vec<u8>)> {
        if frame.len() < 14 {
            self.malformed += 1;
            return Vec::new();
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        src.copy_from_slice(&frame[6..12]);
        let (dst, src) = (MacAddr(dst), MacAddr(src));
        if src.is_unicast() {
            self.table.insert(src, port);
        }
        match self.table.get(&dst) {
            Some(&p) if p != port => vec![(p, frame.to_vec())],
            Some(_) => {
                self.hairpins += 1;
                Vec::new()
            }
            None => {
                self.flooded += 1;
                self.flood_copies += self.ports as u64 - 2;
                (0..self.ports)
                    .filter(|&p| p != port)
                    .map(|p| (p, frame.to_vec()))
                    .collect()
            }
        }
    }
}

fn mac(i: u64) -> MacAddr {
    MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, i as u8])
}

fn test_frame(dst: MacAddr, src: MacAddr, dport: u16) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(dst, src, 0xc0a80001, 0xc0a80002, 777, dport, b"model")
}

/// Sorted multiset of (port, frame) for order-insensitive comparison.
fn multiset(mut deliveries: Vec<(usize, Vec<u8>)>) -> Vec<(usize, Vec<u8>)> {
    deliveries.sort();
    deliveries
}

#[test]
fn crossbar_matches_model_bridge_for_random_sequences() {
    const PORTS: usize = 8;
    const MACS: u64 = 6;
    const INJECTIONS: usize = 400;
    for seed in 1..=5u64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut model = ModelBridge::new(PORTS);
        // Depth far beyond anything the sequence can queue: loss-free.
        let mut xbar = CrossbarSwitch::new(PORTS, 4_096);
        let mut expected = Vec::new();
        let mut actual = Vec::new();
        for step in 0..INJECTIONS {
            let port = rng.range_usize(0, PORTS);
            let t_ns = step as u64 * 1_000;
            let frame = if step % 37 == 36 {
                vec![0xde, 0xad, 0xbe] // a runt: both must swallow it
            } else {
                let src = mac(rng.range_u64(0, MACS));
                let dst = mac(rng.range_u64(0, MACS));
                test_frame(dst, src, 1_000 + step as u16)
            };
            expected.extend(model.inject(port, &frame));
            actual.extend(
                xbar.inject(port, frame, t_ns)
                    .into_iter()
                    .map(|d| (d.port, d.frame)),
            );
        }
        actual.extend(xbar.drain().into_iter().map(|d| (d.port, d.frame)));

        let s = xbar.stats();
        assert_eq!(s.crosspoint_dropped, 0, "seed {seed}: queue overflowed");
        assert_eq!(s.queued, 0, "seed {seed}: drain left frames behind");
        assert!(s.conserved(), "seed {seed}: {s:?}");
        assert_eq!(
            multiset(actual),
            multiset(expected),
            "seed {seed}: delivery multiset diverged from the model bridge"
        );
    }
}

#[test]
fn learning_matches_the_model_bridge_as_stations_move() {
    const PORTS: usize = 6;
    const STATIONS: u64 = 12;
    const INJECTIONS: usize = 3_000;
    let broadcast = MacAddr([0xff; 6]);
    let multicast = |i: u64| MacAddr([0x01, 0x00, 0x5e, 0x00, 0x00, i as u8]);
    // Never a source: a destination nothing ever teaches the table.
    let unknown = |i: u64| MacAddr([0x02, 0xee, 0x00, 0x00, 0x00, i as u8]);
    let (mut moves, mut hairpins) = (0, 0);
    for seed in 1..=4u64 {
        let mut rng = Xoshiro256::seed_from_u64(0xb41d_6e00 + seed);
        let mut model = ModelBridge::new(PORTS);
        // Injections far apart: every output is idle, so each frame's
        // deliveries come back from its own `inject`, in port order.
        let mut xbar = CrossbarSwitch::new(PORTS, 8);
        let mut home: Vec<usize> = (0..STATIONS).map(|_| rng.range_usize(0, PORTS)).collect();
        for step in 0..INJECTIONS {
            if rng.chance(0.04) {
                let station = rng.range_usize(0, home.len());
                home[station] = rng.range_usize(0, PORTS);
                moves += 1;
            }
            let station = rng.range_u64(0, STATIONS);
            let port = home[station as usize];
            let src = match rng.range_u64(0, 20) {
                0 => broadcast,
                1 => multicast(rng.range_u64(0, 4)),
                _ => mac(station),
            };
            let dst = match rng.range_u64(0, 10) {
                0 => broadcast,
                1 => multicast(rng.range_u64(0, 4)),
                2 => unknown(rng.range_u64(0, 4)),
                _ => mac(rng.range_u64(0, STATIONS)),
            };
            let frame = if step % 211 == 210 {
                vec![0x55; 9]
            } else {
                test_frame(dst, src, step as u16)
            };
            let want = model.inject(port, &frame);
            let got: Vec<(usize, Vec<u8>)> = xbar
                .inject(port, frame, step as u64 * 10_000)
                .into_iter()
                .map(|d| (d.port, d.frame))
                .collect();
            assert_eq!(got, want, "seed {seed}, step {step}: deliveries");
            assert_eq!(
                xbar.learned(),
                model.table.len(),
                "seed {seed}, step {step}: learned"
            );
        }
        let s = xbar.stats();
        assert_eq!(
            (
                s.sw.flooded,
                s.sw.flood_copies,
                s.sw.filtered_hairpin,
                s.sw.dropped_malformed
            ),
            (
                model.flooded,
                model.flood_copies,
                model.hairpins,
                model.malformed
            ),
            "seed {seed}: flooded, flood copies, hairpins, runts"
        );
        assert_eq!(s.queued, 0, "seed {seed}: a frame waited");
        assert!(s.conserved(), "seed {seed}: {s:?}");
        hairpins += model.hairpins;
    }
    // The sequences did what they are there to do.
    assert!(
        moves > 100 && hairpins > 100,
        "{moves} moves, {hairpins} hairpins"
    );
}

#[test]
fn overdriven_output_pins_per_crosspoint_drop_counts() {
    // 4 ports, 2 slots per crosspoint. Learn a destination on port 3,
    // then have inputs 0, 1 and 2 each fire 5 frames at one instant.
    let mut sw = CrossbarSwitch::new(4, 2);
    let dst = mac(9);
    sw.inject(3, test_frame(mac(0), dst, 80), 0);
    sw.drain();

    let t0 = 1_000_000;
    for k in 0..5u16 {
        for input in 0..3usize {
            sw.inject(input, test_frame(dst, mac(input as u64), 2_000 + k), t0);
        }
    }
    let out = sw.drain();

    // The very first frame (input 0) is granted while the port is
    // idle; every later frame parks. Each crosspoint holds 2, so
    // input 0 drops 5−1−2 = 2 and inputs 1 and 2 drop 5−2 = 3 each.
    let t = sw.telemetry();
    let drops_of = |input: u64| {
        t.crosspoints
            .iter()
            .find(|c| c.input == input && c.output == 3)
            .map_or(0, |c| c.dropped)
    };
    assert_eq!(drops_of(0), 2);
    assert_eq!(drops_of(1), 3);
    assert_eq!(drops_of(2), 3);

    let s = sw.stats();
    assert_eq!(s.crosspoint_dropped, 8);
    // 1 granted at injection + 6 drained here; the flood that learned
    // the destination delivered 3 more earlier.
    assert_eq!(out.len(), 6);
    assert_eq!(s.sw.delivered, 3 + 7);
    assert_eq!(s.queued, 0);
    assert!(s.conserved(), "{s:?}");

    // Round-robin arbitration drains the three crosspoints fairly:
    // consecutive grants cycle input 1, 2, 0, 1, 2, 0 (the pointer
    // moved past input 0 when the burst's first frame was granted).
    assert!(sw.queue_latency().p999() > 0);
}
