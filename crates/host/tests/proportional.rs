//! An injection costs what it moves, not what the switch could hold.
//!
//! Two learned hosts exchange frames across an otherwise idle switch:
//! one crosspoint offer, one grant, one delivery per injection, whatever
//! the port count. The same exchange is timed on an 8-port and on a
//! 64-port switch in one process, so the machine's speed cancels and
//! only the ratio is judged. A service pass that asks every output to
//! arbitrate, with every arbiter visiting its whole column, makes 64
//! times the queue visits on the larger switch and read 29–31 here, in
//! debug and release builds alike; a walk over the backlogged outputs,
//! each arbitrating over its column's valid bits, reads 1.0.

use flexsfp_host::crossbar::serialize_ns;
use flexsfp_host::CrossbarSwitch;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;
use std::time::Instant;

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
