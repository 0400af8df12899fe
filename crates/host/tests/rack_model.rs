//! The rack against an obvious model of its event order.
//!
//! Two 3-port ToRs (two access ports and an uplink each, a pass-through
//! FlexSFP in an access cage of both and in one uplink cage), four
//! hosts, one uplink. The model keeps every pending event — arrival or hand-off —
//! in one `Vec`, sorts the whole of it by `(time, hand-off first,
//! sequence)` before every step, takes the first, and drives its own
//! twin switches and spans through nothing but their public calls
//! (`LossyLink::carry` a one-frame slice at a time, `inject`, `drain`).
//! [`Rack`] must hand back the same deliveries in the same order and
//! end on the same counters.
//!
//! The emissions are seeded and built to collide, and the test counts
//! the collisions it relies on so a change to the workload cannot
//! quietly stop exercising them: hosts 0 and 2 sit behind ideal spans
//! and emit on an 82 ns grid — one 64-byte serialization plus the
//! uplink's propagation — so a hand-off falls due at the very instant
//! an arrival reaches the same ToR, and arrivals reach both ToRs at one
//! instant; hosts 1 and 3 sit behind spans that drop, duplicate,
//! corrupt and jitter by more than the grid, so a frame overtakes the
//! one emitted before it; the run ends in a burst, so the final drain
//! itself pushes frames across the uplink.

use flexsfp_core::module::{FlexSfp, Interface, ModuleConfig, OutputPacket};
use flexsfp_host::rack::{HostSpan, Rack, RackStats, Topology, Uplink};
use flexsfp_host::{
    CrossbarSwitch, FaultPlan, FiberLink, LinkChaosStats, LossyLink, TimedDelivery,
};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;

const UPLINK: usize = 2;
const HOSTS: usize = 4;
const EMISSIONS: u32 = 3_000;
const SEED: u64 = 0x7ac4_0de1;
/// `serialize_ns(64)` + the 3 m uplink's 14 ns.
const GRID_NS: u64 = 82;

fn mac(host: usize) -> MacAddr {
    MacAddr([0x02, 0x4a, 0, 0, 0, host as u8])
}

fn tor(index: usize) -> CrossbarSwitch {
    let mut sw = CrossbarSwitch::new(3, 2);
    for port in [1, UPLINK].into_iter().take(1 + index) {
        let cfg = ModuleConfig {
            id: format!("tor{index}-p{port}"),
            ..ModuleConfig::default()
        };
        sw.insert_flexsfp(port, FlexSfp::new(cfg, Box::new(PassThrough)));
    }
    sw
}

fn span(host: usize) -> LossyLink {
    let plan = FaultPlan::ideal(SEED ^ host as u64);
    FiberLink::new(30.0).impaired(if host.is_multiple_of(2) {
        plan
    } else {
        plan.with_drop(0.03)
            .with_duplicate(0.05)
            .with_corrupt(0.02)
            .with_jitter(300)
    })
}

fn uplink() -> FiberLink {
    FiberLink::new(3.0)
}

/// `(host, t_ns, frame)`: a broadcast from every host, then 64-byte
/// frames numbered in their payload, three in four of them cross-rack.
fn emissions() -> Vec<(usize, u64, Vec<u8>)> {
    let mut rng = Xoshiro256::seed_from_u64(SEED);
    let mut out: Vec<(usize, u64, Vec<u8>)> = (0..HOSTS)
        .map(|h| {
            let frame = PacketBuilder::eth_ipv4_udp(
                MacAddr([0xff; 6]),
                mac(h),
                0x0a00_0000 + h as u32,
                0xffff_ffff,
                68,
                67,
                b"warmup",
            );
            (h, h as u64 * 10 * GRID_NS, frame)
        })
        .collect();
    let mut t_ns = 100 * GRID_NS;
    for id in 0..EMISSIONS {
        // Bursts at one instant, grid steps, and now and then a gap
        // long enough for the crosspoints to empty. The last frames are
        // one burst from host 0 long after the rest: nothing follows to
        // advance ToR 0's clock, so only a drain moves what it parks.
        let last = id + 6 >= EMISSIONS;
        t_ns += match EMISSIONS - id {
            6 => 1_000,
            1..=5 => 0,
            _ => [0, 0, 1, 1, 2, 30][rng.range_usize(0, 6)],
        } * GRID_NS;
        let src = if last { 0 } else { rng.range_usize(0, HOSTS) };
        let other_tor = 2 * (1 - src / 2);
        let dst = if rng.range_u64(0, 4) < 3 {
            other_tor + rng.range_usize(0, 2)
        } else {
            src ^ 1
        };
        let mut payload = [0u8; 22];
        payload[..4].copy_from_slice(&id.to_be_bytes());
        let frame = PacketBuilder::eth_ipv4_udp(
            mac(dst),
            mac(src),
            0x0a00_0000 + src as u32,
            0x0a00_0000 + dst as u32,
            4_000,
            5_000,
            &payload,
        );
        assert_eq!(frame.len(), 64);
        out.push((src, t_ns, frame));
    }
    out
}

struct Pending {
    t_ns: u64,
    arrival: bool,
    seq: u64,
    tor: usize,
    port: usize,
    frame: Vec<u8>,
}

/// The collisions the model saw.
#[derive(Debug, Default)]
struct Collisions {
    /// Hand-offs taken while an arrival at the same ToR was due at the
    /// same instant.
    handoff_ties: u64,
    /// Arrivals taken while an arrival at the other ToR was due at the
    /// same instant.
    both_tors: u64,
    /// Arrivals that reached a ToR before a frame their host emitted
    /// earlier.
    overtakes: u64,
    /// Hand-offs made by a final drain, not by an injection.
    drain_handoffs: u64,
}

struct Model {
    tors: [CrossbarSwitch; 2],
    links: Vec<LossyLink>,
    pending: Vec<Pending>,
    seq: u64,
    emitted: u64,
    uplink_tx: [u64; 2],
    uplink_rx: [u64; 2],
    deliveries: Vec<(usize, TimedDelivery)>,
    seen: Collisions,
    /// Highest emission number that has arrived, per host.
    newest: [Option<u32>; HOSTS],
}

impl Model {
    fn push(&mut self, t_ns: u64, arrival: bool, tor: usize, port: usize, frame: Vec<u8>) {
        self.seq += 1;
        self.pending.push(Pending {
            t_ns,
            arrival,
            seq: self.seq,
            tor,
            port,
            frame,
        });
    }

    fn emit(&mut self, host: usize, t_ns: u64, frame: Vec<u8>) {
        self.emitted += 1;
        let carried = self.links[host].carry(&[OutputPacket {
            departure_ns: t_ns,
            egress: Interface::Optical,
            frame,
            latency_ns: 0.0,
        }]);
        for p in carried {
            self.push(p.arrival_ns, true, host / 2, host % 2, p.frame);
        }
    }

    fn route(&mut self, tor: usize, out: Vec<TimedDelivery>, draining: bool) {
        for d in out {
            if d.port == UPLINK {
                self.uplink_tx[tor] += 1;
                self.seen.drain_handoffs += u64::from(draining);
                let due_ns = d.departure_ns + uplink().delay_ns() as u64;
                self.push(due_ns, false, 1 - tor, UPLINK, d.frame);
            } else {
                self.deliveries.push((tor, d));
            }
        }
    }

    fn step(&mut self) -> bool {
        self.pending.sort_by_key(|p| (p.t_ns, p.arrival, p.seq));
        if self.pending.is_empty() {
            return false;
        }
        let e = self.pending.remove(0);
        let same_instant = |tor: usize| {
            self.pending
                .iter()
                .any(|p| p.t_ns == e.t_ns && p.arrival && p.tor == tor)
        };
        if e.arrival {
            self.seen.both_tors += u64::from(same_instant(1 - e.tor));
            // The numbered frames are the 64-byte ones.
            if e.frame.len() == 64 {
                let host = 2 * e.tor + e.port;
                let id = Some(u32::from_be_bytes(e.frame[42..46].try_into().unwrap()));
                self.seen.overtakes += u64::from(id < self.newest[host]);
                self.newest[host] = self.newest[host].max(id);
            }
        } else {
            self.seen.handoff_ties += u64::from(same_instant(e.tor));
            // Direction 0 is ToR 0 → ToR 1: received at ToR 1.
            self.uplink_rx[1 - e.tor] += 1;
        }
        let out = self.tors[e.tor].inject(e.port, e.frame, e.t_ns);
        self.route(e.tor, out, false);
        true
    }

    fn run_to_quiescence(&mut self) {
        loop {
            while self.step() {}
            for tor in 0..2 {
                let out = self.tors[tor].drain();
                self.route(tor, out, true);
            }
            if self.pending.is_empty() {
                break;
            }
        }
    }

    fn stats(&self) -> RackStats {
        let mut links = LinkChaosStats::default();
        for l in &self.links {
            links.merge(&l.stats());
        }
        RackStats {
            emitted: self.emitted,
            links,
            uplink_tx: vec![self.uplink_tx],
            uplink_rx: vec![self.uplink_rx],
            delivered_access: self.deliveries.len() as u64,
            tors: self.tors.iter().map(CrossbarSwitch::stats).collect(),
        }
    }
}

#[test]
fn rack_matches_the_resorted_vec_model() {
    let mut model = Model {
        tors: [tor(0), tor(1)],
        links: (0..HOSTS).map(span).collect(),
        pending: Vec::new(),
        seq: 0,
        emitted: 0,
        uplink_tx: [0; 2],
        uplink_rx: [0; 2],
        deliveries: Vec::new(),
        seen: Collisions::default(),
        newest: [None; HOSTS],
    };
    let mut rack = Rack::new(Topology {
        tors: vec![tor(0), tor(1)],
        hosts: (0..HOSTS)
            .map(|h| HostSpan {
                link: span(h),
                tor: h / 2,
                port: h % 2,
            })
            .collect(),
        uplinks: vec![Uplink {
            a: (0, UPLINK),
            b: (1, UPLINK),
            link: uplink(),
        }],
    });
    for (host, t_ns, frame) in emissions() {
        model.emit(host, t_ns, frame.clone());
        rack.emit(host, t_ns, frame);
    }

    // Step by step to the first quiet moment, then through the drains.
    let mut deliveries: Vec<(usize, TimedDelivery)> = Vec::new();
    let mut steps = 0u64;
    while rack.step(|tor, d| deliveries.push((tor, d))) {
        steps += 1;
    }
    assert!(!rack.step(|_, _| unreachable!("nothing is pending")));
    rack.run_to_quiescence(|tor, d| deliveries.push((tor, d)));
    model.run_to_quiescence();

    assert!(steps > u64::from(EMISSIONS), "the hand-offs step too");
    assert_eq!(deliveries.len(), model.deliveries.len());
    for (i, (got, want)) in deliveries.iter().zip(&model.deliveries).enumerate() {
        assert_eq!(got, want, "delivery {i} differs");
    }
    let stats = rack.stats();
    assert_eq!(stats, model.stats());
    assert!(rack.conserved(), "{stats:?}");

    // The workload really collided the way the header says.
    let seen = &model.seen;
    assert!(seen.handoff_ties >= 20, "{seen:?}");
    assert!(seen.both_tors >= 20, "{seen:?}");
    assert!(seen.overtakes >= 20, "{seen:?}");
    assert!(seen.drain_handoffs >= 1, "{seen:?}");
    assert!(stats.links.duplicated >= 20 && stats.links.dropped >= 20);
    assert!(stats.uplink_tx[0].iter().all(|&frames| frames > 500));
    assert!(
        stats.tors.iter().any(|t| t.crosspoint_dropped > 0),
        "the bursts must overflow a crosspoint"
    );
}
