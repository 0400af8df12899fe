//! The rack: crossbar ToRs, the hosts behind their access spans and the
//! uplinks between ToRs, as one value on one clock.
//!
//! A [`Rack`] is built from a [`Topology`]: the [`CrossbarSwitch`]es
//! with their cages already seated, the `(tor, port)` each host's
//! [`LossyLink`] lands on, and the port pairs an uplink [`FiberLink`]
//! joins — two ToRs and one uplink, or N ToRs under a spine. A caller
//! emits frames from hosts, steps events (or runs to quiescence) and is
//! handed every frame that leaves an access port; a frame that leaves
//! an uplink port is the rack's own business.
//!
//! # Event order
//!
//! One queue holds two kinds of event: an **arrival** (a host's frame
//! reaching its ToR port, after the access span delayed, jittered,
//! duplicated, corrupted or lost it) and a **hand-off** (a frame that
//! left an uplink port reaching the peer port, one propagation delay
//! after its wire departure). [`Rack::step`] injects into its ToR
//!
//! 1. the earliest event;
//! 2. at one instant, a hand-off before an arrival (the tie rule: the
//!    frame already inside the rack goes first);
//! 3. within a kind at one instant, the order the events were made:
//!    emission order for arrivals, the order the ToRs handed frames
//!    back for hand-offs.
//!
//! [`Rack::run_to_quiescence`] steps until the queue is empty, drains
//! every ToR's crosspoints regardless of the clock (in ToR order), and
//! repeats while a drain pushed a frame across an uplink.
//!
//! # Conservation
//!
//! [`Rack::conserved`] composes, over [`RackStats`], every identity
//! below; it holds when the rack is quiet (no event pending, no frame
//! parked) and `run_to_quiescence` asserts it there:
//!
//! * per ToR, [`CrossbarStats::conserved`];
//! * per access span, every emitted frame offered, and offered +
//!   duplicated = delivered + dropped;
//! * per uplink and direction, transmitted = received;
//! * span deliveries = ToR receptions − uplink receptions;
//! * sources = sinks: span deliveries + flood copies + module copies =
//!   access deliveries + module drops, diversions, punts and
//!   absorptions + malformed + hairpin-filtered + crosspoint drops.

use crate::chaos::{LinkChaosStats, LossyLink};
use crate::collector::FleetCollector;
use crate::crossbar::{CrossbarStats, CrossbarSwitch, TimedDelivery};
use crate::link::FiberLink;
use flexsfp_core::module::SimPacket;
use flexsfp_ppe::Direction;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One host: its impaired access span and the ToR port it lands on.
pub struct HostSpan {
    /// The span between the host's NIC and the ToR port.
    pub link: LossyLink,
    /// Index of the ToR in [`Topology::tors`].
    pub tor: usize,
    /// The access port on that ToR.
    pub port: usize,
}

/// One uplink: a span joining a port of one ToR to a port of another.
/// Direction 0 is `a` → `b`, direction 1 is `b` → `a`.
pub struct Uplink {
    /// One end, as `(tor, port)`.
    pub a: (usize, usize),
    /// The other end, as `(tor, port)`.
    pub b: (usize, usize),
    /// The span between them.
    pub link: FiberLink,
}

/// What a rack is made of.
pub struct Topology {
    /// The switches, cages already seated.
    pub tors: Vec<CrossbarSwitch>,
    /// The hosts, indexed as [`Rack::emit`] names them.
    pub hosts: Vec<HostSpan>,
    /// The uplinks, indexed as [`RackStats::uplink_tx`] reports them.
    pub uplinks: Vec<Uplink>,
}

/// Every counter [`Rack::conserved`] is built from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RackStats {
    /// Frames hosts emitted.
    pub emitted: u64,
    /// The access spans' accounting, merged over all hosts.
    pub links: LinkChaosStats,
    /// Per uplink and direction (see [`Uplink`]), frames that left the
    /// sending end.
    pub uplink_tx: Vec<[u64; 2]>,
    /// Per uplink and direction, frames injected at the receiving end.
    pub uplink_rx: Vec<[u64; 2]>,
    /// Frames that left access ports: the rack's output.
    pub delivered_access: u64,
    /// Per ToR, in topology order.
    pub tors: Vec<CrossbarStats>,
}

/// Where a frame leaving an uplink port goes.
#[derive(Clone, Copy)]
struct Peer {
    tor: usize,
    port: usize,
    delay_ns: u64,
    uplink: usize,
    dir: usize,
}

/// Declared in tie order: at one instant a hand-off goes first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Handoff,
    Arrival,
}

/// One pending injection. The derived order is the event order:
/// `(t_ns, kind, seq)` is unique, so nothing after it is compared.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    t_ns: u64,
    kind: Kind,
    seq: u64,
    tor: usize,
    port: usize,
    frame: Vec<u8>,
}

/// The pending events and the stamp that keeps their making order.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, t_ns: u64, kind: Kind, tor: usize, port: usize, frame: Vec<u8>) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Reverse(Event {
            t_ns,
            kind,
            seq,
            tor,
            port,
            frame,
        }));
    }
}

/// A rack in motion (see the module docs).
pub struct Rack {
    tors: Vec<CrossbarSwitch>,
    hosts: Vec<HostSpan>,
    /// `peers[tor][port]`: the far end, when the port is an uplink.
    peers: Vec<Vec<Option<Peer>>>,
    queue: Queue,
    emitted: u64,
    delivered_access: u64,
    uplink_tx: Vec<[u64; 2]>,
    uplink_rx: Vec<[u64; 2]>,
}

impl Rack {
    /// Stand the rack up, idle at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the topology names a ToR or port that does not exist,
    /// gives a port two uplinks, or lands a host on an uplink port.
    pub fn new(topology: Topology) -> Rack {
        let Topology { tors, hosts, .. } = topology;
        let mut peers: Vec<Vec<Option<Peer>>> =
            tors.iter().map(|t| vec![None; t.ports()]).collect();
        for (uplink, u) in topology.uplinks.iter().enumerate() {
            let delay_ns = u.link.delay_ns() as u64;
            for (dir, (from, to)) in [(u.a, u.b), (u.b, u.a)].into_iter().enumerate() {
                let end = &mut peers[from.0][from.1];
                assert!(end.is_none(), "port {from:?} has two uplinks");
                assert!(to.1 < tors[to.0].ports(), "no such port {to:?}");
                *end = Some(Peer {
                    tor: to.0,
                    port: to.1,
                    delay_ns,
                    uplink,
                    dir,
                });
            }
        }
        for at in hosts.iter().map(|h| (h.tor, h.port)) {
            let uplink = peers[at.0][at.1].is_some();
            assert!(!uplink, "a host lands on uplink port {at:?}");
        }
        Rack {
            uplink_tx: vec![[0; 2]; topology.uplinks.len()],
            uplink_rx: vec![[0; 2]; topology.uplinks.len()],
            tors,
            hosts,
            peers,
            queue: Queue::default(),
            emitted: 0,
            delivered_access: 0,
        }
    }

    /// `host` puts `frame` on its access span at `t_ns`: whatever the
    /// span delivers becomes an arrival at the host's ToR port.
    pub fn emit(&mut self, host: usize, t_ns: u64, frame: Vec<u8>) {
        self.emitted += 1;
        let HostSpan { link, tor, port } = &mut self.hosts[host];
        let clean = SimPacket {
            arrival_ns: t_ns + link.link().delay_ns() as u64,
            direction: Direction::OpticalToEdge,
            frame,
        };
        link.impair(clean, |p| {
            self.queue
                .push(p.arrival_ns, Kind::Arrival, *tor, *port, p.frame)
        });
    }

    /// Inject the next event (see *Event order* in the module docs) and
    /// hand every frame that left an access port to `sink` with its ToR
    /// index. False, and nothing done, when no event is pending.
    pub fn step(&mut self, mut sink: impl FnMut(usize, TimedDelivery)) -> bool {
        let Some(Reverse(e)) = self.queue.heap.pop() else {
            return false;
        };
        if e.kind == Kind::Handoff {
            let back = self.peers[e.tor][e.port].expect("hand-offs land on uplink ports");
            self.uplink_rx[back.uplink][1 - back.dir] += 1;
        }
        let out = self.tors[e.tor].inject(e.port, e.frame, e.t_ns);
        self.route(e.tor, out, &mut sink);
        true
    }

    /// Step until no event is pending, drain every ToR, and repeat
    /// while a drain handed a frame across an uplink.
    ///
    /// # Panics
    ///
    /// Panics if [`conserved`](Self::conserved) does not hold once the
    /// rack is quiet: a leak is a bug, not a result.
    pub fn run_to_quiescence(&mut self, mut sink: impl FnMut(usize, TimedDelivery)) {
        loop {
            while self.step(&mut sink) {}
            for tor in 0..self.tors.len() {
                let out = self.tors[tor].drain();
                self.route(tor, out, &mut sink);
            }
            if self.queue.heap.is_empty() {
                break;
            }
        }
        assert!(self.conserved(), "the rack leaked: {:?}", self.stats());
    }

    /// Uplink deliveries become hand-offs due at the peer one
    /// propagation delay later; access deliveries are the output.
    fn route(
        &mut self,
        tor: usize,
        deliveries: Vec<TimedDelivery>,
        sink: &mut impl FnMut(usize, TimedDelivery),
    ) {
        for d in deliveries {
            let Some(peer) = self.peers[tor][d.port] else {
                self.delivered_access += 1;
                sink(tor, d);
                continue;
            };
            self.uplink_tx[peer.uplink][peer.dir] += 1;
            let due_ns = d.departure_ns + peer.delay_ns;
            self.queue
                .push(due_ns, Kind::Handoff, peer.tor, peer.port, d.frame);
        }
    }

    /// The counters so far.
    pub fn stats(&self) -> RackStats {
        let mut links = LinkChaosStats::default();
        for h in &self.hosts {
            links.merge(&h.link.stats());
        }
        RackStats {
            emitted: self.emitted,
            links,
            uplink_tx: self.uplink_tx.clone(),
            uplink_rx: self.uplink_rx.clone(),
            delivered_access: self.delivered_access,
            tors: self.tors.iter().map(CrossbarSwitch::stats).collect(),
        }
    }

    /// Every identity of *Conservation* in the module docs at once.
    /// Meaningful when the rack is quiet: a pending event or a parked
    /// frame is a frame the counters have not placed yet.
    pub fn conserved(&self) -> bool {
        let s = self.stats();
        let over_tors = |f: fn(&CrossbarStats) -> u64| s.tors.iter().map(f).sum::<u64>();
        let uplink_rx: u64 = s.uplink_rx.iter().flatten().sum();
        let sources = s.links.delivered + over_tors(|t| t.sw.flood_copies + t.sw.module_copies);
        let sinks = s.delivered_access
            + over_tors(|t| t.sw.sinks() - t.sw.delivered + t.crosspoint_dropped);
        s.tors.iter().all(CrossbarStats::conserved)
            && s.links.offered == s.emitted
            && s.links.offered + s.links.duplicated == s.links.delivered + s.links.dropped
            && s.uplink_tx == s.uplink_rx
            && s.links.delivered + uplink_rx == over_tors(|t| t.sw.received)
            && sources == sinks
    }

    /// The ToRs, in topology order (queue latency, telemetry).
    pub fn tors(&self) -> &[CrossbarSwitch] {
        &self.tors
    }

    /// One fleet scrape: every cage module's snapshot, and each ToR's
    /// crossbar telemetry as switch `tor<index>`.
    pub fn scrape(&mut self, collector: &mut FleetCollector) {
        for (i, tor) in self.tors.iter_mut().enumerate() {
            collector.ingest_all(tor.module_snapshots());
            collector.set_xbar_stats(&format!("tor{i}"), tor.telemetry());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    /// Two 2-port ToRs, a host on port 0 of each, port 1 ↔ port 1.
    fn pair() -> Topology {
        let host = |tor| HostSpan {
            link: FiberLink::new(10.0).impaired(FaultPlan::ideal(tor as u64)),
            tor,
            port: 0,
        };
        Topology {
            tors: vec![CrossbarSwitch::new(2, 4), CrossbarSwitch::new(2, 4)],
            hosts: vec![host(0), host(1)],
            uplinks: vec![Uplink {
                a: (0, 1),
                b: (1, 1),
                link: FiberLink::new(3.0),
            }],
        }
    }

    fn frame(dst: u8, src: u8) -> Vec<u8> {
        let mac = |i| MacAddr([0x02, 0, 0, 0, 0, i]);
        PacketBuilder::eth_ipv4_udp(mac(dst), mac(src), 1, 2, 3, 4, b"rack")
    }

    /// Host 0 → host 1 and back: one flood across, one unicast back.
    fn exchange(rack: &mut Rack) {
        rack.emit(0, 0, frame(1, 0));
        rack.emit(1, 10_000, frame(0, 1));
    }

    #[test]
    fn frames_cross_the_uplink_and_the_identity_closes() {
        let mut rack = Rack::new(pair());
        exchange(&mut rack);
        let mut out = Vec::new();
        rack.run_to_quiescence(|tor, d| out.push((tor, d.port, d.frame)));
        assert_eq!(out, vec![(1, 0, frame(1, 0)), (0, 0, frame(0, 1))]);
        let s = rack.stats();
        assert_eq!((s.uplink_tx[0], s.uplink_rx[0]), ([1, 1], [1, 1]));
        assert_eq!((s.emitted, s.delivered_access), (2, 2));
        assert!(rack.conserved());
    }

    #[test]
    fn a_pending_event_is_an_open_identity() {
        let mut rack = Rack::new(pair());
        exchange(&mut rack);
        assert!(!rack.conserved(), "two arrivals are still on their spans");
        assert!(rack.step(|_, _| {}));
        assert!(!rack.conserved(), "a hand-off is in flight");
    }

    #[test]
    fn a_miscounted_handoff_fails_the_identity() {
        let mut rack = Rack::new(pair());
        exchange(&mut rack);
        rack.run_to_quiescence(|_, _| {});
        rack.uplink_rx[0][1] += 1;
        assert!(!rack.conserved());
    }

    #[test]
    #[should_panic(expected = "the rack leaked")]
    fn quiescence_asserts_the_identity() {
        let mut rack = Rack::new(pair());
        exchange(&mut rack);
        rack.uplink_tx[0][0] += 1;
        rack.run_to_quiescence(|_, _| {});
    }

    #[test]
    #[should_panic(expected = "a host lands on uplink port")]
    fn a_host_cannot_share_an_uplink_port() {
        let mut topology = pair();
        topology.hosts[1].port = 1;
        Rack::new(topology);
    }
}
