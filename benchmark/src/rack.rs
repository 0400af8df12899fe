//! `rack_2tor`: two crosspoint-queued ToRs, 46 hosts behind lossy
//! spans, a FlexSFP in nearly every cage, and a fleet scrape on a
//! timer, driven by the benchmark's own time-ordered loop.
//!
//! The topology, traffic shaping and constants are `bench::rack`'s (so
//! crosspoints really queue), but the loop is written here: ROADMAP
//! item 3 plans to replace `bench::rack`'s, and the benchmark must
//! measure `host`, `fabric::xbar` and `obs` through their own public
//! items before and after.

use crate::kernels;
use crate::spans::{maybe_traced, timed, SpanBuf, Trace, Tracer};
use crate::surface::{
    flash_crowd, AclAction, AclFirewall, AclRule, CrossbarSwitch, Direction, FaultPlan, FiberLink,
    FleetCollector, FlexSfp, Interface, LatencyHistogram, LinkChaosStats, LossyLink, MacAddr,
    ModuleConfig, OutputPacket, PacketArena, PacketBuilder, PassThrough, ShellKind, TimedDelivery,
    TracePacket,
};
use crate::workload::{Built, Layers, Outcome, Sink, Workload};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Crosspoint queue depth: shallow enough that compressed microbursts
/// overflow one now and then.
const XPOINT_DEPTH: usize = 12;
/// Flow population of the flash-crowd profile.
const FLOWS: usize = 4_096;
const ACCESS_M: f64 = 30.0;
const UPLINK_M: f64 = 3.0;
const WARMUP_SPACING_NS: u64 = 2_000;
/// Start of the main phase, past the warm-up and its floods.
const MAIN_OFFSET_NS: u64 = 300_000;
/// Every this-many-th trace slot emits a 7-byte runt instead.
const RUNT_EVERY: usize = 2_500;
/// Share of destinations on the other ToR, in quarters.
const CROSS_QUARTERS: u64 = 3;
/// Arrival compression `t × 7/20`: each uplink direction lands near
/// 0.9 of line rate, so crosspoints queue.
const COMPRESS_NUM: u64 = 7;
const COMPRESS_DEN: u64 = 20;
/// The /30 of the subscriber block each uplink firewall denies.
const DENY_PREFIX: (u32, u8) = (0x0a64_0000, 30);
/// Injections between fleet scrapes.
const SCRAPE_EVERY: u64 = 20_000;

/// Ports per ToR. 24, not `bench::rack`'s 48: every module holds a
/// 16 MB flash image, and on the sandbox VM the first touch of 94 of
/// them took 20 s to 80 s of a run, which 22 runs cannot afford. The
/// 46 modules left still make this the one workload with a large
/// set-up and footprint.
const TOR_PORTS: usize = 24;
/// The last port of each ToR is its uplink.
const UPLINK: usize = TOR_PORTS - 1;
/// Access (host-facing) ports per ToR: all but the uplink.
const ACCESS: usize = TOR_PORTS - 1;
const HOSTS: usize = 2 * ACCESS;

#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    pub seed: u64,
    pub packets: u64,
    pub quick: bool,
}

impl Rack {
    pub fn new(seed: u64, packets: u64, quick: bool) -> Rack {
        Rack {
            seed,
            packets,
            quick,
        }
    }

    /// One ToR: pass-through FlexSFPs in every access cage except port
    /// 0 (a standard SFP, so runts reach the bridge's malformed path)
    /// and an ACL firewall screening the uplink's wire-side ingress.
    fn build_tor(
        &self,
        tor: usize,
        tracer: Option<&Tracer>,
        build_ns: &mut Vec<u64>,
    ) -> CrossbarSwitch {
        let spans = |capacity: usize| tracer.map(|t| t.buf(0, capacity));
        let mut seat = |sw: &mut CrossbarSwitch, port: usize, config, app| {
            let t = Instant::now();
            let module = FlexSfp::new(config, app);
            build_ns.push(t.elapsed().as_nanos() as u64);
            sw.insert_flexsfp(port, module);
        };
        let mut sw = CrossbarSwitch::new(TOR_PORTS, XPOINT_DEPTH);
        let per_port = 4 * self.packets as usize / HOSTS + 256;
        for port in 1..ACCESS {
            let config = ModuleConfig {
                id: format!("tor{tor}-p{port:02}"),
                ..ModuleConfig::default()
            };
            seat(
                &mut sw,
                port,
                config,
                maybe_traced(PassThrough, spans(per_port)),
            );
        }
        let mut fw = AclFirewall::new(16);
        fw.screen_direction = Some(Direction::OpticalToEdge);
        fw.add_rule(AclRule {
            src: Some(DENY_PREFIX),
            dst: None,
            protocol: None,
            src_port: None,
            dst_port: None,
            priority: 1,
            action: AclAction::Deny,
        });
        let config = ModuleConfig {
            id: format!("tor{tor}-uplink"),
            shell: ShellKind::OneWayFilter {
                ppe_direction: Direction::OpticalToEdge,
            },
            ..ModuleConfig::default()
        };
        seat(
            &mut sw,
            UPLINK,
            config,
            maybe_traced(fw, spans(2 * self.packets as usize + 256)),
        );
        sw
    }

    fn host_mac(tor: usize, port: usize) -> MacAddr {
        MacAddr([0x02, 0xfc, 0xee, tor as u8, port as u8, 0x01])
    }
}

/// A splittable 64-bit mix of a 32-bit word: flow-to-host assignment.
fn h32(x: u32, salt: u64) -> u64 {
    let mut v = u64::from(x) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    v ^= v >> 33;
    v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    v ^= v >> 33;
    v
}

/// One frame arriving at a ToR port after its access span.
struct Arrival {
    t_ns: u64,
    tor: usize,
    port: usize,
    frame: Vec<u8>,
}

/// One frame crossing the uplink span, due at the peer at `t_ns`.
/// Ordered by `(t_ns, seq)`; `seq` makes the order total.
struct Handoff {
    t_ns: u64,
    seq: u64,
    tor: usize,
    frame: Vec<u8>,
}

impl PartialEq for Handoff {
    fn eq(&self, other: &Handoff) -> bool {
        (self.t_ns, self.seq) == (other.t_ns, other.seq)
    }
}
impl Eq for Handoff {}
impl PartialOrd for Handoff {
    fn partial_cmp(&self, other: &Handoff) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Handoff {
    fn cmp(&self, other: &Handoff) -> std::cmp::Ordering {
        (self.t_ns, self.seq).cmp(&(other.t_ns, other.seq))
    }
}

pub struct State {
    tors: [CrossbarSwitch; 2],
    links: Vec<LossyLink>,
    collector: FleetCollector,
}

/// The loop's bookkeeping: what crossed the uplink and what left the
/// rack.
struct Routing {
    heap: BinaryHeap<Reverse<Handoff>>,
    seq: u64,
    uplink_tx: [u64; 2],
    uplink_rx: [u64; 2],
    delivered_access: u64,
    uplink_delay_ns: u64,
}

impl Routing {
    /// Access deliveries are the rack's output; uplink deliveries
    /// become handoffs due at the peer.
    fn route(&mut self, deliveries: Vec<TimedDelivery>, tor: usize, sink: &mut Sink) {
        for d in deliveries {
            if d.port == UPLINK {
                self.uplink_tx[tor] += 1;
                self.seq += 1;
                self.heap.push(Reverse(Handoff {
                    t_ns: d.departure_ns + self.uplink_delay_ns,
                    seq: self.seq,
                    tor: 1 - tor,
                    frame: d.frame,
                }));
            } else {
                self.delivered_access += 1;
                sink.fold(d.departure_ns, (tor * 128 + d.port) as u64, &d.frame);
            }
        }
    }
}

/// One fleet scrape: every cage module's snapshot into the collector,
/// then both renderings.
fn scrape(state: &mut State, spans: &mut Option<SpanBuf>) {
    let start_ns = spans_now(spans);
    for (i, tor) in state.tors.iter_mut().enumerate() {
        let t0 = spans_now(spans);
        let snapshots = tor.module_snapshots();
        if let (Some(b), Some(t0)) = (spans.as_mut(), t0) {
            let t1 = b.now();
            b.record("core.telemetry.snapshot", t0, t1, snapshots.len() as u32);
        }
        state.collector.ingest_all(snapshots);
        state
            .collector
            .set_xbar_stats(&format!("tor{i}"), tor.telemetry());
    }
    std::hint::black_box(state.collector.render_prometheus());
    std::hint::black_box(state.collector.to_json());
    if let (Some(b), Some(start_ns)) = (spans.as_mut(), start_ns) {
        let end_ns = b.now();
        b.record("host.collector.scrape", start_ns, end_ns, 0);
    }
}

fn spans_now(spans: &Option<SpanBuf>) -> Option<u64> {
    spans.as_ref().map(SpanBuf::now)
}

impl Workload for Rack {
    type State = State;

    fn name(&self) -> &'static str {
        "rack_2tor"
    }

    fn packets(&self) -> u64 {
        self.packets
    }

    fn build(&self, tracer: Option<&Tracer>) -> Built<State> {
        let mut module_build_ns = Vec::with_capacity(HOSTS);
        let tors = [
            self.build_tor(0, tracer, &mut module_build_ns),
            self.build_tor(1, tracer, &mut module_build_ns),
        ];
        let links = (0..HOSTS)
            .map(|h| {
                FiberLink::new(ACCESS_M).impaired(
                    FaultPlan::ideal(self.seed ^ (h as u64).wrapping_mul(0x51ed))
                        .with_drop(0.01)
                        .with_duplicate(0.005)
                        .with_corrupt(0.005)
                        .with_jitter(200),
                )
            })
            .collect();
        Built {
            state: State {
                tors,
                links,
                collector: FleetCollector::new(),
            },
            module_build_ns,
            populate_ns: 0,
            populated: 0,
        }
    }

    fn run(&self, mut state: State, full_digest: bool, tracer: Option<&Tracer>) -> Outcome {
        let mut sink = Sink::new(PacketArena::new(), full_digest);
        let mut spans = tracer.map(|t| t.buf(0, 4 * self.packets as usize + 1024));
        let start_ns = spans_now(&spans);
        let t = Instant::now();

        // Push one frame through its host's impaired span.
        let mut arrivals: Vec<Arrival> = Vec::with_capacity(self.packets as usize + HOSTS + 128);
        let mut emitted = 0u64;
        let mut emit = |state: &mut State,
                        spans: &mut Option<SpanBuf>,
                        host: usize,
                        t_ns: u64,
                        frame: Vec<u8>| {
            emitted += 1;
            let carried = timed(spans, "host.link.carry", 1, || {
                state.links[host].carry(&[OutputPacket {
                    departure_ns: t_ns,
                    egress: Interface::Optical,
                    frame,
                    latency_ns: 0.0,
                }])
            });
            arrivals.extend(carried.into_iter().map(|p| Arrival {
                t_ns: p.arrival_ns,
                tor: host / ACCESS,
                port: host % ACCESS,
                frame: p.frame,
            }));
        };

        // Warm-up: every host broadcasts once, so both ToRs learn every
        // MAC (the peer learns it behind the uplink as the flood crosses).
        for h in 0..HOSTS {
            let frame = PacketBuilder::eth_ipv4_udp(
                MacAddr([0xff; 6]),
                Rack::host_mac(h / ACCESS, h % ACCESS),
                0x0a00_0000 + h as u32,
                0xffff_ffff,
                68,
                67,
                b"warmup",
            );
            emit(
                &mut state,
                &mut spans,
                h,
                h as u64 * WARMUP_SPACING_NS,
                frame,
            );
        }

        // Main phase: the flash-crowd trace, compressed, each flow pinned
        // to a source host by its source address and to a destination
        // host (3/4 of the time on the other ToR) by its destination.
        let trace: Vec<TracePacket> = timed(&mut spans, "traffic.gen", self.packets as u32, || {
            flash_crowd(self.seed, FLOWS).build(self.packets as usize)
        });
        for (i, tp) in trace.into_iter().enumerate() {
            let t_ns = MAIN_OFFSET_NS + tp.arrival_ns * COMPRESS_NUM / COMPRESS_DEN;
            if i % RUNT_EVERY == RUNT_EVERY - 1 {
                // A host NIC glitch: a 7-byte runt on a standard-SFP port.
                let tor = (i / RUNT_EVERY) % 2;
                emit(&mut state, &mut spans, tor * ACCESS, t_ns, vec![0x55; 7]);
                continue;
            }
            let mut frame = tp.frame;
            let word = |at: usize| u32::from_be_bytes(frame[at..at + 4].try_into().expect("4 B"));
            let (sip, dip) = (word(26), word(30));
            let src_host = (h32(sip, 1) % HOSTS as u64) as usize;
            let (src_tor, src_port) = (src_host / ACCESS, src_host % ACCESS);
            let dst_port = (h32(dip, 2) % ACCESS as u64) as usize;
            let dst_tor = if h32(dip, 3) % 4 < CROSS_QUARTERS {
                1 - src_tor
            } else {
                src_tor
            };
            frame[0..6].copy_from_slice(&Rack::host_mac(dst_tor, dst_port).0);
            frame[6..12].copy_from_slice(&Rack::host_mac(src_tor, src_port).0);
            emit(&mut state, &mut spans, src_host, t_ns, frame);
        }
        // Jitter perturbs arrival order; restore it (stable, so
        // same-instant frames keep their emission order).
        arrivals.sort_by_key(|a| a.t_ns);
        let mut arrivals: VecDeque<Arrival> = arrivals.into();

        // The event loop: the earlier of (next access arrival, next
        // uplink handoff) is injected and its deliveries routed.
        let mut routing = Routing {
            heap: BinaryHeap::new(),
            seq: 0,
            uplink_tx: [0; 2],
            uplink_rx: [0; 2],
            delivered_access: 0,
            uplink_delay_ns: FiberLink::new(UPLINK_M).delay_ns() as u64,
        };
        let mut injected = 0u64;
        loop {
            let take_handoff = match (arrivals.front(), routing.heap.peek()) {
                (Some(a), Some(Reverse(h))) => h.t_ns <= a.t_ns,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => break,
            };
            let (tor, port, frame, t_ns) = if take_handoff {
                let Reverse(h) = routing.heap.pop().expect("peeked");
                routing.uplink_rx[h.tor] += 1;
                (h.tor, UPLINK, h.frame, h.t_ns)
            } else {
                let a = arrivals.pop_front().expect("peeked");
                (a.tor, a.port, a.frame, a.t_ns)
            };
            let out = timed(&mut spans, "host.crossbar.inject", 1, || {
                state.tors[tor].inject(port, frame, t_ns)
            });
            routing.route(out, tor, &mut sink);
            injected += 1;
            if injected.is_multiple_of(SCRAPE_EVERY) {
                scrape(&mut state, &mut spans);
            }
        }

        // Final drains: empty every crosspoint, re-injecting whatever
        // the drain pushes across the uplink, until the rack is quiet.
        loop {
            for tor in 0..2 {
                let out = timed(&mut spans, "host.crossbar.drain", 0, || {
                    state.tors[tor].drain()
                });
                routing.route(out, tor, &mut sink);
            }
            while let Some(Reverse(h)) = routing.heap.pop() {
                routing.uplink_rx[h.tor] += 1;
                let out = timed(&mut spans, "host.crossbar.inject", 1, || {
                    state.tors[h.tor].inject(UPLINK, h.frame, h.t_ns)
                });
                routing.route(out, h.tor, &mut sink);
            }
            if state.tors.iter().map(|t| t.stats().queued).sum::<u64>() == 0 {
                break;
            }
        }
        scrape(&mut state, &mut spans);
        let timed_ns = t.elapsed().as_nanos() as u64;
        if let (Some(b), Some(start_ns)) = (spans.as_mut(), start_ns) {
            let end_ns = b.now();
            b.record("flexbench.loop", start_ns, end_ns, emitted as u32);
        }

        // Accounting: per-ToR identities, the uplink handoff identity,
        // the link identity and the rack-level identity over everything
        // the spans delivered.
        let chaos = state
            .links
            .iter()
            .fold(LinkChaosStats::default(), |mut acc, l| {
                let s = l.stats();
                acc.offered += s.offered;
                acc.delivered += s.delivered;
                acc.dropped += s.dropped;
                acc.duplicated += s.duplicated;
                acc.corrupted += s.corrupted;
                acc
            });
        let (s0, s1) = (state.tors[0].stats(), state.tors[1].stats());
        let sum = |f: fn(&crate::surface::CrossbarStats) -> u64| f(&s0) + f(&s1);
        let sources = chaos.delivered + sum(|s| s.sw.flood_copies) + sum(|s| s.sw.module_copies);
        let sinks = routing.delivered_access
            + sum(|s| s.sw.dropped_by_modules)
            + sum(|s| s.sw.diverted_by_modules)
            + sum(|s| s.sw.to_control)
            + sum(|s| s.sw.absorbed_by_modules)
            + sum(|s| s.sw.dropped_malformed)
            + sum(|s| s.sw.filtered_hairpin)
            + sum(|s| s.crosspoint_dropped);
        let uplink_rx_total = routing.uplink_rx[0] + routing.uplink_rx[1];
        let conserved = s0.conserved()
            && s1.conserved()
            && chaos.offered + chaos.duplicated == chaos.delivered + chaos.dropped
            && chaos.offered == emitted
            && routing.uplink_tx[0] == routing.uplink_rx[1]
            && routing.uplink_tx[1] == routing.uplink_rx[0]
            && chaos.delivered + uplink_rx_total == sum(|s| s.sw.received)
            && sources == sinks;

        // Enqueue→grant latency of the frames that had to queue. Most
        // frames find their output idle and wait 0 ns, which would pin
        // the median at 0 whatever the crossbar does;
        // `fabric.xbar.queued_share` says how many did queue.
        let mut latency = LatencyHistogram::new();
        let mut grants = 0u64;
        for tor in &state.tors {
            grants += tor.queue_latency().count();
            for (wait_ns, frames) in tor.queue_latency().nonzero_buckets() {
                if wait_ns > 0 {
                    latency.record_n(wait_ns, frames);
                }
            }
        }
        let queued_share = latency.count() as f64 / grants.max(1) as f64;
        let (t0, t1) = (state.tors[0].telemetry(), state.tors[1].telemetry());
        let mut outcome = Outcome {
            timed_ns,
            offered: emitted,
            forwarded: routing.delivered_access,
            fingerprint: sink.fingerprint,
            digest: sink.digest,
            unexplained: 0,
            conserved,
            latency,
            ..Outcome::default()
        };
        let c = &mut outcome.counts;
        c.insert("fabric.xbar.queued_share", queued_share);
        c.insert("fabric.xbar.dropped", sum(|s| s.crosspoint_dropped) as f64);
        c.insert(
            "fabric.xbar.high_water",
            t0.high_water.max(t1.high_water) as f64,
        );
        c.insert("host.link.dropped", chaos.dropped as f64);
        c.insert("host.link.duplicated", chaos.duplicated as f64);
        c.insert("host.link.corrupted", chaos.corrupted as f64);
        c.insert("core.drops.app", sum(|s| s.sw.dropped_by_modules) as f64);
        outcome
    }

    fn layers(&self, trace: &Trace, traced: &Outcome, out: &mut Layers) {
        let packets = traced.offered.max(1) as f64;
        for (metric, span) in [
            ("host.link.carry_ns_per_pkt", "host.link.carry"),
            ("host.crossbar.inject_ns_per_pkt", "host.crossbar.inject"),
            ("host.crossbar.drain_ns_per_pkt", "host.crossbar.drain"),
        ] {
            out.set(metric, trace.total_ns(span) as f64 / packets);
        }
        out.set(
            "host.collector.scrape_ms",
            crate::stats::median(&trace.durations_ns("host.collector.scrape")) / 1e6,
        );
        out.set(
            "core.telemetry.snapshot_us",
            trace.total_ns("core.telemetry.snapshot") as f64
                / trace.items("core.telemetry.snapshot").max(1) as f64
                / 1e3,
        );
        out.set(
            "flexbench.loop.self_ns_per_pkt",
            trace.self_total_ns("flexbench.loop") as f64 / packets,
        );
        out.set(
            "trace.span_coverage",
            1.0 - trace.self_total_ns("flexbench.loop") as f64
                / trace.total_ns("flexbench.loop").max(1) as f64,
        );
    }

    fn kernels(&self, out: &mut Layers) {
        let arena = PacketArena::new();
        let keys = kernels::keys(self.quick);
        let sample = kernels::Sample::collect(
            flash_crowd(self.seed, FLOWS)
                .stream_pooled(keys, arena.clone())
                .map(|p| p.frame),
            &arena,
            self.quick,
        );
        // The rack's applications key no hash table; its firewall's
        // flow cache has the default geometry.
        kernels::keyed(&sample, FLOWS, 0, 0, out);
        kernels::independent(&sample, self.quick, out);
        // The port pairs the crossbars see: access port → destination
        // port, or the uplink when the destination is on the other ToR.
        let access = ACCESS as u64;
        let pairs: Vec<(usize, usize)> = sample
            .keys
            .iter()
            .map(|k| {
                let src = (h32(k.src_ip(), 1) % HOSTS as u64 % access) as usize;
                let dst = if h32(k.dst_ip(), 3) % 4 < CROSS_QUARTERS {
                    UPLINK
                } else {
                    (h32(k.dst_ip(), 2) % access) as usize
                };
                (src, dst)
            })
            .collect();
        kernels::xbar(TOR_PORTS, XPOINT_DEPTH, &pairs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_conserves_every_frame_and_repeats_its_digest() {
        let w = Rack::new(81, 6_000, true);
        let a = w.run(w.build(None).state, true, None);
        assert!(a.conserved, "an identity leaked");
        assert_eq!(a.failed(a.fingerprint), 0);
        assert!(a.forwarded > 0 && a.offered >= 6_000 + HOSTS as u64);
        assert!(
            a.counts["host.link.dropped"] > 0.0,
            "the fault plan must bite"
        );
        assert!(a.latency.count() > 0);
        let b = w.run(w.build(None).state, true, None);
        assert_eq!((a.digest, a.fingerprint), (b.digest, b.fingerprint));
        let other = Rack::new(82, 6_000, true);
        let c = other.run(other.build(None).state, true, None);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn traced_rack_pass_is_transparent_and_splits_the_loop() {
        let w = Rack::new(81, 6_000, true);
        let plain = w.run(w.build(None).state, true, None);
        let tracer = Tracer::new(0);
        let traced = w.run(w.build(Some(&tracer)).state, true, Some(&tracer));
        let trace = tracer.finish();
        assert_eq!(plain.digest, traced.digest);
        let mut layers = Layers::default();
        w.layers(&trace, &traced, &mut layers);
        assert!(layers.0["host.crossbar.inject_ns_per_pkt"] > 0.0);
        assert!(layers.0["host.link.carry_ns_per_pkt"] > 0.0);
        assert!(layers.0["host.collector.scrape_ms"] > 0.0);
        assert!(layers.0["core.telemetry.snapshot_us"] > 0.0);
        assert!(trace.count("apps.process") > 0);
    }
}
