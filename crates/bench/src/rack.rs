//! Rack-scale crossbar workload (`experiments rack`).
//!
//! Two 48-port crosspoint-queued ToRs ([`CrossbarSwitch`]) joined by an
//! uplink span, 94 subscriber hosts on the access ports, a FlexSFP in
//! nearly every cage (pass-through modules on the access ports, an ACL
//! firewall screening each uplink's ingress), and every access link
//! impaired by a seeded [`FaultPlan`] — drop, duplicate, corrupt,
//! jitter. Traffic is the [`flash_crowd`] metro profile with its
//! arrival clock compressed so the cross-rack share converges on the
//! shared uplink at ~0.9 utilization, plus deliberate runt frames so
//! the malformed path is exercised end to end.
//!
//! The run is judged on three things:
//!
//! * **exact packet conservation** — per ToR, the
//!   [`flexsfp_host::CrossbarStats::conserved`] identity must close
//!   after the final drain; across the rack, every frame the chaos layer delivered
//!   (plus every flood and module copy) must be found again as an
//!   access delivery, a module drop/diversion/absorption, a
//!   control-plane punt, a malformed or hairpin filter, or a
//!   crosspoint drop. No leaks, per copy, under loss;
//! * **an SLO gate on queue-induced latency** — the two ToRs'
//!   enqueue→grant histograms merge and the p99.9 must stay under
//!   [`P999_BOUND_NS`];
//! * **telemetry reaching the collector** — both ToRs' `flexsfp_xbar_*`
//!   families and all ~94 cage-module snapshots must render from one
//!   [`FleetCollector`] scrape.
//!
//! `BENCH_rack.json` (written by the `rack` subcommand) records the
//! verdict and every counter the identity is built from.
//!
//! [`flash_crowd`]: flexsfp_traffic::profiles::flash_crowd

use crate::perf::{host_meta, HostMeta};
use crate::render;
use flexsfp_apps::{AclAction, AclFirewall, AclRule};
use flexsfp_core::module::{FlexSfp, Interface, ModuleConfig, OutputPacket};
use flexsfp_core::ShellKind;
use flexsfp_host::{CrossbarSwitch, FaultPlan, FiberLink, FleetCollector, LossyLink};
use flexsfp_obs::LatencyHistogram;
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::profiles;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Ports per ToR.
pub const TOR_PORTS: usize = 48;
/// The uplink port index on both ToRs.
pub const UPLINK: usize = TOR_PORTS - 1;
/// Access (host-facing) ports per ToR.
pub const ACCESS: usize = TOR_PORTS - 1;
/// Subscriber hosts across the rack.
pub const HOSTS: usize = 2 * ACCESS;
/// Crosspoint queue depth — shallow enough that compressed microbursts
/// overflow a crosspoint now and then, so the drop accounting is
/// exercised by the workload itself, not only by unit tests.
pub const XPOINT_DEPTH: usize = 12;
/// Flow population of the metro profile.
pub const FLOWS: usize = 4_096;
/// Packets in the full run.
pub const FULL_PACKETS: usize = 100_000;
/// Packets in the `--quick` (CI) run.
pub const QUICK_PACKETS: usize = 25_000;
/// Queue-induced (enqueue → grant) p99.9 bound, ns, over both ToRs.
pub const P999_BOUND_NS: u64 = 150_000;

/// Seed for traffic, host assignment and every per-link fault plan.
const SEED: u64 = 0x4ac4;
/// Access span length, metres.
const ACCESS_M: f64 = 30.0;
/// Uplink span length, metres (in-rack DAC-ish).
const UPLINK_M: f64 = 3.0;
/// Spacing between warm-up broadcasts, ns.
const WARMUP_SPACING_NS: u64 = 2_000;
/// Start of the main phase, ns — past the warm-up and its floods.
const MAIN_OFFSET_NS: u64 = 300_000;
/// Every `RUNT_EVERY`-th trace slot emits a 7-byte runt instead.
const RUNT_EVERY: usize = 2_500;
/// Fraction of destinations on the *other* ToR, in quarters (3/4).
const CROSS_QUARTERS: u64 = 3;
/// Arrival compression: `t * NUM / DEN`. The profile paces one 10 G
/// feed at 0.85; compressed ×0.35 and split ~half/half across the
/// ToRs with 3/4 of it cross-rack, each uplink direction lands at
/// ~0.85 / 0.35 × 0.5 × 0.75 ≈ 0.91 of line rate.
const COMPRESS_NUM: u64 = 7;
const COMPRESS_DEN: u64 = 20;
/// The /30 of the subscriber block each uplink firewall denies.
const DENY_PREFIX: (u32, u8) = (0x0a64_0000, 30);

/// Result of one rack run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Frames the hosts emitted (warm-up + main phase + runts).
    pub packets: u64,
    /// Subscriber hosts.
    pub hosts: u64,
    /// FlexSFP modules seated in cages across the rack.
    pub modules: u64,
    /// Frames offered to the access chaos layer.
    pub link_offered: u64,
    /// Frames the chaos layer delivered to ToR ports (dupes included).
    pub link_delivered: u64,
    /// Frames lost on access spans.
    pub link_dropped: u64,
    /// Extra copies created by span duplication.
    pub link_duplicated: u64,
    /// Frames delivered with a flipped bit.
    pub link_corrupted: u64,
    /// Frames handed across the uplink, ToR 0 → ToR 1.
    pub uplink_ab: u64,
    /// Frames handed across the uplink, ToR 1 → ToR 0.
    pub uplink_ba: u64,
    /// Frames delivered out access ports (the rack's useful output).
    pub delivered_access: u64,
    /// Unknown-destination floods.
    pub flooded: u64,
    /// Extra copies created by flooding.
    pub flood_copies: u64,
    /// Extra copies created by cage modules.
    pub module_copies: u64,
    /// Frames dropped by cage modules (ACL denies, module FIFOs).
    pub dropped_by_modules: u64,
    /// Frames diverted by cage modules off the natural path.
    pub diverted_by_modules: u64,
    /// Frames punted to module control planes.
    pub to_control: u64,
    /// Frames consumed by modules with no accounted fate.
    pub absorbed_by_modules: u64,
    /// Unparseable frames refused by the bridge logic.
    pub dropped_malformed: u64,
    /// Frames filtered because the destination sat on the ingress port.
    pub filtered_hairpin: u64,
    /// Frames rejected on full crosspoint queues.
    pub crosspoint_dropped: u64,
    /// Deepest crosspoint backlog observed anywhere in the rack.
    pub crosspoint_high_water: u64,
    /// Merged enqueue→grant p99.9 over both ToRs, ns.
    pub queue_p999_ns: u64,
    /// The bound `queue_p999_ns` was gated against.
    pub p999_bound_ns: u64,
    /// `flexsfp_xbar_*` samples in the collector's Prometheus scrape.
    pub xbar_samples: u64,
    /// True when every conservation identity closed exactly.
    pub conserved: bool,
    /// `conserved` + the p99.9 gate + telemetry present.
    pub healthy: bool,
    /// The machine the run executed on.
    pub host: HostMeta,
}

flexsfp_obs::impl_json_struct!(Outcome {
    packets,
    hosts,
    modules,
    link_offered,
    link_delivered,
    link_dropped,
    link_duplicated,
    link_corrupted,
    uplink_ab,
    uplink_ba,
    delivered_access,
    flooded,
    flood_copies,
    module_copies,
    dropped_by_modules,
    diverted_by_modules,
    to_control,
    absorbed_by_modules,
    dropped_malformed,
    filtered_hairpin,
    crosspoint_dropped,
    crosspoint_high_water,
    queue_p999_ns,
    p999_bound_ns,
    xbar_samples,
    conserved,
    healthy,
    host
});

/// The MAC of host `port` on ToR `tor` (locally administered, unicast).
fn host_mac(tor: usize, port: usize) -> MacAddr {
    MacAddr([0x02, 0xfc, 0xee, tor as u8, port as u8, 0x01])
}

/// A splittable 64-bit mix of a 32-bit word — flow-to-host assignment.
fn h32(x: u32, salt: u64) -> u64 {
    let mut v = u64::from(x) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    v ^= v >> 33;
    v = v.wrapping_mul(0xff51_afd7_ed55_8ccd);
    v ^= v >> 33;
    v
}

/// One frame arriving at a ToR port (post-chaos).
struct Inj {
    t_ns: u64,
    tor: usize,
    port: usize,
    frame: Vec<u8>,
}

/// One frame crossing the uplink span, due at the peer at `t_ns`.
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

/// Build one ToR: pass-through FlexSFPs in every access cage except
/// port 0 (kept a standard SFP so runts reach the bridge's malformed
/// path), and an ACL firewall screening the uplink's wire-side ingress.
fn build_tor(tor: usize) -> CrossbarSwitch {
    let mut sw = CrossbarSwitch::new(TOR_PORTS, XPOINT_DEPTH);
    for port in 1..ACCESS {
        let cfg = ModuleConfig {
            id: format!("tor{tor}-p{port:02}"),
            ..ModuleConfig::default()
        };
        sw.insert_flexsfp(port, FlexSfp::new(cfg, Box::new(PassThrough)));
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
    let cfg = ModuleConfig {
        id: format!("tor{tor}-uplink"),
        shell: ShellKind::OneWayFilter {
            ppe_direction: Direction::OpticalToEdge,
        },
        ..ModuleConfig::default()
    };
    sw.insert_flexsfp(UPLINK, FlexSfp::new(cfg, Box::new(fw)));
    sw
}

/// Push `frame`, emitted by `host` at `t_ns`, through that host's
/// impaired access span into the injection list.
fn emit(
    links: &mut [LossyLink],
    injections: &mut Vec<Inj>,
    host: usize,
    t_ns: u64,
    frame: Vec<u8>,
) {
    let carried = links[host].carry(&[OutputPacket {
        departure_ns: t_ns,
        egress: Interface::Optical,
        frame,
        latency_ns: 0.0,
    }]);
    for p in carried {
        injections.push(Inj {
            t_ns: p.arrival_ns,
            tor: host / ACCESS,
            port: host % ACCESS,
            frame: p.frame,
        });
    }
}

/// Route one batch of crossbar deliveries: access deliveries are the
/// rack's output, uplink deliveries become handoff events at the peer.
fn route(
    deliveries: Vec<flexsfp_host::TimedDelivery>,
    tor: usize,
    heap: &mut BinaryHeap<Reverse<Handoff>>,
    seq: &mut u64,
    uplink_tx: &mut [u64; 2],
    delivered_access: &mut u64,
    uplink_delay_ns: u64,
) {
    for d in deliveries {
        if d.port == UPLINK {
            uplink_tx[tor] += 1;
            *seq += 1;
            heap.push(Reverse(Handoff {
                t_ns: d.departure_ns + uplink_delay_ns,
                seq: *seq,
                tor: 1 - tor,
                frame: d.frame,
            }));
        } else {
            *delivered_access += 1;
        }
    }
}

/// Run the rack workload over `packets` main-phase trace slots.
///
/// # Panics
///
/// Panics if any conservation identity fails to close — a leak is a
/// correctness failure, not a verdict. An SLO breach or missing
/// telemetry makes the returned [`Outcome`] unhealthy (and the CLI
/// exit nonzero) without panicking.
pub fn run(packets: usize) -> Outcome {
    let uplink_delay_ns = FiberLink::new(UPLINK_M).delay_ns() as u64;
    let mut links: Vec<LossyLink> = (0..HOSTS)
        .map(|h| {
            FiberLink::new(ACCESS_M).impaired(
                FaultPlan::ideal(SEED ^ (h as u64).wrapping_mul(0x51ed))
                    .with_drop(0.01)
                    .with_duplicate(0.005)
                    .with_corrupt(0.005)
                    .with_jitter(200),
            )
        })
        .collect();
    let mut injections: Vec<Inj> = Vec::with_capacity(packets + HOSTS + 128);
    let mut emitted = 0u64;

    // Warm-up: every host broadcasts once, so both ToRs learn every MAC
    // (the peer learns it behind the uplink port as the flood crosses).
    for h in 0..HOSTS {
        let frame = PacketBuilder::eth_ipv4_udp(
            MacAddr([0xff; 6]),
            host_mac(h / ACCESS, h % ACCESS),
            0x0a00_0000 + h as u32,
            0xffff_ffff,
            68,
            67,
            b"warmup",
        );
        emitted += 1;
        emit(
            &mut links,
            &mut injections,
            h,
            h as u64 * WARMUP_SPACING_NS,
            frame,
        );
    }

    // Main phase: the flash-crowd trace, compressed, with each flow
    // pinned to a source host by its source IP and to a destination
    // host (3/4 of the time on the other ToR) by its destination IP.
    let trace = profiles::flash_crowd(SEED, FLOWS).build(packets);
    for (i, tp) in trace.into_iter().enumerate() {
        let t_ns = MAIN_OFFSET_NS + tp.arrival_ns * COMPRESS_NUM / COMPRESS_DEN;
        if i % RUNT_EVERY == RUNT_EVERY - 1 {
            // A host NIC glitch: a 7-byte runt on a standard-SFP port.
            let tor = (i / RUNT_EVERY) % 2;
            emitted += 1;
            emit(
                &mut links,
                &mut injections,
                tor * ACCESS,
                t_ns,
                vec![0x55; 7],
            );
            continue;
        }
        let mut frame = tp.frame;
        let sip = u32::from_be_bytes(frame[26..30].try_into().unwrap());
        let dip = u32::from_be_bytes(frame[30..34].try_into().unwrap());
        let src_host = (h32(sip, 1) % HOSTS as u64) as usize;
        let (src_tor, src_port) = (src_host / ACCESS, src_host % ACCESS);
        let dst_port = (h32(dip, 2) % ACCESS as u64) as usize;
        let dst_tor = if h32(dip, 3) % 4 < CROSS_QUARTERS {
            1 - src_tor
        } else {
            src_tor
        };
        frame[0..6].copy_from_slice(&host_mac(dst_tor, dst_port).0);
        frame[6..12].copy_from_slice(&host_mac(src_tor, src_port).0);
        emitted += 1;
        emit(&mut links, &mut injections, src_host, t_ns, frame);
    }
    // Chaos jitter perturbs arrival order; restore it (stable, so
    // same-instant frames keep their emission order).
    injections.sort_by_key(|e| e.t_ns);
    let mut injections: VecDeque<Inj> = injections.into();

    // The event loop: pop the earliest of (next access arrival, next
    // uplink handoff), inject, route the resulting deliveries.
    let mut tors = [build_tor(0), build_tor(1)];
    let mut heap: BinaryHeap<Reverse<Handoff>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut uplink_tx = [0u64; 2];
    let mut uplink_rx = [0u64; 2];
    let mut delivered_access = 0u64;
    loop {
        let take_handoff = match (injections.front(), heap.peek()) {
            (Some(inj), Some(Reverse(h))) => h.t_ns <= inj.t_ns,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => break,
        };
        let (tor, port, frame, t_ns) = if take_handoff {
            let Reverse(h) = heap.pop().expect("peeked");
            uplink_rx[h.tor] += 1;
            (h.tor, UPLINK, h.frame, h.t_ns)
        } else {
            let inj = injections.pop_front().expect("peeked");
            (inj.tor, inj.port, inj.frame, inj.t_ns)
        };
        let out = tors[tor].inject(port, frame, t_ns);
        route(
            out,
            tor,
            &mut heap,
            &mut seq,
            &mut uplink_tx,
            &mut delivered_access,
            uplink_delay_ns,
        );
    }

    // Final drains: empty every crosspoint, re-injecting whatever the
    // drain pushes across the uplink, until the rack is quiescent.
    loop {
        for (tor, sw) in tors.iter_mut().enumerate() {
            let out = sw.drain();
            route(
                out,
                tor,
                &mut heap,
                &mut seq,
                &mut uplink_tx,
                &mut delivered_access,
                uplink_delay_ns,
            );
        }
        while let Some(Reverse(h)) = heap.pop() {
            uplink_rx[h.tor] += 1;
            let out = tors[h.tor].inject(UPLINK, h.frame, h.t_ns);
            route(
                out,
                h.tor,
                &mut heap,
                &mut seq,
                &mut uplink_tx,
                &mut delivered_access,
                uplink_delay_ns,
            );
        }
        if heap.is_empty() && tors.iter().map(|t| t.stats().queued).sum::<u64>() == 0 {
            break;
        }
    }

    // Accounting: per-ToR identities, the uplink handoff identity, and
    // the rack-level identity over everything the chaos layer delivered.
    let chaos = links
        .iter()
        .fold(flexsfp_host::LinkChaosStats::default(), |mut acc, l| {
            let s = l.stats();
            acc.offered += s.offered;
            acc.delivered += s.delivered;
            acc.dropped += s.dropped;
            acc.duplicated += s.duplicated;
            acc.corrupted += s.corrupted;
            acc.jitter_ns_total += s.jitter_ns_total;
            acc
        });
    let (s0, s1) = (tors[0].stats(), tors[1].stats());
    assert!(s0.conserved(), "tor0 leaked: {s0:?}");
    assert!(s1.conserved(), "tor1 leaked: {s1:?}");
    assert_eq!(
        uplink_tx[0], uplink_rx[1],
        "uplink frames lost between ToR 0 and ToR 1"
    );
    assert_eq!(
        uplink_tx[1], uplink_rx[0],
        "uplink frames lost between ToR 1 and ToR 0"
    );
    assert_eq!(
        chaos.delivered,
        s0.sw.received + s1.sw.received - uplink_rx[0] - uplink_rx[1],
        "chaos deliveries and ToR receptions disagree"
    );
    let sum = |f: fn(&flexsfp_host::SwitchStats) -> u64| f(&s0.sw) + f(&s1.sw);
    let rack_sources = chaos.delivered + sum(|s| s.flood_copies) + sum(|s| s.module_copies);
    let rack_sinks = delivered_access
        + sum(|s| s.dropped_by_modules)
        + sum(|s| s.diverted_by_modules)
        + sum(|s| s.to_control)
        + sum(|s| s.absorbed_by_modules)
        + sum(|s| s.dropped_malformed)
        + sum(|s| s.filtered_hairpin)
        + s0.crosspoint_dropped
        + s1.crosspoint_dropped;
    assert_eq!(rack_sources, rack_sinks, "rack-level conservation leaked");
    let conserved = true; // the asserts above are the proof

    // Telemetry: merge the queue-latency histograms, scrape everything
    // through one collector.
    let mut queue_latency = LatencyHistogram::new();
    queue_latency.merge(tors[0].queue_latency());
    queue_latency.merge(tors[1].queue_latency());
    let queue_p999_ns = queue_latency.p999();

    let mut collector = FleetCollector::new();
    let mut modules = 0u64;
    for (i, tor) in tors.iter_mut().enumerate() {
        let snaps = tor.module_snapshots();
        modules += snaps.len() as u64;
        collector.ingest_all(snaps);
        let id = format!("tor{i}");
        collector.set_xbar_stats(&id, tor.telemetry());
    }
    let prom = collector.render_prometheus();
    let xbar_samples = prom
        .lines()
        .filter(|l| l.starts_with("flexsfp_xbar_"))
        .count() as u64;

    let (t0, t1) = (tors[0].telemetry(), tors[1].telemetry());
    let healthy = conserved && queue_p999_ns <= P999_BOUND_NS && xbar_samples > 0;
    Outcome {
        packets: emitted,
        hosts: HOSTS as u64,
        modules,
        link_offered: chaos.offered,
        link_delivered: chaos.delivered,
        link_dropped: chaos.dropped,
        link_duplicated: chaos.duplicated,
        link_corrupted: chaos.corrupted,
        uplink_ab: uplink_tx[0],
        uplink_ba: uplink_tx[1],
        delivered_access,
        flooded: sum(|s| s.flooded),
        flood_copies: sum(|s| s.flood_copies),
        module_copies: sum(|s| s.module_copies),
        dropped_by_modules: sum(|s| s.dropped_by_modules),
        diverted_by_modules: sum(|s| s.diverted_by_modules),
        to_control: sum(|s| s.to_control),
        absorbed_by_modules: sum(|s| s.absorbed_by_modules),
        dropped_malformed: sum(|s| s.dropped_malformed),
        filtered_hairpin: sum(|s| s.filtered_hairpin),
        crosspoint_dropped: s0.crosspoint_dropped + s1.crosspoint_dropped,
        crosspoint_high_water: t0.high_water.max(t1.high_water),
        queue_p999_ns,
        p999_bound_ns: P999_BOUND_NS,
        xbar_samples,
        conserved,
        healthy,
        host: host_meta(),
    }
}

/// Human-readable report: topology, chaos, conservation, the gate.
pub fn render(o: &Outcome) -> String {
    let rows = vec![vec![
        render::grouped(o.packets),
        render::grouped(o.delivered_access),
        render::grouped(o.link_dropped),
        render::grouped(o.dropped_by_modules),
        render::grouped(o.crosspoint_dropped),
        o.crosspoint_high_water.to_string(),
        render::grouped(o.queue_p999_ns),
        render::grouped(o.xbar_samples),
        if o.conserved { "exact" } else { "LEAKED" }.to_string(),
        if o.healthy { "yes" } else { "NO" }.to_string(),
    ]];
    format!(
        "rack: 2×{}-port crosspoint-queued ToRs, {} hosts, {} FlexSFP modules, \
         lossy access spans (p99.9 queue bound {} ns)\n\
         uplink: {} frames ToR0→ToR1, {} ToR1→ToR0, {} floods, {} flood copies\n\
         host: {} cores, {}\n{}",
        TOR_PORTS,
        o.hosts,
        o.modules,
        o.p999_bound_ns,
        render::grouped(o.uplink_ab),
        render::grouped(o.uplink_ba),
        render::grouped(o.flooded),
        render::grouped(o.flood_copies),
        o.host.cores,
        o.host.cpu_model,
        render::table(
            &[
                "packets",
                "delivered",
                "link drop",
                "module drop",
                "xpoint drop",
                "xpoint hw",
                "queue p99.9 ns",
                "xbar samples",
                "conservation",
                "healthy",
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_obs::json::{FromJson, ToJson, Value};

    #[test]
    fn quick_rack_is_healthy_and_conserved() {
        let o = run(6_000);
        assert!(o.conserved);
        assert!(o.healthy, "rack unhealthy: {o:?}");
        assert_eq!(o.hosts, 94);
        assert_eq!(o.modules, 2 * (ACCESS - 1) as u64 + 2);
        assert!(o.modules >= 64, "rack must seat ≥64 modules");
        assert!(o.link_dropped > 0, "the chaos plan must actually bite");
        assert!(o.link_duplicated > 0);
        assert!(o.dropped_malformed > 0, "runts must hit the bridge path");
        assert!(o.dropped_by_modules > 0, "uplink ACL must deny some flows");
        assert!(o.uplink_ab > 0 && o.uplink_ba > 0);
        assert!(o.flood_copies > 0, "warm-up must flood");
        assert!(o.xbar_samples > 0, "collector must export flexsfp_xbar_*");
        assert!(o.queue_p999_ns <= o.p999_bound_ns);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = run(2_000);
        let text = o.to_json().to_string_pretty();
        let back = Outcome::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn render_names_the_verdict() {
        let o = run(2_000);
        let s = render(&o);
        assert!(s.contains("rack"));
        assert!(s.contains("conservation"));
        assert!(s.contains(if o.healthy { "yes" } else { "NO" }));
    }
}
