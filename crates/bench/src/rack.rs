//! Rack-scale crossbar workload (`experiments rack`).
//!
//! A [`Rack`] of two 48-port crosspoint-queued ToRs joined by an
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
//! * **exact packet conservation** — [`Rack::conserved`], the rack's
//!   composed identity, must close once the rack is quiet. No leaks,
//!   per copy, under loss;
//! * **an SLO gate on queue-induced latency** — the two ToRs'
//!   enqueue→grant histograms merge and the p99.9 must stay under
//!   `P999_BOUND_NS`;
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
use flexsfp_core::module::{FlexSfp, ModuleConfig};
use flexsfp_core::ShellKind;
use flexsfp_host::rack::{HostSpan, Rack, Topology, Uplink};
use flexsfp_host::{CrossbarStats, CrossbarSwitch, FaultPlan, FiberLink, FleetCollector};
use flexsfp_obs::LatencyHistogram;
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::profiles;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;

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
pub(crate) const P999_BOUND_NS: u64 = 150_000;

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

/// The rack as a value: two ToRs, [`HOSTS`] hosts behind seeded lossy
/// access spans (host `h` on port `h % ACCESS` of ToR `h / ACCESS`),
/// and one uplink joining the two [`UPLINK`] ports.
fn topology() -> Topology {
    let span = |h: usize| HostSpan {
        link: FiberLink::new(ACCESS_M).impaired(
            FaultPlan::ideal(SEED ^ (h as u64).wrapping_mul(0x51ed))
                .with_drop(0.01)
                .with_duplicate(0.005)
                .with_corrupt(0.005)
                .with_jitter(200),
        ),
        tor: h / ACCESS,
        port: h % ACCESS,
    };
    Topology {
        tors: vec![build_tor(0), build_tor(1)],
        hosts: (0..HOSTS).map(span).collect(),
        uplinks: vec![Uplink {
            a: (0, UPLINK),
            b: (1, UPLINK),
            link: FiberLink::new(UPLINK_M),
        }],
    }
}

/// Run the rack workload over `packets` main-phase trace slots.
///
/// # Panics
///
/// Panics if any conservation identity fails to close
/// ([`Rack::run_to_quiescence`]) — a leak is a correctness failure, not
/// a verdict. An SLO breach or missing telemetry makes the returned
/// [`Outcome`] unhealthy (and the CLI exit nonzero) without panicking.
pub fn run(packets: usize) -> Outcome {
    let mut rack = drive(packets);
    let stats = rack.stats();
    let conserved = rack.conserved();

    // Telemetry: merge the queue-latency histograms, scrape everything
    // through one collector.
    let mut queue_latency = LatencyHistogram::new();
    for tor in rack.tors() {
        queue_latency.merge(tor.queue_latency());
    }
    let queue_p999_ns = queue_latency.p999();
    let high_water = rack.tors().iter().map(|t| t.telemetry().high_water);
    let crosspoint_high_water = high_water.max().unwrap_or(0);

    let mut collector = FleetCollector::new();
    rack.scrape(&mut collector);
    let prom = collector.render_prometheus();
    let xbar_samples = prom
        .lines()
        .filter(|l| l.starts_with("flexsfp_xbar_"))
        .count() as u64;

    let sum = |f: fn(&CrossbarStats) -> u64| stats.tors.iter().map(f).sum::<u64>();
    let healthy = conserved && queue_p999_ns <= P999_BOUND_NS && xbar_samples > 0;
    Outcome {
        packets: stats.emitted,
        hosts: HOSTS as u64,
        modules: collector.len() as u64,
        link_offered: stats.links.offered,
        link_delivered: stats.links.delivered,
        link_dropped: stats.links.dropped,
        link_duplicated: stats.links.duplicated,
        link_corrupted: stats.links.corrupted,
        uplink_ab: stats.uplink_tx[0][0],
        uplink_ba: stats.uplink_tx[0][1],
        delivered_access: stats.delivered_access,
        flooded: sum(|s| s.sw.flooded),
        flood_copies: sum(|s| s.sw.flood_copies),
        module_copies: sum(|s| s.sw.module_copies),
        dropped_by_modules: sum(|s| s.sw.dropped_by_modules),
        diverted_by_modules: sum(|s| s.sw.diverted_by_modules),
        to_control: sum(|s| s.sw.to_control),
        absorbed_by_modules: sum(|s| s.sw.absorbed_by_modules),
        dropped_malformed: sum(|s| s.sw.dropped_malformed),
        filtered_hairpin: sum(|s| s.sw.filtered_hairpin),
        crosspoint_dropped: sum(|s| s.crosspoint_dropped),
        crosspoint_high_water,
        queue_p999_ns,
        p999_bound_ns: P999_BOUND_NS,
        xbar_samples,
        conserved,
        healthy,
        host: host_meta(),
    }
}

/// The rack [`run`] judges: its traffic over `packets` main-phase trace
/// slots, drained to quiescence, not yet scraped.
///
/// # Panics
///
/// As [`run`], when a conservation identity fails to close.
pub fn drive(packets: usize) -> Rack {
    let mut rack = Rack::new(topology());

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
        rack.emit(h, h as u64 * WARMUP_SPACING_NS, frame);
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
            rack.emit(tor * ACCESS, t_ns, vec![0x55; 7]);
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
        rack.emit(src_host, t_ns, frame);
    }

    // The rack orders the arrivals and the uplink hand-offs, drains to
    // quiescence and asserts its composed identity there.
    rack.run_to_quiescence(|_, _| {});
    rack
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
