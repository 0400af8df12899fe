//! §6 "Latency overhead": FlexSFP vs SmartNIC vs host CPU, and the
//! early-enforcement payoff.
//!
//! The paper asks "which practical impact of introducing processing
//! within the SFP, and when is the trade-off between added latency and
//! early enforcement justified?" This experiment answers both halves:
//!
//! 1. **Added latency** — the same filtering workload through the three
//!    placements, reporting mean / p99 / max;
//! 2. **Early enforcement** — with X % of traffic destined to be
//!    dropped, enforcement at the cable saves the downstream link and
//!    host resources that late enforcement wastes carrying doomed
//!    packets.

use flexsfp_host::baselines::ProcessingPath;
use flexsfp_traffic::{LineRateCalc, SizeModel, TraceBuilder};
use flexsfp_wire::PacketArena;

/// Latency of one placement.
#[derive(Debug, Clone)]
pub(crate) struct PlacementLatency {
    /// Placement name.
    pub placement: String,
    /// Mean, ns.
    pub mean_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Max, ns.
    pub max_ns: f64,
}

flexsfp_obs::impl_json_struct!(PlacementLatency {
    placement,
    mean_ns,
    p99_ns,
    max_ns
});

/// Early-enforcement accounting for one placement.
#[derive(Debug, Clone)]
pub(crate) struct EnforcementRow {
    /// Placement name.
    pub placement: String,
    /// Bytes of doomed traffic carried over the downstream link before
    /// being dropped.
    pub wasted_downstream_bytes: u64,
    /// Fraction of downstream capacity wasted.
    pub wasted_share: f64,
}

flexsfp_obs::impl_json_struct!(EnforcementRow {
    placement,
    wasted_downstream_bytes,
    wasted_share
});

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Latency comparison at moderate load.
    latency: Vec<PlacementLatency>,
    /// Early-enforcement comparison (20 % of traffic blocked).
    enforcement: Vec<EnforcementRow>,
    /// Blocked fraction used.
    pub blocked_fraction: f64,
    /// Offered load where each placement saturates (fraction of 10G
    /// line rate at 64 B frames), derived from service times.
    pub saturation_load: Vec<(String, f64)>,
}

flexsfp_obs::impl_json_struct!(Report {
    latency,
    enforcement,
    blocked_fraction,
    saturation_load
});

/// Run the comparison (`n` packets).
pub fn run(n: usize) -> Report {
    // A 5%-of-line-rate filtering workload (744 kpps of 64 B frames) —
    // below every placement's saturation point, so the comparison
    // isolates *path* latency. (At 64 B the host-CPU path saturates
    // around 9% of 10G line rate; the FlexSFP runs to 100%.)
    // Only arrival times and byte totals are needed downstream, so the
    // trace streams through one recycled arena buffer instead of being
    // materialized.
    let arena = PacketArena::new();
    let mut arrivals: Vec<u64> = Vec::with_capacity(n);
    let mut total_bytes: u64 = 0;
    for p in TraceBuilder::new(0x6a7)
        .sizes(SizeModel::Fixed(60))
        .arrivals(flexsfp_traffic::gen::ArrivalModel::Poisson { utilization: 0.05 })
        .stream_pooled(n, arena.clone())
    {
        arrivals.push(p.arrival_ns);
        total_bytes += p.frame.len() as u64;
        arena.recycle(p.frame);
    }

    // The three placements are independent servers over the same arrival
    // sequence.
    let latency = [
        ProcessingPath::flexsfp(1),
        ProcessingPath::smartnic(1),
        ProcessingPath::host_cpu(1),
    ]
    .into_iter()
    .map(|mut path| {
        let name = path.name;
        let stats = path.run(&arrivals);
        PlacementLatency {
            placement: name.into(),
            mean_ns: stats.mean_ns(),
            p99_ns: stats.quantile_ns(0.99),
            max_ns: stats.max_ns(),
        }
    })
    .collect();

    // Early enforcement: 20% of traffic is policy-blocked. At the cable
    // the doomed bytes never touch the downstream link; at the NIC they
    // cross the link once; on the host CPU they cross the link AND the
    // PCIe/memory path (counted as the same wasted link bytes here —
    // the host additionally burns cycles, visible in the latency rows).
    let blocked_fraction = 0.20;
    let doomed_bytes = (total_bytes as f64 * blocked_fraction) as u64;
    let span_ns = arrivals.last().copied().unwrap_or(1).max(1);
    let link_capacity_bytes =
        (LineRateCalc::TEN_GIG.rate_bps as f64 / 8.0 * span_ns as f64 / 1e9) as u64;
    let enforcement = vec![
        EnforcementRow {
            placement: "FlexSFP (drop at cable)".into(),
            wasted_downstream_bytes: 0,
            wasted_share: 0.0,
        },
        EnforcementRow {
            placement: "SmartNIC (drop at NIC)".into(),
            wasted_downstream_bytes: doomed_bytes,
            wasted_share: doomed_bytes as f64 / link_capacity_bytes as f64,
        },
        EnforcementRow {
            placement: "Host CPU (drop in kernel)".into(),
            wasted_downstream_bytes: doomed_bytes,
            wasted_share: doomed_bytes as f64 / link_capacity_bytes as f64,
        },
    ];
    // Saturation: a placement saturates when arrivals outpace its
    // per-packet service time. 64 B @ 10G arrives every 67.2 ns.
    let saturation = |service_ns: f64| (67.2 / service_ns).min(1.0);
    let saturation_load = vec![
        ("FlexSFP (in-cable)".to_string(), saturation(51.2)),
        ("SmartNIC".to_string(), saturation(45.0)),
        ("Host CPU".to_string(), saturation(770.0)),
    ];
    Report {
        latency,
        enforcement,
        blocked_fraction,
        saturation_load,
    }
}

/// Render both halves.
pub fn render(r: &Report) -> String {
    let latency_rows: Vec<Vec<String>> = r
        .latency
        .iter()
        .map(|p| {
            vec![
                p.placement.clone(),
                format!("{:.0}", p.mean_ns),
                format!("{:.0}", p.p99_ns),
                format!("{:.0}", p.max_ns),
            ]
        })
        .collect();
    let enf_rows: Vec<Vec<String>> = r
        .enforcement
        .iter()
        .map(|p| {
            vec![
                p.placement.clone(),
                p.wasted_downstream_bytes.to_string(),
                format!("{:.2}%", p.wasted_share * 100.0),
            ]
        })
        .collect();
    let sat_rows: Vec<Vec<String>> = r
        .saturation_load
        .iter()
        .map(|(name, load)| vec![name.clone(), format!("{:.0}%", load * 100.0)])
        .collect();
    format!(
        "S6 latency vs placement (64B filtering workload @ 5% of 10G, below all saturation points)\n{}\nSaturation load (64 B frames, fraction of 10G line rate)\n{}\nEarly enforcement ({:.0}% of traffic blocked): downstream bytes wasted carrying doomed packets\n{}",
        crate::render::table(&["Placement", "Mean ns", "p99 ns", "Max ns"], &latency_rows),
        crate::render::table(&["Placement", "Saturates at"], &sat_rows),
        r.blocked_fraction * 100.0,
        crate::render::table(&["Placement", "Wasted bytes", "Link share"], &enf_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_holds() {
        let r = run(10_000);
        assert_eq!(r.latency.len(), 3);
        let flex = &r.latency[0];
        let nic = &r.latency[1];
        let host = &r.latency[2];
        // Sub-microsecond vs microseconds vs tens of microseconds.
        assert!(flex.mean_ns < 1_000.0, "{flex:?}");
        assert!(nic.mean_ns > 3_000.0 && nic.mean_ns < 10_000.0, "{nic:?}");
        assert!(
            host.mean_ns > 25_000.0 && host.mean_ns < 100_000.0,
            "{host:?}"
        );
        // The host tail is the pathology the paper motivates with.
        assert!(host.p99_ns > 1.8 * host.mean_ns, "{host:?}");
        assert!(flex.p99_ns < 1_000.0);
    }

    #[test]
    fn early_enforcement_saves_the_link() {
        let r = run(5_000);
        assert_eq!(r.enforcement[0].wasted_downstream_bytes, 0);
        assert!(r.enforcement[1].wasted_downstream_bytes > 0);
        assert_eq!(
            r.enforcement[1].wasted_downstream_bytes,
            r.enforcement[2].wasted_downstream_bytes
        );
        // At 5% load with 20% blocked, ~0.7% of the link is wasted by
        // late enforcement (scales linearly with load).
        assert!(
            (0.004..0.02).contains(&r.enforcement[1].wasted_share),
            "{r:?}"
        );
    }

    #[test]
    fn render_sections() {
        let text = render(&run(2_000));
        assert!(text.contains("FlexSFP"));
        assert!(text.contains("Host CPU"));
        assert!(text.contains("Early enforcement"));
        assert!(text.contains("Saturation load"));
    }
}
