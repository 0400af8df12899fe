//! Figure 1: the three architecture shells, exercised.
//!
//! The paper's figure is a block diagram; the testable content behind it
//! is (a) which directions traverse the PPE, (b) the Two-Way-Core's
//! doubled processing load and its clock mitigation, and (c) the
//! control-plane demux. This experiment drives every shell with
//! unidirectional and bidirectional line-rate minimum-frame traffic and
//! reports delivery, loss and latency — the series a figure would plot.

use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp_core::ShellKind;
use flexsfp_fabric::ClockDomain;
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::Direction;
use flexsfp_traffic::{LineRateCalc, SizeModel, TraceBuilder};

/// One measured operating point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Shell name.
    pub shell: String,
    /// PPE clock, MHz.
    pub ppe_mhz: f64,
    /// "uni" or "bidir".
    pub load: String,
    /// Offered packets.
    pub offered: u64,
    /// Delivered fraction.
    pub delivery: f64,
    /// FIFO-overflow drops.
    pub fifo_drops: u64,
    /// Mean latency, ns.
    pub mean_latency_ns: f64,
    /// Max latency, ns.
    pub max_latency_ns: f64,
}

flexsfp_obs::impl_json_struct!(Point {
    shell,
    ppe_mhz,
    load,
    offered,
    delivery,
    fifo_drops,
    mean_latency_ns,
    max_latency_ns
});

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// All measured points.
    pub points: Vec<Point>,
}

flexsfp_obs::impl_json_struct!(Report { points });

fn trace(bidir: bool, n: usize) -> Vec<SimPacket> {
    let packets = TraceBuilder::new(0xf1)
        .sizes(SizeModel::Fixed(60))
        .arrivals(flexsfp_traffic::gen::ArrivalModel::Paced { utilization: 1.0 })
        .rate(LineRateCalc::TEN_GIG)
        .build(n);
    let mut out = Vec::with_capacity(if bidir { 2 * n } else { n });
    for p in packets {
        out.push(SimPacket {
            arrival_ns: p.arrival_ns,
            direction: Direction::EdgeToOptical,
            frame: p.frame.clone(),
        });
        if bidir {
            out.push(SimPacket {
                arrival_ns: p.arrival_ns,
                direction: Direction::OpticalToEdge,
                frame: p.frame,
            });
        }
    }
    out.sort_by_key(|p| p.arrival_ns);
    out
}

fn measure(shell: ShellKind, ppe_clock: ClockDomain, bidir: bool, n: usize) -> Point {
    let mut module = FlexSfp::new(
        ModuleConfig {
            shell,
            ppe_clock,
            ..Default::default()
        },
        Box::new(PassThrough),
    );
    let report = module.run(trace(bidir, n));
    Point {
        shell: shell.name().into(),
        ppe_mhz: ppe_clock.mhz(),
        load: if bidir { "bidir" } else { "uni" }.into(),
        offered: report.offered,
        delivery: report.delivery_ratio(),
        fifo_drops: report.drops.fifo_overflow,
        mean_latency_ns: report.latency.mean_ns(),
        max_latency_ns: report.latency.max_ns(),
    }
}

/// Run the shell comparison (`n` packets per direction per point).
pub fn run(n: usize) -> Report {
    let one_way = ShellKind::one_way_egress();
    let points = vec![
        measure(one_way, ClockDomain::XGMII_10G, false, n),
        measure(one_way, ClockDomain::XGMII_10G, true, n),
        measure(ShellKind::TwoWayCore, ClockDomain::XGMII_10G, true, n),
        measure(ShellKind::TwoWayCore, ClockDomain::XGMII_10G_X2, true, n),
        measure(
            ShellKind::ActiveControlPlane,
            ClockDomain::XGMII_10G_X2,
            true,
            n,
        ),
    ];
    Report { points }
}

/// Render the series.
pub fn render(r: &Report) -> String {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.shell.clone(),
                format!("{:.2}", p.ppe_mhz),
                p.load.clone(),
                p.offered.to_string(),
                format!("{:.4}", p.delivery),
                p.fifo_drops.to_string(),
                format!("{:.0}", p.mean_latency_ns),
                format!("{:.0}", p.max_latency_ns),
            ]
        })
        .collect();
    format!(
        "Figure 1: architecture shells under line-rate 64B load (10G per direction)\n{}",
        crate::render::table(
            &[
                "Shell",
                "PPE MHz",
                "Load",
                "Offered",
                "Delivery",
                "FIFO drops",
                "Mean ns",
                "Max ns"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_behaviour_matches_paper() {
        let r = run(4_000);
        let by = |shell: &str, mhz: f64, load: &str| -> &Point {
            r.points
                .iter()
                .find(|p| p.shell == shell && (p.ppe_mhz - mhz).abs() < 0.1 && p.load == load)
                .unwrap()
        };
        // One-Way-Filter sustains both loads (reverse path bypasses).
        assert_eq!(by("One-Way-Filter", 156.25, "uni").delivery, 1.0);
        assert_eq!(by("One-Way-Filter", 156.25, "bidir").delivery, 1.0);
        // Two-Way-Core at 1× collapses under bidirectional load…
        let slow = by("Two-Way-Core", 156.25, "bidir");
        assert!(slow.delivery < 0.8, "delivery {}", slow.delivery);
        assert!(slow.fifo_drops > 0);
        // …and recovers fully at 2×.
        let fast = by("Two-Way-Core", 312.5, "bidir");
        assert_eq!(fast.delivery, 1.0);
        assert_eq!(fast.fifo_drops, 0);
        // Active control plane behaves like Two-Way-Core at 2×.
        assert_eq!(by("Active-Control-Plane", 312.5, "bidir").delivery, 1.0);
    }

    #[test]
    fn latency_ordering() {
        let r = run(2_000);
        // The overloaded point has far higher mean latency (queueing).
        let slow = r
            .points
            .iter()
            .find(|p| p.shell == "Two-Way-Core" && p.ppe_mhz < 200.0)
            .unwrap();
        let fast = r
            .points
            .iter()
            .find(|p| p.shell == "Two-Way-Core" && p.ppe_mhz > 200.0)
            .unwrap();
        assert!(slow.mean_latency_ns > 5.0 * fast.mean_latency_ns);
        // The unloaded shells transit in well under a microsecond.
        assert!(fast.max_latency_ns < 1_000.0);
    }

    #[test]
    fn render_mentions_every_shell() {
        let text = render(&run(500));
        for s in ["One-Way-Filter", "Two-Way-Core", "Active-Control-Plane"] {
            assert!(text.contains(s));
        }
    }
}
