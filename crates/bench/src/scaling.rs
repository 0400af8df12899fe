//! §5.3 scalability: from 10 G to 100 G.
//!
//! "This is typically achieved by adjusting the width of the internal
//! datapath (e.g., from 64-bit to 512-bit or wider) and/or raising the
//! clock frequency … Both adjustments require a more powerful FPGA,
//! which in turn leads to three main constraints: physical size, power
//! consumption, and thermal dissipation." The sweep evaluates every
//! (width × clock) pair for sustainable line rate, estimated module
//! power for a NAT-class design, and whether the result still fits an
//! SFP+-class power envelope or needs a bigger form factor.

use flexsfp_fabric::power::{PowerClass, PowerModel};
use flexsfp_fabric::resources::table1;
use flexsfp_fabric::stream::{BusWidth, DatapathConfig};
use flexsfp_fabric::ClockDomain;

/// One (width, clock) design point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Datapath width, bits.
    pub width_bits: u32,
    /// Clock, MHz.
    pub clock_mhz: f64,
    /// Raw bus bandwidth, Gb/s.
    pub bus_gbps: f64,
    /// Highest standard line rate sustained at 64 B frames (Gb/s).
    pub max_line_rate_gbps: u32,
    /// Estimated module power, W (NAT-class design, 2 lanes, stress).
    pub power_w: f64,
    /// SFP+ power class, or None (needs QSFP/OSFP envelope).
    pub power_class: Option<String>,
}

flexsfp_obs::impl_json_struct!(Point {
    width_bits,
    clock_mhz,
    bus_gbps,
    max_line_rate_gbps,
    power_w,
    power_class
});

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// All sweep points.
    pub points: Vec<Point>,
}

flexsfp_obs::impl_json_struct!(Report { points });

/// Standard line rates probed, Gb/s.
const LINE_RATES: [u32; 4] = [10, 25, 40, 100];

fn estimate_power(width: BusWidth, clock: ClockDomain) -> f64 {
    // Wider datapaths replicate the processing logic across the bus:
    // active units scale with width; interface/Mi-V overheads scale
    // sublinearly (shared control).
    let width_factor = f64::from(width.bits()) / 64.0;
    let scale = |v: u64| (v as f64 * width_factor) as u64;
    let design = flexsfp_fabric::resources::ResourceManifest::new(
        scale(table1::NAT_APP.lut4) + table1::MI_V.lut4 + 2 * table1::ELECTRICAL_IF.lut4,
        scale(table1::NAT_APP.ff) + table1::MI_V.ff + 2 * table1::ELECTRICAL_IF.ff,
        scale(table1::NAT_APP.usram) + table1::MI_V.usram + 2 * table1::ELECTRICAL_IF.usram,
        scale(table1::NAT_APP.lsram) + table1::MI_V.lsram,
    );
    // Faster line rates also mean faster SerDes: lane power scales
    // roughly with line rate (width_factor here).
    let model = PowerModel {
        serdes_lane_w: PowerModel::flexsfp_prototype().serdes_lane_w * width_factor,
        ..PowerModel::flexsfp_prototype()
    };
    model.power(&design, clock, 2, 1.0, 1.0).total_w()
}

/// Run the sweep over the (width × clock) points.
pub fn run() -> Report {
    let clocks = [ClockDomain::XGMII_10G, ClockDomain::XGMII_10G_X2];
    let pairs = BusWidth::all()
        .into_iter()
        .flat_map(|width| clocks.into_iter().map(move |clock| (width, clock)));
    let points = pairs.map(|(width, clock)| {
        let cfg = DatapathConfig { width, clock };
        // Line rate must hold across the whole frame-size range:
        // small frames stress packet rate, large frames stress raw
        // bus bandwidth (the padded final beat).
        let max_rate = LINE_RATES
            .iter()
            .rev()
            .find(|&&g| {
                let bps = u64::from(g) * 1_000_000_000;
                cfg.sustains_line_rate(bps, 64) && cfg.sustains_line_rate(bps, 1518)
            })
            .copied()
            .unwrap_or(0);
        let power_w = estimate_power(width, clock);
        Point {
            width_bits: width.bits(),
            clock_mhz: clock.mhz(),
            bus_gbps: cfg.bandwidth_bps() as f64 / 1e9,
            max_line_rate_gbps: max_rate,
            power_w,
            power_class: PowerClass::classify(power_w).map(|c| format!("{c:?}")),
        }
    });
    Report {
        points: points.collect(),
    }
}

/// Render the sweep.
pub fn render(r: &Report) -> String {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.width_bits.to_string(),
                format!("{:.2}", p.clock_mhz),
                format!("{:.1}", p.bus_gbps),
                format!("{} G", p.max_line_rate_gbps),
                format!("{:.2}", p.power_w),
                p.power_class.clone().unwrap_or_else(|| "QSFP/OSFP".into()),
            ]
        })
        .collect();
    format!(
        "S5.3 scaling: datapath width x clock -> sustainable line rate and power envelope\n{}",
        crate::render::table(
            &[
                "Width b",
                "Clock MHz",
                "Bus Gb/s",
                "Line rate",
                "Power W",
                "Envelope"
            ],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(r: &Report, w: u32, mhz: f64) -> &Point {
        r.points
            .iter()
            .find(|p| p.width_bits == w && (p.clock_mhz - mhz).abs() < 0.1)
            .unwrap()
    }

    #[test]
    fn prototype_point_sustains_exactly_10g() {
        let r = run();
        let p = point(&r, 64, 156.25);
        assert_eq!(p.max_line_rate_gbps, 10);
        assert!((p.bus_gbps - 10.0).abs() < 1e-9);
        // And it is the paper's ~1.5 W point.
        assert!((p.power_w - 1.52).abs() < 0.05, "{}", p.power_w);
    }

    #[test]
    fn hundred_gig_needs_512b() {
        let r = run();
        assert!(point(&r, 512, 312.5).max_line_rate_gbps >= 100);
        assert!(point(&r, 256, 156.25).max_line_rate_gbps < 100);
        // 256 b @ 312.5 MHz sustains 40 G but not 100 G.
        let p = point(&r, 256, 312.5);
        assert!(p.max_line_rate_gbps >= 40 && p.max_line_rate_gbps < 100);
    }

    #[test]
    fn power_grows_with_width_and_clock() {
        let r = run();
        let base = point(&r, 64, 156.25).power_w;
        assert!(point(&r, 64, 312.5).power_w > base);
        assert!(point(&r, 512, 156.25).power_w > point(&r, 128, 156.25).power_w);
        // The 100 G point busts the SFP+ envelope — the §5.3 "larger
        // form factors like QSFP and OSFP" observation.
        let hundred = point(&r, 512, 312.5);
        assert!(
            hundred.power_class.is_none() || hundred.power_w > 2.0,
            "{hundred:?}"
        );
    }

    #[test]
    fn prototype_stays_in_sfp_class() {
        let r = run();
        let p = point(&r, 64, 156.25);
        assert!(p.power_class.is_some(), "{p:?}");
    }

    #[test]
    fn render_has_all_points() {
        let text = render(&run());
        assert!(text.contains("512"));
        assert!(text.contains("100 G"));
    }
}
