//! The §5 power measurements.
//!
//! Reproduces the three-point testbed measurement and the derived
//! module-level numbers, plus the decomposed FlexSFP power breakdown the
//! paper's measurement could not see (the model's added value).

use flexsfp_apps::StaticNat;
use flexsfp_core::module::{FlexSfp, ModuleConfig};
use flexsfp_host::testbed::{PowerMeasurement, PowerTestbed};

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// NIC-level three-point measurement under stress.
    pub nic_only_w: f64,
    /// NIC + standard SFP.
    pub nic_with_sfp_w: f64,
    /// NIC + FlexSFP.
    pub nic_with_flexsfp_w: f64,
    /// Derived standard SFP power.
    pub sfp_w: f64,
    /// Derived FlexSFP power.
    pub flexsfp_w: f64,
    /// FPGA premium.
    pub premium_w: f64,
    /// FlexSFP breakdown at stress: optics/static/serdes/fabric.
    pub breakdown_w: (f64, f64, f64, f64),
    /// Idle FlexSFP power.
    pub flexsfp_idle_w: f64,
}

flexsfp_obs::impl_json_struct!(Report {
    nic_only_w,
    nic_with_sfp_w,
    nic_with_flexsfp_w,
    sfp_w,
    flexsfp_w,
    premium_w,
    breakdown_w,
    flexsfp_idle_w
});

/// Run the measurement.
pub fn run() -> Report {
    let m: PowerMeasurement = PowerTestbed::new().measure(1.0);
    let module = FlexSfp::new(ModuleConfig::default(), Box::new(StaticNat::new()));
    let busy = module.power(1.0, 1.0);
    let idle = module.power(0.0, 0.0);
    Report {
        nic_only_w: m.nic_only_w,
        nic_with_sfp_w: m.nic_with_sfp_w,
        nic_with_flexsfp_w: m.nic_with_flexsfp_w,
        sfp_w: m.sfp_w(),
        flexsfp_w: m.flexsfp_w(),
        premium_w: m.fpga_premium_w(),
        breakdown_w: (
            busy.optics_w,
            busy.fpga_static_w,
            busy.serdes_w,
            busy.fabric_dynamic_w,
        ),
        flexsfp_idle_w: idle.total_w(),
    }
}

/// Render the measurement in the paper's narrative order.
pub fn render(r: &Report) -> String {
    let rows = vec![
        vec!["NIC, empty cage".into(), format!("{:.3}", r.nic_only_w)],
        vec![
            "NIC + standard SFP (stress)".into(),
            format!("{:.3}", r.nic_with_sfp_w),
        ],
        vec![
            "NIC + FlexSFP (stress)".into(),
            format!("{:.3}", r.nic_with_flexsfp_w),
        ],
        vec!["-> standard SFP module".into(), format!("{:.3}", r.sfp_w)],
        vec!["-> FlexSFP module".into(), format!("{:.3}", r.flexsfp_w)],
        vec!["-> FPGA premium".into(), format!("{:.3}", r.premium_w)],
        vec!["FlexSFP idle".into(), format!("{:.3}", r.flexsfp_idle_w)],
    ];
    let (optics, statics, serdes, fabric) = r.breakdown_w;
    format!(
        "S5 power measurements (testbed simulation, line-rate stress)\n{}\nFlexSFP breakdown @ stress: optics {:.3} W, FPGA static {:.3} W, SerDes {:.3} W, fabric dynamic {:.3} W",
        crate::render::table(&["Operating point", "Watts"], &rows),
        optics,
        statics,
        serdes,
        fabric
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_numbers() {
        let r = run();
        assert!((r.nic_only_w - 3.800).abs() < 0.005);
        assert!((r.nic_with_sfp_w - 4.693).abs() < 0.01);
        assert!((r.nic_with_flexsfp_w - 5.320).abs() < 0.02);
        assert!((r.sfp_w - 0.9).abs() < 0.02);
        assert!((r.flexsfp_w - 1.5).abs() < 0.03);
        assert!((r.premium_w - 0.7).abs() < 0.08);
    }

    #[test]
    fn breakdown_sums_to_module_power() {
        let r = run();
        let (a, b, c, d) = r.breakdown_w;
        // NIC-attached FlexSFP power equals the module breakdown sum.
        assert!((a + b + c + d - r.flexsfp_w).abs() < 0.01);
    }

    #[test]
    fn idle_below_stress() {
        let r = run();
        assert!(r.flexsfp_idle_w < r.flexsfp_w);
        assert!(r.flexsfp_idle_w > 0.5); // static floor exists
    }

    #[test]
    fn render_has_all_points() {
        let text = render(&run());
        assert!(text.contains("3.800"));
        assert!(text.contains("4.69"));
        assert!(text.contains("5.3"));
        assert!(text.contains("fabric dynamic"));
    }
}
