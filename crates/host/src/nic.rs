//! The Thunderbolt 10 G NIC of the §5 power testbed.
//!
//! The paper's measurement rig is a single-port Thunderbolt NIC
//! (QNA-T310G1S-like) whose current draw is measured with (a) an empty
//! cage, (b) a standard SFP+ and (c) the FlexSFP, under line-rate
//! rx+tx stress. The NIC model contributes a constant baseline and
//! hosts whatever module sits in its cage.

use flexsfp_core::module::FlexSfp;
use flexsfp_fabric::power::PowerModel;
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_fabric::ClockDomain;

/// What occupies the NIC's cage.
pub(crate) enum CageState {
    /// Nothing inserted.
    Empty,
    /// A standard fixed-function SFP+.
    StandardSfp,
    /// A FlexSFP module.
    FlexSfp(Box<FlexSfp>),
}

/// The host NIC.
pub struct HostNic {
    /// Baseline power of the NIC electronics with an empty cage, W.
    /// Calibrated to the paper's measured 3.800 W.
    pub baseline_w: f64,
    /// Cage contents.
    cage: CageState,
}

impl Default for HostNic {
    fn default() -> Self {
        Self::new()
    }
}

impl HostNic {
    /// The testbed NIC with an empty cage.
    pub fn new() -> HostNic {
        HostNic {
            baseline_w: 3.800,
            cage: CageState::Empty,
        }
    }

    /// Insert a standard SFP+.
    pub fn insert_standard_sfp(&mut self) {
        self.cage = CageState::StandardSfp;
    }

    /// Insert a FlexSFP.
    pub fn insert_flexsfp(&mut self, module: FlexSfp) {
        self.cage = CageState::FlexSfp(Box::new(module));
    }

    /// Empty the cage.
    pub fn eject(&mut self) {
        self.cage = CageState::Empty;
    }

    /// Total measured power at `line_utilization` of bidirectional
    /// line-rate traffic (activity tracks utilization for the module's
    /// fabric).
    pub fn measure_power_w(&self, line_utilization: f64) -> f64 {
        let module_w = match &self.cage {
            CageState::Empty => 0.0,
            CageState::StandardSfp => PowerModel::standard_sfp()
                .power(
                    &ResourceManifest::ZERO,
                    ClockDomain::XGMII_10G,
                    0,
                    line_utilization,
                    0.0,
                )
                .total_w(),
            CageState::FlexSfp(m) => m.power(line_utilization, line_utilization).total_w(),
        };
        self.baseline_w + module_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cage_is_baseline() {
        let nic = HostNic::new();
        assert!((nic.measure_power_w(1.0) - 3.800).abs() < 1e-9);
        assert!((nic.measure_power_w(0.0) - 3.800).abs() < 1e-9);
    }

    #[test]
    fn standard_sfp_stress_point() {
        let mut nic = HostNic::new();
        nic.insert_standard_sfp();
        let w = nic.measure_power_w(1.0);
        assert!((w - 4.693).abs() < 0.01, "{w}");
    }

    #[test]
    fn flexsfp_stress_point() {
        let mut nic = HostNic::new();
        nic.insert_flexsfp(nat_module());
        let w = nic.measure_power_w(1.0);
        assert!((w - 5.320).abs() < 0.02, "{w}");
    }

    #[test]
    fn eject_restores_baseline() {
        let mut nic = HostNic::new();
        nic.insert_standard_sfp();
        nic.eject();
        assert!((nic.measure_power_w(1.0) - 3.800).abs() < 1e-9);
    }

    fn nat_module() -> FlexSfp {
        // The §5 measurement ran the NAT design.
        FlexSfp::new(
            flexsfp_core::module::ModuleConfig::default(),
            Box::new(flexsfp_apps::StaticNat::new()),
        )
    }
}
