//! The three architecture shells of Figure 1.
//!
//! A shell is the fixed plumbing around the PPE: where the demux/merge
//! blocks sit, which directions traverse the PPE, and whether the
//! control plane is a passive manager or an active traffic endpoint.

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::Direction;

/// Architecture shell selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShellKind {
    /// Figure 1a: the PPE sits on one direction only; the reverse path
    /// merely merges control-plane traffic back in. The paper's default
    /// places it edge→optical, but either placement is legal (§4.1).
    OneWayFilter {
        /// The direction that traverses the PPE.
        ppe_direction: Direction,
    },
    /// Figure 1b: both directions aggregate into one shared PPE, which
    /// therefore sees up to twice the packet rate; the mitigation is a
    /// faster PPE clock.
    TwoWayCore,
    /// The third model of §4.1: Two-Way-Core plumbing plus a control
    /// plane with its own network interface that can originate and
    /// terminate traffic (the "self-contained microservice node").
    ActiveControlPlane,
}

impl ShellKind {
    /// The paper's default One-Way-Filter (PPE on the egress path).
    pub fn one_way_egress() -> ShellKind {
        ShellKind::OneWayFilter {
            ppe_direction: Direction::EdgeToOptical,
        }
    }

    /// Does traffic in `dir` traverse the PPE?
    pub fn ppe_applies(&self, dir: Direction) -> bool {
        match self {
            ShellKind::OneWayFilter { ppe_direction } => dir == *ppe_direction,
            ShellKind::TwoWayCore | ShellKind::ActiveControlPlane => true,
        }
    }

    /// Can the control plane originate its own traffic?
    pub fn control_plane_active(&self) -> bool {
        matches!(self, ShellKind::ActiveControlPlane)
    }

    /// Fabric overhead of the shell plumbing itself (mux/demux,
    /// aggregator, per-direction FIFOs). The Two-Way-Core costs more
    /// than the One-Way-Filter, "but the increase is not linear" —
    /// shared components mitigate the growth (§4.1).
    pub fn overhead_manifest(&self) -> ResourceManifest {
        match self {
            ShellKind::OneWayFilter { .. } => ResourceManifest::new(900, 1_200, 4, 0),
            ShellKind::TwoWayCore => ResourceManifest::new(1_450, 1_900, 8, 0),
            ShellKind::ActiveControlPlane => ResourceManifest::new(2_100, 2_600, 12, 0),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ShellKind::OneWayFilter { .. } => "One-Way-Filter",
            ShellKind::TwoWayCore => "Two-Way-Core",
            ShellKind::ActiveControlPlane => "Active-Control-Plane",
        }
    }
}

/// The two classes of embedded control plane the paper identifies
/// (§4.1, "Control Plane Considerations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPlaneClass {
    /// "Softcore-based designs, which embed minimal RISC-V or MIPS CPUs
    /// as logic blocks within the FPGA fabric, programmed with
    /// lightweight OSes like FreeRTOS or Zephyr" — the prototype's Mi-V.
    Softcore,
    /// "SoC-based designs, which embed full-featured ARM (or RISC-V)
    /// hard processors alongside the dataplane logic … standard OSes
    /// like Linux … more expensive and power-hungry."
    Soc,
}

impl ControlPlaneClass {
    /// Fabric resources the control plane consumes. The softcore is
    /// fabric logic (the Table 1 Mi-V row); a hard SoC lives next to
    /// the fabric and consumes none of it.
    pub fn manifest(&self) -> ResourceManifest {
        match self {
            ControlPlaneClass::Softcore => flexsfp_fabric::resources::table1::MI_V,
            ControlPlaneClass::Soc => ResourceManifest::ZERO,
        }
    }

    /// Additional board power beyond the fabric model, W. The softcore's
    /// power is already inside the fabric-dynamic term; a hard ARM SoC
    /// running Linux adds watts of its own.
    pub fn extra_power_w(&self) -> f64 {
        match self {
            ControlPlaneClass::Softcore => 0.0,
            ControlPlaneClass::Soc => 1.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_applies_to_one_direction() {
        let s = ShellKind::one_way_egress();
        assert!(s.ppe_applies(Direction::EdgeToOptical));
        assert!(!s.ppe_applies(Direction::OpticalToEdge));
        assert!(!s.control_plane_active());
    }

    #[test]
    fn reverse_one_way_placement() {
        let s = ShellKind::OneWayFilter {
            ppe_direction: Direction::OpticalToEdge,
        };
        assert!(!s.ppe_applies(Direction::EdgeToOptical));
        assert!(s.ppe_applies(Direction::OpticalToEdge));
    }

    #[test]
    fn two_way_applies_everywhere() {
        for s in [ShellKind::TwoWayCore, ShellKind::ActiveControlPlane] {
            assert!(s.ppe_applies(Direction::EdgeToOptical));
            assert!(s.ppe_applies(Direction::OpticalToEdge));
        }
        assert!(ShellKind::ActiveControlPlane.control_plane_active());
        assert!(!ShellKind::TwoWayCore.control_plane_active());
    }

    #[test]
    fn overhead_grows_sublinearly() {
        let one = ShellKind::one_way_egress().overhead_manifest();
        let two = ShellKind::TwoWayCore.overhead_manifest();
        // More than 1×, less than 2× — "the increase is not linear".
        assert!(two.lut4 > one.lut4);
        assert!(two.lut4 < 2 * one.lut4);
        assert!(two.ff < 2 * one.ff);
    }

    #[test]
    fn names() {
        assert_eq!(ShellKind::one_way_egress().name(), "One-Way-Filter");
        assert_eq!(ShellKind::TwoWayCore.name(), "Two-Way-Core");
        assert_eq!(ShellKind::ActiveControlPlane.name(), "Active-Control-Plane");
    }

    #[test]
    fn softcore_uses_fabric_soc_uses_watts() {
        let soft = ControlPlaneClass::Softcore;
        let soc = ControlPlaneClass::Soc;
        // The softcore is the Table 1 Mi-V row; the SoC burns no LUTs.
        assert_eq!(soft.manifest().lut4, 8_696);
        assert_eq!(soc.manifest(), ResourceManifest::ZERO);
        // Power goes the other way.
        assert_eq!(soft.extra_power_w(), 0.0);
        assert!(soc.extra_power_w() > 1.0);
    }
}
