//! FPGA resource accounting: 4-input LUTs, flip-flops, uSRAM and LSRAM
//! blocks, logic-element normalization and device fit checking.
//!
//! This module is the arithmetic engine behind the paper's Table 1
//! (per-component resource usage of the NAT case study on the MPF200T)
//! and Table 2 (normalizing published designs to 4-input logic-element
//! equivalents to judge whether they could fit a FlexSFP).

use std::ops::{Add, AddAssign};

/// Resource usage of one design component, in PolarFire units:
/// 4-input LUTs, flip-flops, uSRAM blocks (64×12 b each) and LSRAM blocks
/// (20 kb each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceManifest {
    /// 4-input look-up tables.
    pub lut4: u64,
    /// D flip-flops.
    pub ff: u64,
    /// uSRAM blocks (64 words × 12 bits = 768 b each).
    pub usram: u64,
    /// LSRAM blocks (20 kb each).
    pub lsram: u64,
}

// Reports (Table 1's JSON) carry manifests, so the type needs the
// in-tree codec (the impl must live here, next to the type).
flexsfp_obs::impl_json_struct!(ResourceManifest {
    lut4,
    ff,
    usram,
    lsram
});

/// Bits held by one uSRAM block (64 × 12 b).
pub const USRAM_BLOCK_BITS: u64 = 64 * 12;
/// Bits held by one LSRAM block (20 kb).
pub const LSRAM_BLOCK_BITS: u64 = 20 * 1024;

impl ResourceManifest {
    /// A zero manifest.
    pub const ZERO: ResourceManifest = ResourceManifest {
        lut4: 0,
        ff: 0,
        usram: 0,
        lsram: 0,
    };

    /// Construct from explicit counts.
    pub const fn new(lut4: u64, ff: u64, usram: u64, lsram: u64) -> Self {
        ResourceManifest {
            lut4,
            ff,
            usram,
            lsram,
        }
    }

    /// Scale every resource by an integer factor (e.g. per-stage cost ×
    /// number of stages).
    pub fn scaled(&self, factor: u64) -> ResourceManifest {
        ResourceManifest {
            lut4: self.lut4.saturating_mul(factor),
            ff: self.ff.saturating_mul(factor),
            usram: self.usram.saturating_mul(factor),
            lsram: self.lsram.saturating_mul(factor),
        }
    }
}

// The algebra saturates: a manifest costed from a size an image asks
// for reads "more than any device", never a wrapped small number.
impl Add for ResourceManifest {
    type Output = ResourceManifest;
    fn add(self, rhs: ResourceManifest) -> ResourceManifest {
        ResourceManifest {
            lut4: self.lut4.saturating_add(rhs.lut4),
            ff: self.ff.saturating_add(rhs.ff),
            usram: self.usram.saturating_add(rhs.usram),
            lsram: self.lsram.saturating_add(rhs.lsram),
        }
    }
}

impl AddAssign for ResourceManifest {
    fn add_assign(&mut self, rhs: ResourceManifest) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ResourceManifest {
    fn sum<I: Iterator<Item = ResourceManifest>>(iter: I) -> ResourceManifest {
        iter.fold(ResourceManifest::ZERO, |a, b| a + b)
    }
}

/// An FPGA device with its resource capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing/device name.
    pub name: String,
    /// Capacity in the same units as [`ResourceManifest`].
    pub capacity: ResourceManifest,
    /// Vendor logic-element equivalent of the whole device, used for
    /// cross-vendor comparisons (Table 2).
    pub logic_elements: u64,
    /// Total on-chip block RAM in kilobits as marketed.
    pub bram_kbits: u64,
    /// Highest practical fabric clock for compact pipelines, Hz.
    pub max_fabric_hz: u64,
    /// Process node in nanometres (the prototype device is 28 nm).
    pub process_nm: u32,
}

impl Device {
    /// The paper's prototype FPGA: PolarFire MPF200T-FCSG325.
    ///
    /// Capacities match Table 1's "Avail." row: 192 408 4LUT and FF,
    /// 1 764 uSRAM blocks, 616 LSRAM blocks; marketed as ~192 k LE with
    /// 13.3 Mb of SRAM.
    pub fn mpf200t() -> Device {
        Device {
            name: "MPF200T-FCSG325".into(),
            capacity: ResourceManifest::new(192_408, 192_408, 1_764, 616),
            logic_elements: 192_000,
            bram_kbits: 13_300,
            max_fabric_hz: 400_000_000,
            process_nm: 28,
        }
    }

    /// Check whether `used` fits this device and produce a report.
    pub fn fit(&self, used: ResourceManifest) -> FitReport {
        FitReport {
            device: self.name.clone(),
            used,
            available: self.capacity,
        }
    }
}

/// Result of checking a design against a device, with the percentage
/// utilizations the paper reports in Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// Device name.
    pub device: String,
    /// Summed usage of the design.
    pub used: ResourceManifest,
    /// Device capacity.
    pub available: ResourceManifest,
}

impl FitReport {
    /// True if the design fits the device in every resource class.
    pub fn fits(&self) -> bool {
        let (used, available) = (&self.used, &self.available);
        used.lut4 <= available.lut4
            && used.ff <= available.ff
            && used.usram <= available.usram
            && used.lsram <= available.lsram
    }

    /// Percentage utilization (rounded to nearest integer) of each
    /// resource class: `(lut4, ff, usram, lsram)`.
    pub fn utilization_pct(&self) -> (u32, u32, u32, u32) {
        fn pct(used: u64, avail: u64) -> u32 {
            if avail == 0 {
                return 0;
            }
            ((used as f64 / avail as f64) * 100.0).round() as u32
        }
        (
            pct(self.used.lut4, self.available.lut4),
            pct(self.used.ff, self.available.ff),
            pct(self.used.usram, self.available.usram),
            pct(self.used.lsram, self.available.lsram),
        )
    }
}

/// Normalization factors between vendor logic units and 4-input logic
/// elements, as used by Table 2.
pub mod normalize {
    /// One Xilinx 6-input LUT ≈ 1.6 four-input logic elements.
    pub(crate) const LUT6_TO_LE: f64 = 1.6;
    /// One Intel ALM ≈ 2.0 four-input logic elements.
    pub(crate) const ALM_TO_LE: f64 = 2.0;

    /// Convert a LUT6 count to LE equivalents.
    pub fn lut6_to_le(lut6: u64) -> u64 {
        (lut6 as f64 * LUT6_TO_LE).round() as u64
    }

    /// Convert an ALM count to LE equivalents.
    pub fn alm_to_le(alm: u64) -> u64 {
        (alm as f64 * ALM_TO_LE).round() as u64
    }
}

/// Calibrated per-component manifests from the paper's Table 1 synthesis
/// report of the NAT case study.
pub mod table1 {
    use super::ResourceManifest;

    /// Mi-V RISC-V softcore control plane.
    pub const MI_V: ResourceManifest = ResourceManifest::new(8_696, 376, 6, 4);
    /// 10G Ethernet IP core for the electrical (edge) interface.
    pub const ELECTRICAL_IF: ResourceManifest = ResourceManifest::new(6_824, 6_924, 118, 0);
    /// 10G Ethernet IP core for the optical interface.
    pub const OPTICAL_IF: ResourceManifest = ResourceManifest::new(6_813, 6_924, 118, 0);
    /// The NAT application (Packet Processing Engine instance).
    pub const NAT_APP: ResourceManifest = ResourceManifest::new(9_122, 11_294, 36, 160);

    /// The paper's "Used" row (sum of the four components).
    ///
    /// Test-only: `crates/fabric/tests/prop.rs`: the paper's row, the
    /// reference that the sum check compares against.
    pub const USED: ResourceManifest = ResourceManifest::new(31_455, 25_518, 278, 164);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_components_sum_to_used_row() {
        let sum = table1::MI_V + table1::ELECTRICAL_IF + table1::OPTICAL_IF + table1::NAT_APP;
        assert_eq!(sum, table1::USED);
    }

    #[test]
    fn table1_fits_mpf200t_with_paper_percentages() {
        let dev = Device::mpf200t();
        let report = dev.fit(table1::USED);
        assert!(report.fits());
        // Table 1 reports 16% / 13% / 15% / 26%.
        assert_eq!(report.utilization_pct(), (16, 13, 16, 27));
    }

    #[test]
    fn table1_percentages_match_paper_rounding() {
        // The paper floors its percentages; verify the exact ratios land
        // in the right integer band either way.
        let dev = Device::mpf200t();
        let r = dev.fit(table1::USED);
        let lut = r.used.lut4 as f64 / r.available.lut4 as f64 * 100.0;
        let ff = r.used.ff as f64 / r.available.ff as f64 * 100.0;
        let us = r.used.usram as f64 / r.available.usram as f64 * 100.0;
        let ls = r.used.lsram as f64 / r.available.lsram as f64 * 100.0;
        assert!((16.0..17.0).contains(&lut), "lut {lut}");
        assert!((13.0..14.0).contains(&ff), "ff {ff}");
        assert!((15.0..16.0).contains(&us), "usram {us}");
        assert!((26.0..27.0).contains(&ls), "lsram {ls}");
    }

    #[test]
    fn usram_lsram_bit_capacity_matches_paper_footnote() {
        // Table 1 notes ≈20 kb of uSRAM used (278 blocks) and ≈4 Mb of
        // LSRAM used (164 blocks) — within rounding of block arithmetic.
        let usram_kb = table1::USED.usram * USRAM_BLOCK_BITS / 1000;
        assert!((200..=230).contains(&usram_kb), "uSRAM ~{usram_kb} kbit");
        let lsram_mb = table1::USED.lsram * LSRAM_BLOCK_BITS / 1024;
        assert!(
            (3_000..=4_200).contains(&lsram_mb),
            "LSRAM ~{lsram_mb} kbit"
        );
    }

    #[test]
    fn manifest_arithmetic() {
        let a = ResourceManifest::new(1, 2, 3, 4);
        let b = ResourceManifest::new(10, 20, 30, 40);
        assert_eq!(a + b, ResourceManifest::new(11, 22, 33, 44));
        assert_eq!(a.scaled(3), ResourceManifest::new(3, 6, 9, 12));
        let fits = |used, available| {
            FitReport {
                device: String::new(),
                used,
                available,
            }
            .fits()
        };
        assert!(fits(a, b));
        assert!(!fits(b, a));
        let sum: ResourceManifest = [a, b, a].into_iter().sum();
        assert_eq!(sum, ResourceManifest::new(12, 24, 36, 48));
    }

    #[test]
    fn overflow_design_does_not_fit() {
        let dev = Device::mpf200t();
        let r = dev.fit(ResourceManifest::new(200_000, 0, 0, 0));
        assert!(!r.fits());
    }

    #[test]
    fn normalization_factors() {
        assert_eq!(normalize::lut6_to_le(71_712), 114_739); // FlowBlaze ≈115k LE
        assert_eq!(normalize::alm_to_le(207_960), 415_920); // Pigasus ≈416k LE
        assert_eq!(normalize::lut6_to_le(0), 0);
    }

    #[test]
    fn mpf200t_marketed_numbers() {
        let d = Device::mpf200t();
        assert_eq!(d.logic_elements, 192_000);
        assert_eq!(d.bram_kbits, 13_300);
        assert_eq!(d.process_nm, 28);
    }
}
