//! Table 2: published FPGA network functions normalized to 4-input
//! logic-element equivalents, fit-checked against the FlexSFP's MPF200T.
//!
//! "We report four FPGA implementations of network functions found in
//! literature to check whether they could potentially or not fit inside
//! the FlexSFP itself" (§5.1). Normalization: 1 LUT6 ≈ 1.6 LE,
//! 1 ALM ≈ 2 LE.

use flexsfp_fabric::resources::{normalize, Device};

/// Vendor logic unit a design was reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogicUnit {
    /// Xilinx 6-input LUTs.
    Lut6,
    /// Intel adaptive logic modules.
    Alm,
}

/// One published design (a Table 2 row).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PublishedDesign {
    /// Design name.
    pub name: String,
    /// Reported logic count in `unit`s.
    pub logic: u64,
    /// Unit of `logic`.
    pub unit: LogicUnit,
    /// Block RAM in kilobits.
    pub bram_kbits: u64,
}

impl PublishedDesign {
    /// Logic in 4-input LE equivalents.
    pub fn logic_le(&self) -> u64 {
        match self.unit {
            LogicUnit::Lut6 => normalize::lut6_to_le(self.logic),
            LogicUnit::Alm => normalize::alm_to_le(self.logic),
        }
    }
}

/// Fit assessment of a design against a device.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignFit {
    /// Design name.
    pub name: String,
    /// Logic in LE.
    pub logic_le: u64,
    /// BRAM kbits.
    pub bram_kbits: u64,
    /// Logic fits the device.
    pub logic_fits: bool,
    /// BRAM fits the device.
    pub bram_fits: bool,
}

flexsfp_obs::impl_json_struct!(DesignFit {
    name,
    logic_le,
    bram_kbits,
    logic_fits,
    bram_fits,
});

impl DesignFit {
    /// Fits in both dimensions.
    pub fn fits(&self) -> bool {
        self.logic_fits && self.bram_fits
    }
}

/// The Table 2 rows.
pub(crate) fn published_designs() -> Vec<PublishedDesign> {
    vec![
        PublishedDesign {
            name: "FlowBlaze (1 stage)".into(),
            logic: 71_712,
            unit: LogicUnit::Lut6,
            bram_kbits: 14_148,
        },
        PublishedDesign {
            name: "Pigasus".into(),
            logic: 207_960,
            unit: LogicUnit::Alm,
            bram_kbits: 64_400,
        },
        PublishedDesign {
            name: "hXDP (1 core)".into(),
            logic: 68_689,
            unit: LogicUnit::Lut6,
            bram_kbits: 1_799,
        },
        PublishedDesign {
            name: "ClickNP IPSec GW".into(),
            logic: 242_592,
            unit: LogicUnit::Lut6,
            bram_kbits: 39_161,
        },
    ]
}

/// Fit-check each design against `device`.
pub fn fit_check(device: &Device) -> Vec<DesignFit> {
    published_designs()
        .into_iter()
        .map(|d| {
            let le = d.logic_le();
            DesignFit {
                logic_fits: le <= device.logic_elements,
                bram_fits: d.bram_kbits <= device.bram_kbits,
                name: d.name,
                logic_le: le,
                bram_kbits: d.bram_kbits,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_les_match_table2() {
        let designs = published_designs();
        // Table 2 quotes ≈115k / ≈416k / ≈109k / ≈388k LE.
        let le: Vec<u64> = designs.iter().map(|d| d.logic_le()).collect();
        assert!((114_000..=116_000).contains(&le[0]), "FlowBlaze {le:?}");
        assert!((415_000..=417_000).contains(&le[1]), "Pigasus {le:?}");
        assert!((109_000..=110_500).contains(&le[2]), "hXDP {le:?}");
        assert!((387_000..=389_000).contains(&le[3]), "ClickNP {le:?}");
    }

    #[test]
    fn fit_verdicts_against_mpf200t() {
        let fits = fit_check(&Device::mpf200t());
        let by_name = |n: &str| fits.iter().find(|f| f.name.starts_with(n)).unwrap();
        // hXDP (1 core) is the only design that fits outright — the
        // order-of-magnitude viability argument of §5.1.
        let hxdp = by_name("hXDP");
        assert!(hxdp.fits(), "{hxdp:?}");
        // FlowBlaze's logic fits, but one stage already exceeds the
        // 13.3 Mb of BRAM.
        let fb = by_name("FlowBlaze");
        assert!(fb.logic_fits);
        assert!(!fb.bram_fits);
        // Pigasus and ClickNP exceed the fabric outright.
        assert!(!by_name("Pigasus").logic_fits);
        assert!(!by_name("ClickNP").logic_fits);
    }
}
