//! Table 2: published FPGA designs normalized to LE equivalents and
//! fit-checked against the FlexSFP's MPF200T.

use crate::render;
use flexsfp_cost::designs::{fit_check, DesignFit};
use flexsfp_fabric::resources::Device;

/// The report: per-design fits plus the reference device row.
#[derive(Debug, Clone)]
pub struct Report {
    /// Fit rows.
    pub designs: Vec<DesignFit>,
    /// Reference device name.
    pub device: String,
    /// Device logic (LE).
    pub device_le: u64,
    /// Device BRAM (kbit).
    pub device_bram_kbits: u64,
}

flexsfp_obs::impl_json_struct!(Report {
    designs,
    device,
    device_le,
    device_bram_kbits
});

/// Regenerate Table 2.
pub fn run() -> Report {
    let device = Device::mpf200t();
    Report {
        designs: fit_check(&device),
        device: "FlexSFP (MPF200T)".into(),
        device_le: device.logic_elements,
        device_bram_kbits: device.bram_kbits,
    }
}

/// Render in the paper's layout plus a fit verdict column (our added
/// value over the printed table).
pub fn render(r: &Report) -> String {
    let mut rows: Vec<Vec<String>> = r
        .designs
        .iter()
        .map(|d| {
            vec![
                d.name.clone(),
                format!("~{} k LE", d.logic_le / 1000),
                render::grouped(d.bram_kbits),
                if d.fits() {
                    "fits".into()
                } else if d.logic_fits {
                    "BRAM exceeds".into()
                } else {
                    "logic exceeds".into()
                },
            ]
        })
        .collect();
    rows.push(vec![
        r.device.clone(),
        format!("{} k LE", r.device_le / 1000),
        render::grouped(r.device_bram_kbits),
        "(capacity)".into(),
    ]);
    format!(
        "Table 2: FPGA resource usage of key designs (logic normalized to 4-input LE, BRAM in kbit)\n{}",
        render::table(&["Use case", "Logic", "BRAM", "Fit on MPF200T"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_designs_plus_device() {
        let r = run();
        assert_eq!(r.designs.len(), 4);
        assert_eq!(r.device_le, 192_000);
        assert_eq!(r.device_bram_kbits, 13_300);
    }

    #[test]
    fn verdicts_match_paper_argument() {
        let r = run();
        let fits: Vec<bool> = r.designs.iter().map(|d| d.fits()).collect();
        // Only hXDP (index 2) fits outright.
        assert_eq!(fits, vec![false, false, true, false]);
    }

    #[test]
    fn render_matches_table2_numbers() {
        let text = render(&run());
        assert!(
            text.contains("~114 k LE") || text.contains("~115 k LE"),
            "{text}"
        );
        assert!(text.contains("~415 k LE") || text.contains("~416 k LE"));
        assert!(text.contains("hXDP"));
        assert!(text.contains("13 300"));
    }
}
