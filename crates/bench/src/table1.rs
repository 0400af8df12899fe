//! Table 1: resource usage for the NAT case study, per component.
//!
//! Rows: Mi-V, electrical interface, optical interface, NAT app, the
//! "Used" sum, device availability and percentage utilization — on the
//! MPF200T, for the 32 768-flow NAT at 64 b / 156.25 MHz.

use crate::render;
use flexsfp_apps::StaticNat;
use flexsfp_fabric::resources::{table1, Device, ResourceManifest};
use flexsfp_ppe::PacketProcessor;

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Component name.
    pub component: String,
    /// Resource usage.
    pub usage: ResourceManifest,
}

flexsfp_obs::impl_json_struct!(Row { component, usage });

/// The full report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-component rows.
    pub rows: Vec<Row>,
    /// Summed usage.
    pub used: ResourceManifest,
    /// Device availability.
    pub available: ResourceManifest,
    /// Utilization percentages (lut, ff, usram, lsram).
    pub utilization_pct: (u32, u32, u32, u32),
    /// Whole design fits the device.
    pub fits: bool,
}

flexsfp_obs::impl_json_struct!(Report {
    rows,
    used,
    available,
    utilization_pct,
    fits
});

/// Regenerate Table 1.
pub fn run() -> Report {
    // The NAT application's manifest comes from the running app model
    // (calibrated to the synthesis report); interfaces and Mi-V are the
    // calibrated IP-core manifests.
    let nat = StaticNat::new();
    let rows = vec![
        Row {
            component: "Mi-V".into(),
            usage: table1::MI_V,
        },
        Row {
            component: "Elec. I/F".into(),
            usage: table1::ELECTRICAL_IF,
        },
        Row {
            component: "Opt. I/F".into(),
            usage: table1::OPTICAL_IF,
        },
        Row {
            component: "NAT app".into(),
            usage: nat.resource_manifest(),
        },
    ];
    let used: ResourceManifest = rows.iter().map(|r| r.usage).sum();
    let device = Device::mpf200t();
    let fit = device.fit(used);
    Report {
        rows,
        used,
        available: device.capacity,
        utilization_pct: fit.utilization_pct(),
        fits: fit.fits(),
    }
}

/// Render the report in the paper's layout.
pub fn render(r: &Report) -> String {
    let mut rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.component.clone(),
                render::grouped(row.usage.lut4),
                render::grouped(row.usage.ff),
                render::grouped(row.usage.usram),
                render::grouped(row.usage.lsram),
            ]
        })
        .collect();
    rows.push(vec![
        "Used".into(),
        render::grouped(r.used.lut4),
        render::grouped(r.used.ff),
        render::grouped(r.used.usram),
        render::grouped(r.used.lsram),
    ]);
    rows.push(vec![
        "Avail.".into(),
        render::grouped(r.available.lut4),
        render::grouped(r.available.ff),
        render::grouped(r.available.usram),
        render::grouped(r.available.lsram),
    ]);
    let (l, f, u, s) = r.utilization_pct;
    rows.push(vec![
        "Perc.".into(),
        format!("{l}%"),
        format!("{f}%"),
        format!("{u}% (~{}kb)", r.used.usram * 768 / 1000),
        format!("{s}% (~{:.1}Mb)", r.used.lsram as f64 * 20.0 / 1024.0),
    ]);
    format!(
        "Table 1: Resource usage for the simple NAT case study (MPF200T)\n{}",
        render::table(&["", "4LUT", "FF", "uSRAM", "LSRAM"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_used_row() {
        let r = run();
        assert_eq!(r.used, ResourceManifest::new(31_455, 25_518, 278, 164));
        assert!(r.fits);
    }

    #[test]
    fn percentages_within_rounding_of_paper() {
        // Paper prints 16/13/15/26 (flooring); we round. Either way the
        // integers must be within 1.
        let r = run();
        let (l, f, u, s) = r.utilization_pct;
        assert!(l.abs_diff(16) <= 1);
        assert!(f.abs_diff(13) <= 1);
        assert!(u.abs_diff(15) <= 1);
        assert!(s.abs_diff(26) <= 1);
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render(&run());
        for needle in [
            "Mi-V",
            "Elec. I/F",
            "Opt. I/F",
            "NAT app",
            "Used",
            "Avail.",
            "Perc.",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
        assert!(text.contains("31 455"));
        assert!(text.contains("192 408"));
    }
}
