//! Table 3: raw and ideal-scaled cost/power per 10 Gb/s.

use crate::render;
use flexsfp_cost::catalog::{solutions, Solution};
use flexsfp_cost::ideal_scaling::Range;

/// One rendered row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Solution name.
    pub name: String,
    /// Raw cost band, USD.
    pub raw_cost: Range,
    /// Raw power band, W.
    pub raw_power: Range,
    /// Cost per 10 G slice.
    pub cost_per_10g: Range,
    /// Power per 10 G slice.
    pub power_per_10g: Range,
}

flexsfp_obs::impl_json_struct!(Row {
    name,
    raw_cost,
    raw_power,
    cost_per_10g,
    power_per_10g
});

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Table rows.
    pub rows: Vec<Row>,
}

flexsfp_obs::impl_json_struct!(Report { rows });

/// Regenerate Table 3.
pub fn run() -> Report {
    let rows = solutions()
        .into_iter()
        .map(|s: Solution| Row {
            cost_per_10g: s.cost_per_10g(),
            power_per_10g: s.power_per_10g(),
            name: s.name,
            raw_cost: s.raw_cost_usd,
            raw_power: s.raw_power_w,
        })
        .collect();
    Report { rows }
}

/// Render in the paper's layout.
pub fn render(r: &Report) -> String {
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                row.raw_cost.fmt_band(0),
                row.raw_power.fmt_band(1),
                row.cost_per_10g.fmt_band(0),
                row.power_per_10g.fmt_band(1),
            ]
        })
        .collect();
    format!(
        "Table 3: Raw and ideal-scaled cost/power (per 10 Gb/s)\n{}",
        render::table(&["Solution", "Raw $", "Raw W", "$/10G", "W/10G"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_rows_in_paper_order() {
        let r = run();
        let names: Vec<&str> = r.rows.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "DPU (BF-2)",
                "Many-core (Ag./DSC)",
                "FPGA (U25/U50)",
                "FlexSFP"
            ]
        );
    }

    #[test]
    fn flexsfp_row_values() {
        let r = run();
        let flex = r.rows.last().unwrap();
        assert_eq!(flex.cost_per_10g, Range::new(250.0, 300.0));
        assert_eq!(flex.power_per_10g, Range::exact(1.5));
    }

    #[test]
    fn render_contains_key_bands() {
        let text = render(&run());
        assert!(text.contains("300-400"), "{text}");
        assert!(text.contains("250-300"));
        assert!(text.contains("1.5"));
        assert!(text.contains("15.0"));
    }

    #[test]
    fn shape_flexsfp_wins_power_dpu_wins_nothing() {
        // The qualitative claims the table supports.
        let r = run();
        let flex = r.rows.last().unwrap();
        for row in &r.rows[..3] {
            assert!(
                row.power_per_10g.min > flex.power_per_10g.max,
                "{}",
                row.name
            );
        }
        // FlexSFP's cost is competitive with the DPU band, not with the
        // many-core band — exactly what the paper concedes.
        let dpu = &r.rows[0];
        assert!(flex.cost_per_10g.max <= dpu.cost_per_10g.min + 50.0);
        let many = &r.rows[1];
        assert!(many.cost_per_10g.max < flex.cost_per_10g.min + 100.0);
    }
}
