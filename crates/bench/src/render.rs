//! Minimal fixed-width table rendering for experiment reports.

/// Render a table: header row + data rows, columns padded to content.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
    }
    out
}

/// Format a f64 with thousands-grouping-free fixed digits.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format an integer with thin separators every 3 digits (as the paper
/// prints resource counts).
pub fn grouped(v: u64) -> String {
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// The tail of an SLO report: the first five breaches, one per line,
/// and a count of the rest.
pub(crate) fn breaches(report: &flexsfp_obs::SloReport) -> String {
    let mut out = String::new();
    for b in report.breaches.iter().take(5) {
        out.push_str(&format!(
            "\n  breach @ {} ns: {} = {:.3} (bound {:.3})",
            b.window_start_ns, b.metric, b.value, b.bound
        ));
    }
    if report.breaches.len() > 5 {
        out.push_str(&format!("\n  … and {} more", report.breaches.len() - 5));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn grouping() {
        assert_eq!(grouped(31455), "31 455");
        assert_eq!(grouped(616), "616");
        assert_eq!(grouped(1764), "1 764");
        assert_eq!(grouped(192408), "192 408");
    }

    #[test]
    fn float_format() {
        assert_eq!(f(1.5, 1), "1.5");
        assert_eq!(f(0.893, 3), "0.893");
    }
}
