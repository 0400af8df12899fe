//! Prometheus text-exposition rendering.
//!
//! A minimal builder for the text format scraped by Prometheus
//! (`# HELP` / `# TYPE` headers followed by `name{labels} value`
//! samples). Only the subset the fleet collector needs — counters,
//! gauges and summaries — no client-library dependency. A sample's
//! name, label values and value are formatted straight into the
//! document, so rendering allocates nothing but the document.

use std::fmt::{self, Write};

/// Builder for a Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

/// A label value as it is written: backslash, double quote and newline
/// escaped, per the exposition format.
struct LabelValue<'a>(&'a mut String);

impl Write for LabelValue<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            match c {
                '\\' => self.0.push_str("\\\\"),
                '"' => self.0.push_str("\\\""),
                '\n' => self.0.push_str("\\n"),
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

impl PromText {
    /// An empty document.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emit `# HELP` and `# TYPE` headers for a metric family.
    /// `kind` is one of `counter`, `gauge`, `summary`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) -> &mut PromText {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push('\n');
        self.out.push_str("# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
        self
    }

    /// Emit one sample line with the given `(key, value)` labels, in
    /// order. A name or a label value is anything `Display` — a summary's
    /// `format_args!("{name}_sum")`, a port number — written, and a label
    /// value escaped, as it is formatted. The value is written without a
    /// decimal point when it is an integer, and otherwise with enough
    /// digits to round-trip.
    pub fn sample<'l>(
        &mut self,
        name: impl fmt::Display,
        labels: impl IntoIterator<Item = (&'l str, &'l dyn fmt::Display)>,
        value: f64,
    ) -> &mut PromText {
        // `fmt::Write` into a `String` cannot fail.
        let _ = write!(self.out, "{name}");
        let mut open = false;
        for (key, v) in labels {
            self.out.push(if open { ',' } else { '{' });
            open = true;
            self.out.push_str(key);
            self.out.push_str("=\"");
            let _ = write!(LabelValue(&mut self.out), "{v}");
            self.out.push('"');
        }
        if open {
            self.out.push('}');
        }
        self.out.push(' ');
        let _ = if value.is_finite() && value.fract() == 0.0 && value.abs() < 1e15 {
            write!(self.out, "{}", value as i64)
        } else {
            write!(self.out, "{value}")
        };
        self.out.push('\n');
        self
    }

    /// Finish the document and return the text.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Borrow the text rendered so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_samples() {
        let mut p = PromText::new();
        p.header("flexsfp_rx_frames_total", "Frames received", "counter");
        p.sample("flexsfp_rx_frames_total", [("module", &"0" as _)], 42.0);
        p.sample("flexsfp_rx_frames_total", [("module", &1 as _)], 7.0);
        let text = p.into_string();
        assert!(text.contains("# HELP flexsfp_rx_frames_total Frames received\n"));
        assert!(text.contains("# TYPE flexsfp_rx_frames_total counter\n"));
        assert!(text.contains("flexsfp_rx_frames_total{module=\"0\"} 42\n"));
        assert!(text.contains("flexsfp_rx_frames_total{module=\"1\"} 7\n"));
    }

    #[test]
    fn bare_sample_has_no_braces() {
        let mut p = PromText::new();
        p.sample("up", [], 1.0);
        p.sample(format_args!("{}_count", "lat"), [], 2.0);
        assert_eq!(p.as_str(), "up 1\nlat_count 2\n");
    }

    #[test]
    fn escapes_label_values() {
        let mut p = PromText::new();
        p.sample("m", [("app", &"a\"b\\c\nd" as _)], 1.0);
        assert_eq!(p.as_str(), "m{app=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn formats_integers_and_floats() {
        let mut p = PromText::new();
        for v in [3.0, -12.0, 0.5, 314.159] {
            p.sample("v", [], v);
        }
        assert_eq!(p.as_str(), "v 3\nv -12\nv 0.5\nv 314.159\n");
    }

    #[test]
    fn multiple_labels_render_comma_separated() {
        let mut p = PromText::new();
        p.sample(
            "lat",
            [("module", &2 as _), ("quantile", &"0.99" as _)],
            312.0,
        );
        assert_eq!(p.as_str(), "lat{module=\"2\",quantile=\"0.99\"} 312\n");
    }
}
