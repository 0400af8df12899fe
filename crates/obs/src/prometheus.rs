//! Prometheus text-exposition rendering.
//!
//! A minimal builder for the text format scraped by Prometheus
//! (`# HELP` / `# TYPE` headers followed by `name{labels} value`
//! samples). Only the subset the fleet collector needs — counters,
//! gauges and summaries — no client-library dependency. A sample's
//! name, label values and value are written straight into the
//! document, so rendering allocates nothing but the document, and an
//! integer (every counter, every port number) is written as digits
//! without going through `fmt`.

use crate::json::push_digits;
use std::fmt::Write;

/// Builder for a Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

/// A label value as [`PromText::sample`] writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label<'a> {
    /// Text, with backslash, double quote and newline escaped per the
    /// exposition format.
    Text(&'a str),
    /// An unsigned integer, in decimal.
    Int(u64),
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

    /// Emit one sample line: the name's parts written one after another
    /// (a summary's `[name, "_sum"]`), then the `(key, value)` labels in
    /// order. The value is written without a decimal point when it is an
    /// integer, and otherwise with enough digits to round-trip.
    pub fn sample<'l>(
        &mut self,
        name: &[&str],
        labels: impl IntoIterator<Item = (&'l str, Label<'l>)>,
        value: f64,
    ) -> &mut PromText {
        for part in name {
            self.out.push_str(part);
        }
        let mut open = false;
        for (key, v) in labels {
            self.out.push(if open { ',' } else { '{' });
            open = true;
            self.out.push_str(key);
            self.out.push_str("=\"");
            match v {
                Label::Text(s) => self.escaped(s),
                Label::Int(n) => push_digits(&mut self.out, n),
            }
            self.out.push('"');
        }
        if open {
            self.out.push('}');
        }
        self.out.push(' ');
        if value.is_finite() && value.fract() == 0.0 && value.abs() < 1e15 {
            if value < 0.0 {
                self.out.push('-');
            }
            push_digits(&mut self.out, value.abs() as u64);
        } else {
            // `fmt::Write` into a `String` cannot fail.
            let _ = write!(self.out, "{value}");
        }
        self.out.push('\n');
        self
    }

    /// `s` with `\`, `"` and newline escaped, the runs between them
    /// copied whole.
    fn escaped(&mut self, s: &str) {
        let mut run = 0;
        for (at, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'\\' => "\\\\",
                b'"' => "\\\"",
                b'\n' => "\\n",
                _ => continue,
            };
            // Every byte matched above is ASCII, so `at` is a char boundary.
            self.out.push_str(&s[run..at]);
            self.out.push_str(escape);
            run = at + 1;
        }
        self.out.push_str(&s[run..]);
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
        p.sample(
            &["flexsfp_rx_frames_total"],
            [("module", Label::Text("0"))],
            42.0,
        );
        p.sample(
            &["flexsfp_rx_frames_total"],
            [("module", Label::Int(1))],
            7.0,
        );
        let text = p.into_string();
        assert!(text.contains("# HELP flexsfp_rx_frames_total Frames received\n"));
        assert!(text.contains("# TYPE flexsfp_rx_frames_total counter\n"));
        assert!(text.contains("flexsfp_rx_frames_total{module=\"0\"} 42\n"));
        assert!(text.contains("flexsfp_rx_frames_total{module=\"1\"} 7\n"));
    }

    #[test]
    fn bare_sample_has_no_braces() {
        let mut p = PromText::new();
        p.sample(&["up"], [], 1.0);
        p.sample(&["lat", "_count"], [], 2.0);
        assert_eq!(p.as_str(), "up 1\nlat_count 2\n");
    }

    #[test]
    fn escapes_label_values() {
        let mut p = PromText::new();
        p.sample(&["m"], [("app", Label::Text("a\"b\\c\nd"))], 1.0);
        p.sample(&["m"], [("app", Label::Text("\\é\""))], 1.0);
        p.sample(&["m"], [("app", Label::Text(""))], 1.0);
        assert_eq!(
            p.as_str(),
            "m{app=\"a\\\"b\\\\c\\nd\"} 1\nm{app=\"\\\\é\\\"\"} 1\nm{app=\"\"} 1\n"
        );
    }

    #[test]
    fn formats_integers_and_floats() {
        let mut p = PromText::new();
        for v in [
            3.0,
            -12.0,
            0.0,
            -0.0,
            0.5,
            314.159,
            999_999_999_999_999.0,
            1e15,
        ] {
            p.sample(&["v"], [], v);
        }
        p.sample(&["v"], [], f64::NAN);
        assert_eq!(
            p.as_str(),
            "v 3\nv -12\nv 0\nv 0\nv 0.5\nv 314.159\nv 999999999999999\nv 1000000000000000\nv NaN\n"
        );
    }

    #[test]
    fn multiple_labels_render_comma_separated() {
        let mut p = PromText::new();
        p.sample(
            &["lat"],
            [("module", Label::Int(2)), ("quantile", Label::Text("0.99"))],
            312.0,
        );
        p.sample(&["lat"], [("output", Label::Int(u64::MAX))], 0.0);
        assert_eq!(
            p.as_str(),
            "lat{module=\"2\",quantile=\"0.99\"} 312\nlat{output=\"18446744073709551615\"} 0\n"
        );
    }
}
