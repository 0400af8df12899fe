//! The ideal-scaling normalization rule.
//!
//! "Drawing inspiration from [Of Apples and Oranges, HotNets '23] …
//! Table 3 normalizes both capital expense and peak board power to a
//! 10 Gb/s slice" (§5.2): divide by the device's line capacity and
//! multiply by 10 G. The rule is deliberately generous to big devices
//! (it assumes perfect slicing), which makes FlexSFP's win conservative.

/// An inclusive numeric range (costs and powers are quoted as bands).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Lower bound.
    pub min: f64,
    /// Upper bound.
    pub max: f64,
}

flexsfp_obs::impl_json_struct!(Range { min, max });

impl Range {
    /// A range.
    pub const fn new(min: f64, max: f64) -> Range {
        Range { min, max }
    }

    /// A degenerate single-value range.
    pub const fn exact(v: f64) -> Range {
        Range { min: v, max: v }
    }

    /// Scale both ends.
    fn scaled(&self, k: f64) -> Range {
        Range {
            min: self.min * k,
            max: self.max * k,
        }
    }

    /// Format as "a-b" (or "a" when exact), trimming trailing zeros.
    pub fn fmt_band(&self, digits: usize) -> String {
        if (self.max - self.min).abs() < f64::EPSILON {
            format!("{:.*}", digits, self.min)
        } else {
            format!("{:.*}-{:.*}", digits, self.min, digits, self.max)
        }
    }
}

/// Normalize a raw quantity for a device of `capacity_gbps` to a
/// 10 Gb/s slice.
pub fn per_10g(raw: Range, capacity_gbps: f64) -> Range {
    assert!(capacity_gbps > 0.0);
    raw.scaled(10.0 / capacity_gbps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_arithmetic() {
        // A $2000, 100 G device is $200 per 10 G slice.
        let r = per_10g(Range::exact(2_000.0), 100.0);
        assert_eq!(r.min, 200.0);
        assert_eq!(r.max, 200.0);
        // A 10 G device normalizes to itself.
        let same = per_10g(Range::new(250.0, 300.0), 10.0);
        assert_eq!(same, Range::new(250.0, 300.0));
    }

    #[test]
    fn range_helpers() {
        let r = Range::new(1.0, 3.0);
        assert_eq!(r.fmt_band(0), "1-3");
        assert_eq!(Range::exact(1.5).fmt_band(1), "1.5");
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        per_10g(Range::exact(1.0), 0.0);
    }
}
