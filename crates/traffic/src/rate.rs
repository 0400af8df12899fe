//! Line-rate arithmetic for trace pacing.
//!
//! Ethernet line-rate math in one place: a 10 Gb/s wire carries
//! `rate / ((len + 20) × 8)` frames per second of `len`-byte frames,
//! where 20 B is preamble + SFD + inter-frame gap. The §5.1 end-to-end
//! test and every throughput experiment pace their offered load with
//! these formulas.

/// Per-frame wire overhead: 7 B preamble + 1 B SFD + 12 B IFG.
pub(crate) const WIRE_OVERHEAD_BYTES: usize = 20;

/// Line-rate calculator for a given nominal bit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineRateCalc {
    /// Nominal MAC bit rate, bits/s.
    pub rate_bps: u64,
}

impl LineRateCalc {
    /// 10 Gigabit Ethernet.
    pub const TEN_GIG: LineRateCalc = LineRateCalc {
        rate_bps: 10_000_000_000,
    };

    /// A calculator for `rate_bps`.
    pub fn new(rate_bps: u64) -> LineRateCalc {
        LineRateCalc { rate_bps }
    }

    /// Maximum frames/s at frame length `len` (excluding FCS in `len`;
    /// the 4-byte FCS is part of the 64-byte minimum, so pass on-wire
    /// lengths consistently across the workspace: frame without FCS).
    pub fn max_fps(&self, len: usize) -> f64 {
        self.rate_bps as f64 / (((len + 4 + WIRE_OVERHEAD_BYTES) * 8) as f64)
    }

    /// Inter-arrival gap in nanoseconds at `utilization` (0..=1] of line
    /// rate for `len`-byte frames.
    pub fn gap_ns(&self, len: usize, utilization: f64) -> f64 {
        assert!(utilization > 0.0, "zero utilization has no gap");
        1e9 / (self.max_fps(len) * utilization.min(1.0))
    }

    /// Utilization consumed by `fps` frames/s of `len`-byte frames.
    pub fn utilization(&self, len: usize, fps: f64) -> f64 {
        fps / self.max_fps(len)
    }

    /// Effective goodput in bits/s when sending `len`-byte frames at
    /// `utilization` of line rate (frame bits only, no preamble/IFG).
    pub fn goodput_bps(&self, len: usize, utilization: f64) -> f64 {
        self.max_fps(len) * utilization.min(1.0) * (len * 8) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ten_gig_numbers() {
        // 60-byte frames (without FCS) = 64 on the wire: 14.88 Mpps.
        let fps = LineRateCalc::TEN_GIG.max_fps(60);
        assert!((fps - 14_880_952.38).abs() < 1.0, "{fps}");
        // 1514-byte frames = 1518 on the wire: 812 743 fps.
        let fps_big = LineRateCalc::TEN_GIG.max_fps(1514);
        assert!((fps_big - 812_743.8).abs() < 1.0, "{fps_big}");
    }

    #[test]
    fn gap_is_inverse_of_fps() {
        let c = LineRateCalc::TEN_GIG;
        let gap = c.gap_ns(60, 1.0);
        assert!((gap - 67.2).abs() < 0.01, "{gap}");
        // Half utilization doubles the gap.
        assert!((c.gap_ns(60, 0.5) - 2.0 * gap).abs() < 1e-9);
    }

    #[test]
    fn utilization_round_trip() {
        let c = LineRateCalc::TEN_GIG;
        let fps = c.max_fps(1000) * 0.3;
        assert!((c.utilization(1000, fps) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn goodput_below_line_rate() {
        let c = LineRateCalc::TEN_GIG;
        // At 100% with 60 B frames: 60/(60+24) of 10G.
        let g = c.goodput_bps(60, 1.0);
        let expected = 10e9 * 60.0 / 84.0;
        assert!((g - expected).abs() / expected < 1e-12);
        assert!(g < 10e9);
    }

    #[test]
    #[should_panic(expected = "zero utilization")]
    fn zero_utilization_panics() {
        LineRateCalc::TEN_GIG.gap_ns(60, 0.0);
    }
}
