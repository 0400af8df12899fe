//! Clock domains and cycle/time conversion.
//!
//! The FlexSFP prototype clocks its 64-bit datapath at 156.25 MHz — the
//! canonical 10GbE XGMII-style rate (64 b × 156.25 MHz = 10 Gb/s). The
//! Two-Way-Core shell raises the PPE clock to absorb the doubled packet
//! rate; [`ClockDomain`] makes such ratios explicit.

/// A fixed-frequency clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    hz: u64,
    /// `10^12 / hz`, divided once here: every packet a module admits
    /// reads it.
    period_ps: u64,
}

impl ClockDomain {
    /// The prototype datapath clock: 156.25 MHz.
    pub const XGMII_10G: ClockDomain = ClockDomain::at_hz(156_250_000);
    /// The doubled clock the paper proposes for the Two-Way-Core PPE.
    pub const XGMII_10G_X2: ClockDomain = ClockDomain::at_hz(312_500_000);

    const fn at_hz(hz: u64) -> ClockDomain {
        ClockDomain {
            hz,
            period_ps: 1_000_000_000_000 / hz,
        }
    }

    /// A domain at `mhz` megahertz. Panics on a zero frequency.
    #[cfg(test)]
    pub(crate) fn from_mhz(mhz: f64) -> ClockDomain {
        let hz = (mhz * 1e6).round() as u64;
        assert!(hz > 0, "clock frequency must be non-zero");
        ClockDomain::at_hz(hz)
    }

    /// Frequency in hertz.
    pub fn hz(&self) -> u64 {
        self.hz
    }

    /// Frequency in megahertz.
    pub fn mhz(&self) -> f64 {
        self.hz as f64 / 1e6
    }

    /// Period of one cycle in picoseconds (exact for frequencies that
    /// divide 10^12, as the prototype's 156.25 and 312.5 MHz do).
    pub fn period_ps(&self) -> u64 {
        self.period_ps
    }

    /// Bits per second moved by a `width_bits`-wide bus in this domain.
    pub fn bus_bits_per_sec(&self, width_bits: u32) -> u64 {
        self.hz * u64::from(width_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xgmii_carries_exactly_10g_on_64b() {
        assert_eq!(ClockDomain::XGMII_10G.bus_bits_per_sec(64), 10_000_000_000);
    }

    #[test]
    fn doubled_clock_carries_20g() {
        assert_eq!(
            ClockDomain::XGMII_10G_X2.bus_bits_per_sec(64),
            20_000_000_000
        );
    }

    #[test]
    fn period_is_exact() {
        assert_eq!(ClockDomain::XGMII_10G.period_ps(), 6_400);
        assert_eq!(ClockDomain::XGMII_10G_X2.period_ps(), 3_200);
    }

    #[test]
    fn from_mhz() {
        assert_eq!(ClockDomain::from_mhz(156.25), ClockDomain::XGMII_10G);
        assert_eq!(ClockDomain::from_mhz(100.0).hz(), 100_000_000);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        ClockDomain::from_mhz(0.0);
    }
}
