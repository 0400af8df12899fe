//! The streaming datapath's width × clock arithmetic.
//!
//! Inside the FPGA, packets move as a stream of fixed-width bus beats
//! (64 bit in the prototype; §5.3 discusses widening to 512 bit for
//! 100 G). [`DatapathConfig`] decides whether a width and a clock
//! sustain a line rate, and how many beats a packet takes.

use crate::clock::ClockDomain;

/// Datapath width in bits; only power-of-two widths realizable on the
/// fabric are allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BusWidth {
    /// 64-bit datapath (the SFP+ prototype).
    W64,
    /// 128-bit datapath.
    W128,
    /// 256-bit datapath.
    W256,
    /// 512-bit datapath (the §5.3 100 G scaling point).
    W512,
}

impl BusWidth {
    /// Width in bits.
    pub const fn bits(&self) -> u32 {
        match self {
            BusWidth::W64 => 64,
            BusWidth::W128 => 128,
            BusWidth::W256 => 256,
            BusWidth::W512 => 512,
        }
    }

    /// Width in bytes.
    const fn bytes(&self) -> usize {
        self.bits() as usize / 8
    }

    /// All supported widths, narrowest first.
    pub fn all() -> [BusWidth; 4] {
        [
            BusWidth::W64,
            BusWidth::W128,
            BusWidth::W256,
            BusWidth::W512,
        ]
    }
}

/// A datapath configuration: bus width and clock domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathConfig {
    /// Bus width.
    pub width: BusWidth,
    /// Clock domain the bus runs in.
    pub clock: ClockDomain,
}

impl DatapathConfig {
    /// The prototype configuration: 64 b @ 156.25 MHz = 10 Gb/s.
    pub const fn prototype_10g() -> DatapathConfig {
        DatapathConfig {
            width: BusWidth::W64,
            clock: ClockDomain::XGMII_10G,
        }
    }

    /// Raw bus bandwidth in bits per second.
    pub fn bandwidth_bps(&self) -> u64 {
        self.clock.bus_bits_per_sec(self.width.bits())
    }

    /// Beats needed to stream a `len`-byte packet (ceiling division; a
    /// partial final beat still takes a cycle).
    pub const fn beats_for(&self, len: usize) -> u64 {
        (len as u64).div_ceil(self.width.bytes() as u64)
    }

    /// Maximum sustainable packet rate (packets/s) for fixed-size `len`
    /// packets, limited purely by bus occupancy (back-to-back beats).
    pub(crate) fn max_pps(&self, len: usize) -> f64 {
        self.clock.hz() as f64 / self.beats_for(len) as f64
    }

    /// True if this datapath can sustain `line_rate_bps` of Ethernet
    /// traffic at the worst-case (smallest) frame size. `min_frame` is the
    /// frame length on the wire excluding preamble/IFG (64 B for
    /// standard Ethernet); the line-side per-packet overhead of
    /// preamble + IFG (20 B) *relieves* the datapath, which only carries
    /// the frame bytes.
    pub fn sustains_line_rate(&self, line_rate_bps: u64, min_frame: usize) -> bool {
        // Packets per second arriving from the line at minimum size:
        let wire_bits_per_pkt = ((min_frame + 20) * 8) as f64;
        let arrival_pps = line_rate_bps as f64 / wire_bits_per_pkt;
        self.max_pps(min_frame) >= arrival_pps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_counts() {
        let cfg = DatapathConfig::prototype_10g();
        assert_eq!(cfg.beats_for(64), 8);
        assert_eq!(cfg.beats_for(65), 9);
        assert_eq!(cfg.beats_for(1), 1);
        assert_eq!(cfg.beats_for(1518), 190);
    }

    #[test]
    fn prototype_sustains_10g_at_min_frames() {
        // The §5.1 claim: 64 b @ 156.25 MHz is "sufficient for line-rate".
        let cfg = DatapathConfig::prototype_10g();
        assert!(cfg.sustains_line_rate(10_000_000_000, 64));
        assert!(cfg.sustains_line_rate(10_000_000_000, 1518));
    }

    #[test]
    fn prototype_cannot_sustain_20g() {
        let cfg = DatapathConfig::prototype_10g();
        assert!(!cfg.sustains_line_rate(20_000_000_000, 64));
        // ...but a doubled clock can (the Two-Way-Core mitigation).
        let fast = DatapathConfig {
            width: BusWidth::W64,
            clock: ClockDomain::XGMII_10G_X2,
        };
        assert!(fast.sustains_line_rate(20_000_000_000, 64));
    }

    #[test]
    fn w512_reaches_100g() {
        let cfg = DatapathConfig {
            width: BusWidth::W512,
            clock: ClockDomain::from_mhz(250.0),
        };
        assert!(cfg.bandwidth_bps() >= 100_000_000_000);
        assert!(cfg.sustains_line_rate(100_000_000_000, 64));
    }

    #[test]
    fn max_pps_for_min_frames() {
        let cfg = DatapathConfig::prototype_10g();
        // 8 beats per 64B frame -> 156.25e6/8 = 19.53 Mpps bus limit,
        // comfortably above the 14.88 Mpps 10G line-rate arrival.
        assert!((cfg.max_pps(64) - 19_531_250.0).abs() < 1.0);
    }

    #[test]
    fn width_properties() {
        assert_eq!(BusWidth::W64.bytes(), 8);
        assert_eq!(BusWidth::W512.bytes(), 64);
        assert_eq!(BusWidth::all().len(), 4);
    }
}
