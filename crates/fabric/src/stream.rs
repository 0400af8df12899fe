//! The word-oriented streaming datapath.
//!
//! Inside the FPGA, packets move as a stream of fixed-width bus words
//! (64 bit in the prototype; §5.3 discusses widening to 512 bit for
//! 100 G). [`segment`] turns a packet into its word stream exactly as the
//! Ethernet IP core's AXI-Stream output would, and [`DatapathConfig`]
//! carries the width × clock arithmetic that decides whether a pipeline
//! sustains line rate.

use crate::clock::ClockDomain;

/// One beat of the streaming bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusWord {
    /// Up to 64 bytes of data (512-bit maximum width).
    pub data: [u8; 64],
    /// Number of valid bytes in `data` (1..=width_bytes).
    pub keep: u8,
    /// First beat of a packet.
    pub sof: bool,
    /// Last beat of a packet.
    pub eof: bool,
}

impl BusWord {
    /// The valid bytes of this beat.
    pub fn bytes(&self) -> &[u8] {
        &self.data[..usize::from(self.keep)]
    }
}

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
    pub fn bits(&self) -> u32 {
        match self {
            BusWidth::W64 => 64,
            BusWidth::W128 => 128,
            BusWidth::W256 => 256,
            BusWidth::W512 => 512,
        }
    }

    /// Width in bytes.
    pub fn bytes(&self) -> usize {
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
    pub fn prototype_10g() -> DatapathConfig {
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
    pub fn beats_for(&self, len: usize) -> u64 {
        (len as u64).div_ceil(self.width.bytes() as u64)
    }

    /// Cycles the bus is occupied by a `len`-byte packet.
    pub fn occupancy_cycles(&self, len: usize) -> u64 {
        self.beats_for(len)
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

/// Segment a packet into bus words of the given width.
pub fn segment(packet: &[u8], width: BusWidth) -> Vec<BusWord> {
    let wb = width.bytes();
    if packet.is_empty() {
        return Vec::new();
    }
    let n = packet.len().div_ceil(wb);
    let mut out = Vec::with_capacity(n);
    for (i, chunk) in packet.chunks(wb).enumerate() {
        let mut data = [0u8; 64];
        data[..chunk.len()].copy_from_slice(chunk);
        out.push(BusWord {
            data,
            keep: chunk.len() as u8,
            sof: i == 0,
            eof: i == n - 1,
        });
    }
    out
}

/// Reassemble a packet from its word stream (inverse of [`segment`]).
pub fn reassemble(words: &[BusWord]) -> Vec<u8> {
    // Every beat but the last carries the full bus width, so the first
    // beat's keep is the word size: reserving `beats × width` is exact
    // (within one beat) for any bus, where the old `beats × 8` hint
    // under-reserved up to 8× on W128–W512 and reallocated mid-copy.
    let width_bytes = words.first().map_or(0, |w| usize::from(w.keep));
    let mut out = Vec::with_capacity(words.len() * width_bytes);
    for w in words {
        out.extend_from_slice(w.bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_reassemble_round_trip() {
        let pkt: Vec<u8> = (0..150u8).collect();
        for width in BusWidth::all() {
            let words = segment(&pkt, width);
            assert!(words[0].sof);
            assert!(words.last().unwrap().eof);
            assert_eq!(reassemble(&words), pkt);
        }
    }

    #[test]
    fn beat_counts() {
        let cfg = DatapathConfig::prototype_10g();
        assert_eq!(cfg.beats_for(64), 8);
        assert_eq!(cfg.beats_for(65), 9);
        assert_eq!(cfg.beats_for(1), 1);
        assert_eq!(cfg.beats_for(1518), 190);
        let words = segment(&[0u8; 65], BusWidth::W64);
        assert_eq!(words.len(), 9);
        assert_eq!(words[8].keep, 1);
    }

    #[test]
    fn empty_packet_produces_no_words() {
        assert!(segment(&[], BusWidth::W64).is_empty());
    }

    #[test]
    fn exact_multiple_has_full_final_beat() {
        let words = segment(&[0u8; 128], BusWidth::W64);
        assert_eq!(words.len(), 16);
        assert_eq!(words[15].keep, 8);
        assert!(words[15].eof);
        assert!(!words[14].eof);
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
    fn w512_reassemble_reserves_exact_capacity() {
        // A 1518 B frame on the 512-bit bus: 24 beats of 64 B. The old
        // `beats × 8` hint reserved 192 B for a 1518 B packet and grew
        // mid-copy; the width-derived hint must cover the frame without
        // reallocation (capacity within one beat of the final length).
        let pkt: Vec<u8> = (0..1518u32).map(|i| i as u8).collect();
        let words = segment(&pkt, BusWidth::W512);
        assert_eq!(words.len(), 24);
        let out = reassemble(&words);
        assert_eq!(out, pkt);
        assert!(out.capacity() >= out.len());
        assert!(out.capacity() <= out.len() + BusWidth::W512.bytes());
        // Single-beat packets derive the width from keep alone and stay
        // exact too.
        let small = reassemble(&segment(&pkt[..40], BusWidth::W512));
        assert_eq!(small.len(), 40);
        assert!(small.capacity() >= 40);
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
