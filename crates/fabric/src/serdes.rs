//! Transceiver (SerDes) and 64b/66b PCS model.
//!
//! The prototype board exposes two bidirectional 12.7 Gb/s transceivers:
//! one toward the host edge connector, one toward the optical cage. A
//! 10GBASE-R lane signals at 10.3125 GBd and, after 64b/66b decoding,
//! delivers exactly 10.0 Gb/s of MAC-layer bits. Per-frame line-rate
//! arithmetic (preamble and IFG included) is `traffic::rate`'s.

/// MAC-layer bit rate of a 10GBASE-R lane (after line coding).
pub const MAC_BPS: u64 = 10_000_000_000;

/// Signalling rate of a 10GBASE-R lane, 64b/66b coded: 10.3125 GBd.
pub const BAUD: u64 = MAC_BPS / 64 * 66;

/// Health state of one optical lane, driven by the failure model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalHealth {
    /// Transmit optical power in dBm (healthy VCSEL ≈ -2 dBm).
    pub tx_power_dbm: f64,
    /// Laser bias current in mA (rises as a VCSEL wears out).
    pub bias_ma: f64,
}

impl Default for OpticalHealth {
    fn default() -> Self {
        OpticalHealth {
            tx_power_dbm: -2.0,
            bias_ma: 6.0,
        }
    }
}

/// One direction of a transceiver lane, with frame/byte counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounters {
    /// Frames transferred.
    pub frames: u64,
    /// Frame bytes transferred (excluding preamble/IFG).
    pub bytes: u64,
    /// Frames dropped due to signal errors.
    pub errors: u64,
}

/// A bidirectional 10GBASE-R transceiver: the electrical-edge or
/// optical-side SerDes of the module.
#[derive(Debug, Clone)]
pub struct Transceiver {
    /// Identifying label ("electrical", "optical").
    pub name: String,
    /// Receive-direction counters.
    pub rx: LaneCounters,
    /// Transmit-direction counters.
    pub tx: LaneCounters,
    /// Optical health (meaningful for the optical-side lane).
    pub health: OpticalHealth,
    /// Receiver sensitivity threshold in dBm: below this, frames are lost.
    pub rx_sensitivity_dbm: f64,
    enabled: bool,
}

impl Transceiver {
    /// A healthy transceiver.
    pub fn new(name: &str) -> Transceiver {
        Transceiver {
            name: name.into(),
            rx: LaneCounters::default(),
            tx: LaneCounters::default(),
            health: OpticalHealth::default(),
            rx_sensitivity_dbm: -11.1, // 10GBASE-SR receiver sensitivity
            enabled: false,
        }
    }

    /// Enable the lane (the Mi-V control core does this at startup,
    /// configuring the laser driver and limiting amplifier).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Disable the lane.
    ///
    /// Test-only: `crates/host/tests/cage_run.rs` and
    /// `tests/pinned_trace.rs`: a dark transceiver, which no product input
    /// causes.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// True when the lane is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True when the link is usable: enabled and (for the optical
    /// direction) the laser still produces enough power for the far-end
    /// receiver, assuming `link_loss_db` of fiber/connector loss.
    pub fn link_up(&self, link_loss_db: f64) -> bool {
        self.enabled && self.health.tx_power_dbm - link_loss_db >= self.rx_sensitivity_dbm
    }

    /// Account one transmitted frame of `len` bytes. Returns false (and
    /// counts an error) if the lane is down.
    pub fn record_tx(&mut self, len: usize) -> bool {
        if !self.enabled {
            self.tx.errors += 1;
            return false;
        }
        self.tx.frames += 1;
        self.tx.bytes += len as u64;
        true
    }

    /// Account one received frame of `len` bytes.
    pub fn record_rx(&mut self, len: usize) -> bool {
        if !self.enabled {
            self.rx.errors += 1;
            return false;
        }
        self.rx.frames += 1;
        self.rx.bytes += len as u64;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gig_arithmetic() {
        assert_eq!(MAC_BPS, 10_000_000_000);
        assert_eq!(BAUD, 10_312_500_000);
    }

    #[test]
    fn disabled_lane_drops() {
        let mut t = Transceiver::new("optical");
        assert!(!t.record_tx(64));
        assert_eq!(t.tx.errors, 1);
        t.enable();
        assert!(t.record_tx(64));
        assert!(t.record_rx(128));
        assert_eq!(t.tx.frames, 1);
        assert_eq!(t.rx.bytes, 128);
    }

    #[test]
    fn link_budget() {
        let mut t = Transceiver::new("optical");
        t.enable();
        // Healthy: -2 dBm - 3 dB loss = -5 dBm > -11.1 dBm.
        assert!(t.link_up(3.0));
        // Degraded VCSEL: -9 dBm - 3 dB = -12 dBm < sensitivity.
        t.health.tx_power_dbm = -9.0;
        assert!(!t.link_up(3.0));
        // But still fine on a short jumper with negligible loss.
        assert!(t.link_up(0.5));
    }

    #[test]
    fn disabled_lane_is_down() {
        let t = Transceiver::new("optical");
        assert!(!t.link_up(0.0));
    }
}
