//! SFP management interface: I2C with SFF-8472 digital optical
//! monitoring (DOM).
//!
//! Every SFP exposes two I2C devices: A0h (identification EEPROM) and A2h
//! (diagnostics). The FlexSFP keeps this interface — the host's standard
//! `ethtool -m`-style tooling must keep working — while the paper's §3
//! monitoring use case additionally reads DOM values *from inside* the
//! module to detect laser degradation and link faults.

use crate::serdes::OpticalHealth;

/// I2C address of the identification EEPROM.
pub(crate) const ADDR_A0: u8 = 0x50;
/// I2C address of the diagnostics page.
pub(crate) const ADDR_A2: u8 = 0x51;

/// Decoded SFF-8472 diagnostic values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomReading {
    /// Module temperature in °C.
    pub temperature_c: f64,
    /// Supply voltage in volts.
    pub vcc_v: f64,
    /// Laser bias current in mA.
    pub tx_bias_ma: f64,
    /// Transmit optical power in mW.
    pub tx_power_mw: f64,
    /// Receive optical power in mW.
    pub rx_power_mw: f64,
}

impl DomReading {
    /// TX power in dBm.
    pub fn tx_power_dbm(&self) -> f64 {
        10.0 * self.tx_power_mw.max(1e-6).log10()
    }

    /// RX power in dBm.
    pub fn rx_power_dbm(&self) -> f64 {
        10.0 * self.rx_power_mw.max(1e-6).log10()
    }
}

/// The module's management EEPROM + diagnostics, as seen over I2C.
#[derive(Debug, Clone)]
pub struct ManagementInterface {
    a0: Vec<u8>,
    a2: Vec<u8>,
}

impl Default for ManagementInterface {
    fn default() -> Self {
        Self::new("FLEXSFP", "FSFP-10G-PR", "S000001")
    }
}

impl ManagementInterface {
    /// Build an interface with identification strings in the standard
    /// SFF-8472 A0h layout (vendor at 20..36, PN at 40..56, SN at 68..84).
    pub fn new(vendor: &str, part_number: &str, serial: &str) -> ManagementInterface {
        let mut a0 = vec![0u8; 256];
        a0[0] = 0x03; // identifier: SFP/SFP+
        a0[2] = 0x07; // connector: LC
        a0[12] = 103; // nominal bitrate, units of 100 Mb/s (10.3G)
        write_padded(&mut a0[20..36], vendor);
        write_padded(&mut a0[40..56], part_number);
        write_padded(&mut a0[68..84], serial);
        a0[92] = 0x68; // DOM implemented, internally calibrated
        ManagementInterface {
            a0,
            a2: vec![0u8; 256],
        }
    }

    /// Raw read of `len` bytes at `offset` from device `addr`
    /// (A0h or A2h). Reads wrap like real EEPROMs do not — out-of-range
    /// requests are truncated at 256.
    pub fn read(&self, addr: u8, offset: usize, len: usize) -> Option<&[u8]> {
        let page = match addr {
            ADDR_A0 => &self.a0,
            ADDR_A2 => &self.a2,
            _ => return None,
        };
        let end = (offset + len).min(page.len());
        if offset >= page.len() {
            return None;
        }
        Some(&page[offset..end])
    }

    /// Vendor name (trimmed).
    pub fn vendor(&self) -> String {
        String::from_utf8_lossy(&self.a0[20..36]).trim_end().into()
    }

    /// Part number (trimmed).
    pub fn part_number(&self) -> String {
        String::from_utf8_lossy(&self.a0[40..56]).trim_end().into()
    }

    /// Serial number (trimmed).
    pub fn serial(&self) -> String {
        String::from_utf8_lossy(&self.a0[68..84]).trim_end().into()
    }

    /// Update the A2h diagnostics page from physical state. Encodings per
    /// SFF-8472: temp = signed 1/256 °C, vcc = 100 µV units,
    /// bias = 2 µA units, power = 0.1 µW units.
    pub fn update_dom(
        &mut self,
        temperature_c: f64,
        vcc_v: f64,
        optical: &OpticalHealth,
        rx_power_mw: f64,
    ) {
        let temp = (temperature_c * 256.0) as i16;
        self.a2[96..98].copy_from_slice(&temp.to_be_bytes());
        let vcc = (vcc_v / 100e-6) as u16;
        self.a2[98..100].copy_from_slice(&vcc.to_be_bytes());
        let bias = (optical.bias_ma * 1000.0 / 2.0) as u16;
        self.a2[100..102].copy_from_slice(&bias.to_be_bytes());
        let tx_mw = 10f64.powf(optical.tx_power_dbm / 10.0);
        let tx = (tx_mw * 10_000.0) as u16;
        self.a2[102..104].copy_from_slice(&tx.to_be_bytes());
        let rx = (rx_power_mw * 10_000.0) as u16;
        self.a2[104..106].copy_from_slice(&rx.to_be_bytes());
    }

    /// Decode the current diagnostics page.
    pub fn read_dom(&self) -> DomReading {
        let temp = i16::from_be_bytes([self.a2[96], self.a2[97]]);
        let vcc = u16::from_be_bytes([self.a2[98], self.a2[99]]);
        let bias = u16::from_be_bytes([self.a2[100], self.a2[101]]);
        let tx = u16::from_be_bytes([self.a2[102], self.a2[103]]);
        let rx = u16::from_be_bytes([self.a2[104], self.a2[105]]);
        DomReading {
            temperature_c: f64::from(temp) / 256.0,
            vcc_v: f64::from(vcc) * 100e-6,
            tx_bias_ma: f64::from(bias) * 2.0 / 1000.0,
            tx_power_mw: f64::from(tx) / 10_000.0,
            rx_power_mw: f64::from(rx) / 10_000.0,
        }
    }
}

fn write_padded(dst: &mut [u8], s: &str) {
    dst.fill(b' ');
    let bytes = s.as_bytes();
    let n = bytes.len().min(dst.len());
    dst[..n].copy_from_slice(&bytes[..n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identification_fields() {
        let m = ManagementInterface::new("AXBRYD", "FSFP-10G-PR", "SN12345");
        assert_eq!(m.vendor(), "AXBRYD");
        assert_eq!(m.part_number(), "FSFP-10G-PR");
        assert_eq!(m.serial(), "SN12345");
        // SFP identifier byte.
        assert_eq!(m.read(ADDR_A0, 0, 1).unwrap(), &[0x03]);
    }

    #[test]
    fn dom_encode_decode_round_trip() {
        let mut m = ManagementInterface::default();
        let health = OpticalHealth {
            tx_power_dbm: -2.0,
            bias_ma: 6.5,
        };
        m.update_dom(41.25, 3.3, &health, 0.4);
        let d = m.read_dom();
        assert!((d.temperature_c - 41.25).abs() < 0.01);
        assert!((d.vcc_v - 3.3).abs() < 0.001);
        assert!((d.tx_bias_ma - 6.5).abs() < 0.01);
        assert!((d.tx_power_dbm() - -2.0).abs() < 0.05);
        assert!((d.rx_power_mw - 0.4).abs() < 0.001);
    }

    #[test]
    fn negative_temperature() {
        let mut m = ManagementInterface::default();
        m.update_dom(-10.5, 3.3, &OpticalHealth::default(), 0.1);
        assert!((m.read_dom().temperature_c - -10.5).abs() < 0.01);
    }

    #[test]
    fn unknown_address_rejected() {
        let m = ManagementInterface::default();
        assert!(m.read(0x42, 0, 4).is_none());
        assert!(m.read(ADDR_A0, 300, 4).is_none());
    }

    #[test]
    fn reads_truncate_at_page_end() {
        let m = ManagementInterface::default();
        assert_eq!(m.read(ADDR_A0, 250, 20).unwrap().len(), 6);
    }
}
