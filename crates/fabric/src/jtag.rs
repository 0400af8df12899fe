//! JTAG programming interface model.
//!
//! "During prototype phase, the bitstream is loaded via JTAG, while in
//! production artifacts are deployed remotely" (§4.2). The JTAG path is a
//! trusted, physical-access-only channel; the model is its scan chain.

/// A JTAG adapter attached to the module's test header.
#[derive(Debug, Clone)]
pub struct JtagAdapter {
    /// Device IDCODE on the scan chain (MPF200T family code).
    pub idcode: u32,
}

impl Default for JtagAdapter {
    fn default() -> Self {
        JtagAdapter {
            // PolarFire family IDCODE (manufacturer Microchip, family MPF).
            idcode: 0x0f81_81cf,
        }
    }
}

impl JtagAdapter {
    /// Scan the chain, returning the IDCODE.
    pub fn scan(&self) -> u32 {
        self.idcode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_returns_polarfire_idcode() {
        assert_eq!(JtagAdapter::default().scan(), 0x0f81_81cf);
    }
}
