//! The bitstream container format.
//!
//! A real PolarFire bitstream is opaque vendor data; what the FlexSFP
//! system needs from it is (a) identity — which application, which
//! version, (b) the resource manifest for fit checking before activation,
//! (c) the target clock, and (d) integrity. This container carries
//! exactly that: a JSON-encoded metadata header (via the in-tree
//! `flexsfp_obs::json` codec) followed by the payload, protected by a
//! CRC-32.

use flexsfp_fabric::hash::crc32;
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_obs::json::{self, FromJson, Value};

/// Magic bytes introducing a FlexSFP bitstream image.
const MAGIC: &[u8; 4] = b"FSBS";

/// Bitstream metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BitstreamMeta {
    /// Application identifier (resolved through the module's app
    /// factory at boot, standing in for the synthesized netlist).
    pub app: String,
    /// Application version.
    pub version: u32,
    /// Resources the design occupies — checked against the device
    /// before activation.
    pub manifest: ResourceManifest,
    /// Datapath clock the design closed timing at, Hz.
    pub clock_hz: u64,
    /// Free-form application configuration (e.g. initial table rules).
    pub config: Value,
}

// A key an image leaves out decodes as `null`: an error for the typed
// fields, the "no configuration" value for `config` (older tools wrote
// none).
flexsfp_obs::impl_json_struct!(BitstreamMeta {
    app,
    version,
    manifest,
    clock_hz,
    config,
});

/// A complete bitstream: metadata + payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Bitstream {
    /// Metadata header.
    pub meta: BitstreamMeta,
    /// Synthetic configuration payload (stands in for the netlist).
    pub payload: Vec<u8>,
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// Missing or wrong magic.
    BadMagic,
    /// Image shorter than its declared lengths.
    Truncated,
    /// CRC mismatch — flash corruption or tampering.
    BadChecksum,
    /// Metadata JSON failed to parse.
    BadMeta,
}

impl core::fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for BitstreamError {}

impl Bitstream {
    /// Build a bitstream for `app`.
    pub fn new(app: &str, version: u32, manifest: ResourceManifest, clock_hz: u64) -> Bitstream {
        Bitstream {
            meta: BitstreamMeta {
                app: app.into(),
                version,
                manifest,
                clock_hz,
                config: Value::Null,
            },
            // A deterministic synthetic payload whose size scales with
            // the design (roughly 100 bits of config per LUT).
            payload: synth_payload(app, version, &manifest),
        }
    }

    /// Attach application configuration.
    pub fn with_config(mut self, config: Value) -> Bitstream {
        self.meta.config = config;
        self
    }

    /// Serialize: `MAGIC | meta_len:u32 | meta_json | payload | crc32`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = json::to_string(&self.meta).into_bytes();
        let mut out = Vec::with_capacity(4 + 4 + meta.len() + self.payload.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(meta.len() as u32).to_be_bytes());
        out.extend_from_slice(&meta);
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    /// Parse and integrity-check an image.
    pub fn from_bytes(data: &[u8]) -> Result<Bitstream, BitstreamError> {
        if data.len() < 12 {
            return Err(BitstreamError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(BitstreamError::BadMagic);
        }
        let body_len = data.len() - 4;
        let declared = u32::from_be_bytes(data[body_len..].try_into().unwrap());
        if crc32(&data[..body_len]) != declared {
            return Err(BitstreamError::BadChecksum);
        }
        let meta_len = u32::from_be_bytes(data[4..8].try_into().unwrap()) as usize;
        if 8 + meta_len > body_len {
            return Err(BitstreamError::Truncated);
        }
        let meta_text =
            std::str::from_utf8(&data[8..8 + meta_len]).map_err(|_| BitstreamError::BadMeta)?;
        let meta = Value::parse(meta_text)
            .ok()
            .and_then(|v| BitstreamMeta::from_json(&v))
            .ok_or(BitstreamError::BadMeta)?;
        Ok(Bitstream {
            meta,
            payload: data[8 + meta_len..body_len].to_vec(),
        })
    }
}

fn synth_payload(app: &str, version: u32, manifest: &ResourceManifest) -> Vec<u8> {
    let n = (manifest.lut4 as usize * 100 / 8).clamp(256, 2 * 1024 * 1024);
    let seed = crc32(app.as_bytes()) ^ version;
    // A cheap xorshift fill — deterministic, incompressible enough.
    let mut state = u64::from(seed) | 1;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bitstream {
        Bitstream::new(
            "nat",
            3,
            ResourceManifest::new(9_122, 11_294, 36, 160),
            156_250_000,
        )
        .with_config(flexsfp_obs::json!({"table_size": 32768}))
    }

    #[test]
    fn round_trip() {
        let b = sample();
        let bytes = b.to_bytes();
        let parsed = Bitstream::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.meta.app, "nat");
        assert_eq!(parsed.meta.clock_hz, 156_250_000);
        assert_eq!(parsed.meta.config["table_size"], Value::from(32768u64));
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_eq!(
            Bitstream::from_bytes(&bytes),
            Err(BitstreamError::BadChecksum)
        );
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Bitstream::from_bytes(&bytes), Err(BitstreamError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Bitstream::from_bytes(&bytes[..8]),
            Err(BitstreamError::Truncated)
        );
    }

    #[test]
    fn payload_scales_with_design_size() {
        let small = Bitstream::new("a", 1, ResourceManifest::new(1_000, 0, 0, 0), 1);
        let big = Bitstream::new("b", 1, ResourceManifest::new(100_000, 0, 0, 0), 1);
        assert!(big.payload.len() > small.payload.len());
        // Fits in a 4 MiB flash slot.
        assert!(big.to_bytes().len() < flexsfp_fabric::flash::SLOT_BYTES);
    }

    #[test]
    fn payload_is_deterministic() {
        let a = Bitstream::new("nat", 1, ResourceManifest::new(5_000, 0, 0, 0), 1);
        let b = Bitstream::new("nat", 1, ResourceManifest::new(5_000, 0, 0, 0), 1);
        assert_eq!(a.payload, b.payload);
        let c = Bitstream::new("nat", 2, ResourceManifest::new(5_000, 0, 0, 0), 1);
        assert_ne!(a.payload, c.payload);
    }
}
