//! The authenticated in-band control frame that workloads and parity
//! suites interleave into data streams. Crate-private; the integration
//! tests under `tests/` compile this same file through `#[path]`, so
//! there is one builder and no public surface for it.

use flexsfp_core::control::{ControlPlane, ControlRequest, CONTROL_PORT};
use flexsfp_core::module::ModuleConfig;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;

/// `req`, authenticated under `config`'s key, in a UDP frame addressed
/// to the module's management MAC/IP from a fixed host station.
pub(crate) fn control_frame(config: &ModuleConfig, req: &ControlRequest) -> Vec<u8> {
    let payload = ControlPlane::encode_request(&config.auth_key, req);
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        MacAddr([0xee; 6]),
        0x0a00_0101,
        config.mgmt_ip,
        40_000,
        CONTROL_PORT,
        &payload,
    )
}
