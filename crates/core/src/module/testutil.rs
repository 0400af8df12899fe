//! Frames, traces and request sequences the module's unit tests share.

use super::{ModuleConfig, SimPacket};
use crate::bitstream::Bitstream;
use crate::control::{ControlPlane, ControlRequest};
use flexsfp_ppe::Direction;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::MacAddr;

pub(super) fn data_frame(len: usize) -> Vec<u8> {
    let payload = vec![0xabu8; len.saturating_sub(14 + 20 + 8)];
    let mut f = PacketBuilder::eth_ipv4_udp(
        MacAddr([0x10; 6]),
        MacAddr([0x20; 6]),
        0xc0a80001,
        0x0a000001,
        1111,
        2222,
        &payload,
    );
    f.truncate(len.max(60));
    f
}

pub(super) fn line_rate_trace(direction: Direction, n: usize, len: usize) -> Vec<SimPacket> {
    // 10G line rate: one `len`-byte frame every (len+20)*0.8 ns.
    let gap_ns = ((len + 20) as f64 * 0.8).ceil() as u64;
    (0..n)
        .map(|i| SimPacket {
            arrival_ns: i as u64 * gap_ns,
            direction,
            frame: data_frame(len),
        })
        .collect()
}

/// `req`, authenticated, in a UDP frame to the module's management
/// address from a host station.
pub(super) fn control_frame(config: &ModuleConfig, req: &ControlRequest) -> Vec<u8> {
    PacketBuilder::eth_ipv4_udp(
        config.mgmt_mac,
        MacAddr([0xee; 6]),
        0x0a000101,
        config.mgmt_ip,
        40_000,
        crate::control::CONTROL_PORT,
        &ControlPlane::encode_request(&config.auth_key, req),
    )
}

/// An ICMP echo request to the module's own management IP.
pub(super) fn echo_request(config: &ModuleConfig) -> Vec<u8> {
    let mut icmp_bytes = vec![0u8; 8 + 4];
    {
        let mut p = flexsfp_wire::IcmpPacket::new_unchecked(&mut icmp_bytes);
        p.set_msg_type(flexsfp_wire::IcmpType::EchoRequest);
        p.set_echo_ident(1);
        p.set_echo_seq(1);
    }
    flexsfp_wire::IcmpPacket::new_unchecked(&mut icmp_bytes).fill_checksum();
    let ip = PacketBuilder::ipv4(
        0x0a000101,
        config.mgmt_ip,
        flexsfp_wire::IpProtocol::Icmp,
        &icmp_bytes,
    );
    PacketBuilder::ethernet(
        config.mgmt_mac,
        MacAddr([0xee; 6]),
        flexsfp_wire::EtherType::Ipv4,
        &ip,
    )
}

/// The §5.1 passthrough bitstream at `version`, with its CRC.
pub(super) fn passthrough_image(version: u32) -> (Vec<u8>, u32) {
    let image = Bitstream::new("passthrough", version, 156_250_000).to_bytes();
    let crc = flexsfp_fabric::hash::crc32(&image);
    (image, crc)
}

/// The request sequence that deploys `image` to `slot` and boots it.
pub(super) fn ota_requests(slot: usize, image: &[u8], crc32: u32) -> Vec<ControlRequest> {
    let mut reqs = vec![ControlRequest::BeginUpdate {
        slot,
        total_len: image.len(),
        crc32,
    }];
    for (seq, chunk) in image.chunks(crate::reprogram::MAX_CHUNK).enumerate() {
        reqs.push(ControlRequest::UpdateChunk {
            seq: seq as u32,
            data: chunk.to_vec(),
        });
    }
    reqs.push(ControlRequest::CommitUpdate);
    reqs.push(ControlRequest::Activate { slot });
    reqs
}
