//! The PPE's timing, in one place, and the fields a match keys on.
//!
//! A packet program is a short chain of match-action stages (the
//! paper's §5.3: "keeping chains compact (about 3–4 stages)").
//! [`stage_start_cycle`] and [`stamp_stages`] give every flight stamp
//! and the module's PPE transit share their cycles; [`fmax_hz`] is the
//! clock a chain of a given depth closes at. [`KeySelector`] names the
//! parsed fields a match (the firewall's ACL) keys on.

use crate::parser::{ParsedPacket, L4};
use flexsfp_obs::{FlightStamp, StageStamp};

/// Maximum pipeline depth the fabric comfortably supports (§5.3).
pub const MAX_STAGES: usize = 6;

/// Which parsed field(s) a stage keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySelector {
    /// IPv4 source address.
    SrcIp,
    /// IPv4 destination address.
    DstIp,
    /// IPv4 5-tuple.
    FiveTuple,
    /// Outermost VLAN id.
    OuterVlan,
    /// EtherType after VLANs.
    EtherType,
    /// Source MAC.
    SrcMac,
    /// L4 destination port.
    L4DstPort,
    /// IPv6 source /64 prefix.
    SrcPrefix64,
}

impl KeySelector {
    /// Extract the key bytes from a parsed packet; `None` when the
    /// needed layer is absent (treated as a miss).
    pub fn extract(&self, p: &ParsedPacket) -> Option<[u8; 13]> {
        let mut k = [0u8; 13];
        match self {
            KeySelector::SrcIp => {
                k[..4].copy_from_slice(&p.ipv4?.src.to_be_bytes());
            }
            KeySelector::DstIp => {
                k[..4].copy_from_slice(&p.ipv4?.dst.to_be_bytes());
            }
            KeySelector::FiveTuple => {
                let (s, d, pr, sp, dp) = p.five_tuple()?;
                k[0..4].copy_from_slice(&s.to_be_bytes());
                k[4..8].copy_from_slice(&d.to_be_bytes());
                k[8] = pr;
                k[9..11].copy_from_slice(&sp.to_be_bytes());
                k[11..13].copy_from_slice(&dp.to_be_bytes());
            }
            KeySelector::OuterVlan => {
                k[..2].copy_from_slice(&p.outer_vlan()?.to_be_bytes());
            }
            KeySelector::EtherType => {
                k[..2].copy_from_slice(&p.ethertype.to_u16().to_be_bytes());
            }
            KeySelector::SrcMac => {
                k[..6].copy_from_slice(p.src_mac.as_bytes());
            }
            KeySelector::L4DstPort => {
                let port = match p.l4 {
                    L4::Tcp { dst_port, .. } => dst_port,
                    L4::Udp { dst_port, .. } => dst_port,
                    _ => return None,
                };
                k[..2].copy_from_slice(&port.to_be_bytes());
            }
            KeySelector::SrcPrefix64 => {
                k[..8].copy_from_slice(&p.ipv6?.src_prefix64.to_be_bytes());
            }
        }
        Some(k)
    }
}

/// The PPE latency model, in one place: 4 fixed cycles, then 3 per
/// match-action stage. The stage at `idx` begins at this cycle, and a
/// packet that ran `idx` stages has occupied the pipeline for as many.
pub fn stage_start_cycle(idx: usize) -> u32 {
    4 + 3 * idx as u32
}

/// The flight stamp of a packet that ran `stages`: `(stage, hit)`
/// attributions in the order they ran, each given its cycles by
/// [`stage_start_cycle`]. A plan records the same attributions, so a
/// cache hit's stamp is the slow path's but for `cache_hit`.
pub fn stamp_stages(cache_hit: bool, stages: impl IntoIterator<Item = (u8, bool)>) -> FlightStamp {
    FlightStamp {
        cache_hit,
        stages: stages
            .into_iter()
            .enumerate()
            .map(|(i, (stage, hit))| StageStamp {
                stage,
                hit,
                start_cycle: stage_start_cycle(i),
                end_cycle: stage_start_cycle(i + 1),
            })
            .collect(),
    }
}

/// The clock, in Hz, a chain of `stages` match-action stages closes
/// timing at on the MPF200T's 28 nm fabric: a trivial core's 500 MHz,
/// divided by 1 + 0.15 per stage of logic depth.
pub fn fmax_hz(stages: usize) -> u64 {
    (500e6 / (1.0 + 0.15 * stages as f64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_fabric::ClockDomain;

    #[test]
    fn compact_chains_close_at_2x_deep_chains_do_not() {
        // §5.3: "keeping chains compact (about 3–4 stages)" to run at 2×.
        let two_x = ClockDomain::XGMII_10G_X2.hz();
        assert!(fmax_hz(3) >= two_x);
        assert!(fmax_hz(4) >= two_x);
        assert!(fmax_hz(5) < two_x);
        // At 1× even deep chains close.
        assert!(fmax_hz(MAX_STAGES) >= ClockDomain::XGMII_10G.hz());
    }
}
