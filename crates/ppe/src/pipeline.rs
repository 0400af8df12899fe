//! Match-action pipelines as the HLS model costs them.
//!
//! A pipeline is a short chain of stages (the paper's §5.3: "keeping
//! chains compact (about 3–4 stages)"), each a match structure and the
//! actions its hit and miss lists hold. It is a description:
//! [`crate::hls::synthesize_pipeline`] turns it into resources, f_max and
//! latency, and nothing here runs a packet.
//!
//! The module also holds the PPE latency model every flight stamp and
//! the module's PPE transit share ([`stage_start_cycle`],
//! [`stamp_stages`]), and [`KeySelector`], the parsed fields a stage (or
//! the firewall's ACL) keys on.

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

    /// Width of the meaningful key in bits — what the synthesized table
    /// actually stores per entry (the generic 13-byte key is a software
    /// convenience; hardware stores only the selected fields).
    pub fn key_bits(&self) -> u64 {
        match self {
            KeySelector::SrcIp | KeySelector::DstIp => 32,
            KeySelector::FiveTuple => 104,
            KeySelector::OuterVlan => 12,
            KeySelector::EtherType | KeySelector::L4DstPort => 16,
            KeySelector::SrcMac => 48,
            KeySelector::SrcPrefix64 => 64,
        }
    }
}

/// The match structure of a stage: its kind and the geometry its memory
/// is planned for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matcher {
    /// Unconditional hit; no table.
    Always,
    /// Exact match in a hardware hash table.
    Exact {
        /// Field(s) to key on; only the selected bits are stored.
        selector: KeySelector,
        /// Entries the table holds (buckets × ways).
        entries: usize,
    },
    /// Longest-prefix match over an IPv4 address.
    Lpm {
        /// Prefixes installed.
        prefixes: usize,
    },
    /// Ternary (ACL) match with priorities.
    Ternary {
        /// Rows the table holds.
        rows: usize,
    },
}

/// One match-action stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// The match structure.
    pub matcher: Matcher,
    /// Actions on the stage's hit and miss lists together.
    pub actions: usize,
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

/// A chain of at most [`MAX_STAGES`] stages, built by [`PipelineBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// The stages, in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }
}

/// Builder for [`Pipeline`].
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    stages: Vec<Stage>,
}

impl PipelineBuilder {
    /// Append a stage. Panics beyond [`MAX_STAGES`] — the fabric cannot
    /// fit deeper chains at speed (§5.3).
    pub fn stage(mut self, stage: Stage) -> PipelineBuilder {
        assert!(
            self.stages.len() < MAX_STAGES,
            "pipeline exceeds MAX_STAGES ({MAX_STAGES})"
        );
        self.stages.push(stage);
        self
    }

    /// Finish the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            stages: self.stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "MAX_STAGES")]
    fn depth_limit_enforced() {
        let mut b = PipelineBuilder::default();
        for _ in 0..=MAX_STAGES {
            b = b.stage(Stage {
                matcher: Matcher::Always,
                actions: 0,
            });
        }
    }
}
