//! VLAN access tagging and QinQ for legacy L2 segmentation (§3).
//!
//! Deployed in an SFP cage of a legacy switch, the tagger turns the port
//! into an access port: frames entering from the edge get the access
//! VLAN pushed (and optionally a provider S-tag for QinQ), frames
//! leaving toward the edge get the tag(s) stripped. Priority (PCP) can
//! be stamped from a DSCP-derived mapping.

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_ppe::action::{Action, ActionEngine, ActionOutcome};
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// Counter indices.
pub mod counters {
    /// Frames tagged on ingress-to-network.
    pub(crate) const TAGGED: usize = 0;
    /// Frames untagged toward the host.
    pub(crate) const UNTAGGED: usize = 1;
    /// Frames dropped because they arrived already-tagged on an access
    /// port (tag spoofing).
    pub(crate) const SPOOF_DROPPED: usize = 2;
    /// Frames the parser refused (dropped).
    pub(crate) const UNPARSED: usize = 3;
    /// Counters in the bank.
    pub(crate) const LEN: usize = 4;
}

/// The VLAN access tagger / QinQ application.
pub struct VlanTagger {
    /// Access VLAN id pushed on host frames.
    pub access_vid: u16,
    /// PCP stamped into the access tag.
    pub pcp: u8,
    /// Optional provider S-tag (QinQ) pushed above the C-tag.
    pub s_tag: Option<u16>,
    /// Drop host frames that arrive already tagged (spoofing guard).
    pub drop_tagged_ingress: bool,
    engine: ActionEngine,
    parser: Parser,
}

impl VlanTagger {
    /// An access tagger for `access_vid`.
    pub fn new(access_vid: u16) -> VlanTagger {
        VlanTagger {
            access_vid,
            pcp: 0,
            s_tag: None,
            drop_tagged_ingress: true,
            engine: ActionEngine::new(counters::LEN),
            parser: Parser,
        }
    }

    /// Enable QinQ with the given service VLAN.
    pub fn with_s_tag(mut self, s_vid: u16) -> VlanTagger {
        self.s_tag = Some(s_vid);
        self
    }

    fn apply(&mut self, action: Action, packet: &mut Vec<u8>) -> Option<Verdict> {
        let parsed = self.parser.parse(packet)?;
        match self.engine.apply(action, packet, &parsed, None) {
            ActionOutcome::Continue { .. } => None,
            ActionOutcome::Final(v) => Some(v),
        }
    }
}

impl PacketProcessor for VlanTagger {
    fn name(&self) -> &str {
        "vlan-tagger"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            self.engine.counters.count(counters::UNPARSED, packet.len());
            return Verdict::Drop;
        };
        match ctx.direction {
            Direction::EdgeToOptical => {
                if !parsed.vlans.is_empty() {
                    if self.drop_tagged_ingress {
                        self.engine
                            .counters
                            .count(counters::SPOOF_DROPPED, packet.len());
                        return Verdict::Drop;
                    }
                } else {
                    if let Some(v) = self.apply(
                        Action::PushVlan {
                            vid: self.access_vid,
                            pcp: self.pcp,
                        },
                        packet,
                    ) {
                        return v;
                    }
                    if let Some(s_vid) = self.s_tag {
                        if let Some(v) = self.apply(Action::PushSTag { vid: s_vid }, packet) {
                            return v;
                        }
                    }
                    self.engine.counters.count(counters::TAGGED, packet.len());
                }
                Verdict::Forward
            }
            Direction::OpticalToEdge => {
                // Strip S-tag then C-tag as present.
                let mut stripped = false;
                for _ in 0..2 {
                    let tagged = self
                        .parser
                        .parse(packet)
                        .map(|p| !p.vlans.is_empty())
                        .unwrap_or(false);
                    if !tagged {
                        break;
                    }
                    if let Some(v) = self.apply(Action::PopVlan, packet) {
                        return v;
                    }
                    stripped = true;
                }
                if stripped {
                    self.engine.counters.count(counters::UNTAGGED, packet.len());
                }
                Verdict::Forward
            }
        }
    }

    fn resource_manifest(&self) -> ResourceManifest {
        // Tag insertion/removal is cheap: shallow parse + shift network.
        ResourceManifest::new(2_400, 3_100, 14, 0)
    }

    fn pipeline_depth(&self) -> u32 {
        1
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Table 0, key "vid": runtime re-assignment of the access
            // VLAN (coarse-grained update, as §4.1 describes).
            TableOp::Insert {
                table: 0,
                key,
                value,
            } if key == b"vid" => {
                let Ok(bytes) = <[u8; 2]>::try_from(&value[..]) else {
                    return TableOpResult::BadEncoding;
                };
                self.access_vid = u16::from_be_bytes(bytes) & 0x0fff;
                TableOpResult::Ok
            }
            TableOp::ReadCounter { index } => self.engine.counters.get(*index as usize).into(),
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_ppe::parser::Parser;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    fn frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            0x0a000001,
            1000,
            2000,
            b"data",
        )
    }

    #[test]
    fn tags_on_egress_untags_on_ingress() {
        let mut t = VlanTagger::new(100);
        t.pcp = 5;
        let mut pkt = frame();
        let orig = pkt.clone();
        assert_eq!(
            t.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.vlans, vec![100]);
        assert_eq!(crate::packets(&t.engine.counters, counters::TAGGED), 1);

        // Now the frame comes back from the network.
        assert_eq!(
            t.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, orig);
        assert_eq!(crate::packets(&t.engine.counters, counters::UNTAGGED), 1);
    }

    #[test]
    fn qinq_double_tags() {
        let mut t = VlanTagger::new(10).with_s_tag(500);
        let mut pkt = frame();
        let orig = pkt.clone();
        t.process(&ProcessContext::egress(), &mut pkt);
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.vlans, vec![500, 10]);
        // Full strip on the way back.
        t.process(&ProcessContext::ingress(), &mut pkt);
        assert_eq!(pkt, orig);
    }

    #[test]
    fn tagged_ingress_from_host_is_spoofing() {
        let mut t = VlanTagger::new(100);
        let mut pkt = PacketBuilder::with_vlan(&frame(), 999, 0);
        assert_eq!(
            t.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(
            crate::packets(&t.engine.counters, counters::SPOOF_DROPPED),
            1
        );
    }

    #[test]
    fn tolerant_mode_passes_pretagged() {
        let mut t = VlanTagger::new(100);
        t.drop_tagged_ingress = false;
        let mut pkt = PacketBuilder::with_vlan(&frame(), 999, 0);
        let before = pkt.clone();
        assert_eq!(
            t.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
    }

    #[test]
    fn untagged_from_network_passes() {
        let mut t = VlanTagger::new(100);
        let mut pkt = frame();
        let before = pkt.clone();
        assert_eq!(
            t.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
        assert_eq!(crate::packets(&t.engine.counters, counters::UNTAGGED), 0);
    }

    #[test]
    fn runtime_vid_change() {
        let mut t = VlanTagger::new(100);
        assert_eq!(
            t.control_op(&TableOp::Insert {
                table: 0,
                key: b"vid".to_vec(),
                value: 200u16.to_be_bytes().to_vec(),
            }),
            TableOpResult::Ok
        );
        let mut pkt = frame();
        t.process(&ProcessContext::egress(), &mut pkt);
        let p = Parser.parse(&pkt).unwrap();
        assert_eq!(p.vlans, vec![200]);
    }

    #[test]
    fn fits_device() {
        assert!(flexsfp_fabric::Device::mpf200t()
            .fit(VlanTagger::new(1).resource_manifest())
            .fits());
    }
}
