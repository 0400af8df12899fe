//! The fiber link between two modules' optical sides.
//!
//! A link carries the optical-egress output of one module to the optical
//! ingress of its peer with propagation delay (≈ 5 ns/m in fiber) and a
//! fixed insertion loss used by the receiver's link-budget check.

use flexsfp_core::module::{Interface, OutputPacket, SimPacket};
use flexsfp_ppe::Direction;

/// A point-to-point fiber span.
#[derive(Debug, Clone, Copy)]
pub struct FiberLink {
    /// Length in metres.
    pub length_m: f64,
    /// Total loss (fiber + connectors), dB.
    pub loss_db: f64,
}

/// Propagation speed in fiber: ~4.9 ns per metre.
pub(crate) const NS_PER_METER: f64 = 4.9;

impl FiberLink {
    /// A span of `length_m` metres with typical multimode loss.
    pub fn new(length_m: f64) -> FiberLink {
        FiberLink {
            length_m,
            // 3.5 dB/km @ 850 nm + 2 × 0.3 dB connectors.
            loss_db: 3.5 * length_m / 1000.0 + 0.6,
        }
    }

    /// One-way propagation delay, ns.
    pub fn delay_ns(&self) -> f64 {
        self.length_m * NS_PER_METER
    }

    /// Convert one module's optical egress into the peer's optical
    /// ingress trace (arrival-sorted, delay applied). Frames are cloned.
    pub fn carry(&self, outputs: &[OutputPacket]) -> Vec<SimPacket> {
        let mut pkts = Vec::new();
        self.carry_into(outputs.iter().cloned(), &mut pkts);
        pkts
    }

    /// What [`carry`](Self::carry) returns, appended to `pkts`: consume
    /// the outputs and move each frame into the peer's ingress trace
    /// without copying, the appended part sorted by arrival.
    pub(crate) fn carry_into<I>(&self, outputs: I, pkts: &mut Vec<SimPacket>)
    where
        I: IntoIterator<Item = OutputPacket>,
    {
        let from = pkts.len();
        pkts.extend(
            outputs
                .into_iter()
                .filter(|o| o.egress == Interface::Optical)
                .map(|o| SimPacket {
                    arrival_ns: o.departure_ns + self.delay_ns() as u64,
                    direction: Direction::OpticalToEdge,
                    frame: o.frame,
                }),
        );
        pkts[from..].sort_by_key(|p| p.arrival_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_core::module::FlexSfp;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    fn frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            0x0a000001,
            1,
            2,
            b"x",
        )
    }

    #[test]
    fn delay_scales_with_length() {
        assert!((FiberLink::new(100.0).delay_ns() - 490.0).abs() < 1e-9);
        assert!(FiberLink::new(2000.0).loss_db > FiberLink::new(10.0).loss_db);
    }

    #[test]
    fn end_to_end_two_modules() {
        // A sends edge→optical; the link carries it to B's optical
        // ingress; B forwards it to its edge.
        let mut a = FlexSfp::passthrough();
        let mut b = FlexSfp::passthrough();
        let link = FiberLink::new(300.0);
        let report_a = a.run(vec![SimPacket {
            arrival_ns: 0,
            direction: Direction::EdgeToOptical,
            frame: frame(),
        }]);
        assert_eq!(report_a.forwarded.1, 1);
        let over_fiber = link.carry(&report_a.outputs);
        assert_eq!(over_fiber.len(), 1);
        assert!(over_fiber[0].arrival_ns >= 1470); // ≥ 300 m of fiber
        let report_b = b.run(over_fiber);
        assert_eq!(report_b.forwarded.0, 1);
        assert_eq!(report_b.outputs[0].frame, frame());
    }

    #[test]
    fn carry_into_moves_frames_behind_what_is_there() {
        let mut a = FlexSfp::passthrough();
        let report = a.run(vec![SimPacket {
            arrival_ns: 0,
            direction: Direction::EdgeToOptical,
            frame: frame(),
        }]);
        let by_ref = FiberLink::new(300.0).carry(&report.outputs);
        let mut owned = FiberLink::new(1.0).carry(&report.outputs);
        FiberLink::new(300.0).carry_into(report.outputs, &mut owned);
        assert_eq!(owned.len(), 2);
        assert_eq!(by_ref[0].arrival_ns, owned[1].arrival_ns);
        assert_eq!(by_ref[0].frame, owned[1].frame);
    }

    #[test]
    fn carry_filters_edge_outputs() {
        let mut a = FlexSfp::passthrough();
        // Optical→edge traffic leaves on the edge side; the fiber must
        // not loop it back.
        let report = a.run(vec![SimPacket {
            arrival_ns: 0,
            direction: Direction::OpticalToEdge,
            frame: frame(),
        }]);
        assert_eq!(report.forwarded.0, 1);
        assert!(FiberLink::new(1.0).carry(&report.outputs).is_empty());
    }
}
