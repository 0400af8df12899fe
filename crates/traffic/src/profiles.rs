//! Scenario presets matching the paper's deployment stories.
//!
//! §2.1 motivates FlexSFP with telecom aggregation. Each preset returns
//! a configured [`TraceBuilder`] whose flow population and size mix
//! resemble a metro-ISP port, so experiments can say "a flash crowd"
//! instead of hand-tuning distributions.

use crate::gen::{ArrivalModel, SizeModel, TraceBuilder};

/// A metro-ISP aggregation port: a city-scale CGNAT subscriber
/// population (§2.1's FTTH story at aggregation rather than access
/// scale). `subscribers` sets the flow population, `utilization` the
/// offered load, so a soak can sweep a diurnal curve (overnight trough
/// → daytime plateau → evening peak) by chaining phases that differ
/// only in load.
///
/// Arrivals are paced: at utilization ≤ 1 a paced stream never
/// backlogs the PPE server, so every departure depends only on the
/// packet's own arrival and length — the property that keeps the
/// sharded dataplane digest-identical to serial under this workload.
/// Callers modeling burstier access traffic can swap in
/// `ArrivalModel::Poisson` via [`TraceBuilder::arrivals`].
pub fn metro_subscribers(seed: u64, subscribers: usize, utilization: f64) -> TraceBuilder {
    TraceBuilder::new(seed)
        .flows(subscribers)
        .sizes(SizeModel::Imix)
        .arrivals(ArrivalModel::Paced { utilization })
        .src_base(0x0a64_0000) // CGNAT 10.100.0.0/16-and-up block
        .dport(443)
}

/// A flash crowd on the same metro port: the whole subscriber base
/// piles onto one event stream (paced, high sustained load) with
/// back-to-back microbursts layered on top. Burst depth stays well
/// under the 64 KB ingress FIFO so a healthy dataplane absorbs them
/// without drops — the SLO gate checks exactly that.
pub fn flash_crowd(seed: u64, subscribers: usize) -> TraceBuilder {
    TraceBuilder::new(seed)
        .flows(subscribers)
        .sizes(SizeModel::Imix)
        .arrivals(ArrivalModel::Paced { utilization: 0.85 })
        .src_base(0x0a64_0000)
        .dport(443)
        .microburst(50_000, 24)
        .microburst(250_000, 24)
        .microburst(450_000, 24)
}

/// A volumetric DDoS aimed through the port: minimum-size frames from
/// a source block disjoint from the subscriber ranges, at near line
/// rate. Against the NAT these sources have no mappings, so the attack
/// exercises table lookup misses and policy drops at the worst-case
/// packet rate.
pub fn ddos_burst(seed: u64, sources: usize) -> TraceBuilder {
    TraceBuilder::new(seed)
        .flows(sources)
        .sizes(SizeModel::Fixed(60))
        .arrivals(ArrivalModel::Paced { utilization: 0.9 })
        .src_base(0xc632_0000) // TEST-NET-ish 198.50.0.0 attack block
        .dport(53)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::udp::UdpDatagram;
    use flexsfp_wire::EthernetFrame;

    #[test]
    fn dport_sets_every_destination_port() {
        let trace = TraceBuilder::new(1)
            .flows(128)
            .sizes(SizeModel::Uniform(70, 120))
            .dport(53)
            .build(100);
        for p in &trace {
            let eth = EthernetFrame::new_checked(&p.frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
            assert_eq!(udp.dst_port(), 53);
        }
    }

    #[test]
    fn min_frame_trace_is_line_rate_64b() {
        let trace = TraceBuilder::new(1)
            .sizes(SizeModel::Fixed(60))
            .arrivals(ArrivalModel::Paced { utilization: 1.0 })
            .build(1_000);
        assert!(trace.iter().all(|p| p.frame.len() == 60));
        let span = trace.last().unwrap().arrival_ns - trace[0].arrival_ns;
        // 999 gaps × 67.2 ns ≈ 67.1 µs.
        assert!((66_000..68_500).contains(&span), "span {span}");
    }

    #[test]
    fn paced_large_frames_are_rigidly_spaced() {
        let trace = TraceBuilder::new(1)
            .flows(4)
            .sizes(SizeModel::Fixed(1400))
            .arrivals(ArrivalModel::Paced { utilization: 0.9 })
            .build(100);
        let gaps: Vec<u64> = trace
            .windows(2)
            .map(|w| w[1].arrival_ns - w[0].arrival_ns)
            .collect();
        let first = gaps[0];
        assert!(gaps.iter().all(|g| g.abs_diff(first) <= 1), "{gaps:?}");
    }

    #[test]
    fn presets_are_deterministic() {
        let a = metro_subscribers(5, 4096, 0.4).build(200);
        let b = metro_subscribers(5, 4096, 0.4).build(200);
        assert!(a.iter().zip(&b).all(|(x, y)| x.frame == y.frame));
    }

    #[test]
    fn metro_population_scales_with_subscribers() {
        use std::collections::BTreeSet;
        let trace = metro_subscribers(9, 1024, 0.5).build(5_000);
        let srcs: BTreeSet<u32> = trace
            .iter()
            .map(|p| {
                let eth = EthernetFrame::new_checked(&p.frame[..]).unwrap();
                let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
                ip.src()
            })
            .collect();
        // 5k samples over 1k subscribers should touch most of them, and
        // all sources must come from the CGNAT block.
        assert!(srcs.len() > 900, "only {} distinct sources", srcs.len());
        assert!(srcs.iter().all(|s| s & 0xff00_0000 == 0x0a00_0000));
    }

    #[test]
    fn flash_crowd_carries_microbursts() {
        let trace = flash_crowd(3, 256).build(2_000);
        // 2 000 paced packets plus 3 bursts of 24 max-size frames.
        assert_eq!(trace.len(), 2_000 + 3 * 24);
        // The first burst's frames land at line rate from t = 50 µs.
        let burst = trace
            .iter()
            .filter(|p| p.frame.len() == 1514 && (50_000..85_000).contains(&p.arrival_ns))
            .count();
        assert!(burst >= 24, "{burst} burst frames near 50 µs");
    }

    #[test]
    fn ddos_burst_is_min_frame_from_attack_block() {
        let trace = ddos_burst(11, 512).build(1_000);
        for p in &trace {
            assert_eq!(p.frame.len(), 60);
            let eth = EthernetFrame::new_checked(&p.frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            let src = ip.src();
            assert_eq!(src & 0xffff_0000, 0xc632_0000);
        }
    }
}
