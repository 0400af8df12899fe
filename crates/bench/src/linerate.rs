//! The §5.1 end-to-end test: NAT at 10 Gb/s line rate.
//!
//! "We performed a simple end-to-end test, which confirmed line-rate
//! performance." The NAT module is offered line-rate traffic at a sweep
//! of frame sizes; the experiment reports offered vs delivered rate,
//! translation correctness and latency. Line rate holds when delivery
//! is 1.0 at every size, including 64-byte worst case.

use flexsfp_apps::StaticNat;
use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp_ppe::Direction;
use flexsfp_traffic::{LineRateCalc, SizeModel, TraceBuilder};
use flexsfp_wire::ipv4::Ipv4Packet;
use flexsfp_wire::PacketArena;

/// One frame-size measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Frame size (no FCS), bytes.
    pub frame_len: usize,
    /// Offered rate, packets/s.
    pub offered_pps: f64,
    /// Delivered fraction.
    pub delivery: f64,
    /// Delivered dataplane throughput, Gb/s (frame bits).
    pub delivered_gbps: f64,
    /// All delivered packets correctly translated.
    pub translated_ok: bool,
    /// Mean latency, ns.
    pub mean_latency_ns: f64,
}

flexsfp_obs::impl_json_struct!(Point {
    frame_len,
    offered_pps,
    delivery,
    delivered_gbps,
    translated_ok,
    mean_latency_ns
});

/// The report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-size points.
    pub points: Vec<Point>,
    /// Line rate confirmed at every size.
    pub line_rate_confirmed: bool,
}

flexsfp_obs::impl_json_struct!(Report {
    points,
    line_rate_confirmed
});

const PRIVATE_BASE: u32 = 0xc0a8_0000;
const PUBLIC_BASE: u32 = 0x6540_0000;

fn nat_module(flows: usize) -> FlexSfp {
    let mut nat = StaticNat::new();
    for i in 0..flows as u32 {
        nat.add_mapping(PRIVATE_BASE + i, PUBLIC_BASE + i)
            .expect("mapping install");
    }
    FlexSfp::new(ModuleConfig::default(), Box::new(nat))
}

/// Run the sweep with `n` packets per size, one module per size. Each
/// point streams its trace through an arena, verifying translation in
/// the sink, so memory stays O(1) in `n` and no frame is ever cloned.
pub fn run(n: usize) -> Report {
    let sizes = [60usize, 128, 256, 512, 1024, 1514];
    let flows = 64;
    let calc = LineRateCalc::TEN_GIG;
    let points = sizes.map(|len| {
        let mut module = nat_module(flows);
        let arena = PacketArena::new();
        let stream = TraceBuilder::new(0x51)
            .flows(flows)
            .src_base(PRIVATE_BASE)
            .sizes(SizeModel::Fixed(len))
            .arrivals(flexsfp_traffic::gen::ArrivalModel::Paced { utilization: 1.0 })
            .stream_pooled(n, arena.clone());
        // Verify translation on each output as it leaves the module.
        let mut translated_ok = true;
        let report = module.run_stream_with(
            stream.map(|p| SimPacket {
                arrival_ns: p.arrival_ns,
                direction: Direction::EdgeToOptical,
                frame: p.frame,
            }),
            |o| {
                translated_ok &= Ipv4Packet::new_checked(&o.frame[14..])
                    .map(|ip| {
                        (PUBLIC_BASE..PUBLIC_BASE + flows as u32).contains(&ip.src())
                            && ip.verify_checksum()
                    })
                    .unwrap_or(false);
                arena.recycle(o.frame);
            },
        );
        Point {
            frame_len: len,
            offered_pps: calc.max_fps(len),
            delivery: report.delivery_ratio(),
            delivered_gbps: report.delivered_bps() / 1e9,
            translated_ok,
            mean_latency_ns: report.latency.mean_ns(),
        }
    });
    let line_rate_confirmed = points.iter().all(|p| p.delivery >= 1.0 && p.translated_ok);
    Report {
        points: points.into(),
        line_rate_confirmed,
    }
}

/// Render the sweep.
pub fn render(r: &Report) -> String {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.frame_len.to_string(),
                format!("{:.0}", p.offered_pps),
                format!("{:.4}", p.delivery),
                format!("{:.3}", p.delivered_gbps),
                p.translated_ok.to_string(),
                format!("{:.0}", p.mean_latency_ns),
            ]
        })
        .collect();
    format!(
        "S5.1 end-to-end NAT line-rate test (10G, one-way filter, 64b @ 156.25 MHz)\n{}\nline rate confirmed: {}",
        crate::render::table(
            &["Frame B", "Offered pps", "Delivery", "Gb/s out", "NAT ok", "Mean ns"],
            &rows
        ),
        r.line_rate_confirmed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rate_confirmed_at_all_sizes() {
        let r = run(3_000);
        assert!(r.line_rate_confirmed, "{r:#?}");
        // Worst case 64 B: 14.88 Mpps offered, zero loss.
        let min = &r.points[0];
        assert_eq!(min.frame_len, 60);
        assert!((min.offered_pps - 14_880_952.0).abs() < 10.0);
        assert_eq!(min.delivery, 1.0);
    }

    #[test]
    fn throughput_grows_with_frame_size() {
        let r = run(2_000);
        // Bigger frames → more goodput (less per-frame overhead).
        let gbps: Vec<f64> = r.points.iter().map(|p| p.delivered_gbps).collect();
        for w in gbps.windows(2) {
            assert!(w[1] > w[0], "{gbps:?}");
        }
        // 1514 B approaches 9.8 Gb/s of frame bits.
        assert!(*gbps.last().unwrap() > 9.5, "{gbps:?}");
    }

    #[test]
    fn latency_stays_sub_microsecond() {
        let r = run(2_000);
        for p in &r.points {
            assert!(p.mean_latency_ns < 2_500.0, "{p:?}");
        }
    }
}
