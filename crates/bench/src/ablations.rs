//! Ablations of the design choices the paper calls out.
//!
//! 1. **Control-traffic share** — §4.1 assumes control traffic is
//!    "negligible compared to the data-plane traffic … such that the
//!    aggregation step does not become a performance bottleneck";
//!    sweeping the control share quantifies when that holds.
//! 2. **NAT table sizing** — Table 1's footnote claims "promising
//!    potential for larger tables"; sweep capacity vs LSRAM budget.
//! 3. **Chain depth** — §5.3's "keeping chains compact (about 3–4
//!    stages)" for 2× clock closure; sweep depth vs f_max.
//! 4. **FIFO sizing** — how much buffering rescues an overloaded
//!    Two-Way-Core at 1× clock (it cannot: the deficit is sustained).

use crate::ctl::control_frame;
use flexsfp_apps::StaticNat;
use flexsfp_core::control::ControlRequest;
use flexsfp_core::module::{FlexSfp, ModuleConfig, SimPacket};
use flexsfp_core::ShellKind;
use flexsfp_fabric::{ClockDomain, Device};
use flexsfp_ppe::engine::PassThrough;
use flexsfp_ppe::pipeline::{fmax_hz, MAX_STAGES};
use flexsfp_ppe::Direction;
use flexsfp_traffic::{SizeModel, TraceBuilder};

/// Control-share sweep point.
#[derive(Debug, Clone)]
pub struct ControlSharePoint {
    /// Fraction of offered frames that are control traffic.
    pub share: f64,
    /// Dataplane delivery ratio.
    pub data_delivery: f64,
    /// Control requests answered.
    pub control_handled: u64,
}

flexsfp_obs::impl_json_struct!(ControlSharePoint {
    share,
    data_delivery,
    control_handled
});

/// NAT table-size sweep point.
#[derive(Debug, Clone)]
pub struct TableSizePoint {
    /// Flow capacity.
    pub capacity: usize,
    /// LSRAM blocks consumed.
    pub lsram_blocks: u64,
    /// Fraction of the device's LSRAM.
    pub lsram_share: f64,
    /// Whole design still fits.
    pub fits: bool,
}

flexsfp_obs::impl_json_struct!(TableSizePoint {
    capacity,
    lsram_blocks,
    lsram_share,
    fits
});

/// Chain-depth sweep point.
#[derive(Debug, Clone)]
pub struct ChainDepthPoint {
    /// Stages in the chain.
    pub depth: usize,
    /// Achievable clock, MHz.
    pub fmax_mhz: f64,
    /// Closes at 156.25 MHz.
    pub closes_1x: bool,
    /// Closes at 312.5 MHz.
    pub closes_2x: bool,
}

flexsfp_obs::impl_json_struct!(ChainDepthPoint {
    depth,
    fmax_mhz,
    closes_1x,
    closes_2x
});

/// FIFO sweep point.
#[derive(Debug, Clone)]
pub struct FifoPoint {
    /// FIFO capacity, KiB.
    pub fifo_kib: usize,
    /// Delivery of an overloaded Two-Way-Core at 1×.
    pub delivery: f64,
}

flexsfp_obs::impl_json_struct!(FifoPoint { fifo_kib, delivery });

/// The combined report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ablation 1.
    pub control_share: Vec<ControlSharePoint>,
    /// Ablation 2.
    pub table_size: Vec<TableSizePoint>,
    /// Ablation 3.
    pub chain_depth: Vec<ChainDepthPoint>,
    /// Ablation 4.
    pub fifo: Vec<FifoPoint>,
}

flexsfp_obs::impl_json_struct!(Report {
    control_share,
    table_size,
    chain_depth,
    fifo
});

fn control_share_sweep(n: usize) -> Vec<ControlSharePoint> {
    [0.0, 0.01, 0.05, 0.10, 0.20]
        .into_iter()
        .map(|share| {
            let mut module = FlexSfp::passthrough();
            let data = TraceBuilder::new(0xab)
                .sizes(SizeModel::Fixed(60))
                .arrivals(flexsfp_traffic::gen::ArrivalModel::Paced { utilization: 1.0 })
                .build(n);
            let every = if share == 0.0 {
                usize::MAX
            } else {
                (1.0 / share) as usize
            };
            let mut packets: Vec<SimPacket> = Vec::with_capacity(n);
            let mut data_count = 0u64;
            for (i, p) in data.into_iter().enumerate() {
                if i % every == every - 1 {
                    // Replace with a control ping at the same slot.
                    packets.push(SimPacket {
                        arrival_ns: p.arrival_ns,
                        direction: Direction::EdgeToOptical,
                        frame: control_frame(
                            &module.config,
                            &ControlRequest::Ping { nonce: i as u64 },
                        ),
                    });
                } else {
                    data_count += 1;
                    packets.push(SimPacket {
                        arrival_ns: p.arrival_ns,
                        direction: Direction::EdgeToOptical,
                        frame: p.frame,
                    });
                }
            }
            let report = module.run(packets);
            let delivered = report.forwarded.0 + report.forwarded.1;
            ControlSharePoint {
                share,
                data_delivery: if data_count == 0 {
                    1.0
                } else {
                    delivered as f64 / data_count as f64
                },
                control_handled: report.control_handled,
            }
        })
        .collect()
}

/// The NAT's table at each capacity, costed and fit-checked by a
/// default module holding it.
fn table_size_sweep() -> Vec<TableSizePoint> {
    let device = Device::mpf200t();
    [1_024usize, 4_096, 16_384, 32_768, 65_536, 131_072]
        .into_iter()
        .map(|capacity| {
            let lsram = StaticNat::manifest(capacity).lsram;
            let module = FlexSfp::new(
                ModuleConfig::default(),
                Box::new(StaticNat::with_capacity(capacity)),
            );
            TableSizePoint {
                capacity,
                lsram_blocks: lsram,
                lsram_share: lsram as f64 / device.capacity.lsram as f64,
                fits: module.fit_report().fits(),
            }
        })
        .collect()
}

fn chain_depth_sweep() -> Vec<ChainDepthPoint> {
    (1..=MAX_STAGES)
        .map(|depth| {
            let fmax = fmax_hz(depth);
            ChainDepthPoint {
                depth,
                fmax_mhz: fmax as f64 / 1e6,
                closes_1x: fmax >= ClockDomain::XGMII_10G.hz(),
                closes_2x: fmax >= ClockDomain::XGMII_10G_X2.hz(),
            }
        })
        .collect()
}

fn fifo_sweep(n: usize) -> Vec<FifoPoint> {
    [16usize, 64, 256, 1024]
        .into_iter()
        .map(|kib| {
            let mut module = FlexSfp::new(
                ModuleConfig {
                    shell: ShellKind::TwoWayCore,
                    ppe_clock: ClockDomain::XGMII_10G,
                    fifo_bytes: kib * 1024,
                    ..Default::default()
                },
                Box::new(PassThrough),
            );
            let base = TraceBuilder::new(0xcd)
                .sizes(SizeModel::Fixed(60))
                .arrivals(flexsfp_traffic::gen::ArrivalModel::Paced { utilization: 1.0 })
                .build(n);
            let mut packets = Vec::with_capacity(2 * n);
            for p in base {
                packets.push(SimPacket {
                    arrival_ns: p.arrival_ns,
                    direction: Direction::EdgeToOptical,
                    frame: p.frame.clone(),
                });
                packets.push(SimPacket {
                    arrival_ns: p.arrival_ns,
                    direction: Direction::OpticalToEdge,
                    frame: p.frame,
                });
            }
            let report = module.run(packets);
            FifoPoint {
                fifo_kib: kib,
                delivery: report.delivery_ratio(),
            }
        })
        .collect()
}

/// Run all ablations (`n` packets for the traffic-driven ones).
pub fn run(n: usize) -> Report {
    Report {
        control_share: control_share_sweep(n),
        table_size: table_size_sweep(),
        chain_depth: chain_depth_sweep(),
        fifo: fifo_sweep(n),
    }
}

/// Render all four ablations.
pub fn render(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("Ablation 1: control-traffic share vs dataplane delivery (One-Way-Filter)\n");
    out.push_str(&crate::render::table(
        &["Share", "Data delivery", "Control handled"],
        &r.control_share
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}%", p.share * 100.0),
                    format!("{:.4}", p.data_delivery),
                    p.control_handled.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation 2: NAT table capacity vs LSRAM budget (616 blocks)\n");
    out.push_str(&crate::render::table(
        &["Flows", "LSRAM blocks", "Share", "Fits"],
        &r.table_size
            .iter()
            .map(|p| {
                vec![
                    p.capacity.to_string(),
                    p.lsram_blocks.to_string(),
                    format!("{:.0}%", p.lsram_share * 100.0),
                    p.fits.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation 3: chain depth vs achievable clock\n");
    out.push_str(&crate::render::table(
        &["Stages", "fmax MHz", "Closes 156.25", "Closes 312.5"],
        &r.chain_depth
            .iter()
            .map(|p| {
                vec![
                    p.depth.to_string(),
                    format!("{:.0}", p.fmax_mhz),
                    p.closes_1x.to_string(),
                    p.closes_2x.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    ));
    out.push_str("\nAblation 4: FIFO size vs overloaded Two-Way-Core delivery (1x clock)\n");
    out.push_str(&crate::render::table(
        &["FIFO KiB", "Delivery"],
        &r.fifo
            .iter()
            .map(|p| vec![p.fifo_kib.to_string(), format!("{:.4}", p.delivery)])
            .collect::<Vec<_>>(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_share_negligible_impact() {
        let r = run(2_000);
        // The §4.1 assumption: even at 20% control share, dataplane
        // delivery of the One-Way-Filter is unaffected (control frames
        // divert before the PPE).
        for p in &r.control_share {
            assert!(p.data_delivery >= 0.999, "{p:?}");
        }
        // And control frames actually got answered.
        assert!(r.control_share.last().unwrap().control_handled > 0);
        assert_eq!(r.control_share[0].control_handled, 0);
    }

    #[test]
    fn table_scaling_headroom() {
        let r = run(100);
        let at = |cap: usize| r.table_size.iter().find(|p| p.capacity == cap).unwrap();
        // The prototype's 32k table: 160 blocks ≈ 26%.
        assert_eq!(at(32_768).lsram_blocks, 160);
        assert!(at(32_768).fits);
        // A 2× larger table still fits — "promising potential for
        // larger tables" — but 4× (128k flows, 640 blocks) exceeds the
        // 616-block budget: the ceiling is ~2×.
        assert!(at(65_536).fits);
        assert!(!at(131_072).fits);
        assert!(at(131_072).lsram_share > 1.0);
    }

    #[test]
    fn chain_depth_claim() {
        let r = run(100);
        let closes_2x: Vec<bool> = r.chain_depth.iter().map(|p| p.closes_2x).collect();
        // 1–4 stages close at 2×; 5–6 do not — "about 3–4 stages".
        assert_eq!(closes_2x, vec![true, true, true, true, false, false]);
        // All depths close at 1×.
        assert!(r.chain_depth.iter().all(|p| p.closes_1x));
        // fmax decreases monotonically with depth.
        for w in r.chain_depth.windows(2) {
            assert!(w[1].fmax_mhz < w[0].fmax_mhz);
        }
    }

    #[test]
    fn fifo_cannot_rescue_sustained_overload() {
        // Sustained 2× packet-rate overload: the PPE serves a 64 B
        // frame in 8 beats × 6.4 ns = 51.2 ns while the wire delivers
        // one per 67.2 ns per direction, so the steady-state delivery
        // floor is 67.2 / 102.4 ≈ 0.656. Buffering only absorbs a
        // transient proportional to FIFO size; it cannot lift the floor.
        // 30 k packets/direction ≈ 2 ms of line-rate 64 B traffic.
        let r = run(30_000);
        let deliveries: Vec<f64> = r.fifo.iter().map(|p| p.delivery).collect();
        // Small FIFOs sit at the sustained floor.
        assert!((0.64..0.68).contains(&deliveries[0]), "{deliveries:?}");
        assert!(deliveries[1] < 0.70, "{deliveries:?}");
        // Bigger FIFOs absorb more transient but never reach 1.0.
        for w in deliveries.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{deliveries:?}");
        }
        assert!(*deliveries.last().unwrap() < 0.97, "{deliveries:?}");
    }

    #[test]
    fn render_sections() {
        let text = render(&run(500));
        for s in ["Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4"] {
            assert!(text.contains(s));
        }
    }
}
