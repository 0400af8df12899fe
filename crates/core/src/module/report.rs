//! What goes into a run and what comes out of it: the module's
//! configuration, the offered and emitted packet types, the output
//! digest and the per-run report.

use crate::auth::AuthKey;
use crate::shell::{ControlPlaneClass, ShellKind};
use flexsfp_fabric::clock::ClockDomain;
use flexsfp_obs::{DropCounters, LatencyHistogram};
use flexsfp_ppe::Direction;
use flexsfp_wire::{fnv1a, MacAddr, FNV1A_OFFSET};

/// Physical interfaces of the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Host-side edge connector (electrical).
    Edge,
    /// Optical cage.
    Optical,
}

impl Interface {
    /// Natural egress interface for traffic travelling in `dir`.
    pub fn egress_for(dir: Direction) -> Interface {
        match dir {
            Direction::EdgeToOptical => Interface::Optical,
            Direction::OpticalToEdge => Interface::Edge,
        }
    }

    /// The other interface.
    pub fn other(self) -> Interface {
        match self {
            Interface::Edge => Interface::Optical,
            Interface::Optical => Interface::Edge,
        }
    }
}

/// Module configuration.
#[derive(Debug, Clone)]
pub struct ModuleConfig {
    /// Module serial / identifier.
    pub id: String,
    /// Architecture shell.
    pub shell: ShellKind,
    /// Control-plane class (§4.1): fabric softcore or hard SoC.
    pub cp_class: ControlPlaneClass,
    /// PPE clock (the Two-Way-Core mitigation raises this to 2×).
    pub ppe_clock: ClockDomain,
    /// Ingress FIFO capacity in bytes (per direction feeding the PPE).
    pub fifo_bytes: usize,
    /// Management MAC address.
    pub mgmt_mac: MacAddr,
    /// Management IPv4 address.
    pub mgmt_ip: u32,
    /// Control-plane authentication key.
    pub auth_key: AuthKey,
}

impl Default for ModuleConfig {
    fn default() -> Self {
        ModuleConfig {
            id: "FSFP-PROTO-001".into(),
            shell: ShellKind::one_way_egress(),
            cp_class: ControlPlaneClass::Softcore,
            ppe_clock: ClockDomain::XGMII_10G,
            // 64 KiB of LSRAM-backed buffering per direction.
            fifo_bytes: 64 * 1024,
            mgmt_mac: MacAddr([0x02, 0xf5, 0x0f, 0x00, 0x00, 0x01]),
            mgmt_ip: 0x0a00_0164,
            auth_key: AuthKey::DEFAULT,
        }
    }
}

impl ModuleConfig {
    /// A Two-Way-Core configuration with the paper's 2× PPE clock.
    /// Test-only: `tests/props.rs`: no shipped program builds it.
    pub fn two_way_2x() -> ModuleConfig {
        ModuleConfig {
            shell: ShellKind::TwoWayCore,
            ppe_clock: ClockDomain::XGMII_10G_X2,
            ..Default::default()
        }
    }
}

/// A packet offered to the module.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Arrival time at the ingress interface, ns.
    pub arrival_ns: u64,
    /// Direction of travel.
    pub direction: Direction,
    /// The Ethernet frame (without FCS).
    pub frame: Vec<u8>,
}

/// A packet emitted by the module.
#[derive(Debug, Clone)]
pub struct OutputPacket {
    /// Departure time, ns.
    pub departure_ns: u64,
    /// Egress interface.
    pub egress: Interface,
    /// The (possibly modified) frame.
    pub frame: Vec<u8>,
    /// Module transit latency, ns.
    pub latency_ns: f64,
}

/// The canonical digest of an output stream: an FNV-1a fold of every
/// packet's departure time (LE), egress interface (one byte, 1 =
/// optical), frame length (`u32` LE) and frame bytes, in sink order.
/// Two runs with equal digests emitted the same frames, with the same
/// timing, in the same order — what every parity check compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputDigest(u64);

impl Default for OutputDigest {
    fn default() -> Self {
        OutputDigest(FNV1A_OFFSET)
    }
}

impl OutputDigest {
    /// Fold one output packet into the digest.
    pub fn fold(&mut self, out: &OutputPacket) {
        let mut h = fnv1a(self.0, &out.departure_ns.to_le_bytes());
        h = fnv1a(h, &[matches!(out.egress, Interface::Optical) as u8]);
        h = fnv1a(h, &(out.frame.len() as u32).to_le_bytes());
        self.0 = fnv1a(h, &out.frame);
    }

    /// The digest of everything folded so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Latency aggregate over forwarded packets, backed by the shared
/// log-linear histogram (`flexsfp-obs`): percentiles within 1 %
/// relative error, bounded memory, and lossless merging across runs
/// and modules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    hist: LatencyHistogram,
}

impl LatencyStats {
    /// The histogram itself: what a stream's dispatch loop records
    /// into.
    pub(super) fn histogram_mut(&mut self) -> &mut LatencyHistogram {
        &mut self.hist
    }

    /// Fold another run's latency population into this one — exact,
    /// because the underlying histogram merge is exact (shard-report
    /// merge).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.hist.merge(&other.hist);
    }

    /// Maximum, ns (rounded to the nearest nanosecond).
    pub fn max_ns(&self) -> f64 {
        self.hist.max() as f64
    }

    /// Mean latency, ns (exact).
    pub fn mean_ns(&self) -> f64 {
        self.hist.mean()
    }

    /// 99.9th-percentile latency, ns.
    pub fn p999_ns(&self) -> f64 {
        self.hist.p999() as f64
    }

    /// The underlying mergeable histogram.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Packets offered.
    pub offered: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Forwarded packets per egress interface: (edge, optical).
    pub forwarded: (u64, u64),
    /// Bytes forwarded (total).
    pub forwarded_bytes: u64,
    /// Drops by reason — the same counters the module exports for its
    /// lifetime in every telemetry snapshot.
    pub drops: DropCounters,
    /// Packets diverted to the control plane by app verdict.
    pub to_control: u64,
    /// Control-protocol requests handled (frames answered).
    pub control_handled: u64,
    /// Frames originated by the active control plane itself (ARP/ICMP
    /// microservice replies; Active-Control-Plane shell only).
    pub cp_originated: u64,
    /// Latency over forwarded dataplane packets.
    pub latency: LatencyStats,
    /// Wall-clock span of the run, ns (last departure or arrival).
    pub duration_ns: u64,
    /// Emitted packets (in departure order).
    pub outputs: Vec<OutputPacket>,
}

impl SimReport {
    /// Delivered dataplane throughput over the run, bits/s.
    pub fn delivered_bps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.forwarded_bytes as f64 * 8.0 / (self.duration_ns as f64 / 1e9)
    }

    /// Fraction of offered packets forwarded.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        (self.forwarded.0 + self.forwarded.1) as f64 / self.offered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::testutil::data_frame;

    #[test]
    fn output_digest_is_the_pinned_order_sensitive_fnv1a_fold() {
        assert_eq!(OutputDigest::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let out = |departure_ns, egress| OutputPacket {
            departure_ns,
            egress,
            frame: data_frame(60),
            latency_ns: 0.0,
        };
        let (a, b) = (out(100, Interface::Optical), out(200, Interface::Edge));
        let digest_of = |outs: [&OutputPacket; 2]| {
            let mut d = OutputDigest::default();
            outs.into_iter().for_each(|o| d.fold(o));
            d.value()
        };
        assert_ne!(digest_of([&a, &b]), digest_of([&b, &a]));
        assert_ne!(digest_of([&a, &b]), OutputDigest::default().value());
    }
}
