//! Baseline packet-processing placements for the §6 comparison.
//!
//! The paper's open question: "Are programmable SFPs sufficient for
//! common tasks, and how do they compare to SmartNICs in latency,
//! throughput, and flexibility?" These models provide the two
//! comparison points the paper names — the SmartNIC fast path and the
//! host-CPU slow path — with latency characteristics drawn from the
//! systems literature the paper cites (SmartNIC PCIe round trips in the
//! low microseconds; kernel software paths in the tens of microseconds
//! with heavy scheduling tails).

use flexsfp_obs::LatencyHistogram;
use flexsfp_traffic::rng::Xoshiro256;

/// One processed packet's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PathOutput {
    /// Departure time, ns.
    pub departure_ns: u64,
    /// Total added latency, ns.
    pub latency_ns: f64,
}

/// A generic processing placement: fixed path latency + a single server
/// with a per-packet service time + seeded jitter.
#[derive(Debug)]
pub struct ProcessingPath {
    /// Name for reports.
    pub name: &'static str,
    /// Fixed one-way path latency (bus/driver/PCIe...), ns.
    pub fixed_ns: f64,
    /// Per-packet service time, ns (1/throughput).
    pub service_ns: f64,
    /// Mean of the exponential jitter term, ns (0 = deterministic).
    pub jitter_mean_ns: f64,
    rng: Xoshiro256,
    server_free_ns: f64,
}

impl ProcessingPath {
    /// The FlexSFP in-cable path: SerDes in/out + a compact pipeline —
    /// parameters matching the module simulator's NAT configuration
    /// (8 beats @ 6.4 ns service, ~250 ns fixed transit, no jitter: the
    /// pipeline is clocked logic).
    pub fn flexsfp(seed: u64) -> ProcessingPath {
        ProcessingPath {
            name: "FlexSFP (in-cable)",
            fixed_ns: 264.0,
            service_ns: 51.2,
            jitter_mean_ns: 0.0,
            rng: Xoshiro256::seed_from_u64(seed),
            server_free_ns: 0.0,
        }
    }

    /// A SmartNIC fast path: wire → NIC pipeline → wire, including the
    /// on-board traversal; low-microsecond fixed cost, tight jitter.
    pub fn smartnic(seed: u64) -> ProcessingPath {
        ProcessingPath {
            name: "SmartNIC",
            fixed_ns: 4_500.0,
            service_ns: 45.0, // ~22 Mpps pipeline
            jitter_mean_ns: 300.0,
            rng: Xoshiro256::seed_from_u64(seed),
            server_free_ns: 0.0,
        }
    }

    /// The host-CPU slow path: NIC → PCIe → interrupt/NAPI → kernel
    /// path → PCIe → NIC; tens of microseconds with a heavy scheduler
    /// tail, and a ~1.3 Mpps single-core service limit.
    pub fn host_cpu(seed: u64) -> ProcessingPath {
        ProcessingPath {
            name: "Host CPU",
            fixed_ns: 25_000.0,
            service_ns: 770.0, // ~1.3 Mpps
            jitter_mean_ns: 15_000.0,
            rng: Xoshiro256::seed_from_u64(seed),
            server_free_ns: 0.0,
        }
    }

    /// Process one packet arriving at `arrival_ns`.
    fn process(&mut self, arrival_ns: u64) -> PathOutput {
        let start = self.server_free_ns.max(arrival_ns as f64);
        let finish = start + self.service_ns;
        self.server_free_ns = finish;
        let jitter = if self.jitter_mean_ns > 0.0 {
            self.rng.exp(self.jitter_mean_ns)
        } else {
            0.0
        };
        let departure = finish + self.fixed_ns + jitter;
        PathOutput {
            departure_ns: departure as u64,
            latency_ns: departure - arrival_ns as f64,
        }
    }

    /// Run a whole arrival sequence, returning its latency population
    /// (quantiles within 1 %, mean and max exact).
    pub fn run(&mut self, arrivals_ns: &[u64]) -> LatencyHistogram {
        let mut latency = LatencyHistogram::default();
        for &a in arrivals_ns {
            latency.record_f64(self.process(a).latency_ns);
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(n: usize, gap_ns: u64) -> Vec<u64> {
        (0..n as u64).map(|i| i * gap_ns).collect()
    }

    #[test]
    fn ordering_flexsfp_smartnic_host() {
        // At moderate load, the latency ordering the paper expects.
        let a = arrivals(5_000, 2_000); // 0.5 Mpps
        let flex = ProcessingPath::flexsfp(1).run(&a);
        let nic = ProcessingPath::smartnic(1).run(&a);
        let host = ProcessingPath::host_cpu(1).run(&a);
        assert!(flex.mean() < 500.0, "{}", flex.mean());
        assert!(nic.mean() > 10.0 * flex.mean());
        assert!(host.mean() > 5.0 * nic.mean());
    }

    #[test]
    fn host_cpu_has_heavy_tail() {
        let a = arrivals(10_000, 2_000);
        let host = ProcessingPath::host_cpu(7).run(&a);
        // p99 well above the mean: scheduling jitter dominates.
        assert!(host.value_at_quantile(0.99) as f64 > 2.0 * host.mean());
        // FlexSFP's tail is its mean: deterministic pipeline.
        let flex = ProcessingPath::flexsfp(7).run(&a);
        assert!((flex.value_at_quantile(0.99) as f64 - flex.mean()).abs() < 60.0);
    }

    #[test]
    fn host_cpu_saturates_before_line_rate() {
        // 5 Mpps offered: the 1.3 Mpps host path builds an unbounded
        // queue (latency grows with index); the FlexSFP doesn't blink.
        let a = arrivals(20_000, 200);
        let mut host = ProcessingPath::host_cpu(3);
        let first = host.process(a[0]).latency_ns;
        let mut last = 0.0;
        for &t in &a[1..] {
            last = host.process(t).latency_ns;
        }
        assert!(last > 20.0 * first, "no queue growth: {last} vs {first}");
        let flex = ProcessingPath::flexsfp(3).run(&a);
        assert!(flex.max() < 1_000);
    }

    #[test]
    fn determinism() {
        let a = arrivals(1_000, 1_000);
        let s1 = ProcessingPath::host_cpu(42).run(&a);
        let s2 = ProcessingPath::host_cpu(42).run(&a);
        assert_eq!(s1, s2);
    }
}
