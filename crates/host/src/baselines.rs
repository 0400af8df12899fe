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

/// Latency aggregate with percentile support, backed by the shared
/// log-linear histogram (bounded memory even over million-packet runs;
/// quantiles within 1 %, mean/max exact).
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    hist: LatencyHistogram,
}

impl PathStats {
    /// Record one latency.
    pub fn record(&mut self, l: f64) {
        self.hist.record_f64(l);
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.hist.count() as usize
    }

    /// Mean latency, ns (exact).
    pub fn mean_ns(&self) -> f64 {
        self.hist.mean()
    }

    /// The `q`-quantile (0..=1), ns (≤1 % relative error).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        self.hist.value_at_quantile(q) as f64
    }

    /// Maximum latency, ns (exact).
    pub fn max_ns(&self) -> f64 {
        self.hist.max() as f64
    }

    /// The underlying histogram, for merging or full-distribution dumps.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }
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

    /// Run a whole arrival sequence, returning the stats.
    pub fn run(&mut self, arrivals_ns: &[u64]) -> PathStats {
        let mut stats = PathStats::default();
        for &a in arrivals_ns {
            stats.record(self.process(a).latency_ns);
        }
        stats
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
        assert!(flex.mean_ns() < 500.0, "{}", flex.mean_ns());
        assert!(nic.mean_ns() > 10.0 * flex.mean_ns());
        assert!(host.mean_ns() > 5.0 * nic.mean_ns());
    }

    #[test]
    fn host_cpu_has_heavy_tail() {
        let a = arrivals(10_000, 2_000);
        let host = ProcessingPath::host_cpu(7).run(&a);
        // p99 well above the mean: scheduling jitter dominates.
        assert!(host.quantile_ns(0.99) > 2.0 * host.mean_ns());
        // FlexSFP's tail is its mean: deterministic pipeline.
        let flex = ProcessingPath::flexsfp(7).run(&a);
        assert!((flex.quantile_ns(0.99) - flex.mean_ns()).abs() < 60.0);
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
        assert!(flex.max_ns() < 1_000.0);
    }

    #[test]
    fn determinism() {
        let a = arrivals(1_000, 1_000);
        let s1 = ProcessingPath::host_cpu(42).run(&a);
        let s2 = ProcessingPath::host_cpu(42).run(&a);
        assert_eq!(s1.mean_ns(), s2.mean_ns());
        assert_eq!(s1.max_ns(), s2.max_ns());
    }

    #[test]
    fn quantile_edges() {
        let mut s = PathStats::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.quantile_ns(0.0), 1.0);
        assert_eq!(s.quantile_ns(1.0), 4.0);
        assert_eq!(s.count(), 4);
        assert_eq!(PathStats::default().quantile_ns(0.5), 0.0);
    }
}
