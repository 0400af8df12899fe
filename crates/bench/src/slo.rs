//! SLO gate over the §5.1 NAT workload (`experiments slo`).
//!
//! Streams the same paced 64-flow NAT workload as `perf` through a
//! module with the always-on windowed telemetry, then evaluates an
//! [`SloSpec`] against every live window via [`flexsfp_obs::slo`]. The
//! CLI exits nonzero when any window breaches — the bench doubles as a
//! release gate: a healthy module must pass [`SloSpec::generous`], and
//! `--breach` swaps in [`breach_spec`] (a 1 ns p99.9 bound no real
//! pipeline can meet) to prove the detector actually fires.

use crate::{perf, render};
use flexsfp_obs::slo::{SloReport, SloSpec};
use flexsfp_wire::PacketArena;

/// Packets in the full gate run.
pub const FULL_PACKETS: usize = 200_000;
/// Packets in the `--quick` (CI) run.
pub const QUICK_PACKETS: usize = 20_000;

/// Result of one SLO evaluation over the NAT workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Packets offered.
    pub packets: u64,
    /// Packets the module forwarded.
    pub forwarded: u64,
    /// Width of each telemetry window, nanoseconds.
    pub window_width_ns: u64,
    /// The spec that was evaluated.
    pub spec: SloSpec,
    /// Per-window verdicts and breaches.
    pub report: SloReport,
}

flexsfp_obs::impl_json_struct!(Outcome {
    packets,
    forwarded,
    window_width_ns,
    spec,
    report
});

/// A spec no forwarding pipeline can meet: 1 ns p99.9 latency. Used by
/// `experiments slo --breach` to verify the gate exits nonzero when a
/// window is out of budget.
pub fn breach_spec() -> SloSpec {
    SloSpec {
        p999_latency_ns: 1,
        ..SloSpec::generous()
    }
}

/// Stream `packets` of the §5.1 NAT workload and evaluate `spec`
/// against the module's windowed telemetry.
pub fn run(packets: usize, spec: SloSpec) -> Outcome {
    let mut module = perf::nat_module();
    let arena = PacketArena::new();
    let stream = module.run_stream_with(perf::workload(packets, &arena), |out| {
        arena.recycle(out.frame)
    });
    let report = flexsfp_obs::slo::evaluate(&spec, module.windows());
    Outcome {
        packets: packets as u64,
        forwarded: stream.forwarded.0 + stream.forwarded.1,
        window_width_ns: module.windows().width_ns(),
        spec,
        report,
    }
}

/// Human-readable report: the spec, the verdict, and the first few
/// breaching windows when unhealthy.
pub fn render(o: &Outcome) -> String {
    let rows = vec![vec![
        render::grouped(o.packets),
        render::grouped(o.forwarded),
        render::grouped(o.window_width_ns),
        o.report.windows_evaluated.to_string(),
        o.report.breaches.len().to_string(),
        if o.report.healthy { "yes" } else { "NO" }.to_string(),
    ]];
    format!(
        "slo: §5.1 NAT workload vs spec (p99.9 ≤ {} ns, unexplained drops ≤ {:.2}%, cache hits ≥ {:.0}%)\n{}{}",
        o.spec.p999_latency_ns,
        o.spec.max_unexplained_drop_rate * 100.0,
        o.spec.min_cache_hit_rate * 100.0,
        render::table(
            &[
                "packets",
                "forwarded",
                "window ns",
                "windows",
                "breaches",
                "healthy",
            ],
            &rows,
        ),
        render::breaches(&o.report)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_obs::json::{FromJson, ToJson, Value};

    #[test]
    fn healthy_nat_workload_passes_the_generous_spec() {
        let o = run(QUICK_PACKETS, SloSpec::generous());
        assert_eq!(o.forwarded, QUICK_PACKETS as u64);
        assert!(o.report.windows_evaluated > 0, "windows must be populated");
        assert!(
            o.report.healthy,
            "generous spec breached: {:?}",
            o.report.breaches
        );
    }

    #[test]
    fn injected_p999_breach_is_detected() {
        let o = run(QUICK_PACKETS, breach_spec());
        assert!(!o.report.healthy);
        assert!(
            o.report
                .breaches
                .iter()
                .any(|b| b.metric == "p999_latency_ns"),
            "expected a latency breach, got {:?}",
            o.report.breaches
        );
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = run(5_000, breach_spec());
        let text = o.to_json().to_string_pretty();
        let back = Outcome::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn render_names_the_verdict_and_breaches() {
        let healthy = render(&run(5_000, SloSpec::generous()));
        assert!(healthy.contains("yes"));
        let breached = render(&run(5_000, breach_spec()));
        assert!(breached.contains("NO"));
        assert!(breached.contains("breach @"));
    }
}
