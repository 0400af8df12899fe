//! Result records, their JSON form, the printed report and
//! `flexbench agree`.

use crate::catalog;
use crate::hostinfo::HostInfo;
use crate::stats::{median, Summary};
use crate::surface::{impl_json_struct, json};

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub summary: Summary,
}

impl_json_struct!(Metric {
    name,
    unit,
    better,
    summary
});

impl Metric {
    pub fn new(name: &str, summary: Summary) -> Metric {
        let def = catalog::end_to_end(name).expect("end-to-end metric is in the catalogue");
        Metric {
            name: name.to_string(),
            unit: def.unit.to_string(),
            better: def.better.to_string(),
            summary,
        }
    }
}

/// One per-layer metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl_json_struct!(LayerMetric { name, unit, value });

impl LayerMetric {
    pub fn new(name: &str, value: f64) -> LayerMetric {
        let def = catalog::per_layer(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalogue"));
        LayerMetric {
            name: name.to_string(),
            unit: def.unit.to_string(),
            value,
        }
    }
}

/// One timed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    pub setup_s: f64,
    pub timed_s: f64,
    /// Offered packets ÷ timed region, as the clock read it.
    pub mpps_raw: f64,
    /// Host speed around the trial: mean of the probes before its
    /// set-up and after its last output.
    pub host_speed: f64,
    /// `mpps_raw ÷ host_speed`: the end-to-end metric.
    pub mpps: f64,
    /// Generator thread's time on a CPU over set-up and trial.
    pub on_cpu_s: f64,
    /// Its time runnable but waiting for a CPU.
    pub runqueue_wait_s: f64,
    /// Waited for more than 2 % of its wall time. Reported, not dropped.
    pub disturbed: bool,
    pub failed: u64,
}

impl_json_struct!(Trial {
    setup_s,
    timed_s,
    mpps_raw,
    host_speed,
    mpps,
    on_cpu_s,
    runqueue_wait_s,
    disturbed,
    failed
});

/// Everything one workload's child process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub packets_per_trial: u64,
    /// FNV-1a over departure time, egress and bytes of every output.
    pub digest: String,
    pub fingerprint: String,
    /// First construction in the process; measures the VM's first touch
    /// as much as the program. Printed, never bounded.
    pub setup_cold_s: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub sim_samples: u64,
    /// The percentile `sim_p999_ns` really is (0.999 unless the sample
    /// is too small to have ten values beyond it).
    pub sim_tail_quantile: f64,
    pub degraded: bool,
    pub notes: Vec<String>,
    /// Digest, determinism and conservation checks that failed.
    pub checks_failed: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<LayerMetric>,
    pub trials: Vec<Trial>,
    pub trials_disturbed: Vec<u64>,
    pub child_wall_s: f64,
}

impl_json_struct!(WorkloadResult {
    workload,
    seed,
    quick,
    packets_per_trial,
    digest,
    fingerprint,
    setup_cold_s,
    ops_attempted,
    ops_failed,
    sim_samples,
    sim_tail_quantile,
    degraded,
    notes,
    checks_failed,
    end_to_end,
    per_layer,
    trials,
    trials_disturbed,
    child_wall_s
});

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.checks_failed.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().find(|m| m.name == name)
    }

    /// The printed report of one workload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} packets/trial, {} trials{}) digest {}\n",
            self.workload,
            self.seed,
            self.packets_per_trial,
            self.trials.len(),
            if self.quick { ", quick" } else { "" },
            self.digest
        );
        out.push_str(&format!(
            "{:<14} {:>8} {:>3} {:>14} {:>14} {:>14} {:>14} {:>14}\n",
            "end-to-end", "unit", "N", "median", "q1", "q3", "min", "max"
        ));
        for m in &self.end_to_end {
            let s = &m.summary;
            out.push_str(&format!(
                "{:<14} {:>8} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}\n",
                m.name, m.unit, s.n, s.median, s.q1, s.q3, s.min, s.max
            ));
        }
        out.push_str(&format!(
            "ops_attempted {}  ops_failed {}  setup_cold_s {:.3}  sim samples {} (tail = p{})  disturbed trials {:?}\n",
            self.ops_attempted,
            self.ops_failed,
            self.setup_cold_s,
            self.sim_samples,
            self.sim_tail_quantile * 100.0,
            self.trials_disturbed
        ));
        let trial_median =
            |f: fn(&Trial) -> f64| median(&self.trials.iter().map(f).collect::<Vec<f64>>());
        out.push_str(&format!(
            "mpps is mpps_raw / host_speed, trial by trial: mpps_raw median {:.6} Mpkt/s, host_speed median {:.4}\n",
            trial_median(|t| t.mpps_raw),
            trial_median(|t| t.host_speed)
        ));
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        for check in &self.checks_failed {
            out.push_str(&format!("CHECK FAILED: {check}\n"));
        }
        if !self.per_layer.is_empty() {
            out.push_str("per-layer:\n");
            for m in self.per_layer.iter().filter(|m| m.value != 0.0) {
                out.push_str(&format!("  {:<40} {:>16.4} {}\n", m.name, m.value, m.unit));
            }
            let zeros = self.per_layer.iter().filter(|m| m.value == 0.0).count();
            out.push_str(&format!("  ({zeros} metrics read 0 on this workload)\n"));
        }
        out
    }
}

/// One complete result set: `benchmark/out/results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub quick: bool,
    pub host: HostInfo,
    pub workloads: Vec<WorkloadResult>,
}

impl_json_struct!(Results {
    seed,
    quick,
    host,
    workloads
});

/// Relative amount by which `b` is worse than `a` (negative when it is
/// better), given the metric's direction.
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    let rel = (b - a) / a.abs();
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

/// Metrics whose value is simulated or counted, so that two runs of
/// the same code must agree exactly.
fn must_match_exactly(name: &str) -> bool {
    name.starts_with("sim_") || name == "failed_ratio"
}

/// Compare two result sets against the bounds in `BENCHMARK.json`.
/// Returns the printed table and whether they agree: every timed
/// metric within its bound in both directions, every `sim_*` value and
/// digest identical.
pub fn agree(a: &Results, b: &Results, bounds: &json::Value) -> (String, bool) {
    let bound_of = |name: &str| -> Option<f64> {
        bounds["end_to_end"]
            .as_array()?
            .iter()
            .find(|m| m["name"].as_str() == Some(name))?["bound"]
            .as_f64()
    };
    let mut ok = true;
    let mut out = format!(
        "{:<11} {:<13} {:>13} {:>13} {:>13} {:>13} {:>8} {:>7}  verdict\n",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3", "diff %", "bound %"
    );
    if a.seed != b.seed || a.quick != b.quick {
        out.push_str("sets differ in seed or size: simulated values cannot be compared\n");
        ok = false;
    }
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            out.push_str(&format!(
                "{:<11} missing from the second set\n",
                wa.workload
            ));
            ok = false;
            continue;
        };
        if wa.digest != wb.digest {
            out.push_str(&format!(
                "{:<11} digest {} != {}\n",
                wa.workload, wa.digest, wb.digest
            ));
            ok = false;
        }
        for ma in &wa.end_to_end {
            let Some(mb) = wb.metric(&ma.name) else {
                ok = false;
                continue;
            };
            let (sa, sb) = (&ma.summary, &mb.summary);
            let diff = worse_by(sa.median, sb.median, &ma.better);
            let (bound, verdict) = if must_match_exactly(&ma.name) {
                (0.0, sa.median == sb.median)
            } else {
                // setup_cold_s and friends are not in BENCHMARK.json and
                // never judged; a listed metric may move either way by
                // its bound between two runs of the same code.
                let bound = bound_of(&ma.name).unwrap_or(f64::INFINITY);
                (bound, diff.abs() <= bound)
            };
            ok &= verdict;
            out.push_str(&format!(
                "{:<11} {:<13} {:>13.5} {:>13} {:>13.5} {:>13} {:>8.2} {:>7.2}  {}\n",
                wa.workload,
                ma.name,
                sa.median,
                format!("{:.4}..{:.4}", sa.q1, sa.q3),
                sb.median,
                format!("{:.4}..{:.4}", sb.q1, sb.q3),
                diff * 100.0,
                bound * 100.0,
                if verdict { "ok" } else { "BREACH" }
            ));
        }
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{FromJson, ToJson};

    fn sample(mpps: f64, p50: f64, digest: &str) -> Results {
        let result = WorkloadResult {
            workload: "nat_hot".to_string(),
            seed: 81,
            quick: false,
            packets_per_trial: 1000,
            digest: digest.to_string(),
            fingerprint: "00".to_string(),
            setup_cold_s: 0.01,
            ops_attempted: 5000,
            ops_failed: 0,
            sim_samples: 5000,
            sim_tail_quantile: 0.99,
            degraded: false,
            notes: vec!["a note".to_string()],
            checks_failed: Vec::new(),
            end_to_end: vec![
                Metric::new("mpps", Summary::of(&[mpps, mpps * 1.01, mpps * 0.99])),
                Metric::new("sim_p50_ns", Summary::exact(p50)),
            ],
            per_layer: vec![LayerMetric::new("traffic.gen.ns_per_pkt", 14.5)],
            trials: vec![Trial {
                setup_s: 0.01,
                timed_s: 1.0,
                mpps_raw: mpps,
                host_speed: 1.0,
                mpps,
                on_cpu_s: 1.0,
                runqueue_wait_s: 0.001,
                disturbed: false,
                failed: 0,
            }],
            trials_disturbed: vec![2],
            child_wall_s: 12.5,
        };
        Results {
            seed: 81,
            quick: false,
            host: HostInfo::capture(),
            workloads: vec![result],
        }
    }

    fn bounds() -> json::Value {
        json!({"end_to_end": [{"name": "mpps", "bound": 0.05}]})
    }

    #[test]
    fn results_round_trip_through_the_in_tree_json() {
        let r = sample(8.25, 130.0, "00112233aabbccdd");
        let text = r.to_json().to_string_pretty();
        let back =
            Results::from_json(&json::Value::parse(&text).expect("parses")).expect("same shape");
        assert_eq!(back, r);
    }

    #[test]
    fn agree_accepts_noise_and_rejects_breaches_and_sim_differences() {
        let a = sample(8.0, 130.0, "d1");
        assert!(agree(&a, &sample(8.3, 130.0, "d1"), &bounds()).1);
        assert!(agree(&a, &sample(7.7, 130.0, "d1"), &bounds()).1);
        let (table, ok) = agree(&a, &sample(7.0, 130.0, "d1"), &bounds());
        assert!(!ok && table.contains("BREACH"));
        assert!(
            !agree(&a, &sample(8.0, 131.0, "d1"), &bounds()).1,
            "sim value"
        );
        assert!(!agree(&a, &sample(8.0, 130.0, "d2"), &bounds()).1, "digest");
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(10.0, 9.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, "lower") + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 0.0, "lower"), 0.0);
        assert_eq!(worse_by(0.0, 1.0, "lower"), f64::INFINITY);
    }

    #[test]
    fn render_prints_every_metric_with_unit_and_counts() {
        let text = sample(8.0, 130.0, "d1").workloads[0].render();
        for needle in [
            "mpps",
            "Mpkt/s",
            "sim_p50_ns",
            "ops_attempted 5000",
            "ops_failed 0",
        ] {
            assert!(text.contains(needle), "missing {needle} in\n{text}");
        }
    }
}
