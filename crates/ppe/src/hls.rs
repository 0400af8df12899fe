//! The "HLS toolchain" model: mapping packet programs to fabric
//! resources and an achievable clock.
//!
//! A real flow (§4.2) converts the packet function to HDL, synthesizes it
//! and reports LUT/FF/RAM usage plus timing closure. This module is a
//! deterministic cost model calibrated against the paper's Table 1
//! synthesis report: the NAT-class pipeline estimate lands within the
//! same resource envelope as the measured NAT app row, so fit analyses of
//! the other §3 use cases are credible in relative terms.

use crate::pipeline::{stage_start_cycle, Matcher, Pipeline, Stage};
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_fabric::sram::{MemoryPlanner, TableShape};

/// Result of "synthesizing" a packet program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisReport {
    /// Estimated fabric resources.
    pub manifest: ResourceManifest,
    /// Achievable clock in Hz for the generated core.
    pub fmax_hz: u64,
    /// Pipeline latency in clock cycles.
    pub latency_cycles: u64,
}

impl SynthesisReport {
    /// True if the core closes timing at `clock_hz`.
    pub fn meets_timing(&self, clock_hz: u64) -> bool {
        self.fmax_hz >= clock_hz
    }
}

// ---- calibrated per-construct costs -------------------------------------

/// Stream-side skeleton every PPE core carries: word alignment, metadata
/// FIFOs, verdict mux. Calibrated so skeleton + one exact-match stage +
/// rewrite actions reproduces the NAT app's Table 1 row within ~10%.
const SKELETON: ResourceManifest = ResourceManifest::new(2_100, 3_300, 12, 0);
/// Parser cost per protocol level it walks (eth/vlan/ip/l4 ≈ 4 levels).
const PARSER_LEVEL: ResourceManifest = ResourceManifest::new(450, 520, 0, 0);
/// Match-stage engine cost (key mux, hash, way comparators) excluding
/// table memory.
const EXACT_STAGE: ResourceManifest = ResourceManifest::new(2_900, 3_600, 16, 0);
/// LPM stage engine (priority encoder across levels).
const LPM_STAGE: ResourceManifest = ResourceManifest::new(3_400, 2_800, 8, 0);
/// Ternary stage engine cost per 64 rows (LUT-based TCAM emulation).
const TERNARY_PER_64: ResourceManifest = ResourceManifest::new(4_200, 1_400, 0, 0);
/// Per-action edit unit.
const ACTION_UNIT: ResourceManifest = ResourceManifest::new(650, 800, 2, 0);

/// Base fmax of a trivial core on the MPF200T fabric (28 nm).
const FMAX_BASE_HZ: f64 = 500e6;

fn fmax_for_depth(logic_depth: f64) -> u64 {
    (FMAX_BASE_HZ / (1.0 + 0.15 * logic_depth)) as u64
}

/// Estimate a match-action [`Pipeline`].
pub(crate) fn estimate_pipeline(p: &Pipeline) -> ResourceManifest {
    let mut m = SKELETON + PARSER_LEVEL.scaled(4);
    for stage in p.stages() {
        m += estimate_stage(stage);
    }
    m
}

fn estimate_stage(stage: &Stage) -> ResourceManifest {
    let mut m = ResourceManifest::ZERO;
    match stage.matcher {
        Matcher::Always => {}
        Matcher::Exact { selector, entries } => {
            m += EXACT_STAGE;
            // Per entry: selected key bits + 32 b action value + 32 b of
            // aging metadata and valid/way state (matching the NAT's
            // 96 b/entry layout from the Table 1 footnote).
            let entry_bits = selector.key_bits() + 32 + 32;
            m += MemoryPlanner::plan(&[TableShape::new(entries as u64, entry_bits)]);
        }
        Matcher::Lpm { prefixes } => {
            m += LPM_STAGE;
            // Modelled as 1k-entry levels in LSRAM.
            let installed = prefixes.max(64) as u64;
            m += MemoryPlanner::plan(&[TableShape::new(installed.next_power_of_two(), 64)]);
        }
        Matcher::Ternary { rows } => {
            m += TERNARY_PER_64.scaled((rows as u64).div_ceil(64));
        }
    }
    m += ACTION_UNIT.scaled((stage.actions as u64).max(1));
    m
}

/// Full synthesis report for a pipeline at its natural depth; its
/// latency is the PPE's, [`stage_start_cycle`] of the stage count.
pub fn synthesize_pipeline(p: &Pipeline) -> SynthesisReport {
    SynthesisReport {
        manifest: estimate_pipeline(p),
        fmax_hz: fmax_for_depth(p.stages().len() as f64),
        latency_cycles: u64::from(stage_start_cycle(p.stages().len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{KeySelector, PipelineBuilder, Stage};
    use flexsfp_fabric::resources::table1;
    use flexsfp_fabric::{ClockDomain, Device};

    /// A NAT-like pipeline: one 32k-entry exact-match stage keyed on
    /// source IP with a counting action on hit and one on miss.
    fn nat_like() -> Pipeline {
        PipelineBuilder::default()
            .stage(Stage {
                matcher: Matcher::Exact {
                    selector: KeySelector::SrcIp,
                    entries: 32_768,
                },
                actions: 2,
            })
            .build()
    }

    #[test]
    fn nat_estimate_lands_near_table1_row() {
        // Table 1 NAT app row: 9 122 LUT, 11 294 FF, 36 uSRAM, 160 LSRAM.
        let est = estimate_pipeline(&nat_like());
        let lut_err = (est.lut4 as f64 - 9_122.0).abs() / 9_122.0;
        let ff_err = (est.ff as f64 - 11_294.0).abs() / 11_294.0;
        assert!(lut_err < 0.25, "LUT estimate off by {lut_err:.2}: {est:?}");
        assert!(ff_err < 0.25, "FF estimate off by {ff_err:.2}: {est:?}");
        // Table memory placement is exact.
        assert_eq!(est.lsram, 160, "{est:?}");
        assert!((30..=60).contains(&est.usram), "{est:?}");
    }

    #[test]
    fn nat_pipeline_closes_timing_at_both_clocks() {
        let rep = synthesize_pipeline(&nat_like());
        assert!(rep.meets_timing(ClockDomain::XGMII_10G.hz()));
        // The Two-Way-Core runs the PPE at 2×: still closes for a
        // 1-stage chain.
        assert!(rep.meets_timing(ClockDomain::XGMII_10G_X2.hz()));
    }

    /// `n` exact-match stages on the 5-tuple, 1 024 entries and one
    /// counting action each: the chain-depth ablation's chain.
    fn chain(n: usize) -> Pipeline {
        let stage = Stage {
            matcher: Matcher::Exact {
                selector: KeySelector::FiveTuple,
                entries: 1024,
            },
            actions: 1,
        };
        (0..n)
            .fold(PipelineBuilder::default(), |b, _| b.stage(stage))
            .build()
    }

    /// One ternary stage of `rows` rows that drops on hit.
    fn acl(rows: usize) -> Pipeline {
        PipelineBuilder::default()
            .stage(Stage {
                matcher: Matcher::Ternary { rows },
                actions: 1,
            })
            .build()
    }

    /// Two unconditional stages with one counting action each.
    fn two_always() -> Pipeline {
        let stage = Stage {
            matcher: Matcher::Always,
            actions: 1,
        };
        PipelineBuilder::default().stage(stage).stage(stage).build()
    }

    /// One longest-prefix stage holding 100 prefixes and no listed
    /// action, which still costs one action unit.
    fn lpm_classifier() -> Pipeline {
        PipelineBuilder::default()
            .stage(Stage {
                matcher: Matcher::Lpm { prefixes: 100 },
                actions: 0,
            })
            .build()
    }

    /// Every pipeline these tests cost, with its exact report: a change
    /// to the model, or to what a pipeline tells it, moves a literal here
    /// where the range checks below could let it pass.
    #[test]
    fn every_report_is_pinned() {
        // Name, then LUT4, FF, uSRAM, LSRAM, f_max in Hz and latency in
        // cycles, in the order `pipelines` lists them.
        const PINNED: [(&str, [u64; 6]); 11] = [
            ("nat-like", [8_100, 10_580, 32, 160, 434_782_608, 7]),
            ("chain 1", [7_450, 9_780, 30, 9, 434_782_608, 7]),
            ("chain 2", [11_000, 14_180, 48, 18, 384_615_384, 10]),
            ("chain 3", [14_550, 18_580, 66, 27, 344_827_586, 13]),
            ("chain 4", [18_100, 22_980, 84, 36, 312_500_000, 16]),
            ("chain 5", [21_650, 27_380, 102, 45, 285_714_285, 19]),
            ("chain 6", [25_200, 31_780, 120, 54, 263_157_894, 22]),
            ("acl 64", [8_750, 7_580, 14, 0, 434_782_608, 7]),
            ("acl 1024", [71_750, 28_580, 14, 0, 434_782_608, 7]),
            ("two always", [5_200, 6_980, 16, 0, 384_615_384, 10]),
            ("lpm", [7_950, 8_980, 34, 0, 434_782_608, 7]),
        ];
        let pipelines = [
            nat_like(),
            chain(1),
            chain(2),
            chain(3),
            chain(4),
            chain(5),
            chain(6),
            acl(64),
            acl(1024),
            two_always(),
            lpm_classifier(),
        ];
        for ((name, [lut4, ff, usram, lsram, fmax_hz, latency]), p) in
            PINNED.into_iter().zip(pipelines)
        {
            let want = SynthesisReport {
                manifest: ResourceManifest::new(lut4, ff, usram, lsram),
                fmax_hz,
                latency_cycles: latency,
            };
            let got = synthesize_pipeline(&p);
            assert_eq!(estimate_pipeline(&p), got.manifest, "{name}");
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn compact_chains_close_at_2x_deep_chains_do_not() {
        // §5.3: "keeping chains compact (about 3–4 stages)" to run at 2×.
        let two_x = ClockDomain::XGMII_10G_X2.hz();
        assert!(synthesize_pipeline(&chain(3)).meets_timing(two_x));
        assert!(synthesize_pipeline(&chain(4)).meets_timing(two_x));
        assert!(!synthesize_pipeline(&chain(5)).meets_timing(two_x));
        // At 1× even deep chains close.
        assert!(synthesize_pipeline(&chain(6)).meets_timing(ClockDomain::XGMII_10G.hz()));
    }

    #[test]
    fn full_module_fits_mpf200t() {
        // NAT estimate + the calibrated interface/Mi-V rows must fit.
        let est = estimate_pipeline(&nat_like());
        let total = est + table1::MI_V + table1::ELECTRICAL_IF + table1::OPTICAL_IF;
        let report = Device::mpf200t().fit(total);
        assert!(report.fits(), "{report:?}");
    }

    #[test]
    fn estimates_grow_with_stages() {
        let one = estimate_pipeline(&nat_like());
        let two_always = estimate_pipeline(&two_always());
        // Exact-match stage with a 32k table is much bigger than two
        // trivial stages.
        assert!(one.lut4 > two_always.lut4);
        assert!(one.lsram > two_always.lsram);
    }

    #[test]
    fn ternary_capacity_drives_cost() {
        let small = estimate_pipeline(&acl(64));
        let big = estimate_pipeline(&acl(1024));
        assert!(big.lut4 > small.lut4);
    }
}
