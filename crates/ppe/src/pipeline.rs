//! The PPE's timing, in one place.
//!
//! A packet program is a short chain of match-action stages (the
//! paper's §5.3: "keeping chains compact (about 3–4 stages)").
//! [`stage_start_cycle`] and [`stamp_stages`] give every flight stamp
//! and the module's PPE transit share their cycles; [`fmax_hz`] is the
//! clock a chain of a given depth closes at.

use flexsfp_obs::{FlightStamp, StageStamp};

/// Maximum pipeline depth the fabric comfortably supports (§5.3).
pub const MAX_STAGES: usize = 6;

/// The PPE latency model, in one place: 4 fixed cycles, then 3 per
/// match-action stage. The stage at `idx` begins at this cycle, and a
/// packet that ran `idx` stages has occupied the pipeline for as many.
pub fn stage_start_cycle(idx: usize) -> u32 {
    4 + 3 * idx as u32
}

/// The flight stamp of a packet that ran `stages`: `(stage, hit)`
/// attributions in the order they ran, each given its cycles by
/// [`stage_start_cycle`]. A plan records the same attributions, so a
/// cache hit's stamp is the slow path's but for `cache_hit`.
pub fn stamp_stages(cache_hit: bool, stages: impl IntoIterator<Item = (u8, bool)>) -> FlightStamp {
    FlightStamp {
        cache_hit,
        stages: stages
            .into_iter()
            .enumerate()
            .map(|(i, (stage, hit))| StageStamp {
                stage,
                hit,
                start_cycle: stage_start_cycle(i),
                end_cycle: stage_start_cycle(i + 1),
            })
            .collect(),
    }
}

/// The clock, in Hz, a chain of `stages` match-action stages closes
/// timing at on the MPF200T's 28 nm fabric: a trivial core's 500 MHz,
/// divided by 1 + 0.15 per stage of logic depth.
pub fn fmax_hz(stages: usize) -> u64 {
    (500e6 / (1.0 + 0.15 * stages as f64)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_fabric::ClockDomain;

    #[test]
    fn compact_chains_close_at_2x_deep_chains_do_not() {
        // §5.3: "keeping chains compact (about 3–4 stages)" to run at 2×.
        let two_x = ClockDomain::XGMII_10G_X2.hz();
        assert!(fmax_hz(3) >= two_x);
        assert!(fmax_hz(4) >= two_x);
        assert!(fmax_hz(5) < two_x);
        // At 1× even deep chains close.
        assert!(fmax_hz(MAX_STAGES) >= ClockDomain::XGMII_10G.hz());
    }
}
