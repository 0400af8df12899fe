//! VCSEL wear-out and fault diagnosis.
//!
//! §5.3 (Failure Recovery): VCSELs wear out faster than the electronics,
//! with "time-to-failure following a lognormal distribution and gradual
//! optical power degradation as the primary failure" (citing the IEEE
//! 802.3 OMEGA reliability analysis). The FlexSFP's internal visibility
//! lets it distinguish laser degradation from driver-circuit failure and
//! schedule component-level replacement. This module models both the
//! wear-out process and the diagnosis logic.

use flexsfp_fabric::i2c::DomReading;
use flexsfp_fabric::serdes::OpticalHealth;

/// Lognormal time-to-failure model for a VCSEL population.
#[derive(Debug, Clone, Copy)]
pub struct VcselModel {
    /// Median time to failure in hours (the lognormal's exp(μ)).
    pub median_ttf_hours: f64,
    /// Shape parameter σ of ln(TTF).
    pub sigma: f64,
    /// Healthy beginning-of-life optical power, dBm.
    pub initial_power_dbm: f64,
    /// Healthy beginning-of-life bias current, mA.
    pub initial_bias_ma: f64,
}

impl Default for VcselModel {
    fn default() -> Self {
        // Representative of the OMEGA data for datacom VCSELs at
        // moderate case temperature.
        VcselModel {
            median_ttf_hours: 250_000.0,
            sigma: 0.6,
            initial_power_dbm: -2.0,
            initial_bias_ma: 6.0,
        }
    }
}

impl VcselModel {
    /// Cap on the consumed-life fraction used by [`VcselModel::health_at`].
    /// At 4× TTF the power drop is 48 dB — far past any failure
    /// threshold — so capping there keeps every output finite without
    /// changing values anywhere in the physically meaningful range.
    pub(crate) const LIFE_CAP: f64 = 4.0;

    /// Optical state at `age_hours` for a device with the given `ttf`.
    ///
    /// Degradation is gradual: power declines slowly through life,
    /// crossing −3 dB of its initial value at TTF (the conventional
    /// failure criterion), while bias current rises as the drive loop
    /// compensates. Degenerate inputs (`ttf_hours <= 0`, NaN, 0/0) are
    /// clamped so the DOM readout is always finite: a non-positive TTF
    /// means the device is past end of life the moment it has any age.
    pub fn health_at(&self, age_hours: f64, ttf_hours: f64) -> OpticalHealth {
        let life = if !ttf_hours.is_finite() || ttf_hours <= 0.0 {
            if ttf_hours.is_sign_positive() && ttf_hours.is_infinite() {
                0.0 // infinite TTF: never wears out
            } else if age_hours > 0.0 {
                Self::LIFE_CAP
            } else {
                0.0
            }
        } else {
            let ratio = age_hours / ttf_hours;
            if ratio.is_finite() {
                ratio.clamp(0.0, Self::LIFE_CAP)
            } else if ratio > 0.0 {
                Self::LIFE_CAP // infinite age on a finite TTF
            } else {
                0.0 // NaN age: treat as beginning of life
            }
        };
        // Power drop in dB: ~quadratic-in-life wear, 3 dB at end of life,
        // accelerating beyond.
        let drop_db = 3.0 * life * life;
        // Bias compensation: up to +40% at end of life.
        let bias = self.initial_bias_ma * (1.0 + 0.4 * life.min(2.0));
        OpticalHealth {
            tx_power_dbm: self.initial_power_dbm - drop_db,
            bias_ma: bias,
        }
    }
}

/// Diagnosis of an optical-path fault from DOM readings — the targeted-
/// repair insight of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDiagnosis {
    /// Everything nominal.
    Healthy,
    /// Laser wearing out: power down, bias compensating upward.
    /// Replace the TOSA (laser sub-assembly).
    LaserDegradation,
    /// Laser at end of life: power below the failure criterion.
    LaserFailed,
    /// Driver circuit fault: no bias current at all, so no light.
    /// Replace/repair the driver, not the laser.
    DriverFault,
    /// Receive path problem: our laser is fine but no light arrives
    /// (fiber break or far-end fault).
    RxLoss,
}

/// Diagnostic thresholds.
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisThresholds {
    /// Power drop (dB) below initial considered "degrading".
    pub degrade_db: f64,
    /// Power drop (dB) considered "failed".
    pub fail_db: f64,
    /// Bias (mA) below which the driver is considered dead.
    pub min_bias_ma: f64,
    /// Bias rise ratio considered "compensating".
    pub bias_rise: f64,
    /// RX power (mW) below which the receive path is dark.
    pub rx_dark_mw: f64,
}

impl Default for DiagnosisThresholds {
    fn default() -> Self {
        DiagnosisThresholds {
            degrade_db: 1.0,
            fail_db: 3.0,
            min_bias_ma: 0.5,
            bias_rise: 1.1,
            rx_dark_mw: 0.01,
        }
    }
}

/// Diagnose from a DOM reading against the device's beginning-of-life
/// baseline.
pub fn diagnose(
    dom: &DomReading,
    model: &VcselModel,
    thresholds: &DiagnosisThresholds,
) -> FaultDiagnosis {
    let tx_dbm = dom.tx_power_dbm();
    let drop_db = model.initial_power_dbm - tx_dbm;
    // Driver dead: no bias at all (the laser cannot lase without bias,
    // so power is also gone — bias is the distinguishing signal).
    if dom.tx_bias_ma < thresholds.min_bias_ma {
        return FaultDiagnosis::DriverFault;
    }
    if drop_db >= thresholds.fail_db {
        return FaultDiagnosis::LaserFailed;
    }
    if drop_db >= thresholds.degrade_db
        && dom.tx_bias_ma >= model.initial_bias_ma * thresholds.bias_rise
    {
        return FaultDiagnosis::LaserDegradation;
    }
    if dom.rx_power_mw < thresholds.rx_dark_mw {
        return FaultDiagnosis::RxLoss;
    }
    FaultDiagnosis::Healthy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(tx_power_mw: f64, bias_ma: f64, rx_mw: f64) -> DomReading {
        DomReading {
            temperature_c: 40.0,
            vcc_v: 3.3,
            tx_bias_ma: bias_ma,
            tx_power_mw,
            rx_power_mw: rx_mw,
        }
    }

    #[test]
    fn degradation_is_gradual_and_hits_3db_at_ttf() {
        let m = VcselModel::default();
        let ttf = 100_000.0;
        let young = m.health_at(10_000.0, ttf);
        let mid = m.health_at(50_000.0, ttf);
        let old = m.health_at(100_000.0, ttf);
        assert!(young.tx_power_dbm > mid.tx_power_dbm);
        assert!(mid.tx_power_dbm > old.tx_power_dbm);
        assert!((old.tx_power_dbm - (m.initial_power_dbm - 3.0)).abs() < 1e-9);
        assert!(old.tx_power_dbm <= m.initial_power_dbm - 3.0);
        assert!(mid.tx_power_dbm > m.initial_power_dbm - 3.0);
        // Bias rises with age.
        assert!(old.bias_ma > young.bias_ma);
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let m = VcselModel::default();
        // ttf == 0 with positive age used to divide to +inf life and
        // emit -inf power; now it reads as "past end of life".
        let h = m.health_at(1_000.0, 0.0);
        assert!(h.tx_power_dbm.is_finite() && h.bias_ma.is_finite());
        assert!(h.tx_power_dbm <= m.initial_power_dbm - 3.0);
        // 0/0 used to be NaN; a zero-age device on a zero TTF reads as
        // beginning of life.
        let h = m.health_at(0.0, 0.0);
        assert!(h.tx_power_dbm.is_finite() && h.bias_ma.is_finite());
        assert_eq!(h.tx_power_dbm, m.initial_power_dbm);
        assert_eq!(h.bias_ma, m.initial_bias_ma);
        // Negative TTF is nonsense input, not a license for -inf.
        let h = m.health_at(5_000.0, -1.0);
        assert!(h.tx_power_dbm.is_finite() && h.bias_ma.is_finite());
        assert!(h.tx_power_dbm <= m.initial_power_dbm - 3.0);
        // NaN age reads as beginning of life, not NaN power.
        let h = m.health_at(f64::NAN, 100_000.0);
        assert!(h.tx_power_dbm.is_finite() && h.bias_ma.is_finite());
        // Infinite TTF never wears out; infinite age on a finite TTF is
        // worn out, both finite.
        let h = m.health_at(1.0e12, f64::INFINITY);
        assert_eq!(h.tx_power_dbm, m.initial_power_dbm);
        let h = m.health_at(f64::INFINITY, 100_000.0);
        assert!(h.tx_power_dbm.is_finite());
        assert!(h.tx_power_dbm <= m.initial_power_dbm - 3.0);
        // Deep into wear-out the drop is capped, never -inf.
        let h = m.health_at(1.0e9, 1.0);
        assert!(h.tx_power_dbm >= m.initial_power_dbm - 3.0 * VcselModel::LIFE_CAP.powi(2));
    }

    #[test]
    fn clamp_does_not_change_normal_range() {
        let m = VcselModel::default();
        let ttf = 100_000.0;
        for age in [0.0, 10_000.0, 50_000.0, 100_000.0, 200_000.0] {
            let h = m.health_at(age, ttf);
            let life = age / ttf;
            assert!((h.tx_power_dbm - (m.initial_power_dbm - 3.0 * life * life)).abs() < 1e-12);
        }
    }

    #[test]
    fn diagnosis_healthy() {
        let m = VcselModel::default();
        // -2 dBm ≈ 0.631 mW, nominal bias, light arriving.
        let d = dom(0.631, 6.0, 0.4);
        assert_eq!(
            diagnose(&d, &m, &DiagnosisThresholds::default()),
            FaultDiagnosis::Healthy
        );
    }

    #[test]
    fn diagnosis_laser_degradation() {
        let m = VcselModel::default();
        // -3.5 dBm (1.5 dB down) with bias up 25%.
        let d = dom(0.447, 7.5, 0.4);
        assert_eq!(
            diagnose(&d, &m, &DiagnosisThresholds::default()),
            FaultDiagnosis::LaserDegradation
        );
    }

    #[test]
    fn diagnosis_laser_failed() {
        let m = VcselModel::default();
        // -5.5 dBm (3.5 dB down), bias high.
        let d = dom(0.282, 8.4, 0.4);
        assert_eq!(
            diagnose(&d, &m, &DiagnosisThresholds::default()),
            FaultDiagnosis::LaserFailed
        );
    }

    #[test]
    fn diagnosis_driver_fault_not_laser() {
        let m = VcselModel::default();
        // No bias at all: even with zero power this is the driver.
        let d = dom(0.0001, 0.0, 0.4);
        assert_eq!(
            diagnose(&d, &m, &DiagnosisThresholds::default()),
            FaultDiagnosis::DriverFault
        );
    }

    #[test]
    fn diagnosis_rx_loss() {
        let m = VcselModel::default();
        // Our TX fine, nothing arriving: fiber break / far end.
        let d = dom(0.631, 6.0, 0.0);
        assert_eq!(
            diagnose(&d, &m, &DiagnosisThresholds::default()),
            FaultDiagnosis::RxLoss
        );
    }

    #[test]
    fn wearout_sequence_transitions_through_diagnoses() {
        // Drive the model through life and check the diagnosis follows:
        // healthy -> degrading -> failed.
        let m = VcselModel::default();
        let ttf = 200_000.0;
        let th = DiagnosisThresholds::default();
        let mut seen = Vec::new();
        for age in [
            0.0, 40_000.0, 80_000.0, 120_000.0, 160_000.0, 200_000.0, 240_000.0,
        ] {
            let h = m.health_at(age, ttf);
            let d = dom(10f64.powf(h.tx_power_dbm / 10.0), h.bias_ma, 0.4);
            seen.push(diagnose(&d, &m, &th));
        }
        assert_eq!(seen.first(), Some(&FaultDiagnosis::Healthy));
        assert!(seen.contains(&FaultDiagnosis::LaserDegradation));
        assert_eq!(seen.last(), Some(&FaultDiagnosis::LaserFailed));
        // The sequence is monotone: once failed, stays failed.
        let first_fail = seen.iter().position(|d| *d == FaultDiagnosis::LaserFailed);
        if let Some(i) = first_fail {
            assert!(seen[i..].iter().all(|d| *d == FaultDiagnosis::LaserFailed));
        }
    }
}
