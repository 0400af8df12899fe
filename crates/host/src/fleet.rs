//! Fleet orchestration: managing many FlexSFPs at once.
//!
//! §4.1: the network-accessible control interface "is essential for
//! centralized orchestration across a fleet of FlexSFPs, while
//! preserving the independence of per-port behavior." The manager
//! performs parallel rolling OTA deployments (each module is
//! independent, so deployment parallelizes perfectly across worker
//! threads) and fleet-wide health sweeps with VCSEL fault diagnosis.
//!
//! The manager is built for a fleet whose control channels are real,
//! lossy cables (§5.3): every sweep reports a per-module `Result`
//! instead of aborting at the first unreachable module, a failed
//! deploy is rolled back to the golden image in slot 0, and modules
//! that fail repeated deploys are quarantined out of later rollouts.

use crate::mgmt::{ManagementClient, MgmtError, ModulePort};
use flexsfp_core::auth::AuthKey;
use flexsfp_core::failure::{diagnose, DiagnosisThresholds, FaultDiagnosis, VcselModel};
use flexsfp_core::module::FlexSfp;
use flexsfp_fabric::i2c::DomReading;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Health snapshot of one module.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEntry {
    /// Module identifier.
    pub module_id: String,
    /// Running app and version.
    pub app: String,
    /// Application version.
    pub app_version: u32,
    /// Optical diagnosis.
    pub diagnosis: FaultDiagnosis,
    /// Module temperature, °C.
    pub temperature_c: f64,
}

/// Result of a rolling deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeployReport {
    /// Modules updated successfully.
    pub updated: Vec<String>,
    /// Modules whose deploy failed AND whose golden rollback also
    /// failed, with reasons — these need hands-on attention.
    pub failed: Vec<(String, String)>,
    /// Modules whose deploy failed but which were successfully rolled
    /// back to the golden image in slot 0, with the deploy error.
    pub rolled_back: Vec<(String, String)>,
    /// Modules skipped because they exceeded the quarantine threshold
    /// in earlier rollouts.
    pub quarantined: Vec<String>,
}

/// Consecutive failed deploys before a module is quarantined out of
/// rollouts.
const QUARANTINE_AFTER: u32 = 3;

/// The fleet manager. Modules are individually locked so managed
/// operations on different modules proceed in parallel.
///
/// Generic over the port type: manage bare [`FlexSfp`]s directly, or
/// wrap each in a [`ImpairedPort`](crate::chaos::ImpairedPort) to run
/// the whole fleet over fault-injected channels.
pub struct FleetManager<P = FlexSfp> {
    modules: Vec<Mutex<P>>,
    client: ManagementClient,
    deploy_failures: Vec<AtomicU32>,
}

impl FleetManager<FlexSfp> {
    /// Manage `modules` with the shared fleet `key`.
    pub fn new(modules: Vec<FlexSfp>, key: AuthKey) -> FleetManager {
        FleetManager::with_client(modules, ManagementClient::new(key))
    }
}

impl<P> FleetManager<P> {
    /// Fleet size.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// True when managing no modules. Test-only:
    /// `crates/host/tests/exposition.rs`: the empty fleet.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Run `f` against one module under its lock.
    pub fn with_module<R>(&self, idx: usize, f: impl FnOnce(&mut P) -> R) -> R {
        f(&mut self.modules[idx].lock().unwrap())
    }

    /// The management client the fleet operates through (e.g. to read
    /// its transport-layer retry counters).
    pub fn client(&self) -> &ManagementClient {
        &self.client
    }
}

impl<P: ModulePort + Send> FleetManager<P> {
    /// Manage pre-wrapped ports (e.g. impaired channels) through an
    /// explicitly configured client.
    ///
    /// Test-only: `crates/bench/tests/chaos.rs`: a fleet behind impaired
    /// ports.
    pub fn with_client(modules: Vec<P>, client: ManagementClient) -> FleetManager<P> {
        let n = modules.len();
        FleetManager {
            modules: modules.into_iter().map(Mutex::new).collect(),
            client,
            deploy_failures: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Identify a module over its (possibly lossy) channel, with a
    /// positional fallback when the channel is down.
    fn module_id(&self, port: &mut P, idx: usize) -> String {
        self.client
            .info(port)
            .map(|i| i.module_id)
            .unwrap_or_else(|_| format!("module-{idx}"))
    }

    /// Deploy `image` to flash `slot` on every module, in parallel
    /// across `workers` threads. Per-module outcomes:
    ///
    /// * success → `updated` (and the module's failure streak resets);
    /// * failure + successful rollback to golden slot 0 → `rolled_back`
    ///   — the module is degraded but running a known-good image;
    /// * failure + failed rollback → `failed`;
    /// * quarantined (≥ threshold consecutive failures) → skipped and
    ///   listed in `quarantined`.
    pub fn deploy_all(&self, slot: usize, image: &[u8], workers: usize) -> DeployReport {
        let report = Mutex::new(DeployReport::default());
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = workers.clamp(1, self.modules.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if idx >= self.modules.len() {
                        break;
                    }
                    let mut module = self.modules[idx].lock().unwrap();
                    let id = self.module_id(&mut *module, idx);
                    if self.deploy_failures[idx].load(Ordering::Relaxed) >= QUARANTINE_AFTER {
                        report.lock().unwrap().quarantined.push(id);
                        continue;
                    }
                    match self.client.deploy(&mut *module, slot, image) {
                        Ok(()) => {
                            self.deploy_failures[idx].store(0, Ordering::Relaxed);
                            report.lock().unwrap().updated.push(id);
                        }
                        Err(e) => {
                            self.deploy_failures[idx].fetch_add(1, Ordering::Relaxed);
                            // Degrade, don't wedge: put the module back
                            // on the golden image rather than leaving
                            // it half-updated.
                            match self.client.activate_slot(&mut *module, 0) {
                                Ok(()) => {
                                    report.lock().unwrap().rolled_back.push((id, e.to_string()));
                                }
                                Err(r) => {
                                    report
                                        .lock()
                                        .unwrap()
                                        .failed
                                        .push((id, format!("{e}; rollback failed: {r}")));
                                }
                            }
                        }
                    }
                });
            }
        });
        let mut r = report.into_inner().unwrap();
        r.updated.sort();
        r.failed.sort();
        r.rolled_back.sort();
        r.quarantined.sort();
        r
    }

    /// Sweep the fleet, reading DOM diagnostics over the management
    /// channel and diagnosing optical faults — the §5.3 targeted-repair
    /// workflow. An unreachable module yields an `Err` entry at its
    /// index; the sweep always covers the whole fleet.
    pub fn health_report(&self) -> Vec<Result<HealthEntry, MgmtError>> {
        let thresholds = DiagnosisThresholds::default();
        let model = VcselModel::default();
        let mut out = Vec::with_capacity(self.modules.len());
        for m in &self.modules {
            let mut module = m.lock().unwrap();
            out.push(self.health_of(&mut module, &model, &thresholds));
        }
        out
    }

    fn health_of(
        &self,
        module: &mut P,
        model: &VcselModel,
        thresholds: &DiagnosisThresholds,
    ) -> Result<HealthEntry, MgmtError> {
        let info = self.client.info(module)?;
        let snap = self.client.read_dom(module)?;
        // Rebuild the raw DOM reading the diagnoser works on from the
        // wire snapshot (powers travel in dBm; vcc is not exported and
        // is nominal in this model).
        let dom = DomReading {
            temperature_c: snap.temp_c,
            vcc_v: 3.3,
            tx_bias_ma: snap.bias_ma,
            tx_power_mw: 10f64.powf(snap.tx_power_dbm / 10.0),
            rx_power_mw: 10f64.powf(snap.rx_power_dbm / 10.0),
        };
        Ok(HealthEntry {
            module_id: info.module_id,
            app: info.app,
            app_version: info.app_version,
            diagnosis: diagnose(&dom, model, thresholds),
            temperature_c: snap.temp_c,
        })
    }

    /// Pull one telemetry snapshot from every module over the
    /// authenticated management channel, in fleet order. Each pull
    /// drains that module's event ring, so events appear exactly once
    /// across successive sweeps. Unreachable modules yield `Err`
    /// entries instead of aborting the sweep.
    pub fn telemetry_snapshots(&self) -> Vec<Result<flexsfp_obs::TelemetrySnapshot, MgmtError>> {
        let mut out = Vec::with_capacity(self.modules.len());
        for m in &self.modules {
            let mut module = m.lock().unwrap();
            out.push(self.client.read_telemetry(&mut *module));
        }
        out
    }

    /// Indices of modules whose lasers need attention. Modules that
    /// could not be reached are not listed — they show up as `Err`
    /// entries in [`health_report`](Self::health_report) instead.
    pub fn modules_needing_service(&self) -> Vec<usize> {
        self.health_report()
            .iter()
            .enumerate()
            .filter(|(_, h)| {
                matches!(
                    h,
                    Ok(e) if matches!(
                        e.diagnosis,
                        FaultDiagnosis::LaserDegradation
                            | FaultDiagnosis::LaserFailed
                            | FaultDiagnosis::DriverFault
                    )
                )
            })
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{FaultPlan, ImpairedPort};
    use flexsfp_core::module::ModuleConfig;
    use flexsfp_core::Bitstream;
    use flexsfp_fabric::resources::ResourceManifest;

    fn module(i: usize) -> FlexSfp {
        let cfg = ModuleConfig {
            id: format!("FSFP-{i:04}"),
            ..ModuleConfig::default()
        };
        FlexSfp::new(cfg, Box::new(flexsfp_ppe::engine::PassThrough))
    }

    fn fleet(n: usize) -> FleetManager {
        FleetManager::new((0..n).map(module).collect(), AuthKey::DEFAULT)
    }

    #[test]
    fn parallel_rolling_deploy() {
        let f = fleet(12);
        let image =
            Bitstream::new("passthrough", 3, ResourceManifest::ZERO, 156_250_000).to_bytes();
        let report = f.deploy_all(1, &image, 4);
        assert_eq!(report.updated.len(), 12);
        assert!(report.failed.is_empty());
        assert!(report.rolled_back.is_empty() && report.quarantined.is_empty());
        for i in 0..12 {
            f.with_module(i, |m| {
                assert_eq!(m.app_version(), 3);
                assert_eq!(m.boots(), 2);
            });
        }
    }

    #[test]
    fn failed_modules_reported_not_bricked() {
        let f = fleet(3);
        // An image that is not a valid bitstream: commit succeeds (CRC
        // is over the raw bytes) but the boot falls back gracefully.
        // Instead use a valid bitstream for an unknown app: boots fall
        // back to passthrough v0 via the factory default.
        let image =
            Bitstream::new("unknown-app", 9, ResourceManifest::ZERO, 156_250_000).to_bytes();
        let report = f.deploy_all(1, &image, 2);
        // The flash is written and the activation lands, but every
        // module falls back rather than running unknown-app: none is
        // booked as updated, each is rolled back.
        assert!(report.updated.is_empty(), "{report:?}");
        assert_eq!(report.rolled_back.len(), 3);
        assert!(report
            .rolled_back
            .iter()
            .all(|(_, e)| e.contains("version 9")));
        for i in 0..3 {
            f.with_module(i, |m| {
                assert_ne!(m.app_name(), "unknown-app");
                assert_eq!(m.boots(), 3);
            });
        }
    }

    #[test]
    fn failed_deploy_rolls_back_to_golden() {
        let f = fleet(3);
        // Stage a golden image at the factory.
        let golden =
            Bitstream::new("passthrough", 1, ResourceManifest::ZERO, 156_250_000).to_bytes();
        for i in 0..3 {
            f.with_module(i, |m| m.flash.write_slot(0, &golden).unwrap());
        }
        // Slot 0 is protected: every deploy fails with BadSlot; the
        // manager rolls each module back to golden instead of leaving
        // it wedged.
        let image =
            Bitstream::new("passthrough", 9, ResourceManifest::ZERO, 156_250_000).to_bytes();
        let report = f.deploy_all(0, &image, 2);
        assert!(report.updated.is_empty());
        assert!(report.failed.is_empty());
        assert_eq!(report.rolled_back.len(), 3);
        assert!(report.rolled_back[0].1.contains("BadSlot"));
        for i in 0..3 {
            f.with_module(i, |m| {
                assert_eq!(m.app_version(), 1); // golden
                assert_eq!(m.boots(), 2); // rollback rebooted it
            });
        }
    }

    #[test]
    fn repeat_offenders_get_quarantined() {
        let f = fleet(2);
        let image =
            Bitstream::new("passthrough", 9, ResourceManifest::ZERO, 156_250_000).to_bytes();
        // Failing rollouts (slot 0 is protected) build the streak…
        for _ in 0..QUARANTINE_AFTER {
            let r = f.deploy_all(0, &image, 1);
            assert_eq!(r.rolled_back.len(), 2);
            assert!(r.quarantined.is_empty());
        }
        // …and the next skips both modules entirely.
        let r = f.deploy_all(0, &image, 1);
        assert!(r.rolled_back.is_empty() && r.updated.is_empty());
        assert_eq!(r.quarantined.len(), 2);
        // A successful deploy elsewhere clears the streak: not tested
        // here against slot 0 (always fails); reset is store(0) on Ok.
    }

    #[test]
    fn health_sweep_flags_aging_lasers() {
        let f = fleet(4);
        // Age module 2's laser to end of life.
        f.with_module(2, |m| {
            m.set_laser_ttf_hours(50_000.0);
            m.age_laser(49_000.0);
        });
        let report = f.health_report();
        assert_eq!(report.len(), 4);
        assert_eq!(
            report[0].as_ref().unwrap().diagnosis,
            FaultDiagnosis::Healthy
        );
        assert_ne!(
            report[2].as_ref().unwrap().diagnosis,
            FaultDiagnosis::Healthy
        );
        let service = f.modules_needing_service();
        assert_eq!(service, vec![2]);
    }

    #[test]
    fn health_report_carries_identity() {
        let f = fleet(2);
        let report = f.health_report();
        let r0 = report[0].as_ref().unwrap();
        assert_eq!(r0.module_id, "FSFP-0000");
        assert_eq!(report[1].as_ref().unwrap().module_id, "FSFP-0001");
        assert_eq!(r0.app, "passthrough");
        assert!(r0.temperature_c > 30.0);
    }

    #[test]
    fn telemetry_sweep_covers_fleet_in_order() {
        let f = fleet(3);
        let snaps = f.telemetry_snapshots();
        assert_eq!(snaps.len(), 3);
        for (i, s) in snaps.iter().enumerate() {
            let s = s.as_ref().unwrap();
            assert_eq!(s.module_id, format!("FSFP-{i:04}"));
            assert_eq!(s.seq, 1);
        }
        // A second sweep advances every module's sequence number.
        let again = f.telemetry_snapshots();
        assert!(again.iter().all(|s| s.as_ref().unwrap().seq == 2));
    }

    #[test]
    fn dead_module_yields_err_entry_not_sweep_abort() {
        // Module 1's channel is permanently down (100 % drop); the
        // sweeps still cover modules 0 and 2.
        let ports: Vec<ImpairedPort<FlexSfp>> = (0..3)
            .map(|i| {
                let plan = if i == 1 {
                    FaultPlan::ideal(1).with_drop(1.0)
                } else {
                    FaultPlan::ideal(1)
                };
                ImpairedPort::new(module(i), plan)
            })
            .collect();
        let f = FleetManager::with_client(ports, ManagementClient::new(AuthKey::DEFAULT));
        let snaps = f.telemetry_snapshots();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].as_ref().unwrap().module_id, "FSFP-0000");
        assert!(snaps[1].is_err());
        assert_eq!(snaps[2].as_ref().unwrap().module_id, "FSFP-0002");
        let health = f.health_report();
        assert!(health[0].is_ok() && health[1].is_err() && health[2].is_ok());
        // The dead module is simply absent from the service list.
        assert!(f.modules_needing_service().is_empty());
    }
}
