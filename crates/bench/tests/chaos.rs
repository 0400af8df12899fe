//! Chaos integration suite (§5.3 failure recovery): seeded fault
//! injection on the control channel must never leave a module wedged.
//!
//! Every scenario here is fully deterministic — the impairment is
//! driven by a seeded RNG, so a failing seed reproduces bit-for-bit.
//! The invariant proved across all seeds: after a deploy attempt over
//! an impaired channel, every module either
//!
//! 1. holds the *byte-exact* staged image in the target slot and runs
//!    the new app version, or
//! 2. was cleanly rolled back to the golden image in slot 0,
//!
//! and no module is ever left mid-update in `Receiving`.

use flexsfp_core::auth::AuthKey;
use flexsfp_core::module::{FlexSfp, ModuleConfig};
use flexsfp_core::reprogram::UpdateState;
use flexsfp_core::Bitstream;
use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_host::chaos::{FaultPlan, ImpairedPort};
use flexsfp_host::mgmt::RetryPolicy;
use flexsfp_host::{FleetCollector, FleetManager, ManagementClient};

const UPDATE_SLOT: usize = 2;
const NEW_VERSION: u32 = 7;
const GOLDEN_VERSION: u32 = 1;

/// The golden image every module ships with in slot 0.
fn golden_image() -> Vec<u8> {
    Bitstream::new(
        "passthrough",
        GOLDEN_VERSION,
        ResourceManifest::ZERO,
        156_250_000,
    )
    .to_bytes()
}

/// The rollout image: a multi-chunk bitstream (~8 KB payload), so a
/// deploy spans many exchanges and gives the channel room to misbehave.
fn update_image() -> Vec<u8> {
    let manifest = ResourceManifest {
        lut4: 655,
        ff: 400,
        usram: 4,
        lsram: 2,
    };
    Bitstream::new("passthrough", NEW_VERSION, manifest, 156_250_000).to_bytes()
}

fn module(i: usize) -> FlexSfp {
    let cfg = ModuleConfig {
        id: format!("CHAOS-{i:04}"),
        ..ModuleConfig::default()
    };
    let mut m = FlexSfp::new(cfg, Box::new(flexsfp_ppe::engine::PassThrough));
    m.flash.write_slot(0, &golden_image()).unwrap();
    m
}

fn chaos_fleet(
    n: usize,
    plan_for: impl Fn(usize) -> FaultPlan,
) -> FleetManager<ImpairedPort<FlexSfp>> {
    let ports = (0..n)
        .map(|i| ImpairedPort::new(module(i), plan_for(i)))
        .collect();
    let client = ManagementClient::with_policy(
        AuthKey::DEFAULT,
        RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        },
    );
    FleetManager::with_client(ports, client)
}

/// Every exchange through every impaired port met exactly one fate.
fn assert_conserved(fleet: &FleetManager<ImpairedPort<FlexSfp>>) {
    for i in 0..fleet.len() {
        let stats = fleet.with_module(i, |p| p.stats());
        assert!(stats.conserved(), "module {i}: {stats:?}");
    }
}

/// Check the §5.3 invariant for one module after a chaos deploy.
/// Returns true when the module converged to the new image.
fn assert_converged_or_golden(m: &FlexSfp, image: &[u8]) -> bool {
    // Never wedged mid-update, regardless of outcome.
    assert!(
        !matches!(m.control.update_state(), UpdateState::Receiving { .. }),
        "{} left wedged in Receiving",
        m.config.id
    );
    if m.app_version() == NEW_VERSION {
        // Byte-exact staged image in the target slot.
        let staged = m.flash.image(UPDATE_SLOT).unwrap();
        assert_eq!(staged, image, "{} staged image corrupt", m.config.id);
        true
    } else {
        // Clean rollback: running the golden build, not some torn state.
        assert_eq!(
            m.app_version(),
            GOLDEN_VERSION,
            "{} ended on neither new nor golden image",
            m.config.id
        );
        false
    }
}

#[test]
fn every_seed_converges_or_rolls_back_cleanly() {
    let image = update_image();
    let mut converged_total = 0usize;
    for seed in 1..=8u64 {
        let fleet = chaos_fleet(6, |i| FaultPlan::lossy(seed * 100 + i as u64));
        let report = fleet.deploy_all(UPDATE_SLOT, &image, 3);
        assert_conserved(&fleet);
        // Every module accounted for exactly once.
        assert_eq!(
            report.updated.len()
                + report.rolled_back.len()
                + report.failed.len()
                + report.quarantined.len(),
            6,
            "seed {seed}: {report:?}"
        );
        assert!(report.quarantined.is_empty(), "fresh fleet, no quarantine");
        for i in 0..6 {
            let converged = fleet.with_module(i, |p| assert_converged_or_golden(p.inner(), &image));
            if converged {
                converged_total += 1;
            }
        }
    }
    // The retry/resume machinery must actually win most of the time
    // under the moderate `lossy` plan — otherwise it is not resilience,
    // just failure reporting.
    println!("chaos convergence: {converged_total}/48 deploys landed the new image");
    assert!(
        converged_total >= 8 * 6 / 2,
        "only {converged_total}/48 deploys converged"
    );
}

#[test]
fn chaos_outcome_is_deterministic_per_seed() {
    let image = update_image();
    let run = || {
        let fleet = chaos_fleet(4, |i| FaultPlan::lossy(4242 + i as u64));
        let report = fleet.deploy_all(UPDATE_SLOT, &image, 1);
        assert_conserved(&fleet);
        let stats: Vec<_> = (0..4)
            .map(|i| fleet.with_module(i, |p| p.stats()))
            .collect();
        let versions: Vec<_> = (0..4)
            .map(|i| fleet.with_module(i, |p| p.inner().app_version()))
            .collect();
        (report, stats, versions)
    };
    let (r1, s1, v1) = run();
    let (r2, s2, v2) = run();
    assert_eq!(r1, r2);
    assert_eq!(s1, s2);
    assert_eq!(v1, v2);
}

#[test]
fn duplicate_heavy_channel_exercises_idempotent_acks() {
    // No loss, only duplication: every deploy must succeed, and the
    // module-side FSM must have absorbed replayed chunks as acks.
    let image = update_image();
    let fleet = chaos_fleet(3, |i| FaultPlan::ideal(77 + i as u64).with_duplicate(0.9));
    let report = fleet.deploy_all(UPDATE_SLOT, &image, 1);
    assert_conserved(&fleet);
    assert_eq!(report.updated.len(), 3, "{report:?}");
    let mut dup_acks = 0;
    for i in 0..3 {
        fleet.with_module(i, |p| {
            assert!(p.stats().duplicates > 0, "plan produced no duplicates");
            let m = p.inner();
            assert_eq!(m.app_version(), NEW_VERSION);
            dup_acks += m.control.ctrl_counters().dup_chunk_acks;
        });
    }
    assert!(
        dup_acks > 0,
        "duplicated chunks should surface as idempotent acks"
    );
}

#[test]
fn flapping_channel_never_wedges_and_counters_export() {
    // A flappy, lossy fleet swept for telemetry after a rollout: the
    // retry/abort/flap counters must surface in the Prometheus text.
    let image = update_image();
    let fleet = chaos_fleet(4, |i| FaultPlan {
        flap_p: 0.05,
        flap_len_max: 4,
        ..FaultPlan::lossy(9000 + i as u64)
    });
    let report = fleet.deploy_all(UPDATE_SLOT, &image, 2);
    assert_conserved(&fleet);
    assert_eq!(
        report.updated.len() + report.rolled_back.len() + report.failed.len(),
        4
    );
    for i in 0..4 {
        fleet.with_module(i, |p| {
            assert_converged_or_golden(p.inner(), &image);
        });
    }

    let mut collector = FleetCollector::new();
    collector.ingest_sweep(fleet.telemetry_snapshots());
    collector.set_transport_stats(fleet.client().transport_stats());
    for i in 0..4 {
        let (id, stats) = fleet.with_module(i, |p| (p.inner().config.id.clone(), p.stats()));
        collector.set_channel_stats(&id, stats);
    }
    let text = collector.render_prometheus();
    for family in [
        "flexsfp_ctrl_dup_chunk_acks_total",
        "flexsfp_ctrl_update_aborts_total",
        "flexsfp_ctrl_update_errors_total",
        "flexsfp_ctrl_status_queries_total",
        "flexsfp_ctrl_retries_total",
        "flexsfp_ctrl_timeouts_total",
        "flexsfp_ctrl_aborts_sent_total",
        "flexsfp_ctrl_resyncs_total",
        "flexsfp_ctrl_link_faults_total",
        "flexsfp_scrape_failures_total",
    ] {
        assert!(text.contains(family), "missing {family} in export");
    }
    // The lossy channels definitely retried something.
    assert!(fleet.client().transport_stats().retries > 0);
}

#[test]
fn brutal_channel_degrades_to_golden_instead_of_wedging() {
    // A near-unusable cable and an impatient client: most deploys
    // fail. The point of this arm is the *failure* path — every failed
    // module must land on the golden image with an idle FSM.
    let image = update_image();
    let ports = (0..6)
        .map(|i| {
            ImpairedPort::new(
                module(i),
                FaultPlan {
                    flap_p: 0.05,
                    flap_len_max: 6,
                    ..FaultPlan::lossy(31_000 + i as u64).with_drop(0.45)
                },
            )
        })
        .collect();
    let client = ManagementClient::with_policy(
        AuthKey::DEFAULT,
        RetryPolicy {
            max_attempts: 2,
            max_resyncs: 4,
            ..RetryPolicy::default()
        },
    );
    let fleet = FleetManager::with_client(ports, client);
    let report = fleet.deploy_all(UPDATE_SLOT, &image, 2);
    assert_conserved(&fleet);
    assert!(
        !report.rolled_back.is_empty() || !report.failed.is_empty(),
        "brutal plan unexpectedly let every deploy through: {report:?}"
    );
    for i in 0..6 {
        fleet.with_module(i, |p| {
            assert_converged_or_golden(p.inner(), &image);
        });
    }
    // The teardown path ran: aborts were sent on the wire.
    assert!(fleet.client().transport_stats().aborts_sent > 0);
}

#[test]
fn ideal_channel_control_arm_is_lossless() {
    // The control arm: the same machinery over perfect channels must
    // deploy everything first try with zero retries or aborts.
    let image = update_image();
    let fleet = chaos_fleet(3, |i| FaultPlan::ideal(i as u64));
    let report = fleet.deploy_all(UPDATE_SLOT, &image, 3);
    assert_conserved(&fleet);
    assert_eq!(report.updated.len(), 3);
    let t = fleet.client().transport_stats();
    assert_eq!(t.retries, 0);
    assert_eq!(t.timeouts, 0);
    assert_eq!(t.resyncs, 0);
    for i in 0..3 {
        fleet.with_module(i, |p| {
            assert_eq!(p.inner().app_version(), NEW_VERSION);
            assert_eq!(p.inner().boots(), 2);
        });
    }
}
