//! What a workload is and the method every workload is run by.
//!
//! Per workload, in order: one untimed digest pass, which is also the
//! warm-up (it first touches the footprint, and its construction time
//! is the informational `setup_cold_s`), the timed trials (fresh
//! construction each, timed as set-up, then the timed region *first
//! packet pulled → last output sunk*), one traced pass (after a
//! discarded one), the isolated kernels. End-to-end metrics come from
//! the untraced trials only.

use crate::alloc::{counted, HeapCount};
use crate::hostinfo::{host_speed, peak_rss_mb, SchedStat};
use crate::report::{LayerMetric, Metric, Trial, WorkloadResult};
use crate::spans::{Trace, Tracer};
use crate::stats::{SimLatency, Summary};
use crate::surface::{LatencyHistogram, OutputPacket, PacketArena};
use std::collections::BTreeMap;
use std::time::Instant;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a fold of `bytes` into `state`, as `bench::perf` folds
/// its output digest.
pub fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *state ^= u64::from(b);
        *state = state.wrapping_mul(0x100_0000_01b3);
    }
}

/// Where a trial's outputs go. Every output is folded into a cheap
/// order-sensitive fingerprint (departure time, length, the eight bytes
/// holding the IPv4 addresses), so each timed trial can be checked
/// against the digest pass for a couple of nanoseconds a packet. The
/// digest pass additionally folds every byte into the FNV-1a digest,
/// which costs about as much as `nat_hot` itself and therefore never
/// runs inside a timed region.
pub struct Sink {
    arena: PacketArena,
    full: bool,
    pub outputs: u64,
    pub fingerprint: u64,
    pub digest: u64,
}

impl Sink {
    pub fn new(arena: PacketArena, full: bool) -> Sink {
        Sink {
            arena,
            full,
            outputs: 0,
            fingerprint: FNV_OFFSET,
            digest: FNV_OFFSET,
        }
    }

    /// Fold one output identified by `(departure, lane)` and its bytes.
    #[inline]
    pub fn fold(&mut self, departure_ns: u64, lane: u64, frame: &[u8]) {
        self.outputs += 1;
        let addrs = match frame.get(26..34) {
            Some(b) => u64::from_le_bytes(b.try_into().expect("eight bytes")),
            None => 0,
        };
        self.fingerprint = (self.fingerprint.rotate_left(5)
            ^ departure_ns
            ^ addrs.rotate_left(32)
            ^ ((frame.len() as u64) << 8)
            ^ lane)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if self.full {
            fnv1a(&mut self.digest, &departure_ns.to_le_bytes());
            fnv1a(&mut self.digest, &[lane as u8]);
            fnv1a(&mut self.digest, &(frame.len() as u32).to_le_bytes());
            fnv1a(&mut self.digest, frame);
        }
    }

    /// Sink one module output and recycle its frame.
    #[inline]
    pub fn take(&mut self, out: OutputPacket) {
        let lane = u64::from(matches!(out.egress, crate::surface::Interface::Optical));
        self.fold(out.departure_ns, lane, &out.frame);
        self.arena.recycle(out.frame);
    }
}

/// What one trial did, as far as anyone outside the program can see.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host ns from the first packet pulled to the last output sunk.
    pub timed_ns: u64,
    /// Operations attempted: packets offered.
    pub offered: u64,
    /// Packets delivered (`rack_2tor`: out of access ports).
    pub forwarded: u64,
    pub fingerprint: u64,
    /// FNV-1a over every output; only the digest pass computes it.
    pub digest: u64,
    /// Offered packets with no named fate.
    pub unexplained: u64,
    pub control_sent: u64,
    pub control_handled: u64,
    /// Every conservation identity of the workload closed.
    pub conserved: bool,
    /// Simulated latency of delivered packets.
    pub latency: LatencyHistogram,
    /// Counts taken at the layer boundaries; exact for a fixed seed.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Operations of this trial that failed, given the reference
    /// fingerprint: all of them when the outputs differ or an identity
    /// broke, else the unexplained drops and unhandled control frames.
    pub fn failed(&self, reference_fingerprint: u64) -> u64 {
        if self.fingerprint != reference_fingerprint || !self.conserved {
            return self.offered;
        }
        (self.unexplained + self.control_sent.saturating_sub(self.control_handled))
            .min(self.offered)
    }

    pub fn sim_delivery(&self) -> f64 {
        self.forwarded as f64 / self.offered.max(1) as f64
    }
}

/// A constructed trial, with what its construction cost.
pub struct Built<S> {
    pub state: S,
    /// `FlexSfp::new`, ns per module.
    pub module_build_ns: Vec<u64>,
    /// Table population during set-up: total ns and entries.
    pub populate_ns: u64,
    pub populated: u64,
}

/// One of the five workloads.
pub trait Workload {
    /// Everything a trial needs before its first packet.
    type State;

    fn name(&self) -> &'static str;

    /// Packets offered per trial.
    fn packets(&self) -> u64;

    /// Build a trial. With a tracer, applications are wrapped so their
    /// calls are timed.
    fn build(&self, tracer: Option<&Tracer>) -> Built<Self::State>;

    /// Run a built trial to completion. `full_digest` selects the
    /// digest pass's byte-exact sink.
    fn run(&self, state: Self::State, full_digest: bool, tracer: Option<&Tracer>) -> Outcome;

    /// A digest pass whose digest this workload must reproduce, when it
    /// is not its own reference (`sharded_2` must equal serial).
    fn reference(&self) -> Option<Outcome> {
        None
    }

    /// Workload-specific per-layer metrics from the traced pass.
    fn layers(&self, trace: &Trace, traced: &Outcome, out: &mut Layers);

    /// Isolated kernels on this workload's own frames and keys.
    fn kernels(&self, out: &mut Layers);

    /// Anything a reader of the result must know (degraded modes).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    fn degraded(&self) -> bool {
        false
    }
}

/// Per-layer metrics of one workload, by name.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
        );
    }
}

/// How much of the method to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Measure until set-up plus timed regions add up to this long.
    pub seconds: f64,
    pub min_trials: usize,
    pub max_trials: usize,
    /// Run the traced pass and the kernels.
    pub traced: bool,
    pub quick: bool,
}

/// A trial is marked disturbed when it waited for a CPU for more than
/// this share of its wall time.
const DISTURBED_WAIT_SHARE: f64 = 0.02;

/// Everything [`run_workload`] produced: the result record and, when
/// the traced pass ran, its trace.
pub struct Ran {
    pub result: WorkloadResult,
    pub trace: Option<Trace>,
}

/// Run one workload by the method in the module docs.
pub fn run_workload<W: Workload>(w: &W, plan: &Plan) -> Ran {
    let child_start = Instant::now();
    let packets = w.packets();

    // Untimed digest pass: the reference every trial is held to, and
    // the warm-up that first touches the footprint.
    let t = Instant::now();
    let built = w.build(None);
    let setup_cold_s = t.elapsed().as_secs_f64();
    let own = w.run(built.state, true, None);
    let reference = w.reference();
    let reference = reference.as_ref().unwrap_or(&own);
    let mut checks_failed: Vec<String> = Vec::new();
    if own.digest != reference.digest {
        checks_failed.push(format!(
            "digest {:016x} differs from the reference {:016x}",
            own.digest, reference.digest
        ));
    }
    if own.fingerprint != reference.fingerprint {
        checks_failed.push("digest-pass fingerprint differs from the reference".to_string());
    }
    if !own.conserved {
        checks_failed.push("a conservation identity failed in the digest pass".to_string());
    }
    let sim = SimLatency::of(&own.latency);

    // Timed trials.
    let mut trials: Vec<Trial> = Vec::new();
    let mut ops_attempted = 0u64;
    let mut ops_failed = 0u64;
    let mut measured_s = 0.0;
    let mut module_build_ns: Vec<f64> = Vec::new();
    let mut populate_ns_per_entry: Vec<f64> = Vec::new();
    // The host's speed is probed between trials; a trial is calibrated
    // by the mean of the probes on either side of it.
    let mut speed_before = host_speed();
    while trials.len() < plan.max_trials
        && (trials.len() < plan.min_trials || measured_s < plan.seconds)
    {
        let sched0 = SchedStat::now();
        let t = Instant::now();
        let built = w.build(None);
        let setup_s = t.elapsed().as_secs_f64();
        module_build_ns.extend(built.module_build_ns.iter().map(|&ns| ns as f64));
        if built.populated > 0 {
            populate_ns_per_entry.push(built.populate_ns as f64 / built.populated as f64);
        }
        let out = w.run(built.state, false, None);
        let wall_s = t.elapsed().as_secs_f64();
        let sched = SchedStat::now().since(&sched0);
        let timed_s = out.timed_ns as f64 / 1e9;
        let failed = out.failed(reference.fingerprint);
        if out.offered != own.offered
            || out.forwarded != own.forwarded
            || SimLatency::of(&out.latency) != sim
        {
            checks_failed.push(format!(
                "trial {} did not repeat the digest pass's simulated results",
                trials.len()
            ));
        }
        ops_attempted += out.offered;
        ops_failed += failed;
        measured_s += setup_s + timed_s;
        let speed_after = host_speed();
        let speed = (speed_before + speed_after) / 2.0;
        speed_before = speed_after;
        let mpps_raw = out.offered as f64 / timed_s / 1e6;
        trials.push(Trial {
            setup_s,
            timed_s,
            mpps_raw,
            host_speed: speed,
            mpps: mpps_raw / speed,
            on_cpu_s: sched.on_cpu_ns as f64 / 1e9,
            runqueue_wait_s: sched.wait_ns as f64 / 1e9,
            disturbed: sched.wait_ns as f64 / 1e9 > DISTURBED_WAIT_SHARE * wall_s,
            failed,
        });
    }
    let peak_rss = peak_rss_mb();
    let column = |f: fn(&Trial) -> f64| -> Vec<f64> { trials.iter().map(f).collect() };
    let mpps = Summary::of(&column(|t| t.mpps));
    let mpps_raw = crate::stats::median(&column(|t| t.mpps_raw));
    let failed_ratio = ops_failed as f64 / ops_attempted.max(1) as f64;
    let end_to_end = vec![
        Metric::new("setup_s", Summary::of(&column(|t| t.setup_s))),
        Metric::new("mpps", mpps),
        Metric::new("peak_rss_mb", Summary::exact(peak_rss)),
        Metric::new("sim_delivery", Summary::exact(own.sim_delivery())),
        Metric::new("sim_p50_ns", Summary::exact(sim.p50_ns as f64)),
        Metric::new("sim_p999_ns", Summary::exact(sim.tail_ns as f64)),
        Metric::new("failed_ratio", Summary::exact(failed_ratio)),
    ];

    // Traced pass and kernels.
    let mut layers = Layers::default();
    let mut trace = None;
    if plan.traced {
        // A discarded traced warm-up first: the span buffers shift the
        // heap, and on this VM the first touch of the pages they push
        // the frames onto costs several times the pass itself.
        {
            let warm_up = Tracer::new(0);
            let built = w.build(Some(&warm_up));
            w.run(built.state, false, Some(&warm_up));
        }
        let tracer = Tracer::new(trials.len() as u32);
        let built = w.build(Some(&tracer));
        let (traced, heap) = counted(|| w.run(built.state, false, Some(&tracer)));
        let finished = tracer.finish();
        if traced.fingerprint != reference.fingerprint {
            checks_failed.push("the traced pass changed the outputs".to_string());
        }
        common_layers(
            &finished,
            &traced,
            heap,
            mpps_raw,
            &module_build_ns,
            &populate_ns_per_entry,
            &mut layers,
        );
        layers.set("flexbench.mpps_raw", mpps_raw);
        layers.set(
            "flexbench.host_speed",
            crate::stats::median(&column(|t| t.host_speed)),
        );
        for (name, value) in &own.counts {
            layers.set(name, *value);
        }
        w.layers(&finished, &traced, &mut layers);
        w.kernels(&mut layers);
        trace = Some(finished);
    }

    let result = WorkloadResult {
        workload: w.name().to_string(),
        seed: plan.seed,
        quick: plan.quick,
        packets_per_trial: packets,
        digest: format!("{:016x}", own.digest),
        fingerprint: format!("{:016x}", own.fingerprint),
        setup_cold_s,
        ops_attempted,
        ops_failed,
        sim_samples: sim.samples,
        sim_tail_quantile: sim.tail_quantile,
        degraded: w.degraded(),
        notes: w.notes(),
        checks_failed,
        end_to_end,
        per_layer: layers
            .0
            .into_iter()
            .map(|(name, value)| LayerMetric::new(&name, value))
            .collect(),
        trials_disturbed: trials
            .iter()
            .enumerate()
            .filter(|(_, t)| t.disturbed)
            .map(|(i, _)| i as u64)
            .collect(),
        trials,
        child_wall_s: child_start.elapsed().as_secs_f64(),
    };
    Ran { result, trace }
}

/// The per-layer metrics every workload shares.
fn common_layers(
    trace: &Trace,
    traced: &Outcome,
    heap: HeapCount,
    untraced_mpps_raw: f64,
    module_build_ns: &[f64],
    populate_ns_per_entry: &[f64],
    out: &mut Layers,
) {
    let packets = traced.offered.max(1) as f64;
    out.set(
        "traffic.gen.ns_per_pkt",
        trace.total_ns("traffic.gen") as f64 / packets,
    );
    out.set(
        "apps.process.ns_per_pkt",
        trace.total_ns("apps.process") as f64 / packets,
    );
    let traced_mpps = traced.offered as f64 / (traced.timed_ns.max(1) as f64 / 1e9) / 1e6;
    out.set("trace.overhead_ratio", traced_mpps / untraced_mpps_raw);
    out.set(
        "host.module.build_ms",
        crate::stats::median(module_build_ns) / 1e6,
    );
    out.set(
        "ppe.table.populate_ns_per_entry",
        crate::stats::median(populate_ns_per_entry),
    );
    out.set("heap.allocs_per_kpkt", heap.allocs as f64 / (packets / 1e3));
    out.set("heap.bytes_per_pkt", heap.bytes as f64 / packets);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let frame = |tag: u8| {
            let mut f = vec![0u8; 60];
            f[26] = tag;
            f
        };
        let fold = |order: &[(u64, u8)]| {
            let mut s = Sink::new(PacketArena::new(), true);
            for &(t, tag) in order {
                s.fold(t, 1, &frame(tag));
            }
            (s.fingerprint, s.digest)
        };
        let a = fold(&[(10, 1), (20, 2)]);
        assert_eq!(a, fold(&[(10, 1), (20, 2)]));
        assert_ne!(a.0, fold(&[(20, 2), (10, 1)]).0);
        assert_ne!(a.0, fold(&[(10, 1), (20, 3)]).0);
        assert_ne!(a.1, fold(&[(10, 1), (20, 3)]).1);
        assert_ne!(a.0, fold(&[(10, 1), (21, 2)]).0);
    }

    #[test]
    fn a_corrupted_digest_or_broken_identity_fails_every_packet() {
        let good = Outcome {
            offered: 1000,
            forwarded: 990,
            fingerprint: 7,
            conserved: true,
            ..Outcome::default()
        };
        assert_eq!(good.failed(7), 0);
        assert_eq!(good.failed(8), 1000, "corrupted digest");
        let leaked = Outcome {
            conserved: false,
            ..good.clone()
        };
        assert_eq!(leaked.failed(7), 1000, "broken conservation identity");
        let lossy = Outcome {
            unexplained: 3,
            control_sent: 5,
            control_handled: 4,
            ..good.clone()
        };
        assert_eq!(lossy.failed(7), 4);
        let ratio = lossy.failed(7) as f64 / lossy.offered as f64;
        assert!(ratio > 0.0);
    }
}
