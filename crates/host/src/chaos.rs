//! Deterministic fault injection for the in-cable control channel.
//!
//! The paper's §5.3 reliability story only matters because the channel
//! between host and module is a real, lossy cable: management frames
//! ride the same physical plant as the dataplane and are dropped,
//! duplicated, corrupted and delayed by it. This module provides the
//! *seeded* impairment layer the resilience tests are built on:
//!
//! * [`FaultPlan`] — a declarative, reproducible description of how a
//!   channel misbehaves (drop/duplicate/corrupt probabilities, link
//!   flaps, jitter), driven by [`flexsfp_traffic::rng::Xoshiro256`] so
//!   a given seed always produces the same fault sequence;
//! * [`ImpairedPort`] — wraps any [`ModulePort`] (usually a
//!   [`FlexSfp`](flexsfp_core::module::FlexSfp)) and applies the plan
//!   to every request/response exchange on the OOB control channel;
//! * [`LossyLink`] — extends [`FiberLink`] with the same plan for the
//!   dataplane path, so packet traces can be carried across an
//!   impaired span with per-packet accounting.
//!
//! Everything here is deterministic: no wall clock, no global RNG.
//! Re-running a chaos experiment with the same seed replays the exact
//! same faults, which is what lets the bench suite assert byte-exact
//! convergence under impairment.

use crate::link::FiberLink;
use crate::mgmt::ModulePort;
use flexsfp_core::module::{OutputPacket, SimPacket};
use flexsfp_traffic::rng::Xoshiro256;

/// A seeded, declarative description of channel impairment.
///
/// All probabilities are per-exchange (control path) or per-packet
/// (dataplane path) and are sampled from a private
/// [`Xoshiro256`] stream seeded with `seed`, so two channels built
/// from equal plans misbehave identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// RNG seed; equal seeds replay equal fault sequences.
    pub seed: u64,
    /// Probability a frame is silently dropped (applied independently
    /// to the request and the response on the control path).
    pub drop_p: f64,
    /// Probability a delivered request is replayed once more and the
    /// *second* response is the one returned — exercises idempotency.
    pub duplicate_p: f64,
    /// Probability a single random bit of a frame is flipped.
    pub corrupt_p: f64,
    /// Probability an exchange starts a link flap (a burst outage).
    pub flap_p: f64,
    /// Maximum length of a flap, in consecutive lost exchanges.
    pub flap_len_max: u32,
    /// Mean of the exponential extra delay added per dataplane packet,
    /// nanoseconds (0 disables jitter).
    pub jitter_ns: u64,
}

impl FaultPlan {
    /// A perfect channel: nothing dropped, nothing corrupted. Useful
    /// as a control arm in chaos experiments.
    pub fn ideal(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.0,
            duplicate_p: 0.0,
            corrupt_p: 0.0,
            flap_p: 0.0,
            flap_len_max: 0,
            jitter_ns: 0,
        }
    }

    /// A moderately hostile cable: ~8 % frame loss, occasional
    /// duplicates, bit errors and short flaps. Deploys still converge
    /// under this plan given a sane [`RetryPolicy`](crate::mgmt::RetryPolicy).
    pub fn lossy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: 0.08,
            duplicate_p: 0.05,
            corrupt_p: 0.02,
            flap_p: 0.01,
            flap_len_max: 3,
            jitter_ns: 500,
        }
    }

    /// Set the per-frame drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop_p = p;
        self
    }

    /// Set the request-duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate_p = p;
        self
    }

    /// Set the single-bit corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> FaultPlan {
        self.corrupt_p = p;
        self
    }

    /// Set the mean exponential jitter, ns.
    pub fn with_jitter(mut self, mean_ns: u64) -> FaultPlan {
        self.jitter_ns = mean_ns;
        self
    }
}

/// What an [`ImpairedPort`] did to the traffic that crossed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Exchanges attempted through the port.
    pub attempts: u64,
    /// Exchanges whose response made it back to the caller.
    pub delivered: u64,
    /// Requests dropped before reaching the module.
    pub request_drops: u64,
    /// Responses dropped on the way back.
    pub response_drops: u64,
    /// Requests replayed to the module a second time.
    pub duplicates: u64,
    /// Frames that had a bit flipped (requests + responses).
    pub corruptions: u64,
    /// Link flaps started.
    pub flaps: u64,
    /// Exchanges lost to an in-progress flap (including the one that
    /// started it).
    pub flap_losses: u64,
    /// Requests the module answered with nothing (one that a flipped
    /// bit made fail authentication, say).
    pub unanswered: u64,
}

impl ImpairStats {
    /// Every attempted exchange met exactly one fate. Test-only:
    /// `crates/bench/tests/chaos.rs`: the identity each chaos run keeps.
    pub fn conserved(&self) -> bool {
        self.attempts
            == self.delivered
                + self.request_drops
                + self.response_drops
                + self.flap_losses
                + self.unanswered
    }
}

/// A [`ModulePort`] wrapper that applies a [`FaultPlan`] to every
/// exchange: the chaos layer between a management client and a module.
///
/// Fault order per exchange: flap → request drop → request corruption
/// → delivery (optionally duplicated) → response drop → response
/// corruption. A duplicated request returns the *second* response, so
/// the module's idempotency (not the wrapper) must make replays safe.
///
/// Test-only: `crates/bench/tests/chaos.rs`: a lossy control channel,
/// which no product program drives.
#[derive(Debug)]
pub struct ImpairedPort<P> {
    inner: P,
    plan: FaultPlan,
    rng: Xoshiro256,
    stats: ImpairStats,
    down_for: u32,
}

impl<P: ModulePort> ImpairedPort<P> {
    /// Wrap `inner` with the impairments described by `plan`.
    pub fn new(inner: P, plan: FaultPlan) -> ImpairedPort<P> {
        ImpairedPort {
            inner,
            plan,
            rng: Xoshiro256::seed_from_u64(plan.seed),
            stats: ImpairStats::default(),
            down_for: 0,
        }
    }

    /// The wrapped port.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap, discarding the impairment state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Fault accounting so far.
    pub fn stats(&self) -> ImpairStats {
        self.stats
    }

    /// The plan this port was built with.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }
}

/// Flip one uniformly random bit of `frame`.
fn flip_random_bit(rng: &mut Xoshiro256, frame: &mut [u8]) {
    if frame.is_empty() {
        return;
    }
    let byte = rng.range_usize(0, frame.len());
    let bit = rng.range_u64(0, 8) as u32;
    frame[byte] ^= 1 << bit;
}

impl<P: ModulePort> ModulePort for ImpairedPort<P> {
    fn request(&mut self, payload: &[u8]) -> Option<Vec<u8>> {
        self.stats.attempts += 1;
        // A flap takes the whole channel down for a burst of exchanges.
        if self.down_for > 0 {
            self.down_for -= 1;
            self.stats.flap_losses += 1;
            return None;
        }
        if self.plan.flap_p > 0.0 && self.rng.chance(self.plan.flap_p) {
            self.stats.flaps += 1;
            self.stats.flap_losses += 1;
            self.down_for = self
                .rng
                .range_u64(1, u64::from(self.plan.flap_len_max.max(1)) + 1)
                as u32
                - 1;
            return None;
        }
        if self.plan.drop_p > 0.0 && self.rng.chance(self.plan.drop_p) {
            self.stats.request_drops += 1;
            return None;
        }
        let mut request = payload.to_vec();
        if self.plan.corrupt_p > 0.0 && self.rng.chance(self.plan.corrupt_p) {
            self.stats.corruptions += 1;
            flip_random_bit(&mut self.rng, &mut request);
        }
        let mut response = self.inner.request(&request);
        if self.plan.duplicate_p > 0.0 && self.rng.chance(self.plan.duplicate_p) {
            // The cable replayed the frame: the module sees it twice
            // and the second response is the one that arrives.
            self.stats.duplicates += 1;
            response = self.inner.request(&request);
        }
        let Some(mut response) = response else {
            self.stats.unanswered += 1;
            return None;
        };
        if self.plan.drop_p > 0.0 && self.rng.chance(self.plan.drop_p) {
            self.stats.response_drops += 1;
            return None;
        }
        if self.plan.corrupt_p > 0.0 && self.rng.chance(self.plan.corrupt_p) {
            self.stats.corruptions += 1;
            flip_random_bit(&mut self.rng, &mut response);
        }
        self.stats.delivered += 1;
        Some(response)
    }
}

/// Per-packet accounting for a [`LossyLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkChaosStats {
    /// Packets offered to the span.
    pub offered: u64,
    /// Packets that arrived at the far end (duplicates included).
    pub delivered: u64,
    /// Packets lost in the span.
    pub dropped: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Packets that arrived with a flipped bit.
    pub corrupted: u64,
    /// Total extra delay added by jitter, ns.
    pub jitter_ns_total: u64,
}

impl LinkChaosStats {
    /// Fold another span's accounting into this one.
    pub fn merge(&mut self, other: &LinkChaosStats) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.jitter_ns_total += other.jitter_ns_total;
    }
}

/// A [`FiberLink`] with a [`FaultPlan`] applied to the dataplane path:
/// lossy-mode carriage with per-packet drop/duplicate/corrupt/jitter.
#[derive(Debug)]
pub struct LossyLink {
    link: FiberLink,
    plan: FaultPlan,
    rng: Xoshiro256,
    stats: LinkChaosStats,
}

impl LossyLink {
    /// Impair `link` according to `plan`.
    pub fn new(link: FiberLink, plan: FaultPlan) -> LossyLink {
        LossyLink {
            link,
            plan,
            rng: Xoshiro256::seed_from_u64(plan.seed),
            stats: LinkChaosStats::default(),
        }
    }

    /// The underlying clean span.
    pub fn link(&self) -> FiberLink {
        self.link
    }

    /// Packet accounting so far.
    pub fn stats(&self) -> LinkChaosStats {
        self.stats
    }

    /// Carry one module's optical egress across the impaired span:
    /// the lossy-mode counterpart of [`FiberLink::carry`], in one
    /// `Vec` with one copy of each frame. The clean arrivals, in arrival
    /// order, are impaired front to back; what each delivers is appended
    /// behind them, and the clean prefix is dropped afterwards.
    pub fn carry(&mut self, outputs: &[OutputPacket]) -> Vec<SimPacket> {
        let mut out = Vec::with_capacity(2 * outputs.len());
        self.link.carry_into(outputs.iter().cloned(), &mut out);
        let clean = out.len();
        for i in 0..clean {
            let pkt = SimPacket {
                frame: std::mem::take(&mut out[i].frame),
                ..out[i]
            };
            self.impair(pkt, |pkt| out.push(pkt));
        }
        out.drain(..clean);
        out.sort_by_key(|p| p.arrival_ns);
        out
    }

    /// One frame across the span, `pkt` being its arrival on a clean
    /// fiber: `deliver` gets it (late by the jitter, maybe with a
    /// flipped bit) once, twice when duplicated, never when lost. The
    /// draws keep one order: drop, jitter, corrupt, which bit, duplicate.
    pub(crate) fn impair(&mut self, mut pkt: SimPacket, mut deliver: impl FnMut(SimPacket)) {
        self.stats.offered += 1;
        if self.plan.drop_p > 0.0 && self.rng.chance(self.plan.drop_p) {
            self.stats.dropped += 1;
            return;
        }
        if self.plan.jitter_ns > 0 {
            let extra = self.rng.exp(self.plan.jitter_ns as f64) as u64;
            self.stats.jitter_ns_total += extra;
            pkt.arrival_ns += extra;
        }
        if self.plan.corrupt_p > 0.0 && self.rng.chance(self.plan.corrupt_p) {
            self.stats.corrupted += 1;
            flip_random_bit(&mut self.rng, &mut pkt.frame);
        }
        if self.plan.duplicate_p > 0.0 && self.rng.chance(self.plan.duplicate_p) {
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
            deliver(pkt.clone());
        }
        self.stats.delivered += 1;
        deliver(pkt);
    }
}

impl FiberLink {
    /// Wrap this span in a [`LossyLink`] applying `plan` to every
    /// packet it carries.
    pub fn impaired(self, plan: FaultPlan) -> LossyLink {
        LossyLink::new(self, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgmt::ManagementClient;
    use flexsfp_core::auth::AuthKey;
    use flexsfp_core::module::FlexSfp;
    use flexsfp_ppe::Direction;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    #[test]
    fn ideal_plan_is_transparent() {
        let mut port = ImpairedPort::new(FlexSfp::passthrough(), FaultPlan::ideal(1));
        let c = ManagementClient::new(AuthKey::DEFAULT);
        let info = c.info(&mut port).unwrap();
        assert_eq!(info.app, "passthrough");
        let s = port.stats();
        assert_eq!(s.attempts, s.delivered);
        assert_eq!(
            s.request_drops + s.response_drops + s.corruptions + s.flaps,
            0
        );
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::lossy(42);
        let run = |plan: FaultPlan| {
            let mut port = ImpairedPort::new(FlexSfp::passthrough(), plan);
            let c = ManagementClient::new(AuthKey::DEFAULT);
            let outcomes: Vec<bool> = (0..100).map(|_| c.info(&mut port).is_ok()).collect();
            (outcomes, port.stats())
        };
        let (a, sa) = run(plan);
        let (b, sb) = run(plan);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // And the plan really does hurt.
        assert!(sa.request_drops + sa.response_drops + sa.flap_losses > 0);
    }

    #[test]
    fn corruption_is_rejected_by_auth_not_crashing() {
        // A corrupt-only channel: every exchange flips one bit
        // somewhere. The module's SipHash check must turn every hit
        // into a clean no-response, never a wrong answer.
        let plan = FaultPlan::ideal(9).with_corrupt(1.0);
        let mut port = ImpairedPort::new(FlexSfp::passthrough(), plan);
        let c = ManagementClient::new(AuthKey::DEFAULT);
        for _ in 0..32 {
            // Either the flip hit a raw byte the codec tolerates (rare:
            // e.g. inside a string value) or the call fails cleanly.
            let _ = c.info(&mut port);
        }
        let s = port.stats();
        assert!(s.corruptions >= 32);
        // A corrupted request fails authentication: no response.
        assert!(s.unanswered > 0 && s.conserved(), "{s:?}");
    }

    #[test]
    fn flaps_black_out_bursts() {
        let plan = FaultPlan {
            flap_p: 1.0,
            flap_len_max: 4,
            ..FaultPlan::ideal(3)
        };
        let mut port = ImpairedPort::new(FlexSfp::passthrough(), plan);
        // Every exchange either starts or continues a flap.
        for _ in 0..10 {
            assert!(port.request(b"anything").is_none());
        }
        let s = port.stats();
        assert!(s.flaps >= 1);
        assert_eq!(s.flap_losses, 10);
        assert_eq!(s.delivered, 0);
    }

    fn frame() -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0xc0a80001,
            0x0a000001,
            1,
            2,
            b"x",
        )
    }

    #[test]
    fn lossy_link_accounts_for_every_packet() {
        let mut m = FlexSfp::passthrough();
        let packets: Vec<SimPacket> = (0..200u64)
            .map(|i| SimPacket {
                arrival_ns: i * 1000,
                direction: Direction::EdgeToOptical,
                frame: frame(),
            })
            .collect();
        let report = m.run(packets);
        let plan = FaultPlan::lossy(5).with_drop(0.2).with_duplicate(0.1);
        let mut span = FiberLink::new(100.0).impaired(plan);
        let carried = span.carry(&report.outputs);
        let s = span.stats();
        assert_eq!(s.offered, 200);
        assert_eq!(s.delivered as usize, carried.len());
        assert_eq!(s.offered, s.delivered - s.duplicated + s.dropped);
        assert!(s.dropped > 0 && s.duplicated > 0);
        // Arrival order survives jitter.
        assert!(carried
            .windows(2)
            .all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        // Determinism: a fresh span with the same plan carries the
        // same trace.
        let mut again = FiberLink::new(100.0).impaired(plan);
        let carried2 = again.carry(&report.outputs);
        assert_eq!(carried.len(), carried2.len());
        assert!(carried
            .iter()
            .zip(&carried2)
            .all(|(a, b)| a.arrival_ns == b.arrival_ns && a.frame == b.frame));
        assert_eq!(span.stats(), again.stats());
    }
}
