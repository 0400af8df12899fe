//! The flight recorder's module-side half: the deterministic sampler,
//! the bounded postcard ring and the queue observation a sampled
//! packet carries from admission to dispatch.

use flexsfp_obs::{FlightRecord, FlightRing, FlightStamp, FlightVerdict};
use flexsfp_traffic::rng::Xoshiro256;

/// Armed flight-recorder state: a deterministic 1-in-N Bernoulli
/// sampler, the bounded postcard ring and the monotone record sequence
/// number. The sampler takes one PRNG draw per dataplane packet, so the
/// decision for the k-th packet depends only on `(seed, k)` and two
/// runs over the same trace produce byte-identical record sets.
#[derive(Debug)]
pub(super) struct FlightState {
    rng: Xoshiro256,
    /// Sample when the draw is `<=` this threshold (`u64::MAX / every`,
    /// so `every = 1` samples everything).
    threshold: u64,
    ring: FlightRing,
    seq: u64,
}

/// Queue observation taken at admit time for a sampled packet. The
/// bypass path has no PPE queue: its postcards carry the all-zero
/// default.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct FlightCapture {
    pub(super) queue_bytes: u64,
    pub(super) queue_pkts: u64,
}

impl FlightState {
    pub(super) fn new(every: u64, seed: u64, capacity: usize) -> FlightState {
        FlightState {
            rng: Xoshiro256::seed_from_u64(seed),
            threshold: u64::MAX / every.max(1),
            ring: FlightRing::new(capacity),
            seq: 0,
        }
    }

    /// The sampling decision for the next dataplane packet.
    pub(super) fn sample(&mut self) -> bool {
        self.rng.next_u64() <= self.threshold
    }

    /// Stamp and ring-buffer one sampled packet's postcard.
    pub(super) fn push(
        &mut self,
        arrival_ns: u64,
        cap: FlightCapture,
        stamp: FlightStamp,
        verdict: FlightVerdict,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.ring.push(FlightRecord {
            seq,
            arrival_ns,
            queue_bytes: cap.queue_bytes,
            queue_pkts: cap.queue_pkts,
            cache_hit: stamp.cache_hit,
            stages: stamp.stages,
            verdict,
        });
    }

    /// The recorded postcards, oldest first.
    pub(super) fn drain(&mut self) -> Vec<FlightRecord> {
        self.ring.drain()
    }

    /// Postcards lost to ring overwrite.
    pub(super) fn overwritten(&self) -> u64 {
        self.ring.overwritten()
    }
}

#[cfg(test)]
mod tests {
    use crate::auth::AuthKey;
    use crate::control::{ControlPlane, ControlRequest, ControlResponse};
    use crate::module::testutil::{data_frame, line_rate_trace};
    use crate::module::{FlexSfp, ModuleConfig, SimPacket};
    use crate::ShellKind;
    use flexsfp_fabric::clock::ClockDomain;
    use flexsfp_obs::{DropReason, FlightVerdict};
    use flexsfp_ppe::engine::PassThrough;
    use flexsfp_ppe::Direction;

    #[test]
    fn flight_recorder_samples_deterministically() {
        use flexsfp_obs::ToJson;
        // Two modules, same seed, same trace: the drained record sets
        // must be byte-identical through the JSON wire format.
        let run = || {
            let mut m = FlexSfp::passthrough();
            m.enable_flight_recorder(64, 0xf00d, 4096);
            m.run_stream(line_rate_trace(Direction::EdgeToOptical, 10_000, 64));
            m.drain_flight_records()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "1-in-64 over 10k packets must sample");
        // ~156 expected; the Bernoulli draw has some variance.
        assert!(a.len() > 50 && a.len() < 400, "sampled {}", a.len());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        // Sequence numbers are monotone and arrival times sorted.
        for w in a.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].arrival_ns <= w[1].arrival_ns);
        }
        // Every postcard carries a concrete departure (passthrough
        // forwards everything).
        for r in &a {
            match r.verdict {
                FlightVerdict::Forwarded { departure_ns } => {
                    assert!(departure_ns >= r.arrival_ns)
                }
                ref other => panic!("unexpected verdict {other:?}"),
            }
        }
    }

    #[test]
    fn flight_records_drain_via_oob() {
        let mut m = FlexSfp::passthrough();
        // Sample everything so the count is exact.
        m.enable_flight_recorder(1, 7, 512);
        m.run_stream(line_rate_trace(Direction::EdgeToOptical, 100, 64));
        let payload =
            ControlPlane::encode_request(&AuthKey::DEFAULT, &ControlRequest::ReadFlightRecords);
        let resp_payload = m.handle_oob(&payload).expect("response due");
        let resp = ControlPlane::decode_response(&AuthKey::DEFAULT, &resp_payload).unwrap();
        let ControlResponse::FlightRecords(records) = resp else {
            panic!("unexpected response {resp:?}");
        };
        assert_eq!(records.len(), 100);
        // Drained means drained: a second read returns nothing.
        let again = m.handle_oob(&payload).unwrap();
        match ControlPlane::decode_response(&AuthKey::DEFAULT, &again).unwrap() {
            ControlResponse::FlightRecords(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // Disarmed modules answer with an empty drain, not an error.
        m.disable_flight_recorder();
        let disarmed = m.handle_oob(&payload).unwrap();
        match ControlPlane::decode_response(&AuthKey::DEFAULT, &disarmed).unwrap() {
            ControlResponse::FlightRecords(r) => assert!(r.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sampled_overflow_records_queue_depth() {
        // The overloaded 1× Two-Way-Core: sampled postcards must show
        // both growing queues and FIFO-overflow verdicts.
        let mut trace = Vec::new();
        let gap_ns = ((64 + 20) as f64 * 0.8).ceil() as u64;
        for i in 0..5_000u64 {
            let t = i * gap_ns;
            for direction in [Direction::EdgeToOptical, Direction::OpticalToEdge] {
                trace.push(SimPacket {
                    arrival_ns: t,
                    direction,
                    frame: data_frame(64),
                });
            }
        }
        let mut m = FlexSfp::new(
            ModuleConfig {
                shell: ShellKind::TwoWayCore,
                ppe_clock: ClockDomain::XGMII_10G,
                ..Default::default()
            },
            Box::new(PassThrough),
        );
        m.enable_flight_recorder(1, 1, 16_384);
        let report = m.run_stream(trace);
        assert!(report.drops.fifo_overflow > 0);
        let records = m.drain_flight_records();
        assert_eq!(records.len() as u64 + m.flight_overwritten(), 10_000);
        assert!(records.iter().any(|r| r.queue_pkts > 0));
        let overflows = records
            .iter()
            .filter(|r| {
                matches!(
                    r.verdict,
                    FlightVerdict::Dropped {
                        reason: DropReason::FifoOverflow
                    }
                )
            })
            .count();
        assert!(overflows > 0, "overflow drops must be sampled too");
        // An overflowed packet saw a full FIFO.
        let full = records
            .iter()
            .find(|r| {
                matches!(
                    r.verdict,
                    FlightVerdict::Dropped {
                        reason: DropReason::FifoOverflow
                    }
                )
            })
            .unwrap();
        assert!(full.queue_bytes > 0);
    }
}
