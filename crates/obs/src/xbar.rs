//! Crossbar-fabric telemetry wire types.
//!
//! A crosspoint-queued crossbar has per-(input, output) buffering, so
//! its interesting counters are a (sparse) matrix, not the per-module
//! scalars [`TelemetrySnapshot`](crate::TelemetrySnapshot) carries.
//! [`XbarTelemetry`] is the switch-level snapshot a host bridge exports
//! alongside its cages' ordinary module snapshots; the fleet collector
//! renders it as the `flexsfp_xbar_*` Prometheus family.
//!
//! Per-crosspoint entries are serialized sparsely — only crosspoints
//! that ever held a frame appear — so a 48×48 ToR with a handful of hot
//! columns stays a handful of samples, not 2 304.

/// Lifetime counters of one crosspoint queue that saw traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrosspointCounters {
    /// Ingress port of the crosspoint.
    pub input: u64,
    /// Egress port of the crosspoint.
    pub output: u64,
    /// Frames accepted into the queue.
    pub enqueued: u64,
    /// Frames granted (popped) by the output's arbiter.
    pub granted: u64,
    /// Frames rejected because the queue was full.
    pub dropped: u64,
    /// Deepest occupancy ever observed.
    pub high_water: u64,
}

crate::impl_json_struct!(CrosspointCounters {
    input,
    output,
    enqueued,
    granted,
    dropped,
    high_water,
});

/// Switch-level crossbar telemetry: matrix geometry, aggregate
/// counters, per-output arbitration grants and the sparse per-crosspoint
/// detail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XbarTelemetry {
    /// Port count (the matrix is square).
    pub ports: u64,
    /// Slots per crosspoint queue.
    pub depth: u64,
    /// Frames accepted into some crosspoint queue.
    pub enqueued: u64,
    /// Frames granted by output arbitration.
    pub granted: u64,
    /// Frames rejected on a full crosspoint.
    pub dropped: u64,
    /// Deepest occupancy any crosspoint ever reached.
    pub high_water: u64,
    /// Grants issued by each output's round-robin arbiter, indexed by
    /// output port.
    pub output_grants: Vec<u64>,
    /// Per-crosspoint counters, sparse: only crosspoints that ever
    /// accepted, dropped or granted a frame appear.
    pub crosspoints: Vec<CrosspointCounters>,
}

crate::impl_json_struct!(XbarTelemetry {
    ports,
    depth,
    enqueued,
    granted,
    dropped,
    high_water,
    output_grants,
    crosspoints,
});

impl XbarTelemetry {
    /// Frames currently sitting in crosspoint queues (accepted but not
    /// yet granted).
    pub fn queued(&self) -> u64 {
        self.enqueued.saturating_sub(self.granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FromJson, ToJson, Value};

    #[test]
    fn xbar_telemetry_round_trips_through_json() {
        let t = XbarTelemetry {
            ports: 48,
            depth: 32,
            enqueued: 1_000,
            granted: 990,
            dropped: 7,
            high_water: 31,
            output_grants: vec![3, 0, 987],
            crosspoints: vec![
                CrosspointCounters {
                    input: 0,
                    output: 47,
                    enqueued: 500,
                    granted: 495,
                    dropped: 5,
                    high_water: 31,
                },
                CrosspointCounters {
                    input: 3,
                    output: 47,
                    enqueued: 500,
                    granted: 495,
                    dropped: 2,
                    high_water: 12,
                },
            ],
        };
        let text = t.to_json().to_string();
        let back = XbarTelemetry::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.queued(), 10);
    }
}
