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
} if XbarTelemetry::coherent);

impl XbarTelemetry {
    /// Frames currently sitting in crosspoint queues (accepted but not
    /// yet granted).
    pub fn queued(&self) -> u64 {
        self.enqueued.saturating_sub(self.granted)
    }

    /// What a switch's own export guarantees, asked of a decoded one:
    /// one grant counter per port, crosspoints inside the matrix and
    /// listed once each in (input, output) order, none granting more
    /// than it accepted or deeper than its queue, and the aggregates
    /// equal to what the detail adds up to.
    fn coherent(&self) -> bool {
        fn sum(mut values: impl Iterator<Item = u64>) -> Option<u64> {
            values.try_fold(0u64, u64::checked_add)
        }
        let cells = &self.crosspoints;
        self.output_grants.len() as u64 == self.ports
            && cells.iter().all(|c| {
                c.input < self.ports
                    && c.output < self.ports
                    && c.granted <= c.enqueued
                    && c.high_water <= self.depth
            })
            && cells
                .windows(2)
                .all(|c| (c[0].input, c[0].output) < (c[1].input, c[1].output))
            && sum(self.output_grants.iter().copied()) == Some(self.granted)
            && sum(cells.iter().map(|c| c.enqueued)) == Some(self.enqueued)
            && sum(cells.iter().map(|c| c.granted)) == Some(self.granted)
            && sum(cells.iter().map(|c| c.dropped)) == Some(self.dropped)
            && cells.iter().map(|c| c.high_water).max().unwrap_or(0) == self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FromJson, ToJson, Value};

    fn sample() -> XbarTelemetry {
        XbarTelemetry {
            ports: 48,
            depth: 32,
            enqueued: 1_000,
            granted: 990,
            dropped: 7,
            high_water: 31,
            output_grants: (0..48).map(|p| if p == 47 { 990 } else { 0 }).collect(),
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
        }
    }

    #[test]
    fn xbar_telemetry_round_trips_through_json() {
        let t = sample();
        let text = t.to_json().to_string();
        let back = XbarTelemetry::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.queued(), 10);
        assert_eq!(
            XbarTelemetry::from_json(&XbarTelemetry::default().to_json()),
            Some(XbarTelemetry::default())
        );
    }

    #[test]
    fn fields_that_disagree_do_not_decode() {
        let good = sample();
        type Craft = fn(&mut XbarTelemetry);
        let crafted: [(&str, Craft); 10] = [
            ("fewer grant counters than ports", |t| t.ports = 49),
            ("a crosspoint outside the matrix", |t| {
                t.crosspoints[1].input = 48
            }),
            ("crosspoints out of order", |t| t.crosspoints.swap(0, 1)),
            ("a crosspoint twice", |t| t.crosspoints[1].input = 0),
            ("more granted than accepted", |t| {
                t.crosspoints[0].granted = 501;
                t.crosspoints[1].granted = 489;
            }),
            ("deeper than the queue", |t| t.depth = 30),
            ("grants that do not add up", |t| t.output_grants[0] = 1),
            ("accepted that does not add up", |t| t.enqueued = 1_001),
            ("drops that wrap", |t| t.crosspoints[0].dropped = u64::MAX),
            ("a high water no crosspoint reached", |t| t.high_water = 32),
        ];
        for (what, craft) in crafted {
            let mut t = good.clone();
            craft(&mut t);
            assert_eq!(XbarTelemetry::from_json(&t.to_json()), None, "{what}");
        }
    }
}
