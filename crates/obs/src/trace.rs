//! Flight recorder: INT-style per-packet postcards.
//!
//! A deterministic 1-in-N sampler (the sampler itself lives in
//! `flexsfp-core`, next to the packet loop) stamps sampled packets with
//! a postcard — per-stage cycle timestamps, queue depth at arrival,
//! flow-cache hit/miss and the final verdict — and accumulates them in
//! a bounded [`FlightRing`] the host drains out-of-band, mirroring
//! in-band network telemetry postcards. [`chrome_trace`] renders a
//! batch of records as chrome://tracing trace-event JSON so a run can
//! be opened directly in Perfetto.

use crate::events::{DropReason, TraceRing};
use crate::json::Value;

/// Cycle-resolution timestamps for one match-action stage of one
/// sampled packet, relative to pipeline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStamp {
    /// Stage index in the pipeline.
    pub stage: u8,
    /// Whether the stage's table lookup hit.
    pub hit: bool,
    /// Cycle (from pipeline entry) the stage began.
    pub start_cycle: u32,
    /// Cycle the stage finished.
    pub end_cycle: u32,
}

/// The pipeline-side half of a postcard: what the packet processor
/// observed while handling the sampled packet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightStamp {
    /// Whether the microflow action cache served this packet.
    pub cache_hit: bool,
    /// Per-stage cycle stamps, in execution order. On a cache hit the
    /// stamps replay the memoized plan, so a packet's postcard is
    /// identical whether or not the cache intercepted it.
    pub stages: Vec<StageStamp>,
}

/// Final disposition of a sampled packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightVerdict {
    /// Forwarded out an egress interface.
    Forwarded {
        /// Simulated departure time, nanoseconds.
        departure_ns: u64,
    },
    /// Dropped for the given reason.
    Dropped {
        /// Why the packet was dropped.
        reason: DropReason,
    },
    /// Diverted to the embedded control plane.
    ToControl,
}

impl FlightVerdict {
    /// Stable lowercase label ("forwarded", "fifo_overflow", …).
    pub fn label(&self) -> &'static str {
        match self {
            FlightVerdict::Forwarded { .. } => "forwarded",
            FlightVerdict::Dropped { reason } => reason.label(),
            FlightVerdict::ToControl => "to_control",
        }
    }
}

crate::impl_json_enum!(FlightVerdict {
    Forwarded { departure_ns },
    Dropped { reason },
    ToControl,
});

/// One sampled packet's complete postcard.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotonic sample sequence number (lifetime, never resets —
    /// gaps across drains reveal ring overwrites).
    pub seq: u64,
    /// Packet arrival time at the module, nanoseconds.
    pub arrival_ns: u64,
    /// Ingress FIFO backlog in bytes when the packet arrived.
    pub queue_bytes: u64,
    /// Packets ahead of this one in the FIFO when it arrived.
    pub queue_pkts: u64,
    /// Whether the microflow action cache served this packet.
    pub cache_hit: bool,
    /// Per-stage cycle stamps (empty for packets that bypassed the
    /// pipeline or were dropped before admission).
    pub stages: Vec<StageStamp>,
    /// Final disposition.
    pub verdict: FlightVerdict,
}

crate::impl_json_struct!(StageStamp {
    stage,
    hit,
    start_cycle,
    end_cycle
});
crate::impl_json_struct!(FlightStamp { cache_hit, stages });
crate::impl_json_struct!(FlightRecord {
    seq,
    arrival_ns,
    queue_bytes,
    queue_pkts,
    cache_hit,
    stages,
    verdict
});

/// The flight-record ring: overwrite-oldest, with the same loss
/// accounting as [`crate::EventRing`].
pub type FlightRing = TraceRing<FlightRecord>;

/// Render flight records as chrome://tracing trace-event JSON
/// (the "JSON Array Format" with a `traceEvents` wrapper), loadable
/// directly in Perfetto or `chrome://tracing`.
///
/// Each sampled packet becomes one track (`tid` = sample sequence) of
/// complete ("X") events: an enclosing packet slice spanning arrival to
/// departure, with one nested slice per pipeline stage. `cycle_ns` is
/// the PPE clock period used to place stage boundaries in wall time.
/// Timestamps are microseconds, per the trace-event format.
pub fn chrome_trace(module_id: &str, records: &[FlightRecord], cycle_ns: f64) -> Value {
    let us = |ns: f64| ns / 1_000.0;
    let mut events = Vec::new();
    events.push(crate::json!({
        "name": "process_name",
        "ph": "M",
        "pid": 1u64,
        "args": {"name": module_id.to_string()}
    }));
    for r in records {
        let span_ns = match r.verdict {
            FlightVerdict::Forwarded { departure_ns } => {
                (departure_ns.saturating_sub(r.arrival_ns)) as f64
            }
            // No departure timestamp: span the stamped pipeline cycles.
            _ => r.stages.last().map_or(0.0, |s| f64::from(s.end_cycle)) * cycle_ns,
        };
        events.push(crate::json!({
            "name": format!("pkt {} [{}]", r.seq, r.verdict.label()),
            "ph": "X",
            "ts": us(r.arrival_ns as f64),
            "dur": us(span_ns),
            "pid": 1u64,
            "tid": r.seq,
            "args": {
                "queue_bytes": r.queue_bytes,
                "queue_pkts": r.queue_pkts,
                "cache_hit": r.cache_hit,
                "verdict": r.verdict.label().to_string()
            }
        }));
        for s in &r.stages {
            events.push(crate::json!({
                "name": format!("stage {}", s.stage),
                "ph": "X",
                "ts": us(r.arrival_ns as f64 + f64::from(s.start_cycle) * cycle_ns),
                "dur": us(f64::from(s.end_cycle - s.start_cycle) * cycle_ns),
                "pid": 1u64,
                "tid": r.seq,
                "args": {"hit": s.hit}
            }));
        }
    }
    crate::json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ns".to_string()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson};

    fn record(seq: u64) -> FlightRecord {
        FlightRecord {
            seq,
            arrival_ns: 1_000 + seq,
            queue_bytes: 128,
            queue_pkts: 2,
            cache_hit: seq.is_multiple_of(2),
            stages: vec![
                StageStamp {
                    stage: 0,
                    hit: true,
                    start_cycle: 4,
                    end_cycle: 7,
                },
                StageStamp {
                    stage: 1,
                    hit: false,
                    start_cycle: 7,
                    end_cycle: 10,
                },
            ],
            verdict: FlightVerdict::Forwarded {
                departure_ns: 2_000 + seq,
            },
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        for verdict in [
            FlightVerdict::Forwarded { departure_ns: 77 },
            FlightVerdict::Dropped {
                reason: DropReason::FifoOverflow,
            },
            FlightVerdict::ToControl,
        ] {
            let mut r = record(3);
            r.verdict = verdict;
            let json = r.to_json().to_string();
            let back = FlightRecord::from_json(&Value::parse(&json).unwrap()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn verdict_labels() {
        assert_eq!(
            FlightVerdict::Forwarded { departure_ns: 1 }.label(),
            "forwarded"
        );
        assert_eq!(
            FlightVerdict::Dropped {
                reason: DropReason::LinkDown
            }
            .label(),
            "link_down"
        );
        assert_eq!(FlightVerdict::ToControl.label(), "to_control");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut ring = FlightRing::new(4);
        for seq in 0..10 {
            ring.push(record(seq));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.overwritten(), 6);
        let out = ring.drain();
        assert_eq!(
            out.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(ring.drained() + ring.overwritten(), 10);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_capacity_clamps_to_one() {
        let mut ring = FlightRing::new(0);
        ring.push(record(0));
        ring.push(record(1));
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn chrome_trace_has_trace_event_shape() {
        let records = vec![record(0), record(1)];
        let trace = chrome_trace("FSFP-0001", &records, 3.2);
        let object = trace.as_object().unwrap();
        let events = object["traceEvents"].as_array().unwrap();
        // Metadata event + (1 packet + 2 stage) slices per record.
        assert_eq!(events.len(), 1 + 2 * 3);
        for ev in events {
            let e = ev.as_object().unwrap();
            assert!(e["name"].as_str().is_some());
            let ph = e["ph"].as_str().unwrap();
            assert!(ph == "X" || ph == "M");
            if ph == "X" {
                assert!(e["ts"].as_f64().is_some());
                assert!(e["dur"].as_f64().is_some());
                assert!(e["pid"].as_u64().is_some());
                assert!(e["tid"].as_u64().is_some());
            }
        }
        // Stage slices nest inside their packet slice.
        let pkt = events[1].as_object().unwrap();
        let stage = events[2].as_object().unwrap();
        assert!(stage["ts"].as_f64().unwrap() >= pkt["ts"].as_f64().unwrap());
        // Round-trips through the parser (valid JSON).
        let text = trace.to_string();
        assert_eq!(Value::parse(&text).unwrap(), trace);
    }
}
