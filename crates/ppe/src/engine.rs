//! The packet-processor contract between applications and the module.
//!
//! An application embedded in the PPE sees packets one at a time, in
//! arrival order, with a context naming the direction of travel and the
//! hardware timestamp. It may modify the packet in place (including
//! growing/shrinking it, as encap/decap does) and must return a
//! [`Verdict`]. The architecture shell in `flexsfp-core` decides what each
//! verdict means physically (which egress interface, the control-plane
//! FIFO, or the bit bucket).

/// Direction a packet travels through the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the host edge connector toward the optical link (egress).
    EdgeToOptical,
    /// From the optical link toward the host edge connector (ingress).
    OpticalToEdge,
}

/// Per-packet processing context supplied by the shell.
#[derive(Debug, Clone, Copy)]
pub struct ProcessContext {
    /// Hardware timestamp in nanoseconds since module boot.
    pub timestamp_ns: u64,
    /// Direction of travel.
    pub direction: Direction,
}

impl ProcessContext {
    /// A context at time zero in the edge→optical direction (tests).
    pub fn egress() -> ProcessContext {
        ProcessContext {
            timestamp_ns: 0,
            direction: Direction::EdgeToOptical,
        }
    }

    /// A context at time zero in the optical→edge direction. Test-only:
    /// `crates/apps/src/nat.rs`: a frame from the fibre in an app's tests.
    pub fn ingress() -> ProcessContext {
        ProcessContext {
            timestamp_ns: 0,
            direction: Direction::OpticalToEdge,
        }
    }

    /// The same context at a different timestamp.
    pub fn at(self, timestamp_ns: u64) -> ProcessContext {
        ProcessContext {
            timestamp_ns,
            ..self
        }
    }
}

/// What the PPE should do with a processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward (possibly modified) to the natural egress for its
    /// direction.
    Forward,
    /// Silently discard.
    Drop,
    /// Divert to the embedded control plane (management core).
    ToControlPlane,
    /// Forward, but flip to the opposite interface (hairpin) — used by
    /// reflector-style applications in the Two-Way-Core shell.
    Reflect,
}

/// A control-plane operation against an application's tables/counters —
/// what the paper's "APIs to read/write tables and counters with atomic,
/// runtime updates at line rate" (§4.2) carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOp {
    /// Insert or update an entry.
    Insert {
        /// Application-defined table id.
        table: u8,
        /// Serialized key.
        key: Vec<u8>,
        /// Serialized value.
        value: Vec<u8>,
    },
    /// Delete an entry.
    Delete {
        /// Application-defined table id.
        table: u8,
        /// Serialized key.
        key: Vec<u8>,
    },
    /// Read one entry.
    Read {
        /// Application-defined table id.
        table: u8,
        /// Serialized key.
        key: Vec<u8>,
    },
    /// Read a counter by index.
    ReadCounter {
        /// Counter index.
        index: u32,
    },
    /// Clear all state in a table.
    Clear {
        /// Application-defined table id.
        table: u8,
    },
}

/// Result of a [`TableOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOpResult {
    /// Operation applied.
    Ok,
    /// Read result.
    Value(Vec<u8>),
    /// Counter read result.
    Counter {
        /// Packets counted.
        packets: u64,
        /// Bytes counted.
        bytes: u64,
    },
    /// Key not present.
    NotFound,
    /// Hash bucket / table capacity exhausted.
    TableFull,
    /// Malformed key/value encoding for this table.
    BadEncoding,
    /// The application does not expose this table.
    Unsupported,
}

/// What [`TableOp::ReadCounter`] answers with.
impl From<crate::counters::Counter> for TableOpResult {
    fn from(c: crate::counters::Counter) -> TableOpResult {
        TableOpResult::Counter {
            packets: c.packets,
            bytes: c.bytes,
        }
    }
}

// The control protocol carries both enums as they are declared here.
flexsfp_obs::impl_json_enum!(TableOp {
    Insert { table, key, value },
    Delete { table, key },
    Read { table, key },
    ReadCounter { index },
    Clear { table },
});
flexsfp_obs::impl_json_enum!(TableOpResult {
    Ok,
    Value(value),
    Counter { packets, bytes },
    NotFound,
    TableFull,
    BadEncoding,
    Unsupported,
});

/// One slot of a processing batch: the packet, its per-packet context,
/// and the verdict the processor writes back.
#[derive(Debug)]
pub struct BatchPacket {
    /// Processing context for this packet.
    pub ctx: ProcessContext,
    /// The frame, edited in place.
    pub frame: Vec<u8>,
    /// The processor's verdict (written by `process_batch`).
    pub verdict: Verdict,
    /// Pre-parsed microflow key, if the caller already extracted one
    /// (the dispatcher parses each frame exactly once and carries the
    /// result here so cache-enabled processors skip re-extraction).
    /// Only valid for the frame bytes as enqueued; a processor that
    /// edits the frame must not re-derive key state from the hint
    /// afterwards.
    pub key: crate::cache::KeyHint,
}

impl BatchPacket {
    /// A batch slot awaiting processing (verdict defaults to Forward,
    /// key to [`KeyHint::Unknown`](crate::cache::KeyHint::Unknown)).
    pub fn new(ctx: ProcessContext, frame: Vec<u8>) -> BatchPacket {
        BatchPacket {
            ctx,
            frame,
            verdict: Verdict::Forward,
            key: crate::cache::KeyHint::Unknown,
        }
    }

    /// A batch slot carrying a pre-parsed key hint.
    pub fn with_key(
        ctx: ProcessContext,
        frame: Vec<u8>,
        key: crate::cache::KeyHint,
    ) -> BatchPacket {
        BatchPacket {
            key,
            ..BatchPacket::new(ctx, frame)
        }
    }
}

/// A packet-processing application embeddable in the PPE.
///
/// Implementations must be deterministic: hardware pipelines have no
/// hidden nondeterminism, and the experiment harness relies on exact
/// reproducibility.
pub trait PacketProcessor: Send {
    /// Short application name for reports and fit tables.
    fn name(&self) -> &str;

    /// Process one packet. `packet` contains a complete Ethernet frame
    /// (without FCS); in-place edits, growth and shrinkage are allowed.
    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict;

    /// Process a batch of packets in arrival order, writing each slot's
    /// verdict back. Semantically identical to calling [`process`]
    /// per packet (the default does exactly that); batching exists so
    /// the simulation loop can amortize per-packet dispatch and
    /// bookkeeping, VPP-style.
    ///
    /// [`process`]: PacketProcessor::process
    fn process_batch(&mut self, batch: &mut [BatchPacket]) {
        for slot in batch {
            slot.verdict = self.process(&slot.ctx, &mut slot.frame);
        }
    }

    /// Enable or disable the processor's microflow action cache.
    /// Returns `true` if the processor supports plan caching (the
    /// default has none and returns `false`).
    fn set_flow_cache(&mut self, _enabled: bool) -> bool {
        false
    }

    /// Lifetime microflow-cache counters, `None` for processors without
    /// a cache.
    fn cache_stats(&self) -> Option<flexsfp_obs::CacheStats> {
        None
    }

    /// Current resident-entry count of the microflow cache (an O(1)
    /// gauge for per-window occupancy telemetry), `None` for processors
    /// without a cache.
    fn cache_occupancy(&self) -> Option<u64> {
        None
    }

    /// Geometry and lifetime counters of the processor's primary
    /// exact-match table (the NAT's source-IP table), `None` for
    /// processors without one. Exposed through `TelemetrySnapshot` as
    /// the `flexsfp_table_*` Prometheus family.
    fn table_stats(&self) -> Option<flexsfp_obs::TableTelemetry> {
        None
    }

    /// Fabric resources this application's synthesized core occupies
    /// (the "NAT app" row of Table 1 for the NAT). Defaults to zero for
    /// pure-software test doubles.
    fn resource_manifest(&self) -> flexsfp_fabric::ResourceManifest {
        flexsfp_fabric::ResourceManifest::ZERO
    }

    /// Pipeline depth in match-action stages, used by the latency model.
    /// The paper's §5.3 notes compact chains run "about 3–4 stages".
    fn pipeline_depth(&self) -> u32 {
        1
    }

    /// Handle a control-plane table/counter operation. Applications with
    /// runtime-updatable state override this; the default rejects
    /// everything (a fixed-function bitstream).
    fn control_op(&mut self, _op: &TableOp) -> TableOpResult {
        TableOpResult::Unsupported
    }

    /// Enable or disable flight-recorder stage stamping. While enabled
    /// the processor keeps a [`flexsfp_obs::FlightStamp`] for the most
    /// recently processed packet, retrievable via
    /// [`flight_stamp`](PacketProcessor::flight_stamp). Returns `true`
    /// if the processor can stamp (the default cannot and returns
    /// `false` — the shell then records postcards with empty stage
    /// lists, which is honest for a stage-less program).
    fn set_flight_recording(&mut self, _enabled: bool) -> bool {
        false
    }

    /// The stamp of the most recently processed packet, `None` when
    /// stamping is off or unsupported. The shell's sampler calls this
    /// immediately after processing a sampled packet.
    fn flight_stamp(&self) -> Option<flexsfp_obs::FlightStamp> {
        None
    }

    /// Drain buffered dataplane trace events (parse errors, table
    /// misses, app-level drops). Applications with an internal trace
    /// ring override this; the default traces nothing.
    fn drain_events(&mut self) -> Vec<flexsfp_obs::DataplaneEvent> {
        Vec::new()
    }

    /// Lifetime count of trace events the application lost to ring
    /// overwrite — exported with telemetry so loss is never silent.
    fn events_lost(&self) -> u64 {
        0
    }
}

/// A pass-through processor (the "empty bitstream" baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassThrough;

impl PacketProcessor for PassThrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn process(&mut self, _ctx: &ProcessContext, _packet: &mut Vec<u8>) -> Verdict {
        Verdict::Forward
    }

    fn pipeline_depth(&self) -> u32 {
        0
    }
}

/// A processor that drops everything (used for fail-closed tests).
///
/// Test-only: `crates/core/src/module/session.rs`,
/// `crates/core/src/module/sfp.rs` and `crates/host/src/collector.rs`: an
/// app that drops every packet, which no shipped app does.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropAll;

impl PacketProcessor for DropAll {
    fn name(&self) -> &str {
        "drop-all"
    }

    fn process(&mut self, _ctx: &ProcessContext, _packet: &mut Vec<u8>) -> Verdict {
        Verdict::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builders() {
        let c = ProcessContext::egress().at(1234);
        assert_eq!(c.timestamp_ns, 1234);
        assert_eq!(c.direction, Direction::EdgeToOptical);
        assert_eq!(
            ProcessContext::ingress().direction,
            Direction::OpticalToEdge
        );
    }

    #[test]
    fn passthrough_forwards_unchanged() {
        let mut p = PassThrough;
        let mut pkt = vec![1, 2, 3];
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, vec![1, 2, 3]);
        assert_eq!(p.pipeline_depth(), 0);
        assert_eq!(
            p.resource_manifest(),
            flexsfp_fabric::ResourceManifest::ZERO
        );
    }

    #[test]
    fn default_batch_falls_back_to_per_packet() {
        let mut p = DropAll;
        let mut batch = vec![
            BatchPacket::new(ProcessContext::egress(), vec![0; 64]),
            BatchPacket::new(ProcessContext::ingress().at(5), vec![0; 64]),
        ];
        assert_eq!(batch[0].verdict, Verdict::Forward);
        p.process_batch(&mut batch);
        assert!(batch.iter().all(|s| s.verdict == Verdict::Drop));
        // Processors without a cache report so.
        assert!(!p.set_flow_cache(true));
        assert!(p.cache_stats().is_none());
    }

    #[test]
    fn drop_all_drops() {
        let mut p = DropAll;
        let mut pkt = vec![0; 64];
        assert_eq!(
            p.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Drop
        );
    }
}
