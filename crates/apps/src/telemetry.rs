//! Monitoring & observability at the wire (§3).
//!
//! Three of the paper's telemetry primitives in one application:
//!
//! 1. **NetFlow-like flow accounting** — per-flow packet/byte/timestamps
//!    in a hardware hash table, exported through the control plane with
//!    read-and-reset semantics;
//! 2. **In-band timestamp tagging** — the IPv4 Identification field is
//!    rewritten with a truncated hardware timestamp (a PINT-style
//!    lightweight in-band signal that survives legacy switches);
//! 3. **Microburst detection** — a windowed byte counter flags windows
//!    whose instantaneous rate exceeds a threshold, catching events that
//!    coarse SNMP polling can never see ("wire-level capillarity").

use flexsfp_fabric::resources::ResourceManifest;
use flexsfp_fabric::sram::{MemoryPlanner, TableShape};
use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::tables::{slots_for, FiveTuple, HashTable};
use flexsfp_ppe::{PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};
use flexsfp_wire::checksum;
use flexsfp_wire::ipv4::Ipv4Packet;

/// One flow record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct FlowRecord {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen.
    pub bytes: u64,
    /// First-seen timestamp, ns.
    pub first_ns: u64,
    /// Last-seen timestamp, ns.
    pub last_ns: u64,
}

/// Microburst detector state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroburstDetector {
    /// Window length, ns.
    pub window_ns: u64,
    /// Bytes within a window that constitute a burst.
    pub threshold_bytes: u64,
    window_start_ns: u64,
    window_bytes: u64,
    /// Peak single-window byte count.
    pub peak_bytes: u64,
}

impl MicroburstDetector {
    /// A detector with `window_ns` windows flagged above
    /// `threshold_bytes`.
    fn new(window_ns: u64, threshold_bytes: u64) -> MicroburstDetector {
        MicroburstDetector {
            window_ns,
            threshold_bytes,
            window_start_ns: 0,
            window_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Account a packet; returns `true` if this packet tipped the
    /// current window over the threshold.
    fn record(&mut self, now_ns: u64, len: usize) -> bool {
        if now_ns.saturating_sub(self.window_start_ns) >= self.window_ns {
            self.window_start_ns = now_ns - (now_ns % self.window_ns);
            self.window_bytes = 0;
        }
        let before = self.window_bytes;
        self.window_bytes += len as u64;
        self.peak_bytes = self.peak_bytes.max(self.window_bytes);
        before < self.threshold_bytes && self.window_bytes >= self.threshold_bytes
    }
}

/// One exported flow record in a compact NetFlow-v5-like wire layout
/// (40 bytes): src(4) dst(4) sport(2) dport(2) proto(1) pad(3)
/// packets(8) bytes(8) first_us(4) last_us(4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExportRecord {
    /// Flow key.
    key: FiveTuple,
    /// The accounted record.
    record: FlowRecord,
}

/// Serialized size of one [`ExportRecord`].
pub(crate) const EXPORT_RECORD_BYTES: usize = 40;

impl ExportRecord {
    /// Serialize to the 40-byte wire layout.
    fn to_bytes(self) -> [u8; EXPORT_RECORD_BYTES] {
        let (src, dst, proto, sport, dport) = self.key;
        let mut b = [0u8; EXPORT_RECORD_BYTES];
        b[0..4].copy_from_slice(&src.to_be_bytes());
        b[4..8].copy_from_slice(&dst.to_be_bytes());
        b[8..10].copy_from_slice(&sport.to_be_bytes());
        b[10..12].copy_from_slice(&dport.to_be_bytes());
        b[12] = proto;
        b[16..24].copy_from_slice(&self.record.packets.to_be_bytes());
        b[24..32].copy_from_slice(&self.record.bytes.to_be_bytes());
        b[32..36].copy_from_slice(&((self.record.first_ns / 1_000) as u32).to_be_bytes());
        b[36..40].copy_from_slice(&((self.record.last_ns / 1_000) as u32).to_be_bytes());
        b
    }
}

/// Counter indices.
pub mod counters {
    /// Packets observed (every frame that parses).
    pub(crate) const OBSERVED: usize = 0;
    /// Packets whose flow could not be tracked (hash bucket full).
    pub(crate) const UNTRACKED: usize = 1;
    /// Packets that tipped a window over the burst threshold: one per
    /// bursty window.
    pub(crate) const BURSTS: usize = 2;
    /// Frames the parser refused (forwarded untouched).
    pub(crate) const UNPARSED: usize = 3;
    /// Counters in the bank.
    pub(crate) const LEN: usize = 4;
}

/// The telemetry probe application.
pub struct TelemetryProbe {
    flows: HashTable<FiveTuple, FlowRecord>,
    /// Microburst detector over all traffic.
    microburst: MicroburstDetector,
    /// Enable in-band timestamp tagging (IPv4 ID rewrite).
    pub tag_timestamps: bool,
    parser: Parser,
    counters: CounterBank,
}

impl TelemetryProbe {
    /// A probe tracking up to `flow_capacity` flows, flagging windows of
    /// `window_ns` above `burst_threshold_bytes`.
    pub fn new(flow_capacity: usize, window_ns: u64, burst_threshold_bytes: u64) -> TelemetryProbe {
        TelemetryProbe {
            flows: HashTable::with_capacity(flow_capacity),
            microburst: MicroburstDetector::new(window_ns, burst_threshold_bytes),
            tag_timestamps: false,
            parser: Parser,
            counters: CounterBank::new(counters::LEN),
        }
    }

    /// What [`new`](Self::new)`(flow_capacity, ..)` occupies. The flow
    /// cache dominates: its slots × (104 b key + 192 b record).
    pub fn manifest(flow_capacity: usize) -> ResourceManifest {
        let cache = TableShape::new(slots_for(flow_capacity) as u64, 104 + 192);
        ResourceManifest::new(5_400, 6_800, 28, 0) + MemoryPlanner::plan(&[cache])
    }

    /// Serialize up to `max` flow records in the NetFlow-like wire
    /// format and evict them from the cache — the control plane reads
    /// this in slices so one export never exceeds a control frame.
    pub(crate) fn export_wire(&mut self, max: usize) -> Vec<u8> {
        let batch: Vec<(FiveTuple, FlowRecord)> = self.flows.iter().take(max).collect();
        let mut out = Vec::with_capacity(4 + batch.len() * EXPORT_RECORD_BYTES);
        out.extend_from_slice(&(batch.len() as u32).to_be_bytes());
        for (key, record) in batch {
            out.extend_from_slice(&ExportRecord { key, record }.to_bytes());
            self.flows.remove(&key);
        }
        out
    }

    /// Bursty windows observed.
    fn bursts(&self) -> u64 {
        self.counters.get(counters::BURSTS).map_or(0, |c| c.packets)
    }
}

impl PacketProcessor for TelemetryProbe {
    fn name(&self) -> &str {
        "telemetry"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(parsed) = self.parser.parse(packet) else {
            self.counters.count(counters::UNPARSED, packet.len());
            return Verdict::Forward; // observe, never interfere
        };
        self.counters.count(counters::OBSERVED, packet.len());
        if self.microburst.record(ctx.timestamp_ns, packet.len()) {
            self.counters.count(counters::BURSTS, packet.len());
        }
        if let Some(key) = parsed.five_tuple() {
            let mut rec = self.flows.lookup(&key).unwrap_or(FlowRecord {
                first_ns: ctx.timestamp_ns,
                ..Default::default()
            });
            rec.packets += 1;
            rec.bytes += packet.len() as u64;
            rec.last_ns = ctx.timestamp_ns;
            if self.flows.insert(key, rec).is_err() {
                self.counters.count(counters::UNTRACKED, packet.len());
            }
        }
        if self.tag_timestamps {
            if let Some(ip) = parsed.ipv4 {
                // Truncated microsecond timestamp into the ID field,
                // checksum patched incrementally.
                let stamp = ((ctx.timestamp_ns / 1_000) & 0xffff) as u16;
                let off = ip.offset;
                let old_id = u16::from_be_bytes([packet[off + 4], packet[off + 5]]);
                if old_id != stamp {
                    let mut view = Ipv4Packet::new_unchecked(&mut packet[off..]);
                    view.set_ident(stamp);
                    let oldc = view.header_checksum();
                    let newc = checksum::update16(oldc, old_id, stamp);
                    view.set_header_checksum(newc);
                }
            }
        }
        Verdict::Forward
    }

    fn resource_manifest(&self) -> ResourceManifest {
        TelemetryProbe::manifest(self.flows.capacity())
    }

    fn pipeline_depth(&self) -> u32 {
        2
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        match op {
            // Reading "table 1" with an empty key exports a compact
            // summary: number of flows, bursts, peak window bytes.
            TableOp::Read { table: 1, .. } => {
                let mut out = Vec::with_capacity(24);
                out.extend_from_slice(&(self.flows.len() as u64).to_be_bytes());
                out.extend_from_slice(&self.bursts().to_be_bytes());
                out.extend_from_slice(&self.microburst.peak_bytes.to_be_bytes());
                TableOpResult::Value(out)
            }
            // Table 2: NetFlow-like export — read-and-evict up to 32
            // records per request.
            TableOp::Read { table: 2, .. } => TableOpResult::Value(self.export_wire(32)),
            TableOp::Clear { table: 0 } => {
                self.flows.clear();
                TableOpResult::Ok
            }
            TableOp::ReadCounter { index } => self.counters.get(*index as usize).into(),
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::MacAddr;

    impl ExportRecord {
        /// Parse a 40-byte wire record.
        fn from_bytes(b: &[u8]) -> Option<ExportRecord> {
            if b.len() < EXPORT_RECORD_BYTES {
                return None;
            }
            let u32be = |off: usize| u32::from_be_bytes(b[off..off + 4].try_into().unwrap());
            let u64be = |off: usize| u64::from_be_bytes(b[off..off + 8].try_into().unwrap());
            Some(ExportRecord {
                key: (
                    u32be(0),
                    u32be(4),
                    b[12],
                    u16::from_be_bytes([b[8], b[9]]),
                    u16::from_be_bytes([b[10], b[11]]),
                ),
                record: FlowRecord {
                    packets: u64be(16),
                    bytes: u64be(24),
                    first_ns: u64::from(u32be(32)) * 1_000,
                    last_ns: u64::from(u32be(36)) * 1_000,
                },
            })
        }
    }

    /// Parse a `TelemetryProbe::export_wire` payload back into records.
    fn parse_export(payload: &[u8]) -> Option<Vec<ExportRecord>> {
        if payload.len() < 4 {
            return None;
        }
        let count = u32::from_be_bytes(payload[..4].try_into().unwrap()) as usize;
        if payload.len() < 4 + count * EXPORT_RECORD_BYTES {
            return None;
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let off = 4 + i * EXPORT_RECORD_BYTES;
            out.push(ExportRecord::from_bytes(
                &payload[off..off + EXPORT_RECORD_BYTES],
            )?);
        }
        Some(out)
    }

    const SRC: u32 = 0xc0a80001;
    const DST: u32 = 0x08080808;

    fn frame(sport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(MacAddr([1; 6]), MacAddr([2; 6]), SRC, DST, sport, 80, b"pp")
    }

    fn probe() -> TelemetryProbe {
        TelemetryProbe::new(1024, 100_000, 10_000)
    }

    #[test]
    fn flow_accounting() {
        let mut p = probe();
        for i in 0..5u64 {
            let mut pkt = frame(5000);
            p.process(&ProcessContext::egress().at(i * 1000), &mut pkt);
        }
        let mut other = frame(6000);
        p.process(&ProcessContext::egress().at(9_999), &mut other);
        assert_eq!(p.flows.len(), 2);
        let rec = p.flows.peek(&(SRC, DST, 17, 5000, 80)).unwrap();
        assert_eq!(rec.packets, 5);
        assert_eq!(rec.first_ns, 0);
        assert_eq!(rec.last_ns, 4000);
        assert!(rec.bytes > 0);
    }

    #[test]
    fn microburst_detection() {
        let mut p = probe(); // 100 µs windows, 10 kB threshold
                             // A burst: 20 × 1000 B within one window.
        let mut burst_flagged = false;
        for i in 0..20u64 {
            let mut pkt = frame(5000);
            pkt.resize(1000, 0);
            let before = p.bursts();
            p.process(&ProcessContext::egress().at(i * 1_000), &mut pkt);
            if p.bursts() > before {
                burst_flagged = true;
            }
        }
        assert!(burst_flagged);
        assert_eq!(p.bursts(), 1);
        assert!(p.microburst.peak_bytes >= 10_000);
        // Spread the same bytes over many windows: no new burst.
        for i in 0..20u64 {
            let mut pkt = frame(5001);
            pkt.resize(1000, 0);
            p.process(
                &ProcessContext::egress().at(10_000_000 + i * 200_000),
                &mut pkt,
            );
        }
        assert_eq!(p.bursts(), 1);
    }

    #[test]
    fn timestamp_tagging_keeps_checksum_valid() {
        let mut p = probe();
        p.tag_timestamps = true;
        let mut pkt = frame(5000);
        p.process(&ProcessContext::egress().at(123_456_789), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert!(ip.verify_checksum());
        // 123 456 789 ns = 123 456 µs -> truncated to 16 bits.
        assert_eq!(pkt[18..20], ((123_456 & 0xffff) as u16).to_be_bytes());
    }

    #[test]
    fn observation_never_drops() {
        let mut p = probe();
        let mut junk = vec![0u8; 60];
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut junk),
            Verdict::Forward
        );
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut arp),
            Verdict::Forward
        );
    }

    #[test]
    fn summary_via_control_plane() {
        let mut p = probe();
        let mut pkt = frame(5000);
        p.process(&ProcessContext::egress(), &mut pkt);
        match p.control_op(&TableOp::Read {
            table: 1,
            key: vec![],
        }) {
            TableOpResult::Value(v) => {
                let flows = u64::from_be_bytes(v[0..8].try_into().unwrap());
                assert_eq!(flows, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn export_record_wire_round_trip() {
        let rec = ExportRecord {
            key: (0xc0a80001, 0x08080808, 17, 5000, 53),
            record: FlowRecord {
                packets: 123,
                bytes: 45_678,
                first_ns: 1_000_000,
                last_ns: 9_000_000,
            },
        };
        let parsed = ExportRecord::from_bytes(&rec.to_bytes()).unwrap();
        assert_eq!(parsed, rec);
        assert!(ExportRecord::from_bytes(&[0u8; 10]).is_none());
    }

    #[test]
    fn wire_export_evicts_and_parses() {
        let mut p = probe();
        for sport in 5000..5010u16 {
            let mut pkt = frame(sport);
            p.process(&ProcessContext::egress().at(1_000), &mut pkt);
        }
        assert_eq!(p.flows.len(), 10);
        // Export in slices of 4: 4 + 4 + 2.
        let mut all = Vec::new();
        loop {
            let payload = p.export_wire(4);
            let records = parse_export(&payload).unwrap();
            if records.is_empty() {
                break;
            }
            all.extend(records);
        }
        assert_eq!(all.len(), 10);
        assert_eq!(p.flows.len(), 0);
        let mut sports: Vec<u16> = all.iter().map(|r| r.key.3).collect();
        sports.sort();
        assert_eq!(sports, (5000..5010).collect::<Vec<_>>());
        for r in &all {
            assert_eq!(r.record.packets, 1);
            // Timestamps survive the microsecond wire granularity.
            assert_eq!(r.record.first_ns, 1_000);
        }
    }

    #[test]
    fn wire_export_via_control_op() {
        let mut p = probe();
        let mut pkt = frame(6000);
        p.process(&ProcessContext::egress(), &mut pkt);
        match p.control_op(&TableOp::Read {
            table: 2,
            key: vec![],
        }) {
            TableOpResult::Value(v) => {
                let records = parse_export(&v).unwrap();
                assert_eq!(records.len(), 1);
                assert_eq!(records[0].key.3, 6000);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Second read is empty (read-and-evict).
        match p.control_op(&TableOp::Read {
            table: 2,
            key: vec![],
        }) {
            TableOpResult::Value(v) => assert!(parse_export(&v).unwrap().is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn manifest_scales_with_capacity() {
        let small = TelemetryProbe::new(1024, 1, 1);
        let big = TelemetryProbe::new(32_768, 1, 1);
        assert!(big.resource_manifest().lsram > small.resource_manifest().lsram);
    }
}
