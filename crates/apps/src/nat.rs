//! The §5.1 case study: a static 1:1 source NAT.
//!
//! "A basic one-to-one NAT function, capable of translating source IP
//! addresses for outgoing traffic at 10 Gbps line-rate … uses a basic
//! source IP hash table to store 32,768 flows." Translation rewrites the
//! IPv4 source with the RFC 1624 incremental checksum update (IP header
//! and TCP/UDP pseudo-header), exactly like the hardware fast path. The
//! table is runtime-updatable through the control plane (table id 0;
//! keys and values are 4-byte big-endian IPv4 addresses).

use flexsfp_fabric::resources::{table1, ResourceManifest};
use flexsfp_fabric::sram::{MemoryPlanner, TableShape};
use flexsfp_obs::{CacheStats, FlightStamp};
use flexsfp_ppe::action::{Action, ActionEngine};
use flexsfp_ppe::cache::{FlowFront, FlowKey, FlowProgram, PlanRecorder};
use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::parser::Parser;
use flexsfp_ppe::tables::{slots_for, HashTable, TableError};
use flexsfp_ppe::{Direction, PacketProcessor, ProcessContext, TableOp, TableOpResult, Verdict};

/// Counter indices exposed by the NAT.
pub mod counters {
    /// Packets translated.
    pub(crate) const TRANSLATED: usize = 0;
    /// Packets passed through untranslated (table miss).
    pub(crate) const MISSED: usize = 1;
    /// Non-IPv4 packets passed through.
    pub(crate) const NON_IP: usize = 2;
    /// Frames the parser refused (dropped).
    pub(crate) const UNPARSED: usize = 3;
    /// Counters in the bank.
    pub(crate) const LEN: usize = 4;
}

/// The flow capacity of the §5.1 prototype table.
pub(crate) const FLOW_CAPACITY: usize = 32_768;

/// The direction that gets translated (the paper's "outgoing traffic":
/// edge→optical); the other passes through untouched.
pub(crate) const TRANSLATE_DIRECTION: Direction = Direction::EdgeToOptical;

/// Static 1:1 source NAT.
pub struct StaticNat {
    /// Microflow action cache: the resolved rewrite + counter plan per
    /// 5-tuple, skipping the full parse and table lookup on hits. A
    /// mapping write invalidates the plans of its source address, and a
    /// clear every plan, so stale plans never replay.
    front: FlowFront,
    nat: Translator,
}

/// The NAT minus its [`FlowFront`]: what the front drives.
struct Translator {
    table: HashTable<u32, u32>,
    engine: ActionEngine,
    parser: Parser,
}

impl Default for StaticNat {
    fn default() -> Self {
        Self::new()
    }
}

impl StaticNat {
    /// A NAT with the prototype's 32 768-flow table.
    pub fn new() -> StaticNat {
        Self::with_capacity(FLOW_CAPACITY)
    }

    /// A NAT with a custom table capacity (the table-sizing ablation).
    /// The microflow cache is sized to the table: a NAT provisioned for
    /// N subscriber flows must not thrash a fixed 4 k-entry cache the
    /// moment the live flow set outgrows it.
    pub fn with_capacity(capacity: usize) -> StaticNat {
        let table = HashTable::with_capacity(capacity);
        StaticNat {
            front: FlowFront::new(table.capacity()),
            nat: Translator {
                table,
                engine: ActionEngine::new(counters::LEN),
                parser: Parser,
            },
        }
    }

    /// What [`with_capacity`](Self::with_capacity)`(capacity)` occupies:
    /// Table 1's "NAT app" logic and uSRAM, and the planner's LSRAM for
    /// the table at 96 b an entry (exactly the row's 160 blocks at the
    /// prototype's 32 768).
    pub fn manifest(capacity: usize) -> ResourceManifest {
        let table = TableShape::new(slots_for(capacity) as u64, 96);
        ResourceManifest {
            lsram: 0,
            ..table1::NAT_APP
        } + MemoryPlanner::plan(&[table])
    }

    /// Install a translation `private → public`.
    pub fn add_mapping(&mut self, private: u32, public: u32) -> Result<(), TableError> {
        self.front.bump_dependency(private);
        self.nat.table.insert(private, public)
    }

    /// Remove a translation.
    pub(crate) fn remove_mapping(&mut self, private: u32) -> Option<u32> {
        self.front.bump_dependency(private);
        self.nat.table.remove(&private)
    }
}

impl FlowProgram for Translator {
    #[inline(always)]
    fn cacheable(&self, ctx: &ProcessContext) -> bool {
        ctx.direction == TRANSLATE_DIRECTION
    }

    #[inline(always)]
    fn hit(&mut self) -> &mut CounterBank {
        &mut self.engine.counters
    }

    #[inline(always)]
    fn touch_miss(&self, key: &FlowKey) {
        self.table.touch(&key.src_ip());
    }

    /// The slow path reads the table at the source address alone.
    #[inline(always)]
    fn dependency(key: &FlowKey) -> u32 {
        key.src_ip()
    }

    /// The full parse → lookup → rewrite path, optionally recording a
    /// replay plan for the flow cache.
    #[inline]
    fn slow_path(
        &mut self,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
        mut rec: Option<&mut PlanRecorder>,
    ) -> Verdict {
        if ctx.direction != TRANSLATE_DIRECTION {
            // Bypasses the pipeline entirely: no stage runs.
            return Verdict::Forward;
        }
        let Some(parsed) = self.parser.parse(packet) else {
            // Parser rejected it before the match stage.
            if let Some(r) = rec {
                r.invalidate();
            }
            self.engine.counters.count(counters::UNPARSED, packet.len());
            return Verdict::Drop;
        };
        // The stage footprint, the rewrite and the counter of each outcome.
        let (stages, public, counter): (&[(u8, bool)], _, _) =
            match parsed.ipv4.map(|ip| self.table.lookup(&ip.src)) {
                // No IPv4 source to match on: the match stage missed.
                None => (&[(0, false)], None, counters::NON_IP),
                // Only the match stage ran; the rewrite was skipped.
                Some(None) => (&[(0, false)], None, counters::MISSED),
                Some(Some(public)) => (&[(0, true), (1, true)], Some(public), counters::TRANSLATED),
            };
        if let Some(r) = rec.as_deref_mut() {
            for &(stage, hit) in stages {
                r.stage_stat(stage, hit);
            }
        }
        // Both actions are pure, so each outcome is `Continue`.
        if let Some(public) = public {
            let rewrite = Action::SetIpv4Src(public);
            self.engine
                .apply(rewrite, packet, &parsed, rec.as_deref_mut());
        }
        self.engine
            .apply(Action::Count(counter), packet, &parsed, rec);
        Verdict::Forward
    }
}

impl PacketProcessor for StaticNat {
    fn name(&self) -> &str {
        "nat"
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        self.front.process(&mut self.nat, ctx, packet)
    }

    fn process_batch(&mut self, batch: &mut [flexsfp_ppe::engine::BatchPacket]) {
        self.front.process_batch(&mut self.nat, batch);
    }

    fn set_flow_cache(&mut self, enabled: bool) -> bool {
        self.front.set_flow_cache(enabled)
    }

    fn set_flight_recording(&mut self, enabled: bool) -> bool {
        self.front.set_flight_recording(enabled)
    }

    fn flight_stamp(&self) -> Option<FlightStamp> {
        self.front.flight_stamp()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.front.cache_stats()
    }

    fn cache_occupancy(&self) -> Option<u64> {
        self.front.cache_occupancy()
    }

    fn table_stats(&self) -> Option<flexsfp_obs::TableTelemetry> {
        Some(self.nat.table.stats())
    }

    fn resource_manifest(&self) -> ResourceManifest {
        StaticNat::manifest(self.nat.table.capacity())
    }

    fn pipeline_depth(&self) -> u32 {
        2 // match stage + rewrite stage
    }

    fn control_op(&mut self, op: &TableOp) -> TableOpResult {
        fn ip_key(k: &[u8]) -> Option<u32> {
            Some(u32::from_be_bytes(k.try_into().ok()?))
        }
        match op {
            TableOp::Insert {
                table: 0,
                key,
                value,
            } => {
                let (Some(k), Some(v)) = (ip_key(key), ip_key(value)) else {
                    return TableOpResult::BadEncoding;
                };
                match self.add_mapping(k, v) {
                    Ok(()) => TableOpResult::Ok,
                    Err(TableError::BucketFull) => TableOpResult::TableFull,
                }
            }
            TableOp::Delete { table: 0, key } => {
                let Some(k) = ip_key(key) else {
                    return TableOpResult::BadEncoding;
                };
                match self.remove_mapping(k) {
                    Some(_) => TableOpResult::Ok,
                    None => TableOpResult::NotFound,
                }
            }
            TableOp::Read { table: 0, key } => {
                let Some(k) = ip_key(key) else {
                    return TableOpResult::BadEncoding;
                };
                match self.nat.table.peek(&k) {
                    Some(v) => TableOpResult::Value(v.to_be_bytes().to_vec()),
                    None => TableOpResult::NotFound,
                }
            }
            TableOp::Clear { table: 0 } => {
                self.front.bump_epoch();
                self.nat.table.clear();
                TableOpResult::Ok
            }
            TableOp::ReadCounter { index } => self.nat.engine.counters.get(*index as usize).into(),
            _ => TableOpResult::Unsupported,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_ppe::{stamp_stages, KeyHint};
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::tcp::TcpFlags;
    use flexsfp_wire::udp::UdpDatagram;
    use flexsfp_wire::{MacAddr, TcpSegment};

    const PRIVATE: u32 = 0xc0a80042; // 192.168.0.66
    const PUBLIC: u32 = 0x650a0001; // 101.10.0.1
    const DST: u32 = 0x08080808;

    fn udp_frame(src: u32) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(MacAddr([1; 6]), MacAddr([2; 6]), src, DST, 4000, 80, b"req")
    }

    fn nat_with_mapping() -> StaticNat {
        let mut n = StaticNat::new();
        n.add_mapping(PRIVATE, PUBLIC).unwrap();
        n
    }

    #[test]
    fn translates_mapped_source_udp() {
        let mut n = nat_with_mapping();
        let mut pkt = udp_frame(PRIVATE);
        assert_eq!(
            n.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), PUBLIC);
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
        assert!(udp.verify_checksum_v4(PUBLIC, DST));
        assert_eq!(
            crate::packets(&n.nat.engine.counters, counters::TRANSLATED),
            1
        );
    }

    #[test]
    fn translates_tcp_with_l4_checksum() {
        let mut n = nat_with_mapping();
        let mut pkt = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            PRIVATE,
            DST,
            4000,
            443,
            1,
            TcpFlags::syn_only(),
            &[],
        );
        n.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), PUBLIC);
        let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
        assert!(tcp.verify_checksum_v4(PUBLIC, DST));
    }

    #[test]
    fn unmapped_source_passes_untouched() {
        let mut n = nat_with_mapping();
        let mut pkt = udp_frame(0x0a0b0c0d);
        let before = pkt.clone();
        assert_eq!(
            n.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
        assert_eq!(crate::packets(&n.nat.engine.counters, counters::MISSED), 1);
    }

    #[test]
    fn reverse_direction_not_translated() {
        let mut n = nat_with_mapping();
        let mut pkt = udp_frame(PRIVATE);
        let before = pkt.clone();
        assert_eq!(
            n.process(&ProcessContext::ingress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(pkt, before);
    }

    #[test]
    fn non_ip_counted_and_forwarded() {
        let mut n = nat_with_mapping();
        let mut arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        assert_eq!(
            n.process(&ProcessContext::egress(), &mut arp),
            Verdict::Forward
        );
        assert_eq!(crate::packets(&n.nat.engine.counters, counters::NON_IP), 1);
    }

    #[test]
    fn manifest_matches_table1_row() {
        let n = StaticNat::new();
        assert_eq!(n.resource_manifest(), table1::NAT_APP);
        assert_eq!(n.resource_manifest().lsram, 160);
    }

    #[test]
    fn smaller_tables_use_less_lsram() {
        let small = StaticNat::with_capacity(1024);
        assert!(small.resource_manifest().lsram < 160);
        let big = StaticNat::with_capacity(65_536);
        assert!(big.resource_manifest().lsram > 160);
    }

    #[test]
    fn control_plane_inserts_and_reads() {
        let mut n = StaticNat::new();
        let r = n.control_op(&TableOp::Insert {
            table: 0,
            key: PRIVATE.to_be_bytes().to_vec(),
            value: PUBLIC.to_be_bytes().to_vec(),
        });
        assert_eq!(r, TableOpResult::Ok);
        assert_eq!(
            n.control_op(&TableOp::Read {
                table: 0,
                key: PRIVATE.to_be_bytes().to_vec()
            }),
            TableOpResult::Value(PUBLIC.to_be_bytes().to_vec())
        );
        // The dataplane sees the runtime update immediately.
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), PUBLIC);
        // Delete and verify miss.
        assert_eq!(
            n.control_op(&TableOp::Delete {
                table: 0,
                key: PRIVATE.to_be_bytes().to_vec()
            }),
            TableOpResult::Ok
        );
        assert_eq!(
            n.control_op(&TableOp::Read {
                table: 0,
                key: PRIVATE.to_be_bytes().to_vec()
            }),
            TableOpResult::NotFound
        );
    }

    #[test]
    fn control_plane_counter_read() {
        let mut n = nat_with_mapping();
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        match n.control_op(&TableOp::ReadCounter { index: 0 }) {
            TableOpResult::Counter { packets, bytes } => {
                assert_eq!(packets, 1);
                assert!(bytes > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_encodings_rejected() {
        let mut n = StaticNat::new();
        assert_eq!(
            n.control_op(&TableOp::Insert {
                table: 0,
                key: vec![1, 2],
                value: vec![3, 4, 5, 6]
            }),
            TableOpResult::BadEncoding
        );
        assert_eq!(
            n.control_op(&TableOp::Insert {
                table: 9,
                key: vec![0; 4],
                value: vec![0; 4]
            }),
            TableOpResult::Unsupported
        );
    }

    #[test]
    fn flow_cache_parity_udp_and_tcp() {
        let mut cached = nat_with_mapping();
        let mut uncached = nat_with_mapping();
        assert!(cached.set_flow_cache(true));
        for _round in 0..3 {
            for src in [PRIVATE, 0x0a0b_0c0d] {
                let mut a = udp_frame(src);
                let mut b = a.clone();
                assert_eq!(
                    cached.process(&ProcessContext::egress(), &mut a),
                    uncached.process(&ProcessContext::egress(), &mut b),
                );
                assert_eq!(a, b, "cache-on bytes must equal cache-off bytes");
                let mut a = PacketBuilder::eth_ipv4_tcp(
                    MacAddr([1; 6]),
                    MacAddr([2; 6]),
                    src,
                    DST,
                    4000,
                    443,
                    7,
                    TcpFlags::syn_only(),
                    b"hello",
                );
                let mut b = a.clone();
                cached.process(&ProcessContext::egress(), &mut a);
                uncached.process(&ProcessContext::egress(), &mut b);
                assert_eq!(a, b);
            }
        }
        for idx in [counters::TRANSLATED, counters::MISSED, counters::NON_IP] {
            assert_eq!(
                cached.nat.engine.counters.get(idx),
                uncached.nat.engine.counters.get(idx)
            );
        }
        // 4 flows × 3 rounds: 4 misses then 8 hits.
        let s = cached.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses), (8, 4));
        let stats = uncached.cache_stats().unwrap();
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn mapping_mutations_invalidate_cached_plans() {
        let mut n = nat_with_mapping();
        n.set_flow_cache(true);
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(n.cache_stats().unwrap().hits, 1);
        // Remap through the control plane: the cached plan is stale.
        let new_public = 0x650a_00ffu32;
        assert_eq!(
            n.control_op(&TableOp::Insert {
                table: 0,
                key: PRIVATE.to_be_bytes().to_vec(),
                value: new_public.to_be_bytes().to_vec(),
            }),
            TableOpResult::Ok
        );
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), new_public, "stale plan must not replay");
        assert!(ip.verify_checksum());
        assert_eq!(n.cache_stats().unwrap().invalidations, 1);
        // Removal invalidates too: traffic falls back to MISSED.
        n.remove_mapping(PRIVATE);
        let mut pkt = udp_frame(PRIVATE);
        let before = pkt.clone();
        n.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(pkt, before);
        assert_eq!(crate::packets(&n.nat.engine.counters, counters::MISSED), 1);
    }

    /// Stamping is off until asked for and cleared when turned off. A
    /// translated packet stamps the match and the rewrite stage, the same
    /// from a cached plan as from the slow path but for `cache_hit`.
    #[test]
    fn flight_stamps_replay_identically_from_cache() {
        let egress = ProcessContext::egress();
        let mut n = nat_with_mapping();
        n.set_flow_cache(true);
        n.process(&egress, &mut udp_frame(PRIVATE));
        assert_eq!(n.flight_stamp(), None);
        assert!(n.set_flight_recording(true));
        let translated = |cache_hit| stamp_stages(cache_hit, [(0, true), (1, true)]);
        // The plan the unstamped packet cached.
        n.process(&egress, &mut udp_frame(PRIVATE));
        assert_eq!(n.flight_stamp(), Some(translated(true)));
        // A new flow of the mapped source: the slow path.
        let mut tcp = PacketBuilder::eth_ipv4_tcp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            PRIVATE,
            DST,
            4000,
            443,
            1,
            TcpFlags::syn_only(),
            &[],
        );
        n.process(&egress, &mut tcp);
        let stamp = n.flight_stamp().unwrap();
        assert_eq!(stamp, translated(false));
        let cycles: Vec<_> = stamp
            .stages
            .iter()
            .map(|s| (s.start_cycle, s.end_cycle))
            .collect();
        assert_eq!(cycles, [(4, 7), (7, 10)]);
        // An unmapped source runs the match stage alone, and a frame the
        // parser rejects runs none.
        n.process(&egress, &mut udp_frame(0x0a0b_0c0d));
        assert_eq!(n.flight_stamp(), Some(stamp_stages(false, [(0, false)])));
        n.process(&egress, &mut vec![0u8; 9]);
        assert_eq!(n.flight_stamp(), Some(stamp_stages(false, [])));
        n.set_flight_recording(false);
        assert_eq!(n.flight_stamp(), None);
    }

    #[test]
    fn reverse_direction_bypasses_cache() {
        let mut n = nat_with_mapping();
        n.set_flow_cache(true);
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::ingress(), &mut pkt);
        let stats = n.cache_stats().unwrap();
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn table_telemetry_and_cache_occupancy_exported() {
        let mut n = nat_with_mapping();
        n.set_flow_cache(true);
        let t = n.table_stats().unwrap();
        assert_eq!(t.capacity, FLOW_CAPACITY as u64);
        assert_eq!(t.occupied, 1);
        assert!((t.load_factor() - 1.0 / FLOW_CAPACITY as f64).abs() < 1e-15);
        assert_eq!(n.cache_occupancy(), Some(0));
        // One translated packet: a table hit and a recorded plan.
        let mut pkt = udp_frame(PRIVATE);
        n.process(&ProcessContext::egress(), &mut pkt);
        let t = n.table_stats().unwrap();
        assert_eq!((t.hits, t.misses), (1, 0));
        assert_eq!(n.cache_occupancy(), Some(1));
        // A miss flows through too.
        let mut pkt = udp_frame(0x0102_0304);
        n.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(n.table_stats().unwrap().misses, 1);
    }

    /// `process_batch` (two-pass: touch the window, then process it)
    /// against per-packet `process`, over windows built to break a
    /// batched implementation: repeated flows, a miss followed by hits
    /// of the same flow inside one window, keyless frames, both
    /// directions, every kind of key hint, a window longer than one
    /// pass, and a table write between windows.
    #[test]
    fn batch_equals_scalar() {
        use flexsfp_ppe::engine::BatchPacket;
        let egress = ProcessContext::egress();
        let arp = PacketBuilder::ethernet(
            MacAddr([0xff; 6]),
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        let tcp = |src: u32| {
            PacketBuilder::eth_ipv4_tcp(
                MacAddr([1; 6]),
                MacAddr([2; 6]),
                src,
                DST,
                4000,
                443,
                9,
                TcpFlags::syn_only(),
                b"x",
            )
        };
        let unmapped = 0x0a0b_0c0d;
        // (direction, frame) per packet, window by window.
        let mut windows: Vec<Vec<(ProcessContext, Vec<u8>)>> = vec![
            // Miss, then hits of the same flow; an unmapped flow twice.
            vec![
                (egress, udp_frame(PRIVATE)),
                (egress, udp_frame(PRIVATE)),
                (egress, udp_frame(unmapped)),
                (egress, arp.clone()),
                (ProcessContext::ingress(), udp_frame(PRIVATE)),
                (egress, udp_frame(PRIVATE)),
                (egress, tcp(PRIVATE)),
                (egress, vec![0u8; 9]),
                (egress, udp_frame(unmapped)),
                (egress, tcp(PRIVATE)),
            ],
            // A single packet: the shortest window.
            vec![(egress, udp_frame(PRIVATE))],
        ];
        // Longer than BATCH_WINDOW: three passes, flows straddling them.
        windows.push(
            (0..70u32)
                .map(|i| match i % 5 {
                    0 => (egress, udp_frame(PRIVATE + i % 3)),
                    1 => (egress, tcp(PRIVATE + i % 2)),
                    2 => (ProcessContext::ingress().at(u64::from(i)), tcp(PRIVATE)),
                    3 => (egress.at(u64::from(i)), arp.clone()),
                    _ => (egress, udp_frame(unmapped + i % 4)),
                })
                .collect(),
        );
        let build = || {
            let mut n = nat_with_mapping();
            n.add_mapping(PRIVATE + 1, PUBLIC + 1).unwrap();
            n.set_flow_cache(true);
            n.set_flight_recording(true);
            n
        };
        let (mut batched, mut scalar) = (build(), build());
        // Pass 1 only touches anything once more plans are resident than
        // fit an L2: warm both caches past that point, then keep the
        // warm-up flows in the mix so the touched sets matter.
        let crowd: Vec<_> = (0..5_000u32)
            .map(|i| (egress, udp_frame(0x0a10_0000 + i)))
            .collect();
        windows.push(crowd.clone());
        windows.push(crowd);
        for round in 0..3 {
            for (w, window) in windows.iter().enumerate() {
                let mut batch: Vec<BatchPacket> = window
                    .iter()
                    .enumerate()
                    .map(|(i, (ctx, frame))| {
                        // Every hint a dispatcher may hand down.
                        let hint = match (i + round) % 3 {
                            0 => KeyHint::Unknown,
                            _ => KeyHint::compute(frame, ctx.direction),
                        };
                        BatchPacket::with_key(*ctx, frame.clone(), hint)
                    })
                    .collect();
                batched.process_batch(&mut batch);
                for (slot, (ctx, frame)) in batch.iter().zip(window) {
                    let mut frame = frame.clone();
                    let verdict = scalar.process(ctx, &mut frame);
                    assert_eq!(slot.verdict, verdict, "round {round} window {w}");
                    assert_eq!(slot.frame, frame, "round {round} window {w}");
                }
                assert_eq!(batched.flight_stamp(), scalar.flight_stamp());
                assert_eq!(batched.cache_stats(), scalar.cache_stats());
                assert_eq!(batched.cache_occupancy(), scalar.cache_occupancy());
                assert_eq!(batched.table_stats(), scalar.table_stats());
                for idx in [counters::TRANSLATED, counters::MISSED, counters::NON_IP] {
                    assert_eq!(
                        batched.nat.engine.counters.get(idx),
                        scalar.nat.engine.counters.get(idx)
                    );
                }
            }
            // A control-plane write between rounds: PRIVATE's plans are stale.
            for n in [&mut batched, &mut scalar] {
                n.add_mapping(PRIVATE, PUBLIC + 0x100 + round as u32)
                    .unwrap();
            }
        }
        let s = batched.cache_stats().unwrap();
        assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0);
        assert!(batched.cache_occupancy().unwrap() > 4_096);
    }

    #[test]
    fn population_at_prototype_scale() {
        // Install ~16k mappings (50% load) and translate a sample.
        let mut n = StaticNat::new();
        let mut installed = Vec::new();
        for i in 0..16_384u32 {
            let private = 0x0a100000 + i;
            let public = 0x65000000 + i;
            if n.add_mapping(private, public).is_ok() {
                installed.push((private, public));
            }
        }
        assert!(installed.len() > 15_500, "installed {}", installed.len());
        for &(private, public) in installed.iter().step_by(1000) {
            let mut pkt = udp_frame(private);
            n.process(&ProcessContext::egress(), &mut pkt);
            let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
            assert_eq!(ip.src(), public);
            assert!(ip.verify_checksum());
        }
    }
}
