//! RMT-style match-action pipelines.
//!
//! A pipeline is a short chain of stages (the paper's §5.3: "keeping
//! chains compact (about 3–4 stages)"), each pairing a match structure
//! with hit/miss action lists. Stages can use the matched value as an
//! action parameter — that is how a single exact-match stage expresses
//! the NAT's "translate source A to B" without one rule per action.

use crate::action::{Action, ActionEngine, ActionOutcome, VerdictAction};
use crate::cache::{FlowFront, FlowProgram, PlanRecorder, PlanView, DEFAULT_FLOWS};
use crate::counters::CounterBank;
use crate::engine::{BatchPacket, PacketProcessor, ProcessContext, Verdict};
use crate::match_kinds::{LpmTable, TernaryTable};
use crate::parser::{ParsedPacket, Parser, L4};
use crate::tables::{HashTable, TableKey};
use flexsfp_obs::{
    CacheStats, DataplaneEvent, DropReason, EventKind, EventRing, FlightStamp, LatencyHistogram,
    StageStamp,
};

/// Maximum pipeline depth the fabric comfortably supports (§5.3).
pub const MAX_STAGES: usize = 6;

/// Which parsed field(s) a stage keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySelector {
    /// IPv4 source address.
    SrcIp,
    /// IPv4 destination address.
    DstIp,
    /// IPv4 5-tuple.
    FiveTuple,
    /// Outermost VLAN id.
    OuterVlan,
    /// EtherType after VLANs.
    EtherType,
    /// Source MAC.
    SrcMac,
    /// L4 destination port.
    L4DstPort,
    /// IPv6 source /64 prefix.
    SrcPrefix64,
}

impl KeySelector {
    /// Extract the key bytes from a parsed packet; `None` when the
    /// needed layer is absent (treated as a miss).
    pub fn extract(&self, p: &ParsedPacket) -> Option<[u8; 13]> {
        let mut k = [0u8; 13];
        match self {
            KeySelector::SrcIp => {
                k[..4].copy_from_slice(&p.ipv4?.src.to_be_bytes());
            }
            KeySelector::DstIp => {
                k[..4].copy_from_slice(&p.ipv4?.dst.to_be_bytes());
            }
            KeySelector::FiveTuple => {
                let (s, d, pr, sp, dp) = p.five_tuple()?;
                k[0..4].copy_from_slice(&s.to_be_bytes());
                k[4..8].copy_from_slice(&d.to_be_bytes());
                k[8] = pr;
                k[9..11].copy_from_slice(&sp.to_be_bytes());
                k[11..13].copy_from_slice(&dp.to_be_bytes());
            }
            KeySelector::OuterVlan => {
                k[..2].copy_from_slice(&p.outer_vlan()?.to_be_bytes());
            }
            KeySelector::EtherType => {
                k[..2].copy_from_slice(&p.ethertype.to_u16().to_be_bytes());
            }
            KeySelector::SrcMac => {
                k[..6].copy_from_slice(p.src_mac.as_bytes());
            }
            KeySelector::L4DstPort => {
                let port = match p.l4 {
                    L4::Tcp { dst_port, .. } => dst_port,
                    L4::Udp { dst_port, .. } => dst_port,
                    _ => return None,
                };
                k[..2].copy_from_slice(&port.to_be_bytes());
            }
            KeySelector::SrcPrefix64 => {
                k[..8].copy_from_slice(&p.ipv6?.src_prefix64.to_be_bytes());
            }
        }
        Some(k)
    }

    /// Width of the meaningful key in bits — what the synthesized table
    /// actually stores per entry (the generic 13-byte key is a software
    /// convenience; hardware stores only the selected fields).
    pub fn key_bits(&self) -> u64 {
        match self {
            KeySelector::SrcIp | KeySelector::DstIp => 32,
            KeySelector::FiveTuple => 104,
            KeySelector::OuterVlan => 12,
            KeySelector::EtherType | KeySelector::L4DstPort => 16,
            KeySelector::SrcMac => 48,
            KeySelector::SrcPrefix64 => 64,
        }
    }

    /// Extract as IPv4 address (for LPM stages).
    pub fn extract_ip(&self, p: &ParsedPacket) -> Option<u32> {
        match self {
            KeySelector::SrcIp => Some(p.ipv4?.src),
            KeySelector::DstIp => Some(p.ipv4?.dst),
            _ => None,
        }
    }
}

impl TableKey for [u8; 13] {
    fn key_bytes(&self) -> [u8; 13] {
        *self
    }
    fn key_bits() -> u64 {
        104
    }
}

/// The match structure of a stage.
#[derive(Debug)]
pub enum Matcher {
    /// Unconditional hit.
    Always,
    /// Exact match in a hardware hash table; the value parameterizes
    /// the stage's [`ParamAction`].
    Exact {
        /// Field(s) to key on.
        selector: KeySelector,
        /// The backing table.
        table: HashTable<[u8; 13], u32>,
    },
    /// Longest-prefix match over src/dst IPv4.
    Lpm {
        /// [`KeySelector::SrcIp`] or [`KeySelector::DstIp`].
        selector: KeySelector,
        /// The backing table.
        table: LpmTable<u32>,
    },
    /// Ternary (ACL) match with priorities.
    Ternary {
        /// Field(s) to key on.
        selector: KeySelector,
        /// The backing table.
        table: TernaryTable<u32>,
    },
}

/// How a stage uses the 32-bit value returned by a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamAction {
    /// No use of the value.
    None,
    /// Rewrite IPv4 source to the value (NAT).
    SetIpv4Src,
    /// Rewrite IPv4 destination to the value.
    SetIpv4Dst,
    /// Rewrite the outer VLAN id to (value & 0xfff).
    SetVlanVid,
    /// Count on counter index `value`.
    Count,
    /// Set DSCP to (value & 0x3f).
    SetDscp,
}

/// One match-action stage.
#[derive(Debug)]
pub struct Stage {
    /// Stage name for diagnostics.
    pub name: String,
    /// The match structure.
    pub matcher: Matcher,
    /// Use of the hit value.
    pub param_action: ParamAction,
    /// Actions applied on hit (after the param action).
    pub on_hit: Vec<Action>,
    /// Actions applied on miss.
    pub on_miss: Vec<Action>,
    /// Hit count.
    pub hits: u64,
    /// Miss count.
    pub misses: u64,
}

impl Stage {
    /// A stage that always "hits" and runs `actions`.
    pub fn always(name: &str, actions: Vec<Action>) -> Stage {
        Stage {
            name: name.into(),
            matcher: Matcher::Always,
            param_action: ParamAction::None,
            on_hit: actions,
            on_miss: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Probe the stage's match structure. Shared access suffices: hardware
    /// lookups never mutate the table, and table-level hit/miss counters
    /// are interior ([`Cell`](std::cell::Cell)-based).
    fn lookup(&self, parsed: &ParsedPacket) -> Option<u32> {
        match &self.matcher {
            Matcher::Always => Some(0),
            Matcher::Exact { selector, table } => {
                let key = selector.extract(parsed)?;
                table.lookup(&key)
            }
            Matcher::Lpm { selector, table } => {
                let ip = selector.extract_ip(parsed)?;
                table.lookup(ip).map(|(_, v)| v)
            }
            Matcher::Ternary { selector, table } => {
                let key = selector.extract(parsed)?;
                table.lookup(&key).map(|e| e.data)
            }
        }
    }
}

/// Per-pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets that ended in a drop verdict.
    pub drops: u64,
    /// Packets diverted to the control plane.
    pub to_control: u64,
}

/// Observability state of a pipeline: the hardware-style trace ring
/// the dataplane pushes events into, and a histogram of per-packet
/// PPE occupancy in pipeline cycles.
#[derive(Debug, Default)]
pub struct PipelineObs {
    /// Dataplane trace ring (parse errors, table misses, drops).
    pub events: EventRing,
    /// Per-packet pipeline occupancy in PPE cycles (4 fixed cycles +
    /// 3 per match-action stage executed — the latency model the
    /// module simulator charges for the PPE transit).
    pub stage_cycles: LatencyHistogram,
}

/// A complete match-action pipeline, usable as a [`PacketProcessor`].
#[derive(Debug)]
pub struct Pipeline {
    name: String,
    parser: Parser,
    stages: Vec<Stage>,
    /// The action engine (counters/meters) actions execute against.
    pub engine: ActionEngine,
    stats: PipelineStats,
    /// Event trace ring and stage-timing histogram.
    pub obs: PipelineObs,
    /// The microflow action cache fronting the stages.
    front: FlowFront,
    /// Static analysis result: every stage's selector is covered by the
    /// flow key and every action is pure (bit-exact replayable).
    cacheable: bool,
    /// Set by [`Pipeline::stage_mut`]; re-runs the analysis lazily.
    cache_dirty: bool,
}

/// A pipeline minus its [`FlowFront`]: what the front drives.
struct Program<'a> {
    cacheable: bool,
    parser: &'a Parser,
    stages: &'a mut [Stage],
    engine: &'a mut ActionEngine,
    stats: &'a mut PipelineStats,
    obs: &'a mut PipelineObs,
}

/// The PPE latency model, in one place: 4 fixed cycles, then 3 per
/// match-action stage. The stage at `idx` begins at this cycle, and a
/// packet that ran `idx` stages has occupied the pipeline for as many —
/// which is also what its plan's `cycles` holds, one stage attribution
/// being recorded per stage run.
pub fn stage_start_cycle(idx: usize) -> u32 {
    4 + 3 * idx as u32
}

/// The flight stamp of a packet that ran `stages`: `(stage, hit)`
/// attributions in the order they ran, each given its cycles by
/// [`stage_start_cycle`]. A plan records the same attributions, so a
/// cache hit's stamp is the slow path's but for `cache_hit`.
pub fn stamp_stages(cache_hit: bool, stages: impl IntoIterator<Item = (u8, bool)>) -> FlightStamp {
    FlightStamp {
        cache_hit,
        stages: stages
            .into_iter()
            .enumerate()
            .map(|(i, (stage, hit))| StageStamp {
                stage,
                hit,
                start_cycle: stage_start_cycle(i),
                end_cycle: stage_start_cycle(i + 1),
            })
            .collect(),
    }
}

impl Pipeline {
    /// Read-only view of the stages.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Mutable stage access (control-plane table updates). Bumps the
    /// cache epoch unconditionally — any table or action-list edit may
    /// invalidate memoized plans — and schedules a re-run of the
    /// cacheability analysis.
    pub fn stage_mut(&mut self, idx: usize) -> Option<&mut Stage> {
        self.front.bump_epoch();
        self.cache_dirty = true;
        self.stages.get_mut(idx)
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Whether the static analysis currently deems this program
    /// cacheable (selectors covered by the flow key, all actions pure).
    pub fn is_cacheable(&mut self) -> bool {
        if self.cache_dirty {
            self.cacheable = pipeline_cacheable(&self.stages);
            self.cache_dirty = false;
        }
        self.cacheable
    }

    /// The front and the rest of the pipeline, borrowed apart.
    fn split(&mut self) -> (&mut FlowFront, Program<'_>) {
        let program = Program {
            cacheable: self.is_cacheable(),
            parser: &self.parser,
            stages: &mut self.stages,
            engine: &mut self.engine,
            stats: &mut self.stats,
            obs: &mut self.obs,
        };
        (&mut self.front, program)
    }
}

impl FlowProgram for Program<'_> {
    fn cacheable(&self, _ctx: &ProcessContext) -> bool {
        self.cacheable
    }

    /// The full parse → match → action path, optionally recording a
    /// replay plan for the flow cache.
    fn slow_path(
        &mut self,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
        mut rec: Option<&mut PlanRecorder>,
    ) -> Verdict {
        self.stats.packets += 1;
        let Some(mut parsed) = self.parser.parse(packet) else {
            // Unparseable runt: hardware drops it before any stage runs.
            self.stats.drops += 1;
            self.obs
                .events
                .record(ctx.timestamp_ns, EventKind::ParseError);
            self.obs
                .stage_cycles
                .record(u64::from(stage_start_cycle(0)));
            if let Some(r) = rec {
                r.invalidate();
            }
            return Verdict::Drop;
        };
        let mut stages_run = 0;
        let mut verdict = Verdict::Forward;
        for idx in 0..self.stages.len() {
            stages_run += 1;
            let hit = self.stages[idx].lookup(&parsed);
            if let Some(r) = rec.as_deref_mut() {
                r.stage_stat(idx as u8, hit.is_some());
            }
            self.attribute(ctx, idx as u8, hit.is_some());
            let rec = rec.as_deref_mut();
            if let Some(v) = self.run_stage_actions(idx, hit, ctx, packet, &mut parsed, rec) {
                verdict = v;
                break;
            }
        }
        let cycles = u64::from(stage_start_cycle(stages_run));
        if let Some(r) = rec {
            r.set_cycles(cycles);
        }
        self.finish(ctx, verdict, cycles);
        verdict
    }

    /// Stage hit/miss counters and miss events replay from the recorded
    /// footprint, so telemetry is identical either way.
    fn hit(&mut self, ctx: &ProcessContext, plan: PlanView<'_>) -> &mut CounterBank {
        self.stats.packets += 1;
        for (stage, hit) in plan.stage_stats.iter() {
            self.attribute(ctx, stage, hit);
        }
        self.finish(ctx, plan.verdict, plan.cycles);
        &mut self.engine.counters
    }
}

impl Program<'_> {
    /// Run one stage's param action plus its hit/miss action list.
    fn run_stage_actions(
        &mut self,
        idx: usize,
        hit_value: Option<u32>,
        ctx: &ProcessContext,
        packet: &mut Vec<u8>,
        parsed: &mut ParsedPacket,
        mut rec: Option<&mut PlanRecorder>,
    ) -> Option<Verdict> {
        let stage = &self.stages[idx];
        // Param action first, then the hit or miss list.
        let param = hit_value.and_then(|v| match stage.param_action {
            ParamAction::None => None,
            ParamAction::SetIpv4Src => Some(Action::SetIpv4Src(v)),
            ParamAction::SetIpv4Dst => Some(Action::SetIpv4Dst(v)),
            ParamAction::SetVlanVid => Some(Action::SetVlanVid((v & 0xfff) as u16)),
            ParamAction::Count => Some(Action::Count(v as usize)),
            ParamAction::SetDscp => Some(Action::SetDscp((v & 0x3f) as u8)),
        });
        let actions = if hit_value.is_some() {
            &stage.on_hit
        } else {
            &stage.on_miss
        };
        let mut reparse = false;
        for a in param.into_iter().chain(actions.iter().copied()) {
            if reparse {
                if let Some(p) = self.parser.parse(packet) {
                    *parsed = p;
                }
                reparse = false;
            }
            match self
                .engine
                .apply(a, ctx, packet, parsed, rec.as_deref_mut())
            {
                ActionOutcome::Continue { modified } => {
                    if modified {
                        if is_structural(&a) {
                            reparse = true;
                        } else {
                            patch_parsed(&a, parsed);
                        }
                    }
                }
                ActionOutcome::Final(v) => return Some(v),
            }
        }
        if reparse {
            if let Some(p) = self.parser.parse(packet) {
                *parsed = p;
            }
        }
        None
    }

    /// Count one stage's outcome; a miss is also a trace event.
    fn attribute(&mut self, ctx: &ProcessContext, stage: u8, hit: bool) {
        if hit {
            self.stages[usize::from(stage)].hits += 1;
        } else {
            self.stages[usize::from(stage)].misses += 1;
            self.obs
                .events
                .record(ctx.timestamp_ns, EventKind::TableMiss { stage });
        }
    }

    /// Account a packet's verdict and the cycles it occupied the PPE.
    fn finish(&mut self, ctx: &ProcessContext, verdict: Verdict, cycles: u64) {
        match verdict {
            Verdict::Drop => {
                self.stats.drops += 1;
                self.obs.events.record(
                    ctx.timestamp_ns,
                    EventKind::Drop {
                        reason: DropReason::App,
                    },
                );
            }
            Verdict::ToControlPlane => self.stats.to_control += 1,
            _ => {}
        }
        self.obs.stage_cycles.record(cycles);
    }
}

/// True when the flow key covers everything this selector reads.
fn selector_cacheable(selector: &KeySelector) -> bool {
    // MACs and IPv6 prefixes are not part of the flow key (the key
    // requires canonical IPv4 frames); everything else it covers.
    !matches!(selector, KeySelector::SrcMac | KeySelector::SrcPrefix64)
}

/// Whole-program cacheability: every stage's selector must qualify, and
/// every listed action be a pure edit ([`Action::is_pure`], which every
/// [`ParamAction`] kind is by construction) or a forward/drop verdict.
/// `ToControlPlane` must always take the slow path so the control plane
/// sees every such packet.
fn pipeline_cacheable(stages: &[Stage]) -> bool {
    stages.iter().all(|s| {
        let selector_ok = match &s.matcher {
            Matcher::Always => true,
            Matcher::Exact { selector, .. }
            | Matcher::Lpm { selector, .. }
            | Matcher::Ternary { selector, .. } => selector_cacheable(selector),
        };
        selector_ok
            && s.on_hit.iter().chain(&s.on_miss).all(|a| {
                a.is_pure()
                    || matches!(
                        a,
                        Action::Emit(VerdictAction::Forward | VerdictAction::Drop)
                    )
            })
    })
}

/// True when the action can change the parse *structure* (layer
/// offsets), requiring a full re-parse; pure field rewrites instead
/// patch the existing [`ParsedPacket`] in place.
fn is_structural(action: &Action) -> bool {
    matches!(
        action,
        Action::PushVlan { .. }
            | Action::PushSTag { .. }
            | Action::PopVlan
            | Action::EncapGre { .. }
            | Action::EncapIpIp { .. }
            | Action::EncapVxlan { .. }
            | Action::DecapTunnel
    )
}

/// Patch the parsed bundle to reflect a non-structural edit the engine
/// just applied — what a re-parse would see, without the walk.
fn patch_parsed(action: &Action, parsed: &mut ParsedPacket) {
    match *action {
        Action::SetIpv4Src(v) => {
            if let Some(ip) = parsed.ipv4.as_mut() {
                ip.src = v;
            }
        }
        Action::SetIpv4Dst(v) => {
            if let Some(ip) = parsed.ipv4.as_mut() {
                ip.dst = v;
            }
        }
        Action::SetDscp(d) => {
            if let Some(ip) = parsed.ipv4.as_mut() {
                ip.dscp = d & 0x3f;
            }
        }
        Action::DecTtl => {
            if let Some(ip) = parsed.ipv4.as_mut() {
                ip.ttl = ip.ttl.saturating_sub(1);
            }
        }
        Action::SetVlanVid(v) => {
            if let Some(outer) = parsed.vlans.first_mut() {
                *outer = v & 0x0fff;
            }
        }
        _ => {}
    }
}

impl PacketProcessor for Pipeline {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let (front, mut program) = self.split();
        front.process(&mut program, ctx, packet)
    }

    fn process_batch(&mut self, batch: &mut [BatchPacket]) {
        let (front, mut program) = self.split();
        front.process_batch(&mut program, batch);
    }

    fn pipeline_depth(&self) -> u32 {
        self.stages.len() as u32
    }

    fn set_flow_cache(&mut self, enabled: bool) -> bool {
        self.front.set_flow_cache(enabled)
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.front.cache_stats()
    }

    fn cache_occupancy(&self) -> Option<u64> {
        self.front.cache_occupancy()
    }

    fn set_flight_recording(&mut self, enabled: bool) -> bool {
        self.front.set_flight_recording(enabled)
    }

    fn flight_stamp(&self) -> Option<FlightStamp> {
        self.front.flight_stamp()
    }

    fn resource_manifest(&self) -> flexsfp_fabric::ResourceManifest {
        crate::hls::estimate_pipeline(self)
    }

    fn drain_events(&mut self) -> Vec<DataplaneEvent> {
        self.obs.events.drain()
    }

    fn events_lost(&self) -> u64 {
        self.obs.events.overwritten()
    }
}

/// Builder for [`Pipeline`].
#[derive(Debug)]
pub struct PipelineBuilder {
    name: String,
    stages: Vec<Stage>,
}

/// Counters in every pipeline's bank (default parser, no meters).
const COUNTERS: usize = 16;

impl PipelineBuilder {
    /// Start a pipeline named `name`.
    pub fn new(name: &str) -> PipelineBuilder {
        PipelineBuilder {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Append a stage. Panics beyond [`MAX_STAGES`] — the fabric cannot
    /// fit deeper chains at speed (§5.3).
    pub fn stage(mut self, stage: Stage) -> PipelineBuilder {
        assert!(
            self.stages.len() < MAX_STAGES,
            "pipeline exceeds MAX_STAGES ({MAX_STAGES})"
        );
        self.stages.push(stage);
        self
    }

    /// Finish the pipeline. The flow cache starts disabled; the shell
    /// (or bench harness) opts in via
    /// [`PacketProcessor::set_flow_cache`].
    pub fn build(self) -> Pipeline {
        let cacheable = pipeline_cacheable(&self.stages);
        Pipeline {
            name: self.name,
            parser: Parser::default(),
            stages: self.stages,
            engine: ActionEngine::new(COUNTERS, Vec::new()),
            stats: PipelineStats::default(),
            obs: PipelineObs::default(),
            front: FlowFront::new(DEFAULT_FLOWS),
            cacheable,
            cache_dirty: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::VerdictAction;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::MacAddr;

    const SRC: u32 = 0xc0a80005;
    const DST: u32 = 0x08080404;

    fn frame(src: u32, dport: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(MacAddr([1; 6]), MacAddr([2; 6]), src, DST, 999, dport, b"d")
    }

    /// `SRC` → 100.64.0.1.
    fn nat_table() -> HashTable<[u8; 13], u32> {
        let mut table = HashTable::with_capacity(1024);
        let mut key = [0u8; 13];
        key[..4].copy_from_slice(&SRC.to_be_bytes());
        table.insert(key, 0x64400001).unwrap();
        table
    }

    /// Matches dst port 53 (bytes 11..13 of the 5-tuple key).
    fn dns_acl() -> TernaryTable<u32> {
        let mut acl = TernaryTable::new(16);
        let mut value = [0u8; 13];
        value[11..13].copy_from_slice(&53u16.to_be_bytes());
        let mut mask = [0u8; 13];
        mask[11..13].copy_from_slice(&0xffffu16.to_be_bytes());
        acl.insert(crate::match_kinds::TernaryEntry {
            value,
            mask,
            priority: 1,
            data: 0,
        });
        acl
    }

    fn nat_pipeline() -> Pipeline {
        PipelineBuilder::new("mini-nat")
            .stage(Stage {
                name: "snat".into(),
                matcher: Matcher::Exact {
                    selector: KeySelector::SrcIp,
                    table: nat_table(),
                },
                param_action: ParamAction::SetIpv4Src,
                on_hit: vec![Action::Count(0)],
                on_miss: vec![Action::Count(1)],
                hits: 0,
                misses: 0,
            })
            .build()
    }

    #[test]
    fn exact_stage_translates_on_hit() {
        let mut p = nat_pipeline();
        let mut pkt = frame(SRC, 53);
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), 0x64400001);
        assert!(ip.verify_checksum());
        assert_eq!(p.engine.counters.get(0).packets, 1);
        assert_eq!(p.stages()[0].hits, 1);
    }

    #[test]
    fn exact_stage_misses_pass_unchanged() {
        let mut p = nat_pipeline();
        let mut pkt = frame(0x0a0a0a0a, 53);
        let before = pkt.clone();
        p.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(pkt, before);
        assert_eq!(p.engine.counters.get(1).packets, 1);
        assert_eq!(p.stages()[0].misses, 1);
    }

    #[test]
    fn ternary_acl_drop_stage() {
        let mut p = PipelineBuilder::new("acl")
            .stage(Stage {
                name: "block-dns".into(),
                matcher: Matcher::Ternary {
                    selector: KeySelector::FiveTuple,
                    table: dns_acl(),
                },
                param_action: ParamAction::None,
                on_hit: vec![Action::Emit(VerdictAction::Drop)],
                on_miss: vec![],
                hits: 0,
                misses: 0,
            })
            .build();
        let mut dns = frame(SRC, 53);
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut dns),
            Verdict::Drop
        );
        let mut web = frame(SRC, 443);
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut web),
            Verdict::Forward
        );
        assert_eq!(p.stats().drops, 1);
        assert_eq!(p.stats().packets, 2);
    }

    #[test]
    fn lpm_stage_selects_by_prefix() {
        let mut lpm = LpmTable::new();
        lpm.insert(0xc0a80000, 16, 46); // 192.168/16 -> DSCP EF
        lpm.insert(0, 0, 0); // default -> best effort
        let mut p = PipelineBuilder::new("dscp-by-prefix")
            .stage(Stage {
                name: "classify".into(),
                matcher: Matcher::Lpm {
                    selector: KeySelector::SrcIp,
                    table: lpm,
                },
                param_action: ParamAction::SetDscp,
                on_hit: vec![],
                on_miss: vec![],
                hits: 0,
                misses: 0,
            })
            .build();
        let mut pkt = frame(SRC, 80);
        p.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.dscp(), 46);
        assert!(ip.verify_checksum());

        let mut other = frame(0x0a000001, 80);
        p.process(&ProcessContext::egress(), &mut other);
        let ip = Ipv4Packet::new_checked(&other[14..]).unwrap();
        assert_eq!(ip.dscp(), 0);
    }

    #[test]
    fn multi_stage_chain_with_reparse() {
        // Stage 1 pushes a VLAN; stage 2 keys on the new VLAN id.
        let mut vlan_table = HashTable::with_capacity(64);
        let mut key = [0u8; 13];
        key[..2].copy_from_slice(&100u16.to_be_bytes());
        vlan_table.insert(key, 7).unwrap();
        let mut p = PipelineBuilder::new("chain")
            .stage(Stage::always(
                "tag",
                vec![Action::PushVlan { vid: 100, pcp: 0 }],
            ))
            .stage(Stage {
                name: "count-by-vlan".into(),
                matcher: Matcher::Exact {
                    selector: KeySelector::OuterVlan,
                    table: vlan_table,
                },
                param_action: ParamAction::Count,
                on_hit: vec![],
                on_miss: vec![Action::Emit(VerdictAction::Drop)],
                hits: 0,
                misses: 0,
            })
            .build();
        let mut pkt = frame(SRC, 80);
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        // The second stage saw the tag pushed by the first (re-parse).
        assert_eq!(p.engine.counters.get(7).packets, 1);
        assert_eq!(p.pipeline_depth(), 2);
    }

    #[test]
    fn runt_frames_drop() {
        let mut p = nat_pipeline();
        let mut runt = vec![0u8; 6];
        assert_eq!(
            p.process(&ProcessContext::egress(), &mut runt),
            Verdict::Drop
        );
        assert_eq!(p.stats().drops, 1);
    }

    #[test]
    fn events_trace_misses_and_drops() {
        let mut p = nat_pipeline();
        // A miss records a TableMiss event naming the stage.
        let mut miss = frame(0x0a0a0a0a, 53);
        p.process(&ProcessContext::egress().at(42), &mut miss);
        // A runt records a ParseError event.
        let mut runt = vec![0u8; 6];
        p.process(&ProcessContext::egress().at(43), &mut runt);
        let events = p.drain_events();
        assert_eq!(events.len(), 2);
        // The miss event carries the stage *index*; `p.stages()[0].name`
        // resolves it for display.
        assert_eq!(events[0].kind, EventKind::TableMiss { stage: 0 });
        assert_eq!(events[0].timestamp_ns, 42);
        assert_eq!(events[1].kind, EventKind::ParseError);
        assert_eq!(p.events_lost(), 0);
        // Drained: a second drain is empty.
        assert!(p.drain_events().is_empty());
    }

    #[test]
    fn stage_cycles_match_latency_model() {
        let mut p = nat_pipeline();
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        // One stage executed: 4 + 3×1 cycles.
        assert_eq!(p.obs.stage_cycles.count(), 1);
        assert_eq!(p.obs.stage_cycles.max(), 7);
    }

    #[test]
    #[should_panic(expected = "MAX_STAGES")]
    fn depth_limit_enforced() {
        let mut b = PipelineBuilder::new("deep");
        for i in 0..=MAX_STAGES {
            b = b.stage(Stage::always(&format!("s{i}"), vec![]));
        }
    }

    #[test]
    fn flow_cache_parity_with_slow_path() {
        // Two pipelines with identical programs; one caches.
        let mut cached = nat_pipeline();
        let mut uncached = nat_pipeline();
        assert!(cached.set_flow_cache(true));
        assert!(cached.is_cacheable());
        for round in 0..3 {
            for (src, dport) in [(SRC, 53), (SRC, 80), (0x0a0a_0a0au32, 99)] {
                let mut a = frame(src, dport);
                let mut b = a.clone();
                let va = cached.process(&ProcessContext::egress().at(round), &mut a);
                let vb = uncached.process(&ProcessContext::egress().at(round), &mut b);
                assert_eq!(va, vb);
                assert_eq!(a, b, "cache-on bytes must equal cache-off bytes");
            }
        }
        // Same packets, stats, counters, events and stage attribution.
        assert_eq!(cached.stats(), uncached.stats());
        assert_eq!(
            cached.engine.counters.get(0),
            uncached.engine.counters.get(0)
        );
        assert_eq!(
            cached.engine.counters.get(1),
            uncached.engine.counters.get(1)
        );
        assert_eq!(cached.stages()[0].hits, uncached.stages()[0].hits);
        assert_eq!(cached.stages()[0].misses, uncached.stages()[0].misses);
        assert_eq!(cached.drain_events().len(), uncached.drain_events().len());
        // And the cache actually worked: 3 flows × 3 rounds = 3 misses,
        // 6 hits.
        let s = cached.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses), (6, 3));
        assert!(uncached.cache_stats().unwrap().lookups() == 0);
    }

    /// A NAT stage, `depth - 2` counting stages and a DNS-blocking ACL.
    /// The longest plan is the NAT hit's three ops plus one count per
    /// later stage: at depth 2 exactly [`cache::INLINE_OPS`], and at
    /// depth [`MAX_STAGES`] every flow's plan has more.
    fn nat_acl_pipeline(depth: usize) -> Pipeline {
        let mut b = PipelineBuilder::new("nat-acl").stage(Stage {
            name: "snat".into(),
            matcher: Matcher::Exact {
                selector: KeySelector::SrcIp,
                table: nat_table(),
            },
            param_action: ParamAction::SetIpv4Src,
            on_hit: vec![],
            on_miss: vec![Action::Count(0)],
            hits: 0,
            misses: 0,
        });
        for i in 1..depth - 1 {
            b = b.stage(Stage::always(&format!("count-{i}"), vec![Action::Count(i)]));
        }
        b.stage(Stage {
            name: "block-dns".into(),
            matcher: Matcher::Ternary {
                selector: KeySelector::FiveTuple,
                table: dns_acl(),
            },
            param_action: ParamAction::None,
            on_hit: vec![Action::Emit(VerdictAction::Drop)],
            on_miss: vec![Action::Count(depth - 1)],
            hits: 0,
            misses: 0,
        })
        .build()
    }

    /// A plan the cache refuses is invisible: a seeded trace through a
    /// program whose every plan outgrows the inline form reads the same
    /// on every observable with the cache on as with it off, and nothing
    /// is cached. The same trace through a program that fits does hit.
    #[test]
    fn a_refused_plan_is_invisible() {
        use flexsfp_traffic::rng::Xoshiro256;
        for (depth, fits) in [(MAX_STAGES, false), (2, true)] {
            let mut cached = nat_acl_pipeline(depth);
            let mut uncached = nat_acl_pipeline(depth);
            cached.set_flow_cache(true);
            assert!(cached.is_cacheable());
            let mut rng = Xoshiro256::seed_from_u64(0x16_f10c);
            for t in 0..4_000u64 {
                // 32 flows: NAT hit or miss × forwarded or DNS-dropped.
                let r = rng.next_u64();
                let src = [SRC, 0x0a0a_0a0a, SRC + 1, 0xc0a8_0105][r as usize % 4];
                let dport = [53, 80, 443, 99, 123, 8080, 22, 25][(r >> 8) as usize % 8];
                let mut a = frame(src, dport);
                let mut b = a.clone();
                let ctx = ProcessContext::egress().at(t);
                assert_eq!(cached.process(&ctx, &mut a), uncached.process(&ctx, &mut b));
                assert_eq!(a, b, "depth {depth}, packet {t}");
                if t % 64 == 63 {
                    // `TableMiss` and `Drop` events, in order, timestamped.
                    let events = cached.drain_events();
                    assert!(events.len() >= 64);
                    assert_eq!(events, uncached.drain_events());
                }
            }
            assert_eq!(cached.stats(), uncached.stats());
            assert!(cached.stats().drops > 0);
            for (c, u) in cached.stages().iter().zip(uncached.stages()) {
                assert_eq!((c.hits, c.misses), (u.hits, u.misses), "{}", c.name);
            }
            for idx in 0..MAX_STAGES {
                assert_eq!(
                    cached.engine.counters.get(idx),
                    uncached.engine.counters.get(idx)
                );
            }
            assert_eq!(cached.events_lost(), 0);
            assert_eq!(
                cached.obs.stage_cycles.count(),
                uncached.obs.stage_cycles.count()
            );
            let s = cached.cache_stats().unwrap();
            if fits {
                assert_eq!((s.misses, cached.front.cache.resident()), (32, 32));
                assert_eq!(s.hits, 4_000 - 32);
            } else {
                assert_eq!((s.hits, s.misses), (0, 4_000));
                assert_eq!(cached.front.cache.resident(), 0);
            }
        }
    }

    #[test]
    fn flight_stamps_replay_identically_from_cache() {
        let mut cached = nat_pipeline();
        let mut uncached = nat_pipeline();
        cached.set_flow_cache(true);
        assert!(cached.set_flight_recording(true));
        assert!(uncached.set_flight_recording(true));
        for round in 0..3u64 {
            let mut a = frame(SRC, 53);
            let mut b = a.clone();
            cached.process(&ProcessContext::egress().at(round), &mut a);
            uncached.process(&ProcessContext::egress().at(round), &mut b);
            let fa = cached.flight_stamp().unwrap();
            let fb = uncached.flight_stamp().unwrap();
            // Stage stamps replay bit-identically from the cached plan;
            // only the cache_hit flag distinguishes the two paths.
            assert_eq!(fa.stages, fb.stages);
            assert_eq!(fa.cache_hit, round > 0);
            assert!(!fb.cache_hit);
            assert_eq!(fa.stages.len(), 1);
            assert_eq!(fa.stages[0].start_cycle, 4);
            assert_eq!(fa.stages[0].end_cycle, 7);
            assert!(fa.stages[0].hit);
        }
    }

    #[test]
    fn flight_stamping_off_by_default_and_clearable() {
        let mut p = nat_pipeline();
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(p.flight_stamp(), None);
        p.set_flight_recording(true);
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        assert!(p.flight_stamp().is_some());
        // A runt stamps an empty stage list (parser rejected it).
        let mut runt = vec![0u8; 6];
        p.process(&ProcessContext::egress(), &mut runt);
        assert!(p.flight_stamp().unwrap().stages.is_empty());
        p.set_flight_recording(false);
        assert_eq!(p.flight_stamp(), None);
    }

    /// `process_batch` (two-pass) against per-packet `process` on a
    /// cacheable pipeline: repeated flows, a miss then hits of one flow
    /// inside a window, keyless and runt frames, both directions, every
    /// kind of key hint, a window longer than one pass, and a table
    /// write between rounds.
    #[test]
    fn batch_equals_scalar() {
        use crate::cache::KeyHint;
        let arp = PacketBuilder::ethernet(
            MacAddr::BROADCAST,
            MacAddr([2; 6]),
            flexsfp_wire::EtherType::Arp,
            &[0u8; 28],
        );
        let window = |n: u32| -> Vec<(ProcessContext, Vec<u8>)> {
            (0..n)
                .map(|i| {
                    let ctx = ProcessContext::egress().at(u64::from(i));
                    match i % 6 {
                        0 | 1 => (ctx, frame(SRC, 53)),
                        2 => (ctx, frame(0x0a0a_0a0a, 99 + (i % 4) as u16)),
                        3 => (ProcessContext::ingress().at(u64::from(i)), frame(SRC, 53)),
                        4 => (ctx, arp.clone()),
                        _ => (ctx, vec![0u8; 6]),
                    }
                })
                .collect()
        };
        let build = || {
            let mut p = nat_pipeline();
            p.set_flow_cache(true);
            p.set_flight_recording(true);
            p
        };
        let (mut batched, mut scalar) = (build(), build());
        for round in 0..3u32 {
            for n in [7, 1, 70] {
                let packets = window(n);
                let mut batch: Vec<BatchPacket> = packets
                    .iter()
                    .enumerate()
                    .map(|(i, (ctx, f))| {
                        let hint = match (i as u32 + round) % 3 {
                            0 => KeyHint::Unknown,
                            _ => KeyHint::compute(f, ctx.direction),
                        };
                        BatchPacket::with_key(*ctx, f.clone(), hint)
                    })
                    .collect();
                batched.process_batch(&mut batch);
                for (slot, (ctx, f)) in batch.iter().zip(&packets) {
                    let mut f = f.clone();
                    assert_eq!(slot.verdict, scalar.process(ctx, &mut f));
                    assert_eq!(slot.frame, f, "round {round} window of {n}");
                }
                assert_eq!(batched.flight_stamp(), scalar.flight_stamp());
                assert_eq!(batched.cache_stats(), scalar.cache_stats());
                assert_eq!(batched.stats(), scalar.stats());
                assert_eq!(batched.stages()[0].hits, scalar.stages()[0].hits);
                assert_eq!(batched.stages()[0].misses, scalar.stages()[0].misses);
                for idx in 0..2 {
                    assert_eq!(
                        batched.engine.counters.get(idx),
                        scalar.engine.counters.get(idx)
                    );
                }
                assert_eq!(batched.drain_events(), scalar.drain_events());
                assert_eq!(
                    batched.obs.stage_cycles.count(),
                    scalar.obs.stage_cycles.count()
                );
            }
            // A control-plane write between rounds: every plan is stale.
            for p in [&mut batched, &mut scalar] {
                let mut key = [0u8; 13];
                key[..4].copy_from_slice(&SRC.to_be_bytes());
                if let Some(Matcher::Exact { table, .. }) =
                    p.stage_mut(0).map(|stage| &mut stage.matcher)
                {
                    table.insert(key, 0x6440_0100 + round).unwrap();
                }
            }
        }
        let s = batched.cache_stats().unwrap();
        assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0);
    }

    #[test]
    fn stage_mut_invalidates_cached_plans() {
        let mut p = nat_pipeline();
        p.set_flow_cache(true);
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(p.cache_stats().unwrap().hits, 1);
        // Control plane remaps SRC to a new public address.
        let new_public = 0x6440_0099u32;
        let mut key = [0u8; 13];
        key[..4].copy_from_slice(&SRC.to_be_bytes());
        if let Some(stage) = p.stage_mut(0) {
            if let Matcher::Exact { table, .. } = &mut stage.matcher {
                table.insert(key, new_public).unwrap();
            }
        }
        // The stale plan must not replay the old mapping.
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), new_public);
        assert!(ip.verify_checksum());
        assert_eq!(p.cache_stats().unwrap().invalidations, 1);
    }

    #[test]
    fn cache_occupancy_exported() {
        // The session's per-window occupancy gauge reads this: `None`
        // (the trait default) recorded a pipeline's as 0 however full.
        let mut p = nat_pipeline();
        p.set_flow_cache(true);
        assert_eq!(p.cache_occupancy(), Some(0));
        for dport in [53, 80, 53] {
            p.process(&ProcessContext::egress(), &mut frame(SRC, dport));
        }
        assert_eq!(p.cache_occupancy(), Some(2));
    }

    #[test]
    fn uncacheable_program_always_slow_paths() {
        let mut p = PipelineBuilder::new("ttl")
            .stage(Stage::always("dec", vec![Action::DecTtl]))
            .build();
        p.set_flow_cache(true);
        assert!(!p.is_cacheable(), "DecTtl is data-dependent");
        for ttl_round in 0..2 {
            let mut pkt = frame(SRC, 53);
            p.process(&ProcessContext::egress().at(ttl_round), &mut pkt);
            let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
            assert_eq!(ip.ttl(), 63);
            assert!(ip.verify_checksum());
        }
        assert_eq!(p.cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn structural_actions_still_reparse() {
        // The in-place ParsedPacket patching must not break the
        // push-then-match chain (which needs a real re-parse).
        let mut p = nat_pipeline();
        p.set_flow_cache(true);
        let mut pkt = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut pkt);
        let mut again = frame(SRC, 53);
        p.process(&ProcessContext::egress(), &mut again);
        assert_eq!(pkt, again, "hit path must produce identical bytes");
    }
}
