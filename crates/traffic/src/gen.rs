//! Seeded flow-based traffic generation.
//!
//! A [`TraceBuilder`] produces a time-stamped packet trace from a flow
//! population, a packet-size model and an arrival process. Everything is
//! driven by one explicit seed: the same builder always emits the same
//! trace, byte for byte.

use crate::rate::LineRateCalc;
use crate::rng::Xoshiro256;
use flexsfp_wire::builder::PacketBuilder;
use flexsfp_wire::tcp::TcpFlags;
use flexsfp_wire::{checksum, MacAddr, PacketArena};
use std::collections::VecDeque;

/// The generator's payload byte.
const FILL: u8 = 0x5a;

/// Constant payload filler. Sized for the largest standard frame so the
/// per-packet path never allocates a scratch payload buffer.
const PAYLOAD_FILL: [u8; 1514] = [FILL; 1514];

/// MAC addresses every generated frame carries.
const DST_MAC: u64 = 0x02_00_00_00_00_01;
const SRC_MAC: u64 = 0x02_00_00_00_00_02;

/// Ethernet + IPv4 + UDP header bytes.
const UDP_HEADERS: usize = 14 + 20 + 8;

/// One generated packet.
#[derive(Debug, Clone)]
pub struct TracePacket {
    /// Arrival time, ns.
    pub arrival_ns: u64,
    /// The Ethernet frame (no FCS).
    pub frame: Vec<u8>,
}

/// Packet-size models (frame length without FCS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeModel {
    /// All frames the same size.
    Fixed(usize),
    /// Uniform in `[min, max]`.
    Uniform(usize, usize),
    /// The classic 7:4:1 IMIX (60 / 590 / 1514 B without FCS).
    Imix,
}

impl SizeModel {
    fn sample(&self, rng: &mut Xoshiro256) -> usize {
        match *self {
            SizeModel::Fixed(n) => n,
            SizeModel::Uniform(lo, hi) => rng.range_inclusive_usize(lo, hi),
            SizeModel::Imix => match rng.range_u64(0, 12) {
                0..=6 => 60,
                7..=10 => 590,
                _ => 1514,
            },
        }
    }
}

/// Arrival processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Deterministically paced at a fraction of line rate.
    Paced {
        /// Offered load as a fraction of line rate (0, 1].
        utilization: f64,
    },
    /// Poisson arrivals with the same mean rate.
    Poisson {
        /// Offered load as a fraction of line rate (0, 1].
        utilization: f64,
    },
}

/// One flow's immutable 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlowSpec {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// True for TCP, false for UDP.
    pub tcp: bool,
}

/// The flow population's addressing: flow `i`'s 5-tuple is arithmetic
/// in `i`, so neither the builder nor the stream keeps a per-flow table.
#[derive(Debug, Clone, Copy)]
struct FlowSpace {
    flows: usize,
    src_base: u32,
    dst_base: u32,
    dport: u16,
}

impl FlowSpace {
    fn spec(&self, i: usize, tcp: bool) -> FlowSpec {
        FlowSpec {
            src: self.src_base.wrapping_add(i as u32),
            dst: self.dst_base.wrapping_add((i % 16) as u32),
            sport: 1024 + (i % 60_000) as u16,
            dport: self.dport,
            tcp,
        }
    }
}

/// Which flows are TCP, one bit per flow index.
#[derive(Debug, Clone)]
struct TcpSet(Vec<u64>);

impl TcpSet {
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }
}

/// Builder for packet traces.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    seed: u64,
    rate: LineRateCalc,
    space: FlowSpace,
    size: SizeModel,
    arrival: ArrivalModel,
    tcp_share: f64,
    microbursts: Vec<(u64, usize)>,
}

impl TraceBuilder {
    /// A builder with sensible defaults: 10 G line, 64 flows, IMIX
    /// sizes, 50 % paced load, sources in 192.168/16, UDP to port 80.
    pub fn new(seed: u64) -> TraceBuilder {
        TraceBuilder {
            seed,
            rate: LineRateCalc::TEN_GIG,
            space: FlowSpace {
                flows: 64,
                src_base: 0xc0a8_0000,
                dst_base: 0x0808_0000,
                dport: 80,
            },
            size: SizeModel::Imix,
            arrival: ArrivalModel::Paced { utilization: 0.5 },
            tcp_share: 0.0,
            microbursts: Vec::new(),
        }
    }

    /// Set the line-rate calculator.
    pub fn rate(mut self, rate: LineRateCalc) -> TraceBuilder {
        self.rate = rate;
        self
    }

    /// Set the number of distinct flows.
    pub fn flows(mut self, n: usize) -> TraceBuilder {
        assert!(n > 0);
        self.space.flows = n;
        self
    }

    /// Set the packet-size model.
    pub fn sizes(mut self, s: SizeModel) -> TraceBuilder {
        self.size = s;
        self
    }

    /// Set the arrival process.
    pub fn arrivals(mut self, a: ArrivalModel) -> TraceBuilder {
        self.arrival = a;
        self
    }

    /// Set the base of the source address range (one address per flow,
    /// ascending).
    pub fn src_base(mut self, base: u32) -> TraceBuilder {
        self.space.src_base = base;
        self
    }

    /// Set the base of the destination address range.
    ///
    /// Test-only: `crates/host/tests/cage_run.rs`: traffic to one chosen
    /// subnet, which no product workload needs.
    pub fn dst_base(mut self, base: u32) -> TraceBuilder {
        self.space.dst_base = base;
        self
    }

    /// Set the destination port.
    pub fn dport(mut self, p: u16) -> TraceBuilder {
        self.space.dport = p;
        self
    }

    /// Fraction of flows that are TCP (rest UDP).
    pub fn tcp_share(mut self, share: f64) -> TraceBuilder {
        self.tcp_share = share.clamp(0.0, 1.0);
        self
    }

    /// Inject a microburst at `at_ns`: `packets` back-to-back maximum-
    /// size frames on top of the paced traffic.
    pub fn microburst(mut self, at_ns: u64, packets: usize) -> TraceBuilder {
        self.microbursts.push((at_ns, packets));
        self
    }

    /// Draw each flow's protocol, in flow order, from the population's
    /// own RNG stream.
    fn tcp_set(&self) -> TcpSet {
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0xf10f_f10f);
        let mut bits = vec![0u64; self.space.flows.div_ceil(64)];
        // No draw is below a zero share, and nothing else reads this
        // RNG: an all-UDP population needs no draws at all.
        if self.tcp_share > 0.0 {
            for i in 0..self.space.flows {
                bits[i / 64] |= u64::from(rng.next_f64() < self.tcp_share) << (i % 64);
            }
        }
        TcpSet(bits)
    }

    /// Build one flow frame in place into `buf` (leased from an arena or
    /// any reusable vector); at most one allocation, and none once `buf`
    /// has full-frame capacity.
    fn build_frame_into(flow: &FlowSpec, len: usize, seq: u32, buf: &mut Vec<u8>) {
        let (dst_mac, src_mac) = (MacAddr::from(DST_MAC), MacAddr::from(SRC_MAC));
        let headers = if flow.tcp { 14 + 20 + 20 } else { 14 + 20 + 8 };
        let payload_len = len.saturating_sub(headers);
        // Oversized (jumbo) requests fall back to a scratch payload; every
        // standard size borrows the constant filler.
        let scratch;
        let payload: &[u8] = if payload_len <= PAYLOAD_FILL.len() {
            &PAYLOAD_FILL[..payload_len]
        } else {
            scratch = vec![FILL; payload_len];
            &scratch
        };
        if flow.tcp {
            PacketBuilder::eth_ipv4_tcp_into(
                buf,
                dst_mac,
                src_mac,
                flow.src,
                flow.dst,
                flow.sport,
                flow.dport,
                seq,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                payload,
            );
        } else {
            PacketBuilder::eth_ipv4_udp_into(
                buf, dst_mac, src_mac, flow.src, flow.dst, flow.sport, flow.dport, payload,
            );
        }
    }

    fn build_frame(flow: &FlowSpec, len: usize, seq: u32) -> Vec<u8> {
        let mut frame = Vec::new();
        Self::build_frame_into(flow, len, seq, &mut frame);
        frame
    }

    /// Generate `count` packets (plus any injected microbursts), sorted
    /// by arrival time, each frame's buffer sized to the frame.
    ///
    /// This is [`stream`](Self::stream) collected: the materialized and
    /// streaming paths share one generator, so they can never diverge,
    /// and the stream's exact length sizes the vector, bursts included.
    pub fn build(&self, count: usize) -> Vec<TracePacket> {
        self.stream(count).collect()
    }

    /// Stream the same trace [`build`](Self::build) materializes — same
    /// RNG stream, same frames, same arrival order — holding only O(1)
    /// state (plus any injected microbursts, which are pre-materialized).
    /// Memory no longer scales with trace length, so 10M+-packet runs
    /// are feasible. Each frame is a fresh buffer sized to the frame.
    pub fn stream(&self, count: usize) -> TraceStream {
        self.stream_from(count, None)
    }

    /// Like [`stream`](Self::stream), but lease frame buffers from the
    /// caller's [`PacketArena`], each paced frame from the arena's class
    /// for its length. A consumer that recycles frames back into the same
    /// arena (e.g. after `FlexSfp::run_stream_with` in `flexsfp-core`
    /// emits them) keeps the whole run allocation-free in steady state.
    pub fn stream_pooled(&self, count: usize, arena: PacketArena) -> TraceStream {
        self.stream_from(count, Some(arena))
    }

    fn stream_from(&self, count: usize, arena: Option<PacketArena>) -> TraceStream {
        let tcp = self.tcp_set();
        // Microbursts: back-to-back 1514 B frames at line rate. They are
        // few and bounded by configuration, so they are materialized up
        // front and stably merged with the paced stream. Stable sort here
        // + "main wins ties" in the merge reproduces build()'s historical
        // stable sort of [paced..., bursts...] exactly.
        let mut bursts: Vec<TracePacket> = Vec::new();
        for &(at_ns, packets) in &self.microbursts {
            let gap_ns = self.rate.gap_ns(1514, 1.0);
            for k in 0..packets {
                let i = k % self.space.flows;
                let flow = self.space.spec(i, tcp.contains(i));
                bursts.push(TracePacket {
                    arrival_ns: at_ns + (k as f64 * gap_ns) as u64,
                    frame: Self::build_frame(&flow, 1514, k as u32),
                });
            }
        }
        bursts.sort_by_key(|p| p.arrival_ns);
        TraceStream {
            rng: Xoshiro256::seed_from_u64(self.seed),
            space: self.space,
            tcp,
            udp: UdpTemplate::new(self.space.dport),
            size: self.size,
            arrival: self.arrival,
            rate: self.rate,
            arena,
            t_fs: Some(0),
            next_seq: 0,
            count,
            bursts: bursts.into(),
            last_gap: (usize::MAX, 0.0),
        }
    }
}

/// The Internet checksum of a header whose 16-bit words add up to
/// `sum`. Exact, not incremental: one's-complement addition is
/// associative and commutative, and folding any positive sum lands on
/// the one representative in `1..=0xffff` of its class modulo `0xffff`,
/// so regrouping the words into precomputed partial sums gives the very
/// bits [`checksum::checksum`] gives over the finished header.
fn finish_checksum(sum: u32) -> u16 {
    !(checksum::fold(sum) as u16)
}

/// The one UDP frame every UDP flow of a stream is stamped from. The
/// frame builder does not consume the sequence number and the payload
/// is constant filler, so a UDP frame is a pure function of (source,
/// destination, source port, length): copy the template's first `len`
/// bytes, patch those fields and both length fields, and rebuild both
/// checksums from the partial sums of everything that never changes.
#[derive(Debug)]
struct UdpTemplate {
    /// A full-size frame from the reference builder with every
    /// per-packet field zeroed.
    frame: Vec<u8>,
    /// One's-complement sum of the IPv4 header's constant fields.
    ip_base: u32,
    /// One's-complement sum of the constants the UDP checksum covers: the
    /// pseudo-header's protocol and the destination port.
    udp_base: u32,
}

impl UdpTemplate {
    fn new(dport: u16) -> UdpTemplate {
        let mut frame = Vec::new();
        PacketBuilder::eth_ipv4_udp_into(
            &mut frame,
            MacAddr::from(DST_MAC),
            MacAddr::from(SRC_MAC),
            0,
            0,
            0,
            dport,
            &PAYLOAD_FILL[..PAYLOAD_FILL.len() - UDP_HEADERS],
        );
        // IPv4 total length and checksum, UDP length and checksum.
        for field in [16, 24, 38, 40] {
            frame[field..field + 2].fill(0);
        }
        UdpTemplate {
            ip_base: checksum::raw_sum(&frame[14..34]),
            udp_base: 17 + checksum::raw_sum(&frame[34..UDP_HEADERS]),
            frame,
        }
    }

    /// Write `flow`'s `len`-byte frame into `out`: byte for byte what
    /// [`PacketBuilder::eth_ipv4_udp_into`] builds. `len` must not
    /// exceed the template (`PAYLOAD_FILL.len()`).
    fn stamp(&self, flow: &FlowSpec, len: usize, out: &mut Vec<u8>) {
        let payload_len = len.saturating_sub(UDP_HEADERS);
        let body = UDP_HEADERS + payload_len;
        out.clear();
        out.reserve(body.max(60)); // exact in a fresh buffer, where padding would double it
        out.extend_from_slice(&self.frame[..body]);
        if body < 60 {
            out.resize(60, 0); // Ethernet minimum: zero padding, not filler
        }
        let ip_total = (20 + 8 + payload_len) as u16;
        let udp_len = (8 + payload_len) as u16;
        let addrs = (flow.src >> 16) + (flow.src & 0xffff) + (flow.dst >> 16) + (flow.dst & 0xffff);
        let ip_check = finish_checksum(self.ip_base + u32::from(ip_total) + addrs);
        let filler = u32::from(u16::from_be_bytes([FILL, FILL])) * (payload_len / 2) as u32
            + u32::from(u16::from_be_bytes([FILL, 0])) * (payload_len % 2) as u32;
        let mut udp_check = finish_checksum(
            self.udp_base + addrs + u32::from(flow.sport) + 2 * u32::from(udp_len) + filler,
        );
        if udp_check == 0 {
            udp_check = 0xffff; // RFC 768: zero means "no checksum"
        }
        let h = &mut out[..UDP_HEADERS];
        h[16..18].copy_from_slice(&ip_total.to_be_bytes());
        h[24..26].copy_from_slice(&ip_check.to_be_bytes());
        h[26..30].copy_from_slice(&flow.src.to_be_bytes());
        h[30..34].copy_from_slice(&flow.dst.to_be_bytes());
        h[34..36].copy_from_slice(&flow.sport.to_be_bytes());
        h[38..40].copy_from_slice(&udp_len.to_be_bytes());
        h[40..42].copy_from_slice(&udp_check.to_be_bytes());
    }
}

/// Streaming counterpart of [`TraceBuilder::build`]; see
/// [`TraceBuilder::stream`]. Yields packets sorted by arrival time.
#[derive(Debug)]
pub struct TraceStream {
    rng: Xoshiro256,
    space: FlowSpace,
    tcp: TcpSet,
    /// UDP frames are stamped from this; TCP flows embed the per-packet
    /// sequence number and are always built in full.
    udp: UdpTemplate,
    size: SizeModel,
    arrival: ArrivalModel,
    rate: LineRateCalc,
    /// Paced frames are leased from here; without one each is a fresh
    /// buffer the builders size to the frame.
    arena: Option<PacketArena>,
    /// The next paced arrival in femtoseconds, for exact pacing;
    /// `None` once it lies at or past 2⁶⁴ fs (≈ 5.1 h).
    t_fs: Option<u64>,
    next_seq: usize,
    count: usize,
    bursts: VecDeque<TracePacket>,
    /// One-entry memo of `rate.gap_ns(len, utilization)` keyed on frame
    /// length — the gap is a pure function of length for a fixed stream.
    last_gap: (usize, f64),
}

impl Iterator for TraceStream {
    type Item = TracePacket;

    fn next(&mut self) -> Option<TracePacket> {
        // Merge the paced stream with pre-materialized bursts; on an
        // arrival-time tie the paced packet goes first (it preceded the
        // burst in the historical stable sort).
        let main_arrival = (self.next_seq < self.count).then(|| {
            let t_fs = self
                .t_fs
                .expect("paced arrival at or past the 2^64 fs (about 5.1 h) bound of a trace");
            t_fs / 1_000_000
        });
        match (main_arrival, self.bursts.front()) {
            (None, None) => return None,
            (None, Some(_)) => return self.bursts.pop_front(),
            (Some(m), Some(b)) if b.arrival_ns < m => return self.bursts.pop_front(),
            _ => {}
        }
        let arrival_ns = main_arrival.expect("paced packet pending");
        let flow_idx = self.rng.range_usize(0, self.space.flows);
        let flow = self.space.spec(flow_idx, self.tcp.contains(flow_idx));
        let len = self.size.sample(&mut self.rng);
        let mut frame = self
            .arena
            .as_ref()
            .map_or_else(Vec::new, |arena| arena.lease_for(len));
        if flow.tcp || len > PAYLOAD_FILL.len() {
            TraceBuilder::build_frame_into(&flow, len, self.next_seq as u32, &mut frame);
        } else {
            self.udp.stamp(&flow, len, &mut frame);
        }
        let mean_gap = if self.last_gap.0 == frame.len() {
            self.last_gap.1
        } else {
            let utilization = match self.arrival {
                ArrivalModel::Paced { utilization } | ArrivalModel::Poisson { utilization } => {
                    utilization
                }
            };
            let g = self.rate.gap_ns(frame.len(), utilization);
            self.last_gap = (frame.len(), g);
            g
        };
        let mean_gap_ns = match self.arrival {
            ArrivalModel::Paced { .. } => mean_gap,
            ArrivalModel::Poisson { .. } => self.rng.exp(mean_gap),
        };
        // `as` saturates, so a gap that alone reaches 2⁶⁴ fs must not
        // reach the sum.
        let gap_fs = mean_gap_ns * 1e6;
        self.t_fs = self
            .t_fs
            .filter(|_| gap_fs < u64::MAX as f64)
            .and_then(|t| t.checked_add(gap_fs as u64));
        self.next_seq += 1;
        Some(TracePacket { arrival_ns, frame })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.count - self.next_seq + self.bursts.len();
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::EthernetFrame;

    #[test]
    fn deterministic_for_same_seed() {
        let a = TraceBuilder::new(42).build(200);
        let b = TraceBuilder::new(42).build(200);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.frame, y.frame);
        }
        let c = TraceBuilder::new(43).build(200);
        assert!(a.iter().zip(&c).any(|(x, y)| x.frame != y.frame));
    }

    /// The flow population `b` uses.
    fn flow_specs(b: &TraceBuilder) -> Vec<FlowSpec> {
        let tcp = b.tcp_set();
        (0..b.space.flows)
            .map(|i| b.space.spec(i, tcp.contains(i)))
            .collect()
    }

    /// What `stamp` must reproduce: the reference builder's frame.
    fn built(flow: &FlowSpec, len: usize) -> Vec<u8> {
        assert!(!flow.tcp);
        TraceBuilder::build_frame(flow, len, 0)
    }

    #[test]
    fn stamped_udp_frames_equal_the_builder() {
        let mut rng = Xoshiro256::seed_from_u64(0x57a3_9ed0);
        let mut out = Vec::new();
        for i in 0..10_000 {
            let dport = rng.next_u64() as u16;
            let template = UdpTemplate::new(dport);
            let flow = FlowSpec {
                src: rng.next_u64() as u32,
                dst: rng.next_u64() as u32,
                sport: rng.next_u64() as u16,
                dport,
                tcp: false,
            };
            // Every IMIX length, the runt and padded ones below the
            // Ethernet minimum, odd and even payloads, the largest.
            let len = match i % 8 {
                0 => 60,
                1 => 590,
                2 => 1514,
                3 => rng.range_inclusive_usize(0, 61),
                _ => rng.range_inclusive_usize(42, 1514),
            };
            template.stamp(&flow, len, &mut out);
            assert_eq!(out, built(&flow, len), "{flow:?} at {len} B");
            let mut fresh = Vec::new();
            template.stamp(&flow, len, &mut fresh);
            assert_eq!(fresh.capacity(), fresh.len(), "a fresh {len} B stamp");
        }
    }

    #[test]
    fn stamped_udp_checksum_of_zero_is_sent_as_ffff() {
        // Solve for the source port that makes the checksummed words
        // add up to 0xffff, so the complement is 0x0000: RFC 768 sends
        // 0xffff instead, and so must the stamp.
        let template = UdpTemplate::new(80);
        let mut flow = FlowSpec {
            src: 0xc0a8_0007,
            dst: 0x0808_0003,
            sport: 0,
            dport: 80,
            tcp: false,
        };
        for len in [60, 61, 590, 1514] {
            flow.sport = 0;
            let zero_port = built(&flow, len);
            let check = u16::from_be_bytes([zero_port[40], zero_port[41]]);
            // With sport 0 the words sum to !check; sport = check tops
            // them up to 0xffff.
            flow.sport = check;
            let reference = built(&flow, len);
            assert_eq!(reference[40..42], [0xff, 0xff], "not the zero case");
            let mut out = Vec::new();
            template.stamp(&flow, len, &mut out);
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn streamed_udp_frames_equal_the_builder_across_the_jumbo_fallback() {
        // Lengths on both sides of the template's size: past it the
        // stream builds the frame in full.
        let b = TraceBuilder::new(17)
            .flows(40)
            .tcp_share(0.3)
            .sizes(SizeModel::Uniform(60, 1_600));
        let specs = flow_specs(&b);
        let (mut udp, mut jumbo) = (0, 0);
        for p in b.stream(3_000) {
            let src = u32::from_be_bytes(p.frame[26..30].try_into().unwrap());
            let flow = &specs[(src - 0xc0a8_0000) as usize];
            if !flow.tcp {
                assert_eq!(p.frame, built(flow, p.frame.len()));
                udp += 1;
                jumbo += usize::from(p.frame.len() > PAYLOAD_FILL.len());
            }
        }
        assert!(udp > 1_500 && jumbo > 20, "{udp} UDP, {jumbo} jumbo");
    }

    #[test]
    fn frames_are_valid_and_sorted() {
        let trace = TraceBuilder::new(7).tcp_share(0.5).build(500);
        let mut last = 0;
        for p in &trace {
            assert!(p.arrival_ns >= last);
            last = p.arrival_ns;
            let eth = EthernetFrame::new_checked(&p.frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            assert!(ip.verify_checksum());
        }
    }

    #[test]
    fn paced_arrivals_hit_target_rate() {
        // 2000 fixed-size frames at 50% of 10G.
        let trace = TraceBuilder::new(1)
            .sizes(SizeModel::Fixed(1000))
            .arrivals(ArrivalModel::Paced { utilization: 0.5 })
            .build(2_000);
        let span_ns = trace.last().unwrap().arrival_ns - trace[0].arrival_ns;
        let bits: f64 = trace.iter().map(|p| (p.frame.len() * 8) as f64).sum();
        let rate = bits / (span_ns as f64 / 1e9);
        // Offered frame-bit rate should be ~0.5 × 10G × 1000/1024ths
        // of wire share; just assert the 10% band around goodput.
        let expected = LineRateCalc::TEN_GIG.max_fps(1000) * 0.5 * 8_000.0;
        assert!(
            (rate - expected).abs() / expected < 0.05,
            "rate {rate:.3e} vs {expected:.3e}"
        );
    }

    #[test]
    fn poisson_mean_matches_paced() {
        let paced = TraceBuilder::new(5)
            .sizes(SizeModel::Fixed(500))
            .arrivals(ArrivalModel::Paced { utilization: 0.3 })
            .build(5_000);
        let poisson = TraceBuilder::new(5)
            .sizes(SizeModel::Fixed(500))
            .arrivals(ArrivalModel::Poisson { utilization: 0.3 })
            .build(5_000);
        let span = |t: &[TracePacket]| (t.last().unwrap().arrival_ns - t[0].arrival_ns) as f64;
        let ratio = span(&poisson) / span(&paced);
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn imix_distribution() {
        let trace = TraceBuilder::new(3).sizes(SizeModel::Imix).build(12_000);
        let small = trace.iter().filter(|p| p.frame.len() == 60).count() as f64;
        let mid = trace.iter().filter(|p| p.frame.len() == 590).count() as f64;
        let big = trace.iter().filter(|p| p.frame.len() == 1514).count() as f64;
        let total = trace.len() as f64;
        assert!((small / total - 7.0 / 12.0).abs() < 0.03);
        assert!((mid / total - 4.0 / 12.0).abs() < 0.03);
        assert!((big / total - 1.0 / 12.0).abs() < 0.03);
    }

    #[test]
    fn flow_population_respected() {
        let b = TraceBuilder::new(9).flows(8);
        let specs = flow_specs(&b);
        assert_eq!(specs.len(), 8);
        let trace = b.build(1_000);
        let mut srcs = std::collections::HashSet::new();
        for p in &trace {
            let eth = EthernetFrame::new_checked(&p.frame[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            srcs.insert(ip.src());
        }
        assert_eq!(srcs.len(), 8);
        assert!(srcs.contains(&0xc0a8_0000));
    }

    #[test]
    fn microburst_injected_back_to_back() {
        let trace = TraceBuilder::new(2)
            .sizes(SizeModel::Fixed(60))
            .arrivals(ArrivalModel::Paced { utilization: 0.01 })
            .microburst(1_000_000, 50)
            .build(100);
        let burst: Vec<_> = trace
            .iter()
            .filter(|p| (1_000_000..1_200_000).contains(&p.arrival_ns) && p.frame.len() == 1514)
            .collect();
        assert_eq!(burst.len(), 50);
        // Back-to-back at line rate: ~1.23 µs per 1514+24 B frame.
        let gap = burst[1].arrival_ns - burst[0].arrival_ns;
        assert!((1_200..1_260).contains(&gap), "gap {gap}");
    }

    /// A 60 B stream at `utilization` of 10 G: one gap is `67.2 /
    /// utilization` ns.
    fn sparse(utilization: f64) -> TraceBuilder {
        TraceBuilder::new(3)
            .sizes(SizeModel::Fixed(60))
            .arrivals(ArrivalModel::Paced { utilization })
    }

    #[test]
    #[should_panic(expected = "2^64 fs")]
    fn a_gap_past_two_to_the_64_fs_panics_at_the_arrival_it_delays() {
        // 6.72e19 fs: the second arrival is past 2⁶⁴ fs.
        sparse(1e-12).build(2);
    }

    #[test]
    #[should_panic(expected = "2^64 fs")]
    fn gaps_summing_past_two_to_the_64_fs_panic() {
        // 1.344e19 fs a gap: the second arrival fits, the third does not.
        sparse(5e-12).build(3);
    }

    #[test]
    fn a_stream_that_ends_below_the_bound_yields_every_packet() {
        let one = sparse(1e-12).build(1);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].arrival_ns, 0);
        let two = sparse(5e-12).build(2);
        assert_eq!(two[1].arrival_ns, 13_440_000_000_000);
    }

    #[test]
    fn tcp_share_produces_tcp_flows() {
        let specs = flow_specs(&TraceBuilder::new(11).flows(100).tcp_share(1.0));
        assert!(specs.iter().all(|f| f.tcp));
        let none = flow_specs(&TraceBuilder::new(11).flows(100).tcp_share(0.0));
        assert!(none.iter().all(|f| !f.tcp));
    }
}
