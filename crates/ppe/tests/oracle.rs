//! Differential oracle for the PPE's pure actions.
//!
//! `ActionEngine::apply` edits a packet by compiling the action to plan
//! ops and running them, and a cached flow replays those same ops, so
//! inside the datapath there is one implementation and nothing to hold
//! it against. The reference lives here instead, beside the platform:
//! it is written with `flexsfp_wire` alone (`Ipv4Packet`'s incremental
//! rewrites, `checksum::update32`, `vlan::push_tag`/`pop_tag`,
//! `Tci`) and finds its headers with its own walk, not the PPE's parser.
//!
//! Every property runs [`FRAMES`] seeded flows per pure action; a
//! failure names the action and the flow's index, which reproduce it.

use flexsfp_ppe::action::{Action, ActionEngine, ActionOutcome};
use flexsfp_ppe::cache::{replay, PlanRecorder};
use flexsfp_ppe::counters::CounterBank;
use flexsfp_ppe::{Direction, FlowKey, Parser, Verdict};
use flexsfp_traffic::rng::Xoshiro256;
use flexsfp_wire::vlan::{self, Tci};
use flexsfp_wire::{
    checksum, ethernet, EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram,
    VlanFrame,
};

/// Seeded flows per pure action.
const FRAMES: u64 = 2_048;

/// Counters in the bank; [`Action::Count`] also draws two indices past it.
const COUNTERS: usize = 4;

/// The pure actions, by the name a failure prints.
const KINDS: [&str; 6] = [
    "SetIpv4Src",
    "SetIpv4Dst",
    "PushVlan",
    "PushSTag",
    "PopVlan",
    "Count",
];

/// What every packet of one flow has in common: all the flow key covers,
/// plus the structure (options, TCP header length, where the frame is
/// cut) that decides how the packet parses.
struct Flow {
    /// TPID + TCI of each tag, outermost first; 0 to 3 of them.
    tags: Vec<[u8; 4]>,
    ethertype: u16,
    tos: u8,
    src: u32,
    dst: u32,
    proto: u8,
    sport: u16,
    dport: u16,
    more_frags: bool,
    frag_offset: u16,
    /// 32-bit words of IP options; 0 is the canonical header.
    option_words: usize,
    /// TCP data offset in words, 5 to 15.
    tcp_words: usize,
    /// Bytes of the L4 header left when the frame ends inside it, and
    /// whether the IP total length was adjusted to the cut.
    cut: Option<(usize, bool)>,
    /// Bytes left behind the Ethernet header when the frame is a runt.
    runt: Option<usize>,
}

impl Flow {
    fn draw(rng: &mut Xoshiro256) -> Flow {
        let r = rng.next_u64();
        let tags = (0..[0, 0, 0, 1, 1, 2, 2, 3][r as usize % 8])
            .map(|_| {
                let t = rng.next_u64();
                let tpid: u16 = if t & 1 == 0 { 0x8100 } else { 0x88a8 };
                let [a, b] = tpid.to_be_bytes();
                [a, b, (t >> 8) as u8, (t >> 16) as u8]
            })
            .collect();
        let proto = [17, 17, 17, 6, 6, 6, 1, 47, 50, (r >> 40) as u8][(r >> 8) as usize % 10];
        let tcp_words = match (r >> 12) % 4 {
            0 => 5 + (r >> 14) as usize % 11,
            _ => 5,
        };
        let l4_header = match proto {
            6 => tcp_words * 4,
            _ => 8,
        };
        let (more_frags, frag_offset) = match (r >> 20) % 8 {
            0 => (true, 0),                          // first fragment
            1 => (true, (r >> 48) as u16 % 64 + 1),  // middle fragment
            2 => (false, (r >> 48) as u16 % 64 + 1), // last fragment
            _ => (false, 0),
        };
        let a = rng.next_u64();
        Flow {
            tags,
            ethertype: match (r >> 24) % 16 {
                0 => 0x86dd,
                1 => 0x0806,
                2 => 0x9999,
                _ => 0x0800,
            },
            tos: (r >> 32) as u8,
            src: a as u32,
            dst: (a >> 32) as u32,
            proto,
            sport: (r >> 48) as u16,
            dport: (r >> 4) as u16,
            more_frags,
            frag_offset,
            option_words: match (r >> 28) % 8 {
                0 => 1 + (r >> 31) as usize % 10,
                _ => 0,
            },
            tcp_words,
            cut: match rng.next_u64() {
                c if c % 4 == 0 => Some(((c >> 8) as usize % l4_header, c >> 2 & 1 == 0)),
                _ => None,
            },
            runt: match a % 16 {
                0 => Some((a >> 8) as usize % 25),
                _ => None,
            },
        }
    }

    /// One packet of the flow: its own MACs, id, TTL, payload, padding
    /// and checksum state (valid, UDP "none", or noise).
    fn packet(&self, rng: &mut Xoshiro256) -> Vec<u8> {
        let r = rng.next_u64();
        let payload: Vec<u8> = (0..rng.range_usize(0, 48))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut l4 = match self.proto {
            6 => vec![0u8; self.tcp_words * 4],
            _ => vec![0u8; 8],
        };
        l4.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        l4.extend_from_slice(&payload);
        match self.proto {
            17 => {
                let len = l4.len() as u16;
                // 0: checksum disabled, 1: noise, else a valid checksum.
                let checksum = r % 4;
                if checksum == 0 {
                    l4[6..8].fill(0);
                }
                let mut udp = UdpDatagram::new_unchecked(&mut l4[..]);
                udp.set_src_port(self.sport);
                udp.set_dst_port(self.dport);
                udp.set_len(len);
                if checksum > 1 {
                    udp.fill_checksum_v4(self.src, self.dst);
                }
            }
            6 => {
                let mut tcp = TcpSegment::new_unchecked(&mut l4[..]);
                tcp.set_src_port(self.sport);
                tcp.set_dst_port(self.dport);
                tcp.set_header_len(self.tcp_words * 4);
                if r % 4 != 1 {
                    tcp.fill_checksum_v4(self.src, self.dst);
                }
            }
            _ => {}
        }
        let ihl = 20 + 4 * self.option_words;
        let mut ip = vec![0u8; ihl];
        ip.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        ip[1] = self.tos;
        let mut total = ihl + l4.len();
        if let Some((keep, adjust)) = self.cut {
            l4.truncate(keep);
            if adjust {
                total = ihl + keep;
            }
        }
        let mut v = Ipv4Packet::new_unchecked(&mut ip[..]);
        v.set_version(4);
        v.set_header_len(ihl);
        v.set_total_len(total as u16);
        v.set_fragment(r >> 8 & 1 == 0, self.more_frags, self.frag_offset);
        v.set_ttl((r >> 16) as u8 | 1);
        v.set_protocol(IpProtocol::from_u8(self.proto));
        v.set_src(self.src);
        v.set_dst(self.dst);
        if r >> 4 & 3 != 0 {
            v.fill_checksum(); // else noise
        }
        let mut frame: Vec<u8> = (0..12).map(|_| rng.next_u64() as u8).collect();
        for tag in &self.tags {
            frame.extend_from_slice(tag);
        }
        frame.extend_from_slice(&self.ethertype.to_be_bytes());
        frame.extend_from_slice(&ip);
        frame.extend_from_slice(&l4);
        if self.cut.is_none() {
            frame.resize(frame.len() + (r >> 24) as usize % 8, 0);
        }
        if let Some(keep) = self.runt {
            frame.truncate(ethernet::HEADER_LEN + keep);
        }
        frame
    }
}

fn be16(frame: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([frame[at], frame[at + 1]])
}

/// Offset of the IPv4 header a FlexSFP parser finds: behind at most two
/// tags, and only when `Ipv4Packet::new_checked` takes it.
fn ipv4_offset(frame: &[u8]) -> Option<usize> {
    let mut ethertype = EthernetFrame::new_checked(frame).ok()?.ethertype();
    let mut off = ethernet::HEADER_LEN;
    for _ in 0..2 {
        if !ethertype.is_vlan() {
            break;
        }
        ethertype = VlanFrame::new_checked(&frame[off..])
            .ok()?
            .inner_ethertype();
        off += vlan::TAG_LEN;
    }
    (ethertype == EtherType::Ipv4 && Ipv4Packet::new_checked(&frame[off..]).is_ok()).then_some(off)
}

/// Where the checksum sits whose pseudo-header holds this packet's
/// addresses, and whether it is UDP's: a TCP or UDP header that is whole
/// and not behind a fragment offset.
fn l4_checksum_at(frame: &[u8], off: usize) -> Option<(usize, bool)> {
    let ip = Ipv4Packet::new_checked(&frame[off..]).ok()?;
    if ip.frag_offset() != 0 {
        return None;
    }
    let l4 = off + ip.header_len();
    match ip.protocol() {
        IpProtocol::Tcp => TcpSegment::new_checked(ip.payload())
            .ok()
            .map(|_| (l4 + 16, false)),
        IpProtocol::Udp => UdpDatagram::new_checked(ip.payload())
            .ok()
            .map(|_| (l4 + 6, true)),
        _ => None,
    }
}

/// Whether the IP header checksum and the TCP/UDP checksum verify;
/// `None` where the frame has none to verify (no IPv4, a fragment, a
/// header that is cut).
fn verified(frame: &[u8]) -> [Option<bool>; 2] {
    let Some(off) = ipv4_offset(frame) else {
        return [None, None];
    };
    let ip = Ipv4Packet::new_unchecked(&frame[off..]);
    let (src, dst) = (ip.src(), ip.dst());
    let l4 = match ip.protocol() {
        _ if ip.is_fragment() => None,
        IpProtocol::Tcp => TcpSegment::new_checked(ip.payload())
            .ok()
            .map(|t| t.verify_checksum_v4(src, dst)),
        IpProtocol::Udp => UdpDatagram::new_checked(ip.payload())
            .ok()
            .map(|u| u.verify_checksum_v4(src, dst)),
        _ => None,
    };
    [Some(ip.verify_checksum()), l4]
}

/// The reference: what `action` does to `frame`, in `flexsfp_wire`
/// terms. Returns whether the bytes changed hands (`modified`); counts
/// land in `counters` as `(packets, bytes)`.
fn reference(action: Action, frame: &mut Vec<u8>, counters: &mut [(u64, u64)]) -> bool {
    match action {
        Action::SetIpv4Src(new) | Action::SetIpv4Dst(new) => {
            let is_src = matches!(action, Action::SetIpv4Src(_));
            let Some(off) = ipv4_offset(frame) else {
                return false;
            };
            let l4 = l4_checksum_at(frame, off);
            let mut ip = Ipv4Packet::new_unchecked(&mut frame[off..]);
            let old = if is_src { ip.src() } else { ip.dst() };
            if old == new {
                return false;
            }
            if is_src {
                ip.rewrite_src_incremental(new);
            } else {
                ip.rewrite_dst_incremental(new);
            }
            if let Some((at, udp)) = l4 {
                let field = be16(frame, at);
                // UDP: 0 means "no checksum" and stays; a sum of 0 is sent as 0xffff.
                if !(udp && field == 0) {
                    let mut patched = checksum::update32(field, old, new);
                    if udp && patched == 0 {
                        patched = 0xffff;
                    }
                    frame[at..at + 2].copy_from_slice(&patched.to_be_bytes());
                }
            }
            true
        }
        Action::PushVlan { vid, pcp } => {
            let tci = Tci {
                pcp,
                dei: false,
                vid,
            };
            *frame = vlan::push_tag(frame, EtherType::Vlan, tci).unwrap();
            true
        }
        Action::PushSTag { vid } => {
            let tci = Tci {
                pcp: 0,
                dei: false,
                vid,
            };
            *frame = vlan::push_tag(frame, EtherType::QinQ, tci).unwrap();
            true
        }
        Action::PopVlan => match vlan::pop_tag(frame) {
            Ok((_, untagged)) => {
                *frame = untagged;
                true
            }
            Err(_) => false,
        },
        Action::Count(idx) => {
            if let Some(c) = counters.get_mut(idx) {
                c.0 += 1;
                c.1 += frame.len() as u64;
            }
            false
        }
        other => panic!("{other:?} is not a pure action"),
    }
}

/// An address whose rewrite from `old` drives `frame`'s UDP checksum to
/// zero (which UDP must send as 0xffff), when the frame has one to drive.
fn folds_udp_to_zero(frame: &[u8], old: u32) -> Option<u32> {
    let (at, udp) = l4_checksum_at(frame, ipv4_offset(frame)?)?;
    let field = be16(frame, at);
    if !udp || field == 0 {
        return None;
    }
    (0..=0xffff)
        .map(|low| old & 0xffff_0000 | low)
        .find(|&new| new != old && checksum::update32(field, old, new) == 0)
}

/// An action of kind `kind` (an index into [`KINDS`]) for a flow whose
/// first packet is `frame`, with the operands that make it a no-op or
/// hit a checksum edge mixed in.
fn draw_action(kind: usize, flow: &Flow, frame: &[u8], rng: &mut Xoshiro256) -> Action {
    let r = rng.next_u64();
    let address = |old: u32| match r % 8 {
        0 => old, // the address already there
        1 => folds_udp_to_zero(frame, old).unwrap_or((r >> 32) as u32),
        _ => (r >> 32) as u32,
    };
    match kind {
        0 => Action::SetIpv4Src(address(flow.src)),
        1 => Action::SetIpv4Dst(address(flow.dst)),
        2 => Action::PushVlan {
            vid: (r >> 8) as u16,
            pcp: (r >> 24) as u8,
        },
        3 => Action::PushSTag {
            vid: (r >> 8) as u16,
        },
        4 => Action::PopVlan,
        _ => Action::Count((r >> 8) as usize % (COUNTERS + 2)),
    }
}

/// `apply(.., rec)` on a copy of `frame`: the outcome and the bytes.
fn apply(
    engine: &mut ActionEngine,
    action: Action,
    frame: &[u8],
    rec: Option<&mut PlanRecorder>,
) -> (ActionOutcome, Vec<u8>) {
    let mut packet = frame.to_vec();
    let parsed = Parser.parse(&packet).expect("14 bytes and more parse");
    let out = engine.apply(action, &mut packet, &parsed, rec);
    (out, packet)
}

fn counts(bank: &CounterBank) -> Vec<(u64, u64)> {
    (0..COUNTERS)
        .map(|i| bank.get(i).expect("in the bank"))
        .map(|c| (c.packets, c.bytes))
        .collect()
}

/// `apply(.., None)` equals the wire-level reference in bytes, outcome
/// and counters, and leaves every checksum that verified verifying.
#[test]
fn apply_equals_the_wire_level_reference() {
    // Edges the generator must reach, or the property proves less than it says.
    let (mut zero_kept, mut sent_as_ffff, mut in_place, mut tcp, mut cut) = (0, 0, 0, 0, 0);
    for (kind, name) in KINDS.iter().enumerate() {
        let mut rng = Xoshiro256::seed_from_u64(0x0a_c1e + kind as u64);
        let mut engine = ActionEngine::new(COUNTERS);
        let mut model = [(0u64, 0u64); COUNTERS];
        for i in 0..FRAMES {
            let flow = Flow::draw(&mut rng);
            let frame = flow.packet(&mut rng);
            let action = draw_action(kind, &flow, &frame, &mut rng);
            let mut want = frame.clone();
            let modified = reference(action, &mut want, &mut model);
            let (out, got) = apply(&mut engine, action, &frame, None);
            assert_eq!(got, want, "{name} flow {i}: {action:?} on {frame:02x?}");
            assert_eq!(out, ActionOutcome::Continue { modified }, "{name} flow {i}");
            let (before, after) = (verified(&frame), verified(&got));
            for (was, is) in before.iter().zip(after) {
                assert!(
                    *was != Some(true) || is != Some(false),
                    "{name} flow {i}: {action:?} broke a checksum of {frame:02x?}"
                );
            }
            if kind < 2 && modified {
                let l4 = l4_checksum_at(&frame, ipv4_offset(&frame).unwrap());
                match l4.map(|(at, udp)| (udp, be16(&frame, at), be16(&got, at))) {
                    Some((true, 0, now)) => {
                        assert_eq!(now, 0);
                        zero_kept += 1;
                    }
                    Some((true, _, 0xffff)) if before[1] == Some(true) => sent_as_ffff += 1,
                    Some((false, ..)) => tcp += 1,
                    _ => {}
                }
            }
            in_place += usize::from(kind < 2 && !modified && ipv4_offset(&frame).is_some());
            cut += usize::from(flow.cut.is_some());
        }
        assert_eq!(counts(&engine.counters), model, "{name}");
    }
    assert!(
        zero_kept > 50 && sent_as_ffff > 10 && in_place > 200 && tcp > 200 && cut > 2_000,
        "{zero_kept} {sent_as_ffff} {in_place} {tcp} {cut}"
    );
}

/// A plan recorded while `apply` edits one packet of a flow, replayed on
/// another packet of that flow (other length, id, TTL, payload,
/// checksums), equals `apply(.., None)` on that packet.
#[test]
fn a_recorded_plan_replays_on_the_flows_next_packet() {
    for (kind, name) in KINDS.iter().enumerate() {
        let mut rng = Xoshiro256::seed_from_u64(0x2e_91a7 + kind as u64);
        let mut slow = ActionEngine::new(COUNTERS);
        let mut fast = CounterBank::new(COUNTERS);
        let mut replayed = 0;
        for i in 0..FRAMES {
            let flow = Flow::draw(&mut rng);
            let (first, second) = (flow.packet(&mut rng), flow.packet(&mut rng));
            let action = draw_action(kind, &flow, &first, &mut rng);
            // Only frames with a key ever meet the cache.
            let key = FlowKey::extract(&first, Direction::EdgeToOptical);
            assert_eq!(key, FlowKey::extract(&second, Direction::EdgeToOptical));
            if key.is_none() {
                continue;
            }
            let mut rec = PlanRecorder::new();
            let mut scratch = ActionEngine::new(COUNTERS);
            apply(&mut scratch, action, &first, Some(&mut rec));
            let plan = rec.finish(Verdict::Forward).expect("a pure action records");
            let mut got = second.clone();
            assert_eq!(replay(plan.view(), &mut got, &mut fast), Verdict::Forward);
            let (_, want) = apply(&mut slow, action, &second, None);
            assert_eq!(
                got, want,
                "{name} flow {i}: {action:?} recorded on {first:02x?}, replayed on {second:02x?}"
            );
            replayed += 1;
        }
        assert_eq!(counts(&fast), counts(&slow.counters), "{name}");
        assert!(
            replayed > FRAMES / 3,
            "{name}: only {replayed} flows had a key"
        );
    }
}
