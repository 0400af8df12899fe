//! The codelet VM: an XDP-like register machine for packet functions.
//!
//! The paper's workflow (§4.2): "the developer writes the packet function
//! (e.g., an XDP program). An HLS toolchain converts it to HDL and
//! generates an IP core." The codelet ISA is that source language — a
//! loop-free register machine over parsed packet fields, hash tables and
//! counters. [`verify`] enforces the synthesizability constraints
//! (bounded size, forward-only jumps, valid operands) and [`crate::hls`]
//! maps a verified codelet to fabric resources and a clock estimate.

use crate::action::{Action, ActionEngine, ActionOutcome};
use crate::engine::{PacketProcessor, ProcessContext, Verdict};
use crate::parser::{ParsedPacket, Parser, L4};
use crate::tables::HashTable;

/// Number of general-purpose registers.
pub(crate) const NUM_REGS: usize = 11;
/// Maximum program length a codelet core can realize.
pub(crate) const MAX_INSNS: usize = 512;

/// Readable packet/metadata fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// EtherType after VLANs.
    EtherType,
    /// IPv4 source address (0 when not IPv4).
    SrcIp,
    /// IPv4 destination address.
    DstIp,
    /// IP protocol number (0 when not IP).
    Proto,
    /// L4 source port (0 when absent).
    SrcPort,
    /// L4 destination port.
    DstPort,
    /// TCP flags byte.
    TcpFlags,
    /// Frame length in bytes.
    PktLen,
    /// Outermost VLAN id (0xffff when untagged).
    OuterVlan,
    /// Hardware timestamp, ns.
    Timestamp,
    /// IPv4 DSCP.
    Dscp,
    /// IPv4 TTL.
    Ttl,
}

/// Writable packet fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WField {
    /// IPv4 source address (checksums maintained).
    SrcIp,
    /// IPv4 destination address (checksums maintained).
    DstIp,
    /// IPv4 DSCP (checksum maintained).
    Dscp,
}

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (mod 64).
    Shl,
    /// Logical shift right (mod 64).
    Shr,
    /// Move.
    Mov,
}

/// Jump comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Greater (unsigned).
    Gt,
    /// Less (unsigned).
    Lt,
    /// All mask bits set: `(a & b) == b`.
    MaskSet,
}

/// Second operand of compare/ALU-immediate forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(u8),
    /// An immediate.
    Imm(u64),
}

/// Program verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictCode {
    /// Forward the packet.
    Forward,
    /// Drop the packet.
    Drop,
    /// Divert to the control plane.
    ToControlPlane,
}

impl VerdictCode {
    fn to_verdict(self) -> Verdict {
        match self {
            VerdictCode::Forward => Verdict::Forward,
            VerdictCode::Drop => Verdict::Drop,
            VerdictCode::ToControlPlane => Verdict::ToControlPlane,
        }
    }
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `reg = imm`.
    LdImm(u8, u64),
    /// `reg = field`.
    LdField(u8, Field),
    /// `dst = op(dst, operand)`.
    Alu(AluOp, u8, Operand),
    /// Relative forward jump by `n` instructions (1 = next).
    Jmp(u16),
    /// Jump forward by `n` when `cmp(reg, operand)` holds.
    JmpIf(Cmp, u8, Operand, u16),
    /// `r0 = table[key_reg]`, `r1 = hit?1:0`.
    Lookup(u8, u8),
    /// `table[key_reg] = value_reg` (best-effort; r1 = success).
    Update(u8, u8, u8),
    /// Write `reg` into a packet field.
    SetField(WField, u8),
    /// Count packet on counter `idx`.
    Count(u16),
    /// Finish with a verdict.
    Return(VerdictCode),
}

/// Verification errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// Program empty or longer than `MAX_INSNS`.
    BadLength,
    /// Register index ≥ `NUM_REGS`.
    BadRegister(usize),
    /// Jump target outside the program.
    BadJump(usize),
    /// Backward or zero-offset jump (loops are not synthesizable).
    BackwardJump(usize),
    /// Table id out of range.
    BadTable(usize),
    /// Execution can fall off the end (last path lacks `Return`).
    NoReturn,
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for VerifyError {}

/// Verify a program against the synthesizability rules.
pub fn verify(program: &[Insn], num_tables: usize) -> Result<(), VerifyError> {
    if program.is_empty() || program.len() > MAX_INSNS {
        return Err(VerifyError::BadLength);
    }
    let check_reg = |r: u8, at: usize| {
        if usize::from(r) >= NUM_REGS {
            Err(VerifyError::BadRegister(at))
        } else {
            Ok(())
        }
    };
    let check_operand = |o: Operand, at: usize| match o {
        Operand::Reg(r) => check_reg(r, at),
        Operand::Imm(_) => Ok(()),
    };
    for (at, insn) in program.iter().enumerate() {
        match *insn {
            Insn::LdImm(r, _) | Insn::LdField(r, _) | Insn::SetField(_, r) => check_reg(r, at)?,
            Insn::Alu(_, d, o) => {
                check_reg(d, at)?;
                check_operand(o, at)?;
            }
            Insn::Jmp(n) => {
                if n == 0 {
                    return Err(VerifyError::BackwardJump(at));
                }
                if at + usize::from(n) >= program.len() {
                    return Err(VerifyError::BadJump(at));
                }
            }
            Insn::JmpIf(_, r, o, n) => {
                check_reg(r, at)?;
                check_operand(o, at)?;
                if n == 0 {
                    return Err(VerifyError::BackwardJump(at));
                }
                if at + usize::from(n) >= program.len() {
                    return Err(VerifyError::BadJump(at));
                }
            }
            Insn::Lookup(t, r) => {
                check_reg(r, at)?;
                if usize::from(t) >= num_tables {
                    return Err(VerifyError::BadTable(at));
                }
            }
            Insn::Update(t, k, v) => {
                check_reg(k, at)?;
                check_reg(v, at)?;
                if usize::from(t) >= num_tables {
                    return Err(VerifyError::BadTable(at));
                }
            }
            Insn::Count(_) | Insn::Return(_) => {}
        }
    }
    // Falling off the end must be impossible: the last instruction must
    // be a Return or an unconditional Jmp to exactly program end is
    // disallowed anyway, so require Return.
    if !matches!(program.last(), Some(Insn::Return(_))) {
        return Err(VerifyError::NoReturn);
    }
    Ok(())
}

/// A verified codelet bound to its tables, runnable as a
/// [`PacketProcessor`].
#[derive(Debug)]
pub struct Codelet {
    name: String,
    program: Vec<Insn>,
    /// u64-keyed hash tables the program references.
    pub tables: Vec<HashTable<u64, u64>>,
    /// Counters and field-write machinery.
    pub engine: ActionEngine,
    parser: Parser,
}

impl Codelet {
    /// Build and verify a codelet.
    pub fn new(
        name: &str,
        program: Vec<Insn>,
        tables: Vec<HashTable<u64, u64>>,
    ) -> Result<Codelet, VerifyError> {
        verify(&program, tables.len())?;
        Ok(Codelet {
            name: name.into(),
            program,
            tables,
            engine: ActionEngine::new(64),
            parser: Parser,
        })
    }

    /// The verified program.
    pub fn program(&self) -> &[Insn] {
        &self.program
    }

    fn read_field(field: Field, ctx: &ProcessContext, parsed: &ParsedPacket) -> u64 {
        match field {
            Field::EtherType => u64::from(parsed.ethertype.to_u16()),
            Field::SrcIp => parsed.ipv4.map_or(0, |ip| u64::from(ip.src)),
            Field::DstIp => parsed.ipv4.map_or(0, |ip| u64::from(ip.dst)),
            Field::Proto => parsed.ipv4.map_or(0, |ip| u64::from(ip.protocol.to_u8())),
            Field::SrcPort => match parsed.l4 {
                L4::Tcp { src_port, .. } => u64::from(src_port),
                L4::Udp { src_port, .. } => u64::from(src_port),
                _ => 0,
            },
            Field::DstPort => match parsed.l4 {
                L4::Tcp { dst_port, .. } => u64::from(dst_port),
                L4::Udp { dst_port, .. } => u64::from(dst_port),
                _ => 0,
            },
            Field::TcpFlags => match parsed.l4 {
                L4::Tcp { flags, .. } => u64::from(flags),
                _ => 0,
            },
            Field::PktLen => parsed.frame_len as u64,
            Field::OuterVlan => parsed.outer_vlan().map_or(0xffff, u64::from),
            Field::Timestamp => ctx.timestamp_ns,
            Field::Dscp => parsed.ipv4.map_or(0, |ip| u64::from(ip.dscp)),
            Field::Ttl => parsed.ipv4.map_or(0, |ip| u64::from(ip.ttl)),
        }
    }
}

impl PacketProcessor for Codelet {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, ctx: &ProcessContext, packet: &mut Vec<u8>) -> Verdict {
        let Some(mut parsed) = self.parser.parse(packet) else {
            return Verdict::Drop;
        };
        let mut regs = [0u64; NUM_REGS];
        let mut pc = 0usize;
        // verify() proves termination (forward-only jumps), so this loop
        // is bounded by program length.
        while pc < self.program.len() {
            let insn = self.program[pc];
            pc += 1;
            match insn {
                Insn::LdImm(r, v) => regs[usize::from(r)] = v,
                Insn::LdField(r, f) => {
                    regs[usize::from(r)] = Self::read_field(f, ctx, &parsed);
                }
                Insn::Alu(op, d, o) => {
                    let b = match o {
                        Operand::Reg(r) => regs[usize::from(r)],
                        Operand::Imm(v) => v,
                    };
                    let a = regs[usize::from(d)];
                    regs[usize::from(d)] = match op {
                        AluOp::Add => a.wrapping_add(b),
                        AluOp::Sub => a.wrapping_sub(b),
                        AluOp::And => a & b,
                        AluOp::Or => a | b,
                        AluOp::Xor => a ^ b,
                        AluOp::Shl => a.wrapping_shl(b as u32),
                        AluOp::Shr => a.wrapping_shr(b as u32),
                        AluOp::Mov => b,
                    };
                }
                Insn::Jmp(n) => pc += usize::from(n) - 1,
                Insn::JmpIf(cmp, r, o, n) => {
                    let a = regs[usize::from(r)];
                    let b = match o {
                        Operand::Reg(rr) => regs[usize::from(rr)],
                        Operand::Imm(v) => v,
                    };
                    let taken = match cmp {
                        Cmp::Eq => a == b,
                        Cmp::Ne => a != b,
                        Cmp::Gt => a > b,
                        Cmp::Lt => a < b,
                        Cmp::MaskSet => a & b == b,
                    };
                    if taken {
                        pc += usize::from(n) - 1;
                    }
                }
                Insn::Lookup(t, kr) => {
                    let key = regs[usize::from(kr)];
                    match self.tables[usize::from(t)].lookup(&key) {
                        Some(v) => {
                            regs[0] = v;
                            regs[1] = 1;
                        }
                        None => {
                            regs[0] = 0;
                            regs[1] = 0;
                        }
                    }
                }
                Insn::Update(t, kr, vr) => {
                    let key = regs[usize::from(kr)];
                    let val = regs[usize::from(vr)];
                    regs[1] = u64::from(self.tables[usize::from(t)].insert(key, val).is_ok());
                }
                Insn::SetField(f, r) => {
                    let v = regs[usize::from(r)];
                    let action = match f {
                        WField::SrcIp => Action::SetIpv4Src(v as u32),
                        WField::DstIp => Action::SetIpv4Dst(v as u32),
                        WField::Dscp => Action::SetDscp((v & 0x3f) as u8),
                    };
                    match self.engine.apply(action, packet, &parsed, None) {
                        ActionOutcome::Continue { modified } => {
                            if modified {
                                if let Some(p) = self.parser.parse(packet) {
                                    parsed = p;
                                }
                            }
                        }
                        ActionOutcome::Final(v) => return v,
                    }
                }
                Insn::Count(idx) => self.engine.counters.count(usize::from(idx), packet.len()),
                Insn::Return(v) => return v.to_verdict(),
            }
        }
        // Unreachable for verified programs.
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsfp_wire::builder::PacketBuilder;
    use flexsfp_wire::ipv4::Ipv4Packet;
    use flexsfp_wire::MacAddr;

    const SRC: u32 = 0xc0a80001;

    fn udp(dst_port: u16) -> Vec<u8> {
        PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            SRC,
            0x08080808,
            5555,
            dst_port,
            b"x",
        )
    }

    /// "Block UDP/53 unless the source is in the allow table."
    fn dns_guard() -> Codelet {
        let mut allow: HashTable<u64, u64> = HashTable::with_capacity(64);
        allow.insert(u64::from(SRC), 1).unwrap();
        let program = vec![
            Insn::LdField(2, Field::DstPort),
            Insn::JmpIf(Cmp::Ne, 2, Operand::Imm(53), 5), // not DNS -> forward
            Insn::LdField(3, Field::SrcIp),
            Insn::Lookup(0, 3),
            Insn::JmpIf(Cmp::Eq, 1, Operand::Imm(1), 2), // hit -> forward
            Insn::Return(VerdictCode::Drop),
            Insn::Count(0),
            Insn::Return(VerdictCode::Forward),
        ];
        Codelet::new("dns-guard", program, vec![allow]).unwrap()
    }

    #[test]
    fn allowed_source_passes() {
        let mut c = dns_guard();
        let mut pkt = udp(53);
        assert_eq!(
            c.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        assert_eq!(c.engine.counters.get(0).packets, 1);
    }

    #[test]
    fn unknown_source_dns_drops() {
        let mut c = dns_guard();
        let mut pkt = PacketBuilder::eth_ipv4_udp(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            0x0a0a0a0a,
            0x08080808,
            5555,
            53,
            b"x",
        );
        assert_eq!(
            c.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Drop
        );
    }

    #[test]
    fn non_dns_always_passes() {
        let mut c = dns_guard();
        let mut pkt = udp(443);
        assert_eq!(
            c.process(&ProcessContext::egress(), &mut pkt),
            Verdict::Forward
        );
        // Forwarded via the "not DNS" fast path, which also counts.
        assert_eq!(c.engine.counters.get(0).packets, 1);
    }

    #[test]
    fn setfield_rewrites_with_checksums() {
        let program = vec![
            Insn::LdImm(4, 0x64400001),
            Insn::SetField(WField::SrcIp, 4),
            Insn::Return(VerdictCode::Forward),
        ];
        let mut c = Codelet::new("rewrite", program, vec![]).unwrap();
        let mut pkt = udp(80);
        c.process(&ProcessContext::egress(), &mut pkt);
        let ip = Ipv4Packet::new_checked(&pkt[14..]).unwrap();
        assert_eq!(ip.src(), 0x64400001);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn alu_and_update() {
        // Learn: table[src_ip] = pkt_len, then read it back.
        let program = vec![
            Insn::LdField(2, Field::SrcIp),
            Insn::LdField(3, Field::PktLen),
            Insn::Alu(AluOp::Add, 3, Operand::Imm(1000)),
            Insn::Update(0, 2, 3),
            Insn::Lookup(0, 2),
            Insn::Return(VerdictCode::Forward),
        ];
        let t = HashTable::with_capacity(16);
        let mut c = Codelet::new("learn", program, vec![t]).unwrap();
        let mut pkt = udp(80);
        let len = pkt.len() as u64;
        c.process(&ProcessContext::egress(), &mut pkt);
        assert_eq!(c.tables[0].peek(&u64::from(SRC)), Some(len + 1000));
    }

    #[test]
    fn verifier_rejects_bad_programs() {
        // Empty.
        assert_eq!(verify(&[], 0), Err(VerifyError::BadLength));
        // Bad register.
        assert_eq!(
            verify(&[Insn::LdImm(11, 0), Insn::Return(VerdictCode::Drop)], 0),
            Err(VerifyError::BadRegister(0))
        );
        // Bad table.
        assert_eq!(
            verify(&[Insn::Lookup(0, 0), Insn::Return(VerdictCode::Drop)], 0),
            Err(VerifyError::BadTable(0))
        );
        // Jump past the end.
        assert_eq!(
            verify(
                &[
                    Insn::JmpIf(Cmp::Eq, 0, Operand::Imm(0), 5),
                    Insn::Return(VerdictCode::Drop)
                ],
                0
            ),
            Err(VerifyError::BadJump(0))
        );
        // Zero-offset jump (would loop forever in the interpreter).
        assert_eq!(
            verify(&[Insn::Jmp(0), Insn::Return(VerdictCode::Drop)], 0),
            Err(VerifyError::BackwardJump(0))
        );
        // Missing return.
        assert_eq!(verify(&[Insn::LdImm(0, 1)], 0), Err(VerifyError::NoReturn));
    }

    #[test]
    fn verifier_accepts_jump_to_last_insn() {
        let p = vec![
            Insn::JmpIf(Cmp::Eq, 0, Operand::Imm(0), 2),
            Insn::Return(VerdictCode::Drop),
            Insn::Return(VerdictCode::Forward),
        ];
        assert!(verify(&p, 0).is_ok());
    }

    #[test]
    fn timestamp_field_readable() {
        let program = vec![
            Insn::LdField(2, Field::Timestamp),
            Insn::JmpIf(Cmp::Gt, 2, Operand::Imm(100), 2),
            Insn::Return(VerdictCode::Drop),
            Insn::Return(VerdictCode::Forward),
        ];
        let mut c = Codelet::new("ts", program, vec![]).unwrap();
        let mut pkt = udp(80);
        assert_eq!(
            c.process(&ProcessContext::egress().at(50), &mut pkt),
            Verdict::Drop
        );
        assert_eq!(
            c.process(&ProcessContext::egress().at(500), &mut pkt),
            Verdict::Forward
        );
    }
}
