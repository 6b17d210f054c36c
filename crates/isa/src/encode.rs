//! Binary instruction encoding.
//!
//! Instructions encode to fixed 32-bit words, MIPS-style. The
//! simulator itself operates on decoded [`Op`] values; the encoding
//! exists so that code footprints (I-cache line occupancy: 16
//! instructions per 64-byte line) are grounded in a real format, and
//! it doubles as a serialization for program dumps.
//!
//! Layout (`op` = bits 31..26):
//!
//! | format | fields |
//! |---|---|
//! | R  | `op rd(5) rs1(5) rs2(5) 0(11)` |
//! | I  | `op rd(5) rs1(5) imm(16)` |
//! | SH | `op rd(5) rs1(5) shamt(5) 0(11)` |
//! | LI | `op rd(5) imm(21)` |
//! | B  | `op rs1(5) rs2(5) target(16)` |
//! | J  | `op target(26)` |

use crate::{Addr, BranchCond, Op, Reg};
use std::fmt;

/// Error returned when an [`Op`] cannot be represented in 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate exceeds its field width.
    ImmOutOfRange {
        /// The immediate value that does not fit.
        imm: i64,
        /// Width of the encoding field in bits.
        bits: u8,
    },
    /// A control target exceeds its field width.
    TargetOutOfRange {
        /// The target address that does not fit.
        target: Addr,
        /// Width of the encoding field in bits.
        bits: u8,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { imm, bits } => {
                write!(f, "immediate {imm} does not fit in {bits} bits")
            }
            EncodeError::TargetOutOfRange { target, bits } => {
                write!(f, "target {target} does not fit in {bits} bits")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error returned when a 32-bit word is not a valid instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The unrecognised opcode field.
    pub opcode: u8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid opcode {:#04x}", self.opcode)
    }
}

impl std::error::Error for DecodeError {}

mod opcode {
    pub const ADD: u8 = 0x01;
    pub const SUB: u8 = 0x02;
    pub const AND: u8 = 0x03;
    pub const OR: u8 = 0x04;
    pub const XOR: u8 = 0x05;
    pub const SHL: u8 = 0x06;
    pub const SHR: u8 = 0x07;
    pub const ADDI: u8 = 0x08;
    pub const LI: u8 = 0x09;
    pub const MUL: u8 = 0x0a;
    pub const DIV: u8 = 0x0b;
    pub const LD: u8 = 0x0c;
    pub const ST: u8 = 0x0d;
    pub const BEQ: u8 = 0x10;
    pub const BNE: u8 = 0x11;
    pub const BLT: u8 = 0x12;
    pub const BGE: u8 = 0x13;
    pub const JMP: u8 = 0x14;
    pub const JAL: u8 = 0x15;
    pub const RET: u8 = 0x16;
    pub const JR: u8 = 0x17;
    pub const HALT: u8 = 0x3e;
    pub const NOP: u8 = 0x00;
}

fn fit_signed(imm: i64, bits: u8) -> Result<u32, EncodeError> {
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    if imm < min || imm > max {
        return Err(EncodeError::ImmOutOfRange { imm, bits });
    }
    Ok((imm as u32) & ((1u32 << bits) - 1))
}

fn fit_target(target: Addr, bits: u8) -> Result<u32, EncodeError> {
    if bits < 32 && target.word() >= (1u32 << bits) {
        return Err(EncodeError::TargetOutOfRange { target, bits });
    }
    Ok(target.word())
}

fn sext(value: u32, bits: u8) -> i32 {
    let shift = 32 - bits as u32;
    ((value << shift) as i32) >> shift
}

fn enc_r(op: u8, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    ((op as u32) << 26)
        | ((rd.index() as u32) << 21)
        | ((rs1.index() as u32) << 16)
        | ((rs2.index() as u32) << 11)
}

/// Encodes an instruction into a 32-bit word.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate or target does not fit
/// its field (16-bit immediates/branch targets, 21-bit `li`
/// immediates, 26-bit jump targets).
pub fn encode(op: &Op) -> Result<u32, EncodeError> {
    use opcode::*;
    Ok(match *op {
        Op::Add { rd, rs1, rs2 } => enc_r(ADD, rd, rs1, rs2),
        Op::Sub { rd, rs1, rs2 } => enc_r(SUB, rd, rs1, rs2),
        Op::And { rd, rs1, rs2 } => enc_r(AND, rd, rs1, rs2),
        Op::Or { rd, rs1, rs2 } => enc_r(OR, rd, rs1, rs2),
        Op::Xor { rd, rs1, rs2 } => enc_r(XOR, rd, rs1, rs2),
        Op::Mul { rd, rs1, rs2 } => enc_r(MUL, rd, rs1, rs2),
        Op::Div { rd, rs1, rs2 } => enc_r(DIV, rd, rs1, rs2),
        Op::Shl { rd, rs1, shamt } => {
            ((SHL as u32) << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | (((shamt & 0x1f) as u32) << 11)
        }
        Op::Shr { rd, rs1, shamt } => {
            ((SHR as u32) << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | (((shamt & 0x1f) as u32) << 11)
        }
        Op::AddImm { rd, rs1, imm } => {
            ((ADDI as u32) << 26)
                | ((rd.index() as u32) << 21)
                | ((rs1.index() as u32) << 16)
                | fit_signed(imm as i64, 16)?
        }
        Op::LoadImm { rd, imm } => {
            ((LI as u32) << 26) | ((rd.index() as u32) << 21) | fit_signed(imm as i64, 21)?
        }
        Op::Load { rd, base, offset } => {
            ((LD as u32) << 26)
                | ((rd.index() as u32) << 21)
                | ((base.index() as u32) << 16)
                | fit_signed(offset as i64, 16)?
        }
        Op::Store { src, base, offset } => {
            ((ST as u32) << 26)
                | ((src.index() as u32) << 21)
                | ((base.index() as u32) << 16)
                | fit_signed(offset as i64, 16)?
        }
        Op::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let opc = match cond {
                BranchCond::Eq => BEQ,
                BranchCond::Ne => BNE,
                BranchCond::Lt => BLT,
                BranchCond::Ge => BGE,
            };
            ((opc as u32) << 26)
                | ((rs1.index() as u32) << 21)
                | ((rs2.index() as u32) << 16)
                | fit_target(target, 16)?
        }
        Op::Jump { target } => ((JMP as u32) << 26) | fit_target(target, 26)?,
        Op::Call { target } => ((JAL as u32) << 26) | fit_target(target, 26)?,
        Op::Return => (RET as u32) << 26,
        Op::IndirectJump { rs1 } => ((JR as u32) << 26) | ((rs1.index() as u32) << 21),
        Op::Halt => (HALT as u32) << 26,
        Op::Nop => (NOP as u32) << 26 | 1, // distinguish from an all-zero word
    })
}

/// Decodes a 32-bit word back into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] for unrecognised opcodes.
pub fn decode(word: u32) -> Result<Op, DecodeError> {
    use opcode::*;
    let opc = (word >> 26) as u8;
    let rd = Reg::new(((word >> 21) & 0x1f) as u8);
    let rs1 = Reg::new(((word >> 16) & 0x1f) as u8);
    let rs2 = Reg::new(((word >> 11) & 0x1f) as u8);
    let imm16 = sext(word & 0xffff, 16);
    Ok(match opc {
        ADD => Op::Add { rd, rs1, rs2 },
        SUB => Op::Sub { rd, rs1, rs2 },
        AND => Op::And { rd, rs1, rs2 },
        OR => Op::Or { rd, rs1, rs2 },
        XOR => Op::Xor { rd, rs1, rs2 },
        MUL => Op::Mul { rd, rs1, rs2 },
        DIV => Op::Div { rd, rs1, rs2 },
        SHL => Op::Shl {
            rd,
            rs1,
            shamt: ((word >> 11) & 0x1f) as u8,
        },
        SHR => Op::Shr {
            rd,
            rs1,
            shamt: ((word >> 11) & 0x1f) as u8,
        },
        ADDI => Op::AddImm {
            rd,
            rs1,
            imm: imm16,
        },
        LI => Op::LoadImm {
            rd,
            imm: sext(word & 0x1f_ffff, 21),
        },
        LD => Op::Load {
            rd,
            base: rs1,
            offset: imm16,
        },
        ST => Op::Store {
            src: rd,
            base: rs1,
            offset: imm16,
        },
        BEQ | BNE | BLT | BGE => {
            let cond = match opc {
                BEQ => BranchCond::Eq,
                BNE => BranchCond::Ne,
                BLT => BranchCond::Lt,
                _ => BranchCond::Ge,
            };
            Op::Branch {
                cond,
                rs1: rd,
                rs2: rs1,
                target: Addr::new(word & 0xffff),
            }
        }
        JMP => Op::Jump {
            target: Addr::new(word & 0x03ff_ffff),
        },
        JAL => Op::Call {
            target: Addr::new(word & 0x03ff_ffff),
        },
        RET => Op::Return,
        JR => Op::IndirectJump { rs1: rd },
        HALT => Op::Halt,
        NOP => Op::Nop,
        other => return Err(DecodeError { opcode: other }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn roundtrip_representative_ops() {
        let ops = [
            Op::Add {
                rd: r(1),
                rs1: r(2),
                rs2: r(3),
            },
            Op::Shl {
                rd: r(4),
                rs1: r(5),
                shamt: 31,
            },
            Op::AddImm {
                rd: r(6),
                rs1: r(7),
                imm: -32768,
            },
            Op::LoadImm {
                rd: r(8),
                imm: 1_000_000,
            },
            Op::Load {
                rd: r(9),
                base: r(10),
                offset: 32767,
            },
            Op::Store {
                src: r(11),
                base: r(12),
                offset: -4,
            },
            Op::Branch {
                cond: BranchCond::Lt,
                rs1: r(13),
                rs2: r(14),
                target: Addr::new(65535),
            },
            Op::Jump {
                target: Addr::new(0x03ff_ffff),
            },
            Op::Call {
                target: Addr::new(12345),
            },
            Op::Return,
            Op::IndirectJump { rs1: r(15) },
            Op::Halt,
            Op::Nop,
        ];
        for op in ops {
            let word = encode(&op).expect("encodable");
            assert_eq!(decode(word).expect("decodable"), op, "roundtrip of {op}");
        }
    }

    #[test]
    fn immediate_overflow_detected() {
        let op = Op::AddImm {
            rd: r(1),
            rs1: r(2),
            imm: 40_000,
        };
        assert!(matches!(
            encode(&op),
            Err(EncodeError::ImmOutOfRange { .. })
        ));
    }

    #[test]
    fn branch_target_overflow_detected() {
        let op = Op::Branch {
            cond: BranchCond::Eq,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(70_000),
        };
        assert!(matches!(
            encode(&op),
            Err(EncodeError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn invalid_opcode_rejected() {
        assert!(decode(0x3f << 26).is_err());
    }

    #[test]
    fn nop_is_not_all_zero() {
        assert_ne!(encode(&Op::Nop).unwrap(), 0);
    }

    mod props {
        use super::*;
        use crate::model::XorShift64;

        const CASES: u32 = 4096;

        fn reg(rng: &mut XorShift64) -> Reg {
            Reg::new(rng.next_below(32) as u8)
        }

        /// A value uniform in `[lo, hi]`.
        fn int(rng: &mut XorShift64, lo: i32, hi: i32) -> i32 {
            lo + rng.next_below((hi - lo) as u32 + 1) as i32
        }

        /// Any op whose fields are in encodable range, every opcode
        /// family equally likely.
        fn op(rng: &mut XorShift64) -> Op {
            match rng.next_below(14) {
                0 => Op::Add {
                    rd: reg(rng),
                    rs1: reg(rng),
                    rs2: reg(rng),
                },
                1 => Op::Xor {
                    rd: reg(rng),
                    rs1: reg(rng),
                    rs2: reg(rng),
                },
                2 => Op::Shl {
                    rd: reg(rng),
                    rs1: reg(rng),
                    shamt: rng.next_below(32) as u8,
                },
                3 => Op::AddImm {
                    rd: reg(rng),
                    rs1: reg(rng),
                    imm: int(rng, -32768, 32767),
                },
                4 => Op::LoadImm {
                    rd: reg(rng),
                    imm: int(rng, -(1 << 20), (1 << 20) - 1),
                },
                5 => Op::Load {
                    rd: reg(rng),
                    base: reg(rng),
                    offset: int(rng, -32768, 32767),
                },
                6 => Op::Store {
                    src: reg(rng),
                    base: reg(rng),
                    offset: int(rng, -32768, 32767),
                },
                7 => Op::Branch {
                    cond: BranchCond::ALL[rng.next_below(4) as usize],
                    rs1: reg(rng),
                    rs2: reg(rng),
                    target: Addr::new(rng.next_below(65536)),
                },
                8 => Op::Jump {
                    target: Addr::new(rng.next_below(1 << 26)),
                },
                9 => Op::Call {
                    target: Addr::new(rng.next_below(1 << 26)),
                },
                10 => Op::Return,
                11 => Op::IndirectJump { rs1: reg(rng) },
                12 => Op::Halt,
                _ => Op::Nop,
            }
        }

        #[test]
        fn encode_decode_roundtrip() {
            let mut rng = XorShift64::new(0x00E9_C0DE);
            for case in 0..CASES {
                let op = op(&mut rng);
                let word = encode(&op).expect("all generated ops are in range");
                assert_eq!(decode(word).expect("valid word"), op, "case {case}");
            }
        }
    }
}
