//! The golden-model reference interpreter.
//!
//! A minimal, obviously-correct, single-path in-order interpreter
//! over [`Program`]. It shares **only** the instruction set and the
//! control-flow model *specifications*
//! ([`tpc_isa::model::OutcomeModel`] /
//! [`tpc_isa::model::IndirectModel`]) with the production executor —
//! its machine state is laid out differently (maps keyed by
//! register/address instead of dense vectors), it is written for
//! clarity rather than speed, and it takes no shortcuts: every
//! architectural rule from DESIGN.md is spelled out inline. The differential runner compares
//! both the production executor and every simulator configuration
//! against the retired-instruction stream this interpreter produces.

use std::collections::BTreeMap;
use tpc_isa::model::{OutcomeState, XorShift64};
use tpc_isa::{Addr, Op, Program, Reg};

/// Data-address footprint mask, `2^20 - 1` (DESIGN.md: effective
/// addresses fold into a 1 MiB space). Stated independently from the
/// executor so a typo in either copy is caught by the differential
/// cross-check.
const DATA_FOOTPRINT_MASK: u64 = 0xF_FFFF;

/// One instruction retired by the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleInstr {
    /// Instruction address.
    pub pc: Addr,
    /// The instruction.
    pub op: Op,
    /// Branch direction (`false` for non-branches).
    pub taken: bool,
    /// Address of the next architectural instruction.
    pub next_pc: Addr,
    /// Effective byte address for loads/stores.
    pub mem_addr: Option<u64>,
}

/// The deterministic load-value function: a 64-bit finalizer over the
/// effective address (DESIGN.md §2 — memory dataflow is not modelled;
/// load values are a pure function of the address).
fn load_value(addr: u64) -> i64 {
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    z as i64
}

/// The reference interpreter.
///
/// State is held in hash maps so that the oracle's correctness does
/// not depend on any indexing or pre-sizing logic: a register that
/// was never written reads as zero because it is *absent*, not
/// because a vector was zero-initialised to the right length.
#[derive(Debug, Clone)]
pub struct Oracle<'a> {
    program: &'a Program,
    pc: Addr,
    regs: BTreeMap<u8, i64>,
    call_stack: Vec<Addr>,
    branch_states: BTreeMap<u32, OutcomeState>,
    indirect_rngs: BTreeMap<u32, XorShift64>,
    retired: u64,
    completions: u64,
}

impl<'a> Oracle<'a> {
    /// Creates an oracle positioned at the program entry.
    pub fn new(program: &'a Program) -> Self {
        Oracle {
            program,
            pc: program.entry(),
            regs: BTreeMap::new(),
            call_stack: Vec::new(),
            branch_states: BTreeMap::new(),
            indirect_rngs: BTreeMap::new(),
            retired: 0,
            completions: 0,
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Times the program ran to `halt` and restarted.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Current architectural register value (`r0` is always zero).
    pub fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs.get(&(r.index() as u8)).copied().unwrap_or(0)
        }
    }

    fn write(&mut self, r: Reg, v: i64) {
        // Architectural rule: writes to r0 are discarded.
        if !r.is_zero() {
            self.regs.insert(r.index() as u8, v);
        }
    }

    /// Executes and retires exactly one instruction.
    pub fn step(&mut self) -> OracleInstr {
        let pc = self.pc;
        let op = *self
            .program
            .fetch(pc)
            .expect("validated programs never run out of code");
        let mut taken = false;
        let mut mem_addr = None;
        // Default successor: the next sequential instruction.
        let mut next_pc = pc.next();

        match op {
            Op::Add { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1).wrapping_add(self.reg(rs2)));
            }
            Op::Sub { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1).wrapping_sub(self.reg(rs2)));
            }
            Op::And { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1) & self.reg(rs2));
            }
            Op::Or { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1) | self.reg(rs2));
            }
            Op::Xor { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1) ^ self.reg(rs2));
            }
            Op::Shl { rd, rs1, shamt } => {
                // Shifts are defined on the unsigned bit pattern with
                // a wrapping (mod-64) shift amount.
                self.write(rd, (self.reg(rs1) as u64).wrapping_shl(shamt as u32) as i64);
            }
            Op::Shr { rd, rs1, shamt } => {
                self.write(rd, ((self.reg(rs1) as u64) >> (shamt as u32)) as i64);
            }
            Op::AddImm { rd, rs1, imm } => {
                self.write(rd, self.reg(rs1).wrapping_add(imm as i64));
            }
            Op::LoadImm { rd, imm } => {
                self.write(rd, imm as i64);
            }
            Op::Mul { rd, rs1, rs2 } => {
                self.write(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Op::Div { rd, rs1, rs2 } => {
                // Division by zero yields zero (no trap).
                let d = self.reg(rs2);
                let v = if d == 0 {
                    0
                } else {
                    self.reg(rs1).wrapping_div(d)
                };
                self.write(rd, v);
            }
            Op::Load { rd, base, offset } => {
                let ea = (self.reg(base).wrapping_add(offset as i64) as u64) & DATA_FOOTPRINT_MASK;
                mem_addr = Some(ea);
                self.write(rd, load_value(ea));
            }
            Op::Store { base, offset, .. } => {
                let ea = (self.reg(base).wrapping_add(offset as i64) as u64) & DATA_FOOTPRINT_MASK;
                mem_addr = Some(ea);
                // Stores have no architectural effect beyond their
                // address (memory dataflow is not modelled).
            }
            Op::Branch { target, .. } => {
                let model = self
                    .program
                    .branch_model(pc)
                    .expect("validated programs model every branch");
                let state = self
                    .branch_states
                    .entry(pc.word())
                    .or_insert_with(|| OutcomeState::new(model));
                taken = state.next_outcome(model);
                if taken {
                    next_pc = target;
                }
            }
            Op::Jump { target } => {
                next_pc = target;
            }
            Op::Call { target } => {
                let return_addr = pc.next();
                self.call_stack.push(return_addr);
                self.write(tpc_isa::LINK, return_addr.word() as i64);
                next_pc = target;
            }
            Op::Return => {
                next_pc = match self.call_stack.pop() {
                    Some(return_addr) => return_addr,
                    // Unbalanced return restarts the program (only
                    // reachable in hand-written code).
                    None => self.program.entry(),
                };
            }
            Op::IndirectJump { .. } => {
                let model = self
                    .program
                    .indirect_model(pc)
                    .expect("validated programs model every indirect jump");
                let rng = self
                    .indirect_rngs
                    .entry(pc.word())
                    .or_insert_with(|| XorShift64::new(model.seed()));
                next_pc = model.select(rng);
            }
            Op::Halt => {
                // Halt restarts at the entry with a cleared call
                // stack; registers and model states persist (a
                // long-running program re-entering its outer loop).
                self.call_stack.clear();
                self.completions += 1;
                next_pc = self.program.entry();
            }
            Op::Nop => {}
        }

        self.pc = next_pc;
        self.retired += 1;
        OracleInstr {
            pc,
            op,
            taken,
            next_pc,
            mem_addr,
        }
    }
}

impl Iterator for Oracle<'_> {
    type Item = OracleInstr;

    fn next(&mut self) -> Option<OracleInstr> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::model::OutcomeModel;
    use tpc_isa::{BranchCond, ProgramBuilder};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn counted_loop(trip: u32) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Op::AddImm {
            rd: r(1),
            rs1: Reg::ZERO,
            imm: trip as i32,
        });
        let top = b.here();
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: -1,
        });
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: Reg::ZERO,
                target: top,
            },
            OutcomeModel::Loop { trip },
        );
        b.push(Op::Halt);
        b.build().unwrap()
    }

    #[test]
    fn loop_halts_after_expected_retirements() {
        let p = counted_loop(5);
        let mut o = Oracle::new(&p);
        let halted_at = (1..=100)
            .find(|_| o.step().op == Op::Halt)
            .expect("halts within 100");
        assert_eq!(halted_at, 12); // init + 5*(addi+bne) + halt
        assert_eq!(o.completions(), 1);
    }

    #[test]
    fn zero_register_ignores_writes() {
        let mut b = ProgramBuilder::new();
        b.push(Op::AddImm {
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 42,
        });
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let mut o = Oracle::new(&p);
        o.step();
        assert_eq!(o.reg(Reg::ZERO), 0);
    }

    #[test]
    fn call_pushes_link_and_return_pops() {
        let mut b = ProgramBuilder::new();
        let call_at = b.push(Op::Nop);
        b.push(Op::Halt);
        let f = b.here();
        b.push(Op::Return);
        b.patch(call_at, Op::Call { target: f });
        let p = b.build().unwrap();
        let mut o = Oracle::new(&p);
        let call = o.step();
        assert_eq!(call.next_pc, f);
        assert_eq!(o.reg(tpc_isa::LINK), 1);
        let ret = o.step();
        assert_eq!(ret.next_pc, call_at.next());
    }

    #[test]
    fn deterministic_streams() {
        let p = counted_loop(7);
        let a: Vec<_> = Oracle::new(&p).take(300).collect();
        let b: Vec<_> = Oracle::new(&p).take(300).collect();
        assert_eq!(a, b);
    }
}
