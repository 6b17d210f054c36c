//! The executor proper.

use tpc_isa::model::{IndirectModel, OutcomeModel, OutcomeState, XorShift64};
use tpc_isa::{Addr, Op, Program};

/// Data-address space touched by loads/stores, as a power-of-two
/// byte mask. Effective addresses are folded into this footprint so
/// generated address arithmetic cannot wander off to unbounded
/// addresses.
const DATA_FOOTPRINT_MASK: u64 = (1 << 20) - 1; // 1 MiB

/// One retired architectural instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInstr {
    /// Address of the instruction.
    pub pc: Addr,
    /// The instruction itself.
    pub op: Op,
    /// For conditional branches: the resolved direction.
    pub taken: bool,
    /// Address of the next architectural instruction.
    pub next_pc: Addr,
    /// Effective byte address for loads/stores.
    pub mem_addr: Option<u64>,
}

impl DynInstr {
    /// Whether this instruction redirected control flow away from
    /// `pc + 1`.
    pub fn redirected(&self) -> bool {
        self.next_pc != self.pc.next()
    }
}

/// Deterministic load-value function: memory dataflow (store-to-load
/// forwarding) is not modelled — the paper delegates memory
/// dependence enforcement to dedicated hardware (ARB) and none of the
/// measured quantities depend on load *values*; addresses and
/// latencies are what matter, and those are real.
#[inline]
fn load_value(addr: u64) -> i64 {
    let mut z = addr.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 31)) as i64
}

/// Architectural executor over a program.
///
/// See the crate docs for the overall contract. The executor never
/// fails at runtime: [`Program`] validation guarantees every branch
/// has a model and every target is in range; an unbalanced `ret`
/// (empty call stack) restarts the program, which can only happen in
/// hand-written programs.
#[derive(Debug, Clone)]
pub struct Executor<'a> {
    program: &'a Program,
    pc: Addr,
    regs: [i64; tpc_isa::NUM_REGS],
    call_stack: Vec<Addr>,
    /// Per instruction: its index into `branches` (conditional
    /// branches) or `indirects` (indirect jumps); unused otherwise.
    slots: Vec<u32>,
    branches: Vec<(&'a OutcomeModel, OutcomeState)>,
    indirects: Vec<(&'a IndirectModel, XorShift64)>,
    retired: u64,
    completions: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor positioned at the program entry.
    ///
    /// Every branch's and indirect jump's model state is created here,
    /// once: it depends only on the model, so eager creation equals
    /// creation at first execution.
    pub fn new(program: &'a Program) -> Self {
        let mut slots = vec![0u32; program.len()];
        let mut branches = Vec::new();
        let mut indirects = Vec::new();
        for (pc, op) in program.iter() {
            let slot = &mut slots[pc.word() as usize];
            match op {
                Op::Branch { .. } => {
                    let model = program
                        .branch_model(pc)
                        .expect("validated program has a model per branch");
                    *slot = branches.len() as u32; // narrow: program addresses are u32
                    branches.push((model, OutcomeState::new(model)));
                }
                Op::IndirectJump { .. } => {
                    let model = program
                        .indirect_model(pc)
                        .expect("validated program has a model per indirect jump");
                    *slot = indirects.len() as u32; // narrow: program addresses are u32
                    indirects.push((model, XorShift64::new(model.seed())));
                }
                _ => {}
            }
        }
        Executor {
            program,
            pc: program.entry(),
            regs: [0; tpc_isa::NUM_REGS],
            call_stack: Vec::with_capacity(64),
            slots,
            branches,
            indirects,
            retired: 0,
            completions: 0,
        }
    }

    /// The static program being executed.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Number of times the program ran to `halt` and restarted.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// The current program counter.
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Current architectural call depth.
    pub fn call_depth(&self) -> usize {
        self.call_stack.len()
    }

    #[inline]
    fn read(&self, r: tpc_isa::Reg) -> i64 {
        self.regs[r.index()]
    }

    #[inline]
    fn write(&mut self, r: tpc_isa::Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    fn restart(&mut self) {
        self.pc = self.program.entry();
        self.call_stack.clear();
        self.completions += 1;
        // Register values and branch-model states persist: phases
        // continue where they left off, like re-entering a long-lived
        // outer loop.
    }

    /// Executes and retires exactly one instruction.
    fn step(&mut self) -> DynInstr {
        let pc = self.pc;
        let op = *self
            .program
            .fetch(pc)
            .expect("validated program cannot run out of code");
        let mut taken = false;
        let mut mem_addr = None;
        let mut next_pc = pc.next();

        match op {
            Op::Add { rd, rs1, rs2 } => {
                let v = self.read(rs1).wrapping_add(self.read(rs2));
                self.write(rd, v);
            }
            Op::Sub { rd, rs1, rs2 } => {
                let v = self.read(rs1).wrapping_sub(self.read(rs2));
                self.write(rd, v);
            }
            Op::And { rd, rs1, rs2 } => {
                let v = self.read(rs1) & self.read(rs2);
                self.write(rd, v);
            }
            Op::Or { rd, rs1, rs2 } => {
                let v = self.read(rs1) | self.read(rs2);
                self.write(rd, v);
            }
            Op::Xor { rd, rs1, rs2 } => {
                let v = self.read(rs1) ^ self.read(rs2);
                self.write(rd, v);
            }
            Op::Shl { rd, rs1, shamt } => {
                let v = (self.read(rs1) as u64).wrapping_shl(shamt as u32) as i64;
                self.write(rd, v);
            }
            Op::Shr { rd, rs1, shamt } => {
                let v = ((self.read(rs1) as u64) >> (shamt as u32)) as i64;
                self.write(rd, v);
            }
            Op::AddImm { rd, rs1, imm } => {
                let v = self.read(rs1).wrapping_add(imm as i64);
                self.write(rd, v);
            }
            Op::LoadImm { rd, imm } => self.write(rd, imm as i64),
            Op::Mul { rd, rs1, rs2 } => {
                let v = self.read(rs1).wrapping_mul(self.read(rs2));
                self.write(rd, v);
            }
            Op::Div { rd, rs1, rs2 } => {
                let d = self.read(rs2);
                let v = if d == 0 {
                    0
                } else {
                    self.read(rs1).wrapping_div(d)
                };
                self.write(rd, v);
            }
            Op::Load { rd, base, offset } => {
                let ea = (self.read(base).wrapping_add(offset as i64) as u64) & DATA_FOOTPRINT_MASK;
                mem_addr = Some(ea);
                self.write(rd, load_value(ea));
            }
            Op::Store {
                src: _,
                base,
                offset,
            } => {
                let ea = (self.read(base).wrapping_add(offset as i64) as u64) & DATA_FOOTPRINT_MASK;
                mem_addr = Some(ea);
            }
            Op::Branch { target, .. } => {
                let (model, state) = &mut self.branches[self.slots[pc.word() as usize] as usize];
                taken = state.next_outcome(model);
                if taken {
                    next_pc = target;
                }
            }
            Op::Jump { target } => next_pc = target,
            Op::Call { target } => {
                let ra = pc.next();
                self.call_stack.push(ra);
                self.write(tpc_isa::LINK, ra.word() as i64);
                next_pc = target;
            }
            Op::Return => {
                match self.call_stack.pop() {
                    Some(ra) => next_pc = ra,
                    // Unbalanced return: only reachable in
                    // hand-written programs; treat as program end.
                    None => next_pc = self.program.entry(),
                }
            }
            Op::IndirectJump { .. } => {
                let (model, rng) = &mut self.indirects[self.slots[pc.word() as usize] as usize];
                next_pc = model.select(rng);
            }
            Op::Halt => {
                self.restart();
                next_pc = self.pc;
            }
            Op::Nop => {}
        }

        self.pc = next_pc;
        self.retired += 1;
        DynInstr {
            pc,
            op,
            taken,
            next_pc,
            mem_addr,
        }
    }
}

impl Iterator for Executor<'_> {
    type Item = DynInstr;

    /// Retires the next instruction. Never returns `None`: halting
    /// programs restart from their entry point.
    fn next(&mut self) -> Option<DynInstr> {
        Some(self.step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::{BranchCond, ProgramBuilder, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// addi r1, r0, 5 ; loop: addi r1, r1, -1 ; bne r1, r0, loop ; halt
    fn counted_loop(trip: u32) -> tpc_isa::Program {
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
    fn loop_retires_expected_count() {
        let p = counted_loop(5);
        let mut ex = Executor::new(&p);
        // 1 init + 5*(addi+bne) + halt = 12 instructions to first halt.
        let mut halted_at = 0;
        for i in 1..=100 {
            let d = ex.next().unwrap();
            if d.op == Op::Halt {
                halted_at = i;
                break;
            }
        }
        assert_eq!(halted_at, 12);
        assert_eq!(ex.completions(), 1);
    }

    #[test]
    fn branch_outcomes_follow_model() {
        let p = counted_loop(3);
        let outcomes: Vec<bool> = Executor::new(&p)
            .take(20)
            .filter(|d| matches!(d.op, Op::Branch { .. }))
            .map(|d| d.taken)
            .collect();
        // First pass: taken, taken, not-taken; restarts identically
        // except the loop model continues its cycle.
        assert_eq!(&outcomes[..3], &[true, true, false]);
    }

    #[test]
    fn call_and_return_are_balanced() {
        let mut b = ProgramBuilder::new();
        let call_at = b.push(Op::Nop); // patched below
        b.push(Op::Halt);
        let f = b.here();
        b.push(Op::AddImm {
            rd: r(2),
            rs1: Reg::ZERO,
            imm: 1,
        });
        b.push(Op::Return);
        b.patch(call_at, Op::Call { target: f });
        let p = b.build().unwrap();

        let seq: Vec<_> = Executor::new(&p).take(4).collect();
        assert!(matches!(seq[0].op, Op::Call { .. }));
        assert_eq!(seq[0].next_pc, f);
        assert_eq!(seq[2].op, Op::Return);
        assert_eq!(seq[2].next_pc, call_at.next()); // back to after the call
        assert_eq!(seq[3].op, Op::Halt);
    }

    #[test]
    fn link_register_written_by_call() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Call {
            target: Addr::new(2),
        });
        b.push(Op::Halt);
        b.push(Op::Return);
        let p = b.build().unwrap();
        let mut ex = Executor::new(&p);
        ex.next();
        assert_eq!(ex.read(tpc_isa::LINK), 1);
    }

    #[test]
    fn indirect_jump_selects_model_targets() {
        let mut b = ProgramBuilder::new();
        b.push_indirect(
            Op::IndirectJump { rs1: r(4) },
            IndirectModel::uniform(vec![Addr::new(1), Addr::new(2)], 9),
        );
        b.push(Op::Halt);
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        let mut ex = Executor::new(&p);
        for _ in 0..50 {
            let d = ex.next().unwrap();
            if matches!(d.op, Op::IndirectJump { .. }) {
                seen.insert(d.next_pc);
            }
        }
        assert_eq!(seen.len(), 2, "both targets exercised");
    }

    #[test]
    fn halting_restarts_at_entry() {
        let p = counted_loop(2);
        let mut ex = Executor::new(&p);
        let stream: Vec<_> = (&mut ex).take(30).collect();
        let halts = stream.iter().filter(|d| d.op == Op::Halt).count();
        assert!(halts >= 2, "program restarted after halt");
        for d in stream.iter().filter(|d| d.op == Op::Halt) {
            assert_eq!(d.next_pc, p.entry());
        }
    }

    #[test]
    fn unbalanced_ret_jumps_to_entry_without_completing() {
        // Pins the frontend-contract semantics: a `ret` with an empty
        // call stack transfers control to the entry point but is NOT
        // a program end — no completion is counted, the registers and
        // branch-model state persist (unlike `halt`, which restarts
        // and bumps `completions`).
        let mut b = ProgramBuilder::new();
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        });
        b.push(Op::Return);
        let p = b.build().unwrap();
        let mut ex = Executor::new(&p);

        for pass in 1..=3 {
            let add = ex.next().unwrap();
            assert_eq!(
                add.op,
                Op::AddImm {
                    rd: r(1),
                    rs1: r(1),
                    imm: 1
                }
            );
            let ret = ex.next().unwrap();
            assert_eq!(ret.op, Op::Return);
            assert_eq!(ret.next_pc, p.entry(), "unbalanced ret jumps to entry");
            assert_eq!(ex.completions(), 0, "no completion counted");
            assert_eq!(ex.call_depth(), 0);
            assert_eq!(ex.read(r(1)), pass, "register state persists");
        }

        // Contrast: `halt` restarts and counts a completion.
        let halting = counted_loop(1);
        let mut hx = Executor::new(&halting);
        while hx.next().unwrap().op != Op::Halt {}
        assert_eq!(hx.completions(), 1);
    }

    #[test]
    fn execution_is_deterministic() {
        let p = counted_loop(7);
        let a: Vec<_> = Executor::new(&p).take(500).collect();
        let b: Vec<_> = Executor::new(&p).take(500).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_register_stays_zero() {
        let mut b = ProgramBuilder::new();
        b.push(Op::AddImm {
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 99,
        });
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let mut ex = Executor::new(&p);
        ex.next();
        assert_eq!(ex.read(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_report_effective_addresses() {
        let mut b = ProgramBuilder::new();
        b.push(Op::LoadImm {
            rd: r(1),
            imm: 0x100,
        });
        b.push(Op::Load {
            rd: r(2),
            base: r(1),
            offset: 8,
        });
        b.push(Op::Store {
            src: r(2),
            base: r(1),
            offset: 16,
        });
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let seq: Vec<_> = Executor::new(&p).take(3).collect();
        assert_eq!(seq[1].mem_addr, Some(0x108));
        assert_eq!(seq[2].mem_addr, Some(0x110));
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut b = ProgramBuilder::new();
        b.push(Op::LoadImm { rd: r(1), imm: 10 });
        b.push(Op::Div {
            rd: r(2),
            rs1: r(1),
            rs2: Reg::ZERO,
        });
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let mut ex = Executor::new(&p);
        ex.next();
        ex.next();
        assert_eq!(ex.read(r(2)), 0);
    }

    #[test]
    fn redirected_flag() {
        let p = counted_loop(2);
        let stream: Vec<_> = Executor::new(&p).take(12).collect();
        // addi (no), addi (no), bne taken (yes)
        assert!(!stream[0].redirected());
        assert!(stream[2].redirected());
    }

    use tpc_isa::Addr;
}
