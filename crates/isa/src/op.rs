//! Instruction definitions.

use crate::{Addr, Reg};
use std::fmt;

/// Condition tested by a conditional branch (`rs1 <cond> rs2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if signed less-than.
    Lt,
    /// Branch if signed greater-or-equal.
    Ge,
}

impl BranchCond {
    /// Evaluates the condition over two register values.
    #[inline]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
        }
    }

    /// All conditions, for exhaustive tests.
    pub const ALL: [BranchCond; 4] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
    ];
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        };
        f.write_str(s)
    }
}

/// Broad operation class used by the timing model and trace logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional direct jump.
    Jump,
    /// Procedure call (jump-and-link).
    Call,
    /// Procedure return (jump through the link register).
    Return,
    /// Indirect jump through a register (e.g. a switch table).
    IndirectJump,
    /// Program termination marker.
    Halt,
    /// No-operation.
    Nop,
}

impl OpClass {
    /// Whether instructions of this class can redirect control flow.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            OpClass::Branch
                | OpClass::Jump
                | OpClass::Call
                | OpClass::Return
                | OpClass::IndirectJump
                | OpClass::Halt
        )
    }
}

/// A single instruction.
///
/// Operands are explicit registers so that dependence tracking in the
/// execution backend is exact. Branch/jump/call targets are absolute
/// word addresses ([`Addr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `rd = rs1 + rs2`
    Add {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 - rs2`
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 & rs2`
    And {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 | rs2`
    Or {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 ^ rs2`
    Xor {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 << shamt`
    Shl {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Shift amount in bits.
        shamt: u8,
    },
    /// `rd = rs1 >> shamt` (logical)
    Shr {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Shift amount in bits.
        shamt: u8,
    },
    /// `rd = rs1 + imm`
    AddImm {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// `rd = imm`
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// Immediate operand.
        imm: i32,
    },
    /// `rd = rs1 * rs2`
    Mul {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = rs1 / rs2` (0 when dividing by zero)
    Div {
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = mem[rs1 + offset]`
    Load {
        /// Destination register.
        rd: Reg,
        /// Base-address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// `mem[rs1 + offset] = rs2`
    Store {
        /// Register whose value is stored.
        src: Reg,
        /// Base-address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Conditional PC-relative-style branch with an absolute target.
    Branch {
        /// The comparison deciding the direction.
        cond: BranchCond,
        /// Left comparison operand.
        rs1: Reg,
        /// Right comparison operand.
        rs2: Reg,
        /// Absolute word address taken branches jump to.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Absolute word address jumped to.
        target: Addr,
    },
    /// Jump-and-link: `r31 = return address; pc = target`.
    Call {
        /// Entry point of the called function.
        target: Addr,
    },
    /// Jump through the link register (procedure return).
    Return,
    /// Jump through `rs1` (computed target, e.g. a switch table).
    IndirectJump {
        /// Register holding the computed target address.
        rs1: Reg,
    },
    /// Terminates execution.
    Halt,
    /// No-operation.
    Nop,
}

impl Op {
    /// The broad class of this instruction.
    #[inline]
    pub fn class(&self) -> OpClass {
        match self {
            Op::Add { .. }
            | Op::Sub { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
            | Op::Shl { .. }
            | Op::Shr { .. }
            | Op::AddImm { .. }
            | Op::LoadImm { .. } => OpClass::IntAlu,
            Op::Mul { .. } => OpClass::IntMul,
            Op::Div { .. } => OpClass::IntDiv,
            Op::Load { .. } => OpClass::Load,
            Op::Store { .. } => OpClass::Store,
            Op::Branch { .. } => OpClass::Branch,
            Op::Jump { .. } => OpClass::Jump,
            Op::Call { .. } => OpClass::Call,
            Op::Return => OpClass::Return,
            Op::IndirectJump { .. } => OpClass::IndirectJump,
            Op::Halt => OpClass::Halt,
            Op::Nop => OpClass::Nop,
        }
    }

    /// The destination register, if the instruction writes one.
    ///
    /// Writes to `r0` are reported as `None`: they are
    /// architecturally discarded, so nothing can depend on them.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Op::Add { rd, .. }
            | Op::Sub { rd, .. }
            | Op::And { rd, .. }
            | Op::Or { rd, .. }
            | Op::Xor { rd, .. }
            | Op::Shl { rd, .. }
            | Op::Shr { rd, .. }
            | Op::AddImm { rd, .. }
            | Op::LoadImm { rd, .. }
            | Op::Mul { rd, .. }
            | Op::Div { rd, .. }
            | Op::Load { rd, .. } => rd,
            Op::Call { .. } => Reg::LINK,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// Source registers read by the instruction (at most two).
    ///
    /// Reads of `r0` are omitted: its value is constant, so it never
    /// creates a dependence.
    #[inline]
    pub fn sources(&self) -> SourceRegs {
        let (a, b) = match *self {
            Op::Add { rs1, rs2, .. }
            | Op::Sub { rs1, rs2, .. }
            | Op::And { rs1, rs2, .. }
            | Op::Or { rs1, rs2, .. }
            | Op::Xor { rs1, rs2, .. }
            | Op::Mul { rs1, rs2, .. }
            | Op::Div { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Op::Shl { rs1, .. } | Op::Shr { rs1, .. } | Op::AddImm { rs1, .. } => (Some(rs1), None),
            Op::Load { base, .. } => (Some(base), None),
            Op::Store { src, base, .. } => (Some(base), Some(src)),
            Op::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Op::IndirectJump { rs1 } => (Some(rs1), None),
            Op::Return => (Some(Reg::LINK), None),
            _ => (None, None),
        };
        let drop_zero = |r: Option<Reg>| r.filter(|r| !r.is_zero());
        SourceRegs {
            regs: [drop_zero(a), drop_zero(b)],
        }
    }

    /// The statically-known control-flow target, if any.
    ///
    /// `Return` and `IndirectJump` have no static target; their
    /// destinations are only known dynamically.
    #[inline]
    pub fn static_target(&self) -> Option<Addr> {
        match *self {
            Op::Branch { target, .. } | Op::Jump { target } | Op::Call { target } => Some(target),
            _ => None,
        }
    }

    /// Whether this is a conditional branch whose target lies at or
    /// before its own address — the loop back-edge shape the
    /// preconstruction start-point heuristic looks for.
    #[inline]
    pub fn is_backward_branch(&self, pc: Addr) -> bool {
        matches!(*self, Op::Branch { target, .. } if target <= pc)
    }

    /// Whether the instruction's dynamic successor can differ from
    /// `pc + 1`.
    #[inline]
    pub fn is_control(&self) -> bool {
        self.class().is_control()
    }

    /// Whether execution can continue at `pc + 1` after this
    /// instruction: true for every non-control op, for a conditional
    /// branch (the not-taken arm), and for a call (the return point).
    /// False for unconditional transfers (`jmp`, `ret`, `jr`) and
    /// `halt`. CFG construction uses this to place fall-through edges
    /// and block leaders.
    pub fn can_fall_through(&self) -> bool {
        !matches!(
            self.class(),
            OpClass::Jump | OpClass::Return | OpClass::IndirectJump | OpClass::Halt
        )
    }

    /// Whether this instruction ends a basic block: every control
    /// transfer does (its successors start new blocks).
    pub fn is_block_terminator(&self) -> bool {
        self.is_control()
    }
}

/// The (up to two) source registers of an instruction.
///
/// Returned by [`Op::sources`]; iterate to visit each register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceRegs {
    regs: [Option<Reg>; 2],
}

impl SourceRegs {
    /// Iterates over the present source registers.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().flatten().copied()
    }

    /// Number of source registers.
    pub fn len(&self) -> usize {
        self.regs.iter().flatten().count()
    }

    /// Whether the instruction reads no registers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IntoIterator for SourceRegs {
    type Item = Reg;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<Reg>, 2>>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().flatten()
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Op::Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Op::And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Op::Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            Op::Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Op::Shl { rd, rs1, shamt } => write!(f, "shl {rd}, {rs1}, {shamt}"),
            Op::Shr { rd, rs1, shamt } => write!(f, "shr {rd}, {rs1}, {shamt}"),
            Op::AddImm { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Op::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Op::Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Op::Div { rd, rs1, rs2 } => write!(f, "div {rd}, {rs1}, {rs2}"),
            Op::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Op::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Op::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{cond} {rs1}, {rs2}, {target}"),
            Op::Jump { target } => write!(f, "jmp {target}"),
            Op::Call { target } => write!(f, "jal {target}"),
            Op::Return => write!(f, "ret"),
            Op::IndirectJump { rs1 } => write!(f, "jr {rs1}"),
            Op::Halt => write!(f, "halt"),
            Op::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn classes_cover_all_shapes() {
        assert_eq!(
            Op::Add {
                rd: r(1),
                rs1: r(2),
                rs2: r(3)
            }
            .class(),
            OpClass::IntAlu
        );
        assert_eq!(
            Op::Mul {
                rd: r(1),
                rs1: r(2),
                rs2: r(3)
            }
            .class(),
            OpClass::IntMul
        );
        assert_eq!(
            Op::Load {
                rd: r(1),
                base: r(2),
                offset: 0
            }
            .class(),
            OpClass::Load
        );
        assert_eq!(Op::Return.class(), OpClass::Return);
        assert_eq!(Op::Halt.class(), OpClass::Halt);
    }

    #[test]
    fn zero_register_writes_are_discarded() {
        let op = Op::Add {
            rd: Reg::ZERO,
            rs1: r(1),
            rs2: r(2),
        };
        assert_eq!(op.dest(), None);
    }

    #[test]
    fn zero_register_reads_create_no_dependence() {
        let op = Op::Add {
            rd: r(3),
            rs1: Reg::ZERO,
            rs2: r(2),
        };
        let srcs: Vec<_> = op.sources().iter().collect();
        assert_eq!(srcs, vec![r(2)]);
    }

    #[test]
    fn call_writes_link() {
        let op = Op::Call {
            target: Addr::new(100),
        };
        assert_eq!(op.dest(), Some(Reg::LINK));
    }

    #[test]
    fn return_reads_link() {
        let srcs: Vec<_> = Op::Return.sources().iter().collect();
        assert_eq!(srcs, vec![Reg::LINK]);
    }

    #[test]
    fn backward_branch_detection() {
        let back = Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(5),
        };
        let fwd = Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(50),
        };
        assert!(back.is_backward_branch(Addr::new(10)));
        assert!(!fwd.is_backward_branch(Addr::new(10)));
        // A branch to itself counts as backward (degenerate loop).
        assert!(back.is_backward_branch(Addr::new(5)));
    }

    #[test]
    fn static_targets() {
        assert_eq!(
            Op::Jump {
                target: Addr::new(9)
            }
            .static_target(),
            Some(Addr::new(9))
        );
        assert_eq!(Op::Return.static_target(), None);
        assert_eq!(Op::IndirectJump { rs1: r(4) }.static_target(), None);
    }

    #[test]
    fn fall_through_classification() {
        let falls = [
            Op::Nop,
            Op::Add {
                rd: r(1),
                rs1: r(2),
                rs2: r(3),
            },
            Op::Branch {
                cond: BranchCond::Eq,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(9),
            },
            Op::Call {
                target: Addr::new(9),
            },
        ];
        for op in falls {
            assert!(op.can_fall_through(), "{op} falls through");
        }
        let stops = [
            Op::Jump {
                target: Addr::new(9),
            },
            Op::Return,
            Op::IndirectJump { rs1: r(4) },
            Op::Halt,
        ];
        for op in stops {
            assert!(!op.can_fall_through(), "{op} never falls through");
        }
    }

    #[test]
    fn block_terminators_are_exactly_control_ops() {
        assert!(Op::Return.is_block_terminator());
        assert!(Op::Call {
            target: Addr::new(1)
        }
        .is_block_terminator());
        assert!(!Op::Nop.is_block_terminator());
        assert!(!Op::LoadImm { rd: r(1), imm: 3 }.is_block_terminator());
    }

    #[test]
    fn branch_cond_eval_matrix() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(!BranchCond::Eq.eval(3, 4));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(!BranchCond::Lt.eval(0, 0));
        assert!(BranchCond::Ge.eval(0, 0));
    }

    #[test]
    fn display_smoke() {
        let op = Op::Branch {
            cond: BranchCond::Lt,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(4),
        };
        assert_eq!(op.to_string(), "blt r1, r2, 0x000010");
    }

    #[test]
    fn source_regs_iteration() {
        let op = Op::Store {
            src: r(5),
            base: r(6),
            offset: 8,
        };
        assert_eq!(op.sources().len(), 2);
        assert!(!op.sources().is_empty());
        let collected: Vec<_> = op.sources().into_iter().collect();
        assert_eq!(collected, vec![r(6), r(5)]);
    }
}
