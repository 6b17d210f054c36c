//! Static program representation.

use crate::model::{IndirectModel, OutcomeModel};
use crate::{Addr, Op};
use std::collections::BTreeMap;
use std::fmt;

/// Metadata for one function in a generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfo {
    /// Human-readable name (e.g. `"f17"` or `"main"`).
    pub name: String,
    /// Address of the first instruction.
    pub entry: Addr,
    /// Number of instructions.
    pub len: u32,
}

/// A complete static program: code plus the control-flow behaviour
/// models the executor resolves branches with.
///
/// Construct via [`ProgramBuilder`], which validates the invariants
/// listed on [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    code: Vec<Op>,
    entry: Addr,
    branch_models: BTreeMap<u32, OutcomeModel>,
    indirect_models: BTreeMap<u32, IndirectModel>,
    functions: Vec<FunctionInfo>,
}

impl Program {
    /// The instruction at `addr`, or `None` past the end of the code.
    #[inline]
    pub fn fetch(&self, addr: Addr) -> Option<&Op> {
        self.code.get(addr.word() as usize)
    }

    /// The program's entry point.
    #[inline]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// All instructions, in address order.
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// The outcome model for the conditional branch at `addr`.
    #[inline]
    pub fn branch_model(&self, addr: Addr) -> Option<&OutcomeModel> {
        self.branch_models.get(&addr.word())
    }

    /// The target model for the indirect jump at `addr`.
    #[inline]
    pub fn indirect_model(&self, addr: Addr) -> Option<&IndirectModel> {
        self.indirect_models.get(&addr.word())
    }

    /// The statically-declared target set of the indirect jump at
    /// `addr` (empty for any other address). CFG construction treats
    /// these as the jump's successor edges.
    pub fn indirect_targets(&self, addr: Addr) -> &[Addr] {
        self.indirect_models
            .get(&addr.word())
            .map_or(&[], |m| m.targets())
    }

    /// Function table (may be empty for hand-built programs).
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// Iterates over `(addr, op)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Op)> {
        self.code
            .iter()
            .enumerate()
            .map(|(i, op)| (Addr::new(i as u32), op))
    }

    /// Number of static conditional branches.
    pub fn branch_count(&self) -> usize {
        self.branch_models.len()
    }
}

impl fmt::Display for Program {
    /// A full disassembly listing, one instruction per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (addr, op) in self.iter() {
            writeln!(f, "{addr}:  {op}")?;
        }
        Ok(())
    }
}

/// Error produced when a [`ProgramBuilder`] fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The program has no instructions.
    Empty,
    /// The entry point lies outside the code.
    EntryOutOfRange(Addr),
    /// A control instruction targets an address outside the code.
    TargetOutOfRange {
        /// Address of the offending instruction.
        at: Addr,
        /// The out-of-range target.
        target: Addr,
    },
    /// A conditional branch has no outcome model attached.
    MissingBranchModel(Addr),
    /// An indirect jump has no target model attached.
    MissingIndirectModel(Addr),
    /// A model was attached to an address whose instruction does not
    /// match the model kind.
    ModelKindMismatch(Addr),
    /// The program has no reachable `halt` and no `main` loop —
    /// execution could run off the end of the code.
    FallsOffEnd,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program has no instructions"),
            ProgramError::EntryOutOfRange(a) => write!(f, "entry point {a} outside code"),
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction at {at} targets {target} outside code")
            }
            ProgramError::MissingBranchModel(a) => {
                write!(f, "conditional branch at {a} has no outcome model")
            }
            ProgramError::MissingIndirectModel(a) => {
                write!(f, "indirect jump at {a} has no target model")
            }
            ProgramError::ModelKindMismatch(a) => {
                write!(f, "model at {a} does not match the instruction kind")
            }
            ProgramError::FallsOffEnd => {
                write!(
                    f,
                    "last instruction can fall through past the end of the code"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Incremental builder for [`Program`].
///
/// ```
/// use tpc_isa::{ProgramBuilder, Op, Reg, Addr};
/// use tpc_isa::model::OutcomeModel;
///
/// # fn main() -> Result<(), tpc_isa::ProgramError> {
/// let mut b = ProgramBuilder::new();
/// let top = b.here();
/// b.push(Op::AddImm { rd: Reg::new(1), rs1: Reg::new(1), imm: 1 });
/// b.push_branch(
///     Op::Branch { cond: tpc_isa::BranchCond::Ne, rs1: Reg::new(1), rs2: Reg::ZERO, target: top },
///     OutcomeModel::Loop { trip: 10 },
/// );
/// b.push(Op::Halt);
/// let program = b.build()?;
/// assert_eq!(program.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    code: Vec<Op>,
    entry: Addr,
    branch_models: BTreeMap<u32, OutcomeModel>,
    indirect_models: BTreeMap<u32, IndirectModel>,
    functions: Vec<FunctionInfo>,
}

impl ProgramBuilder {
    /// Creates an empty builder with entry point 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The address the next pushed instruction will occupy.
    #[inline]
    pub fn here(&self) -> Addr {
        Addr::new(self.code.len() as u32)
    }

    /// Appends a non-branch instruction and returns its address.
    pub fn push(&mut self, op: Op) -> Addr {
        let at = self.here();
        self.code.push(op);
        at
    }

    /// Appends a conditional branch with its outcome model.
    pub fn push_branch(&mut self, op: Op, model: OutcomeModel) -> Addr {
        let at = self.push(op);
        self.branch_models.insert(at.word(), model);
        at
    }

    /// Appends an indirect jump with its target model.
    pub fn push_indirect(&mut self, op: Op, model: IndirectModel) -> Addr {
        let at = self.push(op);
        self.indirect_models.insert(at.word(), model);
        at
    }

    /// Overwrites the instruction at `addr` (used to patch forward
    /// targets once they are known).
    ///
    /// # Panics
    ///
    /// Panics if `addr` has not been emitted yet.
    pub fn patch(&mut self, addr: Addr, op: Op) {
        let slot = self
            .code
            .get_mut(addr.word() as usize)
            .expect("patch address not yet emitted");
        *slot = op;
    }

    /// Replaces the target model of the indirect jump at `addr` —
    /// used to fix up switch arms whose addresses are only known
    /// after the jump is emitted.
    pub fn set_indirect_model(&mut self, addr: Addr, model: IndirectModel) {
        self.indirect_models.insert(addr.word(), model);
    }

    /// Sets the program entry point (defaults to address 0).
    pub fn set_entry(&mut self, entry: Addr) -> &mut Self {
        self.entry = entry;
        self
    }

    /// Records a function covering `[entry, here)`.
    pub fn record_function(&mut self, name: impl Into<String>, entry: Addr) {
        let len = (self.here() - entry).max(0) as u32;
        self.functions.push(FunctionInfo {
            name: name.into(),
            entry,
            len,
        });
    }

    /// Validates and builds the program.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if the program is empty, the entry
    /// or any static target is out of range, any conditional branch
    /// or indirect jump lacks a behaviour model, a model is attached
    /// to the wrong kind of instruction, or the final instruction can
    /// fall through past the end of the code.
    pub fn build(self) -> Result<Program, ProgramError> {
        if self.code.is_empty() {
            return Err(ProgramError::Empty);
        }
        let limit = self.code.len() as u32;
        if self.entry.word() >= limit {
            return Err(ProgramError::EntryOutOfRange(self.entry));
        }
        for (i, op) in self.code.iter().enumerate() {
            let at = Addr::new(i as u32);
            if let Some(target) = op.static_target() {
                if target.word() >= limit {
                    return Err(ProgramError::TargetOutOfRange { at, target });
                }
            }
            match op {
                Op::Branch { .. } if !self.branch_models.contains_key(&at.word()) => {
                    return Err(ProgramError::MissingBranchModel(at));
                }
                Op::IndirectJump { .. } if !self.indirect_models.contains_key(&at.word()) => {
                    return Err(ProgramError::MissingIndirectModel(at));
                }
                _ => {}
            }
        }
        for &w in self.branch_models.keys() {
            match self.code.get(w as usize) {
                Some(Op::Branch { .. }) => {}
                _ => return Err(ProgramError::ModelKindMismatch(Addr::new(w))),
            }
        }
        for (&w, model) in &self.indirect_models {
            match self.code.get(w as usize) {
                Some(Op::IndirectJump { .. }) => {}
                _ => return Err(ProgramError::ModelKindMismatch(Addr::new(w))),
            }
            for &t in model.targets() {
                if t.word() >= limit {
                    return Err(ProgramError::TargetOutOfRange {
                        at: Addr::new(w),
                        target: t,
                    });
                }
            }
        }
        // The last instruction must not be able to fall through (a
        // trailing branch falls off on its not-taken arm; a trailing
        // call has no return point to come back to).
        let last = self.code.last().expect("non-empty");
        if last.can_fall_through() {
            return Err(ProgramError::FallsOffEnd);
        }
        Ok(Program {
            code: self.code,
            entry: self.entry,
            branch_models: self.branch_models,
            indirect_models: self.indirect_models,
            functions: self.functions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchCond, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn branch_to(target: Addr) -> Op {
        Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target,
        }
    }

    #[test]
    fn build_minimal_program() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Halt);
        let p = b.build().expect("valid program");
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(Addr::new(1)), Some(&Op::Halt));
        assert_eq!(p.fetch(Addr::new(2)), None);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            ProgramError::Empty
        );
    }

    #[test]
    fn entry_out_of_range_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Halt);
        b.set_entry(Addr::new(5));
        assert!(matches!(b.build(), Err(ProgramError::EntryOutOfRange(_))));
    }

    #[test]
    fn branch_without_model_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(branch_to(Addr::new(0)));
        b.push(Op::Halt);
        assert!(matches!(
            b.build(),
            Err(ProgramError::MissingBranchModel(_))
        ));
    }

    #[test]
    fn target_out_of_range_rejected() {
        let mut b = ProgramBuilder::new();
        b.push_branch(branch_to(Addr::new(99)), OutcomeModel::AlwaysTaken);
        b.push(Op::Halt);
        assert!(matches!(
            b.build(),
            Err(ProgramError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn falling_off_end_rejected() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        assert_eq!(b.build().unwrap_err(), ProgramError::FallsOffEnd);
    }

    #[test]
    fn trailing_branch_rejected() {
        let mut b = ProgramBuilder::new();
        b.push_branch(branch_to(Addr::new(0)), OutcomeModel::AlwaysTaken);
        assert_eq!(b.build().unwrap_err(), ProgramError::FallsOffEnd);
    }

    #[test]
    fn indirect_model_targets_validated() {
        let mut b = ProgramBuilder::new();
        b.push_indirect(
            Op::IndirectJump { rs1: r(4) },
            IndirectModel::uniform(vec![Addr::new(50)], 1),
        );
        b.push(Op::Halt);
        assert!(matches!(
            b.build(),
            Err(ProgramError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn patch_rewrites_instruction() {
        let mut b = ProgramBuilder::new();
        let at = b.push(Op::Nop);
        b.push(Op::Halt);
        b.patch(
            at,
            Op::Jump {
                target: Addr::new(1),
            },
        );
        let p = b.build().unwrap();
        assert_eq!(
            p.fetch(at),
            Some(&Op::Jump {
                target: Addr::new(1)
            })
        );
    }

    #[test]
    fn functions_recorded() {
        let mut b = ProgramBuilder::new();
        let entry = b.here();
        b.push(Op::Nop);
        b.push(Op::Halt);
        b.record_function("main", entry);
        let p = b.build().unwrap();
        assert_eq!(p.functions().len(), 1);
        assert_eq!(p.functions()[0].name, "main");
        assert_eq!(p.functions()[0].len, 2);
    }

    #[test]
    fn display_lists_every_instruction() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let listing = p.to_string();
        assert_eq!(listing.lines().count(), 2);
        assert!(listing.contains("halt"));
    }

    #[test]
    fn trailing_call_rejected() {
        // A call's return point is the next address; a call as the
        // last instruction would return past the end of the code, so
        // every call in a valid program has an in-range return point.
        let mut b = ProgramBuilder::new();
        b.push(Op::Call {
            target: Addr::new(0),
        });
        assert_eq!(b.build().unwrap_err(), ProgramError::FallsOffEnd);
    }

    #[test]
    fn every_call_pairs_with_an_in_range_return_point() {
        let mut b = ProgramBuilder::new();
        let call_at = b.push(Op::Call {
            target: Addr::new(3),
        });
        b.push(Op::Nop); // the return point
        b.push(Op::Halt);
        b.push(Op::Return); // callee at 3
        let p = b.build().unwrap();
        let op = p.fetch(call_at).unwrap();
        assert_eq!(op.static_target(), Some(Addr::new(3)));
        assert!(op.can_fall_through(), "return point is call_at + 1");
        assert!(p.fetch(call_at.next()).is_some());
    }

    #[test]
    fn branch_targets_decode_exactly() {
        // Leader computation reads branch targets through
        // `static_target`; pin that build() preserves them verbatim
        // for both the backward (loop) and forward (diamond) shapes.
        let mut b = ProgramBuilder::new();
        let top = b.push(Op::Nop);
        b.push_branch(branch_to(top), OutcomeModel::Loop { trip: 4 });
        let fwd_at = b.push_branch(branch_to(Addr::new(4)), OutcomeModel::AlwaysTaken);
        b.push(Op::Nop);
        b.push(Op::Halt);
        let p = b.build().unwrap();
        assert_eq!(
            p.fetch(Addr::new(1)).unwrap().static_target(),
            Some(top),
            "backward branch target survives build"
        );
        assert!(p
            .fetch(Addr::new(1))
            .unwrap()
            .is_backward_branch(Addr::new(1)));
        assert_eq!(p.fetch(fwd_at).unwrap().static_target(), Some(Addr::new(4)));
        assert!(!p.fetch(fwd_at).unwrap().is_backward_branch(fwd_at));
    }

    #[test]
    fn indirect_targets_accessor_mirrors_the_model() {
        let mut b = ProgramBuilder::new();
        let arms = vec![Addr::new(1), Addr::new(2)];
        let jr_at = b.push_indirect(
            Op::IndirectJump { rs1: r(4) },
            IndirectModel::uniform(arms.clone(), 7),
        );
        b.push(Op::Halt); // arm 1
        b.push(Op::Halt); // arm 2
        let p = b.build().unwrap();
        assert_eq!(p.indirect_targets(jr_at), &arms[..]);
        assert!(p.indirect_targets(Addr::new(1)).is_empty());
    }

    #[test]
    fn iter_yields_addresses_in_order() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Nop);
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let addrs: Vec<u32> = p.iter().map(|(a, _)| a.word()).collect();
        assert_eq!(addrs, vec![0, 1, 2]);
    }
}
