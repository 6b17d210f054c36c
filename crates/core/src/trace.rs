//! Traces and the shared trace-selection rules.

use std::sync::Arc;
use tpc_isa::{Addr, Op, OpClass};
use tpc_predict::{TraceEnd, TraceKey};

/// Maximum trace length in instructions (paper Section 4.1).
pub const MAX_TRACE_LEN: usize = 16;

/// Number of instructions past a backward branch at which a trace is
/// forced to end (the alignment heuristic of paper Section 2.2).
pub const ALIGN_QUANTUM: usize = 4;

/// One instruction inside a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInstr {
    /// The instruction's static address.
    pub pc: Addr,
    /// The instruction.
    pub op: Op,
}

/// Why a [`TraceBuilder`] terminated its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStop {
    /// Reached [`MAX_TRACE_LEN`].
    Full,
    /// Ended at a `ret` (trace-processor selection rule).
    Return,
    /// Ended at an indirect jump (target unknown to preconstruction).
    IndirectJump,
    /// Ended at `halt`.
    Halt,
    /// Ended on the mod-4 alignment boundary past a backward branch.
    Alignment,
}

/// A completed trace: a snapshot of up to 16 dynamic instructions.
///
/// Identity is carried by its [`TraceKey`] (start address plus
/// embedded conditional-branch outcomes); [`Trace::successor`] is the
/// address of the instruction that follows the trace along the path
/// it encodes — the next trace's start point — when that address is
/// statically known.
///
/// The instruction snapshot and preprocessing annotations live behind
/// [`Arc`]s: cloning a trace — a trace-cache fill, a
/// preconstruction-buffer promotion, a dispatch-stream handoff — is a
/// refcount bump, mirroring hardware where these movements are wire
/// transfers of the same lines, not fresh copies.
///
/// The key fixes everything but the successor: the path is a function
/// of the start and the outcomes, and returns, indirect jumps and
/// halts end the trace. So one snapshot serves every instance of a
/// key. The trace stream hands out instances that share the
/// snapshot of an earlier instance ([`TraceBuilder::instance_of`]),
/// and the preconstruction engine builds a trace only when the store
/// takes it as a new entry ([`crate::TraceStore::file_precon`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    instrs: Arc<[TraceInstr]>,
    key: TraceKey,
    end: TraceEnd,
    stop: TraceStop,
    successor: Option<Addr>,
    preprocess: Option<Arc<crate::preprocess::PreprocessInfo>>,
}

impl Trace {
    /// The trace's identity.
    #[inline]
    pub fn key(&self) -> TraceKey {
        self.key
    }

    /// Instructions in dynamic order.
    pub fn instrs(&self) -> &[TraceInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the trace is empty (never true for built traces).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Start address.
    pub fn start(&self) -> Addr {
        self.key.start
    }

    /// How the trace ends, for the next-trace predictor's return
    /// history stack.
    pub fn end(&self) -> TraceEnd {
        self.end
    }

    /// Why trace selection stopped here.
    pub fn stop(&self) -> TraceStop {
        self.stop
    }

    /// The address of the next instruction after the trace along the
    /// encoded path, when statically known (unknown after returns
    /// whose call site was not observed, and after indirect jumps).
    pub fn successor(&self) -> Option<Addr> {
        self.successor
    }

    /// The outcome of the `i`-th conditional branch in the trace.
    pub fn branch_outcome(&self, i: u8) -> Option<bool> {
        branch_outcome(self.key, i)
    }

    /// Preprocessing annotations, when the trace went through the
    /// preprocessing pipeline (see [`mod@crate::preprocess`]).
    pub fn preprocess_info(&self) -> Option<&crate::preprocess::PreprocessInfo> {
        self.preprocess.as_deref()
    }

    /// Shared handle to the preprocessing annotations, for callers
    /// that forward them to another trace instance without copying.
    pub fn preprocess_shared(&self) -> Option<Arc<crate::preprocess::PreprocessInfo>> {
        self.preprocess.clone()
    }

    /// Attaches preprocessing annotations (idempotent; later calls
    /// replace earlier ones).
    pub fn set_preprocess(&mut self, info: crate::preprocess::PreprocessInfo) {
        self.preprocess = Some(Arc::new(info));
    }

    /// Attaches already-shared preprocessing annotations (a refcount
    /// bump, used when a stored trace's annotations are carried over
    /// to the fetched instance).
    pub fn set_preprocess_arc(&mut self, info: Arc<crate::preprocess::PreprocessInfo>) {
        self.preprocess = Some(info);
    }

    /// Whether two trace instances share the same underlying
    /// instruction storage (diagnostics for the zero-copy invariant).
    pub fn shares_storage_with(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.instrs, &other.instrs)
    }

    /// Validates the trace against the static code it claims to
    /// snapshot — the differential oracle's conservation invariant
    /// for every trace-cache hit, and a debug assertion on every
    /// constructed trace:
    ///
    /// * every instruction appears verbatim at its address in the
    ///   program;
    /// * consecutive instructions follow the encoded path (branch
    ///   outcomes from the key, static targets for jumps/calls);
    /// * the key's branch count matches the snapshot;
    /// * the stop kind is consistent with the final instruction
    ///   (traces end only at returns, indirect jumps, halts, the
    ///   length cap, or the alignment boundary — DESIGN.md §selection).
    pub fn validate_against(&self, program: &tpc_isa::Program) -> Result<(), String> {
        validate(&self.instrs, self.key, self.stop, program)
    }
}

/// The outcome of the `i`-th conditional branch on `key`'s path.
fn branch_outcome(key: TraceKey, i: u8) -> Option<bool> {
    (i < key.branch_count).then(|| (key.outcomes >> i) & 1 == 1)
}

/// The checks of [`Trace::validate_against`], over a snapshot that
/// may not be built yet.
fn validate(
    instrs: &[TraceInstr],
    key: TraceKey,
    stop: TraceStop,
    program: &tpc_isa::Program,
) -> Result<(), String> {
    if instrs.is_empty() || instrs.len() > MAX_TRACE_LEN {
        return Err(format!("trace length {} out of bounds", instrs.len()));
    }
    if key.start != instrs[0].pc {
        return Err(format!(
            "key start {:?} != first instruction {:?}",
            key.start, instrs[0].pc
        ));
    }
    let mut branches = 0u8;
    for (i, ti) in instrs.iter().enumerate() {
        match program.fetch(ti.pc) {
            Some(op) if *op == ti.op => {}
            Some(op) => {
                return Err(format!(
                    "instruction at {:?} diverges from static code: trace {:?}, program {:?}",
                    ti.pc, ti.op, op
                ));
            }
            None => return Err(format!("address {:?} outside the program", ti.pc)),
        }
        let expected_next = match ti.op.class() {
            OpClass::Branch => {
                let taken = branch_outcome(key, branches)
                    .ok_or_else(|| format!("branch at {:?} beyond key branch count", ti.pc))?;
                branches += 1;
                if taken {
                    ti.op.static_target()
                } else {
                    Some(ti.pc.next())
                }
            }
            OpClass::Jump | OpClass::Call => ti.op.static_target(),
            // Successors of returns/indirect jumps/halts are
            // dynamic; they terminate the trace anyway.
            OpClass::Return | OpClass::IndirectJump | OpClass::Halt => None,
            _ => Some(ti.pc.next()),
        };
        if let Some(next) = instrs.get(i + 1) {
            match expected_next {
                Some(e) if e == next.pc => {}
                Some(e) => {
                    return Err(format!(
                        "path break after {:?}: expected {:?}, trace has {:?}",
                        ti.pc, e, next.pc
                    ));
                }
                None => {
                    return Err(format!(
                        "trace continues past terminating instruction at {:?}",
                        ti.pc
                    ));
                }
            }
        }
    }
    if branches != key.branch_count {
        return Err(format!(
            "key claims {} branches, trace holds {}",
            key.branch_count, branches
        ));
    }
    let last = instrs.last().expect("non-empty").op.class();
    let stop_ok = match stop {
        TraceStop::Return => last == OpClass::Return,
        TraceStop::IndirectJump => last == OpClass::IndirectJump,
        TraceStop::Halt => last == OpClass::Halt,
        TraceStop::Full => instrs.len() == MAX_TRACE_LEN,
        TraceStop::Alignment => instrs.iter().any(|ti| ti.op.is_backward_branch(ti.pc)),
    };
    if !stop_ok {
        return Err(format!(
            "stop kind {:?} inconsistent with trace contents",
            stop
        ));
    }
    Ok(())
}

/// What the builder wants after accepting an instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushResult {
    /// Keep feeding instructions; the next one is at the returned
    /// address (the followed path).
    Continue(Addr),
    /// The trace is complete.
    Complete(Trace),
}

/// Incremental trace builder implementing the shared selection rules.
///
/// Both the processor's fill path and the preconstruction engine
/// build traces through this type, which is what makes their traces
/// *align* (identical start points ⇒ identical end points — paper
/// Section 2.2):
///
/// 1. a trace holds at most [`MAX_TRACE_LEN`] instructions;
/// 2. a trace ends at `ret`, `jr` (indirect jump) and `halt`;
/// 3. a trace that contains a (statically) backward conditional
///    branch ends [`ALIGN_QUANTUM`] instructions past the most
///    recent such branch.
///
/// The caller resolves each control instruction (it knows the branch
/// outcome — from the dynamic stream on the fill path, from bias
/// following during preconstruction) and feeds instructions one at a
/// time via [`TraceBuilder::push`] or [`TraceBuilder::feed`].
///
/// The instructions accumulate in an inline [`MAX_TRACE_LEN`] array,
/// so forking a builder (the constructors' branch decision points) is
/// a memcpy. A completed builder holds the whole trace: its
/// [`key`](TraceBuilder::key) and [`successor`](TraceBuilder::successor)
/// are known before anything allocates, and only
/// [`build`](TraceBuilder::build) copies the instructions into shared
/// storage. Callers that may already hold the trace check the key
/// first and skip the copy.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    start: Addr,
    instrs: [TraceInstr; MAX_TRACE_LEN],
    len: usize,
    outcomes: u16,
    branch_count: u8,
    last_backward_branch: Option<usize>,
    call_depth: u32,
    unmatched_return: bool,
    /// Why the trace ended and its successor, once it has.
    ended: Option<(TraceStop, Option<Addr>)>,
}

impl TraceBuilder {
    /// Starts a trace at `start`. The first pushed instruction must
    /// be the one at `start` (checked in debug builds).
    pub fn new(start: Addr) -> Self {
        TraceBuilder {
            start,
            instrs: [TraceInstr {
                pc: Addr::ZERO,
                op: Op::Nop,
            }; MAX_TRACE_LEN],
            len: 0,
            outcomes: 0,
            branch_count: 0,
            last_backward_branch: None,
            call_depth: 0,
            unmatched_return: false,
            ended: None,
        }
    }

    /// Instructions accepted so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no instruction has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the last fed instruction completed the trace.
    pub fn is_complete(&self) -> bool {
        self.ended.is_some()
    }

    /// The identity of the trace accepted so far: the whole trace's
    /// once it is complete.
    #[inline]
    pub fn key(&self) -> TraceKey {
        TraceKey {
            start: self.start,
            branch_count: self.branch_count,
            outcomes: self.outcomes,
        }
    }

    /// The completed trace's successor (see [`Trace::successor`]);
    /// `None` also while the trace is incomplete.
    pub fn successor(&self) -> Option<Addr> {
        self.ended.and_then(|(_, successor)| successor)
    }

    /// Instructions accepted so far, in dynamic order.
    fn instrs(&self) -> &[TraceInstr] {
        &self.instrs[..self.len]
    }

    /// Feeds the next instruction on the path and builds the trace it
    /// completes.
    ///
    /// `resolved` carries the dynamic resolution of control
    /// instructions: for a conditional branch, `Some((taken,
    /// next_pc))`; for everything else the successor or `None` when
    /// it is unknown (a `ret` whose call site was not observed, an
    /// indirect jump during preconstruction).
    ///
    /// # Panics
    ///
    /// Panics if called after the trace completed (in debug builds),
    /// or if a conditional branch is fed without its resolution.
    #[inline]
    pub fn push(&mut self, pc: Addr, op: Op, resolved: Resolution) -> PushResult {
        match self.feed(pc, op, resolved) {
            Some(next) => PushResult::Continue(next),
            None => PushResult::Complete(self.build()),
        }
    }

    /// Feeds the next instruction like [`TraceBuilder::push`], but
    /// builds nothing: returns the next address, or `None` when the
    /// instruction completed the trace, which the builder then holds
    /// unbuilt. Dropping the builder discards it without allocating.
    #[inline]
    pub fn feed(&mut self, pc: Addr, op: Op, resolved: Resolution) -> Option<Addr> {
        debug_assert!(self.ended.is_none(), "trace already complete");
        debug_assert!(
            self.len > 0 || pc == self.start,
            "first instruction must sit at the trace start"
        );
        let idx = self.len;
        self.instrs[idx] = TraceInstr { pc, op };
        self.len += 1;

        let target = match resolved {
            Resolution::Target(t) => Some(t),
            _ => None,
        };
        let mut next = pc.next();
        match op.class() {
            OpClass::Branch => {
                let Resolution::Branch { taken, next_pc } = resolved else {
                    panic!("conditional branch requires a Branch resolution");
                };
                if taken {
                    self.outcomes |= 1 << self.branch_count;
                }
                self.branch_count += 1;
                if op.is_backward_branch(pc) {
                    self.last_backward_branch = Some(idx);
                }
                next = next_pc;
            }
            OpClass::Jump => next = op.static_target().expect("jumps have a static target"),
            OpClass::Call => {
                self.call_depth += 1;
                next = op.static_target().expect("calls have a static target");
            }
            OpClass::Return => {
                if self.call_depth > 0 {
                    self.call_depth -= 1;
                } else {
                    self.unmatched_return = true;
                }
                return self.end(TraceStop::Return, target);
            }
            OpClass::IndirectJump => return self.end(TraceStop::IndirectJump, target),
            OpClass::Halt => return self.end(TraceStop::Halt, target),
            _ => {}
        }
        if self.len == MAX_TRACE_LEN {
            return self.end(TraceStop::Full, Some(next));
        }
        if let Some(p) = self.last_backward_branch {
            if idx > p && (idx - p).is_multiple_of(ALIGN_QUANTUM) {
                return self.end(TraceStop::Alignment, Some(next));
            }
        }
        Some(next)
    }

    /// Marks the trace complete; `feed`'s "no next address".
    fn end(&mut self, stop: TraceStop, successor: Option<Addr>) -> Option<Addr> {
        self.ended = Some((stop, successor));
        None
    }

    /// The trace's "end kind" for the return history stack: an
    /// unmatched return pops saved history; an unmatched call
    /// (crossing into a callee) saves it; matched pairs cancel.
    fn end_kind(&self) -> TraceEnd {
        if self.unmatched_return {
            TraceEnd::Return
        } else if self.call_depth > 0 {
            TraceEnd::Call
        } else {
            TraceEnd::Fallthrough
        }
    }

    fn stop(&self) -> TraceStop {
        self.ended.expect("the trace is complete").0
    }

    /// Builds the completed trace: copies its instructions into a new
    /// shared snapshot (one allocation).
    ///
    /// # Panics
    ///
    /// Panics if the trace is not complete.
    pub fn build(&self) -> Trace {
        Trace {
            instrs: Arc::from(self.instrs()),
            key: self.key(),
            end: self.end_kind(),
            stop: self.stop(),
            successor: self.successor(),
            preprocess: None,
        }
    }

    /// The completed trace as a new instance of `stored`, a trace
    /// with the same key: it shares `stored`'s snapshot, allocates
    /// nothing and carries this instance's successor. Debug builds
    /// check that the key did fix the contents.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not complete.
    pub fn instance_of(&self, stored: &Trace) -> Trace {
        debug_assert!(
            stored.key == self.key()
                && *stored.instrs == *self.instrs()
                && stored.end == self.end_kind()
                && stored.stop == self.stop(),
            "{self:?} is not an instance of {stored:?}"
        );
        Trace {
            instrs: Arc::clone(&stored.instrs),
            key: stored.key,
            end: stored.end,
            stop: self.stop(),
            successor: self.successor(),
            preprocess: None,
        }
    }

    /// [`Trace::validate_against`] for the completed, unbuilt trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not complete.
    pub fn validate_against(&self, program: &tpc_isa::Program) -> Result<(), String> {
        validate(self.instrs(), self.key(), self.stop(), program)
    }
}

/// Resolution of the just-pushed instruction's control flow, supplied
/// by the caller of [`TraceBuilder::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Not a control instruction (or a direct jump/call whose target
    /// is static).
    None,
    /// A conditional branch's direction and successor.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// The address execution continues at.
        next_pc: Addr,
    },
    /// A dynamically-known target (return/indirect-jump successor on
    /// the fill path), or the restart address after `halt`.
    Target(Addr),
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::{BranchCond, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn alu(dst: u8) -> Op {
        Op::AddImm {
            rd: r(dst),
            rs1: r(dst),
            imm: 1,
        }
    }

    fn push_alu(b: &mut TraceBuilder, pc: u32) -> PushResult {
        b.push(Addr::new(pc), alu(1), Resolution::None)
    }

    #[test]
    fn caps_at_sixteen() {
        let mut b = TraceBuilder::new(Addr::new(0));
        for pc in 0..15 {
            assert!(matches!(push_alu(&mut b, pc), PushResult::Continue(_)));
        }
        match push_alu(&mut b, 15) {
            PushResult::Complete(t) => {
                assert_eq!(t.len(), 16);
                assert_eq!(t.stop(), TraceStop::Full);
                assert_eq!(t.successor(), Some(Addr::new(16)));
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn ends_at_return_with_known_target() {
        let mut b = TraceBuilder::new(Addr::new(0));
        push_alu(&mut b, 0);
        match b.push(Addr::new(1), Op::Return, Resolution::Target(Addr::new(40))) {
            PushResult::Complete(t) => {
                assert_eq!(t.stop(), TraceStop::Return);
                assert_eq!(t.end(), TraceEnd::Return);
                assert_eq!(t.successor(), Some(Addr::new(40)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ends_at_return_with_unknown_target() {
        let mut b = TraceBuilder::new(Addr::new(0));
        match b.push(Addr::new(0), Op::Return, Resolution::None) {
            PushResult::Complete(t) => assert_eq!(t.successor(), None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ends_at_indirect_jump() {
        let mut b = TraceBuilder::new(Addr::new(0));
        push_alu(&mut b, 0);
        match b.push(
            Addr::new(1),
            Op::IndirectJump { rs1: r(4) },
            Resolution::None,
        ) {
            PushResult::Complete(t) => {
                assert_eq!(t.stop(), TraceStop::IndirectJump);
                assert_eq!(t.successor(), None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn branch_outcomes_recorded_in_order() {
        let mut b = TraceBuilder::new(Addr::new(0));
        let fwd = |_pc: u32, target: u32| Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(target),
        };
        // taken forward branch, then not-taken forward branch
        b.push(
            Addr::new(0),
            fwd(0, 10),
            Resolution::Branch {
                taken: true,
                next_pc: Addr::new(10),
            },
        );
        b.push(
            Addr::new(10),
            fwd(10, 20),
            Resolution::Branch {
                taken: false,
                next_pc: Addr::new(11),
            },
        );
        let t = match push_alu(&mut b, 11) {
            PushResult::Continue(_) => {
                // Force completion by filling up.
                let mut bb = b;
                let mut out = None;
                for pc in 12..30 {
                    match push_alu(&mut bb, pc) {
                        PushResult::Complete(t) => {
                            out = Some(t);
                            break;
                        }
                        PushResult::Continue(_) => {}
                    }
                }
                out.unwrap()
            }
            PushResult::Complete(t) => t,
        };
        assert_eq!(t.key().branch_count, 2);
        assert_eq!(t.branch_outcome(0), Some(true));
        assert_eq!(t.branch_outcome(1), Some(false));
        assert_eq!(t.branch_outcome(2), None);
    }

    #[test]
    fn alignment_rule_ends_four_past_backward_branch() {
        let mut b = TraceBuilder::new(Addr::new(100));
        push_alu(&mut b, 100);
        // Backward branch at index 1 (target < pc), not taken (loop exit).
        let back = Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(90),
        };
        b.push(
            Addr::new(101),
            back,
            Resolution::Branch {
                taken: false,
                next_pc: Addr::new(102),
            },
        );
        // Four more instructions allowed; the fourth completes.
        assert!(matches!(push_alu(&mut b, 102), PushResult::Continue(_)));
        assert!(matches!(push_alu(&mut b, 103), PushResult::Continue(_)));
        assert!(matches!(push_alu(&mut b, 104), PushResult::Continue(_)));
        match push_alu(&mut b, 105) {
            PushResult::Complete(t) => {
                assert_eq!(t.stop(), TraceStop::Alignment);
                assert_eq!(t.len(), 6);
                assert_eq!(t.successor(), Some(Addr::new(106)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alignment_ignores_forward_branches() {
        let mut b = TraceBuilder::new(Addr::new(0));
        let fwd = Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(100),
        };
        b.push(
            Addr::new(0),
            fwd,
            Resolution::Branch {
                taken: false,
                next_pc: Addr::new(1),
            },
        );
        for pc in 1..15 {
            assert!(
                matches!(push_alu(&mut b, pc), PushResult::Continue(_)),
                "forward branch must not trigger alignment stop at pc {pc}"
            );
        }
    }

    #[test]
    fn taken_backward_branch_also_triggers_alignment() {
        // The rule keys on the *static* backward shape, matching both
        // engines' view of the code.
        let mut b = TraceBuilder::new(Addr::new(50));
        let back = Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: r(2),
            target: Addr::new(40),
        };
        b.push(
            Addr::new(50),
            back,
            Resolution::Branch {
                taken: true,
                next_pc: Addr::new(40),
            },
        );
        for pc in 40..43 {
            assert!(matches!(push_alu(&mut b, pc), PushResult::Continue(_)));
        }
        assert!(matches!(push_alu(&mut b, 43), PushResult::Complete(_)));
    }

    #[test]
    fn trace_ending_in_call_reports_call_end() {
        let mut b = TraceBuilder::new(Addr::new(0));
        push_alu(&mut b, 0);
        b.push(
            Addr::new(1),
            Op::Call {
                target: Addr::new(100),
            },
            Resolution::None,
        );
        // Fill to completion from the callee.
        let mut trace = None;
        for pc in 100..120 {
            if let PushResult::Complete(t) = push_alu(&mut b, pc) {
                trace = Some(t);
                break;
            }
        }
        assert_eq!(trace.unwrap().end(), TraceEnd::Call);
    }

    #[test]
    fn key_identity_start_and_outcomes() {
        let build = |taken: bool| {
            let mut b = TraceBuilder::new(Addr::new(0));
            let fwd = Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(8),
            };
            let next = if taken { Addr::new(8) } else { Addr::new(1) };
            b.push(
                Addr::new(0),
                fwd,
                Resolution::Branch {
                    taken,
                    next_pc: next,
                },
            );
            let mut out = None;
            for pc in next.word()..next.word() + 20 {
                if let PushResult::Complete(t) = push_alu(&mut b, pc) {
                    out = Some(t);
                    break;
                }
            }
            out.unwrap()
        };
        let a = build(true);
        let b_ = build(false);
        assert_eq!(a.key().start, b_.key().start);
        assert_ne!(a.key(), b_.key(), "different paths yield different keys");
    }

    #[test]
    fn jumps_and_calls_do_not_end_traces() {
        let mut b = TraceBuilder::new(Addr::new(0));
        assert!(matches!(
            b.push(Addr::new(0), Op::Jump { target: Addr::new(7) }, Resolution::None),
            PushResult::Continue(a) if a == Addr::new(7)
        ));
        assert!(matches!(
            b.push(Addr::new(7), Op::Call { target: Addr::new(30) }, Resolution::None),
            PushResult::Continue(a) if a == Addr::new(30)
        ));
    }
}
