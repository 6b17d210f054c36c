//! Property tests over the trace builder: the selection rules hold
//! for seeded random instruction/outcome sequences, and a builder
//! forked mid-trace completes exactly like the original.

use tpc_core::{
    PushResult, Resolution, Trace, TraceBuilder, TraceStop, ALIGN_QUANTUM, MAX_TRACE_LEN,
};
use tpc_isa::model::XorShift64;
use tpc_isa::{Addr, BranchCond, Op, OpClass, Reg};

const CASES: u32 = 512;

/// A generator-friendly instruction menu: index-shaped ops placed at
/// sequential addresses, with branch direction/backwardness encoded.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Alu,
    Load,
    Store,
    FwdBranch { taken: bool },
    BackBranch { taken: bool },
    Jump,
    Call,
    Return,
    Indirect,
}

/// 1 to 39 shapes, weighted towards straight-line code and branches.
fn shapes(rng: &mut XorShift64) -> Vec<Shape> {
    let n = rng.next_in(1, 39);
    (0..n)
        .map(|_| {
            let taken = rng.chance(1, 2);
            match rng.next_below(15) {
                0..=3 => Shape::Alu,
                4..=5 => Shape::Load,
                6 => Shape::Store,
                7..=8 => Shape::FwdBranch { taken },
                9..=10 => Shape::BackBranch { taken },
                11 => Shape::Jump,
                12 => Shape::Call,
                13 => Shape::Return,
                _ => Shape::Indirect,
            }
        })
        .collect()
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// The instruction and resolution a shape becomes at `pc`.
fn instr(shape: Shape, pc: Addr) -> (Op, Resolution) {
    let branch = |taken: bool, target: Addr| {
        let next_pc = if taken { target } else { pc.next() };
        (
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target,
            },
            Resolution::Branch { taken, next_pc },
        )
    };
    match shape {
        Shape::Alu => (
            Op::AddImm {
                rd: r(1),
                rs1: r(2),
                imm: 1,
            },
            Resolution::None,
        ),
        Shape::Load => (
            Op::Load {
                rd: r(1),
                base: r(2),
                offset: 0,
            },
            Resolution::None,
        ),
        Shape::Store => (
            Op::Store {
                src: r(1),
                base: r(2),
                offset: 0,
            },
            Resolution::None,
        ),
        Shape::FwdBranch { taken } => branch(taken, pc + 10),
        Shape::BackBranch { taken } => branch(taken, Addr::new(pc.word().saturating_sub(5))),
        Shape::Jump => (Op::Jump { target: pc + 7 }, Resolution::None),
        Shape::Call => (Op::Call { target: pc + 9 }, Resolution::None),
        Shape::Return => (Op::Return, Resolution::Target(pc + 3)),
        Shape::Indirect => (Op::IndirectJump { rs1: r(4) }, Resolution::None),
    }
}

/// What feeding a builder produced.
struct Fed {
    /// The completed trace, if the shapes completed one.
    trace: Option<Trace>,
    /// Instructions pushed.
    pushed: usize,
    /// Where the path continues after the last pushed instruction.
    pc: Addr,
    /// Outcomes of the pushed conditional branches, in order.
    outcomes: Vec<bool>,
    /// Index of the most recent backward branch pushed.
    last_backward: Option<usize>,
}

/// Feeds `shapes` from `pc` until the trace completes.
fn feed(b: &mut TraceBuilder, mut pc: Addr, shapes: &[Shape]) -> Fed {
    let mut outcomes = Vec::new();
    let mut last_backward = None;
    for (i, &shape) in shapes.iter().enumerate() {
        let (op, resolution) = instr(shape, pc);
        if let Resolution::Branch { taken, .. } = resolution {
            outcomes.push(taken);
            if op.is_backward_branch(pc) {
                last_backward = Some(i);
            }
        }
        match b.push(pc, op, resolution) {
            PushResult::Continue(next) => pc = next,
            PushResult::Complete(t) => {
                return Fed {
                    trace: Some(t),
                    pushed: i + 1,
                    pc,
                    outcomes,
                    last_backward,
                }
            }
        }
    }
    Fed {
        trace: None,
        pushed: shapes.len(),
        pc,
        outcomes,
        last_backward,
    }
}

#[test]
fn builder_invariants() {
    let mut rng = XorShift64::new(0x7B11_5EED);
    for case in 0..CASES {
        let shapes = shapes(&mut rng);
        let at = format!("case {case}: {shapes:?}");
        let start = Addr::new(1000);
        let mut b = TraceBuilder::new(start);
        let fed = feed(&mut b, start, &shapes);
        let Some(t) = fed.trace else {
            // No completion: the builder must still be within bounds.
            assert!(fed.pushed < MAX_TRACE_LEN, "{at}");
            assert_eq!(b.len(), fed.pushed, "{at}");
            continue;
        };
        // Length and identity invariants.
        assert!(!t.is_empty() && t.len() <= MAX_TRACE_LEN, "{at}");
        assert_eq!(t.len(), fed.pushed, "{at}");
        assert_eq!(t.start(), start, "{at}");
        assert_eq!(t.key().branch_count as usize, fed.outcomes.len(), "{at}");
        for (i, &taken) in fed.outcomes.iter().enumerate() {
            assert_eq!(t.branch_outcome(i as u8), Some(taken), "{at}");
        }
        // Stop-rule post-conditions.
        let last = t.instrs().last().expect("non-empty").op.class();
        match t.stop() {
            TraceStop::Full => assert_eq!(t.len(), MAX_TRACE_LEN, "{at}"),
            TraceStop::Return => assert_eq!(last, OpClass::Return, "{at}"),
            TraceStop::IndirectJump => assert_eq!(last, OpClass::IndirectJump, "{at}"),
            TraceStop::Halt => {}
            TraceStop::Alignment => {
                let p = fed
                    .last_backward
                    .expect("alignment needs a backward branch");
                let past = t.len() - 1 - p;
                assert!(
                    past > 0 && past.is_multiple_of(ALIGN_QUANTUM),
                    "{at}: ends a positive multiple of {ALIGN_QUANTUM} past the backward branch, got {past}"
                );
            }
        }
        // Alignment bound: never more than ALIGN_QUANTUM
        // instructions past the most recent backward branch.
        if let Some(p) = fed.last_backward {
            if p < t.len() - 1 {
                assert!(t.len() - 1 - p <= ALIGN_QUANTUM, "{at}");
            }
        }
    }
}

/// A builder cloned part-way (a constructor's branch decision point)
/// is independent of the original: fed the same remainder, both
/// complete the same trace, each in storage of its own.
#[test]
fn forked_builders_complete_identically() {
    let mut rng = XorShift64::new(0xF0_4C5E);
    for case in 0..CASES {
        let shapes = shapes(&mut rng);
        let at = format!("case {case}: {shapes:?}");
        let start = Addr::new(1000);
        let whole = feed(&mut TraceBuilder::new(start), start, &shapes);
        let Some(reference) = whole.trace else {
            continue;
        };

        let split = rng.next_below(whole.pushed as u32) as usize;
        let mut original = TraceBuilder::new(start);
        let head = feed(&mut original, start, &shapes[..split]);
        assert!(head.trace.is_none(), "{at}");
        let mut fork = original.clone();
        let a = feed(&mut original, head.pc, &shapes[split..]).trace;
        let b = feed(&mut fork, head.pc, &shapes[split..]).trace;
        let (a, b) = (a.expect("completes"), b.expect("completes"));
        assert_eq!(a, reference, "{at}");
        assert_eq!(b, reference, "{at}");
        assert!(!a.shares_storage_with(&b), "{at}");
    }
}

/// `feed` continues exactly where `push` continues and ends exactly
/// where `push` completes a trace; the builder it leaves then has the
/// trace's key and successor, builds an equal trace, and makes an
/// equal instance of it that shares its storage.
#[test]
fn feed_agrees_with_push() {
    let mut rng = XorShift64::new(0x0D15_CA4D);
    for case in 0..CASES {
        let shapes = shapes(&mut rng);
        let at = format!("case {case}: {shapes:?}");
        let mut pc = Addr::new(1000);
        let (mut pushing, mut feeding) = (TraceBuilder::new(pc), TraceBuilder::new(pc));
        for &shape in &shapes {
            let (op, resolution) = instr(shape, pc);
            let next = feeding.feed(pc, op, resolution);
            match pushing.push(pc, op, resolution) {
                PushResult::Continue(want) => {
                    assert_eq!(next, Some(want), "{at}");
                    assert!(!feeding.is_complete(), "{at}");
                    pc = want;
                }
                PushResult::Complete(t) => {
                    assert_eq!(next, None, "{at}");
                    assert!(feeding.is_complete(), "{at}");
                    assert_eq!(feeding.key(), t.key(), "{at}");
                    assert_eq!(feeding.successor(), t.successor(), "{at}");
                    assert_eq!(feeding.build(), t, "{at}");
                    let instance = feeding.instance_of(&t);
                    assert_eq!(instance, t, "{at}");
                    assert!(instance.shares_storage_with(&t), "{at}");
                    break;
                }
            }
        }
    }
}
