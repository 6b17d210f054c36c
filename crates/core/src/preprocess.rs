//! Trace preprocessing (paper Section 6, mechanism 2).
//!
//! The trace cache decouples a *preprocessing pipeline* from the
//! processor core: traces can be rewritten at fill time into
//! functionally equivalent but faster-executing forms. Three
//! optimizations from Friendly/Patel/Patt (MICRO 1998) and
//! Jacobson/Smith (HPCA 1999) are modelled:
//!
//! 1. **Constant propagation** — immediates flow through the trace;
//!    an instruction whose inputs are all known at fill time needs no
//!    operands at runtime (its result is pre-computed), removing its
//!    input dependences.
//! 2. **Combined shift-add ALU** — the paper's new ALU "adds two
//!    register operands, each of which can be shifted left by a small
//!    immediate amount, and a third immediate operand". A simple ALU
//!    consumer is *collapsed* with its simple producer: it executes
//!    in one cycle using the producer's sources directly, removing
//!    one level of serialization.
//! 3. **Instruction scheduling** — a list schedule over the
//!    (post-transformation) dependence graph provides the issue
//!    priority used by the 2-wide processing elements.
//!
//! The result is a [`PreprocessInfo`] attached to the trace; the
//! backend timing model consumes its dependence lists and schedule.
//! Trace *semantics* are untouched — only dependence structure and
//! issue order change, which is exactly the paper's claim that
//! "instructions within a trace need not be identical to the static
//! program, just functionally equivalent".

use crate::trace::{Trace, MAX_TRACE_LEN};
use tpc_isa::Op;
#[cfg(test)]
use tpc_isa::OpClass;

/// R10000-like execution latencies, shared by the backend timing
/// model and the preprocessing scheduler.
pub mod latency {
    use tpc_isa::OpClass;

    /// Execution latency of an operation class, in cycles.
    pub fn op_latency(class: OpClass) -> u32 {
        match class {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 20,
            // Address generation; the cache adds its hit/miss latency.
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::Branch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return
            | OpClass::IndirectJump
            | OpClass::Halt
            | OpClass::Nop => 1,
        }
    }
}

/// Fill-time rewrite annotations for one trace.
///
/// Fixed inline arrays of [`MAX_TRACE_LEN`] entries, of which the
/// first [`PreprocessInfo::len`] are meaningful (the rest stay at
/// their zero values): preprocessing a trace never allocates, and the
/// backend copies the dependence masks straight into its scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessInfo {
    /// Post-transformation intra-trace dependences: bit `j` of
    /// `deps[i]` is set when instruction `i` must wait for `j`.
    pub deps: [u16; MAX_TRACE_LEN],
    /// `true` for instructions whose result was computed at fill
    /// time (constant propagation): they have no input dependences.
    pub const_folded: [bool; MAX_TRACE_LEN],
    /// `collapsed[i] = Some(j)` when instruction `i` executes on
    /// the combined ALU fused with its producer `j` (so `i` depends
    /// on `j`'s inputs instead of on `j`).
    pub collapsed: [Option<u8>; MAX_TRACE_LEN],
    /// Issue priority: in its first `len` entries, instruction
    /// indices, highest priority first (critical-path list schedule).
    pub schedule: [u8; MAX_TRACE_LEN],
    len: u8,
}

impl PreprocessInfo {
    /// Number of instructions the info covers.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the info covers an empty trace (never for built traces).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The issue order: instruction indices, highest priority first.
    pub fn order(&self) -> &[u8] {
        &self.schedule[..self.len()]
    }

    /// How many instructions were constant-folded.
    pub fn folded_count(&self) -> usize {
        self.const_folded.iter().filter(|&&f| f).count()
    }

    /// How many instructions were collapsed onto the combined ALU.
    pub fn collapsed_count(&self) -> usize {
        self.collapsed.iter().filter(|c| c.is_some()).count()
    }
}

/// Raw intra-trace register producers, with no preprocessing:
/// `producers[i]` holds the index of the last earlier writer of each
/// of `i`'s source registers, in [`Op::sources`] order and without
/// repeats. (Memory dependences within a trace are enforced by the
/// ARB in the modelled machine and are not part of the scheduling
/// dependence graph, as in the paper.)
pub fn trace_producers(trace: &Trace) -> [Producers; MAX_TRACE_LEN] {
    let mut last_writer: [Option<u8>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut producers = [Producers::default(); MAX_TRACE_LEN];
    for ((i, ti), p) in trace.instrs().iter().enumerate().zip(&mut producers) {
        for src in ti.op.sources() {
            if let Some(w) = last_writer[src.index()] {
                p.push(w);
            }
        }
        if let Some(rd) = ti.op.dest() {
            last_writer[rd.index()] = Some(i as u8); // narrow: i < MAX_TRACE_LEN
        }
    }
    producers
}

/// The in-trace producers of one instruction's (at most two) source
/// registers, in source order and without repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Producers {
    idx: [u8; 2],
    len: u8,
}

impl Producers {
    fn push(&mut self, w: u8) {
        if !self.as_slice().contains(&w) {
            self.idx[usize::from(self.len)] = w;
            self.len += 1;
        }
    }

    /// The producer indices, first source's producer first.
    pub fn as_slice(&self) -> &[u8] {
        &self.idx[..usize::from(self.len)]
    }

    /// The producers as a bit mask over trace indices.
    pub fn mask(&self) -> u16 {
        self.as_slice().iter().fold(0, |m, &j| m | 1 << j)
    }
}

/// Whether an op is "simple" enough for the combined shift-add ALU
/// to replicate as the producer half of a collapsed pair.
fn is_simple_producer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::LoadImm { .. }
            | Op::Shl { shamt: 0..=3, .. }
    )
}

/// Whether an op can be the consumer half of a collapsed pair.
fn is_simple_consumer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
    )
}

/// Runs the full preprocessing pipeline over a trace. Allocates
/// nothing.
pub fn preprocess(trace: &Trace) -> PreprocessInfo {
    let n = trace.len();
    let instrs = trace.instrs();
    debug_assert!(n <= MAX_TRACE_LEN, "trace longer than MAX_TRACE_LEN");

    // ---- constant propagation ------------------------------------
    // Known-at-fill-time register values. A write by an instruction
    // with any unknown input kills the register.
    let mut known: [Option<i64>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut const_folded = [false; MAX_TRACE_LEN];
    for (i, ti) in instrs.iter().enumerate() {
        let op = &ti.op;
        let val = |r: tpc_isa::Reg| -> Option<i64> {
            if r.is_zero() {
                Some(0)
            } else {
                known[r.index()]
            }
        };
        let computed: Option<i64> = (|| match *op {
            Op::LoadImm { imm, .. } => Some(imm as i64),
            Op::Add { rs1, rs2, .. } => Some(val(rs1)?.wrapping_add(val(rs2)?)),
            Op::Sub { rs1, rs2, .. } => Some(val(rs1)?.wrapping_sub(val(rs2)?)),
            Op::And { rs1, rs2, .. } => Some(val(rs1)? & val(rs2)?),
            Op::Or { rs1, rs2, .. } => Some(val(rs1)? | val(rs2)?),
            Op::Xor { rs1, rs2, .. } => Some(val(rs1)? ^ val(rs2)?),
            Op::Shl { rs1, shamt, .. } => {
                Some((val(rs1)? as u64).wrapping_shl(shamt as u32) as i64)
            }
            Op::Shr { rs1, shamt, .. } => Some(((val(rs1)? as u64) >> shamt as u32) as i64),
            Op::AddImm { rs1, imm, .. } => Some(val(rs1)?.wrapping_add(imm as i64)),
            Op::Mul { rs1, rs2, .. } => Some(val(rs1)?.wrapping_mul(val(rs2)?)),
            // The call's return address is a fill-time constant.
            Op::Call { .. } => Some(ti.pc.next().word() as i64),
            _ => None,
        })();
        match (op.dest(), computed) {
            (Some(rd), Some(v)) => {
                known[rd.index()] = Some(v);
                // Pure immediates carry no dependences to begin with;
                // only count a fold when it removed real inputs.
                if !matches!(op, Op::LoadImm { .. }) {
                    const_folded[i] = true;
                }
            }
            (Some(rd), None) => known[rd.index()] = None,
            _ => {}
        }
    }

    // ---- dependence graph with folding applied --------------------
    let producers = trace_producers(trace);
    let mut deps = [0u16; MAX_TRACE_LEN];
    for i in 0..n {
        if !const_folded[i] {
            deps[i] = producers[i].mask();
        }
    }

    // ---- combined-ALU collapsing ----------------------------------
    let mut collapsed = [None; MAX_TRACE_LEN];
    for i in 0..n {
        if const_folded[i] || !is_simple_consumer(&instrs[i].op) {
            continue;
        }
        // Collapse with the first producer, in source order, that is
        // simple and itself not collapsed or folded.
        let candidate = producers[i].as_slice().iter().copied().find(|&j| {
            let j = usize::from(j);
            is_simple_producer(&instrs[j].op) && collapsed[j].is_none() && !const_folded[j]
        });
        if let Some(j) = candidate {
            collapsed[i] = Some(j);
            // i now waits on j's inputs, not on j.
            deps[i] = (deps[i] & !(1 << j)) | deps[usize::from(j)];
        }
    }

    // ---- list schedule --------------------------------------------
    // Priority = critical-path height over the final dependence
    // graph. Ties broken by program order. Walking backwards, every
    // consumer of `i` (all later in the trace) is final before `i`.
    let mut height = [0u32; MAX_TRACE_LEN];
    let mut tail = [0u32; MAX_TRACE_LEN];
    for i in (0..n).rev() {
        height[i] = latency::op_latency(instrs[i].op.class()) + tail[i];
        let mut m = deps[i];
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            tail[j] = tail[j].max(height[i]);
            m &= m - 1;
        }
    }
    let mut schedule = [0u8; MAX_TRACE_LEN];
    for (i, s) in schedule[..n].iter_mut().enumerate() {
        *s = i as u8; // narrow: i < MAX_TRACE_LEN
    }
    // Keys are unique (the index breaks ties), so the unstable,
    // allocation-free sort gives the stable order.
    schedule[..n].sort_unstable_by_key(|&i| (std::cmp::Reverse(height[usize::from(i)]), i));

    PreprocessInfo {
        deps,
        const_folded,
        collapsed,
        schedule,
        len: n as u8, // narrow: n <= MAX_TRACE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PushResult, Resolution, TraceBuilder};
    use tpc_isa::{Addr, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Builds a trace from a list of ops at sequential addresses
    /// starting at 0, terminated by `ret`.
    fn mk_trace(ops: &[Op]) -> Trace {
        let mut b = TraceBuilder::new(Addr::new(0));
        for (i, &op) in ops.iter().enumerate() {
            match b.push(Addr::new(i as u32), op, Resolution::None) {
                PushResult::Continue(_) => {}
                PushResult::Complete(t) => return t,
            }
        }
        match b.push(Addr::new(ops.len() as u32), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_deps_find_last_writer() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 }, // 0
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            }, // 1: dep 0
            Op::Add {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            }, // 2: dep 1 (latest writer)
        ]);
        let p = trace_producers(&t);
        assert_eq!(p[0].as_slice(), &[] as &[u8]);
        assert_eq!(p[1].as_slice(), &[0]);
        assert_eq!(p[2].as_slice(), &[1]);
        assert_eq!(p[2].mask(), 1 << 1);
    }

    #[test]
    fn constant_propagation_removes_dependences() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 },
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 3,
            }, // 5+3 known
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(1),
            }, // known too
        ]);
        let info = preprocess(&t);
        assert!(info.const_folded[1]);
        assert!(info.const_folded[2]);
        assert_eq!(info.deps[1], 0);
        assert_eq!(info.deps[2], 0);
        assert_eq!(info.folded_count(), 2);
    }

    #[test]
    fn load_breaks_constant_chain() {
        let t = mk_trace(&[
            Op::LoadImm {
                rd: r(1),
                imm: 0x40,
            },
            Op::Load {
                rd: r(2),
                base: r(1),
                offset: 0,
            }, // runtime value
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 1,
            }, // not foldable
        ]);
        let info = preprocess(&t);
        assert!(!info.const_folded[2]);
        assert_eq!(info.deps[2], 1 << 1);
    }

    #[test]
    fn collapsing_fuses_dependent_alu_pair() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }, // 0: runtime
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 4,
            }, // 1: dep 0, simple producer
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(8),
            }, // 2: dep 1 → collapse with 1
        ]);
        let info = preprocess(&t);
        assert_eq!(info.collapsed[2], Some(1));
        // 2 now depends on 1's inputs (the load), not on 1.
        assert_eq!(info.deps[2], 1 << 0);
        assert_eq!(info.collapsed_count(), 1);
    }

    #[test]
    fn collapsing_prefers_the_first_source_producer() {
        // Both producers of 4 qualify; the first source's producer
        // (3) wins even though the second's (2) is earlier in the
        // trace — a lowest-bit pick from a mask would choose 2.
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }, // 0
            Op::Load {
                rd: r(2),
                base: r(9),
                offset: 8,
            }, // 1
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 4,
            }, // 2
            Op::AddImm {
                rd: r(4),
                rs1: r(1),
                imm: 4,
            }, // 3
            Op::Add {
                rd: r(5),
                rs1: r(4),
                rs2: r(3),
            }, // 4: producers [3, 2]
        ]);
        let info = preprocess(&t);
        assert_eq!(trace_producers(&t)[4].as_slice(), &[3, 2]);
        assert_eq!(info.collapsed[4], Some(3));
        // 4 waits on 2 and on 3's input (0), not on 3.
        assert_eq!(info.deps[4], 1 << 0 | 1 << 2);
    }

    #[test]
    fn collapsing_does_not_chain() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            },
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 4,
            }, // 1 collapses? it's a consumer of a load (not simple producer) → no
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 4,
            }, // 2 collapses with 1
            Op::AddImm {
                rd: r(4),
                rs1: r(3),
                imm: 4,
            }, // 3 cannot collapse with 2 (2 already collapsed)
        ]);
        let info = preprocess(&t);
        assert_eq!(info.collapsed[1], None, "load is not a simple producer");
        assert_eq!(info.collapsed[2], Some(1));
        assert_eq!(info.collapsed[3], None, "no chained collapsing");
    }

    #[test]
    fn schedule_puts_critical_path_first() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }, // 0 feeds a chain
            Op::LoadImm { rd: r(5), imm: 1 }, // 1 independent
            Op::Mul {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            }, // 2 long chain
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(2),
            }, // 3 chain end
        ]);
        let info = preprocess(&t);
        // Instruction 0 heads the longest chain → first in schedule.
        assert_eq!(info.order()[0], 0);
        // The independent immediate load sits late.
        let pos_imm = info.order().iter().position(|&i| i == 1).unwrap();
        assert!(pos_imm >= 2);
    }

    #[test]
    fn schedule_is_a_permutation() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 },
            Op::Add {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            },
            Op::Load {
                rd: r(3),
                base: r(2),
                offset: 0,
            },
        ]);
        let info = preprocess(&t);
        let mut s = info.order().to_vec();
        s.sort_unstable();
        let expect: Vec<u8> = (0..t.len() as u8).collect();
        assert_eq!(s, expect);
    }

    #[test]
    fn latencies_match_operation_classes() {
        use latency::op_latency;
        assert_eq!(op_latency(OpClass::IntAlu), 1);
        assert_eq!(op_latency(OpClass::IntMul), 3);
        assert!(op_latency(OpClass::IntDiv) > op_latency(OpClass::IntMul));
    }

    /// Builds a trace ending in a conditional branch (taken back to
    /// 0) followed by `ret`, so preprocessing sees real control flow.
    fn mk_trace_with_branch(ops: &[Op], branch: Op) -> Trace {
        let mut b = TraceBuilder::new(Addr::new(0));
        for (i, &op) in ops.iter().enumerate() {
            match b.push(Addr::new(i as u32), op, Resolution::None) {
                PushResult::Continue(_) => {}
                PushResult::Complete(t) => return t,
            }
        }
        match b.push(
            Addr::new(ops.len() as u32),
            branch,
            Resolution::Branch {
                taken: true,
                next_pc: Addr::new(0),
            },
        ) {
            PushResult::Continue(_) => {}
            PushResult::Complete(t) => return t,
        }
        match b.push(Addr::new(0), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn branch_sources_create_dependences() {
        // A conditional branch consumes its comparison registers like
        // any other instruction; its dependence on the last writer is
        // what serializes resolution behind the compare.
        let t = mk_trace_with_branch(
            &[Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }],
            Op::Branch {
                cond: tpc_isa::BranchCond::Ne,
                rs1: r(1),
                rs2: Reg::ZERO,
                target: Addr::new(0),
            },
        );
        let info = preprocess(&t);
        assert_eq!(info.deps[1], 1 << 0);
    }

    #[test]
    fn control_ops_are_never_folded_or_collapsed() {
        // Preprocessing rewrites dependence structure only: control
        // instructions keep their identity (the CFG the analyzer
        // builds from the static code must stay valid for the
        // preprocessed trace), so branches and returns are neither
        // constant-folded away nor fused onto the combined ALU.
        let t = mk_trace_with_branch(
            &[Op::LoadImm { rd: r(1), imm: 1 }],
            Op::Branch {
                cond: tpc_isa::BranchCond::Eq,
                rs1: r(1),
                rs2: r(1),
                target: Addr::new(0),
            },
        );
        let info = preprocess(&t);
        assert!(t.instrs().iter().any(|ti| ti.op.class().is_control()));
        for (i, ti) in t.instrs().iter().enumerate() {
            if ti.op.class().is_control() {
                assert!(!info.const_folded[i], "control op {i} folded");
                assert_eq!(info.collapsed[i], None, "control op {i} collapsed");
            }
        }
    }

    #[test]
    fn dependence_graph_is_a_dag_in_trace_order() {
        // Every dependence and every collapse target points strictly
        // backwards — the invariant that makes the trace's dependence
        // graph acyclic and lets the analyzer treat trace order as a
        // topological order.
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 7 },
            Op::Load {
                rd: r(2),
                base: r(1),
                offset: 0,
            },
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 4,
            },
            Op::Add {
                rd: r(4),
                rs1: r(3),
                rs2: r(2),
            },
            Op::Store {
                src: r(4),
                base: r(1),
                offset: 8,
            },
        ]);
        let info = preprocess(&t);
        for (i, &d) in info.deps.iter().enumerate() {
            assert_eq!(d >> i, 0, "a dep of {i} is not earlier: {d:#b}");
            if let Some(j) = info.collapsed[i] {
                assert!((j as usize) < i, "collapse target {j} of {i} not earlier");
            }
        }
        assert_eq!(info.len(), t.len());
        assert!(!info.is_empty());
    }

    #[test]
    fn call_return_address_is_a_constant() {
        let t = mk_trace(&[
            Op::Call {
                target: Addr::new(2),
            }, // 0: writes LINK = 1
            // (the builder follows the call; instruction at addr 2)
            Op::AddImm {
                rd: r(4),
                rs1: Reg::LINK,
                imm: 0,
            }, // 1 at addr 2: foldable
        ]);
        let info = preprocess(&t);
        assert!(info.const_folded[1]);
    }
}
