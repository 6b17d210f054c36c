//! A preconstruction trace constructor (paper Section 3.4).
//!
//! Each constructor walks static code from a trace start point,
//! decoding instructions out of its region's prefetch cache. At a
//! conditional branch it consults the slow-path bimodal predictor:
//! strongly-biased branches are followed only down their dominant
//! direction; weakly-biased branches follow the not-taken path first
//! while the decision point is pushed onto a small internal stack,
//! from which the alternative (taken) path is constructed after the
//! current trace completes. Paths terminate at indirect jumps (and
//! at returns whose call was not observed during this walk, where the
//! target is equally unknown).

use crate::trace::{Resolution, TraceBuilder, MAX_TRACE_LEN};
use tpc_isa::{Addr, OpClass, Program};
use tpc_mem::{line_of, PrefetchCache};
use tpc_predict::{Bias, Bimodal};

/// The return points of the calls followed within the current trace.
/// A walk never continues past a completed trace (successors go to
/// the region's worklist), so at most [`MAX_TRACE_LEN`] calls are
/// ever outstanding.
#[derive(Debug, Clone, Copy)]
struct CallStack {
    ret: [Addr; MAX_TRACE_LEN],
    len: usize,
}

impl CallStack {
    const EMPTY: CallStack = CallStack {
        ret: [Addr::ZERO; MAX_TRACE_LEN],
        len: 0,
    };

    fn push(&mut self, ra: Addr) {
        self.ret[self.len] = ra;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Addr> {
        self.len = self.len.checked_sub(1)?;
        Some(self.ret[self.len])
    }
}

/// One saved decision point for a weakly-biased branch: the builder
/// and call-stack state just *before* the branch was consumed, plus
/// the branch's address. Popping it re-runs the branch down the
/// taken path.
#[derive(Debug, Clone)]
struct Decision {
    builder: TraceBuilder,
    call_stack: CallStack,
    branch_pc: Addr,
}

/// Why [`TraceConstructor::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The decode budget is spent; more work remains this trace.
    BudgetSpent,
    /// The instruction at the returned address is not in the prefetch
    /// cache; the engine must fetch its line before this constructor
    /// can proceed.
    NeedLine(Addr),
    /// A trace completed. The constructor holds it unbuilt, as
    /// [`TraceConstructor::completed`], so the engine can file it and
    /// build it only if the store takes it as a new entry; the payload
    /// stays out of `Step`. The constructor may still have
    /// alternative paths queued on its internal stack — call
    /// [`TraceConstructor::backtrack`] (which drops the completed
    /// trace) before assigning new work.
    TraceDone,
    /// The current path ended without completing further traces and
    /// no alternatives remain: the constructor is idle.
    Idle,
}

/// A single trace constructor.
#[derive(Debug, Clone)]
pub struct TraceConstructor {
    builder: Option<TraceBuilder>,
    pc: Addr,
    call_stack: CallStack,
    decisions: Vec<Decision>,
    decision_depth: usize,
    /// A prefetch-cache line known to be resident. Lines are never
    /// evicted while their region lives, so the memo holds until the
    /// constructor moves to another region ([`TraceConstructor::start`]
    /// or [`TraceConstructor::abort`]).
    resident_line: Option<u64>,
}

impl TraceConstructor {
    /// Creates an idle constructor whose internal decision stack
    /// holds up to `decision_depth` pending alternative paths.
    pub fn new(decision_depth: usize) -> Self {
        TraceConstructor {
            builder: None,
            pc: Addr::ZERO,
            call_stack: CallStack::EMPTY,
            decisions: Vec::with_capacity(decision_depth),
            decision_depth,
            resident_line: None,
        }
    }

    /// Whether the constructor has no work at all.
    pub fn is_idle(&self) -> bool {
        self.builder.is_none() && self.decisions.is_empty()
    }

    /// Whether a trace is currently under construction (or completed
    /// and not yet dropped by [`TraceConstructor::backtrack`]).
    pub fn is_building(&self) -> bool {
        self.builder.is_some()
    }

    /// The trace completed by the last [`Step::TraceDone`], still
    /// unbuilt, until [`TraceConstructor::backtrack`] or
    /// [`TraceConstructor::abort`] drops it.
    pub fn completed(&self) -> Option<&TraceBuilder> {
        self.builder.as_ref().filter(|b| b.is_complete())
    }

    /// Begins constructing traces from a fresh trace start point.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the constructor still has work
    /// (check [`TraceConstructor::is_idle`] first).
    pub fn start(&mut self, start: Addr) {
        debug_assert!(self.is_idle(), "constructor reassigned while busy");
        self.builder = Some(TraceBuilder::new(start));
        self.pc = start;
        self.call_stack = CallStack::EMPTY;
        self.decisions.clear();
        self.resident_line = None;
    }

    /// Abandons all work (region terminated).
    pub fn abort(&mut self) {
        self.builder = None;
        self.call_stack = CallStack::EMPTY;
        self.decisions.clear();
        self.resident_line = None;
    }

    /// After [`Step::TraceDone`], drops the completed trace and
    /// resumes the most recent pending alternative path, if any.
    /// Returns `true` when an alternative was resumed, `false` when
    /// the constructor is now idle.
    pub fn backtrack(&mut self, program: &Program) -> bool {
        self.builder = None;
        while let Some(d) = self.decisions.pop() {
            let mut builder = d.builder;
            self.call_stack = d.call_stack;
            // Re-consume the branch, this time down the taken path.
            let op = *program
                .fetch(d.branch_pc)
                .expect("decision point addresses a validated branch");
            let target = op
                .static_target()
                .expect("conditional branches have static targets");
            let taken = Resolution::Branch {
                taken: true,
                next_pc: target,
            };
            // When the branch completes the alternative trace
            // immediately (alignment/full), a one-divergence
            // duplicate is not useful: it is discarded unbuilt and
            // the next alternative is tried.
            if let Some(next) = builder.feed(d.branch_pc, op, taken) {
                self.pc = next;
                self.builder = Some(builder);
                return true;
            }
        }
        false
    }

    /// Decodes instructions until `budget` is spent, a line is
    /// missing, a trace completes or the path ends. Every consumed
    /// instruction — including the one that completes a trace — takes
    /// one unit of `budget`.
    ///
    /// `prefetch` is the region's prefetch cache (instructions must
    /// be resident to be decoded); `bimodal` is the shared slow-path
    /// predictor consulted for branch bias.
    pub fn run(
        &mut self,
        budget: &mut u32,
        program: &Program,
        prefetch: &PrefetchCache,
        bimodal: &Bimodal,
    ) -> Step {
        loop {
            let Some(builder) = self.builder.as_mut() else {
                return Step::Idle;
            };
            debug_assert!(!builder.is_complete(), "run before backtrack");
            if *budget == 0 {
                return Step::BudgetSpent;
            }
            let pc = self.pc;
            let line = line_of(pc);
            if self.resident_line != Some(line) {
                if !prefetch.contains(pc) {
                    return Step::NeedLine(pc);
                }
                self.resident_line = Some(line);
            }
            let Some(op) = program.fetch(pc).copied() else {
                // Ran past the end of the code: only possible in
                // hand-written programs; end the path.
                self.builder = None;
                return Step::Idle;
            };

            let resolution = match op.class() {
                OpClass::Branch => {
                    let target = op.static_target().expect("branch has a static target");
                    match bimodal.bias(pc) {
                        Bias::StronglyTaken => Resolution::Branch {
                            taken: true,
                            next_pc: target,
                        },
                        Bias::StronglyNotTaken => Resolution::Branch {
                            taken: false,
                            next_pc: pc.next(),
                        },
                        Bias::Weak => {
                            // Fork: not-taken first, taken path saved
                            // for backtracking (bounded stack;
                            // overflow means we simply do not explore
                            // that alternative).
                            if self.decisions.len() < self.decision_depth {
                                self.decisions.push(Decision {
                                    builder: builder.clone(),
                                    call_stack: self.call_stack,
                                    branch_pc: pc,
                                });
                            }
                            Resolution::Branch {
                                taken: false,
                                next_pc: pc.next(),
                            }
                        }
                    }
                }
                OpClass::Call => {
                    self.call_stack.push(pc.next());
                    Resolution::None
                }
                OpClass::Return => match self.call_stack.pop() {
                    Some(ra) => Resolution::Target(ra),
                    None => Resolution::None,
                },
                // Indirect-jump targets are unknown to
                // preconstruction: the path terminates here (paper
                // Section 2.1).
                _ => Resolution::None,
            };

            debug_assert!(
                self.decisions.len() <= self.decision_depth,
                "decision stack exceeded its configured depth"
            );
            *budget -= 1;
            match builder.feed(pc, op, resolution) {
                Some(next) => self.pc = next,
                None => return Step::TraceDone,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use tpc_isa::model::OutcomeModel;
    use tpc_isa::{BranchCond, Op, ProgramBuilder, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn full_prefetch(program: &Program) -> PrefetchCache {
        let mut p = PrefetchCache::new(((program.len() as u32 / 16) + 1) * 16 * 16);
        for w in (0..program.len() as u32).step_by(16) {
            assert!(p.insert_line(Addr::new(w)));
        }
        p
    }

    /// Drives the constructor until it is idle, collecting traces.
    fn run_all(
        ctor: &mut TraceConstructor,
        program: &Program,
        prefetch: &PrefetchCache,
        bimodal: &Bimodal,
    ) -> Vec<Trace> {
        let mut traces = Vec::new();
        for _ in 0..10_000 {
            let mut budget = 4;
            match ctor.run(&mut budget, program, prefetch, bimodal) {
                Step::BudgetSpent => assert_eq!(budget, 0),
                Step::TraceDone => {
                    traces.push(ctor.completed().expect("completed").build());
                    if !ctor.backtrack(program) {
                        break;
                    }
                }
                Step::Idle => break,
                Step::NeedLine(a) => panic!("unexpected stall at {a}"),
            }
        }
        traces
    }

    /// Straight-line code ending in ret.
    #[test]
    fn straight_line_single_trace() {
        let mut b = ProgramBuilder::new();
        for _ in 0..5 {
            b.push(Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            });
        }
        b.push(Op::Return);
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len(), 6);
        assert_eq!(traces[0].successor(), None, "return with unobserved call");
    }

    #[test]
    fn weak_branch_forks_both_paths() {
        // if-then-else: weak branch at 0; not-taken path 1..3 jmp 5;
        // taken path 3..4; join at 5: ret.
        let mut b = ProgramBuilder::new();
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(3),
            },
            OutcomeModel::Biased {
                num: 1,
                denom: 2,
                seed: 3,
            },
        );
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        }); // 1
        b.push(Op::Jump {
            target: Addr::new(5),
        }); // 2
        b.push(Op::AddImm {
            rd: r(2),
            rs1: r(2),
            imm: 1,
        }); // 3
        b.push(Op::Nop); // 4
        b.push(Op::Return); // 5
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64); // weak state everywhere
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        assert_eq!(traces.len(), 2, "both arms constructed");
        let keys: std::collections::BTreeSet<_> = traces.iter().map(|t| t.key()).collect();
        assert_eq!(keys.len(), 2);
        // Not-taken explored first.
        assert_eq!(traces[0].branch_outcome(0), Some(false));
        assert_eq!(traces[1].branch_outcome(0), Some(true));
    }

    #[test]
    fn strong_bias_follows_single_path() {
        let mut b = ProgramBuilder::new();
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(3),
            },
            OutcomeModel::AlwaysTaken,
        );
        b.push(Op::Nop); // 1 (not-taken arm, never constructed)
        b.push(Op::Return); // 2
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        }); // 3
        b.push(Op::Return); // 4
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let mut bimodal = Bimodal::new(64);
        // Saturate the branch taken.
        for _ in 0..3 {
            bimodal.update(Addr::ZERO, true);
        }
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        assert_eq!(traces.len(), 1, "only the biased path is followed");
        assert_eq!(traces[0].branch_outcome(0), Some(true));
    }

    #[test]
    fn call_observed_resolves_matching_return() {
        // call f; nop; ret-at-top-level — callee: addi; ret
        let mut b = ProgramBuilder::new();
        let call_at = b.push(Op::Nop); // patched
        b.push(Op::Nop); // 1
        b.push(Op::Return); // 2
        let f = b.here(); // 3
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        }); // 3
        b.push(Op::Return); // 4
        b.patch(call_at, Op::Call { target: f });
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        // First trace: call, addi, ret — successor = return point (1).
        assert_eq!(traces[0].successor(), Some(Addr::new(1)));
    }

    #[test]
    fn indirect_jump_terminates_path() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push_indirect(
            Op::IndirectJump { rs1: r(4) },
            tpc_isa::model::IndirectModel::uniform(vec![Addr::ZERO], 1),
        );
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].successor(), None);
        assert!(ctor.is_idle());
    }

    #[test]
    fn missing_line_stalls() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Return);
        let p = b.build().unwrap();
        let prefetch = PrefetchCache::new(16); // empty
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let mut budget = 4;
        match ctor.run(&mut budget, &p, &prefetch, &bimodal) {
            Step::NeedLine(a) => assert_eq!((a, budget), (Addr::ZERO, 4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decision_stack_is_bounded() {
        // Three consecutive weak branches with depth 1: only one fork
        // is remembered → 2 traces total.
        let mut b = ProgramBuilder::new();
        for i in 0..3u32 {
            b.push_branch(
                Op::Branch {
                    cond: BranchCond::Ne,
                    rs1: r(1),
                    rs2: r(2),
                    target: Addr::new(4), // forward, into the ret below
                },
                OutcomeModel::Biased {
                    num: 1,
                    denom: 2,
                    seed: i as u64,
                },
            );
        }
        b.push(Op::Nop); // 3
        b.push(Op::Return); // 4
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(1);
        ctor.start(Addr::ZERO);
        let traces = run_all(&mut ctor, &p, &prefetch, &bimodal);
        assert_eq!(traces.len(), 2);
    }

    #[test]
    fn budget_counts_every_consumed_instruction() {
        // Five adds and a ret: a budget of 4 stops mid-trace, and the
        // completing `ret` takes the last unit of the next budget.
        let mut b = ProgramBuilder::new();
        for _ in 0..5 {
            b.push(Op::Nop);
        }
        b.push(Op::Return);
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        let mut budget = 4;
        assert!(matches!(
            ctor.run(&mut budget, &p, &prefetch, &bimodal),
            Step::BudgetSpent
        ));
        assert_eq!(budget, 0);
        let mut budget = 4;
        assert!(matches!(
            ctor.run(&mut budget, &p, &prefetch, &bimodal),
            Step::TraceDone
        ));
        let done = ctor.completed().expect("completed");
        assert_eq!((done.len(), budget), (6, 2));
    }

    #[test]
    fn resident_line_memo_resets_with_the_region() {
        // A constructor that walked a resident line must not trust
        // its memo after moving to a region whose prefetch cache is
        // empty.
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Return);
        let p = b.build().unwrap();
        let bimodal = Bimodal::new(64);
        let full = full_prefetch(&p);
        let empty = PrefetchCache::new(16);
        let mut ctor = TraceConstructor::new(3);
        // Finish a trace on a resident line, then start over with an
        // empty prefetch cache.
        ctor.start(Addr::ZERO);
        assert!(matches!(
            ctor.run(&mut 4, &p, &full, &bimodal),
            Step::TraceDone
        ));
        assert!(!ctor.backtrack(&p));
        ctor.start(Addr::ZERO);
        assert!(matches!(
            ctor.run(&mut 4, &p, &empty, &bimodal),
            Step::NeedLine(_)
        ));
        // Likewise after an abort mid-trace.
        ctor.abort();
        ctor.start(Addr::ZERO);
        assert!(matches!(
            ctor.run(&mut 1, &p, &full, &bimodal),
            Step::BudgetSpent
        ));
        ctor.abort();
        ctor.start(Addr::ZERO);
        assert!(matches!(
            ctor.run(&mut 4, &p, &empty, &bimodal),
            Step::NeedLine(_)
        ));
    }

    #[test]
    fn abort_clears_all_state() {
        let mut b = ProgramBuilder::new();
        b.push(Op::Nop);
        b.push(Op::Return);
        let p = b.build().unwrap();
        let prefetch = full_prefetch(&p);
        let bimodal = Bimodal::new(64);
        let mut ctor = TraceConstructor::new(3);
        ctor.start(Addr::ZERO);
        assert!(!ctor.is_idle());
        ctor.abort();
        assert!(ctor.is_idle());
        assert!(matches!(
            ctor.run(&mut 4, &p, &prefetch, &bimodal),
            Step::Idle
        ));
    }
}
