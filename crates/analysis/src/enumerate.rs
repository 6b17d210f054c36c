//! Static enumeration of region start points and constructible
//! traces.
//!
//! The preconstruction engine is driven by two dynamic events: a
//! start point pushed at dispatch (the return point of a call, or the
//! fall-through of a backward branch — paper Section 3.2) and a trace
//! emitted by a constructor walking static code from such a point
//! (Section 3.4). Both events are *statically enumerable*: the set of
//! legal push addresses is a syntactic property of the program, and
//! every constructible trace is derivable by replaying the shared
//! [`TraceBuilder`] rules from a start in the closure of those
//! points.
//!
//! [`StaticEnumeration`] materialises both sets and exposes
//! [`StaticEnumeration::is_valid_push`] and
//! [`StaticEnumeration::check_trace`], the conformance oracle used
//! by the differential suites: any engine activity outside the static
//! sets is a bug in the engine (or in this analysis — either way a
//! divergence worth failing on).
//!
//! Two soundness notes. First, the constructor consults a *dynamic*
//! bimodal predictor whose counters alias and drift, so any branch
//! can present any bias at any moment; the conformance closure
//! therefore forks **every** conditional branch both ways. The
//! bias-following enumeration ([`enumerate_biased`]) exists for
//! *measurement* (static trace counts in reports), never for
//! conformance. Second, exploration budgets degrade to acceptance:
//! when a budget is exhausted the enumeration marks itself
//! [`StaticEnumeration::saturated`] and start-containment checks pass
//! vacuously — an unexplored program can suppress a detection but can
//! never produce a false divergence.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tpc_core::{PushResult, Resolution, StartReason, Trace, TraceBuilder, TraceKey, ALIGN_QUANTUM};
use tpc_isa::{Addr, Op, OpClass, Program};
use tpc_workloads::StaticBias;

use crate::cfg::op_table;

/// Budget of builder pushes spent exploring any single start address.
const STEPS_PER_START: u64 = 50_000;

/// Global budget of builder pushes across the whole closure.
const TOTAL_STEPS: u64 = 4_000_000;

/// The statically enumerated start-point and trace universe of one
/// program.
#[derive(Debug, Clone)]
pub struct StaticEnumeration {
    /// Addresses the dispatch stage may push with
    /// [`StartReason::CallReturn`]: the instruction after each call.
    call_return_points: BTreeSet<u32>,
    /// Addresses the dispatch stage may push with
    /// [`StartReason::LoopExit`]: the fall-through of each backward
    /// conditional branch.
    loop_exit_points: BTreeSet<u32>,
    /// Every address a constructor can legally start a trace at: the
    /// push points, their mod-4 alignment lattice companions, and the
    /// fixpoint of trace successors.
    start_closure: BTreeSet<u32>,
    /// Whether an exploration budget was exhausted; when set,
    /// start-containment checks accept every address.
    saturated: bool,
    ops: BTreeMap<u32, Op>,
    code_len: u32,
}

impl StaticEnumeration {
    /// Enumerates the start points and start closure of `program`.
    pub fn build(program: &Program) -> StaticEnumeration {
        let ops = op_table(program);
        let code_len = program.len() as u32;
        let mut call_return_points = BTreeSet::new();
        let mut loop_exit_points = BTreeSet::new();
        for (addr, op) in program.iter() {
            match op.class() {
                // A validated program's last instruction cannot fall
                // through, so `addr + 1` is always in range here.
                OpClass::Call => {
                    call_return_points.insert(addr.word() + 1);
                }
                OpClass::Branch if op.is_backward_branch(addr) => {
                    loop_exit_points.insert(addr.word() + 1);
                }
                _ => {}
            }
        }

        // Seed the closure: push points, plus the mod-4 alignment
        // lattice past each loop exit. The engine seeds a region only
        // at its start point, so the lattice over-approximates what
        // it can start at — sound for a conformance set.
        let mut seeds: BTreeSet<u32> = call_return_points.clone();
        for &p in &loop_exit_points {
            for k in 0..ALIGN_QUANTUM as u32 {
                let s = p + k * ALIGN_QUANTUM as u32;
                if s < code_len {
                    seeds.insert(s);
                }
            }
        }

        let mut e = StaticEnumeration {
            call_return_points,
            loop_exit_points,
            start_closure: BTreeSet::new(),
            saturated: false,
            ops,
            code_len,
        };
        e.close_over_successors(seeds);
        e
    }

    /// Computes the fixpoint of trace successors over the seed set:
    /// every completed trace's statically-known successor is itself a
    /// legal start (the engine queues it on the region worklist).
    fn close_over_successors(&mut self, seeds: BTreeSet<u32>) {
        let mut worklist: VecDeque<u32> = seeds.iter().copied().collect();
        self.start_closure = seeds;
        let mut total_steps = 0u64;
        while let Some(start) = worklist.pop_front() {
            if total_steps >= TOTAL_STEPS {
                self.saturated = true;
                return;
            }
            let (successors, spent, exhausted) = self.explore_start(
                Addr::new(start),
                STEPS_PER_START.min(TOTAL_STEPS - total_steps),
            );
            total_steps += spent;
            if exhausted {
                self.saturated = true;
                return;
            }
            for s in successors {
                if s < self.code_len && self.start_closure.insert(s) {
                    worklist.push_back(s);
                }
            }
        }
    }

    /// Fork-everything DFS from one start address: runs the shared
    /// [`TraceBuilder`] down every branch direction, collecting the
    /// successors of every completed trace. Returns `(successors,
    /// steps spent, budget exhausted)`.
    fn explore_start(&self, start: Addr, budget: u64) -> (BTreeSet<u32>, u64, bool) {
        let mut successors = BTreeSet::new();
        let mut steps = 0u64;
        // Each DFS state is a partially built trace: the builder, the
        // constructor's region call stack, and the next pc.
        let mut stack: Vec<(TraceBuilder, Vec<Addr>, Addr)> =
            vec![(TraceBuilder::new(start), Vec::new(), start)];
        while let Some((builder, call_stack, pc)) = stack.pop() {
            if steps >= budget {
                return (successors, steps, true);
            }
            let Some(&op) = self.ops.get(&pc.word()) else {
                // Past the end of the code: the constructor abandons
                // the path (possible only from hand-built programs).
                continue;
            };
            if op.class() == OpClass::Branch {
                let target = op.static_target().expect("branches have static targets");
                for (taken, next_pc) in [(false, pc.next()), (true, target)] {
                    let mut b = builder.clone();
                    steps += 1;
                    match b.push(pc, op, Resolution::Branch { taken, next_pc }) {
                        PushResult::Continue(next) => stack.push((b, call_stack.clone(), next)),
                        PushResult::Complete(t) => {
                            if let Some(s) = t.successor() {
                                successors.insert(s.word());
                            }
                        }
                    }
                }
                continue;
            }
            let mut builder = builder;
            let mut call_stack = call_stack;
            let resolution = match op.class() {
                OpClass::Call => {
                    call_stack.push(pc.next());
                    Resolution::None
                }
                OpClass::Return => match call_stack.pop() {
                    Some(ra) => Resolution::Target(ra),
                    None => Resolution::None,
                },
                _ => Resolution::None,
            };
            steps += 1;
            match builder.push(pc, op, resolution) {
                PushResult::Continue(next) => stack.push((builder, call_stack, next)),
                PushResult::Complete(t) => {
                    if let Some(s) = t.successor() {
                        successors.insert(s.word());
                    }
                }
            }
        }
        (successors, steps, false)
    }

    /// Whether the dispatch stage may push `addr` with `reason`: the
    /// instruction at `addr - 1` must be the matching construct.
    pub fn is_valid_push(&self, addr: Addr, reason: StartReason) -> bool {
        match reason {
            StartReason::CallReturn => self.call_return_points.contains(&addr.word()),
            StartReason::LoopExit => self.loop_exit_points.contains(&addr.word()),
        }
    }

    /// Whether `addr` is in the start closure (always true once
    /// [`StaticEnumeration::saturated`] — budgets degrade to
    /// acceptance, never to false divergence).
    pub fn contains_start(&self, addr: Addr) -> bool {
        self.saturated || self.start_closure.contains(&addr.word())
    }

    /// Whether an exploration budget was exhausted.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Number of [`StartReason::CallReturn`] push points.
    pub fn call_return_count(&self) -> usize {
        self.call_return_points.len()
    }

    /// Number of [`StartReason::LoopExit`] push points.
    pub fn loop_exit_count(&self) -> usize {
        self.loop_exit_points.len()
    }

    /// Size of the start closure.
    pub fn closure_size(&self) -> usize {
        self.start_closure.len()
    }

    /// Checks that `trace` is statically constructible: its start is
    /// in the closure and replaying the shared builder rules over its
    /// encoded path reproduces it exactly (same key, stop kind, end
    /// kind, successor).
    pub fn check_trace(&self, trace: &Trace) -> Result<(), String> {
        if !self.contains_start(trace.start()) {
            return Err(format!(
                "trace start {:?} is not in the static start closure",
                trace.start()
            ));
        }
        let mut builder = TraceBuilder::new(trace.start());
        let mut call_stack: Vec<Addr> = Vec::new();
        let mut branch_idx = 0u8;
        let n = trace.len();
        for (i, ti) in trace.instrs().iter().enumerate() {
            match self.ops.get(&ti.pc.word()) {
                Some(op) if *op == ti.op => {}
                Some(op) => {
                    return Err(format!(
                        "trace instruction at {:?} diverges from static code: {:?} vs {:?}",
                        ti.pc, ti.op, op
                    ));
                }
                None => return Err(format!("trace address {:?} outside the program", ti.pc)),
            }
            let resolution = match ti.op.class() {
                OpClass::Branch => {
                    let taken = trace.branch_outcome(branch_idx).ok_or_else(|| {
                        format!("branch at {:?} beyond the key's branch count", ti.pc)
                    })?;
                    branch_idx += 1;
                    let next_pc = if taken {
                        ti.op.static_target().expect("branches have static targets")
                    } else {
                        ti.pc.next()
                    };
                    Resolution::Branch { taken, next_pc }
                }
                OpClass::Call => {
                    call_stack.push(ti.pc.next());
                    Resolution::None
                }
                OpClass::Return => match call_stack.pop() {
                    Some(ra) => Resolution::Target(ra),
                    None => Resolution::None,
                },
                _ => Resolution::None,
            };
            match builder.push(ti.pc, ti.op, resolution) {
                PushResult::Continue(next) => {
                    if i + 1 == n {
                        return Err(format!(
                            "builder continues to {next:?} where the trace ends"
                        ));
                    }
                    let actual = trace.instrs()[i + 1].pc;
                    if next != actual {
                        return Err(format!(
                            "path break after {:?}: builder goes to {next:?}, trace holds {actual:?}",
                            ti.pc
                        ));
                    }
                }
                PushResult::Complete(t) => {
                    if i + 1 != n {
                        return Err(format!(
                            "builder completes after {} instructions, trace holds {n}",
                            i + 1
                        ));
                    }
                    if t.key() != trace.key() {
                        return Err(format!(
                            "replayed key {:?} != trace key {:?}",
                            t.key(),
                            trace.key()
                        ));
                    }
                    if t.stop() != trace.stop() {
                        return Err(format!(
                            "replayed stop {:?} != trace stop {:?}",
                            t.stop(),
                            trace.stop()
                        ));
                    }
                    if t.end() != trace.end() {
                        return Err(format!(
                            "replayed end {:?} != trace end {:?}",
                            t.end(),
                            trace.end()
                        ));
                    }
                    if t.successor() != trace.successor() {
                        return Err(format!(
                            "replayed successor {:?} != trace successor {:?}",
                            t.successor(),
                            trace.successor()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Result of the bias-following (measurement) enumeration.
#[derive(Debug, Clone)]
pub struct BiasedEnumeration {
    /// Distinct trace keys reachable by constructor rules under the
    /// profile's static branch bias.
    pub trace_keys: BTreeSet<TraceKey>,
    /// Start addresses explored (push points plus discovered
    /// successors).
    pub starts_explored: usize,
    /// Whether a budget cut the enumeration short (reported counts
    /// are then lower bounds).
    pub truncated: bool,
}

/// Enumerates the traces a constructor would build when every branch
/// presents its *static* long-run bias: strongly-biased branches are
/// followed down their dominant arm, weakly-biased branches fork.
/// This mirrors the constructor's decision procedure with the bimodal
/// predictor replaced by profile ground truth, giving the static
/// trace count reported by `analyze_program` and the coverage report.
pub fn enumerate_biased(program: &Program, max_keys: usize) -> BiasedEnumeration {
    let ops = op_table(program);
    let code_len = program.len() as u32;
    let bias: BTreeMap<u32, StaticBias> = tpc_workloads::program_bias(program)
        .into_iter()
        .map(|(a, b)| (a.word(), b))
        .collect();

    let mut seeds: BTreeSet<u32> = BTreeSet::new();
    for (addr, op) in program.iter() {
        match op.class() {
            OpClass::Call => {
                seeds.insert(addr.word() + 1);
            }
            OpClass::Branch if op.is_backward_branch(addr) => {
                seeds.insert(addr.word() + 1);
            }
            _ => {}
        }
    }

    let mut trace_keys: BTreeSet<TraceKey> = BTreeSet::new();
    let mut explored: BTreeSet<u32> = seeds.clone();
    let mut worklist: VecDeque<u32> = seeds.into_iter().collect();
    let mut steps = 0u64;
    let mut truncated = false;
    'outer: while let Some(start) = worklist.pop_front() {
        let mut stack: Vec<(TraceBuilder, Vec<Addr>, Addr)> = vec![(
            TraceBuilder::new(Addr::new(start)),
            Vec::new(),
            Addr::new(start),
        )];
        while let Some((builder, call_stack, pc)) = stack.pop() {
            if trace_keys.len() >= max_keys || steps >= TOTAL_STEPS {
                truncated = true;
                break 'outer;
            }
            steps += 1;
            let Some(&op) = ops.get(&pc.word()) else {
                continue;
            };
            // Branch directions to explore under static bias.
            let arms: Vec<Resolution> = match op.class() {
                OpClass::Branch => {
                    let target = op.static_target().expect("branches have static targets");
                    let taken_arm = Resolution::Branch {
                        taken: true,
                        next_pc: target,
                    };
                    let fall_arm = Resolution::Branch {
                        taken: false,
                        next_pc: pc.next(),
                    };
                    match bias.get(&pc.word()).copied().unwrap_or(StaticBias::Weak) {
                        StaticBias::StronglyTaken => vec![taken_arm],
                        StaticBias::StronglyNotTaken => vec![fall_arm],
                        StaticBias::Weak => vec![fall_arm, taken_arm],
                    }
                }
                OpClass::Call => {
                    let mut cs = call_stack.clone();
                    cs.push(pc.next());
                    let mut b = builder.clone();
                    match b.push(pc, op, Resolution::None) {
                        PushResult::Continue(next) => stack.push((b, cs, next)),
                        PushResult::Complete(t) => {
                            record(&mut trace_keys, &mut explored, &mut worklist, &t, code_len);
                        }
                    }
                    continue;
                }
                OpClass::Return => {
                    let mut cs = call_stack.clone();
                    let r = match cs.pop() {
                        Some(ra) => Resolution::Target(ra),
                        None => Resolution::None,
                    };
                    let mut b = builder.clone();
                    match b.push(pc, op, r) {
                        PushResult::Continue(next) => stack.push((b, cs, next)),
                        PushResult::Complete(t) => {
                            record(&mut trace_keys, &mut explored, &mut worklist, &t, code_len);
                        }
                    }
                    continue;
                }
                _ => vec![Resolution::None],
            };
            for r in arms {
                let mut b = builder.clone();
                match b.push(pc, op, r) {
                    PushResult::Continue(next) => stack.push((b, call_stack.clone(), next)),
                    PushResult::Complete(t) => {
                        record(&mut trace_keys, &mut explored, &mut worklist, &t, code_len);
                    }
                }
            }
        }
    }
    BiasedEnumeration {
        trace_keys,
        starts_explored: explored.len(),
        truncated,
    }
}

/// Records a completed trace and queues its successor for region
/// continuation.
fn record(
    keys: &mut BTreeSet<TraceKey>,
    explored: &mut BTreeSet<u32>,
    worklist: &mut VecDeque<u32>,
    trace: &Trace,
    code_len: u32,
) {
    keys.insert(trace.key());
    if let Some(s) = trace.successor() {
        if s.word() < code_len && explored.insert(s.word()) {
            worklist.push_back(s.word());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::model::OutcomeModel;
    use tpc_isa::{BranchCond, ProgramBuilder, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn alu() -> Op {
        Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        }
    }

    /// `0: call 4; 1: nop; 2: bne →1; 3: halt; 4: nop; 5: ret`
    fn call_loop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Op::Call {
            target: Addr::new(4),
        });
        b.push(Op::Nop);
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: Addr::new(1),
            },
            OutcomeModel::Loop { trip: 3 },
        );
        b.push(Op::Halt);
        b.push(Op::Nop);
        b.push(Op::Return);
        b.build().unwrap()
    }

    #[test]
    fn push_points_match_constructs() {
        let p = call_loop_program();
        let e = StaticEnumeration::build(&p);
        assert!(e.is_valid_push(Addr::new(1), StartReason::CallReturn));
        assert!(e.is_valid_push(Addr::new(3), StartReason::LoopExit));
        // Wrong reason, wrong address: rejected.
        assert!(!e.is_valid_push(Addr::new(1), StartReason::LoopExit));
        assert!(!e.is_valid_push(Addr::new(3), StartReason::CallReturn));
        assert!(!e.is_valid_push(Addr::new(2), StartReason::CallReturn));
        assert_eq!(e.call_return_count(), 1);
        assert_eq!(e.loop_exit_count(), 1);
    }

    #[test]
    fn closure_contains_seeds_and_successors() {
        let p = call_loop_program();
        let e = StaticEnumeration::build(&p);
        assert!(!e.saturated());
        assert!(e.contains_start(Addr::new(1)));
        assert!(e.contains_start(Addr::new(3)));
        // The trace from 1 runs `nop; bne(false); halt` or loops; a
        // trace ending at the alignment boundary or cap yields
        // in-range successors, all of which must be in the closure.
        assert!(e.closure_size() >= 2);
    }

    #[test]
    fn replayed_trace_is_accepted() {
        let p = call_loop_program();
        let e = StaticEnumeration::build(&p);
        // Build the trace a constructor starting at 1 would emit with
        // the loop branch not taken: nop; bne(NT); halt.
        let mut b = TraceBuilder::new(Addr::new(1));
        b.push(
            Addr::new(1),
            *p.fetch(Addr::new(1)).unwrap(),
            Resolution::None,
        );
        b.push(
            Addr::new(2),
            *p.fetch(Addr::new(2)).unwrap(),
            Resolution::Branch {
                taken: false,
                next_pc: Addr::new(3),
            },
        );
        let t = match b.push(
            Addr::new(3),
            *p.fetch(Addr::new(3)).unwrap(),
            Resolution::None,
        ) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        };
        e.check_trace(&t).unwrap();
    }

    #[test]
    fn foreign_trace_is_rejected() {
        let p = call_loop_program();
        let e = StaticEnumeration::build(&p);
        // A trace starting at an address no construct predicts
        // (address 4 is only reachable through the call edge).
        let mut b = TraceBuilder::new(Addr::new(4));
        b.push(
            Addr::new(4),
            *p.fetch(Addr::new(4)).unwrap(),
            Resolution::None,
        );
        let t = match b.push(
            Addr::new(5),
            *p.fetch(Addr::new(5)).unwrap(),
            Resolution::None,
        ) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        };
        assert!(e.check_trace(&t).is_err(), "start 4 is outside the closure");
    }

    #[test]
    fn tampered_path_is_rejected() {
        // A trace whose instructions do not sit at their claimed
        // addresses in the program.
        let p = call_loop_program();
        let e = StaticEnumeration::build(&p);
        let mut b = TraceBuilder::new(Addr::new(1));
        let t = match b.push(Addr::new(1), alu(), Resolution::None) {
            PushResult::Continue(_) => match b.push(Addr::new(2), Op::Halt, Resolution::None) {
                PushResult::Complete(t) => t,
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        };
        let err = e.check_trace(&t).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn biased_enumeration_counts_loop_paths() {
        let p = call_loop_program();
        let out = enumerate_biased(&p, 10_000);
        assert!(!out.truncated);
        // The loop branch is strongly taken (trip 3 ⇒ 667‰ — weak,
        // actually): trip 3 gives 666‰ < 900 ⇒ Weak ⇒ both arms.
        assert!(out.trace_keys.len() >= 2);
        assert!(out.starts_explored >= 2);
    }

    #[test]
    fn generated_workload_enumerates_within_budget() {
        let p = tpc_workloads::WorkloadBuilder::new(tpc_workloads::Benchmark::Compress)
            .seed(11)
            .scale_permille(80)
            .build();
        let e = StaticEnumeration::build(&p);
        assert!(e.call_return_count() > 0);
        assert!(e.loop_exit_count() > 0);
        assert!(e.closure_size() >= e.call_return_count());
        let out = enumerate_biased(&p, 100_000);
        assert!(!out.trace_keys.is_empty());
    }
}
