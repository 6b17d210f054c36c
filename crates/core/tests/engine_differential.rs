//! The mask-indexed, parking `PreconEngine` against a polling
//! reference.
//!
//! `RefEngine` below is the engine as it was before its per-tick
//! bookkeeping was indexed: every tick scans every region slot to
//! activate, land, issue and retire, and every constructor polls its
//! prefetch cache each cycle, even when nothing it waits on has
//! changed. A region's wanted line is computed afresh from the
//! constructors whose last poll found their line missing: the line of
//! the highest-numbered one whose line is neither resident nor in
//! flight. So no fetch is ever for a line the region already has or
//! awaits, and the reference asserts that at every fetch. The
//! reference also files the old way: it builds every completed trace
//! and files it with `contains_cached` then `fill_precon`, which
//! replaces a pending entry of the same key, while the engine files
//! the unbuilt trace through `file_precon`, which re-tags that entry.
//! Both engines are driven with the same random programs,
//! branch biases, dispatch, retire and squash streams, slow-path idle
//! patterns, store traffic and injected faults. After every tick the
//! engine counters, the activity (recorded by a probe on the indexed
//! engine), the start stack, the store and I-cache counters must be
//! equal, and the indexed engine must pass its own `check_invariants`.

use std::collections::VecDeque;
use tpc_core::constructor::{Step, TraceConstructor};
use tpc_core::storage::Filed;
use tpc_core::storage::{SplitStore, TraceStore, UnifiedConfig, UnifiedStore};
use tpc_core::{
    EngineConfig, EngineFault, EngineProbe, EngineStats, PreconEngine, StartPointStack,
    StartReason, Trace, TraceBuilder, TraceInstr,
};
use tpc_isa::model::{IndirectModel, OutcomeModel, XorShift64};
use tpc_isa::{Addr, BranchCond, Op, OpClass, Program, ProgramBuilder, Reg};
use tpc_mem::{AccessKind, InstrCache, InstrCacheConfig, PrefetchCache};
use tpc_predict::Bimodal;

// ---------------------------------------------------------------------------
// The polling reference: full scans, no masks, no parking.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct RefRegion {
    live: bool,
    id: u64,
    start: Addr,
    prefetch: PrefetchCache,
    worklist: VecDeque<Addr>,
    seen: Vec<Addr>,
    pending: Option<(Addr, u64)>,
}

impl RefRegion {
    fn queue(&mut self, addr: Addr) {
        if let Err(at) = self.seen.binary_search(&addr) {
            self.seen.insert(at, addr);
            self.worklist.push_back(addr);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum RegionEnd {
    Completed,
    CaughtUp,
    FetchBound,
    BufferBound,
}

fn salt_pick(n: usize, salt: u64, pred: impl Fn(usize) -> bool) -> Option<usize> {
    let count = (0..n).filter(|&i| pred(i)).count();
    if count == 0 {
        return None;
    }
    (0..n).filter(|&i| pred(i)).nth(salt as usize % count)
}

/// One observable engine action: a start point offered to the stack,
/// or a completed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Activity {
    StartPointPushed {
        addr: Addr,
        reason: StartReason,
        seq: u64,
    },
    TraceEmitted(Trace),
}

#[derive(Debug)]
struct RefEngine {
    config: EngineConfig,
    stack: StartPointStack,
    regions: Vec<RefRegion>,
    constructors: Vec<TraceConstructor>,
    assignment: Vec<Option<usize>>,
    /// The missing address each constructor's last poll returned.
    blocked: Vec<Option<Addr>>,
    stalls: Vec<u32>,
    next_region_id: u64,
    stats: EngineStats,
    activity: Vec<Activity>,
}

impl RefEngine {
    fn new(config: EngineConfig) -> Self {
        RefEngine {
            stack: StartPointStack::new(config.stack_depth.max(1), config.completed_entries),
            regions: (0..config.prefetch_caches)
                .map(|_| RefRegion {
                    live: false,
                    id: 0,
                    start: Addr::ZERO,
                    prefetch: PrefetchCache::new(config.prefetch_capacity),
                    worklist: VecDeque::new(),
                    seen: Vec::new(),
                    pending: None,
                })
                .collect(),
            constructors: (0..config.constructors)
                .map(|_| TraceConstructor::new(config.decision_depth))
                .collect(),
            assignment: vec![None; config.constructors],
            blocked: vec![None; config.constructors],
            stalls: vec![0; config.constructors],
            next_region_id: 1,
            stats: EngineStats::default(),
            activity: Vec::new(),
            config,
        }
    }

    fn observe_dispatch(&mut self, pc: Addr, op: &Op, seq: u64) {
        if !self.config.enabled {
            return;
        }
        let reason = match op.class() {
            OpClass::Call => Some(StartReason::CallReturn),
            OpClass::Branch if op.is_backward_branch(pc) => Some(StartReason::LoopExit),
            _ => None,
        };
        if let Some(reason) = reason {
            self.stats.start_points_observed += 1;
            self.activity.push(Activity::StartPointPushed {
                addr: pc.next(),
                reason,
                seq,
            });
            self.stack.push(pc.next(), reason, seq);
        }
        for i in 0..self.regions.len() {
            if self.regions[i].live && self.regions[i].start == pc {
                self.retire_region(i, RegionEnd::CaughtUp);
            }
        }
    }

    fn observe_retire(&mut self, pc: Addr) {
        if self.config.enabled {
            self.stack.on_retire(pc);
        }
    }

    fn squash_younger_than(&mut self, seq: u64) {
        if self.config.enabled {
            self.stack.squash_younger_than(seq);
        }
    }

    fn tick(
        &mut self,
        cycle: u64,
        slow_path_idle: bool,
        program: &Program,
        icache: &mut InstrCache,
        bimodal: &Bimodal,
        store: &mut dyn TraceStore,
    ) {
        if !self.config.enabled || self.is_quiescent() {
            return;
        }
        self.activate_regions();
        self.land_pending_fetches(cycle);
        if slow_path_idle {
            for _ in 0..self.config.fetch_width {
                self.issue_line_fetch(cycle, icache);
            }
        }
        self.run_constructors(program, bimodal, store);
        self.complete_quiet_regions();
    }

    fn is_quiescent(&self) -> bool {
        self.stack.is_empty()
            && self.regions.iter().all(|r| !r.live)
            && self.constructors.iter().all(TraceConstructor::is_idle)
            && self.assignment.iter().all(Option::is_none)
            && self.stalls.iter().all(|&s| s == 0)
    }

    fn activate_regions(&mut self) {
        for slot in self.regions.iter_mut() {
            if slot.live {
                continue;
            }
            let Some(sp) = self.stack.pop() else { break };
            slot.live = true;
            slot.id = self.next_region_id;
            slot.start = sp.addr;
            slot.prefetch.clear();
            slot.worklist.clear();
            slot.seen.clear();
            slot.pending = None;
            slot.queue(sp.addr);
            self.next_region_id += 1;
            self.stats.regions_started += 1;
        }
    }

    fn land_pending_fetches(&mut self, cycle: u64) {
        for i in 0..self.regions.len() {
            let region = &mut self.regions[i];
            if !region.live {
                continue;
            }
            if let Some((addr, ready)) = region.pending {
                if cycle >= ready {
                    region.pending = None;
                    if !region.prefetch.insert_line(addr) {
                        self.retire_region(i, RegionEnd::FetchBound);
                    }
                }
            }
        }
    }

    /// The highest-numbered constructor of region `slot` blocked on a
    /// line that is neither resident nor in flight names the line.
    fn wanted_line(&self, slot: usize) -> Option<Addr> {
        let region = &self.regions[slot];
        let in_flight = region.pending.map(|(line, _)| line);
        (0..self.constructors.len()).rev().find_map(|c| {
            self.blocked[c].filter(|&addr| {
                self.assignment[c] == Some(slot)
                    && !region.prefetch.contains(addr)
                    && Some(InstrCache::line_base(addr)) != in_flight
            })
        })
    }

    fn issue_line_fetch(&mut self, cycle: u64, icache: &mut InstrCache) {
        let candidate = (0..self.regions.len())
            .filter(|&i| {
                let r = &self.regions[i];
                r.live && r.pending.is_none() && self.wanted_line(i).is_some()
            })
            .max_by_key(|&i| self.regions[i].id);
        if let Some(slot) = candidate {
            let addr = self.wanted_line(slot).unwrap();
            let region = &mut self.regions[slot];
            assert!(
                region.pending.is_none() && !region.prefetch.contains(addr),
                "fetching a line resident in, or in flight to, its region"
            );
            let line_base = InstrCache::line_base(addr);
            let res = icache.fetch(line_base, AccessKind::Precon);
            region.pending = Some((line_base, cycle + res.latency as u64));
            self.stats.lines_fetched += 1;
        }
    }

    fn run_constructors(
        &mut self,
        program: &Program,
        bimodal: &Bimodal,
        store: &mut dyn TraceStore,
    ) {
        for c in 0..self.constructors.len() {
            if self.stalls[c] > 0 {
                self.stalls[c] -= 1;
                continue;
            }
            self.blocked[c] = None;
            let mut budget = self.config.decode_width;
            while budget > 0 {
                if self.constructors[c].is_idle() && !self.assign_work(c) {
                    break;
                }
                let Some(slot) = self.assignment[c] else {
                    break;
                };
                let region = &mut self.regions[slot];
                if !region.live {
                    self.assignment[c] = None;
                    continue;
                }
                match self.constructors[c].run(&mut budget, program, &region.prefetch, bimodal) {
                    Step::BudgetSpent => {}
                    Step::NeedLine(addr) => {
                        if region.prefetch.is_full() {
                            self.retire_region(slot, RegionEnd::FetchBound);
                        } else {
                            self.blocked[c] = Some(addr);
                        }
                        break;
                    }
                    Step::TraceDone => {
                        let trace = self.constructors[c].completed().unwrap().build();
                        self.file_trace(c, slot, trace, program, store);
                    }
                    Step::Idle => {
                        self.assignment[c] = None;
                    }
                }
            }
        }
    }

    fn file_trace(
        &mut self,
        ctor: usize,
        slot: usize,
        trace: Trace,
        program: &Program,
        store: &mut dyn TraceStore,
    ) {
        self.stats.traces_built += 1;
        self.activity.push(Activity::TraceEmitted(trace.clone()));
        let region = &mut self.regions[slot];
        if !region.live {
            return;
        }
        let region_id = region.id;
        if let Some(succ) = trace.successor() {
            if region.seen.binary_search(&succ).is_err() {
                if region.worklist.len() < self.config.worklist_cap {
                    region.queue(succ);
                } else {
                    self.stats.successors_dropped += 1;
                }
            }
        }
        if store.contains_cached(trace.key()) {
            self.stats.traces_already_cached += 1;
        } else if !store.fill_precon(trace, region_id) {
            self.retire_region(slot, RegionEnd::BufferBound);
            return;
        }
        if !self.constructors[ctor].backtrack(program) {
            self.assignment[ctor] = None;
        }
    }

    fn assign_work(&mut self, ctor: usize) -> bool {
        let slot = self
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live && !r.worklist.is_empty())
            .max_by_key(|(_, r)| r.id)
            .map(|(i, _)| i);
        let Some(slot) = slot else {
            self.assignment[ctor] = None;
            return false;
        };
        let start = self.regions[slot].worklist.pop_front().unwrap();
        self.constructors[ctor].start(start);
        self.assignment[ctor] = Some(slot);
        true
    }

    fn complete_quiet_regions(&mut self) {
        for i in 0..self.regions.len() {
            let quiet = {
                let region = &self.regions[i];
                region.live
                    && region.worklist.is_empty()
                    && region.pending.is_none()
                    && !self
                        .assignment
                        .iter()
                        .zip(&self.constructors)
                        .any(|(a, c)| *a == Some(i) && !c.is_idle())
            };
            if quiet {
                self.retire_region(i, RegionEnd::Completed);
            }
        }
    }

    fn apply_fault(&mut self, fault: EngineFault) -> bool {
        if !self.config.enabled {
            return false;
        }
        match fault {
            EngineFault::DropPrefetchFill { salt } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                self.regions[slot].pending = None;
                true
            }
            EngineFault::DelayPrefetchFill { salt, extra } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                let (_, ready) = self.regions[slot].pending.as_mut().unwrap();
                *ready += extra;
                true
            }
            EngineFault::StallConstructor { salt, cycles } => {
                let Some(c) = self.pick_busy_constructor(salt) else {
                    return false;
                };
                self.stalls[c] = self.stalls[c].max(cycles);
                true
            }
            EngineFault::KillConstructor { salt } => {
                let Some(c) = self.pick_busy_constructor(salt) else {
                    return false;
                };
                self.constructors[c].abort();
                self.assignment[c] = None;
                self.blocked[c] = None;
                true
            }
            EngineFault::PopStartPoint => self.stack.pop().is_some(),
            EngineFault::SquashStartStack { salt } => {
                let len = self.stack.len();
                if len == 0 {
                    return false;
                }
                self.stack.squash_to_depth(salt as usize % len) > 0
            }
        }
    }

    fn pick_pending_region(&self, salt: u64) -> Option<usize> {
        salt_pick(self.regions.len(), salt, |i| {
            self.regions[i].live && self.regions[i].pending.is_some()
        })
    }

    fn pick_busy_constructor(&self, salt: u64) -> Option<usize> {
        salt_pick(self.constructors.len(), salt, |c| {
            !self.constructors[c].is_idle()
        })
    }

    fn retire_region(&mut self, slot: usize, end: RegionEnd) {
        let region = &mut self.regions[slot];
        if !region.live {
            return;
        }
        region.live = false;
        let start = region.start;
        match end {
            RegionEnd::Completed => self.stats.regions_completed += 1,
            RegionEnd::CaughtUp => self.stats.regions_caught_up += 1,
            RegionEnd::FetchBound => self.stats.regions_fetch_bound += 1,
            RegionEnd::BufferBound => self.stats.regions_buffer_bound += 1,
        }
        self.stack.mark_completed(start);
        for (c, a) in self.assignment.iter_mut().enumerate() {
            if *a == Some(slot) {
                self.constructors[c].abort();
                *a = None;
                self.blocked[c] = None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random inputs.
// ---------------------------------------------------------------------------

fn r(i: u32) -> Reg {
    Reg::new(i as u8)
}

/// A random valid program of 64 to 1,200 instructions: straight-line
/// ALU code broken by forward and backward branches of every bias,
/// jumps, calls, returns, indirect jumps and halts.
fn random_program(rng: &mut XorShift64) -> Program {
    let len = rng.next_in(64, 1200);
    let mut b = ProgramBuilder::new();
    for _ in 0..len - 1 {
        let target = Addr::new(rng.next_below(len));
        match rng.next_below(100) {
            0..=11 => {
                let model = match rng.next_below(5) {
                    0 => OutcomeModel::Loop {
                        trip: rng.next_in(1, 20),
                    },
                    1 => OutcomeModel::Biased {
                        num: rng.next_in(0, 10),
                        denom: 10,
                        seed: rng.next_u64(),
                    },
                    2 => OutcomeModel::Pattern {
                        bits: rng.next_below(1 << 16),
                        len: 16,
                    },
                    3 => OutcomeModel::AlwaysTaken,
                    _ => OutcomeModel::NeverTaken,
                };
                b.push_branch(
                    Op::Branch {
                        cond: BranchCond::Ne,
                        rs1: r(rng.next_below(8)),
                        rs2: r(rng.next_below(8)),
                        target,
                    },
                    model,
                );
            }
            12..=14 => {
                b.push(Op::Jump { target });
            }
            15..=19 => {
                b.push(Op::Call { target });
            }
            20..=23 => {
                b.push(Op::Return);
            }
            24 => {
                let targets = (0..rng.next_in(1, 4))
                    .map(|_| Addr::new(rng.next_below(len)))
                    .collect();
                b.push_indirect(
                    Op::IndirectJump { rs1: r(5) },
                    IndirectModel::uniform(targets, rng.next_u64()),
                );
            }
            25 => {
                b.push(Op::Halt);
            }
            _ => {
                b.push(Op::AddImm {
                    rd: r(rng.next_in(1, 8)),
                    rs1: r(rng.next_below(8)),
                    imm: 1,
                });
            }
        }
    }
    b.push(Op::Halt);
    b.build().expect("random program is valid")
}

/// A random engine configuration within the masks' bound, or the
/// paper's.
fn random_config(rng: &mut XorShift64, paper: bool) -> EngineConfig {
    let base = EngineConfig::default();
    if paper {
        return base;
    }
    EngineConfig {
        prefetch_caches: rng.next_in(1, 6) as usize,
        constructors: rng.next_in(1, 8) as usize,
        prefetch_capacity: 16 * rng.next_in(1, 16),
        stack_depth: rng.next_in(1, 16) as usize,
        completed_entries: rng.next_below(5) as usize,
        decision_depth: rng.next_below(4) as usize,
        decode_width: rng.next_below(7),
        worklist_cap: rng.next_in(1, 10) as usize,
        fetch_width: rng.next_in(1, 2),
        ..base
    }
}

/// Two identical stores: a split store of random geometry, or a
/// unified one.
fn store_pair(rng: &mut XorShift64) -> (Box<dyn TraceStore>, Box<dyn TraceStore>) {
    if rng.chance(1, 3) {
        let config = UnifiedConfig {
            entries: 4 << rng.next_below(5),
            initial_pb_ways: rng.next_in(1, 2) as u8,
            epoch_fetches: [0, 16, 64][rng.next_below(3) as usize],
        };
        (
            Box::new(UnifiedStore::new(config)),
            Box::new(UnifiedStore::new(config)),
        )
    } else {
        let tc = 2 << rng.next_below(6);
        let pb = 2 << rng.next_below(6);
        (
            Box::new(SplitStore::new(tc, pb)),
            Box::new(SplitStore::new(tc, pb)),
        )
    }
}

fn random_fault(rng: &mut XorShift64) -> EngineFault {
    let salt = rng.next_u64();
    match rng.next_below(6) {
        0 => EngineFault::DropPrefetchFill { salt },
        1 => EngineFault::DelayPrefetchFill {
            salt,
            extra: u64::from(rng.next_below(30)),
        },
        2 => EngineFault::StallConstructor {
            salt,
            cycles: rng.next_below(12),
        },
        3 => EngineFault::KillConstructor { salt },
        4 => EngineFault::PopStartPoint,
        _ => EngineFault::SquashStartStack { salt },
    }
}

// ---------------------------------------------------------------------------
// The differential run.
// ---------------------------------------------------------------------------

/// The probe recording the indexed engine's activity.
#[derive(Debug, Default)]
struct Recorder(Vec<Activity>);

impl EngineProbe for Recorder {
    fn start_point(&mut self, addr: Addr, reason: StartReason, seq: u64) {
        self.0
            .push(Activity::StartPointPushed { addr, reason, seq });
    }

    fn trace_emitted(&mut self, trace: &TraceBuilder, _filed: Filed) {
        self.0.push(Activity::TraceEmitted(trace.build()));
    }
}

/// One engine with its own I-cache and store.
struct Machine<E> {
    engine: E,
    icache: InstrCache,
    store: Box<dyn TraceStore>,
}

fn compare(
    dut: &mut Machine<PreconEngine<Recorder>>,
    reference: &mut Machine<RefEngine>,
    at: &str,
) -> Vec<Activity> {
    assert_eq!(*dut.engine.stats(), reference.engine.stats, "{at}: stats");
    let activity = std::mem::take(&mut dut.engine.probe.0);
    assert_eq!(
        activity,
        std::mem::take(&mut reference.engine.activity),
        "{at}: activity"
    );
    let (stack, ref_stack) = (dut.engine.start_stack(), &reference.engine.stack);
    assert_eq!(
        (stack.len(), stack.counters(), stack.completed_len()),
        (
            ref_stack.len(),
            ref_stack.counters(),
            ref_stack.completed_len()
        ),
        "{at}: start stack"
    );
    assert_eq!(
        dut.store.counters(),
        reference.store.counters(),
        "{at}: store"
    );
    assert_eq!(dut.icache.stats(), reference.icache.stats(), "{at}: icache");
    if let Err(e) = dut.engine.check_invariants() {
        panic!("{at}: {e}");
    }
    activity
}

/// Drives both engines through `cycles` cycles of one random case;
/// returns the engine counters at the end.
fn run_case(case: u64, rng: &mut XorShift64, cycles: u64, fault_permille: u32) -> EngineStats {
    let program = random_program(rng);
    let config = random_config(rng, case == 0);
    let (store, ref_store) = store_pair(rng);
    let mut dut = Machine {
        engine: PreconEngine::with_probe(config, Recorder::default()),
        icache: InstrCache::new(InstrCacheConfig::default()),
        store,
    };
    let mut reference = Machine {
        engine: RefEngine::new(config),
        icache: InstrCache::new(InstrCacheConfig::default()),
        store: ref_store,
    };
    let mut bimodal = Bimodal::new(256);
    let code: Vec<TraceInstr> = program
        .iter()
        .map(|(pc, &op)| TraceInstr { pc, op })
        .collect();
    // Region starts planted so far: dispatching one catches a region
    // up.
    let mut starts: Vec<Addr> = Vec::new();
    let mut built = Vec::new();
    let mut seq = 0u64;
    let mut idle_run = 0u32;
    let mut idle = true;
    for cycle in 0..cycles {
        let at = format!("case {case} ({config:?}), cycle {cycle}");
        // Bias drift: the constructors' branch decisions move.
        for _ in 0..rng.next_below(3) {
            let pc = Addr::new(rng.next_below(code.len() as u32));
            bimodal.update(pc, rng.chance(1, 2));
        }
        // Dispatch: a run of consecutive instructions from a random
        // point, often a planted region start. The indexed engine
        // observes the run as one trace; the reference instruction by
        // instruction.
        if rng.chance(2, 3) {
            let from = match starts.len() {
                n if n > 0 && rng.chance(1, 3) => starts[rng.next_below(n as u32) as usize],
                _ => Addr::new(rng.next_below(code.len() as u32)),
            };
            let from = (from.word() as usize).min(code.len() - 1);
            let run = &code[from..(from + rng.next_in(1, 16) as usize).min(code.len())];
            dut.engine.observe_dispatch_trace(run, seq + 1);
            for ti in run {
                seq += 1;
                reference.engine.observe_dispatch(ti.pc, &ti.op, seq);
                if matches!(ti.op.class(), OpClass::Call | OpClass::Branch) {
                    starts.push(ti.pc.next());
                }
            }
            if starts.len() > 64 {
                starts.drain(..32);
            }
        }
        if rng.chance(1, 4) {
            let pc = Addr::new(rng.next_below(code.len() as u32));
            dut.engine.observe_retire(pc);
            reference.engine.observe_retire(pc);
        }
        if rng.chance(1, 40) {
            let keep = seq.saturating_sub(u64::from(rng.next_below(40)));
            dut.engine.squash_younger_than(keep);
            reference.engine.squash_younger_than(keep);
        }
        // Faults, in the order the simulator applies them: before the
        // tick.
        if fault_permille > 0 && rng.next_below(1000) < fault_permille {
            let fault = random_fault(rng);
            assert_eq!(
                dut.engine.apply_fault(fault),
                reference.engine.apply_fault(fault),
                "{at}: {fault:?} landed differently"
            );
        }
        if fault_permille > 0 && rng.next_below(1000) < fault_permille {
            let salt = rng.next_u64();
            let (a, b) = if rng.chance(1, 2) {
                (
                    dut.store.fault_invalidate_precon(salt),
                    reference.store.fault_invalidate_precon(salt),
                )
            } else {
                (
                    dut.store.fault_corrupt_precon(salt),
                    reference.store.fault_corrupt_precon(salt),
                )
            };
            assert_eq!(a, b, "{at}: store fault");
        }
        // Slow-path idle in bursts, as a slow-path build occupies the
        // I-cache port for a stretch of cycles; a busy slow path also
        // fetches demand lines.
        if idle_run == 0 {
            idle = !idle;
            idle_run = rng.next_in(1, if idle { 40 } else { 12 });
        }
        idle_run -= 1;
        if !idle && rng.chance(1, 3) {
            let line = Addr::new(rng.next_below(code.len() as u32));
            dut.icache.fetch(line, AccessKind::Demand);
            reference.icache.fetch(line, AccessKind::Demand);
        }
        dut.engine.tick(
            cycle,
            idle,
            &program,
            &mut dut.icache,
            &bimodal,
            dut.store.as_mut(),
        );
        reference.engine.tick(
            cycle,
            idle,
            &program,
            &mut reference.icache,
            &bimodal,
            reference.store.as_mut(),
        );
        for a in compare(&mut dut, &mut reference, &at) {
            if let Activity::TraceEmitted(t) = a {
                built.push(t.key());
            }
        }
        // The processor fetches some built traces, which promotes
        // them and makes later builds "already cached".
        if !built.is_empty() && rng.chance(1, 4) {
            let key = built[rng.next_below(built.len() as u32) as usize];
            let (a, b) = (dut.store.fetch(key), reference.store.fetch(key));
            assert_eq!((a.hit, a.from_precon), (b.hit, b.from_precon), "{at}");
            if built.len() > 256 {
                built.drain(..128);
            }
        }
    }
    reference.engine.stats
}

/// Sums the counters of `cases` random cases, checking that every
/// way a region can end, and every other engine path, was exercised.
fn run_cases(seed: u64, cases: u64, fault_permille: impl Fn(u64) -> u32) {
    let mut rng = XorShift64::new(seed);
    let mut total = EngineStats::default();
    for case in 0..cases {
        let mut stats = run_case(case, &mut rng, 3_000, fault_permille(case));
        let mut words = Vec::new();
        stats.visit_words(&mut |w| words.push(*w));
        let mut words = words.into_iter();
        total.visit_words(&mut |w| *w += words.next().unwrap());
    }
    eprintln!("{total:?}");
    let mut words = Vec::new();
    total.visit_words(&mut |w| words.push(*w));
    assert!(
        words.iter().all(|&w| w > 0),
        "a path went unexercised: {total:?}"
    );
}

#[test]
fn indexed_engine_matches_polling_reference() {
    run_cases(0x00E9_61AE_D1FF, 64, |_| 0);
}

#[test]
fn indexed_engine_matches_polling_reference_under_faults() {
    run_cases(0x0FA0_17ED, 64, |case| [10, 40, 200][case as usize % 3]);
}
