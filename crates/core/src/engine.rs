//! The preconstruction engine (paper Sections 2–3).
//!
//! The engine watches the processor's dispatch stream for region
//! start points (call return points and loop exits), keeps them on a
//! [`StartPointStack`], and — using the I-cache only on cycles when
//! the slow path leaves it idle — walks the static code of up to four
//! regions at a time through four parallel [`TraceConstructor`]s fed
//! by four [`PrefetchCache`]s, filing completed traces into the
//! [`crate::PreconBuffers`] that the processor probes alongside its trace
//! cache.
//!
//! A region terminates when: its work runs out (completed), the
//! processor catches up to its start point (aborted), its prefetch
//! cache fills (fetch bound), or a buffer fill is rejected by the
//! region-priority policy (buffer bound — the paper's primary
//! per-region resource bound).

use crate::constructor::{Step, TraceConstructor};
use crate::faults::EngineFault;
use crate::start_stack::{StartPointStack, StartReason};
use crate::storage::TraceStore;
use crate::trace::Trace;
use std::collections::{BTreeSet, VecDeque};
use tpc_isa::{Addr, Op, OpClass, Program};
use tpc_mem::{AccessKind, InstrCache, PrefetchCache};
use tpc_predict::{Bimodal, TraceKey};

/// Configuration of the preconstruction engine. Defaults are the
/// paper's (Section 4.1) with a 256-entry buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Master switch; a disabled engine does nothing and holds no
    /// buffers.
    pub enabled: bool,
    /// Preconstruction buffer entries (2-way set-associative). The
    /// engine does not allocate these itself — the processor sizes
    /// its [`crate::storage::SplitStore`] from this field.
    pub buffer_entries: u32,
    /// Number of prefetch caches = maximum concurrently-active
    /// regions.
    pub prefetch_caches: usize,
    /// Parallel trace constructors.
    pub constructors: usize,
    /// Capacity of each prefetch cache, in instructions.
    pub prefetch_capacity: u32,
    /// Region start-point stack depth.
    pub stack_depth: usize,
    /// Reserved completed-region entries on the stack.
    pub completed_entries: usize,
    /// Per-constructor internal decision-stack depth.
    pub decision_depth: usize,
    /// Instructions a constructor can decode per cycle.
    pub decode_width: u32,
    /// Trace start points a region worklist can hold.
    pub worklist_cap: usize,
    /// Run the preprocessing pipeline over preconstructed traces
    /// (extended pipeline model, Section 6).
    pub preprocess: bool,
    /// Seed loop-exit regions at all four phases of the mod-4
    /// alignment lattice instead of only the branch fall-through.
    /// Costs extra fetch/buffer resources; measured as an ablation.
    pub lattice_seed_loop_exits: bool,
    /// Remember the identity of every trace ever constructed
    /// (diagnostic; lets the simulator classify trace-cache misses
    /// into never-built vs. built-but-lost).
    pub track_built_keys: bool,
    /// I-cache lines the engine may fetch per idle cycle (the paper
    /// uses the single idle slow-path port: 1).
    pub fetch_width: u32,
    /// Record every start-point push and constructed trace into an
    /// activity log drained via [`PreconEngine::take_activity`]
    /// (conformance checking against the static enumeration; off in
    /// normal simulation).
    pub record_activity: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            enabled: true,
            buffer_entries: 256,
            prefetch_caches: 4,
            constructors: 4,
            prefetch_capacity: 256,
            stack_depth: 16,
            completed_entries: 4,
            decision_depth: 3,
            decode_width: 4,
            worklist_cap: 8,
            preprocess: false,
            lattice_seed_loop_exits: false,
            track_built_keys: false,
            fetch_width: 1,
            record_activity: false,
        }
    }
}

impl EngineConfig {
    /// A disabled engine (the no-preconstruction baseline).
    pub fn disabled() -> Self {
        EngineConfig {
            enabled: false,
            buffer_entries: 0,
            ..EngineConfig::default()
        }
    }
}

/// Counters kept by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Regions popped from the start-point stack and explored.
    pub regions_started: u64,
    /// Regions whose work completed normally.
    pub regions_completed: u64,
    /// Regions aborted because the processor reached them.
    pub regions_caught_up: u64,
    /// Regions terminated by a full prefetch cache.
    pub regions_fetch_bound: u64,
    /// Regions terminated by a rejected buffer fill.
    pub regions_buffer_bound: u64,
    /// Traces constructed (including duplicates of cached traces).
    pub traces_built: u64,
    /// Constructed traces discarded because the trace cache already
    /// held them.
    pub traces_already_cached: u64,
    /// Successor start points dropped by the worklist bound.
    pub successors_dropped: u64,
    /// I-cache lines fetched on behalf of preconstruction.
    pub lines_fetched: u64,
    /// Start points observed at dispatch (pre-deduplication).
    pub start_points_observed: u64,
}

impl EngineStats {
    /// Visits every counter in checkpoint-word order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let EngineStats {
            regions_started,
            regions_completed,
            regions_caught_up,
            regions_fetch_bound,
            regions_buffer_bound,
            traces_built,
            traces_already_cached,
            successors_dropped,
            lines_fetched,
            start_points_observed,
        } = self;
        for w in [
            regions_started,
            regions_completed,
            regions_caught_up,
            regions_fetch_bound,
            regions_buffer_bound,
            traces_built,
            traces_already_cached,
            successors_dropped,
            lines_fetched,
            start_points_observed,
        ] {
            f(w);
        }
    }
}

/// One observable engine action, recorded when
/// [`EngineConfig::record_activity`] is set. The differential oracle
/// drains these with [`PreconEngine::take_activity`] and checks each
/// against the static enumeration computed by `tpc-analysis`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineActivity {
    /// A region start point was offered to the start-point stack
    /// (recorded whether or not deduplication accepted it).
    StartPointPushed {
        /// The region start address (instruction after the call or
        /// backward branch that triggered it).
        addr: Addr,
        /// Why the start point was pushed.
        reason: StartReason,
        /// Dispatch sequence number of the triggering instruction.
        seq: u64,
    },
    /// A constructor completed a trace (recorded before the
    /// duplicate-suppression and buffer-fill steps, so dropped traces
    /// are checked too).
    TraceEmitted(Trace),
}

/// One region slot, paired with one prefetch cache. A slot is reused
/// in place: activating a region clears its buffers but keeps their
/// storage, so the engine allocates nothing per region once every
/// buffer has reached its working size.
#[derive(Debug)]
struct Region {
    /// Whether the slot holds a region under exploration.
    live: bool,
    id: u64,
    start: Addr,
    prefetch: PrefetchCache,
    /// Trace start points still to construct, oldest first.
    worklist: VecDeque<Addr>,
    /// Every start point ever queued in this region, sorted.
    seen: Vec<Addr>,
    /// Line address a constructor is stalled on.
    want_line: Option<Addr>,
    /// In-flight line fetch: (address, cycle it arrives).
    pending: Option<(Addr, u64)>,
}

impl Region {
    fn new(config: &EngineConfig) -> Self {
        Region {
            live: false,
            id: 0,
            start: Addr::ZERO,
            prefetch: PrefetchCache::new(config.prefetch_capacity),
            worklist: VecDeque::with_capacity(worklist_bound(config)),
            seen: Vec::new(),
            want_line: None,
            pending: None,
        }
    }

    /// Queues `addr` for construction unless it was queued before.
    fn queue(&mut self, addr: Addr) {
        if let Err(at) = self.seen.binary_search(&addr) {
            self.seen.insert(at, addr);
            self.worklist.push_back(addr);
        }
    }
}

/// Most entries a region worklist may hold. Lattice seeding may plant
/// up to `ALIGN_QUANTUM` initial entries, so the bound is the max of
/// that and the configured cap.
fn worklist_bound(config: &EngineConfig) -> usize {
    config.worklist_cap.max(crate::trace::ALIGN_QUANTUM)
}

/// The `salt`-chosen index among `0..n` satisfying `pred`, if any.
fn salt_pick(n: usize, salt: u64, pred: impl Fn(usize) -> bool) -> Option<usize> {
    let count = (0..n).filter(|&i| pred(i)).count();
    if count == 0 {
        return None;
    }
    (0..n).filter(|&i| pred(i)).nth(salt as usize % count)
}

/// The preconstruction engine. See the module docs for the overall
/// flow; drive it with one [`PreconEngine::tick`] per processor
/// cycle plus the dispatch/retire/squash observation hooks.
#[derive(Debug)]
pub struct PreconEngine {
    config: EngineConfig,
    stack: StartPointStack,
    regions: Vec<Region>,
    constructors: Vec<TraceConstructor>,
    /// Region slot each constructor works for.
    assignment: Vec<Option<usize>>,
    /// Remaining fault-injected stall cycles per constructor.
    stalls: Vec<u32>,
    next_region_id: u64,
    stats: EngineStats,
    built_keys: BTreeSet<u64>,
    activity: Vec<EngineActivity>,
}

impl PreconEngine {
    /// Creates an engine. The engine does not own the trace storage:
    /// the preconstruction buffers (or the unified store's
    /// preconstruction ways) are passed into [`PreconEngine::tick`]
    /// by the processor, which probes them in parallel with its trace
    /// cache.
    pub fn new(config: EngineConfig) -> Self {
        PreconEngine {
            stack: StartPointStack::new(config.stack_depth.max(1), config.completed_entries),
            regions: (0..config.prefetch_caches)
                .map(|_| Region::new(&config))
                .collect(),
            constructors: (0..config.constructors)
                .map(|_| TraceConstructor::new(config.decision_depth))
                .collect(),
            assignment: vec![None; config.constructors],
            stalls: vec![0; config.constructors],
            next_region_id: 1,
            stats: EngineStats::default(),
            built_keys: BTreeSet::new(),
            activity: Vec::new(),
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether a trace with this identity was ever constructed
    /// (only meaningful with `track_built_keys` enabled).
    pub fn was_ever_built(&self, key: TraceKey) -> bool {
        self.built_keys.contains(&key.hash64())
    }

    /// Read access to the region start-point stack (occupancy,
    /// counters) for diagnostics and invariant checking.
    pub fn start_stack(&self) -> &StartPointStack {
        &self.stack
    }

    /// Drains the activity log accumulated since the last call.
    /// Always empty unless [`EngineConfig::record_activity`] is set.
    pub fn take_activity(&mut self) -> Vec<EngineActivity> {
        std::mem::take(&mut self.activity)
    }

    /// Checks the engine's structural invariants: the start stack
    /// within its configured 16 + 4 bound, every constructor
    /// assignment pointing at a live region slot, and region
    /// worklists within their configured cap. Called by the
    /// differential oracle after every simulation chunk.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.stack.check_invariants()?;
        if self.stack.depth() != self.config.stack_depth.max(1)
            || self.stack.completed_capacity() != self.config.completed_entries
        {
            return Err(format!(
                "start stack shape {}+{} differs from configured {}+{}",
                self.stack.depth(),
                self.stack.completed_capacity(),
                self.config.stack_depth.max(1),
                self.config.completed_entries
            ));
        }
        if self.regions.len() != self.config.prefetch_caches {
            return Err(format!(
                "{} region slots but {} prefetch caches configured",
                self.regions.len(),
                self.config.prefetch_caches
            ));
        }
        for (c, a) in self.assignment.iter().enumerate() {
            if let Some(slot) = a {
                if *slot >= self.regions.len() {
                    return Err(format!(
                        "constructor {c} assigned to out-of-range region slot {slot}"
                    ));
                }
            }
        }
        let worklist_bound = worklist_bound(&self.config);
        for region in self.regions.iter().filter(|r| r.live) {
            if region.worklist.len() > worklist_bound {
                return Err(format!(
                    "region {} worklist holds {} entries, cap is {}",
                    region.id,
                    region.worklist.len(),
                    worklist_bound
                ));
            }
        }
        Ok(())
    }

    /// Observes one dispatched instruction (speculative stream).
    ///
    /// Pushes region start points for calls and backward branches and
    /// aborts regions the processor has caught up with.
    #[inline]
    pub fn observe_dispatch(&mut self, pc: Addr, op: &Op, seq: u64) {
        if self.config.enabled {
            self.observe_dispatch_enabled(pc, op, seq);
        }
    }

    /// [`PreconEngine::observe_dispatch`] of an enabled engine.
    fn observe_dispatch_enabled(&mut self, pc: Addr, op: &Op, seq: u64) {
        match op.class() {
            OpClass::Call => {
                self.stats.start_points_observed += 1;
                if self.config.record_activity {
                    self.activity.push(EngineActivity::StartPointPushed {
                        addr: pc.next(),
                        reason: StartReason::CallReturn,
                        seq,
                    });
                }
                self.stack.push(pc.next(), StartReason::CallReturn, seq);
            }
            OpClass::Branch if op.is_backward_branch(pc) => {
                self.stats.start_points_observed += 1;
                if self.config.record_activity {
                    self.activity.push(EngineActivity::StartPointPushed {
                        addr: pc.next(),
                        reason: StartReason::LoopExit,
                        seq,
                    });
                }
                self.stack.push(pc.next(), StartReason::LoopExit, seq);
            }
            _ => {}
        }
        // Catch-up: the processor reached a region being explored.
        for i in 0..self.regions.len() {
            if self.regions[i].live && self.regions[i].start == pc {
                self.retire_region(i, RegionEnd::CaughtUp);
            }
        }
    }

    /// Observes one retired instruction (architectural stream):
    /// start points whose region execution reached are removed.
    #[inline]
    pub fn observe_retire(&mut self, pc: Addr) {
        if self.config.enabled {
            self.stack.on_retire(pc);
        }
    }

    /// Removes start points planted by squashed (wrong-path)
    /// dispatches.
    pub fn squash_younger_than(&mut self, seq: u64) {
        if self.config.enabled {
            self.stack.squash_younger_than(seq);
        }
    }

    /// Advances the engine by one cycle.
    ///
    /// `slow_path_idle` must be true only on cycles where the
    /// processor's slow path is not using the I-cache — the engine
    /// fetches at most one line per such cycle (paper Section 2:
    /// preconstruction borrows idle slow-path hardware).
    #[inline]
    pub fn tick(
        &mut self,
        cycle: u64,
        slow_path_idle: bool,
        program: &Program,
        icache: &mut InstrCache,
        bimodal: &Bimodal,
        store: &mut dyn TraceStore,
    ) {
        if self.config.enabled {
            self.tick_enabled(cycle, slow_path_idle, program, icache, bimodal, store);
        }
    }

    /// [`PreconEngine::tick`] of an enabled engine.
    fn tick_enabled(
        &mut self,
        cycle: u64,
        slow_path_idle: bool,
        program: &Program,
        icache: &mut InstrCache,
        bimodal: &Bimodal,
        store: &mut dyn TraceStore,
    ) {
        if self.is_quiescent() {
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

    /// Whether a tick would change nothing: no start point to
    /// activate, no live region, and no constructor holding work, an
    /// assignment or a fault stall.
    fn is_quiescent(&self) -> bool {
        self.stack.is_empty()
            && self.regions.iter().all(|r| !r.live)
            && self.constructors.iter().all(TraceConstructor::is_idle)
            && self.assignment.iter().all(Option::is_none)
            && self.stalls.iter().all(|&s| s == 0)
    }

    /// Pops start points into free region slots.
    fn activate_regions(&mut self) {
        for slot in self.regions.iter_mut() {
            if slot.live {
                continue;
            }
            let Some(sp) = self.stack.pop() else { break };
            // Loop-exit regions are seeded at all four phases of the
            // mod-4 alignment lattice: the processor's trace that
            // straddles the loop exit ends a multiple of four
            // instructions past the backward branch, so its next
            // trace starts at `addr + 4k` for some k — seeding every
            // phase guarantees one seed lands on the lattice the
            // processor will actually use (paper Section 2.2).
            let seeds = match sp.reason {
                StartReason::LoopExit if self.config.lattice_seed_loop_exits => {
                    crate::trace::ALIGN_QUANTUM as u32
                }
                _ => 1,
            };
            slot.live = true;
            slot.id = self.next_region_id;
            slot.start = sp.addr;
            slot.prefetch.clear();
            slot.worklist.clear();
            slot.seen.clear();
            slot.want_line = None;
            slot.pending = None;
            for k in 0..seeds {
                slot.queue(sp.addr + k * crate::trace::ALIGN_QUANTUM as u32);
            }
            self.next_region_id += 1;
            self.stats.regions_started += 1;
        }
    }

    /// Moves arrived line fetches into their prefetch caches.
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

    /// Issues at most one I-cache line fetch for the newest region
    /// that is stalled waiting for a line.
    fn issue_line_fetch(&mut self, cycle: u64, icache: &mut InstrCache) {
        let candidate = self
            .regions
            .iter_mut()
            .filter(|r| r.live && r.pending.is_none() && r.want_line.is_some())
            .max_by_key(|r| r.id);
        if let Some(region) = candidate {
            let addr = region.want_line.take().expect("filtered on is_some");
            let line_base = InstrCache::line_base(addr);
            let res = icache.fetch(line_base, AccessKind::Precon);
            region.pending = Some((line_base, cycle + res.latency as u64));
            self.stats.lines_fetched += 1;
        }
    }

    /// Runs every constructor for up to `decode_width` instructions.
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
            let mut budget = self.config.decode_width;
            while budget > 0 {
                // (Re)assign idle constructors to the newest region
                // with pending work.
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
                            // Known model defect, kept because fixing
                            // it moves counters: a constructor that
                            // re-polls while its line is in flight
                            // sets `want_line` again, so once the fill
                            // lands the engine fetches the same,
                            // already-resident line a second time
                            // (ROADMAP, "One measurement window, by
                            // subtraction").
                            region.want_line = Some(addr);
                        }
                        break;
                    }
                    Step::TraceDone(trace) => self.file_trace(c, slot, trace, program, store),
                    Step::Idle => {
                        self.assignment[c] = None;
                    }
                }
            }
        }
    }

    /// Handles a completed trace: queue its successor, store it in
    /// the buffers (unless already cached), resume alternatives.
    fn file_trace(
        &mut self,
        ctor: usize,
        slot: usize,
        trace: Trace,
        program: &Program,
        store: &mut dyn TraceStore,
    ) {
        self.stats.traces_built += 1;
        if self.config.record_activity {
            self.activity
                .push(EngineActivity::TraceEmitted(trace.clone()));
        }
        debug_assert!(
            trace.validate_against(program).is_ok(),
            "constructed trace diverges from static code: {:?}",
            trace.validate_against(program)
        );
        if self.config.track_built_keys {
            self.built_keys.insert(trace.key().hash64());
        }
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
        } else {
            let mut trace = trace;
            if self.config.preprocess {
                let info = crate::preprocess::preprocess(&trace);
                trace.set_preprocess(info);
            }
            if !store.fill_precon(trace, region_id) {
                // Buffer bound: the primary per-region resource limit.
                self.retire_region(slot, RegionEnd::BufferBound);
                return;
            }
        }
        if !self.constructors[ctor].backtrack(program) {
            self.assignment[ctor] = None;
        }
    }

    /// Finds work for an idle constructor: the newest region with a
    /// non-empty worklist. Returns false when no work exists.
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
        let start = self.regions[slot]
            .worklist
            .pop_front()
            .expect("selected non-empty");
        self.constructors[ctor].start(start);
        self.assignment[ctor] = Some(slot);
        true
    }

    /// Frees regions with no remaining work.
    fn complete_quiet_regions(&mut self) {
        for i in 0..self.regions.len() {
            let quiet = {
                let region = &self.regions[i];
                region.live
                    && region.worklist.is_empty()
                    && region.pending.is_none()
                    && region.want_line.is_none()
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

    /// Applies one injected engine fault. Returns whether the fault
    /// landed on live state (a fault drawn against an idle engine is
    /// a no-op and counts as not landed).
    ///
    /// Every perturbation stays inside the engine's structural
    /// invariants: a dropped fill restores the region's `want_line`
    /// so the fetch is simply re-issued, a killed constructor aborts
    /// through the same path a caught-up region uses, and stack
    /// pops/squashes only discard hint entries — none of this can
    /// reach architectural state, which is the property the
    /// differential oracle checks end to end.
    pub fn apply_fault(&mut self, fault: EngineFault) -> bool {
        if !self.config.enabled {
            return false;
        }
        match fault {
            EngineFault::DropPrefetchFill { salt } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                let region = &mut self.regions[slot];
                let (addr, _) = region.pending.take().expect("picked pending");
                region.want_line = Some(addr);
                true
            }
            EngineFault::DelayPrefetchFill { salt, extra } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                let (_, ready) = self.regions[slot].pending.as_mut().expect("picked pending");
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

    /// Salt-chosen region slot with an in-flight line fetch.
    fn pick_pending_region(&self, salt: u64) -> Option<usize> {
        salt_pick(self.regions.len(), salt, |i| {
            self.regions[i].live && self.regions[i].pending.is_some()
        })
    }

    /// Salt-chosen constructor that is currently mid-trace.
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
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionEnd {
    Completed,
    CaughtUp,
    FetchBound,
    BufferBound,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_isa::model::OutcomeModel;
    use tpc_isa::{BranchCond, ProgramBuilder, Reg};
    use tpc_mem::InstrCacheConfig;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A call site whose callee returns, with post-return code ending
    /// in halt — the canonical Region-1 shape from the paper's
    /// example.
    fn call_program() -> Program {
        let mut b = ProgramBuilder::new();
        let call_at = b.push(Op::Nop); // patched to call f
                                       // Return point: post-call region (the region start point).
        for _ in 0..6 {
            b.push(Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            });
        }
        b.push(Op::Halt);
        let f = b.here();
        b.push(Op::AddImm {
            rd: r(2),
            rs1: r(2),
            imm: 1,
        });
        b.push(Op::Return);
        b.patch(call_at, Op::Call { target: f });
        b.build().unwrap()
    }

    use crate::storage::SplitStore;

    fn harness() -> (InstrCache, Bimodal, SplitStore) {
        (
            InstrCache::new(InstrCacheConfig::default()),
            Bimodal::new(1024),
            SplitStore::new(64, 256),
        )
    }

    fn drive(engine: &mut PreconEngine, program: &Program, cycles: u64) -> SplitStore {
        let (mut ic, bim, mut store) = harness();
        for cycle in 0..cycles {
            engine.tick(cycle, true, program, &mut ic, &bim, &mut store);
        }
        store
    }

    #[test]
    fn call_dispatch_spawns_region_and_builds_traces() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        // The processor dispatches the call at address 0.
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let store = drive(&mut e, &p, 100);
        assert_eq!(e.stats().regions_started, 1);
        assert!(e.stats().traces_built >= 1);
        assert!(store.buffers().occupancy() >= 1);
    }

    #[test]
    fn preconstructed_trace_is_fetchable_by_key() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let mut store = drive(&mut e, &p, 200);
        // The region starts at the return point (address 1) and the
        // first trace runs to the halt: find it by reconstructing the
        // expected key (straight-line: no branches).
        let key = TraceKey {
            start: Addr::new(1),
            branch_count: 0,
            outcomes: 0,
        };
        let fetched = store.fetch(key);
        assert!(fetched.hit, "trace from the post-call region present");
        assert!(fetched.from_precon);
    }

    #[test]
    fn backward_branch_spawns_loop_exit_region() {
        let mut b = ProgramBuilder::new();
        let top = b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        });
        b.push_branch(
            Op::Branch {
                cond: BranchCond::Ne,
                rs1: r(1),
                rs2: r(2),
                target: top,
            },
            OutcomeModel::Loop { trip: 10 },
        );
        for _ in 0..4 {
            b.push(Op::AddImm {
                rd: r(3),
                rs1: r(3),
                imm: 1,
            });
        }
        b.push(Op::Halt);
        let p = b.build().unwrap();
        let mut e = PreconEngine::new(EngineConfig::default());
        let br_pc = Addr::new(1);
        e.observe_dispatch(br_pc, p.fetch(br_pc).unwrap(), 1);
        let mut store = drive(&mut e, &p, 100);
        assert_eq!(e.stats().regions_started, 1);
        // The loop-exit region starts at the branch fall-through.
        let key = TraceKey {
            start: Addr::new(2),
            branch_count: 0,
            outcomes: 0,
        };
        assert!(store.fetch(key).hit);
    }

    #[test]
    fn catch_up_aborts_region() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        // Activate the region but give it no cycles to finish.
        let (mut ic, bim, mut store) = harness();
        e.tick(0, false, &p, &mut ic, &bim, &mut store);
        assert_eq!(e.stats().regions_started, 1);
        // The processor dispatches the region's start instruction.
        e.observe_dispatch(Addr::new(1), p.fetch(Addr::new(1)).unwrap(), 2);
        assert_eq!(e.stats().regions_caught_up, 1);
    }

    #[test]
    fn completed_region_not_restarted() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        drive(&mut e, &p, 300);
        let started = e.stats().regions_started;
        assert!(e.stats().regions_completed >= 1);
        // The same call dispatches again: completed-region memory
        // suppresses the re-push.
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 2);
        drive(&mut e, &p, 100);
        assert_eq!(e.stats().regions_started, started);
    }

    #[test]
    fn disabled_engine_is_inert() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::disabled());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        drive(&mut e, &p, 100);
        assert_eq!(e.stats().regions_started, 0);
        assert_eq!(e.stats().traces_built, 0);
    }

    #[test]
    fn fetches_gated_by_slow_path_idle() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let (mut ic, bim, mut store) = harness();
        for cycle in 0..50 {
            e.tick(cycle, false, &p, &mut ic, &bim, &mut store); // never idle
        }
        assert_eq!(
            e.stats().lines_fetched,
            0,
            "no fetches while slow path busy"
        );
        assert_eq!(e.stats().traces_built, 0);
    }

    #[test]
    fn preprocess_flag_annotates_traces() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig {
            preprocess: true,
            ..EngineConfig::default()
        });
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let mut store = drive(&mut e, &p, 200);
        let key = TraceKey {
            start: Addr::new(1),
            branch_count: 0,
            outcomes: 0,
        };
        let f = store.fetch(key);
        assert!(f.hit, "trace built");
        assert!(f.preprocess.is_some());
    }

    #[test]
    fn reused_region_slot_starts_clean() {
        // One region slot serves two regions in turn. Both sit on the
        // same I-cache line, so the second region must fetch it again
        // into its cleared prefetch cache.
        let mut b = ProgramBuilder::new();
        let first_call = b.push(Op::Nop); // patched to call f
        b.push(Op::AddImm {
            rd: r(1),
            rs1: r(1),
            imm: 1,
        });
        b.push(Op::Halt);
        let second_call = b.push(Op::Nop); // patched to call f
        b.push(Op::AddImm {
            rd: r(2),
            rs1: r(2),
            imm: 1,
        });
        b.push(Op::Halt);
        let f = b.here();
        b.push(Op::Return);
        b.patch(first_call, Op::Call { target: f });
        b.patch(second_call, Op::Call { target: f });
        let p = b.build().unwrap();
        let mut e = PreconEngine::new(EngineConfig {
            prefetch_caches: 1,
            ..EngineConfig::default()
        });
        let (mut ic, bim, mut store) = harness();
        let mut fetched = Vec::new();
        for (seq, call) in [first_call, second_call].into_iter().enumerate() {
            e.observe_dispatch(call, p.fetch(call).unwrap(), seq as u64 + 1);
            for cycle in 0..100 {
                let cycle = seq as u64 * 100 + cycle;
                e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
            }
            fetched.push(e.stats().lines_fetched);
        }
        assert_eq!(e.stats().regions_started, 2);
        assert_eq!(e.stats().regions_completed, 2);
        assert!(fetched[0] > 0);
        assert_eq!(fetched[1], 2 * fetched[0], "each region fetches alike");
        for start in [first_call.next(), second_call.next()] {
            let key = TraceKey {
                start,
                branch_count: 0,
                outcomes: 0,
            };
            assert!(store.fetch(key).hit, "trace at {start:?} built");
        }
        assert!(e.is_quiescent());
    }

    #[test]
    fn faults_on_idle_or_disabled_engine_do_not_land() {
        let mut disabled = PreconEngine::new(EngineConfig::disabled());
        assert!(!disabled.apply_fault(EngineFault::PopStartPoint));
        let mut idle = PreconEngine::new(EngineConfig::default());
        for fault in [
            EngineFault::DropPrefetchFill { salt: 7 },
            EngineFault::DelayPrefetchFill { salt: 7, extra: 3 },
            EngineFault::StallConstructor { salt: 7, cycles: 3 },
            EngineFault::KillConstructor { salt: 7 },
            EngineFault::PopStartPoint,
            EngineFault::SquashStartStack { salt: 7 },
        ] {
            assert!(!idle.apply_fault(fault), "{fault:?} landed on idle engine");
        }
    }

    #[test]
    fn pop_and_squash_faults_drain_the_stack() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        assert_eq!(e.start_stack().len(), 1);
        assert!(e.apply_fault(EngineFault::PopStartPoint));
        assert_eq!(e.start_stack().len(), 0);
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 2);
        assert!(e.apply_fault(EngineFault::SquashStartStack { salt: 0 }));
        assert_eq!(e.start_stack().len(), 0);
    }

    #[test]
    fn kill_constructor_aborts_but_engine_recovers() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let (mut ic, bim, mut store) = harness();
        // Run until a constructor is demonstrably busy, then kill it.
        let mut landed = false;
        for cycle in 0..300 {
            e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
            if !landed && cycle == 20 {
                landed = e.apply_fault(EngineFault::KillConstructor { salt: 3 });
            }
        }
        assert!(e.check_invariants().is_ok());
        // The region either still completed (worklist re-dispatch) or
        // was retired through a normal path — no constructor wedged.
        assert!(e.stats().traces_built >= 1);
    }

    #[test]
    fn stall_fault_freezes_constructor_for_n_cycles() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let (mut ic, bim, mut store) = harness();
        for cycle in 0..10 {
            e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
        }
        let stalled = e.apply_fault(EngineFault::StallConstructor { salt: 1, cycles: 5 });
        for cycle in 10..300 {
            e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
        }
        // Whether or not the stall landed (depends on timing), the
        // engine must still finish its work.
        let _ = stalled;
        assert!(e.stats().traces_built >= 1);
        assert!(e.check_invariants().is_ok());
    }

    #[test]
    fn drop_fill_fault_refetches_and_completes() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        let (mut ic, bim, mut store) = harness();
        let mut drops = 0;
        for cycle in 0..400 {
            e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
            // Hammer the drop fault every cycle for a while: each
            // drop restores want_line, so fetches are re-issued and
            // progress is delayed, never lost.
            if cycle < 30 && e.apply_fault(EngineFault::DropPrefetchFill { salt: cycle }) {
                drops += 1;
            }
        }
        assert!(drops > 0, "at least one in-flight fill was dropped");
        assert!(e.stats().traces_built >= 1, "engine still completes");
        assert!(e.check_invariants().is_ok());
    }

    #[test]
    fn already_cached_traces_are_not_buffered() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig::default());
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        // First run builds the trace and a fetch promotes it into
        // the trace-cache side of the store.
        let (mut ic, bim, mut store) = harness();
        for cycle in 0..200 {
            e.tick(cycle, true, &p, &mut ic, &bim, &mut store);
        }
        let key = TraceKey {
            start: Addr::new(1),
            branch_count: 0,
            outcomes: 0,
        };
        assert!(store.fetch(key).hit, "built and promoted");
        // Second engine run with the trace now cached: the duplicate
        // check suppresses re-buffering.
        let mut e2 = PreconEngine::new(EngineConfig::default());
        e2.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        for cycle in 0..200 {
            e2.tick(cycle, true, &p, &mut ic, &bim, &mut store);
        }
        assert!(e2.stats().traces_already_cached >= 1);
        let again = store.fetch(key);
        assert!(
            again.hit && !again.from_precon,
            "supplied by the cache, not the buffers"
        );
    }
}
