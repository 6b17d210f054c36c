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
use crate::storage::{Filed, TraceStore};
use crate::trace::{TraceBuilder, TraceInstr};
use std::collections::VecDeque;
use tpc_isa::{Addr, Op, OpClass, Program};
use tpc_mem::{AccessKind, InstrCache, PrefetchCache};
use tpc_predict::Bimodal;

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
    /// I-cache lines the engine may fetch per idle cycle (the paper
    /// uses the single idle slow-path port: 1).
    pub fetch_width: u32,
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
            fetch_width: 1,
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
    /// Traces constructed (including duplicates of cached traces),
    /// whether or not the store then needed a new snapshot of them.
    pub traces_built: u64,
    /// Constructed traces discarded, unbuilt, because the trace cache
    /// already held them.
    pub traces_already_cached: u64,
    /// Successor start points dropped by the worklist bound.
    pub successors_dropped: u64,
    /// I-cache lines fetched on behalf of preconstruction: the only
    /// count of these fetches (the I-cache counts only their misses).
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

/// Hooks through which a run of the engine is observed (see
/// [`PreconEngine::with_probe`]). Every hook defaults to doing
/// nothing; the engine never reads its probe, so observing a run
/// cannot change it.
pub trait EngineProbe {
    /// A region start point was offered to the start-point stack,
    /// accepted or not: `addr` follows the call or backward branch
    /// dispatched as number `seq`.
    #[inline]
    fn start_point(&mut self, _addr: Addr, _reason: StartReason, _seq: u64) {}

    /// A constructor completed `trace`, which the store then filed as
    /// `filed`. The trace is unbuilt: a probe that needs a
    /// [`crate::Trace`] calls [`TraceBuilder::build`].
    #[inline]
    fn trace_emitted(&mut self, _trace: &TraceBuilder, _filed: Filed) {}
}

/// The probe that observes nothing, and compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl EngineProbe for NoProbe {}

/// One region slot, paired with one prefetch cache. A slot is reused
/// in place: activating a region clears its buffers but keeps their
/// storage, so the engine allocates nothing per region once every
/// buffer has reached its working size. Whether the slot is live, and
/// its start address, live in the engine's `live` mask and `starts`
/// array; the fields below mean something only while it is live.
#[derive(Debug)]
struct Region {
    id: u64,
    prefetch: PrefetchCache,
    /// Trace start points still to construct, oldest first.
    worklist: VecDeque<Addr>,
    /// Every start point ever queued in this region, sorted.
    seen: Vec<Addr>,
    /// In-flight line fetch: (address, cycle it arrives).
    pending: Option<(Addr, u64)>,
}

impl Region {
    /// A free slot, its buffers sized for any region. `seen` is
    /// sized for every start a region can queue: one per instruction
    /// its prefetch cache holds (a start is walked from a resident
    /// line), one per constructor parked on its start's line, and a
    /// full worklist. Only constructors killed by injected faults can
    /// push a region past that.
    fn new(config: &EngineConfig) -> Self {
        Region {
            id: 0,
            prefetch: PrefetchCache::new(config.prefetch_capacity),
            worklist: VecDeque::with_capacity(config.worklist_cap),
            seen: Vec::with_capacity(
                config.prefetch_capacity as usize + config.constructors + config.worklist_cap,
            ),
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

/// The `salt`-chosen index among `0..n` satisfying `pred`, if any.
fn salt_pick(n: usize, salt: u64, pred: impl Fn(usize) -> bool) -> Option<usize> {
    let count = (0..n).filter(|&i| pred(i)).count();
    if count == 0 {
        return None;
    }
    (0..n).filter(|&i| pred(i)).nth(salt as usize % count)
}

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros();
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i as usize)
    })
}

/// Most region slots or constructors an engine can have: one bit each
/// in a `u64` mask.
const MAX_MASK_SLOTS: usize = 64;

/// The preconstruction engine. See the module docs for the overall
/// flow; drive it with one [`PreconEngine::tick`] per processor
/// cycle plus the dispatch/retire/squash observation hooks.
///
/// Per-cycle bookkeeping touches only state that changed. Four `u64`
/// masks index the region slots (bit `i` is slot `i`): `live`, `work`
/// (live with a non-empty worklist), `in_flight` (live with a line
/// fetch pending) and `wants` (live with a parked constructor).
/// `next_land` is the earliest pending arrival. A constructor blocked
/// on a missing line is *parked* until that line lands in its region:
/// it does not poll its prefetch cache.
///
/// The engine calls its [`EngineProbe`] `P` at every start-point push
/// and every emitted trace; the default, [`NoProbe`], observes
/// nothing and costs nothing.
#[derive(Debug)]
pub struct PreconEngine<P: EngineProbe = NoProbe> {
    config: EngineConfig,
    stack: StartPointStack,
    regions: Vec<Region>,
    /// Start address of each live region slot (the catch-up check).
    starts: Vec<Addr>,
    /// Mask of every slot.
    all_slots: u64,
    live: u64,
    work: u64,
    in_flight: u64,
    wants: u64,
    /// Earliest `ready` over the in-flight fetches (`u64::MAX` when
    /// none).
    next_land: u64,
    constructors: Vec<TraceConstructor>,
    /// Region slot each constructor works for.
    assignment: Vec<Option<usize>>,
    /// The address each parked constructor is blocked on.
    parked: Vec<Option<Addr>>,
    /// Remaining fault-injected stall cycles per constructor.
    stalls: Vec<u32>,
    /// Mask of constructors with a stall counting down.
    stalled: u64,
    next_region_id: u64,
    stats: EngineStats,
    /// The probe observing this engine; the engine only calls its
    /// hooks.
    pub probe: P,
}

impl PreconEngine {
    /// Creates an engine that nobody observes. The engine does not
    /// own the trace storage: the preconstruction buffers (or the
    /// unified store's preconstruction ways) are passed into
    /// [`PreconEngine::tick`] by the processor, which probes them in
    /// parallel with its trace cache.
    ///
    /// # Panics
    ///
    /// Panics if `prefetch_caches` or `constructors` exceeds 64: the
    /// engine indexes both with one bit each in a `u64` mask.
    pub fn new(config: EngineConfig) -> Self {
        PreconEngine::with_probe(config, NoProbe)
    }
}

impl<P: EngineProbe> PreconEngine<P> {
    /// Creates an engine observed by `probe` (see
    /// [`PreconEngine::new`]).
    ///
    /// # Panics
    ///
    /// Panics as [`PreconEngine::new`] does.
    pub fn with_probe(config: EngineConfig, probe: P) -> Self {
        for (field, n) in [
            ("prefetch_caches", config.prefetch_caches),
            ("constructors", config.constructors),
        ] {
            assert!(
                n <= MAX_MASK_SLOTS,
                "engine {field} must be at most {MAX_MASK_SLOTS}, got {n}"
            );
        }
        PreconEngine {
            stack: StartPointStack::new(config.stack_depth.max(1), config.completed_entries),
            regions: (0..config.prefetch_caches)
                .map(|_| Region::new(&config))
                .collect(),
            starts: vec![Addr::ZERO; config.prefetch_caches],
            all_slots: u64::MAX
                .checked_shr((MAX_MASK_SLOTS - config.prefetch_caches) as u32)
                .unwrap_or(0),
            live: 0,
            work: 0,
            in_flight: 0,
            wants: 0,
            next_land: u64::MAX,
            constructors: (0..config.constructors)
                .map(|_| TraceConstructor::new(config.decision_depth))
                .collect(),
            assignment: vec![None; config.constructors],
            parked: vec![None; config.constructors],
            stalls: vec![0; config.constructors],
            stalled: 0,
            next_region_id: 1,
            stats: EngineStats::default(),
            probe,
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

    /// Read access to the region start-point stack (occupancy,
    /// counters) for diagnostics and invariant checking.
    pub fn start_stack(&self) -> &StartPointStack {
        &self.stack
    }

    /// Checks the engine's structural invariants:
    ///
    /// * the start stack within its configured 16 + 4 bound;
    /// * a constructor holds work exactly when it is assigned, and
    ///   every assignment points at a live region slot;
    /// * region worklists within their configured cap;
    /// * every mask bit equals its field predicate, and `next_land`
    ///   is the earliest pending arrival;
    /// * a parked constructor is building, and its line is not
    ///   resident in its region's prefetch cache.
    ///
    /// Called by the differential oracle after every simulation chunk.
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
        for (c, ctor) in self.constructors.iter().enumerate() {
            let assigned = self.assignment[c];
            if let Some(slot) = assigned {
                if slot >= self.regions.len() || self.live & 1 << slot == 0 {
                    return Err(format!(
                        "constructor {c} assigned to region slot {slot}, which is not live"
                    ));
                }
            }
            if assigned.is_some() == ctor.is_idle() {
                return Err(format!(
                    "constructor {c}: assigned {assigned:?} but idle {}",
                    ctor.is_idle()
                ));
            }
            if let Some(addr) = self.parked[c] {
                let resident = assigned.is_some_and(|s| self.regions[s].prefetch.contains(addr));
                if assigned.is_none() || !ctor.is_building() || resident {
                    return Err(format!(
                        "constructor {c} parked on {addr:?} while assigned {assigned:?}, \
                         building {}, line resident {resident}",
                        ctor.is_building()
                    ));
                }
            }
            if (self.stalled >> c & 1 == 1) != (self.stalls[c] > 0) {
                return Err(format!("constructor {c}: stall mask out of sync"));
            }
        }
        // A region's own start is queued whatever the cap.
        let worklist_cap = self.config.worklist_cap.max(1);
        for (i, region) in self.regions.iter().enumerate() {
            let live = self.live & 1 << i != 0;
            for (name, mask, holds) in [
                ("work", self.work, !region.worklist.is_empty()),
                ("in_flight", self.in_flight, region.pending.is_some()),
                ("wants", self.wants, self.wanted_line(i).is_some()),
            ] {
                if (mask & 1 << i != 0) != (live && holds) {
                    return Err(format!("region slot {i}: {name} mask bit out of sync"));
                }
            }
            if live && region.worklist.len() > worklist_cap {
                return Err(format!(
                    "region {} worklist holds {} entries, cap is {}",
                    region.id,
                    region.worklist.len(),
                    worklist_cap
                ));
            }
        }
        if self.live & !self.all_slots != 0 {
            return Err(format!("live mask {:#x} names absent slots", self.live));
        }
        if self.next_land != self.earliest_landing() {
            return Err(format!(
                "next_land {} but the earliest pending fetch lands at {}",
                self.next_land,
                self.earliest_landing()
            ));
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

    /// [`PreconEngine::observe_dispatch`] of every instruction of a
    /// dispatched trace, in order, the first numbered `first_seq`.
    #[inline]
    pub fn observe_dispatch_trace(&mut self, instrs: &[TraceInstr], first_seq: u64) {
        if self.config.enabled {
            for (seq, ti) in (first_seq..).zip(instrs) {
                self.observe_dispatch_enabled(ti.pc, &ti.op, seq);
            }
        }
    }

    /// [`PreconEngine::observe_dispatch`] of an enabled engine.
    #[inline]
    fn observe_dispatch_enabled(&mut self, pc: Addr, op: &Op, seq: u64) {
        let reason = match op.class() {
            OpClass::Call => Some(StartReason::CallReturn),
            OpClass::Branch if op.is_backward_branch(pc) => Some(StartReason::LoopExit),
            _ => None,
        };
        if let Some(reason) = reason {
            self.stats.start_points_observed += 1;
            self.probe.start_point(pc.next(), reason, seq);
            self.stack.push(pc.next(), reason, seq);
        }
        // Catch-up: the processor reached a region being explored.
        for i in bits(self.live) {
            if self.starts[i] == pc {
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

    /// [`PreconEngine::tick`] of an enabled engine. Each phase runs
    /// only when a mask says it has something to do.
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
        if !self.stack.is_empty() && self.live != self.all_slots {
            self.activate_regions();
        }
        if cycle >= self.next_land {
            self.land_pending_fetches(cycle);
        }
        if slow_path_idle && self.wants & !self.in_flight != 0 {
            for _ in 0..self.config.fetch_width {
                self.issue_line_fetch(cycle, icache);
            }
        }
        self.run_constructors(program, bimodal, store);
        self.complete_quiet_regions();
    }

    /// Whether a tick would change nothing: no start point to
    /// activate, no live region (so no constructor holds work), and
    /// no fault stall counting down.
    fn is_quiescent(&self) -> bool {
        self.stack.is_empty() && self.live == 0 && self.stalled == 0
    }

    /// Pops start points into free region slots.
    fn activate_regions(&mut self) {
        for slot in bits(self.all_slots & !self.live) {
            let Some(sp) = self.stack.pop() else { break };
            let region = &mut self.regions[slot];
            region.id = self.next_region_id;
            region.prefetch.clear();
            region.worklist.clear();
            region.seen.clear();
            region.pending = None;
            region.queue(sp.addr);
            self.starts[slot] = sp.addr;
            self.live |= 1 << slot;
            self.work |= 1 << slot;
            self.next_region_id += 1;
            self.stats.regions_started += 1;
        }
    }

    /// Moves arrived line fetches into their prefetch caches and
    /// wakes the constructors parked on them.
    fn land_pending_fetches(&mut self, cycle: u64) {
        for i in bits(self.in_flight) {
            let region = &mut self.regions[i];
            let (addr, ready) = region.pending.expect("in-flight bit set");
            if cycle < ready {
                continue;
            }
            region.pending = None;
            self.in_flight &= !(1 << i);
            if region.prefetch.insert_line(addr) {
                self.unpark_line(i, addr);
            } else {
                self.retire_region(i, RegionEnd::FetchBound);
            }
        }
        self.next_land = self.earliest_landing();
    }

    /// The earliest arrival cycle over the in-flight fetches.
    fn earliest_landing(&self) -> u64 {
        bits(self.in_flight)
            .filter_map(|i| self.regions[i].pending.map(|(_, ready)| ready))
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Issues at most one I-cache line fetch: the wanted line of the
    /// newest region with no fetch in flight.
    fn issue_line_fetch(&mut self, cycle: u64, icache: &mut InstrCache) {
        let Some(slot) = self.newest(self.wants & !self.in_flight) else {
            return;
        };
        let addr = self.wanted_line(slot).expect("wants bit set");
        let region = &mut self.regions[slot];
        debug_assert!(
            region.pending.is_none() && !region.prefetch.contains(addr),
            "line of {addr:?} fetched while resident or in flight"
        );
        let line_base = InstrCache::line_base(addr);
        let res = icache.fetch(line_base, AccessKind::Precon);
        let ready = cycle + res.latency as u64;
        region.pending = Some((line_base, ready));
        self.in_flight |= 1 << slot;
        self.next_land = self.next_land.min(ready);
        self.stats.lines_fetched += 1;
    }

    /// The line region `slot` wants fetched, consulted only while
    /// nothing is in flight to it: the line of its highest-numbered
    /// parked constructor, which a polling engine's last blocked poll
    /// names too. A parked constructor's line is never resident.
    fn wanted_line(&self, slot: usize) -> Option<Addr> {
        (0..self.parked.len())
            .rev()
            .find_map(|c| self.parked[c].filter(|_| self.assignment[c] == Some(slot)))
    }

    /// The newest (highest-id) region among the slots in `mask`.
    fn newest(&self, mask: u64) -> Option<usize> {
        bits(mask).max_by_key(|&i| self.regions[i].id)
    }

    /// Runs every constructor for up to `decode_width` instructions.
    ///
    /// A parked constructor does not poll: its line is still missing,
    /// so a poll would return the same `NeedLine`. At its turn it only
    /// checks what that poll could find, a prefetch cache filled by
    /// other lines, which ends the region as fetch bound.
    fn run_constructors(
        &mut self,
        program: &Program,
        bimodal: &Bimodal,
        store: &mut dyn TraceStore,
    ) {
        for c in 0..self.constructors.len() {
            if self.stalled & 1 << c != 0 {
                self.stalls[c] -= 1;
                if self.stalls[c] == 0 {
                    self.stalled &= !(1 << c);
                }
                continue;
            }
            if self.parked[c].is_some() {
                let slot = self.assignment[c].expect("parked constructors are assigned");
                if self.regions[slot].prefetch.is_full() {
                    self.retire_region(slot, RegionEnd::FetchBound);
                }
                continue;
            }
            let mut budget = self.config.decode_width;
            while budget > 0 {
                // (Re)assign idle constructors to the newest region
                // with pending work.
                if self.constructors[c].is_idle() && !self.assign_work(c) {
                    break;
                }
                let slot = self.assignment[c].expect("a busy constructor is assigned");
                let region = &mut self.regions[slot];
                match self.constructors[c].run(&mut budget, program, &region.prefetch, bimodal) {
                    Step::BudgetSpent => {}
                    Step::NeedLine(addr) => {
                        if region.prefetch.is_full() {
                            self.retire_region(slot, RegionEnd::FetchBound);
                        } else {
                            self.parked[c] = Some(addr);
                            self.wants |= 1 << slot;
                        }
                        break;
                    }
                    Step::TraceDone => self.file_trace(c, slot, program, store),
                    Step::Idle => {
                        self.assignment[c] = None;
                    }
                }
            }
        }
    }

    /// Wakes the constructors of region `slot` parked on the line at
    /// `line_base`.
    fn unpark_line(&mut self, slot: usize, line_base: Addr) {
        for (p, a) in self.parked.iter_mut().zip(&self.assignment) {
            if *a == Some(slot) && p.is_some_and(|addr| InstrCache::line_base(addr) == line_base) {
                *p = None;
            }
        }
        if self.wanted_line(slot).is_none() {
            self.wants &= !(1 << slot);
        }
    }

    /// Handles the trace constructor `ctor` completed: queue its
    /// successor, file it with the store, show it to the probe,
    /// resume alternatives. The trace stays in the constructor's
    /// builder; the store builds it only when it takes it as a new
    /// entry (see [`TraceStore::file_precon`]). Traces are filed
    /// unannotated; the store preprocesses them at first use (see
    /// [`crate::storage::SplitStore::preprocess_at_first_use`]).
    fn file_trace(
        &mut self,
        ctor: usize,
        slot: usize,
        program: &Program,
        store: &mut dyn TraceStore,
    ) {
        let done = self.constructors[ctor]
            .completed()
            .expect("filed after Step::TraceDone");
        self.stats.traces_built += 1;
        debug_assert!(
            done.validate_against(program).is_ok(),
            "constructed trace diverges from static code: {:?}",
            done.validate_against(program)
        );
        let region = &mut self.regions[slot];
        let region_id = region.id;
        if let Some(succ) = done.successor() {
            if region.seen.binary_search(&succ).is_err() {
                if region.worklist.len() < self.config.worklist_cap {
                    region.queue(succ);
                    self.work |= 1 << slot;
                } else {
                    self.stats.successors_dropped += 1;
                }
            }
        }
        let filed = store.file_precon(done, region_id);
        self.probe.trace_emitted(done, filed);
        match filed {
            Filed::AlreadyCached => self.stats.traces_already_cached += 1,
            Filed::NewEntry | Filed::Retagged => {}
            Filed::Rejected => {
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
        let Some(slot) = self.newest(self.work) else {
            return false;
        };
        let region = &mut self.regions[slot];
        let start = region.worklist.pop_front().expect("work bit set");
        if region.worklist.is_empty() {
            self.work &= !(1 << slot);
        }
        self.constructors[ctor].start(start);
        self.assignment[ctor] = Some(slot);
        true
    }

    /// Frees regions with no remaining work: no worklist, no fetch in
    /// flight or wanted, and no busy constructor.
    fn complete_quiet_regions(&mut self) {
        let quiet = self.live & !(self.work | self.in_flight | self.wants);
        if quiet == 0 {
            return;
        }
        let busy = self
            .assignment
            .iter()
            .flatten()
            .fold(0u64, |m, &slot| m | 1 << slot);
        for i in bits(quiet & !busy) {
            self.retire_region(i, RegionEnd::Completed);
        }
    }

    /// Applies one injected engine fault. Returns whether the fault
    /// landed on live state (a fault drawn against an idle engine is
    /// a no-op and counts as not landed).
    ///
    /// Every perturbation stays inside the engine's structural
    /// invariants: a dropped fill's line is wanted again by the
    /// constructors parked on it, so the fetch is simply re-issued, a
    /// killed constructor aborts through the same path a caught-up
    /// region uses, and stack pops/squashes only discard hint
    /// entries — none of this can reach architectural state, which is
    /// the property the differential oracle checks end to end.
    pub fn apply_fault(&mut self, fault: EngineFault) -> bool {
        if !self.config.enabled {
            return false;
        }
        match fault {
            EngineFault::DropPrefetchFill { salt } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                self.regions[slot].pending = None;
                self.in_flight &= !(1 << slot);
                self.next_land = self.earliest_landing();
                true
            }
            EngineFault::DelayPrefetchFill { salt, extra } => {
                let Some(slot) = self.pick_pending_region(salt) else {
                    return false;
                };
                let (_, ready) = self.regions[slot].pending.as_mut().expect("picked pending");
                *ready += extra;
                self.next_land = self.earliest_landing();
                true
            }
            EngineFault::StallConstructor { salt, cycles } => {
                let Some(c) = self.pick_busy_constructor(salt) else {
                    return false;
                };
                self.stalls[c] = self.stalls[c].max(cycles);
                if self.stalls[c] > 0 {
                    self.stalled |= 1 << c;
                }
                true
            }
            EngineFault::KillConstructor { salt } => {
                let Some(c) = self.pick_busy_constructor(salt) else {
                    return false;
                };
                self.constructors[c].abort();
                let slot = self.assignment[c]
                    .take()
                    .expect("busy constructors are assigned");
                self.parked[c] = None;
                if self.wanted_line(slot).is_none() {
                    self.wants &= !(1 << slot);
                }
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
        let count = self.in_flight.count_ones() as usize;
        if count == 0 {
            return None;
        }
        bits(self.in_flight).nth(salt as usize % count)
    }

    /// Salt-chosen constructor that is currently mid-trace.
    fn pick_busy_constructor(&self, salt: u64) -> Option<usize> {
        salt_pick(self.constructors.len(), salt, |c| {
            !self.constructors[c].is_idle()
        })
    }

    fn retire_region(&mut self, slot: usize, end: RegionEnd) {
        let bit = 1 << slot;
        debug_assert!(self.live & bit != 0, "retiring a free region slot");
        let landing = self.in_flight & bit != 0;
        self.live &= !bit;
        self.work &= !bit;
        self.in_flight &= !bit;
        self.wants &= !bit;
        if landing {
            self.next_land = self.earliest_landing();
        }
        match end {
            RegionEnd::Completed => self.stats.regions_completed += 1,
            RegionEnd::CaughtUp => self.stats.regions_caught_up += 1,
            RegionEnd::FetchBound => self.stats.regions_fetch_bound += 1,
            RegionEnd::BufferBound => self.stats.regions_buffer_bound += 1,
        }
        self.stack.mark_completed(self.starts[slot]);
        for c in 0..self.constructors.len() {
            if self.assignment[c] == Some(slot) {
                self.constructors[c].abort();
                self.assignment[c] = None;
                self.parked[c] = None;
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
    use tpc_predict::TraceKey;

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
    #[should_panic(expected = "engine prefetch_caches must be at most 64, got 65")]
    fn more_regions_than_mask_bits_are_rejected() {
        PreconEngine::new(EngineConfig {
            prefetch_caches: 65,
            ..EngineConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "engine constructors must be at most 64, got 65")]
    fn more_constructors_than_mask_bits_are_rejected() {
        PreconEngine::new(EngineConfig {
            constructors: 65,
            ..EngineConfig::default()
        });
    }

    #[test]
    fn sixty_four_regions_and_constructors_are_accepted() {
        let p = call_program();
        let mut e = PreconEngine::new(EngineConfig {
            prefetch_caches: 64,
            constructors: 64,
            ..EngineConfig::default()
        });
        e.observe_dispatch(Addr::new(0), p.fetch(Addr::new(0)).unwrap(), 1);
        drive(&mut e, &p, 200);
        assert!(e.stats().traces_built >= 1);
        assert!(e.check_invariants().is_ok());
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
            // Hammer the drop fault every cycle for a while: a
            // dropped line is still wanted by the constructors parked
            // on it, so fetches are re-issued and progress is
            // delayed, never lost.
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
