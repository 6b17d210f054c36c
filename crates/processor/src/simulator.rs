//! The full-processor simulator: frontend, backend, preconstruction.

use crate::backend::{Backend, BackendConfig};
use crate::stream::{DynTrace, TraceStream, TraceVec};
use std::collections::VecDeque;
use tpc_core::storage::{SplitStore, StoreCounters, TraceStore, UnifiedConfig, UnifiedStore};
use tpc_core::{
    preprocess, EngineConfig, EngineFault, EngineProbe, EngineStats, FaultKind, FaultPlan,
    FaultState, FaultStats, NoProbe, PreconEngine, Trace,
};
use tpc_exec::{Executor, Frontend};
use tpc_isa::{Addr, OpClass, Program};
use tpc_mem::{AccessKind, DataCacheStats, IcacheStats, InstrCache, InstrCacheConfig};
use tpc_predict::{Bimodal, NextTracePredictor, NtpConfig, ReturnAddressStack};

/// How trace storage is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// The paper's organization: separate trace cache and
    /// preconstruction buffers (sized by `trace_cache_entries` and
    /// `engine.buffer_entries`).
    #[default]
    Split,
    /// The dynamically partitioned unified store the paper suggests
    /// as future work (`trace_cache_entries` + `engine.buffer_entries`
    /// pooled into one 4-way array).
    Unified {
        /// Ways (of 4) initially assigned to preconstruction.
        initial_pb_ways: u8,
        /// Re-partition epoch in fetches (0 = fixed).
        epoch_fetches: u64,
    },
}

/// Full simulator configuration: the values the experiments vary.
/// Defaults are the paper's Section 4 machine with a 256-entry trace
/// cache and preconstruction enabled. The rest of that machine is
/// fixed: the next-trace predictor's [`NtpConfig::default`], a
/// 64-entry return-address stack and a 5-cycle misprediction penalty
/// (constants beside [`Simulator`]), the backend's issue and port
/// limits (`crate::backend`), and the engine's constants
/// (`tpc_core::engine`).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Trace cache entries (2-way set-associative).
    pub trace_cache_entries: u32,
    /// Trace storage organization.
    pub storage: StorageKind,
    /// Preconstruction engine configuration (including buffer size).
    pub engine: EngineConfig,
    /// Preprocess traces (extended pipeline model, Section 6): a
    /// slow-path trace when it fills the trace cache, a
    /// preconstructed trace when it is first fetched (see
    /// [`SplitStore::preprocess_at_first_use`]).
    pub preprocess: bool,
    /// Instruction cache configuration.
    pub icache: InstrCacheConfig,
    /// Bimodal predictor entries.
    pub bimodal_entries: usize,
    /// Backend configuration.
    pub backend: BackendConfig,
    /// Deterministic fault-injection plan perturbing the
    /// preconstruction mechanisms (`None` disables injection). Faults
    /// may move performance counters but never the retirement stream
    /// — the differential oracle checks this for arbitrary plans.
    pub faults: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace_cache_entries: 256,
            storage: StorageKind::Split,
            engine: EngineConfig::default(),
            preprocess: false,
            icache: InstrCacheConfig::default(),
            bimodal_entries: 4096,
            backend: BackendConfig::default(),
            faults: None,
        }
    }
}

impl SimConfig {
    /// The no-preconstruction baseline with `tc_entries` trace-cache
    /// entries.
    pub fn baseline(tc_entries: u32) -> Self {
        SimConfig {
            trace_cache_entries: tc_entries,
            engine: EngineConfig::disabled(),
            ..SimConfig::default()
        }
    }

    /// A preconstruction configuration: `tc_entries` trace cache plus
    /// `pb_entries` preconstruction buffer.
    pub fn with_precon(tc_entries: u32, pb_entries: u32) -> Self {
        SimConfig {
            trace_cache_entries: tc_entries,
            engine: EngineConfig {
                enabled: pb_entries > 0,
                buffer_entries: pb_entries,
                ..EngineConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// Enables trace preprocessing, both on the slow-path fill and
    /// for preconstructed traces at their first fetch.
    pub fn with_preprocess(mut self) -> Self {
        self.preprocess = true;
        self
    }

    /// Attaches a deterministic fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pools the trace cache and preconstruction buffer into one
    /// dynamically partitioned 4-way store (paper Section 5.1's
    /// future-work design; see `tpc_core::storage::UnifiedStore`).
    pub fn unified(total_entries: u32, initial_pb_ways: u8, epoch_fetches: u64) -> Self {
        SimConfig {
            trace_cache_entries: total_entries,
            storage: StorageKind::Unified {
                initial_pb_ways,
                epoch_fetches,
            },
            engine: EngineConfig {
                enabled: true,
                buffer_entries: 0,
                ..EngineConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

/// Counters and component statistics captured by
/// [`Simulator::stats`].
///
/// Every field is an exact integer counter, so two runs can be
/// compared for bit-identity with `==` (the parallel sweep executor's
/// determinism tests rely on this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Traces retired.
    pub retired_traces: u64,
    /// Trace fetch requests (one per dispatched trace).
    pub trace_fetches: u64,
    /// Fetches satisfied by the trace cache.
    pub trace_cache_hits: u64,
    /// Fetches satisfied by the preconstruction buffers (copied into
    /// the trace cache on use).
    pub precon_buffer_hits: u64,
    /// Fetches that missed both structures and took the slow path.
    pub trace_cache_misses: u64,
    /// Instructions supplied by the slow path (the I-cache).
    pub slow_path_instructions: u64,
    /// Slow-path instructions supplied from lines that missed in the
    /// I-cache.
    pub slow_path_miss_instructions: u64,
    /// I-cache lines fetched by the slow path: the only count of
    /// these fetches (the I-cache counts only their misses).
    pub slow_path_lines: u64,
    /// Next-trace-predictor mispredictions (including cold misses).
    pub ntp_mispredicts: u64,
    /// Slow-path stalls charged for bimodal/RAS/indirect
    /// mispredictions during trace building.
    pub slow_path_predict_stalls: u64,
    /// Instruction-cache counters.
    pub icache: IcacheStats,
    /// Preconstruction-engine counters.
    pub engine: EngineStats,
    /// Trace-storage counters (trace cache + preconstruction side).
    pub store: StoreCounters,
    /// Frontend cycle attribution.
    pub frontend: FrontendBreakdown,
    /// Data-cache counters.
    pub dcache: DataCacheStats,
    /// Fault-injection counters (all zero when no plan is attached).
    pub faults: FaultStats,
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.cycles as f64
        }
    }

    /// Trace-cache misses per 1000 retired instructions (the paper's
    /// Figure 5 metric).
    pub fn tc_misses_per_kilo(&self) -> f64 {
        per_kilo(self.trace_cache_misses, self.retired_instructions)
    }

    /// Instructions supplied by the I-cache per 1000 instructions
    /// (Table 1).
    pub fn icache_supplied_per_kilo(&self) -> f64 {
        per_kilo(self.slow_path_instructions, self.retired_instructions)
    }

    /// I-cache misses (demand + preconstruction) per 1000
    /// instructions (Table 2).
    pub fn icache_misses_per_kilo(&self) -> f64 {
        per_kilo(self.icache.total_misses(), self.retired_instructions)
    }

    /// Instructions supplied from I-cache misses per 1000
    /// instructions (Table 3).
    pub fn miss_supplied_per_kilo(&self) -> f64 {
        per_kilo(self.slow_path_miss_instructions, self.retired_instructions)
    }

    /// Speedup of `self` over `base` on equal instruction counts.
    pub fn speedup_over(&self, base: &SimStats) -> f64 {
        self.ipc() / base.ipc()
    }

    /// Trace-cache hit fraction of all trace fetches, in 1/1000ths.
    pub fn tc_hit_permille(&self) -> u64 {
        ((self.trace_cache_hits + self.precon_buffer_hits) * 1000)
            .checked_div(self.trace_fetches)
            .unwrap_or(0)
    }

    /// Number of `u64` words in the [`SimStats::to_words`] encoding.
    pub const WORDS: usize = 52;

    /// Visits every counter in checkpoint-word order: the scalars,
    /// then the I-cache, engine, store, frontend, D-cache and fault
    /// counters. Each nested visitor destructures its struct
    /// exhaustively, so a counter added anywhere without a place in
    /// the encoding is a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let SimStats {
            cycles,
            retired_instructions,
            retired_traces,
            trace_fetches,
            trace_cache_hits,
            precon_buffer_hits,
            trace_cache_misses,
            slow_path_instructions,
            slow_path_miss_instructions,
            slow_path_lines,
            ntp_mispredicts,
            slow_path_predict_stalls,
            icache,
            engine,
            store,
            frontend,
            dcache,
            faults,
        } = self;
        for w in [
            cycles,
            retired_instructions,
            retired_traces,
            trace_fetches,
            trace_cache_hits,
            precon_buffer_hits,
            trace_cache_misses,
            slow_path_instructions,
            slow_path_miss_instructions,
            slow_path_lines,
            ntp_mispredicts,
            slow_path_predict_stalls,
        ] {
            f(w);
        }
        icache.visit_words(f);
        engine.visit_words(f);
        store.visit_words(f);
        frontend.visit_words(f);
        dcache.visit_words(f);
        faults.visit_words(f);
    }

    /// Encodes every counter as a fixed-order `u64` vector — the
    /// sweep checkpoint format. All fields are exact integers, so
    /// `from_words(&to_words())` round-trips bit-identically with no
    /// serialization dependency.
    pub fn to_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(Self::WORDS);
        self.clone().visit_words(&mut |x| w.push(*x));
        debug_assert_eq!(w.len(), Self::WORDS);
        w
    }

    /// The counts between two snapshots of one run, `after` minus
    /// `before` word by word: every word only grows, so this is what
    /// counters zeroed at `before` would read at `after`.
    ///
    /// # Panics
    ///
    /// Panics if a word of `before` exceeds the same word of `after`.
    pub fn delta(after: &SimStats, before: &SimStats) -> SimStats {
        let mut window = after.clone();
        let mut before = before.to_words().into_iter();
        window.visit_words(&mut |w| {
            *w = w
                .checked_sub(before.next().expect("WORDS words each"))
                .expect("`before` is an earlier snapshot of the same run");
        });
        window
    }

    /// Decodes a [`SimStats::to_words`] vector; `None` on length
    /// mismatch (a truncated or foreign checkpoint line).
    pub fn from_words(words: &[u64]) -> Option<SimStats> {
        if words.len() != Self::WORDS {
            return None;
        }
        let mut s = SimStats::default();
        let mut it = words.iter();
        s.visit_words(&mut |x| *x = *it.next().expect("length checked"));
        Some(s)
    }
}

/// Error from [`Simulator::run_budgeted`]: the cycle watchdog fired
/// before the instruction target was reached (a wedged or
/// pathologically slow configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Absolute cycle count when the watchdog fired.
    pub cycles: u64,
    /// Instructions retired by then (cumulative).
    pub retired: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle budget exceeded: {} cycles simulated, {} instructions retired",
            self.cycles, self.retired
        )
    }
}

impl std::error::Error for BudgetExceeded {}

fn per_kilo(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instructions as f64
    }
}

/// Per-cycle frontend activity accounting: what the fetch stage was
/// doing each cycle. Summing the fields reproduces the cycle count,
/// so the breakdown attributes *all* time (the classic CPI-stack
/// view of why IPC is lost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendBreakdown {
    /// Cycles a trace was supplied by the trace cache or the
    /// preconstruction buffers, one per hit. A slow-path trace
    /// dispatches in the last of its `slow_build` cycles.
    pub dispatched: u64,
    /// Cycles spent inside slow-path builds (I-cache fetch, miss
    /// latency, prediction-repair stalls).
    pub slow_build: u64,
    /// Cycles the frontend waited out a next-trace-predictor
    /// misprediction (previous trace's branches resolving plus the
    /// redirect penalty).
    pub mispredict_stall: u64,
    /// Cycles no processing element was free to accept a dispatch.
    pub backpressure: u64,
}

impl FrontendBreakdown {
    /// Total cycles accounted.
    pub fn total(&self) -> u64 {
        self.dispatched + self.slow_build + self.mispredict_stall + self.backpressure
    }

    /// Visits every counter in checkpoint-word order. The exhaustive
    /// destructuring makes an unvisited new field a compile error.
    pub fn visit_words(&mut self, f: &mut impl FnMut(&mut u64)) {
        let FrontendBreakdown {
            dispatched,
            slow_build,
            mispredict_stall,
            backpressure,
        } = self;
        for w in [dispatched, slow_build, mispredict_stall, backpressure] {
            f(w);
        }
    }

    /// Each component as a fraction of the total, in 1/1000ths:
    /// (dispatched, slow build, mispredict, backpressure).
    pub fn permille(&self) -> (u64, u64, u64, u64) {
        let t = self.total().max(1);
        (
            self.dispatched * 1000 / t,
            self.slow_build * 1000 / t,
            self.mispredict_stall * 1000 / t,
            self.backpressure * 1000 / t,
        )
    }
}

/// A slow-path trace build in progress.
#[derive(Debug)]
struct SlowBuild {
    dt: DynTrace,
    /// (line base, instructions in this trace on the line), in fetch
    /// order.
    lines: TraceVec<(Addr, u32)>,
    /// Index of the next line to fetch.
    next_line: usize,
    /// Cycle the current line fetch completes.
    busy_until: u64,
    /// Extra stall cycles charged at the end (prediction repairs).
    tail_stall: u64,
}

/// Where a dispatched trace was supplied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SupplySource {
    /// Trace-cache hit.
    TraceCache,
    /// Preconstruction-side hit (promoted on use).
    PreconBuffer,
    /// Built by the slow path.
    SlowPath,
}

/// One pipeline event, as [`Probe::event`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A trace was dispatched to a processing element.
    Dispatch {
        /// Cycle of dispatch.
        cycle: u64,
        /// Trace start address.
        start: Addr,
        /// Instructions in the trace.
        len: u8,
        /// Processing element.
        pe: u8,
        /// Supplier.
        source: SupplySource,
    },
    /// A slow-path build started (trace-cache miss).
    SlowBuildBegin {
        /// Cycle the build started.
        cycle: u64,
        /// Start address of the missing trace.
        start: Addr,
    },
    /// The frontend began waiting out a trace-level misprediction.
    MispredictStall {
        /// Cycle the stall began.
        cycle: u64,
        /// Cycle fetch resumes.
        until: u64,
    },
    /// The oldest trace retired.
    Retire {
        /// Cycle of retirement.
        cycle: u64,
        /// Trace start address.
        start: Addr,
    },
}

/// What the fetch stage did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontendActivity {
    Dispatched,
    SlowBuild,
    MispredictStall,
    Backpressure,
}

/// Hooks through which a run is observed (see
/// [`Simulator::with_probe`]): the pipeline events and every retired
/// instruction, plus the preconstruction engine's [`EngineProbe`]
/// hooks, all on one value. Every hook defaults to doing nothing, and
/// [`NoProbe`] compiles to nothing. The model never reads a probe, so
/// observing a run cannot change its results.
pub trait Probe: EngineProbe {
    /// A pipeline event happened; events arrive in cycle order.
    #[inline]
    fn event(&mut self, _event: SimEvent) {}

    /// The instruction at `pc` retired, and if it is a branch, went
    /// the way `taken` says: the architectural identity the
    /// differential oracle compares. Instructions arrive in program
    /// order.
    #[inline]
    fn retired(&mut self, _pc: Addr, _taken: bool) {}
}

impl Probe for NoProbe {}

/// A dispatched trace awaiting retirement.
#[derive(Debug)]
struct Inflight {
    /// The dispatched trace (shares the stream's instruction
    /// storage); its key's outcome bits are the resolved branch
    /// directions.
    trace: Trace,
    /// Processing element the trace runs on.
    pe: usize,
    /// Cycle its last instruction finishes executing.
    complete: u64,
}

/// Return-address-stack depth.
const RAS_DEPTH: usize = 64;

/// Frontend redirect penalty, in cycles, after a resolved
/// misprediction.
const MISPREDICT_PENALTY: u64 = 5;

/// The simulator, generic over the instruction [`Frontend`] and the
/// [`Probe`] that observes it (both statically dispatched). Create
/// with [`Simulator::new`] for the synthetic executor frontend,
/// [`Simulator::with_frontend`] for any other, or
/// [`Simulator::with_probe`] to observe the run; drive with
/// [`Simulator::run`], read results with [`Simulator::stats`].
#[derive(Debug)]
pub struct Simulator<F: Frontend, P: Probe = NoProbe> {
    config: SimConfig,
    stream: TraceStream<F>,
    store: Box<dyn TraceStore>,
    /// The preconstruction engine, which also holds the probe.
    engine: PreconEngine<P>,
    ntp: NextTracePredictor,
    bimodal: Bimodal,
    ras: ReturnAddressStack,
    icache: InstrCache,
    backend: Backend,
    inflight: VecDeque<Inflight>,
    slow_build: Option<SlowBuild>,
    /// The next trace to fetch, once predicted/stalled.
    pending: Option<DynTrace>,
    /// NTP consulted for `pending` already.
    pending_predicted: bool,
    /// Earliest cycle the frontend may fetch again.
    stall_until: u64,
    /// Resolution cycle of the most recently dispatched trace.
    prev_resolve: u64,
    cycle: u64,
    last_retire_cycle: u64,
    seq: u64,
    /// Fault-injection runtime state (`None` when no plan attached).
    faults: Option<FaultState>,
    stats: SimStats,
}

impl<'a> Simulator<Executor<'a>> {
    /// Creates a simulator over `program`, executed by the
    /// architectural [`Executor`] (the `"synthetic"` frontend).
    pub fn new(program: &'a Program, config: SimConfig) -> Self {
        Simulator::with_frontend(Executor::new(program), config)
    }
}

impl<F: Frontend> Simulator<F> {
    /// Creates a simulator over any freshly instantiated
    /// [`Frontend`].
    pub fn with_frontend(frontend: F, config: SimConfig) -> Self {
        Simulator::with_probe(frontend, config, NoProbe)
    }
}

impl<F: Frontend, P: Probe> Simulator<F, P> {
    /// Creates a simulator over `frontend` observed by `probe`.
    pub fn with_probe(frontend: F, config: SimConfig, probe: P) -> Self {
        // Preconstructed traces are preprocessed at first use, by the
        // store.
        let store: Box<dyn TraceStore> = match config.storage {
            StorageKind::Split => Box::new(
                SplitStore::new(
                    config.trace_cache_entries,
                    if config.engine.enabled {
                        config.engine.buffer_entries
                    } else {
                        0
                    },
                )
                .preprocess_at_first_use(config.preprocess),
            ),
            StorageKind::Unified {
                initial_pb_ways,
                epoch_fetches,
            } => Box::new(
                UnifiedStore::new(UnifiedConfig {
                    entries: config.trace_cache_entries + config.engine.buffer_entries,
                    initial_pb_ways,
                    epoch_fetches,
                })
                .preprocess_at_first_use(config.preprocess),
            ),
        };
        Simulator {
            stream: TraceStream::over(frontend),
            store,
            engine: PreconEngine::with_probe(config.engine, probe),
            ntp: NextTracePredictor::new(NtpConfig::default()),
            bimodal: Bimodal::new(config.bimodal_entries),
            ras: ReturnAddressStack::new(RAS_DEPTH),
            icache: InstrCache::new(config.icache),
            backend: Backend::new(config.backend),
            inflight: VecDeque::new(),
            slow_build: None,
            pending: None,
            pending_predicted: false,
            stall_until: 0,
            prev_resolve: 0,
            cycle: 0,
            last_retire_cycle: 0,
            seq: 0,
            faults: config.faults.map(FaultState::new),
            stats: SimStats::default(),
            config,
        }
    }

    /// The frontend-kind identifier (see [`Frontend::id`]).
    pub fn frontend_id(&self) -> &'static str {
        self.stream.frontend_id()
    }

    /// The probe observing this run.
    pub fn probe(&self) -> &P {
        &self.engine.probe
    }

    /// The probe observing this run, mutably (to drain what it
    /// recorded).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.engine.probe
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Checks the simulator-wide invariants the differential oracle
    /// enforces after every chunk, exact because counters never
    /// reset:
    ///
    /// * fetch conservation: every fetch hit one side or missed;
    /// * every hit dispatched in a cycle of its own;
    /// * every built trace was filed, already cached, or ended its
    ///   region with a rejected fill;
    /// * no trace retired unfetched, and no fault kind landed more
    ///   often than it was injected;
    /// * the storage and engine structural invariants (occupancy ≤
    ///   capacity, start stack within its 16+4 bound).
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = self.stats();
        let hits = s.trace_cache_hits + s.precon_buffer_hits;
        if s.trace_fetches != hits + s.trace_cache_misses {
            return Err(format!(
                "fetch conservation violated: {} fetches != {} tc hits + {} pb hits + {} misses",
                s.trace_fetches, s.trace_cache_hits, s.precon_buffer_hits, s.trace_cache_misses
            ));
        }
        if s.frontend.dispatched != hits {
            return Err(format!(
                "{} dispatch cycles != {hits} trace-cache and buffer hits",
                s.frontend.dispatched
            ));
        }
        let e = &s.engine;
        if s.store.precon_fills + e.traces_already_cached + e.regions_buffer_bound != e.traces_built
        {
            return Err(format!(
                "{} traces built != {} filed + {} already cached + {} rejected",
                e.traces_built,
                s.store.precon_fills,
                e.traces_already_cached,
                e.regions_buffer_bound
            ));
        }
        if s.retired_traces > s.trace_fetches {
            return Err(format!(
                "retired {} traces but only fetched {}",
                s.retired_traces, s.trace_fetches
            ));
        }
        for kind in FaultKind::ALL {
            let (injected, landed) = (
                s.faults.injected_by_kind[kind as usize],
                s.faults.landed_by_kind[kind as usize],
            );
            if landed > injected {
                return Err(format!(
                    "{} faults landed {landed} times of {injected} injected",
                    kind.name()
                ));
            }
        }
        self.store.check_invariants()?;
        self.engine.check_invariants()?;
        Ok(())
    }

    /// Runs until at least `instructions` have retired; returns a
    /// snapshot of the statistics.
    pub fn run(&mut self, instructions: u64) -> SimStats {
        self.run_budgeted(instructions, u64::MAX)
            .expect("an unbounded cycle budget never runs out")
    }

    /// Runs `warmup` instructions, then runs and measures `measure`
    /// instructions — the standard way to exclude cold-start
    /// transients. Returns the [`SimStats::delta`] of the snapshots
    /// after each phase.
    pub fn run_with_warmup(&mut self, warmup: u64, measure: u64) -> SimStats {
        self.run_with_warmup_budgeted(warmup, measure, u64::MAX)
            .expect("an unbounded cycle budget never runs out")
    }

    /// [`Simulator::run_with_warmup`] under the cycle watchdog of
    /// [`Simulator::run_budgeted`]: `max_cycles` caps the absolute
    /// cycle count across both phases.
    pub fn run_with_warmup_budgeted(
        &mut self,
        warmup: u64,
        measure: u64,
        max_cycles: u64,
    ) -> Result<SimStats, BudgetExceeded> {
        let warm = self.run_budgeted(warmup, max_cycles)?;
        let after = self.run_budgeted(measure, max_cycles)?;
        Ok(SimStats::delta(&after, &warm))
    }

    /// Like [`Simulator::run`], but gives up once the *absolute*
    /// cycle count (across all prior `run`/`run_budgeted` calls on
    /// this simulator) exceeds `max_cycles` — the sweep executor's
    /// per-cell watchdog against wedged or pathologically slow
    /// configurations.
    pub fn run_budgeted(
        &mut self,
        instructions: u64,
        max_cycles: u64,
    ) -> Result<SimStats, BudgetExceeded> {
        let target = self.stats.retired_instructions + instructions;
        while self.stats.retired_instructions < target {
            if self.cycle >= max_cycles {
                return Err(BudgetExceeded {
                    cycles: self.cycle,
                    retired: self.stats.retired_instructions,
                });
            }
            self.step();
        }
        Ok(self.stats())
    }

    /// Snapshot of every counter since construction; counters never
    /// reset, so a window is the [`SimStats::delta`] of two snapshots.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.icache = *self.icache.stats();
        s.engine = *self.engine.stats();
        s.store = self.store.counters();
        s.dcache = *self.backend.dcache_stats();
        if let Some(fs) = &self.faults {
            s.faults = *fs.stats();
        }
        s
    }

    /// Advances one cycle.
    // `step` and the per-cycle fns it calls warn on truncating casts:
    // each one left says in an `#[expect]` why its value fits.
    #[warn(clippy::cast_possible_truncation)]
    pub fn step(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.apply_faults();
        self.retire_stage();
        let activity = self.fetch_stage();
        let fb = &mut self.stats.frontend;
        match activity {
            FrontendActivity::Dispatched => fb.dispatched += 1,
            FrontendActivity::SlowBuild => fb.slow_build += 1,
            FrontendActivity::MispredictStall => fb.mispredict_stall += 1,
            FrontendActivity::Backpressure => fb.backpressure += 1,
        }
        let slow_busy = activity == FrontendActivity::SlowBuild;
        self.engine.tick(
            self.cycle,
            !slow_busy,
            self.stream.code(),
            &mut self.icache,
            &self.bimodal,
            &mut *self.store,
        );
    }

    /// Draws and injects this cycle's scheduled faults (no-op without
    /// a plan). Runs at the top of the cycle, before retire and
    /// fetch, so a perturbation is visible to everything downstream
    /// in the same cycle. Every target is preconstruction *hint*
    /// state — bimodal counters, prefetch fills, constructors,
    /// preconstruction-buffer entries, the start stack — so injection
    /// can move timing and hit rates but never the retirement stream.
    #[warn(clippy::cast_possible_truncation)]
    fn apply_faults(&mut self) {
        let events = match self.faults.as_mut() {
            Some(fs) => fs.draw(),
            None => return,
        };
        for ev in events {
            let landed = match ev.kind {
                FaultKind::FlipBimodalBit => {
                    #[expect(
                        clippy::cast_possible_truncation,
                        reason = "flip_bit masks the entry to the table size, so high bits never matter"
                    )]
                    self.bimodal.flip_bit(ev.a as usize, (ev.b & 1) as u8);
                    true
                }
                FaultKind::DropPrefetchFill => self
                    .engine
                    .apply_fault(EngineFault::DropPrefetchFill { salt: ev.a }),
                FaultKind::DelayPrefetchFill => {
                    self.engine.apply_fault(EngineFault::DelayPrefetchFill {
                        salt: ev.a,
                        extra: 1 + ev.b % 16,
                    })
                }
                FaultKind::StallConstructor => {
                    self.engine.apply_fault(EngineFault::StallConstructor {
                        salt: ev.a,
                        #[expect(clippy::cast_possible_truncation, reason = "value in 1..=8")]
                        cycles: (1 + ev.b % 8) as u32,
                    })
                }
                FaultKind::KillConstructor => self
                    .engine
                    .apply_fault(EngineFault::KillConstructor { salt: ev.a }),
                FaultKind::InvalidatePreconEntry => self.store.fault_invalidate_precon(ev.a),
                FaultKind::CorruptPreconEntry => self.store.fault_corrupt_precon(ev.a),
                FaultKind::SpuriousStackPop => self.engine.apply_fault(EngineFault::PopStartPoint),
                FaultKind::SpuriousStackSquash => self
                    .engine
                    .apply_fault(EngineFault::SquashStartStack { salt: ev.a }),
            };
            self.faults
                .as_mut()
                .expect("drawn from above")
                .note(ev.kind, landed);
        }
    }

    /// Retires at most one trace per cycle, in order.
    #[warn(clippy::cast_possible_truncation)]
    fn retire_stage(&mut self) {
        let Some(front) = self.inflight.front() else {
            return;
        };
        let retire_at = front.complete.max(self.last_retire_cycle + 1);
        if self.cycle < retire_at {
            return;
        }
        let done = self.inflight.pop_front().expect("checked front");
        self.engine.probe.event(SimEvent::Retire {
            cycle: self.cycle,
            start: done.trace.start(),
        });
        self.last_retire_cycle = self.cycle;
        self.backend.release_pe(done.pe, self.cycle);
        // Train the bimodal predictor, let the engine and the probe
        // observe the retired path; branch directions come from the
        // key's outcome bits.
        let mut branches = 0;
        for ti in done.trace.instrs() {
            let mut taken = false;
            if ti.op.class() == OpClass::Branch {
                taken = done
                    .trace
                    .branch_outcome(branches)
                    .expect("key covers branches");
                branches += 1;
                self.bimodal.update(ti.pc, taken);
            }
            self.engine.observe_retire(ti.pc);
            self.engine.probe.retired(ti.pc, taken);
        }
        self.stats.retired_instructions += done.trace.len() as u64;
        self.stats.retired_traces += 1;
    }

    /// Runs the frontend for one cycle; returns what it did.
    #[warn(clippy::cast_possible_truncation)]
    fn fetch_stage(&mut self) -> FrontendActivity {
        // A slow-path build in progress owns the I-cache.
        if self.slow_build.is_some() {
            self.advance_slow_build();
            return FrontendActivity::SlowBuild;
        }
        if self.cycle < self.stall_until {
            return FrontendActivity::MispredictStall;
        }
        // Backpressure: all PEs busy.
        if self.inflight.len() >= self.backend.config().pe_count
            || !self.backend.pe_available(self.cycle)
        {
            return FrontendActivity::Backpressure;
        }
        // Next trace on the correct path.
        if self.pending.is_none() {
            self.pending = Some(self.stream.next_trace());
            self.pending_predicted = false;
        }
        let key = self.pending.as_ref().expect("set above").trace.key();

        // Next-trace prediction: a mispredicted (or unpredicted)
        // trace can only be fetched after the previous trace's
        // branches resolve and the frontend redirects.
        if !self.pending_predicted {
            self.pending_predicted = true;
            let end = self.pending.as_ref().expect("set above").trace.end();
            let predicted = self.ntp.observe(key, end) == Some(key);
            if !predicted {
                self.stats.ntp_mispredicts += 1;
                let resume = (self.prev_resolve + MISPREDICT_PENALTY).max(self.cycle);
                if resume > self.cycle {
                    self.stall_until = resume;
                    self.engine.probe.event(SimEvent::MispredictStall {
                        cycle: self.cycle,
                        until: resume,
                    });
                    return FrontendActivity::MispredictStall;
                }
            }
        }

        self.stats.trace_fetches += 1;
        // Probe the trace cache and the preconstruction side in
        // parallel (paper Section 3.1); a preconstruction hit is
        // promoted into the trace cache by the store.
        let fetched = self.store.fetch(key);
        if fetched.hit {
            let source = if fetched.from_precon {
                self.stats.precon_buffer_hits += 1;
                SupplySource::PreconBuffer
            } else {
                self.stats.trace_cache_hits += 1;
                SupplySource::TraceCache
            };
            let mut dt = self.pending.take().expect("set above");
            if let Some(info) = fetched.preprocess {
                dt.trace.set_preprocess_arc(info);
            }
            // A supplied trace updates the RAS here; a slow-path trace
            // does it once, while it is built (`begin_slow_build`).
            for ti in dt.trace.instrs() {
                match ti.op.class() {
                    OpClass::Call => self.ras.push(ti.pc.next()),
                    OpClass::Return => {
                        let _ = self.ras.pop();
                    }
                    _ => {}
                }
            }
            self.dispatch(dt, source);
            return FrontendActivity::Dispatched;
        }

        // Miss: build the trace through the slow path.
        self.stats.trace_cache_misses += 1;
        let dt = self.pending.take().expect("set above");
        self.engine.probe.event(SimEvent::SlowBuildBegin {
            cycle: self.cycle,
            start: dt.trace.start(),
        });
        self.begin_slow_build(dt);
        FrontendActivity::SlowBuild
    }

    /// Starts a slow-path build: enumerate the I-cache lines the
    /// trace's instructions live on and the prediction-repair stalls
    /// the build will incur.
    #[warn(clippy::cast_possible_truncation)]
    fn begin_slow_build(&mut self, dt: DynTrace) {
        let mut lines = TraceVec::new();
        for ti in dt.trace.instrs() {
            let base = InstrCache::line_base(ti.pc);
            match lines.last_mut() {
                Some((b, n)) if *b == base => *n += 1,
                _ => lines.push((base, 1)),
            }
        }
        // Prediction repairs while following the path: every bimodal
        // miss, RAS mismatch, and indirect jump costs a redirect.
        let mut tail_stall = 0;
        let mut outcome_iter = dt.branch_outcomes.iter();
        for ti in dt.trace.instrs() {
            match ti.op.class() {
                OpClass::Branch => {
                    let taken = *outcome_iter.next().expect("outcomes parallel branches");
                    if self.bimodal.predict(ti.pc) != taken {
                        tail_stall += MISPREDICT_PENALTY;
                        self.stats.slow_path_predict_stalls += 1;
                    }
                }
                OpClass::IndirectJump => {
                    tail_stall += MISPREDICT_PENALTY;
                    self.stats.slow_path_predict_stalls += 1;
                }
                OpClass::Return => {
                    // RAS checked (and popped) against the actual
                    // successor recorded in the trace.
                    let predicted = self.ras.pop();
                    if predicted != dt.trace.successor() {
                        tail_stall += MISPREDICT_PENALTY;
                        self.stats.slow_path_predict_stalls += 1;
                    }
                }
                OpClass::Call => self.ras.push(ti.pc.next()),
                _ => {}
            }
        }
        self.stats.slow_path_instructions += dt.trace.len() as u64;
        self.slow_build = Some(SlowBuild {
            dt,
            lines,
            next_line: 0,
            busy_until: self.cycle,
            tail_stall,
        });
    }

    /// One cycle of slow-path progress.
    #[warn(clippy::cast_possible_truncation)]
    fn advance_slow_build(&mut self) {
        let build = self.slow_build.as_mut().expect("called while building");
        if self.cycle < build.busy_until {
            return;
        }
        if let Some(&(base, count)) = build.lines.get(build.next_line) {
            build.next_line += 1;
            let res = self.icache.fetch(base, AccessKind::Demand);
            self.stats.slow_path_lines += 1;
            if !res.hit {
                self.stats.slow_path_miss_instructions += count as u64;
            }
            build.busy_until = self.cycle + res.latency as u64;
            return;
        }
        if build.tail_stall > 0 {
            build.busy_until = self.cycle + build.tail_stall;
            build.tail_stall = 0;
            return;
        }
        // Build complete: preprocess (extended pipeline), fill the
        // trace cache, dispatch.
        let mut build = self.slow_build.take().expect("present");
        if self.config.preprocess {
            let info = preprocess::preprocess(&build.dt.trace);
            build.dt.trace.set_preprocess(info);
        }
        self.store.fill_demand(build.dt.trace.clone());
        self.dispatch(build.dt, SupplySource::SlowPath);
    }

    /// Dispatches a trace supplied by `source` to the backend and the
    /// preconstruction engine's dispatch observer.
    #[warn(clippy::cast_possible_truncation)]
    fn dispatch(&mut self, dt: DynTrace, source: SupplySource) {
        self.engine
            .observe_dispatch_trace(dt.trace.instrs(), self.seq + 1);
        self.seq += dt.trace.len() as u64;
        let timing = self
            .backend
            .dispatch(&dt, self.cycle, self.config.preprocess);
        self.engine.probe.event(SimEvent::Dispatch {
            cycle: self.cycle,
            start: dt.trace.start(),
            #[expect(
                clippy::cast_possible_truncation,
                reason = "trace len capped at 16 slots"
            )]
            len: dt.trace.len() as u8,
            #[expect(
                clippy::cast_possible_truncation,
                reason = "PE index < pe_count, which Backend::new caps at 7"
            )]
            pe: timing.pe as u8,
            source,
        });
        self.prev_resolve = timing.last_resolve;
        self.inflight.push_back(Inflight {
            trace: dt.trace,
            pe: timing.pe,
            complete: timing.complete,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_workloads::{Benchmark, WorkloadBuilder};

    fn run(config: SimConfig, benchmark: Benchmark, n: u64) -> SimStats {
        let p = WorkloadBuilder::new(benchmark).seed(1).build();
        let mut sim = Simulator::new(&p, config);
        sim.run(n)
    }

    /// Records every pipeline event and retired `(pc, taken)`.
    #[derive(Debug, Default)]
    struct Recorder {
        events: Vec<SimEvent>,
        retired: Vec<(Addr, bool)>,
    }

    impl EngineProbe for Recorder {}

    impl Probe for Recorder {
        fn event(&mut self, event: SimEvent) {
            self.events.push(event);
        }

        fn retired(&mut self, pc: Addr, taken: bool) {
            self.retired.push((pc, taken));
        }
    }

    /// Runs `n` instructions of `config` on `p` under a [`Recorder`].
    fn recorded(p: &Program, config: SimConfig, n: u64) -> (SimStats, Recorder) {
        let mut sim = Simulator::with_probe(Executor::new(p), config, Recorder::default());
        let stats = sim.run(n);
        (stats, std::mem::take(sim.probe_mut()))
    }

    #[test]
    fn simulation_makes_forward_progress() {
        let s = run(SimConfig::default(), Benchmark::Compress, 20_000);
        assert!(s.retired_instructions >= 20_000);
        assert!(s.cycles > 0);
        assert!(s.ipc() > 0.2, "ipc {}", s.ipc());
        assert!(s.ipc() <= 8.0, "ipc bounded by issue width");
    }

    #[test]
    fn instruction_conservation() {
        // Every retired instruction was supplied exactly once, by
        // the trace cache, buffers, or slow path.
        let s = run(SimConfig::default(), Benchmark::Li, 30_000);
        assert_eq!(
            s.trace_fetches,
            s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses
        );
        assert!(s.retired_traces <= s.trace_fetches);
    }

    #[test]
    fn small_benchmark_trace_cache_converges() {
        // compress fits in a 256-entry trace cache: after warm-up the
        // miss rate must be near zero.
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(256));
        let s = sim.run_with_warmup(100_000, 100_000);
        assert!(
            s.tc_misses_per_kilo() < 5.0,
            "compress misses/kilo {}",
            s.tc_misses_per_kilo()
        );
    }

    #[test]
    fn large_benchmark_stresses_small_trace_cache() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(64));
        let s = sim.run_with_warmup(50_000, 100_000);
        assert!(
            s.tc_misses_per_kilo() > 10.0,
            "gcc misses/kilo {}",
            s.tc_misses_per_kilo()
        );
    }

    #[test]
    fn preconstruction_reduces_trace_cache_misses() {
        let p = WorkloadBuilder::new(Benchmark::Vortex).seed(1).build();
        let mut base = Simulator::new(&p, SimConfig::baseline(128));
        let sb = base.run_with_warmup(50_000, 150_000);
        let mut precon = Simulator::new(&p, SimConfig::with_precon(128, 128));
        let sp = precon.run_with_warmup(50_000, 150_000);
        assert!(
            sp.tc_misses_per_kilo() < sb.tc_misses_per_kilo(),
            "precon {} vs base {}",
            sp.tc_misses_per_kilo(),
            sb.tc_misses_per_kilo()
        );
        assert!(sp.precon_buffer_hits > 0);
    }

    #[test]
    fn preprocessing_improves_ipc() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut plain = Simulator::new(&p, SimConfig::baseline(256));
        let s1 = plain.run_with_warmup(50_000, 100_000);
        let mut pre = Simulator::new(&p, SimConfig::baseline(256).with_preprocess());
        let s2 = pre.run_with_warmup(50_000, 100_000);
        assert!(
            s2.ipc() > s1.ipc(),
            "preprocess {} vs plain {}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    fn determinism_across_runs() {
        let p = WorkloadBuilder::new(Benchmark::M88ksim).seed(2).build();
        let a = Simulator::new(&p, SimConfig::default()).run(30_000);
        let b = Simulator::new(&p, SimConfig::default()).run(30_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.trace_cache_misses, b.trace_cache_misses);
        assert_eq!(a.retired_instructions, b.retired_instructions);
    }

    #[test]
    fn frontend_breakdown_accounts_every_cycle() {
        let s = run(SimConfig::with_precon(128, 128), Benchmark::Gcc, 40_000);
        assert_eq!(
            s.frontend.total(),
            s.cycles,
            "every cycle is attributed to exactly one activity"
        );
        assert!(s.frontend.dispatched > 0);
        assert!(s.frontend.slow_build > 0, "gcc misses take the slow path");
    }

    #[test]
    fn small_benchmark_is_dispatch_dominated() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(256));
        let s = sim.run_with_warmup(60_000, 60_000);
        let (dispatched, slow, _, _) = s.frontend.permille();
        assert!(
            dispatched > 400,
            "compress mostly dispatches ({dispatched}‰)"
        );
        assert!(slow < 100, "almost no slow-path time ({slow}‰)");
    }

    #[test]
    fn unified_storage_mode_works_end_to_end() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::unified(256, 1, 4096));
        let s = sim.run_with_warmup(40_000, 80_000);
        assert_eq!(
            s.trace_fetches,
            s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses
        );
        assert!(
            s.precon_buffer_hits > 0,
            "unified precon ways supply traces"
        );
        // And it must beat the same capacity with no preconstruction.
        let mut base = Simulator::new(&p, SimConfig::baseline(256));
        let sb = base.run_with_warmup(40_000, 80_000);
        assert!(
            s.tc_misses_per_kilo() < sb.tc_misses_per_kilo(),
            "unified {:.1} vs baseline {:.1}",
            s.tc_misses_per_kilo(),
            sb.tc_misses_per_kilo()
        );
    }

    #[test]
    fn probe_sees_pipeline_events() {
        let p = WorkloadBuilder::new(Benchmark::Li).seed(1).build();
        let (stats, recorder) = recorded(&p, SimConfig::with_precon(64, 64), 20_000);
        let events = &recorder.events;
        assert!(!events.is_empty());
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Dispatch { .. }))
            .count();
        let retires = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Retire { .. }))
            .count();
        assert!(dispatches > 0 && retires > 0);
        assert!(
            dispatches >= retires,
            "a trace retires only after dispatching"
        );
        // Events are in non-decreasing cycle order.
        let cycles: Vec<u64> = events
            .iter()
            .map(|e| match *e {
                SimEvent::Dispatch { cycle, .. }
                | SimEvent::SlowBuildBegin { cycle, .. }
                | SimEvent::MispredictStall { cycle, .. }
                | SimEvent::Retire { cycle, .. } => cycle,
            })
            .collect();
        assert!(cycles.is_sorted());
        assert_eq!(recorder.retired.len() as u64, stats.retired_instructions);
        assert_eq!(retires as u64, stats.retired_traces);
        // All three supply sources appear on this config.
        let sources: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Dispatch { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert!(sources.contains(&SupplySource::SlowPath));
        assert!(sources.contains(&SupplySource::TraceCache));
    }

    #[test]
    fn disabled_engine_never_fetches() {
        let s = run(SimConfig::baseline(128), Benchmark::Gcc, 30_000);
        assert_eq!(s.engine.lines_fetched, 0);
        assert_eq!(s.precon_buffer_hits, 0);
    }

    #[test]
    fn fault_injection_fires_and_lands() {
        let cfg = SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(0xBEEF, 50));
        let s = run(cfg, Benchmark::Gcc, 40_000);
        assert!(s.faults.injected() > 0, "plan with 50‰ per kind injects");
        assert!(s.faults.landed() > 0, "some faults hit live state");
        assert!(s.faults.landed() <= s.faults.injected());
        assert!(s.retired_instructions >= 40_000, "still makes progress");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let p = WorkloadBuilder::new(Benchmark::Vortex).seed(3).build();
        let cfg = SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(77, 30));
        let a = Simulator::new(&p, cfg.clone()).run(30_000);
        let b = Simulator::new(&p, cfg).run(30_000);
        assert_eq!(a, b, "same plan, same schedule, bit-identical stats");
        assert!(a.faults.injected() > 0);
    }

    #[test]
    fn faults_move_stats_but_not_retirement() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(5).build();
        let clean_cfg = SimConfig::with_precon(128, 128);
        let faulty_cfg = clean_cfg.clone().with_faults(FaultPlan::all(99, 100));
        let (sc, clean) = recorded(&p, clean_cfg, 30_000);
        let (sf, faulty) = recorded(&p, faulty_cfg, 30_000);
        assert!(sf.faults.landed() > 0, "faults demonstrably fired");
        // Same retired instruction *stream*...
        let (rc, rf) = (clean.retired, faulty.retired);
        assert_eq!(rc.len().min(30_500), rc.len(), "sanity");
        let n = rc.len().min(rf.len());
        assert_eq!(rc[..n], rf[..n], "retirement stream unchanged");
        // ...while performance counters moved.
        let mut sf_zeroed = sf.clone();
        sf_zeroed.faults = FaultStats::default();
        assert_ne!(sc, sf_zeroed, "non-fault counters perturbed");
    }

    #[test]
    fn stats_words_round_trip() {
        let cfg = SimConfig::with_precon(64, 64).with_faults(FaultPlan::all(1, 20));
        let s = run(cfg, Benchmark::Li, 20_000);
        let words = s.to_words();
        assert_eq!(words.len(), SimStats::WORDS);
        let back = SimStats::from_words(&words).expect("well-formed");
        assert_eq!(s, back, "codec is lossless");
        assert!(SimStats::from_words(&words[..10]).is_none());
    }

    /// Pins the checkpoint word order: sweep checkpoints written by
    /// any earlier build must still decode into the same fields.
    #[test]
    fn stats_words_golden_order() {
        let words: Vec<u64> = (1..=SimStats::WORDS as u64).collect();
        let s = SimStats::from_words(&words).expect("well-formed");
        let expected = SimStats {
            cycles: 1,
            retired_instructions: 2,
            retired_traces: 3,
            trace_fetches: 4,
            trace_cache_hits: 5,
            precon_buffer_hits: 6,
            trace_cache_misses: 7,
            slow_path_instructions: 8,
            slow_path_miss_instructions: 9,
            slow_path_lines: 10,
            ntp_mispredicts: 11,
            slow_path_predict_stalls: 12,
            icache: IcacheStats {
                demand_misses: 13,
                precon_misses: 14,
                demand_hits_on_precon_lines: 15,
            },
            engine: EngineStats {
                regions_started: 16,
                regions_completed: 17,
                regions_caught_up: 18,
                regions_fetch_bound: 19,
                regions_buffer_bound: 20,
                traces_built: 21,
                traces_already_cached: 22,
                successors_dropped: 23,
                lines_fetched: 24,
                start_points_observed: 25,
            },
            store: StoreCounters { precon_fills: 26 },
            frontend: FrontendBreakdown {
                dispatched: 27,
                slow_build: 28,
                mispredict_stall: 29,
                backpressure: 30,
            },
            dcache: DataCacheStats {
                loads: 31,
                stores: 32,
                misses: 33,
                writebacks: 34,
            },
            faults: FaultStats {
                injected_by_kind: [35, 36, 37, 38, 39, 40, 41, 42, 43],
                landed_by_kind: [44, 45, 46, 47, 48, 49, 50, 51, 52],
            },
        };
        assert_eq!(s, expected);
        assert_eq!(s.to_words(), words);
    }

    #[test]
    fn run_budgeted_completes_within_generous_budget() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let s = sim
            .run_budgeted(10_000, 10_000_000)
            .expect("ample budget completes");
        assert!(s.retired_instructions >= 10_000);
    }

    #[test]
    fn run_budgeted_times_out_on_tiny_budget() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let err = sim
            .run_budgeted(1_000_000, 100)
            .expect_err("100 cycles cannot retire a million instructions");
        assert!(err.cycles >= 100);
        assert!(err.retired < 1_000_000);
        assert!(err.to_string().contains("cycle budget exceeded"));
    }
}
