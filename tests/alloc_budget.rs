//! Allocation budget of the simulator's hot path, and the heap
//! footprint of a freshly constructed simulator.
//!
//! Over a warmed-up measure window the simulator may allocate only
//! what its layers must: the trace stream once per miss in its table
//! of built traces (charged at exactly what a bare `TraceStream`
//! allocates over the window's traces, whose count a model of the
//! table bounds), the preconstruction engine once per new entry the
//! store files for it (counted by a probe: a trace the store already
//! holds, cached or pending and re-tagged, is not built), and once per
//! preprocessing run (the shared annotations: one per slow-path build
//! and one per preconstructed trace at its first fetch), and nothing
//! else, also while faults are injected into the engine and the
//! store. A stream that bypasses its table, an engine or store that
//! builds the traces it drops or re-tags, or anything that allocates
//! per cycle, per constructor step, per region or per injected fault
//! blows the budget.
//!
//! `Simulator::new` must request less heap than a byte budget: a
//! table that grows back to a per-instruction or 16-byte-per-entry
//! layout blows it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trace_preconstruction::core::{EngineProbe, FaultPlan, Filed, TraceBuilder};
use trace_preconstruction::exec::Executor;
use trace_preconstruction::isa::Program;
use trace_preconstruction::processor::stream::{trace_table_slot, TRACE_TABLE_SLOTS};
use trace_preconstruction::processor::{Probe, SimConfig, SimStats, Simulator, TraceStream};
use trace_preconstruction::workloads::{Benchmark, WorkloadBuilder};

thread_local! {
    // `const`-initialised `Cell`s of a `Drop`-free type: reading them
    // never allocates and stays valid while the thread exits.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls and of the bytes they request,
/// so tests running side by side do not see each other's allocations.
struct CountingAlloc;

fn note(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counting touches only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the
        // caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 200_000;
const MEASURE: u64 = 200_000;

/// Allocations a bare `TraceStream` over `program` makes for its
/// traces `from..to`, and the misses a model of its table of built
/// traces predicts for them.
fn stream_allocs(program: &Program, from: u64, to: u64) -> (u64, u64) {
    let mut stream = TraceStream::new(program);
    let mut table = vec![None; TRACE_TABLE_SLOTS];
    let (mut allocs, mut misses) = (0, 0);
    for i in 0..to {
        let before = ALLOCS.with(Cell::get);
        let key = stream.next_trace().trace.key();
        if i >= from {
            allocs += ALLOCS.with(Cell::get) - before;
            misses += u64::from(table[trace_table_slot(key)] != Some(key));
        }
        table[trace_table_slot(key)] = Some(key);
    }
    (allocs, misses)
}

/// The probe counting the traces the store filed as new entries for
/// the engine: the only filings that build a trace.
#[derive(Debug, Default)]
struct NewEntries(u64);

impl EngineProbe for NewEntries {
    fn trace_emitted(&mut self, _trace: &TraceBuilder, filed: Filed) {
        self.0 += u64::from(filed == Filed::NewEntry);
    }
}

impl Probe for NewEntries {}

/// Runs a warmed-up window of `config` on `benchmark`; returns the
/// window's allocation count and its budget.
fn window(benchmark: Benchmark, config: SimConfig) -> (u64, u64, String) {
    let program = WorkloadBuilder::new(benchmark).seed(1).build();
    let preprocess = config.preprocess;
    let mut sim = Simulator::with_probe(Executor::new(&program), config, NewEntries::default());
    sim.run(WARMUP);
    let before: SimStats = sim.stats();
    let entries_before = sim.probe().0;
    let allocs_before = ALLOCS.with(Cell::get);
    sim.run(MEASURE);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let after = sim.stats();
    let entries = sim.probe().0 - entries_before;

    // The simulator fetches each trace it takes from the stream once,
    // and holds at most one taken but not yet fetched: the window took
    // traces from within `before.trace_fetches..after.trace_fetches + 1`.
    let (streamed, misses) = stream_allocs(&program, before.trace_fetches, after.trace_fetches + 1);
    assert!(
        streamed <= misses,
        "{benchmark:?}: the bare stream allocated {streamed} times for {misses} table misses"
    );
    let filled = after.store.precon_fills - before.store.precon_fills;
    assert!(
        entries <= filled,
        "{benchmark:?}: every new entry is a fill"
    );
    // With preprocessing on, every slow-path build (one per miss) and
    // every preconstructed trace at its first fetch (one per buffer
    // hit) is preprocessed once; one slow build may straddle each
    // window edge.
    let preprocessed = if preprocess {
        (after.precon_buffer_hits - before.precon_buffer_hits)
            + (after.trace_cache_misses - before.trace_cache_misses)
            + 1
    } else {
        0
    };
    let budget = streamed + entries + preprocessed;
    let detail = format!(
        "{benchmark:?}: {allocs} allocations in the window; budget {budget} = \
         {streamed} stream + {entries} new precon entries + {preprocessed} preprocess runs \
         ({} traces fetched, {} built by the engine, {filled} precon fills)",
        after.trace_fetches - before.trace_fetches,
        after.engine.traces_built - before.engine.traces_built
    );
    (allocs, budget, detail)
}

#[test]
fn precon_windows_allocate_only_per_trace() {
    for (benchmark, config) in [
        (Benchmark::Gcc, SimConfig::with_precon(128, 128)),
        (
            Benchmark::Compress,
            SimConfig::with_precon(128, 128).with_preprocess(),
        ),
        (
            Benchmark::Gcc,
            SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(7, 10)),
        ),
        (
            Benchmark::Gcc,
            SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(7, 40)),
        ),
    ] {
        let faults = config.faults.map_or(0, |plan| plan.per_mille);
        let (allocs, budget, detail) = window(benchmark, config);
        let detail = format!("{detail} (faults at {faults} per mille)");
        eprintln!("{detail}");
        assert!(allocs <= budget, "over budget: {detail}");
    }
}

/// Heap bytes `Simulator::new` may request, per benchmark and
/// configuration. The bulk is the next-trace predictor's two tables
/// (640 KiB of one-word entries); a per-instruction executor table,
/// 16-byte predictor entries or per-resource backend rings would each
/// add about a mebibyte.
#[test]
fn construction_stays_within_byte_budget() {
    const KIB: u64 = 1024;
    for (benchmark, config, budget) in [
        (Benchmark::Gcc, SimConfig::with_precon(128, 128), 1536 * KIB),
        (
            Benchmark::Compress,
            SimConfig::with_precon(128, 128).with_preprocess(),
            1024 * KIB,
        ),
    ] {
        let program = WorkloadBuilder::new(benchmark).seed(1).build();
        let before = BYTES.with(Cell::get);
        let sim = Simulator::new(&program, config);
        let bytes = BYTES.with(Cell::get) - before;
        drop(sim);
        eprintln!(
            "{benchmark:?}: Simulator::new requested {} KiB (budget {} KiB)",
            bytes / KIB,
            budget / KIB
        );
        assert!(
            bytes <= budget,
            "{benchmark:?}: Simulator::new requested {bytes} bytes, over the budget of {budget}"
        );
    }
}
