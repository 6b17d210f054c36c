//! Allocation budget of the simulator's hot path.
//!
//! Over a warmed-up measure window the simulator may allocate once
//! per trace that leaves the stream (its shared instruction
//! snapshot), once per trace the preconstruction engine builds, and
//! once per preprocessing run (the shared annotations), plus a small
//! fixed slack. Anything that allocates per cycle, per constructor
//! step or per region blows the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use trace_preconstruction::processor::{SimConfig, SimStats, Simulator};
use trace_preconstruction::workloads::{Benchmark, WorkloadBuilder};

thread_local! {
    // A `const`-initialised `Cell` of a `Drop`-free type: reading it
    // never allocates and stays valid while the thread exits.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`,
/// `alloc_zeroed` and `realloc` calls, so tests running side by side
/// do not see each other's allocations.
struct CountingAlloc;

fn note() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counting touches only a thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`, and the
        // caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: u64 = 200_000;
const MEASURE: u64 = 200_000;
/// Allocations allowed beyond the per-trace budget: buffers reaching
/// a new high-water mark late in the run.
const SLACK: u64 = 64;

/// Runs a warmed-up window of `config` on `benchmark`; returns the
/// window's allocation count and its budget.
fn window(benchmark: Benchmark, config: SimConfig) -> (u64, u64, String) {
    let program = WorkloadBuilder::new(benchmark).seed(1).build();
    let preprocess = config.preprocess;
    let mut sim = Simulator::new(&program, config);
    sim.run(WARMUP);
    let before: SimStats = sim.stats();
    let allocs_before = ALLOCS.with(Cell::get);
    sim.run(MEASURE);
    let allocs = ALLOCS.with(Cell::get) - allocs_before;
    let after = sim.stats();

    let retired = after.retired_traces - before.retired_traces;
    let built = after.engine.traces_built - before.engine.traces_built;
    let cached = after.engine.traces_already_cached - before.engine.traces_already_cached;
    // With preprocessing on, every slow-path build (one per miss) and
    // every built trace not already cached is preprocessed once; one
    // slow build may straddle each window edge.
    let preprocessed = if preprocess {
        built - cached + (after.trace_cache_misses - before.trace_cache_misses) + 1
    } else {
        0
    };
    // A trace in flight at either window edge is counted in one
    // snapshot only.
    let budget = retired + built + preprocessed + SLACK;
    let detail = format!(
        "{benchmark:?}: {allocs} allocations in the window; budget {budget} = \
         {retired} retired traces + {built} built + {preprocessed} preprocess runs + {SLACK}"
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
    ] {
        let (allocs, budget, detail) = window(benchmark, config);
        eprintln!("{detail}");
        assert!(allocs <= budget, "over budget: {detail}");
    }
}
