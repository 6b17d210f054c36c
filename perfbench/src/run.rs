//! One operation of the benchmark: generate the program, construct a
//! fresh simulator, run the warmup, snapshot the counters and time one
//! measure window. Every operation of a run is identical, so its
//! counters must be too.

use crate::alloc::AllocCount;
use crate::workload::{Sizes, Workload};
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tpc_core::EngineStats;
use tpc_exec::Frontend;
use tpc_processor::{SimStats, Simulator};

/// Instructions per timed slice of the warmup and the window.
pub const SLICE: u64 = 2_000;

/// A successful operation.
#[derive(Debug)]
pub struct Repeat {
    /// Start, program built, warmup done, measure window done.
    pub marks: [Instant; 4],
    /// Set-up time in slices: program generation, simulator
    /// construction, then the warmup [`SLICE`] instructions at a time.
    pub setup_slices: Vec<Duration>,
    /// The measure window's time, [`SLICE`] instructions at a time.
    pub window_slices: Vec<Duration>,
    /// Counters of the measure window alone.
    pub stats: SimStats,
    /// Allocations made during the measure window.
    pub allocs: AllocCount,
}

impl Repeat {
    /// Seconds spent generating the program.
    pub fn build_s(&self) -> f64 {
        (self.marks[1] - self.marks[0]).as_secs_f64()
    }

    /// Seconds the measure window took.
    pub fn window_s(&self) -> f64 {
        (self.marks[3] - self.marks[2]).as_secs_f64()
    }

    /// Simulated instructions per host second over the window, in
    /// millions.
    pub fn minstr_per_s(&self) -> f64 {
        self.stats.retired_instructions as f64 / self.window_s() / 1e6
    }
}

/// Runs `sim` until `target` instructions have retired in all,
/// stopping at every multiple of [`SLICE`] past `from` to time the
/// slice into `slices`. Stops where one `run` to `target` would.
fn run_sliced<F: Frontend>(
    sim: &mut Simulator<F>,
    from: u64,
    target: u64,
    slices: &mut Vec<Duration>,
) {
    let mut retired = from;
    let mut at = Instant::now();
    let mut stop = from;
    while retired < target {
        stop = (stop + SLICE).min(target);
        if stop > retired {
            retired = sim.run(stop - retired).retired_instructions;
        }
        let now = Instant::now();
        slices.push(now - at);
        at = now;
    }
}

/// Runs one operation; `Err` when the simulator breaks an invariant
/// or its window counters are inconsistent.
///
/// The counters are never reset: `Simulator::reset_stats` leaves the
/// engine and D-cache counters running, and after it the whole-run
/// invariant "retired traces <= fetched traces" no longer holds for
/// traces fetched before the reset. Snapshots taken after the warmup
/// and after the window are subtracted instead.
pub fn run_once(workload: Workload, seed: u64, sizes: Sizes) -> Result<Repeat, String> {
    let slices = |n: u64| Vec::with_capacity(n.div_ceil(SLICE) as usize + 2);
    let mut setup_slices = slices(sizes.warmup);
    let mut window_slices = slices(sizes.window);
    let start = Instant::now();
    let program = workload.build(seed);
    let built = Instant::now();
    let mut sim = Simulator::new(&program, workload.config());
    setup_slices.extend([built - start, built.elapsed()]);
    run_sliced(&mut sim, 0, sizes.warmup, &mut setup_slices);
    let warm = sim.stats();
    let before = AllocCount::now();
    let warmed = Instant::now();
    let from = warm.retired_instructions;
    run_sliced(&mut sim, from, from + sizes.window, &mut window_slices);
    let done = Instant::now();
    let allocs = AllocCount::since(before);
    // The counters keep running from construction, so the
    // whole-run invariants hold here; the window is a difference.
    sim.check_invariants()?;
    let stats = window(&sim.stats(), &warm);
    check_window(workload, sizes, &stats)?;
    Ok(Repeat {
        marks: [start, built, warmed, done],
        setup_slices,
        window_slices,
        stats,
        allocs,
    })
}

/// [`run_once`] with a panic turned into an `Err`.
pub fn attempt(workload: Workload, seed: u64, sizes: Sizes) -> Result<Repeat, String> {
    panic::catch_unwind(AssertUnwindSafe(|| run_once(workload, seed, sizes))).unwrap_or_else(
        |payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".to_string());
            Err(format!("panicked: {msg}"))
        },
    )
}

fn check_window(workload: Workload, sizes: Sizes, s: &SimStats) -> Result<(), String> {
    if s.retired_instructions < sizes.window {
        return Err(format!(
            "window retired {} instructions, wanted {}",
            s.retired_instructions, sizes.window
        ));
    }
    if s.frontend.total() != s.cycles {
        return Err(format!(
            "frontend breakdown covers {} of {} cycles",
            s.frontend.total(),
            s.cycles
        ));
    }
    let engine_on = workload.config().engine.enabled;
    if !engine_on && (s.engine != EngineStats::default() || s.precon_buffer_hits != 0) {
        return Err("the disabled engine did work".to_string());
    }
    Ok(())
}

/// The counters of the interval between two snapshots of one
/// simulator: `now - then`, counter by counter.
pub fn window(now: &SimStats, then: &SimStats) -> SimStats {
    let words: Vec<u64> = now
        .to_words()
        .iter()
        .zip(then.to_words())
        .map(|(n, t)| n - t)
        .collect();
    SimStats::from_words(&words).expect("both snapshots encode SimStats::WORDS words")
}

/// The operations of one run: how many were attempted and why the
/// failed ones failed, the first successful one, and running bests
/// of the others' times. Memory stays flat however many operations
/// run. An operation that succeeds but counts differently from the
/// first fails.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One message per failed operation.
    pub errors: Vec<String>,
    /// The first successful simulator operation: the reference for
    /// the exact metrics.
    pub reference: Option<Repeat>,
    /// Per set-up slice, its fastest time over successful operations.
    pub best_setup: Vec<Duration>,
    /// Per window slice, its fastest time over successful operations.
    pub best_window: Vec<Duration>,
    /// Fastest program generation, in seconds.
    pub best_build_s: f64,
    /// Whole-window throughput of each successful operation, Minstr/s.
    pub windows: Vec<f64>,
}

fn keep_faster(best: &mut Vec<Duration>, slices: &[Duration]) {
    if best.is_empty() {
        best.extend_from_slice(slices);
    }
    for (b, s) in best.iter_mut().zip(slices) {
        *b = (*b).min(*s);
    }
}

impl Ledger {
    /// Records one simulator operation's outcome.
    pub fn push(&mut self, outcome: Result<Repeat, String>) {
        let outcome = outcome.and_then(|r| match &self.reference {
            Some(first) if first.stats != r.stats => {
                Err("window counters differ from the first operation's".to_string())
            }
            Some(first) if first.allocs != r.allocs => {
                Err("window allocations differ from the first operation's".to_string())
            }
            _ => Ok(r),
        });
        let r = match outcome {
            Ok(r) => r,
            Err(e) => return self.op(Err(e)),
        };
        self.op(Ok(()));
        keep_faster(&mut self.best_setup, &r.setup_slices);
        keep_faster(&mut self.best_window, &r.window_slices);
        if self.windows.is_empty() || r.build_s() < self.best_build_s {
            self.best_build_s = r.build_s();
        }
        self.windows.push(r.minstr_per_s());
        self.reference.get_or_insert(r);
    }

    /// Records the outcome of any other operation.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.reference.is_some()
    }

    /// Seconds of the fastest possible set-up: the sum of the set-up
    /// slices' fastest times. Interference from other work on the
    /// host only ever slows a slice, and every operation runs the
    /// same slices, so each slice's minimum is its least disturbed
    /// time.
    pub fn best_setup_s(&self) -> f64 {
        self.best_setup.iter().sum::<Duration>().as_secs_f64()
    }

    /// Seconds of the fastest possible measure window, summed from
    /// its slices like [`Ledger::best_setup_s`].
    pub fn best_window_s(&self) -> f64 {
        self.best_window.iter().sum::<Duration>().as_secs_f64()
    }
}
