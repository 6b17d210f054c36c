//! Parallel fan-out of sweep cells across cores.
//!
//! Every evaluation artifact (Figures 5/6/8, Tables 1–3, the
//! ablations) is a benchmark × configuration grid of mutually
//! independent simulations. This module runs such grids on scoped
//! worker threads (`std::thread::scope` — no external dependencies),
//! with two invariants:
//!
//! * **determinism** — each cell's simulation is self-contained and
//!   seeded, and results are collected in input order, so a sweep's
//!   output is byte-identical whatever the thread count (including
//!   `jobs = 1`, which runs inline);
//! * **sharing, not copying** — a benchmark's generated [`Program`]
//!   is built once and shared across all of its cells via [`Arc`].
//!
//! Workers pull cell indices from a shared atomic counter, so uneven
//! cell costs (a 1024-entry unified store vs a 64-entry baseline)
//! load-balance naturally.

// A panic in the fan-out or checkpoint code is a sweep bug, not a
// cell failure: per-cell containment only means something while
// panics here stay exceptional, so every panicking construct is
// flagged and the few that remain say why in an `#[expect]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::indexing_slicing,
    clippy::string_slice
)]

use crate::runner::RunParams;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tpc_isa::Program;
use tpc_processor::{BudgetExceeded, SimConfig, SimStats, Simulator};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Why one sweep cell failed. A failing cell never takes the sweep
/// down with it: [`par_try_map`] contains panics to the cell that
/// raised them and the rest of the grid completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's computation panicked (e.g. an invalid
    /// configuration tripping a constructor assertion).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The per-cell cycle watchdog fired before the instruction
    /// target was reached (a wedged or pathologically slow
    /// configuration).
    Timeout {
        /// Absolute cycles simulated when the watchdog fired.
        cycles: u64,
        /// Instructions retired by then.
        retired: u64,
    },
    /// Recording the cell's result to the checkpoint file failed.
    Checkpoint {
        /// The underlying I/O error.
        message: String,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic { message } => write!(f, "cell panicked: {message}"),
            CellError::Timeout { cycles, retired } => write!(
                f,
                "cell timed out: {cycles} cycles with only {retired} instructions retired"
            ),
            CellError::Checkpoint { message } => write!(f, "checkpoint write failed: {message}"),
        }
    }
}

impl std::error::Error for CellError {}

impl From<BudgetExceeded> for CellError {
    fn from(e: BudgetExceeded) -> Self {
        CellError::Timeout {
            cycles: e.cycles,
            retired: e.retired,
        }
    }
}

/// Renders a caught panic payload (almost always a `&str` or
/// `String`) for a [`CellError::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cores available to this process (1 when undetectable).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--jobs` request to a worker count: `0` means "one per
/// available core", and explicit requests are **clamped to the
/// available cores** — `--jobs 4` on a 1-core box runs one worker
/// instead of oversubscribing by default (time-slicing threads only
/// adds scheduling overhead; results are identical either way).
pub fn effective_jobs(requested: u64) -> usize {
    let cores = available_cores();
    if requested == 0 {
        cores
    } else {
        (requested as usize).min(cores).max(1)
    }
}

/// Runs `f` with panic containment: a panic becomes that cell's
/// [`CellError::Panic`] instead of unwinding into the caller.
fn contain_cell<R>(f: impl FnOnce() -> Result<R, CellError>) -> Result<R, CellError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(CellError::Panic {
            message: panic_message(payload),
        })
    })
}

/// Fallible map over `items` on up to `jobs` worker threads, with
/// panic containment: a panic inside `f` is caught and reported as
/// that item's [`CellError::Panic`] while every other item completes
/// and returns its own result.
///
/// Results are returned in input order regardless of completion
/// order. `jobs <= 1` (or a single item) runs inline on the calling
/// thread — no spawn, identical results.
pub fn par_try_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, CellError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, CellError> + Sync,
{
    let call = |item: &T| -> Result<R, CellError> { contain_cell(|| f(item)) };
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(call).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<R, CellError>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        produced.push((i, call(item)));
                    }
                    produced
                })
            })
            .collect();
        // `call` contains panics, so a worker cannot die mid-item;
        // a join error is therefore unreachable, but it degrades to
        // structured per-item errors rather than killing the sweep.
        for worker in workers {
            if let Ok(produced) = worker.join() {
                for (i, r) in produced {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i came from the shared counter, capped at items.len()"
                    )]
                    let slot = &mut results[i];
                    *slot = Some(r);
                }
            }
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(CellError::Panic {
                    message: "worker thread died before reporting its results".into(),
                })
            })
        })
        .collect()
}

/// Maps `f` over `items` on up to `jobs` worker threads.
///
/// Results are returned in input order regardless of completion
/// order. `jobs <= 1` (or a single item) runs inline on the calling
/// thread — no spawn, identical results.
///
/// # Panics
///
/// Propagates a panic from `f` (the sweep is aborted). Use
/// [`par_try_map`] to contain failures to the cell that raised them.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    unwrap_all(par_try_map(items, jobs, |item| Ok(f(item))))
}

/// Unwraps every result of an infallible fan-out, re-raising the
/// first contained failure on the calling thread.
#[expect(
    clippy::panic,
    reason = "unwrap_all backs the documented-infallible par_map and run_cells: \
              the grids built on them have no row for a failed cell, so the \
              contained CellError is re-raised on the calling thread"
)]
fn unwrap_all<R>(results: Vec<Result<R, CellError>>) -> Vec<R> {
    results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

/// One cell of a sweep: a shared program under one configuration.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The generated workload, shared across every cell that
    /// simulates it.
    pub program: Arc<Program>,
    /// The configuration to simulate it under.
    pub config: SimConfig,
}

impl SweepCell {
    /// Creates a cell for a synthetic (generated) workload.
    pub fn new(program: Arc<Program>, config: SimConfig) -> Self {
        SweepCell { program, config }
    }
}

/// Per-cell cycle watchdog budget: a cell may spend at most
/// `instructions × cycles_per_instruction` cycles (with an absolute
/// `floor` so short runs aren't starved). Twenty cycles per
/// instruction is ~40× the worst IPC any working configuration
/// exhibits, so only genuinely wedged cells trip it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBudget {
    /// Cycle allowance per requested instruction.
    pub cycles_per_instruction: u64,
    /// Minimum total allowance.
    pub floor: u64,
}

impl Default for CellBudget {
    fn default() -> Self {
        CellBudget {
            cycles_per_instruction: 20,
            floor: 1_000_000,
        }
    }
}

impl CellBudget {
    /// The absolute cycle cap for a run of `instructions`.
    pub fn max_cycles(&self, instructions: u64) -> u64 {
        instructions
            .saturating_mul(self.cycles_per_instruction)
            .max(self.floor)
    }
}

/// Runs one cell: warm-up, then a measured window, under `budget`'s
/// cycle watchdog. A wedged cell returns
/// [`CellError::Timeout`]; callers fan cells out with [`par_try_map`],
/// which also contains a panicking cell to a [`CellError::Panic`].
///
/// # Errors
///
/// [`CellError::Timeout`] when the watchdog fires first.
pub fn run_cell(
    cell: &SweepCell,
    params: RunParams,
    budget: CellBudget,
) -> Result<SimStats, CellError> {
    let max = budget.max_cycles(params.warmup + params.measure);
    let mut sim = Simulator::new(&cell.program, cell.config.clone());
    Ok(sim.run_with_warmup_budgeted(params.warmup, params.measure, max)?)
}

/// Runs every cell through [`run_cell`] under the default watchdog,
/// fanning out across `params.jobs` threads. Results are in cell
/// order.
///
/// # Panics
///
/// When any cell fails: the grids built on this have no row for a
/// missing cell. [`par_try_map`] over [`run_cell`] keeps failures
/// per-cell instead.
pub fn run_cells(cells: &[SweepCell], params: RunParams) -> Vec<SimStats> {
    unwrap_all(par_try_map(cells, effective_jobs(params.jobs), |cell| {
        run_cell(cell, params, CellBudget::default())
    }))
}

/// Generates each benchmark's program once (itself in parallel) and
/// crosses it with every configuration: the full grid, benchmark-
/// major. `result[b][c]` is benchmark `b` under configuration `c`.
pub fn sweep_grid(
    benchmarks: &[Benchmark],
    configs: &[SimConfig],
    params: RunParams,
) -> Vec<Vec<SimStats>> {
    let jobs = effective_jobs(params.jobs);
    let programs: Vec<Arc<Program>> = par_map(benchmarks, jobs, |&b| {
        Arc::new(WorkloadBuilder::new(b).seed(params.seed).build())
    });
    let cells: Vec<SweepCell> = programs
        .iter()
        .flat_map(|p| {
            configs
                .iter()
                .map(|c| SweepCell::new(Arc::clone(p), c.clone()))
        })
        .collect();
    let stats = run_cells(&cells, params);
    stats
        .chunks(configs.len().max(1))
        .map(<[SimStats]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell through [`run_cell`] under `budget`, failures kept
    /// per cell.
    fn run_checked(
        cells: &[SweepCell],
        params: RunParams,
        budget: CellBudget,
    ) -> Vec<Result<SimStats, CellError>> {
        par_try_map(cells, effective_jobs(params.jobs), |cell| {
            run_cell(cell, params, budget)
        })
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        // Skew per-item cost so completion order differs from input
        // order.
        let f = |&x: &u64| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        };
        let serial = par_map(&items, 1, f);
        let parallel = par_map(&items, 4, f);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[13], 169);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn effective_jobs_zero_is_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(0), available_cores());
    }

    #[test]
    fn effective_jobs_clamps_to_cores() {
        // An explicit request never exceeds the machine.
        let cores = available_cores();
        assert_eq!(effective_jobs(3), 3.min(cores));
        assert_eq!(effective_jobs(u64::MAX), cores);
        assert_eq!(effective_jobs(1), 1);
    }

    #[test]
    fn grid_shape_is_benchmark_major() {
        let params = RunParams {
            warmup: 2_000,
            measure: 4_000,
            ..RunParams::quick()
        };
        let configs = [SimConfig::baseline(64), SimConfig::with_precon(64, 32)];
        let grid = sweep_grid(&[Benchmark::Compress, Benchmark::Li], &configs, params);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|per_bench| per_bench.len() == 2));
        assert!(grid[0][0].retired_instructions >= 4_000);
    }

    #[test]
    fn cells_share_one_program_per_benchmark() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(128)),
        ];
        assert!(Arc::ptr_eq(&cells[0].program, &cells[1].program));
    }

    #[test]
    fn par_try_map_contains_panics_to_the_failing_item() {
        let items: Vec<u64> = (0..12).collect();
        for jobs in [1, 4] {
            let results = par_try_map(&items, jobs, |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                Ok(x * 2)
            });
            assert_eq!(results.len(), 12);
            for (i, r) in results.iter().enumerate() {
                if i == 5 {
                    assert_eq!(
                        *r,
                        Err(CellError::Panic {
                            message: "boom at 5".into()
                        })
                    );
                } else {
                    assert_eq!(*r, Ok(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn panicking_cell_reports_error_and_spares_the_rest() {
        // SimConfig::baseline(63): the trace cache asserts its
        // geometry (63 entries don't divide into ways), so this cell
        // panics inside the worker. The acceptance bar: the sweep
        // completes, that cell reports CellError::Panic, every other
        // cell's result is correct (matches a run of that cell
        // alone).
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(63)),
            SweepCell::new(Arc::clone(&program), SimConfig::with_precon(64, 32)),
        ];
        let params = RunParams {
            warmup: 2_000,
            measure: 4_000,
            jobs: 2,
            ..RunParams::quick()
        };
        let results = run_checked(&cells, params, CellBudget::default());
        assert!(results[0].is_ok());
        match &results[1] {
            Err(CellError::Panic { message }) => {
                assert!(message.contains("entries"), "message: {message}");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        assert!(results[2].is_ok());
        // The surviving cells match a run of the same cell alone.
        let alone = run_cells(&cells[..1], params);
        assert_eq!(results[0].as_ref().unwrap(), &alone[0]);
    }

    #[test]
    fn wedged_cell_trips_the_watchdog() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Gcc).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(128)),
        ];
        let params = RunParams {
            warmup: 10_000,
            measure: 100_000,
            jobs: 2,
            ..RunParams::quick()
        };
        // A budget far below any real configuration's need: both
        // cells must time out, structurally, without hanging.
        let starved = CellBudget {
            cycles_per_instruction: 0,
            floor: 50,
        };
        let results = run_checked(&cells, params, starved);
        for r in &results {
            match r {
                Err(CellError::Timeout { cycles, retired }) => {
                    assert!(*cycles >= 50);
                    assert!(*retired < 110_000);
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        // And a generous budget completes.
        let fine = run_checked(&cells, params, CellBudget::default());
        assert!(fine.iter().all(Result::is_ok));
    }

    #[test]
    fn hardened_results_match_plain_results() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Li).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::with_precon(64, 64)),
        ];
        let params = RunParams {
            warmup: 2_000,
            measure: 4_000,
            ..RunParams::quick()
        };
        for cell in &cells {
            let plain = Simulator::new(&cell.program, cell.config.clone())
                .run_with_warmup(params.warmup, params.measure);
            let hardened = run_cell(cell, params, CellBudget::default()).expect("generous budget");
            assert_eq!(plain, hardened, "watchdog path changes nothing");
        }
    }
}
