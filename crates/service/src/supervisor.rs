//! The supervised worker pool: sharding, deadlines, retries with
//! deterministic backoff, worker resurrection, and graceful
//! degradation into an error manifest.
//!
//! Execution model:
//!
//! * Every cell is first checked against the result cache; hits are
//!   resolved immediately (no worker time).
//! * Misses are queued and pulled by `workers` threads. Each attempt
//!   runs under panic containment ([`contain_cell`]) and the sweep's
//!   [`CellBudget`] cycle watchdog, so neither a panicking nor a
//!   wedged cell can take a worker down with it.
//! * A failed attempt with a *retryable* error ([`CellError::Panic`],
//!   [`CellError::Timeout`]) is re-queued after a deterministic,
//!   seed-derived exponential backoff, up to
//!   [`RetryPolicy::max_attempts`]; non-retryable errors and
//!   exhausted budgets resolve the cell as permanently failed. Failed
//!   cells appear in the sweep's error manifest — the sweep itself
//!   always completes.
//! * A worker thread that **dies** (the chaos harness kills them
//!   deliberately; nothing else can, thanks to containment) is
//!   detected by the supervisor, its in-flight cell is re-queued
//!   without consuming an attempt, and a replacement worker is
//!   spawned.
//!
//! Simulations are deterministic, so none of this machinery can
//! change results: a cell's stats are bit-identical whether it ran
//! first try, on attempt 3 after two injected panics, on a
//! resurrected worker, or straight out of the cache. The chaos
//! harness (`chaos_service`) asserts exactly that.

use crate::cache::ResultCache;
use crate::spec::{CellSpec, SweepRequest};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tpc_experiments::{contain_cell, CellBudget, CellError, Fnv64};
use tpc_isa::Program;
use tpc_processor::{SimConfig, SimStats, Simulator};
use tpc_workloads::WorkloadBuilder;

/// Bounded-retry policy with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell (first try included); at least 1.
    pub max_attempts: u32,
    /// Delay before attempt 2; doubles per subsequent attempt.
    pub backoff_base_ms: u64,
    /// Upper bound on any single delay.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic jitter.
    pub backoff_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            backoff_seed: 0,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The delay before re-running `cell` after its `attempt`-th try
/// failed: exponential in the attempt with up to +50% deterministic
/// jitter (a pure function of `(policy.backoff_seed, cell, attempt)`
/// — two runs of the same sweep back off identically), capped at
/// [`RetryPolicy::backoff_cap_ms`].
pub fn backoff_ms(policy: &RetryPolicy, cell: usize, attempt: u32) -> u64 {
    let exp = policy
        .backoff_base_ms
        .saturating_mul(1u64 << attempt.clamp(1, 16).saturating_sub(1));
    let jitter_span = exp / 2 + 1;
    let jitter = splitmix64(
        policy
            .backoff_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((cell as u64) << 32)
            .wrapping_add(attempt as u64),
    ) % jitter_span;
    exp.saturating_add(jitter).min(policy.backoff_cap_ms)
}

/// Supervisor-level chaos injection, part of a [`SweepRequest`]. The
/// daemon refuses it unless started with `--allow-chaos`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Kill the worker that picks up `(cell, attempt)` — the thread
    /// dies mid-cell without reporting, exercising the supervisor's
    /// detection/re-queue/respawn path. Each entry fires once.
    pub kill_worker: Vec<(usize, u32)>,
    /// Simulate a cache-write failure for these cell indices: the
    /// result is returned to the client but not memoized.
    pub fail_cache_writes: Vec<usize>,
}

impl ChaosPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kill_worker.is_empty() && self.fail_cache_writes.is_empty()
    }
}

/// A cell bound to its regenerated program and content fingerprint,
/// ready to simulate.
#[derive(Debug, Clone)]
pub struct PreparedCell {
    /// The wire spec this cell came from.
    pub spec: CellSpec,
    /// The generated workload (shared across cells of one benchmark).
    pub program: Arc<Program>,
    /// The expanded simulator configuration.
    pub config: SimConfig,
    /// Content-addressed identity in the result cache.
    pub fingerprint: u64,
}

/// Regenerates each benchmark's program once and binds every cell of
/// `req` to its program, expanded config, and fingerprint.
pub fn prepare_cells(req: &SweepRequest) -> Vec<PreparedCell> {
    let mut programs: BTreeMap<&'static str, Arc<Program>> = BTreeMap::new();
    req.cells
        .iter()
        .map(|spec| {
            let program = programs
                .entry(spec.benchmark.name())
                .or_insert_with(|| {
                    Arc::new(WorkloadBuilder::new(spec.benchmark).seed(req.seed).build())
                })
                .clone();
            PreparedCell {
                program,
                config: spec.sim_config(),
                fingerprint: spec.fingerprint(req.warmup, req.measure, req.seed),
                spec: spec.clone(),
            }
        })
        .collect()
}

/// How one cell ended up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The stats, or the final attempt's error.
    pub result: Result<SimStats, CellError>,
    /// Attempts actually run (0 for a cache hit).
    pub attempts: u32,
    /// Served from the result cache.
    pub cached: bool,
    /// The result could not be memoized (I/O error or injected write
    /// failure); the stats themselves are unaffected.
    pub cache_write_failed: bool,
}

/// One permanently failed cell, as reported to clients alongside the
/// partial results — failure never aborts the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Index into the sweep's cell grid.
    pub index: usize,
    /// Error kind tag (`panic` / `timeout` / `checkpoint`).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Attempts spent before giving up.
    pub attempts: u32,
}

/// The supervisor's verdict on a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-cell outcomes, in grid order.
    pub cells: Vec<CellOutcome>,
    /// Re-queued attempts across all cells.
    pub retries: u64,
    /// Cells served from the result cache.
    pub cache_hits: u64,
    /// Worker threads that died and were replaced.
    pub workers_killed: u64,
}

impl SweepOutcome {
    /// Cells that completed (fresh or cached).
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_ok()).count()
    }

    /// Cells that permanently failed.
    pub fn failed_count(&self) -> usize {
        self.cells.len() - self.ok_count()
    }

    /// The error manifest: every permanently failed cell, in grid
    /// order.
    pub fn manifest(&self) -> Vec<ManifestEntry> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(index, cell)| match &cell.result {
                Ok(_) => None,
                Err(e) => Some(ManifestEntry {
                    index,
                    kind: e.kind().to_string(),
                    message: e.to_string(),
                    attempts: cell.attempts,
                }),
            })
            .collect()
    }

    /// Order-sensitive FNV digest over the completed cells' exact
    /// stats words — two sweeps merged bit-identically have equal
    /// digests.
    pub fn digest(&self) -> u64 {
        digest_results(self.cells.iter().map(|c| c.result.as_ref().ok()))
    }
}

/// Digest of an ordered sequence of optional results (shared by the
/// supervisor and clients diffing against a serial reference).
pub fn digest_results<'a>(results: impl Iterator<Item = Option<&'a SimStats>>) -> u64 {
    let mut h = Fnv64::new();
    for (index, stats) in results.enumerate() {
        match stats {
            Some(stats) => {
                h.write(&(index as u64).to_le_bytes());
                for word in stats.to_words() {
                    h.write(&word.to_le_bytes());
                }
            }
            None => h.write(b"failed"),
        }
    }
    h.finish()
}

/// Progress notifications, streamed to clients as they happen.
#[derive(Debug, Clone)]
pub enum Event {
    /// A cell resolved successfully.
    CellDone {
        /// Grid index.
        index: usize,
        /// Attempts run (0 = cache hit).
        attempts: u32,
        /// Served from cache.
        cached: bool,
        /// Worker-side wall milliseconds for the final attempt.
        ms: f64,
        /// The stats (boxed: this variant dwarfs the others).
        stats: Box<SimStats>,
    },
    /// A cell permanently failed (it will appear in the manifest).
    CellFailed {
        /// Grid index.
        index: usize,
        /// Attempts spent.
        attempts: u32,
        /// The final error.
        error: CellError,
    },
    /// An attempt failed retryably; the cell is re-queued.
    Retry {
        /// Grid index.
        index: usize,
        /// The attempt that failed (1-based).
        attempt: u32,
        /// Deterministic delay before the next attempt.
        delay_ms: u64,
        /// Error kind tag of the failed attempt.
        kind: &'static str,
    },
    /// A worker died mid-cell and was replaced; the cell re-runs.
    WorkerKilled {
        /// Which worker slot died.
        worker: usize,
        /// The cell it was holding.
        index: usize,
        /// The attempt it was on (not consumed).
        attempt: u32,
    },
}

/// Pool-level knobs for one supervised sweep.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorOptions {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Warm-up instructions per cell.
    pub warmup: u64,
    /// Measured instructions per cell.
    pub measure: u64,
    /// Per-attempt cycle watchdog.
    pub budget: CellBudget,
    /// Retry/backoff policy.
    pub policy: RetryPolicy,
}

impl SupervisorOptions {
    /// Options matching a request, with `workers` threads.
    pub fn for_request(req: &SweepRequest, workers: usize) -> SupervisorOptions {
        SupervisorOptions {
            workers,
            warmup: req.warmup,
            measure: req.measure,
            budget: req.budget,
            policy: req.policy,
        }
    }
}

/// A starved watchdog budget: guaranteed [`CellError::Timeout`]
/// before any meaningful work. Poisoned "hung" attempts run under it.
fn starved_budget() -> CellBudget {
    CellBudget {
        cycles_per_instruction: 0,
        floor: 50,
    }
}

/// One attempt of one cell, fully contained: panics (including
/// poison) become [`CellError::Panic`], watchdog trips become
/// [`CellError::Timeout`].
fn run_attempt(
    cell: &PreparedCell,
    attempt: u32,
    opts: &SupervisorOptions,
) -> Result<SimStats, CellError> {
    contain_cell(|| {
        if attempt <= cell.spec.poison.panic_attempts {
            panic!("poison: injected panic on attempt {attempt}");
        }
        let budget = if attempt <= cell.spec.poison.hang_attempts {
            starved_budget()
        } else {
            opts.budget
        };
        let max_cycles = budget.max_cycles(opts.warmup + opts.measure);
        let mut sim = Simulator::new(&cell.program, cell.config.clone());
        Ok(sim.run_with_warmup_budgeted(opts.warmup, opts.measure, max_cycles)?)
    })
}

#[derive(Debug, Clone)]
struct Task {
    index: usize,
    attempt: u32,
    ready_at: Instant,
}

struct Shared {
    queue: Vec<Task>,
    outcomes: Vec<Option<CellOutcome>>,
    unresolved: usize,
    in_flight: BTreeMap<usize, Task>,
    kill_budget: Vec<(usize, u32)>,
    retries: u64,
    workers_killed: u64,
}

struct Pool<'a> {
    shared: Mutex<Shared>,
    ready: Condvar,
    cells: &'a [PreparedCell],
    opts: &'a SupervisorOptions,
    cache: Option<&'a ResultCache>,
    chaos: &'a ChaosPlan,
    on_event: &'a (dyn Fn(Event) + Sync),
}

/// Runs `cells` under full supervision and returns every cell's
/// outcome — this function never panics out and never hangs: the
/// worst a cell can do is exhaust its attempts and land in the
/// manifest.
///
/// `on_event` is called from worker threads as cells resolve (for
/// streaming); it must not block for long.
pub fn run_supervised(
    cells: &[PreparedCell],
    opts: &SupervisorOptions,
    cache: Option<&ResultCache>,
    chaos: &ChaosPlan,
    on_event: &(dyn Fn(Event) + Sync),
) -> SweepOutcome {
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; cells.len()];
    let mut queue = Vec::new();
    let mut cache_hits = 0u64;
    let now = Instant::now();
    for (index, cell) in cells.iter().enumerate() {
        if let Some(stats) = cache.and_then(|c| c.lookup(cell.fingerprint)) {
            cache_hits += 1;
            on_event(Event::CellDone {
                index,
                attempts: 0,
                cached: true,
                ms: 0.0,
                stats: Box::new(stats.clone()),
            });
            // bound: index enumerates self.cells
            outcomes[index] = Some(CellOutcome {
                result: Ok(stats),
                attempts: 0,
                cached: true,
                cache_write_failed: false,
            });
        } else {
            queue.push(Task {
                index,
                attempt: 1,
                ready_at: now,
            });
        }
    }
    let unresolved = queue.len();
    if unresolved == 0 {
        return SweepOutcome {
            cells: outcomes
                .into_iter()
                .map(|o| o.expect("all cached"))
                .collect(),
            retries: 0,
            cache_hits,
            workers_killed: 0,
        };
    }
    let pool = Pool {
        shared: Mutex::new(Shared {
            queue,
            outcomes,
            unresolved,
            in_flight: BTreeMap::new(),
            kill_budget: chaos.kill_worker.clone(),
            retries: 0,
            workers_killed: 0,
        }),
        ready: Condvar::new(),
        cells,
        opts,
        cache,
        chaos,
        on_event,
    };
    let workers = opts.workers.max(1).min(unresolved);
    std::thread::scope(|scope| {
        let pool = &pool;
        let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, ()>>> = (0..workers)
            .map(|wid| Some(scope.spawn(move || pool.worker_loop(wid))))
            .collect();
        // Supervision loop: wait for completion, resurrecting any
        // worker that died mid-cell (only chaos can kill one — every
        // normal failure is contained — but the recovery path is
        // real and always armed).
        loop {
            {
                let shared = pool.lock();
                if shared.unresolved == 0 {
                    break;
                }
            }
            for (wid, slot) in handles.iter_mut().enumerate() {
                let died_mid_cell = slot.as_ref().is_some_and(|h| h.is_finished())
                    && pool.lock().in_flight.contains_key(&wid);
                if died_mid_cell {
                    let _ = slot.take().map(|h| h.join());
                    let task = {
                        let mut shared = pool.lock();
                        let task = shared.in_flight.remove(&wid);
                        if let Some(task) = &task {
                            shared.workers_killed += 1;
                            shared.queue.push(Task {
                                ready_at: Instant::now(),
                                ..task.clone()
                            });
                        }
                        task
                    };
                    if let Some(task) = task {
                        (pool.on_event)(Event::WorkerKilled {
                            worker: wid,
                            index: task.index,
                            attempt: task.attempt,
                        });
                    }
                    pool.ready.notify_all();
                    *slot = Some(scope.spawn(move || pool.worker_loop(wid)));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.ready.notify_all();
    });
    let shared = pool.shared.into_inner().unwrap_or_else(|p| p.into_inner());
    SweepOutcome {
        cells: shared
            .outcomes
            .into_iter()
            .map(|o| o.expect("supervisor resolved every cell"))
            .collect(),
        retries: shared.retries,
        cache_hits,
        workers_killed: shared.workers_killed,
    }
}

impl<'a> Pool<'a> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Shared> {
        // Workers never panic while holding the lock (simulation runs
        // outside it), so a poisoned mutex still guards consistent
        // data.
        self.shared.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Pulls the next ready task, or `None` when the sweep is done.
    /// A `Some` return has already registered the task in `in_flight`
    /// and consumed any chaos kill (returning `(task, true)` tells
    /// the worker to die).
    fn next_task(&self, wid: usize) -> Option<(Task, bool)> {
        let mut shared = self.lock();
        loop {
            if shared.unresolved == 0 {
                return None;
            }
            let now = Instant::now();
            let ready = shared
                .queue
                .iter()
                .enumerate()
                .filter(|(_, t)| t.ready_at <= now)
                .min_by_key(|(_, t)| t.ready_at)
                .map(|(i, _)| i);
            if let Some(at) = ready {
                let task = shared.queue.swap_remove(at);
                let kill = shared
                    .kill_budget
                    .iter()
                    .position(|&(c, a)| c == task.index && a == task.attempt);
                let lethal = if let Some(k) = kill {
                    shared.kill_budget.swap_remove(k);
                    true
                } else {
                    false
                };
                shared.in_flight.insert(wid, task.clone());
                return Some((task, lethal));
            }
            // Nothing ready: sleep until the earliest backoff expiry
            // (or a notify when new work arrives).
            let wait = shared
                .queue
                .iter()
                .map(|t| t.ready_at.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(20))
                .max(Duration::from_millis(1));
            let (guard, _) = self
                .ready
                .wait_timeout(shared, wait)
                .unwrap_or_else(|p| p.into_inner());
            shared = guard;
        }
    }

    fn worker_loop(&self, wid: usize) {
        while let Some((task, lethal)) = self.next_task(wid) {
            if lethal {
                // Chaos: die mid-cell, leaving the task in
                // `in_flight` for the supervisor to recover. The
                // thread simply returns — from the pool's view this
                // is indistinguishable from a crashed worker.
                return;
            }
            // bound: tasks are built from cell indices
            let cell = &self.cells[task.index];
            let t0 = Instant::now();
            let result = run_attempt(cell, task.attempt, self.opts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(stats) => {
                    let mut cache_write_failed = false;
                    if let Some(cache) = self.cache {
                        if self.chaos.fail_cache_writes.contains(&task.index) {
                            cache_write_failed = true; // injected write failure
                        } else if cache.insert(cell.fingerprint, &stats).is_err() {
                            cache_write_failed = true;
                        }
                    }
                    {
                        let mut shared = self.lock();
                        shared.in_flight.remove(&wid);
                        // bound: outcomes sized to cells
                        shared.outcomes[task.index] = Some(CellOutcome {
                            result: Ok(stats.clone()),
                            attempts: task.attempt,
                            cached: false,
                            cache_write_failed,
                        });
                        shared.unresolved -= 1;
                    }
                    (self.on_event)(Event::CellDone {
                        index: task.index,
                        attempts: task.attempt,
                        cached: false,
                        ms,
                        stats: Box::new(stats),
                    });
                }
                Err(error) => {
                    let retry =
                        error.is_retryable() && task.attempt < self.opts.policy.max_attempts;
                    if retry {
                        let delay_ms = backoff_ms(&self.opts.policy, task.index, task.attempt);
                        {
                            let mut shared = self.lock();
                            shared.in_flight.remove(&wid);
                            shared.retries += 1;
                            shared.queue.push(Task {
                                index: task.index,
                                attempt: task.attempt + 1,
                                ready_at: Instant::now() + Duration::from_millis(delay_ms),
                            });
                        }
                        (self.on_event)(Event::Retry {
                            index: task.index,
                            attempt: task.attempt,
                            delay_ms,
                            kind: error.kind(),
                        });
                    } else {
                        {
                            let mut shared = self.lock();
                            shared.in_flight.remove(&wid);
                            // bound: outcomes sized to cells
                            shared.outcomes[task.index] = Some(CellOutcome {
                                result: Err(error.clone()),
                                attempts: task.attempt,
                                cached: false,
                                cache_write_failed: false,
                            });
                            shared.unresolved -= 1;
                        }
                        (self.on_event)(Event::CellFailed {
                            index: task.index,
                            attempts: task.attempt,
                            error,
                        });
                    }
                }
            }
            self.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base_ms: 10,
            backoff_cap_ms: 400,
            backoff_seed: 42,
        };
        for cell in 0..8 {
            for attempt in 1..6 {
                let a = backoff_ms(&policy, cell, attempt);
                assert_eq!(a, backoff_ms(&policy, cell, attempt), "pure function");
                assert!(a <= policy.backoff_cap_ms);
                let base = policy.backoff_base_ms * (1 << (attempt.min(16) - 1));
                assert!(
                    a >= base.min(policy.backoff_cap_ms),
                    "at least exponential base"
                );
            }
        }
        // Different seeds jitter differently somewhere in the grid.
        let other = RetryPolicy {
            backoff_seed: 43,
            ..policy
        };
        assert!(
            (0..64).any(|c| backoff_ms(&policy, c, 2) != backoff_ms(&other, c, 2)),
            "jitter depends on the seed"
        );
    }

    #[test]
    fn splitmix_spreads() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a, 1);
    }
}
