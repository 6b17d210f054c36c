//! # tpc-perfbench — the simulator's benchmark
//!
//! Runs one workload for a fixed time and reports either its
//! end-to-end metrics (an untraced run) or its per-layer metrics (a
//! traced run). `README.md` describes the workloads, the metrics and
//! the estimator; `BENCHMARK.json` at the repository root lists the
//! metrics with their units.

pub mod alloc;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod workload;

use replay::{LayerTimes, Recording};
use report::Report;
use run::{attempt, Ledger, Repeat};
use spans::Spans;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};
use workload::{Sizes, Workload};

/// Operations every untraced run makes, however long they take.
const MIN_REPEATS: u64 = 3;
/// Share of a traced run's time spent on simulator operations; the
/// rest goes to replay passes.
const TRACED_SIM_SHARE: f64 = 0.4;

/// What a run measured, plus the traced run's spans.
#[derive(Debug)]
pub struct Outcome {
    /// The printed result.
    pub report: Report,
    /// Failure messages, one per failed operation.
    pub errors: Vec<String>,
    /// The traced run's spans (empty for an untraced run).
    pub spans: Spans,
}

/// Runs `workload` on the program generated from `seed` for about
/// `seconds`, traced or not.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    if !trace {
        while ledger.attempted < MIN_REPEATS || start.elapsed() < budget {
            ledger.push(attempt(workload, seed, sizes));
        }
        let metrics = report::end_to_end(&ledger);
        return finish(ledger, metrics, spans);
    }

    let sim_budget = budget.mul_f64(TRACED_SIM_SHARE);
    while ledger.attempted < 2 || start.elapsed() < sim_budget {
        let outcome = attempt(workload, seed, sizes);
        if let Ok(r) = &outcome {
            record_repeat(&mut spans, r);
        }
        ledger.push(outcome);
    }
    let Some(reference) = &ledger.reference else {
        return finish(ledger, Vec::new(), spans);
    };
    let program = workload.build(seed);
    let rec = Recording::new(&program, workload.config(), sizes.warmup, &reference.stats);
    let mut best: Option<LayerTimes> = None;
    let mut passes = 0;
    while passes < 2 || start.elapsed() < budget {
        passes += 1;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            replay::pass(&program, &rec, &mut spans)
        }))
        .unwrap_or_else(|_| Err("a layer replay panicked".to_string()));
        match outcome {
            Ok(t) => {
                best = Some(best.map_or(t, |b| b.min(t)));
                ledger.op(Ok(()));
            }
            Err(e) => ledger.op(Err(e)),
        }
    }
    let metrics = match best {
        Some(t) => report::per_layer(&ledger, &rec, t),
        None => Vec::new(),
    };
    finish(ledger, metrics, spans)
}

/// Spans of one simulator operation: `sim` around the whole of it,
/// with `workloads.build`, `sim.warmup` and `sim.window` inside.
fn record_repeat(spans: &mut Spans, r: &Repeat) {
    let [start, built, warmed, done] = r.marks;
    let sim = spans.record("sim", None, start, done);
    spans.record("workloads.build", Some(sim), start, built);
    spans.record("sim.warmup", Some(sim), built, warmed);
    spans.record("sim.window", Some(sim), warmed, done);
}

fn finish(ledger: Ledger, metrics: Vec<report::Metric>, spans: Spans) -> Outcome {
    Outcome {
        report: Report {
            correct: ledger.correct() && !metrics.is_empty(),
            attempted: ledger.attempted,
            failed: ledger.failed,
            metrics,
        },
        errors: ledger.errors,
        spans,
    }
}
