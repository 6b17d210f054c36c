//! Static-vs-dynamic coverage: how much of each benchmark's dynamic
//! trace working set the static analyzer can enumerate, and how much
//! of it preconstruction actually builds.
//!
//! For every benchmark the report measures four quantities side by
//! side:
//!
//! - **static code size** — instructions and basic blocks in the
//!   generated program, from the [`tpc_analysis::Cfg`];
//! - **static trace count** — distinct trace keys reachable by the
//!   constructor rules when every branch follows its *static* bias
//!   ([`tpc_analysis::enumerate_biased`]), capped at
//!   [`MAX_STATIC_TRACES`];
//! - **dynamic trace working set** — distinct trace keys observed on
//!   the correct path over the measurement window, from
//!   [`tpc_processor::TraceStream`];
//! - **preconstruction coverage** — the share of that dynamic working
//!   set a preconstructing frontend ever built (the keys of the
//!   traces its engine emitted, collected by a probe), alongside the
//!   share the biased static enumeration predicted (`enumerable`).
//!
//! The gap between the two shares is the paper's motivation made
//! quantitative: static enumeration over-approximates what a
//! profile-blind compiler could pre-pack, while the runtime
//! preconstructor only builds what its region start points reach
//! during execution.

use std::collections::BTreeSet;

use crate::par_sweep::{effective_jobs, par_map};
use crate::report::{f1, markdown_table};
use crate::RunParams;
use tpc_analysis::{enumerate_biased, Cfg};
use tpc_core::{EngineProbe, Filed, TraceBuilder, TraceKey};
use tpc_exec::Executor;
use tpc_isa::OpClass;
use tpc_processor::{Probe, SimConfig, Simulator, TraceStream};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Cap on the biased static enumeration, matching the
/// `analyze_program` binary. Counts at the cap are lower bounds and
/// flagged as truncated.
pub const MAX_STATIC_TRACES: usize = 200_000;

/// The probe collecting the key of every trace the engine emits.
#[derive(Debug, Default)]
struct EmittedKeys(BTreeSet<TraceKey>);

impl EngineProbe for EmittedKeys {
    fn trace_emitted(&mut self, trace: &TraceBuilder, _filed: Filed) {
        self.0.insert(trace.key());
    }
}

impl Probe for EmittedKeys {}

/// One benchmark's static-vs-dynamic measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Static code size in instructions.
    pub instructions: usize,
    /// Total basic blocks in the CFG.
    pub blocks: usize,
    /// Blocks reachable from the entry point and function entries.
    pub reachable_blocks: usize,
    /// Natural loops (distinct back-edge heads).
    pub natural_loops: usize,
    /// Static region start points: one call-return point per call
    /// plus one loop-exit point per backward branch.
    pub start_points: usize,
    /// Distinct trace keys in the biased static enumeration.
    pub static_traces: usize,
    /// Whether [`MAX_STATIC_TRACES`] cut the enumeration short.
    pub static_truncated: bool,
    /// Distinct trace keys on the correct path over the window.
    pub dynamic_traces: usize,
    /// Per-mille share of the dynamic working set present in the
    /// biased static enumeration.
    pub enumerable_permille: u64,
    /// Per-mille share of the dynamic working set the preconstruction
    /// engine ever built.
    pub preconstructed_permille: u64,
}

/// Measures every benchmark in `benchmarks`, in input order, using up
/// to `params.jobs` worker threads. Output is deterministic and
/// independent of the job count.
pub fn run(benchmarks: &[Benchmark], params: RunParams) -> Vec<CoverageRow> {
    let jobs = effective_jobs(params.jobs);
    par_map(benchmarks, jobs, |&b| measure(b, params))
}

fn permille(part: usize, whole: usize) -> u64 {
    (part as u64 * 1000) / (whole.max(1) as u64)
}

/// Measures one benchmark: static structure, biased enumeration,
/// dynamic working set, and preconstruction coverage.
fn measure(benchmark: Benchmark, params: RunParams) -> CoverageRow {
    let program = WorkloadBuilder::new(benchmark).seed(params.seed).build();
    let cfg = Cfg::build(&program);
    let summary = cfg.summary(&program);

    let mut start_points = 0usize;
    for (pc, op) in program.iter() {
        match op.class() {
            OpClass::Call => start_points += 1,
            OpClass::Branch if op.is_backward_branch(pc) => start_points += 1,
            _ => {}
        }
    }

    let biased = enumerate_biased(&program, MAX_STATIC_TRACES);

    // Dynamic working set: distinct trace keys on the correct path
    // over the same instruction window the simulations use.
    let window = params.warmup + params.measure;
    let mut stream = TraceStream::new(&program);
    let mut dynamic: BTreeSet<TraceKey> = BTreeSet::new();
    while stream.retired() < window {
        dynamic.insert(stream.next_trace().trace.key());
    }

    let enumerable = dynamic
        .iter()
        .filter(|k| biased.trace_keys.contains(k))
        .count();

    // Preconstruction coverage: run the standard preconstructing
    // frontend through the warmup and the window, and count the
    // dynamic keys among those of the traces its engine built.
    let mut sim = Simulator::with_probe(
        Executor::new(&program),
        SimConfig::with_precon(128, 128),
        EmittedKeys::default(),
    );
    sim.run(params.warmup);
    sim.run(params.measure);
    let built = dynamic.intersection(&sim.probe().0).count();

    CoverageRow {
        benchmark,
        instructions: summary.instructions,
        blocks: summary.blocks,
        reachable_blocks: summary.reachable_blocks,
        natural_loops: summary.natural_loops,
        start_points,
        static_traces: biased.trace_keys.len(),
        static_truncated: biased.truncated,
        dynamic_traces: dynamic.len(),
        enumerable_permille: permille(enumerable, dynamic.len()),
        preconstructed_permille: permille(built, dynamic.len()),
    }
}

/// Renders the coverage rows as a markdown table.
pub fn render(rows: &[CoverageRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.name().to_string(),
                r.instructions.to_string(),
                format!("{} ({})", r.blocks, r.reachable_blocks),
                r.natural_loops.to_string(),
                r.start_points.to_string(),
                format!(
                    "{}{}",
                    if r.static_truncated { ">= " } else { "" },
                    r.static_traces
                ),
                r.dynamic_traces.to_string(),
                format!("{}%", f1(r.enumerable_permille as f64 / 10.0)),
                format!("{}%", f1(r.preconstructed_permille as f64 / 10.0)),
            ]
        })
        .collect();
    markdown_table(
        &[
            "bench",
            "instrs",
            "blocks (reach)",
            "loops",
            "starts",
            "static traces",
            "dyn traces",
            "enumerable",
            "preconstructed",
        ],
        &table_rows,
    )
}

/// Renders the coverage rows as the `BENCH_analysis.json` document
/// (std-only JSON, no serde), including the run parameters so the
/// numbers are reproducible.
pub fn render_json(rows: &[CoverageRow], params: RunParams) -> String {
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"benchmark\": \"{}\", \"static_instructions\": {}, \
                 \"basic_blocks\": {}, \"reachable_blocks\": {}, \
                 \"natural_loops\": {}, \"start_points\": {}, \
                 \"static_traces\": {}, \"static_truncated\": {}, \
                 \"dynamic_traces\": {}, \"enumerable_permille\": {}, \
                 \"preconstructed_permille\": {}}}",
                r.benchmark.name(),
                r.instructions,
                r.blocks,
                r.reachable_blocks,
                r.natural_loops,
                r.start_points,
                r.static_traces,
                r.static_truncated,
                r.dynamic_traces,
                r.enumerable_permille,
                r.preconstructed_permille,
            )
        })
        .collect();
    format!(
        "{{\n  \"warmup\": {},\n  \"measure\": {},\n  \"seed\": {},\n  \
         \"benchmarks\": [\n{}\n  ]\n}}\n",
        params.warmup,
        params.measure,
        params.seed,
        entries.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> RunParams {
        RunParams {
            warmup: 2_000,
            measure: 4_000,
            seed: 1,
            jobs: 1,
        }
    }

    #[test]
    fn compress_coverage_is_sane() {
        let rows = run(&[Benchmark::Compress], quick_params());
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.instructions > 0);
        assert!(r.blocks >= r.reachable_blocks);
        assert!(r.start_points > 0);
        assert!(r.static_traces > 0);
        assert!(r.dynamic_traces > 0);
        assert!(r.enumerable_permille <= 1000);
        assert!(r.preconstructed_permille <= 1000);
    }

    #[test]
    fn rows_are_deterministic_across_job_counts() {
        let benches = [Benchmark::Compress, Benchmark::Li];
        let serial = run(&benches, quick_params());
        let parallel = run(
            &benches,
            RunParams {
                jobs: 4,
                ..quick_params()
            },
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn render_includes_every_benchmark() {
        let rows = run(&[Benchmark::Compress], quick_params());
        let md = render(&rows);
        assert!(md.contains("compress"));
        assert!(md.contains("preconstructed"));
        let json = render_json(&rows, quick_params());
        assert!(json.contains("\"benchmark\": \"compress\""));
        assert!(json.contains("\"warmup\": 2000"));
    }
}
