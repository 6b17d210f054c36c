//! Ablation studies over the design choices `DESIGN.md` calls out.
//!
//! These are not paper figures; they probe which parts of the
//! preconstruction design carry the benefit:
//!
//! * start-point stack depth (the paper's 16),
//! * number of parallel trace constructors (the paper's 4),
//! * prefetch-cache capacity (the paper's 256 instructions),
//! * the constructors' decision-stack depth (path-forking budget).

use crate::report::{f1, f2, markdown_table};
use crate::runner::{simulate_many, RunParams};
use tpc_core::EngineConfig;
use tpc_processor::SimConfig;
use tpc_workloads::Benchmark;

/// One ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob was varied.
    pub knob: &'static str,
    /// The knob's value.
    pub value: u32,
    /// Trace-cache misses per 1000 instructions.
    pub misses_per_kilo: f64,
    /// Preconstruction-buffer hits per 1000 instructions.
    pub buffer_hits_per_kilo: f64,
}

fn precon_config(mutate: impl FnOnce(&mut EngineConfig)) -> SimConfig {
    let mut config = SimConfig::with_precon(128, 128);
    mutate(&mut config.engine);
    config
}

/// Runs all ablations on one benchmark (gcc by default in the
/// binary: the largest working set). All knob × value cells are
/// assembled into a single sweep so they fan out together.
pub fn run(benchmark: Benchmark, params: RunParams) -> Vec<AblationRow> {
    type Sweep = (&'static str, &'static [u32], fn(u32) -> SimConfig);
    let sweeps: [Sweep; 4] = [
        ("stack_depth", &[1, 4, 16, 64], |v| {
            precon_config(|e| e.stack_depth = v as usize)
        }),
        ("constructors", &[1, 2, 4, 8], |v| {
            precon_config(|e| e.constructors = v as usize)
        }),
        ("prefetch_capacity", &[64, 128, 256, 1024], |v| {
            precon_config(|e| e.prefetch_capacity = v)
        }),
        ("decision_depth", &[0, 1, 3, 6], |v| {
            precon_config(|e| e.decision_depth = v as usize)
        }),
    ];

    let configs: Vec<SimConfig> = sweeps
        .iter()
        .flat_map(|&(_, values, make)| values.iter().map(move |&v| make(v)))
        .collect();
    let stats = simulate_many(benchmark, &configs, params);

    let mut rows = Vec::new();
    let mut it = stats.iter();
    for &(knob, values, _) in &sweeps {
        for &v in values {
            let s = it.next().expect("one result per config");
            rows.push(AblationRow {
                knob,
                value: v,
                misses_per_kilo: s.tc_misses_per_kilo(),
                buffer_hits_per_kilo: s.precon_buffer_hits as f64 * 1000.0
                    / s.retired_instructions.max(1) as f64,
            });
        }
    }
    rows
}

/// One row of the dynamic-partitioning study (paper Section 5.1's
/// future-work design, implemented as
/// [`tpc_core::storage::UnifiedStore`]).
#[derive(Debug, Clone)]
pub struct DynamicSplitRow {
    /// Organization label.
    pub label: &'static str,
    /// Trace-cache misses per 1000 instructions.
    pub misses_per_kilo: f64,
    /// IPC.
    pub ipc: f64,
}

/// Compares the paper's static split against fixed and adaptive
/// unified partitions at equal total capacity (256 entries here, the
/// Figure 8 operating point).
pub fn dynamic_split(benchmark: Benchmark, params: RunParams) -> Vec<DynamicSplitRow> {
    let total = 256;
    let unified = |pb_ways: u8, epoch: u64| {
        let mut c = SimConfig::unified(total, pb_ways, epoch);
        c.engine.enabled = true;
        c
    };
    let labeled: Vec<(&'static str, SimConfig)> = vec![
        ("all trace cache (no precon)", SimConfig::baseline(total)),
        (
            "static split 128+128",
            SimConfig::with_precon(total / 2, total / 2),
        ),
        ("unified, 1/4 ways fixed", unified(1, 0)),
        ("unified, 2/4 ways fixed", unified(2, 0)),
        ("unified, adaptive", unified(1, 4096)),
    ];
    let configs: Vec<SimConfig> = labeled.iter().map(|(_, c)| c.clone()).collect();
    let stats = simulate_many(benchmark, &configs, params);
    labeled
        .into_iter()
        .zip(stats)
        .map(|((label, _), s)| DynamicSplitRow {
            label,
            misses_per_kilo: s.tc_misses_per_kilo(),
            ipc: s.ipc(),
        })
        .collect()
}

/// Renders the dynamic-partitioning study.
pub fn render_dynamic_split(benchmark: Benchmark, rows: &[DynamicSplitRow]) -> String {
    let mut out = format!("\n### dynamic TC/PB partitioning ({benchmark}, 256 total entries)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.to_string(), f1(r.misses_per_kilo), f2(r.ipc)])
        .collect();
    out.push_str(&markdown_table(
        &["organization", "misses/1k", "IPC"],
        &table,
    ));
    out
}

/// Renders the ablation results, one section per knob.
pub fn render(benchmark: Benchmark, rows: &[AblationRow]) -> String {
    let mut out = format!("\n## Ablations on {benchmark}\n");
    let mut knobs: Vec<&'static str> = rows.iter().map(|r| r.knob).collect();
    knobs.dedup();
    for knob in knobs {
        out.push_str(&format!("\n### {knob}\n\n"));
        let table: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.knob == knob)
            .map(|r| {
                vec![
                    r.value.to_string(),
                    f1(r.misses_per_kilo),
                    f1(r.buffer_hits_per_kilo),
                ]
            })
            .collect();
        out.push_str(&markdown_table(&[knob, "misses/1k", "PB hits/1k"], &table));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_knobs_swept() {
        let rows = run(Benchmark::Compress, RunParams::quick());
        let knobs: std::collections::BTreeSet<_> = rows.iter().map(|r| r.knob).collect();
        assert_eq!(knobs.len(), 4);
        assert_eq!(rows.len(), 16);
    }

    #[test]
    fn render_sections() {
        let rows = run(Benchmark::Compress, RunParams::quick());
        let text = render(Benchmark::Compress, &rows);
        assert!(text.contains("stack_depth"));
        assert!(text.contains("decision_depth"));
    }
}
