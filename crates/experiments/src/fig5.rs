//! Figure 5: trace-cache miss rates across trace-cache and
//! preconstruction-buffer sizes, for all SPECint95 benchmarks.
//!
//! The paper plots misses per 1000 instructions against the
//! *combined* size of the trace cache and preconstruction buffer.
//! This module sweeps the same grid: baselines of 64–1024 trace-cache
//! entries, and preconstruction configurations pairing each trace
//! cache with the paper's smallest (32) and largest (256) buffers,
//! plus the equal-split points used for the equal-area comparison.

use crate::par_sweep::sweep_grid;
use crate::report::{f1, markdown_table};
use crate::runner::RunParams;
use tpc_processor::SimConfig;
use tpc_workloads::Benchmark;

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Benchmark measured.
    pub benchmark: Benchmark,
    /// Trace-cache entries.
    pub tc_entries: u32,
    /// Preconstruction-buffer entries (0 = baseline).
    pub pb_entries: u32,
    /// Trace-cache misses per 1000 instructions.
    pub misses_per_kilo: f64,
    /// Preconstruction-buffer hits per 1000 instructions.
    pub buffer_hits_per_kilo: f64,
}

impl Fig5Row {
    /// Combined capacity in entries (the paper's x-axis; 16
    /// entries = 1 KB).
    pub fn combined_entries(&self) -> u32 {
        self.tc_entries + self.pb_entries
    }
}

/// Baseline trace-cache sizes (entries).
pub const TC_SIZES: [u32; 5] = [64, 128, 256, 512, 1024];
/// Preconstruction buffer sizes paired with each trace cache.
pub const PB_SIZES: [u32; 3] = [32, 128, 256];

/// The configurations swept for one benchmark, in row order.
pub fn configs() -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = TC_SIZES.iter().map(|&tc| (tc, 0)).collect();
    for &tc in &TC_SIZES {
        for &pb in &PB_SIZES {
            if pb <= tc {
                v.push((tc, pb));
            }
        }
    }
    v
}

/// Runs the Figure 5 sweep for the given benchmarks. All benchmark ×
/// shape cells fan out together across `params.jobs` threads.
pub fn run(benchmarks: &[Benchmark], params: RunParams) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    let shapes = configs();
    let sim_configs: Vec<SimConfig> = shapes
        .iter()
        .map(|&(tc, pb)| SimConfig::with_precon(tc, pb))
        .collect();
    let grid = sweep_grid(benchmarks, &sim_configs, params);
    for (&benchmark, stats) in benchmarks.iter().zip(&grid) {
        for (&(tc, pb), s) in shapes.iter().zip(stats) {
            rows.push(Fig5Row {
                benchmark,
                tc_entries: tc,
                pb_entries: pb,
                misses_per_kilo: s.tc_misses_per_kilo(),
                buffer_hits_per_kilo: s.precon_buffer_hits as f64 * 1000.0
                    / s.retired_instructions.max(1) as f64,
            });
        }
    }
    rows
}

/// Renders the sweep as one markdown table per benchmark.
pub fn render(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    for benchmark in Benchmark::ALL {
        let brows: Vec<&Fig5Row> = rows.iter().filter(|r| r.benchmark == benchmark).collect();
        if brows.is_empty() {
            continue;
        }
        out.push_str(&format!("\n### {benchmark} — TC misses /1000 instr\n\n"));
        let table: Vec<Vec<String>> = brows
            .iter()
            .map(|r| {
                vec![
                    r.tc_entries.to_string(),
                    r.pb_entries.to_string(),
                    r.combined_entries().to_string(),
                    f1(r.misses_per_kilo),
                    f1(r.buffer_hits_per_kilo),
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &[
                "TC entries",
                "PB entries",
                "combined",
                "misses/1k",
                "PB hits/1k",
            ],
            &table,
        ));
    }
    out
}

/// Paper-shape checks used by the integration tests: returns the
/// miss-rate reduction (in percent) that the largest preconstruction
/// configuration achieves over the equal-trace-cache baseline.
pub fn reduction_percent(rows: &[Fig5Row], benchmark: Benchmark, tc: u32, pb: u32) -> Option<f64> {
    let base = rows
        .iter()
        .find(|r| r.benchmark == benchmark && r.tc_entries == tc && r.pb_entries == 0)?;
    let pre = rows
        .iter()
        .find(|r| r.benchmark == benchmark && r.tc_entries == tc && r.pb_entries == pb)?;
    if base.misses_per_kilo <= 0.0 {
        return None;
    }
    Some((1.0 - pre.misses_per_kilo / base.misses_per_kilo) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_grid_is_well_formed() {
        let c = configs();
        assert_eq!(c.iter().filter(|(_, pb)| *pb == 0).count(), TC_SIZES.len());
        assert!(c.iter().all(|&(tc, pb)| pb == 0 || pb <= tc));
        // No duplicates.
        let set: std::collections::BTreeSet<_> = c.iter().collect();
        assert_eq!(set.len(), c.len());
    }

    #[test]
    fn quick_sweep_produces_all_rows() {
        let rows = run(&[Benchmark::Compress], RunParams::quick());
        assert_eq!(rows.len(), configs().len());
        assert!(rows.iter().all(|r| r.misses_per_kilo >= 0.0));
    }

    #[test]
    fn render_contains_benchmark_sections() {
        let rows = run(&[Benchmark::Compress], RunParams::quick());
        let text = render(&rows);
        assert!(text.contains("### compress"));
        assert!(text.contains("misses/1k"));
    }
}
