//! The metrics the benchmark prints, computed from a run's
//! operations and, for the traced run, its layer replays.

use crate::replay::{LayerTimes, Recording};
use crate::run::Ledger;

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// The unit `BENCHMARK.json` lists.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(count: u64, base: u64, scale: f64) -> f64 {
    if base == 0 {
        0.0
    } else {
        count as f64 * scale / base as f64
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// This process's peak resident set, in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Host times are summed
/// per-slice bests of the run's operations; simulated metrics are
/// exact.
pub fn end_to_end(ledger: &Ledger) -> Vec<Metric> {
    let Some(r) = &ledger.reference else {
        return Vec::new();
    };
    vec![
        m(
            "sim_minstr_per_s",
            r.stats.retired_instructions as f64 / ledger.best_window_s() / 1e6,
            "Minstr/s",
        ),
        m("setup_s", ledger.best_setup_s(), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
        m("ipc", r.stats.ipc(), "instr/cycle"),
        m(
            "tc_miss_per_kinstr",
            r.stats.tc_misses_per_kilo(),
            "1/kinstr",
        ),
    ]
}

/// The per-layer metrics of a traced run: counts from its operations'
/// window counters, timings from the best replay pass.
pub fn per_layer(ledger: &Ledger, rec: &Recording, t: LayerTimes) -> Vec<Metric> {
    let Some(r) = &ledger.reference else {
        return Vec::new();
    };
    let s = &r.stats;
    let instrs = s.retired_instructions;
    let per_kinstr = |count: u64| ratio(count, instrs, 1000.0);
    let window_traces = rec.window().len() as u64;
    let replay_instrs = rec.window_instrs;
    let exec_ns = ratio(t.exec, replay_instrs, 1.0);
    let stream_ns = ratio(t.stream, replay_instrs, 1.0);
    let sim_ns_per_instr = ledger.best_window_s() * 1e9 / instrs as f64;
    let replayed_ns = ratio(
        t.stream + t.store + t.engine + t.backend,
        replay_instrs,
        1.0,
    );
    let (dispatched, slow, stall, backpressure) = s.frontend.permille();
    vec![
        m("exec.ns_per_instr", exec_ns, "ns/instr"),
        m("stream.self_ns_per_instr", stream_ns - exec_ns, "ns/instr"),
        m(
            "stream.allocs_per_trace",
            ratio(rec.window_stream_allocs, window_traces, 1.0),
            "allocs/trace",
        ),
        m(
            "stream.instr_per_trace",
            ratio(instrs, s.retired_traces, 1.0),
            "instr/trace",
        ),
        m(
            "store.ns_per_op",
            ratio(t.store, window_traces, 1.0),
            "ns/op",
        ),
        m("store.hit_permille", s.tc_hit_permille() as f64, "permille"),
        m(
            "store.demand_fills_per_kinstr",
            per_kinstr(s.trace_cache_misses),
            "1/kinstr",
        ),
        m(
            "store.precon_fills_per_kinstr",
            per_kinstr(s.store.precon_fills),
            "1/kinstr",
        ),
        m(
            "engine.ns_per_cycle",
            ratio(t.engine, rec.cycles, 1.0),
            "ns/cycle",
        ),
        m(
            "engine.traces_built_per_kinstr",
            per_kinstr(s.engine.traces_built),
            "1/kinstr",
        ),
        m(
            "engine.lines_per_kinstr",
            per_kinstr(s.engine.lines_fetched),
            "1/kinstr",
        ),
        m(
            "engine.useful_permille",
            ratio(s.precon_buffer_hits, s.engine.traces_built, 1000.0),
            "permille",
        ),
        m(
            "backend.ns_per_trace",
            ratio(t.backend, window_traces, 1.0),
            "ns/trace",
        ),
        m(
            "sim.cycles_per_kinstr",
            per_kinstr(s.cycles),
            "cycles/kinstr",
        ),
        m(
            "sim.host_ns_per_cycle",
            sim_ns_per_instr * instrs as f64 / s.cycles.max(1) as f64,
            "ns/cycle",
        ),
        m("sim.cpi_dispatched_permille", dispatched as f64, "permille"),
        m("sim.cpi_slow_build_permille", slow as f64, "permille"),
        m(
            "sim.cpi_mispredict_stall_permille",
            stall as f64,
            "permille",
        ),
        m(
            "sim.cpi_backpressure_permille",
            backpressure as f64,
            "permille",
        ),
        m(
            "sim.glue_ns_per_instr",
            sim_ns_per_instr - replayed_ns,
            "ns/instr",
        ),
        m(
            "sim.window_p50_minstr_per_s",
            median(ledger.windows.clone()),
            "Minstr/s",
        ),
        m(
            "sim.traced_minstr_per_s",
            1e3 / sim_ns_per_instr,
            "Minstr/s",
        ),
        m(
            "predict.ntp_mispredicts_per_kinstr",
            per_kinstr(s.ntp_mispredicts),
            "1/kinstr",
        ),
        m(
            "mem.icache_misses_per_kinstr",
            s.icache_misses_per_kilo(),
            "1/kinstr",
        ),
        m(
            "mem.dcache_misses_per_kinstr",
            per_kinstr(s.dcache.misses),
            "1/kinstr",
        ),
        m("alloc.per_kinstr", per_kinstr(r.allocs.calls), "1/kinstr"),
        m(
            "alloc.bytes_per_instr",
            ratio(r.allocs.bytes, instrs, 1.0),
            "B/instr",
        ),
        m("workloads.build_ms", ledger.best_build_s * 1e3, "ms"),
    ]
}

/// What one run prints.
#[derive(Debug)]
pub struct Report {
    /// Whether every operation passed its checks.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                let value = if x.value.is_finite() { x.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    x.name, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|x| x.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
