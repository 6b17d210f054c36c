//! Diagnostics for calibration work — all `#[ignore]`d; run with
//! `cargo test -p tpc-processor --release --test diagnostics --
//! --ignored --nocapture`.

use tpc_processor::{SimConfig, Simulator};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Classifies residual trace-cache misses under preconstruction:
/// never-built vs. built-but-lost (replacement/timeliness races).
#[test]
#[ignore = "diagnostic"]
fn residual_miss_classification() {
    for b in [Benchmark::Vortex, Benchmark::Gcc, Benchmark::Go] {
        let p = WorkloadBuilder::new(b).seed(1).build();
        let mut cfg = SimConfig::with_precon(256, 256);
        cfg.engine.track_built_keys = true;
        let mut sim = Simulator::new(&p, cfg);
        let s = sim.run_with_warmup(150_000, 300_000);
        println!(
            "{b}: miss/k={:.1} misses={} previously_built={} ({}%)",
            s.tc_misses_per_kilo(),
            s.trace_cache_misses,
            s.misses_previously_built,
            s.misses_previously_built * 100 / s.trace_cache_misses.max(1),
        );
        println!(
            "   engine={:?}\n   store={:?}",
            s.engine,
            sim.store().counters()
        );
    }
}
