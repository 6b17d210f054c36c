//! The benchmark's workloads: a generated program and a simulator
//! configuration each. `README.md` says why each was chosen.

use tpc_isa::Program;
use tpc_processor::SimConfig;
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// gcc on the 256-entry trace-cache baseline: the miss- and
    /// fill-heavy path with the engine off.
    GccBaseline,
    /// gcc with a 128-entry trace cache and a 128-entry
    /// preconstruction buffer: where engine work shows.
    GccPrecon,
    /// compress with preconstruction and preprocessing: the small
    /// working set, dominated by per-instruction layers.
    CompressCombined,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GccBaseline,
        Workload::GccPrecon,
        Workload::CompressCombined,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GccBaseline => "gcc_baseline",
            Workload::GccPrecon => "gcc_precon",
            Workload::CompressCombined => "compress_combined",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated program's benchmark profile.
    pub fn benchmark(self) -> Benchmark {
        match self {
            Workload::GccBaseline | Workload::GccPrecon => Benchmark::Gcc,
            Workload::CompressCombined => Benchmark::Compress,
        }
    }

    /// The simulated machine.
    pub fn config(self) -> SimConfig {
        match self {
            Workload::GccBaseline => SimConfig::baseline(256),
            Workload::GccPrecon => SimConfig::with_precon(128, 128),
            Workload::CompressCombined => SimConfig::with_precon(128, 128).with_preprocess(),
        }
    }

    /// Generates the workload's program from `seed`.
    pub fn build(self, seed: u64) -> Program {
        WorkloadBuilder::new(self.benchmark()).seed(seed).build()
    }
}

/// Instruction counts of one operation: a warmup, then the measure
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Instructions simulated before the counters are reset.
    pub warmup: u64,
    /// Instructions in the measure window.
    pub window: u64,
}

impl Sizes {
    /// The sizes the benchmark command uses.
    pub const FULL: Sizes = Sizes {
        warmup: 200_000,
        window: 1_000_000,
    };
}
