//! Shared simulation driving for all experiments.

use tpc_exec::FrontendSource;
use tpc_processor::{SimConfig, SimStats, Simulator};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// How long to warm up and measure each configuration.
///
/// The paper runs 200 M instructions per benchmark; synthetic
/// workloads reach steady state far sooner (phase periods are
/// 30k–130k instructions), so the defaults measure 500k after a 200k
/// warm-up. `RunParams::quick` is used by smoke tests and Criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Instructions executed before the measured window.
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Worker threads for sweeps (0 = one per available core).
    /// Results are identical whatever the value — it only sets how
    /// many cells run concurrently.
    pub jobs: u64,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            warmup: 200_000,
            measure: 500_000,
            seed: 1,
            jobs: 0,
        }
    }
}

impl RunParams {
    /// A fast configuration for smoke tests and benchmarks.
    pub fn quick() -> Self {
        RunParams {
            warmup: 40_000,
            measure: 80_000,
            seed: 1,
            jobs: 0,
        }
    }

    /// Parses `--warmup N`, `--measure N`, `--seed N`, `--jobs N`,
    /// `--quick` from a binary's command line, starting from
    /// defaults.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or
    /// malformed numbers.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut params = RunParams::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut numeric = |target: &mut u64| -> Result<(), String> {
                let v = args
                    .next()
                    .ok_or_else(|| format!("{flag} expects a value"))?;
                *target = v
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {v}"))?;
                Ok(())
            };
            match flag.as_str() {
                "--warmup" => numeric(&mut params.warmup)?,
                "--measure" => numeric(&mut params.measure)?,
                "--seed" => numeric(&mut params.seed)?,
                "--jobs" => numeric(&mut params.jobs)?,
                "--quick" => {
                    let (seed, jobs) = (params.seed, params.jobs);
                    params = RunParams::quick();
                    params.seed = seed;
                    params.jobs = jobs;
                }
                other => {
                    return Err(format!(
                        "unknown flag {other} (expected --warmup/--measure/--seed/--jobs/--quick)"
                    ))
                }
            }
        }
        Ok(params)
    }
}

/// Runs one benchmark under one configuration and returns measured
/// statistics (after warm-up).
pub fn simulate(benchmark: Benchmark, config: SimConfig, params: RunParams) -> SimStats {
    let program = WorkloadBuilder::new(benchmark).seed(params.seed).build();
    simulate_source(&program, config, params)
}

/// Runs any [`FrontendSource`] — a synthetic [`tpc_isa::Program`], a
/// loaded [`tpc_exec::AsmProgram`] — under one configuration and
/// returns measured statistics (after warm-up). `params.seed` is
/// ignored: the source already owns its program.
pub fn simulate_source<S: FrontendSource>(
    source: &S,
    config: SimConfig,
    params: RunParams,
) -> SimStats {
    let mut sim = Simulator::with_frontend(source.frontend(), config);
    sim.run_with_warmup(params.warmup, params.measure)
}

/// Runs several configurations over the *same* generated program,
/// shared across `params.jobs` worker threads (see
/// [`crate::par_sweep`]); results are in configuration order and
/// independent of the thread count.
pub fn simulate_many(
    benchmark: Benchmark,
    configs: &[SimConfig],
    params: RunParams,
) -> Vec<SimStats> {
    crate::par_sweep::sweep_grid(&[benchmark], configs, params)
        .pop()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn default_params_parse_empty() {
        let p = RunParams::from_args(args(&[])).unwrap();
        assert_eq!(p, RunParams::default());
    }

    #[test]
    fn flags_override_defaults() {
        let p = RunParams::from_args(args(&["--measure", "1000", "--seed", "7"])).unwrap();
        assert_eq!(p.measure, 1000);
        assert_eq!(p.seed, 7);
        assert_eq!(p.warmup, RunParams::default().warmup);
    }

    #[test]
    fn quick_flag() {
        let p = RunParams::from_args(args(&["--quick"])).unwrap();
        assert_eq!(p, RunParams::quick());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(RunParams::from_args(args(&["--bogus"])).is_err());
        assert!(RunParams::from_args(args(&["--measure"])).is_err());
        assert!(RunParams::from_args(args(&["--measure", "abc"])).is_err());
    }

    #[test]
    fn simulate_returns_measured_window() {
        let s = simulate(
            Benchmark::Compress,
            SimConfig::baseline(128),
            RunParams {
                warmup: 5_000,
                measure: 10_000,
                ..RunParams::default()
            },
        );
        assert!(s.retired_instructions >= 10_000);
        assert!(s.retired_instructions < 12_000, "window respected");
    }
}
