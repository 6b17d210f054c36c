//! Parallel sweeps must be bit-identical to serial ones.
//!
//! The executor in `par_sweep` only changes *where* each cell runs,
//! never *what* it computes: every cell gets its own `Simulator` over
//! a shared immutable `Program`, so the statistics must not depend on
//! the thread count in any way. These tests pin that contract with
//! exact `SimStats` equality (every field is an integer counter).

use tpc_core::FaultPlan;
use tpc_experiments::{sweep_grid, RunParams};
use tpc_processor::SimConfig;
use tpc_workloads::Benchmark;

fn params_with_jobs(jobs: u64) -> RunParams {
    RunParams {
        jobs,
        ..RunParams::quick()
    }
}

#[test]
fn sweep_grid_is_identical_across_job_counts() {
    let benchmarks = [Benchmark::Compress, Benchmark::Go];
    let configs = [
        SimConfig::baseline(128),
        SimConfig::with_precon(64, 64),
        SimConfig::with_precon(64, 64).with_preprocess(),
    ];
    let serial = sweep_grid(&benchmarks, &configs, params_with_jobs(1));
    let parallel = sweep_grid(&benchmarks, &configs, params_with_jobs(4));
    assert_eq!(
        serial, parallel,
        "jobs=4 must produce bit-identical statistics to jobs=1"
    );
}

#[test]
fn one_benchmark_sweep_is_identical_across_job_counts() {
    let configs = [SimConfig::baseline(64), SimConfig::with_precon(64, 32)];
    let serial = sweep_grid(&[Benchmark::Ijpeg], &configs, params_with_jobs(1));
    let parallel = sweep_grid(&[Benchmark::Ijpeg], &configs, params_with_jobs(4));
    assert_eq!(serial, parallel);
}

#[test]
fn fault_schedules_are_identical_across_job_counts() {
    // Fault schedules are a pure function of (plan, cycle), never of
    // wall clock or thread identity: the same seed must produce the
    // same schedule — and therefore bit-identical statistics, fault
    // counters included — at any thread count.
    let configs = [
        SimConfig::with_precon(64, 64).with_faults(FaultPlan::all(0xFA57_0001, 25)),
        SimConfig::with_precon(64, 64).with_faults(FaultPlan::all(0xFA57_0002, 100)),
        SimConfig::baseline(128).with_faults(FaultPlan::all(0xFA57_0003, 50)),
    ];
    let benchmarks = [Benchmark::Compress, Benchmark::Li];
    let serial = sweep_grid(&benchmarks, &configs, params_with_jobs(1));
    for jobs in [2, 4, 0] {
        let parallel = sweep_grid(&benchmarks, &configs, params_with_jobs(jobs));
        assert_eq!(
            serial, parallel,
            "jobs={jobs} changed a fault-injected sweep's statistics"
        );
    }
    // The schedules actually fired (same counts in both runs, but a
    // vacuous equality over zero faults would prove nothing).
    assert!(serial.iter().flatten().any(|s| s.faults.landed() > 0));
}

#[test]
fn auto_job_count_matches_serial() {
    // jobs = 0 resolves to the machine's core count; whatever that
    // is, results must not change.
    let configs = [SimConfig::with_precon(64, 64)];
    let serial = sweep_grid(&[Benchmark::Perl], &configs, params_with_jobs(1));
    let auto = sweep_grid(&[Benchmark::Perl], &configs, params_with_jobs(0));
    assert_eq!(serial, auto);
}
