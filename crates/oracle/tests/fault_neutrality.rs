//! Fault injection is correctness-neutral — proven, not assumed.
//!
//! Preconstruction is hint hardware: retirement is driven by the
//! committed trace stream, and everything the fault layer perturbs
//! (bimodal counters, prefetch fills, constructors, precon-buffer
//! entries, the start-point stack) only steers *timing*. This suite
//! makes that argument mechanical: for hundreds of seeded
//! (program, fault-plan) pairs, every simulator configuration —
//! baseline, preconstruction, combined, unified — must retire the
//! golden model's exact instruction stream while faults demonstrably
//! fire, and the faults must still *do* something (statistics move).

use tpc_oracle::fuzzgen::{generate, FEAT_ALL, FEAT_CALLS, FEAT_INDIRECT, FEAT_LOOPS};
use tpc_oracle::{check_scenario_faulted, scenario_fault_plan, standard_configs, Scenario};
use tpc_processor::Simulator;

/// Checks one (program, fault-plan) pair; panics with a reproducible
/// fuzz_sim command on divergence. Returns how many faults landed.
fn check(s: Scenario, instrs: u64, per_mille: u32) -> u64 {
    match check_scenario_faulted(&s, instrs, per_mille) {
        Ok(report) => report.faults_landed,
        Err(div) => panic!(
            "faulted divergence: {div}\n  scenario {s}\n  reproduce: {} --faults {per_mille}",
            s.command()
        ),
    }
}

/// The headline robustness test: 500 fuzzed (program, fault-plan)
/// pairs at mixed intensities, every configuration, retirement
/// streams identical to the fault-free oracle. Across the run faults
/// must actually land — a vacuous pass (nothing ever fired) would be
/// a bug in the harness, not a proof.
#[test]
fn faulted_programs_match_oracle_on_every_config() {
    let mut landed_total = 0u64;
    for i in 0..500u64 {
        // Cycle intensities 10..50‰ so the suite covers both sparse
        // and heavy schedules.
        let per_mille = [10, 20, 30, 50][(i % 4) as usize];
        landed_total += check(
            Scenario {
                seed: 70_000 + i,
                size: 120,
                features: FEAT_ALL,
            },
            600,
            per_mille,
        );
    }
    assert!(
        landed_total > 1_000,
        "faults barely landed ({landed_total}) — the harness is not exercising anything"
    );
}

/// Deeper pairs: bigger programs and longer windows, heavy faulting,
/// enough retirements to churn the small caches repeatedly while the
/// fault layer corrupts, kills, and stalls around them.
#[test]
fn deeper_faulted_programs_match_oracle() {
    for i in 0..24u64 {
        check(
            Scenario {
                seed: 80_000 + i,
                size: 900,
                features: FEAT_ALL,
            },
            6_000,
            100,
        );
    }
}

/// Feature classes in isolation under faulting — a failure here
/// points at the construct whose hint path regressed.
#[test]
fn single_feature_classes_survive_faulting() {
    for (i, features) in [FEAT_LOOPS, FEAT_CALLS, FEAT_INDIRECT]
        .into_iter()
        .enumerate()
    {
        for seed in 0..8u64 {
            check(
                Scenario {
                    seed: 90_000 + 100 * i as u64 + seed,
                    size: 300,
                    features,
                },
                2_000,
                40,
            );
        }
    }
}

/// Faults may only move statistics, never retirement: for a sampled
/// scenario, the faulted run's non-fault counters differ from the
/// clean run's (the schedule really perturbed the machine), even
/// though the retirement comparison above held.
#[test]
fn faults_perturb_statistics_without_perturbing_retirement() {
    let s = Scenario {
        seed: 70_123,
        size: 300,
        features: FEAT_ALL,
    };
    let program = generate(&s);
    let mut perturbed = 0;
    for nc in standard_configs() {
        if !nc.config.engine.enabled {
            continue; // baseline has no hint hardware to perturb
        }
        let mut clean = Simulator::new(&program, nc.config.clone());
        clean.run(4_000);
        let mut faulted = Simulator::new(
            &program,
            nc.config.with_faults(scenario_fault_plan(&s, 100)),
        );
        faulted.run(4_000);
        let (cs, mut fs) = (clean.stats(), faulted.stats());
        assert!(fs.faults.landed() > 0, "{}: no faults landed", nc.name);
        fs.faults = cs.faults;
        if cs != fs {
            perturbed += 1;
        }
    }
    assert!(
        perturbed > 0,
        "heavy faulting left every configuration's statistics untouched"
    );
}
