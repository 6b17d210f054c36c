//! Long-running differential fuzzer.
//!
//! Generates structure-aware random programs and differentially
//! checks every simulator configuration against the golden-model
//! oracle until an iteration count or wall-clock budget is exhausted.
//! On divergence the failing scenario is shrunk and printed as a
//! reproducible command, and the process exits non-zero.
//!
//! ```text
//! fuzz_sim [--seed N] [--iters N] [--budget-ms N]
//!          [--size N] [--features HEX] [--instrs N] [--jobs N]
//!          [--faults PERMILLE]
//! ```
//!
//! `--iters` and `--budget-ms` compose: the run stops at whichever
//! limit is reached first (default: 200 iterations, no time budget).
//!
//! `--faults N` additionally runs the *fault-injected* differential
//! on every program: all fault kinds enabled at N/1000 per-cycle
//! intensity, seeded from the scenario seed (so the printed repro
//! command reproduces the fault schedule too). The retirement stream
//! must still match the oracle exactly — this is the paper's
//! hint-hardware safety property under adversarial perturbation.
//!
//! Exit codes: 0 = all clean, 1 = divergence found, 2 = usage error.

use tpc_experiments::par_map;
use tpc_oracle::fuzzgen::FEAT_ALL;
use tpc_oracle::{
    check_and_shrink, check_and_shrink_faulted, check_scenario, check_scenario_faulted, Scenario,
};

const USAGE: &str = "usage: fuzz_sim [--seed N] [--iters N] [--budget-ms N] \
     [--size N] [--features HEX] [--instrs N] [--jobs N] [--faults PERMILLE]";

struct Args {
    seed: u64,
    iters: u64,
    budget_ms: Option<u64>,
    size: u32,
    features: u32,
    instrs: u64,
    jobs: usize,
    /// Fault-injection intensity in 1/1000ths per kind per cycle
    /// (0 = fault-free differential only).
    faults_per_mille: u32,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        iters: 200,
        budget_ms: None,
        size: 800,
        features: FEAT_ALL,
        instrs: 3_000,
        jobs: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        faults_per_mille: 0,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let parsed = |what: &str| format!("{flag}: cannot parse {value:?} as {what}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|_| parsed("u64"))?,
            "--iters" => args.iters = value.parse().map_err(|_| parsed("u64"))?,
            "--budget-ms" => args.budget_ms = Some(value.parse().map_err(|_| parsed("u64"))?),
            "--size" => args.size = value.parse().map_err(|_| parsed("u32"))?,
            "--features" => {
                let v = value.trim_start_matches("0x");
                args.features = u32::from_str_radix(v, 16).map_err(|_| parsed("hex u32"))?;
            }
            "--instrs" => args.instrs = value.parse().map_err(|_| parsed("u64"))?,
            "--jobs" => {
                args.jobs = value.parse().map_err(|_| parsed("usize"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--faults" => {
                args.faults_per_mille = value.parse().map_err(|_| parsed("u32"))?;
                if args.faults_per_mille > 1000 {
                    return Err("--faults is in 1/1000ths; the maximum is 1000".into());
                }
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Checks one scenario: fault-free always, fault-injected when
/// enabled. Returns the failing scenario for the report phase.
fn check_one(s: &Scenario, instrs: u64, faults_per_mille: u32) -> Option<Scenario> {
    if check_scenario(s, instrs).is_err() {
        return Some(*s);
    }
    if faults_per_mille > 0 && check_scenario_faulted(s, instrs, faults_per_mille).is_err() {
        return Some(*s);
    }
    None
}

/// Shrinks and prints a divergence, then exits 1. Falls back to the
/// unshrunk scenario if the serial re-check cannot reproduce the
/// parallel failure (so the repro command is never lost).
fn report_divergence(first: &Scenario, args: &Args, checked: u64) -> ! {
    let faulted_repro = |s: &Scenario| {
        let mut cmd = s.command();
        if args.faults_per_mille > 0 {
            cmd.push_str(&format!(" --faults {}", args.faults_per_mille));
        }
        cmd
    };
    let (shrunk, detail) = match check_and_shrink(first, args.instrs) {
        Err((shrunk, div)) => (shrunk, div.to_string()),
        Ok(_) => match check_and_shrink_faulted(first, args.instrs, args.faults_per_mille.max(1)) {
            Err((shrunk, div)) => (shrunk, format!("{div} (under fault injection)")),
            Ok(_) => {
                // The parallel worker saw a failure the serial
                // re-check cannot reproduce — report the original
                // scenario rather than dying on an expect.
                eprintln!("DIVERGENCE after {checked} programs (not reproduced serially)");
                eprintln!("  first failing scenario: {first}");
                eprintln!("  reproduce: {}", faulted_repro(first));
                std::process::exit(1);
            }
        },
    };
    eprintln!("DIVERGENCE after {checked} programs");
    eprintln!("  {detail}");
    eprintln!("  shrunk to {shrunk}");
    eprintln!("  reproduce: {}", faulted_repro(&shrunk));
    std::process::exit(1);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("fuzz_sim: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    #[expect(
        clippy::disallowed_types,
        reason = "the clock bounds the fuzz budget (how many cases run), never what any case computes; each case is seed-derived"
    )]
    let start = std::time::Instant::now();
    let batch = (args.jobs * 4).max(8) as u64;
    let mut checked: u64 = 0;

    while checked < args.iters {
        if let Some(ms) = args.budget_ms {
            if start.elapsed().as_millis() as u64 >= ms {
                break;
            }
        }
        let n = batch.min(args.iters - checked);
        let scenarios: Vec<Scenario> = (0..n)
            .map(|i| Scenario {
                seed: args.seed + checked + i,
                size: args.size,
                features: args.features,
            })
            .collect();
        let failures: Vec<Scenario> = par_map(&scenarios, args.jobs, |s| {
            check_one(s, args.instrs, args.faults_per_mille)
        })
        .into_iter()
        .flatten()
        .collect();

        if let Some(first) = failures.first() {
            report_divergence(first, &args, checked);
        }
        checked += n;
        if checked.is_multiple_of(batch * 8) || checked >= args.iters {
            println!(
                "fuzz_sim: {checked} programs clean ({} configs each, {} instrs{}) in {:.1}s",
                tpc_oracle::standard_configs().len(),
                args.instrs,
                if args.faults_per_mille > 0 {
                    format!(", faults {}‰", args.faults_per_mille)
                } else {
                    String::new()
                },
                start.elapsed().as_secs_f64()
            );
        }
    }

    println!(
        "fuzz_sim: PASS — {checked} programs, all configurations matched the oracle{} ({:.1}s)",
        if args.faults_per_mille > 0 {
            " (fault-free and fault-injected)"
        } else {
            ""
        },
        start.elapsed().as_secs_f64()
    );
}
