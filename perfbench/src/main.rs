//! The benchmark command:
//!
//! ```text
//! tpc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes its spans to `out/` in the package
//! directory.

use std::io::Write;
use std::process::ExitCode;
use tpc_perfbench::alloc::CountingAlloc;
use tpc_perfbench::workload::{Sizes, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Generator seed of every workload's program: the seed the figures
/// in `report_full.md` use. Programs from other seeds differ too much
/// in simulated behaviour for one bound to cover them (see
/// `README.md`), so the simulated metrics repeat exactly on every run.
const PROGRAM_SEED: u64 = 1;

const USAGE: &str = "usage: tpc-perfbench --workload <gcc_baseline|gcc_precon|compress_combined> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(e.to_string()))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(String::new()));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn write_spans(args: &Args, spans: &tpc_perfbench::spans::Spans) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans.write_tsv(&mut out)?;
    out.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `--seed` shifts the heap: this padding, held for the whole run,
    // moves later allocations within their pages, so a set of seeds
    // samples host memory layouts rather than one layout's luck.
    let layout_padding = vec![0u8; 64 * (args.seed % 64) as usize + 1];
    let outcome = tpc_perfbench::run(
        args.workload,
        PROGRAM_SEED,
        args.seconds,
        args.trace,
        Sizes::FULL,
    );
    drop(layout_padding);
    for e in &outcome.errors {
        eprintln!("tpc-perfbench: operation failed: {e}");
    }
    if args.trace {
        if let Err(e) = write_spans(&args, &outcome.spans) {
            eprintln!("tpc-perfbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    for m in &outcome.report.metrics {
        println!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.report.json());
    ExitCode::SUCCESS
}
