//! # tpc-experiments — reproducing the paper's evaluation
//!
//! One module per table/figure of *Trace Preconstruction* (Jacobson &
//! Smith, ISCA 2000), each with a `run` function returning structured
//! rows and a binary (`cargo run -p tpc-experiments --bin <name>
//! --release`) that prints them as a markdown table:
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Figure 5 (trace-cache miss rates)        | [`fig5`]      | `fig5` |
//! | Tables 1–3 (I-cache behaviour)           | [`tables`]    | `tables` |
//! | Figure 6 (speedup from preconstruction)  | [`fig6`]      | `fig6` |
//! | Figure 8 (extended pipeline model)       | [`fig8`]      | `fig8` |
//! | design-choice ablations (not in paper)   | [`ablations`] | `ablations` |
//!
//! Absolute numbers differ from the paper (synthetic workloads, see
//! `DESIGN.md` §2); the *shape* — who wins, directions, rough factors
//! — is the reproduction target, recorded in `EXPERIMENTS.md`.
//!
//! The [`coverage`] module (binary `analysis_report`) sits alongside
//! the paper artifacts: it compares the static analyzer's trace
//! enumeration against the dynamic trace working set per benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod bias_sweep;
pub mod checkpoint;
pub mod coverage;
pub mod cpi_stack;
pub mod degradation;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod par_sweep;
pub mod predictors;
pub mod report;
pub mod runner;
pub mod tables;
pub mod workload_stats;

pub use checkpoint::{sweep_fingerprint, SweepCheckpoint};
pub use par_sweep::{
    effective_jobs, par_map, par_try_map, run_cell, run_cells, sweep_grid, CellBudget, CellError,
    SweepCell,
};
pub use runner::{simulate, simulate_many, simulate_source, RunParams};
