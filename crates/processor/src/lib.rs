//! # tpc-processor — the trace-processor timing model
//!
//! A cycle-level model of the trace processor of Rotenberg et al.
//! (MICRO 1997) as configured in the paper's Section 4: a trace-cache
//! frontend with a path-based next-trace predictor and a
//! bimodal+I-cache slow path, a distributed backend of four 2-wide
//! processing elements communicating over global result buses, and —
//! the paper's contribution — a preconstruction engine borrowing the
//! slow-path hardware on idle cycles.
//!
//! The model is *trace-driven*: an architectural executor supplies
//! the correct-path dynamic instruction stream, chunked into traces
//! by the shared trace-selection rules ([`stream::TraceStream`]).
//! Fetch, dispatch, dependence-aware issue, memory-port contention,
//! and misprediction recovery are timed; wrong-path *data* effects
//! are not modelled (see `DESIGN.md` §2).
//!
//! ```
//! use tpc_workloads::{Benchmark, WorkloadBuilder};
//! use tpc_processor::{SimConfig, Simulator};
//!
//! let program = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
//! let mut sim = Simulator::new(&program, SimConfig::default());
//! let stats = sim.run(20_000);
//! assert!(stats.ipc() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod simulator;
pub mod stream;

pub use simulator::{
    BudgetExceeded, FrontendBreakdown, Probe, SimConfig, SimEvent, SimStats, Simulator,
    StorageKind, SupplySource,
};
pub use stream::{DynTrace, TraceStream, TraceVec};
pub use tpc_core::{EngineProbe, NoProbe};

/// Version of the timing model's observable results. A change that
/// moves any [`SimStats`] word or pinned log digest bumps it (and
/// appends a pin to `tests/stats_golden.rs`). Sweep checkpoints hash
/// it, so results recorded by an older model are never replayed.
pub const MODEL_VERSION: u32 = 3;
