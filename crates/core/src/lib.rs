//! # tpc-core — traces, the trace cache, and trace preconstruction
//!
//! This crate implements the paper's contribution and the trace
//! machinery it extends:
//!
//! * [`trace`] — traces and the shared trace-selection rules
//!   (16-instruction cap, end at returns/indirect jumps, and the
//!   mod-4 alignment heuristic past backward branches that makes
//!   preconstructed traces line up with the processor's traces).
//! * [`trace_cache`] — the 2-way set-associative trace cache.
//! * [`precon_buffer`] — preconstruction buffers with the paper's
//!   region-priority replacement policy.
//! * [`start_stack`] — the region start-point stack (depth 16 plus
//!   reserved completed-region entries).
//! * [`constructor`] — a trace constructor: walks static code from a
//!   trace start point, following strongly-biased branches only down
//!   their dominant direction and forking weakly-biased ones through
//!   an internal decision stack.
//! * [`engine`] — the preconstruction engine tying it together:
//!   region management over four prefetch caches and four parallel
//!   constructors, driven one tick per cycle by the processor, and
//!   observed through a statically dispatched [`EngineProbe`].
//! * [`mod@preprocess`] — the extended-pipeline trace preprocessing
//!   (instruction scheduling, constant propagation, combined
//!   shift-add ALU) of Section 6.
//! * [`faults`] — deterministic fault injection over every one of
//!   the mechanisms above, used by the differential oracle to prove
//!   preconstruction is correctness-neutral: any seeded fault
//!   schedule may move performance counters but never the retirement
//!   stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constructor;
pub mod engine;
pub mod faults;
pub mod precon_buffer;
pub mod preprocess;
mod slots;
pub mod start_stack;
pub mod storage;
pub mod trace;
pub mod trace_cache;

pub use engine::{
    EngineConfig, EngineProbe, EngineStats, NoProbe, PreconEngine, COMPLETED_ENTRIES, DECODE_WIDTH,
    PREFETCH_CACHES, WORKLIST_CAP,
};
pub use faults::{
    EngineFault, FaultEvent, FaultEvents, FaultKind, FaultPlan, FaultState, FaultStats, FAULTS_ALL,
    NUM_FAULT_KINDS,
};
pub use precon_buffer::PreconBuffers;
pub use preprocess::{preprocess, PreprocessInfo};
pub use start_stack::{StartPointStack, StartReason};
pub use storage::{
    Filed, SplitStore, StoreCounters, StoreFetch, TraceStore, UnifiedConfig, UnifiedStore,
};
pub use trace::{
    PushResult, Resolution, Trace, TraceBuilder, TraceInstr, TraceStop, ALIGN_QUANTUM,
    MAX_TRACE_LEN,
};
pub use trace_cache::TraceCache;

// Trace identity/terminator types live in `tpc-predict` (the
// next-trace predictor speaks them natively); re-export for users of
// this crate.
pub use tpc_predict::{TraceEnd, TraceKey};
