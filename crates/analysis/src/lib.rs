//! # tpc-analysis — whole-program static analysis
//!
//! Static ground truth for the preconstruction machinery, over the
//! same [`tpc_isa::Program`] representation everything else consumes:
//!
//! * [`Cfg`] — basic-block control-flow graph (leaders, successors,
//!   call/return edges, indirect-jump sinks), dominators, and
//!   natural-loop back edges;
//! * [`StaticEnumeration`] — the statically legal region start points
//!   (the instruction after each call, the fall-through of each
//!   backward branch) and the closure of trace starts reachable from
//!   them, with [`StaticEnumeration::is_valid_push`] and
//!   [`StaticEnumeration::check_trace`] as the
//!   conformance oracle the differential suites run against every
//!   start point the simulator pushes and every trace the
//!   constructors emit;
//! * [`enumerate_biased`] — the bias-following static trace
//!   enumeration behind the static-vs-dynamic coverage report;
//! * [`lint()`] — a structural linter that rejects malformed fuzzer
//!   inputs (backward branches that are not loop latches, indirect
//!   jumps without targets) before they reach simulation.
//!
//! Every entry point takes a `&Program`; the [`source`] module adds
//! [`tpc_exec::FrontendSource`]-generic wrappers so loaded `.asm`
//! programs (and any future frontend) run through the identical
//! analysis pipeline.
//!
//! ```
//! use tpc_analysis::{Cfg, StaticEnumeration};
//! use tpc_workloads::{Benchmark, WorkloadBuilder};
//!
//! let program = WorkloadBuilder::new(Benchmark::Compress)
//!     .seed(1)
//!     .scale_permille(50)
//!     .build();
//! let cfg = Cfg::build(&program);
//! assert!(cfg.natural_loop_count() > 0);
//! let e = StaticEnumeration::build(&program);
//! assert!(e.closure_size() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfg;
pub mod enumerate;
pub mod lint;
pub mod source;

pub use cfg::{BasicBlock, CallEdge, Cfg, CfgSummary};
pub use enumerate::{enumerate_biased, BiasedEnumeration, StaticEnumeration};
pub use lint::{has_errors, lint, Lint, LintLevel};
pub use source::{cfg_of, enumeration_of, lint_source};
