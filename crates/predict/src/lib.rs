//! # tpc-predict — branch and next-trace predictors
//!
//! The prediction substrate of the trace processor frontend:
//!
//! * [`Bimodal`] — the classic table of 2-bit saturating counters
//!   (Smith, ISCA 1981). It drives the slow path and, crucially for
//!   this paper, its *strong* states are how the preconstruction
//!   engine decides a branch is "strongly biased" and follows only
//!   its dominant direction (paper Section 2.1).
//! * [`ReturnAddressStack`] — return-target prediction for the slow
//!   path.
//! * [`NextTracePredictor`] — the path-based next-trace predictor of
//!   Jacobson, Rotenberg & Smith (MICRO 1997), in the enhanced hybrid
//!   configuration the paper uses: a path-history-indexed correlating
//!   table, a secondary table indexed by the last trace only, 2-bit
//!   confidence counters arbitrating between them, and a return
//!   history stack that saves path history across calls/returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bimodal;
pub mod ntp;
pub mod ras;

pub use bimodal::{Bias, Bimodal};
pub use ntp::{NextTracePredictor, NtpConfig, TraceEnd, TraceKey};
pub use ras::ReturnAddressStack;
