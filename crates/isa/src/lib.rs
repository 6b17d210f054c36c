//! # tpc-isa — the simulator's instruction set
//!
//! A small, regular RISC instruction set in the spirit of the
//! SimpleScalar PISA used by the paper. Instructions are word
//! addressed (one [`Addr`] step per instruction) and carry explicit
//! register operands so the backend timing model can track true data
//! dependences.
//!
//! Control flow is *modelled*: each conditional branch and indirect
//! jump in a [`Program`] is associated with a deterministic
//! [`model::OutcomeModel`] / [`model::IndirectModel`] that the
//! architectural executor consults. This gives workload generators
//! exact control over branch bias and loop trip counts — the
//! statistics the preconstruction heuristics key on — while register
//! dataflow remains real. See `DESIGN.md` §6.1.
//!
//! ```
//! use tpc_isa::{Op, Reg, Addr};
//!
//! let op = Op::Add { rd: Reg::new(3), rs1: Reg::new(1), rs2: Reg::new(2) };
//! assert_eq!(op.class(), tpc_isa::OpClass::IntAlu);
//! assert_eq!(format!("{op}"), "add r3, r1, r2");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod asm;
pub mod model;
pub mod op;
pub mod program;
pub mod reg;

pub use addr::Addr;
pub use op::{BranchCond, Op, OpClass};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use reg::Reg;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

/// The register that always reads as zero.
pub const ZERO: Reg = Reg::ZERO;

/// The link register written by `call`.
pub const LINK: Reg = Reg::LINK;
