//! # lvp-isa — the LRISC instruction set
//!
//! This crate defines **LRISC**, the 64-bit load/store RISC instruction set
//! used throughout the reproduction of *Lipasti, Wilkerson & Shen, "Value
//! Locality and Load Value Prediction" (ASPLOS 1996)*. It provides:
//!
//! * register names ([`Reg`], [`FReg`]) and the decoded instruction type
//!   ([`Instr`]),
//! * a two-pass [`Assembler`] with PowerPC-style ([`AsmProfile::Toc`]) and
//!   Alpha-style ([`AsmProfile::Gp`]) pseudo-instruction expansion, and
//! * the [`Program`] image and memory [`Layout`] consumed by the functional
//!   simulator in `lvp-sim`.
//!
//! The paper studies value locality on two real ISAs (PowerPC and Alpha)
//! to rule out ISA-specific artifacts; the two assembler profiles
//! reproduce that cross-check by materializing addresses either through
//! table-of-contents *loads* (PowerPC/AIX convention) or through ALU
//! *immediate synthesis* (Alpha/OSF convention).
//!
//! # Examples
//!
//! ```
//! use lvp_isa::{Assembler, AsmProfile};
//!
//! let source = "
//! main:
//!     li   a0, 3
//!     li   a1, 4
//!     add  a0, a0, a1
//!     out  a0
//!     halt
//! ";
//! let program = Assembler::new(AsmProfile::Toc).assemble(source)?;
//! assert_eq!(program.entry(), program.symbol("main").unwrap());
//! # Ok::<(), lvp_isa::AsmError>(())
//! ```

pub mod abi;
mod asm;
mod op;
mod program;
mod reg;

pub use asm::{AsmError, AsmProfile, Assembler};
pub use op::{CtrlFlow, Instr, MemWidth, RegId, INSTR_BYTES};
pub use program::{
    Layout, Program, Segment, DATA_BASE, MAX_DATA_IMAGE, MEM_SIZE, STACK_TOP, TEXT_BASE,
};
pub use reg::{FReg, ParseRegError, Reg, FP_ABI_NAMES, INT_ABI_NAMES};
