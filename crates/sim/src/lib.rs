//! # lvp-sim — functional LRISC simulation and trace generation
//!
//! Phase 1 of the paper's three-phase experimental framework: execute a
//! program and capture *all instruction, value and address references* as a
//! [`lvp_trace::Trace`] (the paper used IBM's TRIP6000 and DEC's ATOM for
//! this; see Section 5 of the paper).
//!
//! Two engines implement this phase:
//!
//! * [`FastSim`] pre-decodes the program into a flat micro-op array with
//!   fused superblock idioms and runs a tight dispatch loop; it
//!   generates every trace the experiments use, through
//!   [`SimEngine::run_traced`];
//! * [`Machine`] interprets `Instr` variants one at a time and serves as
//!   the differential-testing oracle.
//!
//! Both produce bit-identical trace streams, outputs, faults, and fuel
//! accounting. Construct either from an assembled [`lvp_isa::Program`],
//! optionally inject input bytes into data memory, then call
//! `run_traced` to retire instructions and collect their trace entries.
//!
//! # Examples
//!
//! ```
//! use lvp_isa::{AsmProfile, Assembler};
//! use lvp_sim::Machine;
//!
//! let program = Assembler::new(AsmProfile::Toc).assemble(
//!     "main: li a0, 2\n li a1, 3\n add a0, a0, a1\n out a0\n halt\n",
//! )?;
//! let mut machine = Machine::new(&program);
//! let trace = machine.run_traced(1_000)?;
//! assert_eq!(machine.output(), &[5]);
//! assert_eq!(trace.stats().instructions, machine.instret());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod counters;
mod engine;
mod fastsim;
mod machine;
mod memory;

pub use counters::Instret;
pub use engine::{EngineRun, SimEngine};
pub use fastsim::FastSim;
pub use machine::{Machine, SimError, EXIT_ADDR};
pub use memory::{MemError, Memory};
