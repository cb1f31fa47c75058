//! # lvp — Value Locality and Load Value Prediction
//!
//! Facade crate for the reproduction of *Lipasti, Wilkerson & Shen, "Value
//! Locality and Load Value Prediction" (ASPLOS 1996)*. It re-exports the
//! whole workspace under one roof so that examples and downstream users
//! need a single dependency:
//!
//! * [`isa`] — the LRISC instruction set and assembler,
//! * [`lang`] — the mini-C compiler with PowerPC/Alpha-style codegen profiles,
//! * [`sim`] — the functional simulator and trace generator,
//! * [`trace`] — trace records and annotations,
//! * [`predictor`] — the LVP unit (LVPT + LCT + CVU) and value-locality
//!   measurement: the paper's contribution,
//! * [`uarch`] — the PowerPC 620 / 620+ and Alpha 21164 timing models,
//! * [`workloads`] — the 17-benchmark suite mirroring the paper's Table 1,
//! * [`harness`] — the experiment engine: typed plans, a parallel
//!   trace-caching executor, and the registry of all paper experiments.
//!
//! # Examples
//!
//! Measure load value locality of a tiny program (the paper's Figure 1):
//!
//! ```
//! use lvp::isa::{AsmProfile, Assembler};
//! use lvp::predictor::LocalityMeter;
//! use lvp::sim::Machine;
//!
//! let program = Assembler::new(AsmProfile::Toc).assemble(
//!     "
//! main:
//!     li   t1, 0          # i = 0
//! loop:
//!     la   t2, counter    # TOC load: same pointer value every iteration
//!     ld   t3, 0(t2)      # the counter itself increments (low locality)
//!     addi t3, t3, 1
//!     sd   t3, 0(t2)
//!     addi t1, t1, 1
//!     li   t4, 100
//!     blt  t1, t4, loop
//!     halt
//!     .data
//! counter: .dword 0
//! ",
//! )?;
//! let mut machine = Machine::new(&program);
//! let trace = machine.run_traced(100_000)?;
//! let mut meter = LocalityMeter::with_depths(1024, &[1, 16]);
//! for entry in &trace {
//!     meter.observe(&entry);
//! }
//! // The counter load sees a different value every iteration, but the two
//! // `la`/TOC loads repeat the same pointer forever.
//! assert!(meter.locality(1) > 0.30);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use lvp_harness as harness;
pub use lvp_isa as isa;
pub use lvp_lang as lang;
pub use lvp_predictor as predictor;
pub use lvp_sim as sim;
pub use lvp_trace as trace;
pub use lvp_uarch as uarch;
pub use lvp_workloads as workloads;
