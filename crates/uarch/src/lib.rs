//! # lvp-uarch — trace-driven cycle-accurate timing models
//!
//! Phase 3 of the paper's framework: microarchitectural simulators that
//! consume an annotated trace (each load labelled no-prediction /
//! incorrect / correct / constant) and account for the cost or benefit of
//! each state:
//!
//! * [`simulate_620`] — an out-of-order PowerPC 620-class core
//!   ([`Ppc620Config::base`]) and its widened 620+ ([`Ppc620Config::plus`]);
//! * [`simulate_21164`] — an in-order Alpha 21164-class core
//!   ([`Alpha21164Config`]) with blocking L1 misses (no MAF) and the
//!   reissue buffer of Section 4.2.
//!
//! Shared infrastructure: [`BranchPredictor`], [`Cache`]/[`MemHierarchy`],
//! the dual-bank [`BankArbiter`] (Figure 9), [`LatencyTable`] (Table 5),
//! and [`SimResult`] with the Figure 7/8 statistics.
//!
//! The models consume the LVP unit's per-load *verdicts*
//! ([`PredOutcome`](lvp_trace::PredOutcome)) and never the predictor's tables: any backend of
//! the predictor zoo (`lvp_predictor::PredictorKind`) — last-value,
//! stride, context, store-to-load, or the hybrid — times identically
//! here for the same outcome sequence, so a backend swap changes *which*
//! loads are correct/constant, never how a correct load is costed.
//!
//! # Examples
//!
//! ```
//! use lvp_trace::{OpKind, Trace, TraceEntry};
//! use lvp_uarch::{simulate_620, Ppc620Config};
//!
//! let trace: Trace = (0..100)
//!     .map(|i| TraceEntry::simple(0x10000 + 4 * (i % 16), OpKind::IntSimple))
//!     .collect();
//! let result = simulate_620(&trace, None, &Ppc620Config::base());
//! assert_eq!(result.instructions, 100);
//! assert!(result.ipc() > 0.5);
//! ```

mod alpha;
mod branch;
mod cache;
mod dataflow;
mod latency;
mod metrics;
mod ppc620;

pub use alpha::{simulate_21164, Alpha21164Config};
pub use branch::BranchPredictor;
pub use cache::{BankArbiter, Cache, CacheConfig, MemHierarchy, MemLatency};
pub use dataflow::{dataflow_limit, DataflowResult};
pub use latency::LatencyTable;
pub use metrics::{OperandWaitStats, SimResult, VerifyLatencyHistogram};
pub use ppc620::{simulate_620, Ppc620Config};
