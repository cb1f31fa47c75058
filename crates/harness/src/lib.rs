//! # lvp-harness — the experiment engine
//!
//! A typed, parallel, trace-caching harness for the paper's evaluation:
//!
//! * [`ExperimentPlan`] — a builder describing a job matrix over
//!   (workload × [`AsmProfile`](lvp_isa::AsmProfile) ×
//!   [`OptLevel`](lvp_lang::OptLevel) ×
//!   [`LvpConfig`](lvp_predictor::LvpConfig) × [`MachineModel`]).
//! * [`Engine`] — a parallel executor over scoped threads with a
//!   configurable worker count and deterministic (plan-order) result
//!   merging, backed by content-keyed in-memory caches so each trace,
//!   annotation and timing simulation is computed exactly once per
//!   process. Nothing is persisted across processes: regenerating a
//!   trace is faster than reloading it from disk (DESIGN.md §6.2).
//! * [`Report`] / [`ExperimentTable`] / [`Cell`] — structured results
//!   separated from rendering; the classic fixed-width text output is
//!   one renderer ([`Report::render_text`]), CSV another.
//! * [`experiments`](mod@experiments) — the registry of all paper experiments (tables,
//!   figures, ablations), each a thin declarative plan. The `lvp bench`
//!   subcommand dispatches through it.
//!
//! ## Pipeline
//!
//! ```text
//!   plan (job matrix) ──► engine (parallel, cached) ──► rows ──► renderer
//!        ExperimentPlan        Engine::run                Report   text/CSV
//! ```
//!
//! ## Example
//!
//! ```
//! use lvp_harness::{Engine, ExperimentPlan};
//!
//! let engine = Engine::fast().with_threads(2);
//! let plan = ExperimentPlan::new()
//!     .workloads(engine.suite().to_vec())
//!     .configs([lvp_predictor::presets::simple()])
//!     .map(|job, ctx| {
//!         let ann = ctx.job_annotation(job)?;
//!         Ok((job.workload.name, ann.stats.accuracy()))
//!     });
//! # let _ = plan; // executing would trace real workloads; see `lvp bench`
//! ```

pub mod cache;
pub mod crosscheck;
#[cfg(test)]
mod differential;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod perf;
pub mod plan;
pub mod report;
mod slots;
pub mod valueflow;

pub use cache::{Annotation, EngineStats};
pub use crosscheck::{cross_check, CrossCheckReport, CrossCheckViolation, ViolationKind};
pub use engine::{Ctx, Engine, FAST_WORKLOADS};
pub use error::{ErrorKind, HarnessError, Phase};
pub use experiments::{address_ranges, experiment, experiments, ExperimentDef};
pub use perf::{
    benches, run as run_benches, BenchDef, BenchResult, PerfConfig, PerfError, PerfReport,
};
pub use plan::{ExperimentPlan, JobSpec, MachineModel, Plan};
pub use report::{geo_mean, Cell, ExperimentTable, Report, Section};
pub use valueflow::{
    static_hints, value_flow_check, value_flow_check_with, ValueFlowCheckReport,
    ValueFlowViolation, ValueFlowViolationKind, MIN_EXECUTIONS, STRIDE_ACCURACY_FLOOR,
};
