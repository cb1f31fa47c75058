//! # lvp-predictor — the paper's contribution
//!
//! The Load Value Prediction unit of *Lipasti, Wilkerson & Shen, "Value
//! Locality and Load Value Prediction" (ASPLOS 1996)*, plus the
//! value-locality measurement machinery of its Section 2:
//!
//! * [`Lvpt`] — the Load Value Prediction Table (Section 3.1): untagged,
//!   direct-mapped value histories indexed by load PC;
//! * [`Lct`] — the Load Classification Table (Section 3.2): n-bit
//!   saturating counters classifying static loads as *unpredictable*,
//!   *predictable*, or *constant*;
//! * [`Cvu`] — the Constant Verification Unit (Section 3.3): a
//!   fully-associative CAM that keeps constant-certified LVPT entries
//!   coherent with memory, letting constant loads skip the cache entirely;
//! * [`LvpUnit`] — the composed unit (Section 3.4, Figure 3) that
//!   annotates traces with per-load [`lvp_trace::PredOutcome`]s;
//! * [`LvpConfig`] / [`presets`] — the paper's Table 2 configurations
//!   (Simple/Constant/Limit/Perfect) and the one typed builder for
//!   derived sweep points;
//! * [`Backend`] / [`PredictorKind`] — the predictor zoo (paper
//!   Section 6 future work): per-PC two-delta stride, order-4
//!   finite-context-method, store-to-load forwarding, and a
//!   confidence-arbitrated hybrid, all behind enum dispatch in the
//!   unit's hot path;
//! * [`LocalityMeter`] — the Figures 1 and 2 measurement: value locality
//!   at history depths 1 and 16, overall and by value class;
//! * [`StridePredictor`], [`BhrIndexedPredictor`] — two future-work
//!   predictors kept outside the zoo: the one-delta stride reference of
//!   the value-flow oracle and the branch-history-indexed value table,
//!   both reported by the predictor-family ablation.
//!
//! # Examples
//!
//! ```
//! use lvp_predictor::{presets, LvpUnit};
//! use lvp_trace::PredOutcome;
//!
//! // A load that alternates between two addresses of a lookup table.
//! let mut unit = LvpUnit::new(presets::simple());
//! for _ in 0..4 {
//!     unit.on_load(0x10040, 0x20_0000, 8, 0xdead);
//! }
//! assert!(unit.on_load(0x10040, 0x20_0000, 8, 0xdead).usable());
//! assert!(unit.stats().accuracy() > 0.99);
//! ```

mod backends;
mod bhr;
pub mod characterize;
mod config;
mod cvu;
mod hints;
mod index;
mod lct;
mod locality;
mod lvpt;
mod predictor;
pub mod presets;
mod stride;
mod unit;

pub use backends::{ContextBackend, HybridBackend, StoreToLoadBackend, TwoDeltaStrideBackend};
pub use bhr::BhrIndexedPredictor;
pub use config::{CvuConfig, LctConfig, LvpConfig, LvpConfigBuilder, LvptConfig};
pub use cvu::{Cvu, CvuVictim};
pub use hints::{HintTable, StaticHint, MAX_CONFIDENCE};
pub use lct::{Lct, LoadClass};
pub use locality::{AddressRanges, LocalityMeter, ValueClass};
pub use lvpt::Lvpt;
pub use predictor::{Backend, PredictorKind, UnknownPredictorKind};
pub use stride::{PredEval, StridePredictor};
pub use unit::{LvpStats, LvpUnit};
