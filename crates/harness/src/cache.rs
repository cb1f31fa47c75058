//! Content-keyed caches shared by every experiment in a process.
//!
//! Three layers, one per pipeline phase:
//!
//! * **traces** — keyed by `(workload, profile, opt level)`; each trace
//!   is generated exactly once per process no matter how many
//!   experiments consume it.
//! * **annotations** — keyed by `(trace key, config content, hinted)`.
//!   The key uses the configuration's *content* (table geometries,
//!   counter widths, oracle bit), never its display name, so
//!   differently-named but identical configs share one annotation pass;
//!   the `hinted` flag separates static-hint-seeded passes from cold
//!   ones (see [`Ctx::annotation_with_hints`](crate::Ctx)).
//! * **timings** — keyed by `(trace key, config content, machine
//!   content)`; a `(trace, outcomes, machine)` simulation shared by e.g.
//!   `fig6`, `fig9` and `table6` runs once. Timings always use cold
//!   annotations.
//!
//! Concurrent requests for the same key block on a per-key
//! [`OnceLock`]: the first requester computes, the rest wait and share
//! the `Arc`'d result. Hit/computed counters are exposed through
//! [`EngineStats`].

use crate::crosscheck::CrossCheckReport;
use crate::error::HarnessError;
use crate::valueflow::ValueFlowCheckReport;
use lvp_isa::AsmProfile;
use lvp_lang::OptLevel;
use lvp_predictor::characterize::Characterization;
use lvp_predictor::{LvpConfig, LvpStats, PredictorKind};
use lvp_trace::PredOutcome;
use lvp_uarch::SimResult;
use lvp_workloads::WorkloadRun;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for one generated trace.
pub(crate) type TraceKey = (&'static str, AsmProfile, OptLevel);

/// Content key for an LVP configuration: everything *except* the display
/// name.
pub(crate) type ConfigKey = (PredictorKind, usize, usize, bool, usize, u8, usize, bool);

/// Derives the content key of a configuration.
pub(crate) fn config_key(c: &LvpConfig) -> ConfigKey {
    (
        c.kind,
        c.lvpt.entries,
        c.lvpt.history_depth,
        c.lvpt.perfect_selection,
        c.lct.entries,
        c.lct.counter_bits,
        c.cvu.entries,
        c.perfect,
    )
}

/// The phase-2 result for one `(trace, config)` pair: the per-load
/// prediction outcomes plus the LVP unit's statistics.
#[derive(Debug)]
pub struct Annotation {
    /// One outcome per dynamic load, in trace order.
    pub outcomes: Vec<PredOutcome>,
    /// The unit's counters after the full pass.
    pub stats: LvpStats,
}

/// Snapshot of the engine's cache counters.
///
/// `*_computed` counts cache misses (the work actually performed);
/// `*_hits` counts requests served from an already-computed entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traces generated (phase-1 runs performed).
    pub traces_computed: u64,
    /// Trace requests served from the in-memory cache.
    pub trace_hits: u64,
    /// Always 0: the persistent disk trace cache it counted is gone
    /// (DESIGN.md §6.2). The field stays because
    /// `perfbench/src/main.rs` reads it and `perfbench/expected/*.json`
    /// pins it at 0; removing it belongs with a change to that
    /// benchmark.
    pub traces_disk_hit: u64,
    /// Annotation passes performed.
    pub annotations_computed: u64,
    /// Annotation requests served from cache.
    pub annotation_hits: u64,
    /// Timing simulations performed.
    pub timings_computed: u64,
    /// Timing requests served from cache.
    pub timing_hits: u64,
    /// Static/dynamic cross-checks performed.
    pub crosschecks_computed: u64,
    /// Cross-check requests served from cache.
    pub crosscheck_hits: u64,
    /// Value-flow cross-checks performed.
    pub value_flows_computed: u64,
    /// Value-flow cross-check requests served from cache.
    pub value_flow_hits: u64,
    /// Workload characterizations performed.
    pub characterizations_computed: u64,
    /// Characterization requests served from cache.
    pub characterization_hits: u64,
    /// Wall nanoseconds spent generating traces (phase 1, cache misses
    /// only).
    pub trace_ns: u64,
    /// Wall nanoseconds spent in LVP annotation passes (phase 2).
    pub annotate_ns: u64,
    /// Wall nanoseconds spent in timing simulations (phase 3).
    pub timing_ns: u64,
    /// Wall nanoseconds spent in static/dynamic cross-checks.
    pub crosscheck_ns: u64,
    /// Wall nanoseconds spent in value-flow cross-checks.
    pub value_flow_ns: u64,
    /// Wall nanoseconds spent characterizing workloads.
    pub characterize_ns: u64,
}

impl EngineStats {
    /// Sum of the per-stage wall-time counters, in nanoseconds.
    ///
    /// This is *work* time summed across workers, not elapsed time: with
    /// N threads busy it accumulates up to N ns per wall nanosecond.
    pub fn total_stage_ns(&self) -> u64 {
        self.trace_ns
            + self.annotate_ns
            + self.timing_ns
            + self.crosscheck_ns
            + self.value_flow_ns
            + self.characterize_ns
    }
}

/// A per-key slot; the `OnceLock` makes concurrent first requests block
/// until the single computation finishes.
type Slot<V> = Arc<OnceLock<Result<Arc<V>, HarnessError>>>;

/// Generic keyed once-cache with hit accounting.
pub(crate) struct KeyedCache<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    computed: AtomicU64,
    hits: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> KeyedCache<K, V> {
    pub(crate) fn new() -> KeyedCache<K, V> {
        KeyedCache {
            slots: Mutex::new(HashMap::new()),
            computed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Returns the cached value for `key`, computing it with `f` exactly
    /// once per process (errors are cached too, so a failing workload is
    /// not re-run by every consumer).
    pub(crate) fn get_or_compute(
        &self,
        key: K,
        f: impl FnOnce() -> Result<V, HarnessError>,
    ) -> Result<Arc<V>, HarnessError> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache poisoned");
            slots.entry(key).or_default().clone()
        };
        // Only the thread that runs the closure counts a computation;
        // everyone else (including blocked concurrent requesters) counts
        // a hit.
        let mut computed_here = false;
        let out = slot.get_or_init(|| {
            computed_here = true;
            f().map(Arc::new)
        });
        if computed_here {
            self.computed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        out.clone()
    }

    pub(crate) fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Sums `f` over the values cached so far; a slot still computing,
    /// or holding an error, adds nothing.
    pub(crate) fn sum_values(&self, f: impl Fn(&V) -> u64) -> u64 {
        let slots = self.slots.lock().expect("cache poisoned");
        slots
            .values()
            .filter_map(|slot| slot.get()?.as_deref().ok())
            .map(f)
            .sum()
    }
}

/// The engine's cache layers and per-stage wall-time counters.
pub(crate) struct Cache {
    pub(crate) traces: KeyedCache<TraceKey, WorkloadRun>,
    pub(crate) annotations: KeyedCache<(TraceKey, ConfigKey, bool), Annotation>,
    pub(crate) timings: KeyedCache<(TraceKey, Option<ConfigKey>, String), SimResult>,
    pub(crate) crosschecks: KeyedCache<(TraceKey, ConfigKey), CrossCheckReport>,
    pub(crate) value_flows: KeyedCache<TraceKey, ValueFlowCheckReport>,
    pub(crate) characterizations: KeyedCache<TraceKey, Characterization>,
    /// Wall nanoseconds spent per stage (cache misses only).
    pub(crate) trace_ns: AtomicU64,
    pub(crate) annotate_ns: AtomicU64,
    pub(crate) timing_ns: AtomicU64,
    pub(crate) crosscheck_ns: AtomicU64,
    pub(crate) value_flow_ns: AtomicU64,
    pub(crate) characterize_ns: AtomicU64,
}

impl Cache {
    pub(crate) fn new() -> Cache {
        Cache {
            traces: KeyedCache::new(),
            annotations: KeyedCache::new(),
            timings: KeyedCache::new(),
            crosschecks: KeyedCache::new(),
            value_flows: KeyedCache::new(),
            characterizations: KeyedCache::new(),
            trace_ns: AtomicU64::new(0),
            annotate_ns: AtomicU64::new(0),
            timing_ns: AtomicU64::new(0),
            crosscheck_ns: AtomicU64::new(0),
            value_flow_ns: AtomicU64::new(0),
            characterize_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn stats(&self) -> EngineStats {
        EngineStats {
            traces_computed: self.traces.computed(),
            trace_hits: self.traces.hits(),
            traces_disk_hit: 0,
            annotations_computed: self.annotations.computed(),
            annotation_hits: self.annotations.hits(),
            timings_computed: self.timings.computed(),
            timing_hits: self.timings.hits(),
            crosschecks_computed: self.crosschecks.computed(),
            crosscheck_hits: self.crosschecks.hits(),
            value_flows_computed: self.value_flows.computed(),
            value_flow_hits: self.value_flows.hits(),
            characterizations_computed: self.characterizations.computed(),
            characterization_hits: self.characterizations.hits(),
            trace_ns: self.trace_ns.load(Ordering::Relaxed),
            annotate_ns: self.annotate_ns.load(Ordering::Relaxed),
            timing_ns: self.timing_ns.load(Ordering::Relaxed),
            crosscheck_ns: self.crosscheck_ns.load(Ordering::Relaxed),
            value_flow_ns: self.value_flow_ns.load(Ordering::Relaxed),
            characterize_ns: self.characterize_ns.load(Ordering::Relaxed),
        }
    }

    /// Bytes held by the cached traces (`Trace::heap_bytes`).
    pub(crate) fn trace_bytes(&self) -> u64 {
        self.traces.sum_values(|run| run.trace.heap_bytes() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Phase;
    use lvp_predictor::presets;

    #[test]
    fn computes_once_then_hits() {
        let cache: KeyedCache<u32, u32> = KeyedCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache
                .get_or_compute(7, || {
                    calls += 1;
                    Ok(41 + calls)
                })
                .unwrap();
            assert_eq!(*v, 42);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn errors_are_cached_and_shared() {
        let cache: KeyedCache<u32, u32> = KeyedCache::new();
        let mut calls = 0;
        for _ in 0..2 {
            let e = cache
                .get_or_compute(1, || {
                    calls += 1;
                    Err(HarnessError::new(Phase::Trace, "w", "boom"))
                })
                .unwrap_err();
            assert_eq!(e.message, "boom");
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn concurrent_requests_compute_exactly_once() {
        let cache: KeyedCache<u32, u64> = KeyedCache::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = cache.get_or_compute(0, || Ok(99)).unwrap();
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(cache.computed(), 1);
        assert_eq!(cache.hits(), 7);
    }

    #[test]
    fn config_key_ignores_name() {
        let a = presets::simple();
        let b = presets::simple().builder().named("renamed").build();
        assert_eq!(config_key(&a), config_key(&b));
        let c = presets::simple().builder().lvpt_entries(4096).build();
        assert_ne!(config_key(&a), config_key(&c));
        let d = presets::simple()
            .builder()
            .kind(PredictorKind::Hybrid)
            .build();
        assert_ne!(config_key(&a), config_key(&d), "kind is part of the key");
    }
}
