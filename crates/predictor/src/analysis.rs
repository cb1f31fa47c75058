//! Per-static-load analysis: which loads carry the value locality.
//!
//! The paper observes that value locality is a *per-static-load*
//! phenomenon (Section 2) and that compiler transformations move it
//! around. This module profiles a trace into per-PC statistics so users
//! can see exactly which loads a predictor would capture — the kind of
//! report the paper's authors would have used to pick their examples.

use lvp_trace::{Trace, TraceEntry};
use std::collections::HashMap;

/// Statistics for one static load (one PC).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticLoadStats {
    /// The load's instruction address.
    pub pc: u64,
    /// Dynamic executions.
    pub count: u64,
    /// Executions whose value equalled the immediately previous one
    /// (depth-1 value locality numerator).
    pub repeats: u64,
    /// Number of distinct values observed, saturating at
    /// [`LoadProfiler::DISTINCT_CAP`].
    pub distinct_values: u32,
    /// Whether the load targets the FP register file.
    pub fp: bool,
}

impl StaticLoadStats {
    /// Depth-1 value locality of this static load, in `0..=1`.
    pub fn locality(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.repeats as f64 / self.count as f64
        }
    }

    /// Whether this load only ever produced a single value — a run-time
    /// constant in the paper's sense.
    pub fn is_constant(&self) -> bool {
        self.count > 0 && self.distinct_values == 1
    }
}

#[derive(Debug, Clone, Default)]
struct PcState {
    count: u64,
    repeats: u64,
    last: Option<u64>,
    distinct: Vec<u64>,
    fp: bool,
}

/// Streaming per-PC load profiler.
///
/// # Examples
///
/// ```
/// use lvp_predictor::LoadProfiler;
/// use lvp_trace::{MemAccess, OpKind, TraceEntry};
///
/// let mut profiler = LoadProfiler::new();
/// for _ in 0..10 {
///     let mut e = TraceEntry::simple(0x1000, OpKind::Load);
///     e.mem = Some(MemAccess { addr: 0x10_0000, width: 8, value: 7, fp: false });
///     profiler.observe(&e);
/// }
/// let report = profiler.report();
/// assert_eq!(report[0].count, 10);
/// assert!(report[0].is_constant());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LoadProfiler {
    loads: HashMap<u64, PcState>,
}

impl LoadProfiler {
    /// Distinct-value tracking saturates here (exact small-set tracking,
    /// then a saturated marker — enough to recognize constants and
    /// near-constants without unbounded memory).
    pub const DISTINCT_CAP: usize = 17;

    /// Creates an empty profiler.
    pub fn new() -> LoadProfiler {
        LoadProfiler::default()
    }

    /// Profiles an entire trace.
    pub fn profile(trace: &Trace) -> Vec<StaticLoadStats> {
        let mut p = LoadProfiler::new();
        for e in trace {
            p.observe(&e);
        }
        p.report()
    }

    /// Observes one trace entry (ignores non-loads).
    pub fn observe(&mut self, entry: &TraceEntry) {
        if !entry.is_load() {
            return;
        }
        let Some(mem) = entry.mem else { return };
        let s = self.loads.entry(entry.pc).or_default();
        s.count += 1;
        s.fp = mem.fp;
        if s.last == Some(mem.value) {
            s.repeats += 1;
        }
        s.last = Some(mem.value);
        if s.distinct.len() < Self::DISTINCT_CAP && !s.distinct.contains(&mem.value) {
            s.distinct.push(mem.value);
        }
    }

    /// Number of static loads observed.
    pub fn static_loads(&self) -> usize {
        self.loads.len()
    }

    /// Produces the per-PC report, sorted by descending dynamic count.
    pub fn report(&self) -> Vec<StaticLoadStats> {
        let mut out: Vec<StaticLoadStats> = self
            .loads
            .iter()
            .map(|(&pc, s)| StaticLoadStats {
                pc,
                count: s.count,
                repeats: s.repeats,
                distinct_values: s.distinct.len() as u32,
                fp: s.fp,
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.pc.cmp(&b.pc)));
        out
    }

    /// Fraction of dynamic loads covered by the `n` hottest static loads
    /// — how concentrated the load population is.
    pub fn coverage_of_top(&self, n: usize) -> f64 {
        let report = self.report();
        let total: u64 = report.iter().map(|s| s.count).sum();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = report.iter().take(n).map(|s| s.count).sum();
        top as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{MemAccess, OpKind};

    fn load(pc: u64, value: u64) -> TraceEntry {
        let mut e = TraceEntry::simple(pc, OpKind::Load);
        e.mem = Some(MemAccess {
            addr: 0x10_0000,
            width: 8,
            value,
            fp: false,
        });
        e
    }

    #[test]
    fn classifies_constant_and_varying_loads() {
        let mut p = LoadProfiler::new();
        for i in 0..100u64 {
            p.observe(&load(0x1000, 7)); // constant
            p.observe(&load(0x1004, i)); // always different
        }
        let report = p.report();
        assert_eq!(report.len(), 2);
        let constant = report.iter().find(|s| s.pc == 0x1000).unwrap();
        let varying = report.iter().find(|s| s.pc == 0x1004).unwrap();
        assert!(constant.is_constant());
        assert!((constant.locality() - 0.99).abs() < 1e-9);
        assert!(!varying.is_constant());
        assert!(varying.locality() < 0.01);
        assert_eq!(varying.distinct_values as usize, LoadProfiler::DISTINCT_CAP);
    }

    #[test]
    fn report_sorted_by_count() {
        let mut p = LoadProfiler::new();
        for _ in 0..5 {
            p.observe(&load(0x2000, 1));
        }
        for _ in 0..10 {
            p.observe(&load(0x2004, 2));
        }
        let report = p.report();
        assert_eq!(report[0].pc, 0x2004);
        assert_eq!(report[1].pc, 0x2000);
    }

    #[test]
    fn top_coverage() {
        let mut p = LoadProfiler::new();
        for _ in 0..90 {
            p.observe(&load(0x3000, 1));
        }
        for _ in 0..10 {
            p.observe(&load(0x3004, 2));
        }
        assert!((p.coverage_of_top(1) - 0.9).abs() < 1e-12);
        assert!((p.coverage_of_top(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler() {
        let p = LoadProfiler::new();
        assert_eq!(p.static_loads(), 0);
        assert_eq!(p.coverage_of_top(5), 0.0);
        assert!(p.report().is_empty());
    }
}
