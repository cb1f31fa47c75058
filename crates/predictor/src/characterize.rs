//! Workload characterization: per-load-PC predictability metrics.
//!
//! The paper's Figure 1 reports each benchmark's value locality as a
//! single number but never explains *why* a benchmark lands where it
//! does. This module computes the explanatory metrics, per static load
//! PC, in one streaming pass over a trace:
//!
//! * **value entropy** — Shannon entropy of the value distribution a PC
//!   loads (capped histogram; overflow values are counted as distinct
//!   singletons, biasing the estimate *up*, never down);
//! * **distinct-value working set** — how many different values the PC
//!   observes;
//! * **repeat rate** — the fraction of loads whose value equals the
//!   PC's previous value (exactly the paper's locality at depth 1);
//! * **stride coverage** — the fraction of the PC's loads a two-delta
//!   stride model (the PR-7 stride backend's rule: a delta becomes the
//!   committed stride once seen twice in a row) predicts correctly.
//!   Last-value prediction is the zero-stride special case, so stride
//!   coverage dominates repeat rate up to warm-up;
//! * **Simpson index** — the probability two independently drawn values
//!   collide, `Σ (cᵢ/n)²`: the ceiling on last-value accuracy for a
//!   history-free value distribution;
//! * **store-to-load feeding** — the fraction of the PC's loads whose
//!   address was previously stored to (same 8-byte-granular address),
//!   and the mean dynamic-instruction distance back to that store;
//! * **LCT-class stability** — a fresh 2-bit saturating counter is
//!   trained on last-value correctness in each trace half; a PC is
//!   *stable* when both halves converge to the same
//!   [`LoadClass`] (PCs alive in only one half are
//!   unstable by definition — they are phase behavior).
//!
//! The per-benchmark aggregate is the load-weighted **predictability
//! score** `max(stride coverage, Simpson)`, which the harness
//! rank-correlates against the measured Figure-1 locality numbers: the
//! metrics must *explain* the measurement, not restate it.

use crate::lct::LoadClass;
use lvp_trace::{MemAccess, OpKind, Trace, TraceEntry};
use std::collections::HashMap;

/// Maximum distinct values tracked per PC before the histogram stops
/// growing and further unseen values are counted as distinct singletons.
pub const HISTOGRAM_CAP: usize = 4096;

/// Per-PC streaming state.
#[derive(Debug, Default)]
struct PcState {
    count: u64,
    fp: bool,
    hist: HashMap<u64, u64>,
    overflow: u64,
    // Sequence state for repeat / two-delta stride.
    last: u64,
    has_last: bool,
    last_delta: i64,
    has_delta: bool,
    stride: i64,
    has_stride: bool,
    repeat_hits: u64,
    stride_hits: u64,
    // Store-to-load feeding.
    fed: u64,
    feed_dist_sum: u64,
    // Per-half 2-bit counters trained on last-value correctness.
    ctr: [u8; 2],
    seen_half: [bool; 2],
}

impl PcState {
    fn classify(c: u8) -> LoadClass {
        match c {
            3 => LoadClass::Constant,
            2 => LoadClass::Predict,
            _ => LoadClass::DontPredict,
        }
    }

    fn stable(&self) -> bool {
        self.seen_half[0]
            && self.seen_half[1]
            && Self::classify(self.ctr[0]) == Self::classify(self.ctr[1])
    }
}

/// Metrics for one static load PC.
#[derive(Debug, Clone, PartialEq)]
pub struct PcMetrics {
    /// The load instruction's address.
    pub pc: u64,
    /// Dynamic executions of this load.
    pub count: u64,
    /// Whether the PC loads floating-point data.
    pub fp: bool,
    /// Distinct values observed (working-set size; exact up to
    /// [`HISTOGRAM_CAP`], an upper estimate beyond).
    pub distinct: u64,
    /// Shannon entropy of the value distribution, in bits.
    pub entropy_bits: f64,
    /// Fraction of loads whose value equals the previous value
    /// (locality at history depth 1).
    pub repeat_rate: f64,
    /// Fraction of loads a two-delta stride model predicts correctly.
    pub stride_coverage: f64,
    /// Probability two independently drawn values collide (`Σ pᵢ²`).
    pub simpson: f64,
    /// Fraction of loads whose address was stored to earlier in the
    /// trace.
    pub fed_fraction: f64,
    /// Mean dynamic-instruction distance from a fed load back to the
    /// feeding store (0 when nothing is fed).
    pub mean_feed_distance: f64,
    /// Whether both trace halves converge to the same LCT class.
    pub stable: bool,
    /// Predictability score: `max(stride_coverage, simpson)`.
    pub score: f64,
}

/// Load-weighted aggregate over all load PCs of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Total dynamic instructions observed.
    pub instructions: u64,
    /// Total dynamic loads.
    pub loads: u64,
    /// Total dynamic stores.
    pub stores: u64,
    /// Number of static load PCs.
    pub load_pcs: u64,
    /// Load-weighted mean value entropy, bits.
    pub entropy_bits: f64,
    /// Load-weighted mean distinct-value working-set size.
    pub mean_working_set: f64,
    /// Overall repeat rate (repeats / loads) — locality at depth 1.
    pub repeat_rate: f64,
    /// Overall two-delta stride coverage (hits / loads).
    pub stride_coverage: f64,
    /// Load-weighted mean Simpson index.
    pub simpson: f64,
    /// Fraction of loads fed by an earlier store to the same address.
    pub fed_fraction: f64,
    /// Mean feed distance over fed loads, dynamic instructions.
    pub mean_feed_distance: f64,
    /// Fraction of loads at PCs whose LCT class is stable across
    /// halves.
    pub class_stability: f64,
    /// Load-weighted mean predictability score.
    pub score: f64,
}

/// A finished characterization: the aggregate plus per-PC detail
/// (sorted by execution count, heaviest first).
#[derive(Debug, Clone, Default)]
pub struct Characterization {
    /// The load-weighted aggregate.
    pub summary: Summary,
    /// Per-PC metrics, heaviest PCs first.
    pub pcs: Vec<PcMetrics>,
}

/// One-pass streaming characterizer. Feed every trace entry (loads
/// drive the value metrics, stores drive the feed map, everything
/// advances the instruction index), then call [`finish`].
///
/// `total_entries` must be the number of entries that will be observed;
/// it fixes the half-way point for the class-stability metric.
///
/// [`finish`]: Characterizer::finish
///
/// # Examples
///
/// ```
/// use lvp_predictor::characterize::Characterizer;
/// use lvp_trace::{MemAccess, OpKind, TraceEntry};
///
/// let mut c = Characterizer::new(4);
/// for i in 0..4u64 {
///     let mut e = TraceEntry::simple(0x1000, OpKind::Load);
///     e.mem = Some(MemAccess { addr: 0x10_0000, width: 8, value: 7, fp: false });
///     c.observe(&e);
/// }
/// let report = c.finish();
/// assert_eq!(report.summary.loads, 4);
/// assert!(report.summary.repeat_rate > 0.7);
/// ```
#[derive(Debug)]
pub struct Characterizer {
    total_entries: u64,
    index: u64,
    stores: u64,
    per_pc: HashMap<u64, PcState>,
    last_store: HashMap<u64, u64>,
}

impl Characterizer {
    /// Creates a characterizer for a trace of `total_entries` entries.
    pub fn new(total_entries: u64) -> Characterizer {
        Characterizer {
            total_entries,
            index: 0,
            stores: 0,
            per_pc: HashMap::new(),
            last_store: HashMap::new(),
        }
    }

    /// Characterizes a fully materialized trace in one call.
    pub fn from_trace(trace: &Trace) -> Characterization {
        let mut c = Characterizer::new(trace.len() as u64);
        for e in trace {
            c.observe(&e);
        }
        c.finish()
    }

    /// Feeds one trace entry.
    ///
    /// Inlined so that a caller walking a trace by value hands on the
    /// fields it decoded instead of spilling the whole entry.
    #[inline]
    pub fn observe(&mut self, e: &TraceEntry) {
        let index = self.index;
        self.index += 1;
        match (e.kind, e.mem) {
            (OpKind::Store, mem) => self.observe_store(index, mem),
            (OpKind::Load, Some(mem)) => self.observe_load(index, e.pc, mem),
            _ => {}
        }
    }

    fn observe_store(&mut self, index: u64, mem: Option<MemAccess>) {
        self.stores += 1;
        if let Some(mem) = mem {
            self.last_store.insert(mem.addr & !7, index);
        }
    }

    fn observe_load(&mut self, index: u64, pc: u64, mem: MemAccess) {
        let half = usize::from(2 * index >= self.total_entries);
        let st = self.per_pc.entry(pc).or_default();
        st.count += 1;
        st.fp |= mem.fp;
        st.seen_half[half] = true;

        // Value histogram (capped; overflow counted distinct).
        if let Some(n) = st.hist.get_mut(&mem.value) {
            *n += 1;
        } else if st.hist.len() < HISTOGRAM_CAP {
            st.hist.insert(mem.value, 1);
        } else {
            st.overflow += 1;
        }

        // Repeat / two-delta stride, and the per-half counter
        // trained on last-value correctness.
        if st.has_last {
            let correct = mem.value == st.last;
            st.repeat_hits += correct as u64;
            let c = &mut st.ctr[half];
            if correct {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
            if st.has_stride && st.last.wrapping_add(st.stride as u64) == mem.value {
                st.stride_hits += 1;
            }
            let delta = mem.value.wrapping_sub(st.last) as i64;
            if st.has_delta && delta == st.last_delta {
                st.stride = delta;
                st.has_stride = true;
            }
            st.last_delta = delta;
            st.has_delta = true;
        }
        st.last = mem.value;
        st.has_last = true;

        // Store-to-load feeding.
        if let Some(&si) = self.last_store.get(&(mem.addr & !7)) {
            st.fed += 1;
            st.feed_dist_sum += index - si;
        }
    }

    /// Finalizes the metrics.
    pub fn finish(self) -> Characterization {
        let mut pcs: Vec<PcMetrics> = Vec::with_capacity(self.per_pc.len());
        let mut total = Summary {
            instructions: self.index,
            stores: self.stores,
            ..Summary::default()
        };
        let (mut fed, mut feed_sum, mut stable_loads) = (0u64, 0u64, 0u64);
        let (mut repeat_hits, mut stride_hits) = (0u64, 0u64);
        // Floating-point sums depend on their order, and a `HashMap`'s
        // order on its random seed: accumulate over pcs ascending, and
        // each histogram over values ascending.
        let mut per_pc: Vec<(&u64, &PcState)> = self.per_pc.iter().collect();
        per_pc.sort_unstable_by_key(|&(&pc, _)| pc);
        for (&pc, st) in per_pc {
            let n = st.count;
            let nf = n as f64;
            let distinct = st.hist.len() as u64 + st.overflow;
            let mut entropy = 0.0f64;
            let mut simpson = 0.0f64;
            let mut hist: Vec<(&u64, &u64)> = st.hist.iter().collect();
            hist.sort_unstable_by_key(|&(&value, _)| value);
            for (_, &c) in hist {
                let p = c as f64 / nf;
                entropy -= p * p.log2();
                simpson += p * p;
            }
            if st.overflow > 0 {
                // Overflow values counted as distinct singletons.
                entropy += (st.overflow as f64 / nf) * nf.log2();
                simpson += st.overflow as f64 / (nf * nf);
            }
            let stride_coverage = st.stride_hits as f64 / nf;
            let m = PcMetrics {
                pc,
                count: n,
                fp: st.fp,
                distinct,
                entropy_bits: entropy,
                repeat_rate: st.repeat_hits as f64 / nf,
                stride_coverage,
                simpson,
                fed_fraction: st.fed as f64 / nf,
                mean_feed_distance: st.feed_dist_sum as f64 / (st.fed.max(1)) as f64,
                stable: st.stable(),
                score: stride_coverage.max(simpson),
            };
            total.loads += n;
            total.entropy_bits += nf * m.entropy_bits;
            total.mean_working_set += nf * distinct as f64;
            total.simpson += nf * m.simpson;
            total.score += nf * m.score;
            repeat_hits += st.repeat_hits;
            stride_hits += st.stride_hits;
            fed += st.fed;
            feed_sum += st.feed_dist_sum;
            if m.stable {
                stable_loads += n;
            }
            pcs.push(m);
        }
        pcs.sort_by(|a, b| b.count.cmp(&a.count).then(a.pc.cmp(&b.pc)));
        let loads = total.loads.max(1) as f64;
        total.load_pcs = pcs.len() as u64;
        total.entropy_bits /= loads;
        total.mean_working_set /= loads;
        total.simpson /= loads;
        total.score /= loads;
        total.repeat_rate = repeat_hits as f64 / loads;
        total.stride_coverage = stride_hits as f64 / loads;
        total.fed_fraction = fed as f64 / loads;
        total.mean_feed_distance = feed_sum as f64 / fed.max(1) as f64;
        total.class_stability = stable_loads as f64 / loads;
        Characterization {
            summary: total,
            pcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::MemAccess;

    fn load(pc: u64, addr: u64, value: u64) -> TraceEntry {
        let mut e = TraceEntry::simple(pc, OpKind::Load);
        e.mem = Some(MemAccess {
            addr,
            width: 8,
            value,
            fp: false,
        });
        e
    }

    fn store(pc: u64, addr: u64, value: u64) -> TraceEntry {
        let mut e = TraceEntry::simple(pc, OpKind::Store);
        e.mem = Some(MemAccess {
            addr,
            width: 8,
            value,
            fp: false,
        });
        e
    }

    fn characterize(entries: &[TraceEntry]) -> Characterization {
        let mut c = Characterizer::new(entries.len() as u64);
        for e in entries {
            c.observe(e);
        }
        c.finish()
    }

    #[test]
    fn constant_load_is_maximally_predictable() {
        let entries: Vec<_> = (0..64).map(|_| load(0x1000, 0x10_0000, 42)).collect();
        let r = characterize(&entries);
        let pc = &r.pcs[0];
        assert_eq!(pc.distinct, 1);
        assert_eq!(pc.entropy_bits, 0.0);
        assert!(pc.repeat_rate > 0.95);
        assert!(pc.simpson > 0.99);
        assert!(pc.stable, "constant in both halves");
        assert!(r.summary.score > 0.9);
    }

    #[test]
    fn stride_ramp_has_high_stride_low_repeat() {
        let entries: Vec<_> = (0..64u64).map(|i| load(0x1000, 0x10_0000, 8 * i)).collect();
        let r = characterize(&entries);
        let pc = &r.pcs[0];
        assert_eq!(pc.distinct, 64);
        assert_eq!(pc.repeat_rate, 0.0);
        assert!(pc.stride_coverage > 0.9, "ramp is two-delta covered");
        assert!(pc.simpson < 0.05);
        assert!(pc.score > 0.9);
    }

    #[test]
    fn unique_values_have_log_n_entropy() {
        let n = 256u64;
        let entries: Vec<_> = (0..n)
            .map(|i| load(0x1000, 0x10_0000, i.wrapping_mul(0x9E37_79B9) ^ (i << 40)))
            .collect();
        let r = characterize(&entries);
        let pc = &r.pcs[0];
        assert_eq!(pc.distinct, n);
        assert!((pc.entropy_bits - (n as f64).log2()).abs() < 1e-9);
    }

    #[test]
    fn fed_loads_measure_distance_to_store() {
        // store at index 0, loads at 2 and 4 read the stored address.
        let entries = vec![
            store(0x2000, 0x10_0000, 7),
            TraceEntry::simple(0x2004, OpKind::IntSimple),
            load(0x2008, 0x10_0000, 7),
            TraceEntry::simple(0x200c, OpKind::IntSimple),
            load(0x2008, 0x10_0000, 7),
        ];
        let r = characterize(&entries);
        let pc = &r.pcs[0];
        assert_eq!(pc.fed_fraction, 1.0);
        assert_eq!(pc.mean_feed_distance, 3.0); // (2-0) and (4-0) averaged
        assert_eq!(r.summary.stores, 1);
    }

    #[test]
    fn unfed_loads_have_zero_fed_fraction() {
        let entries: Vec<_> = (0..8).map(|_| load(0x1000, 0x10_0000, 1)).collect();
        let r = characterize(&entries);
        assert_eq!(r.pcs[0].fed_fraction, 0.0);
        assert_eq!(r.pcs[0].mean_feed_distance, 0.0);
    }

    #[test]
    fn phase_change_is_unstable() {
        // Constant 1 in the first half, alternating noise in the second:
        // the two halves converge to different classes.
        let mut entries: Vec<_> = (0..32).map(|_| load(0x1000, 0x10_0000, 1)).collect();
        entries.extend((0..32u64).map(|i| load(0x1000, 0x10_0000, i * 17 + 2)));
        let r = characterize(&entries);
        assert!(!r.pcs[0].stable, "class flips across halves");
        assert_eq!(r.summary.class_stability, 0.0);
    }

    #[test]
    fn single_half_pc_is_unstable() {
        let mut entries: Vec<_> = (0..16).map(|_| load(0x1000, 0x10_0000, 1)).collect();
        entries.extend((0..16).map(|_| load(0x2000, 0x10_0000, 1)));
        let r = characterize(&entries);
        assert!(r.pcs.iter().all(|p| !p.stable));
    }

    #[test]
    fn summary_is_load_weighted() {
        // 48 constant loads at one pc, 16 unique-value loads at another:
        // aggregate score must sit closer to the constant pc's.
        let mut entries: Vec<_> = (0..48).map(|_| load(0x1000, 0x10_0000, 5)).collect();
        entries.extend((0..16u64).map(|i| load(0x2000, 0x10_0000, i ^ 0xABCD_0000)));
        let r = characterize(&entries);
        assert_eq!(r.summary.loads, 64);
        assert_eq!(r.summary.load_pcs, 2);
        assert!(r.summary.score > 0.5);
        assert_eq!(r.pcs[0].pc, 0x1000, "heaviest pc first");
    }

    /// Every `f64` of a characterization, as bits.
    fn float_bits(c: &Characterization) -> Vec<u64> {
        let s = &c.summary;
        let mut bits: Vec<u64> = [
            s.entropy_bits,
            s.mean_working_set,
            s.repeat_rate,
            s.stride_coverage,
            s.simpson,
            s.fed_fraction,
            s.mean_feed_distance,
            s.class_stability,
            s.score,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect();
        for p in &c.pcs {
            bits.extend(
                [
                    p.entropy_bits,
                    p.repeat_rate,
                    p.stride_coverage,
                    p.simpson,
                    p.fed_fraction,
                    p.mean_feed_distance,
                    p.score,
                ]
                .iter()
                .map(|x| x.to_bits()),
            );
        }
        bits
    }

    #[test]
    fn characterizing_twice_gives_identical_bits() {
        // Hundreds of distinct values per pc at skewed counts: summed in
        // different orders, the entropy and Simpson sums round
        // differently, so each sum's order must not come from a hash
        // map's random seed.
        let mut rng = lvp_trace::rng::Lcg::new(11);
        let entries: Vec<_> = (0..20_000u64)
            .map(|i| {
                let spread = 1 + rng.below(700);
                load(
                    0x1000 + 4 * (i % 13),
                    0x10_0000 + 8 * (i % 97),
                    rng.below(spread),
                )
            })
            .collect();
        let mut t = Trace::new();
        for e in &entries {
            t.push(*e);
        }
        let first = Characterizer::from_trace(&t);
        for _ in 0..4 {
            assert_eq!(
                float_bits(&Characterizer::from_trace(&t)),
                float_bits(&first)
            );
        }
    }

    #[test]
    fn from_trace_matches_streaming() {
        let entries: Vec<_> = (0..32u64)
            .map(|i| load(0x1000 + 8 * (i % 3), 0x10_0000 + 8 * i, i * i))
            .collect();
        let streamed = characterize(&entries);
        let mut t = Trace::new();
        for e in &entries {
            t.push(*e);
        }
        let direct = Characterizer::from_trace(&t);
        assert_eq!(streamed.pcs, direct.pcs);
        assert_eq!(streamed.summary, direct.summary);
    }
}
