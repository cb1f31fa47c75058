//! The complete Load Value Prediction unit (paper Section 3.4, Figure 3).

use crate::config::LvpConfig;
use crate::cvu::{Cvu, CvuVictim};
use crate::hints::HintTable;
use crate::index::word_index;
use crate::lct::{Lct, LoadClass};
use crate::predictor::Backend;
use lvp_trace::{PredOutcome, Trace};
use std::collections::BTreeSet;

/// Counters gathered while simulating the LVP unit over a trace; these
/// feed the paper's Tables 3 (LCT hit rates) and 4 (constant
/// identification rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LvpStats {
    /// Total dynamic loads observed.
    pub loads: u64,
    /// Dynamic stores observed.
    pub stores: u64,
    /// Loads whose LVPT value would have verified correct (ground truth
    /// "predictable" in Table 3's sense).
    pub predictable: u64,
    /// Ground-truth predictable loads the LCT classified as predictable
    /// or constant (Table 3 "predictable hits").
    pub predictable_identified: u64,
    /// Ground-truth unpredictable loads the LCT classified as
    /// don't-predict (Table 3 "unpredictable hits").
    pub unpredictable_identified: u64,
    /// Loads for which a prediction was issued (classified predict or
    /// constant).
    pub predictions: u64,
    /// Issued predictions that verified correct (including CVU constants).
    pub correct: u64,
    /// Issued predictions that were wrong.
    pub incorrect: u64,
    /// Loads verified by the CVU, skipping the memory hierarchy
    /// (Table 4: "percentage decrease in required bandwidth to the L1").
    pub constants_verified: u64,
}

impl LvpStats {
    /// Ground-truth unpredictable loads.
    pub fn unpredictable(&self) -> u64 {
        self.loads - self.predictable
    }

    /// Fraction of unpredictable loads the LCT correctly flagged
    /// (Table 3, "unpredictable" columns).
    pub fn unpredictable_hit_rate(&self) -> f64 {
        ratio(self.unpredictable_identified, self.unpredictable())
    }

    /// Fraction of predictable loads the LCT correctly flagged
    /// (Table 3, "predictable" columns).
    pub fn predictable_hit_rate(&self) -> f64 {
        ratio(self.predictable_identified, self.predictable)
    }

    /// Fraction of all dynamic loads verified as constants by the CVU
    /// (Table 4).
    pub fn constant_rate(&self) -> f64 {
        ratio(self.constants_verified, self.loads)
    }

    /// Fraction of issued predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.predictions)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The LVP unit: a value-prediction [`Backend`] (the paper's [`crate::Lvpt`]
/// by default, or any other member of the predictor zoo selected by
/// [`LvpConfig::kind`]), an [`Lct`] to decide which loads to predict, and
/// a [`Cvu`] to verify constant loads without accessing the memory
/// hierarchy.
///
/// Drive it with [`LvpUnit::on_load`] / [`LvpUnit::on_store`] in program
/// order, or annotate a whole trace at once with
/// [`LvpUnit::annotate`]. This is phase 2 of the paper's framework: each
/// load is labelled with one of the four [`PredOutcome`] states that the
/// timing models then charge for.
///
/// # Examples
///
/// ```
/// use lvp_predictor::{presets, LvpUnit};
/// use lvp_trace::PredOutcome;
///
/// let mut unit = LvpUnit::new(presets::simple());
/// let pc = 0x10000;
/// let addr = 0x10_0000;
/// // A load that always sees 7 warms up from not-predicted to constant.
/// let mut last = PredOutcome::NotPredicted;
/// for _ in 0..8 {
///     last = unit.on_load(pc, addr, 8, 7);
/// }
/// assert_eq!(last, PredOutcome::Constant);
/// // A store to the same address forces the next one back to the memory
/// // hierarchy (CVU miss), though the prediction is still correct.
/// unit.on_store(addr, 8, 7);
/// assert_eq!(unit.on_load(pc, addr, 8, 7), PredOutcome::Correct);
/// ```
#[derive(Debug, Clone)]
pub struct LvpUnit {
    config: LvpConfig,
    backend: Backend,
    lct: Lct,
    cvu: Cvu,
    stats: LvpStats,
    /// Hinted pcs whose first execution has not happened yet: the one
    /// cold verification that would otherwise erase the LCT seed is
    /// treated as neutral for these.
    pending_hints: BTreeSet<u64>,
    /// How many of `pending_hints` fall in each bucket of a
    /// direct-mapped filter indexed by `word_index(pc)` (empty until
    /// hints are applied): a load whose bucket count is zero is not
    /// pending, without a search.
    pending_buckets: Vec<u32>,
}

/// Buckets of [`LvpUnit`]'s pending-hint filter.
const HINT_BUCKETS: usize = 4096;

impl LvpUnit {
    /// Creates an LVP unit in its cold state.
    pub fn new(config: LvpConfig) -> LvpUnit {
        LvpUnit {
            backend: Backend::new(&config),
            lct: Lct::new(config.lct),
            cvu: Cvu::new(config.cvu),
            stats: LvpStats::default(),
            pending_hints: BTreeSet::new(),
            pending_buckets: Vec::new(),
            config,
        }
    }

    /// Applies a static hint table before simulation: for every hinted
    /// pc, seed the LCT toward (never into) the predicting band, pin the
    /// hybrid arbiter's starting component, and arm the pc so its first
    /// cold verification does not erase the seed. Perfect (oracle)
    /// configurations ignore hints.
    pub fn apply_hints(&mut self, hints: &HintTable) {
        if self.config.perfect {
            return;
        }
        if self.pending_buckets.is_empty() {
            self.pending_buckets = vec![0; HINT_BUCKETS];
        }
        for h in hints.iter() {
            self.lct.seed(h.pc, h.confidence);
            self.backend.seed_hint(h.pc, h.kind, h.confidence);
            if self.pending_hints.insert(h.pc) {
                self.pending_buckets[word_index(h.pc, HINT_BUCKETS - 1)] += 1;
            }
        }
    }

    /// Whether this is the first execution of a hinted pc (and if so,
    /// disarms it). Out of line: `on_load` only calls it while some
    /// hinted pc is pending.
    #[inline(never)]
    fn take_pending_hint(&mut self, pc: u64) -> bool {
        let bucket = &mut self.pending_buckets[word_index(pc, HINT_BUCKETS - 1)];
        if *bucket == 0 || !self.pending_hints.remove(&pc) {
            return false;
        }
        *bucket -= 1;
        true
    }

    /// The configuration of this unit.
    pub fn config(&self) -> &LvpConfig {
        &self.config
    }

    /// The value-prediction backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The classification table.
    pub fn lct(&self) -> &Lct {
        &self.lct
    }

    /// The constant verification unit.
    pub fn cvu(&self) -> &Cvu {
        &self.cvu
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &LvpStats {
        &self.stats
    }

    /// Processes one dynamic load: produce the prediction outcome, then
    /// train the tables with the actual value.
    ///
    /// `value` must be the load's *register result* (sign/zero extended,
    /// raw bits for FP), because that is what the LVPT forwards to
    /// dependent instructions.
    pub fn on_load(&mut self, pc: u64, addr: u64, width: u8, value: u64) -> PredOutcome {
        self.stats.loads += 1;
        if self.config.perfect {
            // Oracle: all values predicted correctly, none constant.
            self.stats.predictable += 1;
            self.stats.predictable_identified += 1;
            self.stats.predictions += 1;
            self.stats.correct += 1;
            return PredOutcome::Correct;
        }

        let idx = self.backend.index(pc, addr);
        let would_be_correct = self.backend.would_predict_correctly(pc, addr, value);
        let class = self.lct.classify(pc);

        // Table 3 bookkeeping: how well does the LCT track ground truth?
        if would_be_correct {
            self.stats.predictable += 1;
            if class != LoadClass::DontPredict {
                self.stats.predictable_identified += 1;
            }
        } else if class == LoadClass::DontPredict {
            self.stats.unpredictable_identified += 1;
        }

        let outcome = match class {
            LoadClass::DontPredict => PredOutcome::NotPredicted,
            LoadClass::Predict => {
                self.stats.predictions += 1;
                if would_be_correct {
                    self.stats.correct += 1;
                    PredOutcome::Correct
                } else {
                    self.stats.incorrect += 1;
                    PredOutcome::Incorrect
                }
            }
            LoadClass::Constant => {
                self.stats.predictions += 1;
                if self.cvu.lookup(idx, addr) {
                    // The CVU guarantees coherence: a hit certifies the
                    // LVPT value matches memory.
                    debug_assert!(
                        would_be_correct,
                        "CVU coherence violated: certified value mismatch"
                    );
                    self.stats.correct += 1;
                    self.stats.constants_verified += 1;
                    PredOutcome::Constant
                } else if would_be_correct {
                    // Demoted to plain predictable: verified via memory;
                    // certify the (address, index) pair for next time.
                    self.cvu.insert(idx, addr, width);
                    self.stats.correct += 1;
                    PredOutcome::Correct
                } else {
                    self.stats.incorrect += 1;
                    PredOutcome::Incorrect
                }
            }
        };

        // Train: the LCT learns from this verification; the backend
        // records the actual value. If the backend's prediction for this
        // slot was displaced, any CVU entries certifying the slot are
        // stale. A hinted pc's first-ever (necessarily cold) incorrect
        // verification is neutral, so the static seed survives to its
        // first real chance.
        let first_hinted = !self.pending_hints.is_empty() && self.take_pending_hint(pc);
        if would_be_correct || !first_hinted {
            self.lct.update(pc, would_be_correct);
        }
        if self.backend.train(pc, addr, value) {
            self.cvu.invalidate_index(idx);
        }
        outcome
    }

    /// Processes one dynamic store: invalidate all matching CVU entries
    /// (the fully-associative store lookup of the paper's Figure 3) and
    /// feed the store to the backend (only the store-to-load backend
    /// learns from it). Returns the certifications the store's byte
    /// range destroyed, most recently used first; the slice is valid
    /// until the next store.
    pub fn on_store(&mut self, addr: u64, width: u8, value: u64) -> &[CvuVictim] {
        self.stats.stores += 1;
        self.cvu.invalidate_store(addr, width);
        // An aliasing store can change a slot's prediction without its
        // byte range overlapping the certified address; drop any
        // certifications for that slot too. These are not among the
        // returned entries.
        if let Some(idx) = self.backend.on_store(addr, width, value) {
            self.cvu.invalidate_index(idx);
        }
        self.cvu.store_victims()
    }

    /// Runs the unit over a whole trace in program order, returning one
    /// outcome per dynamic load — the annotated trace the timing models
    /// consume. This is the one annotation entry point; the per-entry
    /// loop decodes each entry by value and never allocates.
    pub fn annotate(&mut self, trace: &Trace) -> Vec<PredOutcome> {
        let mut outcomes = Vec::with_capacity(trace.stats().loads as usize);
        for entry in trace {
            if let Some(mem) = entry.mem {
                if entry.is_load() {
                    outcomes.push(self.on_load(entry.pc, mem.addr, mem.width, mem.value));
                } else {
                    self.on_store(mem.addr, mem.width, mem.value);
                }
            }
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use lvp_trace::{MemAccess, OpKind, TraceEntry};

    const PC: u64 = 0x10000;
    const ADDR: u64 = 0x10_0000;

    #[test]
    fn warmup_sequence_simple_config() {
        let mut u = LvpUnit::new(presets::simple());
        // Cold: no history, wrong "prediction", counter stays 0.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        // History now correct; counter walks 0 -> 1 -> 2.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        // Counter 2: predict, verified via memory; counter -> 3.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        // Counter 3: constant; first time misses the CVU (verified via
        // memory, inserted), after that CVU hits.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
        assert_eq!(u.stats().constants_verified, 1);
    }

    #[test]
    fn store_breaks_constant_certification() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
        u.on_store(ADDR, 8, 7);
        // CVU entry gone: falls back to memory verification.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        // Certification re-established.
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
    }

    #[test]
    fn store_changing_value_causes_misprediction() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        u.on_store(ADDR, 8, 99);
        // The stored value actually changed: the stale prediction is wrong,
        // and the CVU must NOT have certified it.
        assert_eq!(u.on_load(PC, ADDR, 8, 99), PredOutcome::Incorrect);
    }

    #[test]
    fn alternating_values_stay_unpredicted() {
        let mut u = LvpUnit::new(presets::simple());
        let mut outcomes = Vec::new();
        for i in 0..20 {
            outcomes.push(u.on_load(PC, ADDR, 8, i % 2));
        }
        // With depth-1 history every prediction would be wrong, so the LCT
        // must keep the load at don't-predict after the cold start.
        assert!(
            outcomes[2..]
                .iter()
                .all(|&o| o == PredOutcome::NotPredicted),
            "LCT failed to suppress an unpredictable load: {outcomes:?}"
        );
        assert!(u.stats().unpredictable_hit_rate() > 0.9);
    }

    #[test]
    fn limit_config_catches_alternating_values() {
        let mut u = LvpUnit::new(presets::limit());
        let mut last = PredOutcome::NotPredicted;
        for i in 0..20 {
            last = u.on_load(PC, ADDR, 8, i % 2);
        }
        // Both values live in the 16-deep history and perfect selection
        // picks the right one.
        assert!(
            last.usable(),
            "limit config should predict alternating values"
        );
    }

    #[test]
    fn perfect_config_is_oracle() {
        let mut u = LvpUnit::new(presets::perfect());
        for i in 0..50 {
            assert_eq!(u.on_load(PC, ADDR, 8, i * 1234567), PredOutcome::Correct);
        }
        assert_eq!(u.stats().accuracy(), 1.0);
        assert_eq!(u.stats().constants_verified, 0);
    }

    #[test]
    fn cvu_respects_partial_overlap_stores() {
        let mut u = LvpUnit::new(presets::simple());
        for _ in 0..6 {
            u.on_load(PC, ADDR, 8, 7);
        }
        // A byte store into the middle of the certified doubleword.
        u.on_store(ADDR + 3, 1, 0);
        assert_eq!(
            u.on_load(PC, ADDR, 8, 7),
            PredOutcome::Correct,
            "overlapping store must demote the constant to memory-verified"
        );
    }

    #[test]
    fn annotate_matches_manual_stepping() {
        // Loads of a value that a store changes halfway through: the trace
        // stays physically consistent (values only change via stores).
        let mut t = Trace::new();
        let value_at = |i: u64| 7 + (i / 5);
        for i in 0..10u64 {
            if i == 5 {
                let mut s = TraceEntry::simple(PC + 4, OpKind::Store);
                s.mem = Some(MemAccess {
                    addr: ADDR,
                    width: 8,
                    value: value_at(i),
                    fp: false,
                });
                t.push(s);
            }
            let mut e = TraceEntry::simple(PC, OpKind::Load);
            e.mem = Some(MemAccess {
                addr: ADDR,
                width: 8,
                value: value_at(i),
                fp: false,
            });
            t.push(e);
        }
        let mut u1 = LvpUnit::new(presets::simple());
        let annotated = u1.annotate(&t);
        let mut u2 = LvpUnit::new(presets::simple());
        let manual: Vec<_> = (0..10u64)
            .map(|i| {
                if i == 5 {
                    u2.on_store(ADDR, 8, value_at(i));
                }
                u2.on_load(PC, ADDR, 8, value_at(i))
            })
            .collect();
        assert_eq!(annotated, manual);
        assert_eq!(annotated.len(), 10);
    }

    #[test]
    fn stats_count_loads_and_stores() {
        let mut u = LvpUnit::new(presets::simple());
        u.on_load(PC, ADDR, 8, 1);
        u.on_store(ADDR, 8, 1);
        u.on_store(ADDR + 8, 8, 2);
        assert_eq!(u.stats().loads, 1);
        assert_eq!(u.stats().stores, 2);
    }

    #[test]
    fn event_log_records_invalidations_and_verifications() {
        let mut u = LvpUnit::new(presets::simple());
        let outcomes: Vec<_> = (0..7).map(|_| u.on_load(PC, ADDR, 8, 7)).collect();
        // Loads 6 and 7 were both CVU-verified.
        assert_eq!(outcomes[5..], [PredOutcome::Constant; 2]);
        // A store into the certified doubleword reports the entry it
        // destroyed.
        let victims = u.on_store(ADDR + 4, 4, 0).to_vec();
        assert_eq!(
            victims,
            [CvuVictim {
                source: u.backend().index(PC, ADDR),
                addr: ADDR,
                width: 8,
            }]
        );
        assert_eq!(u.cvu().invalidations(), 1);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Constant);
    }

    #[test]
    fn watched_log_filters_unrelated_addresses() {
        let other = ADDR + 0x100;
        let mut u = LvpUnit::new(presets::simple());
        let mut last = [PredOutcome::NotPredicted; 2];
        for _ in 0..7 {
            last = [u.on_load(PC, ADDR, 8, 7), u.on_load(PC + 4, other, 8, 9)];
        }
        assert_eq!(last, [PredOutcome::Constant; 2]);
        // Each store reports only the certification it overlaps.
        let hit: Vec<u64> = u.on_store(ADDR, 8, 7).iter().map(|v| v.addr).collect();
        assert_eq!(hit, [ADDR]);
        let hit: Vec<u64> = u.on_store(other, 8, 9).iter().map(|v| v.addr).collect();
        assert_eq!(hit, [other]);
        assert!(u.on_store(ADDR + 0x200, 8, 0).is_empty());
        // Stats still count every store.
        assert_eq!(u.stats().stores, 3);
    }

    #[test]
    fn store_returns_only_what_its_bytes_destroyed() {
        // Under store-to-load with 16 slots, a store 64 bytes away
        // aliases ADDR's slot: the slot invalidation drops ADDR's
        // certification, but the store's bytes overlap nothing.
        let config = presets::simple()
            .builder()
            .kind(crate::PredictorKind::StoreToLoad)
            .lvpt_entries(16)
            .build();
        let mut u = LvpUnit::new(config);
        u.on_store(ADDR, 8, 7);
        let outcomes: Vec<_> = (0..5).map(|_| u.on_load(PC, ADDR, 8, 7)).collect();
        assert_eq!(outcomes[4], PredOutcome::Constant);
        assert!(u.on_store(ADDR + 0x40, 8, 9).is_empty());
        assert!(u.cvu().is_empty(), "the slot invalidation still ran");
        assert_eq!(u.cvu().invalidations(), 0);
        // A store to ADDR itself that also changes the slot's value: the
        // snoop runs first, so the store reports the entry it overlaps.
        u.on_store(ADDR, 8, 7);
        let outcomes: Vec<_> = (0..3).map(|_| u.on_load(PC, ADDR, 8, 7)).collect();
        assert_eq!(outcomes[2], PredOutcome::Constant, "{outcomes:?}");
        let victims: Vec<u64> = u.on_store(ADDR, 8, 8).iter().map(|v| v.addr).collect();
        assert_eq!(victims, [ADDR]);
        assert_eq!(u.cvu().invalidations(), 1);
    }

    fn hint(pc: u64, kind: crate::PredictorKind, confidence: u8) -> crate::HintTable {
        crate::HintTable::new(vec![crate::StaticHint {
            pc,
            kind,
            confidence,
        }])
    }

    #[test]
    fn hints_shorten_warmup_without_cold_mispredictions() {
        // A constant load under the paper's Simple config: the hinted
        // unit reaches its first correct prediction strictly earlier,
        // and neither unit ever mispredicts.
        let run = |hinted: bool| {
            let mut u = LvpUnit::new(presets::simple());
            if hinted {
                u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
            }
            let mut first_correct = None;
            for i in 0..8 {
                if u.on_load(PC, ADDR, 8, 7) == PredOutcome::Correct && first_correct.is_none() {
                    first_correct = Some(i);
                }
            }
            assert_eq!(u.stats().incorrect, 0, "hinted={hinted}");
            first_correct.expect("constant load must eventually predict")
        };
        assert!(run(true) < run(false), "hint must shorten warm-up");
    }

    #[test]
    fn hints_never_predict_on_the_first_execution() {
        // Even a full-confidence hint must not issue a prediction from a
        // cold backend: the first outcome stays NotPredicted.
        let mut u = LvpUnit::new(presets::simple());
        u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::NotPredicted);
        assert_eq!(u.stats().predictions, 0);
    }

    #[test]
    fn hint_seed_survives_the_first_cold_miss() {
        // With the seed armed, the cold first execution is neutral, so
        // the second (first verifiable) execution already promotes; an
        // unhinted unit needs one more.
        let mut hinted = LvpUnit::new(presets::simple());
        hinted.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        let mut cold = LvpUnit::new(presets::simple());
        hinted.on_load(PC, ADDR, 8, 7);
        cold.on_load(PC, ADDR, 8, 7);
        assert!(hinted.lct().counter(PC) > cold.lct().counter(PC));
        // Only the *first* execution is shielded: later wrong
        // verifications demote the hinted unit like any other.
        hinted.on_load(PC, ADDR, 8, 9);
        hinted.on_load(PC, ADDR, 8, 7);
        assert_eq!(hinted.lct().counter(PC), 0);
    }

    #[test]
    fn perfect_config_ignores_hints() {
        let mut u = LvpUnit::new(presets::perfect());
        u.apply_hints(&hint(PC, crate::PredictorKind::LastValue, 15));
        assert_eq!(u.on_load(PC, ADDR, 8, 7), PredOutcome::Correct);
        assert_eq!(u.lct().counter(PC), 0, "perfect units skip the tables");
    }
}
