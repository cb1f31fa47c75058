//! Static predictor hints: per-load predictions carried from the static
//! value-flow analysis into the LVP unit.
//!
//! Each [`StaticHint`] names a load pc, the backend the static analysis
//! nominates for it, and a confidence in `0..=15`. Applying a table
//! ([`crate::LvpUnit::apply_hints`]) does two things:
//!
//! * seeds the LCT counter for the pc toward — but never into — the
//!   predicting band (a cold backend holds no value, so a hint must not
//!   cause a guaranteed first-execution misprediction), and arms the pc
//!   so its first cold verification does not erase the seed;
//! * pins the hybrid arbiter's starting component for the pc with a
//!   moderate confidence boost, so the nominated backend wins the first
//!   arbitrations and a wrong hint unlearns within a few loads.
//!
//! The table is built in memory from each program's value-flow report
//! and applied by the harness's hinted annotations, which only the
//! `ablation_hints` experiment requests.

use crate::predictor::PredictorKind;

/// Hint confidences live in `0..=15`, the same 4-bit scale as the
/// hybrid arbiter's selector counters.
pub const MAX_CONFIDENCE: u8 = 15;

/// One static hint: which backend should catch the load at `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticHint {
    /// Address of the load instruction.
    pub pc: u64,
    /// The backend the static analysis nominates.
    pub kind: PredictorKind,
    /// Confidence in `0..=15` (clamped on table construction).
    pub confidence: u8,
}

/// A hint table: sorted by pc, one hint per pc (first wins on
/// duplicates), confidences clamped to `0..=15`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintTable {
    hints: Vec<StaticHint>,
}

impl HintTable {
    /// Builds a table from arbitrary hints: clamps confidences, sorts by
    /// pc and keeps the first hint for each pc.
    pub fn new(mut hints: Vec<StaticHint>) -> HintTable {
        for h in &mut hints {
            h.confidence = h.confidence.min(MAX_CONFIDENCE);
        }
        hints.sort_by_key(|h| h.pc);
        hints.dedup_by_key(|h| h.pc);
        HintTable { hints }
    }

    /// The hint for the load at `pc`, if any.
    pub fn get(&self, pc: u64) -> Option<&StaticHint> {
        self.hints
            .binary_search_by_key(&pc, |h| h.pc)
            .ok()
            .map(|i| &self.hints[i])
    }

    /// Iterates the hints in pc order.
    pub fn iter(&self) -> impl Iterator<Item = &StaticHint> {
        self.hints.iter()
    }

    /// Number of hints.
    pub fn len(&self) -> usize {
        self.hints.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.hints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sorts_dedupes_and_clamps() {
        let t = HintTable::new(vec![
            StaticHint {
                pc: 8,
                kind: PredictorKind::Stride,
                confidence: 99,
            },
            StaticHint {
                pc: 4,
                kind: PredictorKind::Context,
                confidence: 3,
            },
            StaticHint {
                pc: 8,
                kind: PredictorKind::Hybrid,
                confidence: 1,
            },
        ]);
        assert_eq!(t.len(), 2);
        let pcs: Vec<u64> = t.iter().map(|h| h.pc).collect();
        assert_eq!(pcs, vec![4, 8]);
        let h8 = t.get(8).unwrap();
        assert_eq!(h8.kind, PredictorKind::Stride, "first hint for a pc wins");
        assert_eq!(h8.confidence, MAX_CONFIDENCE, "clamped");
        assert!(t.get(12).is_none());
    }
}
