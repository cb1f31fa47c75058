//! Two-level finite-context-method backend, order 4 by default.

use crate::index::{fnv1a, table_mask, word_index};

#[derive(Debug, Clone)]
struct Level1<const ORDER: usize> {
    /// Last `ORDER` values seen, newest first.
    recent: [u64; ORDER],
    seen: u8,
}

impl<const ORDER: usize> Default for Level1<ORDER> {
    fn default() -> Self {
        Level1 {
            recent: [0; ORDER],
            seen: 0,
        }
    }
}

impl<const ORDER: usize> Level1<ORDER> {
    #[inline]
    fn context_hash(&self) -> Option<u64> {
        ((self.seen as usize) >= ORDER).then(|| fnv1a(&self.recent))
    }

    #[inline]
    fn push(&mut self, value: u64) {
        self.recent.rotate_right(1);
        self.recent[0] = value;
        self.seen = (self.seen + 1).min(ORDER as u8);
    }
}

/// A two-level finite-context-method backend: level 1 (per load PC,
/// direct-mapped) keeps the last `ORDER` values; level 2 (shared,
/// hash-indexed) maps that value context to the value that followed it
/// last time. Catches arbitrary repeating value sequences — a pointer
/// walking a cyclic structure, a state machine's output — that neither
/// last-value nor stride prediction can express.
///
/// The zoo's [`crate::PredictorKind::Context`] runs the default order 4;
/// the predictor-family ablation runs order 2. Both levels index
/// through the shared `crate::index` helpers so a table-geometry
/// sweep means the same thing here as in the LVPT.
#[derive(Debug, Clone)]
pub struct ContextBackend<const ORDER: usize = 4> {
    level1: Vec<Level1<ORDER>>,
    l1_mask: usize,
    level2: Vec<Option<u64>>,
    l2_mask: usize,
}

impl<const ORDER: usize> ContextBackend<ORDER> {
    /// Level-2 slots per level-1 slot: the shared value table is larger
    /// than the per-PC context table so distinct contexts rarely clash.
    const L2_FACTOR: usize = 16;

    /// Creates a backend with `entries` level-1 slots (and
    /// `entries * 16` shared level-2 slots).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> ContextBackend<ORDER> {
        let l2_entries = entries * Self::L2_FACTOR;
        ContextBackend {
            level1: vec![Level1::default(); entries],
            l1_mask: table_mask(entries),
            level2: vec![None; l2_entries],
            l2_mask: table_mask(l2_entries),
        }
    }

    /// The (level-1) table index for a load at `pc`.
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        word_index(pc, self.l1_mask)
    }

    /// The predicted value for a load at `pc`: the value that followed
    /// the current context last time, if the context is warm.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        let ctx = self.level1[self.index(pc)].context_hash()?;
        self.level2[(ctx as usize) & self.l2_mask]
    }

    /// Trains with the verified value. Returns `true` when the value
    /// this slot would predict changed (the CVU invalidation trigger).
    pub fn train(&mut self, pc: u64, actual: u64) -> bool {
        let i = self.index(pc);
        let before = self.predict(pc);
        if let Some(ctx) = self.level1[i].context_hash() {
            self.level2[(ctx as usize) & self.l2_mask] = Some(actual);
        }
        self.level1[i].push(actual);
        before != self.predict(pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x1000;

    /// Correct predictions over `values`, predicting before training.
    fn correct<const ORDER: usize>(mut p: ContextBackend<ORDER>, values: &[u64]) -> u64 {
        let mut correct = 0;
        for &v in values {
            correct += (p.predict(PC) == Some(v)) as u64;
            p.train(PC, v);
        }
        correct
    }

    /// Correct predictions over `values` at orders 2 and 4.
    fn correct_at_both_orders(values: &[u64]) -> [u64; 2] {
        [
            correct(ContextBackend::<2>::new(64), values),
            correct(ContextBackend::<4>::new(64), values),
        ]
    }

    #[test]
    fn learns_periodic_pointer_chase() {
        // A pointer walking a 5-element cyclic list: strides are
        // irregular, but the sequence repeats exactly.
        let ring = [0x8000u64, 0x8040, 0x9000, 0x8020, 0xa000];
        let values: Vec<u64> = (0..200).map(|i| ring[i % ring.len()]).collect();
        for correct in correct_at_both_orders(&values) {
            assert!(correct > 180, "correct {correct}");
        }
    }

    #[test]
    fn handles_constants() {
        for correct in correct_at_both_orders(&[7u64; 100]) {
            assert!(correct > 90, "correct {correct}");
        }
    }

    #[test]
    fn cold_start_predicts_nothing() {
        assert_eq!(ContextBackend::<2>::new(64).predict(PC), None);
        assert_eq!(ContextBackend::<4>::new(64).predict(PC), None);
    }

    #[test]
    fn needs_order_4_warmup() {
        let mut p: ContextBackend = ContextBackend::new(64);
        for v in [1u64, 2, 3] {
            p.train(PC, v);
        }
        assert_eq!(p.predict(PC), None, "only 3 values seen");
        p.train(PC, 4);
        // Context warm but never seen before: still no level-2 value.
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn train_reports_prediction_changes() {
        let mut p: ContextBackend = ContextBackend::new(64);
        for v in [7u64, 7, 7, 7] {
            p.train(PC, v);
        }
        // Warm context, cold level 2: prediction appears on this train.
        assert!(p.train(PC, 7));
        // Stable constant: context and level-2 value both fixed.
        assert!(!p.train(PC, 7));
        // A new value rewrites the context, changing the prediction.
        assert!(p.train(PC, 9));
    }
}
