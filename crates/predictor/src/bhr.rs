//! The branch-history-indexed value table of the paper's future-work
//! list: "allowing multiple values per static load in the prediction
//! table by including branch history bits or other readily available
//! processor state in the lookup index".
//!
//! [`BhrIndexedPredictor`] stays outside the [`crate::Backend`] zoo: it
//! needs every conditional-branch outcome, which the LVP unit never
//! sees, and only the predictor-family ablation drives it.

use crate::index::{table_mask, word_index};

/// A last-value table indexed by `hash(pc, global branch history)`.
///
/// Feed branch outcomes with [`BhrIndexedPredictor::on_branch`]; the
/// current history register then disambiguates the paths through a load.
///
/// # Examples
///
/// ```
/// use lvp_predictor::BhrIndexedPredictor;
/// let mut p = BhrIndexedPredictor::new(1024, 4);
/// // Same load, two control paths, two stable values:
/// for _ in 0..3 {
///     p.on_branch(true);
///     p.train(0x1000, 7);
///     p.on_branch(false);
///     p.train(0x1000, 9);
/// }
/// p.on_branch(true);
/// assert_eq!(p.predict(0x1000), Some(7));
/// p.on_branch(false);
/// assert_eq!(p.predict(0x1000), Some(9));
/// ```
#[derive(Debug, Clone)]
pub struct BhrIndexedPredictor {
    values: Vec<Option<u64>>,
    mask: usize,
    bhr: u64,
    bhr_bits: u32,
}

impl BhrIndexedPredictor {
    /// Creates a predictor with `entries` slots, folding `bhr_bits` bits
    /// of global branch history into the index.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `bhr_bits > 16`.
    pub fn new(entries: usize, bhr_bits: u32) -> BhrIndexedPredictor {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        assert!(
            bhr_bits <= 16,
            "branch history width must be at most 16 bits"
        );
        BhrIndexedPredictor {
            values: vec![None; entries],
            mask: table_mask(entries),
            bhr: 0,
            bhr_bits,
        }
    }

    /// Shifts one branch outcome into the global history register.
    pub fn on_branch(&mut self, taken: bool) {
        self.bhr = ((self.bhr << 1) | taken as u64) & ((1 << self.bhr_bits) - 1);
    }

    /// The current global history register value.
    pub fn history(&self) -> u64 {
        self.bhr
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        // Fold the history into the word-granular pc before the shared
        // index helper; `bhr` is at most 16 bits, so `bhr << 2` survives
        // the `>> 2` inside `word_index` unchanged.
        word_index(pc ^ (self.bhr << 2), self.mask)
    }

    /// The last value seen by `pc` under the current branch history.
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.values[self.index(pc)]
    }

    /// Records `actual` as the value of `pc` under the current history.
    pub fn train(&mut self, pc: u64, actual: u64) {
        let idx = self.index(pc);
        self.values[idx] = Some(actual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bhr_separates_paths() {
        let mut p = BhrIndexedPredictor::new(256, 2);
        for _ in 0..4 {
            p.on_branch(true);
            p.on_branch(true);
            p.train(0x2000, 111);
            p.on_branch(false);
            p.on_branch(false);
            p.train(0x2000, 222);
        }
        p.on_branch(true);
        p.on_branch(true);
        assert_eq!(p.predict(0x2000), Some(111));
        p.on_branch(false);
        p.on_branch(false);
        assert_eq!(p.predict(0x2000), Some(222));
    }

    #[test]
    fn bhr_width_masks_history() {
        let mut p = BhrIndexedPredictor::new(256, 2);
        for _ in 0..10 {
            p.on_branch(true);
        }
        assert_eq!(p.history(), 0b11);
    }

    #[test]
    fn bhr_zero_bits_degenerates_to_last_value() {
        let mut p = BhrIndexedPredictor::new(256, 0);
        p.train(0x3000, 5);
        p.on_branch(true);
        p.on_branch(false);
        assert_eq!(
            p.predict(0x3000),
            Some(5),
            "no history bits: plain last-value"
        );
    }
}
