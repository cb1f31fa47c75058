//! The Load Value Prediction Table (paper Section 3.1).

use crate::config::LvptConfig;
use crate::index::{table_mask, word_index};

/// One direct-mapped LVPT entry: up to `history_depth` previously-seen
/// values in LRU order (front = most recent).
#[derive(Debug, Clone, Default)]
struct LvptEntry {
    values: Vec<u64>,
}

/// The Load Value Prediction Table: a direct-mapped, **untagged** table of
/// value histories indexed by load instruction address.
///
/// Because entries are untagged, "both constructive and destructive
/// interference can occur between loads that map to the same entry"
/// (paper, footnote 1) — aliasing is modelled faithfully, not avoided.
///
/// # Examples
///
/// ```
/// use lvp_predictor::{Lvpt, LvptConfig};
/// let mut lvpt = Lvpt::new(LvptConfig { entries: 16, history_depth: 1, perfect_selection: false });
/// assert_eq!(lvpt.predict(0x10000), None);      // cold
/// lvpt.update(0x10000, 42);
/// assert_eq!(lvpt.predict(0x10000), Some(42));  // history of one
/// ```
#[derive(Debug, Clone)]
pub struct Lvpt {
    config: LvptConfig,
    entries: Vec<LvptEntry>,
    mask: usize,
}

impl Lvpt {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_depth` is 0.
    pub fn new(config: LvptConfig) -> Lvpt {
        assert!(
            config.history_depth > 0,
            "LVPT history depth must be at least 1"
        );
        Lvpt {
            config,
            entries: vec![LvptEntry::default(); config.entries],
            mask: table_mask(config.entries),
        }
    }

    /// The configuration this table was built with.
    pub fn config(&self) -> &LvptConfig {
        &self.config
    }

    /// The table index for a load at `pc` (word-indexed, untagged; the
    /// shared `crate::index::word_index` every zoo table uses).
    #[inline]
    pub fn index(&self, pc: u64) -> usize {
        word_index(pc, self.mask)
    }

    /// The most recently stored value for `pc`'s entry, if any — the value
    /// a depth-1 table forwards to dependents at dispatch.
    #[inline]
    pub fn predict(&self, pc: u64) -> Option<u64> {
        self.entries[self.index(pc)].values.first().copied()
    }

    /// All stored history values for `pc`'s entry, most recent first.
    pub fn history(&self, pc: u64) -> &[u64] {
        &self.entries[self.index(pc)].values
    }

    /// Whether a prediction for `pc` would verify against `actual`:
    /// the most-recent value matches, or — with perfect selection — any
    /// stored value matches.
    #[inline]
    pub fn would_predict_correctly(&self, pc: u64, actual: u64) -> bool {
        let values = &self.entries[self.index(pc)].values;
        if self.config.perfect_selection {
            values.contains(&actual)
        } else {
            values.first() == Some(&actual)
        }
    }

    /// Records `actual` as the newest value for `pc`'s entry (LRU among the
    /// entry's values). Returns `true` if the entry's *most-recent* value
    /// changed — callers must then invalidate any CVU entries for this
    /// index, because the value a CVU hit would certify is gone.
    pub fn update(&mut self, pc: u64, actual: u64) -> bool {
        let depth = self.config.history_depth;
        let idx = self.index(pc);
        let entry = &mut self.entries[idx];
        let old_front = entry.values.first().copied();
        if let Some(pos) = entry.values.iter().position(|&v| v == actual) {
            entry.values[..=pos].rotate_right(1);
        } else if entry.values.len() == depth {
            // Evict the LRU tail and shift, without reallocating.
            entry.values.rotate_right(1);
            entry.values[0] = actual;
        } else {
            // Reserve the full history once so per-load updates never
            // allocate again (this loop runs once per dynamic load).
            if entry.values.is_empty() {
                entry.values.reserve_exact(depth);
            }
            entry.values.push(actual);
            entry.values.rotate_right(1);
        }
        old_front != Some(actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: usize, depth: usize, perfect: bool) -> Lvpt {
        Lvpt::new(LvptConfig {
            entries,
            history_depth: depth,
            perfect_selection: perfect,
        })
    }

    #[test]
    fn cold_table_predicts_nothing() {
        let t = table(16, 1, false);
        assert_eq!(t.predict(0x10000), None);
        assert!(!t.would_predict_correctly(0x10000, 0));
    }

    #[test]
    fn depth_one_tracks_last_value() {
        let mut t = table(16, 1, false);
        t.update(0x10000, 1);
        t.update(0x10000, 2);
        assert_eq!(t.predict(0x10000), Some(2));
        assert!(t.would_predict_correctly(0x10000, 2));
        assert!(!t.would_predict_correctly(0x10000, 1));
    }

    #[test]
    fn lru_ordering_within_entry() {
        let mut t = table(16, 4, true);
        for v in [1u64, 2, 3, 4] {
            t.update(0x10000, v);
        }
        assert_eq!(t.history(0x10000), &[4, 3, 2, 1]);
        // Re-touching 2 moves it to the front without duplication.
        t.update(0x10000, 2);
        assert_eq!(t.history(0x10000), &[2, 4, 3, 1]);
    }

    #[test]
    fn lru_evicts_oldest_when_full() {
        let mut t = table(16, 2, true);
        t.update(0x10000, 1);
        t.update(0x10000, 2);
        t.update(0x10000, 3);
        assert_eq!(t.history(0x10000), &[3, 2]);
        assert!(!t.would_predict_correctly(0x10000, 1));
    }

    #[test]
    fn perfect_selection_matches_any_history_value() {
        let mut t = table(16, 4, true);
        t.update(0x10000, 10);
        t.update(0x10000, 20);
        assert!(t.would_predict_correctly(0x10000, 10));
        assert!(t.would_predict_correctly(0x10000, 20));
        assert!(!t.would_predict_correctly(0x10000, 30));
    }

    #[test]
    fn without_perfect_selection_only_front_matches() {
        let mut t = table(16, 4, false);
        t.update(0x10000, 10);
        t.update(0x10000, 20);
        assert!(!t.would_predict_correctly(0x10000, 10));
        assert!(t.would_predict_correctly(0x10000, 20));
    }

    #[test]
    fn untagged_aliasing_interferes() {
        let mut t = table(16, 1, false);
        // Two PCs 16 instruction-slots apart share index in a 16-entry table.
        let pc_a = 0x10000;
        let pc_b = 0x10000 + 16 * 4;
        assert_eq!(t.index(pc_a), t.index(pc_b));
        t.update(pc_a, 111);
        assert_eq!(t.predict(pc_b), Some(111), "constructive interference");
        t.update(pc_b, 222);
        assert_eq!(t.predict(pc_a), Some(222), "destructive interference");
    }

    #[test]
    fn update_reports_front_changes() {
        let mut t = table(16, 2, false);
        assert!(t.update(0x10000, 5), "first write changes the front");
        assert!(
            !t.update(0x10000, 5),
            "same value leaves the front unchanged"
        );
        assert!(t.update(0x10000, 6), "new value changes the front");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = table(15, 1, false);
    }
}
