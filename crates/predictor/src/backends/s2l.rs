//! Store-to-load forwarding backend.

use crate::index::{table_mask, word_index};

/// A store-to-load forwarding predictor: a direct-mapped, untagged table
/// keyed by *data address* holding the last value stored there. A load
/// predicts the value the most recent store placed at its address — the
/// dynamic twin of the static `LVP011` store-to-load-forwardable lint.
///
/// Loads never train the table: only stores feed it (through
/// [`StoreToLoadBackend::on_store`]), so coverage is exactly the loads
/// whose value last entered memory through a store this table still
/// remembers. The LVP unit's LCT learns to suppress everything else.
#[derive(Debug, Clone)]
pub struct StoreToLoadBackend {
    values: Vec<Option<u64>>,
    mask: usize,
}

impl StoreToLoadBackend {
    /// Creates a backend with `entries` direct-mapped slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> StoreToLoadBackend {
        StoreToLoadBackend {
            values: vec![None; entries],
            mask: table_mask(entries),
        }
    }

    /// The table index for a memory access at `addr` (word-granular,
    /// like every table index in the zoo — see `crate::index`).
    #[inline]
    pub fn index(&self, addr: u64) -> usize {
        word_index(addr, self.mask)
    }

    /// The predicted value for a load at `addr`: the last value a store
    /// placed in this slot, if any.
    #[inline]
    pub fn predict(&self, addr: u64) -> Option<u64> {
        self.values[self.index(addr)]
    }

    /// Records a store of `value` at `addr`. Returns the slot index when
    /// the slot's prediction changed (the unit must then drop CVU
    /// certifications keyed to that index: an aliasing store to a
    /// *different* address can change what this slot predicts without
    /// the CVU's own overlap search noticing).
    pub fn on_store(&mut self, addr: u64, value: u64) -> Option<usize> {
        let idx = self.index(addr);
        let changed = self.values[idx] != Some(value);
        self.values[idx] = Some(value);
        changed.then_some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_last_stored_value() {
        let mut p = StoreToLoadBackend::new(64);
        assert_eq!(p.predict(0x1000), None, "never-stored address");
        p.on_store(0x1000, 42);
        assert_eq!(p.predict(0x1000), Some(42));
        p.on_store(0x1000, 43);
        assert_eq!(p.predict(0x1000), Some(43));
    }

    #[test]
    fn distinct_addresses_use_distinct_slots() {
        let mut p = StoreToLoadBackend::new(64);
        p.on_store(0x1000, 1);
        p.on_store(0x1004, 2);
        assert_eq!(p.predict(0x1000), Some(1));
        assert_eq!(p.predict(0x1004), Some(2));
    }

    #[test]
    fn aliasing_store_reports_changed_slot() {
        let mut p = StoreToLoadBackend::new(16);
        p.on_store(0x1000, 1);
        // 16 word slots wrap every 64 bytes.
        assert_eq!(p.index(0x1040), p.index(0x1000));
        assert_eq!(p.on_store(0x1040, 9), Some(p.index(0x1000)));
        assert_eq!(p.predict(0x1000), Some(9), "untagged aliasing");
    }

    #[test]
    fn restoring_same_value_is_not_a_change() {
        let mut p = StoreToLoadBackend::new(64);
        assert!(p.on_store(0x1000, 5).is_some());
        assert!(p.on_store(0x1000, 5).is_none());
    }
}
