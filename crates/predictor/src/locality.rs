//! Value-locality measurement (paper Section 2, Figures 1 and 2).

use lvp_trace::TraceEntry;
use std::ops::Range;

/// Classification of a loaded *value* for the paper's Figure 2 breakdown.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueClass {
    /// Loaded into the FP register file.
    FpData,
    /// Integer value that is not an address.
    IntData,
    /// Value falls in the text segment: an instruction address (function
    /// pointers, return addresses, branch tables).
    InstrAddr,
    /// Value falls in static data or stack: a data address (pointer).
    DataAddr,
}

impl ValueClass {
    /// All classes in display order.
    pub const ALL: [ValueClass; 4] = [
        ValueClass::FpData,
        ValueClass::IntData,
        ValueClass::InstrAddr,
        ValueClass::DataAddr,
    ];

    /// Human-readable name matching the paper's Figure 2 panels.
    pub fn label(self) -> &'static str {
        match self {
            ValueClass::FpData => "FP Data",
            ValueClass::IntData => "Integer Data",
            ValueClass::InstrAddr => "Instruction Addresses",
            ValueClass::DataAddr => "Data Addresses",
        }
    }
}

/// Address ranges used to classify loaded values as instruction or data
/// addresses; build one from `lvp_isa::Layout` at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressRanges {
    /// Text segment range.
    pub text: Range<u64>,
    /// Static data range (globals, TOC, constant pool).
    pub data: Range<u64>,
    /// Stack range.
    pub stack: Range<u64>,
}

impl AddressRanges {
    /// Classifies a non-FP loaded value.
    pub fn classify(&self, value: u64) -> ValueClass {
        if self.text.contains(&value) {
            ValueClass::InstrAddr
        } else if self.data.contains(&value) || self.stack.contains(&value) {
            ValueClass::DataAddr
        } else {
            ValueClass::IntData
        }
    }
}

/// Measures load value locality exactly as the paper's Figure 1: a
/// direct-mapped table of value histories "with 1K entries indexed but not
/// tagged by instruction address", LRU-replaced, reporting the fraction of
/// dynamic loads whose value matches one of the last *d* unique values
/// seen by that static load.
///
/// Several history depths are measured simultaneously from one table of
/// the maximum depth (a hit at depth *d* means the value's LRU rank is
/// below *d*).
///
/// # Examples
///
/// ```
/// use lvp_predictor::LocalityMeter;
/// use lvp_trace::{MemAccess, OpKind, TraceEntry};
///
/// let mut meter = LocalityMeter::with_depths(1024, &[1, 16]);
/// for i in 0..100u64 {
///     let mut e = TraceEntry::simple(0x10000, OpKind::Load);
///     e.mem = Some(MemAccess { addr: 0x10_0000, width: 8, value: i % 2, fp: false });
///     meter.observe(&e);
/// }
/// // Alternating values never match at depth 1, almost always at depth 16.
/// assert!(meter.locality(1) < 0.05);
/// assert!(meter.locality(16) > 0.90);
/// ```
#[derive(Debug, Clone)]
pub struct LocalityMeter {
    entries: Vec<Vec<u64>>,
    mask: usize,
    depths: Vec<usize>,
    max_depth: usize,
    loads: u64,
    hits: Vec<u64>,
    /// Loads per [`ValueClass`], indexed by `class as usize`.
    class_loads: [u64; ValueClass::ALL.len()],
    /// Hits per class and depth, `depths.len()` per class.
    class_hits: Vec<u64>,
    ranges: Option<AddressRanges>,
}

impl LocalityMeter {
    /// Creates a meter with the paper's parameters: 1K entries, depths 1
    /// and 16.
    pub fn paper_default() -> LocalityMeter {
        LocalityMeter::with_depths(1024, &[1, 16])
    }

    /// Creates a meter with a custom table size and set of history depths.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `depths` is empty or
    /// contains zero.
    pub fn with_depths(entries: usize, depths: &[usize]) -> LocalityMeter {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        assert!(!depths.is_empty(), "at least one history depth is required");
        assert!(
            depths.iter().all(|&d| d > 0),
            "history depths must be positive"
        );
        let max_depth = depths.iter().copied().max().unwrap();
        LocalityMeter {
            entries: vec![Vec::new(); entries],
            mask: entries - 1,
            depths: depths.to_vec(),
            max_depth,
            loads: 0,
            hits: vec![0; depths.len()],
            class_loads: [0; ValueClass::ALL.len()],
            class_hits: vec![0; ValueClass::ALL.len() * depths.len()],
            ranges: None,
        }
    }

    /// Enables Figure 2's per-class breakdown by supplying the address
    /// ranges used to recognize pointers.
    pub fn with_ranges(mut self, ranges: AddressRanges) -> LocalityMeter {
        self.ranges = Some(ranges);
        self
    }

    /// The history depths being measured.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// Total dynamic loads observed.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Observes one trace entry (ignores non-loads).
    #[inline]
    pub fn observe(&mut self, entry: &TraceEntry) {
        if !entry.is_load() {
            return;
        }
        let Some(mem) = entry.mem else { return };
        self.observe_load(entry.pc, mem.value, mem.fp);
    }

    /// Observes one dynamic load directly.
    pub fn observe_load(&mut self, pc: u64, value: u64, fp: bool) {
        self.loads += 1;
        let idx = ((pc >> 2) as usize) & self.mask;
        let history = &mut self.entries[idx];
        let rank = history.iter().position(|&v| v == value);

        let class = if fp {
            ValueClass::FpData
        } else {
            match &self.ranges {
                Some(r) => r.classify(value),
                None => ValueClass::IntData,
            }
        };
        self.class_loads[class as usize] += 1;
        let n_depths = self.depths.len();
        let class_hits = &mut self.class_hits[class as usize * n_depths..][..n_depths];
        for (i, &d) in self.depths.iter().enumerate() {
            if rank.is_some_and(|r| r < d) {
                self.hits[i] += 1;
                class_hits[i] += 1;
            }
        }

        // LRU update.
        match rank {
            Some(pos) => history[..=pos].rotate_right(1),
            None => {
                if history.len() == self.max_depth {
                    history.pop();
                }
                history.insert(0, value);
            }
        }
    }

    fn depth_index(&self, depth: usize) -> usize {
        self.depths
            .iter()
            .position(|&d| d == depth)
            .unwrap_or_else(|| panic!("depth {depth} was not configured"))
    }

    /// Overall value locality at one of the configured depths, in `0..=1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` was not passed to the constructor.
    pub fn locality(&self, depth: usize) -> f64 {
        let i = self.depth_index(depth);
        if self.loads == 0 {
            0.0
        } else {
            self.hits[i] as f64 / self.loads as f64
        }
    }

    /// Value locality of one class at one depth (Figure 2), in `0..=1`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` was not configured.
    pub fn class_locality(&self, class: ValueClass, depth: usize) -> f64 {
        let i = self.depth_index(depth);
        match self.class_loads(class) {
            0 => 0.0,
            loads => self.class_hits[class as usize * self.depths.len() + i] as f64 / loads as f64,
        }
    }

    /// Dynamic loads observed in one class.
    pub fn class_loads(&self, class: ValueClass) -> u64 {
        self.class_loads[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_trace::{MemAccess, OpKind};

    fn load(pc: u64, value: u64, fp: bool) -> TraceEntry {
        let mut e = TraceEntry::simple(pc, OpKind::Load);
        e.mem = Some(MemAccess {
            addr: 0x10_0000,
            width: 8,
            value,
            fp,
        });
        e
    }

    #[test]
    fn constant_load_has_full_locality() {
        let mut m = LocalityMeter::paper_default();
        for _ in 0..100 {
            m.observe(&load(0x10000, 42, false));
        }
        // First observation is a cold miss; 99/100 hit.
        assert!((m.locality(1) - 0.99).abs() < 1e-9);
        assert_eq!(m.loads(), 100);
    }

    #[test]
    fn rotating_values_need_depth() {
        let mut m = LocalityMeter::with_depths(64, &[1, 4, 16]);
        for i in 0..400u64 {
            m.observe(&load(0x10000, i % 4, false));
        }
        assert!(m.locality(1) < 0.05);
        assert!(m.locality(4) > 0.95);
        assert!(m.locality(16) > 0.95);
    }

    #[test]
    fn distinct_static_loads_do_not_interfere_in_large_table() {
        let mut m = LocalityMeter::paper_default();
        // Two static loads with different constant values.
        for _ in 0..50 {
            m.observe(&load(0x10000, 1, false));
            m.observe(&load(0x10004, 2, false));
        }
        assert!(m.locality(1) > 0.97);
    }

    #[test]
    fn aliasing_interferes_in_small_table() {
        let mut m = LocalityMeter::with_depths(1, &[1]);
        for _ in 0..50 {
            m.observe(&load(0x10000, 1, false));
            m.observe(&load(0x10004, 2, false));
        }
        // Every load destroys the other's history in the 1-entry table.
        assert!(m.locality(1) < 0.05);
    }

    #[test]
    fn per_class_breakdown() {
        let ranges = AddressRanges {
            text: 0x1_0000..0x2_0000,
            data: 0x10_0000..0x20_0000,
            stack: 0x70_0000..0x80_0000,
        };
        let mut m = LocalityMeter::with_depths(64, &[1]).with_ranges(ranges);
        m.observe(&load(0x10000, 0x1_0004, false)); // instruction address
        m.observe(&load(0x10004, 0x15_0000, false)); // data address
        m.observe(&load(0x10008, 0x7f_ff00, false)); // stack address
        m.observe(&load(0x1000c, 12345, false)); // plain integer
        m.observe(&load(0x10010, 999, true)); // fp load
        assert_eq!(m.class_loads(ValueClass::InstrAddr), 1);
        assert_eq!(m.class_loads(ValueClass::DataAddr), 2);
        assert_eq!(m.class_loads(ValueClass::IntData), 1);
        assert_eq!(m.class_loads(ValueClass::FpData), 1);
    }

    #[test]
    fn non_loads_are_ignored() {
        let mut m = LocalityMeter::paper_default();
        m.observe(&TraceEntry::simple(0x10000, OpKind::IntSimple));
        let mut store = TraceEntry::simple(0x10004, OpKind::Store);
        store.mem = Some(MemAccess {
            addr: 0x10_0000,
            width: 8,
            value: 1,
            fp: false,
        });
        m.observe(&store);
        assert_eq!(m.loads(), 0);
    }

    #[test]
    #[should_panic(expected = "not configured")]
    fn unconfigured_depth_panics() {
        let m = LocalityMeter::with_depths(64, &[1]);
        let _ = m.locality(16);
    }
}
