//! # lvp-trace — trace records shared by all simulation phases
//!
//! The paper's experimental framework has three phases: *trace generation*
//! (TRIP6000/ATOM in the paper, `lvp-sim` here), *LVP unit simulation*
//! (`lvp-predictor`), and *microarchitectural simulation* (`lvp-uarch`).
//! This crate defines the data that flows between them:
//!
//! * [`TraceEntry`] — one retired instruction with its register operands,
//!   memory access, and branch outcome;
//! * [`Trace`] — an owned instruction trace with summary statistics,
//!   stored as a table of static records plus a 16-bit id and the
//!   memory access of each entry, and read back by value;
//! * [`PredOutcome`] — the per-load annotation produced by the LVP unit
//!   simulation ("no prediction, incorrect prediction, correct prediction,
//!   or constant load" — two bits of state per load, exactly as the paper
//!   passes to its timing models);
//! * a compact binary serialization ([`write_trace`]/[`read_trace`]) for
//!   storing traces on disk — **LVPT v2**, a block format with per-block
//!   CRC-32 checksums and a declared payload length, plus [`TraceReader`],
//!   a streaming iterator that yields entries without materializing the
//!   whole trace.

mod crc32;
mod entry;
mod io;
mod layout;
mod reader;
pub mod rng;
mod text;
mod window;

pub use crc32::crc32;
pub use entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
pub use io::{read_trace, write_trace, TraceIoError, FORMAT_VERSION};
pub use layout::{Iter, RecordId};
pub use reader::TraceReader;
pub use text::{dump_text, parse_text, ParseTraceError};
pub use window::{TraceWindow, Windows};

use layout::Columns;
use std::fmt;

/// Per-load prediction outcome annotated onto a trace by the LVP unit
/// simulation (phase 2). The timing models charge a different cost for
/// each variant.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PredOutcome {
    /// The LCT said "don't predict" (or the config predicts nothing).
    NotPredicted,
    /// A prediction was made and was wrong: dependents that issued early
    /// must reissue.
    Incorrect,
    /// A prediction was made and verified correct against the memory value.
    Correct,
    /// The load was classified constant and verified by the CVU without
    /// accessing the memory hierarchy.
    Constant,
}

impl PredOutcome {
    /// Whether a prediction was made at all.
    #[inline]
    pub fn predicted(self) -> bool {
        !matches!(self, PredOutcome::NotPredicted)
    }

    /// Whether the predicted value was usable (correct or constant).
    #[inline]
    pub fn usable(self) -> bool {
        matches!(self, PredOutcome::Correct | PredOutcome::Constant)
    }
}

impl fmt::Display for PredOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredOutcome::NotPredicted => "no-prediction",
            PredOutcome::Incorrect => "incorrect",
            PredOutcome::Correct => "correct",
            PredOutcome::Constant => "constant",
        };
        f.write_str(s)
    }
}

/// Summary statistics over a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total dynamic instructions.
    pub instructions: u64,
    /// Dynamic loads (integer + FP).
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// Unconditional jumps, direct and indirect.
    pub jumps: u64,
    /// FP arithmetic operations (simple + complex).
    pub fp_ops: u64,
}

impl TraceStats {
    /// Accumulates one entry into the statistics.
    #[inline]
    pub fn record(&mut self, entry: &TraceEntry) {
        self.instructions += 1;
        match entry.kind {
            OpKind::Load => self.loads += 1,
            OpKind::Store => self.stores += 1,
            OpKind::CondBranch => self.cond_branches += 1,
            OpKind::Jump | OpKind::IndirectJump => self.jumps += 1,
            OpKind::FpSimple | OpKind::FpComplex => self.fp_ops += 1,
            _ => {}
        }
    }
}

/// An owned dynamic instruction trace.
///
/// Each distinct static record (an entry without its access's `addr`
/// and `value`) is stored once per trace, and each entry as a 2-byte
/// record id plus its access: about 4.7 bytes per entry on real traces
/// instead of the 56 of a [`TraceEntry`] (DESIGN.md §6.3). Entries are
/// therefore read back by value: [`Trace::iter`] copies each entry's
/// record and fills in its access.
///
/// # Examples
///
/// ```
/// use lvp_trace::{Trace, TraceEntry, OpKind};
/// let mut trace = Trace::new();
/// trace.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
/// assert_eq!(trace.stats().instructions, 1);
/// assert_eq!(trace.iter().next(), Some(TraceEntry::simple(0x10000, OpKind::IntSimple)));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    columns: Columns,
    stats: TraceStats,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Creates an empty trace with room for `n` entries' record ids.
    pub fn with_capacity(n: usize) -> Trace {
        Trace {
            columns: Columns::with_capacity(n),
            stats: TraceStats::default(),
        }
    }

    /// Appends one entry, updating statistics. Any entry is accepted;
    /// it reads back unchanged if its register numbers are 0–31 and its
    /// access width is 1, 2, 4 or 8, which is every entry LVPT v2 can
    /// hold.
    #[inline]
    pub fn push(&mut self, entry: TraceEntry) {
        self.stats.record(&entry);
        self.columns.push(&entry);
    }

    /// The id column: one opaque record id per entry, in program order.
    /// `size_of_val` of it is that column's size; read entries with
    /// [`Trace::iter`], and compare traces with `==`.
    pub fn entries(&self) -> &[RecordId] {
        self.columns.ids()
    }

    /// Bytes held by the id column, the payload and the record table (80
    /// bytes per record). Left out: the map from a record's key to its
    /// id (40–75 bytes per record, with its spare buckets), and spare
    /// capacity.
    pub fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    /// Summary statistics.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the entries in program order, by value.
    pub fn iter(&self) -> Iter<'_> {
        self.columns.iter()
    }
}

impl FromIterator<TraceEntry> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEntry>>(iter: I) -> Trace {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl Extend<TraceEntry> for Trace {
    fn extend<I: IntoIterator<Item = TraceEntry>>(&mut self, iter: I) {
        for e in iter {
            self.push(e);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEntry;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_entry(pc: u64) -> TraceEntry {
        let mut e = TraceEntry::simple(pc, OpKind::Load);
        e.mem = Some(MemAccess {
            addr: 0x10_0000,
            width: 8,
            value: 5,
            fp: false,
        });
        e
    }

    #[test]
    fn stats_accumulate() {
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple));
        t.push(load_entry(0x10004));
        t.push(TraceEntry::simple(0x10008, OpKind::Store));
        t.push(TraceEntry::simple(0x1000c, OpKind::CondBranch));
        t.push(TraceEntry::simple(0x10010, OpKind::FpComplex));
        let s = t.stats();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cond_branches, 1);
        assert_eq!(s.fp_ops, 1);
    }

    #[test]
    fn outcome_predicates() {
        assert!(!PredOutcome::NotPredicted.predicted());
        assert!(PredOutcome::Incorrect.predicted());
        assert!(!PredOutcome::Incorrect.usable());
        assert!(PredOutcome::Correct.usable());
        assert!(PredOutcome::Constant.usable());
    }

    #[test]
    fn iter_returns_what_was_pushed() {
        let entries = vec![
            TraceEntry::simple(0x10000, OpKind::IntSimple),
            load_entry(0x10004),
            TraceEntry::simple(0x20000, OpKind::Store),
            TraceEntry::simple(0x1000c, OpKind::Jump),
        ];
        let mut pushed = Trace::new();
        for e in &entries {
            pushed.push(*e);
        }
        assert_eq!(pushed.iter().collect::<Vec<_>>(), entries);
        assert_eq!(pushed.iter().len(), 4);
        let collected: Trace = entries.iter().copied().collect();
        assert_eq!(collected, pushed);
    }

    /// A table record costs its pre-decoded entry plus a 24-byte key
    /// and successor memo.
    const RECORD_BYTES: usize = 56 + 24;

    #[test]
    fn each_static_record_is_stored_once() {
        assert_eq!(std::mem::size_of::<TraceEntry>(), 56);
        let mut t = Trace::new();
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple)); // record 0
        t.push(TraceEntry::simple(0x10004, OpKind::IntSimple)); // record 1
        let mut b = TraceEntry::simple(0x10008, OpKind::CondBranch);
        b.branch = Some(BranchEvent {
            taken: true,
            target: 0x10000,
        });
        t.push(b); // record 2, target included
        t.push(TraceEntry::simple(0x10000, OpKind::IntSimple)); // record 0 again
        assert_eq!(t.heap_bytes(), 4 * 2 + 3 * RECORD_BYTES);
        b.branch = Some(BranchEvent {
            taken: false,
            target: 0x1000c,
        });
        t.push(b); // record 3: another outcome
        t.push(load_entry(0x10004)); // record 4, and its access: 16 bytes
        let mut again = load_entry(0x10004);
        again.mem.as_mut().unwrap().addr = 0x10_0010;
        again.mem.as_mut().unwrap().value = 6;
        t.push(again); // record 4 again, another access
        assert_eq!(t.heap_bytes(), 7 * 2 + 2 * 16 + 5 * RECORD_BYTES);
        assert_eq!(t.iter().nth(6), Some(again));
        assert_eq!(std::mem::size_of_val(t.entries()), 7 * 2);
    }

    #[test]
    fn equality_covers_the_payload() {
        let a: Trace = [load_entry(0x10000)].into_iter().collect();
        let mut other = load_entry(0x10000);
        other.mem.as_mut().unwrap().value = 6;
        let b: Trace = [other].into_iter().collect();
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b, "same record ids, different values");
    }

    #[test]
    fn trace_from_iterator() {
        let t: Trace = (0..10)
            .map(|i| TraceEntry::simple(0x10000 + 4 * i, OpKind::IntSimple))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.stats().instructions, 10);
    }
}
