//! The in-memory trace layout (DESIGN.md §6.3).
//!
//! Across the executions of one static instruction, only its memory
//! access's `addr` and `value` change: kind, registers, access width and
//! the branch event of a given outcome are fixed per pc. So instead of a
//! `Vec<TraceEntry>` (56 bytes per entry) a [`Trace`](crate::Trace)
//! keeps:
//!
//! * a **table** of *static records*, each an entry without its `addr`
//!   and `value`, kept pre-decoded as a [`TraceEntry`] whose `addr` and
//!   `value` are 0. Each distinct record is stored once, with ids 0–0xFFFE
//!   in first-occurrence order, so equal entry sequences give equal
//!   traces whatever the hash order;
//! * an **id column**: one 16-bit [`RecordId`] per entry;
//! * a **payload** of `u64` words in entry order: the `addr` and then the
//!   `value` of each memory access.
//!
//! **The escape.** The table holds at most 65,535 records. An entry that
//! brings a new record once it is full is stored as id 0xFFFF, with its
//! static fields in the payload ahead of its access: the pc, the packed
//! word below, and the branch target when it has a branch event. An
//! entry therefore costs at most 2 + 24 + 16 = 42 bytes. No suite trace
//! comes near the cap (the largest table holds 3,550 records); it bounds
//! traces read from outside and hand-built ones.
//!
//! ```text
//! bits  0..4   kind (wire byte, as in LVPT)
//! bits  4..11  dst   } 7 bits each: bit 6 present, bit 5 class (1 = fp),
//! bits 11..18  src0  }   bits 0..5 register number 0–31
//! bits 18..25  src1  }
//! bit  25      memory access present
//! bits 26..28  log2 of the access width (1/2/4/8 bytes)
//! bit  28      access targets the fp register file
//! bit  29      branch event present
//! bit  30      branch taken
//! ```
//!
//! A record is keyed by its pc, that word and its branch target. `push`
//! first tries the two records that last followed the previous entry's
//! record, and looks the key up in a map only when both guesses miss.
//!
//! The layout represents exactly the entries LVPT v2 round-trips:
//! register numbers 0–31 and access widths 1, 2, 4 and 8.

use crate::entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
use crate::io::kind_to_u8;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

const DST_SHIFT: u32 = 4;
const SRC0_SHIFT: u32 = 11;
const SRC1_SHIFT: u32 = 18;
const REG_PRESENT: u32 = 0x40;
const REG_FP: u32 = 0x20;
const MEM: u32 = 1 << 25;
const WIDTH_SHIFT: u32 = 26;
const MEM_FP: u32 = 1 << 28;
const BRANCH: u32 = 1 << 29;
const TAKEN: u32 = 1 << 30;

/// The id of an escaped entry, whose static fields are in the payload.
/// The table's ids stop below it.
const ESCAPE: u16 = u16::MAX;

/// Kind by wire byte; the six unused codes never occur.
const KINDS: [OpKind; 16] = {
    let mut kinds = [OpKind::System; 16];
    let mut i = 0;
    while i < OpKind::ALL.len() {
        kinds[i] = OpKind::ALL[i];
        i += 1;
    }
    kinds
};

/// One entry's static record, as an index into its trace's table.
///
/// Opaque: it is what [`Trace::entries`](crate::Trace::entries) returns,
/// so `size_of_val` of that slice is the id column's size. It has no
/// comparison: an id means something only in its own trace's table, and
/// the column omits every address and value, so compare whole traces
/// instead.
#[derive(Debug, Copy, Clone)]
pub struct RecordId(u16);

fn reg_bits(r: Option<RegRef>) -> u32 {
    match r {
        None => 0,
        Some(r) => {
            let class = match r.class {
                RegClass::Int => 0,
                RegClass::Fp => REG_FP,
            };
            REG_PRESENT | class | (r.num as u32 & 0x1f)
        }
    }
}

fn reg_from(bits: u32) -> Option<RegRef> {
    (bits & REG_PRESENT != 0).then_some(RegRef {
        class: if bits & REG_FP != 0 {
            RegClass::Fp
        } else {
            RegClass::Int
        },
        num: (bits & 0x1f) as u8,
    })
}

/// A static record's identity: its pc, packed word and branch target
/// (0 without a branch event).
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct Key {
    pc: u64,
    target: u64,
    word: u32,
}

impl Key {
    #[inline]
    fn of(e: &TraceEntry) -> Key {
        let mut word = kind_to_u8(e.kind) as u32
            | reg_bits(e.dst) << DST_SHIFT
            | reg_bits(e.srcs[0]) << SRC0_SHIFT
            | reg_bits(e.srcs[1]) << SRC1_SHIFT;
        if let Some(m) = e.mem {
            word |= MEM | (m.width.trailing_zeros() & 3) << WIDTH_SHIFT;
            if m.fp {
                word |= MEM_FP;
            }
        }
        let mut target = 0;
        if let Some(b) = e.branch {
            word |= BRANCH;
            if b.taken {
                word |= TAKEN;
            }
            target = b.target;
        }
        Key {
            pc: e.pc,
            target,
            word,
        }
    }

    /// The record as an entry whose access `addr` and `value` are 0.
    fn decode(self) -> TraceEntry {
        let w = self.word;
        TraceEntry {
            pc: self.pc,
            kind: KINDS[(w & 0xf) as usize],
            dst: reg_from(w >> DST_SHIFT),
            srcs: [reg_from(w >> SRC0_SHIFT), reg_from(w >> SRC1_SHIFT)],
            mem: (w & MEM != 0).then_some(MemAccess {
                addr: 0,
                width: 1 << ((w >> WIDTH_SHIFT) & 3),
                value: 0,
                fp: w & MEM_FP != 0,
            }),
            branch: (w & BRANCH != 0).then_some(BranchEvent {
                taken: w & TAKEN != 0,
                target: self.target,
            }),
        }
    }
}

/// A table record's key, flattened beside its successor memo so that
/// the two fit in 24 bytes.
#[derive(Debug, Copy, Clone)]
struct Slot {
    pc: u64,
    target: u64,
    word: u32,
    /// The ids of the last two distinct records pushed right after this
    /// one, the latest first; [`ESCAPE`] until there are any. Two cover
    /// both outcomes of a conditional branch that follows it.
    next: [u16; 2],
}

impl Slot {
    #[inline]
    fn key(&self) -> Key {
        Key {
            pc: self.pc,
            target: self.target,
            word: self.word,
        }
    }
}

/// The table, the id column and the payload, appended to by
/// [`Columns::push`].
#[derive(Clone, Default)]
pub(crate) struct Columns {
    ids: Vec<RecordId>,
    payload: Vec<u64>,
    /// The table: each record pre-decoded, by id.
    records: Vec<TraceEntry>,
    /// Each record's key and successor memo, by id.
    slots: Vec<Slot>,
    /// Key to id, for the pushes the memo does not predict.
    index: HashMap<Key, u16>,
    /// The previous entry's id; with no slot behind it (an escape, or
    /// no entry yet) the next push skips the memo.
    last: u16,
}

impl Columns {
    pub(crate) fn with_capacity(n: usize) -> Columns {
        Columns {
            ids: Vec::with_capacity(n),
            ..Columns::default()
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, e: &TraceEntry) {
        debug_assert!(
            e.mem.is_none_or(|m| matches!(m.width, 1 | 2 | 4 | 8))
                && e.dst
                    .iter()
                    .chain(e.srcs.iter().flatten())
                    .all(|r| r.num < 32),
            "entry outside the layout's domain: {e:?}"
        );
        let key = Key::of(e);
        let memo = self
            .slots
            .get(self.last as usize)
            .map_or([ESCAPE; 2], |s| s.next);
        let hit = |id: u16| self.slots.get(id as usize).is_some_and(|s| s.key() == key);
        let id = if hit(memo[0]) {
            memo[0]
        } else if hit(memo[1]) {
            memo[1]
        } else {
            self.lookup(key)
        };
        self.ids.push(RecordId(id));
        self.last = id;
        if id == ESCAPE {
            self.payload.extend_from_slice(&[key.pc, key.word as u64]);
            if key.word & BRANCH != 0 {
                self.payload.push(key.target);
            }
        }
        if let Some(m) = e.mem {
            self.payload.extend_from_slice(&[m.addr, m.value]);
        }
    }

    /// The id of `key`'s record, added to the table if it is new and
    /// the table has room, or [`ESCAPE`]. It becomes the previous
    /// record's latest successor.
    #[cold]
    #[inline(never)]
    fn lookup(&mut self, key: Key) -> u16 {
        let known = self.records.len();
        let id = match self.index.entry(key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) if known < ESCAPE as usize => {
                let id = *v.insert(known as u16);
                self.records.push(key.decode());
                self.slots.push(Slot {
                    pc: key.pc,
                    target: key.target,
                    word: key.word,
                    next: [ESCAPE; 2],
                });
                id
            }
            Entry::Vacant(_) => ESCAPE,
        };
        if let Some(prev) = self.slots[..known].get_mut(self.last as usize) {
            prev.next = [id, prev.next[0]];
        }
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn ids(&self) -> &[RecordId] {
        &self.ids
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.ids.as_slice())
            + std::mem::size_of_val(self.payload.as_slice())
            + std::mem::size_of_val(self.records.as_slice())
            + std::mem::size_of_val(self.slots.as_slice())
    }

    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            ids: self.ids.iter(),
            records: &self.records,
            payload: &self.payload,
            pos: 0,
            escaped: TraceEntry::simple(0, OpKind::System),
        }
    }
}

impl PartialEq for Columns {
    /// The id column, the payload and the table (the memos and the map
    /// follow from them).
    fn eq(&self, other: &Columns) -> bool {
        self.payload == other.payload
            && self.records == other.records
            && self.ids.len() == other.ids.len()
            && self.ids.iter().zip(&other.ids).all(|(a, b)| a.0 == b.0)
    }
}

impl fmt::Debug for Columns {
    /// Leaves out the map, whose order varies from run to run.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Columns")
            .field("ids", &self.ids)
            .field("payload", &self.payload)
            .field("records", &self.records)
            .finish_non_exhaustive()
    }
}

/// By-value iterator over a [`Trace`](crate::Trace)'s entries; see
/// [`Trace::iter`](crate::Trace::iter).
///
/// Cloning it is cheap and yields a cursor at the same position, which
/// is how a consumer looks ahead without consuming.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    ids: std::slice::Iter<'a, RecordId>,
    records: &'a [TraceEntry],
    payload: &'a [u64],
    /// Index of the next entry's first payload word.
    pos: usize,
    /// The record of the last escaped entry read. `next` copies every
    /// record through a reference, to the table or to this, so that a
    /// consumer's loop loads only the fields it reads.
    escaped: TraceEntry,
}

impl Iter<'_> {
    /// The next payload word. `push` writes every column together, so
    /// the word is always there; reading 0 past the end keeps the
    /// iterator free of panics all the same.
    #[inline]
    fn word(&mut self) -> u64 {
        let w = self.payload.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        w
    }

    /// Decodes an escaped entry's record from its payload words.
    #[cold]
    #[inline(never)]
    fn escaped(&mut self) -> &TraceEntry {
        let pc = self.word();
        let word = self.word() as u32;
        let target = if word & BRANCH != 0 { self.word() } else { 0 };
        self.escaped = Key { pc, target, word }.decode();
        &self.escaped
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        let id = self.ids.next()?.0;
        let record = match self.records.get(id as usize) {
            Some(record) => record,
            None => self.escaped(),
        };
        let mut e = *record;
        if let Some(m) = &mut e.mem {
            m.addr = self.word();
            m.value = self.word();
        }
        Some(e)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::iter::FusedIterator for Iter<'_> {}
