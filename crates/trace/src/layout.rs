//! The in-memory trace layout (DESIGN.md §6.3).
//!
//! A [`Trace`](crate::Trace) keeps two columns instead of a
//! `Vec<TraceEntry>` (56 bytes per entry):
//!
//! * one 32-bit [`OpWord`] per entry, holding every fixed-size field;
//! * one stream of `u64` payload words, in entry order. For each entry
//!   it holds the pc if the entry overrides it, then the memory access's
//!   `addr` and `value`, then the branch `target`.
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
//! bit  31      pc override: the entry's pc is in the payload
//! ```
//!
//! An entry's pc is stored only when it differs from what the previous
//! entry predicts: its branch target, or its pc + 4 when it had no
//! branch event (the first entry is predicted at pc 0). A real trace
//! needs one override, at its first entry, so an entry costs 4 bytes
//! plus 16 per memory access and 8 per branch event.
//!
//! The columns represent exactly the entries LVPT v2 round-trips:
//! register numbers 0–31 and access widths 1, 2, 4 and 8.

use crate::entry::{BranchEvent, MemAccess, OpKind, RegClass, RegRef, TraceEntry};
use crate::io::kind_to_u8;

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
const PC_OVERRIDE: u32 = 1 << 31;

/// Kind by wire byte; the four unused codes never occur.
const KINDS: [OpKind; 16] = {
    let mut kinds = [OpKind::System; 16];
    let mut i = 0;
    while i < OpKind::ALL.len() {
        kinds[i] = OpKind::ALL[i];
        i += 1;
    }
    kinds
};

/// One entry's fixed-size fields, packed into 32 bits.
///
/// Opaque: it is what [`Trace::entries`](crate::Trace::entries) returns,
/// so `size_of_val` of that slice is the op-word column's size. It has
/// no comparison; compare whole traces instead, since the op words
/// alone omit every address, value, target and overridden pc.
#[derive(Debug, Copy, Clone)]
pub struct OpWord(u32);

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

#[inline]
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

/// The pc the entry after `pc` is predicted at, given its branch event.
#[inline]
fn successor(pc: u64, branch: Option<BranchEvent>) -> u64 {
    match branch {
        Some(b) => b.target,
        None => pc.wrapping_add(4),
    }
}

/// The two columns, appended to by [`Columns::push`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    ops: Vec<OpWord>,
    payload: Vec<u64>,
    /// The pc the next pushed entry is predicted at.
    next_pc: u64,
}

impl Columns {
    pub(crate) fn with_capacity(n: usize) -> Columns {
        Columns {
            ops: Vec::with_capacity(n),
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
        let mut word = kind_to_u8(e.kind) as u32
            | reg_bits(e.dst) << DST_SHIFT
            | reg_bits(e.srcs[0]) << SRC0_SHIFT
            | reg_bits(e.srcs[1]) << SRC1_SHIFT;
        if e.pc != self.next_pc {
            word |= PC_OVERRIDE;
            self.payload.push(e.pc);
        }
        if let Some(m) = e.mem {
            word |= MEM | (m.width.trailing_zeros() & 3) << WIDTH_SHIFT;
            if m.fp {
                word |= MEM_FP;
            }
            self.payload.extend_from_slice(&[m.addr, m.value]);
        }
        if let Some(b) = e.branch {
            word |= BRANCH;
            if b.taken {
                word |= TAKEN;
            }
            self.payload.push(b.target);
        }
        self.ops.push(OpWord(word));
        self.next_pc = successor(e.pc, e.branch);
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    pub(crate) fn op_words(&self) -> &[OpWord] {
        &self.ops
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(self.ops.as_slice()) + std::mem::size_of_val(self.payload.as_slice())
    }

    pub(crate) fn iter(&self) -> Iter<'_> {
        Iter {
            ops: self.ops.iter(),
            payload: &self.payload,
            pos: 0,
            pc: 0,
        }
    }
}

impl PartialEq for Columns {
    /// Both columns, word for word (`next_pc` follows from them).
    fn eq(&self, other: &Columns) -> bool {
        self.payload == other.payload
            && self.ops.len() == other.ops.len()
            && self.ops.iter().zip(&other.ops).all(|(a, b)| a.0 == b.0)
    }
}

/// By-value iterator over a [`Trace`](crate::Trace)'s entries; see
/// [`Trace::iter`](crate::Trace::iter).
///
/// Cloning it is cheap and yields a cursor at the same position, which
/// is how a consumer looks ahead without consuming.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    ops: std::slice::Iter<'a, OpWord>,
    payload: &'a [u64],
    /// Index of the next entry's first payload word.
    pos: usize,
    /// The pc the next entry is predicted at.
    pc: u64,
}

impl Iter<'_> {
    /// The next payload word. `push` writes both columns together, so
    /// the word is always there; reading 0 past the end keeps the
    /// decoder free of panics all the same.
    #[inline]
    fn word(&mut self) -> u64 {
        let w = self.payload.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        w
    }
}

impl Iterator for Iter<'_> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        let w = self.ops.next()?.0;
        let pc = if w & PC_OVERRIDE != 0 {
            self.word()
        } else {
            self.pc
        };
        let mem = if w & MEM != 0 {
            let addr = self.word();
            let value = self.word();
            Some(MemAccess {
                addr,
                width: 1 << ((w >> WIDTH_SHIFT) & 3),
                value,
                fp: w & MEM_FP != 0,
            })
        } else {
            None
        };
        let branch = if w & BRANCH != 0 {
            Some(BranchEvent {
                taken: w & TAKEN != 0,
                target: self.word(),
            })
        } else {
            None
        };
        self.pc = successor(pc, branch);
        Some(TraceEntry {
            pc,
            kind: KINDS[(w & 0xf) as usize],
            dst: reg_from(w >> DST_SHIFT),
            srcs: [reg_from(w >> SRC0_SHIFT), reg_from(w >> SRC1_SHIFT)],
            mem,
            branch,
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ops.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::iter::FusedIterator for Iter<'_> {}
