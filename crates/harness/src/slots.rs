//! Dense per-pc tables over a program's text.
//!
//! The paper's LVPT and LCT are direct-mapped, untagged arrays indexed by
//! pc, and the trace oracles keep their per-pc bookkeeping the same way.
//! [`TextSlots`] maps a pc to its instruction slot `(pc - text_base) / 4`
//! over the program's text, so a per-pc table is a `Vec` with one entry
//! per instruction: no hashing, no search, and memory bounded by the
//! program's size. Every pc of a trace the program produced lies in its
//! text. Any other pc (outside the text or misaligned, which only a
//! hand-built trace has) maps to one shared *overflow* slot past the
//! end, which no static claim reads.

use lvp_isa::Program;

/// The slot geometry of one program's text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TextSlots {
    base: u64,
    len: usize,
}

impl TextSlots {
    /// The slots of `program`'s text.
    pub(crate) fn new(program: &Program) -> TextSlots {
        TextSlots {
            base: program.layout().text_base(),
            len: program.text().len(),
        }
    }

    /// A per-pc table: one `init` per instruction, plus the overflow
    /// slot.
    pub(crate) fn table<T: Clone>(self, init: T) -> Vec<T> {
        vec![init; self.len + 1]
    }

    /// The slot of `pc`: its instruction index, or the overflow slot
    /// when `pc` is not an aligned text address.
    #[inline]
    pub(crate) fn index(self, pc: u64) -> usize {
        // A misaligned offset rotates its low bits to the top, and a pc
        // below the base wraps: either way the index is out of range.
        let i = pc.wrapping_sub(self.base).rotate_right(2);
        if i < self.len as u64 {
            i as usize
        } else {
            self.len
        }
    }

    /// The in-text slot of `pc`, or `None` for the overflow slot: how a
    /// static claim finds its pc's state.
    pub(crate) fn get(self, pc: u64) -> Option<usize> {
        Some(self.index(pc)).filter(|&i| i < self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    #[test]
    fn text_pcs_get_their_own_slot_and_every_other_pc_the_overflow() {
        let p = Assembler::new(AsmProfile::Gp)
            .assemble("main:\n li a0, 1\n li a1, 2\n halt\n")
            .unwrap();
        let slots = TextSlots::new(&p);
        let base = p.layout().text_base();
        let n = p.text().len();
        for i in 0..n {
            assert_eq!(slots.index(base + 4 * i as u64), i);
            assert_eq!(slots.get(base + 4 * i as u64), Some(i));
        }
        for stray in [
            0,
            base - 4,
            base + 2,
            base + 4 * n as u64,
            base + 4 * n as u64 + 1,
            u64::MAX,
            u64::MAX - 3,
        ] {
            assert_eq!(slots.index(stray), n, "{stray:#x}");
            assert_eq!(slots.get(stray), None, "{stray:#x}");
        }
        assert_eq!(slots.table(0u8).len(), n + 1);
    }
}
