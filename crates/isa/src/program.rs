//! Program images and the LRISC memory layout.

use crate::op::{Instr, INSTR_BYTES};
use std::collections::BTreeMap;
use std::fmt;

/// Base address of the text segment.
pub const TEXT_BASE: u64 = 0x0001_0000;
/// Base address of the data segment (globals, TOC/constant pool, heap arrays).
pub const DATA_BASE: u64 = 0x0010_0000;
/// Initial stack pointer; the stack grows downward from here.
pub const STACK_TOP: u64 = 0x0080_0000;
/// Total simulated memory size in bytes (text addresses are not backed by
/// data memory; only `[DATA_BASE, STACK_TOP)` is).
pub const MEM_SIZE: u64 = STACK_TOP;
/// The largest data image, constant pool included, that data memory
/// `[DATA_BASE, STACK_TOP)` can hold.
pub const MAX_DATA_IMAGE: u64 = STACK_TOP - DATA_BASE;

/// The kind of segment an address falls into, used by the paper's Figure 2
/// to classify loaded *values* as instruction addresses, data addresses, or
/// plain data.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum Segment {
    /// Within the text segment: the value is an instruction address.
    Text,
    /// Within static data (globals, TOC, constant pool).
    Data,
    /// Within the stack region.
    Stack,
    /// Not a valid address of any segment.
    None,
}

/// Address-space layout of a loaded program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    text_base: u64,
    text_end: u64,
    data_base: u64,
    data_end: u64,
    stack_top: u64,
}

impl Layout {
    /// Builds the layout for a program with `text_len` instructions and
    /// `data_len` bytes of static data.
    pub fn new(text_len: usize, data_len: usize) -> Layout {
        Layout {
            text_base: TEXT_BASE,
            text_end: TEXT_BASE + text_len as u64 * INSTR_BYTES,
            data_base: DATA_BASE,
            data_end: DATA_BASE + data_len as u64,
            stack_top: STACK_TOP,
        }
    }

    /// First text address.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// One past the last text address.
    pub fn text_end(&self) -> u64 {
        self.text_end
    }

    /// First static-data address.
    pub fn data_base(&self) -> u64 {
        self.data_base
    }

    /// One past the last initialized static-data address.
    pub fn data_end(&self) -> u64 {
        self.data_end
    }

    /// Initial stack pointer.
    pub fn stack_top(&self) -> u64 {
        self.stack_top
    }

    /// Classifies a *value* as an address within one of the segments.
    ///
    /// Used for the paper's Figure 2 breakdown: values pointing into text
    /// are "instruction addresses", values pointing into static data or the
    /// stack are "data addresses", everything else is plain data.
    pub fn classify_value(&self, value: u64) -> Segment {
        if value >= self.text_base && value < self.text_end {
            Segment::Text
        } else if value >= self.data_base && value < self.data_end {
            Segment::Data
        } else if value >= self.stack_top.saturating_sub(1 << 20) && value <= self.stack_top {
            // Stack region: the top 1 MiB below STACK_TOP.
            Segment::Stack
        } else {
            Segment::None
        }
    }
}

/// A fully assembled or compiled LRISC program, ready to load into the
/// functional simulator.
///
/// # Examples
///
/// ```
/// use lvp_isa::{Assembler, AsmProfile};
/// let program = Assembler::new(AsmProfile::Toc)
///     .assemble("main: li a0, 42\n out a0\n halt\n")?;
/// assert!(program.text().len() >= 3);
/// # Ok::<(), lvp_isa::AsmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    text: Vec<Instr>,
    data: Vec<u8>,
    entry: u64,
    pool_base: u64,
    symbols: BTreeMap<String, u64>,
    layout: Layout,
}

impl Program {
    /// Assembles the parts of a program into an image.
    ///
    /// `entry` is the starting pc; `pool_base` is the address the `gp`
    /// register is initialized to (TOC / constant pool base).
    pub fn new(
        text: Vec<Instr>,
        data: Vec<u8>,
        entry: u64,
        pool_base: u64,
        symbols: BTreeMap<String, u64>,
    ) -> Program {
        let layout = Layout::new(text.len(), data.len());
        Program {
            text,
            data,
            entry,
            pool_base,
            symbols,
            layout,
        }
    }

    /// The decoded instruction stream. Instruction `i` lives at address
    /// `TEXT_BASE + 4 * i`.
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// The initialized data image, loaded at [`DATA_BASE`].
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Entry-point pc.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Initial value of `gp` (TOC / constant-pool base address).
    pub fn pool_base(&self) -> u64 {
        self.pool_base
    }

    /// Symbol table: label name to address.
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.symbols
    }

    /// Address of a named symbol, if defined.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Address-space layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside text
    /// or misaligned.
    #[inline]
    pub fn fetch(&self, pc: u64) -> Option<&Instr> {
        if pc < TEXT_BASE || !pc.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        self.text.get(((pc - TEXT_BASE) / INSTR_BYTES) as usize)
    }

    /// Renders a disassembly listing of the whole text segment, with
    /// addresses and symbol names.
    pub fn disassemble(&self) -> String {
        let mut by_addr: BTreeMap<u64, &str> = BTreeMap::new();
        for (name, &addr) in &self.symbols {
            by_addr.entry(addr).or_insert(name);
        }
        let mut out = String::new();
        for (i, instr) in self.text.iter().enumerate() {
            let addr = TEXT_BASE + i as u64 * INSTR_BYTES;
            if let Some(name) = by_addr.get(&addr) {
                out.push_str(&format!("{name}:\n"));
            }
            out.push_str(&format!("  {addr:#08x}:  {instr}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Program {{ {} instructions, {} data bytes, entry {:#x} }}",
            self.text.len(),
            self.data.len(),
            self.entry
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn tiny() -> Program {
        let text = vec![
            Instr::Addi {
                rd: Reg::A0,
                rs1: Reg::ZERO,
                imm: 7,
            },
            Instr::Halt,
        ];
        let mut symbols = BTreeMap::new();
        symbols.insert("main".to_string(), TEXT_BASE);
        Program::new(text, vec![1, 2, 3], TEXT_BASE, DATA_BASE, symbols)
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = tiny();
        assert!(p.fetch(TEXT_BASE).is_some());
        assert!(p.fetch(TEXT_BASE + 4).is_some());
        assert!(p.fetch(TEXT_BASE + 8).is_none());
        assert!(p.fetch(TEXT_BASE + 2).is_none(), "misaligned fetch");
        assert!(p.fetch(0).is_none());
    }

    #[test]
    fn layout_classification() {
        let p = tiny();
        let l = p.layout();
        assert_eq!(l.classify_value(TEXT_BASE), Segment::Text);
        assert_eq!(l.classify_value(DATA_BASE + 1), Segment::Data);
        assert_eq!(l.classify_value(STACK_TOP - 64), Segment::Stack);
        assert_eq!(l.classify_value(0xdead_beef_0000), Segment::None);
        assert_eq!(l.classify_value(7), Segment::None);
    }

    #[test]
    fn disassembly_contains_labels() {
        let p = tiny();
        let dis = p.disassemble();
        assert!(dis.contains("main:"));
        assert!(dis.contains("addi a0, zero, 7"));
    }
}
