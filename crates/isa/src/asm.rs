//! A two-pass assembler for LRISC assembly text.
//!
//! The assembler supports sections (`.text`, `.data`), labels, data
//! directives, and a set of pseudo-instructions whose expansion depends on
//! the selected [`AsmProfile`]:
//!
//! * [`AsmProfile::Toc`] mimics the PowerPC/AIX convention the paper traces
//!   with TRIP6000: `la` (load address) becomes a **load from a
//!   table-of-contents slot** through `gp`. Address materialization is
//!   therefore a memory load — one of the major sources of load value
//!   locality the paper identifies ("Addressability", "Glue code").
//! * [`AsmProfile::Gp`] mimics the Alpha/OSF convention: `la` synthesizes
//!   the address with `lui`/`addi` ALU operations; only large integer and
//!   floating-point literals come from the constant pool.
//!
//! Pseudo-instructions may use `tp` (x4) as an assembler scratch register;
//! user code must not rely on `tp` across pseudo-instructions.
//!
//! # Syntax
//!
//! ```text
//! # comment              ; also a comment
//!         .text
//! main:   addi  sp, sp, -32
//!         sd    ra, 0(sp)
//!         la    t0, table          # profile-dependent expansion
//!         li    t1, 0x123456789    # constant-pool load if > 32 bits
//!         fli   ft0, 2.5           # FP literals always pool-loaded
//!         beqz  t1, done
//!         call  helper
//! done:   ld    ra, 0(sp)
//!         addi  sp, sp, 32
//!         ret
//!         .data
//!         .align 3
//! table:  .dword 1, 2, helper      # labels allowed in .dword
//! msg:    .asciiz "hi\n"
//! buf:    .space 64
//!         .equ  SIZE, 64
//! ```

use crate::op::{Instr, INSTR_BYTES};
use crate::program::{Program, DATA_BASE, MAX_DATA_IMAGE, TEXT_BASE};
use crate::reg::{FReg, Reg};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Code-generation profile selecting how pseudo-instructions materialize
/// addresses and constants; see the crate-level documentation for details.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, Default)]
pub enum AsmProfile {
    /// PowerPC-style: addresses load from a TOC through `gp`.
    #[default]
    Toc,
    /// Alpha-style: addresses synthesized with `lui`/`addi`.
    Gp,
}

impl fmt::Display for AsmProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmProfile::Toc => f.write_str("toc"),
            AsmProfile::Gp => f.write_str("gp"),
        }
    }
}

/// Error produced while assembling, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    msg: String,
    data_image_overflow: bool,
}

impl AsmError {
    fn new(line: usize, msg: impl Into<String>) -> AsmError {
        AsmError {
            line,
            msg: msg.into(),
            data_image_overflow: false,
        }
    }

    /// 1-based source line the error refers to (0 for file-level errors).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Whether the data image, with the constant pool laid out after
    /// it, would exceed [`MAX_DATA_IMAGE`].
    pub fn is_data_image_overflow(&self) -> bool {
        self.data_image_overflow
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "assembly error: {}", self.msg)
        } else {
            write!(f, "assembly error at line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for AsmError {}

/// Key identifying one deduplicated TOC / constant-pool slot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PoolKey {
    /// Address of `symbol + addend`.
    Sym(String, i64),
    /// 64-bit integer literal.
    Int(i64),
    /// Raw bits of an `f64` literal.
    F64(u64),
}

/// Pool of deduplicated 8-byte constant slots addressed via `gp`.
#[derive(Debug, Default)]
struct Pool {
    slots: Vec<PoolKey>,
    index: HashMap<PoolKey, usize>,
}

impl Pool {
    /// Returns the byte offset of `key`'s slot from the pool base,
    /// allocating a new slot on first use.
    fn offset_of(&mut self, key: PoolKey) -> i32 {
        let idx = *self.index.entry(key.clone()).or_insert_with(|| {
            self.slots.push(key);
            self.slots.len() - 1
        });
        (idx * 8) as i32
    }
}

/// A branch/jump target: a named label or a relative `.+N` offset.
#[derive(Debug, Clone, PartialEq)]
enum Target {
    Label(String),
    Relative(i64),
}

/// A parsed source line awaiting pass-2 resolution. Each variant knows how
/// many machine instructions it expands to.
#[derive(Debug, Clone)]
enum PInstr {
    /// A fully-resolved machine instruction.
    Ready(Instr),
    /// Conditional branch: emitter closure picks the opcode.
    Branch {
        mnem: &'static str,
        rs1: Reg,
        rs2: Reg,
        target: Target,
    },
    /// `jal rd, target`
    Jal { rd: Reg, target: Target },
    /// `la rd, sym+addend` (profile-dependent)
    La { rd: Reg, sym: String, addend: i64 },
    /// `li rd, imm` that was assigned a pool slot (pass 1 decided).
    LiPool { rd: Reg, offset: i32 },
    /// `fli fd, literal` via pool slot.
    FliPool { fd: FReg, offset: i32 },
}

impl PInstr {
    /// Number of machine instructions this expands to under `profile`.
    fn size(&self, profile: AsmProfile) -> u64 {
        match self {
            PInstr::Ready(_)
            | PInstr::Branch { .. }
            | PInstr::Jal { .. }
            | PInstr::LiPool { .. }
            | PInstr::FliPool { .. } => 1,
            PInstr::La { .. } => match profile {
                AsmProfile::Toc => 1,
                AsmProfile::Gp => 2,
            },
        }
    }
}

/// Two-pass LRISC assembler.
///
/// # Examples
///
/// ```
/// use lvp_isa::{Assembler, AsmProfile};
/// let src = "
///     .text
/// main:
///     li   a0, 10
///     li   a1, 0
/// loop:
///     add  a1, a1, a0
///     addi a0, a0, -1
///     bnez a0, loop
///     out  a1
///     halt
/// ";
/// let program = Assembler::new(AsmProfile::Gp).assemble(src)?;
/// assert!(program.symbol("loop").is_some());
/// # Ok::<(), lvp_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    profile: AsmProfile,
}

#[derive(Debug, Copy, Clone, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Pass-1 state.
struct Pass1 {
    profile: AsmProfile,
    section: Section,
    items: Vec<(u64, usize, PInstr)>, // (address, line, instr)
    text_cursor: u64,
    data: Vec<u8>,
    symbols: BTreeMap<String, u64>,
    equs: HashMap<String, i64>,
    pool: Pool,
    data_patches: Vec<DataPatch>,
}

/// A `.dword`/`.word` cell referencing a symbol, patched after pass 1.
struct DataPatch {
    offset: usize,
    size: usize,
    sym: String,
    addend: i64,
    line: usize,
}

impl Assembler {
    /// Creates an assembler with the given profile.
    pub fn new(profile: AsmProfile) -> Assembler {
        Assembler { profile }
    }

    /// The profile this assembler expands pseudo-instructions with.
    pub fn profile(&self) -> AsmProfile {
        self.profile
    }

    /// Assembles `source` into a [`Program`].
    ///
    /// The entry point is the `_start` symbol if defined, otherwise `main`,
    /// otherwise the first text address.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] carrying the offending source line for any
    /// syntax error, unknown mnemonic/register, duplicate label, undefined
    /// symbol, or out-of-range operand.
    pub fn assemble(&self, source: &str) -> Result<Program, AsmError> {
        let mut p1 = Pass1 {
            profile: self.profile,
            section: Section::Text,
            items: Vec::new(),
            text_cursor: TEXT_BASE,
            data: Vec::new(),
            symbols: BTreeMap::new(),
            equs: HashMap::new(),
            pool: Pool::default(),
            data_patches: Vec::new(),
        };

        for (i, raw) in source.lines().enumerate() {
            let line_no = i + 1;
            p1.line(raw, line_no)?;
        }

        // Lay out the pool after the data segment, 8-byte aligned. Slots
        // added after the last data directive can still overflow it.
        p1.reserve_data(0, 0)?;
        while !p1.data.len().is_multiple_of(8) {
            p1.data.push(0);
        }
        let pool_base = DATA_BASE + p1.data.len() as u64;

        // Resolve data patches (.dword label).
        for patch in &p1.data_patches {
            let val = p1
                .symbols
                .get(&patch.sym)
                .copied()
                .map(|a| a as i64)
                .or_else(|| p1.equs.get(&patch.sym).copied())
                .ok_or_else(|| {
                    AsmError::new(patch.line, format!("undefined symbol `{}`", patch.sym))
                })?
                + patch.addend;
            let bytes = (val as u64).to_le_bytes();
            p1.data[patch.offset..patch.offset + patch.size].copy_from_slice(&bytes[..patch.size]);
        }

        // Emit pool contents.
        for key in &p1.pool.slots {
            let val: u64 = match key {
                PoolKey::Sym(name, addend) => {
                    let base = p1.symbols.get(name).copied().ok_or_else(|| {
                        AsmError::new(0, format!("undefined symbol `{name}` referenced by la"))
                    })?;
                    (base as i64 + addend) as u64
                }
                PoolKey::Int(v) => *v as u64,
                PoolKey::F64(bits) => *bits,
            };
            p1.data.extend_from_slice(&val.to_le_bytes());
        }

        // Pass 2: resolve and expand.
        let mut text = Vec::with_capacity(p1.items.len());
        for (addr, line, item) in &p1.items {
            self.emit(*addr, *line, item, &p1.symbols, &mut text)?;
        }

        let entry = p1
            .symbols
            .get("_start")
            .or_else(|| p1.symbols.get("main"))
            .copied()
            .unwrap_or(TEXT_BASE);

        Ok(Program::new(text, p1.data, entry, pool_base, p1.symbols))
    }

    fn emit(
        &self,
        addr: u64,
        line: usize,
        item: &PInstr,
        symbols: &BTreeMap<String, u64>,
        out: &mut Vec<Instr>,
    ) -> Result<(), AsmError> {
        let resolve = |t: &Target| -> Result<i32, AsmError> {
            let target_addr = match t {
                Target::Label(name) => *symbols
                    .get(name)
                    .ok_or_else(|| AsmError::new(line, format!("undefined label `{name}`")))?
                    as i64,
                Target::Relative(off) => addr as i64 + off,
            };
            let delta = target_addr - addr as i64;
            i32::try_from(delta)
                .map_err(|_| AsmError::new(line, "branch target out of range".to_string()))
        };
        match item {
            PInstr::Ready(i) => out.push(*i),
            PInstr::Branch {
                mnem,
                rs1,
                rs2,
                target,
            } => {
                let offset = resolve(target)?;
                let (rs1, rs2) = (*rs1, *rs2);
                out.push(match *mnem {
                    "beq" => Instr::Beq { rs1, rs2, offset },
                    "bne" => Instr::Bne { rs1, rs2, offset },
                    "blt" => Instr::Blt { rs1, rs2, offset },
                    "bge" => Instr::Bge { rs1, rs2, offset },
                    "bltu" => Instr::Bltu { rs1, rs2, offset },
                    "bgeu" => Instr::Bgeu { rs1, rs2, offset },
                    _ => unreachable!("non-branch mnemonic in Branch item"),
                });
            }
            PInstr::Jal { rd, target } => {
                let offset = resolve(target)?;
                out.push(Instr::Jal { rd: *rd, offset });
            }
            PInstr::La { rd, sym, addend } => {
                let target = *symbols
                    .get(sym)
                    .ok_or_else(|| AsmError::new(line, format!("undefined symbol `{sym}`")))?
                    as i64
                    + addend;
                match self.profile {
                    AsmProfile::Toc => {
                        // Slot offset was recorded in pass 1; recompute it
                        // deterministically is not possible here, so La under
                        // Toc is lowered in pass 1 instead. Reaching this arm
                        // is a bug.
                        unreachable!("Toc-profile la should be lowered in pass 1")
                    }
                    AsmProfile::Gp => {
                        let (hi, lo) = split_hi_lo(target);
                        out.push(Instr::Lui { rd: *rd, imm: hi });
                        out.push(Instr::Addi {
                            rd: *rd,
                            rs1: *rd,
                            imm: lo,
                        });
                    }
                }
            }
            PInstr::LiPool { rd, offset } => {
                out.push(Instr::Ld {
                    rd: *rd,
                    base: Reg::GP,
                    offset: *offset,
                });
            }
            PInstr::FliPool { fd, offset } => {
                out.push(Instr::Fld {
                    fd: *fd,
                    base: Reg::GP,
                    offset: *offset,
                });
            }
        }
        Ok(())
    }
}

/// Splits an address/constant into `lui`/`addi` halves with the RISC-V
/// rounding rule (the low 12 bits are sign-extended by `addi`).
fn split_hi_lo(value: i64) -> (i32, i32) {
    debug_assert!(value >= i32::MIN as i64 && value <= i32::MAX as i64);
    let hi = ((value + 0x800) >> 12) as i32;
    let lo = (value - ((hi as i64) << 12)) as i32;
    (hi, lo)
}

impl Pass1 {
    fn line(&mut self, raw: &str, line_no: usize) -> Result<(), AsmError> {
        let mut rest = strip_comment(raw).trim();
        // Labels: allow several on one line.
        while let Some(colon) = find_label_colon(rest) {
            let name = rest[..colon].trim();
            if !is_ident(name) {
                return Err(AsmError::new(
                    line_no,
                    format!("invalid label name `{name}`"),
                ));
            }
            let addr = match self.section {
                Section::Text => self.text_cursor,
                Section::Data => DATA_BASE + self.data.len() as u64,
            };
            if self.symbols.insert(name.to_string(), addr).is_some() {
                return Err(AsmError::new(line_no, format!("duplicate label `{name}`")));
            }
            rest = rest[colon + 1..].trim();
        }
        if rest.is_empty() {
            return Ok(());
        }
        if let Some(directive) = rest.strip_prefix('.') {
            // Section and data directives.
            let (name, args) = split_mnemonic(directive);
            return self.directive(name, args, line_no);
        }
        let (mnem, args) = split_mnemonic(rest);
        self.instruction(mnem, args, line_no)
    }

    fn directive(&mut self, name: &str, args: &str, line: usize) -> Result<(), AsmError> {
        match name {
            "text" => self.section = Section::Text,
            "data" => self.section = Section::Data,
            "global" | "globl" => {} // accepted for compatibility; symbols are all global
            "align" => {
                let n = self.int_arg(args, line)?;
                if !(0..=12).contains(&n) {
                    return Err(AsmError::new(line, "alignment exponent must be 0..=12"));
                }
                if self.section == Section::Data {
                    let align = 1usize << n;
                    let pad = self.data.len().next_multiple_of(align) - self.data.len();
                    self.reserve_data(pad as u64, line)?;
                    while !self.data.len().is_multiple_of(align) {
                        self.data.push(0);
                    }
                }
            }
            "byte" | "half" | "word" | "dword" => {
                let size = match name {
                    "byte" => 1,
                    "half" => 2,
                    "word" => 4,
                    _ => 8,
                };
                if self.section != Section::Data {
                    return Err(AsmError::new(
                        line,
                        format!(".{name} outside .data section"),
                    ));
                }
                for piece in split_args(args) {
                    self.data_cell(&piece, size, line)?;
                }
            }
            "ascii" | "asciiz" => {
                if self.section != Section::Data {
                    return Err(AsmError::new(
                        line,
                        format!(".{name} outside .data section"),
                    ));
                }
                let s = parse_string(args.trim(), line)?;
                self.reserve_data(s.len() as u64 + u64::from(name == "asciiz"), line)?;
                self.data.extend_from_slice(&s);
                if name == "asciiz" {
                    self.data.push(0);
                }
            }
            "space" => {
                if self.section != Section::Data {
                    return Err(AsmError::new(line, ".space outside .data section"));
                }
                let pieces = split_args(args);
                if pieces.is_empty() || pieces.len() > 2 {
                    return Err(AsmError::new(line, ".space takes 1 or 2 arguments"));
                }
                let n = self.int_arg(&pieces[0], line)?;
                let fill = if pieces.len() == 2 {
                    self.int_arg(&pieces[1], line)? as u8
                } else {
                    0
                };
                if n < 0 {
                    return Err(AsmError::new(line, ".space size must be non-negative"));
                }
                self.reserve_data(n as u64, line)?;
                self.data.extend(std::iter::repeat_n(fill, n as usize));
            }
            "equ" => {
                let pieces = split_args(args);
                if pieces.len() != 2 {
                    return Err(AsmError::new(line, ".equ takes `name, value`"));
                }
                let name = pieces[0].trim().to_string();
                if !is_ident(&name) {
                    return Err(AsmError::new(line, format!("invalid .equ name `{name}`")));
                }
                let value = self.int_arg(&pieces[1], line)?;
                if self.equs.insert(name.clone(), value).is_some() {
                    return Err(AsmError::new(line, format!("duplicate .equ `{name}`")));
                }
            }
            other => {
                return Err(AsmError::new(line, format!("unknown directive `.{other}`")));
            }
        }
        Ok(())
    }

    /// Emits one data cell that may be an integer expression or a symbol
    /// reference (patched after pass 1).
    fn data_cell(&mut self, text: &str, size: usize, line: usize) -> Result<(), AsmError> {
        self.reserve_data(size as u64, line)?;
        let text = text.trim();
        if let Ok(v) = self.eval_int(text, line) {
            let bytes = (v as u64).to_le_bytes();
            self.data.extend_from_slice(&bytes[..size]);
            return Ok(());
        }
        // Symbol (+/- addend) reference.
        let (sym, addend) = split_sym_addend(text)
            .ok_or_else(|| AsmError::new(line, format!("bad data value `{text}`")))?;
        self.data_patches.push(DataPatch {
            offset: self.data.len(),
            size,
            sym,
            addend,
            line,
        });
        self.data.extend(std::iter::repeat_n(0u8, size));
        Ok(())
    }

    /// Refuses to grow the data image by `extra` bytes when the image,
    /// with the constant pool so far laid out after it, would then
    /// exceed [`MAX_DATA_IMAGE`]. Called before anything is allocated.
    fn reserve_data(&self, extra: u64, line: usize) -> Result<(), AsmError> {
        let image = (self.data.len() as u64)
            .checked_add(extra)
            .and_then(|len| len.checked_next_multiple_of(8))
            .and_then(|len| len.checked_add(8 * self.pool.slots.len() as u64));
        match image {
            Some(len) if len <= MAX_DATA_IMAGE => Ok(()),
            _ => Err(AsmError {
                data_image_overflow: true,
                ..AsmError::new(
                    line,
                    format!("data image exceeds {MAX_DATA_IMAGE} bytes (constant pool included)"),
                )
            }),
        }
    }

    fn push(&mut self, line: usize, item: PInstr) {
        let size = item.size(self.profile);
        self.items.push((self.text_cursor, line, item));
        self.text_cursor += size * INSTR_BYTES;
    }

    fn instruction(&mut self, mnem: &str, args: &str, line: usize) -> Result<(), AsmError> {
        if self.section != Section::Text {
            return Err(AsmError::new(line, "instruction outside .text section"));
        }
        let a = split_args(args);
        let err = |msg: &str| AsmError::new(line, format!("{mnem}: {msg}"));
        let need = |n: usize| -> Result<(), AsmError> {
            if a.len() == n {
                Ok(())
            } else {
                Err(AsmError::new(
                    line,
                    format!("{mnem}: expected {n} operands, found {}", a.len()),
                ))
            }
        };

        macro_rules! reg {
            ($i:expr) => {
                a[$i]
                    .parse::<Reg>()
                    .map_err(|e| AsmError::new(line, e.to_string()))?
            };
        }
        macro_rules! freg {
            ($i:expr) => {
                a[$i]
                    .parse::<FReg>()
                    .map_err(|e| AsmError::new(line, e.to_string()))?
            };
        }

        // Register-register ALU ops.
        let rrr: Option<fn(Reg, Reg, Reg) -> Instr> = match mnem {
            "add" => Some(|rd, rs1, rs2| Instr::Add { rd, rs1, rs2 }),
            "sub" => Some(|rd, rs1, rs2| Instr::Sub { rd, rs1, rs2 }),
            "sll" => Some(|rd, rs1, rs2| Instr::Sll { rd, rs1, rs2 }),
            "slt" => Some(|rd, rs1, rs2| Instr::Slt { rd, rs1, rs2 }),
            "sltu" => Some(|rd, rs1, rs2| Instr::Sltu { rd, rs1, rs2 }),
            "xor" => Some(|rd, rs1, rs2| Instr::Xor { rd, rs1, rs2 }),
            "srl" => Some(|rd, rs1, rs2| Instr::Srl { rd, rs1, rs2 }),
            "sra" => Some(|rd, rs1, rs2| Instr::Sra { rd, rs1, rs2 }),
            "or" => Some(|rd, rs1, rs2| Instr::Or { rd, rs1, rs2 }),
            "and" => Some(|rd, rs1, rs2| Instr::And { rd, rs1, rs2 }),
            "mul" => Some(|rd, rs1, rs2| Instr::Mul { rd, rs1, rs2 }),
            "mulh" => Some(|rd, rs1, rs2| Instr::Mulh { rd, rs1, rs2 }),
            "div" => Some(|rd, rs1, rs2| Instr::Div { rd, rs1, rs2 }),
            "divu" => Some(|rd, rs1, rs2| Instr::Divu { rd, rs1, rs2 }),
            "rem" => Some(|rd, rs1, rs2| Instr::Rem { rd, rs1, rs2 }),
            "remu" => Some(|rd, rs1, rs2| Instr::Remu { rd, rs1, rs2 }),
            _ => None,
        };
        if let Some(build) = rrr {
            need(3)?;
            let i = build(reg!(0), reg!(1), reg!(2));
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }

        // Register-immediate ALU ops.
        let rri: Option<fn(Reg, Reg, i32) -> Instr> = match mnem {
            "addi" => Some(|rd, rs1, imm| Instr::Addi { rd, rs1, imm }),
            "slti" => Some(|rd, rs1, imm| Instr::Slti { rd, rs1, imm }),
            "sltiu" => Some(|rd, rs1, imm| Instr::Sltiu { rd, rs1, imm }),
            "xori" => Some(|rd, rs1, imm| Instr::Xori { rd, rs1, imm }),
            "ori" => Some(|rd, rs1, imm| Instr::Ori { rd, rs1, imm }),
            "andi" => Some(|rd, rs1, imm| Instr::Andi { rd, rs1, imm }),
            _ => None,
        };
        if let Some(build) = rri {
            need(3)?;
            let imm = self.eval_int(&a[2], line)?;
            let imm = i32::try_from(imm).map_err(|_| err("immediate out of range"))?;
            let i = build(reg!(0), reg!(1), imm);
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }

        // Shifts by immediate.
        if matches!(mnem, "slli" | "srli" | "srai") {
            need(3)?;
            let shamt = self.eval_int(&a[2], line)?;
            if !(0..64).contains(&shamt) {
                return Err(err("shift amount must be in 0..64"));
            }
            let (rd, rs1, shamt) = (reg!(0), reg!(1), shamt as u8);
            let i = match mnem {
                "slli" => Instr::Slli { rd, rs1, shamt },
                "srli" => Instr::Srli { rd, rs1, shamt },
                _ => Instr::Srai { rd, rs1, shamt },
            };
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }

        // Loads and stores: `op r, off(base)`.
        let load: Option<fn(Reg, Reg, i32) -> Instr> = match mnem {
            "lb" => Some(|rd, base, offset| Instr::Lb { rd, base, offset }),
            "lbu" => Some(|rd, base, offset| Instr::Lbu { rd, base, offset }),
            "lh" => Some(|rd, base, offset| Instr::Lh { rd, base, offset }),
            "lhu" => Some(|rd, base, offset| Instr::Lhu { rd, base, offset }),
            "lw" => Some(|rd, base, offset| Instr::Lw { rd, base, offset }),
            "lwu" => Some(|rd, base, offset| Instr::Lwu { rd, base, offset }),
            "ld" => Some(|rd, base, offset| Instr::Ld { rd, base, offset }),
            _ => None,
        };
        if let Some(build) = load {
            need(2)?;
            let (offset, base) = self.mem_operand(&a[1], line)?;
            self.push(line, PInstr::Ready(build(reg!(0), base, offset)));
            return Ok(());
        }
        let store: Option<fn(Reg, Reg, i32) -> Instr> = match mnem {
            "sb" => Some(|rs2, base, offset| Instr::Sb { rs2, base, offset }),
            "sh" => Some(|rs2, base, offset| Instr::Sh { rs2, base, offset }),
            "sw" => Some(|rs2, base, offset| Instr::Sw { rs2, base, offset }),
            "sd" => Some(|rs2, base, offset| Instr::Sd { rs2, base, offset }),
            _ => None,
        };
        if let Some(build) = store {
            need(2)?;
            let (offset, base) = self.mem_operand(&a[1], line)?;
            self.push(line, PInstr::Ready(build(reg!(0), base, offset)));
            return Ok(());
        }
        if mnem == "fld" {
            need(2)?;
            let (offset, base) = self.mem_operand(&a[1], line)?;
            let i = Instr::Fld {
                fd: freg!(0),
                base,
                offset,
            };
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }
        if mnem == "fsd" {
            need(2)?;
            let (offset, base) = self.mem_operand(&a[1], line)?;
            let i = Instr::Fsd {
                fs2: freg!(0),
                base,
                offset,
            };
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }

        // FP three-operand ops.
        let fff: Option<fn(FReg, FReg, FReg) -> Instr> = match mnem {
            "fadd.d" => Some(|fd, fs1, fs2| Instr::FaddD { fd, fs1, fs2 }),
            "fsub.d" => Some(|fd, fs1, fs2| Instr::FsubD { fd, fs1, fs2 }),
            "fmul.d" => Some(|fd, fs1, fs2| Instr::FmulD { fd, fs1, fs2 }),
            "fdiv.d" => Some(|fd, fs1, fs2| Instr::FdivD { fd, fs1, fs2 }),
            "fmin.d" => Some(|fd, fs1, fs2| Instr::FminD { fd, fs1, fs2 }),
            "fmax.d" => Some(|fd, fs1, fs2| Instr::FmaxD { fd, fs1, fs2 }),
            _ => None,
        };
        if let Some(build) = fff {
            need(3)?;
            let i = build(freg!(0), freg!(1), freg!(2));
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }
        // FP compares produce an integer register.
        let cmp: Option<fn(Reg, FReg, FReg) -> Instr> = match mnem {
            "feq.d" => Some(|rd, fs1, fs2| Instr::FeqD { rd, fs1, fs2 }),
            "flt.d" => Some(|rd, fs1, fs2| Instr::FltD { rd, fs1, fs2 }),
            "fle.d" => Some(|rd, fs1, fs2| Instr::FleD { rd, fs1, fs2 }),
            _ => None,
        };
        if let Some(build) = cmp {
            need(3)?;
            let i = build(reg!(0), freg!(1), freg!(2));
            self.push(line, PInstr::Ready(i));
            return Ok(());
        }
        match mnem {
            "fsqrt.d" => {
                need(2)?;
                let i = Instr::FsqrtD {
                    fd: freg!(0),
                    fs1: freg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fneg.d" => {
                need(2)?;
                let i = Instr::FnegD {
                    fd: freg!(0),
                    fs1: freg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fabs.d" => {
                need(2)?;
                let i = Instr::FabsD {
                    fd: freg!(0),
                    fs1: freg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fmv.d" => {
                // Pseudo: fmax.d fd, fs, fs
                need(2)?;
                let fs = freg!(1);
                let i = Instr::FmaxD {
                    fd: freg!(0),
                    fs1: fs,
                    fs2: fs,
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fcvt.d.l" => {
                need(2)?;
                let i = Instr::FcvtDL {
                    fd: freg!(0),
                    rs1: reg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fcvt.l.d" => {
                need(2)?;
                let i = Instr::FcvtLD {
                    rd: reg!(0),
                    fs1: freg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fmv.x.d" => {
                need(2)?;
                let i = Instr::FmvXD {
                    rd: reg!(0),
                    fs1: freg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            "fmv.d.x" => {
                need(2)?;
                let i = Instr::FmvDX {
                    fd: freg!(0),
                    rs1: reg!(1),
                };
                self.push(line, PInstr::Ready(i));
                return Ok(());
            }
            _ => {}
        }

        // Branches.
        if matches!(mnem, "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu") {
            need(3)?;
            let target = parse_target(&a[2], line)?;
            let mnem_static = static_branch(mnem);
            let item = PInstr::Branch {
                mnem: mnem_static,
                rs1: reg!(0),
                rs2: reg!(1),
                target,
            };
            self.push(line, item);
            return Ok(());
        }
        // Swapped-operand branch pseudos.
        if matches!(mnem, "bgt" | "ble" | "bgtu" | "bleu") {
            need(3)?;
            let target = parse_target(&a[2], line)?;
            let (m, rs1, rs2) = match mnem {
                "bgt" => ("blt", reg!(1), reg!(0)),
                "ble" => ("bge", reg!(1), reg!(0)),
                "bgtu" => ("bltu", reg!(1), reg!(0)),
                _ => ("bgeu", reg!(1), reg!(0)),
            };
            let item = PInstr::Branch {
                mnem: static_branch(m),
                rs1,
                rs2,
                target,
            };
            self.push(line, item);
            return Ok(());
        }
        // Zero-comparison branch pseudos.
        if matches!(mnem, "beqz" | "bnez" | "bltz" | "bgez" | "blez" | "bgtz") {
            need(2)?;
            let target = parse_target(&a[1], line)?;
            let rs = reg!(0);
            let (m, rs1, rs2) = match mnem {
                "beqz" => ("beq", rs, Reg::ZERO),
                "bnez" => ("bne", rs, Reg::ZERO),
                "bltz" => ("blt", rs, Reg::ZERO),
                "bgez" => ("bge", rs, Reg::ZERO),
                "blez" => ("bge", Reg::ZERO, rs),
                _ => ("blt", Reg::ZERO, rs),
            };
            let item = PInstr::Branch {
                mnem: static_branch(m),
                rs1,
                rs2,
                target,
            };
            self.push(line, item);
            return Ok(());
        }

        match mnem {
            "lui" => {
                need(2)?;
                let imm = self.eval_int(&a[1], line)?;
                if !(-(1 << 19)..(1 << 19)).contains(&imm) {
                    return Err(err("lui immediate must fit in 20 bits"));
                }
                let i = Instr::Lui {
                    rd: reg!(0),
                    imm: imm as i32,
                };
                self.push(line, PInstr::Ready(i));
            }
            "jal" => {
                // `jal target` or `jal rd, target`
                if a.len() == 1 {
                    let target = parse_target(&a[0], line)?;
                    self.push(
                        line,
                        PInstr::Jal {
                            rd: Reg::RA,
                            target,
                        },
                    );
                } else {
                    need(2)?;
                    let target = parse_target(&a[1], line)?;
                    self.push(
                        line,
                        PInstr::Jal {
                            rd: reg!(0),
                            target,
                        },
                    );
                }
            }
            "jalr" => {
                // `jalr rs1` or `jalr rd, rs1, offset`
                if a.len() == 1 {
                    let i = Instr::Jalr {
                        rd: Reg::RA,
                        rs1: reg!(0),
                        offset: 0,
                    };
                    self.push(line, PInstr::Ready(i));
                } else {
                    need(3)?;
                    let offset = self.eval_int(&a[2], line)?;
                    let offset = i32::try_from(offset).map_err(|_| err("offset out of range"))?;
                    let i = Instr::Jalr {
                        rd: reg!(0),
                        rs1: reg!(1),
                        offset,
                    };
                    self.push(line, PInstr::Ready(i));
                }
            }
            "j" => {
                need(1)?;
                let target = parse_target(&a[0], line)?;
                self.push(
                    line,
                    PInstr::Jal {
                        rd: Reg::ZERO,
                        target,
                    },
                );
            }
            "jr" => {
                need(1)?;
                let i = Instr::Jalr {
                    rd: Reg::ZERO,
                    rs1: reg!(0),
                    offset: 0,
                };
                self.push(line, PInstr::Ready(i));
            }
            "call" => {
                need(1)?;
                let target = parse_target(&a[0], line)?;
                self.push(
                    line,
                    PInstr::Jal {
                        rd: Reg::RA,
                        target,
                    },
                );
            }
            "callr" => {
                need(1)?;
                let i = Instr::Jalr {
                    rd: Reg::RA,
                    rs1: reg!(0),
                    offset: 0,
                };
                self.push(line, PInstr::Ready(i));
            }
            "ret" => {
                need(0)?;
                let i = Instr::Jalr {
                    rd: Reg::ZERO,
                    rs1: Reg::RA,
                    offset: 0,
                };
                self.push(line, PInstr::Ready(i));
            }
            "mv" => {
                need(2)?;
                let i = Instr::Addi {
                    rd: reg!(0),
                    rs1: reg!(1),
                    imm: 0,
                };
                self.push(line, PInstr::Ready(i));
            }
            "not" => {
                need(2)?;
                let i = Instr::Xori {
                    rd: reg!(0),
                    rs1: reg!(1),
                    imm: -1,
                };
                self.push(line, PInstr::Ready(i));
            }
            "neg" => {
                need(2)?;
                let i = Instr::Sub {
                    rd: reg!(0),
                    rs1: Reg::ZERO,
                    rs2: reg!(1),
                };
                self.push(line, PInstr::Ready(i));
            }
            "seqz" => {
                need(2)?;
                let i = Instr::Sltiu {
                    rd: reg!(0),
                    rs1: reg!(1),
                    imm: 1,
                };
                self.push(line, PInstr::Ready(i));
            }
            "snez" => {
                need(2)?;
                let i = Instr::Sltu {
                    rd: reg!(0),
                    rs1: Reg::ZERO,
                    rs2: reg!(1),
                };
                self.push(line, PInstr::Ready(i));
            }
            "li" => {
                need(2)?;
                let rd = reg!(0);
                let imm = self.eval_int(&a[1], line)?;
                self.lower_li(rd, imm, line);
            }
            "la" => {
                need(2)?;
                let rd = reg!(0);
                let (sym, addend) = split_sym_addend(&a[1])
                    .ok_or_else(|| err("expected `symbol` or `symbol+offset`"))?;
                match self.profile {
                    AsmProfile::Toc => {
                        let off = self.pool.offset_of(PoolKey::Sym(sym, addend));
                        self.push(line, PInstr::LiPool { rd, offset: off });
                    }
                    AsmProfile::Gp => {
                        self.push(line, PInstr::La { rd, sym, addend });
                    }
                }
            }
            "fli" => {
                need(2)?;
                let fd = freg!(0);
                let value: f64 = a[1]
                    .trim()
                    .parse()
                    .map_err(|_| err("expected floating-point literal"))?;
                let off = self.pool.offset_of(PoolKey::F64(value.to_bits()));
                self.push(line, PInstr::FliPool { fd, offset: off });
            }
            "out" => {
                need(1)?;
                let i = Instr::Out { rs1: reg!(0) };
                self.push(line, PInstr::Ready(i));
            }
            "outf" => {
                need(1)?;
                let i = Instr::OutF { fs1: freg!(0) };
                self.push(line, PInstr::Ready(i));
            }
            "halt" => {
                need(0)?;
                self.push(line, PInstr::Ready(Instr::Halt));
            }
            "nop" => {
                need(0)?;
                self.push(line, PInstr::Ready(Instr::Nop));
            }
            other => {
                return Err(AsmError::new(line, format!("unknown mnemonic `{other}`")));
            }
        }
        Ok(())
    }

    /// Lowers `li rd, imm` according to the constant's size; constants that
    /// do not fit in 32 bits come from the constant pool in both profiles
    /// (as real PowerPC *and* Alpha compilers do).
    fn lower_li(&mut self, rd: Reg, imm: i64, line: usize) {
        if (-2048..2048).contains(&imm) {
            self.push(
                line,
                PInstr::Ready(Instr::Addi {
                    rd,
                    rs1: Reg::ZERO,
                    imm: imm as i32,
                }),
            );
        } else if imm >= i32::MIN as i64 && imm <= i32::MAX as i64 {
            let (hi, lo) = split_hi_lo(imm);
            self.push(line, PInstr::Ready(Instr::Lui { rd, imm: hi }));
            if lo != 0 {
                self.push(
                    line,
                    PInstr::Ready(Instr::Addi {
                        rd,
                        rs1: rd,
                        imm: lo,
                    }),
                );
            }
        } else {
            let off = self.pool.offset_of(PoolKey::Int(imm));
            self.push(line, PInstr::LiPool { rd, offset: off });
        }
    }

    /// Parses `off(base)`, `(base)`, or `off` (base defaults to `zero`).
    fn mem_operand(&mut self, text: &str, line: usize) -> Result<(i32, Reg), AsmError> {
        let text = text.trim();
        if let Some(open) = text.find('(') {
            let close = text
                .rfind(')')
                .ok_or_else(|| AsmError::new(line, "missing `)` in memory operand"))?;
            let off_text = text[..open].trim();
            let base_text = text[open + 1..close].trim();
            let base = base_text
                .parse::<Reg>()
                .map_err(|e| AsmError::new(line, e.to_string()))?;
            let off = if off_text.is_empty() {
                0
            } else {
                self.eval_int(off_text, line)?
            };
            let off = i32::try_from(off)
                .map_err(|_| AsmError::new(line, "memory offset out of range"))?;
            Ok((off, base))
        } else {
            let off = self.eval_int(text, line)?;
            let off = i32::try_from(off)
                .map_err(|_| AsmError::new(line, "memory offset out of range"))?;
            Ok((off, Reg::ZERO))
        }
    }

    /// Evaluates an integer literal or a previously-defined `.equ` constant,
    /// with optional `+`/`-` addend (e.g. `SIZE-1`).
    fn eval_int(&self, text: &str, line: usize) -> Result<i64, AsmError> {
        let text = text.trim();
        if let Some(v) = parse_int(text) {
            return Ok(v);
        }
        // name, name+int, name-int
        if let Some((sym, addend)) = split_sym_addend(text) {
            if let Some(&v) = self.equs.get(&sym) {
                return Ok(v.wrapping_add(addend));
            }
        }
        // Echo a bounded prefix: an operand can be arbitrarily long.
        let shown = match text.char_indices().nth(64) {
            Some((end, _)) => format!("{}…", &text[..end]),
            None => text.to_string(),
        };
        Err(AsmError::new(
            line,
            format!("expected integer expression, found `{shown}`"),
        ))
    }

    fn int_arg(&self, args: &str, line: usize) -> Result<i64, AsmError> {
        self.eval_int(args, line)
    }
}

fn static_branch(m: &str) -> &'static str {
    match m {
        "beq" => "beq",
        "bne" => "bne",
        "blt" => "blt",
        "bge" => "bge",
        "bltu" => "bltu",
        "bgeu" => "bgeu",
        _ => unreachable!("unknown branch mnemonic"),
    }
}

/// Strips `#` and `;` comments, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' | ';' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the colon ending a leading label, if any (not inside operands).
fn find_label_colon(s: &str) -> Option<usize> {
    let colon = s.find(':')?;
    // Only treat as a label if everything before the colon is an identifier.
    is_ident(s[..colon].trim()).then_some(colon)
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// Splits a line into mnemonic/directive name and the remaining argument text.
fn split_mnemonic(s: &str) -> (&str, &str) {
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim()),
        None => (s, ""),
    }
}

/// Splits comma-separated operands (no nesting needed for LRISC syntax),
/// respecting string literals.
fn split_args(s: &str) -> Vec<String> {
    let s = s.trim();
    if s.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_str = !in_str;
            }
            ',' if !in_str => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    out.push(cur.trim().to_string());
    out
}

/// Parses an integer literal: decimal, `0x` hex, `0b` binary, or a
/// character literal with common escapes.
fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix("'").and_then(|t| t.strip_suffix("'")) {
        let c = match body {
            "\\n" => b'\n',
            "\\t" => b'\t',
            "\\0" => 0,
            "\\r" => b'\r',
            "\\\\" => b'\\',
            "\\'" => b'\'',
            _ => {
                let mut chars = body.chars();
                let c = chars.next()?;
                if chars.next().is_some() || !c.is_ascii() {
                    return None;
                }
                c as u8
            }
        };
        return Some(c as i64);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b.trim()),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok().or_else(|| {
            // Allow full-width u64 hex literals like 0xffffffffffffffff.
            u64::from_str_radix(hex, 16).ok().map(|u| u as i64)
        })?
    } else if let Some(bin) = body.strip_prefix("0b") {
        i64::from_str_radix(bin, 2).ok()?
    } else {
        // Parse the magnitude wider than i64 so that i64::MIN, whose
        // magnitude has no positive i64, is accepted.
        let v = body.parse::<i128>().ok()?;
        return i64::try_from(if neg { -v } else { v }).ok();
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

/// Splits `symbol`, `symbol+N`, or `symbol-N`.
fn split_sym_addend(s: &str) -> Option<(String, i64)> {
    let s = s.trim();
    if let Some(plus) = s.rfind('+') {
        let (name, num) = (s[..plus].trim(), s[plus + 1..].trim());
        if is_ident(name) {
            return Some((name.to_string(), parse_int(num)?));
        }
    }
    if let Some(minus) = s.rfind('-') {
        if minus > 0 {
            let (name, num) = (s[..minus].trim(), s[minus + 1..].trim());
            if is_ident(name) {
                return Some((name.to_string(), parse_int(num)?.wrapping_neg()));
            }
        }
    }
    is_ident(s).then(|| (s.to_string(), 0))
}

/// Parses a branch target: label name or relative `.+N` / `.-N`.
fn parse_target(s: &str, line: usize) -> Result<Target, AsmError> {
    let s = s.trim();
    if let Some(rel) = s.strip_prefix('.') {
        if rel.starts_with('+') || rel.starts_with('-') {
            let off = parse_int(rel)
                .ok_or_else(|| AsmError::new(line, format!("bad relative target `{s}`")))?;
            return Ok(Target::Relative(off));
        }
    }
    if is_ident(s) {
        Ok(Target::Label(s.to_string()))
    } else {
        Err(AsmError::new(line, format!("bad branch target `{s}`")))
    }
}

/// Parses a double-quoted string literal with escapes.
fn parse_string(s: &str, line: usize) -> Result<Vec<u8>, AsmError> {
    let inner = s
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| AsmError::new(line, "expected double-quoted string"))?;
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            let esc = chars
                .next()
                .ok_or_else(|| AsmError::new(line, "dangling escape in string"))?;
            out.push(match esc {
                'n' => b'\n',
                't' => b'\t',
                'r' => b'\r',
                '0' => 0,
                '\\' => b'\\',
                '"' => b'"',
                other => {
                    return Err(AsmError::new(line, format!("unknown escape `\\{other}`")));
                }
            });
        } else if c.is_ascii() {
            out.push(c as u8);
        } else {
            return Err(AsmError::new(
                line,
                format!("non-ASCII character `{c}` in string"),
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm(profile: AsmProfile, src: &str) -> Program {
        Assembler::new(profile)
            .assemble(src)
            .expect("assembly failed")
    }

    #[test]
    fn basic_program_assembles() {
        let p = asm(
            AsmProfile::Gp,
            "main: addi a0, zero, 5\nloop: addi a0, a0, -1\n bnez a0, loop\n halt\n",
        );
        assert_eq!(p.text().len(), 4);
        assert_eq!(p.entry(), TEXT_BASE);
        // bnez expands to bne a0, zero, -4
        assert_eq!(
            p.text()[2],
            Instr::Bne {
                rs1: Reg::A0,
                rs2: Reg::ZERO,
                offset: -4
            }
        );
    }

    #[test]
    fn la_profiles_differ() {
        let src = ".data\nv: .dword 42\n.text\nmain: la t0, v\n ld t1, 0(t0)\n halt\n";
        let toc = asm(AsmProfile::Toc, src);
        let gp = asm(AsmProfile::Gp, src);
        // Toc: la is a single load through gp.
        assert!(matches!(toc.text()[0], Instr::Ld { base: Reg::GP, .. }));
        // Gp: la is lui+addi.
        assert!(matches!(gp.text()[0], Instr::Lui { .. }));
        assert!(matches!(gp.text()[1], Instr::Addi { .. }));
        assert_eq!(gp.text().len(), toc.text().len() + 1);
    }

    #[test]
    fn toc_slot_holds_symbol_address() {
        let src = ".data\nv: .dword 42\n.text\nmain: la t0, v\n halt\n";
        let p = asm(AsmProfile::Toc, src);
        let v_addr = p.symbol("v").unwrap();
        // The pool begins right after the (aligned) data; slot 0 is `v`.
        let pool_off = (p.pool_base() - DATA_BASE) as usize;
        let slot = u64::from_le_bytes(p.data()[pool_off..pool_off + 8].try_into().unwrap());
        assert_eq!(slot, v_addr);
    }

    #[test]
    fn li_small_medium_large() {
        let p = asm(
            AsmProfile::Gp,
            "main: li t0, 7\n li t1, 0x12345\n li t2, 0x123456789ab\n halt\n",
        );
        assert!(matches!(p.text()[0], Instr::Addi { imm: 7, .. }));
        assert!(matches!(p.text()[1], Instr::Lui { .. }));
        // Large constant comes from the pool in both profiles.
        assert!(p
            .text()
            .iter()
            .any(|i| matches!(i, Instr::Ld { base: Reg::GP, .. })));
    }

    #[test]
    fn li_negative_medium_round_trips() {
        // Exercise the hi/lo split rounding with low-12-bit sign extension.
        for &v in &[-4097i64, -4096, 4096, 0x7ffff800, -2049, 2048, 123456] {
            let p = asm(AsmProfile::Gp, &format!("main: li t0, {v}\n halt\n"));
            // Emulate the two instructions.
            let mut val = 0i64;
            for i in p.text() {
                match *i {
                    Instr::Lui { imm, .. } => val = (imm as i64) << 12,
                    Instr::Addi { imm, .. } => val += imm as i64,
                    Instr::Halt => {}
                    ref other => panic!("unexpected {other}"),
                }
            }
            assert_eq!(val, v, "li {v} materialized wrong value");
        }
    }

    #[test]
    fn li_accepts_the_full_i64_range() {
        // The optimizer can fold a constant to i64::MIN, whose decimal
        // magnitude does not fit an i64.
        for v in [i64::MIN, i64::MIN + 1, i64::MAX] {
            let p = asm(AsmProfile::Gp, &format!("main: li t0, {v}\n halt\n"));
            let pool_off = (p.pool_base() - DATA_BASE) as usize;
            let word = i64::from_le_bytes(p.data()[pool_off..pool_off + 8].try_into().unwrap());
            assert_eq!(word, v);
        }
        for bad in ["-9223372036854775809", "9223372036854775808"] {
            assert!(parse_int(bad).is_none(), "{bad} must not parse");
        }
    }

    #[test]
    fn fli_uses_pool_in_both_profiles() {
        for profile in [AsmProfile::Toc, AsmProfile::Gp] {
            let p = asm(profile, "main: fli ft0, 2.5\n halt\n");
            assert!(matches!(p.text()[0], Instr::Fld { base: Reg::GP, .. }));
            let pool_off = (p.pool_base() - DATA_BASE) as usize;
            let bits = u64::from_le_bytes(p.data()[pool_off..pool_off + 8].try_into().unwrap());
            assert_eq!(f64::from_bits(bits), 2.5);
        }
    }

    #[test]
    fn pool_slots_dedup() {
        let p = asm(
            AsmProfile::Toc,
            ".data\nv: .dword 1\n.text\nmain: la t0, v\n la t1, v\n fli ft0, 1.5\n fli ft1, 1.5\n halt\n",
        );
        // One slot for `v`, one for 1.5.
        let pool_bytes = p.data().len() - (p.pool_base() - DATA_BASE) as usize;
        assert_eq!(pool_bytes, 16);
    }

    #[test]
    fn data_directives() {
        let p = asm(
            AsmProfile::Gp,
            ".data\na: .byte 1, 2, 0xff\nb: .half 258\nc: .word -1\nd: .dword 5\ns: .asciiz \"hi\\n\"\nsp: .space 4, 7\n.align 3\ne: .dword main\n.text\nmain: halt\n",
        );
        let d = p.data();
        assert_eq!(&d[0..3], &[1, 2, 0xff]);
        // .half is placed immediately after (no implicit alignment).
        assert_eq!(u16::from_le_bytes(d[3..5].try_into().unwrap()), 258);
        assert_eq!(i32::from_le_bytes(d[5..9].try_into().unwrap()), -1);
        let off_d = (p.symbol("d").unwrap() - DATA_BASE) as usize;
        assert_eq!(
            u64::from_le_bytes(d[off_d..off_d + 8].try_into().unwrap()),
            5
        );
        let off_s = (p.symbol("s").unwrap() - DATA_BASE) as usize;
        assert_eq!(&d[off_s..off_s + 4], b"hi\n\0");
        let off_sp = (p.symbol("sp").unwrap() - DATA_BASE) as usize;
        assert_eq!(&d[off_sp..off_sp + 4], &[7, 7, 7, 7]);
        let off_e = (p.symbol("e").unwrap() - DATA_BASE) as usize;
        assert_eq!(off_e % 8, 0, ".align 3 must align to 8");
        assert_eq!(
            u64::from_le_bytes(d[off_e..off_e + 8].try_into().unwrap()),
            p.symbol("main").unwrap(),
            ".dword label must hold the label address"
        );
    }

    #[test]
    fn equ_constants() {
        let p = asm(
            AsmProfile::Gp,
            ".data\n.equ N, 16\nbuf: .space N\n.text\nmain: li t0, N\n addi t1, zero, N-1\n halt\n",
        );
        assert!(matches!(p.text()[0], Instr::Addi { imm: 16, .. }));
        assert!(matches!(p.text()[1], Instr::Addi { imm: 15, .. }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Assembler::new(AsmProfile::Gp)
            .assemble("main: addi a0, zero, 1\n bogus t0\n")
            .unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("bogus"));
    }

    #[test]
    fn undefined_label_is_error() {
        let err = Assembler::new(AsmProfile::Gp)
            .assemble("main: j nowhere\n")
            .unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_error() {
        let err = Assembler::new(AsmProfile::Gp)
            .assemble("main: nop\nmain: nop\n")
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn relative_targets() {
        let p = asm(AsmProfile::Gp, "main: beq zero, zero, .+8\n nop\n halt\n");
        assert_eq!(
            p.text()[0],
            Instr::Beq {
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
                offset: 8
            }
        );
    }

    #[test]
    fn comments_and_blank_lines() {
        let p = asm(
            AsmProfile::Gp,
            "# leading comment\n\nmain: nop ; trailing\n  # indented\n halt\n",
        );
        assert_eq!(p.text().len(), 2);
    }

    #[test]
    fn char_literals() {
        let p = asm(AsmProfile::Gp, "main: li t0, 'a'\n li t1, '\\n'\n halt\n");
        assert!(matches!(p.text()[0], Instr::Addi { imm: 97, .. }));
        assert!(matches!(p.text()[1], Instr::Addi { imm: 10, .. }));
    }

    #[test]
    fn swapped_branch_pseudos() {
        let p = asm(
            AsmProfile::Gp,
            "main: bgt t0, t1, main\n ble t0, t1, main\n halt\n",
        );
        assert!(matches!(p.text()[0], Instr::Blt { rs1: r1, rs2: r0, .. }
            if r1 == Reg::T1 && r0 == Reg::T0));
        assert!(matches!(p.text()[1], Instr::Bge { rs1: r1, rs2: r0, .. }
            if r1 == Reg::T1 && r0 == Reg::T0));
    }

    #[test]
    fn entry_prefers_start_symbol() {
        let p = asm(AsmProfile::Gp, "main: nop\n_start: halt\n");
        assert_eq!(p.entry(), p.symbol("_start").unwrap());
    }

    #[test]
    fn string_with_comment_chars() {
        let p = asm(
            AsmProfile::Gp,
            ".data\ns: .asciiz \"a#b;c\"\n.text\nmain: halt\n",
        );
        assert_eq!(&p.data()[0..6], b"a#b;c\0");
    }

    /// Assembles expecting failure; returns the full error text.
    fn asm_err(src: &str) -> String {
        Assembler::new(AsmProfile::Gp)
            .assemble(src)
            .expect_err("assembly unexpectedly succeeded")
            .to_string()
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = asm_err("main: frobnicate a0, a1\n halt\n");
        assert!(e.contains("unknown mnemonic `frobnicate`"), "{e}");
        assert!(e.contains("line 1"), "{e}");
    }

    #[test]
    fn error_unknown_register() {
        let e = asm_err("main: add a0, r7, a1\n halt\n");
        assert!(e.contains("unknown register name `r7`"), "{e}");
    }

    #[test]
    fn error_duplicate_label() {
        let e = asm_err("main: nop\nmain: halt\n");
        assert!(e.contains("duplicate label `main`"), "{e}");
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn error_undefined_branch_label() {
        let e = asm_err("main: beq a0, a0, nowhere\n halt\n");
        assert!(e.contains("undefined label `nowhere`"), "{e}");
    }

    #[test]
    fn error_undefined_la_symbol() {
        let e = asm_err("main: la t0, missing\n halt\n");
        assert!(e.contains("undefined symbol"), "{e}");
        assert!(e.contains("missing"), "{e}");
    }

    #[test]
    fn error_memory_offset_out_of_range() {
        // Offsets are stored as i32; anything wider is rejected.
        let e = asm_err("main: ld t0, 9999999999(sp)\n halt\n");
        assert!(e.contains("memory offset out of range"), "{e}");
    }

    #[test]
    fn error_wrong_operand_count() {
        let e = asm_err("main: add a0, a1\n halt\n");
        assert!(e.contains("expected 3 operands, found 2"), "{e}");
    }

    #[test]
    fn error_instruction_outside_text() {
        let e = asm_err(".data\n add a0, a1, a2\n");
        assert!(e.contains("instruction outside .text section"), "{e}");
    }

    #[test]
    fn error_data_directive_outside_data() {
        let e = asm_err("main: halt\n .dword 42\n");
        assert!(e.contains("outside .data section"), "{e}");
    }

    #[test]
    fn error_shift_amount_out_of_range() {
        let e = asm_err("main: slli a0, a0, 64\n halt\n");
        assert!(e.contains("shift amount must be in 0..64"), "{e}");
    }

    #[test]
    fn data_image_is_bounded_by_data_memory() {
        let full = format!(".data\nbuf: .space {MAX_DATA_IMAGE}\n.text\nmain: halt\n");
        assert_eq!(
            asm(AsmProfile::Gp, &full).data().len() as u64,
            MAX_DATA_IMAGE
        );
        let too_large = format!("data image exceeds {MAX_DATA_IMAGE} bytes");
        // Without printing a multi-megabyte program on failure.
        let refuse = |profile, src: &str| match Assembler::new(profile).assemble(src) {
            Ok(_) => panic!("{src}: assembled"),
            Err(e) => e,
        };
        // Each data directive is refused at its line before it allocates.
        for (directive, line) in [
            (format!(".space {}", MAX_DATA_IMAGE + 1), 2),
            (".space 9223372036854775807".to_string(), 2),
            (format!(".space {MAX_DATA_IMAGE}\n .byte 1"), 3),
            (format!(".space {MAX_DATA_IMAGE}\n .dword 1"), 3),
            (format!(".space {MAX_DATA_IMAGE}\n .asciiz \"\""), 3),
        ] {
            let src = format!(".data\nbuf: {directive}\n.text\nmain: halt\n");
            let e = refuse(AsmProfile::Gp, &src);
            assert!(e.is_data_image_overflow(), "{e}");
            let e = e.to_string();
            assert!(e.contains(&format!("line {line}: {too_large}")), "{e}");
        }
        // The constant pool counts, both the slots allocated before a
        // directive and those allocated after the last one.
        let e = refuse(
            AsmProfile::Toc,
            &format!(
                "main: la a0, buf\n halt\n.data\nbuf: .space {}\n .align 4\n",
                MAX_DATA_IMAGE - 12
            ),
        );
        assert_eq!(e.line(), 5, "{e}");
        let e = refuse(
            AsmProfile::Toc,
            &format!(".data\nbuf: .space {MAX_DATA_IMAGE}\n.text\nmain: la a0, buf\n halt\n"),
        );
        assert_eq!(e.line(), 0);
        assert!(e.is_data_image_overflow(), "{e}");
        assert!(e.to_string().contains(&too_large), "{e}");
        // Other rejections are not overflows.
        let e = refuse(AsmProfile::Gp, "main: li a0, nonesuch\n halt\n");
        assert!(!e.is_data_image_overflow(), "{e}");
    }

    #[test]
    fn operand_errors_echo_a_bounded_prefix() {
        let long = format!("x{}", "(".repeat(200));
        let e = Assembler::new(AsmProfile::Gp)
            .assemble(&format!("main: li a0, {long}\n halt\n"))
            .unwrap_err();
        let echoed = &long[..64];
        assert_eq!(
            e.message(),
            format!("expected integer expression, found `{echoed}…`")
        );
        // A short operand is echoed whole.
        let e = Assembler::new(AsmProfile::Gp)
            .assemble("main: li a0, x(\n halt\n")
            .unwrap_err();
        assert_eq!(e.message(), "expected integer expression, found `x(`");
    }
}
