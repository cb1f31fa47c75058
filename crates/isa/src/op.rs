//! The LRISC instruction set.
//!
//! LRISC is a 64-bit load/store RISC ISA designed to be simple enough to
//! simulate quickly while exhibiting the code idioms the paper attributes
//! value locality to: constant-pool loads, spill/reload, link-register
//! save/restore, table-driven dispatch, and glue code.
//!
//! Every instruction occupies 4 bytes of text address space; branch and
//! jump offsets are byte offsets relative to the *current* instruction's
//! address.

use crate::reg::{FReg, Reg};
use std::fmt;

/// Width of one instruction in bytes of text address space.
pub const INSTR_BYTES: u64 = 4;

/// A decoded LRISC instruction.
///
/// Branch/jump offsets are signed byte offsets from the instruction's own
/// address. Memory offsets are signed byte displacements from the base
/// register.
#[derive(Debug, Copy, Clone, PartialEq)]
pub enum Instr {
    // ---- integer register-register ----
    /// `rd = rs1 + rs2`
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2`
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 63)`
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as i64) < (rs2 as i64)`
    Slt { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as u64) < (rs2 as u64)`
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as u64) >> (rs2 & 63)`
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 as i64) >> (rs2 & 63)`
    Sra { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2` (low 64 bits); multi-cycle
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = high 64 bits of (rs1 as i128 * rs2 as i128)`; multi-cycle
    Mulh { rd: Reg, rs1: Reg, rs2: Reg },
    /// signed division (`i64::MIN / -1` wraps, `x / 0 = -1`); multi-cycle
    Div { rd: Reg, rs1: Reg, rs2: Reg },
    /// unsigned division (`x / 0 = u64::MAX`); multi-cycle
    Divu { rd: Reg, rs1: Reg, rs2: Reg },
    /// signed remainder (`x % 0 = x`); multi-cycle
    Rem { rd: Reg, rs1: Reg, rs2: Reg },
    /// unsigned remainder (`x % 0 = x`); multi-cycle
    Remu { rd: Reg, rs1: Reg, rs2: Reg },

    // ---- integer register-immediate ----
    /// `rd = rs1 + imm`
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = (rs1 as i64) < imm`
    Slti { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = (rs1 as u64) < (imm as i64 as u64)`
    Sltiu { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 ^ imm`
    Xori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 | imm`
    Ori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 & imm`
    Andi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 << shamt` (`0 <= shamt < 64`)
    Slli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = (rs1 as u64) >> shamt`
    Srli { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = (rs1 as i64) >> shamt`
    Srai { rd: Reg, rs1: Reg, shamt: u8 },
    /// `rd = (imm << 12)` sign-extended to 64 bits
    Lui { rd: Reg, imm: i32 },

    // ---- loads ----
    /// load signed byte
    Lb { rd: Reg, base: Reg, offset: i32 },
    /// load unsigned byte
    Lbu { rd: Reg, base: Reg, offset: i32 },
    /// load signed halfword
    Lh { rd: Reg, base: Reg, offset: i32 },
    /// load unsigned halfword
    Lhu { rd: Reg, base: Reg, offset: i32 },
    /// load signed word
    Lw { rd: Reg, base: Reg, offset: i32 },
    /// load unsigned word
    Lwu { rd: Reg, base: Reg, offset: i32 },
    /// load doubleword
    Ld { rd: Reg, base: Reg, offset: i32 },
    /// load doubleword into FP register
    Fld { fd: FReg, base: Reg, offset: i32 },

    // ---- stores ----
    /// store low byte of rs2
    Sb { rs2: Reg, base: Reg, offset: i32 },
    /// store low halfword of rs2
    Sh { rs2: Reg, base: Reg, offset: i32 },
    /// store low word of rs2
    Sw { rs2: Reg, base: Reg, offset: i32 },
    /// store doubleword
    Sd { rs2: Reg, base: Reg, offset: i32 },
    /// store FP doubleword
    Fsd { fs2: FReg, base: Reg, offset: i32 },

    // ---- floating point (double precision only) ----
    /// `fd = fs1 + fs2`
    FaddD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = fs1 - fs2`
    FsubD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = fs1 * fs2`
    FmulD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = fs1 / fs2`; multi-cycle
    FdivD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = sqrt(fs1)`; multi-cycle
    FsqrtD { fd: FReg, fs1: FReg },
    /// `fd = min(fs1, fs2)`
    FminD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = max(fs1, fs2)`
    FmaxD { fd: FReg, fs1: FReg, fs2: FReg },
    /// `fd = -fs1`
    FnegD { fd: FReg, fs1: FReg },
    /// `fd = |fs1|`
    FabsD { fd: FReg, fs1: FReg },
    /// `rd = (fs1 == fs2)`
    FeqD { rd: Reg, fs1: FReg, fs2: FReg },
    /// `rd = (fs1 < fs2)`
    FltD { rd: Reg, fs1: FReg, fs2: FReg },
    /// `rd = (fs1 <= fs2)`
    FleD { rd: Reg, fs1: FReg, fs2: FReg },
    /// convert signed integer to double: `fd = rs1 as f64`
    FcvtDL { fd: FReg, rs1: Reg },
    /// convert double to signed integer, truncating: `rd = fs1 as i64`
    FcvtLD { rd: Reg, fs1: FReg },
    /// move raw bits FP -> integer
    FmvXD { rd: Reg, fs1: FReg },
    /// move raw bits integer -> FP
    FmvDX { fd: FReg, rs1: Reg },

    // ---- control transfer ----
    /// branch if `rs1 == rs2`
    Beq { rs1: Reg, rs2: Reg, offset: i32 },
    /// branch if `rs1 != rs2`
    Bne { rs1: Reg, rs2: Reg, offset: i32 },
    /// branch if `(rs1 as i64) < (rs2 as i64)`
    Blt { rs1: Reg, rs2: Reg, offset: i32 },
    /// branch if `(rs1 as i64) >= (rs2 as i64)`
    Bge { rs1: Reg, rs2: Reg, offset: i32 },
    /// branch if `(rs1 as u64) < (rs2 as u64)`
    Bltu { rs1: Reg, rs2: Reg, offset: i32 },
    /// branch if `(rs1 as u64) >= (rs2 as u64)`
    Bgeu { rs1: Reg, rs2: Reg, offset: i32 },
    /// jump and link: `rd = pc + 4; pc += offset`
    Jal { rd: Reg, offset: i32 },
    /// indirect jump and link: `rd = pc + 4; pc = (rs1 + offset) & !1`
    Jalr { rd: Reg, rs1: Reg, offset: i32 },

    // ---- system ----
    /// emit the value of `rs1` to the simulator output channel
    Out { rs1: Reg },
    /// emit the value of `fs1` to the simulator FP output channel
    OutF { fs1: FReg },
    /// stop simulation
    Halt,
    /// no operation
    Nop,
}

/// Memory access width in bytes.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte
    B1,
    /// 2 bytes
    B2,
    /// 4 bytes
    B4,
    /// 8 bytes
    B8,
}

impl MemWidth {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

/// A register in either file, used by the unified def/use accessors
/// ([`Instr::defs`], [`Instr::uses`]) that drive static dataflow analysis.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegId {
    /// An integer (general-purpose) register.
    Int(Reg),
    /// A floating-point register.
    Fp(FReg),
}

impl RegId {
    /// Dense index 0–63 across both register files (integer registers
    /// first), matching `lvp_trace::RegRef::flat_index`.
    #[inline]
    pub fn flat_index(self) -> usize {
        match self {
            RegId::Int(r) => r.number() as usize,
            RegId::Fp(r) => 32 + r.number() as usize,
        }
    }

    /// Whether this is the hardwired integer zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        matches!(self, RegId::Int(r) if r.is_zero())
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegId::Int(r) => r.fmt(f),
            RegId::Fp(r) => r.fmt(f),
        }
    }
}

/// Static control-flow behavior of one instruction, as used for CFG
/// construction ([`Instr::control_flow`]). Offsets are signed byte
/// displacements from the instruction's own address.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum CtrlFlow {
    /// Execution always continues at the next instruction.
    Fall,
    /// Conditional branch: either the target or the next instruction.
    CondBranch {
        /// Byte offset of the taken target.
        offset: i32,
    },
    /// Direct unconditional jump (`jal`); a link register may be written.
    Jump {
        /// Byte offset of the target.
        offset: i32,
    },
    /// Indirect jump (`jalr`): the target is `(base + offset) & !1`,
    /// unknown statically.
    IndirectJump {
        /// Base register holding the target address.
        base: Reg,
        /// Byte displacement added to the base.
        offset: i32,
    },
    /// Execution stops (`halt`).
    Halt,
}

impl Instr {
    /// Whether this is a load (integer or FP).
    pub fn is_load(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            Lb { .. }
                | Lbu { .. }
                | Lh { .. }
                | Lhu { .. }
                | Lw { .. }
                | Lwu { .. }
                | Ld { .. }
                | Fld { .. }
        )
    }

    /// Whether this is a store (integer or FP).
    pub fn is_store(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            Sb { .. } | Sh { .. } | Sw { .. } | Sd { .. } | Fsd { .. }
        )
    }

    /// Memory access width for loads and stores; `None` otherwise.
    pub fn mem_width(&self) -> Option<MemWidth> {
        use Instr::*;
        Some(match self {
            Lb { .. } | Lbu { .. } | Sb { .. } => MemWidth::B1,
            Lh { .. } | Lhu { .. } | Sh { .. } => MemWidth::B2,
            Lw { .. } | Lwu { .. } | Sw { .. } => MemWidth::B4,
            Ld { .. } | Fld { .. } | Sd { .. } | Fsd { .. } => MemWidth::B8,
            _ => return None,
        })
    }

    /// The register this instruction writes, if any.
    ///
    /// Writes to the hardwired zero register are still reported (the
    /// verifier's `LVP006` lint flags them); link-register writes of
    /// `jal`/`jalr` are included.
    pub fn defs(&self) -> Option<RegId> {
        use Instr::*;
        match *self {
            Add { rd, .. }
            | Sub { rd, .. }
            | Sll { rd, .. }
            | Slt { rd, .. }
            | Sltu { rd, .. }
            | Xor { rd, .. }
            | Srl { rd, .. }
            | Sra { rd, .. }
            | Or { rd, .. }
            | And { rd, .. }
            | Mul { rd, .. }
            | Mulh { rd, .. }
            | Div { rd, .. }
            | Divu { rd, .. }
            | Rem { rd, .. }
            | Remu { rd, .. }
            | Addi { rd, .. }
            | Slti { rd, .. }
            | Sltiu { rd, .. }
            | Xori { rd, .. }
            | Ori { rd, .. }
            | Andi { rd, .. }
            | Slli { rd, .. }
            | Srli { rd, .. }
            | Srai { rd, .. }
            | Lui { rd, .. }
            | Lb { rd, .. }
            | Lbu { rd, .. }
            | Lh { rd, .. }
            | Lhu { rd, .. }
            | Lw { rd, .. }
            | Lwu { rd, .. }
            | Ld { rd, .. }
            | FeqD { rd, .. }
            | FltD { rd, .. }
            | FleD { rd, .. }
            | FcvtLD { rd, .. }
            | FmvXD { rd, .. }
            | Jal { rd, .. }
            | Jalr { rd, .. } => Some(RegId::Int(rd)),
            Fld { fd, .. }
            | FaddD { fd, .. }
            | FsubD { fd, .. }
            | FmulD { fd, .. }
            | FdivD { fd, .. }
            | FsqrtD { fd, .. }
            | FminD { fd, .. }
            | FmaxD { fd, .. }
            | FnegD { fd, .. }
            | FabsD { fd, .. }
            | FcvtDL { fd, .. }
            | FmvDX { fd, .. } => Some(RegId::Fp(fd)),
            Sb { .. }
            | Sh { .. }
            | Sw { .. }
            | Sd { .. }
            | Fsd { .. }
            | Beq { .. }
            | Bne { .. }
            | Blt { .. }
            | Bge { .. }
            | Bltu { .. }
            | Bgeu { .. }
            | Out { .. }
            | OutF { .. }
            | Halt
            | Nop => None,
        }
    }

    /// The registers this instruction reads, in operand order.
    ///
    /// The hardwired zero register is included when named as an operand;
    /// filter with [`RegId::is_zero`] when building dependence edges.
    pub fn uses(&self) -> impl Iterator<Item = RegId> {
        use Instr::*;
        let (a, b): (Option<RegId>, Option<RegId>) = match *self {
            Add { rs1, rs2, .. }
            | Sub { rs1, rs2, .. }
            | Sll { rs1, rs2, .. }
            | Slt { rs1, rs2, .. }
            | Sltu { rs1, rs2, .. }
            | Xor { rs1, rs2, .. }
            | Srl { rs1, rs2, .. }
            | Sra { rs1, rs2, .. }
            | Or { rs1, rs2, .. }
            | And { rs1, rs2, .. }
            | Mul { rs1, rs2, .. }
            | Mulh { rs1, rs2, .. }
            | Div { rs1, rs2, .. }
            | Divu { rs1, rs2, .. }
            | Rem { rs1, rs2, .. }
            | Remu { rs1, rs2, .. }
            | Beq { rs1, rs2, .. }
            | Bne { rs1, rs2, .. }
            | Blt { rs1, rs2, .. }
            | Bge { rs1, rs2, .. }
            | Bltu { rs1, rs2, .. }
            | Bgeu { rs1, rs2, .. } => (Some(RegId::Int(rs1)), Some(RegId::Int(rs2))),
            Addi { rs1, .. }
            | Slti { rs1, .. }
            | Sltiu { rs1, .. }
            | Xori { rs1, .. }
            | Ori { rs1, .. }
            | Andi { rs1, .. }
            | Slli { rs1, .. }
            | Srli { rs1, .. }
            | Srai { rs1, .. }
            | Jalr { rs1, .. }
            | Out { rs1 }
            | FcvtDL { rs1, .. }
            | FmvDX { rs1, .. } => (Some(RegId::Int(rs1)), None),
            Lb { base, .. }
            | Lbu { base, .. }
            | Lh { base, .. }
            | Lhu { base, .. }
            | Lw { base, .. }
            | Lwu { base, .. }
            | Ld { base, .. }
            | Fld { base, .. } => (Some(RegId::Int(base)), None),
            Sb { rs2, base, .. }
            | Sh { rs2, base, .. }
            | Sw { rs2, base, .. }
            | Sd { rs2, base, .. } => (Some(RegId::Int(base)), Some(RegId::Int(rs2))),
            Fsd { fs2, base, .. } => (Some(RegId::Int(base)), Some(RegId::Fp(fs2))),
            FaddD { fs1, fs2, .. }
            | FsubD { fs1, fs2, .. }
            | FmulD { fs1, fs2, .. }
            | FdivD { fs1, fs2, .. }
            | FminD { fs1, fs2, .. }
            | FmaxD { fs1, fs2, .. }
            | FeqD { fs1, fs2, .. }
            | FltD { fs1, fs2, .. }
            | FleD { fs1, fs2, .. } => (Some(RegId::Fp(fs1)), Some(RegId::Fp(fs2))),
            FsqrtD { fs1, .. }
            | FnegD { fs1, .. }
            | FabsD { fs1, .. }
            | FcvtLD { fs1, .. }
            | FmvXD { fs1, .. }
            | OutF { fs1 } => (Some(RegId::Fp(fs1)), None),
            Lui { .. } | Jal { .. } | Halt | Nop => (None, None),
        };
        [a, b].into_iter().flatten()
    }

    /// The `(base, offset)` address operand of a load or store, if any.
    pub fn mem_operand(&self) -> Option<(Reg, i32)> {
        use Instr::*;
        match *self {
            Lb { base, offset, .. }
            | Lbu { base, offset, .. }
            | Lh { base, offset, .. }
            | Lhu { base, offset, .. }
            | Lw { base, offset, .. }
            | Lwu { base, offset, .. }
            | Ld { base, offset, .. }
            | Fld { base, offset, .. }
            | Sb { base, offset, .. }
            | Sh { base, offset, .. }
            | Sw { base, offset, .. }
            | Sd { base, offset, .. }
            | Fsd { base, offset, .. } => Some((base, offset)),
            _ => None,
        }
    }

    /// Static control-flow behavior, for CFG construction.
    pub fn control_flow(&self) -> CtrlFlow {
        use Instr::*;
        match *self {
            Beq { offset, .. }
            | Bne { offset, .. }
            | Blt { offset, .. }
            | Bge { offset, .. }
            | Bltu { offset, .. }
            | Bgeu { offset, .. } => CtrlFlow::CondBranch { offset },
            Jal { offset, .. } => CtrlFlow::Jump { offset },
            Jalr { rs1, offset, .. } => CtrlFlow::IndirectJump { base: rs1, offset },
            Halt => CtrlFlow::Halt,
            _ => CtrlFlow::Fall,
        }
    }

    /// A short lowercase mnemonic for the instruction.
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match self {
            Add { .. } => "add",
            Sub { .. } => "sub",
            Sll { .. } => "sll",
            Slt { .. } => "slt",
            Sltu { .. } => "sltu",
            Xor { .. } => "xor",
            Srl { .. } => "srl",
            Sra { .. } => "sra",
            Or { .. } => "or",
            And { .. } => "and",
            Mul { .. } => "mul",
            Mulh { .. } => "mulh",
            Div { .. } => "div",
            Divu { .. } => "divu",
            Rem { .. } => "rem",
            Remu { .. } => "remu",
            Addi { .. } => "addi",
            Slti { .. } => "slti",
            Sltiu { .. } => "sltiu",
            Xori { .. } => "xori",
            Ori { .. } => "ori",
            Andi { .. } => "andi",
            Slli { .. } => "slli",
            Srli { .. } => "srli",
            Srai { .. } => "srai",
            Lui { .. } => "lui",
            Lb { .. } => "lb",
            Lbu { .. } => "lbu",
            Lh { .. } => "lh",
            Lhu { .. } => "lhu",
            Lw { .. } => "lw",
            Lwu { .. } => "lwu",
            Ld { .. } => "ld",
            Fld { .. } => "fld",
            Sb { .. } => "sb",
            Sh { .. } => "sh",
            Sw { .. } => "sw",
            Sd { .. } => "sd",
            Fsd { .. } => "fsd",
            FaddD { .. } => "fadd.d",
            FsubD { .. } => "fsub.d",
            FmulD { .. } => "fmul.d",
            FdivD { .. } => "fdiv.d",
            FsqrtD { .. } => "fsqrt.d",
            FminD { .. } => "fmin.d",
            FmaxD { .. } => "fmax.d",
            FnegD { .. } => "fneg.d",
            FabsD { .. } => "fabs.d",
            FeqD { .. } => "feq.d",
            FltD { .. } => "flt.d",
            FleD { .. } => "fle.d",
            FcvtDL { .. } => "fcvt.d.l",
            FcvtLD { .. } => "fcvt.l.d",
            FmvXD { .. } => "fmv.x.d",
            FmvDX { .. } => "fmv.d.x",
            Beq { .. } => "beq",
            Bne { .. } => "bne",
            Blt { .. } => "blt",
            Bge { .. } => "bge",
            Bltu { .. } => "bltu",
            Bgeu { .. } => "bgeu",
            Jal { .. } => "jal",
            Jalr { .. } => "jalr",
            Out { .. } => "out",
            OutF { .. } => "outf",
            Halt => "halt",
            Nop => "nop",
        }
    }
}

impl fmt::Display for Instr {
    /// Renders the instruction in assembler syntax (branch targets as
    /// relative byte offsets, e.g. `beq t0, zero, .+16`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        fn off(o: i32) -> String {
            if o >= 0 {
                format!(".+{o}")
            } else {
                format!(".{o}")
            }
        }
        match *self {
            Add { rd, rs1, rs2 } => write!(f, "add {rd}, {rs1}, {rs2}"),
            Sub { rd, rs1, rs2 } => write!(f, "sub {rd}, {rs1}, {rs2}"),
            Sll { rd, rs1, rs2 } => write!(f, "sll {rd}, {rs1}, {rs2}"),
            Slt { rd, rs1, rs2 } => write!(f, "slt {rd}, {rs1}, {rs2}"),
            Sltu { rd, rs1, rs2 } => write!(f, "sltu {rd}, {rs1}, {rs2}"),
            Xor { rd, rs1, rs2 } => write!(f, "xor {rd}, {rs1}, {rs2}"),
            Srl { rd, rs1, rs2 } => write!(f, "srl {rd}, {rs1}, {rs2}"),
            Sra { rd, rs1, rs2 } => write!(f, "sra {rd}, {rs1}, {rs2}"),
            Or { rd, rs1, rs2 } => write!(f, "or {rd}, {rs1}, {rs2}"),
            And { rd, rs1, rs2 } => write!(f, "and {rd}, {rs1}, {rs2}"),
            Mul { rd, rs1, rs2 } => write!(f, "mul {rd}, {rs1}, {rs2}"),
            Mulh { rd, rs1, rs2 } => write!(f, "mulh {rd}, {rs1}, {rs2}"),
            Div { rd, rs1, rs2 } => write!(f, "div {rd}, {rs1}, {rs2}"),
            Divu { rd, rs1, rs2 } => write!(f, "divu {rd}, {rs1}, {rs2}"),
            Rem { rd, rs1, rs2 } => write!(f, "rem {rd}, {rs1}, {rs2}"),
            Remu { rd, rs1, rs2 } => write!(f, "remu {rd}, {rs1}, {rs2}"),
            Addi { rd, rs1, imm } => write!(f, "addi {rd}, {rs1}, {imm}"),
            Slti { rd, rs1, imm } => write!(f, "slti {rd}, {rs1}, {imm}"),
            Sltiu { rd, rs1, imm } => write!(f, "sltiu {rd}, {rs1}, {imm}"),
            Xori { rd, rs1, imm } => write!(f, "xori {rd}, {rs1}, {imm}"),
            Ori { rd, rs1, imm } => write!(f, "ori {rd}, {rs1}, {imm}"),
            Andi { rd, rs1, imm } => write!(f, "andi {rd}, {rs1}, {imm}"),
            Slli { rd, rs1, shamt } => write!(f, "slli {rd}, {rs1}, {shamt}"),
            Srli { rd, rs1, shamt } => write!(f, "srli {rd}, {rs1}, {shamt}"),
            Srai { rd, rs1, shamt } => write!(f, "srai {rd}, {rs1}, {shamt}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
            Lb { rd, base, offset } => write!(f, "lb {rd}, {offset}({base})"),
            Lbu { rd, base, offset } => write!(f, "lbu {rd}, {offset}({base})"),
            Lh { rd, base, offset } => write!(f, "lh {rd}, {offset}({base})"),
            Lhu { rd, base, offset } => write!(f, "lhu {rd}, {offset}({base})"),
            Lw { rd, base, offset } => write!(f, "lw {rd}, {offset}({base})"),
            Lwu { rd, base, offset } => write!(f, "lwu {rd}, {offset}({base})"),
            Ld { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Fld { fd, base, offset } => write!(f, "fld {fd}, {offset}({base})"),
            Sb { rs2, base, offset } => write!(f, "sb {rs2}, {offset}({base})"),
            Sh { rs2, base, offset } => write!(f, "sh {rs2}, {offset}({base})"),
            Sw { rs2, base, offset } => write!(f, "sw {rs2}, {offset}({base})"),
            Sd { rs2, base, offset } => write!(f, "sd {rs2}, {offset}({base})"),
            Fsd { fs2, base, offset } => write!(f, "fsd {fs2}, {offset}({base})"),
            FaddD { fd, fs1, fs2 } => write!(f, "fadd.d {fd}, {fs1}, {fs2}"),
            FsubD { fd, fs1, fs2 } => write!(f, "fsub.d {fd}, {fs1}, {fs2}"),
            FmulD { fd, fs1, fs2 } => write!(f, "fmul.d {fd}, {fs1}, {fs2}"),
            FdivD { fd, fs1, fs2 } => write!(f, "fdiv.d {fd}, {fs1}, {fs2}"),
            FsqrtD { fd, fs1 } => write!(f, "fsqrt.d {fd}, {fs1}"),
            FminD { fd, fs1, fs2 } => write!(f, "fmin.d {fd}, {fs1}, {fs2}"),
            FmaxD { fd, fs1, fs2 } => write!(f, "fmax.d {fd}, {fs1}, {fs2}"),
            FnegD { fd, fs1 } => write!(f, "fneg.d {fd}, {fs1}"),
            FabsD { fd, fs1 } => write!(f, "fabs.d {fd}, {fs1}"),
            FeqD { rd, fs1, fs2 } => write!(f, "feq.d {rd}, {fs1}, {fs2}"),
            FltD { rd, fs1, fs2 } => write!(f, "flt.d {rd}, {fs1}, {fs2}"),
            FleD { rd, fs1, fs2 } => write!(f, "fle.d {rd}, {fs1}, {fs2}"),
            FcvtDL { fd, rs1 } => write!(f, "fcvt.d.l {fd}, {rs1}"),
            FcvtLD { rd, fs1 } => write!(f, "fcvt.l.d {rd}, {fs1}"),
            FmvXD { rd, fs1 } => write!(f, "fmv.x.d {rd}, {fs1}"),
            FmvDX { fd, rs1 } => write!(f, "fmv.d.x {fd}, {rs1}"),
            Beq { rs1, rs2, offset } => write!(f, "beq {rs1}, {rs2}, {}", off(offset)),
            Bne { rs1, rs2, offset } => write!(f, "bne {rs1}, {rs2}, {}", off(offset)),
            Blt { rs1, rs2, offset } => write!(f, "blt {rs1}, {rs2}, {}", off(offset)),
            Bge { rs1, rs2, offset } => write!(f, "bge {rs1}, {rs2}, {}", off(offset)),
            Bltu { rs1, rs2, offset } => write!(f, "bltu {rs1}, {rs2}, {}", off(offset)),
            Bgeu { rs1, rs2, offset } => write!(f, "bgeu {rs1}, {rs2}, {}", off(offset)),
            Jal { rd, offset } => write!(f, "jal {rd}, {}", off(offset)),
            Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {rs1}, {offset}"),
            Out { rs1 } => write!(f, "out {rs1}"),
            OutF { fs1 } => write!(f, "outf {fs1}"),
            Halt => write!(f, "halt"),
            Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_predicates() {
        let r = Reg::T0;
        let ld = Instr::Ld {
            rd: r,
            base: r,
            offset: 8,
        };
        assert!(ld.is_load() && !ld.is_store());
        assert_eq!(ld.mem_width(), Some(MemWidth::B8));
        let sb = Instr::Sb {
            rs2: r,
            base: r,
            offset: -1,
        };
        assert!(sb.is_store() && !sb.is_load());
        assert_eq!(sb.mem_width(), Some(MemWidth::B1));
        let fld = Instr::Fld {
            fd: FReg::FT0,
            base: r,
            offset: 0,
        };
        assert!(fld.is_load() && !fld.is_store());
        let add = Instr::Add {
            rd: r,
            rs1: r,
            rs2: r,
        };
        assert_eq!(add.mem_width(), None);
    }

    #[test]
    fn display_formats() {
        let i = Instr::Addi {
            rd: Reg::SP,
            rs1: Reg::SP,
            imm: -32,
        };
        assert_eq!(i.to_string(), "addi sp, sp, -32");
        let b = Instr::Beq {
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            offset: -8,
        };
        assert_eq!(b.to_string(), "beq t0, zero, .-8");
        let l = Instr::Lw {
            rd: Reg::A0,
            base: Reg::SP,
            offset: 16,
        };
        assert_eq!(l.to_string(), "lw a0, 16(sp)");
    }

    fn uses_of(i: Instr) -> Vec<RegId> {
        i.uses().collect()
    }

    #[test]
    fn defs_and_uses_int() {
        let add = Instr::Add {
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::T1,
        };
        assert_eq!(add.defs(), Some(RegId::Int(Reg::A0)));
        assert_eq!(uses_of(add), vec![RegId::Int(Reg::A1), RegId::Int(Reg::T1)]);

        let addi = Instr::Addi {
            rd: Reg::T0,
            rs1: Reg::SP,
            imm: 8,
        };
        assert_eq!(addi.defs(), Some(RegId::Int(Reg::T0)));
        assert_eq!(uses_of(addi), vec![RegId::Int(Reg::SP)]);

        let lui = Instr::Lui {
            rd: Reg::T1,
            imm: 0x10,
        };
        assert_eq!(lui.defs(), Some(RegId::Int(Reg::T1)));
        assert!(uses_of(lui).is_empty());
    }

    #[test]
    fn defs_and_uses_memory() {
        let ld = Instr::Ld {
            rd: Reg::A0,
            base: Reg::GP,
            offset: 16,
        };
        assert_eq!(ld.defs(), Some(RegId::Int(Reg::A0)));
        assert_eq!(uses_of(ld), vec![RegId::Int(Reg::GP)]);

        // Stores define nothing; they read base then the stored value.
        let sd = Instr::Sd {
            rs2: Reg::A1,
            base: Reg::SP,
            offset: -8,
        };
        assert_eq!(sd.defs(), None);
        assert_eq!(uses_of(sd), vec![RegId::Int(Reg::SP), RegId::Int(Reg::A1)]);

        let fsd = Instr::Fsd {
            fs2: FReg::FA0,
            base: Reg::SP,
            offset: 0,
        };
        assert_eq!(fsd.defs(), None);
        assert_eq!(
            uses_of(fsd),
            vec![RegId::Int(Reg::SP), RegId::Fp(FReg::FA0)]
        );

        let fld = Instr::Fld {
            fd: FReg::new(1),
            base: Reg::SP,
            offset: 0,
        };
        assert_eq!(fld.defs(), Some(RegId::Fp(FReg::new(1))));
        assert_eq!(uses_of(fld), vec![RegId::Int(Reg::SP)]);
    }

    #[test]
    fn defs_and_uses_fp_and_moves() {
        let fadd = Instr::FaddD {
            fd: FReg::FA0,
            fs1: FReg::new(11),
            fs2: FReg::new(12),
        };
        assert_eq!(fadd.defs(), Some(RegId::Fp(FReg::FA0)));
        assert_eq!(
            uses_of(fadd),
            vec![RegId::Fp(FReg::new(11)), RegId::Fp(FReg::new(12))]
        );

        // Cross-file moves and compares: int destination, fp sources.
        let feq = Instr::FeqD {
            rd: Reg::A0,
            fs1: FReg::FA0,
            fs2: FReg::new(11),
        };
        assert_eq!(feq.defs(), Some(RegId::Int(Reg::A0)));
        assert_eq!(
            uses_of(feq),
            vec![RegId::Fp(FReg::FA0), RegId::Fp(FReg::new(11))]
        );

        let fmv = Instr::FmvDX {
            fd: FReg::FT0,
            rs1: Reg::A0,
        };
        assert_eq!(fmv.defs(), Some(RegId::Fp(FReg::FT0)));
        assert_eq!(uses_of(fmv), vec![RegId::Int(Reg::A0)]);
    }

    #[test]
    fn defs_and_uses_control() {
        // Branches read both sources and define nothing.
        let beq = Instr::Beq {
            rs1: Reg::T0,
            rs2: Reg::T1,
            offset: 8,
        };
        assert_eq!(beq.defs(), None);
        assert_eq!(uses_of(beq), vec![RegId::Int(Reg::T0), RegId::Int(Reg::T1)]);

        // jal/jalr define their link register; jalr also reads its base.
        let jal = Instr::Jal {
            rd: Reg::RA,
            offset: 16,
        };
        assert_eq!(jal.defs(), Some(RegId::Int(Reg::RA)));
        assert!(uses_of(jal).is_empty());

        let jalr = Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        };
        assert_eq!(jalr.defs(), Some(RegId::Int(Reg::ZERO)));
        assert_eq!(uses_of(jalr), vec![RegId::Int(Reg::RA)]);

        assert_eq!(Instr::Halt.defs(), None);
        assert!(uses_of(Instr::Halt).is_empty());
        assert_eq!(Instr::Nop.defs(), None);
    }

    #[test]
    fn control_flow_kinds() {
        assert_eq!(
            Instr::Beq {
                rs1: Reg::T0,
                rs2: Reg::T1,
                offset: -8
            }
            .control_flow(),
            CtrlFlow::CondBranch { offset: -8 }
        );
        assert_eq!(
            Instr::Jal {
                rd: Reg::RA,
                offset: 32
            }
            .control_flow(),
            CtrlFlow::Jump { offset: 32 }
        );
        assert_eq!(
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 4
            }
            .control_flow(),
            CtrlFlow::IndirectJump {
                base: Reg::RA,
                offset: 4
            }
        );
        assert_eq!(Instr::Halt.control_flow(), CtrlFlow::Halt);
        assert_eq!(
            Instr::Add {
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A0
            }
            .control_flow(),
            CtrlFlow::Fall
        );
    }

    #[test]
    fn reg_id_flat_index() {
        assert_eq!(RegId::Int(Reg::ZERO).flat_index(), 0);
        assert_eq!(RegId::Int(Reg::A0).flat_index(), Reg::A0.number() as usize);
        assert_eq!(RegId::Fp(FReg::FT0).flat_index(), 32);
        assert_eq!(
            RegId::Fp(FReg::FA0).flat_index(),
            32 + FReg::FA0.number() as usize
        );
        assert!(RegId::Int(Reg::ZERO).is_zero());
        assert!(!RegId::Fp(FReg::FT0).is_zero());
        assert_eq!(RegId::Int(Reg::SP).to_string(), "sp");
        assert_eq!(RegId::Fp(FReg::FA0).to_string(), "fa0");
    }
}
