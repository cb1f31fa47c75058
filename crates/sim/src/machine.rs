//! The LRISC functional simulator.

use crate::counters::Instret;
use crate::memory::{MemError, Memory};
use lvp_isa::{FReg, Instr, Program, Reg, STACK_TOP};
use lvp_trace::{BranchEvent, MemAccess, OpKind, RegRef, Trace, TraceEntry};
use std::fmt;

/// Synthetic return address installed in `ra` at startup: returning from
/// the entry function jumps here and halts the machine gracefully, so
/// programs may end with either `halt` or `ret`.
pub const EXIT_ADDR: u64 = 0xffff_0000;

/// Error produced while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Fetched from an address outside the text segment.
    BadFetch {
        /// The offending program counter.
        pc: u64,
    },
    /// A load or store faulted.
    Mem {
        /// Program counter of the faulting instruction.
        pc: u64,
        /// The underlying memory fault.
        cause: MemError,
    },
    /// The instruction budget was exhausted before `halt`.
    OutOfFuel {
        /// Number of instructions executed.
        executed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadFetch { pc } => write!(f, "instruction fetch from {pc:#x} failed"),
            SimError::Mem { pc, cause } => write!(f, "at pc {pc:#x}: {cause}"),
            SimError::OutOfFuel { executed } => {
                write!(
                    f,
                    "instruction budget exhausted after {executed} instructions"
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// A functional LRISC machine bound to a program.
///
/// The machine executes instructions one at a time, optionally producing a
/// [`TraceEntry`] per retired instruction — the paper's "phase 1" trace
/// generation (its TRIP6000/ATOM substitute).
///
/// # Examples
///
/// ```
/// use lvp_isa::{AsmProfile, Assembler};
/// use lvp_sim::Machine;
///
/// let p = Assembler::new(AsmProfile::Gp)
///     .assemble("main: li a0, 6\n li a1, 7\n mul a0, a0, a1\n out a0\n halt\n")?;
/// let mut m = Machine::new(&p);
/// m.run(1_000)?;
/// assert_eq!(m.output(), &[42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Machine<'a> {
    program: &'a Program,
    pc: u64,
    regs: [u64; 32],
    fregs: [f64; 32],
    mem: Memory,
    output: Vec<u64>,
    instret: Instret,
    halted: bool,
}

impl fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Machine {{ pc: {:#x}, instret: {}, halted: {} }}",
            self.pc,
            self.instret.get(),
            self.halted
        )
    }
}

impl<'a> Machine<'a> {
    /// Creates a machine with registers and memory initialized for
    /// `program`: `pc` at the entry point, `sp` at the stack top, `gp` at
    /// the TOC/constant-pool base, and `ra` at [`EXIT_ADDR`].
    pub fn new(program: &'a Program) -> Machine<'a> {
        let mut regs = [0u64; 32];
        regs[Reg::SP.number() as usize] = STACK_TOP;
        regs[Reg::GP.number() as usize] = program.pool_base();
        regs[Reg::RA.number() as usize] = EXIT_ADDR;
        Machine {
            program,
            pc: program.entry(),
            regs,
            fregs: [0.0; 32],
            mem: Memory::new(program.data()),
            output: Vec::new(),
            instret: Instret::new(),
            halted: false,
        }
    }

    /// The program this machine executes.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Number of retired instructions (saturating at `u64::MAX`).
    pub fn instret(&self) -> u64 {
        self.instret.get()
    }

    /// Whether the machine has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Values emitted by `out`/`outf` (FP values as raw bits), in order.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// An order-sensitive 64-bit digest of the output channel, used by the
    /// workload suite to validate program correctness.
    pub fn output_checksum(&self) -> u64 {
        // FNV-1a over the little-endian bytes of each emitted value.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in &self.output {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Reads an integer register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes an integer register (writes to `zero` are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.number() as usize] = value;
        }
    }

    /// Reads a floating-point register.
    #[inline]
    pub fn freg(&self, f: FReg) -> f64 {
        self.fregs[f.number() as usize]
    }

    /// Direct read access to data memory.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Executes one instruction, returning its trace entry, or `None` if
    /// the machine has already halted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on a fetch or memory fault.
    pub fn step(&mut self) -> Result<Option<TraceEntry>, SimError> {
        if self.halted {
            return Ok(None);
        }
        if self.pc == EXIT_ADDR {
            self.halted = true;
            return Ok(None);
        }
        let pc = self.pc;
        let instr = *self.program.fetch(pc).ok_or(SimError::BadFetch { pc })?;
        let entry = self.execute(pc, instr)?;
        self.instret.retire();
        Ok(Some(entry))
    }

    /// Runs until `halt` or until `max_instrs` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfFuel`] if the budget expires first, or any
    /// fault raised by execution.
    pub fn run(&mut self, max_instrs: u64) -> Result<u64, SimError> {
        let start = self.instret.get();
        while !self.halted {
            if self.instret.get() - start >= max_instrs {
                return Err(SimError::OutOfFuel {
                    executed: self.instret.get() - start,
                });
            }
            self.step()?;
        }
        Ok(self.instret.get() - start)
    }

    /// Runs to completion, collecting the full instruction trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_traced(&mut self, max_instrs: u64) -> Result<Trace, SimError> {
        let mut trace = Trace::with_capacity(4096);
        let start = self.instret.get();
        while !self.halted {
            if self.instret.get() - start >= max_instrs {
                return Err(SimError::OutOfFuel {
                    executed: self.instret.get() - start,
                });
            }
            match self.step()? {
                Some(e) => trace.push(e),
                None => break,
            }
        }
        Ok(trace)
    }

    /// Runs to completion, invoking `f` for every retired instruction
    /// (streaming alternative to [`Machine::run_traced`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn run_with<F: FnMut(&TraceEntry)>(
        &mut self,
        max_instrs: u64,
        mut f: F,
    ) -> Result<u64, SimError> {
        let start = self.instret.get();
        while !self.halted {
            if self.instret.get() - start >= max_instrs {
                return Err(SimError::OutOfFuel {
                    executed: self.instret.get() - start,
                });
            }
            match self.step()? {
                Some(e) => f(&e),
                None => break,
            }
        }
        Ok(self.instret.get() - start)
    }

    #[inline]
    fn src(r: Reg) -> Option<RegRef> {
        (!r.is_zero()).then(|| RegRef::int(r.number()))
    }

    #[inline]
    fn dst(r: Reg) -> Option<RegRef> {
        (!r.is_zero()).then(|| RegRef::int(r.number()))
    }

    fn execute(&mut self, pc: u64, instr: Instr) -> Result<TraceEntry, SimError> {
        use Instr::*;
        let mut next_pc = pc + 4;
        let mut entry = TraceEntry::simple(pc, OpKind::IntSimple);

        macro_rules! alu_rrr {
            ($rd:expr, $rs1:expr, $rs2:expr, $kind:expr, $f:expr) => {{
                let a = self.reg($rs1);
                let b = self.reg($rs2);
                self.set_reg($rd, $f(a, b));
                entry.kind = $kind;
                entry.dst = Self::dst($rd);
                entry.srcs = [Self::src($rs1), Self::src($rs2)];
            }};
        }
        macro_rules! alu_rri {
            ($rd:expr, $rs1:expr, $kind:expr, $f:expr) => {{
                let a = self.reg($rs1);
                self.set_reg($rd, $f(a));
                entry.kind = $kind;
                entry.dst = Self::dst($rd);
                entry.srcs = [Self::src($rs1), None];
            }};
        }
        macro_rules! fp_rrr {
            ($fd:expr, $fs1:expr, $fs2:expr, $kind:expr, $f:expr) => {{
                let a = self.fregs[$fs1.number() as usize];
                let b = self.fregs[$fs2.number() as usize];
                self.fregs[$fd.number() as usize] = $f(a, b);
                entry.kind = $kind;
                entry.dst = Some(RegRef::fp($fd.number()));
                entry.srcs = [
                    Some(RegRef::fp($fs1.number())),
                    Some(RegRef::fp($fs2.number())),
                ];
            }};
        }
        macro_rules! load {
            ($rd:expr, $base:expr, $off:expr, $width:expr, $ext:expr) => {{
                let addr = self.reg($base).wrapping_add($off as i64 as u64);
                let raw = self
                    .mem
                    .load(addr, $width)
                    .map_err(|cause| SimError::Mem { pc, cause })?;
                let value: u64 = $ext(raw);
                self.set_reg($rd, value);
                entry.kind = OpKind::Load;
                entry.dst = Self::dst($rd);
                entry.srcs = [Self::src($base), None];
                entry.mem = Some(MemAccess {
                    addr,
                    width: $width,
                    value,
                    fp: false,
                });
            }};
        }
        macro_rules! store {
            ($rs2:expr, $base:expr, $off:expr, $width:expr) => {{
                let addr = self.reg($base).wrapping_add($off as i64 as u64);
                let value = self.reg($rs2);
                self.mem
                    .store(addr, $width, value)
                    .map_err(|cause| SimError::Mem { pc, cause })?;
                entry.kind = OpKind::Store;
                entry.srcs = [Self::src($base), Self::src($rs2)];
                let stored = if $width == 8 {
                    value
                } else {
                    value & ((1u64 << ($width * 8)) - 1)
                };
                entry.mem = Some(MemAccess {
                    addr,
                    width: $width,
                    value: stored,
                    fp: false,
                });
            }};
        }
        macro_rules! branch {
            ($rs1:expr, $rs2:expr, $off:expr, $cond:expr) => {{
                let a = self.reg($rs1);
                let b = self.reg($rs2);
                let taken = $cond(a, b);
                let target = if taken {
                    pc.wrapping_add($off as i64 as u64)
                } else {
                    next_pc
                };
                if taken {
                    next_pc = target;
                }
                entry.kind = OpKind::CondBranch;
                entry.srcs = [Self::src($rs1), Self::src($rs2)];
                entry.branch = Some(BranchEvent { taken, target });
            }};
        }

        match instr {
            Add { rd, rs1, rs2 } => alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a
                .wrapping_add(b)),
            Sub { rd, rs1, rs2 } => alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a
                .wrapping_sub(b)),
            Sll { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a
                    << (b & 63))
            }
            Slt { rd, rs1, rs2 } => {
                alu_rrr!(
                    rd,
                    rs1,
                    rs2,
                    OpKind::IntSimple,
                    |a: u64, b: u64| ((a as i64) < (b as i64)) as u64
                )
            }
            Sltu { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| (a < b)
                    as u64)
            }
            Xor { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a ^ b)
            }
            Srl { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a
                    >> (b & 63))
            }
            Sra { rd, rs1, rs2 } => {
                alu_rrr!(
                    rd,
                    rs1,
                    rs2,
                    OpKind::IntSimple,
                    |a: u64, b: u64| ((a as i64) >> (b & 63)) as u64
                )
            }
            Or { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a | b)
            }
            And { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntSimple, |a: u64, b: u64| a & b)
            }
            Mul { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntComplex, |a: u64, b: u64| a
                    .wrapping_mul(b))
            }
            Mulh { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntComplex, |a: u64, b: u64| {
                    (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64
                })
            }
            Div { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntComplex, |a: u64, b: u64| {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        u64::MAX // -1
                    } else {
                        a.wrapping_div(b) as u64
                    }
                })
            }
            Divu { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntComplex, |a: u64, b: u64| a
                    .checked_div(b)
                    .unwrap_or(u64::MAX))
            }
            Rem { rd, rs1, rs2 } => {
                alu_rrr!(rd, rs1, rs2, OpKind::IntComplex, |a: u64, b: u64| {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        a as u64
                    } else {
                        a.wrapping_rem(b) as u64
                    }
                })
            }
            Remu { rd, rs1, rs2 } => {
                alu_rrr!(
                    rd,
                    rs1,
                    rs2,
                    OpKind::IntComplex,
                    |a: u64, b: u64| if b == 0 { a } else { a % b }
                )
            }
            Addi { rd, rs1, imm } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a
                    .wrapping_add(imm as i64 as u64))
            }
            Slti { rd, rs1, imm } => {
                alu_rri!(
                    rd,
                    rs1,
                    OpKind::IntSimple,
                    |a: u64| ((a as i64) < imm as i64) as u64
                )
            }
            Sltiu { rd, rs1, imm } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| (a < imm as i64 as u64)
                    as u64)
            }
            Xori { rd, rs1, imm } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a ^ (imm as i64 as u64))
            }
            Ori { rd, rs1, imm } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a | (imm as i64 as u64))
            }
            Andi { rd, rs1, imm } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a & (imm as i64 as u64))
            }
            Slli { rd, rs1, shamt } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a << shamt)
            }
            Srli { rd, rs1, shamt } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| a >> shamt)
            }
            Srai { rd, rs1, shamt } => {
                alu_rri!(rd, rs1, OpKind::IntSimple, |a: u64| ((a as i64) >> shamt)
                    as u64)
            }
            Lui { rd, imm } => {
                self.set_reg(rd, ((imm as i64) << 12) as u64);
                entry.dst = Self::dst(rd);
            }
            Lb { rd, base, offset } => {
                load!(rd, base, offset, 1, |raw: u64| raw as u8 as i8 as i64
                    as u64)
            }
            Lbu { rd, base, offset } => load!(rd, base, offset, 1, |raw: u64| raw),
            Lh { rd, base, offset } => {
                load!(rd, base, offset, 2, |raw: u64| raw as u16 as i16 as i64
                    as u64)
            }
            Lhu { rd, base, offset } => load!(rd, base, offset, 2, |raw: u64| raw),
            Lw { rd, base, offset } => {
                load!(rd, base, offset, 4, |raw: u64| raw as u32 as i32 as i64
                    as u64)
            }
            Lwu { rd, base, offset } => load!(rd, base, offset, 4, |raw: u64| raw),
            Ld { rd, base, offset } => load!(rd, base, offset, 8, |raw: u64| raw),
            Fld { fd, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let raw = self
                    .mem
                    .load(addr, 8)
                    .map_err(|cause| SimError::Mem { pc, cause })?;
                self.fregs[fd.number() as usize] = f64::from_bits(raw);
                entry.kind = OpKind::Load;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Self::src(base), None];
                entry.mem = Some(MemAccess {
                    addr,
                    width: 8,
                    value: raw,
                    fp: true,
                });
            }
            Sb { rs2, base, offset } => store!(rs2, base, offset, 1),
            Sh { rs2, base, offset } => store!(rs2, base, offset, 2),
            Sw { rs2, base, offset } => store!(rs2, base, offset, 4),
            Sd { rs2, base, offset } => store!(rs2, base, offset, 8),
            Fsd { fs2, base, offset } => {
                let addr = self.reg(base).wrapping_add(offset as i64 as u64);
                let bits = self.fregs[fs2.number() as usize].to_bits();
                self.mem
                    .store(addr, 8, bits)
                    .map_err(|cause| SimError::Mem { pc, cause })?;
                entry.kind = OpKind::Store;
                entry.srcs = [Self::src(base), Some(RegRef::fp(fs2.number()))];
                entry.mem = Some(MemAccess {
                    addr,
                    width: 8,
                    value: bits,
                    fp: true,
                });
            }
            FaddD { fd, fs1, fs2 } => fp_rrr!(fd, fs1, fs2, OpKind::FpSimple, |a: f64, b| a + b),
            FsubD { fd, fs1, fs2 } => fp_rrr!(fd, fs1, fs2, OpKind::FpSimple, |a: f64, b| a - b),
            FmulD { fd, fs1, fs2 } => fp_rrr!(fd, fs1, fs2, OpKind::FpSimple, |a: f64, b| a * b),
            FdivD { fd, fs1, fs2 } => fp_rrr!(fd, fs1, fs2, OpKind::FpComplex, |a: f64, b| a / b),
            FminD { fd, fs1, fs2 } => {
                fp_rrr!(fd, fs1, fs2, OpKind::FpSimple, |a: f64, b: f64| a.min(b))
            }
            FmaxD { fd, fs1, fs2 } => {
                fp_rrr!(fd, fs1, fs2, OpKind::FpSimple, |a: f64, b: f64| a.max(b))
            }
            FsqrtD { fd, fs1 } => {
                let a = self.fregs[fs1.number() as usize];
                self.fregs[fd.number() as usize] = a.sqrt();
                entry.kind = OpKind::FpComplex;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            FnegD { fd, fs1 } => {
                let a = self.fregs[fs1.number() as usize];
                self.fregs[fd.number() as usize] = -a;
                entry.kind = OpKind::FpSimple;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            FabsD { fd, fs1 } => {
                let a = self.fregs[fs1.number() as usize];
                self.fregs[fd.number() as usize] = a.abs();
                entry.kind = OpKind::FpSimple;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            FeqD { rd, fs1, fs2 } | FltD { rd, fs1, fs2 } | FleD { rd, fs1, fs2 } => {
                let a = self.fregs[fs1.number() as usize];
                let b = self.fregs[fs2.number() as usize];
                let v = match instr {
                    FeqD { .. } => a == b,
                    FltD { .. } => a < b,
                    _ => a <= b,
                };
                self.set_reg(rd, v as u64);
                entry.kind = OpKind::FpSimple;
                entry.dst = Self::dst(rd);
                entry.srcs = [
                    Some(RegRef::fp(fs1.number())),
                    Some(RegRef::fp(fs2.number())),
                ];
            }
            FcvtDL { fd, rs1 } => {
                let a = self.reg(rs1) as i64;
                self.fregs[fd.number() as usize] = a as f64;
                entry.kind = OpKind::FpSimple;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Self::src(rs1), None];
            }
            FcvtLD { rd, fs1 } => {
                let a = self.fregs[fs1.number() as usize];
                self.set_reg(rd, (a as i64) as u64);
                entry.kind = OpKind::FpSimple;
                entry.dst = Self::dst(rd);
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            FmvXD { rd, fs1 } => {
                self.set_reg(rd, self.fregs[fs1.number() as usize].to_bits());
                entry.kind = OpKind::FpSimple;
                entry.dst = Self::dst(rd);
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            FmvDX { fd, rs1 } => {
                self.fregs[fd.number() as usize] = f64::from_bits(self.reg(rs1));
                entry.kind = OpKind::FpSimple;
                entry.dst = Some(RegRef::fp(fd.number()));
                entry.srcs = [Self::src(rs1), None];
            }
            Beq { rs1, rs2, offset } => branch!(rs1, rs2, offset, |a, b| a == b),
            Bne { rs1, rs2, offset } => branch!(rs1, rs2, offset, |a, b| a != b),
            Blt { rs1, rs2, offset } => {
                branch!(rs1, rs2, offset, |a, b| (a as i64) < (b as i64))
            }
            Bge { rs1, rs2, offset } => {
                branch!(rs1, rs2, offset, |a, b| (a as i64) >= (b as i64))
            }
            Bltu { rs1, rs2, offset } => branch!(rs1, rs2, offset, |a: u64, b: u64| a < b),
            Bgeu { rs1, rs2, offset } => branch!(rs1, rs2, offset, |a: u64, b: u64| a >= b),
            Jal { rd, offset } => {
                self.set_reg(rd, next_pc);
                let target = pc.wrapping_add(offset as i64 as u64);
                next_pc = target;
                entry.kind = OpKind::Jump;
                entry.dst = Self::dst(rd);
                entry.branch = Some(BranchEvent {
                    taken: true,
                    target,
                });
            }
            Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as i64 as u64) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
                entry.kind = OpKind::IndirectJump;
                entry.dst = Self::dst(rd);
                entry.srcs = [Self::src(rs1), None];
                entry.branch = Some(BranchEvent {
                    taken: true,
                    target,
                });
            }
            Out { rs1 } => {
                self.output.push(self.reg(rs1));
                entry.kind = OpKind::System;
                entry.srcs = [Self::src(rs1), None];
            }
            OutF { fs1 } => {
                self.output
                    .push(self.fregs[fs1.number() as usize].to_bits());
                entry.kind = OpKind::System;
                entry.srcs = [Some(RegRef::fp(fs1.number())), None];
            }
            Halt => {
                self.halted = true;
                entry.kind = OpKind::System;
            }
            Nop => {
                entry.kind = OpKind::System;
            }
        }

        self.pc = next_pc;
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    fn run_gp(src: &str) -> Machine<'static> {
        let program = Box::leak(Box::new(
            Assembler::new(AsmProfile::Gp)
                .assemble(src)
                .expect("assembly failed"),
        ));
        let mut m = Machine::new(program);
        m.run(1_000_000).expect("run failed");
        m
    }

    #[test]
    fn arithmetic_loop() {
        let m = run_gp(
            "main: li a0, 10\n li a1, 0\nloop: add a1, a1, a0\n addi a0, a0, -1\n bnez a0, loop\n out a1\n halt\n",
        );
        assert_eq!(m.output(), &[55]);
    }

    #[test]
    fn ret_from_main_halts() {
        let m = run_gp("main: li a0, 1\n out a0\n ret\n");
        assert!(m.halted());
        assert_eq!(m.output(), &[1]);
    }

    #[test]
    fn call_and_return() {
        let m = run_gp(
            "
main:
    addi sp, sp, -16
    sd   ra, 0(sp)
    li   a0, 20
    call double
    out  a0
    ld   ra, 0(sp)
    addi sp, sp, 16
    ret
double:
    add  a0, a0, a0
    ret
",
        );
        assert_eq!(m.output(), &[40]);
    }

    #[test]
    fn memory_and_globals() {
        let m = run_gp(
            "
main:
    la   t0, counter
    ld   t1, 0(t0)
    addi t1, t1, 5
    sd   t1, 0(t0)
    ld   t2, 0(t0)
    out  t2
    halt
    .data
counter: .dword 37
",
        );
        assert_eq!(m.output(), &[42]);
    }

    #[test]
    fn signed_loads() {
        let m = run_gp(
            "
main:
    la  t0, bytes
    lb  t1, 0(t0)
    out t1
    lbu t2, 0(t0)
    out t2
    lh  t3, 2(t0)
    out t3
    lw  t4, 4(t0)
    out t4
    halt
    .data
bytes: .byte 0xff, 0\n .half 0x8000\n .word 0xffffffff
",
        );
        assert_eq!(
            m.output(),
            &[(-1i64) as u64, 0xff, (-32768i64) as u64, (-1i64) as u64]
        );
    }

    #[test]
    fn division_edge_cases() {
        let m = run_gp(
            "
main:
    li  t0, 7
    li  t1, 0
    div t2, t0, t1
    out t2
    rem t3, t0, t1
    out t3
    li  t4, -7
    li  t5, 2
    div t6, t4, t5
    out t6
    halt
",
        );
        assert_eq!(m.output(), &[u64::MAX, 7, (-3i64) as u64]);
    }

    #[test]
    fn floating_point() {
        let m = run_gp(
            "
main:
    fli  ft0, 2.0
    fli  ft1, 0.25
    fdiv.d ft2, ft0, ft1
    outf ft2
    fsqrt.d ft3, ft0
    fmul.d ft3, ft3, ft3
    flt.d t0, ft0, ft2
    out  t0
    halt
",
        );
        assert_eq!(f64::from_bits(m.output()[0]), 8.0);
        assert_eq!(m.output()[1], 1);
    }

    #[test]
    fn fuel_exhaustion() {
        let program = Assembler::new(AsmProfile::Gp)
            .assemble("main: j main\n")
            .unwrap();
        let mut m = Machine::new(&program);
        let err = m.run(100).unwrap_err();
        assert_eq!(err, SimError::OutOfFuel { executed: 100 });
    }

    #[test]
    fn null_dereference_faults() {
        let program = Assembler::new(AsmProfile::Gp)
            .assemble("main: ld t0, 0(zero)\n halt\n")
            .unwrap();
        let mut m = Machine::new(&program);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, SimError::Mem { .. }));
    }

    #[test]
    fn trace_records_loads_with_extended_values() {
        let program = Assembler::new(AsmProfile::Gp)
            .assemble("main: la t0, v\n lw t1, 0(t0)\n halt\n.data\nv: .word 0xffffffff\n")
            .unwrap();
        let mut m = Machine::new(&program);
        let trace = m.run_traced(100).unwrap();
        let load = trace.iter().find(|e| e.is_load()).unwrap();
        let mem = load.mem.unwrap();
        assert_eq!(
            mem.value,
            u64::MAX,
            "trace must hold the sign-extended register value"
        );
        assert_eq!(mem.width, 4);
    }

    #[test]
    fn trace_branch_events() {
        let program = Assembler::new(AsmProfile::Gp)
            .assemble("main: li t0, 1\n beqz t0, skip\n nop\nskip: halt\n")
            .unwrap();
        let mut m = Machine::new(&program);
        let trace = m.run_traced(100).unwrap();
        let br = trace.iter().find(|e| e.kind == OpKind::CondBranch).unwrap();
        let ev = br.branch.unwrap();
        assert!(!ev.taken);
        assert_eq!(ev.target, br.pc + 4);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "main: li a0, 123456\n li a1, 789\n mul a2, a0, a1\n out a2\n halt\n";
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let mut m1 = Machine::new(&p);
        let mut m2 = Machine::new(&p);
        let t1 = m1.run_traced(1000).unwrap();
        let t2 = m2.run_traced(1000).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(m1.output_checksum(), m2.output_checksum());
    }

    #[test]
    fn output_checksum_is_order_sensitive() {
        let p1 = Assembler::new(AsmProfile::Gp)
            .assemble("main: li a0, 1\n li a1, 2\n out a0\n out a1\n halt\n")
            .unwrap();
        let p2 = Assembler::new(AsmProfile::Gp)
            .assemble("main: li a0, 1\n li a1, 2\n out a1\n out a0\n halt\n")
            .unwrap();
        let mut m1 = Machine::new(&p1);
        let mut m2 = Machine::new(&p2);
        m1.run(100).unwrap();
        m2.run(100).unwrap();
        assert_ne!(m1.output_checksum(), m2.output_checksum());
    }

    #[test]
    fn toc_profile_runs_identically() {
        let src = "
main:
    la   t0, table
    ld   t1, 8(t0)
    out  t1
    halt
    .data
table: .dword 10, 20, 30
";
        for profile in [AsmProfile::Toc, AsmProfile::Gp] {
            let p = Assembler::new(profile).assemble(src).unwrap();
            let mut m = Machine::new(&p);
            m.run(100).unwrap();
            assert_eq!(m.output(), &[20], "profile {profile} produced wrong result");
        }
    }
}
