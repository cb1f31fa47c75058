//! Pre-decoded bytecode engine for fast trace generation.
//!
//! [`FastSim`] lowers a program once into a flat micro-op array
//! ([`decode`]) and then runs a tight dispatch loop over it, emitting a
//! `TraceEntry` stream that is **bit-identical** to what the
//! instruction-by-instruction [`crate::Machine`] produces — same
//! entries, same faults, same fuel accounting, same architectural
//! state. The interpreter is retained as the differential oracle; see
//! the `differential` test suites.

mod decode;
mod uop;

use crate::counters::Instret;
use crate::machine::{SimError, EXIT_ADDR};
use crate::memory::Memory;
use decode::{decode, resolve_cursor, Code};
use lvp_isa::{FReg, Program, Reg, STACK_TOP, TEXT_BASE};
use lvp_trace::{BranchEvent, MemAccess, Trace, TraceEntry};
use std::fmt;
use uop::{CmpKind, Cursor, Op, ESCAPE_IDX};

/// A pre-decoded LRISC machine. Construction pays a one-pass lowering
/// of the text segment; execution then dispatches dense micro-ops
/// instead of re-decoding `Instr` variants every step.
///
/// The public surface mirrors [`crate::Machine`], so the differential
/// tests drive the two the same way; [`crate::SimEngine`] runs this one.
///
/// # Examples
///
/// ```
/// use lvp_isa::{AsmProfile, Assembler};
/// use lvp_sim::FastSim;
///
/// let p = Assembler::new(AsmProfile::Gp)
///     .assemble("main: li a0, 6\n li a1, 7\n mul a0, a0, a1\n out a0\n halt\n")?;
/// let mut m = FastSim::new(&p);
/// m.run(1_000)?;
/// assert_eq!(m.output(), &[42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FastSim<'a> {
    program: &'a Program,
    code: Code,
    cursor: Cursor,
    regs: [u64; 32],
    fregs: [f64; 32],
    mem: Memory,
    output: Vec<u64>,
    instret: Instret,
    halted: bool,
}

impl fmt::Debug for FastSim<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FastSim {{ pc: {:#x}, instret: {}, halted: {} }}",
            self.pc(),
            self.instret.get(),
            self.halted
        )
    }
}

impl<'a> FastSim<'a> {
    /// Pre-decodes `program` and readies a machine with the same initial
    /// state as [`crate::Machine::new`].
    pub fn new(program: &'a Program) -> FastSim<'a> {
        let code = decode(program);
        let mut regs = [0u64; 32];
        regs[Reg::SP.number() as usize] = STACK_TOP;
        regs[Reg::GP.number() as usize] = program.pool_base();
        regs[Reg::RA.number() as usize] = EXIT_ADDR;
        let cursor = resolve_cursor(program.entry(), code.text_len());
        FastSim {
            program,
            code,
            cursor,
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
        match self.cursor {
            Cursor::Text(i) => TEXT_BASE + 4 * i as u64,
            Cursor::Outside(pc) => pc,
        }
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

    /// An order-sensitive 64-bit digest of the output channel; identical
    /// to [`crate::Machine::output_checksum`].
    pub fn output_checksum(&self) -> u64 {
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

    /// Runs until `halt` or until `max_instrs` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfFuel`] if the budget expires first, or
    /// any fault raised by execution.
    pub fn run(&mut self, max_instrs: u64) -> Result<u64, SimError> {
        self.run_with(max_instrs, |_| {})
    }

    /// Runs to completion, collecting the full instruction trace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastSim::run`].
    pub fn run_traced(&mut self, max_instrs: u64) -> Result<Trace, SimError> {
        // Pushing straight into the trace (with `Trace::push` inlined)
        // fuses statistics collection into the fill pass, so each entry
        // is written exactly once — this path is memory-bandwidth-bound.
        let mut trace = Trace::with_capacity(4096);
        self.run_with(max_instrs, |e| trace.push(*e))?;
        Ok(trace)
    }

    /// Runs to completion, invoking `f` for every retired instruction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastSim::run`].
    pub fn run_with<F: FnMut(&TraceEntry)>(
        &mut self,
        max_instrs: u64,
        mut f: F,
    ) -> Result<u64, SimError> {
        let FastSim {
            code,
            cursor,
            regs,
            fregs,
            mem,
            output,
            instret,
            halted,
            ..
        } = self;
        let ops = code.ops.as_slice();
        let tpls = code.tpls.as_slice();
        let text_len = ops.len() - 1;
        let start = instret.get();

        macro_rules! fuel {
            () => {
                if instret.get() - start >= max_instrs {
                    return Err(SimError::OutOfFuel {
                        executed: instret.get() - start,
                    });
                }
            };
        }

        loop {
            if *halted {
                break;
            }
            fuel!();
            let idx = match *cursor {
                Cursor::Text(i) => i as usize,
                Cursor::Outside(pc) => {
                    if pc == EXIT_ADDR {
                        *halted = true;
                        break;
                    }
                    return Err(SimError::BadFetch { pc });
                }
            };
            let tpl = &tpls[idx];

            // Register write that may target x0 (discarded).
            macro_rules! wr {
                ($rd:expr, $v:expr) => {{
                    let rd = $rd as usize;
                    if rd != 0 {
                        regs[rd] = $v;
                    }
                }};
            }
            // Emit + retire + fall through to the next slot.
            macro_rules! fixed {
                ($e:expr) => {{
                    f($e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                }};
            }
            // ALU ops never target x0 (lowered to Fixed at decode).
            macro_rules! alu3 {
                ($rd:expr, $rs1:expr, $rs2:expr, $body:expr) => {{
                    let a = regs[$rs1 as usize];
                    let b = regs[$rs2 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    {
                        regs[$rd as usize] = $body(a, b);
                    }
                    fixed!(tpl);
                }};
            }
            macro_rules! alu2 {
                ($rd:expr, $rs1:expr, $body:expr) => {{
                    let a = regs[$rs1 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    {
                        regs[$rd as usize] = $body(a);
                    }
                    fixed!(tpl);
                }};
            }
            macro_rules! load {
                ($t:expr, $next:expr, $rd:expr, $base:expr, $off:expr, $w:expr, $ext:expr) => {{
                    let addr = regs[$base as usize].wrapping_add($off);
                    let raw = mem
                        .load(addr, $w)
                        .map_err(|cause| SimError::Mem { pc: $t.pc, cause })?;
                    #[allow(clippy::redundant_closure_call)]
                    let value: u64 = $ext(raw);
                    wr!($rd, value);
                    let mut e = *$t;
                    e.mem = Some(MemAccess {
                        addr,
                        width: $w,
                        value,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text($next);
                }};
            }
            macro_rules! store {
                ($t:expr, $next:expr, $rs2:expr, $base:expr, $off:expr, $w:expr) => {{
                    let addr = regs[$base as usize].wrapping_add($off);
                    let value = regs[$rs2 as usize];
                    mem.store(addr, $w, value)
                        .map_err(|cause| SimError::Mem { pc: $t.pc, cause })?;
                    let stored = if $w == 8 {
                        value
                    } else {
                        value & ((1u64 << ($w * 8)) - 1)
                    };
                    let mut e = *$t;
                    e.mem = Some(MemAccess {
                        addr,
                        width: $w,
                        value: stored,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text($next);
                }};
            }
            macro_rules! fp3 {
                ($fd:expr, $fs1:expr, $fs2:expr, $body:expr) => {{
                    let a = fregs[$fs1 as usize];
                    let b = fregs[$fs2 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    {
                        fregs[$fd as usize] = $body(a, b);
                    }
                    fixed!(tpl);
                }};
            }
            macro_rules! fp2 {
                ($fd:expr, $fs1:expr, $body:expr) => {{
                    let a = fregs[$fs1 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    {
                        fregs[$fd as usize] = $body(a);
                    }
                    fixed!(tpl);
                }};
            }
            macro_rules! fcmp {
                ($rd:expr, $fs1:expr, $fs2:expr, $body:expr) => {{
                    let a = fregs[$fs1 as usize];
                    let b = fregs[$fs2 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    let v: bool = $body(a, b);
                    wr!($rd, v as u64);
                    fixed!(tpl);
                }};
            }
            // Conditional branch: emit a patched entry, steer the cursor.
            macro_rules! branch {
                ($t:expr, $idx2:expr, $taken:expr, $t_pc:expr, $t_idx:expr) => {{
                    let taken = $taken;
                    let mut e = *$t;
                    if taken {
                        e.branch = Some(BranchEvent {
                            taken: true,
                            target: $t_pc,
                        });
                        *cursor = if $t_idx != ESCAPE_IDX {
                            Cursor::Text($t_idx)
                        } else {
                            Cursor::Outside($t_pc)
                        };
                    } else {
                        e.branch = Some(BranchEvent {
                            taken: false,
                            target: $t.pc + 4,
                        });
                        *cursor = Cursor::Text($idx2 + 1);
                    }
                    f(&e);
                    instret.retire();
                }};
            }
            macro_rules! cond {
                ($rs1:expr, $rs2:expr, $t_pc:expr, $t_idx:expr, $body:expr) => {{
                    let a = regs[$rs1 as usize];
                    let b = regs[$rs2 as usize];
                    #[allow(clippy::redundant_closure_call)]
                    let taken: bool = $body(a, b);
                    branch!(tpl, idx as u32, taken, $t_pc, $t_idx);
                }};
            }

            match ops[idx] {
                Op::Add { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a.wrapping_add(b)),
                Op::Sub { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a.wrapping_sub(b)),
                Op::Sll { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a << (b & 63)),
                Op::Slt { rd, rs1, rs2 } => {
                    alu3!(rd, rs1, rs2, |a: u64, b: u64| ((a as i64) < (b as i64))
                        as u64)
                }
                Op::Sltu { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| (a < b) as u64),
                Op::Xor { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a ^ b),
                Op::Srl { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a >> (b & 63)),
                Op::Sra { rd, rs1, rs2 } => {
                    alu3!(rd, rs1, rs2, |a: u64, b: u64| ((a as i64) >> (b & 63))
                        as u64)
                }
                Op::Or { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a | b),
                Op::And { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a & b),
                Op::Mul { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| a.wrapping_mul(b)),
                Op::Mulh { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| {
                    (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64
                }),
                Op::Div { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        u64::MAX
                    } else {
                        a.wrapping_div(b) as u64
                    }
                }),
                Op::Divu { rd, rs1, rs2 } => {
                    alu3!(rd, rs1, rs2, |a: u64, b: u64| a
                        .checked_div(b)
                        .unwrap_or(u64::MAX))
                }
                Op::Rem { rd, rs1, rs2 } => alu3!(rd, rs1, rs2, |a: u64, b: u64| {
                    let (a, b) = (a as i64, b as i64);
                    if b == 0 {
                        a as u64
                    } else {
                        a.wrapping_rem(b) as u64
                    }
                }),
                Op::Remu { rd, rs1, rs2 } => {
                    alu3!(rd, rs1, rs2, |a: u64, b: u64| if b == 0 {
                        a
                    } else {
                        a % b
                    })
                }
                Op::Addi { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| a.wrapping_add(imm)),
                Op::Slti { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| ((a as i64) < imm) as u64),
                Op::Sltiu { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| (a < imm) as u64),
                Op::Xori { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| a ^ imm),
                Op::Ori { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| a | imm),
                Op::Andi { rd, rs1, imm } => alu2!(rd, rs1, |a: u64| a & imm),
                Op::Slli { rd, rs1, shamt } => alu2!(rd, rs1, |a: u64| a << shamt),
                Op::Srli { rd, rs1, shamt } => alu2!(rd, rs1, |a: u64| a >> shamt),
                Op::Srai { rd, rs1, shamt } => {
                    alu2!(rd, rs1, |a: u64| ((a as i64) >> shamt) as u64)
                }
                Op::LoadImm { rd, value } => {
                    regs[rd as usize] = value;
                    fixed!(tpl);
                }
                Op::Lb { rd, base, off } => {
                    load!(
                        tpl,
                        idx as u32 + 1,
                        rd,
                        base,
                        off,
                        1,
                        |raw: u64| raw as u8 as i8 as i64 as u64
                    )
                }
                Op::Lbu { rd, base, off } => {
                    load!(tpl, idx as u32 + 1, rd, base, off, 1, |raw: u64| raw)
                }
                Op::Lh { rd, base, off } => {
                    load!(
                        tpl,
                        idx as u32 + 1,
                        rd,
                        base,
                        off,
                        2,
                        |raw: u64| raw as u16 as i16 as i64 as u64
                    )
                }
                Op::Lhu { rd, base, off } => {
                    load!(tpl, idx as u32 + 1, rd, base, off, 2, |raw: u64| raw)
                }
                Op::Lw { rd, base, off } => {
                    load!(
                        tpl,
                        idx as u32 + 1,
                        rd,
                        base,
                        off,
                        4,
                        |raw: u64| raw as u32 as i32 as i64 as u64
                    )
                }
                Op::Lwu { rd, base, off } => {
                    load!(tpl, idx as u32 + 1, rd, base, off, 4, |raw: u64| raw)
                }
                Op::Ld { rd, base, off } => {
                    load!(tpl, idx as u32 + 1, rd, base, off, 8, |raw: u64| raw)
                }
                Op::Fld { fd, base, off } => {
                    let addr = regs[base as usize].wrapping_add(off);
                    let raw = mem
                        .load(addr, 8)
                        .map_err(|cause| SimError::Mem { pc: tpl.pc, cause })?;
                    fregs[fd as usize] = f64::from_bits(raw);
                    let mut e = *tpl;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value: raw,
                        fp: true,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                }
                Op::Sb { rs2, base, off } => store!(tpl, idx as u32 + 1, rs2, base, off, 1),
                Op::Sh { rs2, base, off } => store!(tpl, idx as u32 + 1, rs2, base, off, 2),
                Op::Sw { rs2, base, off } => store!(tpl, idx as u32 + 1, rs2, base, off, 4),
                Op::Sd { rs2, base, off } => store!(tpl, idx as u32 + 1, rs2, base, off, 8),
                Op::Fsd { fs2, base, off } => {
                    let addr = regs[base as usize].wrapping_add(off);
                    let bits = fregs[fs2 as usize].to_bits();
                    mem.store(addr, 8, bits)
                        .map_err(|cause| SimError::Mem { pc: tpl.pc, cause })?;
                    let mut e = *tpl;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value: bits,
                        fp: true,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                }
                Op::FaddD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a + b),
                Op::FsubD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a - b),
                Op::FmulD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a * b),
                Op::FdivD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a / b),
                Op::FminD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a.min(b)),
                Op::FmaxD { fd, fs1, fs2 } => fp3!(fd, fs1, fs2, |a: f64, b: f64| a.max(b)),
                Op::FsqrtD { fd, fs1 } => fp2!(fd, fs1, |a: f64| a.sqrt()),
                Op::FnegD { fd, fs1 } => fp2!(fd, fs1, |a: f64| -a),
                Op::FabsD { fd, fs1 } => fp2!(fd, fs1, |a: f64| a.abs()),
                Op::FeqD { rd, fs1, fs2 } => fcmp!(rd, fs1, fs2, |a: f64, b: f64| a == b),
                Op::FltD { rd, fs1, fs2 } => fcmp!(rd, fs1, fs2, |a: f64, b: f64| a < b),
                Op::FleD { rd, fs1, fs2 } => fcmp!(rd, fs1, fs2, |a: f64, b: f64| a <= b),
                Op::FcvtDL { fd, rs1 } => {
                    fregs[fd as usize] = (regs[rs1 as usize] as i64) as f64;
                    fixed!(tpl);
                }
                Op::FcvtLD { rd, fs1 } => {
                    let v = (fregs[fs1 as usize] as i64) as u64;
                    wr!(rd, v);
                    fixed!(tpl);
                }
                Op::FmvXD { rd, fs1 } => {
                    let v = fregs[fs1 as usize].to_bits();
                    wr!(rd, v);
                    fixed!(tpl);
                }
                Op::FmvDX { fd, rs1 } => {
                    fregs[fd as usize] = f64::from_bits(regs[rs1 as usize]);
                    fixed!(tpl);
                }
                Op::Beq {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| a == b),
                Op::Bne {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| a != b),
                Op::Blt {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| (a as i64)
                    < (b as i64)),
                Op::Bge {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| (a as i64)
                    >= (b as i64)),
                Op::Bltu {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| a < b),
                Op::Bgeu {
                    rs1,
                    rs2,
                    t_pc,
                    t_idx,
                } => cond!(rs1, rs2, t_pc, t_idx, |a: u64, b: u64| a >= b),
                Op::Jal { rd, t_pc, t_idx } => {
                    wr!(rd, tpl.pc + 4);
                    // Template already carries the static branch event.
                    f(tpl);
                    instret.retire();
                    *cursor = if t_idx != ESCAPE_IDX {
                        Cursor::Text(t_idx)
                    } else {
                        Cursor::Outside(t_pc)
                    };
                }
                Op::Jalr { rd, rs1, off } => {
                    let target = regs[rs1 as usize].wrapping_add(off) & !1;
                    wr!(rd, tpl.pc + 4);
                    let mut e = *tpl;
                    e.branch = Some(BranchEvent {
                        taken: true,
                        target,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = resolve_cursor(target, text_len);
                }
                Op::Out { rs1 } => {
                    output.push(regs[rs1 as usize]);
                    fixed!(tpl);
                }
                Op::OutF { fs1 } => {
                    output.push(fregs[fs1 as usize].to_bits());
                    fixed!(tpl);
                }
                Op::Halt => {
                    *halted = true;
                    // pc still advances past the halt, like the interpreter.
                    fixed!(tpl);
                }
                Op::Fixed => fixed!(tpl),
                Op::PoolLd { rd, mi, addr } => {
                    let value = mem.load8_at(mi as usize);
                    wr!(rd, value);
                    let mut e = *tpl;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                }
                Op::PoolFld { fd, mi, addr } => {
                    let raw = mem.load8_at(mi as usize);
                    fregs[fd as usize] = f64::from_bits(raw);
                    let mut e = *tpl;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value: raw,
                        fp: true,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                }
                Op::LdPair {
                    rd1,
                    rd2,
                    base,
                    off1,
                    off2,
                } => {
                    // `rd1 != base` (or rd1 == x0) at decode: the base
                    // value is shared by both halves.
                    let b = regs[base as usize];
                    let addr = b.wrapping_add(off1);
                    let value = mem
                        .load(addr, 8)
                        .map_err(|cause| SimError::Mem { pc: tpl.pc, cause })?;
                    wr!(rd1, value);
                    let mut e = *tpl;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                    fuel!();
                    let tpl2 = &tpls[idx + 1];
                    let addr = b.wrapping_add(off2);
                    let value = mem
                        .load(addr, 8)
                        .map_err(|cause| SimError::Mem { pc: tpl2.pc, cause })?;
                    wr!(rd2, value);
                    let mut e = *tpl2;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 2);
                }
                Op::SdPair {
                    va,
                    vb,
                    base,
                    off1,
                    off2,
                } => {
                    let b = regs[base as usize];
                    store!(tpl, idx as u32 + 1, va, base, off1, 8);
                    fuel!();
                    let tpl2 = &tpls[idx + 1];
                    let addr = b.wrapping_add(off2);
                    let value = regs[vb as usize];
                    mem.store(addr, 8, value)
                        .map_err(|cause| SimError::Mem { pc: tpl2.pc, cause })?;
                    let mut e = *tpl2;
                    e.mem = Some(MemAccess {
                        addr,
                        width: 8,
                        value,
                        fp: false,
                    });
                    f(&e);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 2);
                }
                Op::CmpRegBr {
                    rd,
                    rs1,
                    rs2,
                    kind,
                    br_if_set,
                    t_pc,
                    t_idx,
                } => {
                    let a = regs[rs1 as usize];
                    let b = regs[rs2 as usize];
                    let set = match kind {
                        CmpKind::Lt => (a as i64) < (b as i64),
                        CmpKind::Ltu => a < b,
                    };
                    regs[rd as usize] = set as u64;
                    f(tpl);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                    fuel!();
                    let tpl2 = &tpls[idx + 1];
                    branch!(tpl2, idx as u32 + 1, set == br_if_set, t_pc, t_idx);
                }
                Op::CmpImmBr {
                    rd,
                    rs1,
                    imm,
                    kind,
                    br_if_set,
                    t_pc,
                    t_idx,
                } => {
                    let a = regs[rs1 as usize];
                    let set = match kind {
                        CmpKind::Lt => (a as i64) < (imm as i64),
                        CmpKind::Ltu => a < imm,
                    };
                    regs[rd as usize] = set as u64;
                    f(tpl);
                    instret.retire();
                    *cursor = Cursor::Text(idx as u32 + 1);
                    fuel!();
                    let tpl2 = &tpls[idx + 1];
                    branch!(tpl2, idx as u32 + 1, set == br_if_set, t_pc, t_idx);
                }
                Op::Escape => {
                    // Fell off the end of (or was steered past) the
                    // decoded text: resolve as an outside fetch. The pc
                    // for this slot is the template's pc.
                    *cursor = Cursor::Outside(tpl.pc);
                }
            }
        }
        Ok(instret.get() - start)
    }
}
