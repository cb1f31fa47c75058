//! Code generation: mini-C AST to LRISC assembly text.
//!
//! The generator is deliberately *naive in the places that matter to the
//! paper*: it produces exactly the load-heavy idioms Section 2 attributes
//! value locality to —
//!
//! * globals are re-materialized on every access (`la` + `ld`; under the
//!   Toc profile the `la` itself is a TOC **load**: the paper's
//!   "Addressability" idiom),
//! * scalar locals live in callee-saved registers, so every non-leaf
//!   function restores them (and `ra`) from the stack on exit: the
//!   "call-subgraph identities" idiom,
//! * deep expressions and calls spill temporaries to the frame: the
//!   "register spill code" idiom,
//! * every call saves live caller-saved temporaries around it: glue-like
//!   save/restore traffic.
//!
//! Expression evaluation uses a virtual stack: depths 0..5 live in
//! `t0`–`t4` (`ft0`–`ft5` for floats), deeper values spill to fixed frame
//! slots; `t5`/`t6` (`ft6`/`ft7`) are scratch for operating on spilled
//! values and for address computation.

use crate::ast::*;
use crate::token::LangError;
use lvp_isa::MAX_DATA_IMAGE;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Number of in-register int expression slots (`t0`..`t4`).
const INT_TEMPS: usize = 5;
/// Number of in-register fp expression slots (`ft0`..`ft5`).
const FP_TEMPS: usize = 6;
/// Spill slots per register file for deep expressions.
const SPILL_SLOTS: usize = 16;
/// Callee-saved integer registers available for scalar locals
/// (`s1`..`s11`; `s0` is left free as a conventional frame pointer).
const INT_SAVED: [&str; 11] = [
    "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
];
/// Callee-saved FP registers for float locals.
const FP_SAVED: [&str; 12] = [
    "fs0", "fs1", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9", "fs10", "fs11",
];
/// Integer argument registers.
const INT_ARGS: [&str; 8] = ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"];
/// FP argument registers.
const FP_ARGS: [&str; 8] = ["fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7"];

/// Where a scalar local lives.
#[derive(Debug, Clone, PartialEq)]
enum Slot {
    /// Callee-saved integer register.
    SReg(&'static str),
    /// Callee-saved FP register.
    FsReg(&'static str),
    /// Frame slot at `sp + offset`.
    Frame(i64),
}

#[derive(Debug, Clone)]
struct LocalSym {
    slot: Slot,
    elem: ElemType,
    /// `Some(len)` for arrays (always frame-allocated).
    len: Option<u64>,
    ty: Type,
}

#[derive(Debug, Clone)]
struct GlobalSym {
    label: String,
    elem: ElemType,
    len: Option<u64>,
}

#[derive(Debug, Clone)]
struct FuncSig {
    params: Vec<Type>,
    ret: Option<Type>,
}

/// The result of evaluating an expression: a value at a virtual-stack
/// depth in one of the register files.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Val {
    ty: Type,
    depth: usize,
}

/// Emits LRISC assembly for a parsed program.
///
/// # Errors
///
/// Returns a [`LangError`] for any type error, unknown name, arity
/// mismatch, or unsupported construct.
pub fn generate(ast: &ProgramAst) -> Result<String, LangError> {
    Generator::new(ast)?.run(ast)
}

struct Generator {
    globals: HashMap<String, GlobalSym>,
    funcs: HashMap<String, FuncSig>,
    asm: String,
    label_counter: usize,
}

/// Per-function emission state.
struct FnCtx {
    name: String,
    locals: HashMap<String, LocalSym>,
    ret: Option<Type>,
    int_spill_base: i64,
    fp_spill_base: i64,
    callsave_base: i64,
    /// Current virtual-stack depths.
    int_depth: usize,
    fp_depth: usize,
    /// Loop label stack: (continue_target, break_target).
    loops: Vec<(String, String)>,
    epilogue: String,
}

impl Generator {
    fn new(ast: &ProgramAst) -> Result<Generator, LangError> {
        let mut globals = HashMap::new();
        for g in &ast.globals {
            if globals
                .insert(
                    g.name.clone(),
                    GlobalSym {
                        label: format!("g_{}", g.name),
                        elem: g.elem,
                        len: g.len,
                    },
                )
                .is_some()
            {
                return Err(LangError::new(
                    g.line,
                    format!("duplicate global `{}`", g.name),
                ));
            }
        }
        let mut funcs = HashMap::new();
        for f in &ast.funcs {
            let sig = FuncSig {
                params: f.params.iter().map(|(_, t)| *t).collect(),
                ret: f.ret,
            };
            if funcs.insert(f.name.clone(), sig).is_some() {
                return Err(LangError::new(
                    f.line,
                    format!("duplicate function `{}`", f.name),
                ));
            }
        }
        if !funcs.contains_key("main") {
            return Err(LangError::new(0, "program must define `fn main()`"));
        }
        Ok(Generator {
            globals,
            funcs,
            asm: String::new(),
            label_counter: 0,
        })
    }

    fn run(mut self, ast: &ProgramAst) -> Result<String, LangError> {
        self.emit("    .text");
        self.emit("_start:");
        self.emit("    call main");
        self.emit("    halt");
        for f in &ast.funcs {
            self.function(f)?;
        }
        self.emit("    .data");
        let globals: Vec<Global> = ast.globals.clone();
        let mut data_len = 0;
        for g in &globals {
            data_len = self.global_data(g, data_len)?;
        }
        Ok(std::mem::take(&mut self.asm))
    }

    fn emit(&mut self, line: &str) {
        self.asm.push_str(line);
        self.asm.push('\n');
    }

    fn emitf(&mut self, args: std::fmt::Arguments<'_>) {
        let _ = writeln!(self.asm, "{args}");
    }

    fn fresh_label(&mut self, ctx: &FnCtx, tag: &str) -> String {
        self.label_counter += 1;
        format!(".L{}_{}_{}", ctx.name, tag, self.label_counter)
    }

    // ---- globals ----

    /// Emits global `g` after `data_len` bytes of earlier globals and
    /// returns the data image's length with it. A global whose size
    /// overflows or that would push the image past [`MAX_DATA_IMAGE`]
    /// is refused at its declaration.
    fn global_data(&mut self, g: &Global, data_len: u64) -> Result<u64, LangError> {
        let sym = &self.globals[&g.name];
        let label = sym.label.clone();
        let elem_size = g.elem.size();
        let start = match g.elem {
            ElemType::Char => data_len,
            _ => data_len.next_multiple_of(8),
        };
        let end = g
            .len
            .unwrap_or(1)
            .checked_mul(elem_size)
            .and_then(|total| start.checked_add(total))
            .filter(|&end| end <= MAX_DATA_IMAGE)
            .ok_or_else(|| {
                LangError::new(
                    g.line,
                    format!(
                        "global `{}` does not fit: data memory holds at most {MAX_DATA_IMAGE} bytes",
                        g.name
                    ),
                )
            })?;
        let total = end - start;
        if g.elem != ElemType::Char {
            self.emit("    .align 3");
        }
        self.emitf(format_args!("{label}:"));
        let expect_scalar =
            |lit: &Literal, want: ElemType, line: usize| -> Result<u64, LangError> {
                match (lit, want) {
                    (Literal::Int(v), ElemType::Int) => Ok(*v as u64),
                    (Literal::Int(v), ElemType::Char) => Ok(*v as u64 & 0xff),
                    (Literal::Float(v), ElemType::Float) => Ok(v.to_bits()),
                    (Literal::Int(v), ElemType::Float) => Ok((*v as f64).to_bits()),
                    (Literal::Float(_), _) => {
                        Err(LangError::new(line, "float initializer for integer global"))
                    }
                }
            };
        match &g.init {
            Init::None => self.emitf(format_args!("    .space {total}")),
            Init::Scalar(lit) => {
                if g.len.is_some() {
                    return Err(LangError::new(
                        g.line,
                        "array globals need a list or string initializer",
                    ));
                }
                let bits = expect_scalar(lit, g.elem, g.line)?;
                self.emitf(format_args!("    .dword {bits:#x}"));
            }
            Init::List(items) => {
                let len = g.len.ok_or_else(|| {
                    LangError::new(g.line, "list initializer requires an array global")
                })? as usize;
                if items.len() > len {
                    return Err(LangError::new(
                        g.line,
                        format!(
                            "initializer has {} items but array length is {len}",
                            items.len()
                        ),
                    ));
                }
                for lit in items {
                    let bits = expect_scalar(lit, g.elem, g.line)?;
                    match g.elem {
                        ElemType::Char => self.emitf(format_args!("    .byte {}", bits & 0xff)),
                        _ => self.emitf(format_args!("    .dword {bits:#x}")),
                    }
                }
                let rest = (len - items.len()) as u64 * elem_size;
                if rest > 0 {
                    self.emitf(format_args!("    .space {rest}"));
                }
            }
            Init::Str(s) => {
                if g.elem != ElemType::Char {
                    return Err(LangError::new(
                        g.line,
                        "string initializer requires a char array",
                    ));
                }
                let len = g.len.unwrap() as usize;
                if s.len() + 1 > len {
                    return Err(LangError::new(
                        g.line,
                        format!(
                            "string of {} bytes does not fit in char[{len}]",
                            s.len() + 1
                        ),
                    ));
                }
                let escaped: String = s
                    .chars()
                    .flat_map(|c| match c {
                        '\n' => vec!['\\', 'n'],
                        '\t' => vec!['\\', 't'],
                        '\r' => vec!['\\', 'r'],
                        '"' => vec!['\\', '"'],
                        '\\' => vec!['\\', '\\'],
                        c => vec![c],
                    })
                    .collect();
                self.emitf(format_args!("    .asciiz \"{escaped}\""));
                let rest = len - s.len() - 1;
                if rest > 0 {
                    self.emitf(format_args!("    .space {rest}"));
                }
            }
        }
        Ok(end)
    }

    // ---- functions ----

    fn collect_decls<'s>(stmts: &'s [Stmt], out: &mut Vec<&'s Stmt>) {
        for s in stmts {
            match s {
                Stmt::Decl { .. } => out.push(s),
                Stmt::If { then, els, .. } => {
                    Self::collect_decls(then, out);
                    Self::collect_decls(els, out);
                }
                Stmt::While { body, .. } => Self::collect_decls(body, out),
                Stmt::For {
                    init, step, body, ..
                } => {
                    if let Some(i) = init {
                        Self::collect_decls(std::slice::from_ref(i), out);
                    }
                    if let Some(st) = step {
                        Self::collect_decls(std::slice::from_ref(st), out);
                    }
                    Self::collect_decls(body, out);
                }
                Stmt::Block2(a, b) => {
                    Self::collect_decls(std::slice::from_ref(a), out);
                    Self::collect_decls(std::slice::from_ref(b), out);
                }
                _ => {}
            }
        }
    }

    fn function(&mut self, f: &Func) -> Result<(), LangError> {
        // --- allocate slots ---
        let mut locals: HashMap<String, LocalSym> = HashMap::new();
        let mut used_sregs: Vec<&'static str> = Vec::new();
        let mut used_fsregs: Vec<&'static str> = Vec::new();
        let mut frame_locals: Vec<(String, ElemType, Option<u64>)> = Vec::new();

        let mut next_sreg = 0usize;
        let mut next_fsreg = 0usize;
        let mut frame_bytes = 0u64;
        let mut declare = |name: &str,
                           elem: ElemType,
                           len: Option<u64>,
                           line: usize,
                           locals: &mut HashMap<String, LocalSym>,
                           frame_locals: &mut Vec<(String, ElemType, Option<u64>)>|
         -> Result<(), LangError> {
            if locals.contains_key(name) {
                return Err(LangError::new(line, format!("duplicate local `{name}`")));
            }
            let ty = elem.scalar();
            let slot = if let Some(n) = len {
                // A frame array whose size overflows, or that cannot fit
                // in data memory with the arrays before it, is refused.
                frame_bytes = n
                    .checked_mul(elem.size())
                    .filter(|&size| size <= MAX_DATA_IMAGE)
                    .map(|size| frame_bytes + size.next_multiple_of(8))
                    .filter(|&total| total <= MAX_DATA_IMAGE)
                    .ok_or_else(|| {
                        LangError::new(
                            line,
                            format!(
                                "local array `{name}` does not fit: data memory holds at most {MAX_DATA_IMAGE} bytes"
                            ),
                        )
                    })?;
                frame_locals.push((name.to_string(), elem, len));
                Slot::Frame(-1) // patched below
            } else {
                match ty {
                    Type::Int if next_sreg < INT_SAVED.len() => {
                        let r = INT_SAVED[next_sreg];
                        next_sreg += 1;
                        used_sregs.push(r);
                        Slot::SReg(r)
                    }
                    Type::Float if next_fsreg < FP_SAVED.len() => {
                        let r = FP_SAVED[next_fsreg];
                        next_fsreg += 1;
                        used_fsregs.push(r);
                        Slot::FsReg(r)
                    }
                    _ => {
                        frame_locals.push((name.to_string(), elem, None));
                        Slot::Frame(-1)
                    }
                }
            };
            locals.insert(
                name.to_string(),
                LocalSym {
                    slot,
                    elem,
                    len,
                    ty,
                },
            );
            Ok(())
        };

        for (pname, pty) in &f.params {
            let elem = match pty {
                Type::Int => ElemType::Int,
                Type::Float => ElemType::Float,
            };
            declare(pname, elem, None, f.line, &mut locals, &mut frame_locals)?;
        }
        let mut decls = Vec::new();
        Self::collect_decls(&f.body, &mut decls);
        for d in decls {
            let Stmt::Decl {
                name,
                elem,
                len,
                line,
            } = d
            else {
                unreachable!()
            };
            declare(name, *elem, *len, *line, &mut locals, &mut frame_locals)?;
        }

        // --- frame layout ---
        // [0..8)                       ra
        // [8..)                        saved s-regs, then fs-regs
        // then                         frame locals (arrays 8-aligned)
        // then                         call-save area (temps live across calls)
        // then                         int spill slots, fp spill slots
        let mut off: i64 = 8;
        let sreg_save_base = off;
        off += used_sregs.len() as i64 * 8;
        let fsreg_save_base = off;
        off += used_fsregs.len() as i64 * 8;
        for (name, elem, len) in &frame_locals {
            let size = elem.size() as i64 * len.unwrap_or(1) as i64;
            off = (off + 7) & !7;
            let sym = locals.get_mut(name).expect("frame local must be declared");
            sym.slot = Slot::Frame(off);
            off += size.max(8);
        }
        off = (off + 7) & !7;
        let callsave_base = off;
        off += ((INT_TEMPS + FP_TEMPS) as i64) * 8;
        let int_spill_base = off;
        off += SPILL_SLOTS as i64 * 8;
        let fp_spill_base = off;
        off += SPILL_SLOTS as i64 * 8;
        let frame_size = (off + 15) & !15;

        let mut ctx = FnCtx {
            name: f.name.clone(),
            locals,
            ret: f.ret,
            int_spill_base,
            fp_spill_base,
            callsave_base,
            int_depth: 0,
            fp_depth: 0,
            loops: Vec::new(),
            epilogue: String::new(),
        };
        ctx.epilogue = self.fresh_label(&ctx, "ret");

        // --- prologue ---
        self.emitf(format_args!("{}:", f.name));
        self.adjust_sp(-frame_size);
        self.emit("    sd ra, 0(sp)");
        for (i, r) in used_sregs.iter().enumerate() {
            self.emitf(format_args!(
                "    sd {r}, {}(sp)",
                sreg_save_base + i as i64 * 8
            ));
        }
        for (i, r) in used_fsregs.iter().enumerate() {
            self.emitf(format_args!(
                "    fsd {r}, {}(sp)",
                fsreg_save_base + i as i64 * 8
            ));
        }
        // Move parameters into their slots.
        let mut int_arg = 0usize;
        let mut fp_arg = 0usize;
        for (pname, pty) in &f.params {
            let sym = ctx.locals[pname].clone();
            match pty {
                Type::Int => {
                    let src = *INT_ARGS.get(int_arg).ok_or_else(|| {
                        LangError::new(f.line, "too many integer parameters (max 8)")
                    })?;
                    int_arg += 1;
                    match &sym.slot {
                        Slot::SReg(r) => self.emitf(format_args!("    mv {r}, {src}")),
                        Slot::Frame(o) => self.store_to_sp(src, *o, 8),
                        Slot::FsReg(_) => unreachable!("int param in fp reg"),
                    }
                }
                Type::Float => {
                    let src = *FP_ARGS.get(fp_arg).ok_or_else(|| {
                        LangError::new(f.line, "too many float parameters (max 8)")
                    })?;
                    fp_arg += 1;
                    match &sym.slot {
                        Slot::FsReg(r) => self.emitf(format_args!("    fmv.d {r}, {src}")),
                        Slot::Frame(o) => self.fstore_to_sp(src, *o),
                        Slot::SReg(_) => unreachable!("fp param in int reg"),
                    }
                }
            }
        }

        // --- body ---
        self.stmts(&f.body, &mut ctx)?;
        debug_assert_eq!(
            ctx.int_depth, 0,
            "int temp stack not empty at end of {}",
            f.name
        );
        debug_assert_eq!(
            ctx.fp_depth, 0,
            "fp temp stack not empty at end of {}",
            f.name
        );

        // --- epilogue ---
        self.emitf(format_args!("{}:", ctx.epilogue));
        for (i, r) in used_fsregs.iter().enumerate() {
            self.emitf(format_args!(
                "    fld {r}, {}(sp)",
                fsreg_save_base + i as i64 * 8
            ));
        }
        for (i, r) in used_sregs.iter().enumerate() {
            self.emitf(format_args!(
                "    ld {r}, {}(sp)",
                sreg_save_base + i as i64 * 8
            ));
        }
        self.emit("    ld ra, 0(sp)");
        self.adjust_sp(frame_size);
        self.emit("    ret");
        Ok(())
    }

    fn adjust_sp(&mut self, delta: i64) {
        if delta == 0 {
            return;
        }
        if (-2048..2048).contains(&delta) {
            self.emitf(format_args!("    addi sp, sp, {delta}"));
        } else {
            self.emitf(format_args!("    li t6, {delta}"));
            self.emit("    add sp, sp, t6");
        }
    }

    /// Emits `sd`/`sw`-style store of `reg` to `sp + off`.
    fn store_to_sp(&mut self, reg: &str, off: i64, _width: u8) {
        if (-2048..2048).contains(&off) {
            self.emitf(format_args!("    sd {reg}, {off}(sp)"));
        } else {
            self.emitf(format_args!("    li t6, {off}"));
            self.emit("    add t6, t6, sp");
            self.emitf(format_args!("    sd {reg}, 0(t6)"));
        }
    }

    fn load_from_sp(&mut self, reg: &str, off: i64) {
        if (-2048..2048).contains(&off) {
            self.emitf(format_args!("    ld {reg}, {off}(sp)"));
        } else {
            self.emitf(format_args!("    li t6, {off}"));
            self.emit("    add t6, t6, sp");
            self.emitf(format_args!("    ld {reg}, 0(t6)"));
        }
    }

    fn fstore_to_sp(&mut self, reg: &str, off: i64) {
        if (-2048..2048).contains(&off) {
            self.emitf(format_args!("    fsd {reg}, {off}(sp)"));
        } else {
            self.emitf(format_args!("    li t6, {off}"));
            self.emit("    add t6, t6, sp");
            self.emitf(format_args!("    fsd {reg}, 0(t6)"));
        }
    }

    fn fload_from_sp(&mut self, reg: &str, off: i64) {
        if (-2048..2048).contains(&off) {
            self.emitf(format_args!("    fld {reg}, {off}(sp)"));
        } else {
            self.emitf(format_args!("    li t6, {off}"));
            self.emit("    add t6, t6, sp");
            self.emitf(format_args!("    fld {reg}, 0(t6)"));
        }
    }

    // ---- statements ----

    fn stmts(&mut self, list: &[Stmt], ctx: &mut FnCtx) -> Result<(), LangError> {
        for s in list {
            self.stmt(s, ctx)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, ctx: &mut FnCtx) -> Result<(), LangError> {
        match s {
            Stmt::Decl { .. } => Ok(()), // slots preallocated
            Stmt::Block2(a, b) => {
                self.stmt(a, ctx)?;
                self.stmt(b, ctx)
            }
            Stmt::Assign { lv, expr, line } => self.assign(lv, expr, *line, ctx),
            Stmt::If { cond, then, els } => {
                let l_else = self.fresh_label(ctx, "else");
                let l_end = self.fresh_label(ctx, "endif");
                let v = self.expr(cond, ctx)?;
                self.expect_int(&v, cond.line())?;
                let r = self.int_operand(v.depth, 0, ctx);
                self.emitf(format_args!("    beqz {r}, {l_else}"));
                self.pop_int(ctx);
                self.stmts(then, ctx)?;
                if els.is_empty() {
                    self.emitf(format_args!("{l_else}:"));
                } else {
                    self.emitf(format_args!("    j {l_end}"));
                    self.emitf(format_args!("{l_else}:"));
                    self.stmts(els, ctx)?;
                    self.emitf(format_args!("{l_end}:"));
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let l_head = self.fresh_label(ctx, "while");
                let l_end = self.fresh_label(ctx, "endwhile");
                self.emitf(format_args!("{l_head}:"));
                let v = self.expr(cond, ctx)?;
                self.expect_int(&v, cond.line())?;
                let r = self.int_operand(v.depth, 0, ctx);
                self.emitf(format_args!("    beqz {r}, {l_end}"));
                self.pop_int(ctx);
                ctx.loops.push((l_head.clone(), l_end.clone()));
                self.stmts(body, ctx)?;
                ctx.loops.pop();
                self.emitf(format_args!("    j {l_head}"));
                self.emitf(format_args!("{l_end}:"));
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i, ctx)?;
                }
                let l_head = self.fresh_label(ctx, "for");
                let l_step = self.fresh_label(ctx, "forstep");
                let l_end = self.fresh_label(ctx, "endfor");
                self.emitf(format_args!("{l_head}:"));
                if let Some(c) = cond {
                    let v = self.expr(c, ctx)?;
                    self.expect_int(&v, c.line())?;
                    let r = self.int_operand(v.depth, 0, ctx);
                    self.emitf(format_args!("    beqz {r}, {l_end}"));
                    self.pop_int(ctx);
                }
                ctx.loops.push((l_step.clone(), l_end.clone()));
                self.stmts(body, ctx)?;
                ctx.loops.pop();
                self.emitf(format_args!("{l_step}:"));
                if let Some(st) = step {
                    self.stmt(st, ctx)?;
                }
                self.emitf(format_args!("    j {l_head}"));
                self.emitf(format_args!("{l_end}:"));
                Ok(())
            }
            Stmt::Return(e, line) => {
                match (e, ctx.ret) {
                    (Some(e), Some(want)) => {
                        let v = self.expr(e, ctx)?;
                        if v.ty != want {
                            return Err(LangError::new(
                                *line,
                                format!("return type mismatch: expected {want}, found {}", v.ty),
                            ));
                        }
                        match v.ty {
                            Type::Int => {
                                let r = self.int_operand(v.depth, 0, ctx);
                                self.emitf(format_args!("    mv a0, {r}"));
                                self.pop_int(ctx);
                            }
                            Type::Float => {
                                let r = self.fp_operand(v.depth, 0, ctx);
                                self.emitf(format_args!("    fmv.d fa0, {r}"));
                                self.pop_fp(ctx);
                            }
                        }
                    }
                    (None, None) => {}
                    (Some(_), None) => {
                        return Err(LangError::new(*line, "void function cannot return a value"));
                    }
                    (None, Some(t)) => {
                        return Err(LangError::new(
                            *line,
                            format!("must return a value of type {t}"),
                        ));
                    }
                }
                let ep = ctx.epilogue.clone();
                self.emitf(format_args!("    j {ep}"));
                Ok(())
            }
            Stmt::Break(line) => {
                let (_, brk) = ctx
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| LangError::new(*line, "`break` outside a loop"))?;
                self.emitf(format_args!("    j {brk}"));
                Ok(())
            }
            Stmt::Continue(line) => {
                let (cont, _) = ctx
                    .loops
                    .last()
                    .cloned()
                    .ok_or_else(|| LangError::new(*line, "`continue` outside a loop"))?;
                self.emitf(format_args!("    j {cont}"));
                Ok(())
            }
            Stmt::Expr(e) => {
                let used = self.expr_or_void(e, ctx)?;
                if let Some(v) = used {
                    match v.ty {
                        Type::Int => self.pop_int(ctx),
                        Type::Float => self.pop_fp(ctx),
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        lv: &LValue,
        expr: &Expr,
        line: usize,
        ctx: &mut FnCtx,
    ) -> Result<(), LangError> {
        match lv {
            LValue::Var(name) => {
                let v = self.expr(expr, ctx)?;
                if let Some(sym) = ctx.locals.get(name).cloned() {
                    if sym.len.is_some() {
                        return Err(LangError::new(
                            line,
                            format!("cannot assign to array `{name}`"),
                        ));
                    }
                    if sym.ty != v.ty {
                        return Err(LangError::new(
                            line,
                            format!(
                                "type mismatch assigning {} to `{name}` of type {}",
                                v.ty, sym.ty
                            ),
                        ));
                    }
                    match (&sym.slot, v.ty) {
                        (Slot::SReg(r), Type::Int) => {
                            let src = self.int_operand(v.depth, 0, ctx);
                            self.emitf(format_args!("    mv {r}, {src}"));
                            self.pop_int(ctx);
                        }
                        (Slot::FsReg(r), Type::Float) => {
                            let src = self.fp_operand(v.depth, 0, ctx);
                            self.emitf(format_args!("    fmv.d {r}, {src}"));
                            self.pop_fp(ctx);
                        }
                        (Slot::Frame(off), Type::Int) => {
                            let src = self.int_operand(v.depth, 0, ctx).to_string();
                            self.store_to_sp(&src, *off, 8);
                            self.pop_int(ctx);
                        }
                        (Slot::Frame(off), Type::Float) => {
                            let src = self.fp_operand(v.depth, 0, ctx).to_string();
                            self.fstore_to_sp(&src, *off);
                            self.pop_fp(ctx);
                        }
                        _ => unreachable!("slot/type mismatch"),
                    }
                    Ok(())
                } else if let Some(gsym) = self.globals.get(name).cloned() {
                    if gsym.len.is_some() {
                        return Err(LangError::new(
                            line,
                            format!("cannot assign to array `{name}`"),
                        ));
                    }
                    let want = gsym.elem.scalar();
                    if want != v.ty {
                        return Err(LangError::new(
                            line,
                            format!(
                                "type mismatch assigning {} to `{name}` of type {want}",
                                v.ty
                            ),
                        ));
                    }
                    self.emitf(format_args!("    la t5, {}", gsym.label));
                    match v.ty {
                        Type::Int => {
                            // Scratch 1 (t6): t5 holds the address.
                            let src = self.int_operand(v.depth, 1, ctx);
                            self.emitf(format_args!("    sd {src}, 0(t5)"));
                            self.pop_int(ctx);
                        }
                        Type::Float => {
                            let src = self.fp_operand(v.depth, 1, ctx);
                            self.emitf(format_args!("    fsd {src}, 0(t5)"));
                            self.pop_fp(ctx);
                        }
                    }
                    Ok(())
                } else {
                    Err(LangError::new(line, format!("unknown variable `{name}`")))
                }
            }
            LValue::Index(name, idx) => {
                // Evaluate index then value; address computation uses t5/t6.
                let (elem, _is_local) = self.array_info(name, line, ctx)?;
                let iv = self.expr(idx, ctx)?;
                self.expect_int(&iv, idx.line())?;
                let vv = self.expr(expr, ctx)?;
                let want = elem.scalar();
                if vv.ty != want {
                    return Err(LangError::new(
                        line,
                        format!("type mismatch storing {} into {elem} array `{name}`", vv.ty),
                    ));
                }
                self.array_addr(name, iv.depth, elem, line, ctx)?; // address into t5
                match (elem, vv.ty) {
                    (ElemType::Char, Type::Int) => {
                        let src = self.int_operand(vv.depth, 1, ctx);
                        self.emitf(format_args!("    sb {src}, 0(t5)"));
                        self.pop_int(ctx);
                    }
                    (ElemType::Int, Type::Int) => {
                        let src = self.int_operand(vv.depth, 1, ctx);
                        self.emitf(format_args!("    sd {src}, 0(t5)"));
                        self.pop_int(ctx);
                    }
                    (ElemType::Float, Type::Float) => {
                        let src = self.fp_operand(vv.depth, 1, ctx);
                        self.emitf(format_args!("    fsd {src}, 0(t5)"));
                        self.pop_fp(ctx);
                    }
                    _ => unreachable!("checked above"),
                }
                self.pop_int(ctx); // index
                Ok(())
            }
        }
    }

    /// Returns (elem type, is_local) of array `name`.
    fn array_info(
        &self,
        name: &str,
        line: usize,
        ctx: &FnCtx,
    ) -> Result<(ElemType, bool), LangError> {
        if let Some(sym) = ctx.locals.get(name) {
            if sym.len.is_none() {
                return Err(LangError::new(line, format!("`{name}` is not an array")));
            }
            Ok((sym.elem, true))
        } else if let Some(g) = self.globals.get(name) {
            if g.len.is_none() {
                return Err(LangError::new(line, format!("`{name}` is not an array")));
            }
            Ok((g.elem, false))
        } else {
            Err(LangError::new(line, format!("unknown array `{name}`")))
        }
    }

    /// Leaves the address of `name[index-at-depth]` in `t5`.
    fn array_addr(
        &mut self,
        name: &str,
        idx_depth: usize,
        elem: ElemType,
        line: usize,
        ctx: &mut FnCtx,
    ) -> Result<(), LangError> {
        // Base address into t5.
        if let Some(sym) = ctx.locals.get(name).cloned() {
            let Slot::Frame(off) = sym.slot else {
                return Err(LangError::new(
                    line,
                    format!("array `{name}` has no frame slot"),
                ));
            };
            if (-2048..2048).contains(&off) {
                self.emitf(format_args!("    addi t5, sp, {off}"));
            } else {
                self.emitf(format_args!("    li t5, {off}"));
                self.emit("    add t5, t5, sp");
            }
        } else {
            let g = self.globals.get(name).expect("checked by array_info");
            let label = g.label.clone();
            self.emitf(format_args!("    la t5, {label}"));
        }
        // Scaled index.
        let idx_reg = self.int_operand(idx_depth, 1, ctx);
        match elem {
            ElemType::Char => {
                self.emitf(format_args!("    add t5, t5, {idx_reg}"));
            }
            _ => {
                self.emitf(format_args!("    slli t6, {idx_reg}, 3"));
                self.emit("    add t5, t5, t6");
            }
        }
        Ok(())
    }

    // ---- expressions ----

    fn expect_int(&self, v: &Val, line: usize) -> Result<(), LangError> {
        if v.ty != Type::Int {
            return Err(LangError::new(
                line,
                format!("expected int, found {}", v.ty),
            ));
        }
        Ok(())
    }

    /// Register name for the int value at `depth`; if spilled, loads it
    /// into scratch `t5` (scratch 0) or `t6` (scratch 1).
    fn int_operand(&mut self, depth: usize, scratch: usize, ctx: &FnCtx) -> &'static str {
        const REGS: [&str; INT_TEMPS] = ["t0", "t1", "t2", "t3", "t4"];
        if depth < INT_TEMPS {
            REGS[depth]
        } else {
            let slot = ctx.int_spill_base + (depth - INT_TEMPS) as i64 * 8;
            let r = if scratch == 0 { "t5" } else { "t6" };
            self.load_from_sp(r, slot);
            r
        }
    }

    /// Register the fp value at `depth` lives in, loading spills into
    /// `ft6`/`ft7`.
    fn fp_operand(&mut self, depth: usize, scratch: usize, ctx: &FnCtx) -> &'static str {
        const REGS: [&str; FP_TEMPS] = ["ft0", "ft1", "ft2", "ft3", "ft4", "ft5"];
        if depth < FP_TEMPS {
            REGS[depth]
        } else {
            let slot = ctx.fp_spill_base + (depth - FP_TEMPS) as i64 * 8;
            let r = if scratch == 0 { "ft6" } else { "ft7" };
            self.fload_from_sp(r, slot);
            r
        }
    }

    /// Destination register for an int result at `depth` (scratch `t5` if
    /// the slot is spilled; caller must invoke [`Self::finish_int`]).
    fn int_dest(&self, depth: usize) -> &'static str {
        const REGS: [&str; INT_TEMPS] = ["t0", "t1", "t2", "t3", "t4"];
        if depth < INT_TEMPS {
            REGS[depth]
        } else {
            "t5"
        }
    }

    fn fp_dest(&self, depth: usize) -> &'static str {
        const REGS: [&str; FP_TEMPS] = ["ft0", "ft1", "ft2", "ft3", "ft4", "ft5"];
        if depth < FP_TEMPS {
            REGS[depth]
        } else {
            "ft6"
        }
    }

    /// Writes back a spilled int result produced in scratch.
    fn finish_int(&mut self, depth: usize, ctx: &FnCtx) {
        if depth >= INT_TEMPS {
            let slot = ctx.int_spill_base + (depth - INT_TEMPS) as i64 * 8;
            self.store_to_sp("t5", slot, 8);
        }
    }

    fn finish_fp(&mut self, depth: usize, ctx: &FnCtx) {
        if depth >= FP_TEMPS {
            let slot = ctx.fp_spill_base + (depth - FP_TEMPS) as i64 * 8;
            self.fstore_to_sp("ft6", slot);
        }
    }

    fn push_int(&mut self, ctx: &mut FnCtx) -> usize {
        let d = ctx.int_depth;
        assert!(
            d < INT_TEMPS + SPILL_SLOTS,
            "expression too deep: more than {} int temporaries",
            INT_TEMPS + SPILL_SLOTS
        );
        ctx.int_depth += 1;
        d
    }

    fn pop_int(&mut self, ctx: &mut FnCtx) {
        debug_assert!(ctx.int_depth > 0, "int temp stack underflow");
        ctx.int_depth -= 1;
    }

    fn push_fp(&mut self, ctx: &mut FnCtx) -> usize {
        let d = ctx.fp_depth;
        assert!(
            d < FP_TEMPS + SPILL_SLOTS,
            "expression too deep: more than {} fp temporaries",
            FP_TEMPS + SPILL_SLOTS
        );
        ctx.fp_depth += 1;
        d
    }

    fn pop_fp(&mut self, ctx: &mut FnCtx) {
        debug_assert!(ctx.fp_depth > 0, "fp temp stack underflow");
        ctx.fp_depth -= 1;
    }

    /// Evaluates an expression that may be a void call; returns `None` for
    /// void results.
    fn expr_or_void(&mut self, e: &Expr, ctx: &mut FnCtx) -> Result<Option<Val>, LangError> {
        if let Expr::Call(name, args, line) = e {
            let is_void = match name.as_str() {
                "out" | "outf" => true,
                "sqrt" | "fabs" => false,
                other => self
                    .funcs
                    .get(other)
                    .ok_or_else(|| LangError::new(*line, format!("unknown function `{other}`")))?
                    .ret
                    .is_none(),
            };
            if is_void {
                self.call(name, args, *line, ctx)?;
                return Ok(None);
            }
        }
        Ok(Some(self.expr(e, ctx)?))
    }

    fn expr(&mut self, e: &Expr, ctx: &mut FnCtx) -> Result<Val, LangError> {
        match e {
            Expr::Int(v) => {
                let d = self.push_int(ctx);
                let rd = self.int_dest(d);
                self.emitf(format_args!("    li {rd}, {v}"));
                self.finish_int(d, ctx);
                Ok(Val {
                    ty: Type::Int,
                    depth: d,
                })
            }
            Expr::Float(v) => {
                let d = self.push_fp(ctx);
                let rd = self.fp_dest(d);
                // `fli` keeps full precision via the constant pool.
                self.emitf(format_args!("    fli {rd}, {v:?}"));
                self.finish_fp(d, ctx);
                Ok(Val {
                    ty: Type::Float,
                    depth: d,
                })
            }
            Expr::Var(name, line) => self.read_var(name, *line, ctx),
            Expr::Index(name, idx, line) => {
                let (elem, _) = self.array_info(name, *line, ctx)?;
                let iv = self.expr(idx, ctx)?;
                self.expect_int(&iv, idx.line())?;
                self.array_addr(name, iv.depth, elem, *line, ctx)?;
                self.pop_int(ctx);
                match elem {
                    ElemType::Char | ElemType::Int => {
                        let d = self.push_int(ctx);
                        let rd = self.int_dest(d);
                        match elem {
                            ElemType::Char => self.emitf(format_args!("    lbu {rd}, 0(t5)")),
                            _ => self.emitf(format_args!("    ld {rd}, 0(t5)")),
                        }
                        self.finish_int(d, ctx);
                        Ok(Val {
                            ty: Type::Int,
                            depth: d,
                        })
                    }
                    ElemType::Float => {
                        let d = self.push_fp(ctx);
                        let rd = self.fp_dest(d);
                        self.emitf(format_args!("    fld {rd}, 0(t5)"));
                        self.finish_fp(d, ctx);
                        Ok(Val {
                            ty: Type::Float,
                            depth: d,
                        })
                    }
                }
            }
            Expr::Call(name, args, line) => self.call(name, args, *line, ctx)?.ok_or_else(|| {
                LangError::new(*line, format!("void function `{name}` used as a value"))
            }),
            Expr::Cast(to, inner, line) => {
                let v = self.expr(inner, ctx)?;
                match (v.ty, to) {
                    (a, b) if a == *b => Ok(v),
                    (Type::Int, Type::Float) => {
                        let src = self.int_operand(v.depth, 0, ctx).to_string();
                        self.pop_int(ctx);
                        let d = self.push_fp(ctx);
                        let rd = self.fp_dest(d);
                        self.emitf(format_args!("    fcvt.d.l {rd}, {src}"));
                        self.finish_fp(d, ctx);
                        Ok(Val {
                            ty: Type::Float,
                            depth: d,
                        })
                    }
                    (Type::Float, Type::Int) => {
                        let src = self.fp_operand(v.depth, 0, ctx).to_string();
                        self.pop_fp(ctx);
                        let d = self.push_int(ctx);
                        let rd = self.int_dest(d);
                        self.emitf(format_args!("    fcvt.l.d {rd}, {src}"));
                        self.finish_int(d, ctx);
                        Ok(Val {
                            ty: Type::Int,
                            depth: d,
                        })
                    }
                    _ => Err(LangError::new(*line, "unsupported cast")),
                }
            }
            Expr::Unary(op, inner, line) => {
                let v = self.expr(inner, ctx)?;
                match (op, v.ty) {
                    (UnOp::Neg, Type::Int) => {
                        let src = self.int_operand(v.depth, 0, ctx);
                        let rd = self.int_dest(v.depth);
                        self.emitf(format_args!("    neg {rd}, {src}"));
                        self.finish_int(v.depth, ctx);
                        Ok(v)
                    }
                    (UnOp::Neg, Type::Float) => {
                        let src = self.fp_operand(v.depth, 0, ctx);
                        let rd = self.fp_dest(v.depth);
                        self.emitf(format_args!("    fneg.d {rd}, {src}"));
                        self.finish_fp(v.depth, ctx);
                        Ok(v)
                    }
                    (UnOp::Not, Type::Int) => {
                        let src = self.int_operand(v.depth, 0, ctx);
                        let rd = self.int_dest(v.depth);
                        self.emitf(format_args!("    seqz {rd}, {src}"));
                        self.finish_int(v.depth, ctx);
                        Ok(v)
                    }
                    (UnOp::BitNot, Type::Int) => {
                        let src = self.int_operand(v.depth, 0, ctx);
                        let rd = self.int_dest(v.depth);
                        self.emitf(format_args!("    not {rd}, {src}"));
                        self.finish_int(v.depth, ctx);
                        Ok(v)
                    }
                    (op, ty) => Err(LangError::new(
                        *line,
                        format!("unary {op:?} is not defined for {ty}"),
                    )),
                }
            }
            Expr::Binary(op, lhs, rhs, line) => self.binary(*op, lhs, rhs, *line, ctx),
        }
    }

    fn read_var(&mut self, name: &str, line: usize, ctx: &mut FnCtx) -> Result<Val, LangError> {
        if let Some(sym) = ctx.locals.get(name).cloned() {
            if sym.len.is_some() {
                return Err(LangError::new(
                    line,
                    format!("array `{name}` cannot be used as a scalar"),
                ));
            }
            match (&sym.slot, sym.ty) {
                (Slot::SReg(r), Type::Int) => {
                    let d = self.push_int(ctx);
                    let rd = self.int_dest(d);
                    self.emitf(format_args!("    mv {rd}, {r}"));
                    self.finish_int(d, ctx);
                    Ok(Val {
                        ty: Type::Int,
                        depth: d,
                    })
                }
                (Slot::FsReg(r), Type::Float) => {
                    let d = self.push_fp(ctx);
                    let rd = self.fp_dest(d);
                    self.emitf(format_args!("    fmv.d {rd}, {r}"));
                    self.finish_fp(d, ctx);
                    Ok(Val {
                        ty: Type::Float,
                        depth: d,
                    })
                }
                (Slot::Frame(off), Type::Int) => {
                    let d = self.push_int(ctx);
                    let rd = self.int_dest(d).to_string();
                    self.load_from_sp(&rd, *off);
                    self.finish_int(d, ctx);
                    Ok(Val {
                        ty: Type::Int,
                        depth: d,
                    })
                }
                (Slot::Frame(off), Type::Float) => {
                    let d = self.push_fp(ctx);
                    let rd = self.fp_dest(d).to_string();
                    self.fload_from_sp(&rd, *off);
                    self.finish_fp(d, ctx);
                    Ok(Val {
                        ty: Type::Float,
                        depth: d,
                    })
                }
                _ => unreachable!("slot/type mismatch"),
            }
        } else if let Some(g) = self.globals.get(name).cloned() {
            if g.len.is_some() {
                return Err(LangError::new(
                    line,
                    format!("array `{name}` cannot be used as a scalar"),
                ));
            }
            self.emitf(format_args!("    la t5, {}", g.label));
            match g.elem.scalar() {
                Type::Int => {
                    let d = self.push_int(ctx);
                    let rd = self.int_dest(d);
                    self.emitf(format_args!("    ld {rd}, 0(t5)"));
                    self.finish_int(d, ctx);
                    Ok(Val {
                        ty: Type::Int,
                        depth: d,
                    })
                }
                Type::Float => {
                    let d = self.push_fp(ctx);
                    let rd = self.fp_dest(d);
                    self.emitf(format_args!("    fld {rd}, 0(t5)"));
                    self.finish_fp(d, ctx);
                    Ok(Val {
                        ty: Type::Float,
                        depth: d,
                    })
                }
            }
        } else {
            Err(LangError::new(line, format!("unknown variable `{name}`")))
        }
    }

    fn binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        line: usize,
        ctx: &mut FnCtx,
    ) -> Result<Val, LangError> {
        // Short-circuit logical operators first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l_short = self.fresh_label(ctx, "sc");
            let l_end = self.fresh_label(ctx, "scend");
            let lv = self.expr(lhs, ctx)?;
            self.expect_int(&lv, lhs.line())?;
            let lr = self.int_operand(lv.depth, 0, ctx);
            match op {
                BinOp::And => self.emitf(format_args!("    beqz {lr}, {l_short}")),
                _ => self.emitf(format_args!("    bnez {lr}, {l_short}")),
            }
            self.pop_int(ctx);
            let rv = self.expr(rhs, ctx)?;
            self.expect_int(&rv, rhs.line())?;
            debug_assert_eq!(rv.depth, lv.depth, "short-circuit depths must line up");
            let rr = self.int_operand(rv.depth, 0, ctx);
            let rd = self.int_dest(rv.depth);
            self.emitf(format_args!("    snez {rd}, {rr}"));
            self.finish_int(rv.depth, ctx);
            self.emitf(format_args!("    j {l_end}"));
            self.emitf(format_args!("{l_short}:"));
            let rd2 = self.int_dest(lv.depth);
            let const_result = if op == BinOp::And { 0 } else { 1 };
            self.emitf(format_args!("    li {rd2}, {const_result}"));
            self.finish_int(lv.depth, ctx);
            self.emitf(format_args!("{l_end}:"));
            return Ok(Val {
                ty: Type::Int,
                depth: rv.depth,
            });
        }

        let lv = self.expr(lhs, ctx)?;
        let rv = self.expr(rhs, ctx)?;
        if lv.ty != rv.ty {
            return Err(LangError::new(
                line,
                format!("operand type mismatch: {} vs {}", lv.ty, rv.ty),
            ));
        }
        match lv.ty {
            Type::Int => {
                let ra = self.int_operand(lv.depth, 0, ctx).to_string();
                let rb = self.int_operand(rv.depth, 1, ctx).to_string();
                let rd = self.int_dest(lv.depth).to_string();
                match op {
                    BinOp::Add => self.emitf(format_args!("    add {rd}, {ra}, {rb}")),
                    BinOp::Sub => self.emitf(format_args!("    sub {rd}, {ra}, {rb}")),
                    BinOp::Mul => self.emitf(format_args!("    mul {rd}, {ra}, {rb}")),
                    BinOp::Div => self.emitf(format_args!("    div {rd}, {ra}, {rb}")),
                    BinOp::Rem => self.emitf(format_args!("    rem {rd}, {ra}, {rb}")),
                    BinOp::BitAnd => self.emitf(format_args!("    and {rd}, {ra}, {rb}")),
                    BinOp::BitOr => self.emitf(format_args!("    or {rd}, {ra}, {rb}")),
                    BinOp::BitXor => self.emitf(format_args!("    xor {rd}, {ra}, {rb}")),
                    BinOp::Shl => self.emitf(format_args!("    sll {rd}, {ra}, {rb}")),
                    BinOp::Shr => self.emitf(format_args!("    sra {rd}, {ra}, {rb}")),
                    BinOp::Lt => self.emitf(format_args!("    slt {rd}, {ra}, {rb}")),
                    BinOp::Gt => self.emitf(format_args!("    slt {rd}, {rb}, {ra}")),
                    BinOp::Le => {
                        self.emitf(format_args!("    slt {rd}, {rb}, {ra}"));
                        self.emitf(format_args!("    xori {rd}, {rd}, 1"));
                    }
                    BinOp::Ge => {
                        self.emitf(format_args!("    slt {rd}, {ra}, {rb}"));
                        self.emitf(format_args!("    xori {rd}, {rd}, 1"));
                    }
                    BinOp::Eq => {
                        self.emitf(format_args!("    xor {rd}, {ra}, {rb}"));
                        self.emitf(format_args!("    seqz {rd}, {rd}"));
                    }
                    BinOp::Ne => {
                        self.emitf(format_args!("    xor {rd}, {ra}, {rb}"));
                        self.emitf(format_args!("    snez {rd}, {rd}"));
                    }
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
                self.finish_int(lv.depth, ctx);
                self.pop_int(ctx); // rhs
                Ok(Val {
                    ty: Type::Int,
                    depth: lv.depth,
                })
            }
            Type::Float => {
                let ra = self.fp_operand(lv.depth, 0, ctx).to_string();
                let rb = self.fp_operand(rv.depth, 1, ctx).to_string();
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        let rd = self.fp_dest(lv.depth).to_string();
                        let m = match op {
                            BinOp::Add => "fadd.d",
                            BinOp::Sub => "fsub.d",
                            BinOp::Mul => "fmul.d",
                            _ => "fdiv.d",
                        };
                        self.emitf(format_args!("    {m} {rd}, {ra}, {rb}"));
                        self.finish_fp(lv.depth, ctx);
                        self.pop_fp(ctx);
                        Ok(Val {
                            ty: Type::Float,
                            depth: lv.depth,
                        })
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        self.pop_fp(ctx);
                        self.pop_fp(ctx);
                        let d = self.push_int(ctx);
                        let rd = self.int_dest(d).to_string();
                        match op {
                            BinOp::Eq => self.emitf(format_args!("    feq.d {rd}, {ra}, {rb}")),
                            BinOp::Ne => {
                                self.emitf(format_args!("    feq.d {rd}, {ra}, {rb}"));
                                self.emitf(format_args!("    xori {rd}, {rd}, 1"));
                            }
                            BinOp::Lt => self.emitf(format_args!("    flt.d {rd}, {ra}, {rb}")),
                            BinOp::Le => self.emitf(format_args!("    fle.d {rd}, {ra}, {rb}")),
                            BinOp::Gt => self.emitf(format_args!("    flt.d {rd}, {rb}, {ra}")),
                            _ => self.emitf(format_args!("    fle.d {rd}, {rb}, {ra}")),
                        }
                        self.finish_int(d, ctx);
                        Ok(Val {
                            ty: Type::Int,
                            depth: d,
                        })
                    }
                    other => Err(LangError::new(
                        line,
                        format!("operator {other:?} is not defined for float"),
                    )),
                }
            }
        }
    }

    /// Emits a call to a user function or builtin; returns its value (or
    /// `None` for void).
    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        line: usize,
        ctx: &mut FnCtx,
    ) -> Result<Option<Val>, LangError> {
        // Builtins.
        match name {
            "out" | "outf" => {
                if args.len() != 1 {
                    return Err(LangError::new(line, format!("{name}() takes one argument")));
                }
                let v = self.expr(&args[0], ctx)?;
                match (name, v.ty) {
                    ("out", Type::Int) => {
                        let r = self.int_operand(v.depth, 0, ctx);
                        self.emitf(format_args!("    out {r}"));
                        self.pop_int(ctx);
                    }
                    ("outf", Type::Float) => {
                        let r = self.fp_operand(v.depth, 0, ctx);
                        self.emitf(format_args!("    outf {r}"));
                        self.pop_fp(ctx);
                    }
                    (_, ty) => {
                        return Err(LangError::new(
                            line,
                            format!("{name}() got a {ty} argument"),
                        ));
                    }
                }
                return Ok(None);
            }
            "sqrt" | "fabs" => {
                if args.len() != 1 {
                    return Err(LangError::new(line, format!("{name}() takes one argument")));
                }
                let v = self.expr(&args[0], ctx)?;
                if v.ty != Type::Float {
                    return Err(LangError::new(line, format!("{name}() requires a float")));
                }
                let src = self.fp_operand(v.depth, 0, ctx);
                let rd = self.fp_dest(v.depth);
                let m = if name == "sqrt" { "fsqrt.d" } else { "fabs.d" };
                self.emitf(format_args!("    {m} {rd}, {src}"));
                self.finish_fp(v.depth, ctx);
                return Ok(Some(v));
            }
            _ => {}
        }

        let sig = self
            .funcs
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::new(line, format!("unknown function `{name}`")))?;
        if sig.params.len() != args.len() {
            return Err(LangError::new(
                line,
                format!(
                    "`{name}` takes {} arguments, {} given",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }

        // Evaluate all arguments onto the virtual stacks.
        let arg_base_int = ctx.int_depth;
        let arg_base_fp = ctx.fp_depth;
        let mut arg_vals = Vec::with_capacity(args.len());
        for (arg, want) in args.iter().zip(&sig.params) {
            let v = self.expr(arg, ctx)?;
            if v.ty != *want {
                return Err(LangError::new(
                    arg.line().max(line),
                    format!("argument type mismatch: expected {want}, found {}", v.ty),
                ));
            }
            arg_vals.push(v);
        }

        // Save every live in-register temporary (caller-saved t/ft regs)
        // below the argument area — this is where the paper's spill-code
        // loads come from.
        let live_int = arg_base_int.min(INT_TEMPS);
        let live_fp = arg_base_fp.min(FP_TEMPS);
        for d in 0..live_int {
            let r = self.int_dest(d).to_string();
            self.store_to_sp(&r, ctx.callsave_base + d as i64 * 8, 8);
        }
        for d in 0..live_fp {
            let r = self.fp_dest(d).to_string();
            self.fstore_to_sp(&r, ctx.callsave_base + (INT_TEMPS + d) as i64 * 8);
        }

        // Marshal arguments into a/fa registers.
        let mut int_arg = 0usize;
        let mut fp_arg = 0usize;
        for v in &arg_vals {
            match v.ty {
                Type::Int => {
                    let dst = *INT_ARGS.get(int_arg).ok_or_else(|| {
                        LangError::new(line, "too many integer arguments (max 8)")
                    })?;
                    int_arg += 1;
                    let src = self.int_operand(v.depth, 0, ctx);
                    self.emitf(format_args!("    mv {dst}, {src}"));
                }
                Type::Float => {
                    let dst = *FP_ARGS
                        .get(fp_arg)
                        .ok_or_else(|| LangError::new(line, "too many float arguments (max 8)"))?;
                    fp_arg += 1;
                    let src = self.fp_operand(v.depth, 0, ctx);
                    self.emitf(format_args!("    fmv.d {dst}, {src}"));
                }
            }
        }
        // Pop the argument values.
        for v in arg_vals.iter().rev() {
            match v.ty {
                Type::Int => self.pop_int(ctx),
                Type::Float => self.pop_fp(ctx),
            }
        }

        self.emitf(format_args!("    call {name}"));

        // Restore live temporaries.
        for d in 0..live_int {
            let r = self.int_dest(d).to_string();
            self.load_from_sp(&r, ctx.callsave_base + d as i64 * 8);
        }
        for d in 0..live_fp {
            let r = self.fp_dest(d).to_string();
            self.fload_from_sp(&r, ctx.callsave_base + (INT_TEMPS + d) as i64 * 8);
        }

        // Result.
        match sig.ret {
            None => Ok(None),
            Some(Type::Int) => {
                let d = self.push_int(ctx);
                let rd = self.int_dest(d);
                self.emitf(format_args!("    mv {rd}, a0"));
                self.finish_int(d, ctx);
                Ok(Some(Val {
                    ty: Type::Int,
                    depth: d,
                }))
            }
            Some(Type::Float) => {
                let d = self.push_fp(ctx);
                let rd = self.fp_dest(d);
                self.emitf(format_args!("    fmv.d {rd}, fa0"));
                self.finish_fp(d, ctx);
                Ok(Some(Val {
                    ty: Type::Float,
                    depth: d,
                }))
            }
        }
    }
}
