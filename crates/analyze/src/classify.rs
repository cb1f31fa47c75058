//! Per-load static predictability: which predictor in the zoo should
//! catch each load, proven from program structure.
//!
//! Composes three earlier layers:
//!
//! * [`analyze_memory`](crate::analyze_memory) — must-constant loads
//!   (the PR 4 provenance result);
//! * [`Ssa`] on the call-summarized [`FlowGraph`] — who defines each
//!   register value;
//! * [`ScalarEvolution`] around natural loop headers — which values are
//!   loop-invariant or affine recurrences.
//!
//! The pass tracks *memory cells* — `(invariant base value, offset,
//! width)` triples — through innermost loops: a cell no store
//! in the loop can write makes its loads **loop-invariant** (`LVP013`);
//! a cell with a single dominating store whose value is an affine
//! recurrence (or a constant-increment of the cell's own previous value
//! — a memory induction variable) makes its loads **affine-stride(k)**
//! (`LVP012`); a same-cell store/load pair whose value travels around
//! the back edge is **store-to-load forwardable** across iterations
//! (`LVP016`). Everything the analysis cannot prove stays **unknown**,
//! and the dynamic LCT reports where that under-approximates (`LVP014`,
//! trace-bearing paths only).
//!
//! Loops containing calls are no longer abandoned wholesale: the
//! [`CallGraph`] bounds every call site and the [`SummaryTable`] gives
//! the joint interprocedural effect of everything callable from the
//! loop body, so a cell no callee may touch stays trackable across the
//! call. Where a callee effect *does* block an otherwise-provable
//! class, the pass says so: `LVP018` (callee clobbers a claimed-
//! constant cell) and `LVP019` (recursive callee breaks a tracked
//! stride cell). The call graph also yields `LVP017` (unreachable
//! functions) and, from the per-function exact-store sets, `LVP021`
//! (interprocedural store-to-load pairs the per-block `LVP011` cannot
//! see).

use crate::alias::{AddrRes, AliasAnalysis};
use crate::callgraph::{CallGraph, CallTarget};
use crate::cfg::Cfg;
use crate::diag::{sort_and_dedupe, Diagnostic, LintCode};
use crate::interproc::{FnSummary, SummaryTable};
use crate::provenance::{analyze_memory_with, MemClass, MemoryReport};
use crate::regions::RegionMap;
use crate::scev::{Evolution, LoopForest, ScalarEvolution};
use crate::ssa::{Dominators, FlowGraph, Ssa, ValueId};
use lvp_isa::{Instr, Program, Reg, RegId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Static predictability class of one load, naming the cheapest
/// predictor that provably catches it.
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LoadPredictability {
    /// The provenance pass proves the loaded slot is never written: the
    /// value is the data-image constant on every execution (a last-value
    /// predictor is exact after one miss; the CVU never invalidates).
    MustConstant,
    /// The loaded value follows `base + i·stride` around the enclosing
    /// loop: a stride predictor catches it after warm-up.
    AffineStride(
        /// Per-iteration stride in bytes of value change.
        i64,
    ),
    /// No store in the enclosing loop writes the cell (or the single
    /// store rewrites a loop-invariant value): the value repeats, so the
    /// load is hoistable and last-value-predictable.
    LoopInvariant,
    /// A dominating same-cell store produces the value in the same
    /// iteration: store-to-load forwarding (or a stale-value predictor)
    /// catches it.
    StoreToLoadForwardable,
    /// Not provably any of the above.
    Unknown,
}

impl fmt::Display for LoadPredictability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadPredictability::MustConstant => f.write_str("must-constant"),
            LoadPredictability::AffineStride(k) => write!(f, "affine-stride({k})"),
            LoadPredictability::LoopInvariant => f.write_str("loop-invariant"),
            LoadPredictability::StoreToLoadForwardable => f.write_str("store-to-load-forwardable"),
            LoadPredictability::Unknown => f.write_str("unknown"),
        }
    }
}

/// One load with its static predictability class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfLoad {
    /// Address of the load instruction.
    pub pc: u64,
    /// The predictability class.
    pub class: LoadPredictability,
    /// The alias fixpoint resolved this load to one exact program-wide
    /// cell. A loop-invariant claim at an *unpinned* address (e.g. an
    /// argument-indexed table lookup) is invariant within one loop
    /// invocation but moves between invocations, so the dynamic
    /// last-value oracle would judge it against behaviour the claim
    /// never promised — such claims keep their lint but are not
    /// nominated for the per-kind oracle or the static hint table.
    pub pinned: bool,
}

/// The result of the value-flow pass over one program.
#[derive(Debug, Clone)]
pub struct ValueFlowReport {
    /// Every reachable static load, in text order.
    pub loads: Vec<VfLoad>,
    /// The static value-flow lints (`LVP012`, `LVP013`, `LVP015`,
    /// `LVP016`, and the interprocedural `LVP017`–`LVP019` and
    /// `LVP021`), canonically sorted and deduped. `LVP014` and `LVP020`
    /// need a dynamic observation and are produced separately
    /// ([`lvp014_diagnostics`]; the harness value-flow oracle).
    pub diagnostics: Vec<Diagnostic>,
}

impl ValueFlowReport {
    /// Count of loads in `class` (affine counted together regardless of
    /// stride).
    pub fn count(&self, class: LoadPredictability) -> usize {
        self.loads
            .iter()
            .filter(|l| match (l.class, class) {
                (LoadPredictability::AffineStride(_), LoadPredictability::AffineStride(_)) => true,
                (a, b) => a == b,
            })
            .count()
    }

    /// The affine-stride loads as `(pc, stride)` pairs — the claims the
    /// harness stride-predictor cross-check gates dynamically.
    pub fn affine_claims(&self) -> Vec<(u64, i64)> {
        self.loads
            .iter()
            .filter_map(|l| match l.class {
                LoadPredictability::AffineStride(k) => Some((l.pc, k)),
                _ => None,
            })
            .collect()
    }
}

/// Registers the machine initializes before entry (`zero`, `ra`, `sp`,
/// `gp`) — same exemption set as `LVP001`.
const ENTRY_INIT: u64 = (1 << 0) | (1 << 1) | (1 << 2) | (1 << 3);

/// Prologue spills of a register are exempt from uninit-read lints;
/// mirrors the `LVP001` exemption.
fn is_spill_of(instr: &Instr, reg: RegId) -> bool {
    let stored = match *instr {
        Instr::Sb { rs2, .. }
        | Instr::Sh { rs2, .. }
        | Instr::Sw { rs2, .. }
        | Instr::Sd { rs2, .. } => RegId::Int(rs2),
        Instr::Fsd { fs2, .. } => RegId::Fp(fs2),
        _ => return false,
    };
    let sp_based = matches!(instr.mem_operand(), Some((base, _)) if base == Reg::SP);
    sp_based && stored == reg
}

/// One memory access inside a loop, with its resolved address facts.
struct Access {
    instr: usize,
    pc: u64,
    block: usize,
    /// SSA value of the base register.
    base: ValueId,
    offset: i32,
    width: u8,
    /// Address resolution from the alias fixpoint, when the state
    /// reached the instruction.
    res: Option<AddrRes>,
}

/// Whether two accesses are provably disjoint: same invariant base with
/// non-overlapping byte ranges, both exactly resolved to disjoint
/// ranges, or resolved to disjoint region sets.
fn provably_disjoint(
    a: &Access,
    a_base_invariant: bool,
    b: &Access,
    b_base_invariant: bool,
    regions: &RegionMap,
) -> bool {
    if a_base_invariant && b_base_invariant && a.base == b.base {
        let (ao, bo) = (a.offset as i64, b.offset as i64);
        return ao + a.width as i64 <= bo || bo + b.width as i64 <= ao;
    }
    match (a.res, b.res) {
        (Some(AddrRes::Exact(x)), Some(AddrRes::Exact(y))) => {
            x + a.width as u64 <= y || y + b.width as u64 <= x
        }
        (Some(ra), Some(rb)) => {
            let sa = ra.regions(a.width, regions);
            let sb = rb.regions(b.width, regions);
            !sa.is_empty() && !sb.is_empty() && sa.iter().all(|r| !sb.contains(r))
        }
        _ => false,
    }
}

/// Runs the static value-flow pass: SSA construction and verification
/// on both graph views, natural loops and scalar evolution on the local
/// view, and the per-load predictability classification.
pub fn analyze_value_flow(program: &Program) -> ValueFlowReport {
    analyze_value_flow_and_memory(program).0
}

/// [`analyze_value_flow`], together with the provenance report the pass
/// computes on the way: the same report as
/// [`analyze_memory`](crate::analyze_memory), without a second run of
/// the provenance pass.
pub fn analyze_value_flow_and_memory(program: &Program) -> (ValueFlowReport, MemoryReport) {
    let text = program.text();
    let cfg = Cfg::build(program);
    let mut diags: Vec<Diagnostic> = Vec::new();
    let entry_pc = cfg.pc_of(0);

    // --- LVP015 part 1: structural SSA verification on both views. ---
    let raw = FlowGraph::raw(&cfg);
    let raw_dom = Dominators::compute(&raw);
    let raw_ssa = Ssa::build(program, &cfg, &raw, &raw_dom);
    for e in raw_ssa.verify(&raw, &raw_dom) {
        diags.push(Diagnostic::new(
            LintCode::SsaInconsistency,
            entry_pc,
            format!("ssa verifier (raw view): {e}"),
        ));
    }
    let local = FlowGraph::local(program, &cfg);
    let dom = Dominators::compute(&local);
    let ssa = Ssa::build(program, &cfg, &local, &dom);
    for e in ssa.verify(&local, &dom) {
        diags.push(Diagnostic::new(
            LintCode::SsaInconsistency,
            entry_pc,
            format!("ssa verifier (local view): {e}"),
        ));
    }

    // --- LVP015 part 2: may-uninit reads on the local view — a value
    // that can trace to the undefined entry state on *some* path while a
    // real definition exists on another (the may-complement of LVP001,
    // which covers the every-path case and is not re-reported here). ---
    let flags = ssa.entry_flags();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !raw_dom.reachable(b) || !dom.reachable(b) {
            continue;
        }
        for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
            for (nth, u) in instr.uses().enumerate() {
                if instr.uses().take(nth).any(|prev| prev == u) {
                    continue;
                }
                let slot = u.flat_index();
                if slot < 64 && ENTRY_INIT & (1u64 << slot) != 0 {
                    continue;
                }
                if is_spill_of(instr, u) {
                    continue;
                }
                let Some(v) = ssa.value_for_use(i, nth) else {
                    continue;
                };
                let (may_entry, has_real) = flags[v.0 as usize];
                if may_entry && has_real {
                    diags.push(Diagnostic::new(
                        LintCode::SsaInconsistency,
                        cfg.pc_of(i),
                        format!(
                            "`{instr}` reads register {u}, which is uninitialized on some path from entry"
                        ),
                    ));
                }
            }
        }
    }

    // --- Provenance: must-constant loads (strongest class), over the
    // region map and alias fixpoint the rest of the pass shares. ---
    let regions = RegionMap::new(program);
    let alias = AliasAnalysis::compute(program, &cfg, &regions);
    let mem = analyze_memory_with(program, &cfg, &regions, &alias);
    let must_constant: BTreeSet<u64> = mem
        .loads
        .iter()
        .filter(|l| l.class == MemClass::MustConstant)
        .map(|l| l.pc)
        .collect();

    // --- Interprocedural layer: call graph, effect summaries, and the
    // lints only a whole-program view can produce. ---
    let cg = CallGraph::build(program, &alias);
    let summaries = SummaryTable::compute(program, &alias, &cg, &regions);
    let site_target: BTreeMap<usize, &CallTarget> =
        cg.sites().iter().map(|s| (s.instr, &s.target)).collect();

    // LVP017: named functions no resolved edge can reach.
    for f in cg.unreachable_functions() {
        let func = &cg.functions()[f];
        let name = func.name.as_deref().unwrap_or("?");
        diags.push(Diagnostic::new(
            LintCode::UnreachableFunction,
            func.entry_pc,
            format!(
                "function `{name}` is unreachable: no call, tail transfer or fall-through edge reaches it"
            ),
        ));
    }

    // LVP021: a load's exactly-resolved cell provably written by a store
    // in a *different* function (one diagnostic per load, naming the
    // lowest-pc matching store).
    let mut exact_stores: Vec<(u64, u8, u64, usize)> = Vec::new(); // (addr, width, pc, func)
    for (i, instr) in text.iter().enumerate() {
        if instr.is_store() {
            if let Some(AddrRes::Exact(addr)) = alias.addr(i) {
                let w = instr.mem_width().map(|w| w.bytes() as u8).unwrap_or(8);
                exact_stores.push((addr, w, cfg.pc_of(i), cg.function_of_instr(i)));
            }
        }
    }
    exact_stores.sort_unstable();
    for (i, instr) in text.iter().enumerate() {
        if !instr.is_load() {
            continue;
        }
        let Some(AddrRes::Exact(addr)) = alias.addr(i) else {
            continue;
        };
        let w = instr.mem_width().map(|w| w.bytes() as u8).unwrap_or(8);
        let lf = cg.function_of_instr(i);
        let first = exact_stores.partition_point(|&(a, sw, _, _)| (a, sw) < (addr, w));
        let hit = exact_stores[first..]
            .iter()
            .take_while(|&&(a, sw, _, _)| (a, sw) == (addr, w))
            .find(|&&(_, _, _, sf)| sf != lf);
        if let Some(&(_, _, store_pc, sf)) = hit {
            let sname = cg.functions()[sf].name.as_deref().unwrap_or("?");
            diags.push(Diagnostic::new(
                LintCode::InterprocStoreToLoad,
                cfg.pc_of(i),
                format!(
                    "load's cell {addr:#x} is written by function `{sname}`'s store at {store_pc:#x}: interprocedural store-to-load pair"
                ),
            ));
        }
    }

    // --- Loop cell analysis on the local view. ---
    let forest = LoopForest::compute(&local, &dom);
    let mut class_of: BTreeMap<usize, LoadPredictability> = BTreeMap::new();

    for (li, lp) in forest.loops().iter().enumerate() {
        // Joint interprocedural effect of every function callable from
        // inside the loop body. Where the old pass gave up on the whole
        // loop at the first call, cells the effect provably cannot touch
        // now stay trackable.
        let mut callable: BTreeSet<usize> = BTreeSet::new();
        let mut has_call = false;
        let mut unbounded = false;
        for &b in &lp.body {
            let block = &cfg.blocks()[b];
            for i in block.start..block.end {
                if !local.is_call(i) {
                    continue;
                }
                has_call = true;
                match site_target.get(&i) {
                    Some(CallTarget::Direct(c)) => {
                        callable.insert(*c);
                    }
                    Some(CallTarget::AnySymbol) | None => unbounded = true,
                }
            }
        }
        let call_effect: Option<FnSummary> = if !has_call {
            None
        } else if unbounded {
            Some(FnSummary {
                has_unknown_store: true,
                ..FnSummary::default()
            })
        } else {
            Some(summaries.joint(callable.iter().copied(), &regions))
        };
        let mut scev = ScalarEvolution::new(program, &ssa, lp);

        // Collect the loop's memory accesses with their base evolutions.
        let mut loads: Vec<(Access, bool)> = Vec::new(); // (access, base invariant)
        let mut stores: Vec<(Access, bool)> = Vec::new();
        for &b in &lp.body {
            let block = &cfg.blocks()[b];
            for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
                let Some((_, offset)) = instr.mem_operand() else {
                    continue;
                };
                let Some(w) = instr.mem_width().map(|w| w.bytes() as u8) else {
                    continue;
                };
                // The base register is always the first use of a memory
                // instruction.
                let Some(base) = ssa.value_for_use(i, 0) else {
                    continue;
                };
                let inv = scev.evolution(base).is_invariant();
                let acc = Access {
                    instr: i,
                    pc: cfg.pc_of(i),
                    block: b,
                    base,
                    offset,
                    width: w,
                    res: alias.addr(i),
                };
                if instr.is_load() {
                    loads.push((acc, inv));
                } else if instr.is_store() {
                    stores.push((acc, inv));
                }
            }
        }

        let header_pc = cfg.pc_of(cfg.blocks()[lp.header].start);
        let every_iteration = |block: usize| lp.latches.iter().all(|&l| dom.dominates(block, l));

        for (load, load_inv) in &loads {
            // Classify each load in its innermost loop only; outer
            // loops see the inner loop's stores conservatively anyway.
            if forest.innermost_index(load.block) != Some(li) {
                continue;
            }
            if !*load_inv {
                continue; // striding address: value not cell-trackable
            }
            // Interprocedural gate: may a callee reached from inside the
            // loop write this load's cell?
            let callee_may_touch = match (&call_effect, load.res) {
                (None, _) => false,
                (Some(eff), Some(AddrRes::Exact(a))) => eff.may_touch(a, load.width, &regions),
                (Some(eff), Some(res)) => {
                    let rs = res.regions(load.width, &regions);
                    rs.is_empty() || eff.may_touch_regions(rs, &regions)
                }
                (Some(_), None) => true,
            };
            // Stores that may write this load's cell.
            let aliasing: Vec<&(Access, bool)> = stores
                .iter()
                .filter(|(s, s_inv)| !provably_disjoint(load, true, s, *s_inv, &regions))
                .collect();

            if aliasing.is_empty() {
                if callee_may_touch {
                    // Would be LVP013 but for the call: say so.
                    diags.push(Diagnostic::new(
                        LintCode::CalleeClobbersClaimedConstant,
                        load.pc,
                        format!(
                            "load would be loop-invariant, but a callee reached from the loop at {header_pc:#x} may write this cell"
                        ),
                    ));
                    continue;
                }
                class_of.insert(load.instr, LoadPredictability::LoopInvariant);
                diags.push(Diagnostic::new(
                    LintCode::LoopInvariantLoad,
                    load.pc,
                    format!(
                        "loop-invariant load: no store in the loop at {header_pc:#x} writes this cell (hoistable)"
                    ),
                ));
                continue;
            }

            // Exactly one aliasing store, to the *identical* cell, both
            // running every iteration: the cell is a tracked scalar.
            let [(store, s_inv)] = aliasing.as_slice() else {
                continue;
            };
            let same_cell = *s_inv
                && store.base == load.base
                && store.offset == load.offset
                && store.width == load.width;
            if !same_cell || !every_iteration(store.block) || !every_iteration(load.block) {
                continue;
            }
            if callee_may_touch {
                // A tracked single-store cell, but a callee may rewrite
                // it between the store and the load. A recursive effect
                // gets its own lint; either way the cell is untracked.
                if call_effect.as_ref().is_some_and(|e| e.recursive) {
                    diags.push(Diagnostic::new(
                        LintCode::RecursiveStrideBroken,
                        load.pc,
                        format!(
                            "tracked cell in the loop at {header_pc:#x} is broken by a recursive callee whose effect may write it"
                        ),
                    ));
                }
                continue;
            }

            // Iteration order: does the load read the previous
            // iteration's store (crosses the back edge)?
            let loop_carried = if load.block == store.block {
                load.instr < store.instr
            } else {
                dom.dominates(load.block, store.block)
            };
            if loop_carried {
                diags.push(Diagnostic::new(
                    LintCode::LoopCarriedStoreToLoad,
                    load.pc,
                    format!(
                        "load observes the previous iteration's store at {:#x} (cell carried around loop at {header_pc:#x})",
                        store.pc
                    ),
                ));
            }

            // The stored value: affine or invariant by SCEV, or a
            // memory induction (cell = cell + c through this very load).
            let stored_value = ssa.value_for_use(store.instr, 1);
            let load_def = ssa.def_of(load.instr);
            let class = match stored_value.map(|v| scev.evolution(v)) {
                Some(Evolution::Affine { stride }) => {
                    Some(LoadPredictability::AffineStride(stride))
                }
                Some(e) if e.is_invariant() => Some(LoadPredictability::LoopInvariant),
                Some(_) => {
                    // Memory induction: stored = loaded-from-this-cell + c.
                    match (stored_value, load_def) {
                        (Some(sv), Some(ld)) => scev
                            .const_offset_from(sv, ld)
                            .filter(|&c| c != 0)
                            .map(LoadPredictability::AffineStride),
                        _ => None,
                    }
                }
                None => None,
            };
            match class {
                Some(LoadPredictability::AffineStride(k)) => {
                    class_of.insert(load.instr, LoadPredictability::AffineStride(k));
                    diags.push(Diagnostic::new(
                        LintCode::StridePredictableLoad,
                        load.pc,
                        format!(
                            "load value strides by {k} per iteration of the loop at {header_pc:#x}"
                        ),
                    ));
                }
                Some(c) => {
                    class_of.insert(load.instr, c);
                }
                None if !loop_carried => {
                    // Same-iteration dominating store with an untracked
                    // value: classic store-to-load forwarding.
                    class_of.insert(load.instr, LoadPredictability::StoreToLoadForwardable);
                }
                None => {}
            }
        }
    }

    // --- Assemble the per-load table in text order. ---
    let mut loads_out = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !alias.block_reached(b) {
            continue;
        }
        for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
            if !instr.is_load() {
                continue;
            }
            let pc = cfg.pc_of(i);
            let class = if must_constant.contains(&pc) {
                LoadPredictability::MustConstant
            } else {
                class_of
                    .get(&i)
                    .copied()
                    .unwrap_or(LoadPredictability::Unknown)
            };
            loads_out.push(VfLoad {
                pc,
                class,
                pinned: matches!(alias.addr(i), Some(AddrRes::Exact(_))),
            });
        }
    }

    sort_and_dedupe(&mut diags);
    let report = ValueFlowReport {
        loads: loads_out,
        diagnostics: diags,
    };
    (report, mem)
}

/// `LVP014`: loads the static pass left *unknown* that a trained LCT
/// nevertheless classifies predictable — a static under-approximation
/// report. `predictable_pcs` is the set of load pcs the dynamic LCT
/// (trained on a real trace) holds in a predict-worthy state. Only
/// trace-bearing paths call this; the static baseline never contains
/// `LVP014`.
pub fn lvp014_diagnostics(
    report: &ValueFlowReport,
    predictable_pcs: &BTreeSet<u64>,
) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = report
        .loads
        .iter()
        .filter(|l| l.class == LoadPredictability::Unknown && predictable_pcs.contains(&l.pc))
        .map(|l| {
            Diagnostic::new(
                LintCode::StaticUnderApprox,
                l.pc,
                "statically unpredictable load, but the dynamic LCT learned it (static under-approximation)"
                    .to_string(),
            )
        })
        .collect();
    sort_and_dedupe(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    fn report(profile: AsmProfile, src: &str) -> ValueFlowReport {
        let p = Assembler::new(profile).assemble(src).unwrap();
        analyze_value_flow(&p)
    }

    fn codes(r: &ValueFlowReport) -> Vec<LintCode> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    /// A loop storing `g = g + 5` each iteration and reloading it: the
    /// memory induction pattern. The load observes the previous
    /// iteration's store, so both LVP012 and LVP016 apply.
    const MEM_INDUCTION: &str = ".data\ng: .dword 0\n.text\nmain:\n la a0, g\n li a1, 10\n \
        li a2, 0\nloop:\n ld a3, 0(a0)\n addi a3, a3, 5\n sd a3, 0(a0)\n addi a2, a2, 1\n \
        bne a2, a1, loop\n out a3\n halt\n";

    #[test]
    fn lvp012_stride_predictable_load_fires_and_twin_is_silent() {
        let fire = report(AsmProfile::Gp, MEM_INDUCTION);
        assert!(
            codes(&fire).contains(&LintCode::StridePredictableLoad),
            "{fire:?}"
        );
        let claims = fire.affine_claims();
        assert_eq!(claims.len(), 1, "{fire:?}");
        assert_eq!(claims[0].1, 5, "derived stride must be 5: {fire:?}");
        // Twin: the stored value is freshly computed from an untracked
        // source (itself shifted), not an affine recurrence.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 1\n.text\nmain:\n la a0, g\n li a1, 10\n li a2, 0\nloop:\n \
             ld a3, 0(a0)\n slli a3, a3, 1\n sd a3, 0(a0)\n addi a2, a2, 1\n \
             bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::StridePredictableLoad),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp012_register_affine_store_value() {
        // The induction variable itself is stored each iteration; the
        // reload of the cell is stride-predictable with the register
        // stride.
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n la a0, g\n li a1, 40\n li a2, 0\nloop:\n \
             sd a2, 0(a0)\n ld a3, 0(a0)\n addi a2, a2, 4\n bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(
            codes(&r).contains(&LintCode::StridePredictableLoad),
            "{r:?}"
        );
        assert_eq!(r.affine_claims().first().map(|&(_, k)| k), Some(4), "{r:?}");
    }

    #[test]
    fn lvp013_loop_invariant_load_fires_and_twin_is_silent() {
        // The loop reloads a global nothing in the loop writes.
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la a0, g\n li a1, 10\n li a2, 0\n \
             li a4, 1\n sd a4, 0(a0)\nloop:\n ld a3, 0(a0)\n addi a2, a2, 1\n \
             bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::LoopInvariantLoad),
            "{fire:?}"
        );
        assert_eq!(fire.count(LoadPredictability::LoopInvariant), 1, "{fire:?}");
        // Twin: a store in the loop body hits the same cell with an
        // untracked value — no longer invariant.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la a0, g\n li a1, 10\n li a2, 0\n \
             li a4, 1\n sd a4, 0(a0)\nloop:\n ld a3, 0(a0)\n slli a5, a3, 1\n sd a5, 0(a0)\n \
             addi a2, a2, 1\n bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::LoopInvariantLoad),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp013_disjoint_store_does_not_kill_the_cell() {
        // The loop stores to `h` but loads `g`: different cells under
        // the same `la`-computed exact addresses.
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\nh: .dword 0\n.text\nmain:\n la a0, g\n la a4, h\n li a1, 10\n \
             li a2, 0\nloop:\n ld a3, 0(a0)\n sd a2, 0(a4)\n addi a2, a2, 1\n \
             bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(codes(&r).contains(&LintCode::LoopInvariantLoad), "{r:?}");
    }

    #[test]
    fn lvp015_may_uninit_fires_and_twin_is_silent() {
        // a0 is written on one side of the diamond only.
        let fire = report(
            AsmProfile::Gp,
            "main:\n li t0, 1\n beq t0, zero, join\n li a0, 1\njoin:\n out a0\n halt\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::SsaInconsistency),
            "{fire:?}"
        );
        // Twin: both sides write a0.
        let twin = report(
            AsmProfile::Gp,
            "main:\n li t0, 1\n beq t0, zero, other\n li a0, 1\n j join\nother:\n li a0, 2\n\
             join:\n out a0\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::SsaInconsistency),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp015_skips_every_path_uninit_reads() {
        // No definition at all: LVP001 territory, not LVP015.
        let r = report(AsmProfile::Gp, "main:\n add a1, a0, a0\n out a1\n halt\n");
        assert!(!codes(&r).contains(&LintCode::SsaInconsistency), "{r:?}");
    }

    #[test]
    fn lvp016_loop_carried_pair_fires_and_twin_is_silent() {
        // In MEM_INDUCTION the load precedes the store: the value
        // crosses the back edge.
        let fire = report(AsmProfile::Gp, MEM_INDUCTION);
        assert!(
            codes(&fire).contains(&LintCode::LoopCarriedStoreToLoad),
            "{fire:?}"
        );
        // Twin: store precedes the load — same-iteration forwarding,
        // not loop-carried.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n la a0, g\n li a1, 10\n li a2, 0\nloop:\n \
             sd a2, 0(a0)\n ld a3, 0(a0)\n addi a2, a2, 1\n bne a2, a1, loop\n out a3\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::LoopCarriedStoreToLoad),
            "{twin:?}"
        );
    }

    #[test]
    fn store_to_load_forwardable_class_for_untracked_value() {
        // A dominating same-cell store of an untracked (shifted) value:
        // the load is forwardable, not unknown.
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 1\n.text\nmain:\n la a0, g\n li a1, 10\n li a2, 1\n li a4, 0\n\
             loop:\n slli a2, a2, 1\n sd a2, 0(a0)\n ld a3, 0(a0)\n addi a4, a4, 1\n \
             bne a4, a1, loop\n out a3\n halt\n",
        );
        assert_eq!(
            r.count(LoadPredictability::StoreToLoadForwardable),
            1,
            "{r:?}"
        );
    }

    #[test]
    fn must_constant_takes_precedence() {
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la a0, g\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert_eq!(r.count(LoadPredictability::MustConstant), 1, "{r:?}");
    }

    #[test]
    fn lvp013_fires_through_a_provably_pure_callee() {
        // The callee's summary is empty, so the call no longer kills the
        // cell: the load is proven loop-invariant *through* the call.
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\nloop:\n \
             ld a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n bne s3, s2, loop\n out a3\n halt\n\
             f:\n jalr zero, ra, 0\n",
        );
        assert!(codes(&r).contains(&LintCode::LoopInvariantLoad), "{r:?}");
        assert!(
            !codes(&r).contains(&LintCode::CalleeClobbersClaimedConstant),
            "{r:?}"
        );
    }

    #[test]
    fn lvp018_callee_clobber_fires_and_pure_twin_is_silent() {
        // The callee provably stores the loaded cell: the would-be
        // LVP013 becomes LVP018 and the load stays unknown.
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\nloop:\n \
             ld a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n bne s3, s2, loop\n out a3\n halt\n\
             f:\n la t0, g\n li t1, 9\n sd t1, 0(t0)\n jalr zero, ra, 0\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::CalleeClobbersClaimedConstant),
            "{fire:?}"
        );
        assert!(
            !codes(&fire).contains(&LintCode::LoopInvariantLoad),
            "{fire:?}"
        );
        // Twin: the callee stores a *different* cell — the loaded cell
        // survives the call and LVP013 fires instead.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\nh: .dword 0\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\n\
             loop:\n ld a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n bne s3, s2, loop\n out a3\n \
             halt\nf:\n la t0, h\n li t1, 9\n sd t1, 0(t0)\n jalr zero, ra, 0\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::CalleeClobbersClaimedConstant),
            "{twin:?}"
        );
        assert!(
            codes(&twin).contains(&LintCode::LoopInvariantLoad),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp019_recursive_clobber_fires_and_twins_are_silent() {
        // The loop tracks a memory-induction cell, but a *recursive*
        // callee may rewrite it: LVP019 fires and no stride is claimed.
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\nloop:\n \
             ld a3, 0(s1)\n addi a3, a3, 5\n sd a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n \
             bne s3, s2, loop\n out a3\n halt\n\
             f:\n la t0, g\n sd zero, 0(t0)\n beq a0, zero, fdone\n addi a0, a0, -1\n \
             jal ra, f\nfdone:\n jalr zero, ra, 0\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::RecursiveStrideBroken),
            "{fire:?}"
        );
        assert!(
            !codes(&fire).contains(&LintCode::StridePredictableLoad),
            "{fire:?}"
        );
        // Twin 1: same clobber, not recursive — the stride is still
        // broken but LVP019 stays silent (not a recursion problem).
        let twin1 = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\nloop:\n \
             ld a3, 0(s1)\n addi a3, a3, 5\n sd a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n \
             bne s3, s2, loop\n out a3\n halt\n\
             f:\n la t0, g\n sd zero, 0(t0)\n jalr zero, ra, 0\n",
        );
        assert!(
            !codes(&twin1).contains(&LintCode::RecursiveStrideBroken),
            "{twin1:?}"
        );
        assert!(
            !codes(&twin1).contains(&LintCode::StridePredictableLoad),
            "{twin1:?}"
        );
        // Twin 2: a recursive callee that provably cannot touch the
        // cell — the stride survives the call.
        let twin2 = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\nh: .dword 0\n.text\nmain:\n la s1, g\n li s2, 10\n li s3, 0\n\
             loop:\n ld a3, 0(s1)\n addi a3, a3, 5\n sd a3, 0(s1)\n jal ra, f\n addi s3, s3, 1\n \
             bne s3, s2, loop\n out a3\n halt\n\
             f:\n la t0, h\n sd zero, 0(t0)\n beq a0, zero, fdone\n addi a0, a0, -1\n \
             jal ra, f\nfdone:\n jalr zero, ra, 0\n",
        );
        assert!(
            !codes(&twin2).contains(&LintCode::RecursiveStrideBroken),
            "{twin2:?}"
        );
        assert!(
            codes(&twin2).contains(&LintCode::StridePredictableLoad),
            "{twin2:?}"
        );
    }

    #[test]
    fn lvp017_unreachable_function_fires_and_twin_is_silent() {
        let fire = report(
            AsmProfile::Gp,
            "main:\n li a0, 1\n out a0\n halt\ndead:\n li a0, 2\n jalr zero, ra, 0\n",
        );
        let d = fire
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::UnreachableFunction)
            .unwrap_or_else(|| panic!("{fire:?}"));
        assert!(d.message.contains("dead"), "{d:?}");
        // Twin: the function is called.
        let twin = report(
            AsmProfile::Gp,
            "main:\n jal ra, dead\n out a0\n halt\ndead:\n li a0, 2\n jalr zero, ra, 0\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::UnreachableFunction),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp021_interproc_pair_fires_and_twin_is_silent() {
        // `init` writes the exact cell `main` later loads: a pair no
        // per-block scan can see.
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n jal ra, init\n la a0, g\n ld a1, 0(a0)\n \
             out a1\n halt\ninit:\n la t0, g\n li t1, 9\n sd t1, 0(t0)\n jalr zero, ra, 0\n",
        );
        let d = fire
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::InterprocStoreToLoad)
            .unwrap_or_else(|| panic!("{fire:?}"));
        assert!(d.message.contains("init"), "{d:?}");
        // Twin: store and load in the same function — not this lint's
        // business (LVP011 covers the same-block case).
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n la t0, g\n li t1, 9\n sd t1, 0(t0)\n \
             la a0, g\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::InterprocStoreToLoad),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp021_names_the_lowest_pc_store_from_another_function() {
        // The cell is stored by the load's own function first, then by
        // `b` and `a` in text order: the lint names `b`'s store.
        let p = Assembler::new(AsmProfile::Gp)
            .assemble(
                ".data\ng: .dword 0\n.text\nmain:\n la t0, g\n sd zero, 0(t0)\n jal ra, a\n \
                 jal ra, b\n la a0, g\n ld a1, 0(a0)\n out a1\n halt\n\
                 b:\n la t0, g\n sd zero, 0(t0)\n jalr zero, ra, 0\n\
                 a:\n la t0, g\n sd zero, 0(t0)\n jalr zero, ra, 0\n",
            )
            .unwrap();
        let pc_of = |i: usize| p.layout().text_base() + 4 * i as u64;
        let b_entry = ((p.symbol("b").unwrap() - p.layout().text_base()) / 4) as usize;
        let b_store = (b_entry..p.text().len())
            .find(|&i| p.text()[i].is_store())
            .unwrap();
        let load = p.text().iter().position(|i| i.is_load()).unwrap();
        let r = analyze_value_flow(&p);
        let hits: Vec<&Diagnostic> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterprocStoreToLoad)
            .collect();
        let [d] = hits.as_slice() else {
            panic!("expected one LVP021: {r:?}");
        };
        assert_eq!(d.pc, pc_of(load), "{d:?}");
        assert!(
            d.message
                .contains(&format!("function `b`'s store at {:#x}", pc_of(b_store))),
            "{d:?}"
        );
    }

    #[test]
    fn lvp014_reports_only_dynamic_overrides() {
        let r = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la a0, g\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        // The only load is must-constant: even if the LCT likes it,
        // there is nothing unknown to report.
        let all_pcs: BTreeSet<u64> = r.loads.iter().map(|l| l.pc).collect();
        assert!(lvp014_diagnostics(&r, &all_pcs).is_empty());
        // Force an unknown load and mark it LCT-predictable.
        let r2 = report(
            AsmProfile::Gp,
            ".data\ng: .dword 7\n.text\nmain:\n la a0, g\n li a2, 9\n sd a2, 0(a0)\n \
             j next\nnext:\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        let unknown_pcs: BTreeSet<u64> = r2
            .loads
            .iter()
            .filter(|l| l.class == LoadPredictability::Unknown)
            .map(|l| l.pc)
            .collect();
        assert!(!unknown_pcs.is_empty(), "{r2:?}");
        let d = lvp014_diagnostics(&r2, &unknown_pcs);
        assert_eq!(d.len(), unknown_pcs.len());
        assert!(d.iter().all(|d| d.code == LintCode::StaticUnderApprox));
    }

    #[test]
    fn reports_are_deterministic() {
        let a = report(AsmProfile::Gp, MEM_INDUCTION);
        let b = report(AsmProfile::Gp, MEM_INDUCTION);
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.diagnostics, b.diagnostics);
        let mut sorted = a.diagnostics.clone();
        sort_and_dedupe(&mut sorted);
        assert_eq!(a.diagnostics, sorted);
    }
}
