//! The value-flow static/dynamic cross-check oracle.
//!
//! `lvp-analyze`'s value-flow pass ([`analyze_value_flow`]) makes two
//! kinds of *predictive* claims about loads, and both are falsifiable
//! against a real execution:
//!
//! 1. **Affine-stride** (`LVP012`) — the loaded value follows
//!    `base + i*stride` around its loop. Replaying the trace through a
//!    per-pc [`StridePredictor`] must then achieve at least
//!    [`STRIDE_ACCURACY_FLOOR`] accuracy on that pc once the predictor
//!    is warm ([`ValueFlowViolationKind::StrideMiss`] otherwise).
//! 2. **Must-constant** — the strongest class, inherited from the
//!    provenance pass: the pc must load one value on every execution
//!    ([`ValueFlowViolationKind::ConstantValueChanged`]), and the stride
//!    predictor must nail it as a stride of zero
//!    ([`ValueFlowViolationKind::StrideMiss`]).
//!
//! Claims are only judged when the pc executed at least
//! [`MIN_EXECUTIONS`] times — below that the predictor's 2-instruction
//! warm-up dominates and accuracy is noise, not evidence.
//!
//! The report also runs the *reverse* direction: an emulated last-value
//! LCT is trained on the trace, and statically-*unknown* loads the LCT
//! nevertheless learned predictable are surfaced as `LVP014`
//! diagnostics — not failures, but a measured report of where the
//! static analysis under-approximates (the paper's motivating gap
//! between static classification and dynamic value locality).
//!
//! On top of the class-agnostic stride check, every static class is
//! judged against the *predictor backend it nominates* (the per-kind
//! oracle): affine-stride claims against the two-delta stride backend,
//! must-constant and loop-invariant claims against the last-value
//! backend, and store-to-load-forwardable claims against the
//! store-to-load backend. A claimed pc on which the nominated backend
//! falls below [`BACKEND_ACCURACY_FLOOR`] is a
//! [`ValueFlowViolationKind::BackendMiss`].
//!
//! The same nomination doubles as the *static predictor hint* bridge
//! ([`static_hints`]): each classified load becomes a
//! [`StaticHint`] seeding the LVP unit's warm-up. Because a hint is the
//! same falsifiable claim the per-kind oracle judges, every judged hint
//! the dynamics contradict is surfaced as an `LVP020` diagnostic
//! ([`ValueFlowCheckReport::hint_contradictions`]) — like `LVP014` a
//! measured report, not a gate (the matching [`BackendMiss`] violation
//! already gates).
//!
//! [`BackendMiss`]: ValueFlowViolationKind::BackendMiss

use crate::slots::TextSlots;
use lvp_analyze::{
    analyze_value_flow, lvp014_diagnostics, Diagnostic, LintCode, LoadPredictability,
    ValueFlowReport, VfLoad,
};
use lvp_isa::Program;
use lvp_predictor::{
    presets, Backend, HintTable, Lct, LctConfig, LoadClass, PredEval, PredictorKind, StaticHint,
    StridePredictor,
};
use lvp_trace::{OpKind, Trace};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// Minimum dynamic executions of a pc before its claim is judged.
pub const MIN_EXECUTIONS: u64 = 8;

/// Minimum stride-predictor accuracy a judged claim must reach.
pub const STRIDE_ACCURACY_FLOOR: f64 = 0.95;

/// Minimum accuracy the backend nominated by a static class must reach
/// on a judged claim. Lower than [`STRIDE_ACCURACY_FLOOR`]: the real
/// backends pay warm-up and (for store-to-load) width-aliasing costs the
/// idealized stride predictor does not.
pub const BACKEND_ACCURACY_FLOOR: f64 = 0.90;

/// Minimum fraction of a claimed pc's executions the nominated backend
/// must predict *correctly* (correct/loads). Catches the quiet failure
/// mode where the backend never gains confidence and simply declines to
/// predict a load its class promised it would cover.
pub const BACKEND_COVERAGE_FLOOR: f64 = 0.5;

/// Table sizes for the emulated predictors — large enough that distinct
/// pcs in any workload never alias (texts are ≪ 256 KiB).
const TABLE_ENTRIES: usize = 1 << 16;

/// How a value-flow claim was contradicted dynamically.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueFlowViolationKind {
    /// A claimed-predictable pc fell below the stride-accuracy floor.
    StrideMiss {
        /// The stride the static analysis derived (0 for must-constant).
        claimed_stride: i64,
        /// The pc's dynamic tallies.
        eval: PredEval,
    },
    /// The backend nominated by the static class fell below
    /// [`BACKEND_ACCURACY_FLOOR`] on the claimed pc.
    BackendMiss {
        /// The backend the class nominates.
        kind: PredictorKind,
        /// The pc's dynamic tallies under that backend.
        eval: PredEval,
    },
    /// A must-constant pc loaded two different values.
    ConstantValueChanged {
        /// First value observed.
        first: u64,
        /// A later, different value.
        later: u64,
    },
}

/// One contradiction of a static value-flow claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueFlowViolation {
    /// Pc of the load whose claim was contradicted.
    pub pc: u64,
    /// The static class that made the claim.
    pub class: LoadPredictability,
    /// The kind of contradiction.
    pub kind: ValueFlowViolationKind,
}

impl fmt::Display for ValueFlowViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ValueFlowViolationKind::StrideMiss {
                claimed_stride,
                eval,
            } => write!(
                f,
                "{:#x}: claimed {} (stride {}), but the stride predictor managed \
                 {}/{} over {} execution(s) ({:.1}% accuracy)",
                self.pc,
                self.class,
                claimed_stride,
                eval.correct,
                eval.predicted,
                eval.loads,
                eval.accuracy() * 100.0
            ),
            ValueFlowViolationKind::BackendMiss { kind, eval } => write!(
                f,
                "{:#x}: claimed {}, but the {} backend managed {}/{} over {} \
                 execution(s) ({:.1}% accuracy)",
                self.pc,
                self.class,
                kind,
                eval.correct,
                eval.predicted,
                eval.loads,
                eval.accuracy() * 100.0
            ),
            ValueFlowViolationKind::ConstantValueChanged { first, later } => write!(
                f,
                "{:#x}: claimed {}, but loaded {:#x} then {:#x}",
                self.pc, self.class, first, later
            ),
        }
    }
}

/// The value-flow cross-check result for one workload × profile × opt
/// cell.
#[derive(Debug, Clone)]
pub struct ValueFlowCheckReport {
    /// The cell, rendered `workload/profile/opt`.
    pub cell: String,
    /// Statically claimed affine-stride pcs.
    pub affine_pcs: usize,
    /// Statically claimed must-constant pcs.
    pub must_constant_pcs: usize,
    /// Claims that executed often enough to be judged.
    pub judged: usize,
    /// Contradictions found; empty means every judged claim held.
    pub violations: Vec<ValueFlowViolation>,
    /// `LVP014` static-under-approximation diagnostics: statically
    /// unknown, dynamically learned by the LCT. A report, not a
    /// failure.
    pub under_approximations: Vec<Diagnostic>,
    /// `LVP020` hint-contradiction diagnostics: judged static hints
    /// whose nominated backend the dynamics refuted. Like `LVP014` a
    /// report, not a failure — the matching
    /// [`ValueFlowViolationKind::BackendMiss`] violation already gates.
    pub hint_contradictions: Vec<Diagnostic>,
}

impl ValueFlowCheckReport {
    /// Whether every judged claim held for this cell.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ValueFlowCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "value-flow {}: {} affine claim(s), {} must-constant claim(s), \
             {} judged, {} under-approximation(s), {} hint contradiction(s): {}",
            self.cell,
            self.affine_pcs,
            self.must_constant_pcs,
            self.judged,
            self.under_approximations.len(),
            self.hint_contradictions.len(),
            if self.passed() { "ok" } else { "FAILED" }
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// The backend a static claim nominates for the per-kind oracle
/// (`None` for classes that make no dynamic-coverage promise). A
/// loop-invariant claim only nominates when its address is *pinned* to
/// one program-wide cell: an unpinned claim (argument-indexed table
/// lookup) promises invariance within one loop invocation, not the
/// global per-pc stability the last-value backend measures, so judging
/// it would refute behaviour that was never claimed.
fn nominated_backend(load: &VfLoad) -> Option<PredictorKind> {
    match load.class {
        LoadPredictability::AffineStride(_) => Some(PredictorKind::Stride),
        LoadPredictability::MustConstant => Some(PredictorKind::LastValue),
        LoadPredictability::LoopInvariant => load.pinned.then_some(PredictorKind::LastValue),
        LoadPredictability::StoreToLoadForwardable => Some(PredictorKind::StoreToLoad),
        LoadPredictability::Unknown => None,
    }
}

/// The hint confidence a static class carries, on the arbiter's 4-bit
/// scale: a provenance *proof* (must-constant) gets full confidence,
/// loop-level SCEV proofs slightly less, and the order-sensitive
/// store-to-load class the least.
fn hint_confidence(class: &LoadPredictability) -> u8 {
    match class {
        LoadPredictability::MustConstant => 15,
        LoadPredictability::AffineStride(_) | LoadPredictability::LoopInvariant => 12,
        LoadPredictability::StoreToLoadForwardable => 10,
        LoadPredictability::Unknown => 0,
    }
}

/// Builds the static predictor-hint table from a value-flow report: one
/// hint per classified load, nominating the same backend the per-kind
/// oracle judges the class against (so every hint is a falsifiable
/// claim, and `LVP020` reports the hints the dynamics contradict).
pub fn static_hints(report: &ValueFlowReport) -> HintTable {
    HintTable::new(
        report
            .loads
            .iter()
            .filter_map(|l| {
                let kind = nominated_backend(l)?;
                Some(StaticHint {
                    pc: l.pc,
                    kind,
                    confidence: hint_confidence(&l.class),
                })
            })
            .collect(),
    )
}

/// Per-pc state of the value-flow walk, one per instruction slot.
#[derive(Debug, Clone, Copy, Default)]
struct PcState {
    /// The shared stride table's tallies at this pc.
    stride: PredEval,
    /// Whether the pc carries a must-constant claim.
    must_constant: bool,
    /// The first value a must-constant pc loaded.
    first: Option<u64>,
    /// The value the pc loaded last: the emulated LCT's verification.
    last: Option<u64>,
}

/// Tallies one load's prediction against the value it loaded.
#[inline]
fn tally(eval: &mut PredEval, prediction: Option<u64>, value: u64) {
    eval.loads += 1;
    if let Some(p) = prediction {
        eval.predicted += 1;
        eval.correct += u64::from(p == value);
    }
}

/// The dynamic side of the check: one walk over the trace, per-pc state
/// in a table indexed by instruction slot ([`TextSlots`]).
struct Walk {
    slots: TextSlots,
    pcs: Vec<PcState>,
    /// The nominated backends, in [`PredictorKind`] order.
    kinds: Vec<PredictorKind>,
    /// Backend tallies, `kinds.len()` per slot.
    backend_evals: Vec<PredEval>,
    /// `ConstantValueChanged` violations, one per (pc, later value), in
    /// trace order of their first occurrence.
    changed: Vec<ValueFlowViolation>,
    /// The emulated last-value LCT, trained on every load.
    lct: Lct,
}

impl Walk {
    /// Walks `trace` once. Every load, the overflow slot's included,
    /// predicts then trains the shared [`StridePredictor`], each
    /// nominated backend and the LCT, so aliasing between pcs in those
    /// tables is exactly the hardware's; only the tallies are per slot.
    /// Stores feed the backends ([`Backend::on_store`]).
    fn run(program: &Program, trace: &Trace, constants: &[u64], kinds: Vec<PredictorKind>) -> Walk {
        let slots = TextSlots::new(program);
        let mut pcs = slots.table(PcState::default());
        for &pc in constants {
            if let Some(i) = slots.get(pc) {
                pcs[i].must_constant = true;
            }
        }
        let mut stride = StridePredictor::new(TABLE_ENTRIES);
        let mut backends: Vec<Backend> = kinds
            .iter()
            .map(|&kind| {
                Backend::new(
                    &presets::simple()
                        .builder()
                        .kind(kind)
                        .lvpt_entries(TABLE_ENTRIES)
                        .build(),
                )
            })
            .collect();
        let n = backends.len();
        let mut backend_evals = vec![PredEval::default(); pcs.len() * n];
        let mut changed = Vec::new();
        let mut changed_seen: HashSet<(u64, u64)> = HashSet::new();
        let mut lct = Lct::new(LctConfig {
            entries: TABLE_ENTRIES,
            counter_bits: 2,
        });
        // The overflow slot lumps pcs together, but the LCT's
        // verification is per pc: out-of-text pcs keep their own.
        let mut stray_last: BTreeMap<u64, u64> = BTreeMap::new();
        let overflow = pcs.len() - 1;
        for e in trace.iter() {
            let Some(mem) = e.mem else { continue };
            let (pc, value) = (e.pc, mem.value);
            match e.kind {
                OpKind::Load => {}
                OpKind::Store => {
                    for b in &mut backends {
                        b.on_store(mem.addr, mem.width, value);
                    }
                    continue;
                }
                _ => continue,
            }
            let i = slots.index(pc);
            let st = &mut pcs[i];
            tally(&mut st.stride, stride.predict(pc), value);
            stride.train(pc, value);
            if st.must_constant {
                match st.first {
                    None => st.first = Some(value),
                    Some(first) if first != value && changed_seen.insert((pc, value)) => {
                        changed.push(ValueFlowViolation {
                            pc,
                            class: LoadPredictability::MustConstant,
                            kind: ValueFlowViolationKind::ConstantValueChanged {
                                first,
                                later: value,
                            },
                        });
                    }
                    Some(_) => {}
                }
            }
            let previous = if i == overflow {
                stray_last.insert(pc, value)
            } else {
                st.last.replace(value)
            };
            lct.update(pc, previous == Some(value));
            for (b, eval) in backends.iter_mut().zip(&mut backend_evals[i * n..]) {
                tally(eval, b.predict(pc, mem.addr), value);
                b.train(pc, mem.addr, value);
            }
        }
        Walk {
            slots,
            pcs,
            kinds,
            backend_evals,
            changed,
            lct,
        }
    }

    /// The stride tallies of a claimed pc; `None` if no load ran there.
    fn stride(&self, pc: u64) -> Option<PredEval> {
        let eval = self.pcs[self.slots.get(pc)?].stride;
        (eval.loads > 0).then_some(eval)
    }

    /// The tallies of the `k`-th nominated backend at a claimed pc.
    fn backend(&self, k: usize, pc: u64) -> Option<PredEval> {
        let eval = self.backend_evals[self.slots.get(pc)? * self.kinds.len() + k];
        (eval.loads > 0).then_some(eval)
    }
}

/// Runs the value-flow cross-check for one compiled program and its
/// trace; `cell` labels the report (`workload/profile/opt`).
pub fn value_flow_check(program: &Program, trace: &Trace, cell: String) -> ValueFlowCheckReport {
    let report = analyze_value_flow(program);
    value_flow_check_with(&report, program, trace, cell)
}

/// [`value_flow_check`] over an already-computed static report of
/// `program` (the CLI computes the report once for its lint output and
/// reuses it here).
///
/// One walk over the trace feeds every consumer; the claims are then
/// judged from a table indexed by instruction slot. A claim at a pc
/// outside `program`'s text is never judged: the program runs no load
/// there.
pub fn value_flow_check_with(
    report: &ValueFlowReport,
    program: &Program,
    trace: &Trace,
    cell: String,
) -> ValueFlowCheckReport {
    // --- The claims under trial. ---
    let affine: BTreeMap<u64, i64> = report.affine_claims().into_iter().collect();
    let constants: Vec<u64> = report
        .loads
        .iter()
        .filter(|l| l.class == LoadPredictability::MustConstant)
        .map(|l| l.pc)
        .collect();
    let mut claims_by_kind: BTreeMap<PredictorKind, Vec<(u64, LoadPredictability)>> =
        BTreeMap::new();
    for l in &report.loads {
        if let Some(kind) = nominated_backend(l) {
            claims_by_kind
                .entry(kind)
                .or_default()
                .push((l.pc, l.class));
        }
    }

    let walk = Walk::run(
        program,
        trace,
        &constants,
        claims_by_kind.keys().copied().collect(),
    );

    let mut judged = 0usize;
    let mut violations = Vec::new();
    for (&pc, &claimed_stride) in &affine {
        let Some(eval) = walk.stride(pc) else {
            continue;
        };
        if eval.loads < MIN_EXECUTIONS {
            continue;
        }
        judged += 1;
        if eval.accuracy() < STRIDE_ACCURACY_FLOOR {
            violations.push(ValueFlowViolation {
                pc,
                class: LoadPredictability::AffineStride(claimed_stride),
                kind: ValueFlowViolationKind::StrideMiss {
                    claimed_stride,
                    eval,
                },
            });
        }
    }

    // Must-constant: value stability (exact), plus the stride predictor
    // treating it as stride zero once warm.
    violations.extend(walk.changed.iter().cloned());
    for &pc in &constants {
        let Some(eval) = walk.stride(pc) else {
            continue;
        };
        if eval.loads < MIN_EXECUTIONS {
            continue;
        }
        judged += 1;
        if eval.accuracy() < STRIDE_ACCURACY_FLOOR {
            violations.push(ValueFlowViolation {
                pc,
                class: LoadPredictability::MustConstant,
                kind: ValueFlowViolationKind::StrideMiss {
                    claimed_stride: 0,
                    eval,
                },
            });
        }
    }

    // --- Per-kind oracle: each class judged by its nominated backend. ---
    let mut hint_contradictions = Vec::new();
    for (k, (kind, claims)) in claims_by_kind.iter().enumerate() {
        for &(pc, class) in claims {
            let Some(eval) = walk.backend(k, pc) else {
                continue;
            };
            if eval.loads < MIN_EXECUTIONS {
                continue;
            }
            judged += 1;
            let covered = eval.correct as f64 / eval.loads as f64;
            if covered < BACKEND_COVERAGE_FLOOR
                || (eval.predicted > 0 && eval.accuracy() < BACKEND_ACCURACY_FLOOR)
            {
                violations.push(ValueFlowViolation {
                    pc,
                    class,
                    kind: ValueFlowViolationKind::BackendMiss { kind: *kind, eval },
                });
                // The static hint for this pc nominates the same backend
                // the oracle just refuted: report the contradiction.
                hint_contradictions.push(Diagnostic {
                    code: LintCode::HintContradictsDynamicClass,
                    pc,
                    message: format!(
                        "static hint nominates the {} backend (confidence {}) for a {} \
                         load, but it managed {}/{} correct over {} execution(s)",
                        kind,
                        hint_confidence(&class),
                        class,
                        eval.correct,
                        eval.predicted,
                        eval.loads
                    ),
                });
            }
        }
    }

    // --- Reverse direction: LVP014 under-approximation report. ---
    // The emulated last-value LCT was trained exactly as the LVP unit
    // would (correct = the value repeated); ask which statically-unknown
    // pcs it nevertheless learned.
    let predictable: BTreeSet<u64> = report
        .loads
        .iter()
        .map(|l| l.pc)
        .filter(|&pc| {
            walk.stride(pc).is_some_and(|eval| {
                eval.loads >= MIN_EXECUTIONS && walk.lct.classify(pc) != LoadClass::DontPredict
            })
        })
        .collect();
    let under_approximations = lvp014_diagnostics(report, &predictable);

    violations.sort_by_cached_key(|v| (v.pc, format!("{:?}", v.kind)));
    violations.dedup_by(|a, b| a.pc == b.pc && a.kind == b.kind);

    ValueFlowCheckReport {
        cell,
        affine_pcs: affine.len(),
        must_constant_pcs: constants.len(),
        judged,
        violations,
        under_approximations,
        hint_contradictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};
    use lvp_sim::Machine;

    fn run(src: &str) -> (Program, Trace) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run_traced(10_000_000).unwrap();
        (p, t)
    }

    #[test]
    fn per_pc_stride_tallies_split_one_shared_table() {
        // Interleave a strided load at one pc with a constant load at
        // another, and send a third pc outside the text; the per-slot
        // tallies must separate the text pcs, and every load (the
        // out-of-text ones too) must go through the one shared table, so
        // the tallies sum to those of one aggregate replay.
        use lvp_trace::{MemAccess, TraceEntry};
        let (p, _) = run(&format!("main:\n{} halt\n", " nop\n".repeat(20)));
        let load = |pc: u64, value: u64| {
            let mut e = TraceEntry::simple(pc, OpKind::Load);
            e.mem = Some(MemAccess {
                addr: 0x10_0000,
                width: 8,
                value,
                fp: false,
            });
            e
        };
        let stray = 0x10000 - 64;
        let t: Trace = (0..50u64)
            .flat_map(|i| [load(0x10000, 8 * i), load(0x10040, 7), load(stray, 3 * i)])
            .collect();
        let walk = Walk::run(&p, &t, &[], Vec::new());
        let in_text: Vec<&PcState> = walk.pcs[..p.text().len()]
            .iter()
            .filter(|s| s.stride.loads > 0)
            .collect();
        assert_eq!(in_text.len(), 2);
        assert_eq!(walk.stride(0x10000).unwrap().loads, 50);
        assert_eq!(walk.stride(0x10040).unwrap().loads, 50);
        assert!(walk.stride(0x10000).unwrap().hit_rate() > 0.9);
        assert!(walk.stride(0x10040).unwrap().hit_rate() > 0.9);
        assert_eq!(walk.stride(stray), None, "no claim reads the overflow slot");
        let mut aggregate = StridePredictor::new(TABLE_ENTRIES);
        let mut correct = 0;
        for e in t.iter() {
            let value = e.mem.unwrap().value;
            correct += (aggregate.predict(e.pc) == Some(value)) as u64;
            aggregate.train(e.pc, value);
        }
        assert_eq!(
            walk.pcs.iter().map(|s| s.stride.correct).sum::<u64>(),
            correct
        );
    }

    /// A global counter bumped by a constant each iteration: the memory
    /// induction `LVP012` pattern, 32 iterations.
    const COUNTER_LOOP: &str = ".data\ng: .dword 0\n.text\nmain:\n li t0, 32\n la a0, g\nloop:\n \
         ld a1, 0(a0)\n addi a1, a1, 5\n sd a1, 0(a0)\n addi t0, t0, -1\n \
         bne t0, zero, loop\n out a1\n halt\n";

    #[test]
    fn affine_claim_validated_by_stride_predictor() {
        let (p, t) = run(COUNTER_LOOP);
        let report = analyze_value_flow(&p);
        assert!(
            !report.affine_claims().is_empty(),
            "the counter loop must produce an affine claim"
        );
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.affine_pcs >= 1);
        assert!(r.judged >= 1, "32 iterations must clear MIN_EXECUTIONS");
    }

    #[test]
    fn must_constant_claims_hold_on_clean_loop() {
        // A loop re-loading a pool constant: must-constant statically,
        // value-stable and stride-0 dynamically.
        let (p, t) = run(
            ".data\nv: .dword 42\n.text\nmain:\n li t0, 16\nloop:\n la a0, v\n \
             ld a1, 0(a0)\n addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let r = value_flow_check(&p, &t, "const/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.must_constant_pcs >= 1);
        assert!(r.judged >= 1);
    }

    #[test]
    fn fabricated_stride_claim_is_caught() {
        // Tamper with the static report: claim the constant-loading pc
        // strides by 8. The dynamic side must refute it (the stride
        // predictor predicts stride 0, and the claim's accuracy floor
        // cannot be met by a wrong-stride claim... which shares the same
        // per-pc tally). To make the refutation real, fabricate the
        // claim on a pc whose values actually alternate, where stride
        // accuracy is genuinely poor.
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        // Find the pc of the first load in the loop (alternates 1/100).
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &p, &t, "tampered/gp/O0".into());
        assert!(!r.passed(), "a fabricated stride claim must be refuted");
        assert!(r.violations.iter().any(|v| matches!(
            v.kind,
            ValueFlowViolationKind::StrideMiss {
                claimed_stride: 8,
                ..
            }
        )));
    }

    #[test]
    fn lvp014_reports_learned_but_statically_unknown_loads() {
        // A pointer-chased constant: `ld` through a register loaded from
        // memory is statically unknown, but the value repeats every
        // iteration so the LCT learns it.
        let (p, t) = run(
            ".data\nptr: .dword 0\nval: .dword 77\n.text\nmain:\n la a0, val\n la a1, ptr\n \
             sd a0, 0(a1)\n li t0, 16\nloop:\n ld a2, 0(a1)\n ld a3, 0(a2)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a3\n halt\n",
        );
        let r = value_flow_check(&p, &t, "chase/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(
            !r.under_approximations.is_empty(),
            "the chased load is statically unknown but dynamically learned"
        );
        assert!(r
            .under_approximations
            .iter()
            .all(|d| d.code == lvp_analyze::LintCode::StaticUnderApprox));
    }

    #[test]
    fn per_kind_oracle_refutes_a_fabricated_affine_claim() {
        // Same tampering as above: the alternating pc cannot be covered
        // by the two-delta stride backend either, so the per-kind
        // oracle must file a BackendMiss naming the stride backend.
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &p, &t, "tampered/gp/O0".into());
        assert!(r.violations.iter().any(|v| matches!(
            v.kind,
            ValueFlowViolationKind::BackendMiss {
                kind: PredictorKind::Stride,
                ..
            }
        )));
    }

    #[test]
    fn per_kind_oracle_holds_on_clean_claims() {
        // The counter loop's affine claim must be covered by the
        // two-delta stride backend, not just the idealized predictor.
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn static_hints_mirror_the_per_kind_nomination() {
        let (p, _) = run(COUNTER_LOOP);
        let report = analyze_value_flow(&p);
        let hints = static_hints(&report);
        assert!(!hints.is_empty(), "the counter loop must produce hints");
        // Every hint's (pc, kind) must match the oracle's nomination for
        // that pc, with the class-derived confidence.
        for l in &report.loads {
            match (nominated_backend(l), hints.get(l.pc)) {
                (Some(kind), Some(h)) => {
                    assert_eq!(h.kind, kind, "{:#x}", l.pc);
                    assert_eq!(h.confidence, hint_confidence(&l.class), "{:#x}", l.pc);
                }
                (None, got) => assert!(got.is_none(), "unknown loads carry no hint: {:#x}", l.pc),
                (Some(kind), None) => panic!("{:#x} lost its {kind} hint", l.pc),
            }
        }
    }

    #[test]
    fn unpinned_loop_invariant_claim_is_not_judged_or_hinted() {
        // gperf's full-matrix shape: a callee reloads `tbl[a0]` in a
        // loop. The address is invariant *within* each invocation (a
        // sound LVP013 hoist), but main calls with a different index
        // each time, so per-pc last-value accuracy is ~75% — judging
        // the claim globally would refute behaviour never promised.
        let (p, t) = run(
            ".data\ntbl: .dword 5, 9, 13, 21\n.text\nmain:\n li s0, 0\n li s1, 32\nouter:\n \
             li t3, 4\n rem a0, s0, t3\n jal ra, lookup\n addi s0, s0, 1\n addi s1, s1, -1\n \
             bne s1, zero, outer\n out a0\n halt\n\
             lookup:\n li t0, 4\n la t1, tbl\n slli t2, a0, 3\n add t1, t1, t2\nlkloop:\n \
             ld a1, 0(t1)\n addi t0, t0, -1\n bne t0, zero, lkloop\n addi a0, a1, 0\n \
             jalr zero, ra, 0\n",
        );
        let report = analyze_value_flow(&p);
        let unpinned = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::LoopInvariant && !l.pinned)
            .expect("the table lookup must classify loop-invariant at an unpinned address");
        // The lint stands (the hoist is sound) ...
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.pc == unpinned.pc && d.code == LintCode::LoopInvariantLoad),
            "{report:?}"
        );
        // ... but the claim nominates no backend and emits no hint,
        // and the oracle holds on the trace that would refute it.
        assert!(nominated_backend(unpinned).is_none());
        assert!(static_hints(&report).get(unpinned.pc).is_none());
        let r = value_flow_check(&p, &t, "lookup/gp/O0".into());
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn lvp020_fires_when_a_hinted_claim_is_refuted() {
        // Same tampering as the BackendMiss test: the alternating pc is
        // claimed affine, so its hint nominates the stride backend —
        // which the dynamics refute. LVP020 must report it without
        // flipping the report into a new failure mode (the BackendMiss
        // violation is the gate).
        let (p, t) = run(
            ".data\na: .dword 1\nb: .dword 100\n.text\nmain:\n li t0, 16\n la s0, a\n \
             la s1, b\nloop:\n ld a1, 0(s0)\n ld a2, 0(s1)\n sd a2, 0(s0)\n sd a1, 0(s1)\n \
             addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let mut report = analyze_value_flow(&p);
        let alternating_pc = report
            .loads
            .iter()
            .find(|l| l.class == LoadPredictability::Unknown)
            .expect("the swap loop has unknown loads")
            .pc;
        for l in report.loads.iter_mut() {
            if l.pc == alternating_pc {
                l.class = LoadPredictability::AffineStride(8);
            }
        }
        let r = value_flow_check_with(&report, &p, &t, "tampered/gp/O0".into());
        assert!(!r.passed());
        let d = r
            .hint_contradictions
            .iter()
            .find(|d| d.pc == alternating_pc)
            .expect("the refuted hint must be reported");
        assert_eq!(d.code, LintCode::HintContradictsDynamicClass);
        assert!(d.message.contains("stride"), "{}", d.message);
    }

    #[test]
    fn lvp020_is_silent_on_clean_claims() {
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "counter/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(
            r.hint_contradictions.is_empty(),
            "held claims must not report hint contradictions: {:?}",
            r.hint_contradictions
        );
    }

    #[test]
    fn report_renders_cell_and_verdict() {
        let (p, t) = run(COUNTER_LOOP);
        let r = value_flow_check(&p, &t, "unit/gp/O0".into());
        let s = r.to_string();
        assert!(s.starts_with("value-flow unit/gp/O0:"), "{s}");
        assert!(s.contains("ok"), "{s}");
    }

    #[test]
    fn short_runs_are_not_judged() {
        // 3 iterations < MIN_EXECUTIONS: claims exist but are not judged,
        // and cannot fail.
        let (p, t) = run(
            ".data\ng: .dword 0\n.text\nmain:\n li t0, 3\n la a0, g\nloop:\n \
             ld a1, 0(a0)\n addi a1, a1, 5\n sd a1, 0(a0)\n addi t0, t0, -1\n \
             bne t0, zero, loop\n out a1\n halt\n",
        );
        let r = value_flow_check(&p, &t, "short/gp/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.affine_pcs >= 1);
    }
}
