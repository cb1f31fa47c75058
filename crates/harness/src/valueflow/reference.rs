//! The value-flow check as it was before the one-pass walk, kept
//! verbatim as a differential oracle: one trace walk per consumer (the
//! stride tallies, the must-constant values, each nominated backend and
//! the LVP014 LCT), each with a `BTreeMap` search per load.

use super::{
    hint_confidence, nominated_backend, ValueFlowCheckReport, ValueFlowViolation,
    ValueFlowViolationKind, BACKEND_ACCURACY_FLOOR, BACKEND_COVERAGE_FLOOR, MIN_EXECUTIONS,
    STRIDE_ACCURACY_FLOOR, TABLE_ENTRIES,
};
use lvp_analyze::{lvp014_diagnostics, Diagnostic, LintCode, LoadPredictability, ValueFlowReport};
use lvp_predictor::{
    presets, Backend, Lct, LctConfig, LoadClass, PredEval, PredictorKind, StridePredictor,
};
use lvp_trace::{OpKind, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Replays every load of `trace` through one shared [`StridePredictor`]
/// table, predicting before training, and splits the tallies per load
/// pc — aliasing between pcs shows up exactly as it would in hardware,
/// only the bookkeeping is per pc.
fn eval_stride_by_pc(trace: &Trace) -> BTreeMap<u64, PredEval> {
    let mut stride = StridePredictor::new(TABLE_ENTRIES);
    let mut by_pc: BTreeMap<u64, PredEval> = BTreeMap::new();
    for e in trace.iter() {
        if !e.is_load() {
            continue;
        }
        let Some(mem) = e.mem else { continue };
        let eval = by_pc.entry(e.pc).or_default();
        eval.loads += 1;
        if let Some(p) = stride.predict(e.pc) {
            eval.predicted += 1;
            if p == mem.value {
                eval.correct += 1;
            }
        }
        stride.train(e.pc, mem.value);
    }
    by_pc
}

/// Replays `trace` through one predictor backend (stores feed
/// [`Backend::on_store`], loads predict-then-train) and splits the
/// prediction tallies per load pc.
fn eval_backend_by_pc(kind: PredictorKind, trace: &Trace) -> BTreeMap<u64, PredEval> {
    let cfg = presets::simple()
        .builder()
        .kind(kind)
        .lvpt_entries(TABLE_ENTRIES)
        .build();
    let mut backend = Backend::new(&cfg);
    let mut by_pc: BTreeMap<u64, PredEval> = BTreeMap::new();
    for e in trace.iter() {
        let Some(mem) = e.mem else { continue };
        if e.kind == OpKind::Store {
            backend.on_store(mem.addr, mem.width, mem.value);
            continue;
        }
        if !e.is_load() {
            continue;
        }
        let eval = by_pc.entry(e.pc).or_default();
        eval.loads += 1;
        if let Some(p) = backend.predict(e.pc, mem.addr) {
            eval.predicted += 1;
            if p == mem.value {
                eval.correct += 1;
            }
        }
        backend.train(e.pc, mem.addr, mem.value);
    }
    by_pc
}

/// [`value_flow_check`] over an already-computed static report (the CLI
/// computes the report once for its lint output and reuses it here).
pub(crate) fn value_flow_check_with(
    report: &ValueFlowReport,
    trace: &Trace,
    cell: String,
) -> ValueFlowCheckReport {
    // --- Dynamic stride tallies per pc (shared table, per-pc split). ---
    let by_pc = eval_stride_by_pc(trace);

    // --- The claims under trial. ---
    let affine: BTreeMap<u64, i64> = report.affine_claims().into_iter().collect();
    let constants: Vec<u64> = report
        .loads
        .iter()
        .filter(|l| l.class == LoadPredictability::MustConstant)
        .map(|l| l.pc)
        .collect();

    let mut judged = 0usize;
    let mut violations = Vec::new();
    for (&pc, &claimed_stride) in &affine {
        let Some(eval) = by_pc.get(&pc) else { continue };
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
                    eval: *eval,
                },
            });
        }
    }

    // Must-constant: value stability (exact), plus the stride predictor
    // treating it as stride zero once warm.
    let constant_set: BTreeSet<u64> = constants.iter().copied().collect();
    let mut first_value: BTreeMap<u64, u64> = BTreeMap::new();
    for entry in trace.iter() {
        if !entry.is_load() || !constant_set.contains(&entry.pc) {
            continue;
        }
        let Some(mem) = entry.mem else { continue };
        match first_value.get(&entry.pc) {
            None => {
                first_value.insert(entry.pc, mem.value);
            }
            Some(&v) if v != mem.value => violations.push(ValueFlowViolation {
                pc: entry.pc,
                class: LoadPredictability::MustConstant,
                kind: ValueFlowViolationKind::ConstantValueChanged {
                    first: v,
                    later: mem.value,
                },
            }),
            Some(_) => {}
        }
    }
    for &pc in &constants {
        let Some(eval) = by_pc.get(&pc) else { continue };
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
                    eval: *eval,
                },
            });
        }
    }

    // --- Per-kind oracle: each class judged by its nominated backend. ---
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
    let mut hint_contradictions = Vec::new();
    for (kind, claims) in &claims_by_kind {
        let backend_by_pc = eval_backend_by_pc(*kind, trace);
        for &(pc, class) in claims {
            let Some(eval) = backend_by_pc.get(&pc) else {
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
                    kind: ValueFlowViolationKind::BackendMiss {
                        kind: *kind,
                        eval: *eval,
                    },
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
    // Train an emulated last-value LCT exactly as the LVP unit would
    // (correct = the value repeated), then ask which statically-unknown
    // pcs it nevertheless learned.
    let mut lct = Lct::new(LctConfig {
        entries: TABLE_ENTRIES,
        counter_bits: 2,
    });
    let mut last_value: BTreeMap<u64, u64> = BTreeMap::new();
    for entry in trace.iter() {
        if !entry.is_load() {
            continue;
        }
        let Some(mem) = entry.mem else { continue };
        let correct = last_value.insert(entry.pc, mem.value) == Some(mem.value);
        lct.update(entry.pc, correct);
    }
    let predictable: BTreeSet<u64> = by_pc
        .iter()
        .filter(|(&pc, eval)| {
            eval.loads >= MIN_EXECUTIONS && lct.classify(pc) != LoadClass::DontPredict
        })
        .map(|(&pc, _)| pc)
        .collect();
    let under_approximations = lvp014_diagnostics(report, &predictable);

    violations
        .sort_by(|a, b| (a.pc, format!("{:?}", a.kind)).cmp(&(b.pc, format!("{:?}", b.kind))));
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
