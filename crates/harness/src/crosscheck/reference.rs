//! The cross-check as it was before the one-pass walk, kept as a
//! differential oracle: every store compared with every must-constant
//! slot, a `BTreeMap` search per load, and the LVP-unit replay in a
//! second walk. Only that replay has changed since: it reads the
//! outcomes of `on_load` and the certifications `on_store` returns
//! instead of an event log.

use super::{overlaps, CrossCheckReport, CrossCheckViolation, ViolationKind};
use lvp_analyze::{analyze_memory, RegionMap};
use lvp_isa::Program;
use lvp_predictor::{LvpConfig, LvpUnit};
use lvp_trace::{PredOutcome, Trace};
use std::collections::BTreeMap;

/// Runs the cross-check oracle for one compiled program and its trace
/// under `config`; `cell` labels the report (`workload/profile/opt`).
pub(crate) fn cross_check(
    program: &Program,
    trace: &Trace,
    config: &LvpConfig,
    cell: String,
) -> CrossCheckReport {
    let memory = analyze_memory(program);
    let regions = RegionMap::new(program);
    let slots = memory.must_constant_slots();
    let mut violations: Vec<CrossCheckViolation> = Vec::new();

    // Check 1 + 3: one pass over the trace. Stores sweep the slot
    // intervals; loads at must-constant pcs must repeat their first
    // observed value.
    let by_pc: BTreeMap<u64, (u64, u8)> = slots.iter().map(|&(pc, a, w)| (pc, (a, w))).collect();
    let mut first_value: BTreeMap<u64, u64> = BTreeMap::new();
    let mut dynamic_loads = 0u64;
    for entry in trace.iter() {
        let Some(mem) = entry.mem else { continue };
        if entry.is_load() {
            let Some(&(addr, _)) = by_pc.get(&entry.pc) else {
                continue;
            };
            dynamic_loads += 1;
            match first_value.get(&entry.pc) {
                None => {
                    first_value.insert(entry.pc, mem.value);
                }
                Some(&v) if v != mem.value => {
                    violations.push(CrossCheckViolation {
                        load_pc: entry.pc,
                        kind: ViolationKind::ValueChanged,
                        addr,
                        region: regions.classify(addr),
                        store_pc: None,
                        detail: format!("loaded {:#x} then {:#x}", v, mem.value),
                    });
                }
                Some(_) => {}
            }
        } else {
            for &(pc, addr, width) in &slots {
                if overlaps(mem.addr, mem.width, addr, width) {
                    violations.push(CrossCheckViolation {
                        load_pc: pc,
                        kind: ViolationKind::StoreOverlap,
                        addr,
                        region: regions.classify(addr),
                        store_pc: Some(entry.pc),
                        detail: format!(
                            "store of {} byte(s) at {:#x} hits the slot",
                            mem.width, mem.addr
                        ),
                    });
                }
            }
        }
    }

    // Check 2: replay through the LVP unit. No certification a store
    // destroys may cover a must-constant slot; CVU hits at must-constant
    // pcs whose access overlaps a slot count as verified.
    let mut unit = LvpUnit::new(config.clone());
    let mut cvu_verified = 0u64;
    for entry in trace.iter() {
        let Some(mem) = entry.mem else { continue };
        if entry.is_load() {
            let outcome = unit.on_load(entry.pc, mem.addr, mem.width, mem.value);
            if outcome == PredOutcome::Constant
                && by_pc.contains_key(&entry.pc)
                && slots
                    .iter()
                    .any(|&(_, addr, width)| overlaps(mem.addr, mem.width, addr, width))
            {
                cvu_verified += 1;
            }
        } else {
            for victim in unit.on_store(mem.addr, mem.width, mem.value) {
                for &(pc, addr, width) in &slots {
                    if overlaps(victim.addr, victim.width, addr, width) {
                        violations.push(CrossCheckViolation {
                            load_pc: pc,
                            kind: ViolationKind::CvuInvalidated,
                            addr,
                            region: regions.classify(addr),
                            store_pc: Some(entry.pc),
                            detail: format!(
                                "store of {} byte(s) at {:#x} destroyed the certification",
                                mem.width, mem.addr
                            ),
                        });
                    }
                }
            }
        }
    }

    // Canonical order, duplicates (e.g. a hot store in a loop) collapsed.
    violations.sort();
    violations
        .dedup_by(|a, b| a.load_pc == b.load_pc && a.kind == b.kind && a.store_pc == b.store_pc);

    CrossCheckReport {
        cell,
        must_constant_pcs: slots.len(),
        dynamic_must_constant_loads: dynamic_loads,
        cvu_verified,
        violations,
    }
}
