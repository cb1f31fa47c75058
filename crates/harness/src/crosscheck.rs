//! The static/dynamic cross-check oracle.
//!
//! `lvp-analyze`'s provenance pass claims some loads are
//! **must-constant**: their exact address lies in the initialized data
//! image and no store in the program may alias it. This module puts that
//! claim on trial against a real execution:
//!
//! 1. **Store sweep** — no dynamic store's byte range may overlap a
//!    must-constant slot ([`ViolationKind::StoreOverlap`]);
//! 2. **CVU invalidations** — replaying the trace through an
//!    [`LvpUnit`], no certification a store destroys may cover a
//!    must-constant slot ([`ViolationKind::CvuInvalidated`]);
//! 3. **Value stability** — a must-constant pc must load the same value
//!    on every execution ([`ViolationKind::ValueChanged`]).
//!
//! Check 3 deliberately replaces the naive "a constant-classified load
//! never mispredicts": the LVPT and LCT are untagged and direct-mapped,
//! so two pcs can alias one table entry and mispredict each other's
//! values without any store being involved — a predictor-geometry
//! artifact, not a provenance failure. Value stability is the
//! geometry-independent ground truth.
//!
//! A passing report across every workload × profile × opt cell validates
//! both the points-to analysis and its pool-ownership assumption (see
//! `lvp-analyze`'s `regions` module); CI runs exactly that matrix.

use crate::slots::TextSlots;
use lvp_analyze::{analyze_memory, Region, RegionMap};
use lvp_isa::Program;
use lvp_predictor::{LvpConfig, LvpUnit};
use lvp_trace::{PredOutcome, Trace};
use std::fmt;

#[cfg(test)]
pub(crate) mod reference;

/// How a must-constant claim was contradicted dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A dynamic store's byte range overlapped the slot.
    StoreOverlap,
    /// A store destroyed the CVU certification of the slot.
    CvuInvalidated,
    /// The load observed two different values at the same pc.
    ValueChanged,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::StoreOverlap => "store-overlap",
            ViolationKind::CvuInvalidated => "cvu-invalidated",
            ViolationKind::ValueChanged => "value-changed",
        })
    }
}

/// One contradiction of a static must-constant claim.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrossCheckViolation {
    /// Pc of the must-constant load whose claim was contradicted.
    pub load_pc: u64,
    /// The kind of contradiction.
    pub kind: ViolationKind,
    /// The slot's data address.
    pub addr: u64,
    /// The abstract region the slot lives in.
    pub region: Region,
    /// Pc of the offending store, when one exists
    /// (`StoreOverlap`/`CvuInvalidated`).
    pub store_pc: Option<u64>,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for CrossCheckViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x}: {} ({} slot {:#x})",
            self.load_pc, self.kind, self.region, self.addr
        )?;
        if let Some(spc) = self.store_pc {
            write!(f, " by store at {:#x}", spc)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The cross-check result for one workload × profile × opt × config cell.
#[derive(Debug, Clone)]
pub struct CrossCheckReport {
    /// The cell, rendered `workload/profile/opt`.
    pub cell: String,
    /// Static loads the provenance pass proved must-constant.
    pub must_constant_pcs: usize,
    /// Dynamic executions of those loads in the trace.
    pub dynamic_must_constant_loads: u64,
    /// CVU-verified (memory-bypassing) executions among them.
    pub cvu_verified: u64,
    /// Contradictions found; empty means the oracle holds.
    pub violations: Vec<CrossCheckViolation>,
}

impl CrossCheckReport {
    /// Whether the oracle holds for this cell.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for CrossCheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} must-constant pc(s), {} dynamic load(s), {} CVU-verified: {}",
            self.cell,
            self.must_constant_pcs,
            self.dynamic_must_constant_loads,
            self.cvu_verified,
            if self.passed() { "ok" } else { "FAILED" }
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Byte-range overlap of `[a, a + aw)` and `[b, b + bw)`.
fn overlaps(a: u64, aw: u8, b: u64, bw: u8) -> bool {
    (a as u128) < b as u128 + bw as u128 && (b as u128) < a as u128 + aw as u128
}

/// The must-constant slots sorted by data address, for the interval
/// queries of the store sweep, the CVU invalidations and the
/// verification count.
struct SlotsByAddr {
    /// `(addr, width, load pc)`, sorted.
    slots: Vec<(u64, u8, u64)>,
    /// The widest slot: only slots starting in `(addr - widest, end)`
    /// can overlap `[addr, end)`.
    widest: u8,
}

impl SlotsByAddr {
    fn new(slots: &[(u64, u64, u8)]) -> SlotsByAddr {
        let mut by_addr: Vec<(u64, u8, u64)> =
            slots.iter().map(|&(pc, addr, w)| (addr, w, pc)).collect();
        by_addr.sort_unstable();
        SlotsByAddr {
            widest: by_addr.iter().map(|s| s.1).max().unwrap_or(0),
            slots: by_addr,
        }
    }

    /// The slots `[addr, addr + width)` overlaps, as `(load pc, slot
    /// addr, slot width)`.
    fn overlapping(&self, addr: u64, width: u8) -> impl Iterator<Item = (u64, u64, u8)> + '_ {
        let end = addr as u128 + width as u128;
        let lo = self
            .slots
            .partition_point(|&(a, _, _)| a as u128 + self.widest as u128 <= addr as u128);
        self.slots[lo..]
            .iter()
            .take_while(move |&&(a, _, _)| (a as u128) < end)
            .filter(move |&&(a, w, _)| overlaps(addr, width, a, w))
            .map(|&(a, w, pc)| (pc, a, w))
    }
}

/// A must-constant load's slot and the first value it loaded.
#[derive(Debug, Clone, Copy)]
struct Claim {
    addr: u64,
    first: Option<u64>,
}

/// Runs the cross-check oracle for one compiled program and its trace
/// under `config`; `cell` labels the report (`workload/profile/opt`).
///
/// One walk over the trace drives all three checks: it replays every
/// load and store through the [`LvpUnit`], looks loads up in a table
/// indexed by instruction slot, and finds the slots a store or a
/// destroyed certification overlaps by binary search over the slots
/// sorted by address.
pub fn cross_check(
    program: &Program,
    trace: &Trace,
    config: &LvpConfig,
    cell: String,
) -> CrossCheckReport {
    let memory = analyze_memory(program);
    let regions = RegionMap::new(program);
    let slots = memory.must_constant_slots();
    let by_addr = SlotsByAddr::new(&slots);
    let mut violations: Vec<CrossCheckViolation> = Vec::new();

    // Check 1 + 3: stores sweep the slot intervals; loads at
    // must-constant pcs must repeat their first observed value. A pc
    // claimed twice keeps its last slot, as a map keyed by pc would.
    let text = TextSlots::new(program);
    let mut by_pc: Vec<Option<Claim>> = text.table(None);
    for &(pc, addr, _) in &slots {
        if let Some(i) = text.get(pc) {
            by_pc[i] = Some(Claim { addr, first: None });
        }
    }
    // Check 2: the LVP unit replays the trace in the same walk. A
    // `Constant` outcome is a CVU hit; it counts as verified when the
    // access overlaps a must-constant slot.
    let mut unit = LvpUnit::new(config.clone());
    let mut dynamic_loads = 0u64;
    let mut cvu_verified = 0u64;
    for entry in trace.iter() {
        let Some(mem) = entry.mem else { continue };
        if entry.is_load() {
            let outcome = unit.on_load(entry.pc, mem.addr, mem.width, mem.value);
            let Some(claim) = &mut by_pc[text.index(entry.pc)] else {
                continue;
            };
            dynamic_loads += 1;
            if outcome == PredOutcome::Constant
                && by_addr.overlapping(mem.addr, mem.width).next().is_some()
            {
                cvu_verified += 1;
            }
            match claim.first {
                None => claim.first = Some(mem.value),
                Some(v) if v != mem.value => {
                    violations.push(CrossCheckViolation {
                        load_pc: entry.pc,
                        kind: ViolationKind::ValueChanged,
                        addr: claim.addr,
                        region: regions.classify(claim.addr),
                        store_pc: None,
                        detail: format!("loaded {:#x} then {:#x}", v, mem.value),
                    });
                }
                Some(_) => {}
            }
        } else {
            for victim in unit.on_store(mem.addr, mem.width, mem.value) {
                for (pc, addr, _) in by_addr.overlapping(victim.addr, victim.width) {
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
            for (pc, addr, _) in by_addr.overlapping(mem.addr, mem.width) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};
    use lvp_predictor::presets;
    use lvp_sim::Machine;

    fn run(src: &str) -> (Program, Trace) {
        let p = Assembler::new(AsmProfile::Toc).assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run_traced(10_000_000).unwrap();
        (p, t)
    }

    #[test]
    fn clean_constant_loop_passes() {
        // A loop re-loading a pool constant: must-constant statically,
        // never stored dynamically.
        let (p, t) = run(
            ".data\nv: .dword 42\n.text\nmain:\n li t0, 5\nloop:\n la a0, v\n \
             ld a1, 0(a0)\n addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        );
        let r = cross_check(&p, &t, &presets::simple(), "test/toc/O0".into());
        assert!(r.passed(), "{r}");
        assert!(r.must_constant_pcs > 0);
        assert!(r.dynamic_must_constant_loads >= 5);
    }

    #[test]
    fn violated_assumption_is_reported() {
        // A store through a *computed* address hits the pool: statically
        // invisible (the pool-ownership assumption hides it), so the
        // pool slot stays must-constant — and the dynamic oracle must
        // catch the contradiction.
        // `mul` is opaque to the points-to transfer, so `t1` is an
        // unknown pointer (assumed non-pool) that dynamically equals gp.
        let (p, t) = run(
            ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n \
             li t3, 1\n mul t1, gp, t3\n li t2, 7\n sd t2, 0(t1)\n \
             out a1\n halt\n",
        );
        let r = cross_check(&p, &t, &presets::simple(), "test/toc/O0".into());
        assert!(!r.passed(), "the computed pool store must be caught");
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::StoreOverlap && v.store_pc.is_some()));
        // The report names the pool region.
        assert!(r.violations.iter().any(|v| v.region == Region::ConstPool));
    }

    #[test]
    fn value_change_without_store_sweep_gap_is_caught() {
        // Same shape, but assert the changed loaded value specifically:
        // the second `la`-load of v sees the stored 7 instead of 42.
        let (p, t) = run(
            ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n \
             li t2, 7\n sd t2, 0(a0)\n ld a3, 0(a0)\n out a3\n halt\n",
        );
        // Here the store IS statically visible, so `v`'s load is not
        // must-constant and nothing should fire: the oracle only guards
        // claims actually made.
        let r = cross_check(&p, &t, &presets::simple(), "test/toc/O0".into());
        assert!(r.passed(), "{r}");
    }

    #[test]
    fn cvu_verified_counts_only_loads_that_touch_a_slot() {
        // Hand-built executions of a must-constant pc: CVU hits at an
        // address outside every slot verify nothing a claim covers.
        use lvp_trace::{MemAccess, OpKind, TraceEntry};
        let (p, _) =
            run(".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n out a1\n halt\n");
        let slots = analyze_memory(&p).must_constant_slots();
        let &(pc, addr, width) = slots.first().expect("the loads of v are must-constant");
        let loads_at = |at: u64| -> Trace {
            (0..10)
                .map(|_| {
                    let mut e = TraceEntry::simple(pc, OpKind::Load);
                    e.mem = Some(MemAccess {
                        addr: at,
                        width,
                        value: 42,
                        fp: false,
                    });
                    e
                })
                .collect()
        };
        let on_slot = cross_check(&p, &loads_at(addr), &presets::simple(), "t/toc/O0".into());
        assert_eq!(on_slot.cvu_verified, 5, "{on_slot}");
        let elsewhere = cross_check(
            &p,
            &loads_at(addr + 0x100),
            &presets::simple(),
            "t/toc/O0".into(),
        );
        assert_eq!(elsewhere.dynamic_must_constant_loads, 10);
        assert_eq!(elsewhere.cvu_verified, 0, "{elsewhere}");
    }

    #[test]
    fn slot_interval_overlap_detection() {
        let slots = SlotsByAddr::new(&[(0x10000, 0x1000, 8), (0x10004, 0x1020, 4)]);
        let hits = |addr, width| -> Vec<u64> {
            slots
                .overlapping(addr, width)
                .map(|(pc, _, _)| pc)
                .collect()
        };
        assert_eq!(hits(0x1000, 8), [0x10000]);
        assert_eq!(hits(0x1004, 1), [0x10000], "inside the first interval");
        assert_eq!(hits(0xffc, 8), [0x10000], "straddles the interval start");
        assert!(hits(0x1008, 8).is_empty(), "between the intervals");
        assert_eq!(hits(0x1022, 2), [0x10004]);
        assert!(hits(0x1024, 4).is_empty(), "past the last interval");
    }

    #[test]
    fn report_renders_cell_and_counts() {
        let (p, t) =
            run(".data\nv: .dword 1\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n out a1\n halt\n");
        let r = cross_check(&p, &t, &presets::simple(), "unit/toc/O0".into());
        let s = r.to_string();
        assert!(s.starts_with("unit/toc/O0:"), "{s}");
        assert!(s.contains("ok"), "{s}");
    }
}
