//! Static load classification and the static-vs-dynamic LCT comparator.
//!
//! The paper observes (Section 2) that much of a program's load value
//! locality is *structural*: table-of-contents / constant-pool loads and
//! register spill reloads are decided by the compiler, not the data. This
//! module derives that structure statically and joins it against what the
//! dynamic Load Classification Table learned, quantifying how much of the
//! LCT's classification was predictable from program text alone.

use crate::cfg::Cfg;
use lvp_isa::{Instr, Program, Reg, RegId};
use lvp_predictor::{Lct, LoadClass};
use lvp_trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Statically derived class of one load instruction.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StaticLoadClass {
    /// A pool/TOC load whose slot is provably never stored to: the loaded
    /// value is the same on every execution.
    Constant,
    /// A reload from the current stack frame (`sp`-relative): a spill
    /// reload, highly value-local per the paper.
    StackReload,
    /// A load from a statically known global address (materialized via
    /// `lui`/`addi` or a pool-indirect `la`): address-stable, value may
    /// change.
    Global,
    /// Address computed dynamically (pointer chase, indexed array, ...).
    Computed,
}

impl fmt::Display for StaticLoadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StaticLoadClass::Constant => "constant",
            StaticLoadClass::StackReload => "stack-reload",
            StaticLoadClass::Global => "global",
            StaticLoadClass::Computed => "computed",
        };
        f.write_str(s)
    }
}

/// One classified static load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticLoad {
    /// Address of the load instruction.
    pub pc: u64,
    /// The derived class.
    pub class: StaticLoadClass,
    /// The statically resolved effective address, when known.
    pub addr: Option<u64>,
}

/// Classifies every load in `program`'s text segment.
///
/// Classification is conservative and purely local:
///
/// * `gp`-relative loads are pool loads when the program never writes
///   `gp`. They are [`StaticLoadClass::Constant`] when no *statically
///   resolved* store address aliases their slot — the pool is
///   compiler-owned, so stores through computed pointers are assumed not
///   to target it (stores never legitimately write the pool; if one does,
///   the simulator's CVU invalidation catches it dynamically).
/// * `sp`-relative loads are [`StaticLoadClass::StackReload`]s.
/// * Loads whose base register was defined earlier **in the same block**
///   by `lui` or a pool-slot `ld` (the `la` expansion under both
///   profiles) are [`StaticLoadClass::Global`], with the address resolved
///   through the pool image when possible.
/// * Everything else is [`StaticLoadClass::Computed`].
pub fn classify_loads(program: &Program) -> Vec<StaticLoad> {
    classify_loads_in(program, &Cfg::build(program))
}

/// [`classify_loads`] over `program`'s already-built [`Cfg`].
pub(crate) fn classify_loads_in(program: &Program, cfg: &Cfg) -> Vec<StaticLoad> {
    let text = program.text();
    let gp_stable = !text.iter().any(|i| i.defs() == Some(RegId::Int(Reg::GP)));
    let layout = program.layout();

    // Statically resolved store addresses (zero- or gp-based), used to
    // de-certify pool slots that the program provably writes.
    let mut stored_addrs: BTreeSet<u64> = BTreeSet::new();
    for instr in text {
        if !instr.is_store() {
            continue;
        }
        if let Some(addr) = resolve_static_addr(program, instr, gp_stable) {
            stored_addrs.insert(addr);
        }
    }

    let mut out = Vec::new();
    for (i, instr) in text.iter().enumerate() {
        if !instr.is_load() {
            continue;
        }
        let pc = layout.text_base() + i as u64 * 4;
        let Some((base, offset)) = instr.mem_operand() else {
            continue;
        };

        if base == Reg::GP && gp_stable {
            let addr = program.pool_base().wrapping_add_signed(offset as i64);
            let class = if stored_addrs.contains(&addr) {
                StaticLoadClass::Global
            } else {
                StaticLoadClass::Constant
            };
            out.push(StaticLoad {
                pc,
                class,
                addr: Some(addr),
            });
            continue;
        }
        if base == Reg::SP {
            out.push(StaticLoad {
                pc,
                class: StaticLoadClass::StackReload,
                addr: None,
            });
            continue;
        }
        if base == Reg::ZERO {
            out.push(StaticLoad {
                pc,
                class: StaticLoadClass::Global,
                addr: Some(offset as i64 as u64),
            });
            continue;
        }

        // Walk backwards within the load's own basic block to find the
        // base's defining instruction; stopping at the block leader keeps
        // the scan sound across join points (a loop back edge may carry a
        // different definition).
        let block_start = cfg.blocks()[cfg.block_of(i)].start;
        let mut class = StaticLoadClass::Computed;
        let mut addr = None;
        for j in (block_start..i).rev() {
            match text[j].defs() {
                Some(RegId::Int(r)) if r == base => {
                    if let Some(a) = materialized_addr(program, text, j, block_start, gp_stable) {
                        class = StaticLoadClass::Global;
                        addr = Some(a.wrapping_add_signed(offset as i64));
                    }
                    break;
                }
                _ => {}
            }
        }
        out.push(StaticLoad { pc, class, addr });
    }
    out
}

/// Statically resolves the effective address of a memory instruction when
/// its base register is `zero` or (a stable) `gp`.
fn resolve_static_addr(program: &Program, instr: &Instr, gp_stable: bool) -> Option<u64> {
    let (base, offset) = instr.mem_operand()?;
    if base == Reg::ZERO {
        Some(offset as i64 as u64)
    } else if base == Reg::GP && gp_stable {
        Some(program.pool_base().wrapping_add_signed(offset as i64))
    } else {
        None
    }
}

/// The address value produced by the defining instruction at index `j`,
/// when it is an address-materializing idiom: `lui` (Gp-profile `la`
/// upper half — the subsequent load's offset supplies the rest) or a
/// pool-slot `ld rX, off(gp)` whose slot contents we can read from the
/// program image.
fn materialized_addr(
    program: &Program,
    text: &[Instr],
    j: usize,
    block_start: usize,
    gp_stable: bool,
) -> Option<u64> {
    match text[j] {
        Instr::Lui { imm, .. } => Some((imm as i64 as u64) << 12),
        Instr::Addi { rs1, imm, .. } => {
            // `addi rX, rY, lo` completing a lui pair: resolve rY one step.
            for k in (block_start..j).rev() {
                match text[k].defs() {
                    Some(RegId::Int(r)) if r == rs1 => {
                        return match text[k] {
                            Instr::Lui { imm: hi, .. } => {
                                Some(((hi as i64 as u64) << 12).wrapping_add_signed(imm as i64))
                            }
                            _ => None,
                        };
                    }
                    _ => {}
                }
            }
            None
        }
        Instr::Ld { base, offset, .. } if base == Reg::GP && gp_stable => {
            let slot = program.pool_base().wrapping_add_signed(offset as i64);
            let data_base = program.layout().data_base();
            let off = slot.checked_sub(data_base)? as usize;
            let bytes = program.data().get(off..off + 8)?;
            Some(u64::from_le_bytes(bytes.try_into().ok()?))
        }
        _ => None,
    }
}

/// Per-class tallies joining the static classification of one load pc
/// with the LCT's final dynamic classification and the dynamic execution
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassAgreement {
    /// Static loads in this class that dynamically executed.
    pub static_loads: usize,
    /// Of those, how many the LCT ended up classifying as constant.
    pub lct_constant: usize,
    /// Of those, how many the LCT ended up classifying as predictable
    /// (constant counts as predictable).
    pub lct_predictable: usize,
    /// Total dynamic executions of loads in this class.
    pub dynamic_count: u64,
}

/// The static-vs-dynamic comparison report for one program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LctComparison {
    /// One row per static class, in declaration order.
    pub rows: Vec<(StaticLoadClass, ClassAgreement)>,
    /// Static load pcs that never executed dynamically.
    pub never_executed: usize,
    /// Dynamic load pcs with no static classification (should be zero:
    /// every executed load has a pc in the text segment).
    pub unmatched_dynamic: usize,
}

impl LctComparison {
    /// Joins `static_loads` (from [`classify_loads`]) against the
    /// post-run state of `lct` and the dynamic load mix of `trace`.
    ///
    /// The `lct` should be in its final state after annotating `trace`
    /// (e.g. via `LvpUnit::annotate`), so that its per-pc counters
    /// reflect the whole run.
    pub fn build(static_loads: &[StaticLoad], lct: &Lct, trace: &Trace) -> LctComparison {
        let mut dyn_counts: BTreeMap<u64, u64> = BTreeMap::new();
        for e in trace.iter().filter(|e| e.is_load()) {
            *dyn_counts.entry(e.pc).or_insert(0) += 1;
        }

        let classes = [
            StaticLoadClass::Constant,
            StaticLoadClass::StackReload,
            StaticLoadClass::Global,
            StaticLoadClass::Computed,
        ];
        let mut agg: BTreeMap<StaticLoadClass, ClassAgreement> = BTreeMap::new();
        let mut never_executed = 0;
        let mut matched: BTreeSet<u64> = BTreeSet::new();
        for sl in static_loads {
            let Some(&count) = dyn_counts.get(&sl.pc) else {
                never_executed += 1;
                continue;
            };
            matched.insert(sl.pc);
            let a = agg.entry(sl.class).or_default();
            a.static_loads += 1;
            a.dynamic_count += count;
            match lct.classify(sl.pc) {
                LoadClass::Constant => {
                    a.lct_constant += 1;
                    a.lct_predictable += 1;
                }
                LoadClass::Predict => a.lct_predictable += 1,
                LoadClass::DontPredict => {}
            }
        }
        let unmatched_dynamic = dyn_counts.keys().filter(|pc| !matched.contains(pc)).count();

        LctComparison {
            rows: classes
                .into_iter()
                .map(|c| (c, agg.get(&c).copied().unwrap_or_default()))
                .collect(),
            never_executed,
            unmatched_dynamic,
        }
    }

    /// Fraction of executed statically-constant loads that the LCT also
    /// classified as constant, in `[0, 1]`; `None` when no
    /// statically-constant load executed.
    pub fn constant_agreement(&self) -> Option<f64> {
        self.rows
            .iter()
            .find(|(c, _)| *c == StaticLoadClass::Constant)
            .and_then(|(_, a)| {
                (a.static_loads > 0).then(|| a.lct_constant as f64 / a.static_loads as f64)
            })
    }
}

impl fmt::Display for LctComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>7} {:>9} {:>8} {:>10} {:>7}",
            "static class", "loads", "lct-const", "lct-pred", "dyn-count", "agree%"
        )?;
        for (class, a) in &self.rows {
            let agree = if a.static_loads > 0 {
                format!(
                    "{:.1}",
                    100.0 * a.lct_constant as f64 / a.static_loads as f64
                )
            } else {
                "-".to_string()
            };
            writeln!(
                f,
                "{:<14} {:>7} {:>9} {:>8} {:>10} {:>7}",
                class.to_string(),
                a.static_loads,
                a.lct_constant,
                a.lct_predictable,
                a.dynamic_count,
                agree
            )?;
        }
        if self.never_executed > 0 {
            writeln!(f, "({} static load(s) never executed)", self.never_executed)?;
        }
        if self.unmatched_dynamic > 0 {
            writeln!(
                f,
                "({} dynamic load pc(s) without static classification)",
                self.unmatched_dynamic
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    #[test]
    fn toc_profile_la_loads_are_constant() {
        let p = Assembler::new(AsmProfile::Toc)
            .assemble(
                ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n out a1\n halt\n",
            )
            .unwrap();
        let loads = classify_loads(&p);
        // `la` expands to a pool load under the Toc profile.
        assert!(
            loads.iter().any(|l| l.class == StaticLoadClass::Constant),
            "no constant pool load found: {loads:?}"
        );
        // The `ld a1, 0(a0)` resolves through the pool slot to `v`.
        let global = loads
            .iter()
            .find(|l| l.class == StaticLoadClass::Global)
            .expect("pool-indirect global load");
        assert_eq!(global.addr, p.symbol("v"));
    }

    #[test]
    fn stack_and_computed_loads_classified() {
        let p = Assembler::new(AsmProfile::Gp)
            .assemble(
                "main:\n addi sp, sp, -16\n li a0, 7\n sd a0, 0(sp)\n ld a1, 0(sp)\n \
                 add a2, a1, a1\n ld a3, 0(a2)\n out a3\n addi sp, sp, 16\n halt\n",
            )
            .unwrap();
        let classes: Vec<_> = classify_loads(&p).iter().map(|l| l.class).collect();
        assert!(classes.contains(&StaticLoadClass::StackReload));
        assert!(classes.contains(&StaticLoadClass::Computed));
    }

    #[test]
    fn stored_pool_slot_demotes_to_global() {
        // Under the Gp profile nothing aliases the pool; hand-write a
        // store through gp to force the demotion.
        let p = Assembler::new(AsmProfile::Toc)
            .assemble(
                ".data\nv: .dword 1\n.text\nmain:\n li a0, 9\n sd a0, 0(gp)\n \
                 ld a1, 0(gp)\n out a1\n halt\n",
            )
            .unwrap();
        let loads = classify_loads(&p);
        let gp_load = loads
            .iter()
            .find(|l| l.addr == Some(p.pool_base()))
            .unwrap();
        assert_eq!(gp_load.class, StaticLoadClass::Global);
    }
}
