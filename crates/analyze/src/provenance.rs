//! Memory provenance: classify every static load and lint memory traffic.
//!
//! Runs the [`AliasAnalysis`] points-to pass, resolves every reachable
//! load and store to an [`AddrRes`], and derives:
//!
//! * a [`MemClass`] per static load — **must-constant** (no reaching
//!   store may alias its initialized slot), **stack-local**, or
//!   **unknown**;
//! * the memory lints `LVP007`–`LVP011` (see the crate docs for the
//!   table).
//!
//! The must-constant class is the static mirror of what the paper's CVU
//! learns dynamically; the harness cross-check (`lvp-harness`) asserts at
//! run time that no store ever touches a must-constant slot and that the
//! loaded value never changes, validating both this pass and the
//! pool-ownership assumption in [`crate::regions`].

use crate::alias::{AbsVal, AddrRes, AliasAnalysis};
use crate::cfg::Cfg;
use crate::diag::{sort_and_dedupe, Diagnostic, LintCode};
use crate::loads::{classify_loads_in, StaticLoadClass};
use crate::regions::{Region, RegionMap, RegionSet};
use lvp_isa::Program;
use std::collections::BTreeMap;
use std::fmt;

/// Provenance class of one static load.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemClass {
    /// The effective address is exactly known, lies in the initialized
    /// data image, and no reaching store may alias it: the load returns
    /// the image value on every execution.
    MustConstant,
    /// Every address the load may touch is within the stack region.
    StackLocal,
    /// Anything else.
    Unknown,
}

impl fmt::Display for MemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemClass::MustConstant => "must-constant",
            MemClass::StackLocal => "stack-local",
            MemClass::Unknown => "unknown",
        })
    }
}

/// One load with its provenance classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoad {
    /// Address of the load instruction.
    pub pc: u64,
    /// The provenance class.
    pub class: MemClass,
    /// The exact effective address, when statically known.
    pub addr: Option<u64>,
    /// The region set the load may touch.
    pub regions: RegionSet,
    /// Access width in bytes.
    pub width: u8,
}

/// The result of the provenance pass over one program.
#[derive(Debug, Clone)]
pub struct MemoryReport {
    /// Every reachable static load, in text order.
    pub loads: Vec<MemLoad>,
    /// Memory lints `LVP007`–`LVP011`, canonically sorted and deduped.
    pub diagnostics: Vec<Diagnostic>,
}

impl MemoryReport {
    /// The must-constant loads as `(pc, addr, width)` triples — the
    /// intervals the dynamic cross-check oracle protects.
    pub fn must_constant_slots(&self) -> Vec<(u64, u64, u8)> {
        self.loads
            .iter()
            .filter(|l| l.class == MemClass::MustConstant)
            .filter_map(|l| l.addr.map(|a| (l.pc, a, l.width)))
            .collect()
    }

    /// Count of loads in `class`.
    pub fn count(&self, class: MemClass) -> usize {
        self.loads.iter().filter(|l| l.class == class).count()
    }
}

/// A resolved store site, kept for the may-alias sweep.
struct StoreSite {
    pc: u64,
    res: AddrRes,
    width: u8,
    value: AbsVal,
}

/// A resolved load site, pre-classification.
struct LoadSite {
    pc: u64,
    res: AddrRes,
    width: u8,
    /// Exact same-block earlier store to the identical (addr, width)?
    forwarded_from: Option<u64>,
}

/// Every store site, indexed for the must-constant test: whether any
/// store may write a byte of `[addr, addr + width)`, exactly as testing
/// [`AddrRes::may_overlap`] against each site would answer.
struct StoreIndex {
    /// The exact stores' distinct `(addr, width)` pairs, sorted.
    exact: Vec<(u64, u8)>,
    /// The widest exact store: only stores starting in
    /// `(addr - widest, addr + width)` can overlap `[addr, addr + width)`.
    widest: u8,
    /// The union of the region-set stores' regions.
    sets: RegionSet,
}

impl StoreIndex {
    fn new(stores: &[StoreSite]) -> StoreIndex {
        let mut exact = Vec::new();
        let mut sets = RegionSet::empty();
        for s in stores {
            match s.res {
                AddrRes::Exact(a) => exact.push((a, s.width)),
                AddrRes::Set(rs) => sets = sets.union(rs),
            }
        }
        exact.sort_unstable();
        exact.dedup();
        let widest = exact.iter().map(|s| s.1).max().unwrap_or(0);
        StoreIndex {
            exact,
            widest,
            sets,
        }
    }

    fn may_write(&self, addr: u64, width: u8, regions: &RegionMap) -> bool {
        let lo = addr.saturating_sub(self.widest as u64);
        let first = self.exact.partition_point(|&(a, _)| a < lo);
        AddrRes::Set(self.sets).may_overlap(width, addr, width, regions)
            || self.exact[first..]
                .iter()
                .take_while(|&&(a, _)| (a as u128) < addr as u128 + width as u128)
                .any(|&(a, w)| AddrRes::Exact(a).may_overlap(w, addr, width, regions))
    }
}

/// Runs the provenance pass: points-to fixpoint, load classification,
/// and the memory lints.
pub fn analyze_memory(program: &Program) -> MemoryReport {
    let cfg = Cfg::build(program);
    let regions = RegionMap::new(program);
    let alias = AliasAnalysis::compute(program, &cfg, &regions);
    analyze_memory_with(program, &cfg, &regions, &alias)
}

/// [`analyze_memory`] over the [`Cfg`], [`RegionMap`] and alias
/// fixpoint the caller already built for `program`.
pub(crate) fn analyze_memory_with(
    program: &Program,
    cfg: &Cfg,
    regions: &RegionMap,
    alias: &AliasAnalysis,
) -> MemoryReport {
    let text = program.text();
    let text_base = program.layout().text_base();

    // Collect every reachable memory operand from the alias fact table.
    let mut stores: Vec<StoreSite> = Vec::new();
    let mut loads: Vec<LoadSite> = Vec::new();
    for block in cfg.blocks() {
        // The latest store to each exact (addr, width) so far in this
        // block, for the store-to-load-forwarding candidate lint.
        let mut block_stores: BTreeMap<(u64, u8), u64> = BTreeMap::new();
        for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
            let pc = text_base + i as u64 * 4;
            if let (Some(res), Some(w)) =
                (alias.addr(i), instr.mem_width().map(|w| w.bytes() as u8))
            {
                if instr.is_store() {
                    stores.push(StoreSite {
                        pc,
                        res,
                        width: w,
                        value: alias.value(i).unwrap_or(AbsVal::Set(RegionSet::unknown())),
                    });
                    if let AddrRes::Exact(a) = res {
                        block_stores.insert((a, w), pc);
                    }
                } else if instr.is_load() {
                    let forwarded_from = match res {
                        AddrRes::Exact(a) => block_stores.get(&(a, w)).copied(),
                        AddrRes::Set(_) => None,
                    };
                    loads.push(LoadSite {
                        pc,
                        res,
                        width: w,
                        forwarded_from,
                    });
                }
            }
        }
    }

    let mut diags = Vec::new();

    // LVP007: store whose address set includes the compiler-owned pool.
    for s in &stores {
        let set = s.res.regions(s.width, regions);
        if set.contains(Region::ConstPool) {
            let msg = match s.res {
                AddrRes::Exact(a) => {
                    format!("store writes constant-pool address {a:#x} (compiler-owned)")
                }
                AddrRes::Set(_) => {
                    format!("store may write the constant pool (address in {set})")
                }
            };
            diags.push(Diagnostic::new(LintCode::StoreToPool, s.pc, msg));
        }
    }

    // LVP009: a provably-stack address stored to provably non-stack
    // memory — the frame pointer escapes its frame.
    for s in &stores {
        let val_regions = s.value.regions(regions);
        let is_stack_addr = match s.value {
            AbsVal::Exact(a) => regions.classify(a) == Region::Stack,
            _ => !val_regions.is_empty() && val_regions.is_only(Region::Stack),
        };
        let target = s.res.regions(s.width, regions);
        if is_stack_addr && !target.is_empty() && !target.contains(Region::Stack) {
            diags.push(Diagnostic::new(
                LintCode::StackEscape,
                s.pc,
                format!("stack address escapes its frame: stored to {target} memory"),
            ));
        }
    }

    // Classify loads and emit the load-side lints.
    let syntactic = classify_loads_in(program, cfg);
    let stored = StoreIndex::new(&stores);
    let mut out_loads = Vec::with_capacity(loads.len());
    for l in &loads {
        let set = l.res.regions(l.width, regions);
        let (class, addr) = match l.res {
            AddrRes::Exact(a) => {
                if regions.in_image(a, l.width) && !stored.may_write(a, l.width, regions) {
                    (MemClass::MustConstant, Some(a))
                } else if regions.classify(a) == Region::Stack {
                    (MemClass::StackLocal, Some(a))
                } else {
                    (MemClass::Unknown, Some(a))
                }
            }
            AddrRes::Set(s) => {
                if !s.is_empty() && s.is_only(Region::Stack) {
                    (MemClass::StackLocal, None)
                } else {
                    (MemClass::Unknown, None)
                }
            }
        };

        if class == MemClass::MustConstant {
            let a = addr.unwrap();
            // LVP008: must-constant data *outside* the pool — the program
            // declared it writable but never writes it (pool-promotion
            // candidate). Pool slots are constant by construction and not
            // reported.
            if regions.classify(a) == Region::Global {
                diags.push(Diagnostic::new(
                    LintCode::LoadNeverWritten,
                    l.pc,
                    format!("load from never-written global {a:#x}: value is constant"),
                ));
            }
            // LVP010: provenance proves the load constant but the
            // syntactic classifier (what `--compare-lct` uses) does not.
            let syn = syntactic
                .binary_search_by_key(&l.pc, |s| s.pc)
                .map_or(StaticLoadClass::Computed, |k| syntactic[k].class);
            if syn != StaticLoadClass::Constant {
                diags.push(Diagnostic::new(
                    LintCode::MisclassifiedConstant,
                    l.pc,
                    format!("load of {a:#x} is provably constant but syntactically `{syn}`"),
                ));
            }
        }

        // LVP011: store-to-load forwarding candidate — same block, exact
        // same (addr, width) as an earlier store. Stack spill/reload
        // pairs are the compiler's job and exempt.
        if let (Some(spc), Some(a)) = (l.forwarded_from, addr) {
            if regions.classify(a) != Region::Stack {
                diags.push(Diagnostic::new(
                    LintCode::StoreToLoadForward,
                    l.pc,
                    format!(
                        "load of {a:#x} reloads the value stored at {spc:#x} (forwarding candidate)"
                    ),
                ));
            }
        }

        out_loads.push(MemLoad {
            pc: l.pc,
            class,
            addr,
            regions: set,
            width: l.width,
        });
    }

    sort_and_dedupe(&mut diags);
    MemoryReport {
        loads: out_loads,
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler};

    fn report(profile: AsmProfile, src: &str) -> MemoryReport {
        let p = Assembler::new(profile).assemble(src).unwrap();
        analyze_memory(&p)
    }

    fn codes(r: &MemoryReport) -> Vec<LintCode> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn toc_pool_loads_are_must_constant() {
        let r = report(
            AsmProfile::Toc,
            ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            r.count(MemClass::MustConstant) >= 1,
            "pool slot behind `la` must be must-constant: {:?}",
            r.loads
        );
        assert!(!r.must_constant_slots().is_empty());
    }

    #[test]
    fn stored_global_is_not_must_constant() {
        let r = report(
            AsmProfile::Toc,
            ".data\nv: .dword 42\n.text\nmain:\n la a0, v\n li a2, 9\n sd a2, 0(a0)\n \
             ld a1, 0(a0)\n out a1\n halt\n",
        );
        // The global load aliases the store; only the pool slot behind
        // `la` stays must-constant.
        let global_loads: Vec<_> = r
            .loads
            .iter()
            .filter(|l| l.regions.contains(Region::Global))
            .collect();
        assert!(global_loads
            .iter()
            .all(|l| l.class != MemClass::MustConstant));
    }

    #[test]
    fn sp_relative_loads_are_stack_local() {
        let r = report(
            AsmProfile::Gp,
            "main:\n addi sp, sp, -16\n li a0, 7\n sd a0, 0(sp)\n ld a1, 0(sp)\n \
             out a1\n addi sp, sp, 16\n halt\n",
        );
        assert_eq!(r.count(MemClass::StackLocal), 1);
        // Spill/reload pair is exempt from LVP011.
        assert!(!codes(&r).contains(&LintCode::StoreToLoadForward));
    }

    #[test]
    fn lvp007_store_to_pool_fires_and_twin_is_silent() {
        // The `la` forces a pool slot to exist; the gp-relative store
        // then targets it.
        let fire = report(
            AsmProfile::Toc,
            ".data\nv: .dword 1\n.text\nmain:\n la a1, v\n li a0, 9\n sd a0, 0(gp)\n out a0\n halt\n",
        );
        assert!(codes(&fire).contains(&LintCode::StoreToPool), "{fire:?}");
        let twin = report(
            AsmProfile::Toc,
            ".data\nv: .dword 1\n.text\nmain:\n li a0, 9\n la a1, v\n sd a0, 0(a1)\n out a0\n halt\n",
        );
        assert!(!codes(&twin).contains(&LintCode::StoreToPool), "{twin:?}");
    }

    #[test]
    fn lvp008_load_never_written_fires_and_twin_is_silent() {
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 5\n.text\nmain:\n la a0, g\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::LoadNeverWritten),
            "{fire:?}"
        );
        // Twin: the global is written (in a separate block so LVP011
        // stays out of the picture).
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 5\n.text\nmain:\n la a0, g\n li a2, 6\n sd a2, 0(a0)\n \
             j next\nnext:\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::LoadNeverWritten),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp009_stack_escape_fires_and_twin_is_silent() {
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n addi a0, sp, -16\n la a1, g\n \
             sd a0, 0(a1)\n out a0\n halt\n",
        );
        assert!(codes(&fire).contains(&LintCode::StackEscape), "{fire:?}");
        // Twin: a non-address value goes to the global instead.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\n.text\nmain:\n li a0, 7\n la a1, g\n \
             sd a0, 0(a1)\n out a0\n halt\n",
        );
        assert!(!codes(&twin).contains(&LintCode::StackEscape), "{twin:?}");
    }

    #[test]
    fn lvp010_misclassified_constant_fires_and_twin_is_silent() {
        // The address is materialized in one block and the load sits in
        // another: the syntactic classifier's same-block scan calls it
        // computed, the flow-sensitive pass proves it constant.
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 5\n.text\nmain:\n la a0, g\n j next\nnext:\n \
             ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::MisclassifiedConstant),
            "{fire:?}"
        );
        // Twin: a store to the global exists, so the load is not
        // must-constant and there is nothing to misclassify.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 5\n.text\nmain:\n la a0, g\n li a2, 6\n sd a2, 0(a0)\n \
             j next\nnext:\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::MisclassifiedConstant),
            "{twin:?}"
        );
    }

    #[test]
    fn lvp011_store_to_load_forward_fires_and_twin_is_silent() {
        let fire = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\nh: .dword 0\n.text\nmain:\n la a0, g\n li a2, 9\n \
             sd a2, 0(a0)\n ld a1, 0(a0)\n out a1\n halt\n",
        );
        assert!(
            codes(&fire).contains(&LintCode::StoreToLoadForward),
            "{fire:?}"
        );
        // Twin: the load reads a different global.
        let twin = report(
            AsmProfile::Gp,
            ".data\ng: .dword 0\nh: .dword 0\n.text\nmain:\n la a0, g\n la a3, h\n li a2, 9\n \
             sd a2, 0(a0)\n ld a1, 0(a3)\n out a1\n halt\n",
        );
        assert!(
            !codes(&twin).contains(&LintCode::StoreToLoadForward),
            "{twin:?}"
        );
    }

    /// Byte-range edge cases of the must-constant store lookup, as
    /// fire/twin pairs: the class of the one load in `main` after each
    /// store set (Gp profile, so `la` loads nothing). The set stores join
    /// two exact addresses at a branch into their region set.
    #[test]
    fn must_constant_lookup_byte_range_edge_cases() {
        use MemClass::{MustConstant, Unknown};
        let head =
            ".data\nf: .dword 1\ng: .dword 2\nh: .dword 3\n.text\nmain:\n la a0, g\n li a2, 9\n";
        let set = " beq a2, zero, o\n addi a3, X\n j s\no:\n addi a3, Y\ns:\n sd a2, 0(a3)\n ld a1, 0(a0)";
        let over_f_and_h = set.replace('X', "a0, -8").replace('Y', "a0, 8");
        let over_stack = set.replace('X', "sp, -8").replace('Y', "sp, -16");
        #[rustfmt::skip]
        let cases = [
            ("sb into the middle of g", " sb a2, 3(a0)\n ld a1, 0(a0)", Unknown),
            ("sb just past g", " sb a2, 8(a0)\n ld a1, 0(a0)", MustConstant),
            ("sd over g's first byte", " sb a2, -8(a0)\n sd a2, -4(a0)\n ld a1, 0(a0)", Unknown),
            ("sd ending where g starts", " sb a2, 8(a0)\n sd a2, -8(a0)\n ld a1, 0(a0)", MustConstant),
            ("sd covering a narrow load", " sd a2, 0(a0)\n lb a1, 3(a0)", Unknown),
            ("sd from a narrow load's end", " sd a2, 8(a0)\n lb a1, 7(a0)", MustConstant),
            ("set store over f and h", over_f_and_h.as_str(), Unknown),
            ("set store over two stack slots", over_stack.as_str(), MustConstant),
            ("sd at u64::MAX - 3", " li a3, -4\n sd a2, 0(a3)\n ld a1, 0(a0)", MustConstant),
            ("sd at u64::MAX - 3 and sb into g", " li a3, -4\n sd a2, 0(a3)\n sb a2, 7(a0)\n ld a1, 0(a0)", Unknown),
        ];
        for (what, body, want) in cases {
            let r = report(AsmProfile::Gp, &format!("{head}{body}\n out a1\n halt\n"));
            let [l] = r.loads.as_slice() else {
                panic!("{what}: expected one load: {r:?}");
            };
            assert_eq!(l.class, want, "{what}: {r:?}");
        }
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        let r = report(
            AsmProfile::Toc,
            ".data\nv: .dword 1\nw: .dword 2\n.text\nmain:\n la a1, v\n la a2, w\n li a0, 9\n \
             sd a0, 0(gp)\n sd a0, 8(gp)\n out a0\n halt\n",
        );
        assert!(r.diagnostics.len() >= 2, "{r:?}");
        let mut sorted = r.diagnostics.clone();
        sort_and_dedupe(&mut sorted);
        assert_eq!(r.diagnostics, sorted);
    }
}
