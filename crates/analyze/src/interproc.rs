//! Context-insensitive interprocedural effect summaries.
//!
//! For every function in the [`CallGraph`](crate::CallGraph), a
//! [`FnSummary`] records what the function — *including everything it
//! transitively calls* — may do to memory: the abstract regions it may
//! store to, the exactly-resolved `(address, width)` cells it provably
//! stores to, and whether any store escaped resolution entirely.
//! Summaries are computed bottom-up over the SCC condensation (callee
//! SCCs first); a recursive SCC takes the join over all its members in
//! one step, which is the condensation fixpoint without iteration.
//!
//! The value-flow pass uses these to replace its old "a call anywhere in
//! the loop body gives up on every cell" bail-out: a loop that calls a
//! function whose summary provably cannot touch a cell keeps that cell
//! trackable across the call.

use crate::alias::{AddrRes, AliasAnalysis};
use crate::callgraph::CallGraph;
use crate::regions::{RegionMap, RegionSet};
use lvp_isa::{Program, INSTR_BYTES};

/// Cap on the exactly-resolved store list carried per summary; past it,
/// exact stores degrade into their regions (sound, less precise).
const MAX_EXACT_STORES: usize = 128;

/// The transitive memory effect of one function.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Regions some store (own or transitive) may write, for stores that
    /// did not resolve to an exact address.
    pub store_regions: RegionSet,
    /// Exactly-resolved stores as `(addr, width, pc)`, deduped, sorted
    /// by `(addr, width, pc)`. `pc` is the store instruction's address
    /// (for the function that *directly* contains it).
    pub exact_stores: Vec<(u64, u8, u64)>,
    /// Some store's address could not be resolved at all: the function
    /// may write anywhere.
    pub has_unknown_store: bool,
    /// The effect includes a function in (or called through) a recursive
    /// SCC.
    pub recursive: bool,
}

impl Default for FnSummary {
    fn default() -> FnSummary {
        FnSummary {
            store_regions: RegionSet::empty(),
            exact_stores: Vec::new(),
            has_unknown_store: false,
            recursive: false,
        }
    }
}

impl FnSummary {
    /// Whether this effect may write any byte of `[addr, addr+width)`.
    pub fn may_touch(&self, addr: u64, width: u8, regions: &RegionMap) -> bool {
        if self.has_unknown_store {
            return true;
        }
        let cell_regions = regions.classify_range(addr, width);
        if !self.store_regions.is_empty()
            && cell_regions.iter().any(|r| self.store_regions.contains(r))
        {
            return true;
        }
        let end = addr.saturating_add(width as u64);
        self.exact_stores
            .iter()
            .any(|&(a, w, _)| a < end && addr < a.saturating_add(w as u64))
    }

    /// Whether this effect may write anything in the region set `rs`.
    pub fn may_touch_regions(&self, rs: RegionSet, regions: &RegionMap) -> bool {
        if self.has_unknown_store {
            return true;
        }
        if rs.iter().any(|r| self.store_regions.contains(r)) {
            return true;
        }
        self.exact_stores
            .iter()
            .any(|&(a, w, _)| regions.classify_range(a, w).iter().any(|r| rs.contains(r)))
    }

    /// Whether the effect is provably empty (no store at all).
    pub fn is_pure(&self) -> bool {
        !self.has_unknown_store && self.store_regions.is_empty() && self.exact_stores.is_empty()
    }

    /// Joins `other` into `self`.
    fn join(&mut self, other: &FnSummary, regions: &RegionMap) {
        self.has_unknown_store |= other.has_unknown_store;
        self.recursive |= other.recursive;
        self.store_regions = self.store_regions.union(other.store_regions);
        for &s in &other.exact_stores {
            if !self.exact_stores.contains(&s) {
                self.exact_stores.push(s);
            }
        }
        self.normalize(regions);
    }

    /// Dedupes, sorts and caps the exact-store list.
    fn normalize(&mut self, regions: &RegionMap) {
        self.exact_stores.sort_unstable();
        self.exact_stores.dedup();
        if self.exact_stores.len() > MAX_EXACT_STORES {
            for &(a, w, _) in &self.exact_stores {
                self.store_regions = self.store_regions.union(regions.classify_range(a, w));
            }
            self.exact_stores.clear();
        }
    }
}

/// Per-function transitive summaries, bottom-up over the SCC DAG.
#[derive(Debug, Clone)]
pub struct SummaryTable {
    summaries: Vec<FnSummary>,
}

impl SummaryTable {
    /// Computes direct effects from the alias fixpoint, then closes them
    /// transitively in callee-first SCC order.
    pub fn compute(
        program: &Program,
        alias: &AliasAnalysis,
        cg: &CallGraph,
        regions: &RegionMap,
    ) -> SummaryTable {
        let nf = cg.functions().len();

        // --- Direct (own-store) effects of every reached store. ---
        let mut direct: Vec<FnSummary> = vec![FnSummary::default(); nf];
        for (i, instr) in program.text().iter().enumerate() {
            if !instr.is_store() {
                continue;
            }
            let f = cg.function_of_instr(i);
            match alias.addr(i) {
                // Unreached: no effect.
                None => {}
                Some(AddrRes::Exact(a)) => {
                    let w = instr.mem_width().map(|w| w.bytes() as u8).unwrap_or(8);
                    let pc = program.layout().text_base() + i as u64 * INSTR_BYTES;
                    direct[f].exact_stores.push((a, w, pc));
                }
                Some(AddrRes::Set(rs)) if !rs.is_empty() => {
                    direct[f].store_regions = direct[f].store_regions.union(rs);
                }
                Some(AddrRes::Set(_)) => direct[f].has_unknown_store = true,
            }
        }
        for d in &mut direct {
            d.normalize(regions);
        }

        // --- Transitive closure, callee-first over the condensation.
        // Within an SCC every member gets the join over the whole SCC's
        // direct effects plus all out-of-SCC callee summaries. ---
        let mut summaries: Vec<FnSummary> = vec![FnSummary::default(); nf];
        for (s, scc) in cg.sccs().iter().enumerate() {
            let mut joint = FnSummary {
                recursive: cg.is_recursive_scc(s),
                ..FnSummary::default()
            };
            for &f in scc {
                joint.join(&direct[f], regions);
                if cg.has_unbounded_site(f) {
                    // An unbounded indirect call may reach any symbol:
                    // the summary degrades to "may write anywhere"
                    // (callee summaries of symbols in later SCCs are not
                    // computed yet, and the bound is the full set).
                    joint.has_unknown_store = true;
                }
                for &c in cg.callees(f) {
                    if cg.scc_of(c) != s {
                        joint.join(&summaries[c], regions);
                    }
                }
            }
            for &f in scc {
                summaries[f] = joint.clone();
            }
        }

        SummaryTable { summaries }
    }

    /// The transitive summary of function `f`.
    pub fn summary(&self, f: usize) -> &FnSummary {
        &self.summaries[f]
    }

    /// The joint effect of a set of callee functions (used per loop:
    /// every function callable from inside the loop, joined).
    pub fn joint(&self, fns: impl IntoIterator<Item = usize>, regions: &RegionMap) -> FnSummary {
        let mut joint = FnSummary::default();
        for f in fns {
            joint.join(&self.summaries[f], regions);
        }
        joint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::regions::Region;
    use lvp_isa::{AsmProfile, Assembler};

    fn table(src: &str) -> (Program, CallGraph, SummaryTable, RegionMap) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let regions = RegionMap::new(&p);
        let alias = AliasAnalysis::compute(&p, &cfg, &regions);
        let cg = CallGraph::build(&p, &alias);
        let table = SummaryTable::compute(&p, &alias, &cg, &regions);
        (p, cg, table, regions)
    }

    fn fn_named(cg: &CallGraph, name: &str) -> usize {
        cg.functions()
            .iter()
            .position(|f| f.name.as_deref() == Some(name))
            .unwrap_or_else(|| panic!("no function named {name}"))
    }

    #[test]
    fn pure_callee_has_empty_summary() {
        let (_, cg, t, _) = table("main:\n jal ra, f\n halt\nf:\n li a0, 1\n jalr zero, ra, 0\n");
        assert!(t.summary(fn_named(&cg, "f")).is_pure());
        assert!(
            t.summary(fn_named(&cg, "main")).is_pure(),
            "a caller of pure callees is pure"
        );
    }

    #[test]
    fn exact_store_is_summarized_exactly() {
        let (p, cg, t, regions) = table(
            ".data\ng: .dword 0\n.text\nmain:\n jal ra, f\n halt\n\
             f:\n la t0, g\n li t1, 9\n sd t1, 0(t0)\n jalr zero, ra, 0\n",
        );
        let g_addr = p.symbol("g").unwrap();
        let s = t.summary(fn_named(&cg, "f"));
        assert!(s
            .exact_stores
            .iter()
            .any(|&(a, w, _)| a == g_addr && w == 8));
        assert!(s.may_touch(g_addr, 8, &regions));
        assert!(
            !s.may_touch(g_addr + 8, 8, &regions),
            "adjacent cell untouched"
        );
        // The caller inherits the callee's effect transitively.
        let m = t.summary(fn_named(&cg, "main"));
        assert!(m.may_touch(g_addr, 8, &regions));
    }

    #[test]
    fn recursive_scc_effect_is_marked_recursive() {
        let (p, cg, t, regions) = table(
            ".data\ng: .dword 0\n.text\nmain:\n jal ra, f\n halt\n\
             f:\n la t0, g\n sd zero, 0(t0)\n beq a0, zero, done\n addi a0, a0, -1\n \
             jal ra, f\ndone:\n jalr zero, ra, 0\n",
        );
        let s = t.summary(fn_named(&cg, "f"));
        assert!(s.recursive);
        assert!(s.may_touch(p.symbol("g").unwrap(), 8, &regions));
        assert!(
            t.summary(fn_named(&cg, "main")).recursive,
            "recursion is visible through the caller's transitive effect"
        );
    }

    #[test]
    fn stack_store_summarizes_into_the_stack_region() {
        let (_, cg, t, _) = table(
            "main:\n jal ra, f\n halt\n\
             f:\n sd ra, -8(sp)\n ld ra, -8(sp)\n jalr zero, ra, 0\n",
        );
        let s = t.summary(fn_named(&cg, "f"));
        // The callee's sp is not the entry sp (unknown at callee entry
        // under the conservative block CFG), so the spill lands in the
        // stack region or an exact slot — either way, not pure.
        assert!(!s.is_pure());
        assert!(
            s.store_regions.contains(Region::Stack)
                || !s.exact_stores.is_empty()
                || s.has_unknown_store,
            "{s:?}"
        );
    }

    #[test]
    fn unbounded_indirect_call_degrades_to_unknown() {
        let (_, cg, t, _) = table(
            ".data\nfp: .dword 0\n.text\n\
             main:\n la t0, fp\n ld t1, 0(t0)\n jalr ra, t1, 0\n halt\n\
             f:\n jalr zero, ra, 0\n",
        );
        assert!(t.summary(fn_named(&cg, "main")).has_unknown_store);
        assert!(t.summary(fn_named(&cg, "f")).is_pure());
    }

    /// Differential test against the intraprocedural facts: for every
    /// function, each exactly-resolved store in its own body must appear
    /// in its transitive summary (the summary never *loses* effects).
    #[test]
    fn summaries_cover_own_stores_differentially() {
        let src = ".data\na: .dword 0\nb: .dword 0\n.text\n\
             main:\n jal ra, f\n jal ra, g\n halt\n\
             f:\n la t0, a\n sd zero, 0(t0)\n jalr zero, ra, 0\n\
             g:\n la t0, b\n li t1, 3\n sd t1, 0(t0)\n jalr zero, ra, 0\n";
        let (p, cg, t, regions) = table(src);
        let alias = AliasAnalysis::compute(&p, &Cfg::build(&p), &regions);
        for (i, instr) in p.text().iter().enumerate() {
            if !instr.is_store() {
                continue;
            }
            if let Some(AddrRes::Exact(addr)) = alias.addr(i) {
                let w = instr.mem_width().map(|w| w.bytes() as u8).unwrap_or(8);
                let f = cg.function_of_instr(i);
                assert!(
                    t.summary(f).may_touch(addr, w, &regions),
                    "summary of fn {f} misses own store at index {i}"
                );
            }
        }
    }
}
