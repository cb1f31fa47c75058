//! Classic iterative dataflow passes over the [`Cfg`]: reaching
//! definitions (forward, union meet) and register liveness (backward,
//! union meet, over either [`FlowGraph`] view), over the 64 combined
//! GPR+FPR slots ([`RegId::flat_index`]).

use crate::cfg::Cfg;
use crate::ssa::{is_caller_saved_slot, FlowGraph};
use lvp_isa::{Program, RegId};

/// Number of dataflow register slots: 32 integer + 32 floating-point.
pub const NUM_REGS: usize = 64;

/// A growable bitset used for reaching-definition sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over a universe of `n` bits.
    pub fn new(n: usize) -> BitSet {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts bit `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether bit `i` is present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let before = *w;
            *w |= o;
            changed |= *w != before;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Iterates over the set bits.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| wi * 64 + b)
        })
    }
}

/// One definition site in the reaching-definitions universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// The defined register slot ([`RegId::flat_index`]).
    pub reg: usize,
    /// The defining instruction index, or `None` for the synthetic
    /// entry definition modelling the register's initial (possibly
    /// uninitialized) machine state.
    pub instr: Option<usize>,
}

/// Reaching definitions: for every instruction, which definition sites of
/// each register may reach it.
///
/// The universe has one synthetic definition per register slot (modelling
/// the register file state at program entry) plus one definition per
/// register-writing instruction. A register read is *provably
/// uninitialized* when only its synthetic definition reaches the reader —
/// see [`ReachingDefs::only_entry_def_reaches`].
#[derive(Debug)]
pub struct ReachingDefs {
    /// All definition sites; indices into this vec are the bitset universe.
    pub sites: Vec<DefSite>,
    /// For each instruction that defines a register, its site index.
    site_of_instr: Vec<Option<usize>>,
    /// Per-block IN sets.
    pub block_in: Vec<BitSet>,
}

impl ReachingDefs {
    /// Runs the forward reaching-definitions analysis.
    pub fn compute(program: &Program, cfg: &Cfg) -> ReachingDefs {
        let text = program.text();
        let n = text.len();

        // Universe: synthetic entry defs (site i = register slot i for
        // i < NUM_REGS), then instruction defs in text order.
        let mut sites: Vec<DefSite> = (0..NUM_REGS)
            .map(|r| DefSite {
                reg: r,
                instr: None,
            })
            .collect();
        let mut site_of_instr = vec![None; n];
        for (i, instr) in text.iter().enumerate() {
            if let Some(d) = instr.defs() {
                site_of_instr[i] = Some(sites.len());
                sites.push(DefSite {
                    reg: d.flat_index(),
                    instr: Some(i),
                });
            }
        }
        let universe = sites.len();

        // Per-register kill masks: all sites defining that register.
        let mut defs_of_reg: Vec<BitSet> = (0..NUM_REGS).map(|_| BitSet::new(universe)).collect();
        for (s, site) in sites.iter().enumerate() {
            defs_of_reg[site.reg].insert(s);
        }

        // Per-block GEN (downward-exposed defs) and KILL sets.
        let nb = cfg.blocks().len();
        let mut gen: Vec<BitSet> = Vec::with_capacity(nb);
        let mut kill: Vec<BitSet> = Vec::with_capacity(nb);
        for block in cfg.blocks() {
            let mut g = BitSet::new(universe);
            let mut k = BitSet::new(universe);
            for site in &site_of_instr[block.start..block.end] {
                if let Some(s) = *site {
                    let reg = sites[s].reg;
                    g.subtract(&defs_of_reg[reg]);
                    k.union_with(&defs_of_reg[reg]);
                    g.insert(s);
                }
            }
            gen.push(g);
            kill.push(k);
        }

        // Iterate to fixpoint: IN[b] = ∪ OUT[p]; OUT[b] = GEN ∪ (IN − KILL).
        // The entry block additionally receives every synthetic def.
        let mut block_in: Vec<BitSet> = (0..nb).map(|_| BitSet::new(universe)).collect();
        let mut block_out: Vec<BitSet> = (0..nb).map(|_| BitSet::new(universe)).collect();
        if nb > 0 {
            for r in 0..NUM_REGS {
                block_in[cfg.entry_block()].insert(r);
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                let mut inb = block_in[b].clone();
                for &p in &cfg.blocks()[b].preds {
                    inb.union_with(&block_out[p]);
                }
                let mut outb = inb.clone();
                outb.subtract(&kill[b]);
                outb.union_with(&gen[b]);
                changed |= block_in[b] != inb || block_out[b] != outb;
                block_in[b] = inb;
                block_out[b] = outb;
            }
        }

        ReachingDefs {
            sites,
            site_of_instr,
            block_in,
        }
    }

    /// Whether only the synthetic entry definition of `reg` reaches the
    /// use at instruction `at` — i.e. no real write to `reg` occurs on
    /// *any* path from the entry point to `at`.
    pub fn only_entry_def_reaches(&self, cfg: &Cfg, at: usize, reg: RegId) -> bool {
        let slot = reg.flat_index();
        let block = cfg.block_of(at);
        // Walk the block from its start to `at`, tracking the last def of
        // `slot` inside the block.
        for i in (cfg.blocks()[block].start..at).rev() {
            if let Some(s) = self.site_of_instr[i] {
                if self.sites[s].reg == slot {
                    return false; // an in-block def reaches first
                }
            }
        }
        // No in-block def: consult the block's IN set.
        self.block_in[block]
            .iter()
            .filter(|&s| self.sites[s].reg == slot)
            .all(|s| self.sites[s].instr.is_none())
    }
}

/// Backward register liveness per block, over the 64 register slots.
///
/// Register slots fit one machine word, so sets are plain `u64` masks.
#[derive(Debug)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<u64>,
    /// Registers live on exit from each block.
    pub live_out: Vec<u64>,
}

impl Liveness {
    /// Runs the backward liveness analysis over the raw [`Cfg`] edges.
    pub fn compute(program: &Program, cfg: &Cfg) -> Liveness {
        Liveness::compute_with(program, cfg, &FlowGraph::raw(cfg))
    }

    /// Runs the backward liveness analysis over the graph view `g`
    /// (block structure from `cfg`). The local view also treats each
    /// call as defining the caller-saved slots: a clobbered register's
    /// old value cannot be live across the call.
    pub(crate) fn compute_with(program: &Program, cfg: &Cfg, g: &FlowGraph) -> Liveness {
        let text = program.text();
        let nb = g.len();
        let clobbered = (0..NUM_REGS)
            .filter(|&slot| is_caller_saved_slot(slot))
            .fold(0u64, |mask, slot| mask | 1 << slot);

        // Per-block use (upward-exposed reads) and def masks.
        let mut use_mask = vec![0u64; nb];
        let mut def_mask = vec![0u64; nb];
        for (b, block) in cfg.blocks().iter().enumerate() {
            for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
                for u in instr.uses() {
                    use_mask[b] |= (1u64 << u.flat_index()) & !def_mask[b];
                }
                if let Some(d) = instr.defs() {
                    def_mask[b] |= 1u64 << d.flat_index();
                }
                if g.is_call(i) {
                    def_mask[b] |= clobbered;
                }
            }
        }

        let mut live_in = vec![0u64; nb];
        let mut live_out = vec![0u64; nb];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                let mut out = 0u64;
                for &s in g.succs(b) {
                    out |= live_in[s];
                }
                let inb = use_mask[b] | (out & !def_mask[b]);
                changed |= out != live_out[b] || inb != live_in[b];
                live_out[b] = out;
                live_in[b] = inb;
            }
        }
        Liveness { live_in, live_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler, Reg};

    fn build(src: &str) -> (Program, Cfg) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        (p, cfg)
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(65);
        s.insert(129);
        assert!(s.contains(65) && !s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 65, 129]);
        let mut t = BitSet::new(130);
        t.insert(64);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s), "second union is a no-op");
        t.subtract(&s);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn entry_def_reaches_until_written() {
        let (p, cfg) = build("main:\n add a1, a0, a0\n li a0, 1\n add a2, a0, a0\n halt\n");
        let rd = ReachingDefs::compute(&p, &cfg);
        let a0 = RegId::Int(Reg::A0);
        // First read of a0: only the synthetic entry def reaches.
        assert!(rd.only_entry_def_reaches(&cfg, 0, a0));
        // After `li a0, 1`, the real def reaches instead.
        assert!(!rd.only_entry_def_reaches(&cfg, 2, a0));
    }

    #[test]
    fn join_point_merges_defs() {
        // a0 is written on only one side of the diamond, so at the join
        // both the entry def and the real def reach: not provably uninit.
        let (p, cfg) =
            build("main:\n beq t0, zero, skip\n li a0, 1\nskip:\n add a1, a0, a0\n halt\n");
        let rd = ReachingDefs::compute(&p, &cfg);
        let join = 2; // the `add`
        assert!(!rd.only_entry_def_reaches(&cfg, join, RegId::Int(Reg::A0)));
    }

    #[test]
    fn liveness_flows_backward_through_loop() {
        let (p, cfg) =
            build("main:\n li a0, 3\nloop:\n addi a0, a0, -1\n bne a0, zero, loop\n halt\n");
        let lv = Liveness::compute(&p, &cfg);
        let a0 = 1u64 << RegId::Int(Reg::A0).flat_index();
        // a0 is live out of the entry block (used by the loop).
        assert!(lv.live_out[cfg.entry_block()] & a0 != 0);
        // a0 is live into the loop block from its own back edge.
        let loop_b = cfg.block_of(1);
        assert!(lv.live_in[loop_b] & a0 != 0);
    }

    #[test]
    fn local_view_liveness_ends_at_calls() {
        // `f` reads a0, so on the raw view a0 is live into the call's
        // block. The local view summarizes the call as clobbering the
        // caller-saved a0: the read after the call makes a0 live out of
        // the call's block, not into it.
        let (p, cfg) = build(
            "main:\n jal ra, f\n add a1, a0, a0\n halt\nf:\n addi a0, a0, 1\n jalr zero, ra, 0\n",
        );
        let a0 = 1u64 << RegId::Int(Reg::A0).flat_index();
        let call = cfg.block_of(0);
        let raw = Liveness::compute(&p, &cfg);
        assert!(raw.live_in[call] & a0 != 0);
        let local = Liveness::compute_with(&p, &cfg, &FlowGraph::local(&p, &cfg));
        assert!(local.live_in[call] & a0 == 0);
        assert!(local.live_out[call] & a0 != 0);
    }
}
