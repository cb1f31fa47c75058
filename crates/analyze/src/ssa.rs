//! Pruned static single assignment over the control-flow graph, plus the
//! dominance machinery it needs.
//!
//! Two graph *views* drive two different consumers:
//!
//! * [`FlowGraph::raw`] keeps every edge the conservative [`Cfg`] has —
//!   including the all-targets indirect-`jalr` edges — so SSA value sets
//!   agree exactly with the iterative [`ReachingDefs`](crate::dataflow)
//!   analysis (a differential test holds them to that).
//! * [`FlowGraph::local`] summarizes calls away: a linking `jal`/`jalr`
//!   falls through to its return site (clobbering the caller-saved
//!   registers, per the LRISC ABI), and a non-linking `jalr` (a return)
//!   has no local successors. This is the intraprocedural view the loop
//!   and scalar-evolution analyses need — on the raw view the
//!   conservative indirect edges destroy every dominance relation, so no
//!   natural loop is ever visible.
//!
//! SSA construction is the standard pruned algorithm: φ-functions are
//! placed at iterated dominance frontiers of definition blocks, but only
//! where the register is live-in; renaming walks the dominator tree.
//! [`Ssa::verify`] re-checks the construction invariants (def dominates
//! use, one φ input per predecessor) and is surfaced as lint `LVP015`
//! alongside the may-uninit check in the value-flow pass.

use crate::cfg::Cfg;
use crate::dataflow::{Liveness, NUM_REGS};
use lvp_isa::{CtrlFlow, Instr, Program};
use std::collections::BTreeSet;

/// A view of the control flow: either the raw conservative [`Cfg`] edges
/// or the call-summarized intraprocedural ("local") edges. Block indices
/// are shared with the underlying [`Cfg`].
#[derive(Debug)]
pub struct FlowGraph {
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
    entry: usize,
    /// Dominator-tree roots. The raw view has one (the entry block); the
    /// local view also roots every direct call target, since summarized
    /// calls leave callee bodies with no incoming local edges.
    roots: Vec<usize>,
    /// Instruction indices treated as ABI calls (local view only): SSA
    /// renaming gives each a synthetic definition of every caller-saved
    /// register.
    calls: Vec<bool>,
}

/// Caller-saved register slots under the LRISC ABI (`ra`, `tp`,
/// `t0`–`t6`, `a0`–`a7`, and the corresponding FP temporaries): a call
/// may clobber these, so the local view treats every call as defining
/// them.
pub(crate) fn is_caller_saved_slot(slot: usize) -> bool {
    if slot == 0 || slot == 32 {
        return false; // integer zero register; f0 is ft0 (caller-saved)
    }
    if slot < 32 {
        lvp_isa::Reg::try_new(slot as u8).is_some_and(|r| !r.is_callee_saved())
    } else {
        lvp_isa::FReg::try_new((slot - 32) as u8).is_some_and(|r| !r.is_callee_saved())
    }
}

impl FlowGraph {
    /// The raw view: exactly the [`Cfg`]'s successor/predecessor edges.
    pub fn raw(cfg: &Cfg) -> FlowGraph {
        FlowGraph {
            succs: cfg.blocks().iter().map(|b| b.succs.clone()).collect(),
            preds: cfg.blocks().iter().map(|b| b.preds.clone()).collect(),
            entry: cfg.entry_block(),
            roots: vec![cfg.entry_block()],
            calls: Vec::new(),
        }
    }

    /// The call-summarized local view: linking jumps fall through to
    /// their return site, returns have no successors, and every other
    /// terminator keeps its direct edges.
    pub fn local(program: &Program, cfg: &Cfg) -> FlowGraph {
        let text = program.text();
        let n = text.len();
        let nb = cfg.blocks().len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut calls = vec![false; n];
        for (b, block) in cfg.blocks().iter().enumerate() {
            if block.start == block.end {
                continue;
            }
            let last = block.end - 1;
            let fall = (block.end < n).then(|| cfg.block_of(block.end));
            let mut out: Vec<usize> = Vec::new();
            match text[last].control_flow() {
                CtrlFlow::Fall => out.extend(fall),
                CtrlFlow::CondBranch { offset } => {
                    out.extend(fall);
                    out.extend(Self::target_block(cfg, n, last, offset));
                }
                CtrlFlow::Jump { offset } => {
                    let linking = matches!(text[last], Instr::Jal { rd, .. } if !rd.is_zero());
                    if linking {
                        // A call: summarize as a fall-through to the
                        // return site.
                        calls[last] = true;
                        out.extend(fall);
                    } else {
                        out.extend(Self::target_block(cfg, n, last, offset));
                    }
                }
                CtrlFlow::IndirectJump { .. } => {
                    let linking = matches!(text[last], Instr::Jalr { rd, .. } if !rd.is_zero());
                    if linking {
                        calls[last] = true;
                        out.extend(fall);
                    }
                    // Non-linking jalr is a return (or a computed jump we
                    // cannot follow): no local successors.
                }
                CtrlFlow::Halt => {}
            }
            out.sort_unstable();
            out.dedup();
            succs[b] = out;
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (b, ss) in succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(b);
            }
        }
        // Every direct call target is a function entry: with calls
        // summarized, callee bodies have no incoming local edges, so
        // they must be dominator roots of their own.
        let mut roots = vec![cfg.entry_block()];
        for (i, instr) in text.iter().enumerate() {
            if let Instr::Jal { rd, offset } = *instr {
                if !rd.is_zero() {
                    roots.extend(Self::target_block(cfg, n, i, offset));
                }
            }
        }
        roots.sort_unstable();
        roots.dedup();
        FlowGraph {
            succs,
            preds,
            entry: cfg.entry_block(),
            roots,
            calls,
        }
    }

    fn target_block(cfg: &Cfg, n: usize, at: usize, offset: i32) -> Option<usize> {
        let delta = offset / lvp_isa::INSTR_BYTES as i32;
        let target = at as i64 + delta as i64;
        (offset % lvp_isa::INSTR_BYTES as i32 == 0 && target >= 0 && (target as usize) < n)
            .then(|| cfg.block_of(target as usize))
    }

    /// Successor block ids of `b`.
    pub fn succs(&self, b: usize) -> &[usize] {
        &self.succs[b]
    }

    /// Predecessor block ids of `b`.
    pub fn preds(&self, b: usize) -> &[usize] {
        &self.preds[b]
    }

    /// The entry block id.
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Dominator-tree roots: the entry block, plus (on the local view)
    /// every direct call target.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no blocks.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Whether instruction `i` is treated as an ABI call in this view
    /// (always `false` on the raw view).
    pub fn is_call(&self, i: usize) -> bool {
        self.calls.get(i).copied().unwrap_or(false)
    }
}

/// Immediate dominators of every reachable block, computed with the
/// Cooper–Harvey–Kennedy iterative algorithm (robust to irreducible
/// graphs).
#[derive(Debug)]
pub struct Dominators {
    idom: Vec<Option<usize>>,
    /// Reachable blocks in reverse postorder.
    rpo: Vec<usize>,
}

impl Dominators {
    /// Computes immediate dominators over `g`, rooted at every entry in
    /// [`FlowGraph::roots`]. Internally a virtual super-root fronts the
    /// roots, so the multi-function local view is handled uniformly; a
    /// block whose immediate dominator is the virtual root reports
    /// itself as its own idom (a dominator-tree top).
    pub fn compute(g: &FlowGraph) -> Dominators {
        let nb = g.len();
        let virt = nb; // the virtual super-root
        let mut rpo = Vec::with_capacity(nb);
        let mut state = vec![0u8; nb + 1]; // 0 unvisited, 1 on stack, 2 done
        let succs_of = |b: usize| -> &[usize] {
            if b == virt {
                g.roots()
            } else {
                g.succs(b)
            }
        };
        if nb > 0 {
            // Iterative postorder DFS from the virtual root.
            let mut stack: Vec<(usize, usize)> = vec![(virt, 0)];
            state[virt] = 1;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                if *next < succs_of(b).len() {
                    let s = succs_of(b)[*next];
                    *next += 1;
                    if state[s] == 0 {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b] = 2;
                    rpo.push(b);
                    stack.pop();
                }
            }
            rpo.reverse();
            debug_assert_eq!(rpo.first(), Some(&virt));
            rpo.remove(0);
        }
        let mut rpo_index = vec![usize::MAX; nb + 1];
        rpo_index[virt] = 0;
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i + 1;
        }

        // CHK over the extended graph; `idom == virt` marks a tree top.
        let mut idom: Vec<Option<usize>> = vec![None; nb + 1];
        idom[virt] = Some(virt);
        let is_root = |b: usize| g.roots().contains(&b);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let mut new_idom: Option<usize> = if is_root(b) { Some(virt) } else { None };
                for &p in g.preds(b) {
                    if idom[p].is_none() {
                        continue; // unreachable or not yet processed
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self::intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if new_idom.is_some() && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        // Collapse the virtual root: tree tops become their own idom.
        let mut out_idom: Vec<Option<usize>> = vec![None; nb];
        for b in 0..nb {
            out_idom[b] = match idom[b] {
                Some(d) if d == virt => Some(b),
                other => other,
            };
        }
        Dominators {
            idom: out_idom,
            rpo,
        }
    }

    /// Immediate dominator of `b` (`b` itself for the entry block);
    /// `None` if `b` is unreachable.
    pub fn idom(&self, b: usize) -> Option<usize> {
        self.idom[b]
    }

    /// Whether `b` is reachable from the entry.
    pub fn reachable(&self, b: usize) -> bool {
        self.idom[b].is_some()
    }

    /// Reachable blocks in reverse postorder.
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// Whether `a` dominates `b` (reflexive). Unreachable blocks
    /// dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom[a].is_none() || self.idom[b].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = self.idom[cur].expect("reachable chain");
            if next == cur {
                return false; // reached the entry without meeting `a`
            }
            cur = next;
        }
    }

    /// Dominance frontier of every block (Cooper–Harvey–Kennedy walk:
    /// for each join block, run each predecessor up the dominator tree
    /// until reaching the join's immediate dominator).
    pub fn frontiers(&self, g: &FlowGraph) -> Vec<Vec<usize>> {
        let mut df: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.len()];
        for &b in &self.rpo {
            // Even single-pred blocks matter here: a root block with a
            // back edge (a function whose entry is a loop header) has
            // one real pred but still needs a frontier walk, because its
            // idom is itself, not the pred.
            if g.preds(b).is_empty() {
                continue;
            }
            // A tree top (root block) is its own idom; conceptually its
            // idom is the virtual super-root, so the runner walk goes
            // all the way up — including `b` itself, which is in its own
            // frontier when it heads a loop rooted at a function entry.
            let idom_b = self.idom[b].expect("rpo blocks are reachable");
            let target = (idom_b != b).then_some(idom_b);
            for &p in g.preds(b) {
                if self.idom[p].is_none() {
                    continue; // unreachable predecessor
                }
                let mut runner = p;
                // idom(b) dominates every reachable predecessor of b, so
                // this walk terminates at `target` (or at a tree top).
                while Some(runner) != target {
                    df[runner].insert(b);
                    let up = self.idom[runner].expect("reachable chain");
                    if up == runner {
                        break; // tree top reached
                    }
                    runner = up;
                }
            }
        }
        df.into_iter().map(|s| s.into_iter().collect()).collect()
    }
}

fn intersect(idom: &[Option<usize>], rpo_index: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = idom[a].expect("processed block");
        }
        while rpo_index[b] > rpo_index[a] {
            b = idom[b].expect("processed block");
        }
    }
    a
}

/// Identifier of one SSA value.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// What defines an SSA value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueDef {
    /// The synthetic definition modelling register slot `slot`'s state at
    /// program entry (possibly uninitialized).
    Entry {
        /// The register slot ([`RegId::flat_index`](lvp_isa::RegId::flat_index)).
        slot: usize,
    },
    /// The value written by instruction `instr`.
    Instr {
        /// The defining instruction index.
        instr: usize,
    },
    /// A φ-function; see [`Ssa::phi`].
    Phi {
        /// Index into the φ list.
        phi: usize,
    },
    /// The (unknown) value a caller-saved register holds after the ABI
    /// call at `instr` (local view only).
    CallClobber {
        /// The call instruction index.
        instr: usize,
        /// The clobbered register slot.
        slot: usize,
    },
}

/// One φ-function: a join of `slot`'s reaching values at the head of
/// `block`.
#[derive(Debug, Clone)]
pub struct Phi {
    /// The block whose head holds the φ.
    pub block: usize,
    /// The register slot joined.
    pub slot: usize,
    /// The value this φ defines.
    pub value: ValueId,
    /// One `(predecessor block, incoming value)` pair per CFG
    /// predecessor edge.
    pub inputs: Vec<(usize, ValueId)>,
}

/// Sentinel predecessor id marking a φ input that carries the entry
/// state into a root block (no real CFG edge exists for it).
pub const ENTRY_PRED: usize = usize::MAX;

/// A definition site in the flattened use-def expansion; see
/// [`Ssa::expand`].
#[derive(Debug, Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SsaSite {
    /// The synthetic entry state of a register slot.
    Entry(usize),
    /// A real defining instruction.
    Instr(usize),
    /// A call-clobber definition (local view).
    Clobber(usize, usize),
}

/// Pruned SSA form of one program over a [`FlowGraph`] view.
#[derive(Debug)]
pub struct Ssa {
    values: Vec<ValueDef>,
    phis: Vec<Phi>,
    /// Per instruction: the value of each register use, in
    /// [`Instr::uses`] order. Empty for instructions in unreachable
    /// blocks.
    use_values: Vec<Vec<ValueId>>,
    /// Per instruction: the value its register definition produces.
    def_value: Vec<Option<ValueId>>,
    /// φ indices at the head of each block.
    block_phis: Vec<Vec<usize>>,
    /// Block of each instruction (from the `Cfg`).
    block_of: Vec<usize>,
}

impl Ssa {
    /// Builds pruned SSA for `program` over the graph view `g` (block
    /// structure from `cfg`), whose dominator tree is `dom`.
    pub fn build(program: &Program, cfg: &Cfg, g: &FlowGraph, dom: &Dominators) -> Ssa {
        let text = program.text();
        let n = text.len();
        let nb = g.len();
        let frontiers = dom.frontiers(g);
        let live_in = Liveness::compute_with(program, cfg, g).live_in;

        let mut values: Vec<ValueDef> =
            (0..NUM_REGS).map(|slot| ValueDef::Entry { slot }).collect();
        let mut phis: Vec<Phi> = Vec::new();
        let mut block_phis: Vec<Vec<usize>> = vec![Vec::new(); nb];

        // Definition blocks per slot. Every root block carries the
        // synthetic entry definitions; calls define every caller-saved
        // slot in the local view.
        let mut def_blocks: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); NUM_REGS];
        if nb > 0 {
            for set in def_blocks.iter_mut() {
                set.extend(g.roots());
            }
        }
        for (b, block) in cfg.blocks().iter().enumerate() {
            for (i, instr) in text.iter().enumerate().take(block.end).skip(block.start) {
                if let Some(d) = instr.defs() {
                    def_blocks[d.flat_index()].insert(b);
                }
                if g.is_call(i) {
                    for (slot, set) in def_blocks.iter_mut().enumerate() {
                        if is_caller_saved_slot(slot) {
                            set.insert(b);
                        }
                    }
                }
            }
        }

        // Pruned φ placement: iterated dominance frontier, gated on
        // liveness.
        for (slot, slot_defs) in def_blocks.iter().enumerate() {
            let mut work: Vec<usize> = slot_defs.iter().copied().collect();
            let mut has_phi: BTreeSet<usize> = BTreeSet::new();
            while let Some(b) = work.pop() {
                if !dom.reachable(b) {
                    continue;
                }
                for &f in &frontiers[b] {
                    if has_phi.contains(&f) || live_in[f] & (1u64 << slot) == 0 {
                        continue;
                    }
                    has_phi.insert(f);
                    let value = ValueId(values.len() as u32);
                    values.push(ValueDef::Phi { phi: phis.len() });
                    block_phis[f].push(phis.len());
                    // A φ at a root block also joins the entry state,
                    // which arrives via the (virtual) root edge rather
                    // than a real predecessor: seed a sentinel input.
                    let inputs = if g.roots().contains(&f) {
                        vec![(ENTRY_PRED, ValueId(slot as u32))]
                    } else {
                        Vec::new()
                    };
                    phis.push(Phi {
                        block: f,
                        slot,
                        value,
                        inputs,
                    });
                    if !def_blocks[slot].contains(&f) {
                        work.push(f);
                    }
                }
            }
        }

        // Rename along the dominator tree (explicit stack — whole
        // programs have thousands of blocks).
        let mut dom_children: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for b in 0..nb {
            if let Some(d) = dom.idom(b) {
                if d != b {
                    dom_children[d].push(b);
                }
            }
        }
        let mut stacks: Vec<Vec<ValueId>> = (0..NUM_REGS)
            .map(|slot| vec![ValueId(slot as u32)])
            .collect();
        let mut use_values: Vec<Vec<ValueId>> = vec![Vec::new(); n];
        let mut def_value: Vec<Option<ValueId>> = vec![None; n];

        enum Step {
            Enter(usize),
            Exit(Vec<(usize, ValueId)>), // values to pop off the rename stacks
        }
        // Walk every dominator tree (one per root); the register stacks
        // rewind to the entry values between trees, so each function
        // starts renaming from the synthetic entry state.
        let mut walk: Vec<Step> = Vec::new();
        for b in (0..nb).rev() {
            if dom.idom(b) == Some(b) {
                walk.push(Step::Enter(b));
            }
        }
        while let Some(step) = walk.pop() {
            match step {
                Step::Enter(b) => {
                    // Record stack depths to restore on exit.
                    let mut pushed: Vec<(usize, ValueId)> = Vec::new();
                    let push = |stacks: &mut Vec<Vec<ValueId>>,
                                pushed: &mut Vec<(usize, ValueId)>,
                                slot: usize,
                                v: ValueId| {
                        stacks[slot].push(v);
                        pushed.push((slot, v));
                    };
                    for &pi in &block_phis[b] {
                        let (slot, v) = (phis[pi].slot, phis[pi].value);
                        push(&mut stacks, &mut pushed, slot, v);
                    }
                    let block = &cfg.blocks()[b];
                    for i in block.start..block.end {
                        let instr = &text[i];
                        use_values[i] = instr
                            .uses()
                            .map(|u| *stacks[u.flat_index()].last().expect("entry value seeded"))
                            .collect();
                        if let Some(d) = instr.defs() {
                            let v = ValueId(values.len() as u32);
                            values.push(ValueDef::Instr { instr: i });
                            def_value[i] = Some(v);
                            push(&mut stacks, &mut pushed, d.flat_index(), v);
                        }
                        if g.is_call(i) {
                            for slot in 0..NUM_REGS {
                                if is_caller_saved_slot(slot) {
                                    let v = ValueId(values.len() as u32);
                                    values.push(ValueDef::CallClobber { instr: i, slot });
                                    push(&mut stacks, &mut pushed, slot, v);
                                }
                            }
                        }
                    }
                    // Feed successor φs.
                    for &s in g.succs(b) {
                        for &pi in &block_phis[s] {
                            let slot = phis[pi].slot;
                            let top = *stacks[slot].last().expect("entry value seeded");
                            phis[pi].inputs.push((b, top));
                        }
                    }
                    walk.push(Step::Exit(pushed));
                    for &c in dom_children[b].iter().rev() {
                        walk.push(Step::Enter(c));
                    }
                }
                Step::Exit(pushed) => {
                    for &(slot, v) in pushed.iter().rev() {
                        let popped = stacks[slot].pop();
                        debug_assert_eq!(popped, Some(v));
                    }
                }
            }
        }

        let block_of = (0..n).map(|i| cfg.block_of(i)).collect();
        Ssa {
            values,
            phis,
            use_values,
            def_value,
            block_phis,
            block_of,
        }
    }

    /// The definition of `v`.
    pub fn value(&self, v: ValueId) -> &ValueDef {
        &self.values[v.0 as usize]
    }

    /// The φ at index `phi`.
    pub fn phi(&self, phi: usize) -> &Phi {
        &self.phis[phi]
    }

    /// All φ-functions.
    pub fn phis(&self) -> &[Phi] {
        &self.phis
    }

    /// φ indices at the head of block `b`.
    pub fn block_phis(&self, b: usize) -> &[usize] {
        &self.block_phis[b]
    }

    /// The SSA value of the `nth` register use of instruction `i` (in
    /// [`Instr::uses`] order); `None` when the instruction is
    /// unreachable or has fewer uses.
    pub fn value_for_use(&self, i: usize, nth: usize) -> Option<ValueId> {
        self.use_values.get(i)?.get(nth).copied()
    }

    /// The SSA values of every register use of instruction `i`.
    pub fn uses_of(&self, i: usize) -> &[ValueId] {
        &self.use_values[i]
    }

    /// The SSA value defined by instruction `i`, if it defines one and
    /// is reachable.
    pub fn def_of(&self, i: usize) -> Option<ValueId> {
        self.def_value.get(i).copied().flatten()
    }

    /// Number of SSA values.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Flattens `v` to the set of concrete definition sites it may take
    /// its value from, resolving φ networks transitively. On the raw
    /// view this set equals the iterative reaching-definitions answer at
    /// the use — the differential test in `tests/` relies on it.
    pub fn expand(&self, v: ValueId) -> BTreeSet<SsaSite> {
        let mut out = BTreeSet::new();
        let mut seen = vec![false; self.values.len()];
        let mut work = vec![v];
        while let Some(v) = work.pop() {
            if std::mem::replace(&mut seen[v.0 as usize], true) {
                continue;
            }
            match &self.values[v.0 as usize] {
                ValueDef::Entry { slot } => {
                    out.insert(SsaSite::Entry(*slot));
                }
                ValueDef::Instr { instr } => {
                    out.insert(SsaSite::Instr(*instr));
                }
                ValueDef::CallClobber { instr, slot } => {
                    out.insert(SsaSite::Clobber(*instr, *slot));
                }
                ValueDef::Phi { phi } => {
                    work.extend(self.phis[*phi].inputs.iter().map(|&(_, v)| v));
                }
            }
        }
        out
    }

    /// Per-value "may take the uninitialized entry state" and "has at
    /// least one real definition" flags, for the `LVP015` may-uninit
    /// check: computed for every value at once by fixpoint over the φ
    /// network.
    pub fn entry_flags(&self) -> Vec<(bool, bool)> {
        let n = self.values.len();
        let mut may_entry = vec![false; n];
        let mut has_real = vec![false; n];
        for (i, v) in self.values.iter().enumerate() {
            match v {
                ValueDef::Entry { .. } => may_entry[i] = true,
                ValueDef::Instr { .. } | ValueDef::CallClobber { .. } => has_real[i] = true,
                ValueDef::Phi { .. } => {}
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, v) in self.values.iter().enumerate() {
                if let ValueDef::Phi { phi } = v {
                    for &(_, input) in &self.phis[*phi].inputs {
                        let (m, r) = (may_entry[input.0 as usize], has_real[input.0 as usize]);
                        if m && !may_entry[i] {
                            may_entry[i] = true;
                            changed = true;
                        }
                        if r && !has_real[i] {
                            has_real[i] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        may_entry.into_iter().zip(has_real).collect()
    }

    /// Verifies the SSA construction invariants against `dom`:
    ///
    /// * every φ has exactly one input per reachable predecessor edge;
    /// * every non-φ definition dominates each of its uses (φ inputs are
    ///   checked against the matching predecessor block).
    ///
    /// Returns human-readable descriptions of any violations; an empty
    /// vector means the invariants hold. The value-flow pass surfaces
    /// non-empty results as `LVP015`.
    pub fn verify(&self, g: &FlowGraph, dom: &Dominators) -> Vec<String> {
        let mut errors = Vec::new();
        for (pi, phi) in self.phis.iter().enumerate() {
            let mut expect: Vec<usize> = g
                .preds(phi.block)
                .iter()
                .copied()
                .filter(|&p| dom.reachable(p))
                .collect();
            if g.roots().contains(&phi.block) {
                expect.push(ENTRY_PRED); // the entry-state sentinel input
            }
            let mut inputs: Vec<usize> = phi.inputs.iter().map(|&(p, _)| p).collect();
            inputs.sort_unstable();
            expect.sort_unstable();
            expect.dedup();
            if inputs != expect {
                errors.push(format!(
                    "phi {pi} (block {}, slot {}): inputs from {inputs:?}, predecessors {expect:?}",
                    phi.block, phi.slot
                ));
            }
            for &(p, v) in &phi.inputs {
                if p == ENTRY_PRED {
                    continue; // entry-state inputs have no edge to check
                }
                if let Some(db) = self.def_block(v) {
                    if !dom.dominates(db, p) {
                        errors.push(format!(
                            "phi {pi}: input value from block {db} does not dominate edge {p}->{}",
                            phi.block
                        ));
                    }
                }
            }
        }
        for (i, uses) in self.use_values.iter().enumerate() {
            for &v in uses {
                if let Some(db) = self.def_block(v) {
                    let ub = self.block_of[i];
                    let same_block_ok = db == ub;
                    if !same_block_ok && !dom.dominates(db, ub) {
                        errors.push(format!(
                            "use at instr {i} (block {ub}): defining block {db} does not dominate"
                        ));
                    }
                }
            }
        }
        errors
    }

    /// The block a value is defined in (`None` for entry values).
    fn def_block(&self, v: ValueId) -> Option<usize> {
        match &self.values[v.0 as usize] {
            ValueDef::Entry { .. } => None,
            ValueDef::Instr { instr } | ValueDef::CallClobber { instr, .. } => {
                Some(self.block_of[*instr])
            }
            ValueDef::Phi { phi } => Some(self.phis[*phi].block),
        }
    }

    /// The block instruction `i` belongs to.
    pub fn block_of_instr(&self, i: usize) -> usize {
        self.block_of[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_isa::{AsmProfile, Assembler, Reg, RegId};

    fn assemble(src: &str) -> Program {
        Assembler::new(AsmProfile::Gp).assemble(src).unwrap()
    }

    fn build_raw(src: &str) -> (Program, Cfg, FlowGraph, Ssa) {
        let p = assemble(src);
        let cfg = Cfg::build(&p);
        let g = FlowGraph::raw(&cfg);
        let ssa = Ssa::build(&p, &cfg, &g, &Dominators::compute(&g));
        (p, cfg, g, ssa)
    }

    #[test]
    fn straight_line_defs_reach_uses() {
        let (p, cfg, _, ssa) = build_raw("main:\n li a0, 1\n addi a1, a0, 2\n out a1\n halt\n");
        let _ = (p, cfg);
        // The `addi`'s use of a0 must be the `li`'s def.
        let v = ssa.value_for_use(1, 0).unwrap();
        assert_eq!(ssa.expand(v), BTreeSet::from([SsaSite::Instr(0)]));
        // `out a1` reads the addi's def.
        let v = ssa.value_for_use(2, 0).unwrap();
        assert_eq!(ssa.expand(v), BTreeSet::from([SsaSite::Instr(1)]));
    }

    #[test]
    fn diamond_join_gets_phi() {
        let (_, _, g, ssa) = build_raw(
            "main:\n li t0, 1\n beq t0, zero, other\n li a0, 1\n j join\nother:\n li a0, 2\n\
             join:\n out a0\n halt\n",
        );
        let _ = &g;
        // `out a0` must see both `li a0` defs and nothing else.
        let out_idx = 5;
        let v = ssa.value_for_use(out_idx, 0).unwrap();
        let sites = ssa.expand(v);
        assert_eq!(
            sites,
            BTreeSet::from([SsaSite::Instr(2), SsaSite::Instr(4)])
        );
        assert!(matches!(ssa.value(v), ValueDef::Phi { .. }));
    }

    #[test]
    fn loop_carried_value_is_a_phi_over_init_and_update() {
        let (_, _, _, ssa) = build_raw(
            "main:\n li a0, 10\nloop:\n addi a0, a0, -1\n bne a0, zero, loop\n out a0\n halt\n",
        );
        // The addi's use of a0 joins the init (instr 0) and itself
        // (instr 1).
        let v = ssa.value_for_use(1, 0).unwrap();
        assert_eq!(
            ssa.expand(v),
            BTreeSet::from([SsaSite::Instr(0), SsaSite::Instr(1)])
        );
    }

    #[test]
    fn entry_state_reaches_uninitialized_use() {
        let (_, _, _, ssa) = build_raw("main:\n add a1, a0, a0\n out a1\n halt\n");
        let v = ssa.value_for_use(0, 0).unwrap();
        assert_eq!(
            ssa.expand(v),
            BTreeSet::from([SsaSite::Entry(RegId::Int(Reg::A0).flat_index())])
        );
    }

    #[test]
    fn may_uninit_flags_distinguish_one_sided_defs() {
        let (_, _, _, ssa) =
            build_raw("main:\n li t0, 1\n beq t0, zero, join\n li a0, 1\njoin:\n out a0\n halt\n");
        let flags = ssa.entry_flags();
        let v = ssa.value_for_use(3, 0).unwrap(); // out a0
        let (may_entry, has_real) = flags[v.0 as usize];
        assert!(may_entry && has_real, "one-sided def must be may-uninit");
    }

    #[test]
    fn verify_accepts_construction_and_rejects_corruption() {
        let (_, cfg, g, mut ssa) = build_raw(
            "main:\n li t0, 2\n beq t0, zero, other\n li a0, 1\n j join\nother:\n li a0, 2\n\
             join:\n out a0\n halt\n",
        );
        let _ = &cfg;
        let dom = Dominators::compute(&g);
        assert!(ssa.verify(&g, &dom).is_empty());
        // Corrupt a φ by dropping one input: the verifier must object.
        if let Some(phi) = ssa.phis.iter().position(|p| p.inputs.len() == 2) {
            ssa.phis[phi].inputs.pop();
            assert!(!ssa.verify(&g, &dom).is_empty());
        } else {
            panic!("expected a two-input phi");
        }
    }

    #[test]
    fn local_view_summarizes_calls() {
        let p = assemble("main:\n jal ra, f\n out a0\n halt\nf:\n li a0, 5\n jalr zero, ra, 0\n");
        let cfg = Cfg::build(&p);
        let g = FlowGraph::local(&p, &cfg);
        // The call block falls through to the return site, not into `f`.
        let call_block = cfg.block_of(0);
        let ret_site = cfg.block_of(1);
        assert_eq!(g.succs(call_block), &[ret_site]);
        assert!(g.is_call(0));
        // The `jalr zero` return has no local successors.
        let ret_block = cfg.block_of(4);
        assert!(g.succs(ret_block).is_empty());
    }

    #[test]
    fn local_view_call_clobbers_caller_saved_values() {
        let p = assemble(
            "main:\n li t0, 7\n li s1, 8\n jal ra, f\n add a0, t0, s1\n out a0\n halt\n\
             f:\n jalr zero, ra, 0\n",
        );
        let cfg = Cfg::build(&p);
        let g = FlowGraph::local(&p, &cfg);
        let ssa = Ssa::build(&p, &cfg, &g, &Dominators::compute(&g));
        // After the call, t0 (caller-saved) is a clobber value; s1
        // (callee-saved) still sees its def.
        let add_idx = 3;
        let t0_val = ssa.value_for_use(add_idx, 0).unwrap();
        let s1_val = ssa.value_for_use(add_idx, 1).unwrap();
        assert!(ssa
            .expand(t0_val)
            .iter()
            .all(|s| matches!(s, SsaSite::Clobber(..))));
        assert_eq!(ssa.expand(s1_val), BTreeSet::from([SsaSite::Instr(1)]));
    }

    #[test]
    fn dominators_on_diamond() {
        let (_, cfg, g, _) = build_raw(
            "main:\n li t0, 1\n beq t0, zero, other\n li a0, 1\n j join\nother:\n li a0, 2\n\
             join:\n out a0\n halt\n",
        );
        let dom = Dominators::compute(&g);
        let entry = cfg.entry_block();
        let join = cfg.block_of(5);
        assert!(dom.dominates(entry, join));
        let left = cfg.block_of(2);
        assert!(!dom.dominates(left, join));
        assert_eq!(dom.idom(join), Some(entry));
    }
}
