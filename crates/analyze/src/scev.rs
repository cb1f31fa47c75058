//! Natural loops and scalar evolution over SSA values.
//!
//! Works on the *local* (call-summarized) [`FlowGraph`] view: on the raw
//! conservative CFG the indirect-jump edges destroy dominance, so no
//! back edge `latch → header` with `header` dominating `latch` ever
//! exists there. On the local view the O0 compiler's loops (`.Lf_for_*`
//! blocks, counted via callee-saved induction registers) show up as
//! ordinary natural loops.
//!
//! [`ScalarEvolution`] assigns every SSA value, *relative to one loop*,
//! a point in the small lattice [`Evolution`]:
//!
//! ```text
//!   Const(c)  ⊑  Invariant  ⊑  Unknown      Affine{stride} ⊑ Unknown
//! ```
//!
//! * `Const(c)` — the value is the compile-time constant `c`;
//! * `Invariant` — the value does not change while the loop runs;
//! * `Affine { stride }` — the value follows `base + i·stride` across
//!   iterations (a header φ whose back-edge input adds a constant);
//! * `Unknown` — anything else (loads, call clobbers, non-affine φs).

use crate::ssa::{Dominators, FlowGraph, Ssa, ValueDef, ValueId};
use lvp_isa::{Instr, Program};
use std::collections::{BTreeMap, BTreeSet};

/// One natural loop: a back edge `latch → header` where the header
/// dominates the latch, plus every block that can reach a latch without
/// passing through the header.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header block.
    pub header: usize,
    /// Blocks jumping back to the header from inside the loop.
    pub latches: Vec<usize>,
    /// All blocks in the loop body (header included), ascending.
    pub body: Vec<usize>,
}

impl Loop {
    /// Whether block `b` is in the loop body.
    pub fn contains(&self, b: usize) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// All natural loops of a [`FlowGraph`], with an innermost-loop map.
#[derive(Debug)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop index per block (`usize::MAX` when not in a loop).
    innermost: Vec<usize>,
}

impl LoopForest {
    /// Finds every natural loop in `g` (back edges merged per header).
    pub fn compute(g: &FlowGraph, dom: &Dominators) -> LoopForest {
        // Group back edges by header.
        let mut latches_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for b in 0..g.len() {
            if !dom.reachable(b) {
                continue;
            }
            for &s in g.succs(b) {
                if dom.dominates(s, b) {
                    latches_of.entry(s).or_default().push(b);
                }
            }
        }
        let mut loops = Vec::new();
        for (header, latches) in latches_of {
            // Body: blocks that reach a latch backwards without passing
            // the header.
            let mut body: BTreeSet<usize> = BTreeSet::new();
            body.insert(header);
            let mut work: Vec<usize> = latches.clone();
            while let Some(b) = work.pop() {
                if body.insert(b) {
                    work.extend(g.preds(b).iter().copied().filter(|&p| dom.reachable(p)));
                }
            }
            loops.push(Loop {
                header,
                latches,
                body: body.into_iter().collect(),
            });
        }
        // Innermost = smallest containing body.
        let mut innermost = vec![usize::MAX; g.len()];
        for (b, slot) in innermost.iter_mut().enumerate() {
            let mut best: Option<usize> = None;
            for (i, l) in loops.iter().enumerate() {
                if l.contains(b) && best.is_none_or(|cur| l.body.len() < loops[cur].body.len()) {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                *slot = i;
            }
        }
        LoopForest { loops, innermost }
    }

    /// All loops found.
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost(&self, b: usize) -> Option<&Loop> {
        self.loops
            .get(self.innermost.get(b).copied().unwrap_or(usize::MAX))
    }

    /// Index of the innermost loop containing block `b`, if any.
    pub fn innermost_index(&self, b: usize) -> Option<usize> {
        let i = self.innermost.get(b).copied().unwrap_or(usize::MAX);
        (i != usize::MAX).then_some(i)
    }
}

/// How one SSA value evolves across iterations of a particular loop.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Evolution {
    /// A compile-time constant.
    Const(i64),
    /// Loop-invariant: defined outside the loop, or derived only from
    /// invariant values.
    Invariant,
    /// Affine recurrence `base + i·stride` with the given per-iteration
    /// stride (non-zero; a zero stride collapses to `Invariant`).
    Affine {
        /// Per-iteration increment.
        stride: i64,
    },
    /// Not provably any of the above.
    Unknown,
}

impl Evolution {
    /// Whether this evolution never changes inside the loop (constant or
    /// invariant).
    pub fn is_invariant(self) -> bool {
        matches!(self, Evolution::Const(_) | Evolution::Invariant)
    }

    fn add_const(self, c: i64) -> Evolution {
        match self {
            Evolution::Const(k) => Evolution::Const(k.wrapping_add(c)),
            Evolution::Invariant => Evolution::Invariant,
            Evolution::Affine { stride } => Evolution::Affine { stride },
            Evolution::Unknown => Evolution::Unknown,
        }
    }
}

/// Per-loop scalar-evolution query engine over an [`Ssa`] form.
pub struct ScalarEvolution<'a> {
    program: &'a Program,
    ssa: &'a Ssa,
    lp: &'a Loop,
    /// Memoized evolutions; `None` marks "in progress" for cycle
    /// breaking (any cycle not through a recognized header φ is
    /// `Unknown`).
    memo: BTreeMap<ValueId, Option<Evolution>>,
}

impl<'a> ScalarEvolution<'a> {
    /// Creates an engine for values relative to loop `lp`.
    pub fn new(program: &'a Program, ssa: &'a Ssa, lp: &'a Loop) -> ScalarEvolution<'a> {
        ScalarEvolution {
            program,
            ssa,
            lp,
            memo: BTreeMap::new(),
        }
    }

    /// The evolution of `v` relative to the loop.
    pub fn evolution(&mut self, v: ValueId) -> Evolution {
        if let Some(state) = self.memo.get(&v) {
            // `None` = currently being computed: a cycle that is not a
            // recognized header φ recurrence.
            return state.unwrap_or(Evolution::Unknown);
        }
        self.memo.insert(v, None);
        let result = self.compute(v);
        self.memo.insert(v, Some(result));
        result
    }

    fn compute(&mut self, v: ValueId) -> Evolution {
        match self.ssa.value(v).clone() {
            ValueDef::Entry { .. } => Evolution::Invariant,
            ValueDef::CallClobber { .. } => Evolution::Unknown,
            ValueDef::Instr { instr } => {
                if !self.lp.contains(self.ssa.block_of_instr(instr)) {
                    return Evolution::Invariant;
                }
                self.instr_evolution(instr)
            }
            ValueDef::Phi { phi } => {
                let p = self.ssa.phi(phi).clone();
                if !self.lp.contains(p.block) {
                    return Evolution::Invariant;
                }
                if p.block == self.lp.header {
                    return self.header_phi_evolution(v, &p.inputs);
                }
                // A join inside the loop body: invariant if every input
                // is, the same constant if all inputs agree.
                let evos: Vec<Evolution> =
                    p.inputs.iter().map(|&(_, i)| self.evolution(i)).collect();
                if let [first, rest @ ..] = evos.as_slice() {
                    if matches!(first, Evolution::Const(_)) && rest.iter().all(|e| e == first) {
                        return *first;
                    }
                    if evos.iter().all(|e| e.is_invariant()) {
                        return Evolution::Invariant;
                    }
                }
                Evolution::Unknown
            }
        }
    }

    fn instr_evolution(&mut self, instr: usize) -> Evolution {
        let text = self.program.text();
        let uses = self.ssa.uses_of(instr).to_vec();
        match text[instr] {
            Instr::Lui { imm, .. } => Evolution::Const((imm as i64) << 12),
            Instr::Addi { imm, .. } => {
                let base = self.use_evolution(&uses, 0);
                base.add_const(imm as i64)
            }
            Instr::Add { .. } => {
                let a = self.use_evolution(&uses, 0);
                let b = self.use_evolution(&uses, 1);
                combine_add(a, b)
            }
            Instr::Sub { .. } => {
                let a = self.use_evolution(&uses, 0);
                let b = self.use_evolution(&uses, 1);
                combine_sub(a, b)
            }
            Instr::Slli { shamt, .. } => match self.use_evolution(&uses, 0) {
                Evolution::Const(c) => Evolution::Const(c.wrapping_shl(shamt as u32)),
                Evolution::Invariant => Evolution::Invariant,
                Evolution::Affine { stride } => Evolution::Affine {
                    stride: stride.wrapping_shl(shamt as u32),
                },
                Evolution::Unknown => Evolution::Unknown,
            },
            // Any other register-writing instruction inside the loop
            // (loads, comparisons, shifts by register, calls' link
            // writes …) is not tracked.
            _ => Evolution::Unknown,
        }
    }

    /// A use of the zero register is the constant 0; otherwise recurse
    /// on the SSA value.
    fn use_evolution(&mut self, uses: &[ValueId], nth: usize) -> Evolution {
        match uses.get(nth) {
            Some(&v) => {
                if let ValueDef::Entry { slot } = self.ssa.value(v) {
                    if *slot == 0 {
                        return Evolution::Const(0);
                    }
                }
                self.evolution(v)
            }
            None => Evolution::Unknown,
        }
    }

    /// A header φ is the loop's recurrence point: if every
    /// outside-the-loop input is invariant and every back-edge input
    /// walks an `addi`/`add`-constant chain back to this φ, the φ is
    /// `Affine { stride }` (collapsing to `Invariant` when the stride is
    /// zero).
    fn header_phi_evolution(
        &mut self,
        phi_value: ValueId,
        inputs: &[(usize, ValueId)],
    ) -> Evolution {
        let mut stride: Option<i64> = None;
        for &(pred, input) in inputs {
            if self.lp.contains(pred) {
                // Back edge: must be `phi + c` for a constant chain.
                match self.stride_to(input, phi_value, 0, 32) {
                    Some(c) => match stride {
                        None => stride = Some(c),
                        Some(prev) if prev == c => {}
                        Some(_) => return Evolution::Unknown,
                    },
                    None => return Evolution::Unknown,
                }
            } else {
                // Entry edge: the initial value must not depend on the
                // loop.
                if !self.evolution(input).is_invariant() {
                    return Evolution::Unknown;
                }
            }
        }
        match stride {
            Some(0) | None => Evolution::Invariant,
            Some(s) => Evolution::Affine { stride: s },
        }
    }

    /// Whether `v` is `target + c` through a chain of constant
    /// additions; returns `c` if so. Used by the classifier to detect
    /// memory induction variables (`cell = cell + c`).
    pub fn const_offset_from(&mut self, v: ValueId, target: ValueId) -> Option<i64> {
        self.stride_to(v, target, 0, 32)
    }

    /// Walks `v` backwards through constant-add chains looking for
    /// `target`; returns the accumulated constant if found.
    fn stride_to(&mut self, v: ValueId, target: ValueId, acc: i64, depth: u32) -> Option<i64> {
        if v == target {
            return Some(acc);
        }
        if depth == 0 {
            return None;
        }
        match self.ssa.value(v).clone() {
            ValueDef::Instr { instr } => {
                let text = self.program.text();
                let uses = self.ssa.uses_of(instr).to_vec();
                match text[instr] {
                    Instr::Addi { imm, .. } => self.stride_to(
                        *uses.first()?,
                        target,
                        acc.wrapping_add(imm as i64),
                        depth - 1,
                    ),
                    Instr::Add { .. } => {
                        // `add phi_chain, const_chain` in either order.
                        let a = *uses.first()?;
                        let b = *uses.get(1)?;
                        if let Evolution::Const(c) = self.evolution(b) {
                            if let Some(r) =
                                self.stride_to(a, target, acc.wrapping_add(c), depth - 1)
                            {
                                return Some(r);
                            }
                        }
                        if let Evolution::Const(c) = self.evolution(a) {
                            return self.stride_to(b, target, acc.wrapping_add(c), depth - 1);
                        }
                        None
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }
}

fn combine_add(a: Evolution, b: Evolution) -> Evolution {
    use Evolution::*;
    match (a, b) {
        (Const(x), Const(y)) => Const(x.wrapping_add(y)),
        (Unknown, _) | (_, Unknown) => Unknown,
        (Affine { stride: s1 }, Affine { stride: s2 }) => {
            let s = s1.wrapping_add(s2);
            if s == 0 {
                // Two counter-rotating recurrences: the sum is constant
                // across iterations only relative to its base, which we
                // do not track — stay conservative.
                Unknown
            } else {
                Affine { stride: s }
            }
        }
        (Affine { stride }, other) | (other, Affine { stride }) if other.is_invariant() => {
            Affine { stride }
        }
        (x, y) if x.is_invariant() && y.is_invariant() => Invariant,
        _ => Unknown,
    }
}

fn combine_sub(a: Evolution, b: Evolution) -> Evolution {
    use Evolution::*;
    match b {
        Const(c) => combine_add(a, Const(c.wrapping_neg())),
        Invariant => combine_add(a, Invariant),
        Affine { stride } => combine_add(
            a,
            Affine {
                stride: stride.wrapping_neg(),
            },
        ),
        Unknown => Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::ssa::FlowGraph;
    use lvp_isa::{AsmProfile, Assembler, Program};

    fn setup(src: &str) -> (Program, Cfg) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        (p, cfg)
    }

    #[test]
    fn counted_loop_induction_is_affine() {
        let (p, cfg) = setup(
            "main:\n li a0, 0\n li a1, 10\nloop:\n addi a0, a0, 3\n bne a0, a1, loop\n\
             out a0\n halt\n",
        );
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        assert_eq!(forest.loops().len(), 1);
        let lp = &forest.loops()[0];
        let mut scev = ScalarEvolution::new(&p, &ssa, lp);
        // The addi at index 2 defines the next iteration's a0.
        let next = ssa.def_of(2).unwrap();
        assert_eq!(scev.evolution(next), Evolution::Affine { stride: 3 });
        // Its input (the header φ) is also affine with stride 3.
        let phi = ssa.value_for_use(2, 0).unwrap();
        assert_eq!(scev.evolution(phi), Evolution::Affine { stride: 3 });
        // The bound a1 is invariant.
        let bound = ssa.value_for_use(3, 1).unwrap();
        assert!(scev.evolution(bound).is_invariant());
    }

    #[test]
    fn decrementing_loop_has_negative_stride() {
        let (p, cfg) = setup(
            "main:\n li a0, 10\nloop:\n addi a0, a0, -1\n bne a0, zero, loop\n out a0\n halt\n",
        );
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        let lp = &forest.loops()[0];
        let mut scev = ScalarEvolution::new(&p, &ssa, lp);
        let phi = ssa.value_for_use(1, 0).unwrap();
        assert_eq!(scev.evolution(phi), Evolution::Affine { stride: -1 });
    }

    #[test]
    fn scaled_induction_scales_the_stride() {
        // idx = i * 8 via slli: stride 1 << 3 = 8.
        let (p, cfg) = setup(
            "main:\n li a0, 0\n li a1, 10\nloop:\n slli a2, a0, 3\n addi a0, a0, 1\n\
             bne a0, a1, loop\n out a2\n halt\n",
        );
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        let lp = &forest.loops()[0];
        let mut scev = ScalarEvolution::new(&p, &ssa, lp);
        let scaled = ssa.def_of(2).unwrap(); // slli
        assert_eq!(scev.evolution(scaled), Evolution::Affine { stride: 8 });
    }

    #[test]
    fn value_updated_by_nonconstant_is_unknown() {
        // a0 += a2 where a2 is itself loaded each iteration: not affine.
        let (p, cfg) = setup(
            "main:\n li a0, 0\n li a1, 10\n li a3, 0\nloop:\n add a0, a0, a2\n\
             addi a3, a3, 1\n bne a3, a1, loop\n out a0\n halt\n",
        );
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        let lp = &forest.loops()[0];
        let mut scev = ScalarEvolution::new(&p, &ssa, lp);
        // a2 is the uninitialized entry value — invariant — so
        // a0 = a0 + invariant is NOT a constant-stride recurrence our
        // chain walk recognizes (the stride is symbolic).
        let phi = ssa.value_for_use(3, 0).unwrap();
        assert_eq!(scev.evolution(phi), Evolution::Unknown);
    }

    #[test]
    fn loop_with_call_clobbers_tracking() {
        let (p, cfg) = setup(
            "main:\n li t0, 0\n li s1, 10\nloop:\n addi t0, t0, 1\n jal ra, f\n\
             bne t0, s1, loop\n out t0\n halt\nf:\n jalr zero, ra, 0\n",
        );
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        assert_eq!(forest.loops().len(), 1);
        let lp = &forest.loops()[0];
        let mut scev = ScalarEvolution::new(&p, &ssa, lp);
        // t0 is caller-saved: the call clobbers it, so the branch reads
        // a clobber value — Unknown, not Affine.
        let t0_at_branch = ssa.value_for_use(4, 0).unwrap();
        assert_eq!(scev.evolution(t0_at_branch), Evolution::Unknown);
        // s1 is callee-saved: still invariant across the call.
        let s1_at_branch = ssa.value_for_use(4, 1).unwrap();
        assert!(scev.evolution(s1_at_branch).is_invariant());
    }
}
