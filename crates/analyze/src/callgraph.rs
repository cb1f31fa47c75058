//! Whole-program call graph over the LRISC text segment.
//!
//! Functions are the text-contiguous partition induced by *function
//! entries*: the program entry point, every target of a direct linking
//! `jal`, and every text symbol the preceding instruction cannot fall
//! into (a label after a return, `halt`, or unconditional jump starts a
//! function; a loop or join label inside straight-line flow does not).
//! Call edges come from three places:
//!
//! * a linking `jal` — a direct call to the target's function;
//! * a linking `jalr` — an indirect call, *bounded* by the points-to
//!   lattice: when the alias fixpoint proves the target register holds
//!   an exact address, the edge is a singleton; otherwise the
//!   conservative bound is every symbol-named function (the
//!   address-taken set under our assembler, which materializes function
//!   addresses only through symbols);
//! * a direct jump or conditional branch whose target lies in a
//!   *different* function, and straight-line fall-through off the end of
//!   one function into the next — tail transfers that carry the callee's
//!   effects without a link.
//!
//! A non-linking `jalr` off `ra` (or any register that is not provably
//! a function address) is a *return* and contributes no edge — this is
//! what lets [`CallGraph::unreachable_functions`] see dead functions the
//! block-level `LVP002` reachability cannot (the block CFG
//! conservatively wires every return site to every indirect target).
//!
//! The condensation (iterative Tarjan) emits SCCs in callee-first
//! (reverse topological) order, which is exactly the bottom-up order the
//! interprocedural summary pass needs, and marks the recursive SCCs. An
//! SCC counts as recursive only when a *linking* call closes the cycle:
//! a cycle closed purely by tail transfers (e.g. a loop around an
//! unconditional-jump partition fragment) condenses but is not
//! recursion.

use crate::alias::{AbsVal, AliasAnalysis};
use lvp_isa::{CtrlFlow, Instr, Program, INSTR_BYTES, TEXT_BASE};
use std::collections::BTreeSet;

/// One function: a contiguous range of text instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
    /// Entry pc (`TEXT_BASE + 4·start`).
    pub entry_pc: u64,
    /// Symbol name, when a text symbol labels the entry.
    pub name: Option<String>,
}

/// The bounded callee set of one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// Direct call (or exactly-resolved indirect call) to one function.
    Direct(usize),
    /// Indirect call bounded to the symbol-named (address-taken)
    /// functions.
    AnySymbol,
}

/// One call instruction with its resolved callee bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Instruction index of the call.
    pub instr: usize,
    /// Pc of the call.
    pub pc: u64,
    /// Caller function index.
    pub caller: usize,
    /// Bounded callee set.
    pub target: CallTarget,
}

/// The program call graph with its SCC condensation.
#[derive(Debug, Clone)]
pub struct CallGraph {
    functions: Vec<Function>,
    sites: Vec<CallSite>,
    /// Per-function callee set (tail transfers included); `usize::MAX`
    /// never appears — unbounded sites instead set `has_unbounded`.
    callees: Vec<BTreeSet<usize>>,
    /// Function has at least one unbounded (any-symbol) call site.
    has_unbounded: Vec<bool>,
    /// SCCs in callee-first (reverse topological) order.
    sccs: Vec<Vec<usize>>,
    scc_of: Vec<usize>,
    /// Per-SCC: a linking call closes a cycle inside the SCC.
    recursive: Vec<bool>,
    /// Per-function reachability from the entry function.
    reachable: Vec<bool>,
}

impl CallGraph {
    /// Builds the call graph, bounding indirect calls with the alias
    /// fixpoint's value of each `jalr`'s base register.
    pub fn build(program: &Program, alias: &AliasAnalysis) -> CallGraph {
        let text = program.text();
        let n = text.len();
        let index_of = |pc: u64| -> Option<usize> {
            let rel = pc.wrapping_sub(TEXT_BASE);
            (rel.is_multiple_of(INSTR_BYTES) && rel / INSTR_BYTES < n as u64)
                .then_some((rel / INSTR_BYTES) as usize)
        };

        // --- Function partition. A symbol is an entry only when the
        // preceding instruction cannot fall into it: loop/join labels
        // inside straight-line flow stay part of their function. ---
        let no_fall_into = |i: usize| -> bool {
            if i == 0 {
                return true;
            }
            match text[i - 1].control_flow() {
                CtrlFlow::Fall | CtrlFlow::CondBranch { .. } => false,
                CtrlFlow::Jump { .. } => {
                    // A linking jal falls through on return.
                    !matches!(text[i - 1], Instr::Jal { rd, .. } if !rd.is_zero())
                }
                CtrlFlow::IndirectJump { .. } => {
                    !matches!(text[i - 1], Instr::Jalr { rd, .. } if !rd.is_zero())
                }
                CtrlFlow::Halt => true,
            }
        };
        let mut entries: BTreeSet<usize> = BTreeSet::new();
        if let Some(e) = index_of(program.entry()) {
            entries.insert(e);
        }
        for &pc in program.symbols().values() {
            if let Some(i) = index_of(pc) {
                if no_fall_into(i) {
                    entries.insert(i);
                }
            }
        }
        for (i, instr) in text.iter().enumerate() {
            if let Instr::Jal { rd, offset } = *instr {
                if !rd.is_zero() {
                    let target = (TEXT_BASE + INSTR_BYTES * i as u64).wrapping_add(offset as u64);
                    if let Some(t) = index_of(target) {
                        entries.insert(t);
                    }
                }
            }
        }
        if n > 0 {
            entries.insert(0);
        }
        let starts: Vec<usize> = entries.into_iter().collect();
        let mut functions: Vec<Function> = Vec::with_capacity(starts.len());
        for (k, &start) in starts.iter().enumerate() {
            let end = starts.get(k + 1).copied().unwrap_or(n);
            let entry_pc = TEXT_BASE + INSTR_BYTES * start as u64;
            let name = program
                .symbols()
                .iter()
                .find(|&(_, &pc)| pc == entry_pc)
                .map(|(name, _)| name.clone());
            functions.push(Function {
                start,
                end,
                entry_pc,
                name,
            });
        }
        let func_of = |i: usize| -> usize {
            functions
                .partition_point(|f| f.start <= i)
                .saturating_sub(1)
        };
        let symbol_funcs: Vec<usize> = functions
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name.is_some())
            .map(|(k, _)| k)
            .collect();

        // --- Call sites and edges. ---
        let nf = functions.len();
        let mut sites: Vec<CallSite> = Vec::new();
        let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nf];
        let mut call_edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nf];
        let mut has_unbounded = vec![false; nf];
        for (i, instr) in text.iter().enumerate() {
            let pc = TEXT_BASE + INSTR_BYTES * i as u64;
            let caller = func_of(i);
            match instr.control_flow() {
                CtrlFlow::Jump { offset } => {
                    let Some(t) = index_of(pc.wrapping_add(offset as u64)) else {
                        continue;
                    };
                    let callee = func_of(t);
                    let linking = matches!(*instr, Instr::Jal { rd, .. } if !rd.is_zero());
                    if linking {
                        callees[caller].insert(callee);
                        call_edges[caller].insert(callee);
                        sites.push(CallSite {
                            instr: i,
                            pc,
                            caller,
                            target: CallTarget::Direct(callee),
                        });
                    } else if callee != caller {
                        // Tail transfer: effects flow, no link.
                        callees[caller].insert(callee);
                    }
                }
                CtrlFlow::CondBranch { offset } => {
                    if let Some(t) = index_of(pc.wrapping_add(offset as u64)) {
                        let callee = func_of(t);
                        if callee != caller {
                            callees[caller].insert(callee);
                        }
                    }
                }
                CtrlFlow::IndirectJump { base, offset } => {
                    let linking = matches!(*instr, Instr::Jalr { rd, .. } if !rd.is_zero());
                    let exact = match alias.value(i) {
                        Some(AbsVal::Exact(a)) => {
                            index_of(a.wrapping_add(offset as u64) & !1).map(&func_of)
                        }
                        _ => None,
                    };
                    if let Some(callee) = exact {
                        callees[caller].insert(callee);
                        if linking {
                            call_edges[caller].insert(callee);
                            sites.push(CallSite {
                                instr: i,
                                pc,
                                caller,
                                target: CallTarget::Direct(callee),
                            });
                        }
                    } else if linking {
                        // Indirect call with an unresolved target:
                        // bounded by the address-taken (symbol) set.
                        has_unbounded[caller] = true;
                        for &s in &symbol_funcs {
                            callees[caller].insert(s);
                            call_edges[caller].insert(s);
                        }
                        sites.push(CallSite {
                            instr: i,
                            pc,
                            caller,
                            target: CallTarget::AnySymbol,
                        });
                    }
                    // Non-linking unresolved jalr: a return — no edge.
                    let _ = base;
                }
                CtrlFlow::Fall | CtrlFlow::Halt => {}
            }
            // Straight-line fall-through into the next function.
            let falls = matches!(
                instr.control_flow(),
                CtrlFlow::Fall | CtrlFlow::CondBranch { .. }
            );
            if falls && i + 1 < n && func_of(i + 1) != caller {
                callees[caller].insert(func_of(i + 1));
            }
        }

        // --- SCC condensation (iterative Tarjan, callee-first order). ---
        let (sccs, scc_of) = tarjan(nf, &callees);
        let recursive = sccs
            .iter()
            .enumerate()
            .map(|(s, scc)| {
                scc.iter()
                    .any(|&f| call_edges[f].iter().any(|&c| scc_of[c] == s))
            })
            .collect();

        // --- Reachability over call edges from the entry function. ---
        let mut reachable = vec![false; nf];
        if nf > 0 {
            let entry_fn = index_of(program.entry()).map(&func_of).unwrap_or(0);
            let mut stack = vec![entry_fn];
            reachable[entry_fn] = true;
            while let Some(f) = stack.pop() {
                for &c in &callees[f] {
                    if !reachable[c] {
                        reachable[c] = true;
                        stack.push(c);
                    }
                }
            }
        }

        CallGraph {
            functions,
            sites,
            callees,
            has_unbounded,
            sccs,
            scc_of,
            recursive,
            reachable,
        }
    }

    /// The functions, in text order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// The call sites, in text order.
    pub fn sites(&self) -> &[CallSite] {
        &self.sites
    }

    /// The function containing instruction `i`.
    pub fn function_of_instr(&self, i: usize) -> usize {
        self.functions
            .partition_point(|f| f.start <= i)
            .saturating_sub(1)
    }

    /// The bounded callee set of function `f` (tail transfers included).
    pub fn callees(&self, f: usize) -> &BTreeSet<usize> {
        &self.callees[f]
    }

    /// Whether function `f` has a call site whose target could not be
    /// bounded below the full symbol set.
    pub fn has_unbounded_site(&self, f: usize) -> bool {
        self.has_unbounded[f]
    }

    /// The SCCs in callee-first (reverse topological) order — the
    /// bottom-up order for summary computation.
    pub fn sccs(&self) -> &[Vec<usize>] {
        &self.sccs
    }

    /// The SCC index of function `f`.
    pub fn scc_of(&self, f: usize) -> usize {
        self.scc_of[f]
    }

    /// Whether SCC `s` contains a cycle (recursion).
    pub fn is_recursive_scc(&self, s: usize) -> bool {
        self.recursive[s]
    }

    /// Whether function `f` sits in (or transitively calls into) a
    /// recursive SCC.
    pub fn calls_recursion(&self, f: usize) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            if self.recursive[self.scc_of[g]] {
                return true;
            }
            stack.extend(self.callees[g].iter().copied());
        }
        false
    }

    /// Whether function `f` is reachable from the entry function over
    /// call, tail-transfer and fall-through edges.
    pub fn reachable(&self, f: usize) -> bool {
        self.reachable[f]
    }

    /// The unreachable *named* functions — the `LVP017` candidates.
    /// Unnamed partition fragments (e.g. code after an unconditional
    /// jump that no symbol labels) stay `LVP002` territory.
    pub fn unreachable_functions(&self) -> Vec<usize> {
        (0..self.functions.len())
            .filter(|&f| !self.reachable[f] && self.functions[f].name.is_some())
            .collect()
    }
}

/// Iterative Tarjan SCC; returns the SCCs in callee-first (reverse
/// topological) order and each node's SCC index.
fn tarjan(n: usize, edges: &[BTreeSet<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next_index = 0usize;

    // Explicit DFS frames: (node, edge iterator position).
    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        let mut frames: Vec<(usize, std::collections::btree_set::Iter<'_, usize>)> = Vec::new();
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, edges[root].iter()));
        while let Some((v, it)) = frames.last_mut() {
            let v = *v;
            if let Some(&w) = it.next() {
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, edges[w].iter()));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len();
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    (sccs, scc_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::regions::RegionMap;
    use lvp_isa::{AsmProfile, Assembler};

    fn graph(src: &str) -> (Program, CallGraph) {
        let p = Assembler::new(AsmProfile::Gp).assemble(src).unwrap();
        let cfg = Cfg::build(&p);
        let regions = RegionMap::new(&p);
        let alias = AliasAnalysis::compute(&p, &cfg, &regions);
        let cg = CallGraph::build(&p, &alias);
        (p, cg)
    }

    fn fn_named<'a>(cg: &'a CallGraph, name: &str) -> (usize, &'a Function) {
        cg.functions()
            .iter()
            .enumerate()
            .find(|(_, f)| f.name.as_deref() == Some(name))
            .unwrap_or_else(|| panic!("no function named {name}"))
    }

    #[test]
    fn direct_call_edge_and_partition() {
        let (_, cg) = graph(
            "main:\n jal ra, f\n halt\nf:\n li a0, 1\n jalr zero, ra, 0\n\
             g:\n jalr zero, ra, 0\n",
        );
        let (main_i, _) = fn_named(&cg, "main");
        let (f_i, _) = fn_named(&cg, "f");
        let (g_i, _) = fn_named(&cg, "g");
        assert!(cg.callees(main_i).contains(&f_i));
        assert!(!cg.callees(main_i).contains(&g_i));
        assert!(cg.reachable(f_i));
        assert!(!cg.reachable(g_i), "g is never called");
        assert_eq!(cg.unreachable_functions(), vec![g_i]);
    }

    #[test]
    fn direct_recursion_is_a_recursive_scc() {
        let (_, cg) = graph(
            "main:\n jal ra, f\n halt\nf:\n beq a0, zero, done\n addi a0, a0, -1\n \
             jal ra, f\ndone:\n jalr zero, ra, 0\n",
        );
        let (f_i, _) = fn_named(&cg, "f");
        assert!(cg.is_recursive_scc(cg.scc_of(f_i)));
        assert!(cg.calls_recursion(f_i));
        let (main_i, _) = fn_named(&cg, "main");
        assert!(!cg.is_recursive_scc(cg.scc_of(main_i)));
        assert!(cg.calls_recursion(main_i), "main calls into the cycle");
    }

    #[test]
    fn mutual_recursion_shares_an_scc() {
        let (_, cg) = graph(
            "main:\n jal ra, even\n halt\n\
             even:\n beq a0, zero, et\n addi a0, a0, -1\n jal ra, odd\net:\n jalr zero, ra, 0\n\
             odd:\n beq a0, zero, ot\n addi a0, a0, -1\n jal ra, even\not:\n jalr zero, ra, 0\n",
        );
        let (e, _) = fn_named(&cg, "even");
        let (o, _) = fn_named(&cg, "odd");
        assert_eq!(cg.scc_of(e), cg.scc_of(o), "mutual recursion: one SCC");
        assert!(cg.is_recursive_scc(cg.scc_of(e)));
    }

    #[test]
    fn sccs_are_callee_first() {
        let (_, cg) = graph(
            "main:\n jal ra, f\n halt\nf:\n jal ra, g\n jalr zero, ra, 0\n\
             g:\n jalr zero, ra, 0\n",
        );
        let (main_i, _) = fn_named(&cg, "main");
        let (f_i, _) = fn_named(&cg, "f");
        let (g_i, _) = fn_named(&cg, "g");
        let pos = |f: usize| {
            cg.sccs()
                .iter()
                .position(|scc| scc.contains(&f))
                .expect("every function is in an SCC")
        };
        assert!(pos(g_i) < pos(f_i), "callee g before caller f");
        assert!(pos(f_i) < pos(main_i), "callee f before caller main");
    }

    #[test]
    fn exact_jalr_target_is_a_singleton_edge() {
        // `la` materializes f's address; the points-to lattice proves
        // the jalr target exactly, so no any-symbol fan-out.
        let (_, cg) = graph(
            "main:\n la t0, f\n jalr ra, t0, 0\n halt\n\
             f:\n jalr zero, ra, 0\ng:\n jalr zero, ra, 0\n",
        );
        let (main_i, _) = fn_named(&cg, "main");
        let (f_i, _) = fn_named(&cg, "f");
        let (g_i, _) = fn_named(&cg, "g");
        assert!(cg.callees(main_i).contains(&f_i));
        assert!(!cg.callees(main_i).contains(&g_i));
        assert!(!cg.has_unbounded_site(main_i));
        assert_eq!(cg.unreachable_functions(), vec![g_i]);
    }

    #[test]
    fn unresolved_jalr_fans_out_to_all_symbols() {
        // The target register comes from memory: unknown, so the call is
        // bounded by the full symbol set and nothing is unreachable.
        let (_, cg) = graph(
            ".data\nfp: .dword 0\n.text\n\
             main:\n la t0, fp\n ld t1, 0(t0)\n jalr ra, t1, 0\n halt\n\
             f:\n jalr zero, ra, 0\ng:\n jalr zero, ra, 0\n",
        );
        let (main_i, _) = fn_named(&cg, "main");
        assert!(cg.has_unbounded_site(main_i));
        assert!(cg.unreachable_functions().is_empty());
        assert!(cg.sites().iter().any(|s| s.target == CallTarget::AnySymbol));
    }

    #[test]
    fn loop_labels_do_not_fragment_functions() {
        // `loop` is fall-into-able, so it is not a function entry, and
        // the backward branch is not recursion.
        let (_, cg) =
            graph("main:\n li t0, 4\nloop:\n addi t0, t0, -1\n bne t0, zero, loop\n halt\n");
        assert_eq!(cg.functions().len(), 1);
        assert!(!cg.is_recursive_scc(cg.scc_of(0)));
        assert!(!cg.calls_recursion(0));
    }

    #[test]
    fn forty_function_mesh_terminates_and_is_fully_reachable() {
        // f0 -> f1 -> ... -> f39 -> f0: one big cycle, plus main.
        let mut src = String::from("main:\n jal ra, f0\n halt\n");
        for k in 0..40 {
            let next = (k + 1) % 40;
            src.push_str(&format!(
                "f{k}:\n sd ra, -8(sp)\n jal ra, f{next}\n ld ra, -8(sp)\n jalr zero, ra, 0\n"
            ));
        }
        let (_, cg) = graph(&src);
        assert_eq!(cg.functions().len(), 41);
        assert!(cg.unreachable_functions().is_empty());
        let (f0, _) = fn_named(&cg, "f0");
        let scc = cg.scc_of(f0);
        assert!(cg.is_recursive_scc(scc));
        assert_eq!(
            cg.sccs()[scc].len(),
            40,
            "the ring condenses into one 40-function SCC"
        );
    }
}
