//! SSA and scalar evolution on hostile CFGs, plus a differential test
//! pinning pruned SSA against classic reaching definitions.
//!
//! The SSA construction (multi-root dominators, pruned φ placement,
//! stack rename) is an independent reimplementation of def-use
//! information the crate already computes iteratively in
//! [`ReachingDefs`]. On the *raw* view the two must agree exactly: for
//! every register use, expanding the SSA value through its φs yields
//! precisely the set of definition sites the bit-vector fixpoint says
//! may reach that use. Running the comparison over irreducible loops,
//! dense pseudo-random meshes and seeded generated CFGs is the SSA
//! verifier's external ground truth (`LVP015` guards it in production;
//! this test guards `LVP015`).

mod hostile_fixtures;

use hostile_fixtures::{
    irreducible_mesh, IRREDUCIBLE, IRREDUCIBLE_UNINIT_READ, JALR_ONLY_FUNCTION, MUTUAL_RECURSION,
};
use lvp_analyze::{
    Cfg, Dominators, FlowGraph, LoopForest, ReachingDefs, ScalarEvolution, Ssa, SsaSite,
};
use lvp_isa::{AsmProfile, Assembler, Program};
use std::collections::BTreeSet;

fn assemble(src: &str) -> Program {
    Assembler::new(AsmProfile::Gp).assemble(src).unwrap()
}

/// Seeded CFG generator: `blocks` basic blocks over registers `a0..a5`,
/// each defining a pseudo-randomly chosen register (sometimes from
/// another register, creating one-sided def chains) and branching to a
/// pseudo-random block. A tiny LCG keeps it deterministic per seed.
fn generated_source(seed: u64, blocks: usize) -> String {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut src = String::from("main:\n li a0, 50\n");
    for i in 0..blocks {
        src.push_str(&format!("g{i}:\n"));
        match next(4) {
            // Define a register from itself (use + def).
            0 => {
                let r = next(6);
                src.push_str(&format!(" addi a{r}, a{r}, 1\n"));
            }
            // Define a register from another (cross-register flow).
            1 => {
                let (rd, rs) = (next(6), next(6));
                src.push_str(&format!(" add a{rd}, a{rs}, a{rs}\n"));
            }
            // Fresh constant definition.
            2 => {
                let r = next(6);
                src.push_str(&format!(" li a{r}, {}\n", next(100)));
            }
            // Pure use (keeps a value live across the mesh).
            _ => {
                let r = next(6);
                src.push_str(&format!(" out a{r}\n"));
            }
        }
        // Loop-ish back/cross edge plus fall-through; always decrement
        // the counter so dynamic execution would terminate (the tests
        // are static, but keep the shape honest).
        let target = next(blocks as u64);
        src.push_str(&format!(" addi a0, a0, -1\n bne a0, zero, g{target}\n"));
    }
    src.push_str(" out a0\n halt\n");
    src
}

/// Reference reaching-def sites for register slot `r` just before
/// instruction `i`, reconstructed from [`ReachingDefs`]' public
/// `sites`/`block_in`: the block's IN set filtered to `r`, overridden
/// by the nearest preceding in-block definition of `r`.
fn reference_sites(
    program: &Program,
    cfg: &Cfg,
    rd: &ReachingDefs,
    b: usize,
    i: usize,
    r: usize,
) -> BTreeSet<SsaSite> {
    let block = &cfg.blocks()[b];
    let mut local: Option<usize> = None;
    for j in block.start..i {
        if let Some(d) = program.text()[j].defs() {
            if d.flat_index() == r {
                local = Some(j);
            }
        }
    }
    if let Some(j) = local {
        return [SsaSite::Instr(j)].into();
    }
    rd.block_in[b]
        .iter()
        .filter(|&s| rd.sites[s].reg == r)
        .map(|s| match rd.sites[s].instr {
            None => SsaSite::Entry(r),
            Some(j) => SsaSite::Instr(j),
        })
        .collect()
}

/// The differential core: on the raw view, every use's expanded SSA
/// value must equal the reaching-defs reference exactly.
fn assert_ssa_matches_reaching_defs(program: &Program) {
    let cfg = Cfg::build(program);
    let g = FlowGraph::raw(&cfg);
    let dom = Dominators::compute(&g);
    let ssa = Ssa::build(program, &cfg, &g, &dom);
    let errors = ssa.verify(&g, &dom);
    assert!(errors.is_empty(), "SSA verifier: {errors:?}");
    let rd = ReachingDefs::compute(program, &cfg);

    for (b, block) in cfg.blocks().iter().enumerate() {
        if !dom.reachable(b) {
            continue;
        }
        for i in block.start..block.end {
            let instr = &program.text()[i];
            for (nth, u) in instr.uses().enumerate() {
                let r = u.flat_index();
                let Some(v) = ssa.value_for_use(i, nth) else {
                    panic!("no SSA value for use {nth} of instr {i} ({instr})");
                };
                let got = ssa.expand(v);
                let want = reference_sites(program, &cfg, &rd, b, i, r);
                assert_eq!(
                    got, want,
                    "instr {i} ({instr}) use {nth} (slot {r}): SSA {got:?} vs reaching-defs {want:?}"
                );
            }
        }
    }
}

#[test]
fn differential_irreducible() {
    assert_ssa_matches_reaching_defs(&assemble(IRREDUCIBLE));
}

#[test]
fn differential_mesh_40() {
    assert_ssa_matches_reaching_defs(&assemble(&irreducible_mesh(40)));
}

#[test]
fn differential_generated_cfgs() {
    // 8 seeds × 18 blocks each; every generated CFG must agree.
    for seed in 0..8u64 {
        let src = generated_source(seed, 18);
        let p = Assembler::new(AsmProfile::Gp)
            .assemble(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        assert_ssa_matches_reaching_defs(&p);
    }
}

#[test]
fn ssa_verifies_on_both_views_for_hostile_shapes() {
    // The local (call-summarized, multi-root) view must also build and
    // self-verify on irreducible and generated shapes.
    let mut sources: Vec<String> = [
        IRREDUCIBLE,
        IRREDUCIBLE_UNINIT_READ,
        JALR_ONLY_FUNCTION,
        MUTUAL_RECURSION,
    ]
    .map(String::from)
    .into();
    sources.push(irreducible_mesh(40));
    sources.extend((0..4u64).map(|s| generated_source(s, 14)));
    for src in &sources {
        let p = assemble(src);
        let cfg = Cfg::build(&p);
        for g in [FlowGraph::raw(&cfg), FlowGraph::local(&p, &cfg)] {
            let dom = Dominators::compute(&g);
            let ssa = Ssa::build(&p, &cfg, &g, &dom);
            let errors = ssa.verify(&g, &dom);
            assert!(errors.is_empty(), "SSA verifier: {errors:?}\n{src}");
        }
    }
}

#[test]
fn loop_forest_and_scev_terminate_on_irreducible_mesh() {
    // Natural-loop detection on an irreducible mesh: back edges whose
    // target dominates the source still form well-defined loops; the
    // cross edges that make the region irreducible simply aren't back
    // edges. SCEV over every value of every detected loop must
    // terminate (memoized cycle guard) without panicking.
    for src in [irreducible_mesh(40), generated_source(3, 20)] {
        let p = assemble(&src);
        let cfg = Cfg::build(&p);
        let g = FlowGraph::local(&p, &cfg);
        let dom = Dominators::compute(&g);
        let ssa = Ssa::build(&p, &cfg, &g, &dom);
        let forest = LoopForest::compute(&g, &dom);
        for lp in forest.loops() {
            assert!(
                lp.body.contains(&lp.header),
                "loop body must contain its header"
            );
            let mut scev = ScalarEvolution::new(&p, &ssa, lp);
            for v in 0..ssa.num_values() {
                let _ = scev.evolution(lvp_analyze::ValueId(v as u32));
            }
        }
    }
}

#[test]
fn irreducible_region_yields_no_false_affine_claims() {
    // The irreducible diamond has a1 incremented by different amounts on
    // the two sides: any header φ the analysis sees must not be claimed
    // affine (the per-iteration delta is path-dependent).
    let p = assemble(IRREDUCIBLE);
    let report = lvp_analyze::analyze_value_flow(&p);
    assert!(
        report.affine_claims().is_empty(),
        "irreducible region produced affine claims: {:?}",
        report.affine_claims()
    );
}
