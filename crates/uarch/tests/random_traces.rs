//! Seeded randomized tests of the timing models and the cache:
//! model-based cache checking, and whole-simulator invariants on random
//! well-formed traces and prediction outcomes. The 21164 has no other
//! differential oracle, so these invariants are its main random check.

use lvp_trace::rng::Lcg;
use lvp_trace::{BranchEvent, MemAccess, OpKind, PredOutcome, RegRef, Trace, TraceEntry};
use lvp_uarch::{simulate_21164, simulate_620, Alpha21164Config, Cache, CacheConfig, Ppc620Config};
use std::collections::VecDeque;

const SEED: u64 = 0x0a2c_4620_2116_4996;
/// Random address streams or traces per property.
const CASES: u64 = 64;

/// One trace entry of the random generator's six shapes. `slot` picks
/// one of 64 pcs; `reg` is the destination (source for stores) register;
/// `operand` is the int source register, the data slot (0..256) of a
/// load or store, or the taken bit of a branch.
fn entry(kind: OpKind, slot: u64, reg: u8, operand: u64) -> TraceEntry {
    let mut e = TraceEntry::simple(0x10000 + slot * 4, kind);
    let data = |value| MemAccess {
        addr: 0x10_0000 + operand * 8,
        width: 8,
        value,
        fp: false,
    };
    match kind {
        OpKind::IntSimple => {
            e.dst = Some(RegRef::int(reg));
            e.srcs[0] = Some(RegRef::int(operand as u8));
        }
        OpKind::IntComplex => e.dst = Some(RegRef::int(reg)),
        OpKind::Load => {
            e.dst = Some(RegRef::int(reg));
            e.srcs[0] = Some(RegRef::int(2));
            e.mem = Some(data(operand));
        }
        OpKind::Store => {
            e.srcs = [Some(RegRef::int(2)), Some(RegRef::int(reg))];
            e.mem = Some(data(1));
        }
        OpKind::CondBranch => {
            e.srcs[0] = Some(RegRef::int(5));
            e.branch = Some(BranchEvent {
                taken: operand == 1,
                target: 0x10000,
            });
        }
        OpKind::FpComplex => {
            e.dst = Some(RegRef::fp(reg));
            e.srcs[0] = Some(RegRef::fp(0));
        }
        other => unreachable!("the generator emits no {other:?}"),
    }
    e
}

/// Up to 400 entries: ALU ops, loads and stores over 256 data slots,
/// branches and FP ops, weighted 4:1:3:2:1:1.
fn random_trace(rng: &mut Lcg) -> Trace {
    (0..rng.below(400))
        .map(|_| {
            let kind = match rng.below(12) {
                0..=3 => OpKind::IntSimple,
                4 => OpKind::IntComplex,
                5..=7 => OpKind::Load,
                8 | 9 => OpKind::Store,
                10 => OpKind::CondBranch,
                _ => OpKind::FpComplex,
            };
            let slot = rng.below(64);
            let (reg, operand) = match kind {
                OpKind::IntSimple => (rng.range(1, 16), rng.range(1, 16)),
                OpKind::Load | OpKind::Store => (rng.range(1, 16), rng.below(256)),
                OpKind::CondBranch => (0, rng.below(2)),
                OpKind::FpComplex => (rng.range(1, 4), 0),
                _ => (rng.range(1, 16), 0),
            };
            entry(kind, slot, reg as u8, operand)
        })
        .collect()
}

fn random_outcomes(rng: &mut Lcg, loads: u64) -> Vec<PredOutcome> {
    const ALL: [PredOutcome; 4] = [
        PredOutcome::NotPredicted,
        PredOutcome::Incorrect,
        PredOutcome::Correct,
        PredOutcome::Constant,
    ];
    (0..loads).map(|_| *rng.pick(&ALL)).collect()
}

/// A 167-entry trace once shrunk from a failing random case, in
/// [`entry`] arguments.
#[rustfmt::skip]
const PINNED_TRACE: [(OpKind, u64, u8, u64); 167] = {
    use OpKind::*;
    [
        (Load, 55, 10, 68), (IntSimple, 59, 14, 15), (IntSimple, 7, 4, 14), (IntSimple, 49, 1, 7),
        (IntComplex, 2, 7, 0), (Load, 36, 1, 127), (IntSimple, 36, 11, 3), (Load, 26, 6, 79),
        (Load, 57, 10, 93), (IntSimple, 0, 3, 3), (Load, 31, 4, 18), (IntSimple, 29, 13, 8),
        (IntSimple, 19, 5, 3), (IntSimple, 52, 15, 8), (Load, 60, 15, 25), (Load, 24, 8, 125),
        (IntSimple, 63, 10, 7), (FpComplex, 26, 1, 0), (Store, 47, 15, 36), (CondBranch, 42, 0, 0),
        (IntSimple, 1, 14, 10), (Store, 22, 10, 117), (Store, 17, 9, 174), (IntSimple, 35, 1, 5),
        (IntSimple, 15, 8, 4), (Load, 60, 11, 79), (Store, 44, 1, 63), (Store, 54, 1, 210),
        (CondBranch, 10, 0, 0), (Load, 0, 7, 234), (CondBranch, 32, 0, 0), (Store, 31, 7, 94),
        (FpComplex, 48, 2, 0), (Load, 44, 12, 144), (IntSimple, 33, 1, 10), (IntComplex, 28, 15, 0),
        (IntSimple, 60, 15, 10), (IntSimple, 25, 1, 12), (IntSimple, 41, 4, 14), (Load, 7, 3, 233),
        (Load, 33, 15, 219), (Load, 60, 13, 143), (IntComplex, 0, 8, 0), (IntComplex, 15, 10, 0),
        (Load, 6, 6, 90), (Load, 16, 6, 37), (Load, 39, 6, 209), (IntSimple, 16, 8, 4),
        (Load, 35, 13, 139), (Load, 47, 8, 108), (IntComplex, 63, 3, 0), (IntSimple, 2, 11, 10),
        (IntSimple, 47, 8, 5), (Load, 37, 6, 55), (IntComplex, 51, 1, 0), (IntSimple, 62, 3, 15),
        (Load, 1, 3, 211), (Load, 50, 14, 80), (Load, 17, 7, 59), (FpComplex, 52, 2, 0),
        (IntSimple, 57, 8, 9), (IntSimple, 10, 7, 7), (Store, 25, 1, 138), (CondBranch, 15, 0, 0),
        (FpComplex, 50, 1, 0), (Load, 27, 7, 42), (IntSimple, 52, 15, 8), (Store, 56, 6, 230),
        (Store, 4, 8, 149), (Load, 44, 9, 252), (IntSimple, 5, 3, 12), (IntComplex, 54, 6, 0),
        (FpComplex, 37, 2, 0), (IntComplex, 56, 9, 0), (Load, 37, 3, 242), (CondBranch, 9, 0, 1),
        (IntSimple, 20, 9, 13), (IntSimple, 50, 13, 13), (Load, 24, 14, 254), (IntSimple, 40, 4, 11),
        (IntSimple, 24, 1, 10), (IntSimple, 47, 1, 1), (IntSimple, 43, 8, 8), (IntSimple, 10, 12, 11),
        (Load, 8, 1, 197), (IntComplex, 35, 15, 0), (Store, 42, 5, 228), (IntSimple, 30, 3, 14),
        (Store, 8, 10, 171), (CondBranch, 39, 0, 1), (Store, 1, 8, 109), (Load, 17, 1, 71),
        (FpComplex, 11, 3, 0), (Load, 8, 6, 114), (Load, 41, 12, 62), (IntSimple, 30, 11, 5),
        (IntComplex, 46, 8, 0), (FpComplex, 10, 1, 0), (Load, 11, 6, 119), (IntSimple, 46, 5, 11),
        (IntSimple, 39, 1, 1), (Load, 19, 11, 180), (CondBranch, 7, 0, 1), (IntSimple, 49, 11, 7),
        (FpComplex, 61, 3, 0), (IntSimple, 33, 11, 13), (CondBranch, 6, 0, 1), (Load, 10, 13, 6),
        (Load, 52, 10, 46), (Store, 34, 1, 100), (IntComplex, 40, 8, 0), (CondBranch, 40, 0, 1),
        (Store, 10, 14, 92), (Store, 34, 15, 127), (Store, 13, 2, 96), (Store, 52, 8, 27),
        (Store, 17, 10, 11), (Store, 20, 10, 10), (IntComplex, 29, 3, 0), (FpComplex, 21, 3, 0),
        (IntSimple, 16, 11, 6), (Load, 19, 3, 99), (IntComplex, 0, 13, 0), (Store, 62, 11, 84),
        (IntSimple, 47, 4, 11), (CondBranch, 48, 0, 0), (IntSimple, 56, 13, 3), (CondBranch, 16, 0, 0),
        (Store, 20, 4, 103), (IntSimple, 25, 3, 8), (Load, 57, 5, 4), (IntSimple, 22, 9, 10),
        (IntSimple, 53, 3, 15), (FpComplex, 45, 1, 0), (CondBranch, 2, 0, 0), (IntSimple, 53, 12, 14),
        (IntSimple, 12, 10, 13), (Load, 42, 3, 106), (IntSimple, 51, 10, 1), (CondBranch, 46, 0, 0),
        (IntSimple, 6, 15, 10), (IntSimple, 21, 2, 14), (Store, 2, 3, 6), (Store, 21, 11, 196),
        (IntComplex, 34, 2, 0), (IntSimple, 17, 12, 10), (FpComplex, 3, 1, 0), (FpComplex, 35, 2, 0),
        (Load, 9, 3, 253), (Store, 61, 15, 19), (IntSimple, 35, 8, 1), (IntComplex, 49, 1, 0),
        (Store, 10, 1, 39), (IntSimple, 0, 7, 10), (Store, 15, 5, 214), (IntComplex, 26, 1, 0),
        (IntSimple, 49, 14, 1), (IntSimple, 57, 13, 8), (IntSimple, 11, 6, 13), (Store, 40, 15, 217),
        (IntSimple, 32, 15, 15), (IntSimple, 26, 11, 3), (FpComplex, 58, 3, 0), (Store, 28, 9, 94),
        (IntSimple, 53, 14, 9), (IntSimple, 37, 1, 14), (CondBranch, 5, 0, 0),
    ]
};

/// The pinned trace followed by the random ones.
fn traces(rng: &mut Lcg) -> Vec<Trace> {
    let pinned = PINNED_TRACE
        .iter()
        .map(|&(kind, slot, reg, operand)| entry(kind, slot, reg, operand))
        .collect();
    std::iter::once(pinned)
        .chain((0..CASES).map(|_| random_trace(rng)))
        .collect()
}

/// The set-associative cache agrees with a straightforward LRU-lists
/// reference model.
#[test]
fn cache_matches_lru_reference() {
    let mut rng = Lcg::new(SEED);
    for case in 0..CASES * 4 {
        let ways = rng.range(1, 4) as usize;
        let line = 64usize;
        let size = 256 * ways; // 4 sets
        let mut cache = Cache::new(CacheConfig { size, ways, line });
        let n_sets = size / (line * ways);
        let mut sets: Vec<VecDeque<u64>> = vec![VecDeque::new(); n_sets];
        for _ in 0..1 + rng.below(400) {
            let a = rng.below(4096);
            let line_addr = a / line as u64;
            let set = (line_addr as usize) % n_sets;
            let expected_hit = sets[set].contains(&line_addr);
            assert_eq!(cache.access(a), expected_hit, "case {case}: {a:#x}");
            if let Some(pos) = sets[set].iter().position(|&t| t == line_addr) {
                sets[set].remove(pos);
            } else if sets[set].len() == ways {
                sets[set].pop_back();
            }
            sets[set].push_front(line_addr);
        }
    }
}

/// The 620, the 620+ and the 21164 terminate, retire every instruction
/// exactly once and respect the issue-width ceiling, for any trace and
/// any annotation.
#[test]
fn models_terminate_and_conserve_instructions() {
    let mut rng = Lcg::new(SEED ^ 0x620);
    for (case, trace) in traces(&mut rng).iter().enumerate() {
        let stats = trace.stats();
        let n = stats.instructions;
        let outcomes = random_outcomes(&mut rng, stats.loads);
        for cfg in [Ppc620Config::base(), Ppc620Config::plus()] {
            let base = simulate_620(trace, None, &cfg);
            assert_eq!(base.instructions, n, "case {case}");
            assert!(base.cycles >= n / cfg.width as u64, "case {case}");
            let lvp = simulate_620(trace, Some(&outcomes), &cfg);
            assert_eq!(lvp.instructions, n, "case {case}");
            assert_eq!(lvp.loads, stats.loads, "case {case}");
        }
        let acfg = Alpha21164Config::base();
        let base = simulate_21164(trace, None, &acfg);
        assert_eq!(base.instructions, n, "case {case}");
        assert!(base.cycles >= n / acfg.width as u64, "case {case}");
        let lvp = simulate_21164(trace, Some(&outcomes), &acfg);
        assert_eq!(lvp.instructions, n, "case {case}");
    }
}

/// An all-Correct annotation slows the 620 by at most its verification
/// slack, and an all-Constant annotation leaves only stores in the
/// banks.
#[test]
fn usable_predictions_never_hurt_much() {
    let mut rng = Lcg::new(SEED ^ 0x5afe);
    for (case, trace) in traces(&mut rng).iter().enumerate() {
        let stats = trace.stats();
        let loads = stats.loads as usize;
        let cfg = Ppc620Config::base();
        let base = simulate_620(trace, None, &cfg);
        let correct = vec![PredOutcome::Correct; loads];
        let lvp = simulate_620(trace, Some(&correct), &cfg);
        // Section 4.1: a correct prediction can still cost structurally —
        // the dependent "may end up occupying [its] reservation station
        // for one cycle longer", and the load itself retires one cycle
        // later (verification lag). Bound: one cycle per load plus slack.
        assert!(
            lvp.cycles <= base.cycles + loads as u64 + 8,
            "case {case}: correct predictions slowed the 620 beyond the \
             verification bound: {} vs {}",
            lvp.cycles,
            base.cycles
        );
        let constant = vec![PredOutcome::Constant; loads];
        let c = simulate_620(trace, Some(&constant), &cfg);
        assert_eq!(
            c.l1_accesses, stats.stores,
            "case {case}: constants must leave only stores in the banks"
        );
    }
}
