//! Seeded randomized tests of the predictor structures against simple
//! reference models: the LVP unit's statistics on physically consistent
//! load/store streams, LVPT histories against an LRU list, the CVU
//! against a reference set, and an exhaustive sweep of CVU store-overlap
//! invalidation.

use lvp_predictor::{presets, Cvu, CvuConfig, LvpUnit, Lvpt, LvptConfig};
use lvp_trace::rng::Lcg;
use std::collections::HashMap;

const SEED: u64 = 0x9ed1_c7ab_1e00_1996;
/// Random load/store streams per property.
const CASES: u64 = 256;

/// One operation of a load/store stream over a small address space.
/// Streams are physically consistent: values change only through stores.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load { pc: u64, addr: u64 },
    Store { addr: u64, value: u64 },
}

/// 1–300 operations, three loads (32 pcs) to every store, over 16
/// doubleword slots.
fn random_ops(rng: &mut Lcg) -> Vec<Op> {
    (0..1 + rng.below(300))
        .map(|_| {
            if rng.chance(3, 4) {
                Op::Load {
                    pc: 0x10000 + rng.below(32) * 4,
                    addr: 0x10_0000 + rng.below(16) * 8,
                }
            } else {
                Op::Store {
                    addr: 0x10_0000 + rng.below(16) * 8,
                    value: rng.next_full(),
                }
            }
        })
        .collect()
}

/// A stream once shrunk from a failing random case: 66 loads of
/// never-stored (zero) memory over many (pc, address) pairs.
#[rustfmt::skip]
const PINNED_LOADS: [(u64, u64); 66] = [
    (0x1000c, 0x100060), (0x10014, 0x100000), (0x10000, 0x100010), (0x10018, 0x100000),
    (0x10000, 0x100000), (0x10000, 0x100018), (0x10000, 0x100020), (0x10010, 0x100000),
    (0x10000, 0x100028), (0x1001c, 0x100008), (0x10004, 0x100000), (0x10000, 0x100040),
    (0x10014, 0x100008), (0x10000, 0x100048), (0x10000, 0x100050), (0x10018, 0x100008),
    (0x10000, 0x100030), (0x10004, 0x100008), (0x10004, 0x100010), (0x1005c, 0x100020),
    (0x10004, 0x100018), (0x10000, 0x100058), (0x10000, 0x100038), (0x1000c, 0x100000),
    (0x1000c, 0x100008), (0x10004, 0x100020), (0x10004, 0x100028), (0x10004, 0x100030),
    (0x10004, 0x100038), (0x1003c, 0x100000), (0x10008, 0x100000), (0x1000c, 0x100010),
    (0x10000, 0x100060), (0x1000c, 0x100018), (0x10004, 0x100040), (0x10008, 0x100008),
    (0x10030, 0x100000), (0x1000c, 0x100020), (0x10004, 0x100048), (0x10014, 0x100010),
    (0x10010, 0x100008), (0x10004, 0x100050), (0x10008, 0x100010), (0x10014, 0x100018),
    (0x1000c, 0x100028), (0x10000, 0x100068), (0x10008, 0x100018), (0x10020, 0x100000),
    (0x10018, 0x100010), (0x10000, 0x100070), (0x10004, 0x100058), (0x10008, 0x100020),
    (0x10004, 0x100060), (0x10008, 0x100028), (0x10008, 0x100030), (0x10010, 0x100010),
    (0x1001c, 0x100000), (0x10010, 0x100018), (0x10000, 0x100008), (0x10008, 0x100038),
    (0x10008, 0x100040), (0x10020, 0x100008), (0x10010, 0x100020), (0x10008, 0x100048),
    (0x1001c, 0x100010), (0x1000c, 0x100060),
];

/// The pinned stream followed by the random ones.
fn streams() -> impl Iterator<Item = Vec<Op>> {
    let pinned = PINNED_LOADS
        .map(|(pc, addr)| Op::Load { pc, addr })
        .to_vec();
    let mut rng = Lcg::new(SEED);
    std::iter::once(pinned).chain((0..CASES).map(move |_| random_ops(&mut rng)))
}

/// The LVP unit never violates CVU coherence (the debug assertion in
/// `on_load`) and its statistics stay consistent.
#[test]
fn unit_statistics_are_consistent() {
    for (case, ops) in streams().enumerate() {
        for config in [presets::simple(), presets::constant(), presets::limit()] {
            let mut unit = LvpUnit::new(config);
            let mut memory: HashMap<u64, u64> = HashMap::new();
            for op in &ops {
                match *op {
                    Op::Load { pc, addr } => {
                        let value = *memory.entry(addr).or_insert(0);
                        let _ = unit.on_load(pc, addr, 8, value);
                    }
                    Op::Store { addr, value } => {
                        memory.insert(addr, value);
                        unit.on_store(addr, 8, value);
                    }
                }
            }
            let s = unit.stats();
            assert_eq!(s.correct + s.incorrect, s.predictions, "case {case}");
            assert!(s.predictions <= s.loads, "case {case}");
            assert!(s.predictable <= s.loads, "case {case}");
            assert!(s.predictable_identified <= s.predictable, "case {case}");
            assert!(
                s.unpredictable_identified <= s.unpredictable(),
                "case {case}"
            );
            assert!(s.constants_verified <= s.correct, "case {case}");
        }
    }
}

/// An LVPT entry's history is the LRU list of the distinct values its
/// load has seen, at history depths 1 to 5.
#[test]
fn lvpt_matches_lru_reference() {
    let mut rng = Lcg::new(SEED ^ 0x1e47);
    for case in 0..CASES {
        let depth = rng.range(1, 6) as usize;
        let mut lvpt = Lvpt::new(LvptConfig {
            entries: 16,
            history_depth: depth,
            perfect_selection: true,
        });
        let mut reference: Vec<u64> = Vec::new();
        for _ in 0..1 + rng.below(100) {
            let v = rng.below(8);
            lvpt.update(0x10000, v);
            reference.retain(|&x| x != v);
            reference.insert(0, v);
            reference.truncate(depth);
            assert_eq!(lvpt.history(0x10000), reference.as_slice(), "case {case}");
        }
    }
}

/// After a store to an address, no lookup of it hits until it is
/// reinserted. The stream is folded onto 8 table indices x 8 addresses,
/// 64 pairs in a 64-entry CVU, so eviction never fires and the set
/// model is exact.
#[test]
fn cvu_matches_reference_set() {
    for (case, ops) in streams().enumerate() {
        let mut cvu = Cvu::new(CvuConfig { entries: 64 });
        let mut reference: HashMap<(usize, u64), bool> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Load { pc, addr } => {
                    let idx = (pc as usize >> 2) % 8;
                    let addr = 0x10_0000 + (addr % 64) / 8 * 8;
                    let expected = reference.get(&(idx, addr)).copied().unwrap_or(false);
                    assert_eq!(cvu.lookup(idx, addr), expected, "case {case}");
                    cvu.insert(idx, addr, 8);
                    reference.insert((idx, addr), true);
                }
                Op::Store { addr, .. } => {
                    let addr = 0x10_0000 + (addr % 64) / 8 * 8;
                    cvu.invalidate_store(addr, 8);
                    reference.retain(|&(_, a), _| a != addr);
                }
            }
        }
    }
}

/// A store wipes every overlapping CVU entry regardless of widths —
/// every (load address, load width, store address, store width) pair
/// over 64 bytes.
#[test]
fn cvu_store_overlap() {
    const WIDTHS: [u8; 4] = [1, 2, 4, 8];
    for load_addr in 0u64..64 {
        for load_width in WIDTHS {
            for store_addr in 0u64..64 {
                for store_width in WIDTHS {
                    let mut cvu = Cvu::new(CvuConfig { entries: 8 });
                    cvu.insert(3, load_addr, load_width);
                    cvu.invalidate_store(store_addr, store_width);
                    let overlaps = store_addr < load_addr + load_width as u64
                        && load_addr < store_addr + store_width as u64;
                    assert_eq!(
                        cvu.lookup(3, load_addr),
                        !overlaps,
                        "load {load_width}B at {load_addr}, store {store_width}B at {store_addr}"
                    );
                }
            }
        }
    }
}
