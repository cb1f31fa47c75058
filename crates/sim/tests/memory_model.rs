//! Seeded randomized test of the data memory against a byte-map
//! reference model: random aligned loads and stores of every width, with
//! narrow accesses landing anywhere inside a doubleword so partial
//! overlaps are exercised.

use lvp_isa::DATA_BASE;
use lvp_sim::Memory;
use lvp_trace::rng::Lcg;
use std::collections::HashMap;

const SEED: u64 = 0x3e30_7e57_1996;
/// Random operation sequences checked.
const CASES: u64 = 512;

#[test]
fn memory_matches_byte_map() {
    let mut rng = Lcg::new(SEED);
    for case in 0..CASES {
        let mut mem = Memory::new(&[]);
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for _ in 0..1 + rng.below(200) {
            let width = *rng.pick(&[1u8, 2, 4, 8]);
            let addr = DATA_BASE + rng.below(512) * 8 + rng.below(8 / width as u64) * width as u64;
            if rng.chance(1, 2) {
                let value = rng.next_full();
                mem.store(addr, width, value).unwrap();
                for i in 0..width as u64 {
                    reference.insert(addr + i, (value >> (8 * i)) as u8);
                }
            } else {
                let expect = (0..width as u64).fold(0u64, |acc, i| {
                    acc | (*reference.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i)
                });
                assert_eq!(
                    mem.load(addr, width).unwrap(),
                    expect,
                    "case {case}: load {width}B at {addr:#x}"
                );
            }
        }
    }
}
