//! Seeded randomized differential test: [`LvpUnit`] vs a naive
//! reference predictor.
//!
//! The reference keys every structure by the **full** load PC — a
//! HashMap LVPT, a HashMap LCT and an unbounded CVU — so it has no
//! direct-mapped index aliasing and no capacity evictions. With the
//! real unit configured large enough that its index mapping is
//! injective over the trace's PCs (and its CVU never evicts), the two
//! must agree outcome-for-outcome. With the paper's small tables they
//! may diverge, but **only** at loads whose PC shares a direct-mapped
//! LVPT or LCT slot with another load PC in the trace: divergences are
//! counted and each one must be explainable by aliasing, never silent.

use lvp_predictor::{presets, LvpConfig, LvpUnit};
use lvp_trace::{MemAccess, OpKind, PredOutcome, RegRef, Trace, TraceEntry};
use std::collections::HashMap;

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }
}

/// A load/store-only trace over `pcs` distinct static loads, backed by
/// a coherent simulated memory (a load's value is always the last value
/// written to its address, so the CVU's coherence invariant holds).
/// Half the load PCs always read a never-stored address derived from
/// the PC (stable, CVU-eligible values); the rest read a small pool
/// that 1-in-8 entries store into, so invalidation paths run.
fn random_trace(seed: u64, n: usize, pcs: u64) -> Trace {
    let mut rng = Lcg(seed);
    let mut mem: HashMap<u64, u64> = HashMap::new();
    let mut out = Trace::with_capacity(n);
    for _ in 0..n {
        let r = rng.next();
        let pc = 0x1_0000 + 4 * (r % pcs);
        let pool_addr = 0x10_0000 + ((r >> 16) % 64) * 8;
        if r.is_multiple_of(8) {
            mem.insert(pool_addr, r);
            out.push(TraceEntry {
                pc,
                kind: OpKind::Store,
                dst: None,
                srcs: [Some(RegRef::int(3)), Some(RegRef::int(2))],
                mem: Some(MemAccess {
                    addr: pool_addr,
                    width: 8,
                    value: r,
                    fp: false,
                }),
                branch: None,
            });
        } else {
            let stable = pc.is_multiple_of(8);
            let addr = if stable {
                0x30_0000 + (pc % 256) * 8
            } else {
                pool_addr
            };
            let value = *mem.entry(addr).or_insert(addr.wrapping_mul(31));
            out.push(TraceEntry {
                pc,
                kind: OpKind::Load,
                dst: Some(RegRef::int(4)),
                srcs: [Some(RegRef::int(2)), None],
                mem: Some(MemAccess {
                    addr,
                    width: 8,
                    value,
                    fp: false,
                }),
                branch: None,
            });
        }
    }
    out
}

/// The naive reference: full-PC-keyed tables, no aliasing, no capacity.
struct Reference {
    depth: usize,
    perfect_selection: bool,
    counter_max: u8,
    values: HashMap<u64, Vec<u64>>,
    counters: HashMap<u64, u8>,
    /// Certified (pc, addr, width) triples — the unbounded CVU.
    cvu: Vec<(u64, u64, u8)>,
}

impl Reference {
    fn new(config: &LvpConfig) -> Reference {
        Reference {
            depth: config.lvpt.history_depth,
            perfect_selection: config.lvpt.perfect_selection,
            counter_max: (1u8 << config.lct.counter_bits) - 1,
            values: HashMap::new(),
            counters: HashMap::new(),
            cvu: Vec::new(),
        }
    }

    fn on_load(&mut self, pc: u64, addr: u64, width: u8, value: u64) -> PredOutcome {
        let history = self.values.entry(pc).or_default();
        let correct = if self.perfect_selection {
            history.contains(&value)
        } else {
            history.first() == Some(&value)
        };
        let c = *self.counters.entry(pc).or_insert(0);
        let max = self.counter_max;

        let outcome = if c == max {
            // Constant class: certified pairs bypass memory.
            if self.cvu.iter().any(|&(p, a, _)| p == pc && a == addr) {
                PredOutcome::Constant
            } else if correct {
                self.cvu.push((pc, addr, width));
                PredOutcome::Correct
            } else {
                PredOutcome::Incorrect
            }
        } else if c >= max.div_ceil(2) {
            if correct {
                PredOutcome::Correct
            } else {
                PredOutcome::Incorrect
            }
        } else {
            PredOutcome::NotPredicted
        };

        // Train: LCT, then LVPT LRU; a displaced front value de-certifies
        // this pc (mirroring the unit's invalidate-on-front-change).
        let counter = self.counters.get_mut(&pc).unwrap();
        if correct {
            *counter = (*counter + 1).min(max);
        } else {
            *counter = counter.saturating_sub(1);
        }
        let old_front = history.first().copied();
        if let Some(pos) = history.iter().position(|&v| v == value) {
            history[..=pos].rotate_right(1);
        } else {
            if history.len() == self.depth {
                history.pop();
            }
            history.insert(0, value);
        }
        if old_front != Some(value) {
            self.cvu.retain(|&(p, _, _)| p != pc);
        }
        outcome
    }

    fn on_store(&mut self, addr: u64, width: u8) {
        let end = addr + width as u64;
        self.cvu
            .retain(|&(_, a, w)| a + w as u64 <= addr || end <= a);
    }

    fn run(&mut self, trace: &Trace) -> Vec<PredOutcome> {
        let mut outcomes = Vec::new();
        for e in trace {
            if let Some(mem) = e.mem {
                if e.kind == OpKind::Load {
                    outcomes.push(self.on_load(e.pc, mem.addr, mem.width, mem.value));
                } else {
                    self.on_store(mem.addr, mem.width);
                }
            }
        }
        outcomes
    }
}

/// Load PCs of a trace in outcome order (one per dynamic load).
fn load_pcs(trace: &Trace) -> Vec<u64> {
    trace
        .iter()
        .filter(|e| e.kind == OpKind::Load)
        .map(|e| e.pc)
        .collect()
}

#[test]
fn unit_matches_reference_when_tables_are_alias_free() {
    // 200 static loads; 4096-entry tables make (pc >> 2) & mask injective
    // over them, and a 4096-entry CVU never evicts.
    let config = presets::simple()
        .builder()
        .lvpt_entries(4096)
        .lct_entries(4096)
        .cvu_entries(1 << 16)
        .build();
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let trace = random_trace(seed, 50_000, 200);
        let mut unit = LvpUnit::new(config.clone());
        let got = unit.annotate(&trace);
        let expected = Reference::new(&config).run(&trace);
        assert_eq!(
            unit.cvu().evictions(),
            0,
            "CVU evicted; divergences would not be aliasing-only"
        );
        assert_eq!(got.len(), expected.len());
        let first_diff = got.iter().zip(&expected).position(|(a, b)| a != b);
        assert_eq!(
            first_diff, None,
            "seed {seed}: alias-free unit diverged from reference at load {first_diff:?}"
        );
    }
}

#[test]
fn divergences_under_small_tables_are_aliasing_only() {
    // 600 static loads into 256-entry tables: aliasing is guaranteed.
    let config = presets::simple()
        .builder()
        .lvpt_entries(256)
        .lct_entries(256)
        .cvu_entries(1 << 16)
        .build();
    let mut total_divergences = 0u64;
    for seed in [7u64, 1234, 0xFEED] {
        let trace = random_trace(seed, 50_000, 600);
        let mut unit = LvpUnit::new(config.clone());
        let got = unit.annotate(&trace);
        let expected = Reference::new(&config).run(&trace);
        assert_eq!(unit.cvu().evictions(), 0);
        assert_eq!(got.len(), expected.len());

        // Which PCs share a direct-mapped slot with a *different* PC?
        let pcs = load_pcs(&trace);
        let mut index_sharers: HashMap<usize, Vec<u64>> = HashMap::new();
        for &pc in &pcs {
            let slot = index_sharers
                .entry(unit.backend().index(pc, 0))
                .or_default();
            if !slot.contains(&pc) {
                slot.push(pc);
            }
        }
        let aliased = |pc: u64| index_sharers[&unit.backend().index(pc, 0)].len() > 1;

        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            if g != e {
                total_divergences += 1;
                assert!(
                    aliased(pcs[i]),
                    "seed {seed}: load {i} at pc {:#x} diverged ({g:?} vs {e:?}) \
                     but shares no LVPT/LCT slot with another pc",
                    pcs[i]
                );
            }
        }
    }
    assert!(
        total_divergences > 0,
        "small tables produced no divergences; the test is not observing aliasing"
    );
}

#[test]
fn differential_runs_are_deterministic() {
    let config = presets::simple()
        .builder()
        .lvpt_entries(256)
        .lct_entries(256)
        .build();
    let trace_a = random_trace(99, 20_000, 600);
    let trace_b = random_trace(99, 20_000, 600);
    assert_eq!(trace_a, trace_b);
    let a = LvpUnit::new(config.clone()).annotate(&trace_a);
    let b = LvpUnit::new(config).annotate(&trace_b);
    assert_eq!(a, b);
}
