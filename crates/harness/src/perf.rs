//! lvp-perf: the in-tree, dependency-free microbenchmark subsystem.
//!
//! A tiny benchmark runner over the repository's real hot paths — the
//! per-entry [`LvpUnit`] dispatch, the 620/21164 cycle models, the
//! LVPT-v2 block codec, and the alias-analysis fixpoint — with:
//!
//! * deterministic, env-pinned iteration counts ([`PerfConfig`]:
//!   `LVP_PERF_ITERS` / `LVP_PERF_WARMUP`),
//! * warmup + N timed iterations per bench, reported as
//!   median/p10/p90 nanoseconds plus the raw samples,
//! * a stable `lvp-perf/1` JSON report ([`PerfReport::to_json`]), which
//!   `scripts/perf_gate.sh` reads and `results/perf_baseline.json`
//!   records for one host.
//!
//! Timing is wall-clock and therefore machine-dependent: a report is
//! only comparable with one from the same machine, which is why the
//! gate builds the base commit and alternates the two builds on one
//! host. *Everything else* — bench registry, canned traces, sample
//! count, JSON shape — is deterministic.

use lvp_predictor::presets;
use lvp_predictor::{LvpConfig, LvpUnit, PredictorKind};
use lvp_trace::{
    read_trace, write_trace, BranchEvent, MemAccess, OpKind, RegRef, Trace, TraceEntry,
};
use lvp_uarch::{simulate_21164, simulate_620, Alpha21164Config, Ppc620Config};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// Environment variable pinning the timed iteration count.
pub const ITERS_ENV: &str = "LVP_PERF_ITERS";
/// Environment variable pinning the warmup iteration count.
pub const WARMUP_ENV: &str = "LVP_PERF_WARMUP";

/// The format tag every `lvp-perf` report and baseline carries.
pub const FORMAT: &str = "lvp-perf/1";

/// Iteration policy for one runner invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfConfig {
    /// Timed iterations per bench (median is taken over these).
    pub iters: u32,
    /// Untimed warmup iterations per bench.
    pub warmup: u32,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            iters: 5,
            warmup: 1,
        }
    }
}

impl PerfConfig {
    /// Builds a config from the raw (pre-read) values of
    /// [`ITERS_ENV`] / [`WARMUP_ENV`]; `None` means unset. Pure, so
    /// tests never have to mutate process environment.
    ///
    /// # Errors
    ///
    /// [`PerfError::BadEnv`] if a value is present but not a positive
    /// integer (warmup may be 0; iters may not).
    pub fn from_values(iters: Option<&str>, warmup: Option<&str>) -> Result<PerfConfig, PerfError> {
        let mut cfg = PerfConfig::default();
        if let Some(v) = iters {
            cfg.iters = v
                .trim()
                .parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| PerfError::BadEnv {
                    var: ITERS_ENV,
                    value: v.to_string(),
                })?;
        }
        if let Some(v) = warmup {
            cfg.warmup = v.trim().parse::<u32>().map_err(|_| PerfError::BadEnv {
                var: WARMUP_ENV,
                value: v.to_string(),
            })?;
        }
        Ok(cfg)
    }

    /// [`PerfConfig::from_values`] over the live process environment.
    ///
    /// # Errors
    ///
    /// [`PerfError::BadEnv`] as for `from_values`.
    pub fn from_env() -> Result<PerfConfig, PerfError> {
        PerfConfig::from_values(
            std::env::var(ITERS_ENV).ok().as_deref(),
            std::env::var(WARMUP_ENV).ok().as_deref(),
        )
    }
}

/// Everything that can go wrong configuring a perf run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfError {
    /// An iteration-count environment variable held a non-numeric or
    /// out-of-range value.
    BadEnv {
        /// The offending variable name.
        var: &'static str,
        /// Its raw value.
        value: String,
    },
    /// `--bench` named a bench that is not registered.
    UnknownBench(String),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::BadEnv { var, value } => {
                write!(f, "{var} must be a positive integer, got {value:?}")
            }
            PerfError::UnknownBench(name) => {
                write!(f, "unknown bench {name:?} (see `lvp perf --list`)")
            }
        }
    }
}

impl std::error::Error for PerfError {}

/// One registered microbenchmark.
pub struct BenchDef {
    /// Stable bench name (the JSON key and `--bench` argument).
    pub name: &'static str,
    /// Whether the bench belongs to the fast (CI) subset.
    pub fast: bool,
    /// One-line description shown by `lvp perf --list`.
    pub what: &'static str,
    run: fn(&PerfConfig) -> Vec<u64>,
}

/// Measured result of one bench.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// The bench's registered name.
    pub name: String,
    /// Median of the timed samples, nanoseconds.
    pub median_ns: u64,
    /// 10th-percentile sample, nanoseconds.
    pub p10_ns: u64,
    /// 90th-percentile sample, nanoseconds.
    pub p90_ns: u64,
    /// Raw timed samples in measurement order, nanoseconds.
    pub samples_ns: Vec<u64>,
}

/// A full runner invocation: config plus per-bench results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfReport {
    /// Iteration policy the samples were collected under.
    pub config: PerfConfig,
    /// One result per executed bench, in registry order.
    pub results: Vec<BenchResult>,
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

use lvp_trace::rng::Lcg;

/// A canned trace with a realistic mix: 40% ALU, 25% loads (half with
/// stable values so the LVPT/LCT/CVU all see action), 10% stores, 10%
/// complex int/FP, 15% branches. Loads read a coherent simulated memory
/// (a load's value is always the last value stored to its address —
/// the CVU's coherence invariant requires it). Entirely deterministic
/// in `seed`.
fn canned_trace(seed: u64, n: usize) -> Trace {
    let mut rng = Lcg::new(seed);
    let mut mem: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut trace = Trace::with_capacity(n);
    for _ in 0..n {
        let r = rng.next();
        let pc = 0x1_0000 + 4 * (r % 211);
        let dst = (10 + (r >> 8) % 8) as u8;
        let src = (10 + (r >> 16) % 8) as u8;
        let e = match r % 100 {
            0..=39 => TraceEntry {
                pc,
                kind: OpKind::IntSimple,
                dst: Some(RegRef::int(dst)),
                srcs: [Some(RegRef::int(src)), None],
                mem: None,
                branch: None,
            },
            40..=64 => {
                // Half the load pcs read a never-stored pc-derived address
                // (stable values, some becoming CVU constants); half read
                // the store pool and churn as stores rewrite it.
                let stable = r.is_multiple_of(2);
                let addr = if stable {
                    0x10_0000 + (pc % 256) * 8
                } else {
                    0x20_0000 + ((r >> 24) % 128) * 8
                };
                let value = *mem.entry(addr).or_insert(addr.wrapping_mul(31));
                TraceEntry {
                    pc,
                    kind: OpKind::Load,
                    dst: Some(RegRef::int(dst)),
                    srcs: [Some(RegRef::int(2)), None],
                    mem: Some(MemAccess {
                        addr,
                        width: 8,
                        value,
                        fp: false,
                    }),
                    branch: None,
                }
            }
            65..=74 => {
                let addr = 0x20_0000 + ((r >> 24) % 128) * 8;
                mem.insert(addr, r);
                TraceEntry {
                    pc,
                    kind: OpKind::Store,
                    dst: None,
                    srcs: [Some(RegRef::int(src)), Some(RegRef::int(2))],
                    mem: Some(MemAccess {
                        addr,
                        width: 8,
                        value: r,
                        fp: false,
                    }),
                    branch: None,
                }
            }
            75..=79 => TraceEntry {
                pc,
                kind: OpKind::IntComplex,
                dst: Some(RegRef::int(dst)),
                srcs: [Some(RegRef::int(src)), Some(RegRef::int(2))],
                mem: None,
                branch: None,
            },
            80..=84 => TraceEntry {
                pc,
                kind: OpKind::FpSimple,
                dst: Some(RegRef::fp(dst)),
                srcs: [Some(RegRef::fp(src)), None],
                mem: None,
                branch: None,
            },
            _ => TraceEntry {
                pc,
                kind: OpKind::CondBranch,
                dst: None,
                srcs: [Some(RegRef::int(src)), None],
                mem: None,
                branch: Some(BranchEvent {
                    taken: !(r >> 32).is_multiple_of(4),
                    target: pc + 8,
                }),
            },
        };
        trace.push(e);
    }
    trace
}

/// Warmup + timed iterations around `f`, excluding setup (done by the
/// caller before this) from every sample.
fn sample<T>(cfg: &PerfConfig, mut f: impl FnMut() -> T) -> Vec<u64> {
    for _ in 0..cfg.warmup {
        black_box(f());
    }
    (0..cfg.iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

fn bench_unit_dispatch(cfg: &PerfConfig, kind: PredictorKind) -> Vec<u64> {
    let trace = canned_trace(0x11, 1_000_000);
    let config = presets::simple().builder().kind(kind).build();
    sample(cfg, || LvpUnit::new(config.clone()).annotate(&trace))
}

fn bench_sim_620(cfg: &PerfConfig, n: usize) -> Vec<u64> {
    let trace = canned_trace(0x620, n);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Ppc620Config::base();
    sample(cfg, || simulate_620(&trace, Some(&outcomes), &config))
}

fn bench_sim_21164(cfg: &PerfConfig, n: usize) -> Vec<u64> {
    let trace = canned_trace(0x21164, n);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Alpha21164Config::base();
    sample(cfg, || simulate_21164(&trace, Some(&outcomes), &config))
}

fn bench_trace_codec(cfg: &PerfConfig) -> Vec<u64> {
    let trace = canned_trace(0xC0DEC, 262_144);
    let mut encoded = Vec::new();
    write_trace(&mut encoded, &trace).expect("in-memory encode cannot fail");
    sample(cfg, || {
        let mut buf = Vec::with_capacity(encoded.len());
        write_trace(&mut buf, &trace).expect("in-memory encode cannot fail");
        read_trace(buf.as_slice()).expect("roundtrip decode cannot fail")
    })
}

fn bench_alias_fixpoint(cfg: &PerfConfig) -> Vec<u64> {
    // One analysis pass is ~0.1 ms — far too small for a stable sample
    // on a busy machine — so each iteration sweeps the whole fast
    // workload subset several times.
    let programs: Vec<_> = ["sc", "xlisp", "grep", "doduc"]
        .iter()
        .map(|name| {
            let w = lvp_workloads::Workload::by_name(name).expect("suite workload");
            lvp_lang::compile_with(w.source, lvp_isa::AsmProfile::Toc, lvp_lang::OptLevel::O1)
                .expect("suite workload compiles")
        })
        .collect();
    sample(cfg, || {
        let mut last = None;
        for _ in 0..16 {
            for p in &programs {
                last = Some(lvp_analyze::analyze_memory(p));
            }
        }
        last
    })
}

/// The workload the trace-generation and real-trace benches run: xlisp
/// (1.24M dynamic instructions) — large enough that per-entry cost
/// dominates, small enough for the fast subset.
fn trace_bench_program(profile: lvp_isa::AsmProfile) -> lvp_isa::Program {
    let w = lvp_workloads::Workload::by_name("xlisp").expect("suite workload");
    w.compile(profile).expect("suite workload compiles")
}

/// The real xlisp trace under `profile`: compiled suite code, unlike
/// the canned mixes.
fn real_trace(profile: lvp_isa::AsmProfile) -> Trace {
    lvp_sim::FastSim::new(&trace_bench_program(profile))
        .run_traced(lvp_workloads::DEFAULT_FUEL)
        .expect("suite workload completes")
}

/// `LvpUnit::annotate` under `config` over the real xlisp trace.
fn bench_annotate_real(cfg: &PerfConfig, config: LvpConfig) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    sample(cfg, || LvpUnit::new(config.clone()).annotate(&trace))
}

/// The value-flow check's dynamic side ([`value_flow_check_with`], the
/// static report computed once outside the samples) over the real
/// xlisp trace.
///
/// [`value_flow_check_with`]: crate::value_flow_check_with
fn bench_valueflow_real(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    let report = lvp_analyze::analyze_value_flow(&program);
    sample(cfg, || {
        crate::value_flow_check_with(&report, &program, &trace, "xlisp/toc/O0".into())
    })
}

/// The CVU cross-check ([`cross_check`](crate::cross_check), Simple
/// preset) over the real xlisp trace.
fn bench_crosscheck_real(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        crate::cross_check(&program, &trace, &presets::simple(), "xlisp/toc/O0".into())
    })
}

/// `simulate_620` over the real xlisp trace with Simple-preset outcomes.
fn bench_sim_620_real(cfg: &PerfConfig, config: Ppc620Config) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Toc);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    sample(cfg, || simulate_620(&trace, Some(&outcomes), &config))
}

/// `simulate_620` (base config) over the registered `synth-chase` trace
/// (Toc, O0) with Simple-preset outcomes: the MSHR-bound pointer chase
/// that the `timing-adversarial` benchmark times.
fn bench_sim_620_synth_chase(cfg: &PerfConfig) -> Vec<u64> {
    let w = lvp_workloads::Workload::by_name("synth-chase").expect("registered synth workload");
    let trace = w
        .run(lvp_isa::AsmProfile::Toc)
        .expect("synth workload completes")
        .trace;
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Ppc620Config::base();
    sample(cfg, || simulate_620(&trace, Some(&outcomes), &config))
}

/// `simulate_21164` over the real xlisp trace with Simple-preset
/// outcomes, on the Gp profile the experiments time the 21164 with.
fn bench_sim_21164_real(cfg: &PerfConfig) -> Vec<u64> {
    let trace = real_trace(lvp_isa::AsmProfile::Gp);
    let outcomes = LvpUnit::new(presets::simple()).annotate(&trace);
    let config = Alpha21164Config::base();
    sample(cfg, || simulate_21164(&trace, Some(&outcomes), &config))
}

fn bench_fastsim_trace(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::FastSim::new(&program);
        sim.run_traced(lvp_workloads::DEFAULT_FUEL)
            .expect("suite workload completes")
    })
}

fn bench_interp_trace(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::Machine::new(&program);
        sim.run_traced(lvp_workloads::DEFAULT_FUEL)
            .expect("suite workload completes")
    })
}

fn bench_fastsim_stream(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    // Streaming (no trace materialization): isolates pure engine
    // dispatch cost from the memory-bandwidth-bound entry writes.
    sample(cfg, || {
        let mut sim = lvp_sim::FastSim::new(&program);
        let mut loads = 0u64;
        sim.run_with(lvp_workloads::DEFAULT_FUEL, |e| {
            loads += u64::from(e.mem.is_some());
        })
        .expect("suite workload completes");
        loads
    })
}

fn bench_interp_stream(cfg: &PerfConfig) -> Vec<u64> {
    let program = trace_bench_program(lvp_isa::AsmProfile::Toc);
    sample(cfg, || {
        let mut sim = lvp_sim::Machine::new(&program);
        let mut loads = 0u64;
        sim.run_with(lvp_workloads::DEFAULT_FUEL, |e| {
            loads += u64::from(e.mem.is_some());
        })
        .expect("suite workload completes");
        loads
    })
}

fn bench_ssa_scev(cfg: &PerfConfig) -> Vec<u64> {
    // Same shaping as alias_fixpoint: one value-flow pass (SSA build +
    // scalar evolution + classification) is sub-millisecond, so each
    // iteration sweeps the fast workload subset several times.
    let programs: Vec<_> = ["sc", "xlisp", "grep", "doduc"]
        .iter()
        .map(|name| {
            let w = lvp_workloads::Workload::by_name(name).expect("suite workload");
            lvp_lang::compile_with(w.source, lvp_isa::AsmProfile::Toc, lvp_lang::OptLevel::O1)
                .expect("suite workload compiles")
        })
        .collect();
    sample(cfg, || {
        let mut last = None;
        for _ in 0..16 {
            for p in &programs {
                last = Some(lvp_analyze::analyze_value_flow(p));
            }
        }
        last
    })
}

/// The bench registry, in reporting order.
pub fn benches() -> &'static [BenchDef] {
    &[
        BenchDef {
            name: "unit_dispatch_1m",
            fast: true,
            what: "LvpUnit (LVPT/LCT/CVU) over a canned 1M-entry trace",
            run: |cfg| bench_unit_dispatch(cfg, PredictorKind::LastValue),
        },
        BenchDef {
            name: "unit_dispatch_stride_1m",
            fast: true,
            what: "LvpUnit with the two-delta stride backend, 1M entries",
            run: |cfg| bench_unit_dispatch(cfg, PredictorKind::Stride),
        },
        BenchDef {
            name: "unit_dispatch_context_1m",
            fast: true,
            what: "LvpUnit with the order-4 FCM context backend, 1M entries",
            run: |cfg| bench_unit_dispatch(cfg, PredictorKind::Context),
        },
        BenchDef {
            name: "unit_dispatch_s2l_1m",
            fast: true,
            what: "LvpUnit with the store-to-load forwarding backend, 1M entries",
            run: |cfg| bench_unit_dispatch(cfg, PredictorKind::StoreToLoad),
        },
        BenchDef {
            name: "unit_dispatch_hybrid_1m",
            fast: true,
            what: "LvpUnit with the confidence-arbitrated hybrid backend, 1M entries",
            run: |cfg| bench_unit_dispatch(cfg, PredictorKind::Hybrid),
        },
        BenchDef {
            name: "annotate_real_xlisp",
            fast: true,
            what: "LvpUnit::annotate (Simple preset) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, presets::simple()),
        },
        BenchDef {
            name: "annotate_real_xlisp_limit",
            fast: true,
            what: "LvpUnit::annotate (Limit preset, 128-entry CVU) over the real xlisp trace",
            run: |cfg| bench_annotate_real(cfg, presets::limit()),
        },
        BenchDef {
            name: "valueflow_real_xlisp",
            fast: true,
            what: "value-flow check (stride, constant, backend and LCT oracles) over the real xlisp trace",
            run: |cfg| bench_valueflow_real(cfg),
        },
        BenchDef {
            name: "crosscheck_real_xlisp",
            fast: true,
            what: "CVU cross-check (Simple preset) over the real xlisp trace",
            run: |cfg| bench_crosscheck_real(cfg),
        },
        BenchDef {
            name: "sim_620_256k",
            fast: true,
            what: "simulate_620 (base config) over 256K annotated entries",
            run: |cfg| bench_sim_620(cfg, 262_144),
        },
        BenchDef {
            name: "sim_620_1m",
            fast: false,
            what: "simulate_620 (base config) over 1M annotated entries",
            run: |cfg| bench_sim_620(cfg, 1_000_000),
        },
        BenchDef {
            name: "sim_620_real_xlisp",
            fast: true,
            what: "simulate_620 (base config) over the real xlisp trace, Simple outcomes",
            run: |cfg| bench_sim_620_real(cfg, Ppc620Config::base()),
        },
        BenchDef {
            name: "sim_620plus_real_xlisp",
            fast: true,
            what: "simulate_620 (620+ config) over the real xlisp trace, Simple outcomes",
            run: |cfg| bench_sim_620_real(cfg, Ppc620Config::plus()),
        },
        BenchDef {
            name: "sim_620_synth_chase",
            fast: true,
            what: "simulate_620 (base config) over the synth-chase trace, Simple outcomes",
            run: |cfg| bench_sim_620_synth_chase(cfg),
        },
        BenchDef {
            name: "sim_21164_256k",
            fast: true,
            what: "simulate_21164 over 256K annotated entries",
            run: |cfg| bench_sim_21164(cfg, 262_144),
        },
        BenchDef {
            name: "sim_21164_1m",
            fast: false,
            what: "simulate_21164 over 1M annotated entries",
            run: |cfg| bench_sim_21164(cfg, 1_000_000),
        },
        BenchDef {
            name: "sim_21164_real_xlisp",
            fast: true,
            what: "simulate_21164 over the real xlisp trace (Gp), Simple outcomes",
            run: |cfg| bench_sim_21164_real(cfg),
        },
        BenchDef {
            name: "trace_codec_256k",
            fast: true,
            what: "LVPT-v2 block encode + CRC32 + decode, 256K entries",
            run: |cfg| bench_trace_codec(cfg),
        },
        BenchDef {
            name: "fastsim_trace_xlisp",
            fast: true,
            what: "fastsim engine: full xlisp trace generation (1.24M instrs)",
            run: |cfg| bench_fastsim_trace(cfg),
        },
        BenchDef {
            name: "fastsim_interp_xlisp",
            fast: true,
            what: "interpreter engine: full xlisp trace generation (1.24M instrs)",
            run: |cfg| bench_interp_trace(cfg),
        },
        BenchDef {
            name: "fastsim_stream_xlisp",
            fast: true,
            what: "fastsim engine: streaming xlisp run (no trace materialization)",
            run: |cfg| bench_fastsim_stream(cfg),
        },
        BenchDef {
            name: "fastsim_interp_stream_xlisp",
            fast: true,
            what: "interpreter engine: streaming xlisp run (no trace materialization)",
            run: |cfg| bench_interp_stream(cfg),
        },
        BenchDef {
            name: "alias_fixpoint",
            fast: true,
            what: "alias-analysis fixpoint, 16 sweeps of the 4 fast workloads",
            run: |cfg| bench_alias_fixpoint(cfg),
        },
        BenchDef {
            name: "ssa_scev",
            fast: true,
            what: "value-flow pass (SSA + SCEV + classify), 16 sweeps of the 4 fast workloads",
            run: |cfg| bench_ssa_scev(cfg),
        },
    ]
}

/// Resolves a bench selection: explicit names (validated), else the
/// fast subset or the full registry.
///
/// # Errors
///
/// [`PerfError::UnknownBench`] for a name not in the registry.
pub fn select<'a>(names: &[String], fast_only: bool) -> Result<Vec<&'a BenchDef>, PerfError> {
    let all = benches();
    if names.is_empty() {
        return Ok(all.iter().filter(|b| !fast_only || b.fast).collect());
    }
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|b| b.name == n.as_str())
                .ok_or_else(|| PerfError::UnknownBench(n.clone()))
        })
        .collect()
}

/// Nearest-rank percentile of a sorted sample set.
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let idx = (pct * (sorted.len() as u64 - 1) + 50) / 100;
    sorted[idx as usize]
}

/// Runs the given benches under `cfg`, calling `progress` with each
/// bench name as it starts.
pub fn run(cfg: PerfConfig, selection: &[&BenchDef], mut progress: impl FnMut(&str)) -> PerfReport {
    let mut results = Vec::with_capacity(selection.len());
    for bench in selection {
        progress(bench.name);
        let samples = (bench.run)(&cfg);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        results.push(BenchResult {
            name: bench.name.to_string(),
            median_ns: percentile(&sorted, 50),
            p10_ns: percentile(&sorted, 10),
            p90_ns: percentile(&sorted, 90),
            samples_ns: samples,
        });
    }
    PerfReport {
        config: cfg,
        results,
    }
}

// ---------------------------------------------------------------------
// lvp-perf/1 JSON
// ---------------------------------------------------------------------

impl PerfReport {
    /// Renders the stable `lvp-perf/1` document (4-space indent, one
    /// item per line, fixed key order): the `--json` output that
    /// `scripts/perf_gate.sh` reads, and the format of
    /// `results/perf_baseline.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("    \"format\": \"{FORMAT}\",\n"));
        out.push_str(&format!("    \"iters\": {},\n", self.config.iters));
        out.push_str(&format!("    \"warmup\": {},\n", self.config.warmup));
        out.push_str("    \"benches\": [");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("        {\n");
            out.push_str(&format!("            \"name\": \"{}\",\n", r.name));
            out.push_str(&format!("            \"median_ns\": {},\n", r.median_ns));
            out.push_str(&format!("            \"p10_ns\": {},\n", r.p10_ns));
            out.push_str(&format!("            \"p90_ns\": {},\n", r.p90_ns));
            let samples: Vec<String> = r.samples_ns.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!(
                "            \"samples_ns\": [{}]\n",
                samples.join(", ")
            ));
            out.push_str("        }");
        }
        out.push_str(if self.results.is_empty() {
            "]\n"
        } else {
            "\n    ]\n"
        });
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_values_defaults_and_overrides() {
        assert_eq!(
            PerfConfig::from_values(None, None).unwrap(),
            PerfConfig {
                iters: 5,
                warmup: 1
            }
        );
        assert_eq!(
            PerfConfig::from_values(Some("9"), Some("0")).unwrap(),
            PerfConfig {
                iters: 9,
                warmup: 0
            }
        );
        assert!(matches!(
            PerfConfig::from_values(Some("0"), None),
            Err(PerfError::BadEnv { var, .. }) if var == ITERS_ENV
        ));
        assert!(matches!(
            PerfConfig::from_values(None, Some("many")),
            Err(PerfError::BadEnv { var, .. }) if var == WARMUP_ENV
        ));
    }

    #[test]
    fn registry_names_are_unique_and_fast_subset_nonempty() {
        let all = benches();
        let mut names: Vec<&str> = all.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate bench names");
        assert!(all.iter().any(|b| b.fast));
        assert!(all.iter().any(|b| !b.fast));
    }

    #[test]
    fn select_validates_names() {
        assert_eq!(select(&[], false).unwrap().len(), benches().len());
        let fast = select(&[], true).unwrap();
        assert!(fast.iter().all(|b| b.fast));
        let picked = select(&["sim_620_256k".to_string()], false).unwrap();
        assert_eq!(picked.len(), 1);
        assert!(matches!(
            select(&["nope".to_string()], false),
            Err(PerfError::UnknownBench(n)) if n == "nope"
        ));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&sorted, 50), 30);
        assert_eq!(percentile(&sorted, 10), 10);
        assert_eq!(percentile(&sorted, 90), 50);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn json_writer_output_is_pinned() {
        // `scripts/perf_gate.sh` reads `benches[].name` and
        // `benches[].samples_ns` from this exact layout.
        let two = PerfReport {
            config: PerfConfig {
                iters: 3,
                warmup: 1,
            },
            results: vec![
                BenchResult {
                    name: "unit_dispatch_1m".to_string(),
                    median_ns: 100,
                    p10_ns: 90,
                    p90_ns: 120,
                    samples_ns: vec![120, 90, 100],
                },
                BenchResult {
                    name: "trace_codec_256k".to_string(),
                    median_ns: 0,
                    p10_ns: 0,
                    p90_ns: 0,
                    samples_ns: vec![0],
                },
            ],
        };
        assert_eq!(
            two.to_json(),
            r#"{
    "format": "lvp-perf/1",
    "iters": 3,
    "warmup": 1,
    "benches": [
        {
            "name": "unit_dispatch_1m",
            "median_ns": 100,
            "p10_ns": 90,
            "p90_ns": 120,
            "samples_ns": [120, 90, 100]
        },
        {
            "name": "trace_codec_256k",
            "median_ns": 0,
            "p10_ns": 0,
            "p90_ns": 0,
            "samples_ns": [0]
        }
    ]
}
"#
        );
        let empty = PerfReport {
            config: PerfConfig::default(),
            results: Vec::new(),
        };
        assert_eq!(
            empty.to_json(),
            r#"{
    "format": "lvp-perf/1",
    "iters": 5,
    "warmup": 1,
    "benches": []
}
"#
        );
    }

    #[test]
    fn runner_respects_iteration_counts() {
        // A synthetic bench through the public runner machinery.
        let cfg = PerfConfig {
            iters: 4,
            warmup: 0,
        };
        let samples = sample(&cfg, || 2 + 2);
        assert_eq!(samples.len(), 4);
        let defs = select(&["alias_fixpoint".to_string()], false).unwrap();
        let report = run(
            PerfConfig {
                iters: 2,
                warmup: 0,
            },
            &defs,
            |_| {},
        );
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.results[0].samples_ns.len(), 2);
        assert!(report.results[0].median_ns > 0);
    }

    #[test]
    fn canned_trace_is_deterministic_and_mixed() {
        let a = canned_trace(7, 10_000);
        let b = canned_trace(7, 10_000);
        assert_eq!(a, b);
        let stats = a.stats();
        assert!(stats.loads > 1500, "loads {}", stats.loads);
        assert!(stats.stores > 500, "stores {}", stats.stores);
    }
}
