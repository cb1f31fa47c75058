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
//! * a stable `lvp-perf/1` JSON report ([`PerfReport::to_json`]) that
//!   doubles as the committed baseline format
//!   (`results/perf_baseline.json`), parsed back by
//!   [`PerfReport::from_json`] with typed [`PerfError`]s (malformed
//!   baselines are an error, never a panic), and
//! * a regression gate ([`check`]): each bench present in both report
//!   and baseline fails if its median exceeds the baseline median by
//!   more than a threshold percentage.
//!
//! Timing is wall-clock and therefore machine-dependent: baselines are
//! only meaningful against the machine (and build) that produced them,
//! which is why CI uses a generous threshold. *Everything else* —
//! bench registry, canned traces, sample count, JSON shape — is
//! deterministic.

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

/// Everything that can go wrong measuring, encoding, parsing, or
/// checking perf reports.
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
    /// A baseline file could not be read.
    Io(String),
    /// A baseline/report document is not syntactically valid JSON (of
    /// the subset `lvp-perf/1` uses).
    Parse {
        /// Byte offset of the failure.
        at: usize,
        /// What the parser expected.
        expected: &'static str,
    },
    /// The document parsed but is not an `lvp-perf/1` report (wrong or
    /// missing format tag).
    BadFormat(String),
    /// A required field is missing or has the wrong type.
    MissingField(&'static str),
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
            PerfError::Io(msg) => write!(f, "{msg}"),
            PerfError::Parse { at, expected } => {
                write!(f, "malformed JSON at byte {at}: expected {expected}")
            }
            PerfError::BadFormat(got) => {
                write!(f, "not an {FORMAT} document (format tag {got:?})")
            }
            PerfError::MissingField(name) => {
                write!(f, "missing or mistyped field {name:?}")
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

/// One bench whose median regressed past the threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// The bench name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: u64,
    /// Current median, nanoseconds.
    pub current_ns: u64,
    /// Relative slowdown in percent, rounded down.
    pub slowdown_pct: u64,
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

/// Compares `report` against `baseline`: every bench present in both
/// regresses if its median exceeds the baseline median by more than
/// `threshold_pct` percent. Benches present on only one side are
/// ignored (the registry may grow or shrink across commits).
pub fn check(report: &PerfReport, baseline: &PerfReport, threshold_pct: u64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for cur in &report.results {
        let Some(base) = baseline.results.iter().find(|b| b.name == cur.name) else {
            continue;
        };
        if base.median_ns == 0 {
            continue; // degenerate baseline; nothing meaningful to gate
        }
        let limit = (base.median_ns as u128) * (100 + threshold_pct as u128);
        if (cur.median_ns as u128) * 100 > limit {
            regressions.push(Regression {
                name: cur.name.clone(),
                baseline_ns: base.median_ns,
                current_ns: cur.median_ns,
                slowdown_pct: ((cur.median_ns as u128 * 100) / base.median_ns as u128) as u64 - 100,
            });
        }
    }
    regressions
}

// ---------------------------------------------------------------------
// lvp-perf/1 JSON
// ---------------------------------------------------------------------

impl PerfReport {
    /// Renders the stable `lvp-perf/1` document (4-space indent, one
    /// item per line, fixed key order) — both the `--json` output and
    /// the committed baseline format.
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

    /// Parses an `lvp-perf/1` document (report or baseline).
    ///
    /// # Errors
    ///
    /// [`PerfError::Parse`] for syntax errors, [`PerfError::BadFormat`]
    /// for a wrong format tag, [`PerfError::MissingField`] for missing
    /// or mistyped required fields. Never panics on hostile input.
    pub fn from_json(text: &str) -> Result<PerfReport, PerfError> {
        let value = json::parse(text)?;
        let root = value.as_object().ok_or(PerfError::MissingField("<root>"))?;
        let format = json::get_str(root, "format")?;
        if format != FORMAT {
            return Err(PerfError::BadFormat(format.to_string()));
        }
        let iters = json::get_u64(root, "iters")?;
        let warmup = json::get_u64(root, "warmup")?;
        if iters == 0 || iters > u32::MAX as u64 || warmup > u32::MAX as u64 {
            return Err(PerfError::MissingField("iters"));
        }
        let benches = json::get_array(root, "benches")?;
        let mut results = Vec::with_capacity(benches.len());
        for b in benches {
            let obj = b.as_object().ok_or(PerfError::MissingField("benches[]"))?;
            let samples = json::get_array(obj, "samples_ns")?
                .iter()
                .map(|v| v.as_u64().ok_or(PerfError::MissingField("samples_ns")))
                .collect::<Result<Vec<u64>, PerfError>>()?;
            results.push(BenchResult {
                name: json::get_str(obj, "name")?.to_string(),
                median_ns: json::get_u64(obj, "median_ns")?,
                p10_ns: json::get_u64(obj, "p10_ns")?,
                p90_ns: json::get_u64(obj, "p90_ns")?,
                samples_ns: samples,
            });
        }
        Ok(PerfReport {
            config: PerfConfig {
                iters: iters as u32,
                warmup: warmup as u32,
            },
            results,
        })
    }
}

/// A minimal JSON reader for the subset `lvp-perf/1` documents use
/// (objects, arrays, strings without escapes beyond `\"`/`\\`,
/// non-negative integers, booleans, null). Hand-rolled because the
/// workspace is intentionally dependency-free.
mod json {
    use super::PerfError;

    #[derive(Debug)]
    pub(super) enum Value {
        Null,
        Bool(#[allow(dead_code)] bool),
        Num(u64),
        Str(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    impl Value {
        pub(super) fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(fields) => Some(fields),
                _ => None,
            }
        }

        pub(super) fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub(super) fn get_str<'a>(
        obj: &'a [(String, Value)],
        key: &'static str,
    ) -> Result<&'a str, PerfError> {
        match obj.iter().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => Ok(s),
            _ => Err(PerfError::MissingField(key)),
        }
    }

    pub(super) fn get_u64(obj: &[(String, Value)], key: &'static str) -> Result<u64, PerfError> {
        match obj.iter().find(|(k, _)| k == key) {
            Some((_, Value::Num(n))) => Ok(*n),
            _ => Err(PerfError::MissingField(key)),
        }
    }

    pub(super) fn get_array<'a>(
        obj: &'a [(String, Value)],
        key: &'static str,
    ) -> Result<&'a [Value], PerfError> {
        match obj.iter().find(|(k, _)| k == key) {
            Some((_, Value::Array(items))) => Ok(items),
            _ => Err(PerfError::MissingField(key)),
        }
    }

    pub(super) fn parse(text: &str) -> Result<Value, PerfError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "end of document"));
        }
        Ok(value)
    }

    fn err(at: usize, expected: &'static str) -> PerfError {
        PerfError::Parse { at, expected }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, ch: u8, what: &'static str) -> Result<(), PerfError> {
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(err(*pos, what))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, PerfError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b'0'..=b'9') => parse_number(bytes, pos),
            Some(b't') => parse_lit(bytes, pos, b"true", Value::Bool(true)),
            Some(b'f') => parse_lit(bytes, pos, b"false", Value::Bool(false)),
            Some(b'n') => parse_lit(bytes, pos, b"null", Value::Null),
            _ => Err(err(*pos, "a JSON value")),
        }
    }

    fn parse_lit(
        bytes: &[u8],
        pos: &mut usize,
        lit: &'static [u8],
        value: Value,
    ) -> Result<Value, PerfError> {
        if bytes.len() - *pos >= lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(err(*pos, "true/false/null"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, PerfError> {
        let start = *pos;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if let Some(b'.' | b'e' | b'E' | b'-' | b'+') = bytes.get(*pos) {
            // lvp-perf/1 numbers are non-negative integers only.
            return Err(err(*pos, "an integer"));
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Value::Num)
            .ok_or(err(start, "an integer"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, PerfError> {
        expect(bytes, pos, b'"', "a string")?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return Err(err(*pos, "a string escape")),
                    }
                    *pos += 1;
                }
                Some(&c) if c >= 0x20 => {
                    // Copy the full UTF-8 sequence starting here.
                    let s = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| err(*pos, "valid UTF-8"))?;
                    let ch = s.chars().next().ok_or(err(*pos, "a character"))?;
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
                _ => return Err(err(*pos, "a string character")),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, PerfError> {
        expect(bytes, pos, b'[', "an array")?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(err(*pos, "',' or ']'")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, PerfError> {
        expect(bytes, pos, b'{', "an object")?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':', "':'")?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(err(*pos, "',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, u64)]) -> PerfReport {
        PerfReport {
            config: PerfConfig::default(),
            results: pairs
                .iter()
                .map(|&(name, median)| BenchResult {
                    name: name.to_string(),
                    median_ns: median,
                    p10_ns: median.saturating_sub(1),
                    p90_ns: median + 1,
                    samples_ns: vec![median; 3],
                })
                .collect(),
        }
    }

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
    fn json_roundtrip_is_lossless() {
        let r = report(&[("a", 100), ("b", 0)]);
        let parsed = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Empty report too.
        let empty = PerfReport {
            config: PerfConfig::default(),
            results: Vec::new(),
        };
        assert_eq!(PerfReport::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn check_flags_only_past_threshold() {
        let base = report(&[("a", 1000), ("b", 1000), ("missing", 5)]);
        let cur = report(&[("a", 1100), ("b", 1401), ("extra", 9)]);
        // 10% over on a, 40.1% over on b; threshold 40 flags only b.
        let regs = check(&cur, &base, 40);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "b");
        assert_eq!(regs[0].slowdown_pct, 40);
        assert_eq!(regs[0].baseline_ns, 1000);
        assert_eq!(regs[0].current_ns, 1401);
        // Exactly at threshold passes.
        let regs = check(&report(&[("a", 1400)]), &base, 40);
        assert!(regs.is_empty());
        // Zero-median baselines never divide by zero.
        let regs = check(&report(&[("z", 10)]), &report(&[("z", 0)]), 40);
        assert!(regs.is_empty());
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
