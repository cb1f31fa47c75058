//! One cold run of one benchmark workload, in a process of its own.
//!
//! ```text
//! perfbench <workload> --seed N [--trace | --setup-only]
//! ```
//!
//! The run builds a fresh [`Engine`] with two workers and no disk cache,
//! runs the workload's units (registry experiments and oracle plans) in
//! an order drawn from the seed, and prints one JSON line: set-up and
//! run wall time, the engine's counters, and a fingerprint of every
//! rendered report and oracle verdict. `perfbench/run.py` compares those
//! with the recorded outputs and takes CPU time and peak memory from the
//! process's rusage, which is why every run is a fresh process.
//!
//! With `--trace` the run also records a span around each unit with the
//! engine's counter deltas across it, then replays the run's trace cells
//! through each crate's entry point (see [`replay`]). The replay is timed
//! apart from the run.
//!
//! With `--setup-only` the process stops after set-up, so that set-up
//! time can be sampled many times per benchmark run: it is paid once per
//! process.

mod replay;
mod workloads;

use lvp_harness::{Engine, EngineStats};
use lvp_trace::rng::Lcg;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{Output, WorkloadDef};

/// Worker threads per engine: the 2-CPU machine the benchmark was sized
/// on. Fixed, so that results do not depend on the host's CPU count.
const THREADS: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (def, seed, mode) = match parse(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench <workload> --seed N [--trace | --setup-only]"
            );
            std::process::exit(2);
        }
    };
    match run(def, seed, mode) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", def.name);
            std::process::exit(1);
        }
    }
}

/// What one process does after set-up.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Traced,
    SetupOnly,
}

fn parse(args: &[String]) -> Result<(&'static WorkloadDef, u64, Mode), String> {
    let mut name = None;
    let mut seed = None;
    let mut mode = Mode::Run;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--trace" if mode == Mode::Run => mode = Mode::Traced,
            "--setup-only" if mode == Mode::Run => mode = Mode::SetupOnly,
            _ if name.is_none() && !a.starts_with('-') => name = Some(a.as_str()),
            _ => return Err(format!("unexpected argument `{a}`")),
        }
    }
    let name = name.ok_or("no workload named")?;
    let def = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    Ok((def, seed.ok_or("--seed is required")?, mode))
}

/// A span around one unit of the traced run.
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    delta: Vec<(&'static str, u64)>,
}

fn run(def: &'static WorkloadDef, seed: u64, mode: Mode) -> Result<String, String> {
    // Set-up: the registered synth-* rows (generated, compiled and
    // golden-run once per process) and the engine over the workload's
    // programs.
    let setup = Instant::now();
    lvp_workloads::synth_suite();
    let engine = Engine::new()
        .with_threads(THREADS)
        .with_workload_names(&(def.engine_names)())
        .map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed().as_secs_f64();
    if mode == Mode::SetupOnly {
        return Ok(format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"setup_s\":{setup_s}}}",
            def.name
        ));
    }
    let traced = mode == Mode::Traced;

    let mut units = def.units();
    shuffle(&mut units, seed);

    let start = Instant::now();
    let mut outputs: Vec<Output> = Vec::new();
    let mut spans = Vec::new();
    for unit in &units {
        let before = traced.then(|| (engine.stats(), start.elapsed().as_secs_f64()));
        outputs.extend(unit.run(&engine));
        if let Some((before, start_s)) = before {
            let delta = counters(&engine.stats())
                .into_iter()
                .zip(counters(&before))
                .map(|((k, after), (_, b))| (k, after - b))
                .collect();
            spans.push(Span {
                name: unit.name(),
                start_s,
                end_s: start.elapsed().as_secs_f64(),
                delta,
            });
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = engine.stats();

    let mut j = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"threads\":{THREADS},\"host_cpus\":{},\
         \"setup_s\":{setup_s},\"wall_s\":{wall_s},\"order\":[{}],\"counters\":{},\"outputs\":{{",
        def.name,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        units
            .iter()
            .map(|u| format!("\"{}\"", u.name()))
            .collect::<Vec<_>>()
            .join(","),
        json_counters(&counters(&stats)),
    );
    for (i, (label, out)) in outputs.iter().enumerate() {
        let value = match out {
            Ok(text) => format!("{:016x}", fnv1a(text.as_bytes())),
            Err(e) => format!("error: {e}"),
        };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(j, "{sep}\"{}\":\"{}\"", esc(label), esc(&value));
    }
    j.push('}');

    if traced {
        j.push_str(",\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                j,
                "{sep}{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"delta\":{}}}",
                s.name,
                s.start_s,
                s.end_s,
                json_counters(&s.delta)
            );
        }
        j.push(']');
        let replay_start = Instant::now();
        let mut layers = run_layers(&stats, wall_s, &spans);
        layers.extend(replay::replay(&engine, def, &stats)?);
        let _ = write!(
            j,
            ",\"replay_s\":{},\"layers\":{{",
            replay_start.elapsed().as_secs_f64()
        );
        for (i, (k, v)) in layers.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(j, "{sep}\"{k}\":{v}");
        }
        j.push('}');
    }
    j.push('}');
    Ok(j)
}

/// Per-layer metrics taken from the run itself: stage work from the
/// engine's counters, cache outcomes, worker busy share, and each unit's
/// span. Units the workload does not run report zero.
fn run_layers(s: &EngineStats, wall_s: f64, spans: &[Span]) -> Vec<(String, f64)> {
    let sec = |ns: u64| ns as f64 / 1e9;
    let mut m: Vec<(String, f64)> = vec![
        ("harness.time_work_s".into(), sec(s.timing_ns)),
        ("harness.predict_work_s".into(), sec(s.annotate_ns)),
        ("harness.trace_work_s".into(), sec(s.trace_ns)),
        ("harness.crosscheck_work_s".into(), sec(s.crosscheck_ns)),
        ("harness.valueflow_work_s".into(), sec(s.value_flow_ns)),
        ("harness.characterize_work_s".into(), sec(s.characterize_ns)),
        (
            "harness.busy_frac".into(),
            sec(s.total_stage_ns()) / (wall_s * THREADS as f64),
        ),
        ("harness.traces_computed".into(), s.traces_computed as f64),
        (
            "harness.annotations_computed".into(),
            s.annotations_computed as f64,
        ),
        ("harness.timings_computed".into(), s.timings_computed as f64),
        ("harness.trace_hits".into(), s.trace_hits as f64),
        ("harness.annotation_hits".into(), s.annotation_hits as f64),
        ("harness.timing_hits".into(), s.timing_hits as f64),
    ];
    let names = lvp_harness::experiments()
        .iter()
        .map(|d| d.name)
        .chain(workloads::ORACLE_UNITS);
    for name in names {
        let secs = spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| sp.end_s - sp.start_s)
            .sum();
        m.push((format!("harness.exp.{name}_s"), secs));
    }
    m
}

/// Every counter of [`EngineStats`], by name.
fn counters(s: &EngineStats) -> Vec<(&'static str, u64)> {
    vec![
        ("traces_computed", s.traces_computed),
        ("trace_hits", s.trace_hits),
        ("traces_disk_hit", s.traces_disk_hit),
        ("annotations_computed", s.annotations_computed),
        ("annotation_hits", s.annotation_hits),
        ("timings_computed", s.timings_computed),
        ("timing_hits", s.timing_hits),
        ("crosschecks_computed", s.crosschecks_computed),
        ("crosscheck_hits", s.crosscheck_hits),
        ("value_flows_computed", s.value_flows_computed),
        ("value_flow_hits", s.value_flow_hits),
        ("characterizations_computed", s.characterizations_computed),
        ("characterization_hits", s.characterization_hits),
        ("trace_ns", s.trace_ns),
        ("annotate_ns", s.annotate_ns),
        ("timing_ns", s.timing_ns),
        ("crosscheck_ns", s.crosscheck_ns),
        ("value_flow_ns", s.value_flow_ns),
        ("characterize_ns", s.characterize_ns),
    ]
}

fn json_counters(c: &[(&str, u64)]) -> String {
    let fields: Vec<String> = c.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Seeded Fisher-Yates shuffle. The order changes which unit pays each
/// cold miss, never what is computed: every output and every counter
/// total is the same for all seeds.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Lcg::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// 64-bit FNV-1a: the output fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
