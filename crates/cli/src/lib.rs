//! # lvp-cli — command-line driver for the LVP reproduction
//!
//! Implements the `lvp` binary. All commands are implemented as library
//! functions that return their output as a `String`, so they are fully
//! testable without spawning processes.
//!
//! ```text
//! lvp suite                           list the 17 workloads
//! lvp run <prog|workload> [opts]      compile + run, print output
//! lvp asm <file.s> [opts]             assemble + disassembly listing
//! lvp locality <prog|workload> [opts] Figure 1-style locality report
//! lvp annotate <prog|workload> [opts] LVP unit statistics
//! lvp profile <prog|workload> [opts]  hottest static loads
//! lvp simulate <prog|workload> [opts] cycle-accurate timing
//! lvp trace <prog|workload> [opts]    dump the text trace (--top lines)
//! lvp trace pack <src> --out <f>      write a binary LVPT v2 trace file
//! lvp trace unpack <file>             binary trace file -> text dump
//! lvp trace verify <file>             stream + checksum-verify a trace file
//! lvp trace info <file>               print a trace file's header
//! lvp check <prog|workload> [opts]    static verifier (lints LVP001-021)
//! lvp check --all [opts]              verify every workload/profile/opt cell
//! lvp bench [names|--all] [opts]      regenerate paper experiments
//! lvp characterize [names] [opts]     per-benchmark value metrics (--csv)
//! lvp synth --profile P [--seed N]    generate an adversarial workload
//!                                     (--scale bench|tiny --out FILE
//!                                      --verify --list)
//!
//! options:
//!   --profile toc|gp        codegen profile        (default toc; under
//!                           `synth`, a synth profile name)
//!   --config  simple|constant|limit|perfect        (default simple)
//!   --machine 620|620+|21164                       (default 620)
//!   --top     N             rows in `profile`      (default 10)
//!   --lint                  run the verifier after `asm`
//!   --compare-lct           join static load classes vs the LCT (`check`)
//!   --memory                provenance lints LVP007-011     (`check`)
//!   --value-flow            value-flow lints LVP012-021     (`check`)
//!   --cross-check           static/dynamic CVU oracle       (`check`)
//!   --format text|json      `check` output format           (default text)
//!   --out     FILE          output path for `trace pack` and `synth`
//!   --threads N             bench worker threads   (default: all CPUs)
//!   --fast                  bench on the 4-workload smoke subset
//!   --all                   bench every registered experiment
//!   --csv                   bench output as CSV instead of text
//!   --seed    N             `synth` generator seed  (default 1)
//!   --scale   bench|tiny    `synth` program size    (default bench)
//!   --verify                `synth` self-verification
//! ```
//!
//! `<prog|workload>` is a suite workload name (`lvp suite` lists them), a
//! mini-C file ending in `.mc`, or an assembly file ending in `.s`.

use lvp_harness::MachineModel;
use lvp_isa::{AsmProfile, Assembler, Program};
use lvp_lang::OptLevel;
use lvp_predictor::characterize::{Characterization, Characterizer, Summary};
use lvp_predictor::presets;
use lvp_predictor::{LocalityMeter, LvpConfig, LvpUnit, PredictorKind};
use lvp_sim::SimEngine;
use lvp_trace::{dump_text, Trace};
use lvp_workloads::{
    generate, SynthProfile, SynthScale, SynthSpec, TargetMetric, Workload, DEFAULT_FUEL,
};
use std::fmt;
use std::fmt::Write as _;

/// Error produced by a CLI command.
///
/// Carries the process exit code (`lvp check` contract: 0 clean, 1 lint
/// findings, 2 analysis/usage error) and whether the message is a
/// *report* that belongs on stdout (so `--format json` output is
/// machine-readable even when findings make the exit code 1).
#[derive(Debug)]
pub struct CliError {
    message: String,
    code: u8,
    stdout: bool,
}

impl CliError {
    /// A hard error (bad usage, unresolvable program, simulation
    /// failure): exit code 2, message to stderr.
    fn new(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 2,
            stdout: false,
        }
    }

    /// Lint findings: exit code 1, rendered report to stdout.
    fn findings(msg: impl Into<String>) -> CliError {
        CliError {
            message: msg.into(),
            code: 1,
            stdout: true,
        }
    }

    /// The process exit code this error maps to (1 or 2).
    pub fn exit_code(&self) -> u8 {
        self.code
    }

    /// Whether the message is a report for stdout rather than an error
    /// for stderr.
    pub fn to_stdout(&self) -> bool {
        self.stdout
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parsed command-line options shared by the commands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Codegen profile for compilation/assembly.
    pub profile: AsmProfile,
    /// Optimization level for mini-C compilation.
    pub opt: OptLevel,
    /// LVP configuration for `annotate`/`simulate`.
    pub config: LvpConfig,
    /// Predictor backend override (`--predictor`): applied to `config`
    /// and, for `bench`, to every experiment configuration through
    /// [`lvp_harness::Engine::with_predictor`].
    pub predictor: Option<PredictorKind>,
    /// Machine model for `simulate`.
    pub machine: MachineModel,
    /// Row limit for `profile`.
    pub top: usize,
    /// Run the static verifier after `asm`.
    pub lint: bool,
    /// Join static load classes against the dynamic LCT in `check`.
    pub compare_lct: bool,
    /// Run the memory provenance pass in `check` (lints LVP007-011).
    pub memory: bool,
    /// Run the value-flow pass in `check` (lints LVP012-021; with
    /// `--cross-check`, also the stride-predictor oracle).
    pub value_flow: bool,
    /// Run the static/dynamic cross-check oracle in `check`.
    pub cross_check: bool,
    /// Output format for `check`.
    pub format: CheckFormat,
    /// Worker threads for `bench` (`None` = one per available CPU).
    pub threads: Option<usize>,
    /// Run `bench` on the fast 4-workload smoke subset.
    pub fast: bool,
    /// Run every registered experiment in `bench`.
    pub all: bool,
    /// Emit `bench` reports as CSV instead of fixed-width text.
    pub csv: bool,
    /// Output path for `trace pack` and `synth`.
    pub out: Option<String>,
    /// Microbenchmarks selected with `--bench NAME` for `perf` (empty =
    /// whole registry, or the fast subset under `--fast`).
    pub bench: Vec<String>,
    /// Emit the `perf` report as `lvp-perf/1` JSON.
    pub json: bool,
    /// List the `perf` bench registry or the `synth` profiles instead of
    /// running anything.
    pub list: bool,
    /// The profile `synth` generates (`--profile` names a synth profile
    /// under `synth`, not a codegen profile).
    pub synth_profile: Option<SynthProfile>,
    /// Generator seed for `synth`.
    pub seed: u64,
    /// Program size class for `synth`.
    pub scale: SynthScale,
    /// Under `synth`, compile, check, run and characterize the generated
    /// program against its profile's declared bands.
    pub verify: bool,
}

/// Output format for `lvp check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// The stable `lvp-check/1` JSON schema (one diagnostic per line,
    /// suitable for baseline diffing in CI).
    Json,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            profile: AsmProfile::Toc,
            opt: OptLevel::O0,
            config: presets::simple(),
            predictor: None,
            machine: MachineModel::ppc620(),
            top: 10,
            lint: false,
            compare_lct: false,
            memory: false,
            value_flow: false,
            cross_check: false,
            format: CheckFormat::Text,
            threads: None,
            fast: false,
            all: false,
            csv: false,
            out: None,
            bench: Vec::new(),
            json: false,
            list: false,
            synth_profile: None,
            seed: 1,
            scale: SynthScale::Bench,
            verify: false,
        }
    }
}

/// Parses `--flag value` pairs (and the valueless `--lint` /
/// `--compare-lct` switches) from the arguments `args` that follow the
/// command `cmd`, returning the options and the remaining positional
/// arguments. Under `synth`, `--profile` names a synth profile.
///
/// # Errors
///
/// Returns [`CliError`] for unknown flags or bad values.
pub fn parse_options(cmd: &str, args: &[String]) -> Result<(Options, Vec<String>), CliError> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let take_value = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| CliError::new(format!("{a} requires a value")))
        };
        match a.as_str() {
            "--profile" if cmd == "synth" => {
                let v = take_value(&mut i)?;
                opts.synth_profile = Some(SynthProfile::parse(&v).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown synth profile `{v}` (run `lvp synth --list`)"
                    ))
                })?);
            }
            "--profile" => {
                opts.profile = match take_value(&mut i)?.as_str() {
                    "toc" => AsmProfile::Toc,
                    "gp" => AsmProfile::Gp,
                    other => return Err(CliError::new(format!("unknown profile `{other}`"))),
                };
            }
            "--config" => {
                opts.config = match take_value(&mut i)?.as_str() {
                    "simple" => presets::simple(),
                    "constant" => presets::constant(),
                    "limit" => presets::limit(),
                    "perfect" => presets::perfect(),
                    other => return Err(CliError::new(format!("unknown config `{other}`"))),
                };
            }
            "--predictor" => {
                let v = take_value(&mut i)?;
                opts.predictor = Some(
                    v.parse::<PredictorKind>()
                        .map_err(|e| CliError::new(e.to_string()))?,
                );
            }
            "--machine" => {
                opts.machine = match take_value(&mut i)?.as_str() {
                    "620" => MachineModel::ppc620(),
                    "620+" => MachineModel::ppc620_plus(),
                    "21164" => MachineModel::alpha21164(),
                    other => return Err(CliError::new(format!("unknown machine `{other}`"))),
                };
            }
            "--opt" => {
                opts.opt = match take_value(&mut i)?.as_str() {
                    "0" => OptLevel::O0,
                    "1" => OptLevel::O1,
                    other => return Err(CliError::new(format!("unknown opt level `{other}`"))),
                };
            }
            "--top" => {
                opts.top = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError::new("--top requires a number"))?;
            }
            "--threads" => {
                let n: usize = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError::new("--threads requires a number"))?;
                if n == 0 {
                    return Err(CliError::new("--threads must be at least 1"));
                }
                opts.threads = Some(n);
            }
            "--seed" => {
                opts.seed = take_value(&mut i)?
                    .parse()
                    .map_err(|_| CliError::new("--seed requires a number"))?;
            }
            "--scale" => {
                let v = take_value(&mut i)?;
                opts.scale = SynthScale::parse(&v).ok_or_else(|| {
                    CliError::new(format!("unknown scale `{v}` (expected bench|tiny)"))
                })?;
            }
            "--format" => {
                opts.format = match take_value(&mut i)?.as_str() {
                    "text" => CheckFormat::Text,
                    "json" => CheckFormat::Json,
                    other => return Err(CliError::new(format!("unknown format `{other}`"))),
                };
            }
            "--out" => opts.out = Some(take_value(&mut i)?),
            "--bench" => opts.bench.push(take_value(&mut i)?),
            "--json" => opts.json = true,
            "--list" => opts.list = true,
            "--verify" => opts.verify = true,
            "--lint" => opts.lint = true,
            "--compare-lct" => opts.compare_lct = true,
            "--memory" => opts.memory = true,
            "--value-flow" => opts.value_flow = true,
            "--cross-check" => opts.cross_check = true,
            "--fast" => opts.fast = true,
            "--all" => opts.all = true,
            "--csv" => opts.csv = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::new(format!("unknown flag `{flag}`")));
            }
            _ => positional.push(a.clone()),
        }
        i += 1;
    }
    if let Some(kind) = opts.predictor {
        opts.config = opts.config.clone().builder().kind(kind).build();
    }
    Ok((opts, positional))
}

/// Resolves a program argument: a workload name, a `.mc` mini-C file
/// (compiled at `opt`), or a `.s` assembly file.
///
/// # Errors
///
/// Returns [`CliError`] if the name is unknown, the file is unreadable,
/// or compilation/assembly fails.
pub fn load_program_with(
    target: &str,
    profile: AsmProfile,
    opt: OptLevel,
) -> Result<Program, CliError> {
    if let Some(w) = Workload::by_name(target) {
        return lvp_lang::compile_with(w.source, profile, opt)
            .map_err(|e| CliError::new(format!("workload `{target}`: {e}")));
    }
    if target.ends_with(".mc") {
        let src = std::fs::read_to_string(target)
            .map_err(|e| CliError::new(format!("cannot read {target}: {e}")))?;
        return lvp_lang::compile_with(&src, profile, opt)
            .map_err(|e| CliError::new(e.to_string()));
    }
    if target.ends_with(".s") {
        let src = std::fs::read_to_string(target)
            .map_err(|e| CliError::new(format!("cannot read {target}: {e}")))?;
        return Assembler::new(profile)
            .assemble(&src)
            .map_err(|e| CliError::new(e.to_string()));
    }
    Err(CliError::new(format!(
        "`{target}` is not a workload name (see `lvp suite`), a .mc file, or a .s file"
    )))
}

fn trace_program(program: &Program) -> Result<(Trace, Vec<u64>), CliError> {
    let run = SimEngine::Fast
        .run_traced(program, 200_000_000)
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok((run.trace, run.output))
}

/// `lvp suite` — lists the workload registry.
pub fn cmd_suite() -> String {
    let mut out = String::from("name       fp  description\n");
    for w in lvp_workloads::suite() {
        let _ = writeln!(
            out,
            "{:10} {}  {} [{}]",
            w.name,
            if w.floating_point { "y" } else { "." },
            w.description,
            w.input
        );
    }
    out
}

/// `lvp run <target>` — compiles and runs, printing output and counts.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_run(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, output) = trace_program(&program)?;
    let s = trace.stats();
    let mut out = String::new();
    let _ = writeln!(out, "output: {output:?}");
    let _ = writeln!(
        out,
        "instructions {}  loads {}  stores {}  branches {}  jumps {}  fp {}",
        s.instructions, s.loads, s.stores, s.cond_branches, s.jumps, s.fp_ops
    );
    Ok(out)
}

/// `lvp asm <file.s>` — assembles and returns the disassembly listing.
/// With `--lint`, also runs the static verifier and fails on any
/// diagnostic.
///
/// # Errors
///
/// Propagates file and assembly errors; with `--lint`, any lint
/// diagnostic is an error whose message lists every finding.
pub fn cmd_asm(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let mut out = program.disassemble();
    let _ = writeln!(
        out,
        "\n{} instructions, {} data bytes, entry {:#x}, pool base {:#x}",
        program.text().len(),
        program.data().len(),
        program.entry(),
        program.pool_base()
    );
    if opts.lint {
        let diags = lvp_analyze::verify(&program);
        if diags.is_empty() {
            let _ = writeln!(out, "lint: clean (0 diagnostics)");
        } else {
            return Err(CliError::findings(render_diagnostics(target, &diags)));
        }
    }
    Ok(out)
}

fn render_diagnostics(target: &str, diags: &[lvp_analyze::Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{target}: {d}");
    }
    let _ = write!(
        out,
        "{target}: {} diagnostic{} found",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    );
    out
}

/// Runs the static passes over one program: the base verifier
/// (LVP001-006), with `--memory` the provenance pass (LVP007-011), and
/// with `--value-flow` the value-flow pass (LVP012/013/015/016; LVP014
/// needs a trace and never appears here). The combined list is
/// canonicalized by [`lvp_analyze::sort_and_dedupe`]; the provenance and
/// value-flow reports come back too, so no caller runs a pass twice.
/// With both flags the provenance report is the one the value-flow pass
/// computes on its way.
fn static_diagnostics(
    program: &Program,
    opts: &Options,
) -> (
    Vec<lvp_analyze::Diagnostic>,
    Option<lvp_analyze::MemoryReport>,
    Option<lvp_analyze::ValueFlowReport>,
) {
    let mut diags = lvp_analyze::verify(program);
    let (value_flow, memory) = if opts.value_flow {
        let (vf, memory) = lvp_analyze::analyze_value_flow_and_memory(program);
        (Some(vf), opts.memory.then_some(memory))
    } else {
        (
            None,
            opts.memory.then(|| lvp_analyze::analyze_memory(program)),
        )
    };
    if let Some(m) = &memory {
        diags.extend_from_slice(&m.diagnostics);
    }
    if let Some(vf) = &value_flow {
        diags.extend_from_slice(&vf.diagnostics);
    }
    if memory.is_some() || value_flow.is_some() {
        lvp_analyze::sort_and_dedupe(&mut diags);
    }
    (diags, memory, value_flow)
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the stable `lvp-check/1` JSON document. Scalar fields come
/// first; each diagnostic is one 4-space-indented line so CI can extract
/// and diff them against a committed baseline with `grep`/`comm`.
fn render_check_json(
    cells: &[(String, Vec<lvp_analyze::Diagnostic>)],
    kind: PredictorKind,
    cross: Option<&[lvp_harness::CrossCheckReport]>,
    vf: Option<&[lvp_harness::ValueFlowCheckReport]>,
) -> String {
    let count: usize = cells.iter().map(|(_, d)| d.len()).sum();
    let mut out = format!(
        "{{\"schema\":\"lvp-check/1\",\"predictor\":\"{}\",\"cells\":{},\"count\":{count}",
        kind.as_str(),
        cells.len()
    );
    if let Some(reports) = cross {
        let pass = reports.iter().all(|r| r.passed());
        let _ = write!(
            out,
            ",\"cross_check\":\"{}\",\"violations\":[",
            if pass { "PASS" } else { "FAIL" }
        );
        let lines: Vec<String> = reports
            .iter()
            .flat_map(|r| {
                r.violations.iter().map(|v| {
                    format!(
                        "\n    \"{}: {}\"",
                        json_escape(&r.cell),
                        json_escape(&v.to_string())
                    )
                })
            })
            .collect();
        out.push_str(&lines.join(","));
        if !lines.is_empty() {
            out.push('\n');
        }
        out.push(']');
    }
    if let Some(reports) = vf {
        let pass = reports.iter().all(|r| r.passed());
        let _ = write!(
            out,
            ",\"value_flow\":\"{}\",\"value_flow_violations\":[",
            if pass { "PASS" } else { "FAIL" }
        );
        let lines: Vec<String> = reports
            .iter()
            .flat_map(|r| {
                r.violations.iter().map(|v| {
                    format!(
                        "\n    \"{}: {}\"",
                        json_escape(&r.cell),
                        json_escape(&v.to_string())
                    )
                })
            })
            .collect();
        out.push_str(&lines.join(","));
        if !lines.is_empty() {
            out.push('\n');
        }
        out.push(']');
    }
    out.push_str(",\"diagnostics\":[");
    let lines: Vec<String> = cells
        .iter()
        .flat_map(|(cell, diags)| {
            diags.iter().map(|d| {
                format!(
                    "\n    {{\"cell\":\"{}\",\"pc\":\"{:#x}\",\"code\":\"{}\",\"name\":\"{}\",\"message\":\"{}\"}}",
                    json_escape(cell),
                    d.pc,
                    d.code.as_str(),
                    d.code.name(),
                    json_escape(&d.message)
                )
            })
        })
        .collect();
    out.push_str(&lines.join(","));
    if !lines.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Labels one (target, profile, opt) cell, e.g. `sc/toc/O0`.
fn cell_label(target: &str, profile: AsmProfile, opt: OptLevel) -> String {
    format!("{target}/{profile}/{opt:?}")
}

/// `lvp check <target>` — runs the static verifier over the program and
/// fails if any lint fires. With `--memory`, the provenance pass
/// (LVP007-011) also runs and its load classification summary is
/// printed. With `--compare-lct`, the program is traced, the LVP unit's
/// Load Classification Table is trained, and the static-class vs
/// LCT-outcome comparison table is printed. With `--cross-check`, the
/// program is traced and the static/dynamic oracle must hold. `--format
/// json` swaps the renderer for the stable `lvp-check/1` schema.
///
/// Exit-code contract (see `lvp help`): 0 clean, 1 findings (the report
/// still goes to stdout), 2 analysis error.
///
/// # Errors
///
/// Propagates program-resolution errors (exit 2); any lint diagnostic or
/// oracle violation becomes a findings error (exit 1) whose message is
/// the full rendered report.
pub fn cmd_check(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (diags, memory, value_flow) = static_diagnostics(&program, opts);
    let cell = cell_label(target, opts.profile, opts.opt);
    let (report, vf_report) = if opts.cross_check {
        let (trace, _) = trace_program(&program)?;
        let cross = lvp_harness::cross_check(&program, &trace, &opts.config, cell.clone());
        let vf = value_flow
            .as_ref()
            .map(|vf| lvp_harness::value_flow_check_with(vf, &program, &trace, cell.clone()));
        (Some(cross), vf)
    } else {
        (None, None)
    };

    if opts.format == CheckFormat::Json {
        let cells = vec![(cell, diags)];
        let json = render_check_json(
            &cells,
            opts.config.kind,
            report.as_ref().map(std::slice::from_ref),
            vf_report.as_ref().map(std::slice::from_ref),
        );
        let clean = cells[0].1.is_empty()
            && report.as_ref().is_none_or(|r| r.passed())
            && vf_report.as_ref().is_none_or(|r| r.passed());
        return if clean {
            Ok(json)
        } else {
            Err(CliError::findings(json))
        };
    }

    if !diags.is_empty() {
        // Findings exit — but the oracle verdicts (computed above) must
        // still surface: a baselined lint must never mask a violation.
        let mut out = render_diagnostics(target, &diags);
        if report.is_some() || vf_report.is_some() {
            out.push('\n');
        }
        if let Some(r) = &report {
            let _ = writeln!(out, "{r}");
            let verdict = if r.passed() { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "cross-check: {verdict}");
        }
        if let Some(r) = &vf_report {
            let _ = writeln!(out, "{r}");
            let verdict = if r.passed() { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "value-flow: {verdict}");
        }
        return Err(CliError::findings(out));
    }
    let mut out = format!(
        "{target}: ok ({} instructions, 0 diagnostics)\n",
        program.text().len()
    );
    if let Some(memory) = &memory {
        let _ = writeln!(
            out,
            "memory: {} load(s): {} must-constant, {} stack-local, {} unknown",
            memory.loads.len(),
            memory.count(lvp_analyze::MemClass::MustConstant),
            memory.count(lvp_analyze::MemClass::StackLocal),
            memory.count(lvp_analyze::MemClass::Unknown),
        );
    }
    if let Some(vf) = &value_flow {
        let _ = writeln!(
            out,
            "value-flow: {} load(s): {} must-constant, {} affine-stride, {} loop-invariant, {} forwardable, {} unknown",
            vf.loads.len(),
            vf.count(lvp_analyze::LoadPredictability::MustConstant),
            vf.count(lvp_analyze::LoadPredictability::AffineStride(0)),
            vf.count(lvp_analyze::LoadPredictability::LoopInvariant),
            vf.count(lvp_analyze::LoadPredictability::StoreToLoadForwardable),
            vf.count(lvp_analyze::LoadPredictability::Unknown),
        );
    }
    if let Some(r) = &report {
        let _ = writeln!(out, "{r}");
        if !r.passed() {
            return Err(CliError::findings(format!("{out}cross-check: FAIL\n")));
        }
        let _ = writeln!(out, "cross-check: PASS");
    }
    if let Some(v) = &vf_report {
        let _ = writeln!(out, "{v}");
        for d in &v.under_approximations {
            let _ = writeln!(out, "  {d}");
        }
        if !v.passed() {
            return Err(CliError::findings(format!("{out}value-flow: FAIL\n")));
        }
        let _ = writeln!(out, "value-flow: PASS");
    }
    if opts.compare_lct {
        let (trace, _) = trace_program(&program)?;
        let mut unit = LvpUnit::new(opts.config.clone());
        let _ = unit.annotate(&trace);
        let static_loads = lvp_analyze::classify_loads(&program);
        let cmp = lvp_analyze::LctComparison::build(&static_loads, unit.lct(), &trace);
        let _ = write!(out, "\n{cmp}");
    }
    Ok(out)
}

/// `lvp check --all` — runs the static passes over every suite workload
/// at every profile × opt level cell (`--fast` restricts to the smoke
/// subset). With `--cross-check`, every cell is additionally traced
/// through the shared [`lvp_harness::Engine`] (parallel, trace-cached
/// like `bench`) and the static/dynamic oracle must hold in each. The
/// text report ends with the `memory:` line `bench` ends with.
///
/// # Errors
///
/// Compilation or tracing failures are hard errors (exit 2); any
/// diagnostic or oracle violation is a findings error (exit 1) carrying
/// the full rendered report.
pub fn cmd_check_all(opts: &Options) -> Result<String, CliError> {
    let engine = build_engine(opts);
    let profiles = [AsmProfile::Gp, AsmProfile::Toc];
    let opt_levels = [OptLevel::O0, OptLevel::O1];

    let mut cells: Vec<(String, Vec<lvp_analyze::Diagnostic>)> = Vec::new();
    for w in engine.suite() {
        for profile in profiles {
            for opt in opt_levels {
                let program = lvp_lang::compile_with(w.source, profile, opt).map_err(|e| {
                    CliError::new(format!("workload `{}` ({profile}/{opt:?}): {e}", w.name))
                })?;
                let (diags, _, _) = static_diagnostics(&program, opts);
                cells.push((cell_label(w.name, profile, opt), diags));
            }
        }
    }

    let reports: Option<Vec<lvp_harness::CrossCheckReport>> = if opts.cross_check {
        let plan = lvp_harness::ExperimentPlan::new()
            .workloads(engine.suite().to_vec())
            .profiles(profiles)
            .opt_levels(opt_levels)
            .configs([opts.config.clone()])
            .map(|job, ctx| ctx.job_cross_check(job).map(|r| (*r).clone()));
        Some(engine.run(plan).map_err(|e| CliError::new(e.to_string()))?)
    } else {
        None
    };
    let vf_reports: Option<Vec<lvp_harness::ValueFlowCheckReport>> =
        if opts.cross_check && opts.value_flow {
            let plan = lvp_harness::ExperimentPlan::new()
                .workloads(engine.suite().to_vec())
                .profiles(profiles)
                .opt_levels(opt_levels)
                .configs([opts.config.clone()])
                .map(|job, ctx| ctx.job_value_flow(job).map(|r| (*r).clone()));
            Some(engine.run(plan).map_err(|e| CliError::new(e.to_string()))?)
        } else {
            None
        };

    let count: usize = cells.iter().map(|(_, d)| d.len()).sum();
    let oracle_failed = reports
        .as_ref()
        .is_some_and(|rs| rs.iter().any(|r| !r.passed()));
    let vf_failed = vf_reports
        .as_ref()
        .is_some_and(|rs| rs.iter().any(|r| !r.passed()));
    let clean = count == 0 && !oracle_failed && !vf_failed;

    let out = if opts.format == CheckFormat::Json {
        render_check_json(
            &cells,
            opts.config.kind,
            reports.as_deref(),
            vf_reports.as_deref(),
        )
    } else {
        let mut out = String::new();
        for (cell, diags) in &cells {
            if diags.is_empty() {
                let _ = writeln!(out, "{cell}: ok");
            } else {
                for d in diags {
                    let _ = writeln!(out, "{cell}: {d}");
                }
            }
        }
        let _ = writeln!(
            out,
            "check: {} cell(s), {count} diagnostic{}",
            cells.len(),
            if count == 1 { "" } else { "s" }
        );
        if let Some(rs) = &reports {
            for r in rs {
                let _ = writeln!(out, "{r}");
            }
            let _ = writeln!(
                out,
                "cross-check: {} ({} cell(s))",
                if oracle_failed { "FAIL" } else { "PASS" },
                rs.len()
            );
        }
        if let Some(rs) = &vf_reports {
            for r in rs {
                let _ = writeln!(out, "{r}");
            }
            let _ = writeln!(
                out,
                "value-flow: {} ({} cell(s))",
                if vf_failed { "FAIL" } else { "PASS" },
                rs.len()
            );
        }
        out.push_str(&memory_line(&engine));
        out
    };

    if clean {
        Ok(out)
    } else {
        Err(CliError::findings(out))
    }
}

/// `lvp locality <target>` — Figure 1-style locality report.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_locality(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, _) = trace_program(&program)?;
    let mut meter = LocalityMeter::paper_default();
    for e in &trace {
        meter.observe(&e);
    }
    let mut out = format!(
        "{} dynamic loads\nvalue locality: {:.1}% at history depth 1, {:.1}% at depth 16\n",
        meter.loads(),
        100.0 * meter.locality(1),
        100.0 * meter.locality(16)
    );
    if opts.predictor.is_some() {
        let mut unit = LvpUnit::new(opts.config.clone());
        let _ = unit.annotate(&trace);
        let s = unit.stats();
        let _ = writeln!(
            out,
            "{} backend: {:.1}% of loads predicted, {:.1}% of predictions correct",
            opts.config.kind,
            100.0 * s.predictions as f64 / s.loads.max(1) as f64,
            100.0 * s.accuracy(),
        );
    }
    Ok(out)
}

/// `lvp annotate <target>` — LVP unit statistics under `--config`.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_annotate(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, _) = trace_program(&program)?;
    let mut unit = LvpUnit::new(opts.config.clone());
    let _ = unit.annotate(&trace);
    let s = unit.stats();
    Ok(format!(
        "config: {}\nloads {}  predictions {} ({:.1}% of loads)\naccuracy {:.1}%  constants (CVU-verified) {:.1}% of loads\nLCT: {:.1}% of unpredictable and {:.1}% of predictable loads identified\n",
        opts.config,
        s.loads,
        s.predictions,
        100.0 * s.predictions as f64 / s.loads.max(1) as f64,
        100.0 * s.accuracy(),
        100.0 * s.constant_rate(),
        100.0 * s.unpredictable_hit_rate(),
        100.0 * s.predictable_hit_rate(),
    ))
}

/// `lvp profile <target>` — hottest static loads with per-PC locality.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_profile(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, _) = trace_program(&program)?;
    let Characterization { summary, pcs } = Characterizer::from_trace(&trace);
    let top_loads: u64 = pcs.iter().take(opts.top).map(|p| p.count).sum();
    let mut out = format!(
        "{} static loads; top {} cover {:.1}% of dynamic loads\n\n",
        pcs.len(),
        opts.top,
        100.0 * top_loads as f64 / summary.loads.max(1) as f64
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>9}  {:>8}  {:>8}  kind",
        "pc", "count", "local@1", "values"
    );
    for p in pcs.iter().take(opts.top) {
        let values = if p.distinct > 16 {
            ">16".to_string()
        } else {
            p.distinct.to_string()
        };
        let _ = writeln!(
            out,
            "{:#10x}  {:>9}  {:>7.1}%  {:>8}  {}{}",
            p.pc,
            p.count,
            100.0 * p.repeat_rate,
            values,
            if p.fp { "fp" } else { "int" },
            if p.distinct == 1 { " constant" } else { "" }
        );
    }
    Ok(out)
}

/// `lvp trace <target>` — dumps the first `--top` lines (default 10) of
/// the dynamic trace in the greppable text format.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_trace(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, _) = trace_program(&program)?;
    let text = dump_text(&trace);
    let mut out: String = text
        .lines()
        .take(opts.top + 1)
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    let _ = writeln!(
        out,
        "... {} entries total ({} loads, {} stores)",
        trace.len(),
        trace.stats().loads,
        trace.stats().stores
    );
    Ok(out)
}

/// Resolves a trace for `trace pack`: a workload / `.mc` / `.s` program
/// (compiled and simulated) or a text-format trace dump.
fn load_trace_for_pack(target: &str, opts: &Options) -> Result<Trace, CliError> {
    if Workload::by_name(target).is_some() || target.ends_with(".mc") || target.ends_with(".s") {
        let program = load_program_with(target, opts.profile, opts.opt)?;
        let (trace, _) = trace_program(&program)?;
        return Ok(trace);
    }
    let text = std::fs::read_to_string(target)
        .map_err(|e| CliError::new(format!("cannot read {target}: {e}")))?;
    lvp_trace::parse_text(&text).map_err(|e| CliError::new(format!("{target}: {e}")))
}

/// `lvp trace pack <src> --out <file>` — writes a binary LVPT v2 trace
/// file from a program source or a text-format trace dump.
///
/// # Errors
///
/// Propagates source-resolution, simulation, and file-write errors;
/// `--out` is required (binary data is never written to stdout).
pub fn cmd_trace_pack(src: &str, opts: &Options) -> Result<String, CliError> {
    let out_path = opts
        .out
        .as_deref()
        .ok_or_else(|| CliError::new("trace pack requires --out <file>"))?;
    let trace = load_trace_for_pack(src, opts)?;
    let mut bytes = Vec::new();
    lvp_trace::write_trace(&mut bytes, &trace)
        .map_err(|e| CliError::new(format!("encoding trace: {e}")))?;
    if let Some(parent) = std::path::Path::new(out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CliError::new(format!("cannot create {}: {e}", parent.display())))?;
        }
    }
    std::fs::write(out_path, &bytes)
        .map_err(|e| CliError::new(format!("cannot write {out_path}: {e}")))?;
    Ok(format!(
        "packed {} entries into {out_path} ({} bytes, LVPT v{})\n",
        trace.len(),
        bytes.len(),
        lvp_trace::FORMAT_VERSION
    ))
}

/// `lvp trace unpack <file>` — reads a binary trace file and returns the
/// full greppable text dump.
///
/// # Errors
///
/// Propagates file errors and typed [`lvp_trace::TraceIoError`]s
/// (corruption is a clean error, never a panic).
pub fn cmd_trace_unpack(file: &str) -> Result<String, CliError> {
    let f =
        std::fs::File::open(file).map_err(|e| CliError::new(format!("cannot read {file}: {e}")))?;
    let trace = lvp_trace::read_trace(std::io::BufReader::new(f))
        .map_err(|e| CliError::new(format!("{file}: {e}")))?;
    Ok(dump_text(&trace))
}

/// `lvp trace verify <file>` — streams an entire binary trace through
/// [`lvp_trace::TraceReader`], verifying every block checksum, without
/// ever materializing the trace.
///
/// # Errors
///
/// Returns [`CliError`] naming the typed corruption
/// ([`lvp_trace::TraceIoError`]) if any check fails.
pub fn cmd_trace_verify(file: &str) -> Result<String, CliError> {
    let f =
        std::fs::File::open(file).map_err(|e| CliError::new(format!("cannot read {file}: {e}")))?;
    let mut reader = lvp_trace::TraceReader::new(std::io::BufReader::new(f))
        .map_err(|e| CliError::new(format!("{file}: {e}")))?;
    let mut loads = 0u64;
    for entry in reader.by_ref() {
        let e = entry.map_err(|e| CliError::new(format!("{file}: {e}")))?;
        if e.is_load() {
            loads += 1;
        }
    }
    Ok(format!(
        "{file}: ok (LVPT v{}, {} entries, {} blocks, {loads} loads, checksums verified)\n",
        lvp_trace::FORMAT_VERSION,
        reader.entries_read(),
        reader.blocks_read(),
    ))
}

/// `lvp trace info <file>` — prints a binary trace file's header without
/// reading any records.
///
/// # Errors
///
/// Propagates file errors and header-level [`lvp_trace::TraceIoError`]s.
pub fn cmd_trace_info(file: &str) -> Result<String, CliError> {
    let f =
        std::fs::File::open(file).map_err(|e| CliError::new(format!("cannot read {file}: {e}")))?;
    let reader = lvp_trace::TraceReader::new(std::io::BufReader::new(f))
        .map_err(|e| CliError::new(format!("{file}: {e}")))?;
    Ok(format!(
        "{file}: LVPT v{}, {} entries declared, {} payload bytes, per-block CRC32\n",
        lvp_trace::FORMAT_VERSION,
        reader.declared_entries(),
        reader.payload_len()
    ))
}

/// `lvp simulate <target>` — cycle-accurate run under `--machine`, with
/// the no-LVP baseline and the selected `--config` side by side.
///
/// # Errors
///
/// Propagates program-resolution and simulation errors.
pub fn cmd_simulate(target: &str, opts: &Options) -> Result<String, CliError> {
    let program = load_program_with(target, opts.profile, opts.opt)?;
    let (trace, _) = trace_program(&program)?;
    let outcomes = LvpUnit::new(opts.config.clone()).annotate(&trace);
    let base = opts.machine.simulate(&trace, None);
    let lvp = opts.machine.simulate(&trace, Some(&outcomes));
    Ok(format!(
        "machine {}, config {}\nbaseline: {base}\nwith LVP: {lvp}\nspeedup: {:.3}\n",
        opts.machine.name(),
        opts.config,
        lvp.speedup_over(&base)
    ))
}

/// Builds the shared harness [`lvp_harness::Engine`] from the common
/// `--fast` / `--threads` / `--predictor` flags (used by `bench`,
/// `characterize` and `check --all`).
fn build_engine(opts: &Options) -> lvp_harness::Engine {
    let mut engine = if opts.fast {
        lvp_harness::Engine::fast()
    } else {
        lvp_harness::Engine::new()
    };
    if let Some(n) = opts.threads {
        engine = engine.with_threads(n);
    }
    if let Some(kind) = opts.predictor {
        engine = engine.with_predictor(kind);
    }
    engine
}

/// `lvp bench` with no arguments — lists the experiment registry.
fn bench_listing() -> String {
    let mut out = String::from(
        "usage: lvp bench <name>... [--all] [--fast] [--threads N] [--csv]\n\nexperiments:\n",
    );
    for def in lvp_harness::experiments() {
        let _ = writeln!(out, "  {:22} {}", def.name, def.title);
    }
    out
}

/// `lvp bench <names...>` — regenerates paper experiments through the
/// shared [`lvp_harness::Engine`]: one process, one set of caches, so
/// every (workload, profile, opt) trace is generated exactly once no
/// matter how many experiments consume it. `--fast` restricts the suite
/// to the 4-workload smoke subset, `--threads N` bounds the worker pool,
/// `--all` selects the whole registry, `--csv` swaps the renderer.
///
/// Each report is followed by a `[name: wall-time]` line and the run
/// ends with an engine cache-counter summary, a per-stage time split
/// and a `memory:` line (peak RSS and the cached traces' bytes), so CI
/// logs show where the time and memory went and that caching is
/// effective.
///
/// # Errors
///
/// Returns [`CliError`] for unknown experiment names and propagates the
/// first harness failure (which names the workload and pipeline phase).
pub fn cmd_bench(names: &[String], opts: &Options) -> Result<String, CliError> {
    let selected: Vec<&lvp_harness::ExperimentDef> = if opts.all {
        lvp_harness::experiments().iter().collect()
    } else {
        if names.is_empty() {
            return Ok(bench_listing());
        }
        names
            .iter()
            .map(|n| {
                lvp_harness::experiment(n).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown experiment `{n}` (run `lvp bench` for the list)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };

    let engine = build_engine(opts);

    let started = std::time::Instant::now();
    let mut out = String::new();
    for def in &selected {
        let t0 = std::time::Instant::now();
        let mut report = (def.run)(&engine).map_err(|e| CliError::new(e.to_string()))?;
        // A non-default engine-wide backend sweep tags every report
        // title (and thus the CSV `#` header) with the kind, so sweep
        // outputs are distinguishable; the default kind stays untagged
        // and byte-identical.
        match engine.predictor() {
            Some(kind) if kind != PredictorKind::LastValue => {
                report.title.push_str(&format!(" [{kind}]"));
            }
            _ => {}
        }
        out.push_str(&if opts.csv {
            report.render_csv()
        } else {
            report.render_text()
        });
        let _ = writeln!(out, "[{}: {:.2}s]\n", def.name, t0.elapsed().as_secs_f64());
    }
    let s = engine.stats();
    let _ = writeln!(
        out,
        "engine: {} experiment{}, {} thread{}, {:.2}s total | traces {} computed / {} cached, \
         annotations {} computed / {} cached, timings {} computed / {} cached",
        selected.len(),
        if selected.len() == 1 { "" } else { "s" },
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" },
        started.elapsed().as_secs_f64(),
        s.traces_computed,
        s.trace_hits,
        s.annotations_computed,
        s.annotation_hits,
        s.timings_computed,
        s.timing_hits,
    );
    let _ = writeln!(
        out,
        "stages: compile+trace {:.2}s, predict {:.2}s, time {:.2}s, cross-check {:.2}s, \
         value-flow {:.2}s, characterize {:.2}s ({:.2}s work across {} thread{})",
        s.trace_ns as f64 / 1e9,
        s.annotate_ns as f64 / 1e9,
        s.timing_ns as f64 / 1e9,
        s.crosscheck_ns as f64 / 1e9,
        s.value_flow_ns as f64 / 1e9,
        s.characterize_ns as f64 / 1e9,
        s.total_stage_ns() as f64 / 1e9,
        engine.threads(),
        if engine.threads() == 1 { "" } else { "s" },
    );
    out.push_str(&memory_line(&engine));
    Ok(out)
}

/// The `memory:` line that ends `lvp bench` and `lvp check --all`: the
/// process's peak RSS and the bytes of the traces `engine` holds.
fn memory_line(engine: &lvp_harness::Engine) -> String {
    let peak = peak_rss_bytes().map_or("n/a".to_string(), |b| format!("{:.0} MB", b as f64 / 1e6));
    format!(
        "memory: peak rss {peak}, traces {:.0} MB\n",
        engine.trace_bytes() as f64 / 1e6
    )
}

/// The process's peak resident set size (`VmHWM` in `/proc/self/status`),
/// or `None` where that file cannot be read.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

/// `lvp characterize [names...]` — per-benchmark value-locality metrics
/// through the `characterize` experiment: one streaming characterizer
/// pass per trace (cached like traces), with the Spearman
/// rank-correlation gate against measured depth-1 locality.
/// Positional names restrict the suite (`synth-*` adversaries are
/// valid names); `--fast` selects the smoke subset; `--csv` swaps the
/// renderer and suppresses the engine summary line so the output is a
/// clean machine-readable document.
///
/// # Errors
///
/// Returns [`CliError`] for unknown workload names and propagates
/// harness failures.
pub fn cmd_characterize(names: &[String], opts: &Options) -> Result<String, CliError> {
    let mut engine = build_engine(opts);
    if !names.is_empty() {
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        engine = engine
            .with_workload_names(&refs)
            .map_err(|e| CliError::new(e.to_string()))?;
    }
    let def = lvp_harness::experiment("characterize").expect("characterize is registered");
    let report = (def.run)(&engine).map_err(|e| CliError::new(e.to_string()))?;
    if opts.csv {
        return Ok(report.render_csv());
    }
    let mut out = report.render_text();
    let s = engine.stats();
    let _ = writeln!(
        out,
        "engine: traces {} computed / {} cached, characterizations {} computed / {} cached \
         ({:.2}s characterize)",
        s.traces_computed,
        s.trace_hits,
        s.characterizations_computed,
        s.characterization_hits,
        s.characterize_ns as f64 / 1e9,
    );
    Ok(out)
}

/// Reads one aggregate metric out of a characterization summary
/// (the bridge between [`TargetMetric`], which lives in the dependency-
/// free workloads crate, and the predictor crate's [`Summary`]).
fn summary_metric(s: &Summary, m: TargetMetric) -> f64 {
    match m {
        TargetMetric::EntropyBits => s.entropy_bits,
        TargetMetric::MeanWorkingSet => s.mean_working_set,
        TargetMetric::RepeatRate => s.repeat_rate,
        TargetMetric::StrideCoverage => s.stride_coverage,
        TargetMetric::FedFraction => s.fed_fraction,
        TargetMetric::MeanFeedDistance => s.mean_feed_distance,
        TargetMetric::ClassStability => s.class_stability,
        TargetMetric::Score => s.score,
    }
}

/// `lvp synth` usage.
const SYNTH_USAGE: &str = "usage: lvp synth --profile <name> [--seed N] [--scale bench|tiny] \
                           [--out FILE] [--verify]\n       lvp synth --list\n";

/// `lvp synth` — deterministic adversarial-workload generation.
///
/// Emits the mini-C source for `--profile` at `--seed` (byte-identical
/// for identical specs, across processes and platforms) to stdout or
/// `--out`. `--verify` additionally compiles the program, requires it
/// `lvp check`-clean, runs it, characterizes its own trace, and asserts
/// every declared tolerance band — the generator's self-verification
/// contract. `--list` prints the profiles with their bands.
///
/// # Errors
///
/// Usage errors exit 2; a violated tolerance band or lint finding under
/// `--verify` is a findings error (exit 1) with the measured values.
pub fn cmd_synth(opts: &Options) -> Result<String, CliError> {
    if opts.list {
        let mut out = String::from("profiles:\n");
        for p in SynthProfile::ALL {
            let _ = writeln!(out, "  {:15} {}", p.name(), p.description());
            for t in p.targets() {
                let _ = writeln!(out, "  {:15}   target {t}", "");
            }
        }
        return Ok(out);
    }
    let Some(profile) = opts.synth_profile else {
        return Err(CliError::new(format!(
            "synth requires --profile\n\n{SYNTH_USAGE}"
        )));
    };
    let (seed, scale) = (opts.seed, opts.scale);
    let spec = SynthSpec {
        profile,
        seed,
        scale,
    };
    let src = generate(&spec);

    let mut out = String::new();
    if let Some(path) = &opts.out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    CliError::new(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        std::fs::write(path, &src)
            .map_err(|e| CliError::new(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(
            out,
            "wrote {profile} seed {seed} scale {} to {path} ({} bytes)",
            scale.name(),
            src.len()
        );
    } else {
        out.push_str(&src);
    }

    if opts.verify {
        let program = lvp_lang::compile(&src, AsmProfile::Toc)
            .map_err(|e| CliError::new(format!("{profile} seed {seed}: {e}")))?;
        let diags = lvp_analyze::verify(&program);
        if !diags.is_empty() {
            let label = format!("{profile} seed {seed}");
            return Err(CliError::findings(render_diagnostics(&label, &diags)));
        }
        let run = SimEngine::Fast
            .run_traced(&program, DEFAULT_FUEL)
            .map_err(|e| CliError::new(format!("{profile} seed {seed}: {e}")))?;
        let summary = Characterizer::from_trace(&run.trace).summary;
        let mut violations = 0usize;
        for t in profile.targets() {
            let v = summary_metric(&summary, t.metric);
            let ok = t.holds(v);
            if !ok {
                violations += 1;
            }
            let _ = writeln!(
                out,
                "  {t}: measured {v:.4} {}",
                if ok { "PASS" } else { "FAIL" }
            );
        }
        if violations > 0 {
            let _ = writeln!(
                out,
                "self-verification: FAIL ({violations} of {} targets violated)",
                profile.targets().len()
            );
            return Err(CliError::findings(out));
        }
        let _ = writeln!(
            out,
            "self-verification: PASS ({} targets, {} loads)",
            profile.targets().len(),
            summary.loads
        );
    }
    Ok(out)
}

/// `lvp perf` — runs the in-tree microbenchmark registry (see
/// `crates/harness/src/perf.rs`).
///
/// * no flags: run the whole registry, human-readable table;
///   `--bench NAME` (repeatable) picks benches.
/// * `--json`: emit the stable `lvp-perf/1` document that
///   `scripts/perf_gate.sh` compares across builds.
/// * `--list`: print the registry and exit.
///
/// Every bench runs 5 timed iterations after 1 warmup run
/// ([`lvp_harness::PerfConfig::default`]).
///
/// # Errors
///
/// Returns [`CliError`] (exit 2) for unknown bench names.
pub fn cmd_perf(opts: &Options) -> Result<String, CliError> {
    use lvp_harness::perf;

    if opts.list {
        return Ok(render_perf_list(perf::benches()));
    }
    let cfg = lvp_harness::PerfConfig::default();
    let selection = perf::select(&opts.bench).map_err(|e| CliError::new(e.to_string()))?;
    let report = perf::run(cfg, &selection, |name| {
        eprintln!(
            "[perf] {name} ({} warmup + {} iters)",
            cfg.warmup, cfg.iters
        );
    });
    Ok(if opts.json {
        report.to_json()
    } else {
        render_perf_table(&report)
    })
}

/// `lvp perf --list`: one line per registered bench, with the name
/// column as wide as the longest name so the descriptions line up.
fn render_perf_list(benches: &[lvp_harness::BenchDef]) -> String {
    let w = benches.iter().map(|b| b.name.len()).max().unwrap_or(0);
    let mut out = String::from("benches:\n");
    for b in benches {
        let _ = writeln!(out, "  {:w$} {}", b.name, b.what);
    }
    out
}

/// The `lvp perf` text table, with the name column as wide as the
/// longest bench name printed so the numeric columns line up.
fn render_perf_table(report: &lvp_harness::PerfReport) -> String {
    let w = report
        .results
        .iter()
        .map(|r| r.name.len())
        .chain(["bench".len()])
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "{:w$} {:>12} {:>12} {:>12}   (iters {}, warmup {})\n",
        "bench", "median_ns", "p10_ns", "p90_ns", report.config.iters, report.config.warmup
    );
    for r in &report.results {
        let _ = writeln!(
            out,
            "{:w$} {:>12} {:>12} {:>12}",
            r.name, r.median_ns, r.p10_ns, r.p90_ns
        );
    }
    out
}

/// Usage text.
pub fn usage() -> &'static str {
    "usage: lvp <command> [args]\n\n\
     commands:\n\
     \x20 suite                         list the 17 workloads\n\
     \x20 run      <prog|workload>      compile + run, print output\n\
     \x20 asm      <file.s|file.mc>     assemble + disassembly listing\n\
     \x20 locality <prog|workload>      value-locality report\n\
     \x20 annotate <prog|workload>      LVP unit statistics\n\
     \x20 profile  <prog|workload>      hottest static loads\n\
     \x20 simulate <prog|workload>      cycle-accurate timing\n\
     \x20 trace    <prog|workload>      dump the text trace\n\
     \x20 trace    pack <src> --out <f> write a binary LVPT v2 trace file\n\
     \x20 trace    unpack|verify|info <file>  read/check binary trace files\n\
     \x20 check    <prog|workload>      static verifier (lints LVP001-021)\n\
     \x20 check    --all                verify every workload/profile/opt cell\n\
     \x20 bench    [names|--all]        regenerate paper tables/figures\n\
     \x20 characterize [names]          per-benchmark value metrics (--csv;\n\
     \x20                               names may include synth-* adversaries)\n\
     \x20 synth    --profile <name>     deterministic adversarial workloads\n\
     \x20                               (--seed N --scale bench|tiny --out FILE\n\
     \x20                                --verify --list)\n\
     \x20 perf     [--list]             in-tree microbenchmarks (--json for\n\
     \x20                               scripts/perf_gate.sh)\n\n\
     options: --profile toc|gp  --config simple|constant|limit|perfect\n\
     \x20        --predictor last-value|stride|context|store-to-load|hybrid\n\
     \x20        (backend for annotate/simulate/locality/check/bench)\n\
     \x20        --machine 620|620+|21164  --opt 0|1  --top N\n\
     \x20        --lint (verify after asm)  --compare-lct (with check)\n\
     \x20        --memory (provenance lints LVP007-011, with check)\n\
     \x20        --value-flow (value-flow lints LVP012-021, with check)\n\
     \x20        --cross-check (static/dynamic CVU oracle, with check)\n\
     \x20        --format text|json (with check)\n\
     \x20        --out FILE (with trace pack)\n\
     \x20        --threads N  --fast  --all  --csv (with bench / check --all)\n\
     \x20        --bench NAME  --json  --list (with perf)\n\n\
     `lvp check` exit codes: 0 clean, 1 findings (report on stdout),\n\
     2 analysis error (message on stderr).\n"
}

/// Dispatches a full argument vector (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for any failure.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Err(CliError::new(usage()));
    };
    let (opts, positional) = parse_options(cmd, &args[1..])?;
    let target = || -> Result<&String, CliError> {
        positional
            .first()
            .ok_or_else(|| CliError::new(format!("`{cmd}` requires a program argument")))
    };
    match cmd.as_str() {
        "suite" => Ok(cmd_suite()),
        "run" => cmd_run(target()?, &opts),
        "asm" => cmd_asm(target()?, &opts),
        "locality" => cmd_locality(target()?, &opts),
        "annotate" => cmd_annotate(target()?, &opts),
        "profile" => cmd_profile(target()?, &opts),
        "simulate" => cmd_simulate(target()?, &opts),
        "trace" => match positional.first().map(String::as_str) {
            Some(sub @ ("pack" | "unpack" | "verify" | "info")) => {
                let file = positional.get(1).ok_or_else(|| {
                    CliError::new(format!("`trace {sub}` requires a file argument"))
                })?;
                match sub {
                    "pack" => cmd_trace_pack(file, &opts),
                    "unpack" => cmd_trace_unpack(file),
                    "verify" => cmd_trace_verify(file),
                    _ => cmd_trace_info(file),
                }
            }
            _ => cmd_trace(target()?, &opts),
        },
        "check" => {
            if opts.all {
                cmd_check_all(&opts)
            } else {
                cmd_check(target()?, &opts)
            }
        }
        "bench" => cmd_bench(&positional, &opts),
        "characterize" => cmd_characterize(&positional, &opts),
        "synth" => cmd_synth(&opts),
        "perf" => cmd_perf(&opts),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(CliError::new(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let (o, pos) = parse_options(
            "simulate",
            &args(&[
                "xlisp",
                "--profile",
                "gp",
                "--config",
                "limit",
                "--machine",
                "21164",
                "--top",
                "5",
            ]),
        )
        .unwrap();
        assert_eq!(o.profile, AsmProfile::Gp);
        assert_eq!(o.config.name, "Limit");
        assert_eq!(o.machine.name(), "21164");
        assert_eq!(o.top, 5);
        assert_eq!(pos, vec!["xlisp"]);
    }

    #[test]
    fn option_errors() {
        assert!(parse_options("run", &args(&["--profile"])).is_err());
        assert!(parse_options("run", &args(&["--profile", "mips"])).is_err());
        assert!(parse_options("run", &args(&["--bogus"])).is_err());
        assert!(parse_options("run", &args(&["--top", "abc"])).is_err());
    }

    #[test]
    fn suite_lists_everything() {
        let s = cmd_suite();
        for w in lvp_workloads::suite() {
            assert!(s.contains(w.name), "missing {}", w.name);
        }
    }

    #[test]
    fn run_on_workload() {
        let out = cmd_run("xlisp", &Options::default()).unwrap();
        assert!(
            out.contains("output: [4,"),
            "xlisp prints 4 solutions: {out}"
        );
        assert!(out.contains("instructions"));
    }

    #[test]
    fn locality_and_annotate_on_workload() {
        let opts = Options::default();
        let loc = cmd_locality("xlisp", &opts).unwrap();
        assert!(loc.contains("value locality"));
        let ann = cmd_annotate("xlisp", &opts).unwrap();
        assert!(ann.contains("accuracy"));
    }

    #[test]
    fn profile_reports_top_loads() {
        let out = cmd_profile(
            "xlisp",
            &Options {
                top: 3,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("static loads"));
        // summary + blank + header + 3 rows
        assert_eq!(out.lines().count(), 6, "unexpected layout: {out}");

        // A program without loads has an empty table and 0% coverage.
        let path = temp_file("noload.s");
        std::fs::write(&path, "main:\n li a0, 1\n out a0\n halt\n").unwrap();
        let out = cmd_profile(path.to_str().unwrap(), &Options::default()).unwrap();
        assert!(
            out.starts_with("0 static loads; top 10 cover 0.0% of dynamic loads\n"),
            "{out}"
        );
        assert_eq!(out.lines().count(), 3, "{out}");

        // The full report, pinned: constant tags, the `>16` distinct-value
        // cap, count-then-pc order, the static-load count and the top-N
        // coverage.
        let out = dispatch(&args(&["profile", "xlisp", "--top", "12"])).unwrap();
        let expected = [
            "64 static loads; top 12 cover 72.2% of dynamic loads",
            "",
            "        pc      count   local@1    values  kind",
            "   0x102ec      26820    100.0%         1  int constant",
            "   0x102f8      26820     48.1%         2  int",
            "   0x10318      10680    100.0%         1  int constant",
            "   0x10324      10680     46.6%         2  int",
            "   0x10358       7050    100.0%         1  int constant",
            "   0x10364       7050     57.4%         2  int",
            "   0x10254       4590    100.0%         1  int constant",
            "   0x10258       4590      0.0%       >16  int",
            "   0x10264       4590    100.0%         1  int constant",
            "   0x1046c       4590      2.7%       >16  int",
            "   0x10470       4590      8.5%         6  int",
            "   0x10474       4590     98.7%         2  int",
        ];
        assert_eq!(out.lines().collect::<Vec<_>>(), expected, "{out}");
        assert!(out.ends_with('\n'), "{out}");
    }

    #[test]
    fn simulate_all_machines() {
        for (machine, first) in [
            (MachineModel::ppc620(), "machine 620,"),
            (MachineModel::ppc620_plus(), "machine 620+,"),
            (MachineModel::alpha21164(), "machine 21164,"),
        ] {
            let out = cmd_simulate(
                "xlisp",
                &Options {
                    machine,
                    ..Options::default()
                },
            )
            .unwrap();
            assert!(out.starts_with(first), "{out}");
            assert!(out.contains("speedup:"), "{out}");
        }
    }

    #[test]
    fn trace_dump_is_bounded() {
        let out = cmd_trace(
            "xlisp",
            &Options {
                top: 5,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("entries total"));
        assert!(out.lines().count() <= 8, "{out}");
    }

    #[test]
    fn check_reports_clean_workload() {
        let out = cmd_check("quick", &Options::default()).unwrap();
        assert!(out.contains("ok"), "{out}");
        assert!(out.contains("0 diagnostics"), "{out}");
    }

    #[test]
    fn check_flags_buggy_assembly() {
        let dir = std::env::temp_dir().join("lvp-cli-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("buggy.s");
        std::fs::write(&path, "main:\n add a1, a0, a0\n out a1\n halt\n").unwrap();
        let err = cmd_check(path.to_str().unwrap(), &Options::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("LVP001"), "{msg}");
        assert!(msg.contains("1 diagnostic found"), "{msg}");

        // The same program fails `asm --lint` but passes plain `asm`.
        let opts = Options {
            lint: true,
            ..Options::default()
        };
        assert!(cmd_asm(path.to_str().unwrap(), &opts).is_err());
        assert!(cmd_asm(path.to_str().unwrap(), &Options::default()).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_compare_lct_prints_table() {
        let opts = Options {
            compare_lct: true,
            ..Options::default()
        };
        let out = cmd_check("quick", &opts).unwrap();
        for class in ["constant", "stack-reload", "global", "computed"] {
            assert!(out.contains(class), "missing `{class}` row:\n{out}");
        }
    }

    #[test]
    fn asm_lint_clean_appends_summary() {
        let opts = Options {
            lint: true,
            ..Options::default()
        };
        let out = cmd_asm("quick", &opts).unwrap();
        assert!(out.contains("lint: clean"), "{out}");
    }

    #[test]
    fn bool_flags_parse_without_values() {
        let (o, pos) =
            parse_options("check", &args(&["quick", "--lint", "--compare-lct"])).unwrap();
        assert!(o.lint && o.compare_lct);
        assert_eq!(pos, vec!["quick"]);
    }

    #[test]
    fn bench_flags_parse() {
        let (o, pos) = parse_options(
            "bench",
            &args(&["table3", "--threads", "2", "--fast", "--csv"]),
        )
        .unwrap();
        assert_eq!(o.threads, Some(2));
        assert!(o.fast && o.csv && !o.all);
        assert_eq!(pos, vec!["table3"]);
        assert!(parse_options("bench", &args(&["--threads", "0"])).is_err());
        assert!(parse_options("bench", &args(&["--threads", "two"])).is_err());
    }

    #[test]
    fn out_flag_parses() {
        let (o, pos) =
            parse_options("trace", &args(&["pack", "quick", "--out", "q.lvpt"])).unwrap();
        assert_eq!(o.out.as_deref(), Some("q.lvpt"));
        assert_eq!(pos, vec!["pack", "quick"]);
        assert!(parse_options("trace", &args(&["--out"])).is_err());
    }

    #[test]
    fn removed_flags_are_unknown() {
        // There is no persistent trace cache to relocate or disable, no
        // trace-generation engine to select, no perf baseline check
        // (`scripts/perf_gate.sh` compares builds on one host), and no
        // engine-wide static-hint mode (only `ablation_hints` seeds the
        // LVP unit from static hints).
        for (cmd, flags) in [
            ("run", &["--cache-dir", "/tmp/c"][..]),
            ("run", &["--no-disk-cache"]),
            ("run", &["--engine", "interp"]),
            ("perf", &["--check"]),
            ("perf", &["--baseline", "F"]),
            ("perf", &["--threshold", "60"]),
            ("annotate", &["quick", "--static-hints"]),
            ("bench", &["table3", "--fast", "--static-hints"]),
        ] {
            let err = parse_options(cmd, &args(flags)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("unknown flag"), "{err}");
        }
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lvp-cli-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn trace_pack_verify_info_unpack_round_trip() {
        let path = temp_file("quick.lvpt");
        let opts = Options {
            out: Some(path.to_str().unwrap().to_string()),
            ..Options::default()
        };
        let packed = cmd_trace_pack("quick", &opts).unwrap();
        assert!(packed.contains("LVPT v2"), "{packed}");

        let file = path.to_str().unwrap();
        let verified = cmd_trace_verify(file).unwrap();
        assert!(verified.contains("ok (LVPT v2"), "{verified}");
        assert!(verified.contains("checksums verified"), "{verified}");

        let info = cmd_trace_info(file).unwrap();
        assert!(info.contains("entries declared"), "{info}");
        assert!(info.contains("per-block CRC32"), "{info}");

        // The unpacked text dump matches a direct in-process dump.
        let program = load_program_with("quick", AsmProfile::Toc, OptLevel::O0).unwrap();
        let (trace, _) = trace_program(&program).unwrap();
        assert_eq!(cmd_trace_unpack(file).unwrap(), dump_text(&trace));

        // A text dump can be re-packed into identical binary bytes.
        let text_path = temp_file("quick.trace");
        std::fs::write(&text_path, dump_text(&trace)).unwrap();
        let repack = temp_file("quick2.lvpt");
        let opts2 = Options {
            out: Some(repack.to_str().unwrap().to_string()),
            ..Options::default()
        };
        cmd_trace_pack(text_path.to_str().unwrap(), &opts2).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&repack).unwrap(),
            "pack-from-source and pack-from-text-dump must agree"
        );
    }

    #[test]
    fn trace_verify_counts_loads_into_zero() {
        // A load into `zero` records no destination register; it is
        // still a load, as `lvp run` counts it.
        let src = temp_file("load-into-zero.s");
        std::fs::write(
            &src,
            ".data\nv: .dword 7\n.text\nmain:\n la a0, v\n ld zero, 0(a0)\n ld a1, 0(a0)\n out a1\n halt\n",
        )
        .unwrap();
        let src = src.to_str().unwrap();
        let path = temp_file("load-into-zero.lvpt");
        let opts = Options {
            out: Some(path.to_str().unwrap().to_string()),
            ..Options::default()
        };
        let run = cmd_run(src, &opts).unwrap();
        assert!(run.contains(" loads 3 "), "{run}");
        cmd_trace_pack(src, &opts).unwrap();
        let verified = cmd_trace_verify(path.to_str().unwrap()).unwrap();
        assert!(verified.contains(", 3 loads,"), "{verified}");
    }

    #[test]
    fn trace_verify_catches_corruption_without_panicking() {
        let path = temp_file("corrupt.lvpt");
        let opts = Options {
            out: Some(path.to_str().unwrap().to_string()),
            ..Options::default()
        };
        cmd_trace_pack("quick", &opts).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = cmd_trace_verify(path.to_str().unwrap()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // `info` only reads the header, which is intact.
        assert!(cmd_trace_info(path.to_str().unwrap()).is_ok());
    }

    #[test]
    fn trace_tools_reject_kind_inconsistent_records() {
        // A checksum-valid file holding a load with no memory access and
        // a branch with no branch event: the timing models would panic
        // on it, so the reader must refuse it with a typed error.
        use lvp_trace::{OpKind, TraceEntry};
        let mut trace = Trace::new();
        trace.push(TraceEntry::simple(0x10000, OpKind::Load));
        trace.push(TraceEntry::simple(0x10004, OpKind::CondBranch));
        let path = temp_file("inconsistent.lvpt");
        let mut bytes = Vec::new();
        lvp_trace::write_trace(&mut bytes, &trace).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let file = path.to_str().unwrap();
        for err in [
            cmd_trace_verify(file).unwrap_err(),
            cmd_trace_unpack(file).unwrap_err(),
        ] {
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(
                err.to_string()
                    .contains("corrupt trace record: load or store without a memory access"),
                "{err}"
            );
        }

        // The same records as a text dump fail to pack, at their line.
        let text = dump_text(&trace);
        assert!(text.contains("0x10000 load _ _,_ - -"), "{text}");
        let text_path = temp_file("inconsistent.trace");
        std::fs::write(&text_path, &text).unwrap();
        let opts = Options {
            out: Some(temp_file("never.lvpt").to_str().unwrap().to_string()),
            ..Options::default()
        };
        let err = cmd_trace_pack(text_path.to_str().unwrap(), &opts).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("memory access"), "{err}");
    }

    #[test]
    fn trace_pack_requires_out_and_tools_require_files() {
        let err = cmd_trace_pack("quick", &Options::default()).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        assert!(cmd_trace_verify("/nonexistent.lvpt").is_err());
        assert!(dispatch(&args(&["trace", "pack"]))
            .unwrap_err()
            .to_string()
            .contains("requires a file"));
    }

    #[test]
    fn bench_without_names_lists_registry() {
        let out = cmd_bench(&[], &Options::default()).unwrap();
        for def in lvp_harness::experiments() {
            assert!(out.contains(def.name), "missing {} in:\n{out}", def.name);
        }
    }

    #[test]
    fn bench_rejects_unknown_experiment() {
        let err = cmd_bench(&args(&["table99"]), &Options::default()).unwrap_err();
        assert!(err.to_string().contains("table99"), "{err}");
    }

    /// `line` is a `memory:` line with a peak RSS (or `n/a`) and no
    /// trace bytes.
    fn assert_no_trace_memory_line(line: &str, out: &str) {
        let peak = line
            .strip_prefix("memory: peak rss ")
            .and_then(|l| l.strip_suffix(", traces 0 MB"));
        assert!(
            peak.is_some_and(|p| p == "n/a"
                || p.strip_suffix(" MB")
                    .is_some_and(|n| n.parse::<u64>().is_ok())),
            "{out}"
        );
    }

    #[test]
    fn check_all_text_ends_with_the_memory_line() {
        let opts = Options {
            all: true,
            fast: true,
            threads: Some(2),
            ..Options::default()
        };
        let out = cmd_check_all(&opts).unwrap();
        let last: Vec<&str> = out.lines().rev().take(2).collect();
        assert_eq!(last[1], "check: 16 cell(s), 0 diagnostics", "{out}");
        assert_no_trace_memory_line(last[0], &out);

        let json = cmd_check_all(&Options {
            format: CheckFormat::Json,
            ..opts
        })
        .unwrap();
        assert!(json.ends_with("]}\n") && !json.contains("memory"), "{json}");
    }

    #[test]
    fn bench_runs_static_experiments_with_timing_and_stats() {
        let opts = Options {
            fast: true,
            threads: Some(2),
            ..Options::default()
        };
        // table2/table5 are static (no simulation), so this stays fast.
        let out = cmd_bench(&args(&["table2", "table5"]), &opts).unwrap();
        assert!(out.contains("[table2:"), "{out}");
        assert!(out.contains("[table5:"), "{out}");
        assert!(out.contains("engine: 2 experiments, 2 threads"), "{out}");
        assert!(
            out.contains("traces 0 computed / 0 cached, annotations"),
            "{out}"
        );
        assert!(
            out.contains("value-flow 0.00s, characterize 0.00s"),
            "{out}"
        );
        // The run ends with the stages line, then the memory line.
        let last: Vec<&str> = out.lines().rev().take(2).collect();
        assert!(last[1].starts_with("stages:"), "{out}");
        assert_no_trace_memory_line(last[0], &out);

        let csv = cmd_bench(
            &args(&["table2"]),
            &Options {
                csv: true,
                ..opts.clone()
            },
        )
        .unwrap();
        assert!(csv.starts_with("# Table 2:"), "{csv}");
        assert!(csv.contains("config,LVPT entries"), "{csv}");
    }

    fn buggy_asm_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lvp-cli-exit-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, "main:\n add a1, a0, a0\n out a1\n halt\n").unwrap();
        path
    }

    #[test]
    fn check_exit_code_contract() {
        // 0: clean program succeeds.
        assert!(cmd_check("quick", &Options::default()).is_ok());
        // 1: lint findings, report routed to stdout.
        let path = buggy_asm_file("exit1.s");
        let err = cmd_check(path.to_str().unwrap(), &Options::default()).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_stdout());
        // 2: unresolvable program is a hard error on stderr.
        let err = cmd_check("nonesuch", &Options::default()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(!err.to_stdout());
        // The contract is documented in the help text.
        assert!(usage().contains("exit codes"), "{}", usage());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_json_format_is_machine_readable() {
        let opts = Options {
            format: CheckFormat::Json,
            ..Options::default()
        };
        // Findings: exit 1, but the body is still the JSON document.
        let path = buggy_asm_file("json.s");
        let err = cmd_check(path.to_str().unwrap(), &opts).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_stdout());
        let body = err.to_string();
        assert!(body.contains("\"schema\":\"lvp-check/1\""), "{body}");
        assert!(body.contains("\"code\":\"LVP001\""), "{body}");
        assert!(body.contains("\"name\":\"uninit-read\""), "{body}");
        std::fs::remove_file(&path).ok();

        // Clean: exit 0 with an empty diagnostics array.
        let out = cmd_check("quick", &opts).unwrap();
        assert!(out.contains("\"count\":0"), "{out}");
        assert!(out.contains("\"diagnostics\":[]"), "{out}");

        // Escaping keeps the document well-formed.
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn check_memory_prints_classification_summary() {
        // A program with no loads at all is clean under every memory
        // lint; the summary line still renders.
        let dir = std::env::temp_dir().join(format!("lvp-cli-mem-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nomem.s");
        std::fs::write(&path, "main:\n li a0, 1\n out a0\n halt\n").unwrap();
        let opts = Options {
            memory: true,
            ..Options::default()
        };
        let out = cmd_check(path.to_str().unwrap(), &opts).unwrap();
        assert!(out.contains("memory: 0 load(s)"), "{out}");
        assert!(out.contains("must-constant"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_value_flow_prints_summary_and_gate() {
        // Static side: the classification summary renders. Dynamic side
        // (with --cross-check): the stride oracle must hold and print
        // its PASS verdict. `grep` is the suite member with no
        // value-flow findings (the interprocedural lints LVP013/LVP021
        // fire on most others, taking the findings exit instead).
        let opts = Options {
            value_flow: true,
            cross_check: true,
            profile: AsmProfile::Gp,
            ..Options::default()
        };
        let out = cmd_check("grep", &opts).unwrap();
        assert!(out.contains("value-flow:"), "{out}");
        assert!(out.contains("affine-stride"), "{out}");
        assert!(out.contains("value-flow: PASS"), "{out}");

        // A workload with interprocedural findings takes the findings
        // exit (code 1) and reports them — and the oracle verdicts must
        // still surface in the findings output (a baselined lint never
        // masks the dynamic gate).
        let err = cmd_check("compress", &opts).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let msg = err.to_string();
        assert!(msg.contains("LVP021"), "{msg}");
        assert!(msg.contains("cross-check: PASS"), "{msg}");
        assert!(msg.contains("value-flow: PASS"), "{msg}");
    }

    #[test]
    fn check_value_flow_lints_fire_in_findings() {
        // A loop-invariant load inside a loop fires LVP013 and makes
        // the exit code 1 through the findings path.
        let dir = std::env::temp_dir().join(format!("lvp-cli-vf-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inv.s");
        std::fs::write(
            &path,
            ".data\nv: .dword 9\n.text\nmain:\n li t0, 4\n la a0, v\nloop:\n \
             ld a1, 0(a0)\n addi t0, t0, -1\n bne t0, zero, loop\n out a1\n halt\n",
        )
        .unwrap();
        let opts = Options {
            value_flow: true,
            profile: AsmProfile::Gp,
            ..Options::default()
        };
        let err = cmd_check(path.to_str().unwrap(), &opts).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_stdout());
        assert!(err.to_string().contains("LVP013"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_cross_check_reports_pass() {
        // No `--memory`: real workloads legitimately carry provenance
        // findings (LVP008/010/011 headroom lints, baselined in CI);
        // the oracle itself must hold regardless.
        let opts = Options {
            cross_check: true,
            ..Options::default()
        };
        let out = cmd_check("quick", &opts).unwrap();
        assert!(out.contains("cross-check: PASS"), "{out}");
        assert!(out.contains("must-constant pc(s)"), "{out}");
    }

    #[test]
    fn check_flags_parse() {
        let (o, pos) = parse_options(
            "check",
            &args(&[
                "quick",
                "--memory",
                "--value-flow",
                "--cross-check",
                "--format",
                "json",
            ]),
        )
        .unwrap();
        assert!(o.memory && o.value_flow && o.cross_check);
        assert_eq!(o.format, CheckFormat::Json);
        assert_eq!(pos, vec!["quick"]);
        assert!(parse_options("check", &args(&["--format", "xml"])).is_err());
        assert!(parse_options("check", &args(&["--format"])).is_err());
    }

    #[test]
    fn perf_flags_parse() {
        let (o, pos) = parse_options(
            "perf",
            &args(&[
                "--bench",
                "alias_fixpoint",
                "--bench",
                "sim_620_real_xlisp",
                "--json",
                "--list",
            ]),
        )
        .unwrap();
        assert_eq!(o.bench, vec!["alias_fixpoint", "sim_620_real_xlisp"]);
        assert!(o.json && o.list);
        assert!(pos.is_empty());
        assert!(parse_options("perf", &args(&["--bench"])).is_err());
    }

    #[test]
    fn perf_list_names_every_bench() {
        let out = dispatch(&args(&["perf", "--list"])).unwrap();
        for b in lvp_harness::benches() {
            assert!(out.contains(b.name), "{out}");
        }
    }

    #[test]
    fn perf_rejects_unknown_bench_with_exit_2() {
        let e = dispatch(&args(&["perf", "--bench", "nonesuch"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(!e.to_stdout());
        assert!(e.to_string().contains("nonesuch"));
    }

    #[test]
    fn perf_json_output_is_parseable() {
        // The fields `scripts/perf_gate.sh` reads, in the writer's
        // layout (pinned by `perf::tests::json_writer_output_is_pinned`).
        let out = dispatch(&args(&["perf", "--bench", "alias_fixpoint", "--json"])).unwrap();
        assert!(
            out.starts_with("{\n    \"format\": \"lvp-perf/1\",\n"),
            "{out}"
        );
        let names: Vec<&str> = out
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"name\": "))
            .collect();
        assert_eq!(names, ["\"alias_fixpoint\","], "{out}");
        let samples: Vec<&str> = out
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"samples_ns\": ["))
            .collect();
        assert_eq!(samples.len(), 1, "{out}");
        let samples = samples[0].strip_suffix(']').expect("one line of samples");
        let parsed: Vec<u64> = samples.split(", ").map(|v| v.parse().unwrap()).collect();
        assert_eq!(parsed.len(), 5, "{out}");
        assert!(out.ends_with("\n    ]\n}\n"), "{out}");
    }

    /// `(start, end)` byte offsets of the whitespace-separated tokens
    /// of `line`.
    fn token_spans(line: &str) -> Vec<(usize, usize)> {
        line.split_whitespace()
            .map(|t| {
                let start = t.as_ptr() as usize - line.as_ptr() as usize;
                (start, start + t.len())
            })
            .collect()
    }

    #[test]
    fn perf_columns_align_past_long_bench_names() {
        let long = "fastsim_interp_stream_xlisp";
        assert_eq!(long.len(), 27);
        let result = |name: &str, ns: u64| lvp_harness::BenchResult {
            name: name.to_string(),
            median_ns: ns,
            p10_ns: ns,
            p90_ns: ns,
            samples_ns: vec![ns],
        };
        let report = lvp_harness::PerfReport {
            config: lvp_harness::PerfConfig {
                iters: 1,
                warmup: 0,
            },
            results: vec![
                result("alias_fixpoint", 7),
                result(long, 123_456_789),
                result("sim_620_real_xlisp", 70_000),
            ],
        };
        // The numeric columns are right-aligned, so on every line
        // (header included) each one ends at the same offset.
        let table = render_perf_table(&report);
        let ends: Vec<Vec<usize>> = table
            .lines()
            .map(|l| token_spans(l)[1..4].iter().map(|&(_, e)| e).collect())
            .collect();
        assert_eq!(ends.len(), 4, "{table}");
        assert!(ends.windows(2).all(|p| p[0] == p[1]), "{table}");

        // The description column is left-aligned: it starts at the
        // same offset on every registry line.
        let list = render_perf_list(lvp_harness::benches());
        assert!(list.contains(long), "{list}");
        let starts: Vec<usize> = list.lines().skip(1).map(|l| token_spans(l)[1].0).collect();
        assert!(starts.windows(2).all(|p| p[0] == p[1]), "{list}");
    }

    #[test]
    fn synth_is_deterministic_across_dispatches() {
        let cmd = args(&[
            "synth",
            "--profile",
            "pointer-chase",
            "--seed",
            "7",
            "--scale",
            "tiny",
        ]);
        let a = dispatch(&cmd).unwrap();
        let b = dispatch(&cmd).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("profile=pointer-chase seed=7 scale=tiny"), "{a}");
    }

    #[test]
    fn synth_list_and_usage_errors() {
        let list = dispatch(&args(&["synth", "--list"])).unwrap();
        for p in SynthProfile::ALL {
            assert!(list.contains(p.name()), "missing {p} in:\n{list}");
        }
        assert!(list.contains("target"), "{list}");

        let e = dispatch(&args(&["synth"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("--profile"), "{e}");
        assert!(dispatch(&args(&["synth", "--profile", "toc"])).is_err());
        assert!(dispatch(&args(&["synth", "--profile", "mix", "--seed", "x"])).is_err());
        assert!(dispatch(&args(&["synth", "--profile", "mix", "--scale", "huge"])).is_err());
        assert!(dispatch(&args(&["synth", "--bogus"])).is_err());
    }

    #[test]
    fn synth_out_writes_the_generated_source() {
        let path = temp_file("synth-ramp.mc");
        let out = dispatch(&args(&[
            "synth",
            "--profile",
            "stride-ramp",
            "--seed",
            "3",
            "--scale",
            "tiny",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote stride-ramp seed 3"), "{out}");
        let spec = SynthSpec {
            profile: SynthProfile::StrideRamp,
            seed: 3,
            scale: SynthScale::Tiny,
        };
        assert_eq!(std::fs::read_to_string(&path).unwrap(), generate(&spec));
        // The emitted file is a valid `lvp run` target.
        let run = cmd_run(path.to_str().unwrap(), &Options::default()).unwrap();
        assert!(run.contains("output:"), "{run}");
    }

    #[test]
    fn synth_verify_asserts_the_declared_bands() {
        let out = dispatch(&args(&[
            "synth",
            "--profile",
            "stride-ramp",
            "--seed",
            "1",
            "--scale",
            "tiny",
            "--out",
            temp_file("synth-verify.mc").to_str().unwrap(),
            "--verify",
        ]))
        .unwrap();
        assert!(out.contains("self-verification: PASS"), "{out}");
        assert!(out.contains("stride-coverage >= "), "{out}");
    }

    #[test]
    fn characterize_single_workload_reports_metrics() {
        let opts = Options {
            threads: Some(2),
            ..Options::default()
        };
        let out = cmd_characterize(&args(&["sc"]), &opts).unwrap();
        assert!(out.contains("sc"), "{out}");
        assert!(out.contains("entropy"), "{out}");
        assert!(out.contains("fewer than 3 benchmarks"), "{out}");
        assert!(out.contains("characterizations 1 computed"), "{out}");

        let csv = cmd_characterize(&args(&["sc"]), &Options { csv: true, ..opts }).unwrap();
        assert!(csv.starts_with("# Workload characterization"), "{csv}");
        assert!(
            !csv.contains("engine:"),
            "CSV must stay machine-clean: {csv}"
        );
    }

    #[test]
    fn characterize_accepts_synth_names_and_rejects_unknown() {
        let opts = Options::default();
        let err = cmd_characterize(&args(&["nonesuch"]), &opts).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown workload"), "{err}");
        // synth-* names resolve through the pinned synth suite.
        let out = cmd_characterize(&args(&["quick", "synth-chase"]), &opts).unwrap();
        assert!(out.contains("synth-chase"), "{out}");
    }

    /// Seeded argument-vector fuzz: every vector names a command and
    /// holds at least one unknown flag, malformed value or flag missing
    /// its value, so no command may run; each must come back as a usage
    /// error (exit 2, message for stderr) without panicking.
    #[test]
    fn malformed_argument_vectors_are_usage_errors() {
        use lvp_trace::rng::Lcg;

        const CASES: u64 = 2048;
        let words = |s: &'static str| s.split_whitespace().collect::<Vec<_>>();
        let commands = words(
            "suite run asm locality annotate profile simulate trace check bench \
             characterize synth perf help frobnicate",
        );
        let positionals =
            words("quick xlisp synth-chase nonesuch prog.mc prog.s pack unpack verify info -x");
        let switches = words(
            "--json --list --lint --compare-lct --memory --value-flow \
             --cross-check --fast --all --csv --verify",
        );
        let unknown = words(
            "--bogus --engine --cache-dir --no-disk-cache --static-hints --top=5 -- --PROFILE",
        );
        // Every valued flag, with values some command accepts.
        let valued: &[(&str, &[&str])] = &[
            ("--profile", &["toc", "gp", "pointer-chase", "mix"]),
            ("--config", &["simple", "constant", "limit", "perfect"]),
            ("--predictor", &["last-value", "fcm", "s2l", "hybrid"]),
            ("--machine", &["620", "620+", "21164"]),
            ("--opt", &["0", "1"]),
            ("--top", &["0", "12"]),
            ("--threads", &["1", "2"]),
            ("--format", &["text", "json"]),
            ("--out", &["out.lvpt", "gen.mc"]),
            ("--bench", &["alias_fixpoint", "nonesuch"]),
            ("--seed", &["7", "18446744073709551615"]),
            ("--scale", &["bench", "tiny"]),
        ];
        // Values no command accepts.
        let malformed: &[(&str, &[&str])] = &[
            ("--profile", &["mips", ""]),
            ("--config", &["bogus"]),
            ("--predictor", &["oracle"]),
            ("--machine", &["601"]),
            ("--opt", &["2", "O1"]),
            ("--top", &["abc", "-1"]),
            ("--threads", &["0", "two"]),
            ("--format", &["xml"]),
            ("--seed", &["x", "-1", "18446744073709551616"]),
            ("--scale", &["huge"]),
        ];

        let mut rng = Lcg::new(0x1996_a5b1_0c11);
        for case in 0..CASES {
            // Items keep each valued flag next to its value, so a flag
            // never swallows the poison as its value.
            let mut items: Vec<Vec<&str>> = (0..rng.below(6))
                .map(|_| match rng.below(3) {
                    0 => vec![*rng.pick(&positionals)],
                    1 => vec![*rng.pick(&switches)],
                    _ => {
                        let (flag, values) = rng.pick(valued);
                        vec![*flag, *rng.pick(values)]
                    }
                })
                .collect();
            let missing_value = rng.chance(1, 3);
            if !missing_value {
                let poison = if rng.chance(1, 2) {
                    vec![*rng.pick(&unknown)]
                } else {
                    let (flag, values) = rng.pick(malformed);
                    vec![*flag, *rng.pick(values)]
                };
                items.insert(rng.below(items.len() as u64 + 1) as usize, poison);
            }
            let mut argv = vec![rng.pick(&commands).to_string()];
            argv.extend(items.into_iter().flatten().map(String::from));
            if missing_value {
                argv.push(rng.pick(valued).0.to_string());
            }

            let err = match std::panic::catch_unwind(|| dispatch(&argv)) {
                Ok(Err(e)) => e,
                Ok(Ok(out)) => panic!("case {case}: {argv:?} ran:\n{out}"),
                Err(_) => panic!("case {case}: {argv:?} panicked"),
            };
            assert_eq!(err.exit_code(), 2, "case {case}: {argv:?}: {err}");
            assert!(!err.to_stdout(), "case {case}: {argv:?}: {err}");
        }
    }

    #[test]
    fn dispatch_errors_are_helpful() {
        assert!(dispatch(&args(&["frobnicate"]))
            .unwrap_err()
            .to_string()
            .contains("usage"));
        assert!(dispatch(&args(&["run"]))
            .unwrap_err()
            .to_string()
            .contains("requires"));
        assert!(dispatch(&args(&["run", "nonesuch"])).is_err());
        assert!(dispatch(&args(&["help"])).unwrap().contains("commands"));
    }
}
