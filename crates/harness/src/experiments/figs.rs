//! The paper's figures (1, 2, 6–9) as harness plans.

use super::address_ranges;
use crate::engine::Engine;
use crate::error::HarnessError;
use crate::plan::{ExperimentPlan, MachineModel};
use crate::report::{geo_mean, Cell, ExperimentTable, Report};
use lvp_isa::AsmProfile;
use lvp_predictor::presets;
use lvp_predictor::{LocalityMeter, ValueClass};
use lvp_trace::OpKind;
use lvp_uarch::{OperandWaitStats, VerifyLatencyHistogram};

/// Figure 1 — load value locality per benchmark at history depths 1 and
/// 16, for both "architectures" (Gp ≈ Alpha panel, Toc ≈ PowerPC panel).
pub(super) fn fig1(engine: &Engine) -> Result<Report, HarnessError> {
    let plan = ExperimentPlan::new()
        .workloads(engine.suite().to_vec())
        .profiles([AsmProfile::Gp, AsmProfile::Toc])
        .map(|job, ctx| {
            let run = ctx.job_run(job)?;
            let mut meter = LocalityMeter::paper_default();
            for e in &run.trace {
                meter.observe(&e);
            }
            Ok((meter.locality(1), meter.locality(16)))
        });
    let loc = engine.run(plan)?;

    let mut report = Report::new(
        "fig1",
        "Figure 1: Load Value Locality (history depth 1 / depth 16)",
    );
    for (pi, panel) in ["Alpha-style (Gp)", "PowerPC-style (Toc)"]
        .into_iter()
        .enumerate()
    {
        let mut t = ExperimentTable::new(vec!["benchmark", "depth 1", "depth 16"]);
        let (mut d1s, mut d16s) = (Vec::new(), Vec::new());
        for (i, w) in engine.suite().iter().enumerate() {
            let (d1, d16) = loc[2 * i + pi];
            d1s.push(d1);
            d16s.push(d16);
            t.row(vec![Cell::text(w.name), Cell::Pct1(d1), Cell::Pct1(d16)]);
        }
        t.row(vec![
            Cell::text("GM"),
            Cell::Pct1(geo_mean(&d1s)),
            Cell::Pct1(geo_mean(&d16s)),
        ]);
        report.section(Some(panel), t);
    }
    report.note(
        "Paper shape: most integer benchmarks near 50% at depth 1 and 80%+ at\n\
         depth 16; cjpeg, swm256 and tomcatv show poor locality.",
    );
    Ok(report)
}

/// Figure 2 — PowerPC value locality by data type (FP data, integer
/// data, instruction addresses, data addresses) at depths 1 and 16.
pub(super) fn fig2(engine: &Engine) -> Result<Report, HarnessError> {
    let plan = ExperimentPlan::new()
        .workloads(engine.suite().to_vec())
        .map(|job, ctx| {
            let run = ctx.job_run(job)?;
            let ranges = address_ranges(&run.program);
            let mut meter = LocalityMeter::paper_default().with_ranges(ranges);
            for e in &run.trace {
                meter.observe(&e);
            }
            let mut per: Vec<(u64, f64, f64)> = Vec::new();
            for &class in ValueClass::ALL.iter() {
                let loads = meter.class_loads(class);
                if loads == 0 {
                    per.push((0, 0.0, 0.0));
                } else {
                    per.push((
                        loads,
                        meter.class_locality(class, 1),
                        meter.class_locality(class, 16),
                    ));
                }
            }
            Ok(per)
        });
    let results = engine.run(plan)?;

    let mut report = Report::new(
        "fig2",
        "Figure 2: PowerPC (Toc) Value Locality by Data Type (depth 1 / 16)",
    );
    let mut t = ExperimentTable::new(vec![
        "benchmark",
        "fp d1",
        "fp d16",
        "int d1",
        "int d16",
        "iaddr d1",
        "iaddr d16",
        "daddr d1",
        "daddr d16",
    ]);
    let n_classes = ValueClass::ALL.len();
    let mut per_class: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); n_classes];
    for (w, per) in engine.suite().iter().zip(&results) {
        let mut row = vec![Cell::text(w.name)];
        for (ci, &(loads, d1, d16)) in per.iter().enumerate() {
            if loads == 0 {
                row.push(Cell::Dash);
                row.push(Cell::Dash);
                continue;
            }
            per_class[ci].0.push(d1);
            per_class[ci].1.push(d16);
            row.push(Cell::Pct1(d1));
            row.push(Cell::Pct1(d16));
        }
        t.row(row);
    }
    let mut gm_row = vec![Cell::text("GM")];
    for (d1s, d16s) in &per_class {
        gm_row.push(Cell::Pct1(geo_mean(d1s)));
        gm_row.push(Cell::Pct1(geo_mean(d16s)));
    }
    t.row(gm_row);
    report.section(None, t);
    report.note(
        "Paper shape: address loads (instruction > data) beat data loads;\n\
         integer data beats floating-point data.",
    );
    Ok(report)
}

/// Figure 6 — base machine model speedups: the 620 with Simple /
/// Constant / Limit / Perfect, the 21164 with Simple / Limit / Perfect.
pub(super) fn fig6(engine: &Engine) -> Result<Report, HarnessError> {
    let mut report = Report::new("fig6", "Figure 6: Base Machine Model Speedups");

    for (heading, profile, machine, configs) in [
        (
            "PowerPC 620 (Toc profile traces)",
            AsmProfile::Toc,
            MachineModel::ppc620(),
            vec![
                presets::simple(),
                presets::constant(),
                presets::limit(),
                presets::perfect(),
            ],
        ),
        (
            "Alpha AXP 21164 (Gp profile traces)",
            AsmProfile::Gp,
            MachineModel::alpha21164(),
            vec![presets::simple(), presets::limit(), presets::perfect()],
        ),
    ] {
        let names: Vec<String> = configs.iter().map(|c| c.name.to_string()).collect();
        let job_configs = configs.clone();
        let plan = ExperimentPlan::new()
            .workloads(engine.suite().to_vec())
            .profiles([profile])
            .map(move |job, ctx| {
                let w = &job.workload;
                let base = ctx.timing(w, job.profile, job.opt, None, &machine)?;
                let mut speedups = Vec::new();
                for cfg in &job_configs {
                    let r = ctx.timing(w, job.profile, job.opt, Some(cfg), &machine)?;
                    speedups.push(r.speedup_over(&base));
                }
                Ok((base.ipc(), speedups))
            });
        let results = engine.run(plan)?;

        let mut headers = vec!["benchmark".to_string(), "base IPC".to_string()];
        headers.extend(names);
        let mut t = ExperimentTable::new(headers);
        let mut gms: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
        for (w, (ipc, speedups)) in engine.suite().iter().zip(&results) {
            let mut row = vec![Cell::text(w.name), Cell::Fixed(*ipc, 3)];
            for (i, &s) in speedups.iter().enumerate() {
                gms[i].push(s);
                row.push(Cell::Fixed(s, 3));
            }
            t.row(row);
        }
        let mut gm = vec![Cell::text("GM"), Cell::Empty];
        for g in &gms {
            gm.push(Cell::Fixed(geo_mean(g), 3));
        }
        t.row(gm);
        report.section(Some(heading), t);
    }

    report.note(
        "Paper shape: 620 GM 1.03 (Simple/Constant), 1.06 (Limit), 1.16-ish (Perfect);\n\
         21164 GM 1.06 (Simple), 1.09 (Limit), 1.16 (Perfect); the 21164 gains\n\
         roughly twice as much as the 620; grep and gawk stand out on both.",
    );
    Ok(report)
}

/// Figure 7 — distribution of load verification latencies per LVP
/// configuration on the 620 and 620+, summed over all benchmarks.
pub(super) fn fig7(engine: &Engine) -> Result<Report, HarnessError> {
    let configs = [
        presets::simple(),
        presets::constant(),
        presets::limit(),
        presets::perfect(),
    ];
    let plan = ExperimentPlan::new()
        .workloads(engine.suite().to_vec())
        .configs(configs.clone())
        .map(|job, ctx| {
            let mut hists = Vec::new();
            for machine in [MachineModel::ppc620(), MachineModel::ppc620_plus()] {
                let r = ctx.timing(
                    &job.workload,
                    job.profile,
                    job.opt,
                    Some(job.config()?),
                    &machine,
                )?;
                hists.push(r.verify_latency);
            }
            Ok(hists)
        });
    let results = engine.run(plan)?;

    // totals[machine][config]
    let mut totals = vec![vec![VerifyLatencyHistogram::default(); configs.len()]; 2];
    for (j, hists) in results.iter().enumerate() {
        let ci = j % configs.len();
        for (mi, h) in hists.iter().enumerate() {
            totals[mi][ci].merge(h);
        }
    }

    let mut report = Report::new(
        "fig7",
        "Figure 7: Load Verification Latency Distribution (% of correct predictions)",
    );
    for (mi, machine_name) in ["620", "620+"].into_iter().enumerate() {
        let mut t = ExperimentTable::new(vec![
            "config",
            VerifyLatencyHistogram::LABELS[0],
            VerifyLatencyHistogram::LABELS[1],
            VerifyLatencyHistogram::LABELS[2],
            VerifyLatencyHistogram::LABELS[3],
            VerifyLatencyHistogram::LABELS[4],
            VerifyLatencyHistogram::LABELS[5],
        ]);
        for (ci, cfg) in configs.iter().enumerate() {
            let pcts = totals[mi][ci].percentages();
            let mut row = vec![Cell::text(cfg.name.to_string())];
            for p in pcts {
                row.push(Cell::text(format!("{p:.1}%")));
            }
            t.row(row);
        }
        report.section(Some(&format!("PPC {machine_name}")), t);
    }
    report.note(
        "Paper shape: the four configurations look virtually identical, and the\n\
         620+ distribution shifts right (time dilation from its higher\n\
         performance).",
    );
    Ok(report)
}

/// The 620's functional units as the paper groups them in Figure 8.
const FU_GROUPS: [(&str, &[OpKind]); 5] = [
    (
        "BRU",
        &[OpKind::CondBranch, OpKind::Jump, OpKind::IndirectJump],
    ),
    ("MCFX", &[OpKind::IntComplex]),
    ("FPU", &[OpKind::FpSimple, OpKind::FpComplex]),
    ("SCFX", &[OpKind::IntSimple, OpKind::System]),
    ("LSU", &[OpKind::Load, OpKind::Store]),
];

/// Figure 8 — average data-dependency resolution latency by
/// functional-unit type, normalized to the no-LVP baseline.
pub(super) fn fig8(engine: &Engine) -> Result<Report, HarnessError> {
    let configs = [
        presets::simple(),
        presets::constant(),
        presets::limit(),
        presets::perfect(),
    ];
    let mut report = Report::new(
        "fig8",
        "Figure 8: Average Dependency Resolution Latencies (normalized to no-LVP)",
    );
    for machine in [MachineModel::ppc620(), MachineModel::ppc620_plus()] {
        let heading = format!("PPC {}", machine.name());
        let job_machine = machine.clone();
        let job_configs = configs.clone();
        let plan = ExperimentPlan::new()
            .workloads(engine.suite().to_vec())
            .map(move |job, ctx| {
                let w = &job.workload;
                let base = ctx.timing(w, job.profile, job.opt, None, &job_machine)?;
                let mut waits = vec![base.operand_wait.clone()];
                for cfg in &job_configs {
                    let r = ctx.timing(w, job.profile, job.opt, Some(cfg), &job_machine)?;
                    waits.push(r.operand_wait.clone());
                }
                Ok(waits)
            });
        let results = engine.run(plan)?;

        // Aggregate operand-wait stats across the whole suite.
        let mut base_waits = OperandWaitStats::default();
        let mut cfg_waits: Vec<OperandWaitStats> = configs
            .iter()
            .map(|_| OperandWaitStats::default())
            .collect();
        for waits in &results {
            base_waits.merge(&waits[0]);
            for (i, w) in waits[1..].iter().enumerate() {
                cfg_waits[i].merge(w);
            }
        }

        let mut t = ExperimentTable::new(vec![
            "FU type",
            "base (cyc)",
            "Simple",
            "Constant",
            "Limit",
            "Perfect",
        ]);
        for (name, kinds) in FU_GROUPS {
            let base_avg = base_waits.average_of(kinds);
            let mut row = vec![Cell::text(name), Cell::text(format!("{base_avg:.2}"))];
            for waits in &cfg_waits {
                let avg = waits.average_of(kinds);
                let norm = if base_avg > 0.0 {
                    100.0 * avg / base_avg
                } else {
                    100.0
                };
                row.push(Cell::text(format!("{norm:.0}%")));
            }
            t.row(row);
        }
        report.section(Some(&heading), t);
    }
    report.note(
        "Paper shape: BRU and MCFX barely change (their operands are not\n\
         predicted); FPU, SCFX and especially LSU waits drop sharply — LSU by\n\
         about half even with the Simple configuration.",
    );
    Ok(report)
}

/// Figure 9 — percentage of cycles with a data-cache bank conflict, per
/// benchmark, without LVP and with Simple / Constant.
pub(super) fn fig9(engine: &Engine) -> Result<Report, HarnessError> {
    let mut report = Report::new("fig9", "Figure 9: Percentage of Cycles with Bank Conflicts");
    for machine in [MachineModel::ppc620(), MachineModel::ppc620_plus()] {
        let heading = format!("PPC {}", machine.name());
        let job_machine = machine.clone();
        let plan = ExperimentPlan::new()
            .workloads(engine.suite().to_vec())
            .map(move |job, ctx| {
                let w = &job.workload;
                let base = ctx.timing(w, job.profile, job.opt, None, &job_machine)?;
                let simple = ctx.timing(
                    w,
                    job.profile,
                    job.opt,
                    Some(&presets::simple()),
                    &job_machine,
                )?;
                let constant = ctx.timing(
                    w,
                    job.profile,
                    job.opt,
                    Some(&presets::constant()),
                    &job_machine,
                )?;
                Ok((
                    base.bank_conflict_rate(),
                    simple.bank_conflict_rate(),
                    constant.bank_conflict_rate(),
                ))
            });
        let results = engine.run(plan)?;

        let mut t = ExperimentTable::new(vec!["benchmark", "base", "Simple", "Constant"]);
        let (mut sb, mut ss, mut sc) = (0.0f64, 0.0f64, 0.0f64);
        let mut n = 0usize;
        for (w, &(b, s, c)) in engine.suite().iter().zip(&results) {
            sb += b;
            ss += s;
            sc += c;
            n += 1;
            t.row(vec![
                Cell::text(w.name),
                Cell::Pct1(b),
                Cell::Pct1(s),
                Cell::Pct1(c),
            ]);
        }
        t.row(vec![
            Cell::text("Mean"),
            Cell::Pct1(sb / n as f64),
            Cell::Pct1(ss / n as f64),
            Cell::Pct1(sc / n as f64),
        ]);
        report.section(Some(&heading), t);
    }
    report.note(
        "Paper shape: conflicts in ~2.6% of 620 cycles and ~6.9% of 620+ cycles\n\
         (the extra LSU shares the same two banks); Simple cuts them ~5-9% and\n\
         Constant ~14%, with occasional small relative increases from time\n\
         dilation.",
    );
    Ok(report)
}
