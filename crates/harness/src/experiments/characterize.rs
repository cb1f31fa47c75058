//! Workload characterization and the synthetic-adversary ablation.
//!
//! `characterize` rolls the streaming [`Characterizer`]'s per-load-PC
//! metrics into one row per benchmark, side by side with the measured
//! Fig-1 depth-1 locality, and gates on the two agreeing in *rank*
//! (Spearman): the cheap static-of-the-trace predictability score must
//! order the suite the same way the actual locality measurement does,
//! or the metrics have drifted from what they claim to summarize.
//!
//! `ablation_synth` runs every predictor backend over the suite plus
//! the five `synth-*` adversarial workloads and gates on at least one
//! adversary landing far (>= 20pp) below the suite's mean hybrid
//! coverage — evidence the generator produces genuinely hard value
//! streams rather than re-skinned suite behavior.
//!
//! [`Characterizer`]: lvp_predictor::characterize::Characterizer

use crate::engine::Engine;
use crate::error::HarnessError;
use crate::plan::ExperimentPlan;
use crate::report::{Cell, ExperimentTable, Report};
use lvp_predictor::{presets, LocalityMeter, LvpConfig, PredictorKind};
use lvp_workloads::{synth_suite, Workload};

/// Minimum Spearman rank correlation between the characterizer's
/// predictability score and measured depth-1 locality.
pub const RANK_CORRELATION_GATE: f64 = 0.70;

/// Coverage shortfall (in absolute fraction of loads) at least one
/// synthetic adversary must show against the suite's mean hybrid
/// coverage.
pub const ADVERSARY_GAP: f64 = 0.20;

/// Ranks with ties sharing their average rank (1-based).
fn ranks(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        // Positions i..=j (0-based) share the average 1-based rank.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation with average-rank tie handling (Pearson
/// over the rank vectors, which stays exact under ties where the
/// textbook `1 - 6Σd²/n(n²-1)` shortcut does not).
///
/// Returns `None` for mismatched or sub-2-element inputs, or when
/// either side is constant (correlation undefined).
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = rx.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (a, b) in rx.iter().zip(&ry) {
        let (da, db) = (a - mx, b - my);
        cov += da * db;
        vx += da * da;
        vy += db * db;
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

/// `characterize` — per-benchmark value-locality metrics from one
/// streaming pass, gated on rank agreement with measured locality.
pub(super) fn characterize(engine: &Engine) -> Result<Report, HarnessError> {
    let plan = ExperimentPlan::new()
        .workloads(engine.suite().to_vec())
        .map(|job, ctx| {
            let c = ctx.job_characterization(job)?;
            let run = ctx.job_run(job)?;
            let mut meter = LocalityMeter::paper_default();
            for e in &run.trace {
                meter.observe(&e);
            }
            Ok((c.summary.clone(), meter.locality(1)))
        });
    let results = engine.run(plan)?;

    let mut report = Report::new(
        "characterize",
        "Workload characterization: per-load-PC value metrics (Toc/O0)",
    );
    let mut t = ExperimentTable::new(vec![
        "benchmark",
        "loads",
        "pcs",
        "entropy",
        "wset",
        "repeat",
        "stride",
        "simpson",
        "fed",
        "dist",
        "stable",
        "score",
        "local@1",
    ]);
    let (mut scores, mut locs) = (Vec::new(), Vec::new());
    for (w, (s, loc1)) in engine.suite().iter().zip(&results) {
        scores.push(s.score);
        locs.push(*loc1);
        t.row(vec![
            Cell::text(w.name),
            Cell::Millions(s.loads),
            Cell::Count(s.load_pcs),
            Cell::Fixed(s.entropy_bits, 2),
            Cell::Fixed(s.mean_working_set, 1),
            Cell::Pct1(s.repeat_rate),
            Cell::Pct1(s.stride_coverage),
            Cell::Fixed(s.simpson, 3),
            Cell::Pct1(s.fed_fraction),
            Cell::Fixed(s.mean_feed_distance, 0),
            Cell::Pct1(s.class_stability),
            Cell::Fixed(s.score, 3),
            Cell::Pct1(*loc1),
        ]);
    }
    report.section(None, t);
    report.note(
        "entropy/wset/simpson are load-weighted per-PC means; repeat/stride/fed are\n\
         fractions of dynamic loads; stable is the fraction of loads at PCs whose LCT\n\
         class agrees across trace halves; score = max(stride coverage, simpson).",
    );
    if scores.len() < 3 {
        report.note("rank correlation (Spearman) gate skipped: fewer than 3 benchmarks");
    } else {
        match spearman(&scores, &locs) {
            Some(rho) => {
                let verdict = if rho >= RANK_CORRELATION_GATE {
                    "PASS"
                } else {
                    "FAIL"
                };
                report.note(format!(
                    "rank correlation (Spearman) score vs Fig-1 depth-1 locality: {rho:.2} — \
                     {verdict} (>= {RANK_CORRELATION_GATE:.2})"
                ));
            }
            None => report.note(
                "rank correlation (Spearman) undefined: a metric is constant across the suite",
            ),
        }
    }
    Ok(report)
}

/// `ablation_synth` — every predictor backend over the suite plus the
/// five synthetic adversaries, gated on adversarial effectiveness.
pub(super) fn ablation_synth(engine: &Engine) -> Result<Report, HarnessError> {
    let mut rows: Vec<Workload> = engine.suite().to_vec();
    for w in synth_suite() {
        if !rows.iter().any(|r| r.name == w.name) {
            rows.push(*w);
        }
    }
    let kinds = PredictorKind::ALL;
    let configs: Vec<LvpConfig> = kinds
        .iter()
        .map(|&k| {
            presets::simple()
                .builder()
                .kind(k)
                .named(k.as_str())
                .build()
        })
        .collect();
    let plan = ExperimentPlan::new()
        .workloads(rows.clone())
        .configs(configs)
        .map(|job, ctx| Ok(ctx.job_annotation(job)?.stats));
    let stats = engine.run(plan)?;

    let mut report = Report::new(
        "ablation_synth",
        "Ablation: predictor coverage on suite vs synthetic adversaries (Simple geometry)",
    );
    let mut headers = vec!["benchmark".to_string()];
    for k in kinds {
        headers.push(format!("{k} cov"));
        headers.push(format!("{k} acc"));
    }
    let mut t = ExperimentTable::new(headers);
    // coverage[wi][ki] = correct / loads for that cell.
    let mut coverage = vec![[0.0f64; PredictorKind::ALL.len()]; rows.len()];
    for (wi, w) in rows.iter().enumerate() {
        let mut row = vec![Cell::text(w.name)];
        for (ki, _) in kinds.iter().enumerate() {
            let s = &stats[wi * kinds.len() + ki];
            let cov = s.correct as f64 / (s.loads.max(1)) as f64;
            let acc = if s.predictions == 0 {
                0.0
            } else {
                s.correct as f64 / s.predictions as f64
            };
            coverage[wi][ki] = cov;
            row.push(Cell::Fixed(cov, 3));
            row.push(if s.predictions == 0 {
                Cell::Dash
            } else {
                Cell::Fixed(acc, 3)
            });
        }
        t.row(row);
    }
    report.section(None, t);
    report.note(
        "cov = correct predictions / dynamic loads (coverage); acc = correct /\n\
         issued predictions; all cells use the Simple geometry rekinded per backend.",
    );

    let hybrid = kinds
        .iter()
        .position(|&k| k == PredictorKind::Hybrid)
        .expect("Hybrid is in ALL");
    let suite_cov: Vec<f64> = rows
        .iter()
        .zip(&coverage)
        .filter(|(w, _)| !w.name.starts_with("synth-"))
        .map(|(_, c)| c[hybrid])
        .collect();
    if suite_cov.is_empty() {
        report.note("synth adversarial gate skipped: no non-synthetic benchmarks in the engine");
        return Ok(report);
    }
    let mean = suite_cov.iter().sum::<f64>() / suite_cov.len() as f64;
    let worst = rows
        .iter()
        .zip(&coverage)
        .filter(|(w, _)| w.name.starts_with("synth-"))
        .map(|(w, c)| (w.name, c[hybrid]))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    match worst {
        Some((name, cov)) => {
            let verdict = if cov <= mean - ADVERSARY_GAP {
                "PASS"
            } else {
                "FAIL"
            };
            report.note(format!(
                "suite mean hybrid coverage {mean:.3} over {} benchmarks; hardest adversary \
                 {name} at {cov:.3} ({:+.1}pp)\n\
                 synth adversarial gate: {verdict} (>= 1 synth workload >= {:.0}pp below mean)",
                suite_cov.len(),
                100.0 * (cov - mean),
                100.0 * ADVERSARY_GAP,
            ));
        }
        None => report.note("synth adversarial gate skipped: no synth-* rows"),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_perfect_and_reversed() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &up).unwrap() - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_rank_invariant_under_monotone_maps() {
        let xs = [0.1f64, 0.5, 0.2, 0.9, 0.3];
        let ys: Vec<f64> = xs.iter().map(|v| v.exp() * 100.0).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_with_average_ranks() {
        // Ranks of xs: [1.5, 1.5, 3, 4]; Pearson over ranks against a
        // strictly increasing ys is < 1 but well-defined and positive.
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let rho = spearman(&xs, &ys).unwrap();
        assert!(rho > 0.9 && rho < 1.0, "rho = {rho}");
    }

    #[test]
    fn spearman_degenerate_inputs_are_none() {
        assert_eq!(spearman(&[1.0], &[1.0]), None);
        assert_eq!(spearman(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(spearman(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 10.0]), vec![1.5, 3.0, 1.5]);
        assert_eq!(ranks(&[7.0, 7.0, 7.0]), vec![2.0, 2.0, 2.0]);
    }
}
