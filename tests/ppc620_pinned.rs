//! Pins the 620 timing model's results on the committed golden-trace
//! fixtures. The model's differential oracle (`ppc620::reference`) lives
//! in the `lvp-uarch` test module and compares two implementations with
//! each other. These pins check the model through the facade's public
//! API against values recorded before the event-driven rewrite, so a
//! scheduler change that alters any timing result fails here too.
//!
//! Each row is one `ablation_machine` configuration × outcome stream ×
//! fixture. The pinned fields are cycles, retired instructions, L1
//! misses, bank-conflict cycles, the verification-latency buckets and
//! the per-kind operand-wait averages (in `OpKind::ALL` order).
//!
//! Only an intentional change to the modelled timing may move a pin;
//! `LVP_PRINT_PINS=1 cargo test --test ppc620_pinned -- --nocapture`
//! then prints the current rows.

use lvp::predictor::{presets, LvpUnit};
use lvp::trace::{OpKind, PredOutcome, Trace};
use lvp::uarch::{simulate_620, Ppc620Config, SimResult};

/// The `ablation_machine` family: the 620's reservation stations,
/// renames and completion buffer scaled by `factor`.
fn scaled(name: &'static str, factor: f64, n_lsu: usize, mem_per_cycle: usize) -> Ppc620Config {
    let base = Ppc620Config::base();
    let scale = |v: usize| ((v as f64 * factor).round() as usize).max(1);
    Ppc620Config {
        name,
        rs_per_class: scale(base.rs_per_class),
        gpr_renames: scale(base.gpr_renames),
        fpr_renames: scale(base.fpr_renames),
        completion_buffer: scale(base.completion_buffer),
        n_lsu,
        mem_dispatch_per_cycle: mem_per_cycle,
        ..base
    }
}

fn fixture(name: &str) -> Trace {
    let path = format!(
        "{}/tests/fixtures/{name}_1k.lvpt",
        env!("CARGO_MANIFEST_DIR")
    );
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    lvp::trace::read_trace(&bytes[..]).expect("fixture deserializes")
}

fn row(r: &SimResult) -> String {
    let waits: Vec<String> = OpKind::ALL
        .iter()
        .map(|&k| format!("{:.6}", r.operand_wait.average(k)))
        .collect();
    format!(
        "{} {} {} {} {:?} {}",
        r.cycles,
        r.instructions,
        r.l1_misses,
        r.bank_conflict_cycles,
        r.verify_latency.buckets,
        waits.join(" ")
    )
}

/// `(fixture, machine, outcomes, row)`, recorded from the split-pass
/// scheduler before the event-driven rewrite.
const PINNED: &[(&str, &str, &str, &str)] = &[
    ("sc", "620/2", "none", "1469 1024 8 32 [0, 0, 0, 0, 0, 0] 0.040351 0.205128 0.000000 0.000000 0.000000 0.105263 0.000000 0.000000 0.000000 0.000000"),
    ("sc", "620/2", "simple", "1444 1024 8 18 [0, 81, 9, 0, 0, 0] 0.070175 0.205128 0.000000 0.000000 0.000000 0.105263 0.000000 0.000000 0.000000 0.000000"),
    ("sc", "620/2", "perfect", "1413 1024 8 60 [0, 159, 37, 0, 0, 1] 0.157895 0.205128 0.000000 0.000000 0.000000 0.115789 0.000000 0.000000 0.000000 0.000000"),
    ("sc", "620", "none", "1197 1024 8 79 [0, 0, 0, 0, 0, 0] 0.324561 0.769231 0.000000 0.000000 0.000000 0.305263 0.461538 0.000000 3.000000 0.000000"),
    ("sc", "620", "simple", "1161 1024 8 38 [0, 46, 39, 3, 2, 0] 0.336842 0.769231 0.000000 0.000000 0.000000 0.326316 0.461538 0.000000 1.560000 0.000000"),
    ("sc", "620", "perfect", "1101 1024 8 101 [0, 99, 42, 55, 0, 1] 0.494737 0.769231 0.000000 0.000000 0.000000 0.389474 0.461538 0.000000 0.000000 0.000000"),
    ("sc", "620+", "none", "941 1024 8 153 [0, 0, 0, 0, 0, 0] 1.098246 2.948718 0.000000 0.000000 1.025381 1.400000 1.000000 0.000000 4.040000 0.000000"),
    ("sc", "620+", "simple", "929 1024 8 118 [0, 66, 5, 3, 5, 11] 0.935088 2.564103 0.000000 0.000000 0.182741 1.400000 1.000000 0.000000 1.840000 0.000000"),
    ("sc", "620+", "perfect", "890 1024 8 190 [0, 67, 22, 20, 38, 50] 0.803509 1.435897 0.000000 0.000000 0.000000 1.557895 1.000000 0.000000 0.000000 0.000000"),
    ("sc", "620x4", "none", "796 1024 8 177 [0, 0, 0, 0, 0, 0] 1.664912 3.717949 0.000000 0.000000 1.223350 1.694737 1.423077 0.000000 4.520000 0.000000"),
    ("sc", "620x4", "simple", "787 1024 8 131 [0, 59, 18, 3, 0, 10] 1.361404 3.051282 0.000000 0.000000 0.243655 1.694737 1.423077 0.000000 2.360000 0.000000"),
    ("sc", "620x4", "perfect", "755 1024 8 202 [0, 42, 37, 18, 13, 87] 1.126316 1.435897 0.000000 0.000000 0.010152 2.042105 1.884615 0.000000 0.000000 0.000000"),
    ("grep", "620/2", "none", "2150 1024 7 17 [0, 0, 0, 0, 0, 0] 0.094477 0.000000 0.000000 0.000000 0.000000 0.018868 0.000000 0.000000 0.000000 0.000000"),
    ("grep", "620/2", "simple", "2135 1024 7 14 [0, 42, 8, 0, 0, 0] 0.027616 0.000000 0.000000 0.000000 0.000000 0.018868 0.000000 0.000000 0.000000 0.000000"),
    ("grep", "620/2", "perfect", "2103 1024 7 35 [0, 81, 26, 0, 0, 1] 0.061047 0.000000 0.000000 0.000000 0.000000 0.113208 0.000000 0.000000 0.000000 0.000000"),
    ("grep", "620", "none", "1877 1024 7 29 [0, 0, 0, 0, 0, 0] 0.363372 0.095238 0.000000 0.000000 0.000000 0.226415 0.000000 0.000000 3.000000 0.000000"),
    ("grep", "620", "simple", "1864 1024 7 23 [0, 34, 14, 2, 0, 0] 0.284884 0.095238 0.000000 0.000000 0.000000 0.226415 0.000000 0.000000 2.625000 0.000000"),
    ("grep", "620", "perfect", "1820 1024 7 60 [0, 53, 35, 19, 0, 1] 0.327035 0.095238 0.000000 0.000000 0.000000 0.264151 0.000000 0.000000 0.000000 0.000000"),
    ("grep", "620+", "none", "1634 1024 7 65 [0, 0, 0, 0, 0, 0] 0.761628 1.202381 0.000000 0.000000 0.925926 0.566038 1.263158 0.000000 2.000000 0.000000"),
    ("grep", "620+", "simple", "1625 1024 7 47 [0, 39, 5, 4, 1, 1] 0.626453 1.333333 0.000000 0.000000 0.333333 0.566038 1.263158 0.000000 2.000000 0.000000"),
    ("grep", "620+", "perfect", "1586 1024 7 84 [0, 43, 16, 20, 13, 16] 0.543605 1.273810 0.000000 0.000000 0.000000 0.924528 1.263158 0.000000 0.000000 0.000000"),
    ("grep", "620x4", "none", "1466 1024 7 51 [0, 0, 0, 0, 0, 0] 1.136628 2.416667 0.000000 0.000000 0.648148 2.169811 2.631579 0.000000 2.875000 0.000000"),
    ("grep", "620x4", "simple", "1465 1024 7 39 [0, 39, 11, 0, 0, 0] 1.031977 2.333333 0.000000 0.000000 0.277778 2.169811 2.631579 0.000000 2.625000 0.000000"),
    ("grep", "620x4", "perfect", "1441 1024 7 60 [0, 55, 27, 9, 6, 11] 0.979651 2.035714 0.000000 0.000000 0.000000 2.528302 2.684211 0.000000 0.000000 0.000000"),
    ("xlisp", "620/2", "none", "1245 1024 17 2 [0, 0, 0, 0, 0, 0] 0.004261 0.000000 0.000000 0.000000 0.000000 0.044444 0.000000 0.000000 0.000000 0.000000"),
    ("xlisp", "620/2", "simple", "1245 1024 17 1 [0, 45, 4, 0, 0, 1] 0.086648 0.000000 0.000000 0.000000 0.000000 0.044444 0.000000 0.000000 0.000000 0.000000"),
    ("xlisp", "620/2", "perfect", "1196 1024 17 2 [0, 83, 37, 0, 0, 7] 0.214489 0.000000 0.000000 0.000000 0.015748 0.000000 0.019802 0.000000 0.000000 0.000000"),
    ("xlisp", "620", "none", "977 1024 17 6 [0, 0, 0, 0, 0, 0] 0.289773 0.000000 0.000000 0.000000 0.047244 0.333333 0.396040 0.000000 0.000000 0.000000"),
    ("xlisp", "620", "simple", "957 1024 17 4 [0, 39, 6, 4, 0, 1] 0.406250 0.000000 0.000000 0.000000 0.047244 0.333333 0.534653 0.000000 0.000000 0.000000"),
    ("xlisp", "620", "perfect", "903 1024 17 4 [0, 63, 20, 34, 3, 7] 0.603693 0.000000 0.000000 0.000000 0.015748 0.555556 1.485149 0.000000 0.000000 0.000000"),
    ("xlisp", "620+", "none", "811 1024 17 18 [0, 0, 0, 0, 0, 0] 1.161932 0.000000 0.000000 0.000000 1.409449 1.133333 1.316832 0.000000 0.000000 0.000000"),
    ("xlisp", "620+", "simple", "792 1024 17 18 [0, 42, 0, 3, 2, 3] 1.225852 0.000000 0.000000 0.000000 1.393701 1.133333 1.435644 0.000000 0.000000 0.000000"),
    ("xlisp", "620+", "perfect", "733 1024 17 21 [0, 69, 6, 8, 20, 24] 1.424716 0.000000 0.000000 0.000000 0.779528 1.711111 2.544554 0.000000 0.000000 0.000000"),
    ("xlisp", "620x4", "none", "755 1024 17 11 [0, 0, 0, 0, 0, 0] 1.738636 0.000000 0.000000 0.000000 1.511811 2.177778 2.574257 0.000000 0.000000 0.000000"),
    ("xlisp", "620x4", "simple", "718 1024 17 10 [0, 45, 0, 0, 2, 3] 1.856534 0.000000 0.000000 0.000000 1.503937 2.444444 2.861386 0.000000 1.500000 0.000000"),
    ("xlisp", "620x4", "perfect", "643 1024 17 17 [0, 79, 3, 1, 12, 32] 2.117898 0.000000 0.000000 0.000000 1.102362 2.711111 3.960396 0.000000 0.000000 0.000000"),
];

#[test]
fn ppc620_results_match_pins_on_fixtures() {
    let machines = [
        scaled("620/2", 0.5, 1, 1),
        scaled("620", 1.0, 1, 1),
        scaled("620+", 2.0, 2, 2),
        scaled("620x4", 4.0, 2, 2),
    ];
    let mut got = Vec::new();
    for name in ["sc", "grep", "xlisp"] {
        let trace = fixture(name);
        let outcome_sets: [(&str, Option<Vec<PredOutcome>>); 3] = [
            ("none", None),
            (
                "simple",
                Some(LvpUnit::new(presets::simple()).annotate(&trace)),
            ),
            (
                "perfect",
                Some(LvpUnit::new(presets::perfect()).annotate(&trace)),
            ),
        ];
        for machine in &machines {
            for (label, outcomes) in &outcome_sets {
                let r = simulate_620(&trace, outcomes.as_deref(), machine);
                got.push((name, machine.name, *label, row(&r)));
            }
        }
    }
    if std::env::var_os("LVP_PRINT_PINS").is_some() {
        for (f, m, o, r) in &got {
            println!("    ({f:?}, {m:?}, {o:?}, {r:?}),");
        }
    }
    assert_eq!(got.len(), PINNED.len(), "pinned row count");
    for (g, p) in got.iter().zip(PINNED) {
        assert_eq!(
            (g.0, g.1, g.2, g.3.as_str()),
            *p,
            "620 result drifted from its pin"
        );
    }
}
