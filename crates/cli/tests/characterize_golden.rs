//! Golden-report fixtures for `lvp characterize --csv`: two committed
//! CSV documents that pin the exact characterization output for one
//! string-heavy and one pointer-heavy benchmark. A change to any
//! per-load-PC metric (entropy, working set, stride coverage, feed
//! distance, LCT class stability, score), to the trace itself, or to
//! the CSV renderer shows up here as a byte diff against a file under
//! version control — catching silent metric drift that the in-crate
//! property tests (which compare against a brute-force reference on
//! *random* traces) cannot see.
//!
//! To regenerate after an intentional metric or format change:
//!
//! ```text
//! LVP_UPDATE_FIXTURES=1 cargo test -p lvp-cli --test characterize_golden
//! ```

use std::path::PathBuf;

use lvp_cli::{cmd_characterize, Options};

/// The pinned benchmarks, one fixture file each.
const FIXTURES: &[&str] = &["sc", "grep"];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("characterize_{name}.csv"))
}

/// Runs `lvp characterize <name> --csv`.
fn characterize_csv(name: &str) -> String {
    let opts = Options {
        csv: true,
        ..Options::default()
    };
    cmd_characterize(&[name.to_string()], &opts).expect("characterize succeeds")
}

#[test]
fn characterize_csv_matches_committed_fixtures() {
    let update = std::env::var_os("LVP_UPDATE_FIXTURES").is_some();
    for name in FIXTURES {
        let path = fixture_path(name);
        let csv = characterize_csv(name);
        assert!(
            csv.starts_with("# Workload characterization"),
            "{name}: CSV should lead with the report title comment"
        );
        assert!(
            !csv.contains("engine:"),
            "{name}: CSV mode must not carry the engine summary line"
        );
        if update {
            std::fs::write(&path, &csv).expect("write fixture");
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing fixture {} ({e}); run with LVP_UPDATE_FIXTURES=1 to create it",
                path.display()
            )
        });
        assert_eq!(
            csv,
            golden,
            "{name}: characterization drifted from committed fixture {} \
             (if intentional, regenerate with LVP_UPDATE_FIXTURES=1)",
            path.display()
        );
    }
}

#[test]
fn fixtures_parse_as_csv_with_a_metrics_row() {
    for name in FIXTURES {
        let path = fixture_path(name);
        let Ok(text) = std::fs::read_to_string(&path) else {
            // `characterize_csv_matches_committed_fixtures` reports missing
            // fixtures with regeneration instructions; don't double-fail.
            continue;
        };
        let mut data_rows = 0usize;
        let mut columns = None;
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let n = line.split(',').count();
            match columns {
                None => columns = Some(n),
                Some(c) => assert_eq!(c, n, "{name}: ragged CSV row: {line}"),
            }
            data_rows += 1;
        }
        // Header plus exactly one benchmark row.
        assert_eq!(data_rows, 2, "{name}: expected header + one data row");
        let c = columns.expect("fixture has rows");
        assert!(c >= 13, "{name}: expected >= 13 metric columns, got {c}");
    }
}
