//! Byte-exact golden file for the `run_all` paper-figure tables, plus the
//! binary's figure-name selection.
//!
//! Every experiment of the paper (Table I, Figs. 2–15, validation and the
//! ablation) estimates through `EcoChip::estimate_with`, so this one file
//! pins the model's numbers: a refactor of any estimator stage or of the
//! sweep memo that moves a printed digit fails here.
//!
//! After an intended change to the model's numbers, re-bless with
//!
//! ```sh
//! ECOCHIP_BLESS_GOLDEN=1 cargo test -p ecochip-bench --test golden_run_all
//! ```

use std::path::Path;
use std::process::Command;

/// Environment variable that rewrites the golden file instead of comparing
/// against it (shared with the root crate's wire golden files).
const BLESS_VAR: &str = "ECOCHIP_BLESS_GOLDEN";

#[test]
fn run_all_tables_match_golden_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .output()
        .expect("run run_all");
    assert!(
        output.status.success(),
        "run_all failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_all.txt");

    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).expect("create golden dir");
        std::fs::write(&golden, &output.stdout).expect("write golden file");
        return;
    }

    let expected = std::fs::read(&golden).expect("read golden file");
    let expected = String::from_utf8_lossy(&expected);
    let actual = String::from_utf8_lossy(&output.stdout);
    if let Some((line, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "run_all output changed at line {} (re-bless with {BLESS_VAR}=1 if intended):\n  golden:  {want}\n  current: {got}",
            line + 1
        );
    }
    assert_eq!(
        expected, actual,
        "run_all output changed in length (re-bless with {BLESS_VAR}=1 if intended)"
    );
}

#[test]
fn run_all_prints_only_the_named_experiments_in_order() {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["fig9", "table1"])
        .output()
        .expect("run run_all");
    assert!(output.status.success());
    let mut expected = String::new();
    for generator in [
        ecochip_bench::experiments::fig9,
        ecochip_bench::experiments::table1,
    ] {
        for table in generator().unwrap() {
            expected.push_str(&format!("{table}\n"));
        }
    }
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
}

#[test]
fn run_all_rejects_unknown_names_with_the_valid_list() {
    let output = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(["fig7", "fig99"])
        .output()
        .expect("run run_all");
    assert_eq!(output.status.code(), Some(2));
    // Names are checked before any experiment runs.
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    for (name, _) in ecochip_bench::experiments::EXPERIMENTS {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
}
