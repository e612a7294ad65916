//! Golden-file helpers shared by the byte-exact output tests.
//!
//! `check_golden` compares produced bytes against the files of one
//! directory under `tests/golden/`; with `ECOCHIP_BLESS_GOLDEN` set it
//! rewrites them instead.

use std::path::{Path, PathBuf};

/// Environment variable that rewrites the golden files instead of
/// comparing against them.
const BLESS_VAR: &str = "ECOCHIP_BLESS_GOLDEN";

/// `tests/golden/<name>`.
pub fn golden_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// A short description of where `actual` first departs from `expected`.
fn first_difference(expected: &[u8], actual: &[u8]) -> String {
    let at = expected
        .iter()
        .zip(actual)
        .position(|(e, a)| e != a)
        .unwrap_or(expected.len().min(actual.len()));
    let window = |bytes: &[u8]| {
        let start = at.saturating_sub(40);
        let end = (at + 40).min(bytes.len());
        String::from_utf8_lossy(&bytes[start.min(end)..end]).into_owned()
    };
    format!(
        "first difference at byte {at} (lengths {} vs {}):\n  golden:  …{}…\n  current: …{}…",
        expected.len(),
        actual.len(),
        window(expected),
        window(actual)
    )
}

/// Compare `outputs` byte for byte against the files in `dir`, or rewrite
/// them when the bless variable is set.
pub fn check_golden(dir: &Path, outputs: &[(String, Vec<u8>)]) {
    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::create_dir_all(dir).expect("create golden dir");
        for (name, bytes) in outputs {
            std::fs::write(dir.join(name), bytes).expect("write golden file");
        }
        return;
    }

    let mut failures = Vec::new();
    for (name, actual) in outputs {
        match std::fs::read(dir.join(name)) {
            Ok(expected) if expected == *actual => {}
            Ok(expected) => {
                failures.push(format!("{name}: {}", first_difference(&expected, actual)))
            }
            Err(error) => failures.push(format!("{name}: cannot read golden file: {error}")),
        }
    }
    // A stale file left behind by a renamed test case would otherwise go
    // unchecked forever.
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("read golden dir")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected_names: Vec<String> = outputs.iter().map(|(name, _)| name.clone()).collect();
    expected_names.sort();
    if on_disk != expected_names {
        failures.push(format!(
            "golden file set differs: on disk {on_disk:?}, produced {expected_names:?}"
        ));
    }
    assert!(
        failures.is_empty(),
        "output bytes changed ({} mismatches; re-bless with {BLESS_VAR}=1 if intended):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
