//! Byte-exact golden files for the JSON wire format.
//!
//! Every built-in test case's `POST /v1/estimate` body and its
//! `ecochip --sweep lifetime --stream jsonl` output, plus the
//! `ga102-3chiplet` packaging sweep, are compared byte for byte against the
//! files in `tests/golden/wire/`. The in-process parity suites compare one
//! serializer path against another that shares the same number formatter,
//! so they cannot see a formatting change; these files can.
//!
//! After an intended change to the wire bytes, re-bless with
//!
//! ```sh
//! ECOCHIP_BLESS_GOLDEN=1 cargo test --test golden_wire
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use eco_chip::serve::{client, ServeConfig, Server};
use eco_chip::testcases::catalog;

/// Environment variable that rewrites the golden files instead of
/// comparing against them.
const BLESS_VAR: &str = "ECOCHIP_BLESS_GOLDEN";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire")
}

/// `ecochip --testcase <name> --sweep <axis> --stream jsonl`, stdout bytes.
fn cli_stream(testcase: &str, axis: &str) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_ecochip"))
        .args(["--testcase", testcase, "--sweep", axis, "--stream", "jsonl"])
        .output()
        .expect("run ecochip");
    assert!(
        output.status.success(),
        "ecochip --testcase {testcase} --sweep {axis} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Every golden file's name and the bytes the current build produces for it.
fn current_outputs() -> Vec<(String, Vec<u8>)> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let mut outputs = Vec::new();
    for name in catalog::names() {
        let response = client::post_json(
            &addr,
            "/v1/estimate",
            &format!("{{\"testcase\":\"{name}\"}}"),
        )
        .expect("POST /v1/estimate");
        assert_eq!(response.status, 200, "{name}: {:?}", response.text());
        outputs.push((format!("{name}.estimate.json"), response.body.clone()));
        outputs.push((
            format!("{name}.lifetime.jsonl"),
            cli_stream(&name, "lifetime"),
        ));
    }
    outputs.push((
        "ga102-3chiplet.packaging.jsonl".into(),
        cli_stream("ga102-3chiplet", "packaging"),
    ));
    handle.shutdown().expect("server shutdown");
    outputs
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

#[test]
fn wire_bytes_match_golden_files() {
    let dir = golden_dir();
    let outputs = current_outputs();

    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        for (name, bytes) in &outputs {
            std::fs::write(dir.join(name), bytes).expect("write golden file");
        }
        return;
    }

    let mut failures = Vec::new();
    for (name, actual) in &outputs {
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
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
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
        "wire bytes changed ({} mismatches; re-bless with {BLESS_VAR}=1 if intended):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
