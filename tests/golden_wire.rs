//! Byte-exact golden files for the JSON wire format.
//!
//! Every built-in test case's `POST /v1/estimate` body and its
//! `ecochip --sweep lifetime --stream jsonl` output, plus the
//! `ga102-3chiplet` packaging sweep, are compared byte for byte against the
//! files in `tests/golden/wire/`, so a formatting change anywhere in the
//! serializer shows up here.
//!
//! `tests/golden/pretty/` pins the pretty-printed JSON the CLI writes
//! (`--export` and `--json`) and the compact `TechDb`, whose maps key on
//! integers.
//!
//! `tests/golden/bounded_optimize/` pins `POST /v1/optimize` against a
//! server whose memo is bounded to 8 entries per cache: the pareto, anneal
//! and genetic event streams over a chiplet-count × node × packaging space,
//! plus the memo's hit, miss and eviction counters after each request. It
//! is the path where LRU eviction decides what gets recomputed.
//!
//! `tests/golden/deep_pareto/` pins a `pareto` stream over 1–16 chiplets ×
//! the five packaging architectures (80 points) on the same bounded memo,
//! with its memo counters: it pins the planner's deep slicing trees, where
//! the streams above stop at four chiplets.
//!
//! `tests/golden/explore_fab_source/` pins the anneal and genetic
//! `POST /v1/optimize` streams over a fab-energy-source × lifetime space,
//! scored on embodied CFP, cost and area. Each case there estimates with
//! its own fab source, so these streams show whether the explorers score
//! every case exactly as the exhaustive sweep does.
//!
//! After an intended change to the wire bytes, re-bless with
//!
//! ```sh
//! ECOCHIP_BLESS_GOLDEN=1 cargo test --test golden_wire
//! ```

mod common;

use std::path::PathBuf;
use std::process::Command;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::dse::named_sweep_axis;
use eco_chip::core::sweep::SweepAxis;
use eco_chip::core::System;
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use eco_chip::serve::api::{OptimizeRequest, StatsResponse};
use eco_chip::serve::{client, ServeConfig, Server, ServerHandle};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::testcases::{catalog, ga102};

use common::{check_golden, golden_dir};

/// Run `ecochip` with `args`, asserting success; its stdout bytes.
fn cli(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_ecochip"))
        .args(args)
        .output()
        .expect("run ecochip");
    assert!(
        output.status.success(),
        "ecochip {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// `ecochip --testcase <name> --sweep <axis> --stream jsonl`, stdout bytes.
fn cli_stream(testcase: &str, axis: &str) -> Vec<u8> {
    cli(&["--testcase", testcase, "--sweep", axis, "--stream", "jsonl"])
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

/// The pretty-printed files the CLI writes (`--export`, and `--json` for a
/// report and a sweep) and the compact `TechDb`, whose maps key on
/// integers.
fn pretty_outputs() -> Vec<(String, Vec<u8>)> {
    let scratch =
        std::env::temp_dir().join(format!("ecochip-golden-pretty-{}", std::process::id()));
    let export = scratch.join("export");
    let mut outputs = Vec::new();

    cli(&["--export", export.to_str().expect("UTF-8 temp path")]);
    let mut exported: Vec<PathBuf> = std::fs::read_dir(&export)
        .expect("read export dir")
        .map(|entry| entry.expect("export entry").path())
        .collect();
    exported.sort();
    for path in exported {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        outputs.push((
            format!("export.{name}"),
            std::fs::read(&path).expect("read export"),
        ));
    }

    for (name, extra) in [
        ("ga102-3chiplet.report.json", &[][..]),
        (
            "ga102-3chiplet.packaging.json",
            &["--sweep", "packaging"][..],
        ),
    ] {
        let path = scratch.join(name);
        let path_arg = path.to_str().expect("UTF-8 temp path");
        let mut args = vec!["--testcase", "ga102-3chiplet", "--json", path_arg];
        args.extend_from_slice(extra);
        cli(&args);
        outputs.push((
            name.into(),
            std::fs::read(&path).expect("read --json output"),
        ));
    }
    std::fs::remove_dir_all(&scratch).expect("remove scratch dir");

    outputs.push((
        "techdb.compact.json".into(),
        serde_json::to_string(&TechDb::default())
            .expect("encode TechDb")
            .into_bytes(),
    ));
    outputs
}

/// A server on an ephemeral port whose memo holds at most 8 entries per
/// cache, serially evaluated: its handle and `host:port`.
fn bounded_server() -> (ServerHandle, String) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        threads: 1,
        memo_max_entries: Some(8),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

/// `POST /v1/optimize` of `method` over `axes` from `base`, with a budget
/// of 64 for the seeded explorers; the NDJSON body.
fn optimize(
    addr: &str,
    base: &System,
    axes: &[SweepAxis],
    method: &str,
    seed: Option<u64>,
) -> Vec<u8> {
    let request = OptimizeRequest {
        testcase: None,
        system: Some(base.clone()),
        axis: None,
        axes: Some(axes.to_vec()),
        method: Some(method.into()),
        budget: seed.map(|_| 64),
        seed,
        ..OptimizeRequest::named("", "")
    };
    let body = serde_json::to_string(&request).expect("encode optimize request");
    let response = client::post_json(addr, "/v1/optimize", &body).expect("POST /v1/optimize");
    assert_eq!(response.status, 200, "{method}: {:?}", response.text());
    response.body
}

/// One line of the server's memo counters, labelled `method`.
fn memo_stats_line(addr: &str, method: &str) -> String {
    let stats = client::get(addr, "/v1/stats").expect("GET /v1/stats");
    let stats: StatsResponse =
        serde_json::from_str(stats.text().expect("UTF-8 stats")).expect("decode /v1/stats");
    format!(
        "{method}: floorplan hits={} misses={} evictions={} entries={}; \
         manufacturing hits={} misses={} evictions={} entries={}\n",
        stats.floorplan_hits,
        stats.floorplan_misses,
        stats.floorplan_evictions,
        stats.floorplan_entries,
        stats.manufacturing_hits,
        stats.manufacturing_misses,
        stats.manufacturing_evictions,
        stats.manufacturing_entries,
    )
}

/// The bounded-memo optimize outputs: each method's NDJSON body, then one
/// line of memo counters per request.
fn bounded_optimize_outputs() -> Vec<(String, Vec<u8>)> {
    let (handle, addr) = bounded_server();
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").expect("built-in test case");
    let axes = vec![
        SweepAxis::ChipletCounts {
            blocks: ga102::soc_blocks(&db).expect("GA102 blocks"),
            nodes: NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            counts: vec![1, 2, 3, 4],
        },
        SweepAxis::ChipletNode {
            index: 0,
            nodes: vec![TechNode::N7, TechNode::N10, TechNode::N14],
        },
        SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
        ]),
    ];

    let mut outputs = Vec::new();
    let mut counters = String::new();
    for (method, seed) in [("pareto", None), ("anneal", Some(7)), ("genetic", Some(11))] {
        outputs.push((
            format!("{method}.jsonl"),
            optimize(&addr, &base, &axes, method, seed),
        ));
        counters.push_str(&memo_stats_line(&addr, method));
    }
    outputs.push(("memo_stats.txt".into(), counters.into_bytes()));
    handle.shutdown().expect("server shutdown");
    outputs
}

/// The `pareto` stream over `ga102-3chiplet`'s blocks split into 1–16
/// chiplets × all five packaging architectures, on the bounded memo, and
/// the memo counters after it.
fn deep_pareto_outputs() -> Vec<(String, Vec<u8>)> {
    let (handle, addr) = bounded_server();
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").expect("built-in test case");
    let axes = vec![
        SweepAxis::ChipletCounts {
            blocks: ga102::soc_blocks(&db).expect("GA102 blocks"),
            nodes: NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            counts: (1..=16).collect(),
        },
        SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]),
    ];
    let outputs = vec![
        (
            "pareto.jsonl".into(),
            optimize(&addr, &base, &axes, "pareto", None),
        ),
        (
            "memo_stats.txt".into(),
            memo_stats_line(&addr, "pareto").into_bytes(),
        ),
    ];
    handle.shutdown().expect("server shutdown");
    outputs
}

/// The anneal (seed 42) and genetic (seed 7) streams over `ga102-3chiplet`
/// × the named `energy` axis × three lifetimes, budget 32.
fn explore_fab_source_outputs() -> Vec<(String, Vec<u8>)> {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(1),
        threads: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").expect("built-in test case");
    let axes = vec![
        named_sweep_axis("energy", &base).expect("named energy axis"),
        SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]),
    ];

    let mut outputs = Vec::new();
    for (method, seed) in [("anneal", 42), ("genetic", 7)] {
        let request = OptimizeRequest {
            testcase: None,
            system: Some(base.clone()),
            axis: None,
            axes: Some(axes.clone()),
            method: Some(method.into()),
            budget: Some(32),
            seed: Some(seed),
            objectives: Some("embodied,cost,area".into()),
            ..OptimizeRequest::named("", "")
        };
        let body = serde_json::to_string(&request).expect("encode optimize request");
        let response = client::post_json(&addr, "/v1/optimize", &body).expect("POST /v1/optimize");
        assert_eq!(response.status, 200, "{method}: {:?}", response.text());
        outputs.push((format!("{method}.jsonl"), response.body));
    }
    handle.shutdown().expect("server shutdown");
    outputs
}

#[test]
fn wire_bytes_match_golden_files() {
    check_golden(&golden_dir("wire"), &current_outputs());
}

#[test]
fn pretty_and_map_keyed_bytes_match_golden_files() {
    check_golden(&golden_dir("pretty"), &pretty_outputs());
}

#[test]
fn bounded_memo_optimize_matches_golden_files() {
    check_golden(&golden_dir("bounded_optimize"), &bounded_optimize_outputs());
}

#[test]
fn deep_slicing_pareto_matches_golden_files() {
    check_golden(&golden_dir("deep_pareto"), &deep_pareto_outputs());
}

#[test]
fn fab_source_explorers_match_golden_files() {
    check_golden(
        &golden_dir("explore_fab_source"),
        &explore_fab_source_outputs(),
    );
}
