//! End-to-end coverage of the carbon-aware optimization layer
//! (`ecochip-core::opt`): the HTTP `/v1/optimize` route against the
//! in-process reference, seeded determinism at the process boundary
//! (the CLI's exit-code contract lives in `tests/cli.rs`), and a property
//! test that the streaming Pareto frontier is invariant to `--jobs`, the
//! engine's claim size and shard count.

use std::process::Command;

use proptest::prelude::*;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::opt::{self, ObjectiveSet, OptConfig, OptEvent, OptMethod, ParetoFrontier};
use eco_chip::core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepSpec};
use eco_chip::core::EcoChip;
use eco_chip::serve::{client, Connection, ServeConfig, Server, ServerHandle};
use eco_chip::techdb::{EnergySource, TechDb, TechNode};
use eco_chip::testcases::{catalog, ga102};

const BIN: &str = env!("CARGO_BIN_EXE_ecochip");

/// Boot a server on an ephemeral port, returning its handle and `host:port`.
fn boot() -> (ServerHandle, String) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        threads: 4,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

/// The in-process reference: the NDJSON event lines `opt::optimize`
/// produces for a named testcase + axis under `config`.
fn reference_events(testcase: &str, axis: &str, config: &OptConfig) -> Vec<String> {
    let db = TechDb::default();
    let base = catalog::build(&db, testcase).unwrap();
    let spec = SweepSpec::new(base.clone())
        .axis(eco_chip::core::dse::named_sweep_axis(axis, &base).unwrap());
    let estimator = EcoChip::new(
        eco_chip::core::EstimatorConfig::builder()
            .techdb(db)
            .build(),
    );
    let engine = SweepEngine::with_jobs(2);
    let context = SweepContext::new();
    let mut lines = Vec::new();
    opt::optimize(
        &estimator,
        &engine,
        &spec,
        Shard::FULL,
        &context,
        None,
        config,
        |event: &OptEvent| {
            lines.push(serde_json::to_string(event).unwrap());
            Ok(())
        },
    )
    .unwrap();
    lines
}

#[test]
fn http_optimize_streams_the_exact_in_process_event_lines() {
    let (handle, addr) = boot();
    for (body, config) in [
        (
            r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
            OptConfig::default(),
        ),
        (
            r#"{"testcase":"ga102-3chiplet","axis":"lifetime","method":"anneal","budget":16,"seed":42,"objectives":"embodied,cost"}"#,
            OptConfig {
                method: OptMethod::Anneal,
                objectives: "embodied,cost".parse().unwrap(),
                budget: 16,
                seed: 42,
                ..OptConfig::default()
            },
        ),
    ] {
        let expected = reference_events("ga102-3chiplet", "lifetime", &config);
        let mut lines = Vec::new();
        let response = client::post_ndjson(&addr, "/v1/optimize", body, |line| {
            lines.push(line.to_owned());
            Ok(())
        })
        .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header("transfer-encoding").map(str::to_owned),
            Some("chunked".into())
        );
        assert_eq!(lines, expected, "HTTP events diverged for {body}");
        let done: OptEvent = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(done.event, "done");
        assert!(done.frontier.is_some());
    }
    handle.shutdown().unwrap();
}

#[test]
fn http_optimize_echoes_traces_rejects_bad_requests_and_counts_metrics() {
    let (handle, addr) = boot();

    let mut connection = Connection::open(&addr).unwrap();
    connection.set_trace(Some("optimize-trace-check_01".into()));
    let response = connection
        .post_ndjson(
            "/v1/optimize",
            r#"{"testcase":"ga102-3chiplet","axis":"lifetime","method":"genetic","budget":8,"seed":7}"#,
            |_| Ok(()),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-ecochip-trace"),
        Some("optimize-trace-check_01")
    );

    // Malformed requests fail before the stream starts: a plain 400.
    for body in [
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","method":"hillclimb"}"#,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","objectives":"karma"}"#,
        r#"{"testcase":"nope","axis":"lifetime"}"#,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","method":"anneal","budget":0}"#,
        r#"not json"#,
    ] {
        let response = client::post_json(&addr, "/v1/optimize", body).unwrap();
        assert_eq!(response.status, 400, "body {body:?}");
    }

    // The route has its own metrics label.
    let metrics = client::get(&addr, "/metrics").unwrap();
    let text = metrics.text().unwrap();
    assert!(
        text.contains("route=\"optimize\""),
        "metrics lack the optimize route label:\n{text}"
    );
    handle.shutdown().unwrap();
}

#[test]
fn cli_optimize_is_byte_deterministic() {
    let run = |extra: &[&str]| {
        Command::new(BIN)
            .args([
                "--testcase",
                "ga102-3chiplet",
                "--sweep",
                "lifetime",
                "--optimize",
                "anneal",
                "--budget",
                "12",
                "--seed",
                "42",
            ])
            .args(extra)
            .output()
            .expect("run ecochip")
    };
    let first = run(&[]);
    assert!(first.status.success(), "{first:?}");
    let second = run(&[]);
    // Seeded explorer runs are byte-identical across invocations and
    // worker counts (explorers evaluate serially; --jobs only affects the
    // engine the exhaustive pareto method streams through).
    let jobs4 = run(&["--jobs", "4"]);
    assert_eq!(first.stdout, second.stdout);
    assert_eq!(first.stdout, jobs4.stdout);
    let done_line = String::from_utf8(first.stdout)
        .unwrap()
        .lines()
        .last()
        .unwrap()
        .to_owned();
    let done: OptEvent = serde_json::from_str(&done_line).unwrap();
    assert_eq!((done.event.as_str(), done.evaluated), ("done", 12));
}

#[test]
fn cli_orchestrated_islands_reproduce_per_seed() {
    let run = || {
        Command::new(BIN)
            .args([
                "orchestrate",
                "--testcase",
                "ga102-3chiplet",
                "--sweep",
                "lifetime",
                "--workers",
                "2",
                "--optimize",
                "genetic",
                "--budget",
                "10",
                "--seed",
                "42",
                "--rounds",
                "2",
            ])
            .output()
            .expect("run ecochip orchestrate")
    };
    let first = run();
    assert!(first.status.success(), "{first:?}");
    let second = run();
    assert_eq!(first.stdout, second.stdout);
    let text = String::from_utf8(first.stdout).unwrap();
    let done: OptEvent = serde_json::from_str(text.lines().last().unwrap()).unwrap();
    assert_eq!(done.event, "done");
    // 10 evaluations per island, 2 islands, split across the rounds.
    assert_eq!(done.evaluated, 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any cartesian spec, worker count, chunk size and shard count,
    /// the merged sharded Pareto frontier equals the unsharded one — the
    /// streaming frontier is invariant to `--jobs`, the claim size and
    /// sharding, and its emission order is deterministic.
    #[test]
    fn pareto_frontier_is_invariant_to_jobs_chunk_and_shards(
        n_lifetimes in 1usize..=4,
        n_sources in 1usize..=3,
        jobs in 1usize..=8,
        chunk in 1usize..=5,
        of in 1usize..=5,
    ) {
        let db = TechDb::default();
        let estimator = EcoChip::default();
        let base = ga102::three_chiplet_system(
            &db,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
        )
        .unwrap();
        let lifetimes = [1.0, 2.0, 4.0, 8.0];
        let sources = [EnergySource::Coal, EnergySource::Solar, EnergySource::Wind];
        let spec = SweepSpec::new(base)
            .axis(SweepAxis::lifetimes_years(&lifetimes[..n_lifetimes]))
            .axis(SweepAxis::FabEnergySources(sources[..n_sources].to_vec()));
        let context = SweepContext::new();
        let config = OptConfig {
            objectives: ObjectiveSet::default(),
            ..OptConfig::default()
        };

        // Reference: serial, chunk 1, unsharded.
        let engine = SweepEngine::serial();
        let reference = opt::optimize(
            &estimator, &engine, &spec, Shard::FULL, &context, None, &config, |_| Ok(()),
        ).unwrap();

        // Same spec under a parallel chunked engine: identical outcome.
        let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
        let parallel = opt::optimize(
            &estimator, &engine, &spec, Shard::FULL, &context, None, &config, |_| Ok(()),
        ).unwrap();
        prop_assert_eq!(&parallel, &reference);

        // Sharded: per-shard frontiers merge to the exact full frontier.
        let mut merged = ParetoFrontier::new();
        let mut evaluated = 0usize;
        for index in 0..of {
            let shard = Shard::new(index, of).unwrap();
            let outcome = opt::optimize(
                &estimator, &engine, &spec, shard, &context, None, &config, |_| Ok(()),
            ).unwrap();
            evaluated += outcome.evaluated;
            for point in outcome.frontier {
                merged.insert(point);
            }
        }
        prop_assert_eq!(evaluated, reference.evaluated);
        prop_assert_eq!(merged.points(), reference.frontier.as_slice());
    }
}
