//! End-to-end tests of the `ecochip-serve` HTTP service and orchestrator:
//! boot real servers on ephemeral ports, drive them over real sockets, and
//! hold the wire output to the same bit-for-bit standard as the in-process
//! engine.

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::dse::named_sweep_axis;
use eco_chip::core::sweep::{SweepAxis, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::core::EcoChip;
use eco_chip::serve::orchestrator::{self, FailoverPolicy, WorkerPool};
use eco_chip::serve::{
    client, BatchEstimateItem, OptimizeRequest, ServeConfig, Server, ServerHandle, SweepRequest,
};
use eco_chip::techdb::{Area, TechDb, TechNode, TimeSpan};
use eco_chip::testcases::{catalog, ga102};
use eco_chip::{ChipletSize, System, UsageProfile};

/// Boot a server on an ephemeral port, returning its handle and `host:port`.
fn boot(config: ServeConfig) -> (ServerHandle, String) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .expect("bind ephemeral server");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

fn default_config() -> ServeConfig {
    ServeConfig {
        jobs: Some(2),
        threads: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn a_techdb_out_of_range_is_a_startup_error() {
    let db = TechDb::default();
    let mut params = db.node(TechNode::N5).unwrap().clone();
    params.epa = serde_json::from_str("-2.0").unwrap();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        techdb: Some(db.to_builder().insert(params).build()),
        ..default_config()
    };
    let Err(refused) = Server::bind(&config) else {
        panic!("a techdb out of range binds");
    };
    assert_eq!(
        refused.to_string(),
        "bad request: techdb: invalid technology database: nodes[5].epa must be finite and > 0, \
         got -2"
    );
}

/// The in-process reference: the NDJSON lines an unsharded engine run
/// produces for a named testcase + axis.
fn reference_lines(testcase: &str, axis: &str) -> Vec<String> {
    let db = TechDb::default();
    let base = catalog::build(&db, testcase).unwrap();
    let spec = SweepSpec::new(base.clone()).axis(named_sweep_axis(axis, &base).unwrap());
    let estimator = EcoChip::new(
        eco_chip::core::EstimatorConfig::builder()
            .techdb(db)
            .build(),
    );
    SweepEngine::with_jobs(2)
        .run(&estimator, &spec)
        .unwrap()
        .iter()
        .map(|point| serde_json::to_string(point).unwrap())
        .collect()
}

#[test]
fn health_stats_and_testcases_respond() {
    let (handle, addr) = boot(default_config());

    let health = client::get(&addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    let text = health.text().unwrap();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"jobs\":2"), "{text}");

    let testcases = client::get(&addr, "/v1/testcases").unwrap();
    assert_eq!(testcases.status, 200);
    for name in catalog::names() {
        assert!(
            testcases.text().unwrap().contains(&format!("\"{name}\"")),
            "missing {name}"
        );
    }

    let stats = client::get(&addr, "/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let text = stats.text().unwrap();
    assert!(text.contains("\"requests\":"), "{text}");
    assert!(text.contains("\"floorplan_hits\":"), "{text}");

    handle.shutdown().unwrap();
}

#[test]
fn estimate_matches_the_in_process_estimator_bit_for_bit() {
    let (handle, addr) = boot(default_config());

    let response = client::post_json(&addr, "/v1/estimate", r#"{"testcase":"ga102"}"#).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.text());
    let body = response.text().unwrap();

    // The served report deserializes into the exact report a local
    // estimator computes (f64 JSON round-trips are bit-exact).
    let served: eco_chip::serve::EstimateResponse = serde_json::from_str(body).unwrap();
    let db = TechDb::default();
    let system = catalog::build(&db, "ga102").unwrap();
    let local = EcoChip::new(
        eco_chip::core::EstimatorConfig::builder()
            .techdb(db)
            .build(),
    )
    .estimate(&system)
    .unwrap();
    assert_eq!(served.report, local);
    assert_eq!(
        served.report.total().kg().to_bits(),
        local.total().kg().to_bits()
    );
    assert_eq!(served.system, system.name);

    // An inline system body estimates the same way.
    let inline = format!(
        r#"{{"system":{}}}"#,
        serde_json::to_string(&system).unwrap()
    );
    let response = client::post_json(&addr, "/v1/estimate", &inline).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.text());
    let served: eco_chip::serve::EstimateResponse =
        serde_json::from_str(response.text().unwrap()).unwrap();
    assert_eq!(served.report, local);

    // A second identical request is served from the warm memo.
    let stats = client::get(&addr, "/v1/stats").unwrap();
    let text = stats.text().unwrap();
    let served_stats: eco_chip::serve::StatsResponse = serde_json::from_str(text).unwrap();
    assert!(served_stats.floorplan_hits >= 1, "{text}");

    handle.shutdown().unwrap();
}

#[test]
fn batch_estimate_is_byte_identical_to_sequential_singles() {
    use eco_chip::serve::{BatchEstimateItem, EstimateRequest};

    let (handle, addr) = boot(default_config());
    let db = TechDb::default();
    let inline_system = catalog::build(&db, "ga102").unwrap();

    // N mixed items: by-testcase, inline, a bad one in the middle (error
    // isolation), and another by-testcase after it (order preservation).
    let bodies = [
        r#"{"testcase":"ga102"}"#.to_string(),
        format!(
            r#"{{"system":{}}}"#,
            serde_json::to_string(&inline_system).unwrap()
        ),
        r#"{"testcase":"not-a-testcase"}"#.to_string(),
        r#"{"testcase":"ga102-3chiplet"}"#.to_string(),
    ];

    // Sequential singles over ONE keep-alive connection: the reference
    // bodies (the bad item is a request-level 400 when sent alone).
    let mut connection = client::Connection::open(&addr).unwrap();
    let mut singles = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let response = connection.post_json("/v1/estimate", body).unwrap();
        let expected_status = if i == 2 { 400 } else { 200 };
        assert_eq!(response.status, expected_status, "{:?}", response.text());
        singles.push(response.text().unwrap().trim_end_matches('\n').to_owned());
    }

    // The same items as one batch on the same connection: one round-trip,
    // overall 200 (the bad item isolates into its own error element), and
    // the response is exactly the singles joined into a JSON array.
    let batch_body = format!("[{}]", bodies.join(","));
    let response = connection.post_json("/v1/estimate", &batch_body).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.text());
    assert_eq!(
        response.text().unwrap(),
        format!("[{}]\n", singles.join(",")),
        "batch bytes diverged from sequential singles"
    );
    // One connection carried all 5 requests.
    assert_eq!(connection.target(), addr);

    // The typed client helper decodes the same shape: per-item results in
    // request order, errors isolated per item.
    let requests: Vec<EstimateRequest> = bodies
        .iter()
        .map(|body| serde_json::from_str(body).unwrap())
        .collect();
    let items = connection.estimate_batch(&requests).unwrap();
    assert_eq!(items.len(), bodies.len());
    for (i, item) in items.iter().enumerate() {
        match item {
            BatchEstimateItem::Ok(response) => {
                assert_ne!(i, 2, "the bad item must not estimate");
                assert_eq!(
                    serde_json::to_string(response).unwrap(),
                    singles[i],
                    "item {i}"
                );
            }
            BatchEstimateItem::Err(error) => {
                assert_eq!(i, 2, "only the bad item may fail");
                assert!(error.error.contains("not-a-testcase"), "{}", error.error);
            }
        }
    }

    // An empty batch is a valid no-op; a malformed top level is a 400.
    let response = connection.post_json("/v1/estimate", "[]").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text().unwrap(), "[]\n");
    let response = connection.post_json("/v1/estimate", "[{").unwrap();
    assert_eq!(response.status, 400, "{:?}", response.text());

    // The batch route reports under its own metrics label.
    let metrics = connection.get("/metrics").unwrap();
    let text = metrics.text().unwrap();
    assert!(
        text.contains("route=\"estimate_batch\",status=\"200\""),
        "{text}"
    );

    handle.shutdown().unwrap();
}

#[test]
fn streamed_sweep_is_bit_for_bit_identical_to_the_engine() {
    let (handle, addr) = boot(default_config());
    let expected = reference_lines("ga102-3chiplet", "lifetime");

    let mut lines = Vec::new();
    let response = client::post_ndjson(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
        |line| {
            lines.push(line.to_owned());
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("transfer-encoding").map(str::to_owned),
        Some("chunked".into())
    );
    assert_eq!(lines, expected, "HTTP NDJSON diverged from the engine");

    // Each line parses back into a SweepPoint.
    let point: SweepPoint = serde_json::from_str(&lines[0]).unwrap();
    assert_eq!(point.label, "1y");

    handle.shutdown().unwrap();
}

#[test]
fn framed_sweep_decodes_to_the_exact_ndjson_bytes() {
    let (handle, addr) = boot(default_config());
    let expected = reference_lines("ga102-3chiplet", "lifetime");

    // The client decodes `ECOF` frames transparently, so the same
    // line-callback sees the canonical stream — byte-identical to NDJSON.
    let mut lines = Vec::new();
    let response = client::post_ndjson(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","format":"frames"}"#,
        |line| {
            lines.push(line.to_owned());
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type").map(str::to_owned),
        Some("application/x-ecochip-frames".into())
    );
    assert_eq!(lines, expected, "framed stream diverged from NDJSON");

    // Asking for the explicit NDJSON format is also honored, and an
    // unknown format is rejected before the stream starts.
    let response = client::post_ndjson(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","format":"ndjson"}"#,
        |_| Ok(()),
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type").map(str::to_owned),
        Some("application/x-ndjson".into())
    );
    let response = client::post_json(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","format":"msgpack"}"#,
    )
    .unwrap();
    assert_eq!(response.status, 400, "unknown formats must 400");

    // Both stream formats show up in the Prometheus byte counters.
    let metrics = client::get(&addr, "/metrics").unwrap();
    let text = metrics.text().unwrap();
    let ndjson_bytes = metric_value(text, "ecochip_sweep_stream_bytes_total{format=\"ndjson\"}");
    let frames_bytes = metric_value(text, "ecochip_sweep_stream_bytes_total{format=\"frames\"}");
    assert!(ndjson_bytes > 0.0, "{text}");
    assert!(frames_bytes > 0.0, "{text}");

    handle.shutdown().unwrap();
}

#[test]
fn structured_axes_and_shards_work_over_the_wire() {
    let (handle, addr) = boot(default_config());

    let db = TechDb::default();
    let base = catalog::build(&db, "ga102").unwrap();
    let request = SweepRequest {
        testcase: None,
        system: Some(base.clone()),
        axis: None,
        axes: Some(vec![SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0, 5.0])]),
        shard: Some("1/2".into()),
        range: None,
        format: None,
    };
    let body = serde_json::to_string(&request).unwrap();
    let mut lines = Vec::new();
    let response = client::post_ndjson(&addr, "/v1/sweep", &body, |line| {
        lines.push(line.to_owned());
        Ok(())
    })
    .unwrap();
    assert_eq!(response.status, 200);

    // Shard 1/2 of 5 points owns the last 2 (balanced split 3 + 2).
    let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0, 5.0]));
    let estimator = EcoChip::new(
        eco_chip::core::EstimatorConfig::builder()
            .techdb(db)
            .build(),
    );
    let all: Vec<String> = SweepEngine::with_jobs(2)
        .run(&estimator, &spec)
        .unwrap()
        .iter()
        .map(|point| serde_json::to_string(point).unwrap())
        .collect();
    assert_eq!(lines, all[3..], "shard 1/2 should stream the last 2 points");

    handle.shutdown().unwrap();
}

#[test]
fn malformed_requests_get_http_errors_not_hangs() {
    let (handle, addr) = boot(default_config());

    // Unknown path → 404 with a JSON error body naming every endpoint.
    let response = client::get(&addr, "/v2/nothing").unwrap();
    assert_eq!(response.status, 404);
    let text = response.text().unwrap();
    assert!(text.contains("\"error\""));
    for endpoint in [
        "/v1/estimate",
        "/v1/sweep",
        "/v1/optimize",
        "/v1/testcases",
        "/v1/healthz",
        "/v1/stats",
        "/v1/trace",
        "/v1/shutdown",
        "/metrics",
    ] {
        assert!(text.contains(&format!(" {endpoint}")), "{endpoint}: {text}");
    }
    // The memo never leaves its process: `/v1/memo` is an unknown path.
    assert!(!text.contains("/v1/memo"), "{text}");
    let response = client::get(&addr, "/v1/memo").unwrap();
    assert_eq!(response.status, 404);
    let response = client::post_json(&addr, "/v1/memo", "{}").unwrap();
    assert_eq!(response.status, 404);

    // Wrong method → 405, on light and heavy routes alike.
    let response = client::post_json(&addr, "/v1/healthz", "{}").unwrap();
    assert_eq!(response.status, 405);
    let response = client::get(&addr, "/v1/sweep").unwrap();
    assert_eq!(response.status, 405);

    // Invalid JSON → 400.
    let response = client::post_json(&addr, "/v1/estimate", "{not json").unwrap();
    assert_eq!(response.status, 400);
    assert!(response.text().unwrap().contains("\"error\""));

    // Unknown testcase → 400.
    let response = client::post_json(&addr, "/v1/estimate", r#"{"testcase":"warp-core"}"#).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.text().unwrap().contains("warp-core"));

    // Neither testcase nor system → 400.
    let response = client::post_json(&addr, "/v1/estimate", "{}").unwrap();
    assert_eq!(response.status, 400);

    // Unknown axis and malformed shard → 400 before any streaming starts.
    for body in [
        r#"{"testcase":"ga102","axis":"temperature"}"#,
        r#"{"testcase":"ga102","axis":"lifetime","shard":"9/2"}"#,
    ] {
        let response = client::post_json(&addr, "/v1/sweep", body).unwrap();
        assert_eq!(response.status, 400, "{body}");
    }

    // A raw protocol violation gets a 400 too.
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    }

    // The server survives all of the above and still answers.
    let health = client::get(&addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);

    // The refusals are filed under the path's route label (three 404s:
    // `/v2/nothing` and both `/v1/memo` requests).
    let metrics = client::get(&addr, "/metrics").unwrap();
    let text = metrics.text().unwrap();
    assert!(
        text.contains(r#"ecochip_http_requests_total{route="sweep",status="405"} 1"#),
        "{text}"
    );
    assert!(
        text.contains(r#"ecochip_http_requests_total{route="other",status="404"} 3"#),
        "{text}"
    );

    handle.shutdown().unwrap();
}

#[test]
fn hostile_bodies_get_400_and_the_server_keeps_serving() {
    // One handler thread: a body that killed it would leave every later
    // heavy request unserved.
    let (handle, addr) = boot(ServeConfig {
        threads: 1,
        ..default_config()
    });

    // 200 KB of `[` once recursed the JSON parser off the end of its stack
    // and aborted the whole server; now the nesting cap refuses it.
    let nested = "[".repeat(200_000);
    for path in ["/v1/estimate", "/v1/sweep"] {
        let response = client::post_json(&addr, path, &nested).unwrap();
        assert_eq!(response.status, 400, "{path}");
        let text = response.text().unwrap();
        assert!(text.contains("nesting deeper than"), "{path}: {text}");
    }

    // A sweep whose case count overflows `usize` (64 two-point axes) is
    // refused before the stream starts, like any other bad slice.
    let request = SweepRequest {
        testcase: Some("ga102".into()),
        system: None,
        axis: None,
        axes: Some(vec![SweepAxis::lifetimes_years(&[1.0, 2.0]); 64]),
        shard: None,
        range: None,
        format: None,
    };
    let body = serde_json::to_string(&request).unwrap();
    let response = client::post_json(&addr, "/v1/sweep", &body).unwrap();
    assert_eq!(response.status, 400);
    assert!(response.text().unwrap().contains("sweep too large"));

    // A digital-chiplet count past the split bound once sized a
    // `Vec::with_capacity` that aborted the process (`1 << 40`) or
    // panicked the handler thread (`1 << 62`). Every count is checked when
    // the request is resolved, so a bad one is a 400 that names it, even
    // behind a good count whose point would otherwise stream first.
    let db = TechDb::default();
    for counts in [vec![0], vec![1, 2000], vec![1 << 40], vec![1 << 62]] {
        let bad = *counts.last().unwrap();
        let request = SweepRequest {
            axis: None,
            axes: Some(vec![SweepAxis::ChipletCounts {
                blocks: ga102::soc_blocks(&db).unwrap(),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts,
            }]),
            ..SweepRequest::named("ga102-3chiplet", "lifetime")
        };
        let body = serde_json::to_string(&request).unwrap();
        let response = client::post_json(&addr, "/v1/sweep", &body).unwrap();
        let text = response.text().unwrap();
        assert_eq!(response.status, 400, "{bad}: {text}");
        let named = match bad {
            0 => "at least one chiplet".to_owned(),
            _ => format!("into {bad} chiplets"),
        };
        assert!(text.contains(&named), "{bad}: {text}");
    }

    // A chiplet retarget past the chiplets some case holds is a 400 at
    // resolve time, not an in-band error after the 200.
    let retarget = |testcase: &str, counts: Option<Vec<usize>>, index: usize| {
        let mut axes: Vec<SweepAxis> = counts
            .into_iter()
            .map(|counts| SweepAxis::ChipletCounts {
                blocks: ga102::soc_blocks(&db).unwrap(),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts,
            })
            .collect();
        axes.push(SweepAxis::ChipletNode {
            index,
            nodes: vec![TechNode::N7, TechNode::N10],
        });
        let request = SweepRequest {
            axis: None,
            axes: Some(axes),
            ..SweepRequest::named(testcase, "lifetime")
        };
        serde_json::to_string(&request).unwrap()
    };
    for (body, named) in [
        (retarget("ga102", None, 1), "retargets chiplet 1"),
        (
            retarget("ga102", Some(vec![1, 4]), 3),
            "retargets chiplet 3",
        ),
    ] {
        let response = client::post_json(&addr, "/v1/sweep", &body).unwrap();
        let text = response.text().unwrap();
        assert_eq!(response.status, 400, "{named}: {text}");
        assert!(text.contains(named), "{text}");
    }
    let mut lines = 0;
    let response = client::post_ndjson(
        &addr,
        "/v1/sweep",
        &retarget("ga102", Some(vec![1, 4]), 2),
        |_line| {
            lines += 1;
            Ok(())
        },
    )
    .unwrap();
    assert_eq!((response.status, lines), (200, 4));

    // A system whose inputs leave their physical ranges is a 400 that
    // names the field, estimated or swept; in a batch only its own item
    // becomes an error object.
    let a15 = catalog::build(&db, "a15").unwrap();
    type Edit = fn(&mut System);
    let non_physical: [(&str, Edit); 7] = [
        ("lifetime must be finite and > 0, got -5", |s| {
            s.lifetime = TimeSpan::from_hours(-5.0)
        }),
        ("volumes.chiplet_volume must be ≥ 1, got 0", |s| {
            s.volumes.chiplet_volume = 0
        }),
        ("volumes.system_volume must be ≥ 1, got 0", |s| {
            s.volumes.system_volume = 0
        }),
        ("usage.charger_efficiency must be in (0, 1], got 0", |s| {
            if let UsageProfile::Battery {
                charger_efficiency, ..
            } = &mut s.usage
            {
                *charger_efficiency = 0.0;
            }
        }),
        ("usage.battery_wh must be finite and ≥ 0, got -5", |s| {
            if let UsageProfile::Battery { battery_wh, .. } = &mut s.usage {
                *battery_wh = -5.0;
            }
        }),
        ("chiplets: a system needs at least one chiplet", |s| {
            s.chiplets.clear()
        }),
        ("chiplets[0].size must be finite and > 0, got -10", |s| {
            s.chiplets[0].size = ChipletSize::AreaAtNode {
                area: Area::from_mm2(-10.0),
                node: TechNode::N5,
            }
        }),
    ];
    let good = r#"{"testcase":"a15"}"#;
    for (named, edit) in non_physical {
        let mut system = a15.clone();
        edit(&mut system);
        let system = serde_json::to_string(&system).unwrap();
        let bad = format!(r#"{{"system":{system}}}"#);
        let swept = format!(r#"{{"system":{system},"axis":"lifetime"}}"#);
        for (path, body) in [("/v1/estimate", &bad), ("/v1/sweep", &swept)] {
            let response = client::post_json(&addr, path, body).unwrap();
            let text = response.text().unwrap();
            assert_eq!(response.status, 400, "{path} {named}: {text}");
            assert!(text.contains(named), "{path}: {text}");
        }
        let batch = format!("[{good},{bad},{good}]");
        let response = client::post_json(&addr, "/v1/estimate", &batch).unwrap();
        assert_eq!(response.status, 200, "{named}");
        let items: Vec<BatchEstimateItem> = serde_json::from_str(response.text().unwrap()).unwrap();
        match &items[..] {
            [BatchEstimateItem::Ok(_), BatchEstimateItem::Err(refused), BatchEstimateItem::Ok(_)] =>
            {
                assert!(refused.error.contains(named), "{}", refused.error)
            }
            other => panic!("{named}: {other:?}"),
        }
    }

    // So are sweep axis values out of range, and a retarget ahead of an
    // axis that replaces the chiplets (that axis would overwrite it).
    let overwritten = SweepRequest {
        axis: None,
        axes: Some(vec![
            SweepAxis::ChipletNode {
                index: 0,
                nodes: vec![TechNode::N7],
            },
            SweepAxis::NodeTuples {
                blocks: ga102::soc_blocks(&db).unwrap(),
                tuples: vec![NodeTuple::uniform(TechNode::N7)],
            },
        ]),
        ..SweepRequest::named("ga102", "lifetime")
    };
    for (body, named) in [
        (
            r#"{"testcase":"ga102","axes":[{"Lifetimes":[-1.0]}]}"#.to_owned(),
            "axes[0].Lifetimes[0] must be finite and > 0, got -1",
        ),
        (
            r#"{"testcase":"ga102","axes":[{"Volumes":[{"chiplet_volume":0,"system_volume":0}]}]}"#
                .to_owned(),
            "axes[0].Volumes[0].chiplet_volume must be ≥ 1, got 0",
        ),
        (
            r#"{"testcase":"ga102","axes":[{"FabEnergySources":[{"custom":-50}]}]}"#.to_owned(),
            "axes[0].FabEnergySources[0].custom must be in [11, 700] gCO2e/kWh, got -50",
        ),
        (
            r#"{"testcase":"ga102","axes":[{"FabEnergySources":["wind",{"custom":5000}]}]}"#
                .to_owned(),
            "axes[0].FabEnergySources[1].custom must be in [11, 700] gCO2e/kWh, got 5000",
        ),
        (
            r#"{"testcase":"ga102-3chiplet","axes":[{"Packaging":[{"type":"rdl_fanout","tech":65,"layers":4},{"type":"rdl_fanout","tech":65,"layers":0}]},{"Lifetimes":[8760.0,17520.0]}]}"#
                .to_owned(),
            "axes[0].Packaging[1]: invalid value 0 for rdl_layers",
        ),
        (
            serde_json::to_string(&overwritten).unwrap(),
            "axes[0] (ChipletNode) must come after axes[1]",
        ),
    ] {
        let response = client::post_json(&addr, "/v1/sweep", &body).unwrap();
        let text = response.text().unwrap();
        assert_eq!(response.status, 400, "{named}: {text}");
        assert!(text.contains(named), "{text}");
    }

    // `/v1/healthz` is answered on the event loop; a real sweep proves the
    // handler pool survived too.
    let health = client::get(&addr, "/v1/healthz").unwrap();
    assert_eq!(health.status, 200);
    let mut lines = Vec::new();
    let response = client::post_ndjson(
        &addr,
        "/v1/sweep",
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
        |line| {
            lines.push(line.to_owned());
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(lines, reference_lines("ga102-3chiplet", "lifetime"));

    handle.shutdown().unwrap();
}

#[test]
fn concurrent_clients_all_get_exact_results() {
    let (handle, addr) = boot(default_config());
    let expected = reference_lines("ga102-3chiplet", "lifetime");

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = &addr;
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..2 {
                    let mut lines = Vec::new();
                    let response = client::post_ndjson(
                        addr,
                        "/v1/sweep",
                        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
                        |line| {
                            lines.push(line.to_owned());
                            Ok(())
                        },
                    )
                    .unwrap();
                    assert_eq!(response.status, 200);
                    assert_eq!(&lines, expected);

                    let response =
                        client::post_json(addr, "/v1/estimate", r#"{"testcase":"a15"}"#).unwrap();
                    assert_eq!(response.status, 200);
                }
            });
        }
    });

    // Eight sweeps of 7 points each were streamed.
    let stats = client::get(&addr, "/v1/stats").unwrap();
    let stats: eco_chip::serve::StatsResponse =
        serde_json::from_str(stats.text().unwrap()).unwrap();
    assert_eq!(stats.points_streamed, 8 * 7);
    assert!(stats.requests >= 17);

    handle.shutdown().unwrap();
}

#[test]
fn http_shutdown_is_graceful() {
    let (handle, addr) = boot(default_config());

    let response = client::post_json(&addr, "/v1/estimate", r#"{"testcase":"ga102"}"#).unwrap();
    assert_eq!(response.status, 200);

    let response = client::post_json(&addr, "/v1/shutdown", "").unwrap();
    assert_eq!(response.status, 200);
    assert!(response.text().unwrap().contains("shutting down"));
    // The server exits on its own after the HTTP shutdown.
    wait_until_closed(&addr);
    handle.shutdown().unwrap();
}

/// Wait until nothing accepts connections on `addr` any more: the server
/// loop has returned and dropped its listener.
fn wait_until_closed(addr: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(
            std::time::Instant::now() < deadline,
            "{addr} still accepts connections"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Extract the value of a (label-free) metric from Prometheus text format.
fn metric_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        .parse()
        .unwrap()
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let (handle, addr) = boot(default_config());

    let mut connection = client::Connection::open(&addr).unwrap();
    for _ in 0..3 {
        let health = connection.get("/v1/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.header("connection"), Some("keep-alive"));

        let estimate = connection
            .post_json("/v1/estimate", r#"{"testcase":"ga102"}"#)
            .unwrap();
        assert_eq!(estimate.status, 200);

        // Chunked NDJSON streams ride the same reused socket: the terminal
        // chunk delimits the body, so the connection stays usable.
        let mut lines = 0usize;
        let sweep = connection
            .post_ndjson(
                "/v1/sweep",
                r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
                |_line| {
                    lines += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(sweep.status, 200);
        assert_eq!(lines, 7);
    }

    // Nine requests plus this scrape rode exactly one TCP connection.
    let metrics = connection.get("/metrics").unwrap();
    let text = metrics.text().unwrap();
    assert_eq!(metric_value(text, "ecochip_http_connections_total"), 1.0);
    assert!(
        text.contains("ecochip_http_requests_total{route=\"sweep\",status=\"200\"} 3"),
        "{text}"
    );

    handle.shutdown().unwrap();
}

#[test]
fn connection_close_and_request_bounds_are_honored() {
    let (handle, addr) = boot(ServeConfig {
        max_requests_per_connection: 2,
        ..default_config()
    });

    // An explicit `Connection: close` is honored: the server answers and
    // closes (read_to_string returning proves the EOF).
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
    }

    // The requests-per-connection bound: the second response on a
    // keep-alive socket announces the close, and the client transparently
    // reconnects for the third request.
    let mut connection = client::Connection::open(&addr).unwrap();
    let first = connection.get("/v1/healthz").unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    let second = connection.get("/v1/healthz").unwrap();
    assert_eq!(second.header("connection"), Some("close"));
    let third = connection.get("/v1/healthz").unwrap();
    assert_eq!(third.status, 200);

    handle.shutdown().unwrap();
}

#[test]
fn conflicting_content_lengths_get_one_400_and_a_close() {
    use std::io::{Read, Write};
    let (handle, addr) = boot(default_config());

    // A 20-byte estimate body announced as both 20 and 5 bytes, then a
    // pipelined health check. Honouring either length would frame the
    // health check differently from a peer that honoured the other, so
    // the server refuses the message and closes instead of reading on.
    let body = r#"{"testcase":"ga102"}"#;
    assert_eq!(body.len(), 20);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 20\r\n\
                 Content-Length: 5\r\n\r\n{body}GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(
        response.contains("conflicting Content-Length"),
        "{response}"
    );
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");

    // Repeats of one length frame the body the same either way.
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 20\r\n\
                 Content-Length: 20\r\nConnection: close\r\n\r\n{body}"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");

    handle.shutdown().unwrap();
}

#[test]
fn idle_keep_alive_connections_are_dropped_and_clients_recover() {
    let (handle, addr) = boot(ServeConfig {
        idle_timeout: std::time::Duration::from_millis(200),
        ..default_config()
    });

    // A raw socket that goes idle after one response is closed by the
    // server within the idle timeout (read_to_string returns on EOF; the
    // 5s socket timeout would error instead if the server never closed).
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let started = std::time::Instant::now();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(3),
            "idle connection was not dropped promptly: {:?}",
            started.elapsed()
        );
    }

    // A Connection whose socket the server idle-dropped reconnects
    // transparently on the next request.
    let mut connection = client::Connection::open(&addr).unwrap();
    assert_eq!(connection.get("/v1/healthz").unwrap().status, 200);
    std::thread::sleep(std::time::Duration::from_millis(600));
    let after_idle = connection.get("/v1/healthz").unwrap();
    assert_eq!(after_idle.status, 200);

    // Both raw + client sockets plus the reconnect: three connections
    // total, visible in the metrics.
    let metrics = connection.get("/metrics").unwrap();
    assert_eq!(
        metric_value(metrics.text().unwrap(), "ecochip_http_connections_total"),
        3.0
    );

    handle.shutdown().unwrap();
}

#[test]
fn metrics_serve_valid_prometheus_text_over_keep_alive() {
    let (handle, addr) = boot(default_config());

    let mut connection = client::Connection::open(&addr).unwrap();
    // Populate a few counters and histograms first.
    connection
        .post_json("/v1/estimate", r#"{"testcase":"ga102"}"#)
        .unwrap();
    connection.get("/v1/nope").unwrap();

    let first = connection.get("/metrics").unwrap();
    assert_eq!(first.status, 200);
    assert!(first
        .header("content-type")
        .is_some_and(|value| value.starts_with("text/plain")));
    let second = connection.get("/metrics").unwrap();
    let text = second.text().unwrap();

    // Every line is a HELP/TYPE comment or a `name{labels} value` sample.
    assert!(text.lines().count() > 20, "{text}");
    for line in text.lines() {
        assert!(
            eco_chip::serve::metrics::is_valid_metrics_line(line),
            "invalid Prometheus line: {line}"
        );
    }
    // The second scrape observed the first one, both on one connection.
    assert!(
        text.contains("ecochip_http_requests_total{route=\"metrics\",status=\"200\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("ecochip_http_requests_total{route=\"other\",status=\"404\"} 1"),
        "{text}"
    );
    assert!(
        text.contains(
            "ecochip_http_request_duration_seconds_bucket{route=\"estimate\",le=\"+Inf\"} 1"
        ),
        "{text}"
    );
    assert_eq!(metric_value(text, "ecochip_http_connections_total"), 1.0);
    assert_eq!(metric_value(text, "ecochip_estimates_total"), 1.0);

    handle.shutdown().unwrap();
}

/// The estimate and sweep-point counters count what was served: good batch
/// items, every streamed point of a full or ranged sweep, and no search.
#[test]
fn metrics_count_estimates_and_sweep_points() {
    let (handle, addr) = boot(default_config());
    let mut connection = client::Connection::open(&addr).unwrap();
    let scrape = |connection: &mut client::Connection| {
        let metrics = connection.get("/metrics").unwrap();
        let text = metrics.text().unwrap();
        (
            metric_value(text, "ecochip_estimates_total"),
            metric_value(text, "ecochip_sweep_points_total"),
        )
    };
    assert_eq!(scrape(&mut connection), (0.0, 0.0));

    // A single estimate counts once; a batch counts its good items only.
    let single = connection
        .post_json("/v1/estimate", r#"{"testcase":"ga102"}"#)
        .unwrap();
    assert_eq!(single.status, 200);
    let batch = connection
        .post_json(
            "/v1/estimate",
            r#"[{"testcase":"ga102"},{"testcase":"bogus"},{"testcase":"a15"}]"#,
        )
        .unwrap();
    assert_eq!(batch.status, 200);
    assert_eq!(scrape(&mut connection), (3.0, 0.0));

    // A sweep counts every point it streamed, as `/v1/stats` does; a ranged
    // sweep counts only its range, which is the exact slice of the full run.
    let sweep = |connection: &mut client::Connection, body: &str| {
        let mut lines = Vec::new();
        let response = connection
            .post_ndjson("/v1/sweep", body, |line| {
                lines.push(line.to_owned());
                Ok(())
            })
            .unwrap();
        assert_eq!(response.status, 200);
        lines
    };
    let full = sweep(
        &mut connection,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
    );
    assert_eq!(full.len(), 7);
    assert_eq!(scrape(&mut connection), (3.0, 7.0));
    let tail = sweep(
        &mut connection,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","range":{"start":1,"end":3}}"#,
    );
    assert_eq!(tail, full[1..3]);
    let again = sweep(
        &mut connection,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
    );
    assert_eq!(again, full);
    assert_eq!(scrape(&mut connection), (3.0, (7 + 2 + 7) as f64));
    let stats = connection.get("/v1/stats").unwrap();
    let stats: eco_chip::serve::StatsResponse =
        serde_json::from_str(stats.text().unwrap()).unwrap();
    assert_eq!(stats.points_streamed, 7 + 2 + 7);

    // A search evaluates points but counts as neither.
    let response = connection
        .post_ndjson(
            "/v1/optimize",
            r#"{"testcase":"ga102-3chiplet","axis":"lifetime","method":"anneal","budget":8,"seed":1}"#,
            |_| Ok(()),
        )
        .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(scrape(&mut connection), (3.0, (7 + 2 + 7) as f64));

    handle.shutdown().unwrap();
}

#[test]
fn shutdown_mid_sweep_drains_the_stream() {
    use eco_chip::core::ChipletSize;

    let (handle, addr) = boot(default_config());

    // A sweep whose every point computes fresh stage results: 40 system
    // variants with distinct chiplet sizes (distinct outlines → distinct
    // floorplans and manufacturing results).
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").unwrap();
    let variants: Vec<(String, eco_chip::core::System)> = (0..40)
        .map(|index| {
            let mut system = base.clone();
            system.chiplets[0].size = ChipletSize::Transistors(1.0e9 * (index + 2) as f64);
            (format!("v{index}"), system)
        })
        .collect();
    let request = SweepRequest {
        testcase: Some("ga102-3chiplet".into()),
        system: None,
        axis: None,
        axes: Some(vec![SweepAxis::Systems(variants)]),
        shard: None,
        range: None,
        format: None,
    };
    let body = serde_json::to_string(&request).unwrap();

    // Stream the sweep; as soon as the first line arrives, another client
    // posts the shutdown — the in-flight stream must still drain fully.
    let mut lines = 0usize;
    let shutdown_sent = std::cell::Cell::new(false);
    let response = client::post_ndjson(&addr, "/v1/sweep", &body, |line| {
        assert!(
            !line.starts_with("{\"error\""),
            "in-band stream error: {line}"
        );
        lines += 1;
        if !shutdown_sent.replace(true) {
            let response = client::post_json(&addr, "/v1/shutdown", "").unwrap();
            assert_eq!(response.status, 200);
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(lines, 40, "shutdown must drain the in-flight stream");

    // The server exits on its own once the stream has drained.
    wait_until_closed(&addr);
    handle.shutdown().unwrap();
}

#[test]
fn remote_orchestration_merges_two_servers_to_the_unsharded_stream() {
    let (first, first_addr) = boot(default_config());
    let (second, second_addr) = boot(default_config());

    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    let reference = orchestrator::unsharded_outcome(&db, &request, Some(2)).unwrap();

    let pool = WorkerPool::Remote(vec![format!("http://{first_addr}"), second_addr.clone()]);
    let mut lines = Vec::new();
    let outcome =
        orchestrator::orchestrate_with(&db, &request, &pool, &FailoverPolicy::none(), |line| {
            lines.push(line.to_owned());
            Ok(())
        })
        .unwrap();
    assert_eq!(outcome, reference, "remote merge diverged");
    assert_eq!(lines, reference_lines("ga102-3chiplet", "lifetime"));

    // A local orchestration of the same request produces the same stream.
    let mut local_lines = Vec::new();
    let local = orchestrator::orchestrate_with(
        &db,
        &request,
        &WorkerPool::Local {
            workers: 2,
            jobs: Some(2),
        },
        &FailoverPolicy::none(),
        |line| {
            local_lines.push(line.to_owned());
            Ok(())
        },
    )
    .unwrap();
    assert_eq!(local, outcome);
    assert_eq!(local_lines, lines);

    // Local and remote pools agree line for line on every named sweep axis
    // the paper's design-space figures use...
    let pools = [
        WorkerPool::Local {
            workers: 2,
            jobs: Some(2),
        },
        pool.clone(),
    ];
    for axis in ["lifetime", "nodes", "packaging"] {
        let request = SweepRequest::named("ga102-3chiplet", axis);
        let [local, remote] = pools.each_ref().map(|pool| {
            let mut lines = Vec::new();
            orchestrator::orchestrate_with(&db, &request, pool, &FailoverPolicy::none(), |line| {
                lines.push(line.to_owned());
                Ok(())
            })
            .unwrap();
            lines
        });
        assert_eq!(local, reference_lines("ga102-3chiplet", axis), "{axis}");
        assert_eq!(local, remote, "{axis}");
    }
    // ...and on seeded island searches, rounds and frontier exchange
    // included.
    for (method, rounds) in [("pareto", 1), ("anneal", 3), ("genetic", 2)] {
        let mut request = OptimizeRequest::named("ga102-3chiplet", "nodes");
        request.method = Some(method.into());
        request.budget = Some(7);
        request.seed = Some(42);
        let [local, remote] = pools.each_ref().map(|pool| {
            let mut lines = Vec::new();
            orchestrator::orchestrate_optimize(
                &db,
                &request,
                pool,
                &FailoverPolicy::none(),
                rounds,
                |line| {
                    lines.push(line.to_owned());
                    Ok(())
                },
            )
            .unwrap();
            lines
        });
        assert!(
            local.last().unwrap().starts_with("{\"event\":\"done\""),
            "{method}"
        );
        assert_eq!(local, remote, "{method}");
    }

    // A failing remote pool surfaces a worker error: point one URL at a
    // dead port.
    let dead = {
        // Bind-then-drop reserves an address nothing listens on.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let broken = WorkerPool::Remote(vec![first_addr.clone(), dead]);
    let result =
        orchestrator::orchestrate_with(&db, &request, &broken, &FailoverPolicy::none(), |_| Ok(()));
    assert!(result.is_err(), "dead worker must fail the orchestration");

    first.shutdown().unwrap();
    second.shutdown().unwrap();
}

#[test]
fn pipelined_requests_return_in_order_byte_identical_responses() {
    use std::io::{Read, Write};
    let (handle, addr) = boot(default_config());

    // Raw-socket pipelining: three requests go out in one write; three
    // responses come back on one connection, in request order.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let body = br#"{"testcase":"ga102"}"#;
        let mut batch = Vec::new();
        batch.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        batch.extend_from_slice(
            format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        batch.extend_from_slice(body);
        batch.extend_from_slice(
            b"GET /v1/testcases HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        stream.write_all(&batch).unwrap();
        let mut wire = String::new();
        stream.read_to_string(&mut wire).unwrap();
        assert_eq!(wire.matches("HTTP/1.1 200").count(), 3, "{wire}");
        let healthz_at = wire.find("\"status\":\"ok\"").expect("healthz body");
        let estimate_at = wire.find("\"embodied_fraction\"").expect("estimate body");
        let testcases_at = wire.find("\"testcases\"").expect("testcases body");
        assert!(
            healthz_at < estimate_at && estimate_at < testcases_at,
            "responses out of request order:\n{wire}"
        );
    }

    // A heavy (pool-dispatched, chunked) request pipelined between two
    // light ones keeps the ordering: the loop holds the sweep back until
    // the first response is flushed, and serves the trailing request from
    // the connection's buffer after the pool hands the socket back.
    {
        let sweep = br#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#;
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut batch = Vec::new();
        batch.extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        batch.extend_from_slice(
            format!(
                "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                sweep.len()
            )
            .as_bytes(),
        );
        batch.extend_from_slice(sweep);
        batch
            .extend_from_slice(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(&batch).unwrap();
        let mut wire = String::new();
        stream.read_to_string(&mut wire).unwrap();
        assert_eq!(wire.matches("HTTP/1.1 200").count(), 3, "{wire}");
        let first_light = wire.find("\"status\":\"ok\"").expect("first healthz");
        let chunked_at = wire
            .find("Transfer-Encoding: chunked")
            .expect("sweep stream");
        let last_light = wire.rfind("\"status\":\"ok\"").expect("second healthz");
        assert!(
            first_light < chunked_at && chunked_at < last_light,
            "heavy/light pipeline out of order:\n{wire}"
        );
    }

    // The pipelined client helper: N estimates written before any read are
    // byte-identical to the same estimates issued sequentially.
    let bodies: Vec<String> = ["ga102", "a15", "emr", "ga102-3chiplet"]
        .iter()
        .map(|testcase| format!(r#"{{"testcase":"{testcase}"}}"#))
        .collect();
    let mut sequential = client::Connection::open(&addr).unwrap();
    let expected: Vec<_> = bodies
        .iter()
        .map(|body| sequential.post_json("/v1/estimate", body).unwrap())
        .collect();
    let mut pipelined = client::Connection::open(&addr).unwrap();
    let responses = pipelined
        .post_json_pipelined("/v1/estimate", &bodies)
        .unwrap();
    assert_eq!(responses.len(), expected.len());
    // Each response carries its own minted trace ID, so compare headers
    // with the per-request `X-Ecochip-Trace` value masked out.
    let sans_trace = |headers: &[(String, String)]| -> Vec<(String, String)> {
        headers
            .iter()
            .filter(|(name, _)| name != "x-ecochip-trace")
            .cloned()
            .collect()
    };
    for (response, reference) in responses.iter().zip(&expected) {
        assert_eq!(response.status, 200);
        assert_eq!(
            sans_trace(&response.headers),
            sans_trace(&reference.headers)
        );
        assert!(
            response
                .headers
                .iter()
                .any(|(name, _)| name == "x-ecochip-trace"),
            "pipelined response lost its trace header"
        );
        assert_eq!(
            response.body, reference.body,
            "pipelined response diverged from the sequential bytes"
        );
    }
    // The connection stays usable after the pipeline.
    assert_eq!(pipelined.get("/v1/healthz").unwrap().status, 200);

    handle.shutdown().unwrap();
}

#[test]
fn slow_loris_partial_headers_are_cut_off_at_the_idle_timeout() {
    use std::io::{Read, Write};
    let (handle, addr) = boot(ServeConfig {
        idle_timeout: std::time::Duration::from_millis(300),
        ..default_config()
    });

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    stream.write_all(b"GET /v1/healthz HT").unwrap();
    let started = std::time::Instant::now();

    // Keep dripping header bytes: activity alone must not reprieve a
    // request that never completes its head.
    let dripper = {
        let mut writer = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for _ in 0..100 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                if writer.write_all(b"x").is_err() {
                    break; // the server cut us off
                }
            }
        })
    };

    // EOF (or a reset once the drip races the close) well before the drip
    // would end on its own — the 300ms partial-head deadline fired.
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(4),
        "slow-loris connection survived {:?}",
        started.elapsed()
    );
    dripper.join().unwrap();

    // The server itself is unharmed.
    assert_eq!(client::get(&addr, "/v1/healthz").unwrap().status, 200);
    handle.shutdown().unwrap();
}

/// Start a sweep whose response far exceeds what the kernel will buffer,
/// and wait until it is checked out to the handler pool (the active
/// gauge): the pool thread then blocks writing until the returned socket
/// is read, deterministically pinning one in-flight slot.
fn hog_the_handler_pool(addr: &str) -> std::net::TcpStream {
    use std::io::Write;
    let lifetimes: Vec<f64> = (1..=20_000).map(|i| 1.0 + f64::from(i) * 0.001).collect();
    let request = SweepRequest {
        testcase: Some("ga102".into()),
        system: None,
        axis: None,
        axes: Some(vec![SweepAxis::lifetimes_years(&lifetimes)]),
        shard: None,
        range: None,
        format: None,
    };
    let body = serde_json::to_string(&request).unwrap();
    let mut hog = std::net::TcpStream::connect(addr).unwrap();
    hog.write_all(
        format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();

    let mut active = 0.0;
    for _ in 0..500 {
        let metrics = client::get(addr, "/metrics").unwrap();
        active = metric_value(
            metrics.text().unwrap(),
            "ecochip_http_connections_open{state=\"active\"}",
        );
        if active >= 1.0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(active, 1.0, "sweep never reached the handler pool");
    hog
}

#[test]
fn saturated_inflight_limit_yields_429_with_retry_after() {
    use std::io::Read;
    let (handle, addr) = boot(ServeConfig {
        max_inflight: 1,
        threads: 2,
        ..default_config()
    });

    let mut hog = hog_the_handler_pool(&addr);

    // Heavy requests now bounce: 429, Retry-After, connection preserved.
    let mut connection = client::Connection::open(&addr).unwrap();
    let refused = connection
        .post_json("/v1/sweep", r#"{"testcase":"ga102","axis":"lifetime"}"#)
        .unwrap();
    assert_eq!(refused.status, 429, "{:?}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(refused.header("connection"), Some("keep-alive"));
    let error = refused.text().unwrap();
    assert!(error.contains("in-flight"), "{error}");

    // Light traffic keeps flowing on the same connection, and the refusal
    // shows up in the rejection counter.
    assert_eq!(connection.get("/v1/healthz").unwrap().status, 200);
    let metrics = connection.get("/metrics").unwrap();
    assert!(
        metric_value(
            metrics.text().unwrap(),
            "ecochip_http_rejected_total{reason=\"max_inflight\"}",
        ) >= 1.0
    );

    // Drain the hog; the slot frees and heavy requests are admitted again.
    let mut sink = Vec::new();
    hog.read_to_end(&mut sink).unwrap();
    assert!(!sink.is_empty());
    drop(hog);
    let mut admitted = 0;
    for _ in 0..500 {
        admitted = connection
            .post_json("/v1/sweep", r#"{"testcase":"ga102","axis":"lifetime"}"#)
            .unwrap()
            .status;
        if admitted == 200 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(admitted, 200, "in-flight slot never freed");

    handle.shutdown().unwrap();
}

#[test]
fn a_pool_answered_response_read_in_full_frees_its_inflight_slot() {
    // At `max_inflight: 1`, a heavy request sent the moment the previous
    // pool-answered response has been read in full must be admitted: the
    // handler gives its slot back before its final write, not when the
    // event loop later reclaims the connection. The pool-answered request
    // alternates between a streamed sweep and a batch one byte past what
    // the loop answers inline.
    const READ_CHUNK: usize = 16 * 1024;
    let (handle, addr) = boot(ServeConfig {
        max_inflight: 1,
        threads: 2,
        ..default_config()
    });
    let sweep = r#"{"testcase":"ga102","axis":"lifetime"}"#;
    let items = r#"{"testcase":"ga102"},{"testcase":"a15"}"#;
    let batch = format!("[{}{items}]", " ".repeat(READ_CHUNK + 1 - items.len() - 2));
    assert_eq!(batch.len(), READ_CHUNK + 1);
    let mut first = client::Connection::open(&addr).unwrap();
    let mut second = client::Connection::open(&addr).unwrap();
    for attempt in 0..100 {
        let (path, body) = if attempt % 2 == 0 {
            ("/v1/sweep", sweep)
        } else {
            ("/v1/estimate", batch.as_str())
        };
        let answered = first.post_json(path, body).unwrap();
        assert_eq!(
            answered.status,
            200,
            "attempt {attempt}: {:?}",
            answered.text()
        );
        let next = second.post_json("/v1/sweep", sweep).unwrap();
        assert_eq!(next.status, 200, "attempt {attempt}: {:?}", next.text());
    }
    handle.shutdown().unwrap();
}

#[test]
fn batches_up_to_one_read_are_answered_inline_and_larger_ones_on_the_pool() {
    use std::io::Read;
    // The event loop's read size: the largest batch body it answers inline.
    const READ_CHUNK: usize = 16 * 1024;
    let (handle, addr) = boot(ServeConfig {
        max_inflight: 1,
        threads: 2,
        ..default_config()
    });
    let db = TechDb::default();
    let item = format!(
        r#"{{"system":{}}}"#,
        serde_json::to_string(&catalog::build(&db, "a15-3chiplet").unwrap()).unwrap()
    );
    let mut connection = client::Connection::open(&addr).unwrap();
    let single = connection.post_json("/v1/estimate", &item).unwrap();
    assert_eq!(single.status, 200, "{:?}", single.text());
    let single = single.text().unwrap().trim_end_matches('\n').to_owned();

    // As many items as fit one read, padded with whitespace to exactly
    // `READ_CHUNK` bytes, and the same batch one byte longer.
    let items = (READ_CHUNK - 2) / (item.len() + 1);
    let batch = |len: usize| {
        let array = vec![item.as_str(); items].join(",");
        format!("[{}{array}]", " ".repeat(len - array.len() - 2))
    };
    let (small, large) = (batch(READ_CHUNK), batch(READ_CHUNK + 1));
    assert_eq!((small.len(), large.len()), (READ_CHUNK, READ_CHUNK + 1));
    let expected = format!("[{}]\n", vec![single.as_str(); items].join(","));

    // With the only in-flight slot taken, the small batch is still
    // answered (on the loop) and the large one is refused like any heavy
    // request.
    let mut hog = hog_the_handler_pool(&addr);
    let response = connection.post_json("/v1/estimate", &small).unwrap();
    assert_eq!(response.status, 200, "{:?}", response.text());
    assert_eq!(response.text().unwrap(), expected);
    let refused = connection.post_json("/v1/estimate", &large).unwrap();
    assert_eq!(refused.status, 429, "{:?}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));

    // Once the hog drains and its slot frees, the pool answers the large
    // batch with the same bytes.
    let mut sink = Vec::new();
    hog.read_to_end(&mut sink).unwrap();
    drop(hog);
    let mut answered = None;
    for _ in 0..500 {
        let response = connection.post_json("/v1/estimate", &large).unwrap();
        if response.status != 429 {
            answered = Some(response);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let response = answered.expect("in-flight slot never freed");
    assert_eq!(response.status, 200, "{:?}", response.text());
    assert_eq!(response.text().unwrap(), expected);
    handle.shutdown().unwrap();
}

#[test]
fn a_deep_pipeline_in_one_write_is_answered_in_order() {
    use std::io::{BufRead, Read, Write};
    const REQUESTS: usize = 2_000;
    let (handle, addr) = boot(ServeConfig {
        max_requests_per_connection: REQUESTS + 1,
        ..default_config()
    });
    let names = catalog::names();
    let bodies: Vec<String> = names
        .iter()
        .map(|name| format!(r#"{{"testcase":"{name}"}}"#))
        .collect();
    let mut connection = client::Connection::open(&addr).unwrap();
    let expected: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| connection.post_json("/v1/estimate", body).unwrap().body)
        .collect();

    // Every request of the pipeline cycles through the test cases, so an
    // answer out of order shows as the wrong body. A thread writes while
    // this one reads: the server stops reading while its answers back up.
    let mut wire = Vec::new();
    for at in 0..REQUESTS {
        let body = &bodies[at % bodies.len()];
        wire.extend_from_slice(
            format!(
                "POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
    }
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let writing = std::thread::spawn(move || writer.write_all(&wire));
    let mut reader = std::io::BufReader::new(stream);
    for at in 0..REQUESTS {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(!line.is_empty(), "connection closed after {at} answers");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        assert!(
            head.starts_with("HTTP/1.1 200 OK\r\n"),
            "answer {at}: {head}"
        );
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("Content-Length: "))
            .expect("Content-Length")
            .parse()
            .unwrap();
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        assert!(
            body == expected[at % expected.len()],
            "answer {at} is not the answer to request {at}"
        );
    }
    writing.join().unwrap().unwrap();
    handle.shutdown().unwrap();
}

#[test]
fn connection_limit_refuses_with_429_and_recovers() {
    let (handle, addr) = boot(ServeConfig {
        max_connections: 1,
        ..default_config()
    });

    // Park one connection: the limit is reached.
    let mut held = client::Connection::open(&addr).unwrap();
    assert_eq!(held.get("/v1/healthz").unwrap().status, 200);

    // The next connection is refused at accept time — whatever it asks.
    let refused = client::get(&addr, "/v1/healthz").unwrap();
    assert_eq!(refused.status, 429, "{:?}", refused.text());
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert_eq!(refused.header("connection"), Some("close"));
    let error = refused.text().unwrap();
    assert!(error.contains("connection limit"), "{error}");

    // Releasing the held connection frees the slot.
    drop(held);
    let mut status = 0;
    for _ in 0..200 {
        if let Ok(response) = client::get(&addr, "/v1/healthz") {
            status = response.status;
            if status == 200 {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(status, 200, "connection slot never freed");

    handle.shutdown().unwrap();
}

#[test]
fn thousands_of_idle_connections_park_cheaply_and_drain_on_shutdown() {
    use std::io::Read;
    let (soft, _) = eco_chip::serve::poll::nofile_limit().expect("fd limit");
    // Each held connection costs two descriptors in this process (client
    // and server end live in the same test binary); leave slack for the
    // harness, the suite's other servers, and the poller itself.
    let flood = ((soft as usize).saturating_sub(1500) / 2).min(10_000);
    if flood < 1_000 {
        eprintln!("skipping connection-flood test: fd limit {soft} leaves no room");
        return;
    }

    let (handle, addr) = boot(ServeConfig {
        idle_timeout: std::time::Duration::from_secs(120),
        ..default_config()
    });
    let mut held = Vec::with_capacity(flood);
    for _ in 0..flood {
        held.push(std::net::TcpStream::connect(&addr).unwrap());
    }

    // Wait until the event loop has accepted and parked the whole flood.
    let mut idle = 0.0;
    for _ in 0..1_000 {
        let metrics = client::get(&addr, "/metrics").unwrap();
        idle = metric_value(
            metrics.text().unwrap(),
            "ecochip_http_connections_open{state=\"idle\"}",
        );
        if idle >= flood as f64 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(
        idle >= flood as f64,
        "only {idle} of {flood} connections parked"
    );

    // The server still answers promptly with the flood parked.
    let started = std::time::Instant::now();
    let response = client::post_json(&addr, "/v1/estimate", r#"{"testcase":"ga102"}"#).unwrap();
    assert_eq!(response.status, 200);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "estimate under idle load took {:?}",
        started.elapsed()
    );

    // Shutdown drains the whole flood promptly: the server thread joins
    // and every held socket sees EOF.
    let started = std::time::Instant::now();
    handle.shutdown().unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "drain of {flood} idle connections took {:?}",
        started.elapsed()
    );
    for stream in held.iter_mut().take(32) {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            stream.read(&mut buf).unwrap_or(0),
            0,
            "idle socket not drained"
        );
    }
}

/// Items per second of one run of `shape`, which returns how many items
/// it served.
fn rate(shape: &mut dyn FnMut() -> usize) -> f64 {
    let started = std::time::Instant::now();
    let items = shape();
    items as f64 / started.elapsed().as_secs_f64()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing test: release only")]
fn batch_pipelined_and_framed_shapes_beat_their_one_at_a_time_forms() {
    let (handle, addr) = boot(ServeConfig {
        // Pipelined windows must not hit the per-connection request bound.
        max_requests_per_connection: usize::MAX,
        ..default_config()
    });
    let single = r#"{"testcase":"ga102-3chiplet"}"#;
    let window = vec![single; 32];
    let batch = format!("[{}]", vec![single; 16].join(","));
    // A sweep wide enough that encoding, not per-request setup, dominates.
    let lifetimes: Vec<f64> = (0..512).map(|i| 1.0 + f64::from(i) * 0.01).collect();
    let axis = serde_json::to_string(&SweepAxis::lifetimes_years(&lifetimes)).unwrap();
    let expect_ok = |response: &client::Response| {
        assert_eq!(response.status, 200, "{:?}", response.text());
    };
    let sweep = |format: &str| -> Box<dyn FnMut() -> usize> {
        let body = format!(r#"{{"testcase":"ga102-3chiplet","axes":[{axis}]{format}}}"#);
        let mut connection = client::Connection::open(&addr).unwrap();
        let expected = 16 * lifetimes.len();
        Box::new(move || {
            let mut points = 0;
            for _ in 0..16 {
                let response = connection
                    .post_ndjson("/v1/sweep", &body, |_| {
                        points += 1;
                        Ok(())
                    })
                    .unwrap();
                expect_ok(&response);
            }
            assert_eq!(points, expected);
            points
        })
    };

    // Each shape runs on its own keep-alive connection: single requests,
    // depth-32 pipelined windows, 16-design batches, then the sweep as
    // NDJSON and as frames.
    let mut connection = client::Connection::open(&addr).unwrap();
    let single_shape = Box::new(move || {
        for _ in 0..64 {
            expect_ok(&connection.post_json("/v1/estimate", single).unwrap());
        }
        64
    });
    let mut connection = client::Connection::open(&addr).unwrap();
    let pipelined_shape = Box::new(move || {
        for _ in 0..8 {
            let responses = connection
                .post_json_pipelined("/v1/estimate", &window)
                .unwrap();
            responses.iter().for_each(expect_ok);
        }
        8 * window.len()
    });
    let mut connection = client::Connection::open(&addr).unwrap();
    let batch_shape = Box::new(move || {
        for _ in 0..8 {
            expect_ok(&connection.post_json("/v1/estimate", &batch).unwrap());
        }
        8 * 16
    });
    let mut shapes: [Box<dyn FnMut() -> usize>; 5] = [
        single_shape,
        pipelined_shape,
        batch_shape,
        sweep(""),
        sweep(r#","format":"frames""#),
    ];
    // Each rate is the best of three runs, and the shapes take turns, so
    // cold memos and load from other tests fall on all of them alike.
    let mut best = [0.0; 5];
    for _ in 0..3 {
        for (best, shape) in best.iter_mut().zip(&mut shapes) {
            *best = f64::max(*best, rate(shape));
        }
    }
    handle.shutdown().unwrap();

    let [single, pipelined, batch, ndjson, frames] = best;
    assert!(
        batch >= single,
        "batch {batch:.0} items/s < single {single:.0} requests/s"
    );
    assert!(
        pipelined >= single,
        "pipelined {pipelined:.0} requests/s < single {single:.0} requests/s"
    );
    assert!(
        frames >= ndjson,
        "frames {frames:.0} points/s < NDJSON {ndjson:.0} points/s"
    );
}
