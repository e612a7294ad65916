//! Distributed-tracing e2e: one trace ID minted at the orchestrator edge
//! is observable at every hop — the worker's structured log, the worker's
//! `/v1/trace` span dump, and the HTTP response header — and the NDJSON
//! log rendering is valid JSON line by line.

use std::time::{Duration, Instant};

use eco_chip::serve::orchestrator::{self, FailoverPolicy, WorkerPool};
use eco_chip::serve::{client, ServeConfig, Server, ServerHandle, SweepRequest, TraceResponse};
use eco_chip::techdb::TechDb;
use eco_chip::trace;

/// Boot a real server on an ephemeral port.
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

/// The spans a worker currently holds, fetched over the wire.
fn span_dump(addr: &str) -> TraceResponse {
    serde_json::from_str(
        client::get(addr, "/v1/trace")
            .expect("GET /v1/trace")
            .text()
            .expect("trace body is UTF-8"),
    )
    .expect("trace body deserializes")
}

#[test]
fn one_trace_id_spans_orchestrator_worker_log_span_dump_and_response() {
    let trace_id = "fleet-e2e-trace-7b";
    let (a, addr_a) = boot();
    let (b, addr_b) = boot();

    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    let pool = WorkerPool::Remote(vec![addr_a.clone(), addr_b.clone()]);
    let policy = FailoverPolicy::default();

    // The orchestrator adopts the ambient trace (an edge service minted
    // it); both workers run in-process here, so their structured logs land
    // in the same capture.
    let logs = trace::capture();
    let mut merged = 0usize;
    {
        let _guard = trace::set_current_trace(trace::TraceId::parse(trace_id).unwrap());
        orchestrator::orchestrate_with(&db, &request, &pool, &policy, |_line| {
            merged += 1;
            Ok(())
        })
        .expect("orchestrated sweep");
    }
    assert!(merged > 0);

    // A worker writes its access-log line only after its response is
    // complete, so the merged stream can end before the last worker has
    // logged: wait (bounded) for both traced sweep lines to land.
    let traced_sweeps = |events: &[trace::LogEvent]| {
        events
            .iter()
            .filter(|event| {
                event.msg == "request"
                    && event.field("route") == Some(&trace::FieldValue::Str("sweep".into()))
                    && event.trace.as_deref() == Some(trace_id)
            })
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut events = logs.events();
    while traced_sweeps(&events) < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        events = logs.events();
    }

    // Hop 1 — the orchestrator's own log carries the adopted ID.
    assert!(
        events.iter().any(|event| {
            event.msg == "orchestrating sweep" && event.trace.as_deref() == Some(trace_id)
        }),
        "orchestrator log lost the trace: {events:?}"
    );

    // Hop 2 — each worker's access log carries the same ID: one sweep
    // request per shard, both tagged with the fleet trace.
    let sweeps: Vec<_> = events
        .iter()
        .filter(|event| {
            event.msg == "request"
                && event.field("route") == Some(&trace::FieldValue::Str("sweep".into()))
                && event.trace.as_deref() == Some(trace_id)
        })
        .collect();
    assert_eq!(sweeps.len(), 2, "one traced sweep per worker: {sweeps:?}");

    // Hop 3 — each worker's span dump holds the request span plus nested
    // stage spans, all on the fleet trace. Stage children link to their
    // request span by parent ID (durations are accumulated worker time,
    // so nesting is by linkage, not interval containment).
    for addr in [&addr_a, &addr_b] {
        let dump = span_dump(addr);
        let request_span = dump
            .spans
            .iter()
            .find(|span| span.name == "request:sweep" && span.trace.as_deref() == Some(trace_id))
            .unwrap_or_else(|| panic!("{addr} has no traced sweep span: {dump:?}"));
        let stages: Vec<&str> = dump
            .spans
            .iter()
            .filter(|span| span.parent == Some(request_span.id))
            .map(|span| span.name.as_str())
            .collect();
        for required in ["stage:decode", "stage:estimate", "stage:serialize"] {
            assert!(
                stages.contains(&required),
                "{addr} span dump is missing {required}: {stages:?}"
            );
        }
        for span in dump
            .spans
            .iter()
            .filter(|s| s.parent == Some(request_span.id))
        {
            assert_eq!(span.trace.as_deref(), Some(trace_id), "{span:?}");
            assert!(span.name.starts_with("stage:"), "{span:?}");
            assert!(span.duration >= 0.0 && span.start > 0.0, "{span:?}");
        }
    }

    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

#[test]
fn client_supplied_trace_header_is_echoed_on_the_response() {
    let (handle, addr) = boot();

    // A valid client-supplied ID is adopted and echoed as-is, on plain
    // responses and on chunked streams alike.
    let mut connection = client::Connection::open(&addr).expect("connect");
    connection.set_trace(Some("caller-chosen-id_01".into()));
    let response = connection
        .post_json("/v1/estimate", r#"{"testcase":"ga102"}"#)
        .expect("estimate");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("x-ecochip-trace"),
        Some("caller-chosen-id_01")
    );
    let streamed = connection
        .post_ndjson(
            "/v1/sweep",
            r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#,
            |_line| Ok(()),
        )
        .expect("sweep");
    assert_eq!(streamed.status, 200);
    assert_eq!(
        streamed.header("x-ecochip-trace"),
        Some("caller-chosen-id_01")
    );

    // An invalid ID (here: embedded spaces) is discarded, not echoed — the
    // server mints a fresh one instead of reflecting arbitrary bytes.
    connection.set_trace(Some("not a valid id".into()));
    let response = connection.get("/v1/healthz").expect("healthz");
    let echoed = response.header("x-ecochip-trace").expect("minted trace");
    assert_ne!(echoed, "not a valid id");
    assert!(trace::is_valid_trace_id(echoed), "{echoed:?}");

    handle.shutdown().unwrap();
}

#[test]
fn server_minted_trace_ids_are_unique_per_request() {
    let (handle, addr) = boot();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..16 {
        let response = client::get(&addr, "/v1/healthz").expect("healthz");
        let minted = response
            .header("x-ecochip-trace")
            .expect("every response carries a trace")
            .to_owned();
        assert!(trace::is_valid_trace_id(&minted), "{minted:?}");
        assert!(seen.insert(minted), "minted trace IDs must be unique");
    }
    handle.shutdown().unwrap();
}

/// The schema every `"request"` access-log event renders to in
/// `--log-format json` mode.
#[derive(Debug, serde::Deserialize)]
struct AccessLogLine {
    ts: f64,
    level: String,
    target: String,
    msg: String,
    trace: Option<String>,
    method: Option<String>,
    path: Option<String>,
    route: Option<String>,
    status: Option<u64>,
    duration_secs: Option<f64>,
}

#[test]
fn ndjson_log_lines_parse_as_json_with_required_fields() {
    let (handle, addr) = boot();
    let logs = trace::capture();
    let mut connection = client::Connection::open(&addr).expect("connect");
    connection.set_trace(Some("ndjson-shape-check".into()));
    assert_eq!(connection.get("/v1/healthz").expect("healthz").status, 200);

    let requests: Vec<_> = logs
        .events()
        .into_iter()
        .filter(|event| {
            event.msg == "request" && event.trace.as_deref() == Some("ndjson-shape-check")
        })
        .collect();
    assert_eq!(requests.len(), 1, "{requests:?}");
    for event in &requests {
        let line = trace::format_json_line(event);
        assert!(!line.contains('\n'), "one event, one line: {line:?}");
        let parsed: AccessLogLine =
            serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
        assert!(parsed.ts > 0.0);
        assert_eq!(parsed.level, "info");
        assert_eq!(parsed.target, "serve::server");
        assert_eq!(parsed.msg, "request");
        assert_eq!(parsed.trace.as_deref(), Some("ndjson-shape-check"));
        assert_eq!(parsed.method.as_deref(), Some("GET"));
        assert_eq!(parsed.path.as_deref(), Some("/v1/healthz"));
        assert_eq!(parsed.route.as_deref(), Some("healthz"));
        assert_eq!(parsed.status, Some(200));
        assert!(parsed.duration_secs.is_some());
    }

    handle.shutdown().unwrap();
}
