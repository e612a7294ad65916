//! Orchestrator retry/failover e2e: scripted flaky workers die mid-stream
//! and the orchestrator re-dispatches the remaining index range of their
//! shard to a surviving worker — the merged stream stays bit-for-bit
//! identical to the unsharded run, every point exactly once.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eco_chip::core::dse::named_sweep_axis;
use eco_chip::core::sweep::{Shard, SweepEngine, SweepSpec, DEFAULT_CHUNK};
use eco_chip::core::EcoChip;
use eco_chip::serve::orchestrator::{self, FailoverPolicy, WorkerPool};
use eco_chip::serve::{client, http, ServeConfig, Server, ServerHandle, SweepRequest};
use eco_chip::techdb::TechDb;
use eco_chip::testcases::catalog;
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

/// The NDJSON lines of the unsharded reference run.
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

/// Read one request from `stream` with the server's incremental parser:
/// `None` when the peer closes, or sends a malformed request, first.
fn read_request(mut stream: impl Read) -> Option<http::Request> {
    let mut parser = http::RequestParser::new();
    let (mut buf, mut read) = (Vec::new(), [0u8; 4096]);
    loop {
        if let Some((request, _)) = parser.next_request(&buf).ok()? {
            return Some(request.to_request());
        }
        match stream.read(&mut read) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&read[..n]),
        }
    }
}

/// A flaky worker's address and the count of requests it accepted.
type FlakyWorker = (String, Arc<AtomicUsize>);

/// A scripted flaky worker: speaks just enough HTTP to accept a
/// `POST /v1/sweep`, resolves the requested shard/range against the
/// reference lines, streams the first `serve_before_death` of them as
/// correct chunks, then a *torn* line — the first half of the next one,
/// with no newline — and drops the socket without the terminal chunk,
/// exactly like a worker killed mid-write. The client must treat the torn
/// tail as a worker loss, never as data. Every connection it accepts is
/// counted so tests can assert how often the orchestrator tried it.
fn spawn_flaky_worker(lines: Vec<String>, serve_before_death: usize) -> FlakyWorker {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky worker");
    let addr = listener.local_addr().unwrap().to_string();
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            seen.fetch_add(1, Ordering::SeqCst);
            let Ok(mut writer) = stream.try_clone() else {
                continue;
            };
            let Some(request) = read_request(stream) else {
                continue;
            };
            let parsed: SweepRequest =
                serde_json::from_str(std::str::from_utf8(&request.body).unwrap()).unwrap();
            // Resolve the slice the orchestrator asked for: the initial
            // `I/N` shard or the explicit resume range.
            let range = match (&parsed.shard, &parsed.range) {
                (Some(selector), None) => selector.parse::<Shard>().unwrap().range(lines.len()),
                (None, Some(range)) => range.start..range.end,
                other => panic!("flaky worker got an unsliced request: {other:?}"),
            };
            let own = &lines[range];
            let served = own.len().min(serve_before_death);
            let _ = write!(
                writer,
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                 Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
            );
            for line in &own[..served] {
                let _ = write!(writer, "{:x}\r\n{line}\n\r\n", line.len() + 1);
            }
            if let Some(next) = own.get(served) {
                let torn = &next[..next.len() / 2];
                let _ = write!(writer, "{:x}\r\n{torn}\r\n", torn.len());
            }
            let _ = writer.flush();
            // Die without the terminal chunk: the peer sees the connection
            // collapse mid-stream.
            drop(writer);
        }
    });
    (addr, requests)
}

#[test]
fn failover_resumes_a_dead_shard_mid_stream_exactly_once() {
    let expected = reference_lines("ga102-3chiplet", "lifetime");
    let (survivor, survivor_addr) = boot();
    // The flaky worker owns shard 1 (indices 4..7 of 7) and dies after
    // emitting exactly one line.
    let (flaky_addr, flaky_requests) = spawn_flaky_worker(expected.clone(), 1);

    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    let reference = orchestrator::unsharded_outcome(&db, &request, Some(2)).unwrap();

    let pool = WorkerPool::Remote(vec![survivor_addr.clone(), flaky_addr.clone()]);
    let policy = FailoverPolicy {
        retries: 2,
        backoff: Duration::from_millis(10),
    };
    // Pin the run's trace ID so the structured failover events are
    // attributable to this test even with other tests logging in parallel.
    let logs = trace::capture();
    let _trace = trace::set_current_trace(trace::TraceId::parse("failover-midstream-e2e").unwrap());
    let mut merged = Vec::new();
    let outcome = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |line| {
        merged.push(line.to_owned());
        Ok(())
    })
    .unwrap();

    // The worker loss surfaced as a structured WARN carrying the run's
    // trace ID, the shard that died, and the range still owed.
    let warns: Vec<_> = logs
        .events()
        .into_iter()
        .filter(|event| {
            event.msg == "shard lost its worker; re-dispatching"
                && event.trace.as_deref() == Some("failover-midstream-e2e")
        })
        .collect();
    assert_eq!(warns.len(), 1, "exactly one re-dispatch: {warns:?}");
    let warn = &warns[0];
    assert_eq!(warn.level, trace::Level::Warn);
    assert_eq!(warn.target, "serve::orchestrator");
    assert_eq!(warn.field("shard"), Some(&trace::FieldValue::U64(1)));
    assert_eq!(warn.field("shards"), Some(&trace::FieldValue::U64(2)));
    // Shard 1 owns indices 4..7 and died after serving one point: the
    // re-dispatch still owes two.
    assert_eq!(warn.field("remaining"), Some(&trace::FieldValue::U64(2)));
    assert_eq!(
        warn.field("url"),
        Some(&trace::FieldValue::Str(survivor_addr.clone())),
        "failover must target the survivor"
    );

    // The merged stream is bit-for-bit the unsharded run — the one line the
    // flaky worker served before dying was not re-emitted, the remaining
    // range came from the survivor.
    assert_eq!(merged, expected);
    assert_eq!(
        outcome, reference,
        "failover must not change the fingerprint"
    );
    assert_eq!(
        flaky_requests.load(Ordering::SeqCst),
        1,
        "the dead worker must not be retried (failover goes to the survivor)"
    );

    survivor.shutdown().unwrap();
}

/// A scripted flaky worker speaking the framed (`ECOF`) sweep encoding: it
/// answers with the frames content type, streams `serve_before_death`
/// complete frames, then a *torn* frame — a length prefix promising a full
/// line followed by only half its payload — and drops the socket. The
/// client must deliver exactly the complete frames upstream and treat the
/// torn tail as a worker loss, never as data.
fn spawn_flaky_framed_worker(lines: Vec<String>, serve_before_death: usize) -> FlakyWorker {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind flaky framed worker");
    let addr = listener.local_addr().unwrap().to_string();
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            seen.fetch_add(1, Ordering::SeqCst);
            let Ok(mut writer) = stream.try_clone() else {
                continue;
            };
            let Some(request) = read_request(stream) else {
                continue;
            };
            let parsed: SweepRequest =
                serde_json::from_str(std::str::from_utf8(&request.body).unwrap()).unwrap();
            assert_eq!(
                parsed.format.as_deref(),
                Some("frames"),
                "the orchestrator must request frames from its workers"
            );
            let range = match (&parsed.shard, &parsed.range) {
                (Some(selector), None) => selector.parse::<Shard>().unwrap().range(lines.len()),
                (None, Some(range)) => range.start..range.end,
                other => panic!("flaky framed worker got an unsliced request: {other:?}"),
            };
            let own = &lines[range];
            let served = own.len().min(serve_before_death);
            let _ = write!(
                writer,
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ecochip-frames\r\n\
                 Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
            );
            let mut wire = Vec::from(&b"ECOF\x01"[..]);
            for line in &own[..served] {
                wire.extend_from_slice(&(line.len() as u32).to_le_bytes());
                wire.extend_from_slice(line.as_bytes());
            }
            if let Some(next) = own.get(served) {
                wire.extend_from_slice(&(next.len() as u32).to_le_bytes());
                wire.extend_from_slice(&next.as_bytes()[..next.len() / 2]);
            }
            let _ = write!(writer, "{:x}\r\n", wire.len());
            let _ = writer.write_all(&wire);
            let _ = write!(writer, "\r\n");
            let _ = writer.flush();
            drop(writer);
        }
    });
    (addr, requests)
}

/// Fail over the 7-point lifetime sweep from the worker `spawn_flaky`
/// starts, which owns shard 1 (indices 4..7) and tears its stream after one
/// complete point, to a survivor that evaluates in `DEFAULT_CHUNK`-point
/// claims. The resumed range (one point into the dead worker's shard)
/// starts inside the shard's first claim, so claims must re-align to the
/// resumed start.
fn assert_mid_chunk_failover_is_exactly_once(spawn_flaky: fn(Vec<String>, usize) -> FlakyWorker) {
    let expected = reference_lines("ga102-3chiplet", "lifetime");
    let survivor_server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(2),
        threads: 4,
        ..ServeConfig::default()
    })
    .expect("bind chunked survivor");
    let survivor_addr = survivor_server.local_addr().to_string();
    let survivor = survivor_server.spawn();
    // The engine's claim size is surfaced in /v1/stats.
    let stats: eco_chip::serve::StatsResponse = serde_json::from_str(
        client::get(&survivor_addr, "/v1/stats")
            .unwrap()
            .text()
            .unwrap(),
    )
    .unwrap();
    assert_eq!(stats.chunk, DEFAULT_CHUNK, "{stats:?}");

    let (flaky_addr, flaky_requests) = spawn_flaky(expected.clone(), 1);

    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    let reference = orchestrator::unsharded_outcome(&db, &request, Some(2)).unwrap();

    let pool = WorkerPool::Remote(vec![survivor_addr.clone(), flaky_addr.clone()]);
    let policy = FailoverPolicy {
        retries: 2,
        backoff: Duration::from_millis(10),
    };
    let mut merged = Vec::new();
    let outcome = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |line| {
        merged.push(line.to_owned());
        Ok(())
    })
    .unwrap();

    // Exactly once: the complete point the flaky worker served was not
    // re-emitted, the torn tail contributed nothing, and the resumed range
    // came back from the survivor — fingerprint unchanged.
    assert_eq!(merged, expected);
    assert_eq!(outcome, reference, "mid-chunk failover changed the stream");
    assert_eq!(flaky_requests.load(Ordering::SeqCst), 1);

    survivor.shutdown().unwrap();
}

#[test]
fn failover_resumes_mid_chunk_with_framed_workers_exactly_once() {
    assert_mid_chunk_failover_is_exactly_once(spawn_flaky_framed_worker);
}

#[test]
fn failover_resumes_mid_chunk_with_ndjson_workers_exactly_once() {
    assert_mid_chunk_failover_is_exactly_once(spawn_flaky_worker);
}

#[test]
fn retries_are_bounded_and_fail_fast_stays_available() {
    let expected = reference_lines("ga102-3chiplet", "lifetime");
    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");

    // A pool made only of flaky workers exhausts its retries and fails.
    let (flaky_addr, flaky_requests) = spawn_flaky_worker(expected.clone(), 1);
    let pool = WorkerPool::Remote(vec![flaky_addr]);
    let policy = FailoverPolicy {
        retries: 2,
        backoff: Duration::from_millis(5),
    };
    let logs = trace::capture();
    let _trace = trace::set_current_trace(trace::TraceId::parse("failover-exhausted-e2e").unwrap());
    let result = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |_line| Ok(()));
    assert!(result.is_err(), "a fleet of flaky workers must fail");
    assert_eq!(
        flaky_requests.load(Ordering::SeqCst),
        3,
        "one try plus two retries"
    );
    // Exhaustion is a structured WARN on the run's trace: two re-dispatch
    // events (one per retry), then the terminal give-up with the full
    // attempt count.
    let events: Vec<_> = logs
        .events()
        .into_iter()
        .filter(|event| event.trace.as_deref() == Some("failover-exhausted-e2e"))
        .collect();
    let redispatches = events
        .iter()
        .filter(|event| event.msg == "shard lost its worker; re-dispatching")
        .count();
    assert_eq!(redispatches, 2, "{events:?}");
    let exhausted: Vec<_> = events
        .iter()
        .filter(|event| event.msg == "shard retries exhausted; failing the run")
        .collect();
    assert_eq!(exhausted.len(), 1, "{events:?}");
    assert_eq!(exhausted[0].level, trace::Level::Warn);
    assert_eq!(
        exhausted[0].field("attempts"),
        Some(&trace::FieldValue::U64(3))
    );

    // With failover disabled (`FailoverPolicy::none()`) the first
    // loss fails the run immediately.
    let (flaky_addr, flaky_requests) = spawn_flaky_worker(expected, 1);
    let pool = WorkerPool::Remote(vec![flaky_addr]);
    let result =
        orchestrator::orchestrate_with(&db, &request, &pool, &FailoverPolicy::none(), |_line| {
            Ok(())
        });
    assert!(result.is_err());
    assert_eq!(flaky_requests.load(Ordering::SeqCst), 1, "no retries");
}

/// A scripted worker that answers every request with a fixed raw response
/// (or none at all), counting the requests it received.
fn spawn_scripted_worker(response: &'static [u8]) -> (String, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind scripted worker");
    let addr = listener.local_addr().unwrap().to_string();
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            seen.fetch_add(1, Ordering::SeqCst);
            let Ok(mut writer) = stream.try_clone() else {
                continue;
            };
            let _ = read_request(stream);
            let _ = writer.write_all(response);
            let _ = writer.flush();
        }
    });
    (addr, requests)
}

#[test]
fn deterministic_application_failures_are_not_failed_over() {
    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    // A worker that answers 400 to everything is an application failure,
    // not a worker loss: re-dispatching would fail identically elsewhere,
    // so even a generous retry budget must not be spent on it.
    let (addr, requests) = spawn_scripted_worker(
        b"HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
          Content-Length: 16\r\nConnection: close\r\n\r\n{\"error\":\"nope\"}",
    );
    let pool = WorkerPool::Remote(vec![addr]);
    let policy = FailoverPolicy {
        retries: 5,
        backoff: Duration::ZERO,
    };
    let result = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |_line| Ok(()));
    assert!(result.is_err());
    assert_eq!(
        requests.load(Ordering::SeqCst),
        1,
        "an application error must not be re-dispatched"
    );
}

#[test]
fn a_worker_dying_before_the_status_line_is_sent_one_request_per_attempt() {
    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    // A worker that accepts the request and dies before answering: the
    // client must not transparently re-send on its own (the socket never
    // served a response, so the failure is attributable to this request) —
    // retry accounting belongs to the orchestrator's failover alone.
    let (addr, requests) = spawn_scripted_worker(b"");
    let pool = WorkerPool::Remote(vec![addr]);
    let policy = FailoverPolicy {
        retries: 1,
        backoff: Duration::ZERO,
    };
    let result = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |_line| Ok(()));
    assert!(result.is_err());
    assert_eq!(
        requests.load(Ordering::SeqCst),
        2,
        "one wire request per failover attempt, no hidden client retries"
    );
}

#[test]
fn failover_covers_a_worker_dead_from_the_start() {
    // One real worker plus a URL nothing listens on: the dead shard's
    // whole range is re-dispatched to the survivor.
    let (survivor, survivor_addr) = boot();
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };

    let db = TechDb::default();
    let request = SweepRequest::named("ga102-3chiplet", "lifetime");
    let reference = orchestrator::unsharded_outcome(&db, &request, Some(2)).unwrap();

    let pool = WorkerPool::Remote(vec![survivor_addr.clone(), dead]);
    let policy = FailoverPolicy {
        retries: 1,
        backoff: Duration::ZERO,
    };
    let mut merged = Vec::new();
    let outcome = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |line| {
        merged.push(line.to_owned());
        Ok(())
    })
    .unwrap();
    assert_eq!(outcome, reference);
    assert_eq!(merged, reference_lines("ga102-3chiplet", "lifetime"));

    survivor.shutdown().unwrap();
}

#[test]
fn explicit_ranges_resume_over_the_wire() {
    let (handle, addr) = boot();
    let expected = reference_lines("ga102-3chiplet", "lifetime");

    // The resume form: an explicit index range streams exactly that slice.
    let request = SweepRequest::named("ga102-3chiplet", "lifetime").with_range(3, 7);
    let body = serde_json::to_string(&request).unwrap();
    let mut lines = Vec::new();
    let response = client::post_ndjson(&addr, "/v1/sweep", &body, |line| {
        lines.push(line.to_owned());
        Ok(())
    })
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(lines, expected[3..7], "range 3..7 is the exact suffix");

    // An empty range is a clean no-op (how a fully-drained shard resumes).
    let request = SweepRequest::named("ga102-3chiplet", "lifetime").with_range(7, 7);
    let body = serde_json::to_string(&request).unwrap();
    let mut lines = 0usize;
    let response = client::post_ndjson(&addr, "/v1/sweep", &body, |_line| {
        lines += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(lines, 0);

    // Out-of-bounds and conflicting slices are rejected before streaming.
    for body in [
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","range":{"start":3,"end":99}}"#,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","range":{"start":5,"end":3}}"#,
        r#"{"testcase":"ga102-3chiplet","axis":"lifetime","shard":"0/2","range":{"start":0,"end":1}}"#,
    ] {
        let response = client::post_json(&addr, "/v1/sweep", body).unwrap();
        assert_eq!(response.status, 400, "{body}");
    }

    handle.shutdown().unwrap();
}
