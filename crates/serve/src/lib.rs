//! # ecochip-serve
//!
//! A network front end for the ECO-CHIP estimator: an HTTP/1.1 JSON service
//! over one [`ecochip_core::EcoChip`], [`ecochip_core::sweep::SweepEngine`]
//! and [`ecochip_core::sweep::SweepContext`], plus a shard orchestrator
//! that fans a sweep out across workers and merges their streams.
//!
//! ECO-CHIP is positioned as a *tool* other systems call — carbon-aware
//! optimisation loops, DSE drivers, dashboards — which needs a service
//! interface, not a one-shot CLI. This crate provides one with zero
//! third-party dependencies: the HTTP layer is hand-rolled on
//! [`std::net::TcpListener`] driven by a readiness event loop over raw
//! `epoll`/`poll(2)` (see [`poll`] — the build environment has no registry
//! access, so no tokio/hyper/mio, the same way the workspace's `vendor/`
//! shims hand-roll serde). Idle keep-alive connections cost a file
//! descriptor and nothing else; cheap routes are answered on the loop
//! thread (with HTTP/1.1 pipelining), heavy routes (sweeps, batches
//! larger than one 16 KiB read, searches) run on a fixed handler pool,
//! and overload is bounded by admission control (`429 Too Many Requests`
//! + `Retry-After` instead of unbounded queueing).
//!
//! ## Endpoints
//!
//! | Method | Path | Behaviour |
//! |---|---|---|
//! | `POST` | `/v1/estimate` | One design → full CFP breakdown JSON |
//! | `POST` | `/v1/estimate` (array body) | N designs in one round-trip → array of per-item results |
//! | `POST` | `/v1/sweep` | Sweep description → points streamed as NDJSON (chunked) |
//! | `POST` | `/v1/optimize` | Carbon-aware search → incumbent-improvement events streamed as NDJSON |
//! | `GET` | `/v1/testcases` | Names of the built-in test cases |
//! | `GET` | `/v1/healthz` | Liveness probe |
//! | `GET` | `/v1/stats` | Memo hit/miss/eviction + request counters + per-route latency |
//! | `GET` | `/v1/trace` | Recent-span ring buffer (request + sweep-stage spans) as JSON |
//! | `GET` | `/metrics` | Prometheus text-format metrics |
//! | `POST` | `/v1/shutdown` | Graceful shutdown (drains in-flight requests, then exits) |
//!
//! Every request is traced: a valid client-supplied `X-Ecochip-Trace`
//! header is adopted as the request's trace ID (anything else gets a
//! server-minted one) and echoed back on the response, the
//! [`orchestrator`] stamps one trace ID on every worker hop of a fan-out,
//! and each request's spans land in the ring buffer behind `GET
//! /v1/trace`. Structured logs (`ECOCHIP_LOG`, `--log-level` /
//! `--log-format` on the CLI) carry the same IDs — see [`ecochip_trace`].
//!
//! Connections are persistent (HTTP/1.1 keep-alive with idle timeouts and
//! a requests-per-connection bound); [`client::Connection`] reuses one
//! socket across requests and the orchestrator drives each worker over a
//! kept-alive connection.
//!
//! Sweep responses stream each [`ecochip_core::sweep::SweepPoint`] as one
//! JSON line, produced by the same serializer as the CLI's
//! `--stream jsonl`, so an HTTP sweep is **bit-for-bit identical** to the
//! equivalent in-process [`ecochip_core::sweep::SweepEngine::run`] — the
//! integration tests and CI diff the two byte streams.
//!
//! ## One warm memo, many connections
//!
//! All connections share the server's estimator, sweep engine and one
//! [`ecochip_core::sweep::SweepContext`]: the memo (floorplans, per-die
//! manufacturing CFP) warms up across requests, single estimates through
//! [`ecochip_core::EcoChip::estimate_with`] and sweeps and searches
//! through the engine alike, and is bounded by `--memo-max-entries` (LRU
//! eviction) so a long-running server cannot grow without limit. The memo lives and dies with the server
//! process: recomputing a stage takes microseconds, so a restarted server
//! simply starts cold.
//!
//! ## Orchestration
//!
//! [`orchestrator`] partitions a sweep with
//! [`Shard`](ecochip_core::sweep::Shard)`{i, of}` across N servers — N
//! in-process servers on loopback ports or N remote server URLs, driven
//! over the same HTTP path — merges the ordered shard streams into
//! one NDJSON stream (shards are contiguous, so merging is ordered
//! concatenation), and fingerprints the merged stream so it can be verified
//! against an unsharded run.
//!
//! ```
//! use ecochip_serve::{client, ServeConfig, Server};
//! let server = Server::bind(&ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.local_addr().to_string();
//! let handle = server.spawn();
//! let health = client::get(&addr, "/v1/healthz")?;
//! assert_eq!(health.status, 200);
//! handle.shutdown()?;
//! # Ok::<(), ecochip_serve::ServeError>(())
//! ```

// `deny` instead of `forbid`: the readiness layer ([`poll`]) is the one
// module allowed to opt back in for its raw epoll/poll/pipe bindings.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod client;
pub mod frames;
pub mod http;
pub mod metrics;
pub mod orchestrator;
pub mod poll;
pub mod server;

pub use api::{
    BatchEstimateItem, ErrorResponse, EstimateRequest, EstimateResponse, HealthResponse,
    IndexRange, OptimizeRequest, RouteLatency, StatsResponse, SweepFormat, SweepRequest,
    SweepSlice, TestcasesResponse, TraceResponse, TraceSpan,
};
pub use client::Connection;
pub use orchestrator::{FailoverPolicy, IslandOutcome, OrchestratorOutcome, WorkerPool};
pub use server::{ServeConfig, Server, ServerHandle};

use std::fmt;

use ecochip_core::EcoChipError;

/// Errors produced by the HTTP service, client and orchestrator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The listen/connect address could not be parsed or resolved. Front
    /// ends treat this as a usage error (CLI exit code 2).
    InvalidAddr(String),
    /// A socket operation failed.
    Io(String),
    /// The peer violated the HTTP protocol (malformed request/response).
    Http(String),
    /// The request was well-formed HTTP but semantically invalid (bad JSON,
    /// unknown test case, conflicting fields). Maps to HTTP 400.
    Api(String),
    /// The estimator rejected the design or failed evaluating it.
    Estimator(EcoChipError),
    /// A remote worker reported an error mid-stream.
    Worker(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidAddr(msg) => write!(f, "invalid address: {msg}"),
            ServeError::Io(msg) => write!(f, "i/o error: {msg}"),
            ServeError::Http(msg) => write!(f, "http protocol error: {msg}"),
            ServeError::Api(msg) => write!(f, "bad request: {msg}"),
            ServeError::Estimator(e) => write!(f, "estimation failed: {e}"),
            ServeError::Worker(msg) => write!(f, "worker failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Estimator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EcoChipError> for ServeError {
    fn from(error: EcoChipError) -> Self {
        ServeError::Estimator(error)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> Self {
        ServeError::Io(error.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_convert() {
        let cases = [
            ServeError::InvalidAddr("nope".into()),
            ServeError::Io("broken pipe".into()),
            ServeError::Http("bad request line".into()),
            ServeError::Api("unknown testcase".into()),
            ServeError::from(EcoChipError::InvalidSystem("empty".into())),
            ServeError::Worker("remote died".into()),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(std::error::Error::source(&cases[4]).is_some());
        assert!(std::error::Error::source(&cases[0]).is_none());
        let io: ServeError = std::io::Error::other("x").into();
        assert!(matches!(io, ServeError::Io(_)));
    }
}
