//! The JSON wire types of the estimation service.
//!
//! Requests name a design either by built-in test case
//! (`{"testcase": "ga102"}`, resolved through
//! [`ecochip_testcases::catalog`]) or inline
//! (`{"system": { … }}`, the same JSON schema
//! [`ecochip_testcases::io`] reads and writes). Sweep requests add either a
//! named axis (`{"axis": "lifetime"}`, resolved through
//! [`ecochip_core::dse::named_sweep_axis`] — the CLI's `--sweep` values) or
//! fully structured axes (`{"axes": [{"Lifetimes": […]}]}`, the serialized
//! [`SweepAxis`] form), plus an optional `"shard": "I/N"` selector.
//!
//! Every front end resolves names through the same shared helpers, so a
//! sweep described by name over HTTP, by flag on the CLI, or structurally
//! in code produces the *same* [`SweepSpec`] — and therefore bit-for-bit
//! identical output.

use serde::{Deserialize, Serialize};

pub use ecochip_core::sweep::SweepSlice;
use ecochip_core::sweep::{Shard, SweepAxis, SweepSpec, SweepStats};
use ecochip_core::{dse, opt, CarbonReport, System};
use ecochip_techdb::TechDb;
use ecochip_testcases::catalog::{self, CatalogError};

use crate::ServeError;

/// The design a request names, refused unless it passes
/// [`System::validate`].
fn resolve_base(
    testcase: Option<&str>,
    system: Option<System>,
    db: &TechDb,
) -> Result<System, ServeError> {
    let system = match (testcase, system) {
        (Some(_), Some(_)) => Err(ServeError::Api(
            "pass either \"testcase\" or \"system\", not both".into(),
        )),
        (None, None) => Err(ServeError::Api(
            "pass a design: \"testcase\" (a built-in name, see GET /v1/testcases) \
             or \"system\" (an inline description)"
                .into(),
        )),
        (Some(name), None) => catalog::build(db, name).map_err(|error| match error {
            CatalogError::UnknownTestcase(_) => ServeError::Api(error.to_string()),
            CatalogError::Build(inner) => ServeError::Estimator(inner),
        }),
        (None, Some(system)) => Ok(system),
    }?;
    system.validate().map_err(api_error)?;
    Ok(system)
}

/// A refused input, answered with 400 (exit 2 on the CLI).
fn api_error(error: impl std::fmt::Display) -> ServeError {
    ServeError::Api(error.to_string())
}

/// `POST /v1/estimate`: one design to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateRequest {
    /// A built-in test-case name (see `GET /v1/testcases`).
    pub testcase: Option<String>,
    /// An inline system description (mutually exclusive with `testcase`).
    pub system: Option<System>,
}

impl EstimateRequest {
    /// Resolve the request into the system to estimate, moving an inline
    /// system out of the request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Api`] when neither/both design fields are present,
    /// the test-case name is unknown or the system fails
    /// [`System::validate`]; [`ServeError::Estimator`] when a known test
    /// case fails to build against `db`.
    pub fn resolve(self, db: &TechDb) -> Result<System, ServeError> {
        resolve_base(self.testcase.as_deref(), self.system, db)
    }
}

/// `POST /v1/estimate` response: the evaluated system plus its full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimateResponse {
    /// Name of the evaluated system.
    pub system: String,
    /// The full carbon breakdown.
    pub report: CarbonReport,
    /// Embodied share of the total CFP, `0.0..=1.0`.
    pub embodied_fraction: f64,
}

/// One element of a batch `POST /v1/estimate` response: each request in the
/// posted array resolves, in request order, to either its full estimate or
/// its own error object — one bad item never fails the whole batch.
///
/// The wire form of an element is exactly the body the same request would
/// have produced as a single `POST /v1/estimate`: a successful element
/// serializes as an [`EstimateResponse`] object, a failed one as an
/// [`ErrorResponse`] (`{"error": …}`). Batched and sequential estimation
/// are therefore bit-for-bit interchangeable.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchEstimateItem {
    /// The item estimated successfully.
    Ok(EstimateResponse),
    /// The item failed; the other items of the batch are unaffected.
    Err(ErrorResponse),
}

impl Serialize for BatchEstimateItem {
    fn write_json(&self, out: &mut String) -> Result<(), serde::Error> {
        match self {
            Self::Ok(response) => response.write_json(out),
            Self::Err(error) => error.write_json(out),
        }
    }
}

impl Deserialize for BatchEstimateItem {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let start = p.mark();
        if !p.enter_object()? {
            return Err(p.mismatch("object"));
        }
        // The two wire forms share no keys, so the error marker is decisive:
        // scan the keys for it, then read the object again as its type.
        let failed = p.seek_key("error")?;
        p.reset(start);
        if failed {
            ErrorResponse::deserialize(p).map(Self::Err)
        } else {
            EstimateResponse::deserialize(p).map(Self::Ok)
        }
    }
}

/// `POST /v1/sweep`: a sweep description; the response streams one
/// [`ecochip_core::sweep::SweepPoint`] JSON object per line (NDJSON).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// A built-in test-case name for the base system.
    pub testcase: Option<String>,
    /// An inline base system (mutually exclusive with `testcase`).
    pub system: Option<System>,
    /// A named axis (`nodes|packaging|volume|lifetime|energy`), resolved
    /// exactly like the CLI's `--sweep`.
    pub axis: Option<String>,
    /// Structured axes (serialized [`SweepAxis`] values), for sweeps beyond
    /// the named ones. Mutually exclusive with `axis`; omitting both sweeps
    /// the bare base system (a single point).
    pub axes: Option<Vec<SweepAxis>>,
    /// Evaluate only shard `"I/N"` of the sweep's index space.
    pub shard: Option<String>,
    /// Evaluate only the explicit case-index range `[start, end)`.
    /// Mutually exclusive with `shard`. This is the orchestrator's failover
    /// resume form: shards are contiguous, so the unemitted suffix of a
    /// dead worker's shard is exactly an index range.
    pub range: Option<IndexRange>,
    /// Stream encoding: `"ndjson"` (the default, one JSON object per
    /// line) or `"frames"` (the `ECOF` length-prefixed binary framing of
    /// the *same* canonical lines, see [`crate::frames`]). The
    /// orchestrator requests frames for worker-internal shard streams;
    /// decoded frame payloads are byte-identical to the NDJSON lines, so
    /// fingerprints are format-independent.
    pub format: Option<String>,
}

/// The negotiated encoding of a sweep response stream (the resolved form
/// of [`SweepRequest::format`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFormat {
    /// One canonical JSON object per `\n`-terminated line — the external
    /// default.
    NdJson,
    /// `ECOF` length-prefixed binary frames around the same canonical
    /// lines (see [`crate::frames`]).
    Frames,
}

impl SweepFormat {
    /// The Prometheus label value (and wire name) of this format.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepFormat::NdJson => "ndjson",
            SweepFormat::Frames => "frames",
        }
    }

    /// The response content type this format streams as.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self {
            SweepFormat::NdJson => "application/x-ndjson",
            SweepFormat::Frames => crate::frames::CONTENT_TYPE,
        }
    }
}

/// An explicit half-open case-index range `[start, end)` of a sweep's index
/// space (the wire form of [`SweepRequest::range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexRange {
    /// First case index (inclusive).
    pub start: usize,
    /// One past the last case index (exclusive).
    pub end: usize,
}

impl SweepRequest {
    /// A request naming a test case and a named axis — the common case.
    pub fn named(testcase: impl Into<String>, axis: impl Into<String>) -> Self {
        Self {
            testcase: Some(testcase.into()),
            system: None,
            axis: Some(axis.into()),
            axes: None,
            shard: None,
            range: None,
            format: None,
        }
    }

    /// This request with the stream encoding pinned (`"ndjson"` or
    /// `"frames"`).
    #[must_use]
    pub fn with_format(&self, format: SweepFormat) -> Self {
        Self {
            format: Some(format.label().to_string()),
            ..self.clone()
        }
    }

    /// Resolve the requested stream encoding (`None` defaults to NDJSON).
    ///
    /// # Errors
    ///
    /// [`ServeError::Api`] for an unknown format name.
    pub fn negotiated_format(&self) -> Result<SweepFormat, ServeError> {
        match self.format.as_deref() {
            None | Some("ndjson") => Ok(SweepFormat::NdJson),
            Some("frames") => Ok(SweepFormat::Frames),
            Some(other) => Err(ServeError::Api(format!(
                "unknown sweep stream format {other:?}; pass \"ndjson\" or \"frames\""
            ))),
        }
    }

    /// This request restricted to shard `index`/`of` (used by the
    /// orchestrator to fan one request out across workers).
    #[must_use]
    pub fn with_shard(&self, index: usize, of: usize) -> Self {
        Self {
            shard: Some(format!("{index}/{of}")),
            range: None,
            ..self.clone()
        }
    }

    /// This request restricted to the explicit case range `[start, end)`
    /// (used by the orchestrator to re-dispatch the unemitted suffix of a
    /// dead worker's shard).
    #[must_use]
    pub fn with_range(&self, start: usize, end: usize) -> Self {
        Self {
            shard: None,
            range: Some(IndexRange { start, end }),
            ..self.clone()
        }
    }

    /// Resolve the request into the spec to evaluate and the slice of it
    /// this worker owns.
    ///
    /// # Errors
    ///
    /// [`ServeError::Api`] for missing/conflicting fields, unknown
    /// test-case or axis names, a spec [`SweepSpec::validate`] refuses and
    /// a shard or range that is not a slice of it (so a front end can
    /// refuse before committing to a response); [`ServeError::Estimator`]
    /// when a known test case fails to build.
    pub fn resolve(&self, db: &TechDb) -> Result<(SweepSpec, SweepSlice), ServeError> {
        let base = resolve_base(self.testcase.as_deref(), self.system.clone(), db)?;
        let mut spec = SweepSpec::new(base);
        match (&self.axis, &self.axes) {
            (Some(_), Some(_)) => {
                return Err(ServeError::Api(
                    "pass either \"axis\" (a named axis) or \"axes\" (structured), not both".into(),
                ))
            }
            (Some(name), None) => {
                let axis = dse::named_sweep_axis(name, spec.base()).map_err(api_error)?;
                spec = spec.axis(axis);
            }
            (None, Some(axes)) => spec = axes.iter().cloned().fold(spec, SweepSpec::axis),
            (None, None) => {}
        }
        let total = spec.validate().map_err(api_error)?;
        let slice = match (&self.shard, &self.range) {
            (Some(_), Some(_)) => {
                return Err(ServeError::Api(
                    "pass either \"shard\" (I/N) or \"range\" ([start, end)), not both".into(),
                ))
            }
            (Some(selector), None) => {
                SweepSlice::Shard(selector.parse::<Shard>().map_err(api_error)?)
            }
            (None, Some(range)) => SweepSlice::Range(range.start..range.end),
            (None, None) => SweepSlice::Shard(Shard::FULL),
        };
        slice.range(total).map_err(api_error)?;
        Ok((spec, slice))
    }
}

/// `POST /v1/optimize`: a carbon-aware optimization run over a sweep
/// space; the response streams one [`ecochip_core::opt::OptEvent`] JSON
/// object per line (NDJSON): every incumbent/frontier improvement, then a
/// terminal `done` event carrying the full Pareto frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeRequest {
    /// A built-in test-case name for the base system.
    pub testcase: Option<String>,
    /// An inline base system (mutually exclusive with `testcase`).
    pub system: Option<System>,
    /// A named axis (`nodes|packaging|volume|lifetime|energy`), resolved
    /// exactly like the CLI's `--sweep`.
    pub axis: Option<String>,
    /// Structured axes (serialized [`SweepAxis`] values). Mutually
    /// exclusive with `axis`.
    pub axes: Option<Vec<SweepAxis>>,
    /// Explore only shard `"I/N"` of the index space (island-model
    /// workers each own one shard).
    pub shard: Option<String>,
    /// Search method: `"pareto"` (default), `"anneal"` or `"genetic"`.
    pub method: Option<String>,
    /// Evaluation budget for the heuristic explorers (default
    /// [`opt::DEFAULT_BUDGET`]).
    pub budget: Option<usize>,
    /// RNG seed (default [`opt::DEFAULT_SEED`]); seeded runs are
    /// byte-identical.
    pub seed: Option<u64>,
    /// Comma-separated objective list (`embodied|operational|cost|area`),
    /// default `"embodied,operational"`.
    pub objectives: Option<String>,
    /// Island index stamped into emitted events, for island-model runs.
    pub island: Option<usize>,
    /// Frontier points seeding the archive before exploration — the
    /// island-model frontier exchange: the orchestrator posts the merged
    /// global frontier back to each island every round.
    pub frontier: Option<Vec<opt::FrontierPoint>>,
}

impl OptimizeRequest {
    /// A request naming a test case and a named axis — the common case.
    pub fn named(testcase: impl Into<String>, axis: impl Into<String>) -> Self {
        Self {
            testcase: Some(testcase.into()),
            system: None,
            axis: Some(axis.into()),
            axes: None,
            shard: None,
            method: None,
            budget: None,
            seed: None,
            objectives: None,
            island: None,
            frontier: None,
        }
    }

    /// This request restricted to shard `index`/`of`, exploring as island
    /// `index` (used by the orchestrator's island mode).
    #[must_use]
    pub fn with_island(&self, index: usize, of: usize) -> Self {
        Self {
            shard: Some(format!("{index}/{of}")),
            island: Some(index),
            ..self.clone()
        }
    }

    /// The sweep this request searches: its design, axes and shard.
    #[must_use]
    pub fn sweep(&self) -> SweepRequest {
        SweepRequest {
            testcase: self.testcase.clone(),
            system: self.system.clone(),
            axis: self.axis.clone(),
            axes: self.axes.clone(),
            shard: self.shard.clone(),
            range: None,
            format: None,
        }
    }

    /// Resolve the request into the spec, the shard to explore, and the
    /// optimization parameters.
    ///
    /// # Errors
    ///
    /// [`ServeError::Api`] for missing/conflicting design fields, unknown
    /// test-case/axis/method/objective names, malformed shard selectors
    /// and a zero budget; [`ServeError::Estimator`] when a known test case
    /// fails to build.
    pub fn resolve(&self, db: &TechDb) -> Result<(SweepSpec, Shard, opt::OptConfig), ServeError> {
        let (spec, slice) = self.sweep().resolve(db)?;
        let SweepSlice::Shard(shard) = slice else {
            unreachable!("no range field on optimize requests");
        };
        let method: opt::OptMethod = self
            .method
            .as_deref()
            .unwrap_or("pareto")
            .parse()
            .map_err(|e: opt::OptParseError| ServeError::Api(e.message().to_string()))?;
        let objectives: opt::ObjectiveSet = match self.objectives.as_deref() {
            None => opt::ObjectiveSet::default(),
            Some(list) => list
                .parse()
                .map_err(|e: opt::OptParseError| ServeError::Api(e.message().to_string()))?,
        };
        if self.budget == Some(0) {
            return Err(ServeError::Api(
                "\"budget\" needs a positive integer, got 0".into(),
            ));
        }
        let config = opt::OptConfig {
            method,
            objectives,
            budget: self.budget.unwrap_or(opt::DEFAULT_BUDGET),
            seed: self.seed.unwrap_or(opt::DEFAULT_SEED),
            island: self.island,
            seed_frontier: self.frontier.clone().unwrap_or_default(),
        };
        Ok((spec, shard, config))
    }
}

/// `GET /v1/healthz` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server is able to respond.
    pub status: String,
    /// The serving crate, for fleet inventory.
    pub service: String,
    /// Sweep-engine worker threads per request.
    pub jobs: usize,
}

/// Per-route latency summary inside a [`StatsResponse`]: the estimated
/// p50/p99 of the server-side request latency histogram for one route
/// label (same labels as the `ecochip_request_duration_seconds` metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteLatency {
    /// Route label (`"estimate"`, `"sweep"`, `"stats"`, …).
    pub route: String,
    /// Requests observed on this route since startup.
    pub count: u64,
    /// Estimated median request latency, seconds.
    pub p50_seconds: f64,
    /// Estimated 99th-percentile request latency, seconds.
    pub p99_seconds: f64,
}

/// `GET /v1/stats` response: request counters plus the warm memo's
/// hit/miss/eviction counters and sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsResponse {
    /// Requests accepted since startup (all endpoints).
    pub requests: u64,
    /// Sweep points streamed since startup.
    pub points_streamed: u64,
    /// Sweep-engine claim size: points a worker takes per queue
    /// round-trip (always [`DEFAULT_CHUNK`](ecochip_core::sweep::DEFAULT_CHUNK)).
    pub chunk: usize,
    /// Floorplans served from the memo.
    pub floorplan_hits: usize,
    /// Floorplans computed.
    pub floorplan_misses: usize,
    /// Floorplans evicted by the capacity bound.
    pub floorplan_evictions: usize,
    /// Floorplans currently memoized.
    pub floorplan_entries: usize,
    /// Manufacturing results served from the memo.
    pub manufacturing_hits: usize,
    /// Manufacturing results computed.
    pub manufacturing_misses: usize,
    /// Manufacturing results evicted by the capacity bound.
    pub manufacturing_evictions: usize,
    /// Manufacturing results currently memoized.
    pub manufacturing_entries: usize,
    /// The per-cache memo bound, when configured.
    pub memo_capacity: Option<usize>,
    /// Open connections parked in the event loop right now.
    pub idle_connections: u64,
    /// Open connections checked out to the handler pool right now.
    pub active_connections: u64,
    /// Connections/requests refused with `429 Too Many Requests` since
    /// startup (admission control; see `--max-inflight` /
    /// `--max-connections`).
    pub rejected: u64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Per-route latency summaries (routes with zero observations are
    /// omitted).
    pub latency: Vec<RouteLatency>,
}

/// Request-level totals for [`StatsResponse::new`], gathered from the
/// server rather than the memoized service.
#[derive(Debug, Clone, Copy)]
pub struct ServeTotals {
    /// Requests accepted since startup.
    pub requests: u64,
    /// Sweep points streamed since startup.
    pub points_streamed: u64,
    /// Effective sweep-engine claim-chunk size.
    pub chunk: usize,
    /// Open connections parked in the event loop.
    pub idle_connections: u64,
    /// Open connections checked out to the handler pool.
    pub active_connections: u64,
    /// 429 rejections since startup.
    pub rejected: u64,
    /// Seconds since the server started.
    pub uptime_seconds: f64,
}

impl StatsResponse {
    /// Assemble the response from the memo counters and request totals.
    pub fn new(
        stats: SweepStats,
        floorplan_entries: usize,
        manufacturing_entries: usize,
        memo_capacity: Option<usize>,
        totals: ServeTotals,
        latency: Vec<RouteLatency>,
    ) -> Self {
        Self {
            requests: totals.requests,
            points_streamed: totals.points_streamed,
            chunk: totals.chunk,
            floorplan_hits: stats.floorplan_hits,
            floorplan_misses: stats.floorplan_misses,
            floorplan_evictions: stats.floorplan_evictions,
            floorplan_entries,
            manufacturing_hits: stats.manufacturing_hits,
            manufacturing_misses: stats.manufacturing_misses,
            manufacturing_evictions: stats.manufacturing_evictions,
            manufacturing_entries,
            memo_capacity,
            idle_connections: totals.idle_connections,
            active_connections: totals.active_connections,
            rejected: totals.rejected,
            uptime_seconds: totals.uptime_seconds,
            latency,
        }
    }
}

/// One completed span in a `GET /v1/trace` dump — the wire form of
/// [`ecochip_trace::CompletedSpan`]. Spans nest by ID: a stage span's
/// `parent` is its request span's `id`, and every span carries the trace
/// ID current when it started, so one `X-Ecochip-Trace` value stitches a
/// sweep's timeline back together across the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Monotone completion sequence number (orders the dump).
    pub seq: u64,
    /// Process-unique span ID.
    pub id: u64,
    /// The enclosing span's ID, when this span was nested.
    pub parent: Option<u64>,
    /// The trace ID current when the span started.
    pub trace: Option<String>,
    /// Span name (e.g. `"request:sweep"`, `"stage:estimate"`).
    pub name: String,
    /// Wall-clock start, unix seconds (fractional).
    pub start: f64,
    /// Duration in seconds (monotonic clock).
    pub duration: f64,
}

impl From<&ecochip_trace::CompletedSpan> for TraceSpan {
    fn from(span: &ecochip_trace::CompletedSpan) -> Self {
        Self {
            seq: span.seq,
            id: span.id,
            parent: span.parent,
            trace: span.trace.map(|trace| trace.to_string()),
            name: span.name.to_owned(),
            start: span.start,
            duration: span.duration,
        }
    }
}

/// `GET /v1/trace` response: this process's recent-span ring buffer,
/// oldest first. The ring is bounded (the newest spans win), so this is a
/// flight recorder, not an archive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceResponse {
    /// Completed spans, ordered by completion (`seq` ascending).
    pub spans: Vec<TraceSpan>,
}

/// `GET /v1/testcases` response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestcasesResponse {
    /// Every built-in test-case name `POST /v1/estimate` accepts.
    pub testcases: Vec<String>,
}

/// Error body returned with every non-2xx status.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable description of what was wrong with the request.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecochip_core::sweep::SweepEngine;
    use ecochip_core::EcoChip;

    #[test]
    fn estimate_requests_resolve_testcases_and_inline_systems() {
        let db = TechDb::default();
        let by_name = EstimateRequest {
            testcase: Some("ga102".into()),
            system: None,
        };
        let system = by_name.resolve(&db).unwrap();
        assert!(!system.chiplets.is_empty());

        let inline = EstimateRequest {
            testcase: None,
            system: Some(system.clone()),
        };
        assert_eq!(inline.resolve(&db).unwrap(), system);

        for bad in [
            EstimateRequest {
                testcase: None,
                system: None,
            },
            EstimateRequest {
                testcase: Some("ga102".into()),
                system: Some(system),
            },
            EstimateRequest {
                testcase: Some("not-a-testcase".into()),
                system: None,
            },
        ] {
            let shown = format!("{bad:?}");
            assert!(
                matches!(bad.resolve(&db), Err(ServeError::Api(_))),
                "{shown}"
            );
        }
    }

    #[test]
    fn sweep_requests_resolve_named_and_structured_axes() {
        let db = TechDb::default();
        let named = SweepRequest::named("ga102-3chiplet", "lifetime");
        let (spec, slice) = named.resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), 7);
        assert_eq!(slice, SweepSlice::Shard(Shard::FULL));

        // The named form resolves to the same spec the CLI builds, so the
        // two front ends produce identical sweeps.
        let base = catalog::build(&db, "ga102-3chiplet").unwrap();
        let cli_axis = dse::named_sweep_axis("lifetime", &base).unwrap();
        let cli_spec = SweepSpec::new(base).axis(cli_axis);
        assert_eq!(spec, cli_spec);

        let structured = SweepRequest {
            axis: None,
            axes: Some(vec![SweepAxis::lifetimes_years(&[1.0, 2.0])]),
            ..SweepRequest::named("ga102", "ignored")
        };
        let (spec, _) = structured.resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), 2);

        // No axis at all sweeps the bare base system.
        let bare = SweepRequest {
            axis: None,
            ..SweepRequest::named("ga102", "ignored")
        };
        let (spec, _) = bare.resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), 1);
        let points = SweepEngine::serial()
            .run(&EcoChip::default(), &spec)
            .unwrap();
        assert_eq!(points.len(), 1);
    }

    #[test]
    fn every_builtin_design_and_named_sweep_passes_validation() {
        let db = TechDb::default();
        for testcase in catalog::names() {
            for axis in dse::NAMED_SWEEP_AXES.split('|') {
                let request = SweepRequest::named(testcase.as_str(), axis);
                let (spec, _) = request.resolve(&db).unwrap();
                assert_eq!(spec.validate(), spec.try_len(), "{testcase} {axis}");
            }
        }
    }

    #[test]
    fn out_of_range_chiplet_counts_are_refused_at_resolve() {
        use ecochip_core::disaggregation::{NodeTuple, SocBlocks};
        use ecochip_techdb::TechNode;

        let db = TechDb::default();
        let counts = |counts: Vec<usize>| SweepRequest {
            axis: None,
            axes: Some(vec![SweepAxis::ChipletCounts {
                blocks: SocBlocks::new("ga102", 20.0e9, 6.0e9, 2.3e9),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts,
            }]),
            ..SweepRequest::named("ga102", "ignored")
        };
        assert!(counts(vec![1, 2, 1024]).resolve(&db).is_ok());
        for (bad, text) in [
            (vec![0], "at least one chiplet"),
            (vec![1, 2000], "at most 1024"),
        ] {
            match counts(bad).resolve(&db) {
                Err(ServeError::Api(message)) => assert!(message.contains(text), "{message}"),
                other => panic!("expected an API error, got {other:?}"),
            }
        }
        // Optimize requests resolve through the same path.
        let optimize = OptimizeRequest {
            axis: None,
            axes: counts(vec![0]).axes,
            ..OptimizeRequest::named("ga102", "ignored")
        };
        assert!(matches!(optimize.resolve(&db), Err(ServeError::Api(_))));
    }

    #[test]
    fn out_of_range_chiplet_retargets_are_refused_at_resolve() {
        use ecochip_core::disaggregation::{NodeTuple, SocBlocks};
        use ecochip_techdb::TechNode;

        let db = TechDb::default();
        let blocks = SocBlocks::new("ga102", 20.0e9, 6.0e9, 2.3e9);
        let retarget = |index| SweepAxis::ChipletNode {
            index,
            nodes: vec![TechNode::N7],
        };
        let counts = SweepAxis::ChipletCounts {
            blocks: blocks.clone(),
            nodes: NodeTuple::uniform(TechNode::N7),
            counts: vec![4, 1],
        };
        let tuples = SweepAxis::NodeTuples {
            blocks,
            tuples: vec![NodeTuple::uniform(TechNode::N7)],
        };
        let monolithic = catalog::build(&db, "ga102").unwrap();
        let three = catalog::build(&db, "ga102-3chiplet").unwrap();
        let systems = SweepAxis::Systems(vec![
            ("three".into(), three.clone()),
            ("one".into(), monolithic.clone()),
        ]);
        assert_eq!((monolithic.chiplets.len(), three.chiplets.len()), (1, 3));
        let sweep = |testcase: &str, axes: Vec<SweepAxis>| SweepRequest {
            axis: None,
            axes: Some(axes),
            ..SweepRequest::named(testcase, "ignored")
        };
        // The fewest chiplets a case holds: the base, then whatever the
        // last chiplet-replacing axis before the retarget leaves.
        for (testcase, axes, fewest) in [
            ("ga102", vec![], 1),
            ("ga102-3chiplet", vec![], 3),
            ("ga102", vec![tuples.clone()], 3),
            ("ga102", vec![counts.clone()], 3),
            ("ga102-3chiplet", vec![systems.clone()], 1),
            ("ga102", vec![systems, counts], 3),
        ] {
            let with = |index| {
                let mut axes = axes.clone();
                axes.push(retarget(index));
                sweep(testcase, axes)
            };
            assert!(with(fewest - 1).resolve(&db).is_ok(), "{testcase} {axes:?}");
            match with(fewest).resolve(&db) {
                Err(ServeError::Api(message)) => assert!(
                    message.contains(&format!("retargets chiplet {fewest} ")),
                    "{message}"
                ),
                other => panic!("expected an API error, got {other:?}"),
            }
        }
        // A retarget applies before later axes replace the chiplets.
        assert!(sweep("ga102", vec![retarget(1), tuples])
            .resolve(&db)
            .is_err());
    }

    #[test]
    fn optimize_requests_resolve_methods_objectives_and_islands() {
        let db = TechDb::default();
        let named = OptimizeRequest::named("ga102-3chiplet", "lifetime");
        let (spec, shard, config) = named.resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), 7);
        assert_eq!(shard, Shard::FULL);
        assert_eq!(config.method, opt::OptMethod::Pareto);
        assert_eq!(config.objectives, opt::ObjectiveSet::default());
        assert_eq!(config.budget, opt::DEFAULT_BUDGET);
        assert_eq!(config.seed, opt::DEFAULT_SEED);
        assert_eq!(config.island, None);
        assert!(config.seed_frontier.is_empty());

        let mut full = OptimizeRequest::named("ga102-3chiplet", "lifetime");
        full.method = Some("anneal".into());
        full.objectives = Some("embodied,cost".into());
        full.budget = Some(33);
        full.seed = Some(42);
        let islanded = full.with_island(1, 3);
        let (_, shard, config) = islanded.resolve(&db).unwrap();
        assert_eq!((shard.index(), shard.of()), (1, 3));
        assert_eq!(config.island, Some(1));
        assert_eq!(config.method, opt::OptMethod::Anneal);
        assert_eq!(config.objectives.label(), "embodied,cost");
        assert_eq!((config.budget, config.seed), (33, 42));

        for (label, tweak) in [
            ("unknown method", ("method", "hillclimb")),
            ("unknown objective", ("objectives", "embodied,karma")),
            ("empty objectives", ("objectives", " , ")),
        ] {
            let mut bad = OptimizeRequest::named("ga102", "lifetime");
            match tweak.0 {
                "method" => bad.method = Some(tweak.1.into()),
                _ => bad.objectives = Some(tweak.1.into()),
            }
            assert!(
                matches!(bad.resolve(&db), Err(ServeError::Api(_))),
                "{label}"
            );
        }
    }

    #[test]
    fn sweep_request_shards_ranges_and_errors() {
        let db = TechDb::default();
        let sharded = SweepRequest::named("ga102-3chiplet", "lifetime").with_shard(1, 2);
        let (_, slice) = sharded.resolve(&db).unwrap();
        let SweepSlice::Shard(shard) = slice else {
            panic!("expected a shard slice, got {slice:?}");
        };
        assert_eq!((shard.index(), shard.of()), (1, 2));

        // The resume form: an explicit index range.
        let ranged = SweepRequest::named("ga102-3chiplet", "lifetime").with_range(3, 7);
        let (_, slice) = ranged.resolve(&db).unwrap();
        assert_eq!(slice, SweepSlice::Range(3..7));
        // with_range clears a previous shard and vice versa.
        let toggled = sharded.with_range(1, 2).with_shard(0, 2);
        assert_eq!(toggled.range, None);
        assert!(toggled.shard.is_some());

        for (label, bad) in [
            (
                "bad shard",
                SweepRequest {
                    shard: Some("7/2".into()),
                    ..SweepRequest::named("ga102", "lifetime")
                },
            ),
            ("unknown axis", SweepRequest::named("ga102", "temperature")),
            (
                "axis and axes",
                SweepRequest {
                    axes: Some(vec![SweepAxis::lifetimes_years(&[1.0])]),
                    ..SweepRequest::named("ga102", "lifetime")
                },
            ),
            (
                "shard and range",
                SweepRequest {
                    shard: Some("0/2".into()),
                    range: Some(IndexRange { start: 0, end: 1 }),
                    ..SweepRequest::named("ga102", "lifetime")
                },
            ),
        ] {
            assert!(
                matches!(bad.resolve(&db), Err(ServeError::Api(_))),
                "{label}"
            );
        }
    }

    #[test]
    fn sweep_formats_negotiate_and_roundtrip() {
        let request = SweepRequest::named("ga102", "lifetime");
        assert_eq!(request.negotiated_format().unwrap(), SweepFormat::NdJson);
        let framed = request.with_format(SweepFormat::Frames);
        assert_eq!(framed.negotiated_format().unwrap(), SweepFormat::Frames);
        // Shard/range restriction keeps the negotiated format, so failover
        // resumes stream in the same encoding as the first attempt.
        assert_eq!(
            framed.with_shard(0, 2).negotiated_format().unwrap(),
            SweepFormat::Frames
        );
        assert_eq!(
            framed.with_range(1, 3).negotiated_format().unwrap(),
            SweepFormat::Frames
        );
        let json = serde_json::to_string(&framed).unwrap();
        assert!(json.contains(r#""format":"frames""#), "{json}");
        let back: SweepRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, framed);
        let bad = SweepRequest {
            format: Some("xml".into()),
            ..SweepRequest::named("ga102", "lifetime")
        };
        assert!(matches!(bad.negotiated_format(), Err(ServeError::Api(_))));
        assert_eq!(SweepFormat::NdJson.content_type(), "application/x-ndjson");
        assert_eq!(
            SweepFormat::Frames.content_type(),
            crate::frames::CONTENT_TYPE
        );
    }

    #[test]
    fn batch_items_serialize_as_their_single_request_bodies() {
        let db = TechDb::default();
        let system = catalog::build(&db, "ga102").unwrap();
        let report = EcoChip::default().estimate(&system).unwrap();
        let response = EstimateResponse {
            system: system.name.clone(),
            embodied_fraction: report.embodied_fraction(),
            report,
        };
        // A successful element is byte-identical to the single-request body.
        let ok = BatchEstimateItem::Ok(response.clone());
        assert_eq!(
            serde_json::to_string(&ok).unwrap(),
            serde_json::to_string(&response).unwrap()
        );
        let back: BatchEstimateItem =
            serde_json::from_str(&serde_json::to_string(&ok).unwrap()).unwrap();
        assert_eq!(back, ok);
        // A failed element is byte-identical to the single-request error body.
        let error = ErrorResponse {
            error: "unknown testcase \"nope\"".into(),
        };
        let err = BatchEstimateItem::Err(error.clone());
        assert_eq!(
            serde_json::to_string(&err).unwrap(),
            serde_json::to_string(&error).unwrap()
        );
        let back: BatchEstimateItem =
            serde_json::from_str(&serde_json::to_string(&err).unwrap()).unwrap();
        assert_eq!(back, err);
        // Non-object elements are rejected, not misclassified.
        assert!(serde_json::from_str::<BatchEstimateItem>("3").is_err());
    }

    #[test]
    fn wire_types_roundtrip_through_json() {
        let request = SweepRequest::named("ga102", "lifetime").with_shard(0, 2);
        let json = serde_json::to_string(&request).unwrap();
        let back: SweepRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, request);

        let ranged = SweepRequest::named("ga102", "lifetime").with_range(2, 5);
        let json = serde_json::to_string(&ranged).unwrap();
        assert!(json.contains(r#""range":{"start":2,"end":5}"#), "{json}");
        let back: SweepRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ranged);

        // Missing optional fields deserialize as None.
        let sparse: SweepRequest = serde_json::from_str(r#"{"testcase":"ga102"}"#).unwrap();
        assert_eq!(sparse.testcase.as_deref(), Some("ga102"));
        assert_eq!(sparse.axis, None);
        assert_eq!(sparse.shard, None);

        let error = ErrorResponse {
            error: "nope".into(),
        };
        let json = serde_json::to_string(&error).unwrap();
        assert_eq!(json, r#"{"error":"nope"}"#);
    }
}
