//! A small hand-rolled Prometheus registry for the HTTP server.
//!
//! The build environment has no package registry, so — like the rest of
//! this crate — the metrics surface is hand-rolled on `std`: atomic
//! counters, a fixed-bucket latency histogram per [`Route`] (the label the
//! server's route table decodes each request into), and a renderer
//! that emits the Prometheus text exposition format (`# HELP` / `# TYPE`
//! comment lines followed by `name{labels} value` samples). The registry
//! records every server counter: the HTTP-layer signals (requests by route
//! and status, in-flight gauge, connections, per-route latency) and the
//! estimates served and sweep points streamed. The memo's hits, misses,
//! evictions and entries are pulled from the server's [`SweepContext`] at
//! render time, so `/metrics` is always a consistent snapshot of the same
//! counters `/v1/stats` reports.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ecochip_core::sweep::SweepContext;
use ecochip_trace::Stage;

use crate::api::SweepFormat;
use crate::server::Route;

/// The toolchain label baked in by `build.rs` (the output of
/// `rustc --version` at compile time), surfaced by the
/// `ecochip_build_info` gauge.
pub const TOOLCHAIN: &str = match option_env!("ECOCHIP_RUSTC_VERSION") {
    Some(version) => version,
    None => "unknown",
};

/// The crate version surfaced by the `ecochip_build_info` gauge.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The sweep-stream encodings tracked per-format (label values of the
/// `ecochip_sweep_stream_*` series).
const FORMATS: [SweepFormat; 2] = [SweepFormat::NdJson, SweepFormat::Frames];

fn format_index(format: SweepFormat) -> usize {
    match format {
        SweepFormat::NdJson => 0,
        SweepFormat::Frames => 1,
    }
}

/// Histogram bucket upper bounds, in seconds (an implicit `+Inf` bucket
/// follows). Spans sub-millisecond health probes to multi-second sweeps.
const BUCKETS: [f64; 7] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0];

/// Why a request or connection was refused with a 429 (label values of the
/// `ecochip_http_rejected_total` series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// A new connection refused at the open-connection cap.
    MaxConnections,
    /// A heavy request refused at the in-flight cap.
    MaxInflight,
}

impl Rejection {
    /// Every reason, in render order (the variants' declaration order).
    const ALL: [Rejection; 2] = [Rejection::MaxConnections, Rejection::MaxInflight];

    fn label(self) -> &'static str {
        match self {
            Rejection::MaxConnections => "max_connections",
            Rejection::MaxInflight => "max_inflight",
        }
    }
}

/// Cumulative request-latency observations of one route.
#[derive(Debug, Default)]
struct Histogram {
    /// Observations at or below each [`BUCKETS`] bound (cumulative, as
    /// Prometheus histograms are).
    buckets: [AtomicU64; BUCKETS.len()],
    /// Total observed time in microseconds (rendered as seconds).
    sum_micros: AtomicU64,
    /// Total observations (the implicit `+Inf` bucket).
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, elapsed: Duration) {
        let seconds = elapsed.as_secs_f64();
        // Update order matters for scrape consistency: bump the total
        // first, then the buckets from widest to narrowest, so a
        // concurrent render always sees a monotone cumulative histogram
        // (every bucket ≤ the next wider bucket ≤ `+Inf`).
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        for (bucket, bound) in self.buckets.iter().zip(BUCKETS).rev() {
            if seconds > bound {
                // Bounds descend from here on; none of the rest apply.
                break;
            }
            bucket.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Estimate the `q`-quantile (0 < q ≤ 1) of the observed latencies by
    /// linear interpolation within the histogram buckets — the same
    /// estimate Prometheus's `histogram_quantile` would compute from the
    /// exported series. Returns `None` with no observations; observations
    /// past the widest bucket clamp to its bound.
    fn quantile(&self, q: f64) -> Option<f64> {
        let (buckets, count) = self.snapshot()?;
        let rank = (q * count as f64).ceil().clamp(1.0, count as f64) as u64;
        let mut previous_bound = 0.0;
        let mut previous_cumulative = 0u64;
        for (cumulative, bound) in buckets.iter().zip(BUCKETS) {
            if *cumulative >= rank {
                let in_bucket = cumulative - previous_cumulative;
                let fraction = if in_bucket == 0 {
                    1.0
                } else {
                    (rank - previous_cumulative) as f64 / in_bucket as f64
                };
                return Some(previous_bound + (bound - previous_bound) * fraction);
            }
            previous_bound = bound;
            previous_cumulative = *cumulative;
        }
        Some(previous_bound)
    }

    /// The cumulative bucket counts and the total, or `None` with no
    /// observations.
    fn snapshot(&self) -> Option<([u64; BUCKETS.len()], u64)> {
        // Load the buckets *before* the total: the writer bumps the total
        // first (see `observe`), so a total loaded after the buckets is ≥
        // every bucket value read here and the snapshot stays monotone
        // under concurrent observations.
        let buckets = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = self.count.load(Ordering::Relaxed);
        (count > 0).then_some((buckets, count))
    }
}

/// Render one histogram family: its `# HELP` / `# TYPE` lines, then, for
/// each series with observations, the cumulative `_bucket` samples, `_sum`
/// and `_count`, labelled `key="value"`.
fn render_histograms<'a>(
    sample: &mut impl FnMut(String),
    name: &str,
    help: &str,
    key: &str,
    series: impl IntoIterator<Item = (&'a str, &'a Histogram)>,
) {
    sample(format!("# HELP {name} {help}"));
    sample(format!("# TYPE {name} histogram"));
    for (value, histogram) in series {
        let Some((buckets, count)) = histogram.snapshot() else {
            continue;
        };
        let label = format!("{key}=\"{value}\"");
        for (cumulative, bound) in buckets.iter().zip(BUCKETS) {
            sample(format!(
                "{name}_bucket{{{label},le=\"{bound}\"}} {cumulative}"
            ));
        }
        sample(format!("{name}_bucket{{{label},le=\"+Inf\"}} {count}"));
        sample(format!(
            "{name}_sum{{{label}}} {}",
            histogram.sum_micros.load(Ordering::Relaxed) as f64 / 1.0e6
        ));
        sample(format!("{name}_count{{{label}}} {count}"));
    }
}

/// The server's metrics registry: HTTP-layer counters plus a latency
/// histogram per route. One instance lives in the server state; handler
/// threads record into it lock-free (the per-status counter map is the one
/// mutex, taken once per request).
#[derive(Debug)]
pub struct Metrics {
    /// TCP connections accepted by the handler pool.
    connections: AtomicU64,
    /// Requests currently being handled.
    in_flight: AtomicU64,
    /// Requests served, keyed by `(route index, status code)`. A `BTreeMap`
    /// keeps the render order deterministic.
    requests: Mutex<BTreeMap<(usize, u16), u64>>,
    /// Per-route request latency, indexed by [`Route`].
    latency: [Histogram; Route::LABELS.len()],
    /// Sweep-stream payload bytes sent, per encoding ([`FORMATS`] order).
    sweep_bytes: [AtomicU64; FORMATS.len()],
    /// Sweep-stream wall time, per encoding ([`FORMATS`] order).
    sweep_streams: [Histogram; FORMATS.len()],
    /// Accumulated per-stage sweep time, indexed by [`Stage`] (whose `ALL`
    /// lists the variants in declaration order), observed once per
    /// instrumented sweep request per stage.
    stage_durations: [Histogram; Stage::ALL.len()],
    /// Open connections parked in the event loop (gauge).
    idle_connections: AtomicU64,
    /// Open connections checked out to the handler pool (gauge).
    active_connections: AtomicU64,
    /// 429 rejections, indexed by [`Rejection`].
    rejected: [AtomicU64; Rejection::ALL.len()],
    /// Event-loop wakeups (returns from the readiness wait, including
    /// timeout ticks and self-pipe nudges).
    wakeups: AtomicU64,
    /// Estimates served, single requests and batch items alike (errors
    /// excluded).
    estimates: AtomicU64,
    /// Sweep points streamed: every point of a batch whose write
    /// succeeded.
    sweep_points: AtomicU64,
    /// When this registry was created (server start), for the uptime gauge.
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// One route's latency digest for `GET /v1/stats`: observation count plus
/// bucket-interpolated p50/p99 (see [`Metrics::latency_summaries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteLatencySummary {
    /// The route label (see [`Route::label`]).
    pub route: &'static str,
    /// Requests observed on this route.
    pub count: u64,
    /// Estimated median latency, seconds.
    pub p50_seconds: f64,
    /// Estimated 99th-percentile latency, seconds.
    pub p99_seconds: f64,
}

impl Metrics {
    /// A fresh registry with every counter at zero and the uptime clock
    /// starting now.
    pub fn new() -> Self {
        Self {
            connections: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            requests: Mutex::new(BTreeMap::new()),
            latency: Default::default(),
            sweep_bytes: Default::default(),
            sweep_streams: Default::default(),
            stage_durations: Default::default(),
            idle_connections: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            rejected: Default::default(),
            wakeups: AtomicU64::new(0),
            estimates: AtomicU64::new(0),
            sweep_points: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Seconds since this registry (the server) started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Record one sweep request's accumulated time in `stage` (the
    /// per-request [`ecochip_trace::StageTimings`] total, not per point —
    /// so the histogram answers "where did this request's time go").
    pub fn observe_stage(&self, stage: Stage, seconds: f64) {
        self.stage_durations[stage as usize].observe(Duration::from_secs_f64(seconds.max(0.0)));
    }

    /// Per-route latency digests (count, p50, p99) for every route that
    /// has served at least one request, in [`Route::LABELS`] order.
    pub fn latency_summaries(&self) -> Vec<RouteLatencySummary> {
        Route::LABELS
            .iter()
            .zip(&self.latency)
            .filter_map(|(route, histogram)| {
                let count = histogram.count.load(Ordering::Relaxed);
                let p50 = histogram.quantile(0.50)?;
                let p99 = histogram.quantile(0.99)?;
                Some(RouteLatencySummary {
                    route,
                    count,
                    p50_seconds: p50,
                    p99_seconds: p99,
                })
            })
            .collect()
    }

    /// Record an accepted connection.
    pub fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total connections accepted so far (tests assert keep-alive reuse by
    /// comparing this against the request count).
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Mark one request as in flight (pair with [`Metrics::observe`]).
    pub fn request_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish the event loop's connection census: how many open
    /// connections are parked in the loop (idle) vs. checked out to a
    /// handler thread (active).
    pub fn set_connection_gauges(&self, idle: u64, active: u64) {
        self.idle_connections.store(idle, Ordering::Relaxed);
        self.active_connections.store(active, Ordering::Relaxed);
    }

    /// Open connections parked in the event loop right now.
    pub fn idle_connections(&self) -> u64 {
        self.idle_connections.load(Ordering::Relaxed)
    }

    /// Open connections checked out to the handler pool right now.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::Relaxed)
    }

    /// Record a 429 rejection.
    pub fn rejected(&self, reason: Rejection) {
        self.rejected[reason as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total 429 rejections across every reason.
    pub fn rejected_total(&self) -> u64 {
        self.rejected
            .iter()
            .map(|counter| counter.load(Ordering::Relaxed))
            .sum()
    }

    /// Record one event-loop wakeup (a return from the readiness wait).
    pub fn wakeup(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Total event-loop wakeups so far.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }

    /// Record one estimate served (a single request or one batch item).
    pub fn estimate_served(&self) {
        self.estimates.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `points` sweep points put on the wire.
    pub fn sweep_points_sent(&self, points: u64) {
        self.sweep_points.fetch_add(points, Ordering::Relaxed);
    }

    /// Sweep points streamed so far.
    pub fn sweep_points(&self) -> u64 {
        self.sweep_points.load(Ordering::Relaxed)
    }

    /// Record a finished sweep response stream: how many payload bytes the
    /// encoding put on the wire (NDJSON lines or ECOF header+frames, not
    /// counting the HTTP chunked-transfer framing) and how long the stream
    /// took end to end.
    pub fn sweep_stream_finished(&self, format: SweepFormat, bytes: u64, elapsed: Duration) {
        let index = format_index(format);
        self.sweep_bytes[index].fetch_add(bytes, Ordering::Relaxed);
        self.sweep_streams[index].observe(elapsed);
    }

    /// Record a finished request: status, latency, and the in-flight
    /// decrement.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        let index = route as usize;
        self.latency[index].observe(elapsed);
        *self
            .requests
            .lock()
            .expect("request counters")
            .entry((index, status))
            .or_insert(0) += 1;
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Render the registry (plus the memo counters of `context`) in the
    /// Prometheus text exposition format. Every line is either a
    /// `# HELP` / `# TYPE` comment or a `name{labels} value` sample.
    pub fn render(&self, context: &SweepContext) -> String {
        let mut out = String::with_capacity(4096);
        let mut sample = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };

        sample(
            "# HELP ecochip_build_info Build metadata (constant 1; the info is in the labels)."
                .into(),
        );
        sample("# TYPE ecochip_build_info gauge".into());
        sample(format!(
            "ecochip_build_info{{version=\"{VERSION}\",toolchain=\"{}\"}} 1",
            TOOLCHAIN.replace('"', "'")
        ));

        sample("# HELP ecochip_uptime_seconds Seconds since the server started.".into());
        sample("# TYPE ecochip_uptime_seconds gauge".into());
        sample(format!(
            "ecochip_uptime_seconds {:.3}",
            self.uptime_seconds()
        ));

        sample("# HELP ecochip_http_connections_total TCP connections accepted.".into());
        sample("# TYPE ecochip_http_connections_total counter".into());
        sample(format!(
            "ecochip_http_connections_total {}",
            self.connections.load(Ordering::Relaxed)
        ));

        sample(
            "# HELP ecochip_http_connections_open Open connections, by state (idle = parked in \
             the event loop, active = checked out to a handler)."
                .into(),
        );
        sample("# TYPE ecochip_http_connections_open gauge".into());
        sample(format!(
            "ecochip_http_connections_open{{state=\"idle\"}} {}",
            self.idle_connections.load(Ordering::Relaxed)
        ));
        sample(format!(
            "ecochip_http_connections_open{{state=\"active\"}} {}",
            self.active_connections.load(Ordering::Relaxed)
        ));

        sample(
            "# HELP ecochip_http_rejected_total Connections and requests refused with 429 Too \
             Many Requests, by reason."
                .into(),
        );
        sample("# TYPE ecochip_http_rejected_total counter".into());
        for reason in Rejection::ALL {
            sample(format!(
                "ecochip_http_rejected_total{{reason=\"{}\"}} {}",
                reason.label(),
                self.rejected[reason as usize].load(Ordering::Relaxed)
            ));
        }

        sample("# HELP ecochip_event_loop_wakeups_total Event-loop readiness-wait returns.".into());
        sample("# TYPE ecochip_event_loop_wakeups_total counter".into());
        sample(format!(
            "ecochip_event_loop_wakeups_total {}",
            self.wakeups.load(Ordering::Relaxed)
        ));

        sample("# HELP ecochip_http_requests_in_flight Requests currently being handled.".into());
        sample("# TYPE ecochip_http_requests_in_flight gauge".into());
        sample(format!(
            "ecochip_http_requests_in_flight {}",
            self.in_flight.load(Ordering::Relaxed)
        ));

        sample("# HELP ecochip_http_requests_total Requests served, by route and status.".into());
        sample("# TYPE ecochip_http_requests_total counter".into());
        for ((route, status), count) in self.requests.lock().expect("request counters").iter() {
            sample(format!(
                "ecochip_http_requests_total{{route=\"{}\",status=\"{status}\"}} {count}",
                Route::LABELS[*route]
            ));
        }

        render_histograms(
            &mut sample,
            "ecochip_http_request_duration_seconds",
            "Request latency, by route.",
            "route",
            Route::LABELS.into_iter().zip(&self.latency),
        );

        sample(
            "# HELP ecochip_sweep_stream_bytes_total Sweep-stream payload bytes sent, by encoding."
                .into(),
        );
        sample("# TYPE ecochip_sweep_stream_bytes_total counter".into());
        for format in FORMATS {
            sample(format!(
                "ecochip_sweep_stream_bytes_total{{format=\"{}\"}} {}",
                format.label(),
                self.sweep_bytes[format_index(format)].load(Ordering::Relaxed)
            ));
        }

        render_histograms(
            &mut sample,
            "ecochip_sweep_stream_duration_seconds",
            "Sweep-stream wall time, by encoding.",
            "format",
            FORMATS
                .map(SweepFormat::label)
                .into_iter()
                .zip(&self.sweep_streams),
        );
        render_histograms(
            &mut sample,
            "ecochip_sweep_stage_duration_seconds",
            "Accumulated per-stage time of instrumented sweep requests, by stage.",
            "stage",
            Stage::ALL
                .map(Stage::label)
                .into_iter()
                .zip(&self.stage_durations),
        );

        sample("# HELP ecochip_estimates_total Single-system estimates served.".into());
        sample("# TYPE ecochip_estimates_total counter".into());
        sample(format!(
            "ecochip_estimates_total {}",
            self.estimates.load(Ordering::Relaxed)
        ));
        sample("# HELP ecochip_sweep_points_total Sweep points evaluated and emitted.".into());
        sample("# TYPE ecochip_sweep_points_total counter".into());
        sample(format!(
            "ecochip_sweep_points_total {}",
            self.sweep_points.load(Ordering::Relaxed)
        ));

        let stats = context.stats();
        let caches = [
            (
                "floorplan",
                stats.floorplan_hits,
                stats.floorplan_misses,
                stats.floorplan_evictions,
                context.floorplan_entries(),
            ),
            (
                "manufacturing",
                stats.manufacturing_hits,
                stats.manufacturing_misses,
                stats.manufacturing_evictions,
                context.manufacturing_entries(),
            ),
        ];
        sample("# HELP ecochip_memo_hits_total Memo entries served from the cache.".into());
        sample("# TYPE ecochip_memo_hits_total counter".into());
        for (cache, hits, ..) in caches {
            sample(format!(
                "ecochip_memo_hits_total{{cache=\"{cache}\"}} {hits}"
            ));
        }
        sample("# HELP ecochip_memo_misses_total Memo entries computed from scratch.".into());
        sample("# TYPE ecochip_memo_misses_total counter".into());
        for (cache, _, misses, ..) in caches {
            sample(format!(
                "ecochip_memo_misses_total{{cache=\"{cache}\"}} {misses}"
            ));
        }
        sample(
            "# HELP ecochip_memo_evictions_total Memo entries evicted by the capacity bound."
                .into(),
        );
        sample("# TYPE ecochip_memo_evictions_total counter".into());
        for (cache, _, _, evictions, _) in caches {
            sample(format!(
                "ecochip_memo_evictions_total{{cache=\"{cache}\"}} {evictions}"
            ));
        }
        sample("# HELP ecochip_memo_entries Memo entries currently cached.".into());
        sample("# TYPE ecochip_memo_entries gauge".into());
        for (cache, .., entries) in caches {
            sample(format!(
                "ecochip_memo_entries{{cache=\"{cache}\"}} {entries}"
            ));
        }
        out
    }
}

/// Validate one line of Prometheus text format: a `# HELP` / `# TYPE`
/// comment or a `name{labels} value` sample. Shared by the unit tests here
/// and the e2e tests, and mirrors the check CI applies with `awk`.
pub fn is_valid_metrics_line(line: &str) -> bool {
    if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
        return true;
    }
    let Some((name_part, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let name = match name_part.split_once('{') {
        Some((name, labels)) => {
            if !labels.ends_with('}') {
                return false;
            }
            name
        }
        None => name_part,
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return false;
    }
    value.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The label a request is filed under, served or refused.
    fn filed_under(method: &str, path: &str, body: &[u8]) -> &'static str {
        let (Ok(route) | Err(route)) = Route::decode(method, path, body);
        route.label()
    }

    #[test]
    fn route_labels_cover_the_api_surface() {
        assert_eq!(filed_under("GET", "/v1/healthz", b""), "healthz");
        assert_eq!(filed_under("POST", "/v1/sweep", b""), "sweep");
        assert_eq!(filed_under("POST", "/v1/optimize", b""), "optimize");
        assert_eq!(filed_under("GET", "/v1/memo", b""), "other");
        assert_eq!(filed_under("GET", "/metrics", b""), "metrics");
        assert_eq!(filed_under("GET", "/v2/nope", b""), "other");
        for route in [
            filed_under("GET", "/v1/stats", b""),
            filed_under("GET", "/v1/testcases", b""),
            filed_under("POST", "/v1/estimate", b""),
            filed_under("POST", "/v1/shutdown", b""),
        ] {
            assert!(Route::LABELS.contains(&route));
        }
    }

    #[test]
    fn batch_estimate_bodies_get_their_own_route_label() {
        let batch = b"[{\"testcase\":\"ga102\"}]";
        assert_eq!(filed_under("POST", "/v1/estimate", batch), "estimate_batch");
        assert_eq!(
            filed_under("POST", "/v1/estimate", b"  \n\t[]"),
            "estimate_batch"
        );
        assert_eq!(
            filed_under("POST", "/v1/estimate", b"{\"testcase\":\"ga102\"}"),
            "estimate"
        );
        assert_eq!(filed_under("POST", "/v1/estimate", b""), "estimate");
        // Only the estimate endpoint sniffs its body.
        assert_eq!(filed_under("POST", "/v1/sweep", b"[]"), "sweep");
        assert_eq!(filed_under("GET", "/v1/healthz", b""), "healthz");
        assert!(Route::LABELS.contains(&"estimate_batch"));

        // The batch form keeps its own series.
        let metrics = Metrics::new();
        metrics.request_started();
        metrics.observe(Route::EstimateBatch, 200, Duration::from_millis(3));
        let text = metrics.render(&SweepContext::new());
        assert!(
            text.contains("ecochip_http_requests_total{route=\"estimate_batch\",status=\"200\"} 1")
        );
    }

    #[test]
    fn rendered_output_is_valid_prometheus_text_format() {
        let metrics = Metrics::new();
        metrics.connection_opened();
        metrics.request_started();
        metrics.observe(Route::Estimate, 200, Duration::from_micros(750));
        metrics.request_started();
        metrics.observe(Route::Estimate, 400, Duration::from_millis(30));
        metrics.request_started();
        metrics.observe(Route::Sweep, 200, Duration::from_secs(20));
        metrics.request_started();
        metrics.observe(Route::EstimateBatch, 200, Duration::from_millis(3));

        let text = metrics.render(&SweepContext::new());
        for line in text.lines() {
            assert!(is_valid_metrics_line(line), "invalid metrics line: {line}");
        }

        // Histogram consistency, per rendered route: cumulative buckets are
        // monotone non-decreasing in `le`, the `+Inf` bucket equals `_count`,
        // and the by-status request counters sum to the same `_count`.
        let bucket_values = |route: &str| -> Vec<u64> {
            let prefix =
                format!("ecochip_http_request_duration_seconds_bucket{{route=\"{route}\",le=\"");
            text.lines()
                .filter(|line| line.starts_with(&prefix))
                .map(|line| line.rsplit(' ').next().unwrap().parse().unwrap())
                .collect()
        };
        let counter = |name: &str, labels: &str| -> u64 {
            text.lines()
                .filter(|line| line.starts_with(&format!("{name}{{{labels}")))
                .map(|line| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        for route in ["estimate", "estimate_batch", "sweep"] {
            let buckets = bucket_values(route);
            assert_eq!(buckets.len(), BUCKETS.len() + 1, "route {route}");
            assert!(
                buckets.windows(2).all(|pair| pair[0] <= pair[1]),
                "route {route} buckets not monotone: {buckets:?}"
            );
            let count = counter(
                "ecochip_http_request_duration_seconds_count",
                &format!("route=\"{route}\"}}"),
            );
            assert_eq!(
                *buckets.last().unwrap(),
                count,
                "route {route} +Inf bucket must equal _count"
            );
            let by_status = counter(
                "ecochip_http_requests_total",
                &format!("route=\"{route}\","),
            );
            assert_eq!(
                by_status, count,
                "route {route} status counters must sum to _count"
            );
        }
        assert!(text.contains("ecochip_http_connections_total 1"));
        assert!(text.contains("ecochip_http_requests_in_flight 0"));
        assert!(text.contains("ecochip_http_requests_total{route=\"estimate\",status=\"200\"} 1"));
        assert!(text.contains("ecochip_http_requests_total{route=\"estimate\",status=\"400\"} 1"));
        // The 750µs observation lands in every bucket from 1ms up; the 20s
        // one only in +Inf.
        assert!(text.contains(
            "ecochip_http_request_duration_seconds_bucket{route=\"estimate\",le=\"0.001\"} 1"
        ));
        assert!(text
            .contains("ecochip_http_request_duration_seconds_bucket{route=\"sweep\",le=\"10\"} 0"));
        assert!(text.contains(
            "ecochip_http_request_duration_seconds_bucket{route=\"sweep\",le=\"+Inf\"} 1"
        ));
        assert!(text.contains("ecochip_http_request_duration_seconds_count{route=\"estimate\"} 2"));
        assert!(text.contains("ecochip_memo_hits_total{cache=\"floorplan\"} 0"));
        assert!(text.contains("ecochip_memo_entries{cache=\"manufacturing\"} 0"));
    }

    #[test]
    fn sweep_stream_series_render_per_format_and_validate() {
        let metrics = Metrics::new();
        // Nothing streamed yet: byte counters render at zero, histograms
        // are suppressed until they have observations.
        let context = SweepContext::new();
        let idle = metrics.render(&context);
        assert!(idle.contains("ecochip_sweep_stream_bytes_total{format=\"ndjson\"} 0"));
        assert!(idle.contains("ecochip_sweep_stream_bytes_total{format=\"frames\"} 0"));
        assert!(!idle.contains("ecochip_sweep_stream_duration_seconds_bucket"));

        metrics.sweep_stream_finished(SweepFormat::NdJson, 1024, Duration::from_millis(12));
        metrics.sweep_stream_finished(SweepFormat::NdJson, 2048, Duration::from_millis(700));
        metrics.sweep_stream_finished(SweepFormat::Frames, 768, Duration::from_micros(400));

        let text = metrics.render(&context);
        for line in text.lines() {
            assert!(is_valid_metrics_line(line), "invalid metrics line: {line}");
        }
        assert!(text.contains("ecochip_sweep_stream_bytes_total{format=\"ndjson\"} 3072"));
        assert!(text.contains("ecochip_sweep_stream_bytes_total{format=\"frames\"} 768"));
        assert!(text.contains("ecochip_sweep_stream_duration_seconds_count{format=\"ndjson\"} 2"));
        assert!(text.contains("ecochip_sweep_stream_duration_seconds_count{format=\"frames\"} 1"));
        // The 400µs frames stream lands in the 1ms bucket; the 700ms ndjson
        // stream only from the 2.5s bucket up.
        assert!(text.contains(
            "ecochip_sweep_stream_duration_seconds_bucket{format=\"frames\",le=\"0.001\"} 1"
        ));
        assert!(text.contains(
            "ecochip_sweep_stream_duration_seconds_bucket{format=\"ndjson\",le=\"0.5\"} 1"
        ));
        assert!(text.contains(
            "ecochip_sweep_stream_duration_seconds_bucket{format=\"ndjson\",le=\"2.5\"} 2"
        ));
        // Cumulative buckets stay monotone per format.
        for format in ["ndjson", "frames"] {
            let prefix =
                format!("ecochip_sweep_stream_duration_seconds_bucket{{format=\"{format}\",le=\"");
            let buckets: Vec<u64> = text
                .lines()
                .filter(|line| line.starts_with(&prefix))
                .map(|line| line.rsplit(' ').next().unwrap().parse().unwrap())
                .collect();
            assert_eq!(buckets.len(), BUCKETS.len() + 1, "format {format}");
            assert!(
                buckets.windows(2).all(|pair| pair[0] <= pair[1]),
                "format {format} buckets not monotone: {buckets:?}"
            );
        }
    }

    #[test]
    fn event_loop_series_render_and_validate() {
        let metrics = Metrics::new();
        let context = SweepContext::new();

        // Fresh registry: gauges and counters render at zero (the series
        // exist even before the first connection, so dashboards never see
        // a missing metric).
        let idle = metrics.render(&context);
        assert!(idle.contains("ecochip_http_connections_open{state=\"idle\"} 0"));
        assert!(idle.contains("ecochip_http_connections_open{state=\"active\"} 0"));
        assert!(idle.contains("ecochip_http_rejected_total{reason=\"max_connections\"} 0"));
        assert!(idle.contains("ecochip_http_rejected_total{reason=\"max_inflight\"} 0"));
        assert!(idle.contains("ecochip_event_loop_wakeups_total 0"));

        metrics.set_connection_gauges(10_000, 3);
        metrics.rejected(Rejection::MaxInflight);
        metrics.rejected(Rejection::MaxInflight);
        metrics.rejected(Rejection::MaxConnections);
        for _ in 0..5 {
            metrics.wakeup();
        }

        let text = metrics.render(&context);
        for line in text.lines() {
            assert!(is_valid_metrics_line(line), "invalid metrics line: {line}");
        }
        assert!(text.contains("ecochip_http_connections_open{state=\"idle\"} 10000"));
        assert!(text.contains("ecochip_http_connections_open{state=\"active\"} 3"));
        assert!(text.contains("ecochip_http_rejected_total{reason=\"max_inflight\"} 2"));
        assert!(text.contains("ecochip_http_rejected_total{reason=\"max_connections\"} 1"));
        assert!(text.contains("ecochip_event_loop_wakeups_total 5"));
        assert_eq!(metrics.rejected_total(), 3);
        assert_eq!(metrics.wakeups(), 5);
        assert_eq!(metrics.idle_connections(), 10_000);
        assert_eq!(metrics.active_connections(), 3);

        // Gauges are set-not-accumulate: a fresh census replaces the old.
        metrics.set_connection_gauges(2, 0);
        let text = metrics.render(&context);
        assert!(text.contains("ecochip_http_connections_open{state=\"idle\"} 2"));
        assert!(text.contains("ecochip_http_connections_open{state=\"active\"} 0"));
    }

    #[test]
    fn histogram_families_render_exactly() {
        let metrics = Metrics::new();
        for (route, elapsed) in [
            (Route::Estimate, Duration::from_micros(750)),
            (Route::Estimate, Duration::from_millis(30)),
            (Route::Sweep, Duration::from_secs(20)),
        ] {
            metrics.request_started();
            metrics.observe(route, 200, elapsed);
        }
        metrics.sweep_stream_finished(SweepFormat::NdJson, 1, Duration::from_millis(12));
        metrics.sweep_stream_finished(SweepFormat::Frames, 1, Duration::from_micros(400));
        metrics.observe_stage(Stage::Decode, 0.002);
        metrics.observe_stage(Stage::Emit, 3.0);
        let text = metrics.render(&SweepContext::new());
        let histograms: Vec<&str> = text
            .lines()
            .filter(|line| line.contains("_duration_seconds"))
            .collect();
        assert_eq!(histograms, HISTOGRAM_FAMILIES.lines().collect::<Vec<_>>());
    }

    /// The three histogram families for the observations of
    /// `histogram_families_render_exactly`; routes, formats and stages
    /// without observations render no samples.
    const HISTOGRAM_FAMILIES: &str = r#"# HELP ecochip_http_request_duration_seconds Request latency, by route.
# TYPE ecochip_http_request_duration_seconds histogram
ecochip_http_request_duration_seconds_bucket{route="estimate",le="0.001"} 1
ecochip_http_request_duration_seconds_bucket{route="estimate",le="0.005"} 1
ecochip_http_request_duration_seconds_bucket{route="estimate",le="0.025"} 1
ecochip_http_request_duration_seconds_bucket{route="estimate",le="0.1"} 2
ecochip_http_request_duration_seconds_bucket{route="estimate",le="0.5"} 2
ecochip_http_request_duration_seconds_bucket{route="estimate",le="2.5"} 2
ecochip_http_request_duration_seconds_bucket{route="estimate",le="10"} 2
ecochip_http_request_duration_seconds_bucket{route="estimate",le="+Inf"} 2
ecochip_http_request_duration_seconds_sum{route="estimate"} 0.03075
ecochip_http_request_duration_seconds_count{route="estimate"} 2
ecochip_http_request_duration_seconds_bucket{route="sweep",le="0.001"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="0.005"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="0.025"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="0.1"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="0.5"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="2.5"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="10"} 0
ecochip_http_request_duration_seconds_bucket{route="sweep",le="+Inf"} 1
ecochip_http_request_duration_seconds_sum{route="sweep"} 20
ecochip_http_request_duration_seconds_count{route="sweep"} 1
# HELP ecochip_sweep_stream_duration_seconds Sweep-stream wall time, by encoding.
# TYPE ecochip_sweep_stream_duration_seconds histogram
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="0.001"} 0
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="0.005"} 0
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="0.025"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="0.1"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="0.5"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="2.5"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="10"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="ndjson",le="+Inf"} 1
ecochip_sweep_stream_duration_seconds_sum{format="ndjson"} 0.012
ecochip_sweep_stream_duration_seconds_count{format="ndjson"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="0.001"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="0.005"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="0.025"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="0.1"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="0.5"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="2.5"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="10"} 1
ecochip_sweep_stream_duration_seconds_bucket{format="frames",le="+Inf"} 1
ecochip_sweep_stream_duration_seconds_sum{format="frames"} 0.0004
ecochip_sweep_stream_duration_seconds_count{format="frames"} 1
# HELP ecochip_sweep_stage_duration_seconds Accumulated per-stage time of instrumented sweep requests, by stage.
# TYPE ecochip_sweep_stage_duration_seconds histogram
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="0.001"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="0.005"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="0.025"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="0.1"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="0.5"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="2.5"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="10"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="decode",le="+Inf"} 1
ecochip_sweep_stage_duration_seconds_sum{stage="decode"} 0.002
ecochip_sweep_stage_duration_seconds_count{stage="decode"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="0.001"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="0.005"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="0.025"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="0.1"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="0.5"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="2.5"} 0
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="10"} 1
ecochip_sweep_stage_duration_seconds_bucket{stage="emit",le="+Inf"} 1
ecochip_sweep_stage_duration_seconds_sum{stage="emit"} 3
ecochip_sweep_stage_duration_seconds_count{stage="emit"} 1"#;

    #[test]
    fn metrics_line_validator_rejects_garbage() {
        assert!(is_valid_metrics_line("# HELP x y"));
        assert!(is_valid_metrics_line("# TYPE x counter"));
        assert!(is_valid_metrics_line("ecochip_up 1"));
        assert!(is_valid_metrics_line("a_b{route=\"x\",le=\"+Inf\"} 12.5"));
        assert!(!is_valid_metrics_line(""));
        assert!(!is_valid_metrics_line("# comment"));
        assert!(!is_valid_metrics_line("no-value"));
        assert!(!is_valid_metrics_line("name{unclosed 1"));
        assert!(!is_valid_metrics_line("name one"));
        assert!(!is_valid_metrics_line("1leading_digit 2"));
        assert!(!is_valid_metrics_line("bad name 1"));
    }
}
