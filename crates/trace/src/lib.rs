//! Structured logging, hand-rolled spans and trace propagation for the
//! ECO-CHIP fleet — zero dependencies, like everything else in the tree.
//!
//! Three cooperating layers:
//!
//! - **Structured logging** with levels ([`Level`]) and two output
//!   formats ([`LogFormat::Text`] for humans, [`LogFormat::Json`] NDJSON
//!   for machines). One event is one line on stderr, written with a
//!   single buffered `write` under the stderr lock so concurrent
//!   threads never interleave. The global level defaults to
//!   [`Level::Warn`] (warnings always print, narration stays quiet) and
//!   honours the `ECOCHIP_LOG` environment variable via
//!   [`init_from_env`].
//! - **Trace context**: a request-scoped [`TraceId`] ([`mint_trace_id`],
//!   or a peer's ID adopted with [`TraceId::parse`]) carried in a
//!   thread-local and installed with a scope guard
//!   ([`set_current_trace`]). The ID is held inline, so installing,
//!   copying and echoing it never allocates. Log events and spans pick
//!   the current trace up automatically, so one grep for the ID
//!   reconstructs a request's timeline across log files.
//! - **Spans**: monotonic-clock timed regions ([`span`]) with
//!   `&'static str` names, kept on a thread-local stack for parent/child
//!   nesting, so opening and recording one allocates nothing. Completed
//!   spans land in a bounded lock-free-ish ring buffer (an atomic write
//!   cursor over per-slot mutexes — writers never contend except on
//!   cursor wrap) that [`recent_spans`] snapshots for live debugging
//!   (`GET /v1/trace` in `ecochip-serve`).
//!
//! Per-stage duration accounting for the sweep hot path lives in
//! [`StageTimings`]: plain atomic accumulators the engine bumps per
//! point when (and only when) a collector is attached, so the disabled
//! path costs one branch per point.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Levels and global logger configuration
// ---------------------------------------------------------------------------

/// Severity of a log event, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed and was not recovered.
    Error,
    /// Something degraded but the process carries on (the default
    /// visibility threshold).
    Warn,
    /// Request-level narration: access logs, memo stats, lifecycle.
    Info,
    /// Verbose diagnostics for development.
    Debug,
}

impl Level {
    /// The lowercase wire label (`"error"`, `"warn"`, `"info"`,
    /// `"debug"`).
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a level name (case-insensitive). Returns `None` for
    /// anything that is not one of the four labels.
    pub fn parse(text: &str) -> Option<Level> {
        match text.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(value: u8) -> Level {
        match value {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

/// How log lines are rendered on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// Human-oriented: `LEVEL target: message key=value …`.
    Text,
    /// One JSON object per line (NDJSON) with `ts`, `level`, `target`,
    /// `msg`, optional `trace`, and every structured field.
    Json,
}

impl LogFormat {
    /// Parse a format name (case-insensitive `"text"` or `"json"`).
    pub fn parse(text: &str) -> Option<LogFormat> {
        match text.to_ascii_lowercase().as_str() {
            "text" => Some(LogFormat::Text),
            "json" => Some(LogFormat::Json),
            _ => None,
        }
    }
}

/// Global visibility threshold (`Level as u8`; default `Warn`).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);
/// Global output format (0 = text, 1 = json).
static FORMAT: AtomicU8 = AtomicU8::new(0);

/// Set the global visibility threshold: events at this level or more
/// severe reach stderr.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global visibility threshold.
pub fn level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Raise the threshold to `level` if it is currently stricter (never
/// lowers it) — how `--verbose` turns narration on without silencing an
/// explicit `--log-level debug`.
pub fn raise_level(level: Level) {
    MAX_LEVEL.fetch_max(level as u8, Ordering::Relaxed);
}

/// Set the global stderr rendering format.
pub fn set_format(format: LogFormat) {
    FORMAT.store(matches!(format, LogFormat::Json) as u8, Ordering::Relaxed);
}

/// The current global stderr rendering format.
pub fn format() -> LogFormat {
    if FORMAT.load(Ordering::Relaxed) == 0 {
        LogFormat::Text
    } else {
        LogFormat::Json
    }
}

/// Apply `ECOCHIP_LOG` (one of `error|warn|info|debug`) to the global
/// threshold; unknown or unset values leave the default alone.
pub fn init_from_env() {
    if let Ok(value) = std::env::var("ECOCHIP_LOG") {
        if let Some(level) = Level::parse(&value) {
            set_level(level);
        }
    }
}

/// Whether an event at `level` would reach stderr right now.
pub fn enabled(level: Level) -> bool {
    (level as u8) <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Whether an event at `level` would reach stderr or a capture sink right
/// now: callers on hot paths check it before building an event's fields.
pub fn observed(level: Level) -> bool {
    enabled(level) || SINK_COUNT.load(Ordering::Relaxed) > 0
}

// ---------------------------------------------------------------------------
// Structured events
// ---------------------------------------------------------------------------

/// A typed structured-field value, so JSON output keeps numbers as
/// numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string field.
    Str(String),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A floating-point field.
    F64(f64),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> Self {
        FieldValue::Str(value.into())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> Self {
        FieldValue::Str(value)
    }
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> Self {
        FieldValue::U64(value)
    }
}

impl From<usize> for FieldValue {
    fn from(value: usize) -> Self {
        FieldValue::U64(value as u64)
    }
}

impl From<u16> for FieldValue {
    fn from(value: u16) -> Self {
        FieldValue::U64(u64::from(value))
    }
}

impl From<i64> for FieldValue {
    fn from(value: i64) -> Self {
        FieldValue::I64(value)
    }
}

impl From<f64> for FieldValue {
    fn from(value: f64) -> Self {
        FieldValue::F64(value)
    }
}

/// One structured log event, as handed to capture sinks and rendered to
/// stderr.
#[derive(Debug, Clone)]
pub struct LogEvent {
    /// Unix timestamp in seconds (fractional).
    pub ts: f64,
    /// Severity.
    pub level: Level,
    /// The emitting subsystem (module-path style, e.g.
    /// `"serve::orchestrator"`).
    pub target: String,
    /// Human-readable message.
    pub msg: String,
    /// The trace ID current on the emitting thread, if any.
    pub trace: Option<TraceId>,
    /// Structured key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl LogEvent {
    /// The value of a structured field, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, value)| value)
    }
}

/// Escape `text` as JSON string *contents* (no surrounding quotes) onto
/// `out`.
fn escape_json_into(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_json_str(out: &mut String, text: &str) {
    out.push('"');
    escape_json_into(out, text);
    out.push('"');
}

/// Render `event` as one NDJSON line (no trailing newline): always
/// carries `ts`, `level`, `target` and `msg`; `trace` when a trace is
/// current; then every structured field.
pub fn format_json_line(event: &LogEvent) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"ts\":");
    out.push_str(&format!("{:.6}", event.ts));
    out.push_str(",\"level\":");
    push_json_str(&mut out, event.level.label());
    out.push_str(",\"target\":");
    push_json_str(&mut out, &event.target);
    out.push_str(",\"msg\":");
    push_json_str(&mut out, &event.msg);
    if let Some(trace) = &event.trace {
        out.push_str(",\"trace\":");
        push_json_str(&mut out, trace);
    }
    for (key, value) in &event.fields {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        match value {
            FieldValue::Str(s) => push_json_str(&mut out, s),
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    push_json_str(&mut out, &v.to_string());
                }
            }
        }
    }
    out.push('}');
    out
}

/// Render `event` as the human-oriented text line (no trailing
/// newline): `LEVEL target: msg key=value …`, with a `trace=` field
/// appended when a trace is current.
pub fn format_text_line(event: &LogEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str(match event.level {
        Level::Error => "error",
        Level::Warn => "warning",
        Level::Info => "info",
        Level::Debug => "debug",
    });
    out.push_str(": ");
    out.push_str(&event.target);
    out.push_str(": ");
    out.push_str(&event.msg);
    if let Some(trace) = &event.trace {
        out.push_str(" trace=");
        out.push_str(trace);
    }
    for (key, value) in &event.fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        match value {
            FieldValue::Str(s) if s.contains(' ') || s.is_empty() => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    out
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Registered capture sinks (tests) and a lock-free emptiness check so
/// the disabled logging path never takes the registry lock.
static SINKS: Mutex<Vec<Arc<Mutex<Vec<LogEvent>>>>> = Mutex::new(Vec::new());
static SINK_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A registered in-memory log sink, for asserting on structured events
/// in tests. Dropping the guard unregisters the sink.
#[derive(Debug)]
pub struct CaptureGuard {
    sink: Arc<Mutex<Vec<LogEvent>>>,
}

impl CaptureGuard {
    /// Snapshot the events captured so far (the test binary runs many
    /// threads; filter by `trace` or fields rather than asserting
    /// exact counts).
    pub fn events(&self) -> Vec<LogEvent> {
        self.sink.lock().expect("capture sink").clone()
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let mut sinks = SINKS.lock().expect("sink registry");
        sinks.retain(|other| !Arc::ptr_eq(other, &self.sink));
        SINK_COUNT.store(sinks.len(), Ordering::Relaxed);
    }
}

/// Register an in-memory capture sink that receives every structured
/// event (regardless of the stderr threshold) until the guard drops.
pub fn capture() -> CaptureGuard {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut sinks = SINKS.lock().expect("sink registry");
    sinks.push(Arc::clone(&sink));
    SINK_COUNT.store(sinks.len(), Ordering::Relaxed);
    CaptureGuard { sink }
}

/// Emit one structured event: rendered to stderr when `level` clears
/// the global threshold, and delivered to every registered capture
/// sink unconditionally.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    let to_stderr = enabled(level);
    let to_sinks = SINK_COUNT.load(Ordering::Relaxed) > 0;
    if !to_stderr && !to_sinks {
        return;
    }
    let event = LogEvent {
        ts: unix_now(),
        level,
        target: target.into(),
        msg: msg.into(),
        trace: current_trace(),
        fields: fields
            .iter()
            .map(|(key, value)| ((*key).into(), value.clone()))
            .collect(),
    };
    if to_sinks {
        let sinks = SINKS.lock().expect("sink registry");
        for sink in sinks.iter() {
            sink.lock().expect("capture sink").push(event.clone());
        }
    }
    if to_stderr {
        let mut line = match format() {
            LogFormat::Text => format_text_line(&event),
            LogFormat::Json => format_json_line(&event),
        };
        line.push('\n');
        let stderr = std::io::stderr();
        let mut handle = stderr.lock();
        let _ = handle.write_all(line.as_bytes());
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Warn, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    log(Level::Debug, target, msg, fields);
}

// ---------------------------------------------------------------------------
// Trace IDs and the thread-local trace context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_TRACE: Cell<Option<TraceId>> = const { Cell::new(None) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A trace ID: 1–[`TraceId::MAX_LEN`] ASCII characters from
/// `[A-Za-z0-9_-]` (see [`is_valid_trace_id`]), held inline so that
/// installing, copying and echoing one never allocates. It reads as a
/// `&str` through `Deref`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    len: u8,
    bytes: [u8; TraceId::MAX_LEN],
}

impl TraceId {
    /// The longest ID a peer may supply.
    pub const MAX_LEN: usize = 64;

    /// Adopt `id` when it is a valid trace ID ([`is_valid_trace_id`]);
    /// `None` otherwise.
    pub fn parse(id: &str) -> Option<TraceId> {
        if !is_valid_trace_id(id) {
            return None;
        }
        let mut bytes = [0; Self::MAX_LEN];
        bytes[..id.len()].copy_from_slice(id.as_bytes());
        Some(TraceId {
            len: id.len() as u8,
            bytes,
        })
    }

    /// The ID's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)]).expect("trace IDs are ASCII")
    }
}

impl std::ops::Deref for TraceId {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-process random base for trace-ID minting (seeded once from the
/// clock and pid) plus a counter, so IDs are guaranteed unique within a
/// process and astronomically unlikely to collide across the fleet.
static TRACE_BASE: OnceLock<u64> = OnceLock::new();
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Mint a fresh trace ID: 16 lowercase hex characters, unique within
/// the process (`splitmix64` is a bijection over a per-process base
/// XOR a counter).
pub fn mint_trace_id() -> TraceId {
    let base = *TRACE_BASE.get_or_init(|| {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        splitmix64(now.as_nanos() as u64 ^ (u64::from(std::process::id()) << 32))
    });
    let count = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut bytes = [0; TraceId::MAX_LEN];
    // Sixteen hex digits always fit the 64 bytes.
    let _ = write!(&mut bytes[..], "{:016x}", splitmix64(base ^ count));
    TraceId { len: 16, bytes }
}

/// Whether `id` is acceptable as a peer-supplied trace ID: 1–64 ASCII
/// characters from `[A-Za-z0-9_-]`. Anything else is replaced with a
/// freshly minted ID rather than echoed.
pub fn is_valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TraceId::MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// The trace ID installed on this thread, if any.
pub fn current_trace() -> Option<TraceId> {
    CURRENT_TRACE.with(Cell::get)
}

/// Scope guard restoring the previously current trace on drop (see
/// [`set_current_trace`]).
#[derive(Debug)]
pub struct TraceGuard {
    previous: Option<TraceId>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|cell| cell.set(self.previous));
    }
}

/// Install `id` as this thread's current trace until the returned guard
/// drops (the previous trace, if any, is restored).
pub fn set_current_trace(id: TraceId) -> TraceGuard {
    let previous = CURRENT_TRACE.with(|cell| cell.replace(Some(id)));
    TraceGuard { previous }
}

// ---------------------------------------------------------------------------
// Spans and the completed-span ring buffer
// ---------------------------------------------------------------------------

/// How many completed spans the ring buffer retains.
pub const RING_CAPACITY: usize = 1024;

/// A finished span, as retained in the ring buffer and dumped by
/// `GET /v1/trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSpan {
    /// Monotone completion sequence number (orders the dump).
    pub seq: u64,
    /// Process-unique span ID.
    pub id: u64,
    /// The enclosing span's ID, when this span was nested.
    pub parent: Option<u64>,
    /// The trace current when the span started.
    pub trace: Option<TraceId>,
    /// Span name (e.g. `"request:sweep"`, `"stage:estimate"`).
    pub name: &'static str,
    /// Wall-clock start, unix seconds (fractional).
    pub start: f64,
    /// Monotonic duration in seconds.
    pub duration: f64,
}

static SPAN_IDS: AtomicU64 = AtomicU64::new(1);
static SPAN_SEQ: AtomicU64 = AtomicU64::new(0);
static RING_CURSOR: AtomicUsize = AtomicUsize::new(0);
static RING: OnceLock<Vec<Mutex<Option<CompletedSpan>>>> = OnceLock::new();

fn ring() -> &'static Vec<Mutex<Option<CompletedSpan>>> {
    RING.get_or_init(|| (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect())
}

fn record_completed(mut span: CompletedSpan) {
    span.seq = SPAN_SEQ.fetch_add(1, Ordering::Relaxed);
    let slot = RING_CURSOR.fetch_add(1, Ordering::Relaxed) % RING_CAPACITY;
    *ring()[slot].lock().expect("span ring slot") = Some(span);
}

/// Snapshot the completed-span ring buffer, oldest first (by completion
/// sequence). At most [`RING_CAPACITY`] spans.
pub fn recent_spans() -> Vec<CompletedSpan> {
    let mut spans: Vec<CompletedSpan> = ring()
        .iter()
        .filter_map(|slot| slot.lock().expect("span ring slot").clone())
        .collect();
    spans.sort_by_key(|span| span.seq);
    spans
}

/// A live span: created by [`span`], timed on the monotonic clock, and
/// recorded into the ring buffer when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    trace: Option<TraceId>,
    name: &'static str,
    start_unix: f64,
    started: Instant,
}

impl SpanGuard {
    /// This span's process-unique ID (the parent for synthetic child
    /// spans recorded via [`record_span`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Wall-clock start of this span, unix seconds.
    pub fn start_unix(&self) -> f64 {
        self.start_unix
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        record_completed(CompletedSpan {
            seq: 0,
            id: self.id,
            parent: self.parent,
            trace: self.trace,
            name: self.name,
            start: self.start_unix,
            duration: self.started.elapsed().as_secs_f64(),
        });
    }
}

/// Open a span: the current thread's innermost open span becomes its
/// parent, and the thread's current trace is attached. Dropping the
/// returned guard completes the span into the ring buffer.
pub fn span(name: &'static str) -> SpanGuard {
    let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    SpanGuard {
        id,
        parent,
        trace: current_trace(),
        name,
        start_unix: unix_now(),
        started: Instant::now(),
    }
}

/// Record an already-measured span directly into the ring buffer (used
/// for synthetic per-stage children reconstructed from accumulated
/// [`StageTimings`]). Returns the new span's ID.
///
/// Stage children of a parallel sweep carry *accumulated* worker time,
/// which can exceed the parent's wall-clock duration; consumers should
/// nest by `parent` linkage, not by interval containment.
pub fn record_span(
    name: &'static str,
    trace: Option<TraceId>,
    parent: Option<u64>,
    start_unix: f64,
    duration_secs: f64,
) -> u64 {
    let id = SPAN_IDS.fetch_add(1, Ordering::Relaxed);
    record_completed(CompletedSpan {
        seq: 0,
        id,
        parent,
        trace,
        name,
        start: start_unix,
        duration: duration_secs,
    });
    id
}

// ---------------------------------------------------------------------------
// Per-stage duration accounting for the sweep hot path
// ---------------------------------------------------------------------------

/// A pipeline stage of one streamed sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Parsing/resolving the request into a sweep spec.
    Decode,
    /// Running the carbon estimator on one case.
    Estimate,
    /// Encoding the point into its canonical JSON line.
    Serialize,
    /// Putting encoded bytes on the wire.
    Emit,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::Decode,
        Stage::Estimate,
        Stage::Serialize,
        Stage::Emit,
    ];

    /// The metrics/span label for this stage.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Estimate => "estimate",
            Stage::Serialize => "serialize",
            Stage::Emit => "emit",
        }
    }

    /// The name of this stage's child span (`stage:{label}`).
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Decode => "stage:decode",
            Stage::Estimate => "stage:estimate",
            Stage::Serialize => "stage:serialize",
            Stage::Emit => "stage:emit",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated per-stage durations for one request: atomic nanosecond
/// and event counters, safe to bump from every engine worker thread
/// concurrently. Created fresh per instrumented request so attribution
/// is exact; the engine takes `Option<&StageTimings>` and the `None`
/// path costs one branch per point. Durations add in whole nanoseconds,
/// so stages recorded once per point keep their sub-microsecond time.
#[derive(Debug, Default)]
pub struct StageTimings {
    nanos: [AtomicU64; 4],
    counts: [AtomicU64; 4],
}

impl StageTimings {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one timed occurrence of `stage`.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        // Saturating: `u64` nanoseconds last 584 years.
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.nanos[stage.index()].fetch_add(nanos, Ordering::Relaxed);
        self.counts[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total accumulated time in `stage`, seconds.
    pub fn seconds(&self, stage: Stage) -> f64 {
        self.nanos[stage.index()].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// How many occurrences of `stage` were recorded.
    pub fn count(&self, stage: Stage) -> u64 {
        self.counts[stage.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(text: &str) -> TraceId {
        TraceId::parse(text).expect("valid trace ID")
    }

    #[test]
    fn level_parse_round_trips() {
        for level in [Level::Error, Level::Warn, Level::Info, Level::Debug] {
            assert_eq!(Level::parse(level.label()), Some(level));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("trace"), None);
        assert_eq!(LogFormat::parse("JSON"), Some(LogFormat::Json));
        assert_eq!(LogFormat::parse("yaml"), None);
    }

    #[test]
    fn minted_trace_ids_are_unique_hex() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = mint_trace_id();
            assert_eq!(id.len(), 16);
            assert!(id
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
            assert!(is_valid_trace_id(&id));
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn trace_id_validation_rejects_junk() {
        assert!(is_valid_trace_id("abc-123_XYZ"));
        assert!(!is_valid_trace_id(""));
        assert!(!is_valid_trace_id(&"a".repeat(65)));
        assert!(!is_valid_trace_id("has space"));
        assert!(!is_valid_trace_id("new\nline"));
        assert!(!is_valid_trace_id("quote\""));
    }

    #[test]
    fn trace_ids_hold_every_valid_id_inline() {
        let longest = "Z".repeat(TraceId::MAX_LEN);
        for text in ["a", "abc-123_XYZ", longest.as_str()] {
            let parsed = id(text);
            assert_eq!(parsed.as_str(), text);
            assert_eq!(parsed.to_string(), text);
            assert_eq!(format!("{parsed:?}"), format!("{text:?}"));
        }
        for junk in ["", "has space", &"a".repeat(TraceId::MAX_LEN + 1)] {
            assert_eq!(TraceId::parse(junk), None, "{junk:?}");
        }
        let minted = mint_trace_id();
        assert_eq!(TraceId::parse(&minted), Some(minted));
    }

    #[test]
    fn trace_guard_restores_previous() {
        assert_eq!(current_trace(), None);
        {
            let _outer = set_current_trace(id("outer"));
            assert_eq!(current_trace().as_deref(), Some("outer"));
            {
                let _inner = set_current_trace(id("inner"));
                assert_eq!(current_trace().as_deref(), Some("inner"));
            }
            assert_eq!(current_trace().as_deref(), Some("outer"));
        }
        assert_eq!(current_trace(), None);
    }

    #[test]
    fn spans_nest_and_land_in_the_ring() {
        let _trace = set_current_trace(id("ring-test-trace"));
        let (outer_id, inner_id);
        {
            let outer = span("outer");
            outer_id = outer.id();
            {
                let inner = span("inner");
                inner_id = inner.id();
            }
        }
        let spans = recent_spans();
        let inner = spans.iter().find(|s| s.id == inner_id).expect("inner span");
        let outer = spans.iter().find(|s| s.id == outer_id).expect("outer span");
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.trace.as_deref(), Some("ring-test-trace"));
        assert_eq!(outer.trace.as_deref(), Some("ring-test-trace"));
        // The inner span completes first, so its sequence number is lower.
        assert!(inner.seq < outer.seq);
        assert!(inner.name == "inner" && outer.name == "outer");
    }

    #[test]
    fn ring_is_bounded() {
        for i in 0..(RING_CAPACITY + 100) {
            record_span("bulk", None, Some(i as u64), 0.0, 0.0);
        }
        assert!(recent_spans().len() <= RING_CAPACITY);
    }

    #[test]
    fn json_lines_escape_and_type_fields() {
        let event = LogEvent {
            ts: 1700000000.25,
            level: Level::Warn,
            target: "serve::orchestrator".into(),
            msg: "shard lost \"worker\"\n".into(),
            trace: Some(id("abcd")),
            fields: vec![
                ("shard".into(), FieldValue::U64(3)),
                ("delta".into(), FieldValue::I64(-2)),
                ("secs".into(), FieldValue::F64(0.5)),
                ("url".into(), FieldValue::Str("http://x/ y".into())),
            ],
        };
        let line = format_json_line(&event);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\"trace\":\"abcd\""));
        assert!(line.contains("\"shard\":3"));
        assert!(line.contains("\"delta\":-2"));
        assert!(line.contains("\"secs\":0.5"));
        assert!(line.contains("\\\"worker\\\"\\n"));
        assert!(!line.contains('\n'));
        let text = format_text_line(&event);
        assert!(text.starts_with("warning: serve::orchestrator: "));
        assert!(text.contains("shard=3"));
        assert!(text.contains("url=\"http://x/ y\""));
    }

    #[test]
    fn capture_sees_events_below_the_stderr_threshold() {
        let guard = capture();
        // Debug is below the default Warn threshold, but sinks get it.
        log(
            Level::Debug,
            "trace::tests",
            "captured",
            &[("k", FieldValue::from("v"))],
        );
        let events: Vec<_> = guard
            .events()
            .into_iter()
            .filter(|e| e.target == "trace::tests" && e.msg == "captured")
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].field("k"), Some(&FieldValue::Str("v".into())));
        drop(guard);
    }

    #[test]
    fn stage_timings_accumulate() {
        let timings = StageTimings::new();
        timings.record(Stage::Estimate, Duration::from_micros(1500));
        timings.record(Stage::Estimate, Duration::from_micros(500));
        timings.record(Stage::Serialize, Duration::from_micros(250));
        assert_eq!(timings.count(Stage::Estimate), 2);
        assert_eq!(timings.count(Stage::Serialize), 1);
        assert_eq!(timings.count(Stage::Decode), 0);
        assert!((timings.seconds(Stage::Estimate) - 0.002).abs() < 1e-9);
        assert!((timings.seconds(Stage::Serialize) - 0.00025).abs() < 1e-9);
        assert_eq!(timings.seconds(Stage::Emit), 0.0);
    }

    #[test]
    fn sub_microsecond_records_add_up() {
        // A warm sweep point estimates in under a microsecond: 1,000 such
        // records must read 400 µs, not the 0 whole microseconds each.
        let timings = StageTimings::new();
        for _ in 0..1_000 {
            timings.record(Stage::Estimate, Duration::from_nanos(400));
        }
        assert_eq!(timings.count(Stage::Estimate), 1_000);
        assert!((timings.seconds(Stage::Estimate) - 400e-6).abs() < 1e-12);
    }

    #[test]
    fn raise_level_never_lowers() {
        // Note: global state; other tests rely on the default Warn
        // threshold only via `capture()`, which ignores it.
        let before = level();
        raise_level(Level::Error);
        assert!(level() >= before);
        raise_level(Level::Info);
        assert!(enabled(Level::Info));
        set_level(before);
    }
}
