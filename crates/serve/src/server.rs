//! The HTTP server: a readiness-driven event loop in front of one
//! estimator, one sweep engine and one warm sweep memo, shared with a fixed
//! pool of handler threads.
//!
//! Architecture: one event-loop thread owns every parked connection
//! through a [`poll::Poller`] (epoll on Linux, `poll(2)` fallback —
//! see [`crate::poll`]). Sockets are nonblocking while parked, so ten
//! thousand idle keep-alive connections cost ten thousand file
//! descriptors and nothing else — no thread, no stack, no timer each.
//! Request bytes accumulate in a per-connection buffer read by a
//! resumable [`http::RequestParser`], which also gives HTTP/1.1
//! **pipelining** for free: every complete request in the buffer is
//! served in order, responses queue onto a per-connection write buffer,
//! and a write backlog pauses reads (TCP backpressure) instead of
//! buffering without bound. A pass consumes requests by offset and
//! compacts the buffer once at its end, so a deep pipeline costs one
//! move of the unread tail, not one per request.
//!
//! Every request is decoded once, against one route table, into the
//! [`Route`] that picks its handler, its metrics label, its
//! `request:{route}` span and its access-log field.
//! Routes split by weight. *Light* routes (health, stats, testcases,
//! metrics, trace dumps, single estimates, batch estimates whose body
//! fits one read of `READ_CHUNK` (16 KiB), shutdown, and every error
//! reply) are answered inline on the loop thread — they are memo-bound
//! microsecond work, and avoiding a thread handoff is what keeps
//! point-lookup throughput flat while thousands of idle connections
//! are parked. An inline request is served from borrowed slices of the
//! connection buffer; its JSON body is encoded once into a per-thread
//! scratch buffer and appended, behind its head, to the connection's
//! write buffer; its trace ID is an inline value and its span name a
//! static string. Past the decode and the estimate it allocates nothing.
//! *Heavy* routes (sweeps, larger batch estimates, searches) are
//! dispatched to a pool of `threads` handler threads, with the request
//! copied into owned storage: the connection is
//! removed from the poller, flipped back to blocking, and the worker
//! streams the response directly (so chunked
//! sweep output is byte-for-byte what the old thread-per-connection
//! server produced) before handing the connection back to the loop
//! through a completion channel plus a [`poll::Waker`] nudge.
//!
//! Admission is bounded on two axes: `max_connections` caps accepted
//! sockets (excess connections get an immediate `429` with
//! `Retry-After` and are closed), and `max_inflight` caps
//! concurrently dispatched heavy requests (excess heavy requests get
//! the same `429` on their own connection, which stays usable). A heavy
//! request gives its in-flight slot back as soon as its handler has
//! produced the response, before the final write, so a client that has
//! read a whole response never finds that request still counted. An
//! overloaded server therefore degrades into fast, explicit refusals
//! instead of an unbounded queue.
//!
//! Shutdown is cooperative: `POST /v1/shutdown` (or
//! [`ServerHandle::shutdown`]) sets a flag and wakes the loop through
//! the poller's self-pipe waker — no more "dial a throwaway TCP
//! connection at ourselves". The loop stops accepting, lets dispatched
//! requests finish, flushes and closes every parked connection, and
//! returns once the handler pool has drained — an in-flight sweep
//! always streams to its last line before the server exits.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;

use ecochip_core::opt;
use ecochip_core::sweep::{LineEncoder, SweepContext, SweepEngine, SweepPoint, SweepSink};
use ecochip_core::{EcoChip, EcoChipError, EstimatorConfig};
use ecochip_techdb::TechDb;
use ecochip_testcases::catalog;
use ecochip_trace::{FieldValue, Level, Stage, StageTimings, TraceId};

use crate::api::{
    BatchEstimateItem, ErrorResponse, EstimateRequest, EstimateResponse, HealthResponse,
    OptimizeRequest, RouteLatency, StatsResponse, SweepFormat, SweepRequest, TestcasesResponse,
    TraceResponse, TraceSpan,
};
use crate::frames;
use crate::http;
use crate::metrics::{Metrics, Rejection};
use crate::poll::{self, Interest, Poller};
use crate::ServeError;

/// Socket timeout applied while a connection is checked out to a handler
/// thread in blocking mode: a peer stalling mid-read of a streamed response
/// cannot pin a pool thread forever. (Timeouts are inert while the socket
/// is nonblocking on the event loop.)
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Upper bound on one event-loop wait: how long idle-timeout enforcement
/// and a missed wake-up can lag behind wall-clock time.
const IDLE_SWEEP: Duration = Duration::from_millis(100);

/// Bytes read per `read(2)` call on a ready connection; also the largest
/// batch-estimate body answered inline on the event loop.
const READ_CHUNK: usize = 16 * 1024;

/// Per-readiness-event read budget: a firehosing peer yields the loop back
/// to other connections after this many bytes (level-triggered polling
/// re-reports the remainder immediately). Also the most a reused response
/// buffer keeps between requests; a larger one is released after use.
const READ_BUDGET: usize = 256 * 1024;

/// The poller token of the listening socket ([`poll::WAKER_TOKEN`] is
/// `u64::MAX`; connection tokens are slab indices counting up from 0).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// `Retry-After` value (seconds) attached to admission-control 429s.
const RETRY_AFTER_SECS: &str = "1";

/// The trace-propagation header: a valid client-supplied value is adopted
/// as the request's trace ID and echoed back; anything else gets a fresh
/// server-minted ID (also echoed). One ID therefore stitches a request's
/// server-side spans and log lines — across every fleet hop that forwards
/// the header — to the client that sent it.
const TRACE_HEADER: &str = "X-Ecochip-Trace";

/// The route label space: every request is filed under exactly one route,
/// and unknown paths collapse into [`Route::Other`] so a path-scanning
/// client cannot grow the label space. `/v1/stats` lists latencies in
/// declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /v1/healthz`.
    Healthz,
    /// `GET /v1/stats`.
    Stats,
    /// `GET /v1/testcases`.
    Testcases,
    /// `POST /v1/estimate` with a single request body.
    Estimate,
    /// `POST /v1/estimate` with a JSON array body.
    EstimateBatch,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/optimize`.
    Optimize,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/trace`.
    Trace,
    /// `POST /v1/shutdown`.
    Shutdown,
    /// Any path outside the route table.
    Other,
}

impl Route {
    /// Every route's label, in declaration order (a route's label is
    /// `LABELS[route as usize]`).
    pub const LABELS: [&'static str; 11] = [
        "healthz",
        "stats",
        "testcases",
        "estimate",
        "estimate_batch",
        "sweep",
        "optimize",
        "metrics",
        "trace",
        "shutdown",
        "other",
    ];

    /// Every route's `request:{label}` span name, in declaration order.
    const SPAN_NAMES: [&'static str; 11] = [
        "request:healthz",
        "request:stats",
        "request:testcases",
        "request:estimate",
        "request:estimate_batch",
        "request:sweep",
        "request:optimize",
        "request:metrics",
        "request:trace",
        "request:shutdown",
        "request:other",
    ];

    /// The metrics and span label of this route.
    pub fn label(self) -> &'static str {
        Self::LABELS[self as usize]
    }

    /// The name of this route's request span (`request:{label}`).
    pub fn span_name(self) -> &'static str {
        Self::SPAN_NAMES[self as usize]
    }

    /// Decode a request against [`ROUTE_TABLE`]: `Ok` with the route that
    /// serves it, or `Err` with the route a refused request is filed under
    /// (404 for [`Route::Other`], 405 for a known path asked with a method
    /// it does not serve).
    pub(crate) fn decode(method: &str, path: &str, body: &[u8]) -> Result<Route, Route> {
        #[cfg(test)]
        if path == tests::PANIC_PATH {
            return Ok(Route::Other);
        }
        let Some((_, methods, refused)) = ROUTE_TABLE.iter().find(|(known, ..)| *known == path)
        else {
            return Err(Route::Other);
        };
        match methods.iter().find(|(known, _)| *known == method) {
            // The first non-whitespace byte is decisive: a JSON document
            // starting with `[` can only be an array, the batch form.
            Some((_, Route::Estimate))
                if body.iter().find(|byte| !byte.is_ascii_whitespace()) == Some(&b'[') =>
            {
                Ok(Route::EstimateBatch)
            }
            Some(&(_, route)) => Ok(route),
            None => Err(*refused),
        }
    }

    /// Whether a served request with a `body_len`-byte body runs on the
    /// handler pool (streaming or bulk work) instead of inline on the
    /// event loop. A batch estimate whose body fits one read
    /// ([`READ_CHUNK`]) is light: it costs about what the pipelined
    /// single estimates of one read already cost inline.
    fn offloaded(self, body_len: usize) -> bool {
        use Route::*;
        match self {
            Healthz | Stats | Testcases | Estimate | Metrics | Trace | Shutdown => false,
            EstimateBatch => body_len > READ_CHUNK,
            // `Other` decodes as served only for the tests' panic path.
            Sweep | Optimize | Other => true,
        }
    }
}

/// One row of [`ROUTE_TABLE`]: an endpoint path, the route each method it
/// serves decodes to, and the route any other method is filed under
/// (answered 405).
type Endpoint = (&'static str, &'static [(&'static str, Route)], Route);

/// The server's route table, in the order the 404 reply lists it.
const ROUTE_TABLE: [Endpoint; 9] = {
    use Route::*;
    [
        ("/v1/estimate", &[("POST", Estimate)], Estimate),
        ("/v1/sweep", &[("POST", Sweep)], Sweep),
        ("/v1/optimize", &[("POST", Optimize)], Optimize),
        ("/v1/testcases", &[("GET", Testcases)], Testcases),
        ("/v1/healthz", &[("GET", Healthz)], Healthz),
        ("/v1/stats", &[("GET", Stats)], Stats),
        ("/v1/trace", &[("GET", Trace)], Trace),
        ("/v1/shutdown", &[("POST", Shutdown)], Shutdown),
        ("/metrics", &[("GET", Metrics)], Metrics),
    ]
};

/// Configuration of [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Sweep-engine workers per request (`None`: the machine's available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Handler-pool threads for heavy routes (sweeps, batch estimates
    /// larger than one read, searches); light routes run on the event
    /// loop.
    pub threads: usize,
    /// Technology database (`None` uses the built-in defaults).
    pub techdb: Option<TechDb>,
    /// Bound the memo to this many entries per cache (LRU eviction).
    pub memo_max_entries: Option<usize>,
    /// How long a keep-alive connection may sit idle between requests —
    /// or drip-feed a partial request (slow loris) — before the server
    /// closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (keeps a single immortal peer from monopolising the server;
    /// clamped to at least 1).
    pub max_requests_per_connection: usize,
    /// Heavy requests (sweep / batch estimate larger than one read /
    /// search) allowed in the handler pool — dispatched plus queued —
    /// before further heavy requests are refused with `429 Too Many
    /// Requests` + `Retry-After`. Clamped to at least 1.
    pub max_inflight: usize,
    /// Connections held open at once; further accepts are answered with
    /// an immediate `429` + `Retry-After` and closed. Clamped at bind
    /// time to the process's file-descriptor limit minus headroom.
    pub max_connections: usize,
    /// Log every request (the access log) to stderr.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".into(),
            jobs: None,
            threads: 8,
            techdb: None,
            memo_max_entries: None,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            max_inflight: 256,
            max_connections: 16_384,
            verbose: false,
        }
    }
}

/// Counters and flags shared by the event loop and every handler thread.
struct ServerState {
    /// The estimator; requests resolve against its technology database.
    estimator: EcoChip,
    /// The sweep engine behind sweeps and searches.
    engine: SweepEngine,
    /// The warm memo every request shares.
    context: SweepContext,
    addr: SocketAddr,
    idle_timeout: Duration,
    max_requests_per_connection: usize,
    max_inflight: usize,
    /// Heavy requests dispatched to the handler pool whose responses are
    /// not yet produced — the `max_inflight` admission measure (see
    /// [`Admission`]).
    inflight: AtomicUsize,
    max_connections: usize,
    shutdown: AtomicBool,
    requests: AtomicU64,
    metrics: Metrics,
    /// Wakes the event loop out of a blocked wait (shutdown, handler-pool
    /// completions).
    waker: poll::Waker,
}

impl ServerState {
    /// Trip the shutdown flag and wake the event loop (self-pipe — works
    /// from any thread, needs no connectable address).
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("addr", &self.addr)
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks; [`Server::spawn`]
/// runs it on a background thread and returns a [`ServerHandle`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    poller: Poller,
    state: Arc<ServerState>,
    threads: usize,
}

impl Server {
    /// Bind the listen socket, create the readiness poller and build the
    /// estimator over `techdb`, a sweep engine of `jobs` workers and a
    /// fresh memo bounded to `memo_max_entries`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Api`] when `config.techdb` fails
    /// [`TechDb::validate`], [`ServeError::InvalidAddr`] when
    /// `config.addr` does not resolve and [`ServeError::Io`] when binding
    /// or poller creation fails.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        if let Some(db) = &config.techdb {
            db.validate()
                .map_err(|e| ServeError::Api(format!("techdb: {e}")))?;
        }
        let mut addrs = config
            .addr
            .to_socket_addrs()
            .map_err(|e| ServeError::InvalidAddr(format!("{}: {e}", config.addr)))?;
        let addr = addrs.next().ok_or_else(|| {
            ServeError::InvalidAddr(format!("{} resolves to nothing", config.addr))
        })?;
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Io(format!("binding {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("reading bound address: {e}")))?;
        let poller = Poller::new().map_err(|e| ServeError::Io(format!("creating poller: {e}")))?;

        // `verbose` raises the structured-log threshold (never lowers an
        // explicit `ECOCHIP_LOG=debug`), so the per-request access log
        // reaches stderr.
        if config.verbose {
            ecochip_trace::raise_level(ecochip_trace::Level::Info);
        }

        // Every connection is a file descriptor; cap the connection count
        // below the process limit so the listener, self-pipe and poller
        // never hit EMFILE behind a connection flood.
        let mut max_connections = config.max_connections.max(1);
        if let Some((soft, _)) = poll::nofile_limit() {
            let headroom = (soft as usize).saturating_sub(64).max(16);
            max_connections = max_connections.min(headroom);
        }

        Ok(Self {
            state: Arc::new(ServerState {
                estimator: EcoChip::new(
                    EstimatorConfig::builder()
                        .techdb(config.techdb.clone().unwrap_or_default())
                        .build(),
                ),
                engine: SweepEngine::with_optional_jobs(config.jobs),
                context: config
                    .memo_max_entries
                    .map_or_else(SweepContext::new, SweepContext::with_capacity),
                addr,
                idle_timeout: config.idle_timeout.max(Duration::from_millis(1)),
                max_requests_per_connection: config.max_requests_per_connection.max(1),
                max_inflight: config.max_inflight.max(1),
                inflight: AtomicUsize::new(0),
                max_connections,
                shutdown: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                metrics: Metrics::new(),
                waker: poller.waker(),
            }),
            listener,
            poller,
            threads: config.threads.max(1),
        })
    }

    /// The bound listen address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The readiness backend the event loop runs on (`"epoll"` or
    /// `"poll"`), for banners and tests.
    pub fn poll_backend(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Serve until shut down (`POST /v1/shutdown` or
    /// [`ServerHandle::shutdown`]), drain in-flight requests and return.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] only for listener/poller failures;
    /// individual connection errors are answered with HTTP error responses
    /// (or dropped when the peer is gone) and never stop the server.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            mut poller,
            state,
            threads,
        } = self;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("listener nonblocking mode: {e}")))?;
        poller
            .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .map_err(|e| ServeError::Io(format!("registering listener: {e}")))?;

        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let job_rx = Mutex::new(job_rx);
        let job_rx = &job_rx;
        let state_ref: &ServerState = &state;
        let result = std::thread::scope(|scope| {
            for _ in 0..threads {
                let done_tx = done_tx.clone();
                scope.spawn(move || worker_loop(state_ref, job_rx, done_tx));
            }
            drop(done_tx);
            let mut event_loop = EventLoop {
                state: state_ref,
                listener: &listener,
                poller: &mut poller,
                job_tx,
                done_rx,
                conns: Slab::default(),
                checked_out: 0,
                draining: false,
                last_idle_scan: Instant::now(),
                read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            };
            event_loop.run()
            // `event_loop` (and with it the job sender) drops here, so the
            // pool threads drain any queued jobs and exit; the scope then
            // joins them.
        });
        // The scope has joined every handler thread, so every in-flight
        // request (streaming sweeps included) has finished.
        result
    }

    /// Run the server on a background thread (for tests, examples and
    /// embedding) and return a handle that can stop it.
    pub fn spawn(self) -> ServerHandle {
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { state, thread }
    }
}

/// A running background server (see [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<Result<(), ServeError>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Stop accepting, let in-flight requests finish and join the server
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates the server loop's exit error, or [`ServeError::Io`] when
    /// the server thread panicked.
    pub fn shutdown(self) -> Result<(), ServeError> {
        self.state.trigger_shutdown();
        self.thread
            .join()
            .map_err(|_| ServeError::Io("server thread panicked".into()))?
    }
}

/// One parked connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed request bytes (compacted after each pass).
    buf: Vec<u8>,
    /// Resumable head/body parser over `buf` (pipelining-aware).
    parser: http::RequestParser,
    /// Queued response bytes not yet written to the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has reached the socket.
    written: usize,
    /// A heavy request waiting for `write_buf` to flush before its
    /// connection can be handed to the pool (responses stay in order).
    pending_dispatch: Option<Box<Job0>>,
    /// Close once `write_buf` is flushed (error reply, `Connection:
    /// close`, shutdown, request-count bound).
    close_after_flush: bool,
    /// The peer half-closed its write side (read returned EOF).
    peer_eof: bool,
    /// Requests served on this connection (for the per-connection bound).
    served: usize,
    /// Last socket activity, for the idle timeout.
    last_activity: Instant,
    /// When the currently-incomplete request started arriving — bounds a
    /// slow-loris peer drip-feeding a header forever.
    partial_since: Option<Instant>,
    /// The interest set currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            parser: http::RequestParser::new(),
            write_buf: Vec::new(),
            written: 0,
            pending_dispatch: None,
            close_after_flush: false,
            peer_eof: false,
            served: 0,
            last_activity: now,
            partial_since: None,
            interest: Interest::READ,
        }
    }

    /// Whether every queued response byte has reached the socket.
    fn flushed(&self) -> bool {
        self.written == self.write_buf.len()
    }
}

/// A parsed heavy request without its connection (boxed inside
/// [`Conn::pending_dispatch`]).
struct Job0 {
    /// Copied out of the connection buffer, which stays with the loop.
    request: http::Request,
    /// Decoded on the event loop; the pool thread does not decode again.
    route: Route,
    keep_alive: bool,
    /// The request's resolved trace ID — minted on the event loop so the
    /// loop and the pool thread agree on it.
    trace: TraceId,
}

/// A heavy request checked out to the handler pool, carrying its
/// connection.
struct Job {
    conn: Conn,
    work: Box<Job0>,
}

/// A finished heavy request handing its connection back to the loop.
struct Done {
    conn: Conn,
    close: bool,
}

/// Slot map from poller token (index) to connection. Freed slots are
/// reused; a token is never live for two connections inside one event
/// batch (readiness events are coalesced per descriptor).
#[derive(Default)]
struct Slab {
    entries: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                self.entries[index] = Some(conn);
                index
            }
            None => {
                self.entries.push(Some(conn));
                self.entries.len() - 1
            }
        }
    }

    fn remove(&mut self, index: usize) -> Option<Conn> {
        let conn = self.entries.get_mut(index)?.take()?;
        self.free.push(index);
        self.live -= 1;
        Some(conn)
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut Conn> {
        self.entries.get_mut(index)?.as_mut()
    }

    /// Indices of currently-live connections (snapshot; safe to mutate the
    /// slab while iterating the returned list).
    fn live_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.as_ref().map(|_| index))
            .collect()
    }
}

/// What to do with a connection after a progress pass.
enum After {
    /// Keep it parked (interest derived from its buffers).
    Keep,
    /// Hand it to the handler pool for this heavy request.
    Dispatch(Box<Job0>),
    /// Remove and drop it.
    Close,
}

/// The event loop: owns the poller, the parked-connection slab and the
/// dispatch bookkeeping for one [`Server::run`] call.
struct EventLoop<'a> {
    state: &'a ServerState,
    listener: &'a TcpListener,
    poller: &'a mut Poller,
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Done>,
    conns: Slab,
    /// Connections currently checked out to the handler pool (dispatched
    /// or queued), until the loop reclaims them: counted against
    /// `max_connections` and waited for on drain. Admission counts
    /// [`ServerState::inflight`] instead, which a handler decrements
    /// before its final write.
    checked_out: usize,
    /// Shutdown observed: listener deregistered, parked connections
    /// flushing out, loop exits when everything has drained.
    draining: bool,
    last_idle_scan: Instant,
    /// The one buffer every connection's reads land in before they are
    /// appended to its parse buffer: [`READ_CHUNK`] bytes, allocated and
    /// zeroed once per loop.
    read_buf: Box<[u8]>,
}

impl EventLoop<'_> {
    fn run(&mut self) -> Result<(), ServeError> {
        let mut events: Vec<poll::Event> = Vec::new();
        let tick = self.state.idle_timeout.min(IDLE_SWEEP);
        loop {
            if !self.draining && self.state.shutting_down() {
                self.begin_drain();
            }
            if self.draining && self.checked_out == 0 && self.conns.live == 0 {
                self.state.metrics.set_connection_gauges(0, 0);
                return Ok(());
            }
            self.poller
                .wait(&mut events, Some(tick))
                .map_err(|e| ServeError::Io(format!("polling for readiness: {e}")))?;
            self.state.metrics.wakeup();
            for &event in &events {
                match event.token {
                    poll::WAKER_TOKEN => {} // completions drained below
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token as usize, event),
                }
            }
            while let Ok(done) = self.done_rx.try_recv() {
                self.reclaim(done);
            }
            if self.last_idle_scan.elapsed() >= tick {
                self.sweep_idle();
                self.last_idle_scan = Instant::now();
            }
            self.state
                .metrics
                .set_connection_gauges(self.conns.live as u64, self.checked_out as u64);
        }
    }

    /// Shutdown observed: stop accepting and push parked connections
    /// toward closure (in-flight pool work keeps running until done).
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for index in self.conns.live_indices() {
            let parked_clean = {
                let conn = self.conns.get_mut(index).expect("live index");
                conn.close_after_flush = true;
                conn.flushed() && conn.pending_dispatch.is_none()
            };
            if parked_clean {
                self.close_conn(index);
            }
        }
    }

    /// Close connections that idled out — or drip-fed a partial request —
    /// past the idle timeout.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let timeout = self.state.idle_timeout;
        for index in self.conns.live_indices() {
            let expired = {
                let conn = self.conns.get_mut(index).expect("live index");
                now.duration_since(conn.last_activity) >= timeout
                    || conn
                        .partial_since
                        .is_some_and(|since| now.duration_since(since) >= timeout)
            };
            if expired {
                self.close_conn(index);
            }
        }
    }

    /// Accept every pending connection (the listener is level-triggered
    /// and nonblocking).
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.state.metrics.connection_opened();
                    if self.draining {
                        continue; // raced the drain transition: drop it
                    }
                    if self.conns.live + self.checked_out >= self.state.max_connections {
                        self.state.metrics.rejected(Rejection::MaxConnections);
                        refuse(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are written as single buffered messages
                    // (and NDJSON chunks must reach the peer as they are
                    // evaluated), so Nagle's algorithm only adds
                    // delayed-ACK stalls to the keep-alive ping-pong.
                    let _ = stream.set_nodelay(true);
                    // Inert until the socket goes blocking on a pool
                    // thread.
                    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
                    let fd = stream.as_raw_fd();
                    let index = self.conns.insert(Conn::new(stream, Instant::now()));
                    if self
                        .poller
                        .register(fd, index as u64, Interest::READ)
                        .is_err()
                    {
                        self.conns.remove(index);
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(error) => {
                    // Transient accept failure (EMFILE under a connection
                    // flood, aborted handshake): warn and let the next
                    // readiness event retry.
                    ecochip_trace::warn(
                        "serve::server",
                        "accepting connection failed",
                        &[("error", FieldValue::from(error.to_string()))],
                    );
                    break;
                }
            }
        }
    }

    /// One readiness event for a parked connection.
    fn conn_event(&mut self, index: usize, event: poll::Event) {
        let Some(conn) = self.conns.get_mut(index) else {
            return; // closed earlier in this batch
        };
        conn.last_activity = Instant::now();
        if event.readable || event.closed {
            match read_ready(conn, &mut self.read_buf) {
                Ok(eof) => conn.peer_eof |= eof,
                Err(_) => {
                    self.close_conn(index);
                    return;
                }
            }
        }
        self.drive(index);
    }

    /// Run the connection's state machine and apply the outcome: re-park
    /// with the right interest, dispatch to the pool, or close.
    fn drive(&mut self, index: usize) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(index) else {
                return;
            };
            progress(self.state, conn)
        };
        match outcome {
            After::Keep => {
                let Some(conn) = self.conns.get_mut(index) else {
                    return;
                };
                // A write backlog pauses reads: the pipelining peer gets
                // TCP backpressure instead of unbounded server buffering.
                let desired = if conn.flushed() {
                    Interest::READ
                } else {
                    Interest::WRITE
                };
                if desired != conn.interest {
                    let fd = conn.stream.as_raw_fd();
                    if self.poller.modify(fd, index as u64, desired).is_err() {
                        self.close_conn(index);
                        return;
                    }
                    if let Some(conn) = self.conns.get_mut(index) {
                        conn.interest = desired;
                    }
                }
            }
            After::Dispatch(job) => {
                let Some(conn) = self.conns.remove(index) else {
                    return;
                };
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
                if conn.stream.set_nonblocking(false).is_err() {
                    return; // connection dies; nothing to hand the pool
                }
                self.checked_out += 1;
                self.state.inflight.fetch_add(1, Ordering::SeqCst);
                // The pool threads outlive the loop (they exit only when
                // the job sender drops), so this send cannot fail here.
                let _ = self.job_tx.send(Job { conn, work: job });
            }
            After::Close => self.close_conn(index),
        }
    }

    /// A handler thread finished with a connection: repark it (and serve
    /// any pipelined bytes it buffered) or close it.
    fn reclaim(&mut self, done: Done) {
        self.checked_out -= 1;
        if done.close || self.draining {
            return; // drop: the worker advertised `Connection: close`
        }
        let mut conn = done.conn;
        if conn.stream.set_nonblocking(true).is_err() {
            return;
        }
        conn.last_activity = Instant::now();
        // Time checked out to the pool does not count against a request
        // still arriving behind the heavy one.
        conn.partial_since = None;
        conn.interest = Interest::READ;
        let fd = conn.stream.as_raw_fd();
        let index = self.conns.insert(conn);
        if self
            .poller
            .register(fd, index as u64, Interest::READ)
            .is_err()
        {
            self.conns.remove(index);
            return;
        }
        // The peer may have pipelined more requests while the worker was
        // streaming; serve whatever is already buffered.
        self.drive(index);
    }

    fn close_conn(&mut self, index: usize) {
        if let Some(conn) = self.conns.remove(index) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
    }
}

/// Read the connection's readable bytes (bounded by [`READ_BUDGET`])
/// through `chunk` into its parse buffer. `Ok(true)` means the peer
/// reached EOF.
///
/// A read shorter than `chunk` took everything the socket held, so the
/// loop stops there rather than make one more `recv` only to be told
/// `EAGAIN`. Both pollers are level-triggered: bytes (or an EOF) that
/// arrive after it raise another readiness event.
fn read_ready(conn: &mut Conn, chunk: &mut [u8]) -> std::io::Result<bool> {
    let mut total = 0;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                total += n;
                if n < chunk.len() || total >= READ_BUDGET {
                    return Ok(false);
                }
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(error) => return Err(error),
        }
    }
}

/// Write as much of the queued response bytes as the socket accepts.
/// Returns `false` when the socket failed (close the connection).
fn flush_write(conn: &mut Conn) -> bool {
    while conn.written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.written..]) {
            Ok(0) => return false,
            Ok(n) => conn.written += n,
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if conn.flushed() {
        conn.write_buf.clear();
        conn.written = 0;
        // A rare huge response (a large inline batch, a full span dump) is
        // not kept for the connection's lifetime.
        if conn.write_buf.capacity() > READ_BUDGET {
            conn.write_buf = Vec::new();
        }
    }
    true
}

/// The per-connection state machine: serve every complete pipelined
/// request in order (light routes inline, heavy routes via
/// [`After::Dispatch`]), then flush and decide how the connection parks.
fn progress(state: &ServerState, conn: &mut Conn) -> After {
    // Requests are consumed by offset and the buffer compacted once, after
    // the pass: draining each request would move every byte behind it,
    // quadratic in the pipeline depth.
    let mut consumed = 0;
    // A heavy request waits for earlier responses to hit the wire.
    while !conn.close_after_flush && conn.pending_dispatch.is_none() {
        match conn.parser.next_request(&conn.buf[consumed..]) {
            Ok(Some((request, length))) => {
                consumed += length;
                conn.partial_since = None;
                conn.served += 1;
                state.requests.fetch_add(1, Ordering::Relaxed);
                let keep_alive = request.keep_alive
                    && conn.served < state.max_requests_per_connection
                    && !state.shutting_down();
                // One trace ID per request, resolved on the loop so the
                // admission path, the pool thread and the response echo
                // all agree on it.
                let trace = resolve_trace(&request);
                let routed = Route::decode(request.method, request.path, request.body);
                let (Ok(route) | Err(route)) = routed;
                if routed.is_ok_and(|route| route.offloaded(request.body.len())) {
                    if state.inflight.load(Ordering::SeqCst) >= state.max_inflight {
                        // Admission control: refuse the heavy request but
                        // keep the connection usable.
                        state.metrics.rejected(Rejection::MaxInflight);
                        state.metrics.request_started();
                        let started = Instant::now();
                        let _trace = ecochip_trace::set_current_trace(trace);
                        respond_overloaded(
                            &mut conn.write_buf,
                            "server is at its in-flight request limit; retry later",
                            keep_alive,
                        );
                        state.metrics.observe(route, 429, started.elapsed());
                        access_log(request.method, request.path, route, 429, started.elapsed());
                        if !keep_alive {
                            conn.close_after_flush = true;
                        }
                        continue;
                    }
                    conn.pending_dispatch = Some(Box::new(Job0 {
                        request: request.to_request(),
                        route,
                        keep_alive,
                        trace,
                    }));
                    continue;
                }
                state.metrics.request_started();
                let started = Instant::now();
                let (status, close_after) = {
                    let _trace = ecochip_trace::set_current_trace(trace);
                    let span = ecochip_trace::span(route.span_name());
                    let outcome =
                        route_light(state, &request, routed, &mut conn.write_buf, keep_alive);
                    drop(span);
                    access_log(
                        request.method,
                        request.path,
                        route,
                        outcome.0,
                        started.elapsed(),
                    );
                    outcome
                };
                state.metrics.observe(route, status, started.elapsed());
                if close_after || !keep_alive {
                    conn.close_after_flush = true;
                }
            }
            Ok(None) => break, // need more bytes
            Err(error) => {
                // The request framing is unreliable from here on; answer
                // and close.
                state.metrics.request_started();
                let started = Instant::now();
                let status = respond_error(&mut conn.write_buf, &error, false);
                state
                    .metrics
                    .observe(Route::Other, status, started.elapsed());
                conn.close_after_flush = true;
            }
        }
    }
    conn.buf.drain(..consumed);
    if !conn.buf.is_empty() && conn.partial_since.is_none() {
        conn.partial_since = Some(Instant::now());
    }
    if !flush_write(conn) {
        return After::Close;
    }
    if !conn.flushed() {
        return After::Keep; // parks with write interest
    }
    if let Some(job) = conn.pending_dispatch.take() {
        // Every earlier response is on the wire, so the held-back heavy
        // request can go out now instead of waiting for a socket event
        // that may never come (its bytes are already in our buffer).
        return After::Dispatch(job);
    }
    if conn.close_after_flush || conn.peer_eof {
        // Everything owed has hit the wire; EOF with nothing buffered is
        // the silent probe-connection close.
        return After::Close;
    }
    After::Keep
}

/// A handler-pool thread: serve heavy requests off the shared queue until
/// the event loop drops the sender.
fn worker_loop(state: &ServerState, jobs: &Mutex<mpsc::Receiver<Job>>, done: mpsc::Sender<Done>) {
    loop {
        let job = {
            let receiver = jobs.lock().expect("job queue");
            receiver.recv()
        };
        let Ok(Job { mut conn, work }) = job else {
            break; // event loop ended
        };
        let Job0 {
            request,
            route,
            keep_alive,
            trace,
        } = *work;
        let mut admission = Admission(Some(&state.inflight));
        state.metrics.request_started();
        let started = Instant::now();
        // A panicking handler must not take its pool thread with it: the
        // request counts as a 500 and the connection still goes back to
        // the loop (closed), so the in-flight count drains and shutdown
        // still completes.
        let handled = {
            let _trace = ecochip_trace::set_current_trace(trace);
            let span = ecochip_trace::span(route.span_name());
            let handled = panic::catch_unwind(AssertUnwindSafe(|| {
                route_offloaded(
                    state,
                    route,
                    &request,
                    &mut conn.stream,
                    keep_alive,
                    &span,
                    &mut admission,
                )
            }))
            .ok();
            drop(span);
            access_log(
                &request.method,
                &request.path,
                route,
                handled.unwrap_or(500),
                started.elapsed(),
            );
            handled
        };
        // A handler that never reached its final write (a panic, a peer
        // gone before the stream started) gives the slot back here.
        drop(admission);
        let status = handled.unwrap_or(500);
        state.metrics.observe(route, status, started.elapsed());
        // 499: the peer vanished mid-stream — nothing left to keep alive.
        // A panicked handler may have left a partial response behind.
        let close = !keep_alive || status == 499 || handled.is_none();
        let _ = done.send(Done { conn, close });
        state.waker.wake();
    }
}

/// A heavy request's claim on one of the `max_inflight` slots, taken by
/// the event loop when it dispatches the request. The handler releases it
/// once the response is produced, right before the final write (the whole
/// reply, or a stream's terminal chunk), so by the time the client has
/// read the response the slot is free again; dropping the claim releases
/// it too. Holds [`ServerState::inflight`] until released.
struct Admission<'a>(Option<&'a AtomicUsize>);

impl Admission<'_> {
    /// Give the slot back (once).
    fn release(&mut self) {
        if let Some(inflight) = self.0.take() {
            inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Resolve a request's trace ID: adopt a valid client-supplied
/// `X-Ecochip-Trace` header, otherwise mint a fresh process-unique ID.
fn resolve_trace(request: &http::RequestRef) -> TraceId {
    request
        .header(TRACE_HEADER)
        .and_then(TraceId::parse)
        .unwrap_or_else(ecochip_trace::mint_trace_id)
}

/// One Info-level access-log event per served request. Must run inside
/// the request's trace guard so the line carries the trace ID — the CI
/// chaos step greps a worker's JSON log for the orchestrator's ID. The
/// fields are built only when the event has a reader: at the default
/// level with no capture sink, a request logs nothing and allocates
/// nothing.
fn access_log(method: &str, path: &str, route: Route, status: u16, elapsed: Duration) {
    if !ecochip_trace::observed(Level::Info) {
        return;
    }
    ecochip_trace::info(
        "serve::server",
        "request",
        &[
            ("method", FieldValue::from(method)),
            ("path", FieldValue::from(path)),
            ("route", FieldValue::from(route.label())),
            ("status", FieldValue::from(u64::from(status))),
            ("duration_secs", FieldValue::from(elapsed.as_secs_f64())),
        ],
    );
}

/// Hand `write` the response's extra headers: `extra`, then the request's
/// trace ID echoed as `X-Ecochip-Trace` when a trace guard is active
/// (every routed request; `refuse` runs outside one and echoes nothing).
fn with_trace_header<R>(
    extra: Option<(&str, &str)>,
    write: impl FnOnce(&[(&str, &str)]) -> R,
) -> R {
    let trace = ecochip_trace::current_trace();
    let trace = trace.as_deref().map(|trace| (TRACE_HEADER, trace));
    match (extra, trace) {
        (Some(extra), Some(trace)) => write(&[extra, trace]),
        (extra, trace) => write(extra.or(trace).as_slice()),
    }
}

/// Append a fixed-length response with the trace header (see
/// [`with_trace_header`]) to `out`.
fn write_traced(out: &mut Vec<u8>, status: u16, content_type: &str, body: &[u8], keep_alive: bool) {
    with_trace_header(None, |headers| {
        http::write_response(out, status, content_type, headers, body, keep_alive);
    });
}

/// Append `value`'s JSON to `json`. The wire types cannot fail
/// serialization, so a failure is a programming error surfaced as an
/// error object.
fn encode_json<T: Serialize>(value: &T, json: &mut String) {
    let start = json.len();
    if let Err(error) = serde_json::to_string_into(value, json) {
        json.truncate(start);
        let _ = write!(json, "{{\"error\":\"serializing response: {error}\"}}");
    }
}

/// `value` as a JSON string (see [`encode_json`]).
fn to_json<T: Serialize>(value: &T) -> String {
    let mut json = String::new();
    encode_json(value, &mut json);
    json
}

thread_local! {
    /// This thread's scratch buffer for fixed-length JSON bodies: a body
    /// is encoded here once, then copied once behind its head.
    static JSON_BODY: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Append a JSON response — `value` as a newline-terminated body, with
/// `extra` and the trace header — to `out`.
fn write_json<T: Serialize>(
    out: &mut Vec<u8>,
    status: u16,
    extra: Option<(&str, &str)>,
    value: &T,
    keep_alive: bool,
) {
    JSON_BODY.with_borrow_mut(|json| {
        json.clear();
        encode_json(value, json);
        json.push('\n');
        with_trace_header(extra, |headers| {
            http::write_response(
                out,
                status,
                "application/json",
                headers,
                json.as_bytes(),
                keep_alive,
            );
        });
        // A rare huge body is not kept for the thread's lifetime.
        if json.capacity() > READ_BUDGET {
            *json = String::new();
        }
    });
}

/// Append a JSON response to `out` (a connection's response queue, or a
/// reply a pool thread sends whole with [`send_reply`]), returning the
/// status for metrics.
fn respond<T: Serialize>(out: &mut Vec<u8>, status: u16, value: &T, keep_alive: bool) -> u16 {
    write_json(out, status, None, value, keep_alive);
    status
}

fn respond_error(out: &mut Vec<u8>, error: &ServeError, keep_alive: bool) -> u16 {
    let status = match error {
        ServeError::Io(_) => 500,
        _ => 400,
    };
    respond(
        out,
        status,
        &ErrorResponse {
            error: error.to_string(),
        },
        keep_alive,
    )
}

/// Queue an admission-control refusal: `429 Too Many Requests` with a
/// `Retry-After` hint.
fn respond_overloaded(out: &mut Vec<u8>, message: &str, keep_alive: bool) {
    write_json(
        out,
        429,
        Some(("Retry-After", RETRY_AFTER_SECS)),
        &ErrorResponse {
            error: message.into(),
        },
        keep_alive,
    );
}

/// Send a fixed-length reply on a checked-out socket: `reply` assembles
/// it whole, the request's in-flight slot is released, and the reply goes
/// out in one `write_all`. The peer may already be gone; nothing useful
/// can be done about a failed write, so the reply's status stands.
fn send_reply(
    stream: &mut TcpStream,
    admission: &mut Admission<'_>,
    reply: impl FnOnce(&mut Vec<u8>) -> u16,
) -> u16 {
    let mut message = Vec::new();
    let status = reply(&mut message);
    admission.release();
    let _ = stream.write_all(&message);
    status
}

/// Refuse a connection over the `max_connections` bound: best-effort
/// blocking 429 write (bounded by a short timeout), then drop.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_nodelay(true);
    let mut message = Vec::new();
    respond_overloaded(
        &mut message,
        "server is at its connection limit; retry later",
        false,
    );
    let _ = stream.write_all(&message);
}

/// Answer a light or refused (404/405) request straight onto the
/// connection's response queue.
/// Returns the response status and whether the connection must close
/// regardless of the negotiated keep-alive (the shutdown endpoint).
fn route_light(
    state: &ServerState,
    request: &http::RequestRef,
    routed: Result<Route, Route>,
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> (u16, bool) {
    let status = match routed {
        Ok(Route::Healthz) => respond(
            out,
            200,
            &HealthResponse {
                status: "ok".into(),
                service: "ecochip-serve".into(),
                jobs: state.engine.jobs(),
            },
            keep_alive,
        ),
        Ok(Route::Stats) => respond(
            out,
            200,
            &StatsResponse::new(
                state.context.stats(),
                state.context.floorplan_entries(),
                state.context.manufacturing_entries(),
                state.context.capacity(),
                crate::api::ServeTotals {
                    requests: state.requests.load(Ordering::Relaxed),
                    points_streamed: state.metrics.sweep_points(),
                    chunk: state.engine.chunk(),
                    idle_connections: state.metrics.idle_connections(),
                    active_connections: state.metrics.active_connections(),
                    rejected: state.metrics.rejected_total(),
                    uptime_seconds: state.metrics.uptime_seconds(),
                },
                state
                    .metrics
                    .latency_summaries()
                    .into_iter()
                    .map(|summary| RouteLatency {
                        route: summary.route.to_string(),
                        count: summary.count,
                        p50_seconds: summary.p50_seconds,
                        p99_seconds: summary.p99_seconds,
                    })
                    .collect(),
            ),
            keep_alive,
        ),
        Ok(Route::Trace) => respond(
            out,
            200,
            &TraceResponse {
                spans: ecochip_trace::recent_spans()
                    .iter()
                    .map(TraceSpan::from)
                    .collect(),
            },
            keep_alive,
        ),
        Ok(Route::Testcases) => respond(
            out,
            200,
            &TestcasesResponse {
                testcases: catalog::names(),
            },
            keep_alive,
        ),
        Ok(Route::Metrics) => {
            let text = state.metrics.render(&state.context);
            write_traced(
                out,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                keep_alive,
            );
            200
        }
        Ok(Route::Estimate) => match estimate(state, request.body) {
            Ok(response) => respond(out, 200, &response, keep_alive),
            Err(error) => respond_error(out, &error, keep_alive),
        },
        Ok(Route::EstimateBatch) => respond_batch(state, request.body, out, keep_alive),
        Ok(Route::Shutdown) => {
            respond(
                out,
                200,
                &HealthResponse {
                    status: "shutting down".into(),
                    service: "ecochip-serve".into(),
                    jobs: state.engine.jobs(),
                },
                false,
            );
            state.trigger_shutdown();
            return (200, true);
        }
        Err(Route::Other) => {
            let endpoints: Vec<&str> = ROUTE_TABLE.iter().map(|(path, ..)| *path).collect();
            respond(
                out,
                404,
                &ErrorResponse {
                    error: format!(
                        "unknown path {:?}; endpoints: {}",
                        request.path,
                        endpoints.join(" ")
                    ),
                },
                keep_alive,
            )
        }
        // A known path asked with a method it does not serve (offloaded
        // requests never reach this function).
        _ => respond(
            out,
            405,
            &ErrorResponse {
                error: format!("method {} not allowed on {}", request.method, request.path),
            },
            keep_alive,
        ),
    };
    (status, false)
}

/// Route a heavy request on a handler-pool thread, writing the response
/// (streamed for sweeps) directly to the checked-out blocking socket.
fn route_offloaded(
    state: &ServerState,
    route: Route,
    request: &http::Request,
    stream: &mut TcpStream,
    keep_alive: bool,
    span: &ecochip_trace::SpanGuard,
    admission: &mut Admission<'_>,
) -> u16 {
    match route {
        Route::Sweep => sweep(state, &request.body, stream, keep_alive, span, admission),
        Route::Optimize => optimize(state, &request.body, stream, keep_alive, span, admission),
        Route::EstimateBatch => send_reply(stream, admission, |out| {
            respond_batch(state, &request.body, out, keep_alive)
        }),
        // No other route is offloaded outside tests (`tests::PANIC_PATH`
        // lands here); the worker's `catch_unwind` counts it as a 500 and
        // closes the connection.
        // Unwinds like `panic!` but skips the panic hook: its backtrace
        // capture (under `RUST_BACKTRACE`) burns enough CPU to disturb
        // the timing-sensitive poller tests running alongside.
        _ => panic::resume_unwind(Box::new("route has no handler-pool handler")),
    }
}

fn parse_body<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, ServeError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ServeError::Api("request body is not valid UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| ServeError::Api(e.to_string()))
}

fn estimate(state: &ServerState, request_body: &[u8]) -> Result<EstimateResponse, ServeError> {
    estimate_one(state, parse_body(request_body)?)
}

/// Estimate one decoded request — shared by the single and batch forms of
/// `POST /v1/estimate` so both produce identical bytes for the same design.
/// The request is consumed, so an inline system is estimated without a
/// copy.
fn estimate_one(
    state: &ServerState,
    request: EstimateRequest,
) -> Result<EstimateResponse, ServeError> {
    let system = request.resolve(&state.estimator.config().techdb)?;
    let report = state.estimator.estimate_with(&system, &state.context)?;
    state.metrics.estimate_served();
    Ok(EstimateResponse {
        system: system.name,
        embodied_fraction: report.embodied_fraction(),
        report,
    })
}

/// Answer the batch form of `POST /v1/estimate` onto `out`: a JSON array
/// of requests, estimated in order within one HTTP round-trip. Each
/// element resolves to its own response or its own error object (the same
/// `{"error": …}` body the request would have produced on its own) — one
/// bad item never fails the batch. Only a malformed top-level body is a
/// request-level error. Returns the status for metrics.
fn respond_batch(
    state: &ServerState,
    request_body: &[u8],
    out: &mut Vec<u8>,
    keep_alive: bool,
) -> u16 {
    let requests: Vec<EstimateRequest> = match parse_body(request_body) {
        Ok(requests) => requests,
        Err(error) => return respond_error(out, &error, keep_alive),
    };
    let items: Vec<BatchEstimateItem> = requests
        .into_iter()
        .map(|request| match estimate_one(state, request) {
            Ok(response) => BatchEstimateItem::Ok(response),
            Err(error) => BatchEstimateItem::Err(ErrorResponse {
                error: error.to_string(),
            }),
        })
        .collect();
    respond(out, 200, &items, keep_alive)
}

/// The streaming sink behind `POST /v1/sweep`: every point is encoded by
/// one [`LineEncoder`], which rewrites only the changed values of the
/// previous line for a point the engine marked as re-priced and reuses its
/// buffers otherwise, and a whole engine batch is flushed as a single
/// transfer chunk — one buffered write per chunk of K points instead of
/// per point. NDJSON concatenates the `\n`-terminated lines; `ECOF` frames
/// the same lines with a binary length prefix (see [`crate::frames`]), so
/// both encodings carry byte-identical canonical lines.
struct SweepStreamSink<'a, W: Write> {
    chunked: &'a mut http::ChunkedWriter<W>,
    format: SweepFormat,
    /// Counts the points of every batch whose write succeeded.
    metrics: &'a Metrics,
    /// Per-request stage clocks (serialize/emit recorded here; the engine
    /// records estimate into the same accumulator).
    timings: &'a StageTimings,
    /// The per-request line encoder.
    encoder: LineEncoder,
    /// Reusable per-batch wire buffer (lines or frames).
    wire: Vec<u8>,
    /// Whether the `ECOF` stream header has been sent.
    header_sent: bool,
    /// Payload bytes put on the wire (for the per-format counter).
    bytes: u64,
}

impl<W: Write> SweepStreamSink<'_, W> {
    /// Send everything buffered on `self.wire` as one transfer chunk.
    fn flush_wire(&mut self) -> Result<(), EcoChipError> {
        if self.wire.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        self.bytes += self.wire.len() as u64;
        let result = self.chunked.chunk(&self.wire);
        self.wire.clear();
        self.timings.record(Stage::Emit, started.elapsed());
        result.map_err(|e| EcoChipError::Io(format!("streaming sweep point: {e}")))
    }

    /// Queue the `ECOF` stream header ahead of the first frame.
    fn prepare(&mut self) {
        if self.format == SweepFormat::Frames && !self.header_sent {
            self.wire.extend_from_slice(&frames::header());
            self.header_sent = true;
        }
    }

    /// Send the in-band terminal error object (the same `{"error": …}`
    /// line NDJSON clients split off the stream, framed when negotiated).
    fn emit_error(&mut self, error: &EcoChipError) {
        self.prepare();
        let line = to_json(&ErrorResponse {
            error: error.to_string(),
        });
        match self.format {
            SweepFormat::NdJson => {
                self.wire.extend_from_slice(line.as_bytes());
                self.wire.push(b'\n');
            }
            SweepFormat::Frames => frames::push_frame(&mut self.wire, &line),
        }
        let _ = self.flush_wire();
    }
}

impl<W: Write> SweepSink for SweepStreamSink<'_, W> {
    /// Encode the batch onto the wire in the negotiated format, timing the
    /// serialize stage once per batch to keep clock reads off the
    /// per-point path, then flush it as one transfer chunk and count its
    /// points once the write succeeded.
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        self.prepare();
        let started = Instant::now();
        let encoded: Result<(), EcoChipError> =
            points
                .iter()
                .zip(repriced)
                .try_for_each(|(point, &repriced)| {
                    let line = self
                        .encoder
                        .encode(point, repriced)
                        .map_err(|e| EcoChipError::Io(format!("serializing sweep point: {e}")))?;
                    match self.format {
                        SweepFormat::NdJson => {
                            self.wire.extend_from_slice(line.as_bytes());
                            self.wire.push(b'\n');
                        }
                        SweepFormat::Frames => frames::push_frame(&mut self.wire, line),
                    }
                    Ok(())
                });
        self.timings.record(Stage::Serialize, started.elapsed());
        encoded?;
        self.flush_wire()?;
        self.metrics.sweep_points_sent(points.len() as u64);
        Ok(())
    }
}

/// Handle `POST /v1/sweep`: resolve, then stream points over chunked
/// transfer-encoding — NDJSON by default, `ECOF` binary frames when the
/// request negotiates `"format":"frames"`. Each line is produced by the
/// same serializer as the CLI's `--stream jsonl`, so the byte stream (after
/// frame decoding, when framed) diffs clean against an in-process run.
/// Returns the response status for metrics.
fn sweep(
    state: &ServerState,
    request_body: &[u8],
    writer: &mut TcpStream,
    keep_alive: bool,
    span: &ecochip_trace::SpanGuard,
    admission: &mut Admission<'_>,
) -> u16 {
    let timings = StageTimings::new();
    let decode_started = Instant::now();
    // Resolving refuses every bad input, a bad slice too, before the 200.
    let resolved = parse_body::<SweepRequest>(request_body).and_then(|request| {
        let format = request.negotiated_format()?;
        let (spec, slice) = request.resolve(&state.estimator.config().techdb)?;
        Ok((format, spec, slice))
    });
    let (format, spec, slice) = match resolved {
        Ok(resolved) => resolved,
        Err(error) => {
            return send_reply(writer, admission, |out| {
                respond_error(out, &error, keep_alive)
            })
        }
    };
    timings.record(Stage::Decode, decode_started.elapsed());
    let mut chunked = match start_stream(writer, format.content_type(), keep_alive) {
        Ok(chunked) => chunked,
        Err(status) => return status,
    };
    let started = Instant::now();
    let mut sink = SweepStreamSink {
        chunked: &mut chunked,
        format,
        metrics: &state.metrics,
        timings: &timings,
        encoder: LineEncoder::new(),
        wire: Vec::new(),
        header_sent: false,
        bytes: 0,
    };
    let result = state.engine.stream(
        &state.estimator,
        &spec,
        slice,
        &state.context,
        Some(&timings),
        &mut sink,
    );
    match result {
        Ok(_) => {
            // A zero-point framed sweep still sends the stream header so
            // clients can tell "empty stream" from "wrong format".
            sink.prepare();
            let _ = sink.flush_wire();
        }
        // The status line is long gone; signal the failure in-band with a
        // terminal error object (no valid point line starts with
        // `{"error"`).
        Err(error) => sink.emit_error(&error),
    }
    let bytes = sink.bytes;
    state
        .metrics
        .sweep_stream_finished(format, bytes, started.elapsed());
    finish_stream(state, chunked, &timings, span, admission)
}

/// Handle `POST /v1/optimize`: resolve, then run the requested search
/// method streaming [`opt::OptEvent`] NDJSON lines over chunked
/// transfer-encoding — every incumbent/frontier improvement as it is
/// found, then the terminal `done` event with the full frontier. Each
/// line is produced by the same serializer as the CLI's `--optimize`, so
/// seeded runs diff clean across front ends. Returns the response status
/// for metrics.
fn optimize(
    state: &ServerState,
    request_body: &[u8],
    writer: &mut TcpStream,
    keep_alive: bool,
    span: &ecochip_trace::SpanGuard,
    admission: &mut Admission<'_>,
) -> u16 {
    let timings = StageTimings::new();
    let decode_started = Instant::now();
    let resolved = parse_body::<OptimizeRequest>(request_body)
        .and_then(|request| request.resolve(&state.estimator.config().techdb));
    let (spec, shard, config) = match resolved {
        Ok(resolved) => resolved,
        Err(error) => {
            return send_reply(writer, admission, |out| {
                respond_error(out, &error, keep_alive)
            })
        }
    };
    timings.record(Stage::Decode, decode_started.elapsed());
    let mut chunked = match start_stream(writer, "application/x-ndjson", keep_alive) {
        Ok(chunked) => chunked,
        Err(status) => return status,
    };
    let result = {
        // Improvements are sparse (unlike sweep points), so each event is
        // flushed as its own transfer chunk for responsive streaming; the
        // line buffer is still reused across events.
        let chunked = &mut chunked;
        let timings = &timings;
        let mut line = String::new();
        opt::optimize(
            &state.estimator,
            &state.engine,
            &spec,
            shard,
            &state.context,
            Some(timings),
            &config,
            move |event: &opt::OptEvent| {
                let started = Instant::now();
                line.clear();
                serde_json::to_string_into(event, &mut line)
                    .map_err(|e| EcoChipError::Io(format!("serializing optimize event: {e}")))?;
                line.push('\n');
                timings.record(Stage::Serialize, started.elapsed());
                let started = Instant::now();
                let sent = chunked.chunk(line.as_bytes());
                timings.record(Stage::Emit, started.elapsed());
                sent.map_err(|e| EcoChipError::Io(format!("streaming optimize event: {e}")))
            },
        )
    };
    if let Err(error) = result {
        // The status line is long gone; signal the failure in-band with a
        // terminal error object (no event line starts with `{"error"`).
        let mut line = to_json(&ErrorResponse {
            error: error.to_string(),
        });
        line.push('\n');
        let _ = chunked.chunk(line.as_bytes());
    }
    finish_stream(state, chunked, &timings, span, admission)
}

/// Start a streamed `200` response with the trace header, or return the
/// status to record when the peer is gone before any response byte was
/// written: the nginx-convention 499 ("client closed request"), so aborted
/// streams don't count as fast successes in the metrics.
fn start_stream<'w>(
    writer: &'w mut TcpStream,
    content_type: &str,
    keep_alive: bool,
) -> Result<http::ChunkedWriter<&'w mut TcpStream>, u16> {
    with_trace_header(None, |headers| {
        http::start_chunked(writer, 200, content_type, headers, keep_alive)
    })
    .map_err(|_| 499)
}

/// End a streamed response cleanly (so clients detect an in-band error
/// object as its last line), after surfacing its accumulated stage
/// clocks: once per request per stage into the Prometheus histograms,
/// plus synthetic child spans under this request's span so `/v1/trace`
/// carries the breakdown. Stage spans hold *accumulated* worker time
/// (estimate can exceed wall clock on a parallel sweep); consumers nest by
/// parent linkage, not interval containment. The request's in-flight slot
/// is released before the terminal chunk. Returns the response status.
fn finish_stream(
    state: &ServerState,
    chunked: http::ChunkedWriter<&mut TcpStream>,
    timings: &StageTimings,
    span: &ecochip_trace::SpanGuard,
    admission: &mut Admission<'_>,
) -> u16 {
    let trace = ecochip_trace::current_trace();
    for stage in Stage::ALL {
        if timings.count(stage) == 0 {
            continue;
        }
        let seconds = timings.seconds(stage);
        state.metrics.observe_stage(stage, seconds);
        ecochip_trace::record_span(
            stage.span_name(),
            trace,
            Some(span.id()),
            span.start_unix(),
            seconds,
        );
    }
    // Every counter is bumped before the terminal chunk: a client that
    // sees end-of-stream and immediately polls `/metrics` (answered on the
    // event loop, not this thread) must find them already bumped.
    admission.release();
    let _ = chunked.finish();
    200
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    /// A heavy route that panics in its handler, routed only in tests.
    pub(super) const PANIC_PATH: &str = "/v1/test/panic";

    #[test]
    fn route_table_decodes_every_endpoint_and_refusal() {
        // (method, path, body, label, offloaded, refusal status)
        let cases = [
            ("GET", "/v1/healthz", "", "healthz", false, None),
            ("GET", "/v1/stats", "", "stats", false, None),
            ("GET", "/v1/testcases", "", "testcases", false, None),
            ("POST", "/v1/estimate", "{}", "estimate", false, None),
            ("POST", "/v1/estimate", "", "estimate", false, None),
            // A batch whose body fits one read is answered inline.
            (
                "POST",
                "/v1/estimate",
                "[{}]",
                "estimate_batch",
                false,
                None,
            ),
            (
                "POST",
                "/v1/estimate",
                "  \n[",
                "estimate_batch",
                false,
                None,
            ),
            ("POST", "/v1/sweep", "[]", "sweep", true, None),
            ("POST", "/v1/optimize", "{}", "optimize", true, None),
            ("GET", "/metrics", "", "metrics", false, None),
            ("GET", "/v1/trace", "", "trace", false, None),
            ("POST", "/v1/shutdown", "", "shutdown", false, None),
            // Wrong methods are filed under the path's label, answered
            // inline; only `POST` sniffs the estimate body.
            ("GET", "/v1/sweep", "", "sweep", false, Some(405)),
            ("POST", "/v1/healthz", "{}", "healthz", false, Some(405)),
            ("DELETE", "/v1/stats", "", "stats", false, Some(405)),
            ("PUT", "/v1/estimate", "[", "estimate", false, Some(405)),
            ("GET", "/v2/nope", "", "other", false, Some(404)),
            // The memo never leaves its process: no export or import route.
            ("GET", "/v1/memo", "", "other", false, Some(404)),
            ("POST", "/v1/memo", "{}", "other", false, Some(404)),
            ("POST", "/v1", "[]", "other", false, Some(404)),
        ];
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .unwrap();
        for (method, path, body, label, offloaded, refusal) in cases {
            let case = format!("{method} {path} {body:?}");
            let routed = Route::decode(method, path, body.as_bytes());
            let (Ok(route) | Err(route)) = routed;
            assert_eq!(route.label(), label, "{case}");
            assert_eq!(route.span_name(), format!("request:{label}"), "{case}");
            assert_eq!(
                routed.is_ok_and(|route| route.offloaded(body.len())),
                offloaded,
                "{case}"
            );
            assert_eq!(routed.is_err(), refusal.is_some(), "{case}");
            if let Some(status) = refusal {
                let wire = format!(
                    "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let (request, _) = http::RequestParser::new()
                    .next_request(wire.as_bytes())
                    .unwrap()
                    .unwrap();
                let mut out = Vec::new();
                let answered = route_light(&server.state, &request, routed, &mut out, true);
                assert_eq!(answered, (status, false), "{case}");
                let head = format!("HTTP/1.1 {status} ");
                assert!(out.starts_with(head.as_bytes()), "{case}");
            }
        }
        // Every label is covered.
        for label in Route::LABELS {
            assert!(cases.iter().any(|case| case.3 == label), "{label}");
        }
        // A batch body larger than one read goes to the handler pool; the
        // other light routes stay inline at any body size.
        assert!(!Route::EstimateBatch.offloaded(READ_CHUNK));
        assert!(Route::EstimateBatch.offloaded(READ_CHUNK + 1));
        assert!(!Route::Estimate.offloaded(READ_CHUNK + 1));
    }

    #[test]
    fn a_panicking_handler_is_a_500_and_the_pool_keeps_serving() {
        // One handler thread and one in-flight slot: the sweep below is
        // served only if the panicking request's thread survived and its
        // slot was handed back.
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: Some(1),
            threads: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = server.spawn();

        // The connection closes without a response.
        assert!(client::post_json(&addr, PANIC_PATH, "{}").is_err());

        let sweep = r#"{"testcase":"ga102-3chiplet","axis":"lifetime"}"#;
        let mut lines = 0usize;
        let response = client::post_ndjson(&addr, "/v1/sweep", sweep, |_| {
            lines += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(lines, 7);

        let metrics = client::get(&addr, "/metrics").unwrap();
        let text = metrics.text().unwrap();
        assert!(
            text.contains(r#"ecochip_http_requests_total{route="other",status="500"} 1"#),
            "{text}"
        );

        handle.shutdown().unwrap();
    }
}
