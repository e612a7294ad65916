//! The shard orchestrator: fan one sweep (or island search) out across N
//! workers, merge the ordered streams, fingerprint the result — and
//! survive worker loss.
//!
//! [`Shard`]`{i, of}` partitions a sweep's index space into contiguous,
//! balanced slices, so the merged output is the ordered concatenation of
//! the shard streams — no sorting, no buffering beyond one worker's
//! backpressure window. Every worker is an `ecochip-serve` server driven
//! over HTTP: a remote pool names running servers, and a local pool starts
//! in-process servers on ephemeral loopback ports (each with its own cold
//! memo, mimicking an independent process) for the length of the run. Both
//! pools take the same path, so their output is interchangeable and
//! *diffable*.
//!
//! **Failover.** Because shards are contiguous and streamed in
//! deterministic order, a worker that dies after emitting `k` lines of its
//! shard range `[s, e)` leaves exactly the range `[s + k, e)` unserved.
//! One failover loop serves shards and islands alike: per
//! [`FailoverPolicy`] it re-dispatches a lost shard's remaining range (the
//! `"range"` resume form of [`SweepRequest`]) — or replays a lost island's
//! deterministic event stream, skipping the lines already merged — on the
//! next worker in the pool with bounded retries and backoff. Every line is
//! emitted exactly once and the merged stream stays bit-for-bit identical
//! to the unsharded run, dead worker or not.
//!
//! Every merged line is folded into a FNV-1a [`Fingerprint`], and
//! [`unsharded_outcome`] computes the same fingerprint from a plain
//! in-process run — if the two match, the partition/merge (and any
//! failover re-dispatch) provably reproduced the unsharded sweep byte for
//! byte.

use std::cell::Cell;
use std::sync::mpsc;
use std::time::Duration;

use ecochip_core::sweep::{Shard, SweepContext, SweepEngine, SweepPoint};
use ecochip_core::{opt, EcoChip, EcoChipError, EstimatorConfig};
use ecochip_techdb::TechDb;
use ecochip_trace::{FieldValue, TraceId};

use crate::api::{OptimizeRequest, SweepFormat, SweepRequest};
use crate::client::Connection;
use crate::server::{ServeConfig, Server, ServerHandle};
use crate::ServeError;

/// Lines a worker can buffer before backpressure pauses it.
const WORKER_QUEUE_LINES: usize = 256;

/// How worker loss is handled when driving shards and islands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// Re-dispatch attempts per shard after its first try (`0` fails the
    /// whole run on the first worker loss).
    pub retries: usize,
    /// Base delay before a re-dispatch; attempt `n` waits `n * backoff`.
    pub backoff: Duration,
}

impl FailoverPolicy {
    /// Fail the run on the first worker loss.
    pub fn none() -> Self {
        Self {
            retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

impl Default for FailoverPolicy {
    /// Two re-dispatches per shard, 100 ms linear backoff.
    fn default() -> Self {
        Self {
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

/// How a sweep is fanned out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerPool {
    /// N in-process servers started for the run, optionally pinning each
    /// server's engine to a job count.
    Local {
        /// Number of shards/servers.
        workers: usize,
        /// Sweep-engine workers per shard (`None`: engine default).
        jobs: Option<usize>,
    },
    /// One remote `ecochip-serve` base address per shard.
    Remote(Vec<String>),
}

/// What an orchestrated (or unsharded reference) run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrchestratorOutcome {
    /// Points merged into the output stream.
    pub points: usize,
    /// FNV-1a fingerprint over every emitted line (`line + '\n'`).
    pub fingerprint: u64,
}

/// Incrementally fold NDJSON lines into a 64-bit FNV-1a fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;

    /// The fingerprint of the empty stream.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// Fold one line (hashed as `line + '\n'`).
    pub fn update(&mut self, line: &str) {
        for &byte in line.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        self.0 = (self.0 ^ u64::from(b'\n')).wrapping_mul(Self::PRIME);
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Fan `request` out across `pool`, merging the shard streams into
/// `on_line` in the sweep's deterministic case order.
///
/// The orchestrator owns the sharding, so `request.shard`/`request.range`
/// must be empty; workers run concurrently and the merge is streaming
/// (shard `i+1` evaluates while shard `i` drains). When a worker dies
/// mid-stream, `policy` re-dispatches the remaining index range of its
/// shard to the next worker in the pool — the merged stream is unchanged,
/// every point emitted exactly once.
///
/// # Errors
///
/// [`ServeError::Api`] for unresolvable requests or a pre-sliced request,
/// [`ServeError::Worker`] when a worker fails (after `policy.retries`
/// re-dispatches), the error that kept a local pool from starting, and the
/// first error returned by `on_line`.
pub fn orchestrate_with<F>(
    db: &TechDb,
    request: &SweepRequest,
    pool: &WorkerPool,
    policy: &FailoverPolicy,
    mut on_line: F,
) -> Result<OrchestratorOutcome, ServeError>
where
    F: FnMut(&str) -> Result<(), ServeError>,
{
    if request.shard.is_some() || request.range.is_some() {
        return Err(ServeError::Api(
            "orchestrated requests must not be pre-sliced; the orchestrator assigns shards".into(),
        ));
    }
    // Resolve up front so bad requests fail before any worker starts
    // (failover needs the case count to compute shard ranges anyway).
    let (spec, _) = request.resolve(db)?;
    let total = spec.try_len()?;
    let fleet = Fleet::start(db, pool)?;
    let shards = fleet.urls.len();

    // One trace ID for the whole fan-out: adopt the caller's current trace
    // (a front end that already minted or received one), mint otherwise.
    // Every worker request carries it as `X-Ecochip-Trace`, so one grep
    // stitches the fleet's logs back into this run's timeline.
    let trace = ecochip_trace::current_trace().unwrap_or_else(ecochip_trace::mint_trace_id);
    let _trace_guard = ecochip_trace::set_current_trace(trace);
    let _span = ecochip_trace::span("orchestrate:sweep");
    ecochip_trace::info(
        "serve::orchestrator",
        "orchestrating sweep",
        &[
            ("shards", FieldValue::from(shards)),
            ("points", FieldValue::from(total)),
        ],
    );

    let work = (0..shards)
        .map(|index| Work::Shard {
            request,
            range: Shard::new(index, shards)
                .expect("index < shards")
                .range(total),
        })
        .collect();
    let mut fingerprint = Fingerprint::new();
    let mut points = 0usize;
    fan_out(&fleet.urls, work, policy, trace, |line| {
        fingerprint.update(line);
        points += 1;
        on_line(line)
    })?;
    Ok(OrchestratorOutcome {
        points,
        fingerprint: fingerprint.digest(),
    })
}

/// The workers a run drives, by base URL. For a local pool it also owns
/// the in-process servers behind those URLs and shuts them down when
/// dropped — on every exit path, errors included.
struct Fleet {
    urls: Vec<String>,
    servers: Vec<ServerHandle>,
}

impl Fleet {
    /// Start a local pool's in-process servers — each on an ephemeral
    /// loopback port with one handler thread and its own cold memo,
    /// mimicking an independent process — or take a remote pool's URLs.
    fn start(db: &TechDb, pool: &WorkerPool) -> Result<Self, ServeError> {
        let mut fleet = Fleet {
            urls: Vec::new(),
            servers: Vec::new(),
        };
        match pool {
            WorkerPool::Local { workers, jobs } => {
                for _ in 0..(*workers).max(1) {
                    let server = Server::bind(&ServeConfig {
                        addr: "127.0.0.1:0".into(),
                        techdb: Some(db.clone()),
                        jobs: *jobs,
                        threads: 1,
                        ..ServeConfig::default()
                    })?;
                    fleet.urls.push(server.local_addr().to_string());
                    fleet.servers.push(server.spawn());
                }
            }
            WorkerPool::Remote(urls) => fleet.urls.clone_from(urls),
        }
        if fleet.urls.is_empty() {
            return Err(ServeError::Api(
                "a remote pool needs at least one URL".into(),
            ));
        }
        Ok(fleet)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for server in self.servers.drain(..) {
            // The run's outcome is already decided; a worker that fails to
            // stop cleanly has nothing to add to it.
            let _ = server.shutdown();
        }
    }
}

/// One worker stream of a fan-out and how it survives losing its worker.
enum Work<'a> {
    /// A sweep shard over `range`: a re-dispatch resumes after the lines
    /// already forwarded (the `"range"` resume form of [`SweepRequest`]).
    Shard {
        request: &'a SweepRequest,
        range: std::ops::Range<usize>,
    },
    /// An island's search, as its serialized request: its event stream is
    /// deterministic per seed, so a re-dispatch replays the same request
    /// and skips the lines already forwarded.
    Island(String),
}

impl Work<'_> {
    /// The log label of this kind of work and of its count.
    fn labels(&self) -> (&'static str, &'static str) {
        match self {
            Work::Shard { .. } => ("shard", "shards"),
            Work::Island(_) => ("island", "islands"),
        }
    }

    /// The path and body of attempt `attempt` of worker stream `index` of
    /// `of`, after `forwarded` lines reached the merger.
    fn post(
        &self,
        index: usize,
        of: usize,
        attempt: usize,
        forwarded: usize,
    ) -> Result<(&'static str, String), ServeError> {
        match self {
            Work::Shard { request, range } => {
                // First try: the whole shard as `I/N`. Resumes: the
                // remaining explicit index range. Worker-internal streams
                // use the compact framed encoding — the client decodes
                // frames back to the exact NDJSON lines, so the merged
                // stream (and its fingerprint) is unchanged.
                let sub_request = if attempt == 0 {
                    request.with_shard(index, of)
                } else {
                    request.with_range(range.start + forwarded, range.end)
                }
                .with_format(SweepFormat::Frames);
                let body = serde_json::to_string(&sub_request)
                    .map_err(|e| ServeError::Api(format!("serializing sweep request: {e}")))?;
                Ok(("/v1/sweep", body))
            }
            Work::Island(body) => Ok(("/v1/optimize", body.clone())),
        }
    }

    /// Leading response lines the merger already holds: none for a resumed
    /// shard, every forwarded one for a replayed island.
    fn replayed(&self, forwarded: usize) -> usize {
        match self {
            Work::Shard { .. } => 0,
            Work::Island(_) => forwarded,
        }
    }

    /// The re-dispatch WARN's progress field.
    fn progress(&self, forwarded: usize) -> (&'static str, FieldValue) {
        match self {
            Work::Shard { range, .. } => ("remaining", FieldValue::from(range.len() - forwarded)),
            Work::Island(_) => ("replayed", FieldValue::from(forwarded)),
        }
    }
}

/// Drive one [`Work`] per worker concurrently and hand their lines to
/// `on_line` in worker order. Shards are contiguous slices of the case
/// order and islands merge in island order, so draining the workers in
/// order *is* the ordered merge.
fn fan_out(
    urls: &[String],
    work: Vec<Work<'_>>,
    policy: &FailoverPolicy,
    trace: TraceId,
    mut on_line: impl FnMut(&str) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    std::thread::scope(|scope| {
        let receivers: Vec<_> = work
            .into_iter()
            .enumerate()
            .map(|(index, work)| {
                let (sender, receiver) =
                    mpsc::sync_channel::<Result<String, ServeError>>(WORKER_QUEUE_LINES);
                scope.spawn(move || {
                    if let Err(error) = drive(&work, index, urls, policy, trace, &sender) {
                        let _ = sender.send(Err(error));
                    }
                });
                receiver
            })
            .collect();
        for receiver in receivers {
            for line in receiver {
                on_line(&line?)?;
            }
        }
        Ok(())
    })
}

/// Drive worker stream `index` with retry/failover: POST its request,
/// forward NDJSON lines, and when the worker dies mid-stream re-dispatch
/// to the next worker in the pool — a shard resumes after the lines it
/// already forwarded, an island replays its stream and skips them, so
/// every line reaches the merger exactly once.
fn drive(
    work: &Work<'_>,
    index: usize,
    urls: &[String],
    policy: &FailoverPolicy,
    trace: TraceId,
    sender: &mpsc::SyncSender<Result<String, ServeError>>,
) -> Result<(), ServeError> {
    // Worker threads don't inherit the orchestrator's thread-local trace;
    // re-establish it so this stream's failover events carry the fleet's
    // trace ID.
    let _trace_guard = ecochip_trace::set_current_trace(trace);
    let (label, count_label) = work.labels();
    let count = urls.len();
    let forwarded = Cell::new(0usize);
    // The merger hanging up (a downstream error) is fatal, never retried.
    let merger_gone = Cell::new(false);
    let mut target = index;
    let mut attempt = 0usize;
    loop {
        let url = &urls[target];
        let (path, body) = work.post(index, count, attempt, forwarded.get())?;
        let skip = work.replayed(forwarded.get());
        let seen = Cell::new(0usize);
        let result = Connection::open(url).and_then(|mut connection| {
            // Propagate the fleet trace on every hop (first try and every
            // re-dispatch), so each worker's log and span dump carry it.
            connection.set_trace(Some(trace.to_string()));
            let response = connection.post_ndjson(path, &body, |line| {
                if line.starts_with("{\"error\"") {
                    return Err(ServeError::Worker(format!("{url}: {line}")));
                }
                let position = seen.get();
                seen.set(position + 1);
                if position < skip {
                    return Ok(());
                }
                if sender.send(Ok(line.to_owned())).is_err() {
                    merger_gone.set(true);
                    return Err(ServeError::Worker("orchestrator closed the stream".into()));
                }
                forwarded.set(forwarded.get() + 1);
                Ok(())
            })?;
            if response.status != 200 {
                return Err(ServeError::Worker(format!(
                    "{url} answered {}: {}",
                    response.status,
                    response.text().unwrap_or("<binary>").trim()
                )));
            }
            Ok(())
        });
        let error = match result {
            Ok(()) => return Ok(()),
            Err(error) => error,
        };
        if merger_gone.get() || !worker_loss(&error) {
            return Err(error);
        }
        if attempt >= policy.retries {
            ecochip_trace::warn(
                "serve::orchestrator",
                &format!("{label} retries exhausted; failing the run"),
                &[
                    (label, FieldValue::from(index)),
                    (count_label, FieldValue::from(count)),
                    ("attempts", FieldValue::from(attempt + 1)),
                    ("error", FieldValue::from(error.to_string())),
                ],
            );
            return Err(error);
        }
        attempt += 1;
        // Fail over to the next worker in the pool (wrapping past the dead
        // one; with a single-URL pool this retries the same worker).
        target = (target + 1) % count;
        ecochip_trace::warn(
            "serve::orchestrator",
            &format!("{label} lost its worker; re-dispatching"),
            &[
                (label, FieldValue::from(index)),
                (count_label, FieldValue::from(count)),
                ("error", FieldValue::from(error.to_string())),
                work.progress(forwarded.get()),
                ("url", FieldValue::from(urls[target].as_str())),
                ("attempt", FieldValue::from(attempt)),
                ("retries", FieldValue::from(policy.retries)),
            ],
        );
        if !policy.backoff.is_zero() {
            std::thread::sleep(policy.backoff.saturating_mul(attempt as u32));
        }
    }
}

/// Whether an error is consistent with losing the worker — a failed
/// connect or a collapsed/corrupted stream — as opposed to a deterministic
/// application failure (an in-band `{"error"}` line, a non-200 status, a
/// bad request), which would fail identically on every other worker and
/// must not be re-dispatched.
fn worker_loss(error: &ServeError) -> bool {
    matches!(error, ServeError::Io(_) | ServeError::Http(_))
}

/// What an island-model optimization run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandOutcome {
    /// Cases evaluated across every island and round.
    pub evaluated: usize,
    /// The merged global Pareto frontier.
    pub frontier: Vec<opt::FrontierPoint>,
    /// Islands (shards) the search ran on.
    pub islands: usize,
    /// Exchange rounds actually run (`1` for the exhaustive Pareto method).
    pub rounds: usize,
}

/// Split `total` across `rounds` so every round gets `total/rounds` and the
/// first `total % rounds` rounds absorb the remainder — the same balanced
/// split [`Shard`] uses for index ranges. A round gets at least 1: the
/// explorers evaluate one case on a zero budget anyway, and a worker
/// refuses `"budget": 0`.
fn round_budget(total: usize, rounds: usize, round: usize) -> usize {
    (total / rounds + usize::from(round < total % rounds)).max(1)
}

/// Fan a carbon-aware search out across `pool` as an **island model**: each
/// worker explores its own contiguous shard of the sweep's index space, and
/// between rounds the orchestrator merges every island's frontier into one
/// global [`opt::ParetoFrontier`] and seeds the next round with it — the
/// frontier exchange rides the same request plumbing.
///
/// Per island and round, seeds derive deterministically from the request
/// seed via [`opt::island_seed`] and the per-island budget is the request
/// budget split evenly across `rounds` — so a run with a fixed pool shape,
/// seed and budget reproduces its event stream byte for byte. Island event
/// lines stream through `on_line` in island order per round (each stamped
/// with its island index), followed by one terminal `done` line carrying
/// the merged global frontier.
///
/// The exhaustive `pareto` method covers every shard in one pass, so it
/// forces `rounds = 1`; `anneal`/`genetic` honour `rounds` as given. An
/// island whose worker dies mid-stream is re-dispatched to the next worker
/// per `policy`: its event stream is deterministic, so the replacement
/// replays it and the orchestrator skips the lines the merge already saw.
///
/// # Errors
///
/// [`ServeError::Api`] for unresolvable or pre-sliced requests (the
/// orchestrator assigns shards and islands), [`ServeError::Worker`] when
/// an island fails (after `policy.retries` re-dispatches), the error that
/// kept a local pool from starting, and the first error returned by
/// `on_line`.
pub fn orchestrate_optimize<F>(
    db: &TechDb,
    request: &OptimizeRequest,
    pool: &WorkerPool,
    policy: &FailoverPolicy,
    rounds: usize,
    mut on_line: F,
) -> Result<IslandOutcome, ServeError>
where
    F: FnMut(&str) -> Result<(), ServeError>,
{
    if request.shard.is_some() || request.island.is_some() || request.frontier.is_some() {
        return Err(ServeError::Api(
            "orchestrated optimize requests must not be pre-sliced; \
             the orchestrator assigns shards, islands and frontier seeds"
                .into(),
        ));
    }
    // Resolve up front so bad requests fail before any island starts; this
    // also yields the base OptConfig the per-island configs derive from.
    let (_, _, base) = request.resolve(db)?;
    let rounds = if base.method == opt::OptMethod::Pareto {
        // Exhaustive enumeration covers each shard completely in one pass;
        // further rounds would re-evaluate the same cases for nothing.
        1
    } else {
        rounds.max(1)
    };
    let fleet = Fleet::start(db, pool)?;
    let islands = fleet.urls.len();

    let trace = ecochip_trace::current_trace().unwrap_or_else(ecochip_trace::mint_trace_id);
    let _trace_guard = ecochip_trace::set_current_trace(trace);
    let _span = ecochip_trace::span("orchestrate:optimize");
    ecochip_trace::info(
        "serve::orchestrator",
        "orchestrating island-model optimization",
        &[
            ("islands", FieldValue::from(islands)),
            ("rounds", FieldValue::from(rounds)),
            ("method", FieldValue::from(base.method.label())),
            ("budget", FieldValue::from(base.budget)),
        ],
    );

    let mut global = opt::ParetoFrontier::new();
    let mut evaluated = 0usize;
    for round in 0..rounds {
        let exchanged = global.points().to_vec();
        let work = (0..islands)
            .map(|island| {
                // Per-(round, island) seeds are split off the request seed
                // deterministically, so island streams never correlate yet
                // the whole run reproduces from one seed.
                let mut sub_request = request.with_island(island, islands);
                sub_request.seed =
                    Some(opt::island_seed(opt::island_seed(base.seed, round), island));
                sub_request.budget = Some(round_budget(base.budget, rounds, round));
                sub_request.frontier = Some(exchanged.clone());
                serde_json::to_string(&sub_request)
                    .map(Work::Island)
                    .map_err(|e| ServeError::Api(format!("serializing optimize request: {e}")))
            })
            .collect::<Result<_, _>>()?;
        // Harvest each island's terminal `done` line (its field order puts
        // `event` first, so the prefix test is exact) to fold its frontier
        // into the global archive.
        fan_out(&fleet.urls, work, policy, trace, |line| {
            if line.starts_with("{\"event\":\"done\"") {
                let event: opt::OptEvent = serde_json::from_str(line).map_err(|e| {
                    ServeError::Worker(format!("island sent an undecodable done event: {e}"))
                })?;
                evaluated += event.evaluated;
                for point in event.frontier.unwrap_or_default() {
                    global.insert(point);
                }
            }
            on_line(line)
        })?;
    }

    let outcome = opt::OptOutcome {
        method: base.method.label().to_string(),
        evaluated,
        frontier: global.into_points(),
    };
    let done = serde_json::to_string(&opt::OptEvent::done(&outcome, None))
        .map_err(|e| ServeError::Api(format!("serializing merged done event: {e}")))?;
    on_line(&done)?;
    Ok(IslandOutcome {
        evaluated: outcome.evaluated,
        frontier: outcome.frontier,
        islands,
        rounds,
    })
}

/// The reference outcome: evaluate `request` unsharded in-process (one
/// engine, one warm memo) and fingerprint the stream without emitting it.
/// An orchestrated run whose [`OrchestratorOutcome`] equals this one
/// provably merged to the exact unsharded byte stream.
///
/// # Errors
///
/// [`ServeError::Api`] for unresolvable requests, [`ServeError::Estimator`]
/// for evaluation failures.
pub fn unsharded_outcome(
    db: &TechDb,
    request: &SweepRequest,
    jobs: Option<usize>,
) -> Result<OrchestratorOutcome, ServeError> {
    let (spec, slice) = request.resolve(db)?;
    let estimator = EcoChip::new(EstimatorConfig::builder().techdb(db.clone()).build());
    let engine = SweepEngine::with_optional_jobs(jobs);
    let context = SweepContext::new();
    let mut fingerprint = Fingerprint::new();
    let mut points = 0usize;
    let mut sink = |point: SweepPoint| {
        let line = serde_json::to_string(&point)
            .map_err(|e| EcoChipError::Io(format!("serializing sweep point: {e}")))?;
        fingerprint.update(&line);
        points += 1;
        Ok(())
    };
    engine.stream(&estimator, &spec, slice, &context, None, &mut sink)?;
    Ok(OrchestratorOutcome {
        points,
        fingerprint: fingerprint.digest(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_order_sensitive() {
        let mut ab = Fingerprint::new();
        ab.update("a");
        ab.update("b");
        let mut ba = Fingerprint::new();
        ba.update("b");
        ba.update("a");
        assert_ne!(ab.digest(), ba.digest());
        // "a\nb\n" hashed line-wise equals itself hashed again.
        let mut again = Fingerprint::new();
        again.update("a");
        again.update("b");
        assert_eq!(ab.digest(), again.digest());
        assert_ne!(Fingerprint::default().digest(), ab.digest());
    }

    #[test]
    fn local_orchestration_merges_to_the_unsharded_stream() {
        let db = TechDb::default();
        let request = SweepRequest::named("ga102-3chiplet", "lifetime");
        let reference = unsharded_outcome(&db, &request, Some(2)).unwrap();
        assert_eq!(reference.points, 7);

        for workers in [1usize, 2, 3, 5] {
            let mut lines = Vec::new();
            let outcome = orchestrate_with(
                &db,
                &request,
                &WorkerPool::Local {
                    workers,
                    jobs: Some(2),
                },
                &FailoverPolicy::none(),
                |line| {
                    lines.push(line.to_owned());
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(outcome, reference, "workers={workers}");
            assert_eq!(lines.len(), 7);
            // Each line is a valid SweepPoint.
            let point: SweepPoint = serde_json::from_str(&lines[0]).unwrap();
            assert!(point.label.ends_with('y'));
        }
    }

    #[test]
    fn island_pareto_matches_the_unsharded_frontier_for_any_pool_size() {
        let db = TechDb::default();
        let request = OptimizeRequest::named("ga102-3chiplet", "lifetime");
        // Reference: one island covers the whole index space exhaustively.
        let single = orchestrate_optimize(
            &db,
            &request,
            &WorkerPool::Local {
                workers: 1,
                jobs: None,
            },
            &FailoverPolicy::none(),
            1,
            |_| Ok(()),
        )
        .unwrap();
        assert!(!single.frontier.is_empty());
        assert_eq!(single.evaluated, 7);

        for islands in [2usize, 3, 5] {
            let mut done_lines = 0usize;
            let outcome = orchestrate_optimize(
                &db,
                &request,
                &WorkerPool::Local {
                    workers: islands,
                    jobs: Some(2),
                },
                &FailoverPolicy::none(),
                // Pareto is exhaustive: rounds collapse to 1.
                4,
                |line| {
                    if line.starts_with("{\"event\":\"done\"") {
                        done_lines += 1;
                    }
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(outcome.frontier, single.frontier, "islands={islands}");
            assert_eq!(outcome.evaluated, 7, "islands={islands}");
            assert_eq!(outcome.rounds, 1);
            assert_eq!(outcome.islands, islands);
            // One done line per island plus the merged terminal one.
            assert_eq!(done_lines, islands + 1);
        }
    }

    #[test]
    fn island_explorers_reproduce_per_seed_and_exchange_frontiers() {
        let db = TechDb::default();
        let mut request = OptimizeRequest::named("ga102-3chiplet", "lifetime");
        request.method = Some("anneal".into());
        request.budget = Some(12);
        request.seed = Some(42);
        let pool = WorkerPool::Local {
            workers: 2,
            jobs: None,
        };
        let run = |request: &OptimizeRequest| {
            let mut lines = Vec::new();
            let outcome =
                orchestrate_optimize(&db, request, &pool, &FailoverPolicy::none(), 3, |line| {
                    lines.push(line.to_owned());
                    Ok(())
                })
                .unwrap();
            (outcome, lines)
        };
        let (first, first_lines) = run(&request);
        let (second, second_lines) = run(&request);
        // Same seed, pool shape and budget: byte-identical event stream.
        assert_eq!(first_lines, second_lines);
        assert_eq!(first, second);
        assert_eq!(first.rounds, 3);
        // The budget bounds the whole fleet: per-island budget × islands.
        assert_eq!(first.evaluated, 12 * 2);
        // A different seed explores differently.
        request.seed = Some(7);
        let (_, other_lines) = run(&request);
        assert_ne!(first_lines, other_lines);
        // Later rounds are seeded with the exchanged global frontier, so
        // every done line's frontier contains only non-dominated points.
        let done: opt::OptEvent = serde_json::from_str(first_lines.last().unwrap()).unwrap();
        assert_eq!(done.event, "done");
        assert!(done.frontier.is_some_and(|f| !f.is_empty()));
    }

    #[test]
    fn round_budgets_split_evenly_and_are_never_zero() {
        let split = |total| {
            (0..3)
                .map(|round| round_budget(total, 3, round))
                .collect::<Vec<_>>()
        };
        assert_eq!(split(10), [4, 3, 3]);
        // A remote island refuses `"budget": 0`, so a budget smaller than
        // the round count still hands every round one evaluation.
        assert_eq!(split(2), [1, 1, 1]);
    }

    #[test]
    fn island_orchestrator_rejects_pre_sliced_requests() {
        let db = TechDb::default();
        let pool = WorkerPool::Local {
            workers: 2,
            jobs: None,
        };
        let sliced = OptimizeRequest::named("ga102", "lifetime").with_island(0, 2);
        assert!(matches!(
            orchestrate_optimize(&db, &sliced, &pool, &FailoverPolicy::none(), 1, |_| Ok(())),
            Err(ServeError::Api(_))
        ));
        let mut seeded = OptimizeRequest::named("ga102", "lifetime");
        seeded.frontier = Some(Vec::new());
        assert!(matches!(
            orchestrate_optimize(&db, &seeded, &pool, &FailoverPolicy::none(), 1, |_| Ok(())),
            Err(ServeError::Api(_))
        ));
        assert!(matches!(
            orchestrate_optimize(
                &db,
                &OptimizeRequest::named("ga102", "lifetime"),
                &WorkerPool::Remote(Vec::new()),
                &FailoverPolicy::none(),
                1,
                |_| Ok(())
            ),
            Err(ServeError::Api(_))
        ));
    }

    #[test]
    fn orchestrator_rejects_bad_requests() {
        let db = TechDb::default();
        let pool = WorkerPool::Local {
            workers: 2,
            jobs: None,
        };
        let sharded = SweepRequest::named("ga102", "lifetime").with_shard(0, 2);
        assert!(matches!(
            orchestrate_with(&db, &sharded, &pool, &FailoverPolicy::none(), |_| Ok(())),
            Err(ServeError::Api(_))
        ));
        let unknown = SweepRequest::named("nope", "lifetime");
        assert!(matches!(
            orchestrate_with(&db, &unknown, &pool, &FailoverPolicy::none(), |_| Ok(())),
            Err(ServeError::Api(_))
        ));
        assert!(matches!(
            orchestrate_with(
                &db,
                &SweepRequest::named("ga102", "lifetime"),
                &WorkerPool::Remote(Vec::new()),
                &FailoverPolicy::none(),
                |_| Ok(())
            ),
            Err(ServeError::Api(_))
        ));
        // Sink errors propagate out of the merge.
        let result = orchestrate_with(
            &db,
            &SweepRequest::named("ga102", "lifetime"),
            &pool,
            &FailoverPolicy::none(),
            |_| Err(ServeError::Worker("sink full".into())),
        );
        assert!(matches!(result, Err(ServeError::Worker(_))));
    }
}
