//! The three closed-loop HTTP workloads: their prepared inputs and
//! references, the client loops that drive a server with them, and the
//! correctness check of every response.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use eco_chip::core::opt::{self, FrontierPoint};
use eco_chip::core::sweep::{SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::core::{EcoChip, System};
use eco_chip::serve::api::{EstimateResponse, OptimizeRequest, SweepRequest};
use eco_chip::serve::orchestrator::Fingerprint;
use eco_chip::techdb::TechDb;

use crate::client::{request_bytes, Conn, Server};
use crate::cpu;
use crate::gen::{self, Shape};
use crate::stats::SpanLog;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SweepStream,
    DseOptimize,
    EstimateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sweep_stream" => Some(Self::SweepStream),
            "dse_optimize" => Some(Self::DseOptimize),
            "estimate_mix" => Some(Self::EstimateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::SweepStream => "sweep_stream",
            Self::DseOptimize => "dse_optimize",
            Self::EstimateMix => "estimate_mix",
        }
    }

    /// The server route label of the workload's primary request.
    pub fn route(self) -> &'static str {
        match self {
            Self::SweepStream => "sweep",
            Self::DseOptimize => "optimize",
            Self::EstimateMix => "estimate",
        }
    }
}

/// One completed client operation.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Completion time, from the start of the loop.
    pub end: Duration,
    pub latency: Duration,
    /// Server CPU time used from just before the request was sent until
    /// its response was read.
    pub cpu: Duration,
    /// The calibration round time (ns) around the request: the mean of the
    /// calibrations that bracket it.
    pub round_ns: f64,
    /// Design points the operation returned (sweep points, optimizer
    /// evaluations, or estimated designs).
    pub items: u64,
    /// Whether the response passed its correctness check (for
    /// `dse_optimize`, settled after the loop by [`Prepared::settle`]).
    pub ok: bool,
    /// Request count of the operation.
    pub requests: u64,
    pub kind: Kind,
}

impl Sample {
    /// Whether the sample is one of the unit requests of its workload:
    /// a sweep request, a budget-bounded (anneal or genetic) optimize
    /// request, or a single estimate request.
    pub fn is_unit(&self) -> bool {
        match self.kind {
            Kind::Sweep => true,
            Kind::Optimize { index, .. } => !index.is_multiple_of(3),
            Kind::Estimate(shape) => shape == Shape::Single,
        }
    }

    /// The server CPU time of the operation in reference microseconds.
    pub fn cost_us(&self) -> f64 {
        cpu::ref_us(self.cpu, self.round_ns)
    }
}

/// What a sample measured, for the per-shape statistics.
#[derive(Debug, Clone)]
pub enum Kind {
    Sweep,
    /// An optimize request: its sequence index and the digest of its body.
    Optimize {
        index: u64,
        fingerprint: u64,
    },
    Estimate(Shape),
}

/// What one closed-loop window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Server CPU time used over the whole window.
    pub cpu: Duration,
    /// The calibration round times (ns) measured during the window.
    pub rounds_ns: Vec<f64>,
}

impl Window {
    /// Wall-clock latencies (ms) of the unit requests (see
    /// [`Sample::is_unit`]).
    pub fn unit_latencies_ms(&self) -> Vec<f64> {
        self.latencies_ms(Sample::is_unit)
    }

    pub fn requests(&self) -> u64 {
        self.samples.iter().map(|s| s.requests).sum()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Latencies in milliseconds of the samples `keep` selects.
    pub fn latencies_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// Per-request costs, in reference milliseconds, of the unit requests
    /// (see [`Sample::is_unit`]).
    pub fn unit_costs_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.is_unit())
            .map(|s| s.cost_us() / 1e3)
            .collect()
    }

    /// Server cost per design point, in reference microseconds, over each
    /// run of consecutive operations that spans at least `slice` (a
    /// shorter last run is dropped).
    pub fn slice_costs_per_item_us(&self, slice: Duration) -> Vec<f64> {
        let mut costs = Vec::new();
        let (mut began, mut cost, mut items) = (Duration::ZERO, 0.0, 0);
        for sample in &self.samples {
            cost += sample.cost_us();
            items += sample.items;
            if sample.end - began >= slice {
                costs.push(cost / items as f64);
                (began, cost, items) = (sample.end, 0.0, 0);
            }
        }
        costs
    }

    /// Server CPU time per design point, in microseconds.
    pub fn cpu_per_item_us(&self) -> f64 {
        let items: u64 = self.samples.iter().map(|s| s.items).sum();
        self.cpu.as_secs_f64() * 1e6 / items as f64
    }
}

/// A `sweep_stream` request with its expected response stream.
pub struct SweepRef {
    pub request: SweepRequest,
    pub body: String,
    pub http: Vec<u8>,
    pub spec: SweepSpec,
    pub expected: Vec<u8>,
    pub fingerprint: u64,
    pub points: u64,
}

/// An `estimate_mix` pool design with its expected response body.
pub struct EstimateRef {
    pub system: System,
    pub body: String,
    pub http: Vec<u8>,
    /// The single-request response body (`EstimateResponse` JSON + `\n`).
    pub expected: Vec<u8>,
}

/// A workload's generated inputs and the references its responses are
/// checked against, computed before any server starts.
pub enum Prepared {
    Sweep(Vec<SweepRef>),
    Dse { db: TechDb, seed: u64 },
    Estimate { pool: Vec<EstimateRef>, seed: u64 },
}

/// Encode `point` as its NDJSON line into `line` (cleared first).
pub fn encode_line<T: serde::Serialize>(value: &T, line: &mut String) {
    line.clear();
    serde_json::to_string_into(value, line).expect("wire types serialize");
}

impl Prepared {
    pub fn new(workload: Workload, seed: u64, jobs: usize) -> Result<Self, String> {
        let db = TechDb::default();
        Ok(match workload {
            Workload::SweepStream => {
                let estimator = EcoChip::default();
                let engine = SweepEngine::with_jobs(jobs);
                let mut refs = Vec::new();
                for request in gen::sweep_requests(seed) {
                    let body = serde_json::to_string(&request).map_err(|e| e.to_string())?;
                    // Resolve the decoded body, exactly as the server does.
                    let decoded: SweepRequest =
                        serde_json::from_str(&body).map_err(|e| e.to_string())?;
                    let (spec, _) = decoded.resolve(&db).map_err(|e| e.to_string())?;
                    let mut expected = Vec::new();
                    let mut fingerprint = Fingerprint::new();
                    let mut line = String::new();
                    let points = engine
                        .run_streaming_with(
                            &estimator,
                            &spec,
                            eco_chip::core::sweep::Shard::FULL,
                            &SweepContext::new(),
                            &mut |point: SweepPoint| {
                                encode_line(&point, &mut line);
                                fingerprint.update(&line);
                                expected.extend_from_slice(line.as_bytes());
                                expected.push(b'\n');
                                Ok(())
                            },
                        )
                        .map_err(|e| e.to_string())?;
                    refs.push(SweepRef {
                        http: request_bytes("POST", "/v1/sweep", body.as_bytes()),
                        request,
                        body,
                        spec,
                        expected,
                        fingerprint: fingerprint.digest(),
                        points: points as u64,
                    });
                }
                Prepared::Sweep(refs)
            }
            Workload::DseOptimize => Prepared::Dse { db, seed },
            Workload::EstimateMix => {
                let estimator = EcoChip::default();
                let mut pool = Vec::new();
                for system in gen::estimate_pool(&db, seed) {
                    let body = gen::estimate_body(&system);
                    let decoded: eco_chip::serve::api::EstimateRequest =
                        serde_json::from_str(&body).map_err(|e| e.to_string())?;
                    let resolved = decoded.resolve(&db).map_err(|e| e.to_string())?;
                    let report = estimator.estimate(&resolved).map_err(|e| e.to_string())?;
                    let response = EstimateResponse {
                        system: resolved.name.clone(),
                        embodied_fraction: report.embodied_fraction(),
                        report,
                    };
                    let mut expected = serde_json::to_string(&response)
                        .map_err(|e| e.to_string())?
                        .into_bytes();
                    expected.push(b'\n');
                    pool.push(EstimateRef {
                        http: request_bytes("POST", "/v1/estimate", body.as_bytes()),
                        system,
                        body,
                        expected,
                    });
                }
                Prepared::Estimate { pool, seed }
            }
        })
    }

    /// The `Fingerprint` digests of the sweep reference streams (empty for
    /// the other workloads): equal digests across commits mean equal bytes.
    pub fn stream_fingerprints(&self) -> Vec<u64> {
        match self {
            Prepared::Sweep(refs) => refs.iter().map(|r| r.fingerprint).collect(),
            _ => Vec::new(),
        }
    }

    /// One request that warms a fresh server (part of set-up); `Ok(false)`
    /// when its response is wrong.
    pub fn warm(&self, addr: SocketAddr) -> std::io::Result<bool> {
        match self {
            Prepared::Sweep(refs) => sweep_once(&mut Conn::open(addr)?, &refs[0]),
            Prepared::Dse { db, seed } => {
                // A space outside the timed sequence, so timed requests
                // stay new to the memo.
                let request = gen::dse_request(db, *seed, u64::MAX - 2);
                let mut conn = Conn::open(addr)?;
                let (status, _, evaluated) = optimize_once(&mut conn, &request)?;
                Ok(status == 200 && evaluated > 0)
            }
            Prepared::Estimate { pool, .. } => {
                let mut conn = Conn::open(addr)?;
                conn.send(&pool[0].http)?;
                let mut body = Vec::new();
                let status = conn.read_response(&mut |bytes| body.extend_from_slice(bytes))?;
                Ok(status == 200 && body == pool[0].expected)
            }
        }
    }

    /// Drive `server` in a closed loop on one connection until `length`
    /// has passed (the operation in flight then completes), recording a
    /// client span per operation into `log` when given.
    pub fn drive(
        &self,
        server: &Server,
        length: Duration,
        mut log: Option<&mut SpanLog>,
    ) -> std::io::Result<Window> {
        let mut meter = Meter::new(server)?;
        let deadline = meter.start + length;
        let mut conn = Conn::open(server.addr)?;
        let mut samples = Vec::new();
        let mut push = |label: &str, sample: Sample| {
            if let Some(log) = log.as_deref_mut() {
                log.record(label, None, sample.latency, sample.requests);
            }
            samples.push(sample);
        };
        match self {
            Prepared::Sweep(refs) => {
                for reference in refs.iter().cycle() {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let sample = meter.sample(|| {
                        let ok = sweep_once(&mut conn, reference)?;
                        Ok((reference.points, ok, 1, Kind::Sweep))
                    })?;
                    push("client:sweep", sample);
                }
            }
            Prepared::Dse { db, seed } => {
                let mut index = 0u64;
                // Whole design spaces only, and at least the ones `quality`
                // is computed over.
                while Instant::now() < deadline
                    || !index.is_multiple_of(3)
                    || index < 3 * gen::QUALITY_SPACES
                {
                    let request = gen::dse_request(db, *seed, index);
                    let sample = meter.sample(|| {
                        let (status, fingerprint, evaluated) = optimize_once(&mut conn, &request)?;
                        let kind = Kind::Optimize { index, fingerprint };
                        Ok((evaluated, status == 200, 1, kind))
                    })?;
                    push("client:optimize", sample);
                    index += 1;
                }
            }
            Prepared::Estimate { pool, seed } => {
                let mut wire = Vec::new();
                for op in gen::estimate_ops(*seed) {
                    if Instant::now() >= deadline {
                        break;
                    }
                    let sample = meter.sample(|| {
                        let (ok, requests) = estimate_op(&mut conn, pool, &op, &mut wire)?;
                        let items = op.designs.len() as u64;
                        Ok((items, ok, requests, Kind::Estimate(op.shape)))
                    })?;
                    push(op.shape.label(), sample);
                }
            }
        }
        meter.finish(samples)
    }

    /// Settle the correctness of every `dse_optimize` sample of `windows`
    /// against the in-process optimizer (after the timed windows, on `jobs`
    /// threads, once per request index), and return the frontiers of the
    /// quality spaces by request index.
    pub fn settle(
        &self,
        windows: &mut [Window],
        jobs: usize,
    ) -> Result<Vec<(u64, Vec<FrontierPoint>)>, String> {
        let Prepared::Dse { db, seed } = self else {
            return Ok(Vec::new());
        };
        let served = windows
            .iter()
            .flat_map(|w| &w.samples)
            .filter_map(|s| match s.kind {
                Kind::Optimize { index, .. } => Some(index + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let jobs = jobs.max(1);
        type Reference = (u64, u64, opt::OptOutcome);
        let references: Vec<Result<Vec<Reference>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs as u64)
                .map(|worker| {
                    scope.spawn(move || {
                        (worker..served)
                            .step_by(jobs)
                            .map(|index| {
                                let (digest, outcome) =
                                    reference_optimize(db, &gen::dse_request(db, *seed, index))?;
                                Ok((index, digest, outcome))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("verifier thread panicked"))
                .collect()
        });
        let mut by_index: Vec<Option<(u64, opt::OptOutcome)>> = (0..served).map(|_| None).collect();
        for part in references {
            for (index, digest, outcome) in part? {
                by_index[index as usize] = Some((digest, outcome));
            }
        }
        for sample in windows.iter_mut().flat_map(|w| &mut w.samples) {
            if let Kind::Optimize { index, fingerprint } = sample.kind {
                let (digest, outcome) = by_index[index as usize]
                    .as_ref()
                    .expect("every served index has a reference");
                sample.ok =
                    sample.ok && *digest == fingerprint && outcome.evaluated as u64 == sample.items;
            }
        }
        Ok(by_index
            .into_iter()
            .enumerate()
            .take((3 * gen::QUALITY_SPACES) as usize)
            .filter_map(|(index, reference)| {
                reference.map(|(_, outcome)| (index as u64, outcome.frontier))
            })
            .collect())
    }
}

/// The in-process reference of one optimize request: the digest of its
/// NDJSON event stream and its outcome.
pub fn reference_optimize(
    db: &TechDb,
    request: &OptimizeRequest,
) -> Result<(u64, opt::OptOutcome), String> {
    let body = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let decoded: OptimizeRequest = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let (spec, shard, config) = decoded.resolve(db).map_err(|e| e.to_string())?;
    let mut fingerprint = Fingerprint::new();
    let mut line = String::new();
    let outcome = opt::optimize(
        &EcoChip::default(),
        &SweepEngine::serial(),
        &spec,
        shard,
        &SweepContext::new(),
        None,
        &config,
        |event: &opt::OptEvent| {
            encode_line(event, &mut line);
            fingerprint.update(&line);
            Ok(())
        },
    )
    .map_err(|e| e.to_string())?;
    Ok((fingerprint.digest(), outcome))
}

/// Send one sweep request and compare the streamed body byte for byte
/// with the reference stream.
fn sweep_once(conn: &mut Conn, reference: &SweepRef) -> std::io::Result<bool> {
    conn.send(&reference.http)?;
    let expected = &reference.expected;
    let mut offset = 0;
    let mut same = true;
    let status = conn.read_response(&mut |chunk| {
        let end = offset + chunk.len();
        same = same && end <= expected.len() && expected[offset..end] == *chunk;
        offset = end;
    })?;
    Ok(status == 200 && same && offset == expected.len())
}

/// Send one optimize request; returns the status, the Fingerprint digest of
/// the event lines and the `evaluated` count of the terminal `done` event.
fn optimize_once(conn: &mut Conn, request: &OptimizeRequest) -> std::io::Result<(u16, u64, u64)> {
    let body = serde_json::to_string(request).expect("wire types serialize");
    conn.send(&request_bytes("POST", "/v1/optimize", body.as_bytes()))?;
    let mut fingerprint = Fingerprint::new();
    let mut pending: Vec<u8> = Vec::new();
    let mut last = String::new();
    let status = conn.read_response(&mut |chunk| {
        pending.extend_from_slice(chunk);
        while let Some(at) = pending.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[..at]).into_owned();
            fingerprint.update(&line);
            last = line;
            pending.drain(..=at);
        }
    })?;
    let evaluated = if last.starts_with("{\"event\":\"done\"") {
        last.split("\"evaluated\":")
            .nth(1)
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or(0)
    } else {
        0
    };
    Ok((status, fingerprint.digest(), evaluated))
}

/// How often a window re-measures the calibration round.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// The clocks of one window: wall time, the server's CPU time, and the
/// calibration round, measured on the client's (pinned) CPU between
/// operations, when the server is idle.
struct Meter<'a> {
    server: &'a Server,
    start: Instant,
    cpu_start: Duration,
    calibrated: Instant,
    rounds_ns: Vec<f64>,
    /// For each sample, the index of the last calibration before it.
    segments: Vec<usize>,
}

impl<'a> Meter<'a> {
    fn new(server: &'a Server) -> std::io::Result<Self> {
        let mut meter = Self {
            server,
            start: Instant::now(),
            cpu_start: server.cpu_time()?,
            calibrated: Instant::now(),
            rounds_ns: Vec::new(),
            segments: Vec::new(),
        };
        meter.calibrate()?;
        Ok(meter)
    }

    fn calibrate(&mut self) -> std::io::Result<()> {
        self.rounds_ns.push(cpu::calibrate()?);
        self.calibrated = Instant::now();
        Ok(())
    }

    /// Run one operation, which returns its item count, whether its
    /// responses were right, its request count and its kind. The clocks
    /// are read outside the timed interval.
    fn sample(
        &mut self,
        op: impl FnOnce() -> std::io::Result<(u64, bool, u64, Kind)>,
    ) -> std::io::Result<Sample> {
        if self.calibrated.elapsed() >= CALIBRATE_EVERY {
            self.calibrate()?;
        }
        let cpu = self.server.cpu_time()?;
        let began = Instant::now();
        let (items, ok, requests, kind) = op()?;
        let latency = began.elapsed();
        let cpu = self.server.cpu_time()? - cpu;
        self.segments.push(self.rounds_ns.len() - 1);
        Ok(Sample {
            end: self.start.elapsed(),
            latency,
            cpu,
            round_ns: 0.0,
            items,
            ok,
            requests,
            kind,
        })
    }

    /// Close the window: calibrate once more, then give every sample the
    /// mean of the two calibrations around it.
    fn finish(mut self, mut samples: Vec<Sample>) -> std::io::Result<Window> {
        let wall = self.start.elapsed();
        let cpu = self.server.cpu_time()? - self.cpu_start;
        self.calibrate()?;
        for (sample, &at) in samples.iter_mut().zip(&self.segments) {
            sample.round_ns = (self.rounds_ns[at] + self.rounds_ns[at + 1]) / 2.0;
        }
        Ok(Window {
            samples,
            wall,
            cpu,
            rounds_ns: self.rounds_ns,
        })
    }
}

/// Send one `estimate_mix` operation and compare each response with the
/// reference bodies; returns whether all matched and the request count.
fn estimate_op(
    conn: &mut Conn,
    pool: &[EstimateRef],
    op: &gen::Op,
    wire: &mut Vec<u8>,
) -> std::io::Result<(bool, u64)> {
    Ok(match op.shape {
        Shape::Single => {
            conn.send(&pool[op.designs[0]].http)?;
            (read_expected(conn, &pool[op.designs[0]].expected)?, 1)
        }
        Shape::Pipelined => {
            wire.clear();
            for &d in &op.designs {
                wire.extend_from_slice(&pool[d].http);
            }
            conn.send(wire)?;
            let mut ok = true;
            for &d in &op.designs {
                ok &= read_expected(conn, &pool[d].expected)?;
            }
            (ok, op.designs.len() as u64)
        }
        Shape::Batch => {
            wire.clear();
            wire.push(b'[');
            for (i, &d) in op.designs.iter().enumerate() {
                if i > 0 {
                    wire.push(b',');
                }
                wire.extend_from_slice(pool[d].body.as_bytes());
            }
            wire.push(b']');
            conn.send(&request_bytes("POST", "/v1/estimate", wire))?;
            let mut body = Vec::new();
            let status = conn.read_response(&mut |bytes| body.extend_from_slice(bytes))?;
            let items = op.designs.iter().map(|&d| pool[d].expected.as_slice());
            (status == 200 && batch_matches(&body, items), 1)
        }
    })
}

fn read_expected(conn: &mut Conn, expected: &[u8]) -> std::io::Result<bool> {
    let mut body = Vec::new();
    let status = conn.read_response(&mut |bytes| body.extend_from_slice(bytes))?;
    Ok(status == 200 && body == expected)
}

/// A batch body is the single-request bodies (without their newline),
/// comma-joined in a JSON array, plus the trailing newline.
fn batch_matches<'a>(body: &[u8], items: impl Iterator<Item = &'a [u8]>) -> bool {
    let mut rest = body;
    let mut take = |expected: &[u8]| match rest.strip_prefix(expected) {
        Some(tail) => {
            rest = tail;
            true
        }
        None => false,
    };
    if !take(b"[") {
        return false;
    }
    for (i, item) in items.enumerate() {
        if (i > 0 && !take(b",")) || !take(&item[..item.len() - 1]) {
            return false;
        }
    }
    take(b"]\n") && rest.is_empty()
}

/// The 2-D hypervolume of `points` (minimized objectives) against the
/// reference corner `corner`; points beyond the corner add nothing.
pub fn hypervolume(points: &[FrontierPoint], corner: [f64; 2]) -> f64 {
    let mut xy: Vec<[f64; 2]> = points
        .iter()
        .map(|p| {
            let v: Vec<f64> = p.values().collect();
            [v[0], v[1]]
        })
        .filter(|[x, y]| *x < corner[0] && *y < corner[1])
        .collect();
    xy.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    let mut volume = 0.0;
    let mut best_y = corner[1];
    for (i, [x, y]) in xy.iter().enumerate() {
        if *y >= best_y {
            continue;
        }
        let next_x = xy[i + 1..]
            .iter()
            .find(|[_, y2]| *y2 < *y)
            .map_or(corner[0], |[x2, _]| *x2);
        volume += (next_x - x) * (corner[1] - y);
        best_y = *y;
    }
    volume
}

/// `quality`: the mean over design spaces of the anneal and genetic
/// frontier hypervolumes, each normalized by the exhaustive pareto
/// frontier's. The corner is 1.1× the pareto frontier's worst value on
/// each objective. `frontiers` is indexed by request index.
pub fn quality(frontiers: &[(u64, Vec<FrontierPoint>)]) -> Option<f64> {
    let mut ratios = Vec::new();
    for space in 0..gen::QUALITY_SPACES {
        let find = |index: u64| frontiers.iter().find(|(i, _)| *i == index).map(|(_, f)| f);
        let pareto = find(3 * space)?;
        let corner = [0, 1].map(|k| {
            pareto
                .iter()
                .map(|p| p.values().nth(k).unwrap_or(0.0))
                .fold(f64::MIN, f64::max)
                * 1.1
        });
        let exhaustive = hypervolume(pareto, corner);
        for method in 1..3 {
            ratios.push(hypervolume(find(3 * space + method)?, corner) / exhaustive);
        }
    }
    Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// The workload's sweep space, as a sweep request (for the frames
/// comparison) and its resolved spec (for the in-process layer replays).
pub fn workload_spec(prepared: &Prepared) -> Result<(SweepRequest, SweepSpec), String> {
    let db = TechDb::default();
    let request = match prepared {
        Prepared::Sweep(refs) => refs[0].request.clone(),
        Prepared::Dse { db, seed } => {
            let (base, axes) = gen::dse_space(db, *seed, 0);
            SweepRequest {
                testcase: None,
                system: Some(base),
                axis: None,
                axes: Some(axes),
                ..SweepRequest::named("", "")
            }
        }
        Prepared::Estimate { pool, .. } => SweepRequest {
            testcase: None,
            system: Some(pool[0].system.clone()),
            axis: None,
            axes: Some(vec![SweepAxis::Systems(
                pool.iter()
                    .enumerate()
                    .map(|(i, r)| (format!("d{i}"), r.system.clone()))
                    .collect(),
            )]),
            ..SweepRequest::named("", "")
        },
    };
    let (spec, _) = request.resolve(&db).map_err(|e| e.to_string())?;
    Ok((request, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(index: usize, x: f64, y: f64) -> FrontierPoint {
        FrontierPoint::new(index, String::new(), &opt::ObjectiveSet::default(), &[x, y])
    }

    #[test]
    fn hypervolume_of_a_staircase() {
        let corner = [4.0, 4.0];
        assert_eq!(hypervolume(&[point(0, 1.0, 1.0)], corner), 9.0);
        let stairs = [point(0, 1.0, 3.0), point(1, 2.0, 2.0), point(2, 3.0, 1.0)];
        assert_eq!(hypervolume(&stairs, corner), 3.0 + 2.0 + 1.0);
        // A dominated point and a point beyond the corner add nothing.
        let extra = [
            point(0, 1.0, 3.0),
            point(1, 2.0, 2.0),
            point(2, 3.0, 1.0),
            point(3, 2.5, 2.5),
            point(4, 5.0, 0.5),
        ];
        assert_eq!(hypervolume(&extra, corner), 6.0);
    }

    fn reference_quality(seed: u64) -> f64 {
        let db = TechDb::default();
        let frontiers: Vec<(u64, Vec<FrontierPoint>)> = (0..3 * gen::QUALITY_SPACES)
            .map(|index| {
                let request = gen::dse_request(&db, seed, index);
                (index, reference_optimize(&db, &request).unwrap().1.frontier)
            })
            .collect();
        quality(&frontiers).unwrap()
    }

    #[test]
    fn quality_is_bit_identical_for_a_seed() {
        let first = reference_quality(5);
        assert_eq!(first.to_bits(), reference_quality(5).to_bits());
        assert!(first > 0.0 && first <= 1.0, "{first}");
    }

    #[test]
    fn batch_bodies_match_joined_singles() {
        let single: &[u8] = b"{\"a\":1}\n";
        let two = || [single, single].into_iter();
        assert!(batch_matches(b"[{\"a\":1},{\"a\":1}]\n", two()));
        assert!(!batch_matches(b"[{\"a\":1}]\n", two()));
        assert!(!batch_matches(b"[{\"a\":2},{\"a\":1}]\n", two()));
    }
}
