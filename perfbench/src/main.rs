//! The ecochip benchmark: drives a release `ecochip serve` child with one
//! of three seeded closed-loop workloads, checks every response against an
//! in-process reference, and prints one JSON result line.
//!
//! ```text
//! perfbench --server <ecochip binary> --workload <sweep_stream|dse_optimize|estimate_mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics of a separate traced run. See `perfbench/README.md`.

mod client;
mod cpu;
mod gen;
mod layers;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use eco_chip::serve::api::{StatsResponse, SweepFormat, SweepRequest};

use crate::client::{call, Conn, Server};
use crate::gen::Shape;
use crate::stats::{grouped_quantile, median, quantile, slice_rates, Metric, SpanLog};
use crate::workloads::{Kind, Prepared, Window, Workload};

/// Timed server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Servers the timed window of an untraced run is split across.
const SERVERS: usize = 5;
/// The server's `--jobs` and `--threads`. The client keeps one request in
/// flight, so one handler thread serves it; a serial sweep engine spends
/// server CPU time on points only, where parallel workers also spend it
/// on hand-offs whose share depends on how busy the host is.
const SERVER_JOBS: usize = 1;
/// Consecutive unit requests per `request_cost_p90` group.
const TAIL_GROUP: usize = 100;
/// Slice length of the cost-per-item samples, and of the `estimate_mix`
/// throughput samples.
const SLICE: Duration = Duration::from_millis(250);

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer")?,
                )
            }
            "--seconds" => {
                let text = value()?;
                seconds = Some(
                    text.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                );
            }
            "--trace" => trace = value()? == "1",
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_dir,
    })
}

/// The server-side counters a traced window is bracketed by.
struct Snapshot {
    stats: StatsResponse,
    metrics: String,
}

impl Snapshot {
    fn take(addr: SocketAddr) -> Result<Self, String> {
        let (_, stats) = call(addr, "GET", "/v1/stats", b"").map_err(|e| e.to_string())?;
        let stats =
            serde_json::from_str(&String::from_utf8_lossy(&stats)).map_err(|e| e.to_string())?;
        let (_, metrics) = call(addr, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
        Ok(Self {
            stats,
            metrics: String::from_utf8_lossy(&metrics).into_owned(),
        })
    }

    /// The value of the Prometheus sample named exactly `series`.
    fn sample(&self, series: &str) -> f64 {
        self.metrics
            .lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .and_then(|value| value.trim().parse().ok())
            .unwrap_or(0.0)
    }

    fn stage_seconds(&self, stage: &str) -> f64 {
        self.sample(&format!(
            "ecochip_sweep_stage_duration_seconds_sum{{stage=\"{stage}\"}}"
        ))
    }

    fn toolchain(&self) -> String {
        self.metrics
            .lines()
            .find_map(|line| line.strip_prefix("ecochip_build_info{"))
            .and_then(|labels| labels.split("toolchain=\"").nth(1))
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("unknown")
            .to_string()
    }

    /// Server-side request time of `route`: (summed seconds, requests).
    fn route_time(&self, route: &str) -> (f64, f64) {
        let series = |part: &str| {
            self.sample(&format!(
                "ecochip_http_request_duration_seconds_{part}{{route=\"{route}\"}}"
            ))
        };
        (series("sum"), series("count"))
    }
}

/// The workload's primary throughput over windows: per-request points/s
/// for sweeps, per-design-space evaluations/s for optimize requests, and
/// per-slice designs/s for estimates — the median of the pooled samples.
fn throughput(workload: Workload, windows: &[Window]) -> f64 {
    let mut rates = Vec::new();
    for window in windows {
        match workload {
            Workload::SweepStream => rates.extend(
                window
                    .samples
                    .iter()
                    .map(|s| s.items as f64 / s.latency.as_secs_f64()),
            ),
            Workload::DseOptimize => rates.extend(window.samples.chunks_exact(3).map(|space| {
                let evaluated: u64 = space.iter().map(|s| s.items).sum();
                let time: f64 = space.iter().map(|s| s.latency.as_secs_f64()).sum();
                evaluated as f64 / time
            })),
            Workload::EstimateMix => {
                let completions: Vec<(Duration, u64)> =
                    window.samples.iter().map(|s| (s.end, s.items)).collect();
                rates.extend(slice_rates(&completions, SLICE, window.wall));
            }
        }
    }
    median(&rates)
}

fn spawn_warm(args: &Args, prepared: &Prepared) -> Result<Server, String> {
    let server = Server::spawn(&args.server, SERVER_JOBS, SERVER_JOBS)
        .map_err(|e| format!("spawning the server: {e}"))?;
    if !prepared
        .warm(server.addr)
        .map_err(|e| format!("warm-up request: {e}"))?
    {
        return Err("the warm-up response differs from its reference".into());
    }
    Ok(server)
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    provenance: Vec<(&'static str, String)>,
}

/// Pin the client, and the servers it spawns, to one CPU (see [`cpu`]).
fn pin() -> Result<cpu::Pin, String> {
    cpu::Pin::first_cpu().map_err(|e| format!("pinning to one CPU: {e}"))
}

/// The untraced run: `SETUP_REPS` timed set-ups, the first `SERVERS` of
/// which are then driven for an equal share of the run, all on one CPU.
/// Pooling the samples of several server processes averages out how each
/// process happened to be laid out in memory.
fn end_to_end(args: &Args, prepared: &Prepared, jobs: usize) -> Result<Outcome, String> {
    let share = Duration::from_secs_f64(args.seconds / SERVERS as f64);
    let pinned = pin()?;
    let mut setups = Vec::new();
    let mut peak_rss = Vec::new();
    let mut windows = Vec::new();
    let mut snapshot = None;
    for rep in 0..SETUP_REPS {
        let began = Instant::now();
        let server = spawn_warm(args, prepared)?;
        setups.push(began.elapsed().as_secs_f64());
        if rep < SERVERS {
            if snapshot.is_none() {
                snapshot = Some(Snapshot::take(server.addr)?);
            }
            windows.push(
                prepared
                    .drive(&server, share, None)
                    .map_err(|e| format!("timed window: {e}"))?,
            );
            peak_rss.push(server.peak_rss_mb().map_err(|e| e.to_string())?);
        }
        server.shutdown().map_err(|e| e.to_string())?;
    }
    drop(pinned);
    let snapshot = snapshot.expect("at least one server");
    let frontiers = prepared.settle(&mut windows, jobs)?;

    let failed: u64 = windows.iter().map(Window::failed).sum();
    let attempted: u64 = windows.iter().map(|w| w.samples.len() as u64).sum();
    let quality = match args.workload {
        Workload::DseOptimize => workloads::quality(&frontiers).ok_or("quality spaces missing")?,
        _ => 1.0 - failed as f64 / attempted.max(1) as f64,
    };
    // Speed is the server's CPU time priced in reference units, not wall
    // time: on a shared host both the wall clock and the CPU clock move
    // with the neighbours' load (see `cpu`). Medians over slices of the
    // run, and over requests, leave out the phases when the host slowed
    // the server more than the calibration loop.
    let slices: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.slice_costs_per_item_us(SLICE))
        .collect();
    let unit: Vec<f64> = windows.iter().flat_map(Window::unit_costs_ms).collect();
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mb", median(&peak_rss), "MiB"),
            Metric::new("quality", quality, "ratio"),
            Metric::new("cost_per_item", median(&slices), "ref_us"),
            Metric::new("request_cost_p50", median(&unit), "ref_ms"),
            Metric::new(
                "request_cost_p90",
                grouped_quantile(&unit, TAIL_GROUP, 0.9),
                "ref_ms",
            ),
        ],
        attempted,
        failed,
        provenance: vec![
            ("chunk", snapshot.stats.chunk.to_string()),
            ("toolchain", format!("{:?}", snapshot.toolchain())),
            ("operations", attempted.to_string()),
            (
                "requests",
                windows
                    .iter()
                    .map(Window::requests)
                    .sum::<u64>()
                    .to_string(),
            ),
            ("request_cost_samples", unit.len().to_string()),
            ("setups", setups.len().to_string()),
            ("servers", windows.len().to_string()),
            (
                "stream_fingerprints",
                format!("{:?}", prepared.stream_fingerprints()),
            ),
        ],
    })
}

/// Points/s of `/v1/sweep` in `ECOF` frames over NDJSON on the workload's
/// sweep space, alternating formats for about `budget`.
fn frames_over_ndjson(
    addr: SocketAddr,
    request: &SweepRequest,
    points: u64,
    budget: Duration,
) -> Result<f64, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let mut rates = [Vec::new(), Vec::new()];
    let formats = [SweepFormat::NdJson, SweepFormat::Frames];
    let bodies: Vec<Vec<u8>> = formats
        .iter()
        .map(|f| {
            let body =
                serde_json::to_string(&request.with_format(*f)).expect("wire types serialize");
            client::request_bytes("POST", "/v1/sweep", body.as_bytes())
        })
        .collect();
    let start = Instant::now();
    while rates[1].len() < 3 || start.elapsed() < budget {
        for (at, http) in bodies.iter().enumerate() {
            let began = Instant::now();
            conn.send(http).map_err(|e| e.to_string())?;
            let status = conn.read_response(&mut |_| {}).map_err(|e| e.to_string())?;
            if status != 200 {
                return Err(format!("{:?} sweep answered {status}", formats[at]));
            }
            rates[at].push(points as f64 / began.elapsed().as_secs_f64());
        }
    }
    Ok(median(&rates[1]) / median(&rates[0]))
}

/// Mean client latency of the requests on the workload's primary route
/// (single requests, for `estimate_mix`) in `window` minus the server's
/// mean time for that route over the same window. (The server's latency
/// histogram has 1 ms as its finest bucket, too coarse for a p50 of
/// sub-millisecond requests, so the exact means are used.)
fn client_overhead_ms(
    before: &Snapshot,
    after: &Snapshot,
    workload: Workload,
    window: &Window,
) -> f64 {
    let requests =
        window.latencies_ms(|s| !matches!(s.kind, Kind::Estimate(shape) if shape != Shape::Single));
    let client = requests.iter().sum::<f64>() / requests.len().max(1) as f64;
    let (sum_after, count_after) = after.route_time(workload.route());
    let (sum_before, count_before) = before.route_time(workload.route());
    let requests = count_after - count_before;
    let server = if requests > 0.0 {
        (sum_after - sum_before) / requests * 1e3
    } else {
        0.0
    };
    client - server
}

/// The traced run: an untraced and a traced window on one server, the
/// server's counters around the traced one, then the in-process replays.
fn traced(args: &Args, prepared: &Prepared, jobs: usize) -> Result<Outcome, String> {
    let (sweep_request, spec) = workloads::workload_spec(prepared)?;
    let points = spec.try_len().map_err(|e| e.to_string())? as u64;
    let pinned = pin()?;
    let server = spawn_warm(args, prepared)?;
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let untraced = prepared
        .drive(&server, quarter, None)
        .map_err(|e| e.to_string())?;
    let before = Snapshot::take(server.addr)?;
    let mut log = SpanLog::new();
    let window = prepared
        .drive(&server, quarter, Some(&mut log))
        .map_err(|e| e.to_string())?;
    let after = Snapshot::take(server.addr)?;
    let frames = frames_over_ndjson(server.addr, &sweep_request, points, quarter / 4)?;
    server.shutdown().map_err(|e| e.to_string())?;
    drop(pinned);
    let mut windows = [untraced, window];
    prepared.settle(&mut windows, jobs)?;
    let [untraced, window] = windows;

    let mut metrics = layers::replay(
        prepared,
        &spec,
        args.seed,
        jobs,
        Duration::from_secs_f64(args.seconds / 2.0),
        &mut log,
    )?;

    let delta = |f: fn(&StatsResponse) -> usize| (f(&after.stats) - f(&before.stats)) as f64;
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let requests = window.requests() as f64;
    let stages = ["decode", "estimate", "serialize", "emit"]
        .map(|stage| (after.stage_seconds(stage) - before.stage_seconds(stage)) / requests);
    let stage_total: f64 = stages.iter().sum();
    let wakeups = after.sample("ecochip_event_loop_wakeups_total")
        - before.sample("ecochip_event_loop_wakeups_total");
    metrics.extend([
        Metric::new(
            "memo.floorplan_hit_ratio",
            ratio(delta(|s| s.floorplan_hits), delta(|s| s.floorplan_misses)),
            "ratio",
        ),
        Metric::new(
            "memo.manufacturing_hit_ratio",
            ratio(
                delta(|s| s.manufacturing_hits),
                delta(|s| s.manufacturing_misses),
            ),
            "ratio",
        ),
        Metric::new(
            "memo.entries",
            (after.stats.floorplan_entries + after.stats.manufacturing_entries) as f64,
            "count",
        ),
        Metric::new(
            "memo.evictions",
            delta(|s| s.floorplan_evictions + s.manufacturing_evictions),
            "count",
        ),
        Metric::new("server.stage_decode_s", stages[0], "s/req"),
        Metric::new("server.stage_estimate_s", stages[1], "s/req"),
        Metric::new("server.stage_serialize_s", stages[2], "s/req"),
        Metric::new("server.stage_emit_s", stages[3], "s/req"),
        Metric::new(
            "server.serialize_share",
            if stage_total > 0.0 {
                stages[2] / stage_total
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("http.wakeups_per_request", wakeups / requests, "1/req"),
        Metric::new(
            "http.client_overhead_ms",
            client_overhead_ms(&before, &after, args.workload, &window),
            "ms",
        ),
        Metric::new("frames.over_ndjson", frames, "ratio"),
        Metric::new(
            "client.items_per_s",
            throughput(args.workload, std::slice::from_ref(&untraced)),
            "1/s",
        ),
        Metric::new(
            "client.request_ms_p50",
            median(&untraced.unit_latencies_ms()),
            "ms",
        ),
        Metric::new(
            "client.request_ms_p99",
            quantile(&untraced.unit_latencies_ms(), 0.99),
            "ms",
        ),
        Metric::new("server.cpu_us_per_item", untraced.cpu_per_item_us(), "us"),
        Metric::new("cpu.round_ns", median(&untraced.rounds_ns), "ns"),
        Metric::new(
            "trace.overhead_ratio",
            throughput(args.workload, std::slice::from_ref(&window))
                / throughput(args.workload, std::slice::from_ref(&untraced)),
            "ratio",
        ),
    ]);

    if let Some(dir) = &args.trace_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, log.to_jsonl()).map_err(|e| e.to_string())?;
        eprintln!("perfbench: wrote {} spans to {}", log.len(), path.display());
    }
    let failed = untraced.failed() + window.failed();
    Ok(Outcome {
        metrics,
        attempted: (untraced.samples.len() + window.samples.len()) as u64,
        failed,
        provenance: vec![
            ("chunk", after.stats.chunk.to_string()),
            ("toolchain", format!("{:?}", after.toolchain())),
            (
                "operations",
                (untraced.samples.len() + window.samples.len()).to_string(),
            ),
            ("spans", log.len().to_string()),
        ],
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // In-process reference and replay threads never exceed the cores.
    let jobs = nproc;
    let prepared_at = Instant::now();
    let prepared = Prepared::new(args.workload, args.seed, jobs)?;
    eprintln!(
        "perfbench: {} inputs and references ready in {:.2}s",
        args.workload.name(),
        prepared_at.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        traced(&args, &prepared, jobs)?
    } else {
        end_to_end(&args, &prepared, jobs)?
    };

    let mut provenance = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"server_jobs\":{SERVER_JOBS},\"server_threads\":{SERVER_JOBS},\"commit\":{:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    for (key, value) in &outcome.provenance {
        let _ = write!(provenance, ",\"{key}\":{value}");
    }
    provenance.push('}');
    println!("provenance {provenance}");
    eprintln!("perfbench: provenance {provenance}");

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, metric) in outcome.metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            line,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            metric.name,
            metric.unit
        );
    }
    line.push_str("}}");
    Ok(line)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(1);
        }
    }
}
