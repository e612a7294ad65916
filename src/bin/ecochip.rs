//! `ecochip` — command-line front end, mirroring the original artifact's
//! `python3 src/ECO_chip.py --design_dir <testcase>` interface, plus the
//! network-facing subcommands of the `ecochip-serve` subsystem.
//!
//! Usage:
//!
//! ```text
//! ecochip --testcase <ga102|ga102-3chiplet|a15|a15-3chiplet|emr|emr-2chiplet|arvr-1k-4mb|...>
//! ecochip --design <system.json> [--techdb <techdb.json>]
//! ecochip --export <dir>           # write the built-in test cases as JSON configs
//! ecochip --list-testcases         # print the built-in test-case names
//! ecochip serve [--addr <host:port>] [--jobs N] [--threads N]
//!               [--memo-max-entries N]
//!               [--idle-timeout-ms N] [--max-requests-per-conn N]
//!               [--max-inflight N] [--max-connections N]
//! ecochip orchestrate --testcase <name> --sweep <axis>
//!                     (--workers N | --remote <url,url,...>) [--check]
//!                     [--retries N] [--backoff-ms N]
//!                     [--optimize <pareto|anneal|genetic>] [--budget N]
//!                     [--seed N] [--objectives <list>] [--rounds N]
//! ```
//!
//! Any `--testcase` / `--design` run accepts:
//!
//! * `--sweep <nodes|packaging|volume|lifetime|energy>` to run a design-space
//!   sweep over the selected system on the parallel sweep engine,
//! * `--jobs <N>` to set the engine's worker count (default: the available
//!   parallelism),
//! * `--shard <I/N>` to evaluate only shard `I` of `N` of the sweep's index
//!   space (concatenating all shards reproduces the unsharded run exactly),
//! * `--stream <jsonl|csv>` to emit sweep points incrementally to stdout as
//!   they are evaluated, instead of the summary table at the end,
//! * `--optimize <pareto|anneal|genetic>` (with a named `--sweep` axis) to
//!   search the space for a Pareto frontier instead of enumerating it,
//!   streaming NDJSON improvement/done events to stdout; `--budget N`
//!   bounds the evaluations, `--seed N` makes the explorers reproducible,
//!   and `--objectives <embodied,operational,cost,area>` selects the
//!   objective subset (default `embodied,operational`),
//! * `--memo-max-entries <N>` to bound the floorplan/manufacturing memo to
//!   N entries per cache (least-recently-used eviction); the memo lives for
//!   the run only,
//! * `--verbose` to print memo hit/miss/eviction statistics to stderr,
//! * `--csv <file>` to write the breakdown (or the sweep table) as CSV,
//! * `--json <file>` to write the report (or the sweep points) as JSON.
//!
//! Every invocation (including subcommands) accepts the global logging
//! flags `--log-level <error|warn|info|debug>` and `--log-format
//! <text|json>`: structured events go to stderr, `--verbose` raises the
//! threshold to `info`, and the `ECOCHIP_LOG` environment variable sets
//! the default. JSON mode emits one NDJSON object per event, each
//! carrying the request/fleet trace ID when one is active — see the
//! README's Observability section.
//!
//! `ecochip serve` starts the HTTP/JSON estimation service (endpoints
//! `/v1/estimate`, `/v1/sweep`, `/v1/optimize`, `/v1/testcases`,
//! `/v1/healthz`, `/v1/stats`, `/v1/trace`, `/metrics`, `/v1/shutdown`) on a
//! readiness-driven event loop: persistent keep-alive connections
//! (`--idle-timeout-ms`, `--max-requests-per-conn`) cost one file
//! descriptor each while idle, pipelined requests are served in order,
//! and overload is answered with `429 Too Many Requests` + `Retry-After`
//! (`--max-inflight` heavy requests in the handler pool,
//! `--max-connections` sockets overall);
//! `ecochip orchestrate` fans a sweep out across local workers (in-process
//! servers on loopback ports) or remote servers, merges the ordered shard
//! streams to stdout as JSON lines, and with `--check` verifies the merge
//! against the unsharded fingerprint.
//! When a worker dies mid-stream the orchestrator re-dispatches the
//! remaining index range of its shard to a surviving worker (`--retries`,
//! `--backoff-ms`), keeping the merged stream bit-for-bit identical.
//! With `--optimize` the orchestrator instead runs an island-model search:
//! each worker explores its shard of the space under a derived seed, the
//! merged global frontier is exchanged between islands every `--rounds`
//! round, and one merged `done` line closes the stream.
//!
//! Every command's flags are rows of one table ([`FLAGS`]), read by one
//! parser that also checks which flags need or exclude others
//! ([`REQUIRES`], [`CONFLICTS`]). The classic front end and `orchestrate`
//! turn their design, axis, shard and search flags into an
//! [`OptimizeRequest`] and resolve it with the function `POST /v1/sweep`
//! and `POST /v1/optimize` use, so the CLI and HTTP accept and refuse the
//! same inputs.
//!
//! Exit codes: `0` on success; `2`, before any output, for usage errors,
//! the inputs HTTP answers with `400`: unknown subcommands, flags, test
//! cases and sweep axes, bad flag values and `--addr`, a flag missing the
//! flag it requires or with one it conflicts with, a `--design`/`--techdb`
//! file that does not parse, and a design or sweep input validation refuses
//! (naming the field path); `1` for runtime failures, such as an unreadable
//! file or an estimator error. A file error names the file.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use eco_chip::core::costing::system_cost;
use eco_chip::core::dse::NAMED_SWEEP_AXES;
use eco_chip::core::opt::{self, METHOD_NAMES, OBJECTIVE_NAMES};
use eco_chip::core::sweep::{
    LineEncoder, Shard, SweepContext, SweepEngine, SweepPoint, SweepSink, SweepSpec,
};
use eco_chip::core::{EcoChip, EstimatorConfig, System};
use eco_chip::serve::orchestrator::{self, FailoverPolicy, WorkerPool};
use eco_chip::serve::{OptimizeRequest, ServeConfig, ServeError, Server};
use eco_chip::techdb::TechDb;
use eco_chip::testcases::catalog;
use eco_chip::testcases::io::{self, ConfigError};
use eco_chip::trace::{self, FieldValue};

/// Exit code for usage errors (unknown flags, test cases, sweep axes).
const USAGE_EXIT_CODE: u8 = 2;

/// A CLI failure: usage errors exit with [`USAGE_EXIT_CODE`] and a one-line
/// hint; runtime errors exit with 1.
enum CliError {
    Usage(String),
    Run(Box<dyn std::error::Error>),
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }
}

impl<E: Into<Box<dyn std::error::Error>>> From<E> for CliError {
    fn from(error: E) -> Self {
        CliError::Run(error.into())
    }
}

/// Service-layer errors that signal a malformed request (bad address, bad
/// names) become usage errors; everything else is a runtime failure.
fn serve_error(error: ServeError) -> CliError {
    match error {
        ServeError::InvalidAddr(_) | ServeError::Api(_) => CliError::Usage(error.to_string()),
        other => CliError::Run(Box::new(other)),
    }
}

type CliResult<T = ()> = Result<T, CliError>;

fn print_usage() {
    eprintln!("usage:");
    eprintln!("  ecochip --testcase <name>                    run a built-in test case");
    eprintln!("  ecochip --design <system.json> [--techdb <techdb.json>]");
    eprintln!("  ecochip --export <dir>                       write built-in test cases as JSON");
    eprintln!("  ecochip --list-testcases                     print the built-in test-case names");
    eprintln!("  ... --sweep <{NAMED_SWEEP_AXES}>");
    eprintln!("                                               sweep the selected system");
    eprintln!("  ... --jobs <N>                               sweep-engine worker count");
    eprintln!("  ... --shard <I/N>                            evaluate only shard I of N");
    eprintln!("  ... --stream <jsonl|csv>                     emit sweep points incrementally");
    eprintln!("  ... --optimize <{METHOD_NAMES}>       carbon-aware search over the sweep");
    eprintln!("                                               space; events stream as NDJSON");
    eprintln!("  ... --budget <N>                             evaluations for anneal/genetic");
    eprintln!("  ... --seed <N>                               explorer RNG seed (deterministic)");
    eprintln!("  ... --objectives <{OBJECTIVE_NAMES}>");
    eprintln!("                                               comma-separated objective list");
    eprintln!("  ... --memo-max-entries <N>                   bound the memo (LRU eviction)");
    eprintln!("  ... --verbose                                print memo hit/miss stats");
    eprintln!("  ... --csv <file>                             also write the breakdown as CSV");
    eprintln!("  ... --json <file>                            also write the report as JSON");
    eprintln!();
    eprintln!("global logging flags (any command; default from ECOCHIP_LOG):");
    eprintln!("  --log-level <error|warn|info|debug>          structured-log stderr threshold");
    eprintln!("  --log-format <text|json>                     human lines or NDJSON events");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!("  ecochip serve [--addr <host:port>] [--jobs N] [--threads N]");
    eprintln!("                [--techdb <file>] [--memo-max-entries N]");
    eprintln!("                [--idle-timeout-ms N] [--max-requests-per-conn N]");
    eprintln!("                [--max-inflight N] [--max-connections N] [--verbose]");
    eprintln!("                                               start the HTTP/JSON service");
    eprintln!("  ecochip orchestrate --testcase <name> --sweep <axis>");
    eprintln!("                (--workers N | --remote <url,url,...>)");
    eprintln!("                [--design <system.json>] [--techdb <file>] [--jobs N] [--check]");
    eprintln!("                [--retries N] [--backoff-ms N]");
    eprintln!("                [--optimize <{METHOD_NAMES}>] [--budget N]");
    eprintln!("                [--seed N] [--objectives <list>] [--rounds N]");
    eprintln!("                                               fan a sweep out and merge shards,");
    eprintln!("                                               or run an island-model search");
    eprintln!();
    eprintln!("built-in test cases:");
    for name in catalog::names() {
        eprintln!("  {name}");
    }
}

fn export_testcases(db: &TechDb, dir: &PathBuf) -> CliResult {
    use eco_chip::core::disaggregation::NodeTuple;
    use eco_chip::techdb::TechNode;
    use eco_chip::testcases::{a15, arvr, emr, ga102};

    std::fs::create_dir_all(dir)?;
    let cases: Vec<(&str, System)> = vec![
        ("ga102_monolithic", ga102::monolithic_system(db)?),
        (
            "ga102_3chiplet",
            ga102::three_chiplet_system(
                db,
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            )?,
        ),
        ("a15_monolithic", a15::monolithic_system(db)?),
        (
            "a15_3chiplet",
            a15::three_chiplet_system(db, a15::default_chiplet_nodes())?,
        ),
        ("emr_2chiplet", emr::two_chiplet_system(db)?),
        (
            "arvr_3d_2k_16mb",
            arvr::system(db, &arvr::ArVrConfig::new(arvr::Series::TwoK, 4))?,
        ),
    ];
    for (name, system) in cases {
        let path = dir.join(format!("{name}.json"));
        io::save_system(&system, &path)?;
        println!("wrote {}", path.display());
    }
    let techdb_path = dir.join("techdb.json");
    io::save_techdb(db, &techdb_path)?;
    println!("wrote {}", techdb_path.display());
    Ok(())
}

/// Emit the memo hit/miss/eviction counters as one Info event (visible
/// under `--verbose` or `ECOCHIP_LOG=info`).
fn print_stats(context: &SweepContext) {
    let stats = context.stats();
    trace::info(
        "cli",
        "memo stats",
        &[
            ("floorplan_hits", FieldValue::from(stats.floorplan_hits)),
            ("floorplan_misses", FieldValue::from(stats.floorplan_misses)),
            (
                "floorplan_evictions",
                FieldValue::from(stats.floorplan_evictions),
            ),
            (
                "manufacturing_hits",
                FieldValue::from(stats.manufacturing_hits),
            ),
            (
                "manufacturing_misses",
                FieldValue::from(stats.manufacturing_misses),
            ),
            (
                "manufacturing_evictions",
                FieldValue::from(stats.manufacturing_evictions),
            ),
        ],
    );
}

fn run(
    estimator: &EcoChip,
    context: &SweepContext,
    system: &System,
    options: &OutputOptions,
) -> CliResult {
    let report = estimator.estimate_with(system, context)?;
    println!("{report}");
    if let Some(path) = &options.csv {
        std::fs::write(path, report.to_csv())?;
        println!("wrote CSV breakdown to {}", path.display());
    }
    if let Some(path) = &options.json {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        println!("wrote JSON report to {}", path.display());
    }
    println!();
    println!(
        "embodied share of total: {:.1}%",
        report.embodied_fraction() * 100.0
    );
    let act = estimator.act_embodied(system)?;
    println!(
        "ACT-baseline embodied estimate: {} ({:.1}% below ECO-CHIP)",
        act.total(),
        (1.0 - act.total().kg() / report.embodied().kg()) * 100.0
    );
    let cost = system_cost(estimator, system)?;
    println!("dollar cost per unit: {cost}");
    print_stats(context);
    Ok(())
}

const SWEEP_CSV_HEADER: &str =
    "label,manufacturing_kg,design_kg,hi_kg,embodied_kg,operational_kg,total_kg";

/// Append one sweep CSV row (no trailing newline) to a reusable buffer, so
/// streaming runs format every row without a fresh `String` per point.
fn push_csv_row(out: &mut String, point: &SweepPoint) {
    use std::fmt::Write;
    let r = &point.report;
    let _ = write!(
        out,
        "{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
        point.label,
        r.manufacturing().kg(),
        r.design().kg(),
        r.hi_overhead().kg(),
        r.embodied().kg(),
        r.operational().kg(),
        r.total().kg()
    );
}

fn sweep_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from(SWEEP_CSV_HEADER);
    out.push('\n');
    for point in points {
        push_csv_row(&mut out, point);
        out.push('\n');
    }
    out
}

/// Incremental sweep output selected by `--stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamFormat {
    /// One compact JSON object per point, one point per line.
    JsonLines,
    /// The sweep CSV, header first, one row per point.
    Csv,
}

impl StreamFormat {
    fn parse(name: &str) -> CliResult<Self> {
        match name {
            "jsonl" | "json-lines" => Ok(StreamFormat::JsonLines),
            "csv" => Ok(StreamFormat::Csv),
            other => Err(CliError::usage(format!(
                "unknown stream format {other:?} (expected jsonl or csv)"
            ))),
        }
    }
}

/// The sink of a classic-front-end sweep: the `--stream` output on one
/// locked, buffered stdout writer, the incremental `--csv` file of a
/// streaming run, and the points a summary table or `--json` export
/// needs. Per point the only work is encoding the borrowed point into a
/// reused buffer and a copy into the writer; a point is cloned out of the
/// engine's slot only when it is collected. JSON lines go through the
/// same [`LineEncoder`] as the HTTP sweep stream, so the two diff clean
/// (CI checks it).
struct SweepOutput {
    stream: Option<(
        StreamFormat,
        std::io::BufWriter<std::io::StdoutLock<'static>>,
    )>,
    csv_file: Option<std::io::BufWriter<std::fs::File>>,
    encoder: LineEncoder,
    /// Reused CSV row buffer.
    line: String,
    collect: bool,
    points: Vec<SweepPoint>,
}

impl SweepOutput {
    fn accept(&mut self, point: &SweepPoint, repriced: bool) -> Result<(), eco_chip::EcoChipError> {
        use std::io::Write;
        if let Some((format, out)) = &mut self.stream {
            let line = match format {
                StreamFormat::Csv => {
                    self.line.clear();
                    push_csv_row(&mut self.line, point);
                    &self.line
                }
                StreamFormat::JsonLines => {
                    self.encoder.encode(point, repriced).map_err(|error| {
                        eco_chip::EcoChipError::Io(format!(
                            "writing JSON-lines stream: serializing sweep point {:?}: {error}",
                            point.label
                        ))
                    })?
                }
            };
            out.write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing point stream: {e}")))?;
        }
        if let Some(file) = &mut self.csv_file {
            self.line.clear();
            push_csv_row(&mut self.line, point);
            writeln!(file, "{}", self.line)
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing sweep CSV: {e}")))?;
        }
        if self.collect {
            self.points.push(point.clone());
        }
        Ok(())
    }
}

impl SweepSink for SweepOutput {
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        repriced: &[bool],
    ) -> Result<(), eco_chip::EcoChipError> {
        for (point, &repriced) in points.iter().zip(repriced) {
            self.accept(point, repriced)?;
        }
        Ok(())
    }
}

fn run_sweep(
    estimator: &EcoChip,
    engine: &SweepEngine,
    context: &SweepContext,
    spec: &SweepSpec,
    shard: Shard,
    axis_name: &str,
    options: &OutputOptions,
) -> CliResult {
    let system = spec.base();
    let total = spec.try_len()?;
    let owned = shard.range(total).len();

    let streaming = options.stream.is_some();
    let workers = match engine.threads(owned) {
        1 => "1 worker".to_string(),
        threads => format!("{threads} workers"),
    };
    let banner = if shard.is_full() {
        format!(
            "{} sweep of {} ({} points, {workers}):",
            axis_name, system.name, owned,
        )
    } else {
        format!(
            "{} sweep of {} (shard {shard}: {} of {} points, {workers}):",
            axis_name, system.name, owned, total,
        )
    };
    // In stream mode stdout carries only the point stream; narration moves
    // to stderr so shard outputs can be concatenated and diffed.
    if streaming {
        eprintln!("{banner}");
    } else {
        println!("{banner}");
    }

    // Collect points only when a summary table or a JSON file export needs
    // them; a streaming run with at most a CSV export holds just the
    // engine's reorder window (the CSV file is written incrementally).
    let collect = !streaming || options.json.is_some();
    if streaming && options.json.is_some() {
        eprintln!(
            "note: --json buffers every sweep point in memory; \
             prefer `--stream jsonl > file` for very large sweeps"
        );
    }
    let csv_file = match (&options.csv, streaming) {
        (Some(path), true) => {
            let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| {
                eco_chip::EcoChipError::Io(format!("creating {}: {e}", path.display()))
            })?);
            use std::io::Write;
            writeln!(file, "{SWEEP_CSV_HEADER}")
                .map_err(|e| eco_chip::EcoChipError::Io(e.to_string()))?;
            Some(file)
        }
        _ => None,
    };
    let mut stream = options
        .stream
        .map(|format| (format, std::io::BufWriter::new(std::io::stdout().lock())));
    // Only the first shard prints the CSV header, so concatenating shard
    // outputs 0/N..(N-1)/N reproduces the unsharded stream verbatim.
    if let Some((StreamFormat::Csv, out)) = &mut stream {
        if shard.index() == 0 {
            use std::io::Write;
            writeln!(out, "{SWEEP_CSV_HEADER}")
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing point stream: {e}")))?;
        }
    }
    let mut output = SweepOutput {
        stream,
        csv_file,
        encoder: LineEncoder::new(),
        line: String::new(),
        collect,
        points: Vec::new(),
    };
    engine.stream(estimator, spec, shard, context, None, &mut output)?;
    let SweepOutput {
        stream,
        csv_file,
        points,
        ..
    } = output;
    if let Some((_, mut out)) = stream {
        use std::io::Write;
        out.flush()
            .map_err(|e| eco_chip::EcoChipError::Io(format!("flushing point stream: {e}")))?;
    }
    if let Some(file) = csv_file {
        use std::io::Write;
        file.into_inner()
            .map_err(|e| CliError::Run(Box::new(e.into_error())))?
            .flush()?;
    }

    if !streaming {
        println!(
            "{:>24}  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "label", "Cmfg kg", "Cdes kg", "CHI kg", "Cemb kg", "Cop kg", "Ctot kg"
        );
        for point in &points {
            let r = &point.report;
            println!(
                "{:>24}  {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                point.label,
                r.manufacturing().kg(),
                r.design().kg(),
                r.hi_overhead().kg(),
                r.embodied().kg(),
                r.operational().kg(),
                r.total().kg()
            );
        }
    }

    if let Some(path) = &options.csv {
        // In stream mode the file was already written incrementally above.
        if !streaming {
            std::fs::write(path, sweep_csv(&points))?;
        }
        let note = format!("wrote sweep CSV to {}", path.display());
        if streaming {
            eprintln!("{note}");
        } else {
            println!("{note}");
        }
    }
    if let Some(path) = &options.json {
        std::fs::write(path, serde_json::to_string_pretty(&points)?)?;
        let note = format!("wrote sweep JSON to {}", path.display());
        if streaming {
            eprintln!("{note}");
        } else {
            println!("{note}");
        }
    }
    print_stats(context);
    Ok(())
}

/// `--optimize`: run a carbon-aware search over the selected sweep space,
/// streaming one [`opt::OptEvent`] JSON line per incumbent improvement
/// (then the terminal `done` line) to stdout. Narration goes to stderr so
/// seeded runs can be byte-diffed, exactly like `--stream jsonl`.
fn run_optimize(
    estimator: &EcoChip,
    engine: &SweepEngine,
    context: &SweepContext,
    spec: &SweepSpec,
    shard: Shard,
    axis_name: &str,
    config: &opt::OptConfig,
) -> CliResult {
    let total = spec.try_len()?;
    let owned = shard.range(total).len();
    eprintln!(
        "{} search over the {axis_name} space of {} ({owned} of {total} points, \
         budget {}, seed {}, objectives {}):",
        config.method.label(),
        spec.base().name,
        config.budget,
        config.seed,
        config.objectives.label()
    );

    // Same single-writer streaming discipline as `--stream jsonl`: one
    // buffered, locked stdout and one reusable encode buffer, so the byte
    // stream is stable enough for CI to diff seeded runs.
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let mut line = String::new();
    let outcome = opt::optimize(
        estimator,
        engine,
        spec,
        shard,
        context,
        None,
        config,
        |event: &opt::OptEvent| {
            use std::io::Write;
            line.clear();
            serde_json::to_string_into(event, &mut line).map_err(|error| {
                eco_chip::EcoChipError::Io(format!("serializing optimize event: {error}"))
            })?;
            line.push('\n');
            out.write_all(line.as_bytes())
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing event stream: {e}")))
        },
    )?;
    {
        use std::io::Write;
        out.flush()
            .map_err(|e| eco_chip::EcoChipError::Io(format!("flushing event stream: {e}")))?;
    }
    eprintln!(
        "{} search done: {} cases evaluated, {} points on the frontier",
        outcome.method,
        outcome.evaluated,
        outcome.frontier.len()
    );
    print_stats(context);
    Ok(())
}

/// What a classic run writes besides its stdout report.
struct OutputOptions {
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    stream: Option<StreamFormat>,
}

/// Initialise structured logging: apply the `ECOCHIP_LOG` environment
/// default, then strip the global `--log-level` / `--log-format` flags —
/// valid anywhere on the command line, including after a subcommand — so
/// the per-command parser never sees them.
fn init_logging(args: &mut Vec<String>) -> CliResult {
    trace::init_from_env();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag != "--log-level" && flag != "--log-format" {
            i += 1;
            continue;
        }
        let value = args.get(i + 1).ok_or_else(|| missing_value(flag))?;
        if flag == "--log-level" {
            let level = trace::Level::parse(value).ok_or_else(|| {
                CliError::usage(format!(
                    "--log-level needs error, warn, info or debug, got {value:?}"
                ))
            })?;
            trace::set_level(level);
        } else {
            let format = trace::LogFormat::parse(value).ok_or_else(|| {
                CliError::usage(format!("--log-format needs text or json, got {value:?}"))
            })?;
            trace::set_format(format);
        }
        args.drain(i..i + 2);
    }
    Ok(())
}

fn missing_value(flag: &str) -> CliError {
    CliError::usage(format!("{flag} needs a value"))
}

/// The commands a flag belongs to, as bits of a [`FLAGS`] row.
const CLASSIC: u8 = 1;
const SERVE: u8 = 1 << 1;
const ORCHESTRATE: u8 = 1 << 2;

/// What follows a flag on the command line: nothing (a switch), free text,
/// or a number of one kind.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Takes {
    Nothing,
    Text,
    Positive,
    NonNegative,
    Seed,
}

impl Takes {
    /// Check `value`, given for `name` (a flag or an environment
    /// variable); the error says which kind of value `name` needs.
    fn check(self, name: &str, value: &str) -> CliResult {
        let (kind, valid) = match self {
            Takes::Nothing | Takes::Text => return Ok(()),
            Takes::Positive => (
                "a positive integer",
                value.parse::<usize>().is_ok_and(|n| n > 0),
            ),
            // 0 is meaningful, e.g. a `--memo-max-entries` bound that
            // caches nothing.
            Takes::NonNegative => ("a non-negative integer", value.parse::<usize>().is_ok()),
            Takes::Seed => ("an unsigned 64-bit integer", value.parse::<u64>().is_ok()),
        };
        if valid {
            Ok(())
        } else {
            Err(CliError::usage(format!(
                "{name} needs {kind}, got {value:?}"
            )))
        }
    }
}

/// Every per-command flag: its name, what follows it, and the commands
/// that accept it.
const FLAGS: &[(&str, Takes, u8)] = &[
    ("--help", Takes::Nothing, CLASSIC | SERVE | ORCHESTRATE),
    ("--testcase", Takes::Text, CLASSIC | ORCHESTRATE),
    ("--design", Takes::Text, CLASSIC | ORCHESTRATE),
    ("--techdb", Takes::Text, CLASSIC | SERVE | ORCHESTRATE),
    ("--sweep", Takes::Text, CLASSIC | ORCHESTRATE),
    ("--jobs", Takes::Positive, CLASSIC | SERVE | ORCHESTRATE),
    ("--optimize", Takes::Text, CLASSIC | ORCHESTRATE),
    ("--budget", Takes::Positive, CLASSIC | ORCHESTRATE),
    ("--seed", Takes::Seed, CLASSIC | ORCHESTRATE),
    ("--objectives", Takes::Text, CLASSIC | ORCHESTRATE),
    ("--memo-max-entries", Takes::NonNegative, CLASSIC | SERVE),
    ("--verbose", Takes::Nothing, CLASSIC | SERVE),
    ("--export", Takes::Text, CLASSIC),
    ("--list-testcases", Takes::Nothing, CLASSIC),
    ("--shard", Takes::Text, CLASSIC),
    ("--stream", Takes::Text, CLASSIC),
    ("--csv", Takes::Text, CLASSIC),
    ("--json", Takes::Text, CLASSIC),
    ("--addr", Takes::Text, SERVE),
    ("--threads", Takes::Positive, SERVE),
    ("--idle-timeout-ms", Takes::Positive, SERVE),
    ("--max-requests-per-conn", Takes::Positive, SERVE),
    ("--max-inflight", Takes::Positive, SERVE),
    ("--max-connections", Takes::Positive, SERVE),
    ("--workers", Takes::Positive, ORCHESTRATE),
    ("--remote", Takes::Text, ORCHESTRATE),
    ("--check", Takes::Nothing, ORCHESTRATE),
    ("--retries", Takes::NonNegative, ORCHESTRATE),
    ("--backoff-ms", Takes::NonNegative, ORCHESTRATE),
    ("--rounds", Takes::Positive, ORCHESTRATE),
];

/// `(flag, needed, commands)`: for these commands, `flag` is a usage error
/// without `needed`.
const REQUIRES: &[(&str, &str, u8)] = &[
    ("--shard", "--sweep", CLASSIC),
    ("--stream", "--sweep", CLASSIC),
    ("--optimize", "--sweep", CLASSIC),
    ("--budget", "--optimize", CLASSIC | ORCHESTRATE),
    ("--seed", "--optimize", CLASSIC | ORCHESTRATE),
    ("--objectives", "--optimize", CLASSIC | ORCHESTRATE),
    ("--rounds", "--optimize", ORCHESTRATE),
];

/// `(flag, other, commands, error)`: for these commands, passing both
/// flags is a usage error.
const CONFLICTS: &[(&str, &str, u8, &str)] = &[
    (
        "--testcase",
        "--design",
        CLASSIC | ORCHESTRATE,
        "pass either --testcase or --design, not both",
    ),
    (
        "--optimize",
        "--stream",
        CLASSIC,
        "--optimize already streams NDJSON events to stdout; drop --stream",
    ),
    (
        "--optimize",
        "--csv",
        CLASSIC,
        "--csv/--json export sweep points; they do not apply to --optimize",
    ),
    (
        "--optimize",
        "--json",
        CLASSIC,
        "--csv/--json export sweep points; they do not apply to --optimize",
    ),
    (
        "--optimize",
        "--check",
        ORCHESTRATE,
        "--check verifies sweep merges against the unsharded fingerprint; \
         it does not apply to --optimize",
    ),
    (
        "--workers",
        "--remote",
        ORCHESTRATE,
        "pass either --workers (local in-process servers) or --remote (server URLs), not both",
    ),
];

/// The flags given to one command, in order, each with its value (empty
/// for a switch). A repeated flag's last value wins.
struct Flags(Vec<(&'static str, String)>);

impl Flags {
    /// Parse `args` against the [`FLAGS`] rows of `command`, checking each
    /// value, then check its [`REQUIRES`] and [`CONFLICTS`] rows. `--help`
    /// (or `-h`) prints the usage and yields `None`.
    fn parse(command: u8, args: &[String]) -> CliResult<Option<Self>> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = if arg == "-h" { "--help" } else { arg.as_str() };
            let row = FLAGS
                .iter()
                .find(|&&(flag, _, commands)| flag == name && commands & command != 0);
            let Some(&(flag, takes, _)) = row else {
                let prefix = match command {
                    SERVE => "serve ",
                    ORCHESTRATE => "orchestrate ",
                    _ => "",
                };
                return Err(CliError::usage(format!(
                    "unknown {prefix}flag {arg:?}; run `ecochip --help` for usage"
                )));
            };
            if flag == "--help" {
                print_usage();
                return Ok(None);
            }
            let value = if takes == Takes::Nothing {
                String::new()
            } else {
                args.next().ok_or_else(|| missing_value(flag))?.clone()
            };
            takes.check(flag, &value)?;
            given.push((flag, value));
        }
        let flags = Flags(given);
        for &(flag, needed, commands) in REQUIRES {
            if commands & command != 0 && flags.has(flag) && !flags.has(needed) {
                return Err(CliError::usage(format!("{flag} requires {needed}")));
            }
        }
        for &(flag, other, commands, error) in CONFLICTS {
            if commands & command != 0 && flags.has(flag) && flags.has(other) {
                return Err(CliError::usage(error));
            }
        }
        Ok(Some(flags))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(given, _)| *given == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(given, _)| *given == flag)
            .map(|(_, value)| value.as_str())
    }

    fn text(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_owned)
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value of a numeric flag, which [`Flags::parse`] has checked.
    fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.value(flag).and_then(|value| value.parse().ok())
    }
}

/// Read a `--design` or `--techdb` file. A file that does not parse is bad
/// input (exit 2, as HTTP answers an undecodable inline system with 400);
/// one that cannot be read is a runtime failure (exit 1). Both errors name
/// the path.
fn load_input<T>(path: &Path, load: impl FnOnce(&Path) -> Result<T, ConfigError>) -> CliResult<T> {
    load(path).map_err(|error| {
        let message = format!("{}: {error}", path.display());
        match error {
            ConfigError::Parse(_) => CliError::Usage(message),
            _ => CliError::Run(message.into()),
        }
    })
}

/// The `--techdb` database, if one was given. A database with a value
/// out of its physical range is bad input too (exit 2), naming the path
/// and the value.
fn techdb(flags: &Flags) -> CliResult<Option<TechDb>> {
    flags
        .path("--techdb")
        .map(|path| {
            let db = load_input(&path, |path| io::load_techdb(path))?;
            db.validate()
                .map_err(|error| CliError::Usage(format!("{}: {error}", path.display())))?;
            Ok(db)
        })
        .transpose()
}

/// The `--design` system, if one was given.
fn design(flags: &Flags) -> CliResult<Option<System>> {
    flags
        .path("--design")
        .map(|path| load_input(&path, |path| io::load_system(path)))
        .transpose()
}

/// The search request the design, axis, shard and search flags describe:
/// the body `POST /v1/optimize` would decode, so it resolves exactly as
/// HTTP does. A plain sweep or estimate uses only its design, axis and
/// shard.
fn search_request(flags: &Flags, system: Option<System>) -> OptimizeRequest {
    OptimizeRequest {
        testcase: flags.text("--testcase"),
        system,
        axis: flags.text("--sweep"),
        axes: None,
        shard: flags.text("--shard"),
        method: flags.text("--optimize"),
        budget: flags.number("--budget"),
        seed: flags.number("--seed"),
        objectives: flags.text("--objectives"),
        island: None,
        frontier: None,
    }
}

/// `ecochip serve`: start the HTTP/JSON estimation service and block until
/// it is shut down (`POST /v1/shutdown`).
fn run_serve(args: &[String]) -> CliResult {
    let Some(flags) = Flags::parse(SERVE, args)? else {
        return Ok(());
    };
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flags.text("--addr").unwrap_or(defaults.addr),
        jobs: flags.number("--jobs"),
        threads: flags.number("--threads").unwrap_or(defaults.threads),
        techdb: techdb(&flags)?,
        memo_max_entries: flags.number("--memo-max-entries"),
        idle_timeout: flags
            .number("--idle-timeout-ms")
            .map_or(defaults.idle_timeout, Duration::from_millis),
        max_requests_per_connection: flags
            .number("--max-requests-per-conn")
            .unwrap_or(defaults.max_requests_per_connection),
        max_inflight: flags
            .number("--max-inflight")
            .unwrap_or(defaults.max_inflight),
        max_connections: flags
            .number("--max-connections")
            .unwrap_or(defaults.max_connections),
        verbose: flags.has("--verbose"),
    };
    let server = Server::bind(&config).map_err(serve_error)?;
    eprintln!(
        "ecochip-serve listening on http://{} ({} sweep jobs, {} handler threads, {} event loop)",
        server.local_addr(),
        config
            .jobs
            .map_or_else(|| "default".to_owned(), |jobs| jobs.to_string()),
        config.threads,
        server.poll_backend()
    );
    server.run().map_err(serve_error)
}

/// `ecochip orchestrate`: fan a sweep out across local workers or remote
/// servers, merge the ordered shard streams to stdout as JSON lines, and
/// optionally verify the merge against the unsharded fingerprint.
fn run_orchestrate(args: &[String]) -> CliResult {
    let Some(flags) = Flags::parse(ORCHESTRATE, args)? else {
        return Ok(());
    };
    let jobs = flags.number("--jobs");
    let defaults = FailoverPolicy::default();
    let policy = FailoverPolicy {
        retries: flags.number("--retries").unwrap_or(defaults.retries),
        backoff: flags
            .number("--backoff-ms")
            .map_or(defaults.backoff, Duration::from_millis),
    };
    let rounds = flags.number("--rounds").unwrap_or(1);
    if !flags.has("--sweep") {
        return Err(CliError::usage(format!(
            "orchestrate needs --sweep <{NAMED_SWEEP_AXES}>"
        )));
    }
    let pool = match (flags.number("--workers"), flags.value("--remote")) {
        (Some(workers), _) => WorkerPool::Local { workers, jobs },
        (None, Some(urls)) => {
            let urls: Vec<String> = urls
                .split(',')
                .map(str::trim)
                .filter(|url| !url.is_empty())
                .map(str::to_owned)
                .collect();
            if urls.is_empty() {
                return Err(CliError::usage("--remote needs at least one URL"));
            }
            WorkerPool::Remote(urls)
        }
        (None, None) => {
            return Err(CliError::usage(
                "orchestrate needs --workers <N> or --remote <url,url,...>",
            ))
        }
    };

    let db = techdb(&flags)?.unwrap_or_default();
    let system = design(&flags)?;
    if system.is_none() && !flags.has("--testcase") {
        return Err(CliError::usage(
            "orchestrate needs a design: --testcase <name> or --design <system.json>",
        ));
    }
    let request = search_request(&flags, system);
    // Resolve locally too, so a bad name or value exits 2 before any
    // worker starts.
    let (_, _, search) = request.resolve(&db).map_err(serve_error)?;
    let mode = match &pool {
        WorkerPool::Local { workers, .. } => format!("{workers} local workers"),
        WorkerPool::Remote(urls) => format!("{} remote servers", urls.len()),
    };

    if flags.has("--optimize") {
        eprintln!(
            "orchestrating {} island search across {mode} ({rounds} rounds, \
             {} retries, {} ms backoff)",
            search.method.label(),
            policy.retries,
            policy.backoff.as_millis()
        );
        let outcome = merge_to_stdout(|on_line| {
            orchestrator::orchestrate_optimize(&db, &request, &pool, &policy, rounds, on_line)
        })?;
        eprintln!(
            "islands done: {} cases evaluated across {} islands in {} rounds, \
             {} points on the merged frontier",
            outcome.evaluated,
            outcome.islands,
            outcome.rounds,
            outcome.frontier.len()
        );
        return Ok(());
    }

    eprintln!(
        "orchestrating sweep across {mode} ({} retries, {} ms backoff)",
        policy.retries,
        policy.backoff.as_millis()
    );
    let sweep = request.sweep();
    let outcome = merge_to_stdout(|on_line| {
        orchestrator::orchestrate_with(&db, &sweep, &pool, &policy, on_line)
    })?;
    eprintln!(
        "merged {} points, fingerprint {:#018x}",
        outcome.points, outcome.fingerprint
    );
    if flags.has("--check") {
        let reference = orchestrator::unsharded_outcome(&db, &sweep, jobs).map_err(serve_error)?;
        if outcome != reference {
            return Err(CliError::Run(
                format!(
                    "orchestrated stream diverged from the unsharded run: merged {} points \
                     ({:#018x}), unsharded {} points ({:#018x})",
                    outcome.points, outcome.fingerprint, reference.points, reference.fingerprint
                )
                .into(),
            ));
        }
        eprintln!("check: merged stream matches the unsharded fingerprint");
    }
    Ok(())
}

/// Run an orchestrator merge, writing each merged line to stdout. Lines go
/// through one buffered writer over the locked stdout: the merger is
/// single-threaded and ordered, so buffering changes nothing about the
/// stream except the number of write syscalls.
fn merge_to_stdout<T>(
    merge: impl FnOnce(&mut dyn FnMut(&str) -> Result<(), ServeError>) -> Result<T, ServeError>,
) -> CliResult<T> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let outcome = merge(&mut |line| {
        out.write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .map_err(|e| ServeError::Io(format!("writing merged stream: {e}")))
    })
    .map_err(serve_error)?;
    out.flush()
        .map_err(|e| eco_chip::EcoChipError::Io(format!("flushing merged stream: {e}")))?;
    Ok(outcome)
}

/// The classic front end: estimate, sweep or search one design, or export
/// or list the built-in test cases.
fn run_classic(args: &[String]) -> CliResult {
    let Some(flags) = Flags::parse(CLASSIC, args)? else {
        return Ok(());
    };
    if flags.has("--verbose") {
        trace::raise_level(trace::Level::Info);
    }
    let stream = flags
        .value("--stream")
        .map(StreamFormat::parse)
        .transpose()?;
    if flags.has("--list-testcases") {
        for name in catalog::names() {
            println!("{name}");
        }
        return Ok(());
    }
    let db = techdb(&flags)?.unwrap_or_default();
    if let Some(dir) = flags.path("--export") {
        return export_testcases(&db, &dir);
    }
    let system = design(&flags)?;
    if system.is_none() && !flags.has("--testcase") {
        print_usage();
        return Err(CliError::usage(
            "nothing to do: pass --testcase, --design, --export or --list-testcases",
        ));
    }
    let (spec, shard, search) = search_request(&flags, system)
        .resolve(&db)
        .map_err(serve_error)?;
    let estimator = EcoChip::new(EstimatorConfig::builder().techdb(db).build());
    let engine = SweepEngine::with_optional_jobs(flags.number("--jobs"));
    let context = flags
        .number("--memo-max-entries")
        .map_or_else(SweepContext::new, SweepContext::with_capacity);
    let options = OutputOptions {
        csv: flags.path("--csv"),
        json: flags.path("--json"),
        stream,
    };
    match (flags.value("--sweep"), flags.has("--optimize")) {
        (Some(axis), true) => {
            run_optimize(&estimator, &engine, &context, &spec, shard, axis, &search)
        }
        (Some(axis), false) => {
            run_sweep(&estimator, &engine, &context, &spec, shard, axis, &options)
        }
        (None, _) => run(&estimator, &context, spec.base(), &options),
    }
}

fn real_main() -> CliResult {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    init_logging(&mut args)?;
    if args.is_empty() {
        print_usage();
        return Err(CliError::usage("no arguments given"));
    }

    // Subcommand dispatch: a leading bare word selects a subcommand; the
    // flag-only invocation remains the classic estimate/sweep front end.
    match args[0].as_str() {
        "serve" => run_serve(&args[1..]),
        "orchestrate" => run_orchestrate(&args[1..]),
        other if !other.starts_with('-') => Err(CliError::usage(format!(
            "unknown subcommand {other:?} (expected serve or orchestrate); \
             run `ecochip --help` for usage"
        ))),
        _ => run_classic(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(USAGE_EXIT_CODE)
        }
        Err(CliError::Run(error)) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
