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
//!               [--memo-file <file>] [--memo-max-entries N] [--memo-save-every N]
//!               [--idle-timeout-ms N] [--max-requests-per-conn N]
//!               [--max-inflight N] [--max-connections N]
//! ecochip orchestrate --testcase <name> --sweep <axis>
//!                     (--workers N | --remote <url,url,...>) [--check]
//!                     [--retries N] [--backoff-ms N] [--share-memo]
//!                     [--optimize <pareto|anneal|genetic>] [--budget N]
//!                     [--seed N] [--objectives <list>] [--rounds N]
//! ecochip bench [--suite <core|serve|all>] [--smoke] [--repeats N]
//!               [--out <dir>] [--baseline <dir>] [--tolerance <pct>]
//!               [--check | --bless]
//! ```
//!
//! Any `--testcase` / `--design` run accepts:
//!
//! * `--sweep <nodes|packaging|volume|lifetime|energy>` to run a design-space
//!   sweep over the selected system on the parallel sweep engine,
//! * `--jobs <N>` to set the engine's worker count (default: the
//!   `ECOCHIP_JOBS` environment variable, then the available parallelism),
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
//! * `--memo-file <file>` to load a persisted floorplan/manufacturing memo
//!   before the run (if present and fingerprint-compatible) and save the
//!   warmed memo after it,
//! * `--memo-max-entries <N>` to bound the memo to N entries per cache
//!   (least-recently-used eviction),
//! * `--memo-save-every <N>` to also persist the memo whenever N new
//!   entries accumulated mid-run (atomic temp-file + rename),
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
//! `/v1/healthz`, `/v1/stats`, `/v1/memo`, `/metrics`, `/v1/shutdown`) on a
//! readiness-driven event loop: persistent keep-alive connections
//! (`--idle-timeout-ms`, `--max-requests-per-conn`) cost one file
//! descriptor each while idle, pipelined requests are served in order,
//! and overload is answered with `429 Too Many Requests` + `Retry-After`
//! (`--max-inflight` heavy requests in the handler pool,
//! `--max-connections` sockets overall);
//! `ecochip orchestrate` fans a sweep out across local workers or remote
//! servers, merges the ordered shard streams to stdout as JSON lines, and
//! with `--check` verifies the merge against the unsharded fingerprint.
//! When a remote worker dies mid-stream the orchestrator re-dispatches the
//! remaining index range of its shard to a surviving worker (`--retries`,
//! `--backoff-ms`), keeping the merged stream bit-for-bit identical;
//! `--share-memo` first seeds every worker from the warmest peer's memo.
//! With `--optimize` the orchestrator instead runs an island-model search:
//! each worker explores its shard of the space under a derived seed, the
//! merged global frontier is exchanged between islands every `--rounds`
//! round, and one merged `done` line closes the stream.
//!
//! `ecochip bench` runs the fixed perf workload matrix of
//! [`eco_chip::bench`] and writes `BENCH_core.json` / `BENCH_serve.json`;
//! `--check` fails (exit 1) when a fresh run regresses beyond the
//! tolerance against the committed baselines, `--bless` refreshes them.
//!
//! Exit codes: `0` on success, `2` for usage errors (unknown subcommands,
//! flags, test cases, sweep axes, malformed `--addr`), `1` for runtime
//! failures.

use std::path::PathBuf;
use std::process::ExitCode;

use eco_chip::core::costing::system_cost;
use eco_chip::core::dse::{named_sweep_axis, NAMED_SWEEP_AXES};
use eco_chip::core::opt::{self, METHOD_NAMES, OBJECTIVE_NAMES};
use eco_chip::core::sweep::{Shard, SweepEngine, SweepPoint, SweepSpec, CHUNK_ENV_VAR};
use eco_chip::core::{EcoChip, EcoChipService, EstimatorConfig, System};
use eco_chip::serve::orchestrator::{self, FailoverPolicy, WorkerPool};
use eco_chip::serve::{OptimizeRequest, ServeConfig, ServeError, Server, SweepRequest};
use eco_chip::techdb::TechDb;
use eco_chip::testcases::catalog::{self, CatalogError};
use eco_chip::testcases::io;
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
    eprintln!(
        "  ... --chunk <K>                              points per worker claim (or ECOCHIP_CHUNK)"
    );
    eprintln!("  ... --shard <I/N>                            evaluate only shard I of N");
    eprintln!("  ... --stream <jsonl|csv>                     emit sweep points incrementally");
    eprintln!("  ... --optimize <{METHOD_NAMES}>       carbon-aware search over the sweep");
    eprintln!("                                               space; events stream as NDJSON");
    eprintln!("  ... --budget <N>                             evaluations for anneal/genetic");
    eprintln!("  ... --seed <N>                               explorer RNG seed (deterministic)");
    eprintln!("  ... --objectives <{OBJECTIVE_NAMES}>");
    eprintln!("                                               comma-separated objective list");
    eprintln!("  ... --memo-file <file>                       load/save the stage memo");
    eprintln!("  ... --memo-max-entries <N>                   bound the memo (LRU eviction)");
    eprintln!("  ... --memo-save-every <N>                    autosave the memo mid-run");
    eprintln!("  ... --verbose                                print memo hit/miss stats");
    eprintln!("  ... --csv <file>                             also write the breakdown as CSV");
    eprintln!("  ... --json <file>                            also write the report as JSON");
    eprintln!();
    eprintln!("global logging flags (any command; default from ECOCHIP_LOG):");
    eprintln!("  --log-level <error|warn|info|debug>          structured-log stderr threshold");
    eprintln!("  --log-format <text|json>                     human lines or NDJSON events");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!("  ecochip serve [--addr <host:port>] [--jobs N] [--chunk K] [--threads N]");
    eprintln!("                [--techdb <file>] [--memo-file <file>]");
    eprintln!("                [--memo-max-entries N] [--memo-save-every N]");
    eprintln!("                [--idle-timeout-ms N] [--max-requests-per-conn N]");
    eprintln!("                [--max-inflight N] [--max-connections N] [--verbose]");
    eprintln!("                                               start the HTTP/JSON service");
    eprintln!("  ecochip orchestrate --testcase <name> --sweep <axis>");
    eprintln!("                (--workers N | --remote <url,url,...>)");
    eprintln!("                [--design <system.json>] [--techdb <file>] [--jobs N] [--check]");
    eprintln!("                [--retries N] [--backoff-ms N] [--share-memo]");
    eprintln!("                [--optimize <{METHOD_NAMES}>] [--budget N]");
    eprintln!("                [--seed N] [--objectives <list>] [--rounds N]");
    eprintln!("                                               fan a sweep out and merge shards,");
    eprintln!("                                               or run an island-model search");
    eprintln!("  ecochip bench [--suite <core|serve|all>] [--smoke] [--repeats N]");
    eprintln!("                [--out <dir>] [--baseline <dir>] [--tolerance <pct>]");
    eprintln!("                [--check | --bless]");
    eprintln!("                                               run the perf workload matrix and");
    eprintln!("                                               gate/refresh BENCH_*.json baselines");
    eprintln!();
    eprintln!("built-in test cases:");
    for name in catalog::names() {
        eprintln!("  {name}");
    }
}

fn builtin_system(db: &TechDb, name: &str) -> CliResult<System> {
    catalog::build(db, name).map_err(|error| match error {
        CatalogError::UnknownTestcase(_) => CliError::usage(format!(
            "unknown test case {name:?}; run `ecochip --list-testcases` to see the built-ins"
        )),
        CatalogError::Build(inner) => CliError::from(inner),
    })
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

/// Persist the warmed memo when `--memo-file` was given.
fn save_memo(service: &EcoChipService, options: &OutputOptions) -> CliResult {
    let Some(path) = &options.memo else {
        return Ok(());
    };
    service.save_memo_logged(path)?;
    Ok(())
}

/// Emit the memo hit/miss/eviction counters as one Info event (visible
/// under `--verbose` or `ECOCHIP_LOG=info`).
fn print_stats(service: &EcoChipService) {
    let stats = service.stats();
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

/// Build the request-serving [`EcoChipService`] a run uses: estimator over
/// `db`, engine worker count, memo bound, memo load, autosave.
fn build_service(db: TechDb, jobs: Option<usize>, options: &OutputOptions) -> EcoChipService {
    let estimator = EcoChip::new(EstimatorConfig::builder().techdb(db).build());
    let engine = SweepEngine::with_optional_jobs(jobs).with_optional_chunk(options.chunk);
    let mut service = EcoChipService::with_engine(estimator, engine);
    service.set_memo_capacity(options.memo_cap);
    if let Some(path) = &options.memo {
        service.load_memo_lenient(path);
    }
    if let (Some(path), Some(every)) = (&options.memo, options.memo_save_every) {
        service.save_memo_every(path, every);
    }
    service
}

fn run(system: &System, db: TechDb, options: &OutputOptions) -> CliResult {
    let service = build_service(db, None, options);
    let report = service.estimate(system)?;
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
    let act = service.estimator().act_embodied(system)?;
    println!(
        "ACT-baseline embodied estimate: {} ({:.1}% below ECO-CHIP)",
        act.total(),
        (1.0 - act.total().kg() / report.embodied().kg()) * 100.0
    );
    let cost = system_cost(service.estimator(), system)?;
    println!("dollar cost per unit: {cost}");
    save_memo(&service, options)?;
    print_stats(&service);
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

fn run_sweep(
    system: &System,
    db: TechDb,
    axis_name: &str,
    jobs: Option<usize>,
    options: &OutputOptions,
) -> CliResult {
    let service = build_service(db, jobs, options);

    let axis = named_sweep_axis(axis_name, system).map_err(|e| CliError::usage(e.to_string()))?;
    let spec = SweepSpec::new(system.clone()).axis(axis);
    let shard = options.shard.unwrap_or(Shard::FULL);
    let total = spec.try_len()?;
    let owned = shard.range(total).len();

    let streaming = options.stream.is_some();
    let banner = if shard.is_full() {
        format!(
            "{} sweep of {} ({} points, {} workers):",
            axis_name,
            system.name,
            owned,
            service.engine().jobs()
        )
    } else {
        format!(
            "{} sweep of {} (shard {shard}: {} of {} points, {} workers):",
            axis_name,
            system.name,
            owned,
            total,
            service.engine().jobs()
        )
    };
    // In stream mode stdout carries only the point stream; narration moves
    // to stderr so shard outputs can be concatenated and diffed.
    if streaming {
        eprintln!("{banner}");
    } else {
        println!("{banner}");
    }
    trace::info(
        "cli",
        "sweep chunk size",
        &[
            (
                "points_per_claim",
                FieldValue::from(service.engine().chunk()),
            ),
            ("set_with", FieldValue::from("--chunk")),
            ("env_var", FieldValue::from(CHUNK_ENV_VAR)),
        ],
    );

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
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut csv_file = match (&options.csv, streaming) {
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
    // Stream emission goes through one locked, buffered stdout writer and
    // one reusable encode buffer: per point the only work is formatting
    // into the buffer and a memcpy into the writer — no `String`
    // allocation and no stdout lock/flush round-trip per line. The bytes
    // are identical to the old per-point `println!` path (CI diffs this
    // stream against the HTTP one).
    let mut stream_out = options
        .stream
        .map(|_| std::io::BufWriter::new(std::io::stdout().lock()));
    let mut line = String::new();
    // Only the first shard prints the CSV header, so concatenating shard
    // outputs 0/N..(N-1)/N reproduces the unsharded stream verbatim.
    if options.stream == Some(StreamFormat::Csv) && shard.index() == 0 {
        if let Some(out) = &mut stream_out {
            use std::io::Write;
            writeln!(out, "{SWEEP_CSV_HEADER}")
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing point stream: {e}")))?;
        }
    }
    let stream = options.stream;
    service.stream(&spec, shard, None, &mut |point: SweepPoint| {
        use std::io::Write;
        if let (Some(out), Some(format)) = (&mut stream_out, stream) {
            line.clear();
            match format {
                StreamFormat::Csv => push_csv_row(&mut line, &point),
                StreamFormat::JsonLines => {
                    serde_json::to_string_into(&point, &mut line).map_err(|error| {
                        eco_chip::EcoChipError::Io(format!(
                            "writing JSON-lines stream: serializing sweep point {:?}: {error}",
                            point.label
                        ))
                    })?;
                }
            }
            line.push('\n');
            out.write_all(line.as_bytes())
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing point stream: {e}")))?;
        }
        if let Some(file) = &mut csv_file {
            line.clear();
            push_csv_row(&mut line, &point);
            writeln!(file, "{line}")
                .map_err(|e| eco_chip::EcoChipError::Io(format!("writing sweep CSV: {e}")))?;
        }
        if collect {
            points.push(point);
        }
        Ok(())
    })?;
    if let Some(mut out) = stream_out {
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
    save_memo(&service, options)?;
    print_stats(&service);
    Ok(())
}

/// `--optimize`: run a carbon-aware search over the selected sweep space,
/// streaming one [`opt::OptEvent`] JSON line per incumbent improvement
/// (then the terminal `done` line) to stdout. Narration goes to stderr so
/// seeded runs can be byte-diffed, exactly like `--stream jsonl`.
fn run_optimize(
    system: &System,
    db: TechDb,
    axis_name: &str,
    jobs: Option<usize>,
    options: &OutputOptions,
    config: &opt::OptConfig,
) -> CliResult {
    let service = build_service(db, jobs, options);
    let axis = named_sweep_axis(axis_name, system).map_err(|e| CliError::usage(e.to_string()))?;
    let spec = SweepSpec::new(system.clone()).axis(axis);
    let shard = options.shard.unwrap_or(Shard::FULL);
    let total = spec.try_len()?;
    let owned = shard.range(total).len();
    eprintln!(
        "{} search over the {axis_name} space of {} ({owned} of {total} points, \
         budget {}, seed {}, objectives {}):",
        config.method.label(),
        system.name,
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
        service.estimator(),
        service.engine(),
        &spec,
        shard,
        service.context(),
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
    save_memo(&service, options)?;
    print_stats(&service);
    Ok(())
}

struct OutputOptions {
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    shard: Option<Shard>,
    memo: Option<PathBuf>,
    memo_cap: Option<usize>,
    memo_save_every: Option<usize>,
    stream: Option<StreamFormat>,
    chunk: Option<usize>,
}

/// Initialise structured logging: apply the `ECOCHIP_LOG` environment
/// default, then strip the global `--log-level` / `--log-format` flags —
/// valid anywhere on the command line, including after a subcommand — so
/// the per-command parsers never see them.
fn init_logging(args: &mut Vec<String>) -> CliResult {
    trace::init_from_env();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--log-level" => {
                let value = value_of(args, i, "--log-level")?;
                let level = trace::Level::parse(&value).ok_or_else(|| {
                    CliError::usage(format!(
                        "--log-level needs error, warn, info or debug, got {value:?}"
                    ))
                })?;
                trace::set_level(level);
                args.drain(i..i + 2);
            }
            "--log-format" => {
                let value = value_of(args, i, "--log-format")?;
                let format = trace::LogFormat::parse(&value).ok_or_else(|| {
                    CliError::usage(format!("--log-format needs text or json, got {value:?}"))
                })?;
                trace::set_format(format);
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(())
}

/// Fetch the value following flag `i`, or fail with a usage hint.
fn value_of(args: &[String], i: usize, flag: &str) -> CliResult<String> {
    args.get(i + 1)
        .cloned()
        .ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

/// Parse a positive integer flag value.
fn positive(value: &str, flag: &str) -> CliResult<usize> {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| CliError::usage(format!("{flag} needs a positive integer, got {value:?}")))
}

/// Parse a non-negative integer flag value (0 is meaningful, e.g. a
/// `--memo-max-entries` bound that caches nothing).
fn non_negative(value: &str, flag: &str) -> CliResult<usize> {
    value.parse().map_err(|_| {
        CliError::usage(format!(
            "{flag} needs a non-negative integer, got {value:?}"
        ))
    })
}

/// Parse a `--seed` value: any unsigned 64-bit integer.
fn parse_seed(value: &str) -> CliResult<u64> {
    value.parse().map_err(|_| {
        CliError::usage(format!(
            "--seed needs an unsigned 64-bit integer, got {value:?}"
        ))
    })
}

/// Parse a `--optimize` method name.
fn parse_method(value: &str) -> CliResult<opt::OptMethod> {
    value
        .parse()
        .map_err(|e: opt::OptParseError| CliError::usage(e.message().to_string()))
}

/// Parse a `--objectives` list.
fn parse_objectives(value: &str) -> CliResult<opt::ObjectiveSet> {
    value
        .parse()
        .map_err(|e: opt::OptParseError| CliError::usage(e.message().to_string()))
}

/// `ecochip serve`: start the HTTP/JSON estimation service and block until
/// it is shut down (`POST /v1/shutdown`).
fn run_serve(args: &[String]) -> CliResult {
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                config.addr = value_of(args, i, "--addr")?;
                i += 2;
            }
            "--jobs" => {
                config.jobs = Some(positive(&value_of(args, i, "--jobs")?, "--jobs")?);
                i += 2;
            }
            "--chunk" => {
                config.chunk = Some(positive(&value_of(args, i, "--chunk")?, "--chunk")?);
                i += 2;
            }
            "--threads" => {
                config.threads = positive(&value_of(args, i, "--threads")?, "--threads")?;
                i += 2;
            }
            "--techdb" => {
                let path = PathBuf::from(value_of(args, i, "--techdb")?);
                config.techdb = Some(io::load_techdb(&path)?);
                i += 2;
            }
            "--memo-file" => {
                config.memo_file = Some(PathBuf::from(value_of(args, i, "--memo-file")?));
                i += 2;
            }
            "--memo-max-entries" => {
                config.memo_max_entries = Some(non_negative(
                    &value_of(args, i, "--memo-max-entries")?,
                    "--memo-max-entries",
                )?);
                i += 2;
            }
            "--memo-save-every" => {
                config.memo_save_every = Some(positive(
                    &value_of(args, i, "--memo-save-every")?,
                    "--memo-save-every",
                )?);
                i += 2;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(positive(
                    &value_of(args, i, "--idle-timeout-ms")?,
                    "--idle-timeout-ms",
                )? as u64);
                i += 2;
            }
            "--max-requests-per-conn" => {
                config.max_requests_per_connection = positive(
                    &value_of(args, i, "--max-requests-per-conn")?,
                    "--max-requests-per-conn",
                )?;
                i += 2;
            }
            "--max-inflight" => {
                config.max_inflight =
                    positive(&value_of(args, i, "--max-inflight")?, "--max-inflight")?;
                i += 2;
            }
            "--max-connections" => {
                config.max_connections = positive(
                    &value_of(args, i, "--max-connections")?,
                    "--max-connections",
                )?;
                i += 2;
            }
            "--verbose" => {
                config.verbose = true;
                i += 1;
            }
            "--help" | "-h" => {
                print_usage();
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown serve flag {other:?}; run `ecochip --help` for usage"
                )));
            }
        }
    }
    if config.memo_save_every.is_some() && config.memo_file.is_none() {
        return Err(CliError::usage("--memo-save-every requires --memo-file"));
    }
    let server = Server::bind(&config).map_err(serve_error)?;
    eprintln!(
        "ecochip-serve listening on http://{} ({} sweep jobs, {}-point chunks, {} handler threads, {} event loop)",
        server.local_addr(),
        config
            .jobs
            .map_or_else(|| "default".to_owned(), |jobs| jobs.to_string()),
        server.engine_chunk(),
        config.threads,
        server.poll_backend()
    );
    server.run().map_err(serve_error)
}

/// `ecochip orchestrate`: fan a sweep out across local workers or remote
/// servers, merge the ordered shard streams to stdout as JSON lines, and
/// optionally verify the merge against the unsharded fingerprint.
fn run_orchestrate(args: &[String]) -> CliResult {
    let mut testcase: Option<String> = None;
    let mut design: Option<PathBuf> = None;
    let mut techdb_path: Option<PathBuf> = None;
    let mut sweep: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut remote: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut check = false;
    let mut share_memo = false;
    let mut policy = FailoverPolicy::default();
    let mut optimize: Option<opt::OptMethod> = None;
    let mut budget: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut objectives: Option<opt::ObjectiveSet> = None;
    let mut rounds: Option<usize> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--testcase" => {
                testcase = Some(value_of(args, i, "--testcase")?);
                i += 2;
            }
            "--design" => {
                design = Some(PathBuf::from(value_of(args, i, "--design")?));
                i += 2;
            }
            "--techdb" => {
                techdb_path = Some(PathBuf::from(value_of(args, i, "--techdb")?));
                i += 2;
            }
            "--sweep" => {
                sweep = Some(value_of(args, i, "--sweep")?);
                i += 2;
            }
            "--workers" => {
                workers = Some(positive(&value_of(args, i, "--workers")?, "--workers")?);
                i += 2;
            }
            "--remote" => {
                remote = Some(value_of(args, i, "--remote")?);
                i += 2;
            }
            "--jobs" => {
                jobs = Some(positive(&value_of(args, i, "--jobs")?, "--jobs")?);
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--retries" => {
                policy.retries = non_negative(&value_of(args, i, "--retries")?, "--retries")?;
                i += 2;
            }
            "--backoff-ms" => {
                policy.backoff = std::time::Duration::from_millis(non_negative(
                    &value_of(args, i, "--backoff-ms")?,
                    "--backoff-ms",
                )? as u64);
                i += 2;
            }
            "--share-memo" => {
                share_memo = true;
                i += 1;
            }
            "--optimize" => {
                optimize = Some(parse_method(&value_of(args, i, "--optimize")?)?);
                i += 2;
            }
            "--budget" => {
                budget = Some(positive(&value_of(args, i, "--budget")?, "--budget")?);
                i += 2;
            }
            "--seed" => {
                seed = Some(parse_seed(&value_of(args, i, "--seed")?)?);
                i += 2;
            }
            "--objectives" => {
                objectives = Some(parse_objectives(&value_of(args, i, "--objectives")?)?);
                i += 2;
            }
            "--rounds" => {
                rounds = Some(positive(&value_of(args, i, "--rounds")?, "--rounds")?);
                i += 2;
            }
            "--help" | "-h" => {
                print_usage();
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown orchestrate flag {other:?}; run `ecochip --help` for usage"
                )));
            }
        }
    }

    let Some(axis) = sweep else {
        return Err(CliError::usage(format!(
            "orchestrate needs --sweep <{NAMED_SWEEP_AXES}>"
        )));
    };
    if optimize.is_none() {
        for (flag, set) in [
            ("--budget", budget.is_some()),
            ("--seed", seed.is_some()),
            ("--objectives", objectives.is_some()),
            ("--rounds", rounds.is_some()),
        ] {
            if set {
                return Err(CliError::usage(format!("{flag} requires --optimize")));
            }
        }
    } else if check {
        return Err(CliError::usage(
            "--check verifies sweep merges against the unsharded fingerprint; \
             it does not apply to --optimize",
        ));
    }
    let pool = match (workers, remote) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "pass either --workers (local threads) or --remote (server URLs), not both",
            ))
        }
        (None, None) => {
            return Err(CliError::usage(
                "orchestrate needs --workers <N> or --remote <url,url,...>",
            ))
        }
        (Some(workers), None) => WorkerPool::Local { workers, jobs },
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
    };

    let db = match &techdb_path {
        Some(path) => io::load_techdb(path)?,
        None => TechDb::default(),
    };
    let request = match (testcase, design) {
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "pass either --testcase or --design, not both",
            ))
        }
        (None, None) => {
            return Err(CliError::usage(
                "orchestrate needs a design: --testcase <name> or --design <system.json>",
            ))
        }
        (Some(name), None) => {
            // Validate the name locally for a crisp exit-2 hint.
            builtin_system(&db, &name)?;
            SweepRequest::named(name, axis)
        }
        (None, Some(path)) => SweepRequest {
            testcase: None,
            system: Some(io::load_system(&path)?),
            axis: Some(axis),
            axes: None,
            shard: None,
            range: None,
            format: None,
        },
    };

    if share_memo {
        let WorkerPool::Remote(urls) = &pool else {
            return Err(CliError::usage(
                "--share-memo needs --remote (local workers share nothing over the wire)",
            ));
        };
        // Seeding is an optimization: a failed share (unreachable worker,
        // oversized memo) degrades to a cold start, never kills the run.
        match orchestrator::share_memo(urls) {
            Ok(orchestrator::MemoShare {
                source: Some(source),
                entries,
                seeded,
            }) => {
                eprintln!(
                    "memo: seeded {} workers from {source} ({entries} entries)",
                    seeded.len()
                );
                for (url, floorplans, manufacturing) in seeded {
                    eprintln!(
                        "memo:   {url} absorbed {floorplans} floorplans, \
                         {manufacturing} manufacturing results"
                    );
                }
            }
            Ok(_) => eprintln!("memo: every worker is cold, nothing to share"),
            Err(error) => trace::warn(
                "cli",
                "memo sharing failed; workers start cold",
                &[("error", FieldValue::from(error.to_string()))],
            ),
        }
    }

    let shards = pool.shards();
    let mode = match &pool {
        WorkerPool::Local { .. } => format!("{shards} local workers"),
        WorkerPool::Remote(_) => format!("{shards} remote servers"),
    };

    if let Some(method) = optimize {
        let opt_request = OptimizeRequest {
            testcase: request.testcase.clone(),
            system: request.system.clone(),
            axis: request.axis.clone(),
            axes: None,
            shard: None,
            method: Some(method.label().to_string()),
            budget,
            seed,
            objectives: objectives.map(|set| set.label()),
            island: None,
            frontier: None,
        };
        let rounds = rounds.unwrap_or(1);
        eprintln!(
            "orchestrating {} island search across {mode} ({rounds} rounds, \
             {} retries, {} ms backoff)",
            method.label(),
            policy.retries,
            policy.backoff.as_millis()
        );
        let mut merged_out = std::io::BufWriter::new(std::io::stdout().lock());
        let outcome =
            orchestrator::orchestrate_optimize(&db, &opt_request, &pool, &policy, rounds, |line| {
                use std::io::Write;
                merged_out
                    .write_all(line.as_bytes())
                    .and_then(|()| merged_out.write_all(b"\n"))
                    .map_err(|e| ServeError::Io(format!("writing merged stream: {e}")))
            })
            .map_err(serve_error)?;
        {
            use std::io::Write;
            merged_out
                .flush()
                .map_err(|e| eco_chip::EcoChipError::Io(format!("flushing merged stream: {e}")))?;
        }
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
    // Merged lines go through one buffered writer over the locked stdout:
    // the merger is single-threaded and ordered, so buffering changes
    // nothing about the stream except the number of write syscalls.
    let mut merged_out = std::io::BufWriter::new(std::io::stdout().lock());
    let outcome = orchestrator::orchestrate_with(&db, &request, &pool, &policy, |line| {
        use std::io::Write;
        merged_out
            .write_all(line.as_bytes())
            .and_then(|()| merged_out.write_all(b"\n"))
            .map_err(|e| ServeError::Io(format!("writing merged stream: {e}")))
    })
    .map_err(serve_error)?;
    {
        use std::io::Write;
        merged_out
            .flush()
            .map_err(|e| eco_chip::EcoChipError::Io(format!("flushing merged stream: {e}")))?;
    }
    eprintln!(
        "merged {} points, fingerprint {:#018x}",
        outcome.points, outcome.fingerprint
    );
    if check {
        let reference =
            orchestrator::unsharded_outcome(&db, &request, jobs).map_err(serve_error)?;
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

/// `ecochip bench`: run the deterministic perf workload matrix, write
/// `BENCH_core.json` / `BENCH_serve.json`, and optionally gate a fresh run
/// against committed baselines (`--check`) or refresh them (`--bless`).
fn run_bench(args: &[String]) -> CliResult {
    use eco_chip::bench::{self, BenchOptions};

    let mut options = BenchOptions::default();
    let mut suites = "all".to_owned();
    let mut out_dir: Option<PathBuf> = None;
    let mut baseline_dir = PathBuf::from(".");
    let mut check = false;
    let mut bless = false;
    let mut tolerance = bench::DEFAULT_TOLERANCE_PERCENT;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--suite" => {
                suites = value_of(args, i, "--suite")?;
                i += 2;
            }
            "--smoke" => {
                options.smoke = true;
                i += 1;
            }
            "--repeats" => {
                options.repeats = positive(&value_of(args, i, "--repeats")?, "--repeats")?;
                i += 2;
            }
            "--out" => {
                out_dir = Some(PathBuf::from(value_of(args, i, "--out")?));
                i += 2;
            }
            "--baseline" => {
                baseline_dir = PathBuf::from(value_of(args, i, "--baseline")?);
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--bless" => {
                bless = true;
                i += 1;
            }
            "--tolerance" => {
                let value = value_of(args, i, "--tolerance")?;
                tolerance = value
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        CliError::usage(format!(
                            "--tolerance needs a non-negative number of percent, got {value:?}"
                        ))
                    })?;
                i += 2;
            }
            other => return Err(CliError::usage(format!("unknown bench flag {other:?}"))),
        }
    }
    if check && bless {
        return Err(CliError::usage(
            "--check and --bless are mutually exclusive",
        ));
    }
    let (want_core, want_serve) = match suites.as_str() {
        "all" => (true, true),
        "core" => (true, false),
        "serve" => (false, true),
        other => {
            return Err(CliError::usage(format!(
                "--suite must be core, serve or all, got {other:?}"
            )))
        }
    };
    // `--bless` refreshes the committed baselines in place; otherwise fresh
    // results go to `--out` (default: the baseline directory, which keeps
    // the no-flag invocation useful as a local refresh). A bare `--check`
    // must NOT clobber the baselines it just gated against, so without an
    // explicit `--out` a checking run only prints and gates.
    let write_results = bless || !check || out_dir.is_some();
    let out_dir = if bless {
        baseline_dir.clone()
    } else {
        out_dir.unwrap_or_else(|| baseline_dir.clone())
    };
    if write_results {
        std::fs::create_dir_all(&out_dir)?;
    }

    type SuiteRunner = fn(&BenchOptions) -> Result<bench::BenchSuite, bench::BenchError>;
    let plan: [(bool, &str, SuiteRunner); 2] = [
        (want_core, bench::CORE_BASELINE, bench::run_core),
        (want_serve, bench::SERVE_BASELINE, bench::run_serve),
    ];
    let mut regressions = Vec::new();
    for (enabled, file_name, run) in plan {
        if !enabled {
            continue;
        }
        // Load the baseline BEFORE writing anything: with the default
        // `--out` the fresh results land in the baseline directory, and
        // reading afterwards would compare the fresh run against itself —
        // a gate that can never fail. A missing baseline is a hard error,
        // not a silent pass.
        let baseline = if check {
            Some(bench::load_suite(&baseline_dir.join(file_name))?)
        } else {
            None
        };
        eprintln!("bench: running {file_name} workloads ...");
        let suite = run(&options)?;
        for record in &suite.results {
            eprintln!(
                "  {}/{}: {:.4} {} ({} iterations in {:.3}s)",
                record.workload,
                record.metric,
                record.value,
                record.units,
                record.iterations,
                record.wall_clock_seconds
            );
        }
        if write_results {
            let out_path = out_dir.join(file_name);
            bench::write_suite(&suite, &out_path)?;
            eprintln!("bench: wrote {}", out_path.display());
        }
        if let Some(baseline) = baseline {
            regressions.extend(bench::compare(&baseline, &suite, tolerance));
        }
    }
    if !regressions.is_empty() {
        for regression in &regressions {
            eprintln!("bench: REGRESSION: {regression}");
        }
        return Err(CliError::Run(
            format!(
                "{} perf regression(s) beyond the {tolerance}% tolerance",
                regressions.len()
            )
            .into(),
        ));
    }
    if check {
        eprintln!("bench: perf check passed ({tolerance}% tolerance)");
    }
    Ok(())
}

/// Reject a malformed `ECOCHIP_CHUNK` before any engine silently falls
/// back to the default — a typo'd chunk size should fail loudly, exactly
/// like a malformed `--chunk`.
fn validate_env_chunk() -> CliResult {
    match std::env::var(CHUNK_ENV_VAR) {
        Ok(value) => positive(value.trim(), CHUNK_ENV_VAR).map(|_| ()),
        Err(_) => Ok(()),
    }
}

fn real_main() -> CliResult {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        return Err(CliError::usage("no arguments given"));
    }
    init_logging(&mut args)?;
    validate_env_chunk()?;

    // Subcommand dispatch: a leading bare word selects a subcommand; the
    // flag-only invocation remains the classic estimate/sweep front end.
    match args[0].as_str() {
        "serve" => return run_serve(&args[1..]),
        "orchestrate" => return run_orchestrate(&args[1..]),
        "bench" => return run_bench(&args[1..]),
        other if !other.starts_with('-') => {
            return Err(CliError::usage(format!(
                "unknown subcommand {other:?} (expected serve, orchestrate or bench); \
                 run `ecochip --help` for usage"
            )));
        }
        _ => {}
    }

    let mut testcase: Option<String> = None;
    let mut design: Option<PathBuf> = None;
    let mut techdb_path: Option<PathBuf> = None;
    let mut export: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut sweep: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut chunk: Option<usize> = None;
    let mut shard: Option<Shard> = None;
    let mut memo: Option<PathBuf> = None;
    let mut memo_cap: Option<usize> = None;
    let mut memo_save_every: Option<usize> = None;
    let mut stream: Option<StreamFormat> = None;
    let mut optimize: Option<opt::OptMethod> = None;
    let mut budget: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut objectives: Option<opt::ObjectiveSet> = None;
    let mut list_testcases = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--testcase" => {
                testcase = Some(value_of(&args, i, "--testcase")?);
                i += 2;
            }
            "--design" => {
                design = Some(PathBuf::from(value_of(&args, i, "--design")?));
                i += 2;
            }
            "--techdb" => {
                techdb_path = Some(PathBuf::from(value_of(&args, i, "--techdb")?));
                i += 2;
            }
            "--export" => {
                export = Some(PathBuf::from(value_of(&args, i, "--export")?));
                i += 2;
            }
            "--csv" => {
                csv = Some(PathBuf::from(value_of(&args, i, "--csv")?));
                i += 2;
            }
            "--json" => {
                json = Some(PathBuf::from(value_of(&args, i, "--json")?));
                i += 2;
            }
            "--sweep" => {
                sweep = Some(value_of(&args, i, "--sweep")?);
                i += 2;
            }
            "--jobs" => {
                jobs = Some(positive(&value_of(&args, i, "--jobs")?, "--jobs")?);
                i += 2;
            }
            "--chunk" => {
                chunk = Some(positive(&value_of(&args, i, "--chunk")?, "--chunk")?);
                i += 2;
            }
            "--shard" => {
                let value = value_of(&args, i, "--shard")?;
                shard = Some(
                    value
                        .parse::<Shard>()
                        .map_err(|e| CliError::usage(e.to_string()))?,
                );
                i += 2;
            }
            "--memo-file" => {
                memo = Some(PathBuf::from(value_of(&args, i, "--memo-file")?));
                i += 2;
            }
            "--memo-max-entries" => {
                memo_cap = Some(non_negative(
                    &value_of(&args, i, "--memo-max-entries")?,
                    "--memo-max-entries",
                )?);
                i += 2;
            }
            "--memo-save-every" => {
                memo_save_every = Some(positive(
                    &value_of(&args, i, "--memo-save-every")?,
                    "--memo-save-every",
                )?);
                i += 2;
            }
            "--stream" => {
                stream = Some(StreamFormat::parse(&value_of(&args, i, "--stream")?)?);
                i += 2;
            }
            "--optimize" => {
                optimize = Some(parse_method(&value_of(&args, i, "--optimize")?)?);
                i += 2;
            }
            "--budget" => {
                budget = Some(positive(&value_of(&args, i, "--budget")?, "--budget")?);
                i += 2;
            }
            "--seed" => {
                seed = Some(parse_seed(&value_of(&args, i, "--seed")?)?);
                i += 2;
            }
            "--objectives" => {
                objectives = Some(parse_objectives(&value_of(&args, i, "--objectives")?)?);
                i += 2;
            }
            "--verbose" => {
                trace::raise_level(trace::Level::Info);
                i += 1;
            }
            "--list-testcases" => {
                list_testcases = true;
                i += 1;
            }
            "--help" | "-h" => {
                print_usage();
                return Ok(());
            }
            other => {
                return Err(CliError::usage(format!(
                    "unknown flag {other:?}; run `ecochip --help` for usage"
                )));
            }
        }
    }

    if list_testcases {
        for name in catalog::names() {
            println!("{name}");
        }
        return Ok(());
    }

    let db = match &techdb_path {
        Some(path) => io::load_techdb(path)?,
        None => TechDb::default(),
    };

    if let Some(dir) = export {
        return export_testcases(&db, &dir);
    }

    let system = if let Some(path) = design {
        Some(io::load_system(&path)?)
    } else if let Some(name) = &testcase {
        Some(builtin_system(&db, name)?)
    } else {
        None
    };
    let Some(system) = system else {
        print_usage();
        return Err(CliError::usage(
            "nothing to do: pass --testcase, --design, --export or --list-testcases",
        ));
    };

    if sweep.is_none() {
        if shard.is_some() {
            return Err(CliError::usage("--shard requires --sweep"));
        }
        if stream.is_some() {
            return Err(CliError::usage("--stream requires --sweep"));
        }
        if chunk.is_some() {
            return Err(CliError::usage("--chunk requires --sweep"));
        }
        if optimize.is_some() {
            return Err(CliError::usage(format!(
                "--optimize requires --sweep <{NAMED_SWEEP_AXES}> to define the search space"
            )));
        }
    }
    if optimize.is_none() {
        if budget.is_some() {
            return Err(CliError::usage("--budget requires --optimize"));
        }
        if seed.is_some() {
            return Err(CliError::usage("--seed requires --optimize"));
        }
        if objectives.is_some() {
            return Err(CliError::usage("--objectives requires --optimize"));
        }
    } else {
        if stream.is_some() {
            return Err(CliError::usage(
                "--optimize already streams NDJSON events to stdout; drop --stream",
            ));
        }
        if csv.is_some() || json.is_some() {
            return Err(CliError::usage(
                "--csv/--json export sweep points; they do not apply to --optimize",
            ));
        }
    }
    if memo_save_every.is_some() && memo.is_none() {
        return Err(CliError::usage("--memo-save-every requires --memo-file"));
    }

    let options = OutputOptions {
        csv,
        json,
        shard,
        memo,
        memo_cap,
        memo_save_every,
        stream,
        chunk,
    };
    match (sweep, optimize) {
        (Some(axis), Some(method)) => {
            let config = opt::OptConfig {
                method,
                objectives: objectives.unwrap_or_default(),
                budget: budget.unwrap_or(opt::DEFAULT_BUDGET),
                seed: seed.unwrap_or(opt::DEFAULT_SEED),
                island: None,
                seed_frontier: Vec::new(),
            };
            run_optimize(&system, db, &axis, jobs, &options, &config)
        }
        (Some(axis), None) => run_sweep(&system, db, &axis, jobs, &options),
        (None, _) => run(&system, db, &options),
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
