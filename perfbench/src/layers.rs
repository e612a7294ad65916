//! The traced run's in-process layer replays.
//!
//! Each replay calls one layer's public entry point on inputs the workload
//! generated, inside a span of the benchmark's own [`SpanLog`]. Stage
//! replays run round-robin with the full estimate they decompose, so the
//! stage costs and the estimate they should add up to see the same
//! machine state.

use std::hint::black_box;
use std::time::{Duration, Instant};

use eco_chip::core::opt::{
    self, FrontierPoint, ObjectiveSet, OptConfig, OptMethod, ParetoFrontier,
};
use eco_chip::core::sweep::{Shard, SweepContext, SweepEngine, SweepPoint, SweepSpec, SweepStats};
use eco_chip::core::{CarbonReport, ChipletReport, EcoChip, ManufacturingModel, System};
use eco_chip::design::{gates_from_transistors, DesignEstimator};
use eco_chip::floorplan::{ChipletOutline, Floorplan, SlicingFloorplanner};
use eco_chip::packaging::{CommOverheads, CommunicationEstimator, PackageEstimator};
use eco_chip::power::OperationalEstimator;
use eco_chip::serve::api::{EstimateRequest, EstimateResponse, OptimizeRequest, SweepRequest};
use eco_chip::serve::http::RequestParser;
use eco_chip::techdb::{Area, TechDb};
use eco_chip::yield_model::NegativeBinomialYield;

use crate::client::request_bytes;
use crate::gen::{self, Shape};
use crate::stats::{Metric, SpanLog};
use crate::workloads::{encode_line, Prepared};

/// Design points sampled from a workload's space for the replays.
const MIX_POINTS: usize = 256;

/// A request body of the workload, with the type the server decodes it to.
enum Body {
    Sweep(String),
    Optimize(String),
    Estimate(String),
    EstimateBatch(String),
}

impl Body {
    fn http(&self) -> Vec<u8> {
        match self {
            Body::Sweep(text) => request_bytes("POST", "/v1/sweep", text.as_bytes()),
            Body::Optimize(text) => request_bytes("POST", "/v1/optimize", text.as_bytes()),
            Body::Estimate(text) | Body::EstimateBatch(text) => {
                request_bytes("POST", "/v1/estimate", text.as_bytes())
            }
        }
    }

    fn decode(&self) -> bool {
        match self {
            Body::Sweep(text) => serde_json::from_str::<SweepRequest>(text).is_ok(),
            Body::Optimize(text) => serde_json::from_str::<OptimizeRequest>(text).is_ok(),
            Body::Estimate(text) => serde_json::from_str::<EstimateRequest>(text).is_ok(),
            Body::EstimateBatch(text) => serde_json::from_str::<Vec<EstimateRequest>>(text).is_ok(),
        }
    }
}

fn bodies(prepared: &Prepared) -> Vec<Body> {
    match prepared {
        Prepared::Sweep(refs) => refs.iter().map(|r| Body::Sweep(r.body.clone())).collect(),
        Prepared::Dse { db, seed } => (0..6)
            .map(|index| {
                let request = gen::dse_request(db, *seed, index);
                Body::Optimize(serde_json::to_string(&request).expect("wire types serialize"))
            })
            .collect(),
        Prepared::Estimate { pool, seed } => {
            let mut out: Vec<Body> = pool
                .iter()
                .map(|r| Body::Estimate(r.body.clone()))
                .collect();
            let batches = gen::estimate_ops(*seed)
                .filter(|op| op.shape == Shape::Batch)
                .take(6);
            for op in batches {
                let items: Vec<&str> = op.designs.iter().map(|&d| pool[d].body.as_str()).collect();
                out.push(Body::EstimateBatch(format!("[{}]", items.join(","))));
            }
            out
        }
    }
}

/// Up to [`MIX_POINTS`] evaluated points spread evenly over `spec`.
fn design_mix(estimator: &EcoChip, spec: &SweepSpec) -> Result<Vec<SweepPoint>, String> {
    let total = spec.try_len().map_err(|e| e.to_string())?;
    let count = total.min(MIX_POINTS);
    (0..count)
        .map(|i| {
            let case = spec
                .case_at(i * (total / count))
                .map_err(|e| e.to_string())?;
            let report = estimator
                .estimate(&case.system)
                .map_err(|e| e.to_string())?;
            Ok(SweepPoint {
                label: case.label(),
                system: case.system,
                report,
            })
        })
        .collect()
}

/// Repeat `pass` until `budget` has passed (at least once); returns the
/// summed call count and the elapsed time.
fn repeat_for(budget: Duration, mut pass: impl FnMut() -> u64) -> (u64, Duration) {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        calls += pass();
        if start.elapsed() >= budget {
            return (calls, start.elapsed());
        }
    }
}

fn us_per(elapsed: Duration, calls: u64) -> f64 {
    elapsed.as_secs_f64() * 1e6 / calls.max(1) as f64
}

/// The inputs of every estimator stage of one system, computed once so
/// each stage can be replayed on its own.
struct Staged<'a> {
    system: &'a System,
    report: &'a CarbonReport,
    outlines: Vec<ChipletOutline>,
    floorplan: Floorplan,
    comm: CommOverheads,
}

fn outlines(system: &System, db: &TechDb) -> Vec<ChipletOutline> {
    system
        .chiplets
        .iter()
        .map(|c| {
            ChipletOutline::new(
                c.name.clone(),
                c.area(db).expect("replayed design has areas"),
            )
        })
        .collect()
}

fn stage<'a>(estimator: &EcoChip, point: &'a SweepPoint) -> Result<Staged<'a>, String> {
    let system = &point.system;
    let config = estimator.config();
    let db = &config.techdb;
    let outlines = outlines(system, db);
    let floorplan = SlicingFloorplanner::new(config.floorplan)
        .floorplan(&outlines)
        .map_err(|e| e.to_string())?;
    let comm = if system.is_monolithic() {
        CommOverheads::none(1)
    } else {
        CommunicationEstimator::new(db, config.comm)
            .overheads(&system.packaging, &system.chiplet_nodes(), &floorplan)
            .map_err(|e| e.to_string())?
    };
    Ok(Staged {
        system,
        report: &point.report,
        outlines,
        floorplan,
        comm,
    })
}

/// The HI communication terms `EcoChip::estimate_with` adds for a
/// chiplet system: the design CFP of each chiplet's routers and the
/// manufacturing and design CFP of interposer logic.
fn hi_comm(estimator: &EcoChip, s: &Staged<'_>) {
    let config = estimator.config();
    let db = &config.techdb;
    let design = DesignEstimator::new(db, config.design);
    for (i, chiplet) in s.system.chiplets.iter().enumerate() {
        let area = s
            .comm
            .chiplet_extra_area
            .get(i)
            .copied()
            .unwrap_or(Area::ZERO);
        if area.mm2() <= 0.0 {
            continue;
        }
        let density = db
            .node(chiplet.node)
            .expect("node")
            .logic_density
            .transistors_per_mm2();
        let gates = gates_from_transistors(density * area.mm2());
        black_box(
            design
                .amortized_comm_cfp(gates, chiplet.node, &s.system.volumes)
                .ok(),
        );
    }
    let (Some(node), area) = (s.comm.interposer_node, s.comm.interposer_logic_area) else {
        return;
    };
    if area.mm2() <= 0.0 {
        return;
    }
    let params = db.node(node).expect("node");
    let die_yield = NegativeBinomialYield::for_node(params).yield_for(area);
    let model = ManufacturingModel::new(db, config.wafer, config.fab_source);
    black_box(model.cfpa(node, die_yield).map(|cfpa| cfpa * area).ok());
    let gates = gates_from_transistors(params.logic_density.transistors_per_mm2() * area.mm2());
    black_box(
        design
            .amortized_comm_cfp(gates, node, &s.system.volumes)
            .ok(),
    );
}

/// Assemble a report from finished stage results, as the estimate's last
/// step does (the names are the only allocations).
fn assemble(system: &System, stages: &CarbonReport) -> CarbonReport {
    CarbonReport {
        system_name: system.name.clone(),
        chiplets: stages
            .chiplets
            .iter()
            .map(|c| ChipletReport {
                name: c.name.clone(),
                ..*c
            })
            .collect(),
        ..*stages
    }
}

/// Replay the estimator's stages and the full estimate over `points`,
/// round-robin for `budget`. Returns the per-layer metrics.
fn estimator_stages(
    estimator: &EcoChip,
    points: &[SweepPoint],
    budget: Duration,
    log: &mut SpanLog,
    root: usize,
) -> Result<Vec<Metric>, String> {
    let config = estimator.config();
    let db = &config.techdb;
    let staged: Vec<Staged<'_>> = points
        .iter()
        .map(|p| stage(estimator, p))
        .collect::<Result<_, _>>()?;
    let planner = SlicingFloorplanner::new(config.floorplan);
    let manufacturing = || {
        let model = ManufacturingModel::new(db, config.wafer, config.fab_source);
        if config.include_wafer_wastage {
            model
        } else {
            model.without_wastage()
        }
    };
    let disabled = SweepContext::disabled();
    type Pass<'p> = Box<dyn Fn() -> u64 + 'p>;
    let stages: Vec<(&str, Pass<'_>)> = vec![
        (
            "outline",
            Box::new(|| {
                for s in &staged {
                    black_box(outlines(s.system, db));
                }
                staged.len() as u64
            }),
        ),
        (
            "floorplan",
            Box::new(|| {
                for s in &staged {
                    black_box(planner.floorplan(&s.outlines).ok());
                }
                staged.len() as u64
            }),
        ),
        (
            "comm",
            Box::new(|| {
                let mut calls = 0;
                for s in staged.iter().filter(|s| !s.system.is_monolithic()) {
                    let estimator = CommunicationEstimator::new(db, config.comm);
                    black_box(
                        estimator
                            .overheads(&s.system.packaging, &s.system.chiplet_nodes(), &s.floorplan)
                            .ok(),
                    );
                    calls += 1;
                }
                calls
            }),
        ),
        (
            "manufacturing",
            Box::new(|| {
                let mut calls = 0;
                for s in &staged {
                    let model = manufacturing();
                    for (i, chiplet) in s.system.chiplets.iter().enumerate() {
                        let extra = s
                            .comm
                            .chiplet_extra_area
                            .get(i)
                            .copied()
                            .unwrap_or(Area::ZERO);
                        black_box(
                            model
                                .chiplet_cfp(s.outlines[i].area + extra, chiplet.node)
                                .ok(),
                        );
                        calls += 1;
                    }
                }
                calls
            }),
        ),
        (
            "design",
            Box::new(|| {
                let mut calls = 0;
                for s in &staged {
                    let design = DesignEstimator::new(db, config.design);
                    for chiplet in &s.system.chiplets {
                        let transistors = chiplet
                            .transistors(db)
                            .expect("replayed design has transistors");
                        let gates = gates_from_transistors(transistors)
                            * config.design_effort_factor(chiplet.design_type);
                        black_box(
                            design
                                .amortized_chiplet_cfp(gates, chiplet.node, &s.system.volumes)
                                .ok(),
                        );
                        calls += 1;
                    }
                }
                calls
            }),
        ),
        (
            "package",
            Box::new(|| {
                let mut calls = 0;
                for s in staged.iter().filter(|s| !s.system.is_monolithic()) {
                    let estimator = PackageEstimator::new(db, config.packaging_source);
                    black_box(
                        estimator
                            .package_cfp(&s.system.packaging, &s.floorplan)
                            .ok(),
                    );
                    calls += 1;
                }
                calls
            }),
        ),
        (
            "hi_comm",
            Box::new(|| {
                let mut calls = 0;
                for s in staged.iter().filter(|s| !s.system.is_monolithic()) {
                    hi_comm(estimator, s);
                    calls += 1;
                }
                calls
            }),
        ),
        (
            "operational",
            Box::new(|| {
                for s in &staged {
                    let estimator = OperationalEstimator::new(config.operational_source);
                    black_box(estimator.annual_cfp(&s.system.usage, s.comm.total_power));
                }
                staged.len() as u64
            }),
        ),
        (
            "report",
            Box::new(|| {
                for s in &staged {
                    black_box(assemble(s.system, s.report));
                }
                staged.len() as u64
            }),
        ),
        (
            "estimate_cold",
            Box::new(|| {
                for s in &staged {
                    black_box(estimator.estimate_with(s.system, &disabled).ok());
                }
                staged.len() as u64
            }),
        ),
    ];
    let mut elapsed = vec![Duration::ZERO; stages.len()];
    let mut calls = vec![0u64; stages.len()];
    let parent = log.open("replay:estimator", Some(root));
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed() < budget {
        for (at, (_, pass)) in stages.iter().enumerate() {
            let began = Instant::now();
            calls[at] += pass();
            elapsed[at] += began.elapsed();
        }
        rounds += 1;
    }
    log.close(parent, rounds);
    let mut by_name = std::collections::BTreeMap::new();
    for (at, (name, _)) in stages.iter().enumerate() {
        log.record(
            &format!("layer:{name}"),
            Some(parent),
            elapsed[at],
            calls[at],
        );
        by_name.insert(*name, (elapsed[at], calls[at]));
    }
    let cold = by_name["estimate_cold"].0;
    let attributed: Duration = by_name
        .iter()
        .filter(|(name, _)| **name != "estimate_cold")
        .map(|(_, (time, _))| *time)
        .sum();

    // Warm: every stage result already in the memo.
    let warm_context = SweepContext::new();
    for s in &staged {
        black_box(estimator.estimate_with(s.system, &warm_context).ok());
    }
    let warm_span = log.open("layer:estimate_warm", Some(root));
    let (warm_calls, warm) = repeat_for(budget / 8, || {
        for s in &staged {
            black_box(estimator.estimate_with(s.system, &warm_context).ok());
        }
        staged.len() as u64
    });
    log.close(warm_span, warm_calls);

    let per_call = |name: &str| us_per(by_name[name].0, by_name[name].1);
    Ok(vec![
        Metric::new("floorplan.us_per_call", per_call("floorplan"), "us"),
        Metric::new("comm.us_per_call", per_call("comm"), "us"),
        Metric::new("manufacturing.us_per_call", per_call("manufacturing"), "us"),
        Metric::new("package.us_per_call", per_call("package"), "us"),
        Metric::new("design.us_per_call", per_call("design"), "us"),
        Metric::new("operational.us_per_call", per_call("operational"), "us"),
        Metric::new(
            "estimator.us_per_point_cold",
            per_call("estimate_cold"),
            "us",
        ),
        Metric::new(
            "estimator.us_per_point_warm",
            us_per(warm, warm_calls),
            "us",
        ),
        Metric::new(
            "estimator.unattributed_share",
            1.0 - attributed.as_secs_f64() / cold.as_secs_f64(),
            "ratio",
        ),
    ])
}

/// Stage computations per request when each of the workload's requests
/// runs against a fresh memo: (floorplans, manufacturing results).
fn memo_calls(prepared: &Prepared, estimator: &EcoChip) -> Result<(f64, f64), String> {
    let mut stats: Vec<SweepStats> = Vec::new();
    match prepared {
        Prepared::Sweep(refs) => {
            for reference in refs {
                let context = SweepContext::new();
                SweepEngine::serial()
                    .run_streaming_with(
                        estimator,
                        &reference.spec,
                        Shard::FULL,
                        &context,
                        &mut |p: SweepPoint| {
                            black_box(p);
                            Ok(())
                        },
                    )
                    .map_err(|e| e.to_string())?;
                stats.push(context.stats());
            }
        }
        Prepared::Dse { db, seed } => {
            for index in 0..3 {
                let (spec, shard, config) = gen::dse_request(db, *seed, index)
                    .resolve(db)
                    .map_err(|e| e.to_string())?;
                let context = SweepContext::new();
                opt::optimize(
                    estimator,
                    &SweepEngine::serial(),
                    &spec,
                    shard,
                    &context,
                    None,
                    &config,
                    |_| Ok(()),
                )
                .map_err(|e| e.to_string())?;
                stats.push(context.stats());
            }
        }
        Prepared::Estimate { pool, .. } => {
            for reference in pool {
                let context = SweepContext::new();
                estimator
                    .estimate_with(&reference.system, &context)
                    .map_err(|e| e.to_string())?;
                stats.push(context.stats());
            }
        }
    }
    let n = stats.len().max(1) as f64;
    Ok((
        stats.iter().map(|s| s.floorplan_misses as f64).sum::<f64>() / n,
        stats
            .iter()
            .map(|s| s.manufacturing_misses as f64)
            .sum::<f64>()
            / n,
    ))
}

/// Run every in-process replay of the workload within about `budget`,
/// recording spans under a `replay` root span.
pub fn replay(
    prepared: &Prepared,
    spec: &SweepSpec,
    seed: u64,
    jobs: usize,
    budget: Duration,
    log: &mut SpanLog,
) -> Result<Vec<Metric>, String> {
    let estimator = EcoChip::default();
    let root = log.open("replay", None);
    let points = design_mix(&estimator, spec)?;
    let share = budget / 8;

    let mut metrics = estimator_stages(&estimator, &points, 3 * share, log, root)?;

    let span = log.open("layer:memo_replay", Some(root));
    let (floorplan_calls, manufacturing_calls) = memo_calls(prepared, &estimator)?;
    log.close(span, 1);
    metrics.push(Metric::new("floorplan.calls", floorplan_calls, "calls/req"));
    metrics.push(Metric::new(
        "manufacturing.calls",
        manufacturing_calls,
        "calls/req",
    ));

    // The sweep engine with a no-op sink, serial and on every core.
    let mut engine_rates = Vec::new();
    for jobs in [1, jobs] {
        let engine = SweepEngine::with_jobs(jobs);
        let span = log.open(format!("layer:engine_jobs{jobs}"), Some(root));
        let (points_run, elapsed) = repeat_for(share / 2, || {
            engine
                .run_streaming_with(
                    &estimator,
                    spec,
                    Shard::FULL,
                    &SweepContext::new(),
                    &mut |p: SweepPoint| {
                        black_box(p);
                        Ok(())
                    },
                )
                .expect("replayed spec evaluates") as u64
        });
        log.close(span, points_run);
        engine_rates.push(points_run as f64 / elapsed.as_secs_f64());
    }
    metrics.push(Metric::new(
        "engine.points_per_s_jobs1",
        engine_rates[0],
        "1/s",
    ));
    metrics.push(Metric::new(
        "engine.points_per_s_jobsN",
        engine_rates[1],
        "1/s",
    ));
    metrics.push(Metric::new(
        "engine.parallel_speedup",
        engine_rates[1] / engine_rates[0],
        "ratio",
    ));

    // Serialization of sweep points and estimate responses.
    let mut line = String::new();
    let bytes: usize = points
        .iter()
        .map(|p| {
            encode_line(p, &mut line);
            line.len() + 1
        })
        .sum();
    let span = log.open("layer:serialize_point", Some(root));
    let (calls, elapsed) = repeat_for(share / 4, || {
        for point in &points {
            encode_line(point, &mut line);
            black_box(line.len());
        }
        points.len() as u64
    });
    log.close(span, calls);
    metrics.push(Metric::new(
        "serialize.us_per_point",
        us_per(elapsed, calls),
        "us",
    ));
    metrics.push(Metric::new(
        "serialize.bytes_per_point",
        bytes as f64 / points.len() as f64,
        "B",
    ));
    let responses: Vec<EstimateResponse> = points
        .iter()
        .map(|p| EstimateResponse {
            system: p.system.name.clone(),
            embodied_fraction: p.report.embodied_fraction(),
            report: p.report.clone(),
        })
        .collect();
    let span = log.open("layer:serialize_estimate", Some(root));
    let (calls, elapsed) = repeat_for(share / 4, || {
        for response in &responses {
            encode_line(response, &mut line);
            black_box(line.len());
        }
        responses.len() as u64
    });
    log.close(span, calls);
    metrics.push(Metric::new(
        "serialize.us_per_estimate",
        us_per(elapsed, calls),
        "us",
    ));

    // Request decoding and HTTP framing of the workload's own requests.
    let bodies = bodies(prepared);
    let span = log.open("layer:decode", Some(root));
    let (calls, elapsed) = repeat_for(share / 4, || {
        for body in &bodies {
            assert!(body.decode(), "generated request bodies decode");
        }
        bodies.len() as u64
    });
    log.close(span, calls);
    metrics.push(Metric::new(
        "decode.us_per_request",
        us_per(elapsed, calls),
        "us",
    ));
    let wire: Vec<Vec<u8>> = bodies.iter().map(Body::http).collect();
    let span = log.open("layer:http_parse", Some(root));
    let (calls, elapsed) = repeat_for(share / 4, || {
        for bytes in &wire {
            let parsed = RequestParser::new().next_request(bytes);
            assert!(
                matches!(parsed, Ok(Some((_, n))) if n == bytes.len()),
                "request parses"
            );
        }
        wire.len() as u64
    });
    log.close(span, calls);
    metrics.push(Metric::new(
        "http.parse_us_per_request",
        us_per(elapsed, calls),
        "us",
    ));

    // The serial explorers and the Pareto archive.
    let span = log.open("layer:opt_serial", Some(root));
    let (evaluated, elapsed) = repeat_for(share / 2, || {
        let mut evaluated = 0;
        for method in [OptMethod::Anneal, OptMethod::Genetic] {
            let config = OptConfig {
                method,
                budget: gen::DSE_BUDGET,
                seed,
                ..OptConfig::default()
            };
            let outcome = opt::optimize(
                &estimator,
                &SweepEngine::serial(),
                spec,
                Shard::FULL,
                &SweepContext::new(),
                None,
                &config,
                |_| Ok(()),
            )
            .expect("replayed spec optimizes");
            evaluated += outcome.evaluated as u64;
        }
        evaluated
    });
    log.close(span, evaluated);
    metrics.push(Metric::new(
        "opt.evals_per_s_serial",
        evaluated as f64 / elapsed.as_secs_f64(),
        "1/s",
    ));
    let objectives = ObjectiveSet::default();
    let candidates: Vec<FrontierPoint> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let values = objectives
                .score(&estimator, &p.system, &p.report)
                .expect("default objectives score");
            FrontierPoint::new(i, p.label.clone(), &objectives, &values)
        })
        .collect();
    let mut inserting = Duration::ZERO;
    let mut inserts = 0u64;
    let start = Instant::now();
    while inserts == 0 || start.elapsed() < share / 4 {
        let batch = candidates.clone();
        let began = Instant::now();
        let mut frontier = ParetoFrontier::new();
        for candidate in batch {
            frontier.insert(candidate);
        }
        black_box(frontier.len());
        inserting += began.elapsed();
        inserts += candidates.len() as u64;
    }
    log.record("layer:frontier_insert", Some(root), inserting, inserts);
    metrics.push(Metric::new(
        "opt.frontier_insert_us",
        us_per(inserting, inserts),
        "us",
    ));

    log.close(root, 1);
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload_spec, Workload};

    /// The stage replays must account for all but 15% of the full estimate
    /// on every workload's design mix.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "a timing check: run with `cargo test --release`"
    )]
    fn stage_costs_add_up_to_the_estimate() {
        let estimator = EcoChip::default();
        for workload in [
            Workload::SweepStream,
            Workload::DseOptimize,
            Workload::EstimateMix,
        ] {
            let prepared = Prepared::new(workload, 1, 1).unwrap();
            let (_, spec) = workload_spec(&prepared).unwrap();
            let points = design_mix(&estimator, &spec).unwrap();
            // Tests running alongside only add to the unattributed time,
            // so the best of three measurements is the one checked.
            let share = (0..3)
                .map(|_| {
                    let mut log = SpanLog::new();
                    let root = log.open("test", None);
                    let metrics = estimator_stages(
                        &estimator,
                        &points,
                        Duration::from_millis(600),
                        &mut log,
                        root,
                    )
                    .unwrap();
                    metrics
                        .iter()
                        .find(|m| m.name == "estimator.unattributed_share")
                        .unwrap()
                        .value
                })
                .fold(f64::INFINITY, f64::min);
            assert!(
                share <= 0.15,
                "{}: unattributed share {share}",
                workload.name()
            );
        }
    }
}
