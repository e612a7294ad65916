//! Criterion benchmarks for the sweep engine itself: hand-rolled serial
//! evaluation vs the engine's serial (memoized) path vs the parallel path,
//! plus the streaming pipeline against the materialize-then-collect path.
//!
//! The workload is a packaging × lifetime cartesian sweep of the GA102
//! 3-chiplet test case — the lifetime axis never perturbs the floorplan or
//! manufacturing stages, so the memoized paths skip most of that work while
//! producing bit-for-bit identical reports.

use criterion::{criterion_group, criterion_main, Criterion};

use ecochip_core::disaggregation::NodeTuple;
use ecochip_core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSpec};
use ecochip_core::EcoChip;
use ecochip_packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use ecochip_techdb::{TechDb, TechNode};
use ecochip_testcases::ga102;

fn spec() -> SweepSpec {
    let db = TechDb::default();
    let base = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )
    .unwrap();
    SweepSpec::new(base)
        .axis(SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]))
        .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
}

fn bench_sweep_paths(c: &mut Criterion) {
    let estimator = EcoChip::default();
    let spec = spec();
    let mut group = c.benchmark_group("sweep_engine");
    group.sample_size(10);

    // Reference: the pre-SweepEngine shape — a serial loop of memo-free
    // estimates over the same cases.
    group.bench_function("serial_loop_no_memo", |b| {
        b.iter(|| {
            let cases = spec.cases().unwrap();
            cases
                .iter()
                .map(|case| estimator.estimate(&case.system).unwrap())
                .collect::<Vec<_>>()
        })
    });

    group.bench_function("engine_serial_memoized", |b| {
        b.iter(|| SweepEngine::serial().run(&estimator, &spec).unwrap())
    });

    group.bench_function("engine_parallel_memoized", |b| {
        b.iter(|| SweepEngine::new().run(&estimator, &spec).unwrap())
    });

    group.finish();
}

fn bench_memoization_effect(c: &mut Criterion) {
    let estimator = EcoChip::default();
    let spec = spec();
    let mut group = c.benchmark_group("sweep_memoization");
    group.sample_size(10);

    // Identical serial evaluation with and without the stage memo, to isolate
    // the caching win from the threading win.
    group.bench_function("cold_context_per_point", |b| {
        b.iter(|| {
            let cases = spec.cases().unwrap();
            cases
                .iter()
                .map(|case| {
                    estimator
                        .estimate_with(&case.system, &SweepContext::disabled())
                        .unwrap()
                })
                .collect::<Vec<_>>()
        })
    });

    group.bench_function("shared_context", |b| {
        b.iter(|| {
            let context = SweepContext::new();
            let cases = spec.cases().unwrap();
            let reports = cases
                .iter()
                .map(|case| estimator.estimate_with(&case.system, &context).unwrap())
                .collect::<Vec<_>>();
            // The lifetime axis shares the packaging point's stages: the
            // memo must have absorbed most floorplan calls.
            let stats = context.stats();
            assert!(stats.floorplan_hits > stats.floorplan_misses);
            reports
        })
    });

    group.finish();
}

fn bench_streaming_vs_materialized(c: &mut Criterion) {
    let estimator = EcoChip::default();
    let spec = spec();
    let mut group = c.benchmark_group("sweep_streaming");
    group.sample_size(10);

    // Materialized: collect every point into a Vec (the run() path).
    group.bench_function("materialized_collect", |b| {
        b.iter(|| SweepEngine::new().run(&estimator, &spec).unwrap())
    });

    // Streaming: fold points through a sink without retaining them — the
    // shape a million-point sweep must use; throughput should match the
    // materialized path since both share the same work-queue pipeline.
    group.bench_function("streaming_fold", |b| {
        b.iter(|| {
            let mut total_kg = 0.0f64;
            let mut sink = |point: SweepPoint| {
                total_kg += point.report.total().kg();
                Ok(())
            };
            let emitted = SweepEngine::new()
                .stream(
                    &estimator,
                    &spec,
                    Shard::FULL,
                    &SweepContext::new(),
                    None,
                    &mut sink,
                )
                .unwrap();
            assert_eq!(emitted, spec.len());
            total_kg
        })
    });

    // Sharded streaming: both halves of the index space, evaluated
    // back-to-back over one warm context (the cross-process distribution
    // shape, minus the second process).
    group.bench_function("streaming_two_shards_warm_memo", |b| {
        b.iter(|| {
            let context = SweepContext::new();
            let mut count = 0usize;
            for index in 0..2 {
                let shard = Shard::new(index, 2).unwrap();
                let mut sink = |_point: SweepPoint| Ok(());
                count += SweepEngine::new()
                    .stream(&estimator, &spec, shard, &context, None, &mut sink)
                    .unwrap();
            }
            assert_eq!(count, spec.len());
            count
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_paths,
    bench_memoization_effect,
    bench_streaming_vs_materialized
);
criterion_main!(benches);
