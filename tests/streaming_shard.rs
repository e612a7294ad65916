//! Streaming, sharding and memo-reuse guarantees of the sweep engine.
//!
//! The engine promises that (a) streaming emission order matches
//! [`SweepEngine::run`]'s deterministic order bit-for-bit, (b) the union of
//! shards `0/N..N-1/N` — concatenated in shard order — reproduces the
//! unsharded sweep exactly, (c) a memo warmed by one run is *hit* by a
//! second run without changing a single bit of any report, and
//! (d) oversized cartesian products surface a typed error instead of
//! overflowing. These tests pin all four down for every built-in test case
//! and for randomized cartesian specs.

use proptest::prelude::*;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::core::{EcoChip, EcoChipError, System};
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use eco_chip::techdb::{EnergySource, TechDb, TechNode};
use eco_chip::testcases::{a15, arvr, emr, ga102};

/// Every built-in test-case system of the CLI.
fn builtin_systems() -> Vec<System> {
    let db = TechDb::default();
    vec![
        ga102::monolithic_system(&db).unwrap(),
        ga102::three_chiplet_system(
            &db,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
        )
        .unwrap(),
        a15::monolithic_system(&db).unwrap(),
        a15::three_chiplet_system(&db, a15::default_chiplet_nodes()).unwrap(),
        emr::monolithic_system(&db).unwrap(),
        emr::two_chiplet_system(&db).unwrap(),
        arvr::system(&db, &arvr::ArVrConfig::new(arvr::Series::OneK, 2)).unwrap(),
        arvr::system(&db, &arvr::ArVrConfig::new(arvr::Series::TwoK, 4)).unwrap(),
    ]
}

fn all_packagings() -> Vec<PackagingArchitecture> {
    vec![
        PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
        PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
        PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
        PackagingArchitecture::ThreeD(ThreeDConfig::default()),
    ]
}

fn spec_for(system: &System) -> SweepSpec {
    SweepSpec::new(system.clone())
        .axis(SweepAxis::Packaging(all_packagings()))
        .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]))
}

/// Assert two point lists are identical down to the last carbon bit.
fn assert_bit_for_bit(reference: &[SweepPoint], candidate: &[SweepPoint]) {
    assert_eq!(reference.len(), candidate.len());
    for (r, c) in reference.iter().zip(candidate) {
        assert_eq!(r.label, c.label);
        assert_eq!(r.system, c.system);
        for ((name, rc), (_, cc)) in r.report.breakdown().iter().zip(c.report.breakdown().iter()) {
            assert_eq!(
                rc.kg().to_bits(),
                cc.kg().to_bits(),
                "{name} differs for {}",
                r.label
            );
        }
        assert_eq!(r.report, c.report);
    }
}

#[test]
fn streaming_emission_order_matches_run_on_every_builtin_testcase() {
    let estimator = EcoChip::default();
    for system in builtin_systems() {
        let spec = spec_for(&system);
        let collected = SweepEngine::with_jobs(8).run(&estimator, &spec).unwrap();
        assert_eq!(collected.len(), 15, "{}", system.name);
        let mut streamed = Vec::new();
        let emitted = SweepEngine::with_jobs(8)
            .stream(
                &estimator,
                &spec,
                Shard::FULL,
                &SweepContext::new(),
                None,
                &mut |point| {
                    streamed.push(point);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(emitted, collected.len(), "{}", system.name);
        assert_bit_for_bit(&collected, &streamed);
    }
}

#[test]
fn shard_union_reproduces_the_unsharded_sweep_on_every_builtin_testcase() {
    let estimator = EcoChip::default();
    for system in builtin_systems() {
        let spec = spec_for(&system);
        let full = SweepEngine::with_jobs(4).run(&estimator, &spec).unwrap();
        for of in [2usize, 3, 4] {
            let mut merged = Vec::new();
            for index in 0..of {
                let shard = Shard::new(index, of).unwrap();
                SweepEngine::with_jobs(2)
                    .stream(
                        &estimator,
                        &spec,
                        shard,
                        &SweepContext::new(),
                        None,
                        &mut |point| {
                            merged.push(point);
                            Ok(())
                        },
                    )
                    .unwrap();
            }
            assert_bit_for_bit(&full, &merged);
        }
    }
}

#[test]
fn a_warm_memo_is_hit_by_a_second_run() {
    let estimator = EcoChip::default();
    let system = builtin_systems().remove(1);
    let spec = spec_for(&system);

    // The first (cold) run fills the memo.
    let warm = SweepContext::new();
    SweepEngine::with_jobs(4)
        .run_streaming_with(
            &estimator,
            &spec,
            Shard::FULL,
            &warm,
            &mut |_: SweepPoint| Ok(()),
        )
        .unwrap();
    let filled = warm.stats();
    assert!(filled.floorplan_misses > 0);

    // A second run over the warm memo adds no stage misses, and every
    // report is identical to a cold run bit-for-bit.
    let mut cold_points = Vec::new();
    SweepEngine::with_jobs(4)
        .run_streaming_with(
            &estimator,
            &spec,
            Shard::FULL,
            &SweepContext::new(),
            &mut |point: SweepPoint| {
                cold_points.push(point);
                Ok(())
            },
        )
        .unwrap();
    let mut warm_points = Vec::new();
    SweepEngine::with_jobs(4)
        .run_streaming_with(
            &estimator,
            &spec,
            Shard::FULL,
            &warm,
            &mut |point: SweepPoint| {
                warm_points.push(point);
                Ok(())
            },
        )
        .unwrap();
    let stats = warm.stats();
    assert_eq!(stats.floorplan_misses, filled.floorplan_misses, "{stats:?}");
    assert_eq!(
        stats.manufacturing_misses, filled.manufacturing_misses,
        "{stats:?}"
    );
    assert!(stats.floorplan_hits > filled.floorplan_hits, "{stats:?}");
    assert_bit_for_bit(&cold_points, &warm_points);
}

/// A long-lived service estimates batch after batch against one memo.
#[test]
fn service_batches_share_one_warm_context() {
    let estimator = EcoChip::default();
    let context = SweepContext::new();
    let systems = builtin_systems();
    // Estimate the same systems twice: the second pass is all hits.
    for system in &systems {
        estimator.estimate_with(system, &context).unwrap();
    }
    let misses_after_first = context.stats().floorplan_misses;
    let mut second = Vec::new();
    for system in &systems {
        second.push(estimator.estimate_with(system, &context).unwrap());
    }
    assert_eq!(context.stats().floorplan_misses, misses_after_first);
    // And every warm report matches a cold estimator bit-for-bit.
    let cold = EcoChip::default();
    for (system, warm_report) in systems.iter().zip(&second) {
        let cold_report = cold.estimate(system).unwrap();
        assert_eq!(&cold_report, warm_report, "{}", system.name);
        assert_eq!(
            cold_report.total().kg().to_bits(),
            warm_report.total().kg().to_bits()
        );
    }
}

#[test]
fn oversized_sweeps_error_instead_of_overflowing() {
    let estimator = EcoChip::default();
    let system = builtin_systems().remove(0);
    let huge = SweepAxis::lifetimes_years(&vec![1.0; 1 << 16]);
    let mut spec = SweepSpec::new(system);
    for _ in 0..5 {
        spec = spec.axis(huge.clone());
    }
    assert!(matches!(
        spec.try_len(),
        Err(EcoChipError::SweepTooLarge(_))
    ));
    assert!(matches!(
        SweepEngine::new().run(&estimator, &spec),
        Err(EcoChipError::SweepTooLarge(_))
    ));
    let mut sink = |_point: SweepPoint| Ok(());
    assert!(matches!(
        SweepEngine::new().stream(
            &estimator,
            &spec,
            Shard::FULL,
            &SweepContext::new(),
            None,
            &mut sink
        ),
        Err(EcoChipError::SweepTooLarge(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cartesian specs: for any axis combination, worker count and
    /// shard count, the concatenation of all shards' streamed outputs equals
    /// the unsharded run, and streaming equals collecting.
    #[test]
    fn shard_union_equals_unsharded_sweep(
        n_packaging in 1usize..=4,
        n_lifetimes in 1usize..=4,
        n_sources in 1usize..=3,
        jobs in 1usize..=8,
        of in 1usize..=6,
    ) {
        let db = TechDb::default();
        let estimator = EcoChip::default();
        let base = ga102::three_chiplet_system(
            &db,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
        )
        .unwrap();

        let lifetimes = [1.0, 2.0, 3.0, 5.0];
        let sources = [EnergySource::Coal, EnergySource::WorldGrid, EnergySource::Wind];
        let spec = SweepSpec::new(base)
            .axis(SweepAxis::Packaging(all_packagings()[..n_packaging].to_vec()))
            .axis(SweepAxis::lifetimes_years(&lifetimes[..n_lifetimes]))
            .axis(SweepAxis::FabEnergySources(sources[..n_sources].to_vec()));
        prop_assert_eq!(spec.try_len().unwrap(), n_packaging * n_lifetimes * n_sources);

        let engine = SweepEngine::with_jobs(jobs);
        let full = engine.run(&estimator, &spec).unwrap();

        let mut merged = Vec::new();
        for index in 0..of {
            let shard = Shard::new(index, of).unwrap();
            let before = merged.len();
            let emitted = engine
                .run_streaming_with(
                    &estimator,
                    &spec,
                    shard,
                    &SweepContext::new(),
                    &mut |point: SweepPoint| {
                        merged.push(point);
                        Ok(())
                    },
                )
                .unwrap();
            prop_assert_eq!(emitted, merged.len() - before);
            prop_assert_eq!(emitted, shard.range(full.len()).len());
        }
        prop_assert_eq!(&merged, &full);
        for (m, f) in merged.iter().zip(&full) {
            prop_assert_eq!(
                m.report.total().kg().to_bits(),
                f.report.total().kg().to_bits()
            );
        }
    }
}
