//! Parallel-vs-serial parity of the sweep engine.
//!
//! The engine promises that (a) the parallel path returns exactly what the
//! serial path returns — same order, bit-for-bit identical carbon numbers —
//! and (b) memoized evaluation matches direct, memo-free
//! [`EcoChip::estimate`] calls bit-for-bit. These tests pin both guarantees
//! down for every built-in test case and for randomized cartesian specs.

use proptest::prelude::*;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::core::{EcoChip, System};
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

/// Assert two point lists are identical down to the last carbon bit.
fn assert_bit_for_bit(serial: &[SweepPoint], parallel: &[SweepPoint]) {
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.system, p.system);
        for ((name, sc), (_, pc)) in s.report.breakdown().iter().zip(p.report.breakdown().iter()) {
            assert_eq!(
                sc.kg().to_bits(),
                pc.kg().to_bits(),
                "{name} differs for {}",
                s.label
            );
        }
        assert_eq!(s.report, p.report);
    }
}

#[test]
fn parallel_engine_matches_serial_on_every_builtin_testcase() {
    let estimator = EcoChip::default();
    for system in builtin_systems() {
        let spec = SweepSpec::new(system.clone())
            .axis(SweepAxis::Packaging(all_packagings()))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
        let serial = SweepEngine::serial().run(&estimator, &spec).unwrap();
        let parallel = SweepEngine::with_jobs(8).run(&estimator, &spec).unwrap();
        assert_eq!(serial.len(), 15, "{}", system.name);
        assert_bit_for_bit(&serial, &parallel);
    }
}

#[test]
fn memoized_reports_match_direct_memo_free_estimation() {
    let estimator = EcoChip::default();
    for system in builtin_systems() {
        let spec = SweepSpec::new(system.clone())
            .axis(SweepAxis::Packaging(all_packagings()))
            .axis(SweepAxis::lifetimes_years(&[1.0, 3.0]));
        let context = SweepContext::new();
        let mut points = Vec::new();
        SweepEngine::with_jobs(4)
            .stream(
                &estimator,
                &spec,
                Shard::FULL,
                &context,
                None,
                &mut |point| {
                    points.push(point);
                    Ok(())
                },
            )
            .unwrap();
        // The memo was actually exercised: the lifetime axis never changes
        // the outline set, so at most one floorplan per packaging point.
        let stats = context.stats();
        assert!(
            stats.floorplan_hits >= points.len() / 2,
            "memo unused: {stats:?}"
        );
        // …and every memoized report equals a cold estimate bit-for-bit.
        for point in &points {
            let direct = estimator.estimate(&point.system).unwrap();
            assert_eq!(direct, point.report, "memoized {} diverges", point.label);
            assert_eq!(
                direct.total().kg().to_bits(),
                point.report.total().kg().to_bits()
            );
        }
    }
}

#[test]
fn dse_wrappers_agree_with_hand_rolled_serial_loops() {
    // The engine's node-tuple and fab-source studies must still produce
    // exactly what the original per-point loops produced.
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let blocks = ga102::soc_blocks(&db).unwrap();
    let base = ga102::three_chiplet_system(&db, NodeTuple::uniform(TechNode::N7)).unwrap();
    let tuples = ga102::fig7_node_tuples();

    let spec = SweepSpec::new(base.clone()).axis(SweepAxis::NodeTuples {
        blocks: blocks.clone(),
        tuples: tuples.clone(),
    });
    let points = SweepEngine::new().run(&estimator, &spec).unwrap();
    assert_eq!(points.len(), tuples.len());
    for (tuple, point) in tuples.iter().zip(&points) {
        let mut expected = base.clone();
        expected.chiplets = eco_chip::core::disaggregation::three_chiplets(&blocks, *tuple);
        expected.name = format!("{} {}", blocks.name, tuple.label());
        let report = estimator.estimate(&expected).unwrap();
        assert_eq!(point.label, tuple.label());
        assert_eq!(point.system, expected);
        assert_eq!(
            point.report.total().kg().to_bits(),
            report.total().kg().to_bits()
        );
    }

    let sources = vec![EnergySource::Coal, EnergySource::Hydro];
    let spec = SweepSpec::new(base).axis(SweepAxis::FabEnergySources(sources));
    let energy_points = SweepEngine::new().run(&estimator, &spec).unwrap();
    assert_eq!(energy_points.len(), 2);
    assert!(
        energy_points[1].report.manufacturing().kg() < energy_points[0].report.manufacturing().kg()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random cartesian specs: any axis combination, any worker count, the
    /// parallel run equals the serial run and covers the full product.
    #[test]
    fn random_cartesian_sweeps_are_deterministic(
        n_packaging in 1usize..=5,
        n_lifetimes in 1usize..=4,
        n_ratios in 1usize..=3,
        n_sources in 1usize..=3,
        jobs in 2usize..=9,
        tuples_axis in 0usize..=1,
    ) {
        let use_tuples = tuples_axis == 1;
        let db = TechDb::default();
        let estimator = EcoChip::default();
        let blocks = ga102::soc_blocks(&db).unwrap();
        let base = ga102::three_chiplet_system(
            &db,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
        )
        .unwrap();

        let lifetimes = [1.0, 2.0, 3.0, 5.0];
        let ratios = [1.0, 4.0, 16.0];
        let sources = [EnergySource::Coal, EnergySource::WorldGrid, EnergySource::Wind];
        let mut spec = SweepSpec::new(base);
        if use_tuples {
            spec = spec.axis(SweepAxis::NodeTuples {
                blocks,
                tuples: vec![
                    NodeTuple::uniform(TechNode::N7),
                    NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
                ],
            });
        }
        spec = spec
            .axis(SweepAxis::Packaging(all_packagings()[..n_packaging].to_vec()))
            .axis(SweepAxis::lifetimes_years(&lifetimes[..n_lifetimes]))
            .axis(SweepAxis::reuse_ratios(100_000, &ratios[..n_ratios]))
            .axis(SweepAxis::FabEnergySources(sources[..n_sources].to_vec()));

        let expected_len = if use_tuples { 2 } else { 1 }
            * n_packaging * n_lifetimes * n_ratios * n_sources;
        prop_assert_eq!(spec.len(), expected_len);

        let serial = SweepEngine::serial().run(&estimator, &spec).unwrap();
        let parallel = SweepEngine::with_jobs(jobs).run(&estimator, &spec).unwrap();
        prop_assert_eq!(serial.len(), expected_len);
        prop_assert_eq!(&serial, &parallel);
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(
                s.report.total().kg().to_bits(),
                p.report.total().kg().to_bits()
            );
            prop_assert_eq!(
                s.report.embodied().kg().to_bits(),
                p.report.embodied().kg().to_bits()
            );
        }
    }
}
