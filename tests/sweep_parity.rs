//! Parallel-vs-serial parity of the sweep engine.
//!
//! The engine promises that (a) the parallel path returns exactly what the
//! serial path returns — same order, bit-for-bit identical carbon numbers —
//! and (b) memoized evaluation matches direct, memo-free
//! [`EcoChip::estimate`] calls bit-for-bit. These tests pin both guarantees
//! down for every built-in test case and for randomized cartesian specs.

use proptest::prelude::*;
use proptest::TestRng;

use eco_chip::core::disaggregation::{NodeTuple, SocBlocks};
use eco_chip::core::sweep::{
    LineEncoder, Shard, SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSink, SweepSlice,
    SweepSpec,
};
use eco_chip::core::{EcoChip, EcoChipError, EstimatorConfig, System};
use eco_chip::design::VolumeScenario;
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
        // Claims of 2 points align with the lifetime axis, so every claim
        // starts at a packaging step however the 4 workers interleave.
        SweepEngine::with_jobs(4)
            .with_chunk(2)
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
        // The memo is consulted once per packaging step, and only then: a
        // lifetime step re-prices the report before it.
        let stats = context.stats();
        assert_eq!(
            stats.floorplan_hits + stats.floorplan_misses,
            all_packagings().len(),
            "{stats:?}"
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

/// A random spec over the `ga102-3chiplet` system that mixes scalar axes
/// (`Lifetimes`, `Volumes`) with structural ones (`Packaging`,
/// `FabEnergySources`, `ChipletNode`, `NodeTuples`) in random order, one
/// to four points each. `NodeTuples` axes go first, so every retarget sees
/// three chiplets and the spec is valid; one spec in two ends in a run of
/// scalar axes.
fn mixed_spec(rng: &mut TestRng) -> SweepSpec {
    let db = TechDb::default();
    let nodes = [TechNode::N5, TechNode::N7, TechNode::N10, TechNode::N14];
    let node = |rng: &mut TestRng| nodes[rng.next_below(4) as usize];
    let len = |rng: &mut TestRng| 1 + rng.next_below(4) as usize;
    let scalar = |rng: &mut TestRng| {
        if rng.next_below(2) == 0 {
            let years: Vec<f64> = (0..len(rng)).map(|at| 0.5 + 1.5 * at as f64).collect();
            SweepAxis::lifetimes_years(&years)
        } else {
            let volumes = (0..len(rng))
                .map(|_| {
                    let system_volume = [1_000, 100_000, 3_000_000][rng.next_below(3) as usize];
                    VolumeScenario::with_reuse(system_volume, 0.5 + rng.next_below(8) as f64)
                })
                .collect();
            SweepAxis::Volumes(volumes)
        }
    };
    let mut axes = Vec::new();
    for _ in 0..1 + rng.next_below(4) {
        let axis = match rng.next_below(6) {
            0 | 1 => scalar(rng),
            2 => {
                let all = all_packagings();
                SweepAxis::Packaging(
                    (0..len(rng))
                        .map(|_| all[rng.next_below(5) as usize])
                        .collect(),
                )
            }
            3 => SweepAxis::FabEnergySources(
                (0..len(rng))
                    .map(|_| {
                        let sources = [EnergySource::Coal, EnergySource::Wind, EnergySource::Solar];
                        sources[rng.next_below(3) as usize]
                    })
                    .collect(),
            ),
            4 => SweepAxis::ChipletNode {
                index: rng.next_below(3) as usize,
                nodes: (0..len(rng)).map(|_| node(rng)).collect(),
            },
            _ => SweepAxis::NodeTuples {
                blocks: ga102::soc_blocks(&db).unwrap(),
                tuples: (0..len(rng))
                    .map(|_| NodeTuple::new(node(rng), node(rng), node(rng)))
                    .collect(),
            },
        };
        axes.push(axis);
    }
    if rng.next_below(2) == 0 {
        axes.push(scalar(rng));
    }
    axes.sort_by_key(|axis| !matches!(axis, SweepAxis::NodeTuples { .. }));
    let base = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )
    .unwrap();
    axes.into_iter().fold(SweepSpec::new(base), SweepSpec::axis)
}

/// The slices a [`mixed_spec`] is streamed over: the full space, shard
/// 1/3, and a range from a random start that is a scalar step when the
/// last axis is scalar (its last digit is not the first).
fn mixed_slices(spec: &SweepSpec, rng: &mut TestRng) -> [SweepSlice; 3] {
    let total = spec.len();
    let last = spec.axes().last().map_or(1, SweepAxis::len);
    let mut start = rng.next_below(total as u64) as usize;
    if start.is_multiple_of(last) && start + 1 < total {
        start += 1;
    }
    [
        Shard::FULL.into(),
        Shard::new(1, 3).unwrap().into(),
        (start..total).into(),
    ]
}

/// A sink that encodes each point through one [`LineEncoder`], as the
/// NDJSON front ends do, and keeps every line with the derived encoding
/// of its point and whether the engine marked the point re-priced.
#[derive(Default)]
struct EncodedLines {
    encoder: LineEncoder,
    /// `(encoded, derived, marked)` per point.
    lines: Vec<(String, String, bool)>,
    /// The length of every batch, in order.
    batches: Vec<usize>,
}

impl SweepSink for EncodedLines {
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        assert_eq!(points.len(), repriced.len());
        self.batches.push(points.len());
        for (point, &marked) in points.iter().zip(repriced) {
            let line = self
                .encoder
                .encode(point, marked)
                .map_err(|e| EcoChipError::Io(e.to_string()))?;
            let derived = serde_json::to_string(point).unwrap();
            self.lines.push((line.to_owned(), derived, marked));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every line the [`LineEncoder`] emits over a streamed sweep equals
    /// the derived serializer's encoding of its point, byte for byte, and
    /// the engine marks exactly the points of a claim after its first
    /// that change only trailing scalar axes: on 1, 2 and 4 workers, claim
    /// sizes of 1, 3 and 32, and over the full space, a shard and a range
    /// that starts inside a run of scalar steps.
    #[test]
    fn encoded_lines_match_the_derived_serializer(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from_u64(seed);
        let spec = mixed_spec(&mut rng);
        let total = spec.len();
        let slices = mixed_slices(&spec, &mut rng);
        // The span of the trailing scalar axes: a step changes only those
        // axes unless its index is a multiple of it.
        let scalar_span: usize = spec
            .axes()
            .iter()
            .rev()
            .take_while(|axis| axis.is_scalar())
            .map(SweepAxis::len)
            .product();
        for jobs in [1usize, 2, 4] {
            for chunk in [1, 3, 32] {
                let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
                for slice in &slices {
                    let range = slice.range(total).unwrap();
                    let mut sink = EncodedLines::default();
                    engine
                        .stream(
                            &EcoChip::default(),
                            &spec,
                            slice.clone(),
                            &SweepContext::new(),
                            None,
                            &mut sink,
                        )
                        .unwrap();
                    prop_assert_eq!(sink.lines.len(), range.len());
                    for (index, (line, derived, marked)) in range.clone().zip(&sink.lines) {
                        let claimed = (index - range.start).is_multiple_of(chunk);
                        let scalar_step = !index.is_multiple_of(scalar_span);
                        prop_assert!(
                            *marked == (!claimed && scalar_step),
                            "index {index} marked {marked} (jobs {jobs}, chunk {chunk}, {slice:?})"
                        );
                        prop_assert!(
                            line == derived,
                            "index {index} (jobs {jobs}, chunk {chunk}, {slice:?}):\n{line}\n{derived}"
                        );
                    }
                }
            }
        }
    }
}

/// A stream that fails mid-way still encodes every line before the
/// failing case exactly, whatever the worker count and claim size: at 3
/// points a claim the failure falls inside the second claim, whose slots
/// past it still hold the first claim's points, and only the points
/// before the failure are emitted, each as a cold estimate encodes it.
#[test]
fn encoded_lines_before_a_failing_case_match_the_derived_serializer() {
    // One digital chiplet of this budget is larger than the wafer, so the
    // count-1 cases fail in manufacturing; split in 16 they fit.
    let db = TechDb::default();
    let base = ga102::three_chiplet_system(&db, NodeTuple::uniform(TechNode::N7)).unwrap();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::ChipletCounts {
            blocks: SocBlocks::new("huge", 5.0e12, 4.0e9, 1.0e9),
            nodes: NodeTuple::uniform(TechNode::N7),
            counts: vec![16, 1],
        })
        .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0]));
    let cold: Vec<String> = (0..4).map(|index| cold_line(&spec, index)).collect();
    for jobs in [1usize, 2, 4] {
        for chunk in [1, 3, 32] {
            let mut sink = EncodedLines::default();
            let error = SweepEngine::with_jobs(jobs)
                .with_chunk(chunk)
                .stream(
                    &EcoChip::default(),
                    &spec,
                    Shard::FULL,
                    &SweepContext::new(),
                    None,
                    &mut sink,
                )
                .expect_err("the count-1 cases fail");
            assert!(
                error.to_string().contains("does not fit on a 450 mm wafer"),
                "{error}"
            );
            assert_eq!(sink.lines.len(), 4, "jobs {jobs}, chunk {chunk}");
            let marked = sink.lines.iter().filter(|(_, _, marked)| *marked).count();
            // Every step after the first is a lifetime step, marked unless
            // it starts a claim.
            assert_eq!(
                marked,
                4 - 4usize.div_ceil(chunk),
                "jobs {jobs}, chunk {chunk}"
            );
            for ((line, derived, _), cold) in sink.lines.iter().zip(&cold) {
                assert_eq!(line, derived, "jobs {jobs}, chunk {chunk}");
                assert_eq!(line, cold, "jobs {jobs}, chunk {chunk}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every streamed report equals a cold, memo-free estimate of its
    /// point's system, bit for bit, whether the engine estimated the point
    /// in full or re-priced it from the worker's previous point: on 1, 2
    /// and 4 workers, claim sizes of 3 and the default, and over the full
    /// space, a shard and a range that starts inside a run of scalar steps.
    #[test]
    fn repriced_scalar_steps_match_cold_estimates(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from_u64(seed);
        let spec = mixed_spec(&mut rng);
        let total = spec.len();
        let slices = mixed_slices(&spec, &mut rng);
        let cold: Vec<_> = (0..total)
            .map(|index| {
                let case = spec.case_at(index).unwrap();
                let mut config = EstimatorConfig::default();
                if let Some(source) = case.fab_source {
                    config.fab_source = source;
                }
                EcoChip::new(config).estimate(&case.system).unwrap()
            })
            .collect();
        for jobs in [1usize, 2, 4] {
            for chunk in [3, SweepEngine::serial().chunk()] {
                let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
                for slice in &slices {
                    let range = slice.range(total).unwrap();
                    let mut points = Vec::new();
                    engine
                        .stream(
                            &EcoChip::default(),
                            &spec,
                            slice.clone(),
                            &SweepContext::new(),
                            None,
                            &mut |point| {
                                points.push(point);
                                Ok(())
                            },
                        )
                        .unwrap();
                    prop_assert_eq!(points.len(), range.len());
                    for (point, expected) in points.iter().zip(&cold[range]) {
                        let terms = point.report.breakdown();
                        let expected_terms = expected.breakdown();
                        prop_assert_eq!(terms.len(), expected_terms.len());
                        for ((name, got), (_, want)) in terms.iter().zip(expected_terms.iter()) {
                            prop_assert!(
                                got.kg().to_bits() == want.kg().to_bits(),
                                "{name} of {}: {got} != {want} (jobs {jobs}, chunk {chunk}, \
                                 {slice:?})",
                                point.label
                            );
                        }
                        prop_assert_eq!(
                            point.report.total().kg().to_bits(),
                            expected.total().kg().to_bits()
                        );
                        prop_assert_eq!(&point.report, expected);
                    }
                }
            }
        }
    }
}

/// The derived encoding of a cold, memo-free estimate of case `index`.
fn cold_line(spec: &SweepSpec, index: usize) -> String {
    let case = spec.case_at(index).unwrap();
    let report = EcoChip::default().estimate(&case.system).unwrap();
    serde_json::to_string(&SweepPoint {
        label: case.label(),
        system: case.system,
        report,
    })
    .unwrap()
}

/// The engine refills its point slots chunk after chunk. A slot refilled
/// with a system of another chiplet count, or left stale past a shorter
/// tail chunk, must never leak into a line or a batch: every streamed
/// line equals the derived encoding of a cold estimate of its case, and
/// every batch is exactly the points evaluated for it.
#[test]
fn refilled_point_slots_stream_exactly_their_cases() {
    let db = TechDb::default();
    let base = ga102::three_chiplet_system(&db, NodeTuple::uniform(TechNode::N7)).unwrap();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::ChipletCounts {
            blocks: ga102::soc_blocks(&db).unwrap(),
            nodes: NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            counts: (1..=16).collect(),
        })
        .axis(SweepAxis::lifetimes_years(&[1.0, 2.5, 4.0]));
    let total = spec.len();
    assert_eq!(total, 48);
    let cold: Vec<String> = (0..total).map(|index| cold_line(&spec, index)).collect();
    for jobs in [1usize, 2] {
        for chunk in [1usize, 3, 32] {
            // The full space ends in a 16-point tail at 32 points a claim;
            // from index 5 every claim size leaves a shorter tail.
            for range in [0..total, 5..total] {
                let mut sink = EncodedLines::default();
                let emitted = SweepEngine::with_jobs(jobs)
                    .with_chunk(chunk)
                    .stream(
                        &EcoChip::default(),
                        &spec,
                        range.clone(),
                        &SweepContext::new(),
                        None,
                        &mut sink,
                    )
                    .unwrap();
                let at = format!("jobs {jobs}, chunk {chunk}, {range:?}");
                assert_eq!(emitted, range.len(), "{at}");
                let expected: Vec<usize> = range
                    .clone()
                    .step_by(chunk)
                    .map(|start| chunk.min(range.end - start))
                    .collect();
                assert_eq!(sink.batches, expected, "{at}");
                assert_eq!(sink.lines.len(), range.len(), "{at}");
                for (index, (line, _, _)) in range.clone().zip(&sink.lines) {
                    assert!(
                        line == &cold[index],
                        "case {index} ({at}):\n{line}\n{}",
                        cold[index]
                    );
                }
            }
        }
    }
}
