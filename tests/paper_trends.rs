//! End-to-end integration tests asserting the qualitative results of the
//! ECO-CHIP paper across the whole workspace.

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{SweepAxis, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::testcases::{a15, arvr, emr, ga102};
use eco_chip::EcoChip;

fn db() -> TechDb {
    TechDb::default()
}

fn estimator() -> EcoChip {
    EcoChip::default()
}

/// Section V-A / Fig. 7: the 3-chiplet GA102 with technology mix-and-match
/// lowers embodied CFP versus the monolithic die, in the paper's 10–70% band,
/// and the (7, 14, 10)-style tuples beat the all-advanced tuple.
#[test]
fn ga102_disaggregation_saves_embodied_carbon() {
    let db = db();
    let est = estimator();
    let mono = est
        .estimate(&ga102::monolithic_system(&db).unwrap())
        .unwrap();
    let mixed = est
        .estimate(
            &ga102::three_chiplet_system(
                &db,
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            )
            .unwrap(),
        )
        .unwrap();
    assert!(
        mixed.hi_overhead().kg() > 0.0,
        "HI overheads must be counted"
    );
    let saving = 1.0 - mixed.embodied().kg() / mono.embodied().kg();
    assert!(
        (0.10..=0.70).contains(&saving),
        "embodied saving {saving} outside the paper's band"
    );

    let base = ga102::three_chiplet_system(&db, NodeTuple::uniform(TechNode::N7)).unwrap();
    let spec = SweepSpec::new(base).axis(SweepAxis::NodeTuples {
        blocks: ga102::soc_blocks(&db).unwrap(),
        tuples: ga102::fig7_node_tuples(),
    });
    let points = SweepEngine::new().run(&est, &spec).unwrap();
    let all7 = points
        .iter()
        .find(|p| p.label == "(7, 7, 7)")
        .unwrap()
        .report
        .embodied()
        .kg();
    let mixed_tuple = points
        .iter()
        .find(|p| p.label == "(7, 14, 10)")
        .unwrap()
        .report
        .embodied()
        .kg();
    assert!(
        mixed_tuple < all7,
        "mix-and-match must beat the uniform 7nm split"
    );
    // All-mature configurations blow up the logic area and lose.
    let all14 = points
        .iter()
        .find(|p| p.label == "(14, 14, 14)")
        .unwrap()
        .report
        .embodied()
        .kg();
    assert!(all14 > all7);
}

/// Fig. 7(c): ACT underestimates the embodied CFP of HI systems because it
/// ignores design carbon, real package assembly and wafer wastage.
#[test]
fn act_baseline_underestimates_hi_systems() {
    let db = db();
    let est = estimator();
    for system in [
        ga102::three_chiplet_system(
            &db,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
        )
        .unwrap(),
        a15::three_chiplet_system(&db, a15::default_chiplet_nodes()).unwrap(),
        emr::two_chiplet_system(&db).unwrap(),
    ] {
        let eco = est.estimate(&system).unwrap();
        let act = est.act_embodied(&system).unwrap();
        assert!(
            act.total().kg() < eco.embodied().kg(),
            "{}: ACT {} must be below ECO-CHIP {}",
            system.name,
            act.total(),
            eco.embodied()
        );
    }
}

/// Fig. 7(d) vs Fig. 8(b): the GPU is operational-dominated while the mobile
/// SoC is embodied-dominated (the paper's ~80/20 split for the A15).
#[test]
fn operational_embodied_split_depends_on_device_class() {
    let db = db();
    let est = estimator();
    let gpu = est
        .estimate(&ga102::monolithic_system(&db).unwrap())
        .unwrap();
    let phone = est.estimate(&a15::monolithic_system(&db).unwrap()).unwrap();
    assert!(
        gpu.embodied_fraction() < 0.5,
        "GPU embodied fraction {} should be a minority",
        gpu.embodied_fraction()
    );
    assert!(
        phone.embodied_fraction() > 0.6,
        "mobile SoC embodied fraction {} should dominate",
        phone.embodied_fraction()
    );
}

/// Fig. 8(a): the native 2-chiplet EMR beats a hypothetical monolith of the
/// same silicon.
#[test]
fn emr_two_chiplet_beats_monolith() {
    let db = db();
    let est = estimator();
    let mono = est.estimate(&emr::monolithic_system(&db).unwrap()).unwrap();
    let two = est
        .estimate(&emr::two_chiplet_system(&db).unwrap())
        .unwrap();
    assert!(two.embodied().kg() < mono.embodied().kg());
    assert!(two.total().kg() < mono.total().kg());
}

/// Fig. 9: packaging architectures are ordered — interposers carry more CFP
/// overhead than RDL fanout and EMIB; overheads grow with chiplet count.
#[test]
fn packaging_architecture_ordering_and_scaling() {
    let db = db();
    let est = estimator();
    let base = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )
    .unwrap();
    let spec = SweepSpec::new(base).axis(SweepAxis::Packaging(vec![
        PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
        PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
        PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
        PackagingArchitecture::ThreeD(ThreeDConfig::default()),
    ]));
    let points = SweepEngine::new().run(&est, &spec).unwrap();
    let chi = |label: &str| {
        points
            .iter()
            .find(|p| p.label == label)
            .unwrap()
            .report
            .hi_overhead()
            .kg()
    };
    assert!(chi("active-interposer") > chi("passive-interposer"));
    assert!(chi("passive-interposer") > chi("RDL"));
    assert!(chi("active-interposer") > chi("EMIB"));

    // Fig. 10: HI overheads grow as the digital block is split further, while
    // chiplet manufacturing CFP falls. The per-step CHI trend tolerates small
    // dips caused by floorplan whitespace discretisation; the end-to-end trend
    // must still be strictly increasing.
    let mut prev_chi = 0.0;
    let mut prev_mfg = f64::INFINITY;
    let mut first_chi = None;
    let mut last_chi = 0.0;
    for nc in [2usize, 4, 6, 8] {
        let system = ga102::split_logic_system(
            &db,
            nc,
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
        )
        .unwrap();
        let report = est.estimate(&system).unwrap();
        assert!(report.hi_overhead().kg() >= prev_chi * 0.9);
        assert!(report.manufacturing().kg() <= prev_mfg);
        prev_chi = report.hi_overhead().kg();
        prev_mfg = report.manufacturing().kg();
        first_chi.get_or_insert(prev_chi);
        last_chi = prev_chi;
    }
    assert!(
        last_chi > first_chi.unwrap(),
        "CHI must grow from 2 to 8 chiplets"
    );
}

/// Fig. 12: reuse amortises embodied carbon; lifetime grows the operational
/// share; the embodied-dominated A15 benefits more from reuse than the GPU.
#[test]
fn reuse_and_lifetime_tradeoffs() {
    let db = db();
    let est = estimator();
    let ratios = [1.0, 8.0];
    let lifetimes = [2.0, 5.0];

    let ga = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )
    .unwrap();
    let a15_sys = a15::three_chiplet_system(&db, a15::default_chiplet_nodes()).unwrap();

    // Row-major over ratio × lifetime: the lifetime axis varies fastest.
    let grid = |system: &eco_chip::System| {
        let spec = SweepSpec::new(system.clone())
            .axis(SweepAxis::reuse_ratios(
                system.volumes.system_volume,
                &ratios,
            ))
            .axis(SweepAxis::lifetimes_years(&lifetimes));
        SweepEngine::new().run(&est, &spec).unwrap()
    };
    let ga_points = grid(&ga);
    let a15_points = grid(&a15_sys);

    let total = |points: &[SweepPoint], ratio: f64, years: f64| {
        let r = ratios.iter().position(|&x| x == ratio).unwrap();
        let l = lifetimes.iter().position(|&x| x == years).unwrap();
        points[r * lifetimes.len() + l].report.total().kg()
    };

    // Reuse lowers total CFP for both, at fixed lifetime.
    assert!(total(&ga_points, 8.0, 2.0) < total(&ga_points, 1.0, 2.0));
    assert!(total(&a15_points, 8.0, 2.0) < total(&a15_points, 1.0, 2.0));
    // Lifetime raises total CFP.
    assert!(total(&ga_points, 1.0, 5.0) > total(&ga_points, 1.0, 2.0));
    // Relative benefit of reuse is larger for the embodied-dominated A15.
    let ga_benefit = 1.0 - total(&ga_points, 8.0, 2.0) / total(&ga_points, 1.0, 2.0);
    let a15_benefit = 1.0 - total(&a15_points, 8.0, 2.0) / total(&a15_points, 1.0, 2.0);
    assert!(
        a15_benefit > ga_benefit,
        "A15 reuse benefit {a15_benefit} should exceed the GPU's {ga_benefit}"
    );
}

/// Fig. 13: for the 3D AR/VR accelerator, adding SRAM tiers improves latency
/// and power but increases embodied and total CFP.
#[test]
fn arvr_stacking_tradeoff() {
    let db = db();
    let est = estimator();
    for series in [arvr::Series::OneK, arvr::Series::TwoK] {
        let mut prev_total = 0.0;
        let mut prev_latency = f64::INFINITY;
        for tiers in 1..=4 {
            let cfg = arvr::ArVrConfig::new(series, tiers);
            let report = est.estimate(&arvr::system(&db, &cfg).unwrap()).unwrap();
            let perf = arvr::performance(&cfg);
            assert!(report.total().kg() > prev_total, "{cfg}: total must grow");
            assert!(
                perf.latency_ms < prev_latency,
                "{cfg}: latency must improve"
            );
            prev_total = report.total().kg();
            prev_latency = perf.latency_ms;
        }
    }
}

/// Section VI: the carbon-aware node-assignment search, run as a
/// single-objective Pareto enumeration, finds a mix-and-match configuration
/// at least as good as every tuple of the manual Fig. 7 sweep.
#[test]
fn optimizer_matches_or_beats_the_manual_sweep() {
    use eco_chip::core::opt::{self, OptConfig, OptMethod};
    use eco_chip::core::sweep::{Shard, SweepContext};

    let db = db();
    let est = estimator();
    let base = ga102::three_chiplet_system(&db, NodeTuple::uniform(TechNode::N7)).unwrap();
    let candidates = [TechNode::N7, TechNode::N10, TechNode::N14];
    let mut spec = SweepSpec::new(base.clone());
    for index in 0..base.chiplets.len() {
        spec = spec.axis(SweepAxis::ChipletNode {
            index,
            nodes: candidates.to_vec(),
        });
    }
    let config = OptConfig {
        method: OptMethod::Pareto,
        objectives: "embodied".parse().unwrap(),
        ..OptConfig::default()
    };
    let outcome = opt::optimize(
        &est,
        &SweepEngine::new(),
        &spec,
        Shard::FULL,
        &SweepContext::new(),
        None,
        &config,
        |_| Ok(()),
    )
    .unwrap();
    assert_eq!(outcome.evaluated, 27);

    // On one objective the frontier holds the tied minima in case order,
    // so its first point is the earliest best configuration.
    let winner = &outcome.frontier[0];
    let nodes = spec.case_at(winner.index).unwrap().system.chiplet_nodes();
    assert_eq!(nodes, [TechNode::N7, TechNode::N14, TechNode::N14]);

    let manual = SweepSpec::new(base).axis(SweepAxis::NodeTuples {
        blocks: ga102::soc_blocks(&db).unwrap(),
        tuples: ga102::fig7_node_tuples(),
    });
    let manual = SweepEngine::new().run(&est, &manual).unwrap();
    let best_manual = manual
        .iter()
        .map(|p| p.report.embodied().kg())
        .fold(f64::INFINITY, f64::min);
    assert!(winner.objectives[0].value <= best_manual + 1e-6);
}

/// The CSV export of a report is well-formed and consistent with the report's
/// own totals (exercised end-to-end on a real test case).
#[test]
fn report_csv_export_is_consistent() {
    let db = db();
    let est = estimator();
    let report = est
        .estimate(
            &ga102::three_chiplet_system(
                &db,
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            )
            .unwrap(),
        )
        .unwrap();
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + report.chiplets.len() + 6);
    let total_line = lines
        .iter()
        .find(|l| l.starts_with("summary,total"))
        .unwrap();
    let total_value: f64 = total_line.split(',').nth(6).unwrap().parse().unwrap();
    assert!((total_value - report.total().kg()).abs() < 1e-3);
}

/// Validation (Section VII): the A15 embodied/operational split is roughly
/// 80/20 and the absolute CFP is a small double-digit number of kilograms —
/// the order of magnitude consistent with Apple's product report attribution.
#[test]
fn a15_validation_magnitudes() {
    let db = db();
    let est = estimator();
    let report = est.estimate(&a15::monolithic_system(&db).unwrap()).unwrap();
    let frac = report.embodied_fraction();
    assert!((0.6..=0.95).contains(&frac), "embodied fraction {frac}");
    assert!(
        report.total().kg() > 3.0 && report.total().kg() < 60.0,
        "A15 total {} should be of the order of ten(s) of kg",
        report.total()
    );
}
