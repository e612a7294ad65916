//! Fig. 9 (HI overheads per packaging architecture), Fig. 10 (GA102 Cmfg and
//! CHI vs chiplet count) and Fig. 11 (packaging parameter sweeps).
//!
//! All three figures are evaluated by the parallel, memoizing
//! [`SweepEngine`]: Fig. 9 is one `Systems × Packaging` cartesian sweep,
//! Fig. 10 a chiplet-count sweep, and Fig. 11's four parameter sweeps share
//! a single [`SweepContext`] so the (packaging-independent) floorplan is
//! planned once across all of them.

use ecochip_core::disaggregation::{split_block, NodeTuple};
use ecochip_core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepSpec};
use ecochip_core::{EcoChip, System};
use ecochip_packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use ecochip_power::UsageProfile;
use ecochip_techdb::{DesignType, Energy, Length, TechDb, TechNode, TimeSpan};
use ecochip_testcases::{a15, ga102};

use crate::{ExperimentResult, Table};

/// The five packaging architectures the paper compares.
fn architectures() -> Vec<(&'static str, PackagingArchitecture)> {
    vec![
        (
            "RDL fanout",
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
        ),
        (
            "EMIB bridge",
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        ),
        (
            "passive interposer",
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
        ),
        (
            "active interposer",
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
        ),
        (
            "3D microbump",
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ),
    ]
}

/// The GA102's 500 mm² (8 nm-class) digital block, split into `nc` 7 nm
/// chiplets and integrated with `packaging`.
fn digital_block_system(
    db: &TechDb,
    nc: usize,
    packaging: PackagingArchitecture,
) -> Result<System, Box<dyn std::error::Error>> {
    let per_mm2 = db
        .node(TechNode::N8)?
        .transistors_for_area(DesignType::Logic, ecochip_techdb::Area::from_mm2(1.0));
    let transistors = ga102::LOGIC_AREA_MM2 * per_mm2;
    let chiplets = split_block("digital", DesignType::Logic, TechNode::N7, transistors, nc)?;
    Ok(System::builder(format!("ga102-digital-{nc}way"))
        .chiplets(chiplets)
        .packaging(packaging)
        .usage(UsageProfile::Measured {
            energy_per_year: Energy::from_kwh(180.0),
        })
        .lifetime(TimeSpan::from_years(2.0))
        .build()?)
}

/// Fig. 9: HI-related CFP overheads (package + inter-die routing) for the
/// five packaging architectures as the 500 mm² digital block is split into
/// 2–8 chiplets.
pub fn fig9() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let mut table = Table::new(
        "Fig. 9: HI CFP overheads (kg CO2e) per packaging architecture and chiplet count",
        &["architecture", "Nc=2", "Nc=4", "Nc=6", "Nc=8"],
    );
    let mut routing = Table::new(
        "Fig. 9 (detail): routing share of the HI overhead (kg CO2e in interposer logic)",
        &["architecture", "Nc=2", "Nc=4", "Nc=6", "Nc=8"],
    );
    let archs = architectures();
    let counts = [2usize, 4, 6, 8];
    let mut variants = Vec::with_capacity(counts.len());
    for nc in counts {
        // The packaging axis below overrides this placeholder architecture.
        let placeholder = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        variants.push((
            format!("Nc={nc}"),
            digital_block_system(&db, nc, placeholder)?,
        ));
    }
    let spec = SweepSpec::new(variants[0].1.clone())
        .axis(SweepAxis::Systems(variants))
        .axis(SweepAxis::Packaging(
            archs.iter().map(|(_, arch)| *arch).collect(),
        ));
    // Points come back in row-major order: chiplet count outer, architecture
    // inner.
    let points = SweepEngine::new().run(&estimator, &spec)?;
    for (ai, (name, _)) in archs.iter().enumerate() {
        let mut chi_cells = vec![(*name).to_owned()];
        let mut routing_cells = vec![(*name).to_owned()];
        for ci in 0..counts.len() {
            let report = &points[ci * archs.len() + ai].report;
            chi_cells.push(format!("{:.2}", report.hi_overhead().kg()));
            routing_cells.push(format!("{:.2}", report.hi.interposer_comm.kg()));
        }
        table.row(chi_cells);
        routing.row(routing_cells);
    }
    Ok(vec![table, routing])
}

/// Fig. 10: GA102 chip manufacturing CFP and HI overheads as the digital
/// block is split into more chiplets (memory and analog chiplets fixed at
/// 14 nm / 10 nm, RDL fanout packaging).
pub fn fig10() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
    let mut table = Table::new(
        "Fig. 10: GA102 Cmfg and CHI vs number of digital chiplets (RDL fanout)",
        &[
            "digital chiplets",
            "total chiplets",
            "Cmfg kg",
            "CHI kg",
            "Cmfg+CHI kg",
        ],
    );
    let counts: Vec<usize> = (1..=6).collect();
    let base = ga102::split_logic_system(
        &db,
        1,
        nodes,
        PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
    )?;
    let spec = SweepSpec::new(base).axis(SweepAxis::ChipletCounts {
        blocks: ga102::soc_blocks(&db)?,
        nodes,
        counts: counts.clone(),
    });
    let points = SweepEngine::new().run(&estimator, &spec)?;
    for (nc, point) in counts.iter().zip(&points) {
        let report = &point.report;
        table.row([
            format!("{nc}"),
            format!("{}", nc + 2),
            format!("{:.1}", report.manufacturing().kg()),
            format!("{:.2}", report.hi_overhead().kg()),
            format!(
                "{:.1}",
                (report.manufacturing() + report.hi_overhead()).kg()
            ),
        ]);
    }
    Ok(vec![table])
}

/// Fig. 11: packaging parameter sweeps on the A15 3-chiplet test case:
/// (a) RDL layer count, (b) EMIB bridge range, (c) active-interposer node,
/// (d) TSV / microbump pitch.
pub fn fig11() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let nodes = a15::default_chiplet_nodes();
    let base = a15::three_chiplet_system(&db, nodes)?;

    // The four parameter sweeps only vary the packaging, so they share one
    // memo: the A15 outline set is floorplanned once for all 18 points.
    let engine = SweepEngine::new();
    let context = SweepContext::new();
    let run_packaging_sweep =
        |configs: Vec<PackagingArchitecture>| -> Result<Vec<_>, Box<dyn std::error::Error>> {
            let spec = SweepSpec::new(base.clone()).axis(SweepAxis::Packaging(configs));
            let mut points = Vec::new();
            engine.stream(
                &estimator,
                &spec,
                Shard::FULL,
                &context,
                None,
                &mut |point| {
                    points.push(point);
                    Ok(())
                },
            )?;
            Ok(points)
        };

    let mut rdl = Table::new(
        "Fig. 11(a): A15 CHI vs RDL layer count",
        &["L_RDL", "CHI kg"],
    );
    let layer_counts = [4u32, 5, 6, 7, 8, 9];
    let points = run_packaging_sweep(
        layer_counts
            .iter()
            .map(|&layers| {
                PackagingArchitecture::RdlFanout(RdlFanoutConfig {
                    layers,
                    tech: TechNode::N65,
                })
            })
            .collect(),
    )?;
    for (layers, point) in layer_counts.iter().zip(&points) {
        rdl.row([
            format!("{layers}"),
            format!("{:.3}", point.report.hi_overhead().kg()),
        ]);
    }

    let mut bridge = Table::new(
        "Fig. 11(b): A15 CHI vs EMIB bridge range",
        &["bridge range mm", "bridges", "CHI kg"],
    );
    let ranges_mm = [1.0, 2.0, 3.0, 4.0];
    let points = run_packaging_sweep(
        ranges_mm
            .iter()
            .map(|&range_mm| {
                PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
                    bridge_range: Length::from_mm(range_mm),
                    ..SiliconBridgeConfig::default()
                })
            })
            .collect(),
    )?;
    for (range_mm, point) in ranges_mm.iter().zip(&points) {
        let floorplan = estimator.floorplan_with(&point.system, &context)?;
        let package = ecochip_packaging::PackageEstimator::new(
            &estimator.config().techdb,
            estimator.config().packaging_source,
        )
        .package_cfp(&point.system.packaging, &floorplan)?;
        bridge.row([
            format!("{range_mm:.0}"),
            format!("{}", package.bridge_count),
            format!("{:.3}", point.report.hi_overhead().kg()),
        ]);
    }

    let mut interposer = Table::new(
        "Fig. 11(c): A15 CHI vs active-interposer technology node",
        &["interposer node", "CHI kg"],
    );
    let techs = [TechNode::N22, TechNode::N28, TechNode::N40, TechNode::N65];
    let points = run_packaging_sweep(
        techs
            .iter()
            .map(|&tech| {
                PackagingArchitecture::ActiveInterposer(InterposerConfig {
                    tech,
                    ..InterposerConfig::default()
                })
            })
            .collect(),
    )?;
    for (tech, point) in techs.iter().zip(&points) {
        interposer.row([
            tech.to_string(),
            format!("{:.3}", point.report.hi_overhead().kg()),
        ]);
    }

    let mut pitch = Table::new(
        "Fig. 11(d): A15 CHI vs TSV / microbump pitch (3D stacking)",
        &["pitch um", "CHI kg"],
    );
    let pitches_um = [10.0, 20.0, 30.0, 45.0];
    let points = run_packaging_sweep(
        pitches_um
            .iter()
            .map(|&pitch_um| {
                PackagingArchitecture::ThreeD(ThreeDConfig::tsv(Length::from_um(pitch_um)))
            })
            .collect(),
    )?;
    for (pitch_um, point) in pitches_um.iter().zip(&points) {
        pitch.row([
            format!("{pitch_um:.0}"),
            format!("{:.3}", point.report.hi_overhead().kg()),
        ]);
    }

    Ok(vec![rdl, bridge, interposer, pitch])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_interposers_cost_more_than_rdl_and_emib_grows_with_nc() {
        let tables = fig9().unwrap();
        let chi = &tables[0];
        let row = |name: &str| -> Vec<f64> {
            chi.rows()
                .iter()
                .find(|r| r[0] == name)
                .unwrap()
                .iter()
                .skip(1)
                .map(|c| c.parse().unwrap())
                .collect()
        };
        let rdl = row("RDL fanout");
        let emib = row("EMIB bridge");
        let active = row("active interposer");
        let passive = row("passive interposer");
        for i in 0..4 {
            assert!(active[i] > rdl[i]);
            assert!(active[i] > passive[i]);
        }
        // EMIB overheads grow with the chiplet count (more bridges).
        assert!(emib[3] > emib[0]);
        // Active interposers carry routing carbon, RDL does not.
        let routing = &tables[1];
        let active_routing: f64 = routing
            .rows()
            .iter()
            .find(|r| r[0] == "active interposer")
            .unwrap()[1]
            .parse()
            .unwrap();
        let rdl_routing: f64 = routing
            .rows()
            .iter()
            .find(|r| r[0] == "RDL fanout")
            .unwrap()[1]
            .parse()
            .unwrap();
        assert!(active_routing > 0.0);
        assert!(rdl_routing == 0.0);
    }

    #[test]
    fn fig10_mfg_falls_and_chi_rises_with_chiplet_count() {
        let tables = fig10().unwrap();
        let rows = tables[0].rows();
        let first_mfg: f64 = rows.first().unwrap()[2].parse().unwrap();
        let last_mfg: f64 = rows.last().unwrap()[2].parse().unwrap();
        let first_chi: f64 = rows.first().unwrap()[3].parse().unwrap();
        let last_chi: f64 = rows.last().unwrap()[3].parse().unwrap();
        assert!(last_mfg < first_mfg);
        assert!(last_chi > first_chi);
    }

    #[test]
    fn fig11_sweeps_follow_the_paper_directions() {
        let tables = fig11().unwrap();
        // (a) more RDL layers => more CHI (linear).
        let rdl: Vec<f64> = tables[0]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(rdl.windows(2).all(|w| w[1] > w[0]));
        // (b) larger bridge range => fewer bridges => less CHI.
        let bridge: Vec<f64> = tables[1]
            .rows()
            .iter()
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert!(bridge.first().unwrap() >= bridge.last().unwrap());
        // (c) older interposer node => less CHI.
        let interposer: Vec<f64> = tables[2]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(interposer.windows(2).all(|w| w[1] < w[0]));
        // (d) larger pitch => fewer TSVs => less CHI.
        let pitch: Vec<f64> = tables[3]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(pitch.windows(2).all(|w| w[1] <= w[0]));
    }
}
