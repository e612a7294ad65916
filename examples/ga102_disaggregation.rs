//! GA102 GPU disaggregation study: monolithic vs 3-chiplet across technology
//! tuples, compared against the ACT baseline and the dollar-cost model.
//!
//! This example reproduces the flavour of Section V-A of the paper on the
//! NVIDIA GA102 test case.
//!
//! Run with: `cargo run --example ga102_disaggregation`

use eco_chip::core::costing::system_cost;
use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{SweepAxis, SweepEngine, SweepSpec};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::testcases::ga102;
use eco_chip::EcoChip;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = TechDb::default();
    let estimator = EcoChip::default();

    // The monolithic reference (8 nm-class die, as shipped).
    let monolith = ga102::monolithic_system(&db)?;
    let mono_report = estimator.estimate(&monolith)?;
    let mono_cost = system_cost(&estimator, &monolith)?;
    println!("== GA102 monolithic ({}) ==", ga102::REFERENCE_NODE);
    println!(
        "  Cmfg {:8.1} kg   Cdes {:8.1} kg   Cemb {:8.1} kg   Ctot {:8.1} kg   cost {}",
        mono_report.manufacturing().kg(),
        mono_report.design().kg(),
        mono_report.embodied().kg(),
        mono_report.total().kg(),
        mono_cost.total()
    );

    // The 3-chiplet variants across the paper's technology tuples.
    let base = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )?;
    let spec = SweepSpec::new(base).axis(SweepAxis::NodeTuples {
        blocks: ga102::soc_blocks(&db)?,
        tuples: ga102::fig7_node_tuples(),
    });
    let points = SweepEngine::new().run(&estimator, &spec)?;

    println!();
    println!("== GA102 3-chiplet (digital, memory, analog) sweep ==");
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "tuple", "Cmfg kg", "CHI kg", "Cdes kg", "Cemb kg", "Ctot kg", "ACT Cemb kg", "cost $"
    );
    for point in &points {
        let act = estimator.act_embodied(&point.system)?;
        let cost = system_cost(&estimator, &point.system)?;
        println!(
            "{:>14} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.1} {:>10.0}",
            point.label,
            point.report.manufacturing().kg(),
            point.report.hi_overhead().kg(),
            point.report.design().kg(),
            point.report.embodied().kg(),
            point.report.total().kg(),
            act.total().kg(),
            cost.total().dollars()
        );
    }

    // The headline claim.
    let best = points
        .iter()
        .min_by(|a, b| {
            a.report
                .embodied()
                .kg()
                .partial_cmp(&b.report.embodied().kg())
                .unwrap()
        })
        .expect("sweep is non-empty");
    println!();
    println!(
        "best tuple {} lowers embodied CFP by {:.1}% vs the monolith",
        best.label,
        (1.0 - best.report.embodied().kg() / mono_report.embodied().kg()) * 100.0
    );
    Ok(())
}
