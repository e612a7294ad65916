//! Chiplet reuse and lifetime study (Section V-C of the paper): how the
//! amortisation of design carbon over reused chiplets, and the deployment
//! lifetime, shape the total CFP of the GA102, A15 and EMR test cases.
//!
//! Run with: `cargo run --example chiplet_reuse`

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{SweepAxis, SweepEngine, SweepSpec};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::testcases::{a15, emr, ga102};
use eco_chip::{EcoChip, System};

fn print_grid(
    estimator: &EcoChip,
    name: &str,
    system: &System,
) -> Result<(), Box<dyn std::error::Error>> {
    let ratios = [1.0, 2.0, 4.0, 8.0, 16.0];
    let lifetimes = [1.0, 2.0, 3.0, 5.0];
    let spec = SweepSpec::new(system.clone())
        .axis(SweepAxis::reuse_ratios(
            system.volumes.system_volume,
            &ratios,
        ))
        .axis(SweepAxis::lifetimes_years(&lifetimes));
    let points = SweepEngine::new().run(estimator, &spec)?;

    println!("== {name}: total CFP (kg CO2e) vs reuse ratio and lifetime ==");
    print!("{:>12}", "NMi/NS");
    for years in lifetimes {
        print!("{:>12}", format!("{years:.0} yr"));
    }
    println!();
    // Row-major: the lifetime axis varies fastest.
    for (ratio, row) in ratios.iter().zip(points.chunks(lifetimes.len())) {
        print!("{ratio:>12.0}");
        for point in row {
            print!("{:>12.1}", point.report.total().kg());
        }
        println!();
    }
    // Embodied carbon does not depend on the lifetime: read it off the
    // first point of the first (no reuse) and last (16x reuse) rows.
    let no_reuse = &points[0].report;
    let most_reuse = &points[points.len() - lifetimes.len()].report;
    println!(
        "  embodied falls from {:.1} kg (no reuse) to {:.1} kg (16x reuse)",
        no_reuse.embodied().kg(),
        most_reuse.embodied().kg()
    );
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = TechDb::default();
    let estimator = EcoChip::default();

    let ga102_system = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )?;
    print_grid(&estimator, "GA102 3-chiplet (RDL fanout)", &ga102_system)?;

    let a15_system = a15::three_chiplet_system(&db, a15::default_chiplet_nodes())?;
    print_grid(&estimator, "A15 3-chiplet (RDL fanout)", &a15_system)?;

    let emr_system = emr::two_chiplet_system(&db)?;
    print_grid(&estimator, "Emerald Rapids 2-chiplet (EMIB)", &emr_system)?;

    println!("note: battery-powered devices (A15) are embodied-dominated, so reuse");
    println!("pays off strongly; the GPU and server CPU are operational-dominated and");
    println!("benefit comparatively less — the observation of Fig. 12 in the paper.");
    Ok(())
}
