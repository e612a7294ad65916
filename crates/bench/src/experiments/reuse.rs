//! Fig. 12: chiplet-reuse (design-CFP amortisation) and lifetime sweeps.

use ecochip_core::disaggregation::NodeTuple;
use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
use ecochip_core::{EcoChip, System};
use ecochip_techdb::{TechDb, TechNode};
use ecochip_testcases::{a15, emr, ga102};

use crate::{ExperimentResult, Table};

const RATIOS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];
const LIFETIMES: [f64; 4] = [1.0, 2.0, 3.0, 5.0];

fn grid_table(
    estimator: &EcoChip,
    title: &str,
    system: &System,
) -> Result<Table, Box<dyn std::error::Error>> {
    let spec = SweepSpec::new(system.clone())
        .axis(SweepAxis::reuse_ratios(
            system.volumes.system_volume,
            &RATIOS,
        ))
        .axis(SweepAxis::lifetimes_years(&LIFETIMES));
    let points = SweepEngine::new().run(estimator, &spec)?;
    let mut headers = vec!["NMi/NS".to_owned()];
    headers.extend(LIFETIMES.iter().map(|y| format!("Ctot kg @ {y:.0}y")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(title, &header_refs);
    // Row-major: the lifetime axis varies fastest.
    for (ratio, row) in RATIOS.iter().zip(points.chunks(LIFETIMES.len())) {
        let mut cells = vec![format!("{ratio:.0}")];
        cells.extend(row.iter().map(|p| format!("{:.1}", p.report.total().kg())));
        table.row(cells);
    }
    Ok(table)
}

/// Fig. 12(a): design CFP of the 2-chiplet EMR (both chiplets in 7 nm) as the
/// chiplet-reuse ratio `NMi / NS` grows, and Fig. 12(b–d): total CFP over
/// reuse ratio × lifetime grids for the GA102, A15 and EMR test cases.
pub fn fig12() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();

    // (a) EMR design CFP vs reuse ratio.
    let emr_7nm = emr::two_chiplet_system_at(&db, TechNode::N7)?;
    let mut design = Table::new(
        "Fig. 12(a): EMR (2x 7nm chiplets) amortised design CFP vs reuse ratio",
        &["NMi/NS", "Cdes kg per system", "Cemb kg"],
    );
    let spec = SweepSpec::new(emr_7nm.clone()).axis(SweepAxis::reuse_ratios(
        emr_7nm.volumes.system_volume,
        &RATIOS,
    ));
    let points = SweepEngine::new().run(&estimator, &spec)?;
    for (ratio, point) in RATIOS.iter().zip(&points) {
        design.row([
            format!("{ratio:.0}"),
            format!("{:.2}", point.report.design().kg()),
            format!("{:.1}", point.report.embodied().kg()),
        ]);
    }

    // (b)–(d) total CFP grids.
    let ga = ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )?;
    let a15_sys = a15::three_chiplet_system(&db, a15::default_chiplet_nodes())?;
    let emr_sys = emr::two_chiplet_system(&db)?;
    let ga_grid = grid_table(
        &estimator,
        "Fig. 12(b): GA102 3-chiplet total CFP vs reuse ratio and lifetime",
        &ga,
    )?;
    let a15_grid = grid_table(
        &estimator,
        "Fig. 12(c): A15 3-chiplet total CFP vs reuse ratio and lifetime",
        &a15_sys,
    )?;
    let emr_grid = grid_table(
        &estimator,
        "Fig. 12(d): EMR 2-chiplet total CFP vs reuse ratio and lifetime",
        &emr_sys,
    )?;

    Ok(vec![design, ga_grid, a15_grid, emr_grid])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_design_cfp_falls_with_reuse() {
        let tables = fig12().unwrap();
        let design: Vec<f64> = tables[0]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(design.windows(2).all(|w| w[1] < w[0]));
        // Doubling the reuse ratio roughly halves the amortised design CFP.
        assert!(design[0] / design.last().unwrap() > 8.0);
    }

    #[test]
    fn fig12_grids_are_monotone_in_both_axes() {
        let tables = fig12().unwrap();
        for grid in &tables[1..] {
            let rows = grid.rows();
            // Along a row (fixed ratio), total grows with lifetime.
            for row in rows {
                let values: Vec<f64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
                assert!(values.windows(2).all(|w| w[1] > w[0]), "{}", grid.title());
            }
            // Down a column (fixed lifetime), total falls as reuse grows.
            for col in 1..rows[0].len() {
                let values: Vec<f64> = rows.iter().map(|r| r[col].parse().unwrap()).collect();
                assert!(values.windows(2).all(|w| w[1] <= w[0]), "{}", grid.title());
            }
        }
    }

    #[test]
    fn fig12_a15_benefits_most_from_reuse() {
        let tables = fig12().unwrap();
        let relative_drop = |grid: &Table| -> f64 {
            let rows = grid.rows();
            let first: f64 = rows.first().unwrap()[2].parse().unwrap();
            let last: f64 = rows.last().unwrap()[2].parse().unwrap();
            1.0 - last / first
        };
        let ga = relative_drop(&tables[1]);
        let a15 = relative_drop(&tables[2]);
        assert!(a15 > ga, "A15 drop {a15} should exceed GA102 drop {ga}");
    }
}
