//! Fig. 7 (GA102 3-chiplet CFP breakdown across technology tuples) and
//! Fig. 14 (carbon-power / carbon-area products for the same sweep).

use ecochip_core::disaggregation::NodeTuple;
use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepPoint, SweepSpec};
use ecochip_core::{EcoChip, EcoChipError, EstimatorConfig};
use ecochip_design::{gates_from_transistors, DesignEstimator};
use ecochip_techdb::{TechDb, TechNode};
use ecochip_testcases::ga102;

use crate::{ExperimentResult, Table};

/// The sweep behind Figs. 7 and 14: the GA102 3-chiplet system over the
/// paper's `(digital, memory, analog)` technology tuples.
fn fig7_points(db: &TechDb, estimator: &EcoChip) -> Result<Vec<SweepPoint>, EcoChipError> {
    let base = ga102::three_chiplet_system(db, NodeTuple::uniform(TechNode::N7))?;
    let spec = SweepSpec::new(base).axis(SweepAxis::NodeTuples {
        blocks: ga102::soc_blocks(db)?,
        tuples: ga102::fig7_node_tuples(),
    });
    SweepEngine::new().run(estimator, &spec)
}

/// Fig. 7: the GA102 3-chiplet system with RDL fanout packaging, swept over
/// `(digital, memory, analog)` technology tuples:
///
/// * (a) chip manufacturing CFP plus HI overheads,
/// * (b) design CFP for a single SP&R iteration,
/// * (c) embodied CFP (with `Ndes = 100`, `NS = 100 000`) compared to ACT,
/// * (d) total CFP split into embodied and operational parts.
pub fn fig7() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let points = fig7_points(&db, &estimator)?;
    let design_model = DesignEstimator::new(&db, EstimatorConfig::default().design);

    let mut mfg = Table::new(
        "Fig. 7(a): GA102 Cmfg and CHI per technology tuple (RDL fanout)",
        &["tuple", "Cmfg kg", "CHI kg", "Cmfg+CHI kg"],
    );
    let mut des = Table::new(
        "Fig. 7(b): design CFP for a single SP&R iteration per chiplet",
        &["tuple", "digital kg", "memory kg", "analog kg", "total kg"],
    );
    let mut emb = Table::new(
        "Fig. 7(c): embodied CFP vs the ACT baseline (Ndes=100, NS=100k)",
        &[
            "tuple",
            "ECO-CHIP Cemb kg",
            "ACT Cemb kg",
            "ACT underestimate %",
        ],
    );
    let mut tot = Table::new(
        "Fig. 7(d): total CFP split (2-year lifetime, 228 kWh/year)",
        &["tuple", "Cemb kg", "Cop kg", "Ctot kg", "embodied share %"],
    );

    for point in &points {
        let r = &point.report;
        mfg.row([
            point.label.clone(),
            format!("{:.1}", r.manufacturing().kg()),
            format!("{:.1}", r.hi_overhead().kg()),
            format!("{:.1}", (r.manufacturing() + r.hi_overhead()).kg()),
        ]);

        // Single-iteration design CFP per chiplet (Fig. 7(b) shows one SP&R).
        let mut per_chiplet = Vec::new();
        for chiplet in &point.system.chiplets {
            let gates = gates_from_transistors(chiplet.transistors(&db)?)
                * estimator.config().design_effort_factor(chiplet.design_type);
            let cost = design_model.design_cost(gates, chiplet.node)?;
            per_chiplet.push(cost.single_iteration_cfp.kg());
        }
        let total_single: f64 = per_chiplet.iter().sum();
        des.row([
            point.label.clone(),
            format!("{:.0}", per_chiplet[0]),
            format!("{:.0}", per_chiplet[1]),
            format!("{:.0}", per_chiplet[2]),
            format!("{total_single:.0}"),
        ]);

        let act = estimator.act_embodied(&point.system)?;
        emb.row([
            point.label.clone(),
            format!("{:.1}", r.embodied().kg()),
            format!("{:.1}", act.total().kg()),
            format!(
                "{:.1}",
                (1.0 - act.total().kg() / r.embodied().kg()) * 100.0
            ),
        ]);

        tot.row([
            point.label.clone(),
            format!("{:.1}", r.embodied().kg()),
            format!("{:.1}", r.operational().kg()),
            format!("{:.1}", r.total().kg()),
            format!("{:.1}", r.embodied_fraction() * 100.0),
        ]);
    }
    Ok(vec![mfg, des, emb, tot])
}

/// Fig. 14: operational-power × total-CFP and area × total-CFP products for
/// the GA102 3-chiplet sweep, normalised to the monolithic counterpart.
pub fn fig14() -> ExperimentResult {
    let db = TechDb::default();
    let estimator = EcoChip::default();
    let mono = estimator.estimate(&ga102::monolithic_system(&db)?)?;
    let hours_per_year = 8760.0;
    let mono_power =
        mono.operational_per_year.kg() / 0.7 /* kg per kWh */ / hours_per_year * 1000.0;
    let mono_area = mono.silicon_area().mm2();
    let mono_cp = mono.total().kg() * mono_power;
    let mono_ca = mono.total().kg() * mono_area;

    let points = fig7_points(&db, &estimator)?;
    let mut table = Table::new(
        "Fig. 14: GA102 carbon-power and carbon-area products (normalised to the monolith)",
        &[
            "tuple",
            "power W",
            "area mm2",
            "carbon-power (norm)",
            "carbon-area (norm)",
        ],
    );
    for point in &points {
        let r = &point.report;
        let power_w = r.operational_per_year.kg() / 0.7 / hours_per_year * 1000.0;
        let area = r.silicon_area().mm2() + r.hi.whitespace_area.mm2();
        table.row([
            point.label.clone(),
            format!("{power_w:.1}"),
            format!("{area:.0}"),
            format!("{:.2}", r.total().kg() * power_w / mono_cp),
            format!("{:.2}", r.total().kg() * area / mono_ca),
        ]);
    }
    Ok(vec![table])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_mixed_tuple_beats_uniform_and_act_underestimates() {
        let tables = fig7().unwrap();
        assert_eq!(tables.len(), 4);
        let emb = &tables[2];
        let find = |label: &str| -> f64 {
            emb.rows()
                .iter()
                .find(|r| r[0] == label)
                .unwrap_or_else(|| panic!("{label} missing"))[1]
                .parse()
                .unwrap()
        };
        assert!(find("(7, 14, 10)") < find("(7, 7, 7)"));
        assert!(find("(14, 14, 14)") > find("(7, 7, 7)"));
        for row in emb.rows() {
            let underestimate: f64 = row[3].parse().unwrap();
            assert!(underestimate > 0.0, "ACT must underestimate: {row:?}");
        }
        // Design CFP of a single SP&R iteration is in the thousands of kg for
        // the digital chiplet (the paper quotes 8,400 kg at 7 nm).
        let digital_single: f64 = tables[1].rows()[0][1].parse().unwrap();
        assert!(digital_single > 2_000.0 && digital_single < 30_000.0);
    }

    #[test]
    fn fig14_products_track_the_embodied_trend() {
        let tables = fig14().unwrap();
        let rows = tables[0].rows();
        // The all-14nm configuration must have the worst carbon-area product.
        let norm_ca: Vec<f64> = rows.iter().map(|r| r[4].parse().unwrap()).collect();
        let last = *norm_ca.last().unwrap();
        assert!(last >= norm_ca[0]);
        for value in norm_ca {
            assert!(value.is_finite() && value > 0.0);
        }
    }
}
