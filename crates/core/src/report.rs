//! The carbon report produced by the estimator.

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_techdb::{Area, Carbon, Power, TechNode, TimeSpan};
use ecochip_yield::DieYield;

use crate::manufacturing::ChipletManufacturing;

/// Per-chiplet slice of the report.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ChipletReport {
    /// Name of the chiplet.
    pub name: String,
    /// Implementation node.
    pub node: TechNode,
    /// Base silicon area of the functional block.
    pub base_area: Area,
    /// Extra area added for inter-die communication circuitry (routers, NICs,
    /// PHYs).
    pub comm_area: Area,
    /// Manufacturing breakdown (computed on `base_area + comm_area`).
    pub manufacturing: ChipletManufacturing,
    /// Design CFP amortised per manufactured part.
    pub design: Carbon,
}

impl ChipletReport {
    /// Total area manufactured for this chiplet.
    pub fn total_area(&self) -> Area {
        self.base_area + self.comm_area
    }

    /// Die yield of this chiplet.
    pub fn die_yield(&self) -> DieYield {
        self.manufacturing.die_yield
    }
}

// `clone_from` reuses the name's buffer. Both methods name every field,
// so a new one does not compile until it is cloned here.
impl Clone for ChipletReport {
    fn clone(&self) -> Self {
        let Self {
            name,
            node,
            base_area,
            comm_area,
            manufacturing,
            design,
        } = self;
        Self {
            name: name.clone(),
            node: *node,
            base_area: *base_area,
            comm_area: *comm_area,
            manufacturing: *manufacturing,
            design: *design,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            name,
            node,
            base_area,
            comm_area,
            manufacturing,
            design,
        } = source;
        self.name.clone_from(name);
        self.node = *node;
        self.base_area = *base_area;
        self.comm_area = *comm_area;
        self.manufacturing = *manufacturing;
        self.design = *design;
    }
}

impl fmt::Display for ChipletReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ {}: {} area, mfg {}, design {}",
            self.name,
            self.node,
            self.total_area(),
            self.manufacturing.total(),
            self.design
        )
    }
}

/// Breakdown of the HI (heterogeneous-integration) overheads `C_HI`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HiBreakdown {
    /// Package substrate / interposer / bridge / bonding CFP (`C_package`).
    pub package: Carbon,
    /// Manufacturing CFP of communication logic implemented in the interposer
    /// (active interposers only; router area in the chiplets is part of the
    /// per-chiplet manufacturing CFP instead).
    pub interposer_comm: Carbon,
    /// Area of the package substrate / interposer.
    pub package_area: Area,
    /// Whitespace on the substrate / interposer.
    pub whitespace_area: Area,
    /// Package assembly yield.
    pub assembly_yield: DieYield,
    /// Total power drawn by communication circuitry (added to operational
    /// energy).
    pub comm_power: Power,
}

impl HiBreakdown {
    /// Total HI overhead carbon (`C_HI`).
    pub fn total(&self) -> Carbon {
        self.package + self.interposer_comm
    }

    /// A zero breakdown (monolithic systems).
    pub fn none() -> Self {
        Self {
            package: Carbon::ZERO,
            interposer_comm: Carbon::ZERO,
            package_area: Area::ZERO,
            whitespace_area: Area::ZERO,
            assembly_yield: DieYield::PERFECT,
            comm_power: Power::ZERO,
        }
    }
}

/// The complete carbon report for one system (Eqs. 1–3).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct CarbonReport {
    /// Name of the system analysed.
    pub system_name: String,
    /// Per-chiplet breakdowns.
    pub chiplets: Vec<ChipletReport>,
    /// HI overheads.
    pub hi: HiBreakdown,
    /// Design CFP of the communication fabric amortised per system.
    pub comm_design: Carbon,
    /// Operational CFP per year of deployment.
    pub operational_per_year: Carbon,
    /// Deployment lifetime used for the total.
    pub lifetime: TimeSpan,
}

impl CarbonReport {
    /// A report with no chiplets and zero terms, for an estimate to fill
    /// ([`crate::EcoChip::estimate_into`]).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            system_name: String::new(),
            chiplets: Vec::new(),
            hi: HiBreakdown::none(),
            comm_design: Carbon::ZERO,
            operational_per_year: Carbon::ZERO,
            lifetime: TimeSpan::ZERO,
        }
    }

    /// Total manufacturing CFP of all chiplets (`C_mfg`).
    pub fn manufacturing(&self) -> Carbon {
        self.chiplets.iter().map(|c| c.manufacturing.total()).sum()
    }

    /// Total amortised design CFP (`C_des`), including the communication
    /// fabric.
    pub fn design(&self) -> Carbon {
        self.chiplets.iter().map(|c| c.design).sum::<Carbon>() + self.comm_design
    }

    /// Total HI overhead CFP (`C_HI`).
    pub fn hi_overhead(&self) -> Carbon {
        self.hi.total()
    }

    /// Embodied CFP (`C_emb = C_mfg + C_des + C_HI`, Eq. 2).
    pub fn embodied(&self) -> Carbon {
        self.manufacturing() + self.design() + self.hi_overhead()
    }

    /// Operational CFP over the full lifetime (`lifetime × C_op`).
    pub fn operational(&self) -> Carbon {
        self.operational_per_year * self.lifetime.years()
    }

    /// Total CFP (`C_tot = C_emb + lifetime × C_op`, Eq. 1).
    pub fn total(&self) -> Carbon {
        self.embodied() + self.operational()
    }

    /// Fraction of the total CFP that is embodied, in `[0, 1]`.
    pub fn embodied_fraction(&self) -> f64 {
        let total = self.total().kg();
        if total <= 0.0 {
            0.0
        } else {
            (self.embodied().kg() / total).clamp(0.0, 1.0)
        }
    }

    /// Total silicon area manufactured (chiplets + communication overheads).
    pub fn silicon_area(&self) -> Area {
        self.chiplets.iter().map(|c| c.total_area()).sum()
    }

    /// The top-level breakdown as `(component, carbon)` rows, in the order the
    /// paper presents them: manufacturing, design, HI, embodied, operational,
    /// total.
    pub fn breakdown(&self) -> Vec<(&'static str, Carbon)> {
        vec![
            ("manufacturing", self.manufacturing()),
            ("design", self.design()),
            ("hi_overhead", self.hi_overhead()),
            ("embodied", self.embodied()),
            ("operational", self.operational()),
            ("total", self.total()),
        ]
    }

    /// Render the report as CSV: one row per chiplet followed by the
    /// top-level breakdown rows, suitable for spreadsheets and plotting
    /// scripts.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "section,name,node,area_mm2,comm_area_mm2,yield_pct,manufacturing_kg,design_kg\n",
        );
        for c in &self.chiplets {
            out.push_str(&format!(
                "chiplet,{},{},{:.3},{:.3},{:.2},{:.4},{:.4}\n",
                c.name,
                c.node,
                c.base_area.mm2(),
                c.comm_area.mm2(),
                c.die_yield().percent(),
                c.manufacturing.total().kg(),
                c.design.kg()
            ));
        }
        for (component, carbon) in self.breakdown() {
            out.push_str(&format!("summary,{component},,,,,{:.4},\n", carbon.kg()));
        }
        out
    }
}

// `clone_from` reuses the system name's and the chiplet list's buffers
// (the entries through `ChipletReport::clone_from`), so copying a
// re-priced report into a sweep point's slot allocates nothing. Both
// methods name every field, so a new one does not compile until it is
// cloned here.
impl Clone for CarbonReport {
    fn clone(&self) -> Self {
        let Self {
            system_name,
            chiplets,
            hi,
            comm_design,
            operational_per_year,
            lifetime,
        } = self;
        Self {
            system_name: system_name.clone(),
            chiplets: chiplets.clone(),
            hi: *hi,
            comm_design: *comm_design,
            operational_per_year: *operational_per_year,
            lifetime: *lifetime,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Self {
            system_name,
            chiplets,
            hi,
            comm_design,
            operational_per_year,
            lifetime,
        } = source;
        self.system_name.clone_from(system_name);
        self.chiplets.clone_from(chiplets);
        self.hi = *hi;
        self.comm_design = *comm_design;
        self.operational_per_year = *operational_per_year;
        self.lifetime = *lifetime;
    }
}

impl fmt::Display for CarbonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.system_name)?;
        for c in &self.chiplets {
            writeln!(f, "  {c}")?;
        }
        writeln!(
            f,
            "  manufacturing: {}  design: {}  HI: {}",
            self.manufacturing(),
            self.design(),
            self.hi_overhead()
        )?;
        writeln!(
            f,
            "  embodied: {}  operational ({:.1}y): {}",
            self.embodied(),
            self.lifetime.years(),
            self.operational()
        )?;
        write!(f, "  total: {}", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecochip_techdb::CarbonPerArea;

    fn chiplet_report(name: &str, mfg_kg: f64, design_kg: f64) -> ChipletReport {
        ChipletReport {
            name: name.to_owned(),
            node: TechNode::N7,
            base_area: Area::from_mm2(100.0),
            comm_area: Area::from_mm2(1.0),
            manufacturing: ChipletManufacturing {
                area: Area::from_mm2(101.0),
                die_yield: DieYield::from_fraction(0.9),
                cfpa: CarbonPerArea::from_kg_per_cm2(2.0),
                die_cfp: Carbon::from_kg(mfg_kg * 0.9),
                wastage_cfp: Carbon::from_kg(mfg_kg * 0.1),
                dies_per_wafer: 100,
            },
            design: Carbon::from_kg(design_kg),
        }
    }

    fn report() -> CarbonReport {
        CarbonReport {
            system_name: "test".into(),
            chiplets: vec![
                chiplet_report("a", 10.0, 2.0),
                chiplet_report("b", 5.0, 1.0),
            ],
            hi: HiBreakdown {
                package: Carbon::from_kg(3.0),
                interposer_comm: Carbon::from_kg(1.0),
                package_area: Area::from_mm2(300.0),
                whitespace_area: Area::from_mm2(50.0),
                assembly_yield: DieYield::from_fraction(0.95),
                comm_power: Power::from_watts(1.5),
            },
            comm_design: Carbon::from_kg(0.5),
            operational_per_year: Carbon::from_kg(20.0),
            lifetime: TimeSpan::from_years(2.0),
        }
    }

    #[test]
    fn totals_compose_correctly() {
        let r = report();
        assert!((r.manufacturing().kg() - 15.0).abs() < 1e-9);
        assert!((r.design().kg() - 3.5).abs() < 1e-9);
        assert!((r.hi_overhead().kg() - 4.0).abs() < 1e-9);
        assert!((r.embodied().kg() - 22.5).abs() < 1e-9);
        assert!((r.operational().kg() - 40.0).abs() < 1e-9);
        assert!((r.total().kg() - 62.5).abs() < 1e-9);
        assert!((r.embodied_fraction() - 22.5 / 62.5).abs() < 1e-9);
        assert!((r.silicon_area().mm2() - 202.0).abs() < 1e-9);
    }

    #[test]
    fn chiplet_report_helpers() {
        let c = chiplet_report("x", 8.0, 1.0);
        assert!((c.total_area().mm2() - 101.0).abs() < 1e-9);
        assert!((c.die_yield().fraction() - 0.9).abs() < 1e-12);
        assert!(!c.to_string().is_empty());
    }

    #[test]
    fn hi_breakdown_none_is_zero() {
        let none = HiBreakdown::none();
        assert_eq!(none.total().kg(), 0.0);
        assert_eq!(none.comm_power.watts(), 0.0);
        assert_eq!(none.assembly_yield, DieYield::PERFECT);
    }

    #[test]
    fn display_contains_sections() {
        let r = report();
        let text = r.to_string();
        assert!(text.contains("manufacturing"));
        assert!(text.contains("embodied"));
        assert!(text.contains("total"));
    }

    #[test]
    fn degenerate_report_fraction() {
        let mut r = report();
        r.chiplets.clear();
        r.hi = HiBreakdown::none();
        r.comm_design = Carbon::ZERO;
        r.operational_per_year = Carbon::ZERO;
        assert_eq!(r.embodied_fraction(), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: CarbonReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn breakdown_and_csv_export() {
        let r = report();
        let breakdown = r.breakdown();
        assert_eq!(breakdown.len(), 6);
        assert_eq!(breakdown[0].0, "manufacturing");
        assert!((breakdown[5].1.kg() - r.total().kg()).abs() < 1e-12);

        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + 2 chiplets + 6 summary rows.
        assert_eq!(lines.len(), 1 + 2 + 6);
        assert!(lines[0].starts_with("section,name"));
        assert!(lines[1].starts_with("chiplet,a,7nm"));
        assert!(lines.last().unwrap().starts_with("summary,total"));
        // Every row has the same number of commas as the header.
        let commas = lines[0].matches(',').count();
        for line in &lines {
            assert_eq!(line.matches(',').count(), commas, "{line}");
        }
    }

    /// `clone_from` reuses buffers but must leave exactly what `clone`
    /// makes, whether the target had fewer chiplets than the source, more,
    /// or as many.
    #[test]
    fn clone_from_equals_clone_across_chiplet_counts() {
        use crate::disaggregation::split_block;
        use crate::{EcoChip, System};
        use ecochip_packaging::{PackagingArchitecture, SiliconBridgeConfig};
        use ecochip_techdb::{DesignType, TimeSpan};

        let systems: Vec<System> = [(1, 1.0), (3, 2.0), (16, 3.5)]
            .into_iter()
            .map(|(count, years)| {
                let chiplets = split_block(
                    &format!("block{count}"),
                    DesignType::Logic,
                    TechNode::N7,
                    2.0e10,
                    count,
                )
                .unwrap();
                let mut builder = System::builder(format!("soc-{count}"))
                    .chiplets(chiplets)
                    .lifetime(TimeSpan::from_years(years));
                if count == 16 {
                    builder = builder.packaging(PackagingArchitecture::SiliconBridge(
                        SiliconBridgeConfig::default(),
                    ));
                }
                builder.build().unwrap()
            })
            .collect();
        let estimator = EcoChip::default();
        let reports: Vec<CarbonReport> = systems
            .iter()
            .map(|system| estimator.estimate(system).unwrap())
            .collect();
        for (into, from) in (0..3).flat_map(|into| (0..3).map(move |from| (into, from))) {
            let mut system = systems[into].clone();
            system.clone_from(&systems[from]);
            assert_eq!(system, systems[from].clone(), "{into} <- {from}");
            let mut report = reports[into].clone();
            report.clone_from(&reports[from]);
            assert_eq!(report, reports[from].clone(), "{into} <- {from}");
            assert_eq!(report.chiplets.len(), systems[from].chiplets.len());
        }
    }
}
