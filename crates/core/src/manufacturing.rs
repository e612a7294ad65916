//! Per-chiplet manufacturing CFP (Eqs. 5–6 of the paper).

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use ecochip_techdb::{Area, Carbon, CarbonPerArea, EnergySource, TechDb, TechNode};
use ecochip_yield::{DieYield, NegativeBinomialYield, Wafer, WaferUtilization};

use crate::error::EcoChipError;

/// Manufacturing CFP of a single die, with its contributing factors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChipletManufacturing {
    /// Die area used for the estimate (including any communication-circuit
    /// overhead added by the caller).
    pub area: Area,
    /// Die yield at this area and node (Eq. 4).
    pub die_yield: DieYield,
    /// Carbon footprint per good-die area (Eq. 6), i.e. already divided by
    /// yield.
    pub cfpa: CarbonPerArea,
    /// CFP of processing the die itself (`CFPA × Adie`).
    pub die_cfp: Carbon,
    /// CFP of the amortised wafer-periphery wastage (`CFPA_Si × Awasted`).
    pub wastage_cfp: Carbon,
    /// Dies per wafer at this area (Eq. 7).
    pub dies_per_wafer: u64,
}

impl ChipletManufacturing {
    /// Total manufacturing CFP of the die (Eq. 5).
    pub fn total(&self) -> Carbon {
        self.die_cfp + self.wastage_cfp
    }
}

impl fmt::Display for ChipletManufacturing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} die + {} wastage, yield {})",
            self.total(),
            self.die_cfp,
            self.wastage_cfp,
            self.die_yield
        )
    }
}

/// The manufacturing CFP model: Eq. (6) carbon-per-area plus Eq. (5)'s
/// wafer-wastage term.
#[derive(Debug, Clone, Copy)]
pub struct ManufacturingModel<'a> {
    db: &'a TechDb,
    wafer: Wafer,
    fab_source: EnergySource,
    include_wastage: bool,
}

impl<'a> ManufacturingModel<'a> {
    /// Create a model over the given database, wafer size and fab energy
    /// source (`Cmfg,src`).
    pub fn new(db: &'a TechDb, wafer: Wafer, fab_source: EnergySource) -> Self {
        Self {
            db,
            wafer,
            fab_source,
            include_wastage: true,
        }
    }

    /// Disable the wafer-periphery wastage term (used to reproduce Fig. 3(b),
    /// which contrasts estimates with and without wastage accounting).
    pub fn without_wastage(mut self) -> Self {
        self.include_wastage = false;
        self
    }

    /// The wafer used for dies-per-wafer computations.
    pub fn wafer(&self) -> Wafer {
        self.wafer
    }

    /// The fab energy source (`Cmfg,src`) the model was built with.
    pub fn fab_source(&self) -> EnergySource {
        self.fab_source
    }

    /// Fingerprint of everything besides the die area that influences
    /// [`ManufacturingModel::chiplet_cfp`] for `node`: the node's
    /// manufacturing parameters from the technology database plus the
    /// model's wafer, fab energy source and wastage setting. Sweep
    /// memoization keys on it so caches shared across estimators (different
    /// techdbs included) never serve stale results.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::TechDb`] for unknown nodes.
    pub fn memo_bits(&self, node: TechNode) -> Result<u64, EcoChipError> {
        let params = self.db.node(node)?;
        let mut hasher = DefaultHasher::new();
        params.defect_density.per_cm2().to_bits().hash(&mut hasher);
        params.clustering_alpha.to_bits().hash(&mut hasher);
        params.epa.kwh_per_cm2().to_bits().hash(&mut hasher);
        params.gas_cfp.kg_per_cm2().to_bits().hash(&mut hasher);
        params.material_cfp.kg_per_cm2().to_bits().hash(&mut hasher);
        params.equipment_derate.to_bits().hash(&mut hasher);
        params
            .silicon_wafer_cfp
            .kg_per_cm2()
            .to_bits()
            .hash(&mut hasher);
        self.fab_source
            .carbon_intensity()
            .kg_per_kwh()
            .to_bits()
            .hash(&mut hasher);
        self.wafer.diameter_mm().to_bits().hash(&mut hasher);
        self.include_wastage.hash(&mut hasher);
        Ok(hasher.finish())
    }

    /// Carbon footprint per unit *good* area at a node (Eq. 6):
    /// `CFPA = (ηeq · Cmfg,src · EPA + Cgas + Cmaterial) / Y`.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::TechDb`] for unknown nodes.
    pub fn cfpa(&self, node: TechNode, die_yield: DieYield) -> Result<CarbonPerArea, EcoChipError> {
        let params = self.db.node(node)?;
        let intensity = self.fab_source.carbon_intensity();
        let energy_kg_per_cm2 =
            params.equipment_derate * intensity.kg_per_kwh() * params.epa.kwh_per_cm2();
        let raw =
            energy_kg_per_cm2 + params.gas_cfp.kg_per_cm2() + params.material_cfp.kg_per_cm2();
        Ok(CarbonPerArea::from_kg_per_cm2(
            raw * die_yield.inflation_factor(),
        ))
    }

    /// Manufacturing CFP of one die of `area` in `node` (Eq. 5).
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] for unknown nodes, invalid areas or dies that
    /// do not fit on the wafer.
    pub fn chiplet_cfp(
        &self,
        area: Area,
        node: TechNode,
    ) -> Result<ChipletManufacturing, EcoChipError> {
        if !area.mm2().is_finite() || area.mm2() <= 0.0 {
            return Err(EcoChipError::InvalidSystem(format!(
                "chiplet area must be positive, got {} mm2",
                area.mm2()
            )));
        }
        let params = self.db.node(node)?;
        let die_yield = NegativeBinomialYield::for_node(params).yield_for(area);
        let cfpa = self.cfpa(node, die_yield)?;
        let die_cfp = cfpa * area;

        let utilization: Option<WaferUtilization> = if self.include_wastage {
            Some(self.wafer.utilization(area)?)
        } else {
            None
        };
        let (wastage_cfp, dies_per_wafer) = match utilization {
            Some(u) => {
                let wastage = params.silicon_wafer_cfp * u.wasted_area_per_die;
                (wastage, u.dies_per_wafer)
            }
            None => (Carbon::ZERO, 0),
        };

        Ok(ChipletManufacturing {
            area,
            die_yield,
            cfpa,
            die_cfp,
            wastage_cfp,
            dies_per_wafer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn db() -> TechDb {
        TechDb::default()
    }

    fn model(db: &TechDb) -> ManufacturingModel<'_> {
        ManufacturingModel::new(db, Wafer::standard_450mm(), EnergySource::Coal)
    }

    #[test]
    fn cfpa_matches_closed_form() {
        let db = db();
        let m = model(&db);
        // 7 nm: ηeq 0.95, EPA 2.75 kWh/cm², coal 0.7 kg/kWh, gas 0.40,
        // material 0.5 => 0.95*0.7*2.75 + 0.9 = 2.72875 kg/cm² at Y=1.
        let cfpa = m.cfpa(TechNode::N7, DieYield::PERFECT).unwrap();
        assert!((cfpa.kg_per_cm2() - 2.728_75).abs() < 1e-6);
        // Yield of 0.5 doubles it.
        let half = m.cfpa(TechNode::N7, DieYield::from_fraction(0.5)).unwrap();
        assert!((half.kg_per_cm2() - 2.0 * 2.728_75).abs() < 1e-6);
    }

    #[test]
    fn ga102_monolith_is_tens_of_kilograms() {
        // The 628 mm² GA102-class die lands in the tens of kg of CO2e, the
        // order of magnitude of Fig. 7(a).
        let db = db();
        let m = model(&db);
        let c = m.chiplet_cfp(Area::from_mm2(628.0), TechNode::N8).unwrap();
        assert!(c.total().kg() > 20.0 && c.total().kg() < 120.0, "{c}");
        assert!(c.die_yield.fraction() < 0.5, "big die yields poorly");
        assert!(c.dies_per_wafer > 100);
        assert!(c.wastage_cfp.kg() > 0.0);
    }

    #[test]
    fn splitting_a_die_lowers_manufacturing_cfp() {
        // Fig. 2(b): four quarter-size dies beat one monolith on Cmfg because
        // yield and wastage improve.
        let db = db();
        let m = model(&db);
        let mono = m.chiplet_cfp(Area::from_mm2(628.0), TechNode::N8).unwrap();
        let quarter = m.chiplet_cfp(Area::from_mm2(157.0), TechNode::N8).unwrap();
        assert!(4.0 * quarter.total().kg() < mono.total().kg());
    }

    #[test]
    fn exponential_growth_with_area() {
        // Fig. 2(a): CFP grows super-linearly with area due to yield.
        let db = db();
        let m = model(&db);
        let a100 = m.chiplet_cfp(Area::from_mm2(100.0), TechNode::N10).unwrap();
        let a200 = m.chiplet_cfp(Area::from_mm2(200.0), TechNode::N10).unwrap();
        assert!(a200.total().kg() > 2.0 * a100.total().kg());
    }

    #[test]
    fn wastage_toggle_reproduces_fig3() {
        let db = db();
        let with = model(&db);
        let without = model(&db).without_wastage();
        let area = Area::from_mm2(628.0);
        let a = with.chiplet_cfp(area, TechNode::N8).unwrap();
        let b = without.chiplet_cfp(area, TechNode::N8).unwrap();
        assert!(a.total().kg() > b.total().kg());
        assert_eq!(b.wastage_cfp.kg(), 0.0);
        assert_eq!(b.dies_per_wafer, 0);
        assert_eq!(a.die_cfp.kg(), b.die_cfp.kg());
        assert_eq!(with.wafer(), Wafer::standard_450mm());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let db = db();
        let m = model(&db);
        assert!(m.chiplet_cfp(Area::ZERO, TechNode::N7).is_err());
        assert!(m.chiplet_cfp(Area::from_mm2(-5.0), TechNode::N7).is_err());
        assert!(m
            .chiplet_cfp(Area::from_mm2(f64::NAN), TechNode::N7)
            .is_err());
        let empty = ecochip_techdb::TechDbBuilder::new().build();
        let m = ManufacturingModel::new(&empty, Wafer::standard_450mm(), EnergySource::Coal);
        assert!(m.chiplet_cfp(Area::from_mm2(100.0), TechNode::N7).is_err());
    }

    #[test]
    fn greener_fab_lowers_cfp_but_not_gas_and_material() {
        let db = db();
        let coal = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let wind = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Wind);
        let area = Area::from_mm2(200.0);
        let c = coal.chiplet_cfp(area, TechNode::N7).unwrap();
        let w = wind.chiplet_cfp(area, TechNode::N7).unwrap();
        assert!(w.total().kg() < c.total().kg());
        // Gas + material emissions do not depend on the energy source, so the
        // wind-powered fab still has a significant floor.
        assert!(w.total().kg() > 0.2 * c.total().kg());
    }

    proptest! {
        #[test]
        fn manufacturing_cfp_is_positive_and_monotone_in_area(
            area in 10.0f64..1500.0,
            extra in 5.0f64..500.0,
        ) {
            let db = db();
            let m = model(&db);
            let small = m.chiplet_cfp(Area::from_mm2(area), TechNode::N7).unwrap();
            let large = m.chiplet_cfp(Area::from_mm2(area + extra), TechNode::N7).unwrap();
            prop_assert!(small.total().kg() > 0.0);
            prop_assert!(large.die_cfp.kg() > small.die_cfp.kg());
            prop_assert!(large.total().kg() > small.total().kg());
        }

        #[test]
        fn advanced_nodes_have_higher_cfpa(
            area in 20.0f64..800.0,
        ) {
            let db = db();
            let m = model(&db);
            let c7 = m.chiplet_cfp(Area::from_mm2(area), TechNode::N7).unwrap();
            let c65 = m.chiplet_cfp(Area::from_mm2(area), TechNode::N65).unwrap();
            prop_assert!(c7.total().kg() > c65.total().kg());
        }
    }
}
