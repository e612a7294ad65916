//! Package / assembly carbon-footprint estimation (Eqs. 9–11 of the paper).

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_floorplan::Floorplan;
use ecochip_techdb::{Area, Carbon, EnergySource, TechDb};
use ecochip_yield::{DieYield, NegativeBinomialYield};

use crate::arch::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use crate::error::PackagingError;

/// One die (tier) in a 3D stack, bottom-up order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackedDie {
    /// Name of the die.
    pub name: String,
    /// Footprint area of the die.
    pub area: Area,
}

impl StackedDie {
    /// Create a stacked die.
    pub fn new(name: impl Into<String>, area: Area) -> Self {
        Self {
            name: name.into(),
            area,
        }
    }
}

/// Carbon footprint of manufacturing and assembling the package (the
/// `C_package` part of `C_HI`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackageCfp {
    /// CFP of the substrate / interposer (RDL patterning, interposer BEOL and
    /// FEOL, organic build-up).
    pub substrate: Carbon,
    /// CFP of embedded silicon bridges (zero for non-EMIB architectures).
    pub bridges: Carbon,
    /// CFP of vertical interconnect formation and wafer bonding (3D only).
    pub bonding: Carbon,
    /// CFP of per-chiplet placement / die-attach / reflow assembly steps.
    pub assembly: Carbon,
    /// Assembly yield of the package (bond yield × substrate yield), already
    /// folded into the CFP figures above.
    pub assembly_yield: DieYield,
    /// Area of the package substrate / interposer.
    pub package_area: Area,
    /// Number of silicon bridges placed (EMIB only).
    pub bridge_count: u32,
    /// Number of TSVs / microbumps / hybrid bonds formed (3D only).
    pub bond_count: f64,
}

impl PackageCfp {
    /// Total package-related CFP.
    pub fn total(&self) -> Carbon {
        self.substrate + self.bridges + self.bonding + self.assembly
    }
}

impl fmt::Display for PackageCfp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "package {} (substrate {}, bridges {}, bonding {}, assembly {}, yield {})",
            self.total(),
            self.substrate,
            self.bridges,
            self.bonding,
            self.assembly,
            self.assembly_yield
        )
    }
}

/// Fraction of the FEOL defect density that applies to coarse RDL layers.
///
/// Fanout RDL lines (6–10 µm L/S) are far less defect-prone than FEOL
/// transistor layers, so Eq. (4) is evaluated with a derated defect density.
const RDL_DEFECT_DERATE: f64 = 0.3;
/// Defect-density multiplier for ultra-fine (2 µm L/S) silicon-bridge layers;
/// the paper notes bridges yield worse than RDL.
const BRIDGE_DEFECT_MULTIPLIER: f64 = 2.0;
/// Organic build-up laminate patterning energy relative to fanout RDL
/// patterning (the EMIB substrate is a conventional laminate).
const ORGANIC_SUBSTRATE_EPLA_FACTOR: f64 = 0.3;
/// Share of the gas + material per-area footprint attributed to a passive
/// (BEOL-only) interposer relative to a full die.
const PASSIVE_INTERPOSER_MATERIAL_FACTOR: f64 = 0.5;
/// Assembly energy per chiplet placement (pick-and-place, die attach, reflow
/// and inspection), in kWh. Makes the HI overhead grow with the chiplet
/// count, as observed in Fig. 10 of the paper.
const PLACEMENT_ENERGY_KWH_PER_CHIPLET: f64 = 0.2;

/// Estimator for package-related embodied carbon.
#[derive(Debug, Clone, Copy)]
pub struct PackageEstimator<'a> {
    db: &'a TechDb,
    packaging_source: EnergySource,
}

impl<'a> PackageEstimator<'a> {
    /// Create an estimator using the given technology database and packaging
    /// fab energy source (`C_pkg,src`).
    pub fn new(db: &'a TechDb, packaging_source: EnergySource) -> Self {
        Self {
            db,
            packaging_source,
        }
    }

    /// The packaging fab energy source.
    pub fn packaging_source(&self) -> EnergySource {
        self.packaging_source
    }

    /// Per-chiplet placement / die-attach assembly CFP.
    fn assembly_cfp(&self, chiplet_count: usize) -> Carbon {
        let energy = ecochip_techdb::Energy::from_kwh(
            PLACEMENT_ENERGY_KWH_PER_CHIPLET * chiplet_count as f64,
        );
        self.packaging_source.carbon_intensity() * energy
    }

    /// Package CFP for the given architecture and floorplan.
    ///
    /// For 2D / 2.5D architectures the floorplan provides the substrate /
    /// interposer area and the chiplet adjacencies (for bridge counting). For
    /// [`PackagingArchitecture::ThreeD`] the placements are interpreted as the
    /// tiers of the stack, bottom-up; use [`PackageEstimator::stack_cfp`]
    /// directly when the tier areas are known explicitly.
    ///
    /// # Errors
    ///
    /// Returns [`PackagingError`] for invalid configurations or missing
    /// technology-node entries.
    pub fn package_cfp(
        &self,
        arch: &PackagingArchitecture,
        floorplan: &Floorplan,
    ) -> Result<PackageCfp, PackagingError> {
        arch.validate()?;
        let chiplet_count = floorplan.placements().len();
        let mut cfp = match arch {
            PackagingArchitecture::RdlFanout(cfg) => self.rdl_cfp(cfg, floorplan.package_area())?,
            PackagingArchitecture::SiliconBridge(cfg) => self.bridge_cfp(cfg, floorplan)?,
            PackagingArchitecture::PassiveInterposer(cfg) => {
                self.passive_interposer_cfp(cfg, floorplan.package_area())?
            }
            PackagingArchitecture::ActiveInterposer(cfg) => {
                self.active_interposer_cfp(cfg, floorplan.package_area())?
            }
            PackagingArchitecture::ThreeD(cfg) => self.tiers_cfp(
                cfg,
                floorplan
                    .placements()
                    .iter()
                    .map(|p| (p.name.as_str(), p.rect.area())),
            )?,
        };
        cfp.assembly = self.assembly_cfp(chiplet_count);
        Ok(cfp)
    }

    /// RDL fanout package CFP (Eq. 9).
    fn rdl_cfp(
        &self,
        cfg: &RdlFanoutConfig,
        package_area: Area,
    ) -> Result<PackageCfp, PackagingError> {
        let params = self.db.node(cfg.tech)?;
        let yield_model = NegativeBinomialYield::new(
            params.defect_density.per_cm2() * RDL_DEFECT_DERATE,
            params.clustering_alpha,
        )?;
        let rdl_yield = yield_model.yield_for(package_area);
        let intensity = self.packaging_source.carbon_intensity();
        let energy = params.epla_rdl * package_area * cfg.layers as f64;
        let substrate = Carbon::from_kg((intensity * energy).kg() * rdl_yield.inflation_factor());
        Ok(PackageCfp {
            substrate,
            bridges: Carbon::ZERO,
            bonding: Carbon::ZERO,
            assembly: Carbon::ZERO,
            assembly_yield: rdl_yield,
            package_area,
            bridge_count: 0,
            bond_count: 0.0,
        })
    }

    /// Silicon-bridge (EMIB) package CFP (Eq. 10) plus the organic build-up
    /// substrate the bridges are embedded in.
    fn bridge_cfp(
        &self,
        cfg: &SiliconBridgeConfig,
        floorplan: &Floorplan,
    ) -> Result<PackageCfp, PackagingError> {
        let params = self.db.node(cfg.tech)?;
        let intensity = self.packaging_source.carbon_intensity();
        let package_area = floorplan.package_area();

        // Bridge counting: one bridge per `bridge_range` of overlapping edge
        // between adjacent chiplets, at least one per interface.
        let mut bridge_count: u32 = 0;
        for adj in floorplan.adjacencies() {
            let spans = (adj.shared_edge.mm() / cfg.bridge_range.mm())
                .ceil()
                .max(1.0);
            bridge_count += spans as u32;
        }

        let bridge_yield_model = NegativeBinomialYield::new(
            params.defect_density.per_cm2() * BRIDGE_DEFECT_MULTIPLIER,
            params.clustering_alpha,
        )?;
        let bridge_yield = bridge_yield_model.yield_for(cfg.bridge_area);
        let per_bridge_energy = params.epla_bridge * cfg.bridge_area * cfg.layers as f64;
        let bridges = Carbon::from_kg(
            (intensity * per_bridge_energy).kg()
                * bridge_count as f64
                * bridge_yield.inflation_factor(),
        );

        // Organic laminate substrate underneath: cheaper per layer than
        // fanout RDL and yields are near-perfect at laminate geometries.
        let substrate_energy = params.epla_rdl
            * package_area
            * (cfg.substrate_layers as f64 * ORGANIC_SUBSTRATE_EPLA_FACTOR);
        let substrate = intensity * substrate_energy;

        Ok(PackageCfp {
            substrate,
            bridges,
            bonding: Carbon::ZERO,
            assembly: Carbon::ZERO,
            assembly_yield: bridge_yield,
            package_area,
            bridge_count,
            bond_count: 0.0,
        })
    }

    /// Passive (BEOL-only) interposer CFP: per layer per area, with the
    /// interposer treated as one large metal-only die.
    fn passive_interposer_cfp(
        &self,
        cfg: &InterposerConfig,
        package_area: Area,
    ) -> Result<PackageCfp, PackagingError> {
        let params = self.db.node(cfg.tech)?;
        let yield_model = NegativeBinomialYield::for_node(params);
        let interposer_yield = yield_model.yield_for(package_area);
        let intensity = self.packaging_source.carbon_intensity();
        let beol_energy = params.epla_bridge * package_area * cfg.beol_layers as f64;
        let material = (params.gas_cfp + params.material_cfp)
            * package_area
            * PASSIVE_INTERPOSER_MATERIAL_FACTOR;
        let substrate = Carbon::from_kg(
            ((intensity * beol_energy) + material).kg() * interposer_yield.inflation_factor(),
        );
        Ok(PackageCfp {
            substrate,
            bridges: Carbon::ZERO,
            bonding: Carbon::ZERO,
            assembly: Carbon::ZERO,
            assembly_yield: interposer_yield,
            package_area,
            bridge_count: 0,
            bond_count: 0.0,
        })
    }

    /// Active interposer CFP: a BEOL stack across the whole interposer plus
    /// FEOL processing in the active (router / repeater) regions, following
    /// the Eq. (6) structure.
    fn active_interposer_cfp(
        &self,
        cfg: &InterposerConfig,
        package_area: Area,
    ) -> Result<PackageCfp, PackagingError> {
        let params = self.db.node(cfg.tech)?;
        let yield_model = NegativeBinomialYield::for_node(params);
        let interposer_yield = yield_model.yield_for(package_area);
        let intensity = self.packaging_source.carbon_intensity();

        // BEOL everywhere.
        let beol_energy = params.epla_bridge * package_area * cfg.beol_layers as f64;
        // FEOL processing (full Eq. 6 energy term) only in the active regions,
        // but masks and front-end steps run on the full wafer, so a floor of
        // 40% of the EPA applies across the whole interposer.
        let feol_share = 0.4 + 0.6 * cfg.active_area_fraction.clamp(0.0, 1.0);
        let feol_energy = params.epa * package_area * (params.equipment_derate * feol_share);
        let material = (params.gas_cfp + params.material_cfp) * package_area;

        let substrate = Carbon::from_kg(
            ((intensity * (beol_energy + feol_energy)) + material).kg()
                * interposer_yield.inflation_factor(),
        );
        Ok(PackageCfp {
            substrate,
            bridges: Carbon::ZERO,
            bonding: Carbon::ZERO,
            assembly: Carbon::ZERO,
            assembly_yield: interposer_yield,
            package_area,
            bridge_count: 0,
            bond_count: 0.0,
        })
    }

    /// 3D stacking CFP (Eq. 11): bond formation energy per TSV / microbump /
    /// hybrid bond plus per-interface wafer bonding, divided by the assembly
    /// yield of all bonds.
    ///
    /// # Errors
    ///
    /// Returns [`PackagingError::InvalidStack`] for stacks with fewer than two
    /// dies or non-positive die areas.
    pub fn stack_cfp(
        &self,
        cfg: &ThreeDConfig,
        stack: &[StackedDie],
    ) -> Result<PackageCfp, PackagingError> {
        self.tiers_cfp(cfg, stack.iter().map(|die| (die.name.as_str(), die.area)))
    }

    /// [`PackageEstimator::stack_cfp`] of the tiers' names and areas, in
    /// bottom-up order, read without collecting them.
    fn tiers_cfp<'n>(
        &self,
        cfg: &ThreeDConfig,
        tiers: impl Iterator<Item = (&'n str, Area)> + Clone,
    ) -> Result<PackageCfp, PackagingError> {
        PackagingArchitecture::ThreeD(*cfg).validate()?;
        let count = tiers.clone().count();
        if count < 2 {
            return Err(PackagingError::InvalidStack(format!(
                "a 3d stack needs at least two dies, got {count}"
            )));
        }
        for (name, area) in tiers.clone() {
            if !area.mm2().is_finite() || area.mm2() <= 0.0 {
                return Err(PackagingError::InvalidStack(format!(
                    "die {name:?} has invalid area {} mm2",
                    area.mm2()
                )));
            }
        }
        let intensity = self.packaging_source.carbon_intensity();

        let mut total_bonds = 0.0;
        let mut bond_energy_kwh = 0.0;
        let mut bonding_energy_kwh = 0.0;
        let mut assembly_yield = DieYield::PERFECT;
        let areas = tiers.clone().map(|(_, area)| area);
        for (lower, upper) in areas.clone().zip(areas.skip(1)) {
            let interface = Area::from_mm2(lower.mm2().min(upper.mm2()));
            let bonds = cfg.bonds_for_interface(interface);
            total_bonds += bonds;
            bond_energy_kwh += bonds * cfg.bond.energy_per_bond_kwh();
            bonding_energy_kwh += cfg.bonding_epa_kwh_per_cm2 * interface.cm2();
            let interface_yield =
                DieYield::from_fraction((1.0 - cfg.bond.bond_failure_probability()).powf(bonds));
            assembly_yield = assembly_yield.and(interface_yield);
        }

        let energy = ecochip_techdb::Energy::from_kwh(bond_energy_kwh + bonding_energy_kwh);
        let bonding =
            Carbon::from_kg((intensity * energy).kg() * assembly_yield.inflation_factor());

        // The 2D footprint of the stack is the largest tier.
        let package_area = tiers
            .map(|(_, area)| area)
            .fold(Area::ZERO, |acc, a| acc.max(a));

        Ok(PackageCfp {
            substrate: Carbon::ZERO,
            bridges: Carbon::ZERO,
            bonding,
            assembly: Carbon::ZERO,
            assembly_yield,
            package_area,
            bridge_count: 0,
            bond_count: total_bonds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::BondTechnology;
    use ecochip_floorplan::{ChipletOutline, FloorplanConfig, SlicingFloorplanner};
    use ecochip_techdb::{Length, TechNode};

    fn db() -> TechDb {
        TechDb::default()
    }

    fn plan(areas: &[f64]) -> Floorplan {
        let chiplets: Vec<ChipletOutline> = areas
            .iter()
            .enumerate()
            .map(|(i, &a)| ChipletOutline::new(format!("c{i}"), Area::from_mm2(a)))
            .collect();
        SlicingFloorplanner::new(FloorplanConfig::default())
            .floorplan(&chiplets)
            .unwrap()
    }

    #[test]
    fn rdl_cfp_scales_linearly_with_layers() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let plan = plan(&[250.0, 125.0, 60.0]);
        let cfp4 = est
            .package_cfp(
                &PackagingArchitecture::RdlFanout(RdlFanoutConfig {
                    layers: 4,
                    tech: TechNode::N65,
                }),
                &plan,
            )
            .unwrap();
        let cfp8 = est
            .package_cfp(
                &PackagingArchitecture::RdlFanout(RdlFanoutConfig {
                    layers: 8,
                    tech: TechNode::N65,
                }),
                &plan,
            )
            .unwrap();
        // The substrate term (Eq. 9) is linear in the layer count; the
        // per-chiplet assembly adder is layer-independent.
        assert!((cfp8.substrate.kg() / cfp4.substrate.kg() - 2.0).abs() < 1e-9);
        assert!((cfp8.assembly.kg() - cfp4.assembly.kg()).abs() < 1e-12);
        assert!(cfp4.assembly.kg() > 0.0);
        assert!(cfp4.total().kg() > 0.0);
        assert_eq!(cfp4.bridge_count, 0);
        assert!(!cfp4.to_string().is_empty());
    }

    #[test]
    fn emib_is_cheapest_for_two_chiplets_and_grows_with_interfaces() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let rdl = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        let emib = PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default());

        let two = plan(&[250.0, 250.0]);
        let rdl_two = est.package_cfp(&rdl, &two).unwrap();
        let emib_two = est.package_cfp(&emib, &two).unwrap();
        assert!(
            emib_two.total().kg() < rdl_two.total().kg(),
            "EMIB {} should beat RDL {} at 2 chiplets",
            emib_two.total(),
            rdl_two.total()
        );
        assert!(emib_two.bridge_count >= 1);

        let eight = plan(&[62.5; 8]);
        let emib_eight = est.package_cfp(&emib, &eight).unwrap();
        assert!(emib_eight.bridge_count > emib_two.bridge_count);
        // Bridge CFP per package grows with the chiplet count.
        assert!(emib_eight.bridges.kg() > emib_two.bridges.kg());
    }

    #[test]
    fn interposer_ordering_active_most_expensive() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let plan = plan(&[250.0, 125.0, 60.0]);
        let rdl = est
            .package_cfp(
                &PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                &plan,
            )
            .unwrap();
        let passive = est
            .package_cfp(
                &PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
                &plan,
            )
            .unwrap();
        let active = est
            .package_cfp(
                &PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
                &plan,
            )
            .unwrap();
        assert!(passive.total().kg() > rdl.total().kg());
        assert!(active.total().kg() > passive.total().kg());
    }

    #[test]
    fn older_packaging_node_is_cheaper_for_active_interposer() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let plan = plan(&[200.0, 100.0, 50.0]);
        let mut totals = Vec::new();
        for tech in [TechNode::N22, TechNode::N28, TechNode::N40, TechNode::N65] {
            let cfp = est
                .package_cfp(
                    &PackagingArchitecture::ActiveInterposer(InterposerConfig {
                        tech,
                        ..InterposerConfig::default()
                    }),
                    &plan,
                )
                .unwrap();
            totals.push(cfp.total().kg());
        }
        // Fig. 11(c): older interposer nodes have lower EPA and lower CFP.
        for pair in totals.windows(2) {
            assert!(
                pair[1] < pair[0],
                "older node should be cheaper: {totals:?}"
            );
        }
    }

    #[test]
    fn larger_bridge_range_needs_fewer_bridges() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let plan = plan(&[400.0, 400.0]);
        let short = est
            .package_cfp(
                &PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
                    bridge_range: Length::from_mm(1.0),
                    ..SiliconBridgeConfig::default()
                }),
                &plan,
            )
            .unwrap();
        let long = est
            .package_cfp(
                &PackagingArchitecture::SiliconBridge(SiliconBridgeConfig {
                    bridge_range: Length::from_mm(4.0),
                    ..SiliconBridgeConfig::default()
                }),
                &plan,
            )
            .unwrap();
        // Fig. 11(b): larger bridge range ⇒ fewer bridges ⇒ lower CFP.
        assert!(long.bridge_count < short.bridge_count);
        assert!(long.total().kg() < short.total().kg());
    }

    #[test]
    fn stack_cfp_counts_bonds_and_penalises_fine_pitch() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let stack = vec![
            StackedDie::new("compute", Area::from_mm2(100.0)),
            StackedDie::new("sram0", Area::from_mm2(80.0)),
            StackedDie::new("sram1", Area::from_mm2(80.0)),
        ];
        let coarse = est
            .stack_cfp(&ThreeDConfig::microbump(Length::from_um(45.0)), &stack)
            .unwrap();
        let fine = est
            .stack_cfp(&ThreeDConfig::microbump(Length::from_um(10.0)), &stack)
            .unwrap();
        // Fig. 11(d): larger pitches mean fewer bonds, better yield, lower CFP.
        assert!(coarse.bond_count < fine.bond_count);
        assert!(coarse.total().kg() < fine.total().kg());
        assert!(coarse.assembly_yield > fine.assembly_yield);
        assert!((coarse.package_area.mm2() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_bonding_is_cheaper_per_bond_than_tsv() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let stack = vec![
            StackedDie::new("a", Area::from_mm2(50.0)),
            StackedDie::new("b", Area::from_mm2(50.0)),
        ];
        let tsv = est
            .stack_cfp(&ThreeDConfig::tsv(Length::from_um(25.0)), &stack)
            .unwrap();
        let hybrid = est
            .stack_cfp(&ThreeDConfig::hybrid(Length::from_um(25.0)), &stack)
            .unwrap();
        assert!(hybrid.total().kg() < tsv.total().kg());
        assert_eq!(tsv.bond_count, hybrid.bond_count);
        assert_eq!(
            BondTechnology::Tsv.default_pitch().um(),
            BondTechnology::Microbump.default_pitch().um()
        );
    }

    #[test]
    fn three_d_via_floorplan_entry_point() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        let plan = plan(&[100.0, 100.0]);
        let cfp = est
            .package_cfp(
                &PackagingArchitecture::ThreeD(ThreeDConfig::default()),
                &plan,
            )
            .unwrap();
        assert!(cfp.bonding.kg() > 0.0);
        assert!(cfp.bond_count > 0.0);
        assert_eq!(cfp.substrate.kg(), 0.0);
    }

    #[test]
    fn invalid_stacks_rejected() {
        let db = db();
        let est = PackageEstimator::new(&db, EnergySource::Coal);
        assert!(matches!(
            est.stack_cfp(&ThreeDConfig::default(), &[]),
            Err(PackagingError::InvalidStack(_))
        ));
        let one = vec![StackedDie::new("only", Area::from_mm2(10.0))];
        assert!(est.stack_cfp(&ThreeDConfig::default(), &one).is_err());
        let bad = vec![
            StackedDie::new("a", Area::from_mm2(10.0)),
            StackedDie::new("b", Area::ZERO),
        ];
        assert!(est.stack_cfp(&ThreeDConfig::default(), &bad).is_err());
    }

    #[test]
    fn cleaner_packaging_energy_reduces_cfp() {
        let db = db();
        let plan = plan(&[250.0, 125.0]);
        let arch = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        let coal = PackageEstimator::new(&db, EnergySource::Coal)
            .package_cfp(&arch, &plan)
            .unwrap();
        let wind = PackageEstimator::new(&db, EnergySource::Wind)
            .package_cfp(&arch, &plan)
            .unwrap();
        assert!(wind.total().kg() < coal.total().kg() / 10.0);
        assert_eq!(
            PackageEstimator::new(&db, EnergySource::Wind).packaging_source(),
            EnergySource::Wind
        );
    }
}
