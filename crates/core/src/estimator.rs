//! The ECO-CHIP total-CFP estimator.

use std::sync::Arc;

use ecochip_act::{ActBreakdown, ActEstimator};
use ecochip_design::{gates_from_transistors, DesignEstimator};
use ecochip_floorplan::{ChipletOutline, Floorplan, SlicingFloorplanner};
use ecochip_packaging::{CommOverheads, CommunicationEstimator, PackageEstimator};
use ecochip_power::OperationalEstimator;
use ecochip_techdb::{Area, Carbon, TechNode, TimeSpan};
use ecochip_yield::NegativeBinomialYield;

use crate::config::EstimatorConfig;
use crate::error::EcoChipError;
use crate::manufacturing::ManufacturingModel;
use crate::report::{CarbonReport, ChipletReport, HiBreakdown};
use crate::sweep::SweepContext;
use crate::system::System;

/// The ECO-CHIP estimator.
///
/// Construct it once with an [`EstimatorConfig`] and call
/// [`EcoChip::estimate`] for every [`System`] of interest; the estimator is
/// cheap to clone and borrows nothing, so it can be reused across sweeps.
#[derive(Debug, Clone)]
pub struct EcoChip {
    config: EstimatorConfig,
    /// [`ManufacturingModel::memo_bits`] of every node in the database, by
    /// node ordinal (`None` for nodes the database lacks): computed once
    /// here instead of on every memoized manufacturing lookup.
    memo_bits: [Option<u64>; TechNode::ALL.len()],
}

impl Default for EcoChip {
    fn default() -> Self {
        Self::new(EstimatorConfig::default())
    }
}

impl EcoChip {
    /// Create an estimator with the given configuration.
    pub fn new(config: EstimatorConfig) -> Self {
        let model = Self::manufacturing_model(&config);
        let memo_bits = TechNode::ALL.map(|node| model.memo_bits(node).ok());
        Self { config, memo_bits }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// The manufacturing model `config` describes.
    fn manufacturing_model(config: &EstimatorConfig) -> ManufacturingModel<'_> {
        let model = ManufacturingModel::new(&config.techdb, config.wafer, config.fab_source);
        if config.include_wafer_wastage {
            model
        } else {
            model.without_wastage()
        }
    }

    /// Push the name and derived base area of every chiplet of a system,
    /// in order, onto `areas` — the input of the floorplan stage, borrowed
    /// from `system`.
    fn push_chiplet_areas<'s>(
        &self,
        system: &'s System,
        areas: &mut Vec<(&'s str, Area)>,
    ) -> Result<(), EcoChipError> {
        let db = &self.config.techdb;
        areas.reserve(system.chiplets.len());
        for chiplet in &system.chiplets {
            areas.push((chiplet.name.as_str(), chiplet.area(db)?));
        }
        Ok(())
    }

    /// Floorplan the chiplets of a system (exposed for package-area studies).
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] when areas cannot be derived or the
    /// floorplanner rejects the input.
    pub fn floorplan(&self, system: &System) -> Result<Floorplan, EcoChipError> {
        self.floorplan_with(system, &SweepContext::disabled())
    }

    /// Floorplan a system, consulting a sweep memo for the outline set.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] when areas cannot be derived or the
    /// floorplanner rejects the input.
    pub fn floorplan_with(
        &self,
        system: &System,
        context: &SweepContext,
    ) -> Result<Floorplan, EcoChipError> {
        let mut areas = Vec::new();
        self.push_chiplet_areas(system, &mut areas)?;
        self.shared_floorplan(&areas, context)
            .map(Arc::unwrap_or_clone)
    }

    /// The floorplan stage through the memo.
    fn shared_floorplan(
        &self,
        chiplets: &[(&str, Area)],
        context: &SweepContext,
    ) -> Result<Arc<Floorplan>, EcoChipError> {
        context.floorplan(&self.config.floorplan, chiplets, || self.plan(chiplets))
    }

    /// Floorplan the square `chiplets` outlines (name and area, in order).
    fn plan(&self, chiplets: &[(&str, Area)]) -> Result<Floorplan, EcoChipError> {
        let outlines: Vec<ChipletOutline> = chiplets
            .iter()
            .map(|&(name, area)| ChipletOutline::new(name, area))
            .collect();
        Ok(SlicingFloorplanner::new(self.config.floorplan).floorplan(&outlines)?)
    }

    /// Estimate the full carbon report of a system (Eqs. 1–3).
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] when the system description is inconsistent,
    /// a technology node is missing from the database, a die does not fit on
    /// the configured wafer, or a packaging configuration is invalid.
    pub fn estimate(&self, system: &System) -> Result<CarbonReport, EcoChipError> {
        self.estimate_with(system, &SweepContext::disabled())
    }

    /// Estimate the full carbon report of a system, consulting (and filling)
    /// a sweep memo for the floorplan and per-die manufacturing stages.
    ///
    /// Sweep axes that do not perturb a stage's inputs reuse its cached
    /// result; reports are bit-for-bit identical to [`EcoChip::estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] when the system description is inconsistent,
    /// a technology node is missing from the database, a die does not fit on
    /// the configured wafer, or a packaging configuration is invalid.
    pub fn estimate_with(
        &self,
        system: &System,
        context: &SweepContext,
    ) -> Result<CarbonReport, EcoChipError> {
        let mut report = CarbonReport::empty();
        self.estimate_into(
            system,
            context,
            &mut EstimateScratch::default(),
            &mut report,
        )?;
        Ok(report)
    }

    /// [`EcoChip::estimate_with`] into `report`, also returning the
    /// [`PriceBasis`] that re-prices it for another lifetime or volume
    /// scenario of the same system.
    ///
    /// The report is refilled in place and the stages' working vectors
    /// live in `scratch`, so once both have grown to a system's chiplet
    /// count and names, estimating a system no larger allocates nothing
    /// but its memo misses. On error `report` holds a partial estimate.
    pub(crate) fn estimate_into(
        &self,
        system: &System,
        context: &SweepContext,
        scratch: &mut EstimateScratch,
        report: &mut CarbonReport,
    ) -> Result<PriceBasis, EcoChipError> {
        let mut areas = recycle(std::mem::take(&mut scratch.areas));
        let basis = self.fill_report(system, context, &mut areas, scratch, report);
        scratch.areas = recycle(areas);
        basis
    }

    /// The body of [`EcoChip::estimate_into`], with the chiplet-area
    /// buffer borrowing `system`'s names.
    fn fill_report<'s>(
        &self,
        system: &'s System,
        context: &SweepContext,
        areas: &mut Vec<(&'s str, Area)>,
        scratch: &mut EstimateScratch,
        report: &mut CarbonReport,
    ) -> Result<PriceBasis, EcoChipError> {
        let db = &self.config.techdb;
        // The chiplet areas feed both the floorplan stage and the per-chiplet
        // loop below, so every area is derived once.
        self.push_chiplet_areas(system, areas)?;
        // A disabled context is bypassed rather than consulted, so a cold
        // estimate pays for no shared handle and no memo call per stage.
        let (planned, shared);
        let floorplan: &Floorplan = if context.is_enabled() {
            shared = self.shared_floorplan(areas, context)?;
            &shared
        } else {
            planned = self.plan(areas)?;
            &planned
        };

        // --- Inter-die communication overheads -------------------------------
        let comm = &mut scratch.comm;
        if system.is_monolithic() {
            comm.reset(1);
        } else {
            let nodes = &mut scratch.nodes;
            nodes.clear();
            nodes.extend(system.chiplets.iter().map(|chiplet| chiplet.node));
            CommunicationEstimator::new(db, self.config.comm).overheads_into(
                &system.packaging,
                nodes,
                floorplan,
                comm,
            )?;
        }

        // --- Per-chiplet manufacturing ---------------------------------------
        let mfg_model = Self::manufacturing_model(&self.config);
        let mut lookups = context.manufacturing_lookups(&mfg_model);

        let entries = &mut report.chiplets;
        entries.truncate(system.chiplets.len());
        entries.reserve_exact(system.chiplets.len() - entries.len());
        for (i, (chiplet, &(_, base_area))) in system.chiplets.iter().zip(&*areas).enumerate() {
            let comm_area = comm
                .chiplet_extra_area
                .get(i)
                .copied()
                .unwrap_or(Area::ZERO);
            let manufacturing = lookups.get(
                self.memo_bits[chiplet.node as usize],
                base_area + comm_area,
                chiplet.node,
            )?;
            let entry = ChipletReport {
                name: String::new(),
                node: chiplet.node,
                base_area,
                comm_area,
                manufacturing,
                // Set by `price` below.
                design: Carbon::ZERO,
            };
            // A refilled entry keeps its name's buffer.
            match entries.get_mut(i) {
                Some(old) => {
                    *old = ChipletReport {
                        name: std::mem::take(&mut old.name),
                        ..entry
                    }
                }
                None => entries.push(entry),
            }
            entries[i].name.clone_from(&chiplet.name);
        }
        drop(lookups);

        // --- HI overheads -----------------------------------------------------
        let hi = if system.is_monolithic() {
            HiBreakdown::none()
        } else {
            let package = PackageEstimator::new(db, self.config.packaging_source)
                .package_cfp(&system.packaging, floorplan)?;
            let interposer_comm =
                self.interposer_comm_cfp(comm.interposer_logic_area, comm.interposer_node)?;
            HiBreakdown {
                package: package.total(),
                interposer_comm,
                package_area: package.package_area,
                whitespace_area: floorplan.whitespace_area(),
                assembly_yield: package.assembly_yield,
                comm_power: comm.total_power,
            }
        };

        // --- Operational CFP ---------------------------------------------------
        let operational = OperationalEstimator::new(self.config.operational_source);
        let operational_per_year = operational.annual_cfp(&system.usage, hi.comm_power);

        let basis = PriceBasis {
            interposer_logic_area: comm.interposer_logic_area,
            interposer_node: comm.interposer_node,
        };
        let mut system_name = std::mem::take(&mut report.system_name);
        system_name.clone_from(&system.name);
        *report = CarbonReport {
            system_name,
            chiplets: std::mem::take(&mut report.chiplets),
            hi,
            // Set by `price` below.
            comm_design: Carbon::ZERO,
            operational_per_year,
            lifetime: TimeSpan::ZERO,
        };
        self.price(system, &basis, report)?;
        Ok(basis)
    }

    /// The pricing step that ends every estimate: set the terms that
    /// depend on the system's volumes and lifetime, and nothing else —
    /// each chiplet's `design` (`C_des,i / NMi`), `comm_design`
    /// (`C_des,comm / NS`, Eq. 12) and the `lifetime` Eq. 1 multiplies the
    /// operational CFP by.
    ///
    /// `report` must hold an estimate of a system that differs from
    /// `system` at most in `lifetime` and `volumes`, with the `basis` that
    /// estimate returned; the sweep engine re-prices a scalar step this
    /// way, through the same expressions as a full estimate, so the two
    /// agree bit for bit.
    pub(crate) fn price(
        &self,
        system: &System,
        basis: &PriceBasis,
        report: &mut CarbonReport,
    ) -> Result<(), EcoChipError> {
        let db = &self.config.techdb;
        let design_model = DesignEstimator::new(db, self.config.design);
        for (chiplet, priced) in system.chiplets.iter().zip(&mut report.chiplets) {
            let transistors = chiplet.transistors(db)?;
            let gates = gates_from_transistors(transistors)
                * self.config.design_effort_factor(chiplet.design_type);
            priced.design = design_model
                .amortized_chiplet_cfp(gates, chiplet.node, &system.volumes)
                .map_err(EcoChipError::from)?;
        }
        report.comm_design =
            self.comm_design_cfp(system, &report.chiplets, basis, &design_model)?;
        report.lifetime = system.lifetime;
        Ok(())
    }

    /// Embodied CFP of the same system as the ACT baseline would report it
    /// (fixed 150 g package, no design CFP, no wafer wastage) — the
    /// comparison of Fig. 7(c).
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError`] for missing nodes or invalid areas.
    pub fn act_embodied(&self, system: &System) -> Result<ActBreakdown, EcoChipError> {
        let db = &self.config.techdb;
        let mut dies = Vec::with_capacity(system.chiplets.len());
        for chiplet in &system.chiplets {
            dies.push((chiplet.area(db)?, chiplet.node));
        }
        ActEstimator::new(db, self.config.fab_source)
            .system_embodied(&dies)
            .map_err(|e| EcoChipError::InvalidSystem(format!("act baseline failed: {e}")))
    }

    /// Manufacturing CFP of communication logic implemented in the interposer
    /// (`C_mfg,comm = CFPA × A_router` for active interposers).
    fn interposer_comm_cfp(
        &self,
        area: Area,
        node: Option<TechNode>,
    ) -> Result<Carbon, EcoChipError> {
        let Some(node) = node else {
            return Ok(Carbon::ZERO);
        };
        if area.mm2() <= 0.0 {
            return Ok(Carbon::ZERO);
        }
        let db = &self.config.techdb;
        let params = db.node(node)?;
        let y = NegativeBinomialYield::for_node(params).yield_for(area);
        let mfg_model = ManufacturingModel::new(db, self.config.wafer, self.config.fab_source);
        let cfpa = mfg_model.cfpa(node, y)?;
        Ok(cfpa * area)
    }

    /// Design CFP of the communication fabric, amortised per system
    /// (`C_des,comm / NS` in Eq. 12): the chiplets' `comm_area` logic,
    /// then the interposer's.
    fn comm_design_cfp(
        &self,
        system: &System,
        chiplets: &[ChipletReport],
        basis: &PriceBasis,
        design_model: &DesignEstimator<'_>,
    ) -> Result<Carbon, EcoChipError> {
        let db = &self.config.techdb;
        let mut total = Carbon::ZERO;
        for (chiplet, report) in system.chiplets.iter().zip(chiplets) {
            let area = report.comm_area;
            if area.mm2() <= 0.0 {
                continue;
            }
            let transistors =
                db.node(chiplet.node)?.logic_density.transistors_per_mm2() * area.mm2();
            let gates = gates_from_transistors(transistors);
            total += design_model
                .amortized_comm_cfp(gates, chiplet.node, &system.volumes)
                .map_err(EcoChipError::from)?;
        }
        let area = basis.interposer_logic_area;
        if let (Some(node), true) = (basis.interposer_node, area.mm2() > 0.0) {
            let transistors = db.node(node)?.logic_density.transistors_per_mm2() * area.mm2();
            let gates = gates_from_transistors(transistors);
            total += design_model
                .amortized_comm_cfp(gates, node, &system.volumes)
                .map_err(EcoChipError::from)?;
        }
        Ok(total)
    }
}

/// The working vectors of [`EcoChip::estimate_into`], kept by its caller
/// between estimates so they are allocated once, not per estimate.
#[derive(Debug, Clone)]
pub(crate) struct EstimateScratch {
    /// The chiplet-area buffer, empty between estimates: during one, its
    /// names borrow that estimate's system (see [`recycle`]).
    areas: Vec<(&'static str, Area)>,
    /// The chiplet nodes the communication stage reads.
    nodes: Vec<TechNode>,
    /// The communication stage's output.
    comm: CommOverheads,
}

impl Default for EstimateScratch {
    fn default() -> Self {
        Self {
            areas: Vec::new(),
            nodes: Vec::new(),
            comm: CommOverheads::none(0),
        }
    }
}

/// `buffer`, emptied and retyped to borrow for another lifetime. The
/// element layout is the same, so the collect reuses the allocation.
fn recycle<'b>(mut buffer: Vec<(&str, Area)>) -> Vec<(&'b str, Area)> {
    buffer.clear();
    buffer
        .into_iter()
        .map(|_| unreachable!("the buffer is empty"))
        .collect()
}

/// What [`EcoChip::price`] needs beyond the report it re-prices: the
/// communication logic implemented in an active interposer, which the
/// report does not carry (the chiplets' communication areas are in it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PriceBasis {
    interposer_logic_area: Area,
    interposer_node: Option<TechNode>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Chiplet, ChipletSize};
    use ecochip_packaging::{
        InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig,
    };
    use ecochip_power::UsageProfile;
    use ecochip_techdb::{DesignType, Energy, TimeSpan};

    fn gpu_like_monolith() -> System {
        System::builder("gpu-monolith")
            .chiplet(Chiplet::new(
                "soc",
                DesignType::Logic,
                TechNode::N7,
                ChipletSize::Transistors(28.0e9),
            ))
            .usage(UsageProfile::Measured {
                energy_per_year: Energy::from_kwh(228.0),
            })
            .lifetime(TimeSpan::from_years(2.0))
            .build()
            .unwrap()
    }

    fn gpu_like_3chiplet(packaging: PackagingArchitecture) -> System {
        System::builder("gpu-3chiplet")
            .chiplets([
                Chiplet::new(
                    "digital",
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(22.0e9),
                ),
                Chiplet::new(
                    "memory",
                    DesignType::Memory,
                    TechNode::N14,
                    ChipletSize::Transistors(5.0e9),
                ),
                Chiplet::new(
                    "analog",
                    DesignType::Analog,
                    TechNode::N10,
                    ChipletSize::Transistors(1.0e9),
                ),
            ])
            .packaging(packaging)
            .usage(UsageProfile::Measured {
                energy_per_year: Energy::from_kwh(228.0),
            })
            .lifetime(TimeSpan::from_years(2.0))
            .build()
            .unwrap()
    }

    #[test]
    fn monolith_report_has_no_hi_overheads() {
        let est = EcoChip::default();
        let report = est.estimate(&gpu_like_monolith()).unwrap();
        assert_eq!(report.hi_overhead().kg(), 0.0);
        assert_eq!(report.hi.comm_power.watts(), 0.0);
        assert_eq!(report.chiplets.len(), 1);
        assert!(report.manufacturing().kg() > 10.0);
        assert!(report.design().kg() > 0.0);
        assert!(report.operational().kg() > 100.0);
        assert!(report.total().kg() > report.embodied().kg());
        assert!(report.embodied_fraction() > 0.0 && report.embodied_fraction() < 1.0);
    }

    #[test]
    fn chiplet_system_has_hi_overheads_but_lower_embodied() {
        // The headline result: disaggregation with node mix-and-match lowers
        // embodied CFP despite packaging overheads.
        let est = EcoChip::default();
        let mono = est.estimate(&gpu_like_monolith()).unwrap();
        let hi = est
            .estimate(&gpu_like_3chiplet(PackagingArchitecture::RdlFanout(
                RdlFanoutConfig::default(),
            )))
            .unwrap();
        assert!(hi.hi_overhead().kg() > 0.0);
        assert!(hi.hi.package_area.mm2() > hi.silicon_area().mm2() * 0.8);
        assert!(
            hi.embodied().kg() < mono.embodied().kg(),
            "3-chiplet embodied {} should be below monolithic {}",
            hi.embodied(),
            mono.embodied()
        );
        // The saving is in the 10-70% band the paper reports.
        let saving = 1.0 - hi.embodied().kg() / mono.embodied().kg();
        assert!(
            (0.05..=0.75).contains(&saving),
            "embodied saving {saving} outside the paper's band"
        );
    }

    #[test]
    fn act_baseline_underestimates_embodied() {
        // Fig. 7(c): ACT reports a lower embodied CFP because it ignores
        // design CFP, real packaging and wafer wastage.
        let est = EcoChip::default();
        let system =
            gpu_like_3chiplet(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()));
        let eco = est.estimate(&system).unwrap();
        let act = est.act_embodied(&system).unwrap();
        assert!(act.total().kg() < eco.embodied().kg());
        // ACT's packaging term is the fixed 150 g.
        assert!((act.packaging.grams() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn active_interposer_adds_interposer_comm_carbon() {
        let est = EcoChip::default();
        let active = est
            .estimate(&gpu_like_3chiplet(PackagingArchitecture::ActiveInterposer(
                InterposerConfig::default(),
            )))
            .unwrap();
        let passive = est
            .estimate(&gpu_like_3chiplet(
                PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            ))
            .unwrap();
        assert!(active.hi.interposer_comm.kg() > 0.0);
        assert_eq!(passive.hi.interposer_comm.kg(), 0.0);
        // Passive interposers put routers in the chiplets instead.
        let passive_comm_area: f64 = passive.chiplets.iter().map(|c| c.comm_area.mm2()).sum();
        let active_comm_area: f64 = active.chiplets.iter().map(|c| c.comm_area.mm2()).sum();
        assert!(passive_comm_area > active_comm_area);
        // Interposer-based packages cost more than RDL fanout.
        let rdl = est
            .estimate(&gpu_like_3chiplet(PackagingArchitecture::RdlFanout(
                RdlFanoutConfig::default(),
            )))
            .unwrap();
        assert!(active.hi_overhead().kg() > rdl.hi_overhead().kg());
    }

    #[test]
    fn emib_reports_bridges_and_small_comm_power() {
        let est = EcoChip::default();
        let emib = est
            .estimate(&gpu_like_3chiplet(PackagingArchitecture::SiliconBridge(
                SiliconBridgeConfig::default(),
            )))
            .unwrap();
        assert!(emib.hi.package.kg() > 0.0);
        assert!(emib.hi.comm_power.watts() > 0.0);
        assert!(emib.hi.whitespace_area.mm2() > 0.0);
    }

    #[test]
    fn comm_power_raises_operational_cfp() {
        let est = EcoChip::default();
        let mono = est.estimate(&gpu_like_monolith()).unwrap();
        let hi = est
            .estimate(&gpu_like_3chiplet(
                PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            ))
            .unwrap();
        assert!(hi.operational_per_year.kg() > mono.operational_per_year.kg());
    }

    #[test]
    fn wastage_toggle_changes_manufacturing() {
        let system = gpu_like_monolith();
        let with = EcoChip::new(EstimatorConfig::default());
        let without = EcoChip::new(
            EstimatorConfig::builder()
                .include_wafer_wastage(false)
                .build(),
        );
        let a = with.estimate(&system).unwrap();
        let b = without.estimate(&system).unwrap();
        assert!(a.manufacturing().kg() > b.manufacturing().kg());
    }

    #[test]
    fn report_lifetime_matches_system() {
        let est = EcoChip::default();
        let sys = gpu_like_monolith().with_lifetime(TimeSpan::from_years(5.0));
        let report = est.estimate(&sys).unwrap();
        assert!((report.lifetime.years() - 5.0).abs() < 1e-9);
        assert!((report.operational().kg() - 5.0 * report.operational_per_year.kg()).abs() < 1e-9);
    }

    #[test]
    fn floorplan_is_exposed() {
        let est = EcoChip::default();
        let plan = est
            .floorplan(&gpu_like_3chiplet(PackagingArchitecture::RdlFanout(
                RdlFanoutConfig::default(),
            )))
            .unwrap();
        assert_eq!(plan.placements().len(), 3);
        assert!(plan.package_area().mm2() > 0.0);
    }

    #[test]
    fn warm_context_spans_requests_and_stays_exact() {
        let estimator = EcoChip::default();
        let context = SweepContext::new();
        let system =
            gpu_like_3chiplet(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()));
        let first = estimator.estimate_with(&system, &context).unwrap();
        assert_eq!(context.stats().floorplan_misses, 1);
        let second = estimator.estimate_with(&system, &context).unwrap();
        assert_eq!(context.stats().floorplan_hits, 1);
        assert_eq!(first, second);
        // Bit-for-bit identical to a cold estimator.
        let cold = EcoChip::default().estimate(&system).unwrap();
        assert_eq!(cold, second);
        assert_eq!(cold.total().kg().to_bits(), second.total().kg().to_bits());
    }

    #[test]
    fn refilled_reports_match_fresh_estimates() {
        // One report and scratch refilled across systems that grow, shrink
        // and fail must read exactly as a fresh estimate of each.
        let est = EcoChip::default();
        let rdl = PackagingArchitecture::RdlFanout(RdlFanoutConfig::default());
        let five = System::builder("five")
            .chiplets((0..5).map(|i| {
                Chiplet::new(
                    format!("a-much-longer-chiplet-name-{i}"),
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(3.0e9),
                )
            }))
            .packaging(rdl)
            .build()
            .unwrap();
        // Its last die does not fit on a wafer, so its estimate fails
        // after refilling the entries before it.
        let oversized = System::builder("oversized")
            .chiplets((0..4).map(|i| {
                let transistors = if i == 3 { 1.0e13 } else { 1.0e9 };
                Chiplet::new(
                    format!("die-{i}"),
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(transistors),
                )
            }))
            .packaging(rdl)
            .build()
            .unwrap();
        let systems = [
            gpu_like_3chiplet(rdl),
            five.clone(),
            gpu_like_monolith(),
            gpu_like_3chiplet(PackagingArchitecture::ThreeD(Default::default())),
            five,
            gpu_like_3chiplet(PackagingArchitecture::ActiveInterposer(
                InterposerConfig::default(),
            )),
        ];
        for context in [SweepContext::new(), SweepContext::disabled()] {
            let mut scratch = EstimateScratch::default();
            let mut report = CarbonReport::empty();
            for (i, system) in systems.iter().enumerate() {
                if i == 2 {
                    // A failed estimate leaves a partial report behind.
                    assert!(est
                        .estimate_into(&oversized, &context, &mut scratch, &mut report)
                        .is_err());
                    assert_eq!(report.chiplets[2].name, "die-2");
                }
                est.estimate_into(system, &context, &mut scratch, &mut report)
                    .unwrap();
                let fresh = est.estimate(system).unwrap();
                assert_eq!(report, fresh, "{}", system.name);
                assert_eq!(report.total().kg().to_bits(), fresh.total().kg().to_bits());
            }
        }
    }

    #[test]
    fn config_accessor() {
        let est = EcoChip::default();
        assert!(est.config().include_wafer_wastage);
    }

    #[test]
    fn memo_bits_table_is_indexed_by_node_ordinal() {
        // The table is indexed by `node as usize`, the node's position in
        // `TechNode::ALL`.
        let est = EcoChip::new(
            EstimatorConfig::builder()
                .include_wafer_wastage(false)
                .build(),
        );
        let model = EcoChip::manufacturing_model(est.config());
        for (ordinal, node) in TechNode::ALL.into_iter().enumerate() {
            assert_eq!(node as usize, ordinal);
            assert_eq!(est.memo_bits[ordinal], model.memo_bits(node).ok());
        }
    }
}
