//! Inter-die communication overheads (`C_mfg,comm` inputs, Section III-D(2)).
//!
//! The estimator decides *where* the communication circuitry lives for each
//! packaging architecture and returns the extra silicon area per chiplet, the
//! extra logic area on the interposer (active interposers only) and the total
//! communication power. The caller (the core estimator) folds the chiplet
//! areas into the per-chiplet manufacturing CFP — degrading chiplet yield as
//! the paper describes — and prices the interposer logic area at the
//! interposer node.

use serde::{Deserialize, Serialize};

use ecochip_floorplan::Floorplan;
use ecochip_noc::{phy_estimate, RouterConfig, RouterEstimator, TrafficProfile};
use ecochip_techdb::{Area, Power, TechDb, TechNode};

use crate::arch::PackagingArchitecture;
use crate::error::PackagingError;

/// Configuration of the inter-die communication fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommConfig {
    /// Router microarchitecture (512-bit flits by default, per Table I).
    pub router: RouterConfig,
    /// Sustained traffic used for the power estimate.
    pub traffic: TrafficProfile,
    /// Fraction of a full router that a network-interface controller (NIC)
    /// occupies when the router itself lives in the interposer.
    pub nic_fraction: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            traffic: TrafficProfile::default(),
            nic_fraction: 0.25,
        }
    }
}

/// Communication-circuitry overheads for one system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommOverheads {
    /// Extra silicon area added to each chiplet (indexed like the chiplet
    /// list / floorplan placements): routers for passive interposers, NICs
    /// for active interposers, D2D PHYs for RDL / EMIB, vertical-interface
    /// logic for 3D stacks.
    pub chiplet_extra_area: Vec<Area>,
    /// Router / repeater logic area implemented *in* the interposer (active
    /// interposers only; zero otherwise).
    pub interposer_logic_area: Area,
    /// Technology node of the interposer logic area, when present.
    pub interposer_node: Option<TechNode>,
    /// Total communication power (routers + NICs + PHYs), added to the
    /// operational energy model.
    pub total_power: Power,
}

impl CommOverheads {
    /// Total extra chiplet silicon area across all chiplets.
    pub fn total_chiplet_area(&self) -> Area {
        self.chiplet_extra_area.iter().copied().sum()
    }

    /// A zero-overhead value for monolithic (single-die) systems.
    pub fn none(chiplet_count: usize) -> Self {
        Self {
            chiplet_extra_area: vec![Area::ZERO; chiplet_count],
            interposer_logic_area: Area::ZERO,
            interposer_node: None,
            total_power: Power::ZERO,
        }
    }

    /// Overwrite `self` with [`CommOverheads::none`] for `chiplet_count`
    /// chiplets, reusing the area buffer.
    pub fn reset(&mut self, chiplet_count: usize) {
        self.chiplet_extra_area.clear();
        self.chiplet_extra_area.resize(chiplet_count, Area::ZERO);
        self.interposer_logic_area = Area::ZERO;
        self.interposer_node = None;
        self.total_power = Power::ZERO;
    }
}

/// Estimator for inter-die communication overheads.
#[derive(Debug, Clone, Copy)]
pub struct CommunicationEstimator<'a> {
    db: &'a TechDb,
    config: CommConfig,
}

impl<'a> CommunicationEstimator<'a> {
    /// Create an estimator over the given technology database.
    pub fn new(db: &'a TechDb, config: CommConfig) -> Self {
        Self { db, config }
    }

    /// The communication configuration in use.
    pub fn config(&self) -> &CommConfig {
        &self.config
    }

    /// Communication overheads for `chiplet_nodes[i]` chiplets placed by
    /// `floorplan` and packaged with `arch`.
    ///
    /// Single-chiplet systems have no inter-die communication and return
    /// [`CommOverheads::none`].
    ///
    /// # Errors
    ///
    /// Returns [`PackagingError`] for missing technology nodes or invalid
    /// router configurations.
    pub fn overheads(
        &self,
        arch: &PackagingArchitecture,
        chiplet_nodes: &[TechNode],
        floorplan: &Floorplan,
    ) -> Result<CommOverheads, PackagingError> {
        let mut overheads = CommOverheads::none(0);
        self.overheads_into(arch, chiplet_nodes, floorplan, &mut overheads)?;
        Ok(overheads)
    }

    /// [`CommunicationEstimator::overheads`], written into `out` so a
    /// caller that estimates many systems reuses its area buffer. On error
    /// `out` holds a partial result.
    ///
    /// # Errors
    ///
    /// As [`CommunicationEstimator::overheads`].
    pub fn overheads_into(
        &self,
        arch: &PackagingArchitecture,
        chiplet_nodes: &[TechNode],
        floorplan: &Floorplan,
        out: &mut CommOverheads,
    ) -> Result<(), PackagingError> {
        out.reset(chiplet_nodes.len());
        if chiplet_nodes.len() <= 1 {
            return Ok(());
        }

        match arch {
            PackagingArchitecture::RdlFanout(_) | PackagingArchitecture::SiliconBridge(_) => {
                self.phy_overheads(chiplet_nodes, floorplan, out)
            }
            PackagingArchitecture::PassiveInterposer(_) => {
                self.passive_interposer_overheads(chiplet_nodes, out)
            }
            PackagingArchitecture::ActiveInterposer(cfg) => {
                self.active_interposer_overheads(chiplet_nodes, cfg.tech, out)
            }
            PackagingArchitecture::ThreeD(_) => self.three_d_overheads(chiplet_nodes, out),
        }
    }

    // The per-architecture steps below fill an `out` that `overheads_into`
    // has reset: one zero area per chiplet, no interposer logic, no power.

    /// RDL / EMIB: one die-to-die PHY endpoint per interface per chiplet.
    fn phy_overheads(
        &self,
        chiplet_nodes: &[TechNode],
        floorplan: &Floorplan,
        out: &mut CommOverheads,
    ) -> Result<(), PackagingError> {
        // Each chiplet's area slot first counts its interfaces (whole
        // numbers, exact in `f64`), then becomes that many PHYs' area.
        let areas = &mut out.chiplet_extra_area;
        for adj in floorplan.adjacencies() {
            for end in [adj.a, adj.b] {
                if let Some(count) = areas.get_mut(end) {
                    *count += Area::from_mm2(1.0);
                }
            }
        }
        let mut power = Power::ZERO;
        let lanes = self.config.router.flit_width_bits;
        let bandwidth = self.config.traffic.bandwidth_gbps;
        for (area, &node) in areas.iter_mut().zip(chiplet_nodes) {
            // Every chiplet needs at least one PHY to reach the rest of the
            // system even if the floorplan reports no direct abutment.
            let interfaces = area.mm2().max(1.0);
            let params = self.db.node(node)?;
            let phy = phy_estimate(params, lanes, bandwidth);
            *area = phy.area * interfaces;
            power += phy.power * interfaces;
        }
        out.total_power = power;
        Ok(())
    }

    /// Passive interposer: a full router (plus NIC) inside every chiplet, in
    /// the chiplet's own (advanced) node.
    fn passive_interposer_overheads(
        &self,
        chiplet_nodes: &[TechNode],
        out: &mut CommOverheads,
    ) -> Result<(), PackagingError> {
        let estimator = RouterEstimator::with_traffic(self.config.router, self.config.traffic);
        let mut power = Power::ZERO;
        for (area, &node) in out.chiplet_extra_area.iter_mut().zip(chiplet_nodes) {
            let params = self.db.node(node)?;
            let router = estimator.estimate(params)?;
            *area = router.area;
            power += router.total_power();
        }
        out.total_power = power;
        Ok(())
    }

    /// Active interposer: routers move into the interposer (mature node);
    /// each chiplet keeps only a NIC.
    fn active_interposer_overheads(
        &self,
        chiplet_nodes: &[TechNode],
        interposer_node: TechNode,
        out: &mut CommOverheads,
    ) -> Result<(), PackagingError> {
        let estimator = RouterEstimator::with_traffic(self.config.router, self.config.traffic);
        let interposer_params = self.db.node(interposer_node)?;
        let router_in_interposer = estimator.estimate(interposer_params)?;
        let nic_fraction = self.config.nic_fraction.clamp(0.0, 1.0);

        let mut power = router_in_interposer.total_power() * chiplet_nodes.len() as f64;
        for (area, &node) in out.chiplet_extra_area.iter_mut().zip(chiplet_nodes) {
            let params = self.db.node(node)?;
            let router_in_chiplet = estimator.estimate(params)?;
            *area = router_in_chiplet.area * nic_fraction;
            power += router_in_chiplet.total_power() * nic_fraction;
        }
        out.interposer_logic_area = router_in_interposer.area * chiplet_nodes.len() as f64;
        out.interposer_node = Some(interposer_node);
        out.total_power = power;
        Ok(())
    }

    /// 3D stacks: vertical interfaces are cheap — each tier carries a thin
    /// TSV / bump landing-pad and retiming region comparable to half a PHY.
    fn three_d_overheads(
        &self,
        chiplet_nodes: &[TechNode],
        out: &mut CommOverheads,
    ) -> Result<(), PackagingError> {
        let mut power = Power::ZERO;
        let lanes = self.config.router.flit_width_bits;
        let bandwidth = self.config.traffic.bandwidth_gbps;
        for (area, &node) in out.chiplet_extra_area.iter_mut().zip(chiplet_nodes) {
            let params = self.db.node(node)?;
            let phy = phy_estimate(params, lanes, bandwidth);
            *area = phy.area * 0.5;
            power += phy.power * 0.5;
        }
        out.total_power = power;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{InterposerConfig, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig};
    use ecochip_floorplan::{ChipletOutline, FloorplanConfig, SlicingFloorplanner};

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
    fn monolithic_system_has_no_overheads() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let plan = plan(&[600.0]);
        let o = est
            .overheads(
                &PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                &[TechNode::N7],
                &plan,
            )
            .unwrap();
        assert_eq!(o.total_chiplet_area().mm2(), 0.0);
        assert_eq!(o.interposer_logic_area.mm2(), 0.0);
        assert_eq!(o.total_power.watts(), 0.0);
        assert!(o.interposer_node.is_none());
        assert_eq!(o.chiplet_extra_area.len(), 1);
    }

    #[test]
    fn phy_overheads_are_small() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let plan = plan(&[300.0, 120.0, 60.0]);
        let nodes = [TechNode::N7, TechNode::N10, TechNode::N14];
        for arch in [
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        ] {
            let o = est.overheads(&arch, &nodes, &plan).unwrap();
            assert_eq!(o.chiplet_extra_area.len(), 3);
            // PHYs are tiny relative to the chiplets (< 2% of silicon).
            assert!(o.total_chiplet_area().mm2() < 0.02 * 480.0);
            assert!(o.total_power.watts() > 0.0);
            assert_eq!(o.interposer_logic_area.mm2(), 0.0);
        }
    }

    #[test]
    fn passive_interposer_places_routers_in_chiplets() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let plan = plan(&[300.0, 120.0, 60.0]);
        let nodes = [TechNode::N7, TechNode::N10, TechNode::N14];
        let passive = est
            .overheads(
                &PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
                &nodes,
                &plan,
            )
            .unwrap();
        assert!(passive.total_chiplet_area().mm2() > 0.0);
        assert_eq!(passive.interposer_logic_area.mm2(), 0.0);
        assert!(passive.interposer_node.is_none());
    }

    #[test]
    fn active_interposer_moves_routers_to_interposer() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let plan = plan(&[300.0, 120.0, 60.0]);
        let nodes = [TechNode::N7, TechNode::N10, TechNode::N14];
        let active = est
            .overheads(
                &PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
                &nodes,
                &plan,
            )
            .unwrap();
        let passive = est
            .overheads(
                &PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
                &nodes,
                &plan,
            )
            .unwrap();
        // Routers in the 65 nm interposer are larger than the same routers in
        // the chiplets' advanced nodes (the paper's observation).
        assert!(active.interposer_logic_area.mm2() > passive.total_chiplet_area().mm2());
        assert_eq!(active.interposer_node, Some(TechNode::N65));
        // NICs in the chiplets are smaller than full routers.
        assert!(active.total_chiplet_area().mm2() < passive.total_chiplet_area().mm2());
    }

    #[test]
    fn three_d_overheads_are_modest() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let plan = plan(&[100.0, 100.0, 100.0]);
        let nodes = [TechNode::N7, TechNode::N7, TechNode::N7];
        let o = est
            .overheads(
                &PackagingArchitecture::ThreeD(ThreeDConfig::default()),
                &nodes,
                &plan,
            )
            .unwrap();
        assert!(o.total_chiplet_area().mm2() > 0.0);
        assert!(o.total_chiplet_area().mm2() < 1.0);
        assert_eq!(o.interposer_logic_area.mm2(), 0.0);
    }

    #[test]
    fn config_accessors() {
        let db = db();
        let cfg = CommConfig::default();
        let est = CommunicationEstimator::new(&db, cfg);
        assert_eq!(est.config().router.flit_width_bits, 512);
        assert!((est.config().nic_fraction - 0.25).abs() < 1e-12);
        let none = CommOverheads::none(2);
        assert_eq!(none.chiplet_extra_area.len(), 2);
        assert_eq!(none.total_chiplet_area().mm2(), 0.0);
    }

    #[test]
    fn reused_overheads_match_fresh_ones() {
        let db = db();
        let est = CommunicationEstimator::new(&db, CommConfig::default());
        let mut reused = CommOverheads::none(0);
        for (areas, nodes) in [
            (
                &[300.0, 120.0, 60.0][..],
                &[TechNode::N7, TechNode::N10, TechNode::N14][..],
            ),
            (&[100.0, 100.0], &[TechNode::N5, TechNode::N7]),
            (&[600.0], &[TechNode::N7]),
            (&[50.0, 60.0, 70.0, 80.0], &[TechNode::N7; 4]),
        ] {
            let plan = plan(areas);
            for arch in [
                PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
                PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
                PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
                PackagingArchitecture::ThreeD(ThreeDConfig::default()),
            ] {
                est.overheads_into(&arch, nodes, &plan, &mut reused)
                    .unwrap();
                assert_eq!(reused, est.overheads(&arch, nodes, &plan).unwrap());
            }
        }
    }

    #[test]
    fn missing_node_surfaces_as_error() {
        let empty = ecochip_techdb::TechDbBuilder::new().build();
        let est = CommunicationEstimator::new(&empty, CommConfig::default());
        let plan = plan(&[100.0, 100.0]);
        let err = est
            .overheads(
                &PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
                &[TechNode::N7, TechNode::N7],
                &plan,
            )
            .unwrap_err();
        assert!(matches!(err, PackagingError::TechDb(_)));
    }
}
