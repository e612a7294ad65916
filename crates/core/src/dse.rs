//! The paper's named design-space studies (Sections V and VI).
//!
//! Each study is a [`SweepSpec`](crate::sweep::SweepSpec) run on the
//! [`SweepEngine`](crate::sweep::SweepEngine), the one way to run a sweep:
//! one axis for the node-tuple, packaging, chiplet-count and
//! fab-energy-source sweeps (Figs. 7, 9, 10 and Table I), stacked axes for a
//! grid such as the reuse × lifetime study of Fig. 12.
//! [`named_sweep_axis`] resolves the axes every front end exposes by name.
//! Searches over a space, such as the carbon-aware node assignment of
//! Section VI, run through [`crate::opt::optimize`].

use serde::{Deserialize, Serialize};

use ecochip_packaging::PackagingArchitecture;
use ecochip_techdb::{Area, Carbon, EnergySource, Power};

use crate::error::EcoChipError;
use crate::report::CarbonReport;
use crate::sweep::SweepAxis;
use crate::system::System;

/// The axis names accepted by [`named_sweep_axis`] (the CLI's `--sweep`
/// values and the HTTP service's `"axis"` request field).
pub const NAMED_SWEEP_AXES: &str = "nodes|packaging|volume|lifetime|energy";

/// Build one of the named, paper-canonical sweep axes over `base`.
///
/// These are the studies every front end exposes by name — the CLI's
/// `--sweep <name>` and the HTTP service's `{"axis": "<name>"}` — so every
/// front end resolves a name to the *same* axis (and therefore the same
/// bit-for-bit sweep output):
///
/// * `nodes` — retarget every chiplet jointly across N5…N16,
/// * `packaging` — RDL, EMIB, passive/active interposer, 3D,
/// * `volume` — chiplet-reuse ratios 1–16× of the base system volume,
/// * `lifetime` — deployment lifetimes of 1–8 years,
/// * `energy` — fab energy sources from coal to wind.
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] for an unknown name (the message
/// lists [`NAMED_SWEEP_AXES`]).
pub fn named_sweep_axis(name: &str, base: &System) -> Result<SweepAxis, EcoChipError> {
    use ecochip_packaging::{InterposerConfig, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig};
    use ecochip_techdb::TechNode;

    let axis = match name {
        "nodes" => {
            // Retarget every chiplet jointly across advanced-to-mature nodes.
            let nodes = [
                TechNode::N5,
                TechNode::N7,
                TechNode::N8,
                TechNode::N10,
                TechNode::N12,
                TechNode::N14,
                TechNode::N16,
            ];
            let variants = nodes
                .into_iter()
                .map(|node| {
                    let mut system = base.clone();
                    for chiplet in &mut system.chiplets {
                        *chiplet = chiplet.retargeted(node);
                    }
                    (node.to_string(), system)
                })
                .collect();
            SweepAxis::Systems(variants)
        }
        "packaging" => SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]),
        "volume" => {
            SweepAxis::reuse_ratios(base.volumes.system_volume, &[1.0, 2.0, 4.0, 8.0, 16.0])
        }
        "lifetime" => SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]),
        "energy" => SweepAxis::FabEnergySources(vec![
            EnergySource::Coal,
            EnergySource::NaturalGas,
            EnergySource::WorldGrid,
            EnergySource::Biomass,
            EnergySource::Solar,
            EnergySource::Nuclear,
            EnergySource::Wind,
        ]),
        other => {
            return Err(EcoChipError::InvalidSystem(format!(
                "unknown sweep axis {other:?} (expected {NAMED_SWEEP_AXES})"
            )))
        }
    };
    Ok(axis)
}

/// Carbon-delay / carbon-power / carbon-area product curves (Figs. 13–14).
///
/// The performance (delay), power and area of an architecture are
/// application-specific inputs; ECO-CHIP combines them with the total CFP to
/// produce the product metrics used for design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProductMetrics {
    /// Total CFP of the configuration.
    pub carbon: Carbon,
    /// End-to-end delay / latency of the workload.
    pub delay_s: f64,
    /// Operational power of the configuration.
    pub power: Power,
    /// 2D silicon (or package footprint) area.
    pub area: Area,
}

impl ProductMetrics {
    /// Assemble metrics from a report plus application-level numbers.
    pub fn from_report(report: &CarbonReport, delay_s: f64, power: Power, area: Area) -> Self {
        Self {
            carbon: report.total(),
            delay_s,
            power,
            area,
        }
    }

    /// Carbon-delay product (kg CO₂e · s).
    pub fn carbon_delay(&self) -> f64 {
        self.carbon.kg() * self.delay_s
    }

    /// Carbon-power product (kg CO₂e · W).
    pub fn carbon_power(&self) -> f64 {
        self.carbon.kg() * self.power.watts()
    }

    /// Carbon-area product (kg CO₂e · mm²).
    pub fn carbon_area(&self) -> f64 {
        self.carbon.kg() * self.area.mm2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disaggregation::{three_chiplets, NodeTuple, SocBlocks};
    use crate::estimator::EcoChip;
    use crate::sweep::{SweepEngine, SweepPoint, SweepSpec};
    use ecochip_packaging::{InterposerConfig, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig};
    use ecochip_power::UsageProfile;
    use ecochip_techdb::{Energy, TechNode};

    fn blocks() -> SocBlocks {
        SocBlocks::new("ga102", 20.0e9, 6.0e9, 2.3e9)
    }

    fn base_system() -> System {
        System::builder("base")
            .chiplets(three_chiplets(
                &blocks(),
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            ))
            .packaging(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()))
            .usage(UsageProfile::Measured {
                energy_per_year: Energy::from_kwh(228.0),
            })
            .build()
            .unwrap()
    }

    /// Run `axis` over [`base_system`] on the default engine.
    fn sweep(axis: SweepAxis) -> Vec<SweepPoint> {
        let spec = SweepSpec::new(base_system()).axis(axis);
        SweepEngine::new().run(&EcoChip::default(), &spec).unwrap()
    }

    #[test]
    fn named_axes_resolve_and_reject_unknown_names() {
        let base = base_system();
        for name in NAMED_SWEEP_AXES.split('|') {
            let axis = named_sweep_axis(name, &base).unwrap();
            assert!(!axis.is_empty(), "axis {name:?} has no points");
            // Every named axis produces a runnable spec.
            let spec = SweepSpec::new(base.clone()).axis(axis);
            assert!(spec.try_len().unwrap() > 0);
            assert!(spec.case_at(0).is_ok(), "axis {name:?} fails to decode");
        }
        assert!(matches!(
            named_sweep_axis("bogus", &base),
            Err(EcoChipError::InvalidSystem(_))
        ));
    }

    #[test]
    fn node_tuple_sweep_finds_mix_and_match_minimum() {
        // Fig. 7(a): the (7, 14, 10)-style mixed configuration beats the
        // all-advanced (7, 7, 7) one on embodied carbon.
        let points = sweep(SweepAxis::NodeTuples {
            blocks: blocks(),
            tuples: vec![
                NodeTuple::uniform(TechNode::N7),
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
                NodeTuple::uniform(TechNode::N10),
            ],
        });
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].label, "(7, 7, 7)");
        let all7 = points[0].report.embodied().kg();
        let mixed = points[1].report.embodied().kg();
        assert!(
            mixed < all7,
            "mix-and-match {mixed} should beat all-7nm {all7}"
        );
    }

    #[test]
    fn packaging_sweep_orders_interposers_last() {
        let points = sweep(SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]));
        assert_eq!(points.len(), 4);
        let by_label = |label: &str| {
            points
                .iter()
                .find(|p| p.label == label)
                .unwrap()
                .report
                .hi_overhead()
                .kg()
        };
        assert!(by_label("active-interposer") > by_label("RDL"));
        assert!(by_label("active-interposer") > by_label("EMIB"));
    }

    #[test]
    fn chiplet_count_sweep_trades_manufacturing_for_hi() {
        let points = sweep(SweepAxis::ChipletCounts {
            blocks: blocks(),
            nodes: NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            counts: vec![1, 2, 4, 6],
        });
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "Nc=1");
        assert_eq!(points[3].system.chiplets.len(), 8);
        // Fig. 10: splitting the digital block lowers Cmfg but raises CHI.
        let first = &points[0].report;
        let last = &points[3].report;
        assert!(last.manufacturing().kg() < first.manufacturing().kg());
        assert!(last.hi_overhead().kg() > first.hi_overhead().kg());
    }

    #[test]
    fn energy_source_sweep_only_moves_manufacturing() {
        let points = sweep(SweepAxis::FabEnergySources(vec![
            EnergySource::Coal,
            EnergySource::Solar,
            EnergySource::Wind,
        ]));
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].label, "coal");
        let mfg: Vec<f64> = points
            .iter()
            .map(|p| p.report.manufacturing().kg())
            .collect();
        assert!(mfg[1] < mfg[0] && mfg[2] < mfg[1]);
        // The coal point matches the base estimator bit-for-bit.
        let direct = EcoChip::default().estimate(&points[0].system).unwrap();
        assert_eq!(direct, points[0].report);
    }

    #[test]
    fn product_metrics() {
        let estimator = EcoChip::default();
        let report = estimator.estimate(&base_system()).unwrap();
        let m = ProductMetrics::from_report(
            &report,
            2.0e-3,
            Power::from_watts(10.0),
            Area::from_mm2(100.0),
        );
        assert!((m.carbon_delay() - report.total().kg() * 2.0e-3).abs() < 1e-9);
        assert!((m.carbon_power() - report.total().kg() * 10.0).abs() < 1e-9);
        assert!((m.carbon_area() - report.total().kg() * 100.0).abs() < 1e-6);
    }
}
