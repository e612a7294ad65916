//! Design-space-exploration sweeps and product curves (Sections V and VI).
//!
//! Every sweep in this module is built on the [`crate::sweep`] subsystem:
//! the functions below declare a [`SweepSpec`] and hand it to the parallel,
//! memoizing, streaming [`SweepEngine`], so they all inherit multi-core
//! evaluation, cross-point floorplan / manufacturing reuse and the bounded
//! reorder window of the streaming pipeline while returning exactly what
//! their original serial loops produced. The `*_spec` builders expose each
//! study's [`SweepSpec`] directly, so callers can stream, shard or memoize
//! any of them through [`SweepEngine::stream`] or
//! [`EcoChipService`](crate::EcoChipService) instead of collecting a `Vec`.

use serde::{Deserialize, Serialize};

use ecochip_packaging::PackagingArchitecture;
use ecochip_techdb::{Area, Carbon, EnergySource, Power, TimeSpan};

use crate::disaggregation::{NodeTuple, SocBlocks};
use crate::error::EcoChipError;
use crate::estimator::EcoChip;
use crate::report::CarbonReport;
use crate::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepSpec};
use crate::system::System;

pub use crate::sweep::SweepPoint;

/// The sweep spec behind [`sweep_node_tuples`]: `(digital, memory, analog)`
/// technology-node tuples over a 3-chiplet split of `blocks` (Fig. 7).
pub fn node_tuple_spec(base: &System, blocks: &SocBlocks, tuples: &[NodeTuple]) -> SweepSpec {
    SweepSpec::new(base.clone()).axis(SweepAxis::NodeTuples {
        blocks: blocks.clone(),
        tuples: tuples.to_vec(),
    })
}

/// The sweep spec behind [`sweep_packaging`]: packaging architectures over
/// an otherwise fixed system (Fig. 9).
pub fn packaging_spec(base: &System, architectures: &[PackagingArchitecture]) -> SweepSpec {
    SweepSpec::new(base.clone()).axis(SweepAxis::Packaging(architectures.to_vec()))
}

/// The sweep spec behind [`sweep_chiplet_counts`]: digital-chiplet counts
/// with fixed memory / analog chiplets (Figs. 10, 15(b)).
pub fn chiplet_count_spec(
    base: &System,
    blocks: &SocBlocks,
    nodes: NodeTuple,
    counts: &[usize],
) -> SweepSpec {
    SweepSpec::new(base.clone()).axis(SweepAxis::ChipletCounts {
        blocks: blocks.clone(),
        nodes,
        counts: counts.to_vec(),
    })
}

/// The sweep spec behind [`sweep_energy_sources`]: fab energy sources
/// (`Cmfg,src`, Fig. 3(a) / Table I) over a fixed system.
pub fn energy_source_spec(base: &System, sources: &[EnergySource]) -> SweepSpec {
    SweepSpec::new(base.clone()).axis(SweepAxis::FabEnergySources(sources.to_vec()))
}

/// Sweep the `(digital, memory, analog)` technology-node tuples of a
/// 3-chiplet split of `blocks` (the x-axis of Fig. 7).
///
/// The returned points keep the order of `tuples`. The base system provides
/// the packaging, usage profile, lifetime and volumes.
///
/// # Errors
///
/// Propagates estimator errors for any tuple.
pub fn sweep_node_tuples(
    estimator: &EcoChip,
    base: &System,
    blocks: &SocBlocks,
    tuples: &[NodeTuple],
) -> Result<Vec<SweepPoint>, EcoChipError> {
    SweepEngine::new().run(estimator, &node_tuple_spec(base, blocks, tuples))
}

/// Sweep packaging architectures over an otherwise fixed system (Fig. 9).
///
/// # Errors
///
/// Propagates estimator errors for any architecture.
pub fn sweep_packaging(
    estimator: &EcoChip,
    base: &System,
    architectures: &[PackagingArchitecture],
) -> Result<Vec<SweepPoint>, EcoChipError> {
    SweepEngine::new().run(estimator, &packaging_spec(base, architectures))
}

/// Sweep the number of digital chiplets the SoC's logic block is split into
/// (the x-axis of Figs. 10 and 15(b)); memory and analog chiplets stay fixed.
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] for a zero chiplet count and
/// propagates estimator errors for any point.
pub fn sweep_chiplet_counts(
    estimator: &EcoChip,
    base: &System,
    blocks: &SocBlocks,
    nodes: NodeTuple,
    counts: &[usize],
) -> Result<Vec<SweepPoint>, EcoChipError> {
    SweepEngine::new().run(estimator, &chiplet_count_spec(base, blocks, nodes, counts))
}

/// Sweep the energy source powering the chip-manufacturing fab (the
/// `Cmfg,src` axis of Fig. 3(a) / Table I) over a fixed system.
///
/// # Errors
///
/// Propagates estimator errors for any source.
pub fn sweep_energy_sources(
    estimator: &EcoChip,
    base: &System,
    sources: &[EnergySource],
) -> Result<Vec<SweepPoint>, EcoChipError> {
    SweepEngine::new().run(estimator, &energy_source_spec(base, sources))
}

/// The sweep spec behind [`sweep_reuse`]'s estimator axis: chiplet-reuse
/// ratios scaling the base system's volume scenario (Fig. 12).
pub fn reuse_spec(base: &System, reuse_ratios: &[f64]) -> SweepSpec {
    SweepSpec::new(base.clone()).axis(SweepAxis::reuse_ratios(
        base.volumes.system_volume,
        reuse_ratios,
    ))
}

/// The axis names accepted by [`named_sweep_axis`] (the CLI's `--sweep`
/// values and the HTTP service's `"axis"` request field).
pub const NAMED_SWEEP_AXES: &str = "nodes|packaging|volume|lifetime|energy";

/// Build one of the named, paper-canonical sweep axes over `base`.
///
/// These are the studies every front end exposes by name — the CLI's
/// `--sweep <name>` and the HTTP service's `{"axis": "<name>"}` — so they
/// live here, next to the spec builders, and every front end resolves a name
/// to the *same* axis (and therefore the same bit-for-bit sweep output):
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

/// One cell of the reuse-ratio × lifetime grid of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReusePoint {
    /// The chiplet-reuse ratio `NMi / NS`.
    pub reuse_ratio: f64,
    /// The deployment lifetime.
    pub lifetime: TimeSpan,
    /// Embodied CFP at this reuse ratio.
    pub embodied: Carbon,
    /// Total CFP at this reuse ratio and lifetime.
    pub total: Carbon,
}

/// Sweep chiplet-reuse ratios (`NMi / NS`) and lifetimes (Fig. 12).
///
/// The base system's `system_volume` is kept; `NMi` is scaled by each ratio.
/// Only the ratio axis re-runs the estimator (one parallel sweep); the
/// lifetime axis is evaluated analytically, since Eq. 1 is linear in the
/// lifetime.
///
/// # Errors
///
/// Propagates estimator errors for any point.
pub fn sweep_reuse(
    estimator: &EcoChip,
    base: &System,
    reuse_ratios: &[f64],
    lifetimes_years: &[f64],
) -> Result<Vec<ReusePoint>, EcoChipError> {
    let spec = reuse_spec(base, reuse_ratios);
    let points = SweepEngine::new().run(estimator, &spec)?;

    let mut grid = Vec::with_capacity(reuse_ratios.len() * lifetimes_years.len());
    for (&ratio, point) in reuse_ratios.iter().zip(&points) {
        for &years in lifetimes_years {
            let lifetime = TimeSpan::from_years(years);
            grid.push(ReusePoint {
                reuse_ratio: ratio,
                lifetime,
                embodied: point.report.embodied(),
                total: point.report.total_at_lifetime(lifetime),
            });
        }
    }
    Ok(grid)
}

/// The objective minimised by [`optimize_node_assignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Objective {
    /// Minimise the embodied CFP (`C_emb`).
    Embodied,
    /// Minimise the total CFP (`C_tot`) at the system's lifetime.
    Total,
    /// Minimise the manufacturing CFP plus HI overheads only.
    ManufacturingAndHi,
}

impl Objective {
    fn score(&self, report: &CarbonReport) -> f64 {
        match self {
            Objective::Embodied => report.embodied().kg(),
            Objective::Total => report.total().kg(),
            Objective::ManufacturingAndHi => (report.manufacturing() + report.hi_overhead()).kg(),
        }
    }
}

/// Exhaustively search per-chiplet technology-node assignments and return the
/// assignment minimising the chosen objective — the carbon-aware
/// disaggregation flow of Section VI of the paper.
///
/// `candidates[i]` lists the nodes allowed for chiplet `i`; chiplets without
/// a candidate list keep their current node. The search space is the cross
/// product of the candidate lists — one [`SweepAxis::ChipletNode`] per
/// chiplet — streamed through the sweep engine with a running-minimum sink,
/// so only the incumbent best point is ever held in memory no matter how
/// large the space is; the number of evaluated configurations is returned
/// alongside the winner. Ties keep the earliest configuration in sweep
/// order, so results are deterministic.
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when `candidates` is longer than
/// the chiplet list, and propagates estimator errors.
pub fn optimize_node_assignment(
    estimator: &EcoChip,
    base: &System,
    candidates: &[Vec<ecochip_techdb::TechNode>],
    objective: Objective,
) -> Result<(SweepPoint, usize), EcoChipError> {
    if candidates.len() > base.chiplets.len() {
        return Err(EcoChipError::InvalidSystem(format!(
            "got candidate node lists for {} chiplets but the system has only {}",
            candidates.len(),
            base.chiplets.len()
        )));
    }
    let mut spec = SweepSpec::new(base.clone());
    for (i, chiplet) in base.chiplets.iter().enumerate() {
        let nodes = candidates
            .get(i)
            .filter(|c| !c.is_empty())
            .cloned()
            .unwrap_or_else(|| vec![chiplet.node]);
        spec = spec.axis(SweepAxis::ChipletNode { index: i, nodes });
    }

    let mut evaluated = 0usize;
    let mut best: Option<(SweepPoint, f64, usize)> = None;
    SweepEngine::new().stream(
        estimator,
        &spec,
        Shard::FULL,
        &SweepContext::new(),
        None,
        &mut |point: SweepPoint| {
            let score = objective.score(&point.report);
            if best
                .as_ref()
                .is_none_or(|(_, incumbent, _)| score < *incumbent)
            {
                best = Some((point, score, evaluated));
            }
            evaluated += 1;
            Ok(())
        },
    )?;
    let (mut winner, _, index) = best.expect("at least one configuration evaluated");
    // Only the winner is relabeled — "(7, 14, 10)"-style instead of the
    // per-axis "7 / 14 / 10" — so the search pays no formatting per point.
    let joined = spec.case_at(index)?.labels.join(", ");
    winner.label = format!("({joined})");
    winner.system.name = format!("{} ({joined})", base.name);
    winner.report.system_name.clone_from(&winner.system.name);
    Ok((winner, evaluated))
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
    use crate::disaggregation::three_chiplets;
    use crate::system::System;
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
        let estimator = EcoChip::default();
        let tuples = [
            NodeTuple::uniform(TechNode::N7),
            NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
            NodeTuple::uniform(TechNode::N10),
        ];
        let points = sweep_node_tuples(&estimator, &base_system(), &blocks(), &tuples).unwrap();
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
        let estimator = EcoChip::default();
        let archs = [
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ];
        let points = sweep_packaging(&estimator, &base_system(), &archs).unwrap();
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
        let estimator = EcoChip::default();
        let nodes = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
        let points =
            sweep_chiplet_counts(&estimator, &base_system(), &blocks(), nodes, &[1, 2, 4, 6])
                .unwrap();
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
        let estimator = EcoChip::default();
        let points = sweep_energy_sources(
            &estimator,
            &base_system(),
            &[EnergySource::Coal, EnergySource::Solar, EnergySource::Wind],
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].label, "coal");
        let mfg: Vec<f64> = points
            .iter()
            .map(|p| p.report.manufacturing().kg())
            .collect();
        assert!(mfg[1] < mfg[0] && mfg[2] < mfg[1]);
        // The coal point matches the base estimator bit-for-bit.
        let direct = estimator.estimate(&points[0].system).unwrap();
        assert_eq!(direct, points[0].report);
    }

    #[test]
    fn reuse_sweep_shows_embodied_amortization_and_lifetime_growth() {
        let estimator = EcoChip::default();
        let points = sweep_reuse(
            &estimator,
            &base_system(),
            &[1.0, 4.0, 16.0],
            &[1.0, 3.0, 5.0],
        )
        .unwrap();
        assert_eq!(points.len(), 9);
        // Embodied falls with the reuse ratio (same lifetime).
        let emb_at = |ratio: f64| {
            points
                .iter()
                .find(|p| {
                    (p.reuse_ratio - ratio).abs() < 1e-9 && (p.lifetime.years() - 1.0).abs() < 1e-9
                })
                .unwrap()
                .embodied
                .kg()
        };
        assert!(emb_at(16.0) < emb_at(4.0));
        assert!(emb_at(4.0) < emb_at(1.0));
        // Total grows with lifetime (same ratio).
        let tot_at = |years: f64| {
            points
                .iter()
                .find(|p| {
                    (p.reuse_ratio - 1.0).abs() < 1e-9 && (p.lifetime.years() - years).abs() < 1e-9
                })
                .unwrap()
                .total
                .kg()
        };
        assert!(tot_at(5.0) > tot_at(3.0));
        assert!(tot_at(3.0) > tot_at(1.0));
    }

    #[test]
    fn optimizer_finds_the_mix_and_match_assignment() {
        let estimator = EcoChip::default();
        let base = base_system();
        let candidates = vec![
            vec![TechNode::N7, TechNode::N10],
            vec![TechNode::N7, TechNode::N10, TechNode::N14],
            vec![TechNode::N7, TechNode::N10, TechNode::N14],
        ];
        let (winner, evaluated) =
            optimize_node_assignment(&estimator, &base, &candidates, Objective::Embodied).unwrap();
        assert_eq!(evaluated, 2 * 3 * 3);
        // Only the winner carries the search's "(d, m, a)" relabeling,
        // on its label, its system and its report alike.
        assert_eq!(winner.label, "(7, 14, 14)");
        assert_eq!(winner.system.name, "base (7, 14, 14)");
        assert_eq!(winner.report.system_name, "base (7, 14, 14)");
        // The winner keeps logic in the advanced node and moves memory /
        // analog to mature nodes.
        assert_eq!(winner.system.chiplets[0].node, TechNode::N7);
        assert!(winner.system.chiplets[1].node.is_older_than(TechNode::N7));
        // It is at least as good as both uniform assignments.
        let all7 = estimator
            .estimate(&{
                let mut s = base.clone();
                for c in &mut s.chiplets {
                    *c = c.retargeted(TechNode::N7);
                }
                s
            })
            .unwrap();
        assert!(winner.report.embodied().kg() <= all7.embodied().kg());
    }

    #[test]
    fn optimizer_objectives_and_validation() {
        let estimator = EcoChip::default();
        let base = base_system();
        // Missing candidate lists keep the existing node.
        let (winner, evaluated) =
            optimize_node_assignment(&estimator, &base, &[], Objective::Total).unwrap();
        assert_eq!(evaluated, 1);
        assert_eq!(winner.system.chiplet_nodes(), base.chiplet_nodes());
        assert_eq!(winner.label, "(7, 14, 10)");
        assert_eq!(winner.system.name, "base (7, 14, 10)");
        // Too many candidate lists are rejected.
        let too_many = vec![vec![TechNode::N7]; 5];
        assert!(optimize_node_assignment(
            &estimator,
            &base,
            &too_many,
            Objective::ManufacturingAndHi
        )
        .is_err());
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
