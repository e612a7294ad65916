//! Sweep axes, cartesian sweep specifications and shard selectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use ecochip_design::VolumeScenario;
use ecochip_packaging::PackagingArchitecture;
use ecochip_techdb::{EnergySource, TechNode, TimeSpan};

use crate::disaggregation::{split_logic, three_chiplets, NodeTuple, SocBlocks};
use crate::error::EcoChipError;
use crate::system::System;

/// One axis of a design-space sweep: a list of variations applied to a base
/// [`System`] (or, for [`SweepAxis::FabEnergySources`], to the estimator).
///
/// Axes compose: a [`SweepSpec`] takes the cartesian product of all its axes,
/// applying them in order. [`SweepAxis::Systems`] replaces the entire system,
/// so it must come first when combined with other axes.
///
/// Axes serialize to JSON (externally tagged, e.g.
/// `{"Lifetimes": [26280.0]}`), so a whole [`SweepSpec`] can travel over a
/// wire — the `ecochip-serve` HTTP front end accepts structured axes in its
/// sweep requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Re-derive the paper's canonical 3-chiplet split of `blocks` for each
    /// `(digital, memory, analog)` technology tuple (the x-axis of Fig. 7).
    NodeTuples {
        /// Block-level transistor budget the split is derived from.
        blocks: SocBlocks,
        /// The technology tuples to sweep.
        tuples: Vec<NodeTuple>,
    },
    /// Swap the packaging architecture (Fig. 9).
    Packaging(Vec<PackagingArchitecture>),
    /// Swap the manufacturing / shipping volumes (the reuse axis of Fig. 12).
    Volumes(Vec<VolumeScenario>),
    /// Swap the deployment lifetime (the lifetime axis of Fig. 12).
    Lifetimes(Vec<TimeSpan>),
    /// Split the digital block of `blocks` into 1, 2, … chiplets while the
    /// memory and analog chiplets stay fixed (Figs. 9, 10, 15(b)).
    ChipletCounts {
        /// Block-level transistor budget the splits are derived from.
        blocks: SocBlocks,
        /// Node assignment of the digital / memory / analog chiplets.
        nodes: NodeTuple,
        /// Number of digital chiplets per point.
        counts: Vec<usize>,
    },
    /// Retarget the chiplet at `index` to each candidate node (one axis per
    /// chiplet yields the exhaustive node-assignment search of Section VI).
    ChipletNode {
        /// Index of the chiplet to retarget.
        index: usize,
        /// Candidate nodes for that chiplet.
        nodes: Vec<TechNode>,
    },
    /// Swap the energy source powering the chip-manufacturing fab
    /// (`Cmfg,src`); applied to the estimator configuration, not the system.
    FabEnergySources(Vec<EnergySource>),
    /// Replace the entire base system with each labeled variant. Must be the
    /// first axis when combined with others, since it overwrites every field
    /// the preceding axes may have set.
    Systems(Vec<(String, System)>),
}

impl SweepAxis {
    /// Convenience constructor for the reuse-ratio axis of Fig. 12:
    /// `NMi = ratio × NS` with `NS = system_volume`.
    pub fn reuse_ratios(system_volume: u64, ratios: &[f64]) -> Self {
        SweepAxis::Volumes(
            ratios
                .iter()
                .map(|&r| VolumeScenario::with_reuse(system_volume, r))
                .collect(),
        )
    }

    /// Convenience constructor for a lifetime axis given years.
    pub fn lifetimes_years(years: &[f64]) -> Self {
        SweepAxis::Lifetimes(years.iter().map(|&y| TimeSpan::from_years(y)).collect())
    }

    /// Number of points along this axis.
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::NodeTuples { tuples, .. } => tuples.len(),
            SweepAxis::Packaging(archs) => archs.len(),
            SweepAxis::Volumes(volumes) => volumes.len(),
            SweepAxis::Lifetimes(lifetimes) => lifetimes.len(),
            SweepAxis::ChipletCounts { counts, .. } => counts.len(),
            SweepAxis::ChipletNode { nodes, .. } => nodes.len(),
            SweepAxis::FabEnergySources(sources) => sources.len(),
            SweepAxis::Systems(systems) => systems.len(),
        }
    }

    /// Whether the axis has no points (its spec generates no cases).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply point `index` of this axis to `case`, appending its label.
    fn apply(&self, case: &mut SweepCase, index: usize) -> Result<(), EcoChipError> {
        match self {
            SweepAxis::NodeTuples { blocks, tuples } => {
                let tuple = tuples[index];
                case.system.chiplets = three_chiplets(blocks, tuple);
                case.system.name = format!("{} {}", blocks.name, tuple.label());
                case.labels.push(tuple.label());
            }
            SweepAxis::Packaging(archs) => {
                case.system.packaging = archs[index];
                case.labels.push(archs[index].short_name().to_owned());
            }
            SweepAxis::Volumes(volumes) => {
                case.system.volumes = volumes[index];
                case.labels
                    .push(format!("NMi/NS={}", volumes[index].reuse_ratio()));
            }
            SweepAxis::Lifetimes(lifetimes) => {
                case.system.lifetime = lifetimes[index];
                case.labels.push(format!("{}y", lifetimes[index].years()));
            }
            SweepAxis::ChipletCounts {
                blocks,
                nodes,
                counts,
            } => {
                let count = counts[index];
                case.system.chiplets = split_logic(blocks, count, *nodes)?;
                case.system.name = format!("{} ({count} digital chiplets)", blocks.name);
                case.labels.push(format!("Nc={count}"));
            }
            SweepAxis::ChipletNode {
                index: chiplet,
                nodes,
            } => {
                let node = nodes[index];
                let Some(slot) = case.system.chiplets.get_mut(*chiplet) else {
                    return Err(EcoChipError::InvalidSystem(format!(
                        "sweep axis retargets chiplet {chiplet} but the system has only {}",
                        case.system.chiplets.len()
                    )));
                };
                *slot = slot.retargeted(node);
                case.labels.push(node.nm().to_string());
            }
            SweepAxis::FabEnergySources(sources) => {
                case.fab_source = Some(sources[index]);
                case.labels.push(sources[index].to_string());
            }
            SweepAxis::Systems(systems) => {
                let (label, system) = &systems[index];
                case.system = system.clone();
                case.labels.push(label.clone());
            }
        }
        Ok(())
    }
}

/// One generated point of a sweep, before evaluation: the labeled system
/// variant plus any estimator-level overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCase {
    /// One label component per axis, in axis order.
    pub labels: Vec<String>,
    /// The system variant to evaluate.
    pub system: System,
    /// Fab energy source overriding the estimator's, when a
    /// [`SweepAxis::FabEnergySources`] axis is present.
    pub fab_source: Option<EnergySource>,
}

impl SweepCase {
    /// The joined point label (axis labels separated by `" / "`).
    pub fn label(&self) -> String {
        self.labels.join(" / ")
    }
}

/// A deterministic partition selector for distributing a sweep's index space
/// across processes or machines: shard `index` of `of` owns a contiguous,
/// balanced slice of the row-major case order.
///
/// Shards are contiguous (not strided), so concatenating the outputs of
/// shards `0/N, 1/N, …, (N-1)/N` reproduces the unsharded sweep exactly —
/// same points, same order, bit for bit.
///
/// ```
/// use ecochip_core::sweep::Shard;
///
/// let shards: Vec<Shard> = (0..3).map(|i| Shard::new(i, 3).unwrap()).collect();
/// // 10 cases split 4 + 3 + 3, covering every index exactly once.
/// assert_eq!(shards[0].range(10), 0..4);
/// assert_eq!(shards[1].range(10), 4..7);
/// assert_eq!(shards[2].range(10), 7..10);
/// // "1/3" parses to the same selector.
/// assert_eq!("1/3".parse::<Shard>().unwrap(), shards[1]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    index: usize,
    of: usize,
}

impl Shard {
    /// The trivial shard covering the whole index space.
    pub const FULL: Shard = Shard { index: 0, of: 1 };

    /// Shard `index` of `of` total shards.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::InvalidSystem`] when `of` is zero or `index`
    /// is not below `of`.
    pub fn new(index: usize, of: usize) -> Result<Self, EcoChipError> {
        if of == 0 || index >= of {
            return Err(EcoChipError::InvalidSystem(format!(
                "shard index must satisfy index < of, got {index}/{of}"
            )));
        }
        Ok(Self { index, of })
    }

    /// This shard's position within the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The total number of shards in the partition.
    pub fn of(&self) -> usize {
        self.of
    }

    /// Whether this is the trivial whole-space shard.
    pub fn is_full(&self) -> bool {
        self.of == 1
    }

    /// The contiguous index range this shard owns out of `total` cases.
    ///
    /// The partition is balanced: every shard gets `total / of` indices, and
    /// the first `total % of` shards get one extra. The union of all shard
    /// ranges is exactly `0..total` with no overlap.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        let quotient = total / self.of;
        let remainder = total % self.of;
        let start = self.index * quotient + self.index.min(remainder);
        let len = quotient + usize::from(self.index < remainder);
        start..(start + len)
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

impl std::str::FromStr for Shard {
    type Err = EcoChipError;

    /// Parse an `"I/N"` selector (as passed to the CLI's `--shard`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let invalid = || {
            EcoChipError::InvalidSystem(format!(
                "invalid shard selector {s:?} (expected I/N with I < N, e.g. 0/4)"
            ))
        };
        let (index, of) = s.split_once('/').ok_or_else(invalid)?;
        let index: usize = index.trim().parse().map_err(|_| invalid())?;
        let of: usize = of.trim().parse().map_err(|_| invalid())?;
        Shard::new(index, of).map_err(|_| invalid())
    }
}

/// The slice of a sweep's case space one [`SweepEngine::stream`] call
/// evaluates: a balanced [`Shard`] selector or an explicit index range (the
/// resume form behind orchestrator failover). Both convert into a slice, so
/// callers pass `Shard::FULL`, a parsed `--shard I/N` or `3..7` directly.
///
/// [`SweepEngine::stream`]: crate::sweep::SweepEngine::stream
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepSlice {
    /// Shard `index`/`of` of the case space ([`Shard::range`] decides the
    /// concrete indices).
    Shard(Shard),
    /// An explicit half-open index range.
    Range(std::ops::Range<usize>),
}

impl SweepSlice {
    /// The concrete case indices this slice selects out of a `total`-case
    /// sweep.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::InvalidSystem`] when a `Range` slice fails
    /// [`validate_case_range`].
    pub fn range(&self, total: usize) -> Result<std::ops::Range<usize>, EcoChipError> {
        match self {
            SweepSlice::Shard(shard) => Ok(shard.range(total)),
            SweepSlice::Range(range) => {
                validate_case_range(total, range)?;
                Ok(range.clone())
            }
        }
    }
}

impl From<Shard> for SweepSlice {
    fn from(shard: Shard) -> Self {
        SweepSlice::Shard(shard)
    }
}

impl From<std::ops::Range<usize>> for SweepSlice {
    fn from(range: std::ops::Range<usize>) -> Self {
        SweepSlice::Range(range)
    }
}

/// Validate that `range` is a slice of a `total`-case sweep — the single
/// definition of the bounds rule, applied by [`SweepSlice::range`] (and so
/// by every [`SweepEngine::stream`] call) and available to front ends that
/// want to reject a bad resume range before they commit to a response.
///
/// # Errors
///
/// Returns [`EcoChipError::InvalidSystem`] when the range is inverted or
/// extends past `total`.
///
/// [`SweepEngine::stream`]: crate::sweep::SweepEngine::stream
pub fn validate_case_range(
    total: usize,
    range: &std::ops::Range<usize>,
) -> Result<(), EcoChipError> {
    if range.start > range.end || range.end > total {
        return Err(EcoChipError::InvalidSystem(format!(
            "case range {}..{} is not a slice of the sweep's {total} cases",
            range.start, range.end
        )));
    }
    Ok(())
}

/// A cartesian sweep specification: a base system plus any number of axes.
///
/// Cases are *index-addressable*: the spec never materializes its cartesian
/// product. [`SweepSpec::case_at`] decodes any flat index into its case in
/// `O(axes)` time, in deterministic row-major order — the first axis
/// varies slowest, the last axis fastest — exactly the order nested `for`
/// loops over the axes would produce.
///
/// Specs serialize to JSON (`{"base": …, "axes": […]}`), so a sweep
/// description can be shipped to a remote evaluation service and decoded
/// back into the *same* spec — same case order, same bit-for-bit results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    base: System,
    axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// Start a spec from a base system; axes are added with [`SweepSpec::axis`].
    pub fn new(base: System) -> Self {
        Self {
            base,
            axes: Vec::new(),
        }
    }

    /// Add an axis (builder style).
    #[must_use]
    pub fn axis(mut self, axis: SweepAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// The base system variants are derived from.
    pub fn base(&self) -> &System {
        &self.base
    }

    /// The axes of the sweep.
    pub fn axes(&self) -> &[SweepAxis] {
        &self.axes
    }

    /// Total number of points (the product of the axis lengths; 1 when the
    /// spec has no axes — the base system itself), saturating at
    /// `usize::MAX` when the product overflows. Index-addressed entry points
    /// ([`SweepSpec::case_at`] and the engine) use the checked
    /// [`SweepSpec::try_len`] instead and reject overflowing products with a
    /// typed error.
    pub fn len(&self) -> usize {
        self.axes
            .iter()
            .map(SweepAxis::len)
            .fold(1usize, usize::saturating_mul)
    }

    /// Checked total number of points.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::SweepTooLarge`] when the cartesian product of
    /// the axis lengths overflows `usize`.
    pub fn try_len(&self) -> Result<usize, EcoChipError> {
        self.axes
            .iter()
            .map(SweepAxis::len)
            .try_fold(1usize, |product, len| {
                product.checked_mul(len).ok_or_else(|| {
                    EcoChipError::SweepTooLarge(format!(
                        "cartesian product of {} axes overflows the {}-bit index space",
                        self.axes.len(),
                        usize::BITS
                    ))
                })
            })
    }

    /// Whether the sweep generates no points (some axis is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode flat `index` of the row-major cartesian product into its case,
    /// in `O(axes)` time and without materializing any other point.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::SweepTooLarge`] when the product overflows,
    /// [`EcoChipError::InvalidSystem`] when `index` is out of range or an
    /// axis does not apply to the base system (e.g. a
    /// [`SweepAxis::ChipletNode`] index out of range).
    pub fn case_at(&self, index: usize) -> Result<SweepCase, EcoChipError> {
        let total = self.try_len()?;
        if index >= total {
            return Err(EcoChipError::InvalidSystem(format!(
                "sweep case index {index} out of range for a {total}-point sweep"
            )));
        }
        let mut case = SweepCase {
            labels: Vec::with_capacity(self.axes.len()),
            system: self.base.clone(),
            fab_source: None,
        };
        // Row-major decode: the last axis varies fastest, so its digit is the
        // final remainder. Peeling digits back-to-front keeps labels in axis
        // order without a second pass.
        let mut digits = vec![0usize; self.axes.len()];
        let mut remainder = index;
        for (slot, axis) in digits.iter_mut().zip(&self.axes).rev() {
            *slot = remainder % axis.len();
            remainder /= axis.len();
        }
        for (axis, &digit) in self.axes.iter().zip(&digits) {
            axis.apply(&mut case, digit)?;
        }
        Ok(case)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Chiplet, ChipletSize};
    use ecochip_packaging::{RdlFanoutConfig, SiliconBridgeConfig};
    use ecochip_techdb::DesignType;

    fn base() -> System {
        System::builder("base")
            .chiplets([
                Chiplet::new(
                    "logic",
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(8.0e9),
                ),
                Chiplet::new(
                    "mem",
                    DesignType::Memory,
                    TechNode::N14,
                    ChipletSize::Transistors(2.0e9),
                ),
            ])
            .build()
            .unwrap()
    }

    /// Every case of `spec`, decoded index by index with `case_at`.
    fn all_cases(spec: &SweepSpec) -> Result<Vec<SweepCase>, EcoChipError> {
        (0..spec.try_len()?)
            .map(|index| spec.case_at(index))
            .collect()
    }

    fn packaging_axis() -> SweepAxis {
        SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        ])
    }

    #[test]
    fn cartesian_order_is_row_major() {
        let spec = SweepSpec::new(base())
            .axis(packaging_axis())
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]));
        assert_eq!(spec.len(), 6);
        let cases = all_cases(&spec).unwrap();
        let labels: Vec<String> = cases.iter().map(SweepCase::label).collect();
        assert_eq!(
            labels,
            [
                "RDL / 1y",
                "RDL / 2y",
                "RDL / 3y",
                "EMIB / 1y",
                "EMIB / 2y",
                "EMIB / 3y"
            ]
        );
        assert!((cases[1].system.lifetime.years() - 2.0).abs() < 1e-12);
        assert_eq!(cases[4].system.packaging.short_name(), "EMIB");
    }

    #[test]
    fn empty_axis_empties_the_spec() {
        let spec = SweepSpec::new(base()).axis(SweepAxis::Packaging(Vec::new()));
        assert!(spec.is_empty());
        assert!(all_cases(&spec).unwrap().is_empty());
        let no_axes = SweepSpec::new(base());
        assert_eq!(no_axes.len(), 1);
        assert_eq!(all_cases(&no_axes).unwrap().len(), 1);
        assert_eq!(all_cases(&no_axes).unwrap()[0].label(), "");
    }

    #[test]
    fn chiplet_node_axis_retargets_and_validates() {
        let spec = SweepSpec::new(base()).axis(SweepAxis::ChipletNode {
            index: 1,
            nodes: vec![TechNode::N10, TechNode::N14],
        });
        let cases = all_cases(&spec).unwrap();
        assert_eq!(cases[0].system.chiplets[1].node, TechNode::N10);
        assert_eq!(cases[0].system.chiplets[0].node, TechNode::N7);
        assert_eq!(cases[0].labels, ["10"]);

        let bad = SweepSpec::new(base()).axis(SweepAxis::ChipletNode {
            index: 7,
            nodes: vec![TechNode::N10],
        });
        assert!(all_cases(&bad).is_err());
    }

    #[test]
    fn node_tuple_axis_rebuilds_the_three_chiplet_split() {
        let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
        let tuple = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
        let spec = SweepSpec::new(base()).axis(SweepAxis::NodeTuples {
            blocks,
            tuples: vec![tuple],
        });
        let cases = all_cases(&spec).unwrap();
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].system.chiplets.len(), 3);
        assert_eq!(cases[0].system.name, "soc (7, 14, 10)");
        assert_eq!(cases[0].labels, ["(7, 14, 10)"]);
    }

    #[test]
    fn energy_axis_sets_the_override_not_the_system() {
        let spec = SweepSpec::new(base()).axis(SweepAxis::FabEnergySources(vec![
            EnergySource::Coal,
            EnergySource::Wind,
        ]));
        let cases = all_cases(&spec).unwrap();
        assert_eq!(cases[0].fab_source, Some(EnergySource::Coal));
        assert_eq!(cases[1].fab_source, Some(EnergySource::Wind));
        assert_eq!(cases[0].system, cases[1].system);
    }

    #[test]
    fn systems_axis_replaces_the_base() {
        let other = base().with_lifetime(TimeSpan::from_years(9.0));
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::Systems(vec![
                ("a".to_owned(), base()),
                ("b".to_owned(), other),
            ]))
            .axis(packaging_axis());
        let cases = all_cases(&spec).unwrap();
        assert_eq!(cases.len(), 4);
        assert!((cases[3].system.lifetime.years() - 9.0).abs() < 1e-12);
        assert_eq!(cases[3].label(), "b / EMIB");
    }

    #[test]
    fn case_at_matches_materialized_cases() {
        let spec = SweepSpec::new(base())
            .axis(packaging_axis())
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]))
            .axis(SweepAxis::FabEnergySources(vec![
                EnergySource::Coal,
                EnergySource::Wind,
            ]));
        assert_eq!(spec.len(), 12);
        let mut index = 0;
        for packaging in ["RDL", "EMIB"] {
            for years in [1.0, 2.0, 3.0] {
                for source in [EnergySource::Coal, EnergySource::Wind] {
                    let case = spec.case_at(index).unwrap();
                    assert_eq!(case.system.packaging.short_name(), packaging, "{index}");
                    assert!((case.system.lifetime.years() - years).abs() < 1e-12);
                    assert_eq!(case.fab_source, Some(source), "index {index}");
                    index += 1;
                }
            }
        }
        assert!(spec.case_at(12).is_err());
    }

    #[test]
    fn shard_ranges_partition_the_index_space() {
        for total in [0usize, 1, 2, 5, 10, 17] {
            for of in 1usize..=5 {
                let mut covered = Vec::new();
                for index in 0..of {
                    let shard = Shard::new(index, of).unwrap();
                    covered.extend(shard.range(total));
                }
                let expected: Vec<usize> = (0..total).collect();
                assert_eq!(covered, expected, "total={total} of={of}");
            }
        }
        // Balanced: shard sizes differ by at most one.
        let sizes: Vec<usize> = (0..4)
            .map(|i| Shard::new(i, 4).unwrap().range(10).len())
            .collect();
        assert_eq!(sizes, [3, 3, 2, 2]);
    }

    #[test]
    fn shard_validation_and_parsing() {
        assert!(Shard::new(0, 0).is_err());
        assert!(Shard::new(2, 2).is_err());
        let shard = Shard::new(1, 3).unwrap();
        assert_eq!(shard.index(), 1);
        assert_eq!(shard.of(), 3);
        assert!(!shard.is_full());
        assert!(Shard::FULL.is_full());
        assert_eq!(shard.to_string(), "1/3");
        assert_eq!("1/3".parse::<Shard>().unwrap(), shard);
        for bad in ["", "1", "3/1", "1/0", "a/b", "1/3/5"] {
            assert!(bad.parse::<Shard>().is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn overflowing_products_are_rejected_not_panicked() {
        let huge = SweepAxis::lifetimes_years(&vec![1.0; 1 << 16]);
        let mut spec = SweepSpec::new(base());
        for _ in 0..5 {
            spec = spec.axis(huge.clone());
        }
        // 2^80 points: the saturating length caps, the checked length errors.
        assert_eq!(spec.len(), usize::MAX);
        assert!(matches!(
            spec.try_len(),
            Err(EcoChipError::SweepTooLarge(_))
        ));
        assert!(matches!(
            spec.case_at(0),
            Err(EcoChipError::SweepTooLarge(_))
        ));
    }

    #[test]
    fn specs_roundtrip_through_json() {
        let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::Systems(vec![
                ("a".to_owned(), base()),
                (
                    "b".to_owned(),
                    base().with_lifetime(TimeSpan::from_years(9.0)),
                ),
            ]))
            .axis(packaging_axis())
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.5]))
            .axis(SweepAxis::FabEnergySources(vec![EnergySource::Wind]));
        let json = serde_json::to_string(&spec).unwrap();
        let restored: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, spec);
        // Decoded specs generate identical cases, in identical order.
        assert_eq!(all_cases(&restored).unwrap(), all_cases(&spec).unwrap());

        // Struct variants (the disaggregation-deriving axes) round-trip too.
        let derived = SweepSpec::new(base())
            .axis(SweepAxis::NodeTuples {
                blocks: blocks.clone(),
                tuples: vec![NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10)],
            })
            .axis(SweepAxis::ChipletNode {
                index: 0,
                nodes: vec![TechNode::N5, TechNode::N7],
            });
        let json = serde_json::to_string(&derived).unwrap();
        let restored: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, derived);
        let counts = SweepSpec::new(base()).axis(SweepAxis::ChipletCounts {
            blocks,
            nodes: NodeTuple::uniform(TechNode::N7),
            counts: vec![1, 2, 3],
        });
        let json = serde_json::to_string(&counts).unwrap();
        let restored: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(all_cases(&restored).unwrap(), all_cases(&counts).unwrap());
    }

    #[test]
    fn reuse_ratio_axis_scales_chiplet_volume() {
        let axis = SweepAxis::reuse_ratios(100_000, &[1.0, 4.0]);
        let spec = SweepSpec::new(base()).axis(axis);
        let cases = all_cases(&spec).unwrap();
        assert_eq!(cases[1].system.volumes.chiplet_volume, 400_000);
        assert_eq!(cases[1].labels, ["NMi/NS=4"]);
    }
}
