//! Sweep axes, cartesian sweep specifications and shard selectors.

use std::fmt::{self, Write as _};

use serde::{Deserialize, Serialize};

use ecochip_design::VolumeScenario;
use ecochip_packaging::PackagingArchitecture;
use ecochip_techdb::{EnergySource, Range, TechNode, TimeSpan};

use crate::disaggregation::{
    check_logic_chiplets, split_logic, three_chiplets, NodeTuple, SocBlocks,
};
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
    /// Retarget the chiplet at `index` to each candidate node. One axis per
    /// chiplet spans the node-assignment space of Section VI; search it with
    /// [`crate::opt::optimize`] (e.g. [`crate::opt::OptMethod::Pareto`] on
    /// the `embodied` objective, whose first frontier point is the earliest
    /// minimum).
    ///
    /// It must come after the axes that replace the chiplet list (they would
    /// overwrite it), with an `index` every case has there: see
    /// [`SweepSpec::validate`].
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

    /// Whether the axis is *scalar*: it sets only inputs of the pricing
    /// step that ends every estimate (the design amortization of Eq. 12 and
    /// the lifetime of Eq. 1), so the sweep engine re-prices the previous
    /// report instead of re-running the floorplan, communication,
    /// manufacturing, package and operational stages. Only
    /// [`SweepAxis::Lifetimes`] and [`SweepAxis::Volumes`] are scalar;
    /// [`SweepAxis::FabEnergySources`] is not, because the fab's energy
    /// source changes every die's manufacturing CFP.
    pub fn is_scalar(&self) -> bool {
        matches!(self, SweepAxis::Lifetimes(_) | SweepAxis::Volumes(_))
    }

    /// Whether the axis replaces the system's whole chiplet list.
    fn replaces_chiplets(&self) -> bool {
        matches!(
            self,
            SweepAxis::NodeTuples { .. } | SweepAxis::ChipletCounts { .. } | SweepAxis::Systems(_)
        )
    }

    /// Apply point `digit` of this axis to `case`, writing its label into
    /// `case.labels[at]` (the buffer is cleared and reused).
    ///
    /// An axis only *sets* the fields it owns, and which fields it sets does
    /// not depend on `digit`. The one axis that also *reads* the case is
    /// [`SweepAxis::ChipletNode`], and [`SweepSpec::validate`] places it
    /// after every axis that replaces the chiplets. So re-applying axes
    /// `k..` on top of a case decoded with the same digits for axes `..k`
    /// yields exactly the case a decode from the base system would.
    fn apply(&self, case: &mut SweepCase, at: usize, digit: usize) -> Result<(), EcoChipError> {
        let label = &mut case.labels[at];
        label.clear();
        let system = &mut case.system;
        // Writing into a `String` cannot fail, so the `fmt::Result`s below
        // are discarded.
        match self {
            SweepAxis::NodeTuples { blocks, tuples } => {
                let tuple = tuples[digit];
                system.chiplets = three_chiplets(blocks, tuple);
                label.push_str(&tuple.label());
                system.name.clear();
                let _ = write!(system.name, "{} {label}", blocks.name);
            }
            SweepAxis::Packaging(archs) => {
                system.packaging = archs[digit];
                label.push_str(archs[digit].short_name());
            }
            SweepAxis::Volumes(volumes) => {
                system.volumes = volumes[digit];
                let _ = write!(label, "NMi/NS={}", volumes[digit].reuse_ratio());
            }
            SweepAxis::Lifetimes(lifetimes) => {
                system.lifetime = lifetimes[digit];
                let _ = write!(label, "{}y", lifetimes[digit].years());
            }
            SweepAxis::ChipletCounts {
                blocks,
                nodes,
                counts,
            } => {
                let count = counts[digit];
                system.chiplets = split_logic(blocks, count, *nodes)?;
                system.name.clear();
                let _ = write!(system.name, "{} ({count} digital chiplets)", blocks.name);
                let _ = write!(label, "Nc={count}");
            }
            SweepAxis::ChipletNode { index, nodes } => {
                // `SweepSpec::validate` keeps `index` below the chiplet count.
                system.chiplets[*index].node = nodes[digit];
                let _ = write!(label, "{}", nodes[digit].nm());
            }
            SweepAxis::FabEnergySources(sources) => {
                case.fab_source = Some(sources[digit]);
                let _ = write!(label, "{}", sources[digit]);
            }
            SweepAxis::Systems(systems) => {
                let (name, variant) = &systems[digit];
                system.clone_from(variant);
                label.push_str(name);
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

    /// Append the joined point label to `out`, as [`SweepCase::label`]
    /// returns it, without allocating when `out` has room.
    pub(crate) fn push_label(&self, out: &mut String) {
        for (at, label) in self.labels.iter().enumerate() {
            if at > 0 {
                out.push_str(" / ");
            }
            out.push_str(label);
        }
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
    /// Returns [`EcoChipError::InvalidSystem`] when a `Range` slice is
    /// inverted or extends past `total`.
    pub fn range(&self, total: usize) -> Result<std::ops::Range<usize>, EcoChipError> {
        match self {
            SweepSlice::Shard(shard) => Ok(shard.range(total)),
            SweepSlice::Range(range) if range.start > range.end || range.end > total => {
                Err(EcoChipError::InvalidSystem(format!(
                    "case range {}..{} is not a slice of the sweep's {total} cases",
                    range.start, range.end
                )))
            }
            SweepSlice::Range(range) => Ok(range.clone()),
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

/// A cartesian sweep specification: a base system plus any number of axes.
///
/// Cases are *index-addressable*: the spec never materializes its cartesian
/// product. [`SweepSpec::case_at`] decodes any flat index into its case in
/// `O(axes)` time, in deterministic row-major order — the first axis
/// varies slowest, the last axis fastest — exactly the order nested `for`
/// loops over the axes would produce. The engine's workers and the
/// optimizer's explorers decode through a per-worker cursor instead, which
/// re-applies only the axes whose digit changed since its previous case.
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

    /// Check the spec and return its case count; every case of a valid spec
    /// decodes. The product must fit the index space and the base system
    /// pass [`System::validate`]; then, axis by axis, `Systems` variants
    /// pass it too, packaging values pass
    /// [`PackagingArchitecture::validate`], lifetimes are > 0, volumes ≥ 1,
    /// custom fab sources in [11, 700] gCO₂e/kWh, chiplet counts pass
    /// [`check_logic_chiplets`], a
    /// [`SweepAxis::ChipletNode`] index is below the fewest chiplets a case
    /// holds there, and no axis replaces the chiplets after a retarget.
    ///
    /// # Errors
    ///
    /// [`EcoChipError::SweepTooLarge`] on overflow, else the first failing
    /// rule as [`EcoChipError::InvalidSystem`], starting with the value's
    /// path (`axes[1].Lifetimes[0]`, `axes[0].Systems["one"].lifetime`).
    pub fn validate(&self) -> Result<usize, EcoChipError> {
        use Range::{AtLeastOne, Intensity, Positive};
        let total = self.try_len()?;
        self.base.validate()?;
        // The fewest chiplets a case holds when the next axis applies, and
        // the first retarget.
        let (mut fewest, mut retarget) = (self.base.chiplets.len(), None);
        for (at, axis) in self.axes.iter().enumerate() {
            if let (Some(retarget), true) = (retarget, axis.replaces_chiplets()) {
                return Err(EcoChipError::InvalidSystem(format!(
                    "axes[{retarget}] (ChipletNode) must come after axes[{at}], which \
                     replaces the chiplet list and so overwrites the retarget"
                )));
            }
            match axis {
                SweepAxis::Systems(variants) => {
                    for (name, system) in variants {
                        system.validate().map_err(|error| match error {
                            EcoChipError::InvalidSystem(rule) => EcoChipError::InvalidSystem(
                                format!("axes[{at}].Systems[{name:?}].{rule}"),
                            ),
                            other => other,
                        })?;
                    }
                    let shortest = variants.iter().map(|(_, system)| system.chiplets.len());
                    fewest = shortest.min().unwrap_or(fewest);
                }
                SweepAxis::Lifetimes(lifetimes) => {
                    for (i, l) in lifetimes.iter().enumerate() {
                        Positive.check(format_args!("axes[{at}].Lifetimes[{i}]"), l.value())?;
                    }
                }
                SweepAxis::Volumes(volumes) => {
                    for (i, v) in volumes.iter().enumerate() {
                        let p = format_args!("axes[{at}].Volumes[{i}]");
                        AtLeastOne
                            .check(format_args!("{p}.chiplet_volume"), v.chiplet_volume as f64)?;
                        AtLeastOne
                            .check(format_args!("{p}.system_volume"), v.system_volume as f64)?;
                    }
                }
                SweepAxis::FabEnergySources(sources) => {
                    for (i, source) in sources.iter().enumerate() {
                        if let EnergySource::Custom(intensity) = *source {
                            let path = format_args!("axes[{at}].FabEnergySources[{i}].custom");
                            Intensity.check(path, intensity)?;
                        }
                    }
                }
                // `three_chiplets`: digital, memory, analog.
                SweepAxis::NodeTuples { .. } => fewest = 3,
                SweepAxis::ChipletCounts { counts, .. } => {
                    counts.iter().try_for_each(|&n| check_logic_chiplets(n))?;
                    // `split_logic` adds the memory and analog chiplets.
                    fewest = counts.iter().min().map_or(fewest, |count| count + 2);
                }
                SweepAxis::ChipletNode { index, .. } if *index >= fewest => {
                    return Err(EcoChipError::InvalidSystem(format!(
                        "sweep axis retargets chiplet {index} but a case of this sweep has \
                         only {fewest} chiplet(s)"
                    )));
                }
                SweepAxis::ChipletNode { .. } => retarget = retarget.or(Some(at)),
                SweepAxis::Packaging(archs) => {
                    for (i, arch) in archs.iter().enumerate() {
                        arch.validate().map_err(|error| {
                            EcoChipError::InvalidSystem(format!(
                                "axes[{at}].Packaging[{i}]: {error}"
                            ))
                        })?;
                    }
                }
            }
        }
        Ok(total)
    }

    /// Decode flat `index` of the row-major cartesian product into its case,
    /// in `O(axes)` time and without materializing any other point.
    ///
    /// # Errors
    ///
    /// Returns the [`SweepSpec::validate`] error of a refused spec, or
    /// [`EcoChipError::InvalidSystem`] when `index` is out of range.
    pub fn case_at(&self, index: usize) -> Result<SweepCase, EcoChipError> {
        let mut cursor = self.cursor()?;
        cursor.advance(index)?;
        Ok(cursor.case)
    }

    /// A fresh decoding cursor over this spec's case space.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::validate`].
    pub(crate) fn cursor(&self) -> Result<SweepCursor<'_>, EcoChipError> {
        Ok(SweepCursor {
            spec: self,
            total: self.validate()?,
            digits: vec![0; self.axes.len()],
            case: SweepCase {
                labels: vec![String::new(); self.axes.len()],
                system: self.base.clone(),
                fab_source: None,
            },
            valid: false,
        })
    }
}

/// An odometer over a validated spec's case space: it keeps the last
/// decoded case and its per-axis digits, and [`SweepCursor::advance`]
/// re-applies only the axes from the first one whose digit changed.
/// Engine workers claim contiguous chunks, so consecutive decodes mostly
/// re-apply the last axis alone, with no base-system clone and no label
/// `format!` for the unchanged axes. [`SweepSpec::case_at`] is a fresh
/// cursor and one advance, so there is one decoder.
#[derive(Debug, Clone)]
pub(crate) struct SweepCursor<'a> {
    spec: &'a SweepSpec,
    /// The spec's case count.
    pub(crate) total: usize,
    /// The digit of every axis in the last decode (row-major, last fastest).
    digits: Vec<usize>,
    /// The reused case, one label buffer per axis.
    case: SweepCase,
    /// Whether `case` holds the decode of `digits`: false when the cursor
    /// is fresh or its previous decode failed.
    valid: bool,
}

impl SweepCursor<'_> {
    /// Decode flat `index` into the cursor's case (read it with
    /// [`SweepCursor::case`]) and return the first axis re-applied: 0 when
    /// the decode started from the base system (a fresh cursor, or one
    /// whose previous decode failed), the axis count when no digit changed.
    ///
    /// # Errors
    ///
    /// [`EcoChipError::InvalidSystem`] when `index` is out of range; after
    /// a failed decode the next one starts from the base system again.
    pub(crate) fn advance(&mut self, index: usize) -> Result<usize, EcoChipError> {
        let spec = self.spec;
        if index >= self.total {
            return Err(EcoChipError::InvalidSystem(format!(
                "sweep case index {index} out of range for a {}-point sweep",
                self.total
            )));
        }
        let valid = std::mem::replace(&mut self.valid, false);
        // Row-major decode: the last axis varies fastest, so its digit is the
        // final remainder. Peeling digits back-to-front leaves `from` at the
        // first axis whose digit changed.
        let mut from = spec.axes.len();
        let mut remainder = index;
        for (at, axis) in spec.axes.iter().enumerate().rev() {
            let digit = remainder % axis.len();
            remainder /= axis.len();
            if self.digits[at] != digit {
                self.digits[at] = digit;
                from = at;
            }
        }
        if !valid {
            self.case.system.clone_from(&spec.base);
            self.case.fab_source = None;
            from = 0;
        }
        for (at, axis) in spec.axes.iter().enumerate().skip(from) {
            axis.apply(&mut self.case, at, self.digits[at])?;
        }
        self.valid = true;
        Ok(from)
    }

    /// The case of the last successful decode.
    pub(crate) fn case(&self) -> &SweepCase {
        &self.case
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Chiplet, ChipletSize};
    use ecochip_packaging::{RdlFanoutConfig, SiliconBridgeConfig};
    use ecochip_techdb::{Area, DesignType};
    use proptest::prelude::*;
    use proptest::TestRng;

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

    /// Retargets chiplet 3 of the count-2 split (4 chiplets), then
    /// re-splits into the 3-chiplet tuple, which overwrites the retarget.
    fn retarget_before_resplit() -> SweepSpec {
        let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
        SweepSpec::new(base())
            .axis(SweepAxis::ChipletCounts {
                blocks: blocks.clone(),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts: vec![2],
            })
            .axis(SweepAxis::ChipletNode {
                index: 3,
                nodes: vec![TechNode::N10, TechNode::N14],
            })
            .axis(SweepAxis::NodeTuples {
                blocks,
                tuples: vec![NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10)],
            })
    }

    /// Every decode of `walk` through one cursor equals a fresh `case_at`.
    fn assert_cursor_walk_matches(spec: &SweepSpec, walk: &[usize]) {
        let mut cursor = spec.cursor().unwrap();
        for &index in walk {
            let sought = cursor.advance(index).map(|_| cursor.case().clone());
            let sought = sought.map_err(|e| e.to_string());
            let fresh = spec.case_at(index).map_err(|e| e.to_string());
            assert_eq!(sought, fresh, "index {index} of {walk:?}");
        }
    }

    /// `validate`, `cursor` and `case_at` at every index refuse `spec` with
    /// one error, whose text contains `text`.
    fn assert_refused(spec: &SweepSpec, text: &str) {
        let refused = spec.validate().expect_err(text).to_string();
        assert!(refused.contains(text), "{refused}");
        assert_eq!(spec.cursor().unwrap_err().to_string(), refused);
        for index in 0..=spec.len().min(64) {
            assert_eq!(spec.case_at(index).unwrap_err().to_string(), refused);
        }
    }

    #[test]
    fn retargets_see_the_chiplets_of_the_axes_before_them() {
        let retarget = |index| SweepAxis::ChipletNode {
            index,
            nodes: vec![TechNode::N10, TechNode::N14],
        };
        let [counts, _, tuples]: [SweepAxis; 3] =
            retarget_before_resplit().axes.try_into().unwrap();
        // After a re-split, a retarget's index is checked against the
        // chiplets the split leaves: 4 for the count-2 split, 3 for a tuple.
        let spec = SweepSpec::new(base()).axis(counts).axis(retarget(3));
        assert_eq!(spec.validate().unwrap(), 2);
        assert_eq!(
            spec.case_at(1).unwrap().system.chiplets[3].node,
            TechNode::N14
        );
        let spec = SweepSpec::new(base()).axis(tuples).axis(retarget(3));
        assert_refused(
            &spec,
            "retargets chiplet 3 but a case of this sweep has only 3",
        );

        // A retarget ahead of an axis that replaces the chiplets is
        // refused even when its index fits: the later axis overwrites it.
        assert_refused(
            &retarget_before_resplit(),
            "axes[1] (ChipletNode) must come after axes[2], which replaces the chiplet list",
        );
        let one_chiplet = {
            let mut system = base();
            system.chiplets.truncate(1);
            system
        };
        let systems = SweepAxis::Systems(vec![
            ("base".to_owned(), base()),
            ("one".to_owned(), one_chiplet),
        ]);
        let spec = SweepSpec::new(base())
            .axis(retarget(1))
            .axis(systems.clone());
        assert_refused(&spec, "axes[0] (ChipletNode) must come after axes[1]");

        // After a `Systems` axis, a retarget sees its variants' chiplets.
        let spec = SweepSpec::new(base())
            .axis(systems.clone())
            .axis(retarget(1));
        assert_refused(
            &spec,
            "retargets chiplet 1 but a case of this sweep has only 1",
        );
        let spec = SweepSpec::new(base()).axis(systems).axis(retarget(0));
        assert_eq!(all_cases(&spec).unwrap().len(), 4);
        assert_cursor_walk_matches(&spec, &[0, 1, 2, 3, 1, 0, 3]);
    }

    #[test]
    fn axis_values_outside_their_ranges_are_refused() {
        let lifetimes = |years: f64| SweepAxis::lifetimes_years(&[2.0, years]);
        let volumes = |chiplet_volume| {
            SweepAxis::Volumes(vec![VolumeScenario {
                chiplet_volume,
                system_volume: 1,
            }])
        };
        let sources = |intensity| {
            SweepAxis::FabEnergySources(vec![EnergySource::Wind, EnergySource::Custom(intensity)])
        };
        let mut expired = base();
        expired.lifetime = TimeSpan::from_years(-1.0);
        let systems = SweepAxis::Systems(vec![("ok".into(), base()), ("bad".into(), expired)]);
        for (axis, text) in [
            (
                lifetimes(-1.0),
                "axes[1].Lifetimes[1] must be finite and > 0, got -8760",
            ),
            (
                lifetimes(0.0),
                "axes[1].Lifetimes[1] must be finite and > 0, got 0",
            ),
            (
                lifetimes(f64::NAN),
                "axes[1].Lifetimes[1] must be finite and > 0, got NaN",
            ),
            (
                volumes(0),
                "axes[1].Volumes[0].chiplet_volume must be ≥ 1, got 0",
            ),
            (
                sources(-50.0),
                "axes[1].FabEnergySources[1].custom must be in [11, 700]",
            ),
            (
                sources(5000.0),
                "axes[1].FabEnergySources[1].custom must be in [11, 700]",
            ),
            (
                systems,
                r#"axes[1].Systems["bad"].lifetime must be finite and > 0"#,
            ),
            (
                SweepAxis::Packaging(vec![
                    PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                    PackagingArchitecture::RdlFanout(RdlFanoutConfig {
                        layers: 0,
                        ..RdlFanoutConfig::default()
                    }),
                ]),
                "axes[1].Packaging[1]: invalid value 0 for rdl_layers",
            ),
            (
                SweepAxis::Packaging(vec![PackagingArchitecture::SiliconBridge(
                    SiliconBridgeConfig {
                        bridge_area: Area::from_mm2(-1.0),
                        ..SiliconBridgeConfig::default()
                    },
                )]),
                "axes[1].Packaging[0]: invalid value -1 for bridge_area",
            ),
        ] {
            assert_refused(
                &SweepSpec::new(base()).axis(packaging_axis()).axis(axis),
                text,
            );
        }
        for intensity in [11.0, 250.0, 700.0] {
            assert!(SweepSpec::new(base())
                .axis(sources(intensity))
                .validate()
                .is_ok());
        }
        // The base system is checked too, and the overflow check comes
        // first.
        let mut bad_base = base();
        bad_base.volumes.system_volume = 0;
        assert_refused(
            &SweepSpec::new(bad_base.clone()),
            "volumes.system_volume must be ≥ 1",
        );
        let huge = SweepAxis::lifetimes_years(&vec![-1.0; 1 << 16]);
        let spec = (0..5).fold(SweepSpec::new(bad_base), |spec, _| spec.axis(huge.clone()));
        assert!(matches!(
            spec.validate(),
            Err(EcoChipError::SweepTooLarge(_))
        ));
    }

    /// A random spec mixing every axis kind: an optional `Systems` axis
    /// first, then up to five axes of any kind in random order (`Systems`
    /// included), weighted toward the axes that read or replace the
    /// chiplet list. Axes have one to three points; `ChipletCounts` may
    /// hold a 0 (a refused split), and `ChipletNode` indices are valid for
    /// some chiplet counts and not for others. Three specs in four move
    /// their `ChipletNode` axes after all the others, so most specs pass
    /// [`SweepSpec::validate`]; the rest exercise its refusals.
    fn random_spec(rng: &mut TestRng) -> SweepSpec {
        let nodes = [TechNode::N5, TechNode::N7, TechNode::N10, TechNode::N14];
        let node = |rng: &mut TestRng| nodes[rng.next_below(4) as usize];
        let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
        let len = |rng: &mut TestRng| 1 + rng.next_below(3) as usize;
        let systems = |rng: &mut TestRng| {
            let systems = (0..len(rng))
                .map(|at| {
                    let years = 1.0 + at as f64;
                    let mut system = base().with_lifetime(TimeSpan::from_years(years));
                    system.chiplets.truncate(1 + at % 2);
                    (format!("sys{at}"), system)
                })
                .collect();
            SweepAxis::Systems(systems)
        };
        let mut axes = Vec::new();
        if rng.next_below(2) == 0 {
            axes.push(systems(rng));
        }
        for _ in 0..rng.next_below(6) {
            let axis = match rng.next_below(12) {
                0 | 1 => SweepAxis::NodeTuples {
                    blocks: blocks.clone(),
                    tuples: (0..len(rng))
                        .map(|_| NodeTuple::new(node(rng), node(rng), node(rng)))
                        .collect(),
                },
                2 | 3 => SweepAxis::ChipletCounts {
                    blocks: blocks.clone(),
                    nodes: NodeTuple::new(node(rng), node(rng), node(rng)),
                    counts: (0..len(rng))
                        .map(|_| [0, 1, 2, 3, 4, 4][rng.next_below(6) as usize])
                        .collect(),
                },
                4..=6 => SweepAxis::ChipletNode {
                    index: rng.next_below(6) as usize,
                    nodes: (0..len(rng)).map(|_| node(rng)).collect(),
                },
                7 => SweepAxis::FabEnergySources(
                    (0..len(rng))
                        .map(|_| {
                            [EnergySource::Coal, EnergySource::Wind][rng.next_below(2) as usize]
                        })
                        .collect(),
                ),
                8 => SweepAxis::lifetimes_years(
                    &(0..len(rng)).map(|at| 1.0 + at as f64).collect::<Vec<_>>(),
                ),
                9 => SweepAxis::reuse_ratios(
                    100_000,
                    &(0..len(rng)).map(|at| 1.0 + at as f64).collect::<Vec<_>>(),
                ),
                10 => systems(rng),
                _ => packaging_axis(),
            };
            axes.push(axis);
        }
        if rng.next_below(4) != 0 {
            axes.sort_by_key(|axis| matches!(axis, SweepAxis::ChipletNode { .. }));
        }
        axes.into_iter()
            .fold(SweepSpec::new(base()), SweepSpec::axis)
    }

    /// A walk over `0..total` and a little beyond: sequential runs, jumps,
    /// single steps back, repeats and out-of-range indices.
    fn random_walk(rng: &mut TestRng, total: usize) -> Vec<usize> {
        let span = total as u64 + 1;
        let mut at = 0usize;
        let mut walk = Vec::new();
        for _ in 0..24 {
            match rng.next_below(5) {
                0 => {
                    for _ in 0..rng.next_below(8) {
                        at += 1;
                        walk.push(at);
                    }
                }
                1 => {
                    at = rng.next_below(span) as usize;
                    walk.push(at);
                }
                2 => {
                    at = at.saturating_sub(1);
                    walk.push(at);
                }
                3 => walk.push(at),
                _ => walk.push(total + rng.next_below(3) as usize),
            }
        }
        walk
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every decode the cursor's case equals a fresh `case_at`
        /// (labels, system and fab source), or both fail with the same
        /// error text. A spec `validate` refuses fails `case_at` with its
        /// refusal at every index.
        #[test]
        fn cursor_seeks_match_case_at(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::seed_from_u64(seed);
            let spec = random_spec(&mut rng);
            let walk = random_walk(&mut rng, spec.len());
            match spec.cursor() {
                Ok(mut cursor) => {
                    for index in walk {
                        let sought = cursor.advance(index).map(|_| cursor.case().clone());
            let sought = sought.map_err(|e| e.to_string());
                        let fresh = spec.case_at(index).map_err(|e| e.to_string());
                        prop_assert_eq!(sought, fresh);
                    }
                }
                Err(refused) => {
                    for index in walk {
                        let fresh = spec.case_at(index).err().map(|e| e.to_string());
                        prop_assert_eq!(fresh, Some(refused.to_string()));
                    }
                }
            }
        }
    }

    #[test]
    fn advance_returns_the_first_axis_it_reapplied() {
        let spec = SweepSpec::new(base())
            .axis(packaging_axis())
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]));
        let mut cursor = spec.cursor().unwrap();
        // Fresh: from the base system. Then a lifetime step, a revisit,
        // a packaging step, a lifetime jump and a packaging step back.
        for (index, from) in [(1, 0), (2, 1), (2, 2), (3, 0), (5, 1), (1, 0)] {
            assert_eq!(cursor.advance(index).unwrap(), from, "index {index}");
            assert_eq!(cursor.case(), &spec.case_at(index).unwrap());
        }
        // An index out of range decodes nothing and keeps the case.
        assert!(cursor.advance(6).is_err());
        assert_eq!(cursor.advance(2).unwrap(), 1);
        assert!(SweepAxis::lifetimes_years(&[1.0]).is_scalar());
        assert!(SweepAxis::reuse_ratios(1, &[1.0]).is_scalar());
        assert!(!SweepAxis::FabEnergySources(vec![EnergySource::Wind]).is_scalar());
        assert!(!packaging_axis().is_scalar());
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
