//! Carbon-aware multi-objective optimization over sweep spaces.
//!
//! Exhaustive sweeps enumerate a cartesian product; this module turns the
//! same index-addressable [`SweepSpec`] into a *search* problem:
//!
//! * [`ObjectiveSet`] — which axes of merit to optimize (embodied CFP,
//!   operational CFP, dollar cost, silicon area), selectable per run.
//! * [`ParetoFrontier`] — the set of non-dominated design points, kept in
//!   canonical (case-index) order so two runs that evaluate the same cases
//!   produce byte-identical frontiers.
//! * [`ParetoSink`] — a streaming [`SweepSink`] that rides the chunked
//!   [`SweepEngine`] pipeline: the engine's
//!   deterministic emission order makes the frontier invariant to worker
//!   count, chunk size and sharding.
//! * [`optimize`] — the single entry point dispatching on [`OptMethod`]:
//!   exhaustive Pareto enumeration, simulated annealing, or a steady-state
//!   genetic explorer. The heuristics are budget-bounded (they answer
//!   spaces where [`SweepSpec::try_len`] would overflow or exhaustive
//!   evaluation is unaffordable) and deterministic via a seeded
//!   [`SplitMix64`] stream — same seed, same trajectory, same bytes.
//!
//! Every front end (CLI `--optimize`, `POST /v1/optimize`, the
//! orchestrator's island mode) emits the same [`OptEvent`] NDJSON lines:
//! one `improvement` event per incumbent/frontier improvement and a final
//! `done` event carrying the full frontier.

use ecochip_trace::StageTimings;
use serde::{Deserialize, Serialize};

use crate::costing;
use crate::error::EcoChipError;
use crate::estimator::EcoChip;
use crate::report::CarbonReport;
use crate::sweep::{
    CaseEvaluator, CaseWalker, Shard, SweepContext, SweepEngine, SweepPoint, SweepSink, SweepSpec,
};
use crate::system::System;

/// Default evaluation budget for the heuristic explorers.
pub const DEFAULT_BUDGET: usize = 128;

/// Default RNG seed (explorer runs are deterministic per seed).
pub const DEFAULT_SEED: u64 = 0;

/// The objective names [`ObjectiveSet`] parses, for usage strings.
pub const OBJECTIVE_NAMES: &str = "embodied|operational|cost|area";

/// The method names [`OptMethod`] parses, for usage strings.
pub const METHOD_NAMES: &str = "pareto|anneal|genetic";

/// A malformed optimization parameter (method or objective list).
///
/// Front ends map this to their usage-error contract: the CLI exits 2 with
/// the message as a one-line hint, the HTTP server answers 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptParseError(String);

impl OptParseError {
    /// The one-line description of what was malformed.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for OptParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for OptParseError {}

/// The deterministic splitmix64 generator driving the explorers.
///
/// Tiny, seedable and platform-independent: the same seed produces the
/// same stream everywhere, which is what makes seeded `--optimize` runs
/// byte-identical and CI-diffable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

/// The splitmix64 stream increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform index in `[0, n)`. `n` must be non-zero.
    ///
    /// Uses the modulo reduction: the tiny bias is irrelevant for search
    /// heuristics and keeps the stream trivially reproducible.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range needs a non-empty range");
        self.next_u64() % n
    }
}

/// Derive island `island`'s RNG seed from the run seed.
///
/// Each island of an island-model run explores its shard with its own
/// deterministic stream; the derivation is stable, so a given
/// `(seed, island)` pair always explores the same trajectory regardless of
/// how many other islands run beside it.
#[must_use]
pub fn island_seed(seed: u64, island: usize) -> u64 {
    SplitMix64::new(seed ^ GOLDEN.wrapping_mul(island as u64 + 1)).next_u64()
}

/// One axis of merit a design point is scored on. All objectives are
/// minimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptObjective {
    /// Embodied CFP (manufacturing + HI + design), kg CO₂e.
    Embodied,
    /// Lifetime operational CFP, kg CO₂e.
    Operational,
    /// System dollar cost (the Fig. 15 cost model).
    Cost,
    /// Total silicon area, mm².
    Area,
}

impl OptObjective {
    /// The wire/CLI name of this objective.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptObjective::Embodied => "embodied",
            OptObjective::Operational => "operational",
            OptObjective::Cost => "cost",
            OptObjective::Area => "area",
        }
    }

    /// Score `system`/`report` on this objective (lower is better).
    fn score(
        self,
        estimator: &EcoChip,
        system: &System,
        report: &CarbonReport,
    ) -> Result<f64, EcoChipError> {
        Ok(match self {
            OptObjective::Embodied => report.embodied().kg(),
            OptObjective::Operational => report.operational().kg(),
            OptObjective::Cost => costing::system_cost(estimator, system)?.total().dollars(),
            OptObjective::Area => report.silicon_area().mm2(),
        })
    }
}

impl std::str::FromStr for OptObjective {
    type Err = OptParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "embodied" => Ok(OptObjective::Embodied),
            "operational" => Ok(OptObjective::Operational),
            "cost" => Ok(OptObjective::Cost),
            "area" => Ok(OptObjective::Area),
            other => Err(OptParseError(format!(
                "unknown objective {other:?}; pass a comma-separated list of {OBJECTIVE_NAMES}"
            ))),
        }
    }
}

/// An ordered, duplicate-free set of objectives.
///
/// The order is the order values appear in every [`FrontierPoint`], so it
/// is part of the wire contract: `"embodied,cost"` and `"cost,embodied"`
/// are different sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSet {
    objectives: Vec<OptObjective>,
}

impl Default for ObjectiveSet {
    /// The paper's headline tradeoff: embodied vs operational CFP.
    fn default() -> Self {
        Self {
            objectives: vec![OptObjective::Embodied, OptObjective::Operational],
        }
    }
}

impl ObjectiveSet {
    /// The objectives, in scoring order.
    #[must_use]
    pub fn objectives(&self) -> &[OptObjective] {
        &self.objectives
    }

    /// Number of objectives in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Whether the set is empty (never true for a parsed set).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// The canonical comma-joined form (`"embodied,operational"`).
    #[must_use]
    pub fn label(&self) -> String {
        self.objectives
            .iter()
            .map(|o| o.label())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Score a design on every objective, in set order.
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors when [`OptObjective::Cost`] is in the
    /// set.
    pub fn score(
        &self,
        estimator: &EcoChip,
        system: &System,
        report: &CarbonReport,
    ) -> Result<Vec<f64>, EcoChipError> {
        self.objectives
            .iter()
            .map(|objective| objective.score(estimator, system, report))
            .collect()
    }
}

impl std::str::FromStr for ObjectiveSet {
    type Err = OptParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut objectives = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(OptParseError(format!(
                    "empty objective in {s:?}; pass a comma-separated list of {OBJECTIVE_NAMES}"
                )));
            }
            let objective: OptObjective = part.parse()?;
            if objectives.contains(&objective) {
                return Err(OptParseError(format!(
                    "duplicate objective {part:?} in {s:?}"
                )));
            }
            objectives.push(objective);
        }
        if objectives.is_empty() {
            return Err(OptParseError(format!(
                "no objectives in {s:?}; pass a comma-separated list of {OBJECTIVE_NAMES}"
            )));
        }
        Ok(Self { objectives })
    }
}

/// The optimization method a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptMethod {
    /// Exhaustive streaming Pareto enumeration of the (sharded) space.
    Pareto,
    /// Budget-bounded simulated annealing over axis indices.
    Anneal,
    /// Budget-bounded steady-state genetic search over axis indices.
    Genetic,
}

impl OptMethod {
    /// The wire/CLI name of this method.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptMethod::Pareto => "pareto",
            OptMethod::Anneal => "anneal",
            OptMethod::Genetic => "genetic",
        }
    }
}

impl std::str::FromStr for OptMethod {
    type Err = OptParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pareto" => Ok(OptMethod::Pareto),
            "anneal" => Ok(OptMethod::Anneal),
            "genetic" => Ok(OptMethod::Genetic),
            other => Err(OptParseError(format!(
                "unknown optimize method {other:?}; pass {METHOD_NAMES}"
            ))),
        }
    }
}

/// One named objective value of a [`FrontierPoint`] (the wire form keeps
/// the name next to the number so streams are self-describing).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectiveValue {
    /// Objective name (`"embodied"`, `"operational"`, `"cost"`, `"area"`).
    pub objective: String,
    /// The score (lower is better).
    pub value: f64,
}

/// A design point on (or considered for) the Pareto frontier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// The point's flat case index in the sweep's index space — the
    /// canonical identity (and sort key) of the design.
    pub index: usize,
    /// Human-readable case label (axis values joined with `" / "`).
    pub label: String,
    /// Objective scores, in [`ObjectiveSet`] order.
    pub objectives: Vec<ObjectiveValue>,
}

impl FrontierPoint {
    /// A point scored as `values` (in `set` order) for case `index`.
    #[must_use]
    pub fn new(index: usize, label: String, set: &ObjectiveSet, values: &[f64]) -> Self {
        let objectives = set
            .objectives()
            .iter()
            .zip(values)
            .map(|(objective, value)| ObjectiveValue {
                objective: objective.label().to_string(),
                value: *value,
            })
            .collect();
        Self {
            index,
            label,
            objectives,
        }
    }

    /// The raw objective values, in set order.
    pub fn values(&self) -> impl Iterator<Item = f64> + Clone + '_ {
        self.objectives.iter().map(|o| o.value)
    }

    /// Pareto dominance: `self` dominates `other` iff it is no worse on
    /// every objective and strictly better on at least one.
    #[must_use]
    pub fn dominates(&self, other: &FrontierPoint) -> bool {
        debug_assert_eq!(self.objectives.len(), other.objectives.len());
        dominates(self.values(), other.values())
    }
}

/// Pareto dominance over raw objective values, in set order.
fn dominates(a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> bool {
    let mut strictly_better = false;
    for (a, b) in a.zip(b) {
        if a > b {
            return false;
        }
        if a < b {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The set of non-dominated points seen so far, in canonical case-index
/// order.
///
/// Insertion is order-independent: the surviving set is exactly the
/// non-dominated subset of everything ever inserted, so sharded runs that
/// merge per-shard frontiers reproduce the unsharded frontier.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParetoFrontier {
    points: Vec<FrontierPoint>,
}

impl ParetoFrontier {
    /// An empty frontier.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The frontier, sorted by case index.
    #[must_use]
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Number of points currently on the frontier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Consume the frontier into its sorted points.
    #[must_use]
    pub fn into_points(self) -> Vec<FrontierPoint> {
        self.points
    }

    /// Offer `candidate` to the frontier. Returns `true` when the
    /// candidate was admitted (it is not dominated by, nor a duplicate
    /// of, any current point); dominated incumbents are evicted.
    pub fn insert(&mut self, candidate: FrontierPoint) -> bool {
        if !self.admits(candidate.index, candidate.values()) {
            return false;
        }
        self.admit(candidate);
        true
    }

    /// Whether [`ParetoFrontier::insert`] would admit case `index` scored
    /// as `values` (in set order), checked on the raw values so callers
    /// build the candidate point only once it is admitted.
    pub(crate) fn admits(&self, index: usize, values: impl Iterator<Item = f64> + Clone) -> bool {
        // Explorers revisit indices; the same case is never an improvement.
        self.points
            .iter()
            .all(|p| p.index != index && !dominates(p.values(), values.clone()))
    }

    /// Add a candidate [`ParetoFrontier::admits`] accepted, evicting the
    /// incumbents it dominates.
    pub(crate) fn admit(&mut self, candidate: FrontierPoint) {
        self.points.retain(|p| !candidate.dominates(p));
        let at = self.points.partition_point(|p| p.index < candidate.index);
        self.points.insert(at, candidate);
    }

    /// Merge another frontier in (island/shard merge). Returns how many of
    /// its points were admitted.
    pub fn merge(&mut self, other: &ParetoFrontier) -> usize {
        other
            .points
            .iter()
            .filter(|p| self.insert((*p).clone()))
            .count()
    }
}

/// Parameters of one optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptConfig {
    /// The search method.
    pub method: OptMethod,
    /// The objectives to minimize.
    pub objectives: ObjectiveSet,
    /// Evaluation budget for the heuristic explorers (ignored by
    /// [`OptMethod::Pareto`], which enumerates its slice exhaustively).
    pub budget: usize,
    /// RNG seed (explorer trajectories are deterministic per seed).
    pub seed: u64,
    /// Island index stamped into emitted events, for island-model runs.
    pub island: Option<usize>,
    /// Points seeding the frontier archive before exploration starts —
    /// the island-model frontier exchange: each round an island receives
    /// the merged global frontier, so only genuinely new non-dominated
    /// points are reported as improvements.
    pub seed_frontier: Vec<FrontierPoint>,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            method: OptMethod::Pareto,
            objectives: ObjectiveSet::default(),
            budget: DEFAULT_BUDGET,
            seed: DEFAULT_SEED,
            island: None,
            seed_frontier: Vec::new(),
        }
    }
}

/// One NDJSON line of an optimization stream.
///
/// `event` is `"improvement"` (carries `point`, the newly admitted
/// incumbent/frontier point) or `"done"` (carries `frontier`, the full
/// final frontier). Fields that do not apply to an event kind are `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptEvent {
    /// `"improvement"` or `"done"`.
    pub event: String,
    /// The method that produced the event (`"pareto"|"anneal"|"genetic"`).
    pub method: String,
    /// Island index, for island-model runs.
    pub island: Option<usize>,
    /// Cases evaluated so far (including this one).
    pub evaluated: usize,
    /// Frontier size after this event.
    pub frontier_size: usize,
    /// The improving point (`improvement` events only).
    pub point: Option<FrontierPoint>,
    /// The full final frontier, sorted by case index (`done` events only).
    pub frontier: Option<Vec<FrontierPoint>>,
}

impl OptEvent {
    /// An incumbent/frontier improvement event.
    #[must_use]
    pub fn improvement(
        method: OptMethod,
        island: Option<usize>,
        evaluated: usize,
        frontier_size: usize,
        point: FrontierPoint,
    ) -> Self {
        Self {
            event: "improvement".to_string(),
            method: method.label().to_string(),
            island,
            evaluated,
            frontier_size,
            point: Some(point),
            frontier: None,
        }
    }

    /// The terminal event carrying the final frontier.
    #[must_use]
    pub fn done(outcome: &OptOutcome, island: Option<usize>) -> Self {
        Self {
            event: "done".to_string(),
            method: outcome.method.clone(),
            island,
            evaluated: outcome.evaluated,
            frontier_size: outcome.frontier.len(),
            point: None,
            frontier: Some(outcome.frontier.clone()),
        }
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptOutcome {
    /// The method that ran (`"pareto"|"anneal"|"genetic"`).
    pub method: String,
    /// Total cases evaluated.
    pub evaluated: usize,
    /// The final Pareto frontier, sorted by case index.
    pub frontier: Vec<FrontierPoint>,
}

/// A streaming [`SweepSink`] that folds sweep points into a Pareto
/// frontier and reports admissions as [`OptEvent`]s.
///
/// The engine emits points in deterministic case order, so the point's
/// flat index is `start_index + emission count` — and the resulting
/// frontier (and event stream) is bit-for-bit invariant to `--jobs` and
/// the engine's claim size.
#[derive(Debug)]
pub struct ParetoSink<'a, F> {
    estimator: &'a EcoChip,
    objectives: &'a ObjectiveSet,
    island: Option<usize>,
    frontier: ParetoFrontier,
    next_index: usize,
    evaluated: usize,
    on_event: F,
}

impl<'a, F> ParetoSink<'a, F>
where
    F: FnMut(&OptEvent) -> Result<(), EcoChipError>,
{
    /// A sink scoring points with `objectives`, numbering them from
    /// `start_index` (the owning shard's first case index).
    pub fn new(
        estimator: &'a EcoChip,
        objectives: &'a ObjectiveSet,
        start_index: usize,
        island: Option<usize>,
        on_event: F,
    ) -> Self {
        Self {
            estimator,
            objectives,
            island,
            frontier: ParetoFrontier::new(),
            next_index: start_index,
            evaluated: 0,
            on_event,
        }
    }

    /// Replace the starting frontier (the island-model frontier
    /// exchange: points already known globally are not re-reported).
    #[must_use]
    pub fn with_frontier(mut self, frontier: ParetoFrontier) -> Self {
        self.frontier = frontier;
        self
    }

    /// Finish the stream: the frontier and the number of points folded.
    #[must_use]
    pub fn finish(self) -> (ParetoFrontier, usize) {
        (self.frontier, self.evaluated)
    }
}

impl<F> SweepSink for ParetoSink<'_, F>
where
    F: FnMut(&OptEvent) -> Result<(), EcoChipError>,
{
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        _repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        for point in points {
            let index = self.next_index;
            self.next_index += 1;
            self.evaluated += 1;
            let values = self
                .objectives
                .score(self.estimator, &point.system, &point.report)?;
            // Most candidates are rejected: build the point (and copy its
            // label out of the engine's slot) only on admission.
            if !self.frontier.admits(index, values.iter().copied()) {
                continue;
            }
            let candidate =
                FrontierPoint::new(index, point.label.clone(), self.objectives, &values);
            self.frontier.admit(candidate.clone());
            (self.on_event)(&OptEvent::improvement(
                OptMethod::Pareto,
                self.island,
                self.evaluated,
                self.frontier.len(),
                candidate,
            ))?;
        }
        Ok(())
    }
}

/// A scored case: its frontier form plus the scalar annealing energy.
#[derive(Debug, Clone)]
struct Evaluated {
    point: FrontierPoint,
    energy: f64,
}

/// Scalarize an objective vector for the single-incumbent explorers:
/// the sum of natural logs (a geometric-mean energy), so objectives with
/// wildly different units (kg vs dollars vs mm²) contribute comparable,
/// scale-free gradients.
fn scalar_energy(values: &[f64]) -> f64 {
    values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum()
}

/// The state the budget-bounded explorers share; each explorer only
/// decides which index to visit next. Cases are decoded through one
/// [`CaseWalker`], priced serially through the engine's [`CaseEvaluator`]
/// and scored, borrowed from the walker, with the base estimator, as
/// [`ParetoSink`] does, which is what makes explorer trajectories
/// independent of worker counts.
struct Explorer<'a> {
    method: OptMethod,
    island: Option<usize>,
    estimator: &'a EcoChip,
    objectives: &'a ObjectiveSet,
    cases: CaseEvaluator<'a>,
    walker: CaseWalker<'a>,
    frontier: ParetoFrontier,
    evaluated: usize,
    /// The lowest scalar energy visited so far.
    best: f64,
    on_event: &'a mut dyn FnMut(&OptEvent) -> Result<(), EcoChipError>,
}

impl Explorer<'_> {
    /// Evaluate and score case `index`, offer it to the frontier, and
    /// report an improvement on the first visit or a lower scalar energy.
    fn visit(&mut self, index: usize) -> Result<Evaluated, EcoChipError> {
        let priced = self.cases.price(&mut self.walker, index)?;
        let values = self
            .objectives
            .score(self.estimator, &priced.case.system, priced.report)?;
        let scored = Evaluated {
            point: FrontierPoint::new(index, priced.case.label(), self.objectives, &values),
            energy: scalar_energy(&values),
        };
        self.evaluated += 1;
        if self.frontier.admits(index, values.iter().copied()) {
            self.frontier.admit(scored.point.clone());
        }
        if self.evaluated == 1 || scored.energy < self.best {
            self.best = scored.energy;
            (self.on_event)(&OptEvent::improvement(
                self.method,
                self.island,
                self.evaluated,
                self.frontier.len(),
                scored.point.clone(),
            ))?;
        }
        Ok(scored)
    }

    fn finish(self) -> OptOutcome {
        OptOutcome {
            method: self.method.label().to_string(),
            evaluated: self.evaluated,
            frontier: self.frontier.into_points(),
        }
    }
}

/// Decompose a flat case index into per-axis digits (row-major, last axis
/// fastest — the [`SweepSpec::case_at`] convention).
fn digits_of(mut index: usize, lens: &[usize]) -> Vec<usize> {
    let mut digits = vec![0usize; lens.len()];
    for (at, len) in lens.iter().enumerate().rev() {
        digits[at] = index % len;
        index /= len;
    }
    digits
}

/// Recompose per-axis digits into a flat case index.
fn index_of(digits: &[usize], lens: &[usize]) -> usize {
    let mut index = 0usize;
    for (digit, len) in digits.iter().zip(lens) {
        index = index * len + digit;
    }
    index
}

/// Map an arbitrary flat index into the explored range (island shards
/// explore only their own slice of the index space).
fn into_range(index: usize, range: &std::ops::Range<usize>) -> usize {
    if range.contains(&index) {
        index
    } else {
        range.start + index % range.len()
    }
}

/// A single-axis mutation of `index`: step one axis's digit ±1 (wrapping
/// within the axis), then fold the result back into `range`.
fn neighbor(
    index: usize,
    lens: &[usize],
    range: &std::ops::Range<usize>,
    rng: &mut SplitMix64,
) -> usize {
    let movable: Vec<usize> = (0..lens.len()).filter(|&at| lens[at] > 1).collect();
    if movable.is_empty() || range.len() < 2 {
        return index;
    }
    let axis = movable[rng.gen_range(movable.len() as u64) as usize];
    let len = lens[axis];
    let mut digits = digits_of(index, lens);
    let step = if rng.next_u64() & 1 == 0 { 1 } else { len - 1 };
    digits[axis] = (digits[axis] + step) % len;
    into_range(index_of(&digits, lens), range)
}

/// Run one optimization over the slice of `spec`'s index space that
/// `shard` owns, emitting [`OptEvent`] lines through `on_event` (every
/// improvement, then the terminal `done` event) and returning the final
/// outcome.
///
/// * [`OptMethod::Pareto`] enumerates the slice exhaustively through
///   `engine`'s chunked streaming pipeline (so `--jobs` and the claim size
///   change wall-clock, never bytes).
/// * [`OptMethod::Anneal`] / [`OptMethod::Genetic`] evaluate serially,
///   bounded by `config.budget`, deterministic per `config.seed`.
///
/// # Errors
///
/// Propagates spec resolution, estimator, cost-model and sink errors.
#[allow(clippy::too_many_arguments)]
pub fn optimize<F>(
    estimator: &EcoChip,
    engine: &SweepEngine,
    spec: &SweepSpec,
    shard: Shard,
    context: &SweepContext,
    timings: Option<&StageTimings>,
    config: &OptConfig,
    mut on_event: F,
) -> Result<OptOutcome, EcoChipError>
where
    F: FnMut(&OptEvent) -> Result<(), EcoChipError>,
{
    let walker = CaseWalker::new(spec)?;
    let range = shard.range(walker.total());
    let mut seeded = ParetoFrontier::new();
    for point in &config.seed_frontier {
        seeded.insert(point.clone());
    }
    let outcome = match config.method {
        OptMethod::Pareto => {
            let mut sink = ParetoSink::new(
                estimator,
                &config.objectives,
                range.start,
                config.island,
                &mut on_event,
            )
            .with_frontier(seeded);
            engine.stream(estimator, spec, shard, context, timings, &mut sink)?;
            let (frontier, evaluated) = sink.finish();
            OptOutcome {
                method: OptMethod::Pareto.label().to_string(),
                evaluated,
                frontier: frontier.into_points(),
            }
        }
        method => {
            let mut explorer = Explorer {
                method,
                island: config.island,
                estimator,
                objectives: &config.objectives,
                cases: CaseEvaluator::new(estimator, context, timings),
                walker,
                frontier: seeded,
                evaluated: 0,
                best: f64::INFINITY,
                on_event: &mut on_event,
            };
            if !range.is_empty() {
                let lens: Vec<usize> = spec.axes().iter().map(|axis| axis.len()).collect();
                let budget = config.budget.max(1);
                let mut rng = SplitMix64::new(config.seed);
                if method == OptMethod::Anneal {
                    anneal(&mut explorer, &lens, &range, budget, &mut rng)?;
                } else {
                    genetic(&mut explorer, &lens, &range, budget, &mut rng)?;
                }
            }
            explorer.finish()
        }
    };
    on_event(&OptEvent::done(&outcome, config.island))?;
    Ok(outcome)
}

/// Simulated annealing over the flat index space: single-axis neighbor
/// moves, linear cooling, Metropolis acceptance on the log-scalarized
/// energy.
fn anneal(
    explorer: &mut Explorer<'_>,
    lens: &[usize],
    range: &std::ops::Range<usize>,
    budget: usize,
    rng: &mut SplitMix64,
) -> Result<(), EcoChipError> {
    let start = range.start + rng.gen_range(range.len() as u64) as usize;
    let mut current = explorer.visit(start)?;
    while explorer.evaluated < budget {
        let temperature = (1.0 - explorer.evaluated as f64 / budget as f64).max(1e-3);
        let candidate = explorer.visit(neighbor(current.point.index, lens, range, rng))?;
        let accept = candidate.energy < current.energy
            || rng.next_f64() < ((current.energy - candidate.energy) / temperature).exp();
        if accept {
            current = candidate;
        }
    }
    Ok(())
}

/// Steady-state genetic search: tournament selection, uniform per-axis
/// crossover, single-digit mutation, worst-member replacement.
fn genetic(
    explorer: &mut Explorer<'_>,
    lens: &[usize],
    range: &std::ops::Range<usize>,
    budget: usize,
    rng: &mut SplitMix64,
) -> Result<(), EcoChipError> {
    let pop_size = 8.min(budget).min(range.len()).max(1);
    let mut population: Vec<Evaluated> = Vec::with_capacity(pop_size);
    while population.len() < pop_size && explorer.evaluated < budget {
        let index = range.start + rng.gen_range(range.len() as u64) as usize;
        population.push(explorer.visit(index)?);
    }

    let pick = |rng: &mut SplitMix64, population: &[Evaluated]| -> usize {
        let a = rng.gen_range(population.len() as u64) as usize;
        let b = rng.gen_range(population.len() as u64) as usize;
        if population[a].energy <= population[b].energy {
            a
        } else {
            b
        }
    };
    while explorer.evaluated < budget {
        let parent_a = pick(rng, &population);
        let parent_b = pick(rng, &population);
        let child_index = if lens.is_empty() {
            range.start
        } else {
            let digits_a = digits_of(population[parent_a].point.index, lens);
            let digits_b = digits_of(population[parent_b].point.index, lens);
            let mut child: Vec<usize> = digits_a
                .iter()
                .zip(&digits_b)
                .map(|(&a, &b)| if rng.next_u64() & 1 == 0 { a } else { b })
                .collect();
            // Mutate one random axis with probability ~1/2 to keep the
            // steady-state population from collapsing.
            if rng.next_u64() & 1 == 0 {
                let axis = rng.gen_range(lens.len() as u64) as usize;
                child[axis] = rng.gen_range(lens[axis] as u64) as usize;
            }
            into_range(index_of(&child, lens), range)
        };
        let child = explorer.visit(child_index)?;
        let worst = population
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.energy.total_cmp(&b.energy))
            .map(|(at, _)| at)
            .expect("population is non-empty");
        if child.energy < population[worst].energy {
            population[worst] = child;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disaggregation::NodeTuple;
    use crate::sweep::SweepAxis;
    use crate::system::{Chiplet, ChipletSize};
    use ecochip_packaging::{PackagingArchitecture, RdlFanoutConfig};
    use ecochip_power::UsageProfile;
    use ecochip_techdb::{DesignType, Energy, TechNode, TimeSpan};

    fn base_system() -> System {
        let tuple = NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10);
        System::builder("ga102-like")
            .chiplet(Chiplet::new(
                "logic",
                DesignType::Logic,
                tuple.logic,
                ChipletSize::Transistors(20.0e9),
            ))
            .chiplet(Chiplet::new(
                "analog",
                DesignType::Analog,
                tuple.analog,
                ChipletSize::Transistors(6.0e9),
            ))
            .chiplet(Chiplet::new(
                "sram",
                DesignType::Memory,
                tuple.memory,
                ChipletSize::Transistors(2.3e9),
            ))
            .packaging(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()))
            .usage(UsageProfile::Measured {
                energy_per_year: Energy::from_kwh(228.0),
            })
            .lifetime(TimeSpan::from_years(4.0))
            .build()
            .expect("base system")
    }

    fn small_spec() -> SweepSpec {
        let base = base_system();
        let lifetimes = SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0, 8.0]);
        let energy = SweepAxis::FabEnergySources(vec![
            ecochip_techdb::EnergySource::Coal,
            ecochip_techdb::EnergySource::Solar,
            ecochip_techdb::EnergySource::Wind,
        ]);
        SweepSpec::new(base).axis(lifetimes).axis(energy)
    }

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
        let mut c = SplitMix64::new(43);
        assert_ne!(c.next_u64(), xs[0]);
        for _ in 0..100 {
            let f = c.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(c.gen_range(7) < 7);
        }
        // Island seeds are stable and island-distinct.
        assert_eq!(island_seed(42, 0), island_seed(42, 0));
        assert_ne!(island_seed(42, 0), island_seed(42, 1));
    }

    #[test]
    fn objective_sets_parse_and_reject() {
        let set: ObjectiveSet = "embodied,operational,cost,area".parse().unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.label(), "embodied,operational,cost,area");
        assert_eq!(ObjectiveSet::default().label(), "embodied,operational");
        for bad in ["", "embodied,", "embodied,embodied", "latency"] {
            assert!(bad.parse::<ObjectiveSet>().is_err(), "{bad:?}");
        }
        assert!("pareto".parse::<OptMethod>().is_ok());
        assert!("anneal".parse::<OptMethod>().is_ok());
        assert!("genetic".parse::<OptMethod>().is_ok());
        let err = "hillclimb".parse::<OptMethod>().unwrap_err();
        assert!(err.message().contains("pareto|anneal|genetic"), "{err}");
    }

    fn fp(index: usize, values: &[f64]) -> FrontierPoint {
        let set: ObjectiveSet = "embodied,cost".parse().unwrap();
        FrontierPoint::new(index, format!("p{index}"), &set, values)
    }

    #[test]
    fn dominance_and_frontier_are_order_independent() {
        let a = fp(0, &[1.0, 1.0]);
        let b = fp(1, &[2.0, 2.0]);
        let c = fp(2, &[0.5, 3.0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&c) && !c.dominates(&a));
        // Equal vectors: neither dominates.
        let a2 = fp(3, &[1.0, 1.0]);
        assert!(!a.dominates(&a2) && !a2.dominates(&a));

        let points = [a.clone(), b.clone(), c.clone(), a2.clone()];
        // Every insertion order converges to the same frontier set.
        let orders: [[usize; 4]; 3] = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]];
        let mut frontiers = Vec::new();
        for order in orders {
            let mut frontier = ParetoFrontier::new();
            for at in order {
                frontier.insert(points[at].clone());
            }
            frontiers.push(frontier);
        }
        for frontier in &frontiers {
            assert_eq!(frontier, &frontiers[0]);
            // b is dominated; a, c, a2 survive, sorted by index.
            let indices: Vec<usize> = frontier.points().iter().map(|p| p.index).collect();
            assert_eq!(indices, vec![0, 2, 3]);
        }
        // Duplicate indices are never re-admitted.
        let mut frontier = frontiers.pop().unwrap();
        assert!(!frontier.insert(a.clone()));
        // Merging is admission-counted.
        let mut other = ParetoFrontier::new();
        other.insert(fp(9, &[0.1, 0.1]));
        assert_eq!(frontier.merge(&other), 1);
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn index_digit_roundtrip_matches_case_at() {
        let lens = [4usize, 3usize];
        for index in 0..12 {
            let digits = digits_of(index, &lens);
            assert_eq!(index_of(&digits, &lens), index);
        }
        // Digit decomposition follows case_at's row-major order: the last
        // axis is fastest.
        assert_eq!(digits_of(5, &lens), vec![1, 2]);
        let spec = small_spec();
        let case = spec.case_at(5).unwrap();
        assert_eq!(case.labels[0], "2y");
    }

    #[test]
    fn pareto_optimize_finds_the_exhaustive_frontier() {
        let estimator = EcoChip::default();
        let spec = small_spec();
        let mut events = Vec::new();
        let outcome = optimize(
            &estimator,
            &SweepEngine::serial(),
            &spec,
            Shard::FULL,
            &SweepContext::new(),
            None,
            &OptConfig::default(),
            |event: &OptEvent| {
                events.push(event.clone());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(outcome.evaluated, 12);
        assert!(!outcome.frontier.is_empty());
        // The streamed frontier equals the brute-force non-dominated set,
        // built from a cold estimator per case that carries the case's fab
        // source.
        let mut brute = ParetoFrontier::new();
        let objectives = ObjectiveSet::default();
        for index in 0..12 {
            let case = spec.case_at(index).unwrap();
            let mut config = estimator.config().clone();
            if let Some(source) = case.fab_source {
                config.fab_source = source;
            }
            let cold = EcoChip::new(config);
            let report = cold.estimate(&case.system).unwrap();
            let values = objectives.score(&cold, &case.system, &report).unwrap();
            brute.insert(FrontierPoint::new(
                index,
                case.label(),
                &objectives,
                &values,
            ));
        }
        assert_eq!(outcome.frontier, brute.into_points());
        // The event stream ends with a done event carrying the frontier.
        let done = events.last().unwrap();
        assert_eq!(done.event, "done");
        assert_eq!(done.frontier.as_ref().unwrap(), &outcome.frontier);
        assert!(events.iter().filter(|e| e.event == "improvement").count() >= 1);
    }

    #[test]
    fn sharded_pareto_merges_to_the_full_frontier() {
        let estimator = EcoChip::default();
        let spec = small_spec();
        let context = SweepContext::new();
        let full = optimize(
            &estimator,
            &SweepEngine::serial(),
            &spec,
            Shard::FULL,
            &context,
            None,
            &OptConfig::default(),
            |_event: &OptEvent| Ok(()),
        )
        .unwrap();
        for of in [2usize, 3, 5] {
            let mut merged = ParetoFrontier::new();
            for index in 0..of {
                let outcome = optimize(
                    &estimator,
                    &SweepEngine::serial(),
                    &spec,
                    Shard::new(index, of).unwrap(),
                    &context,
                    None,
                    &OptConfig::default(),
                    |_event: &OptEvent| Ok(()),
                )
                .unwrap();
                for point in outcome.frontier {
                    merged.insert(point);
                }
            }
            assert_eq!(merged.into_points(), full.frontier, "of={of}");
        }
    }

    #[test]
    fn single_objective_frontier_keeps_tied_minima_in_case_order() {
        use ecochip_techdb::EnergySource;

        let estimator = EcoChip::default();
        let sources = [EnergySource::Wind, EnergySource::Coal, EnergySource::Wind];
        let spec =
            SweepSpec::new(base_system()).axis(SweepAxis::FabEnergySources(sources.to_vec()));
        // The fixture ties: both wind cases score the same embodied CFP, bit
        // for bit, and the coal case scores higher.
        let embodied: Vec<f64> = (0..sources.len())
            .map(|index| {
                let case = spec.case_at(index).unwrap();
                let mut config = estimator.config().clone();
                config.fab_source = case.fab_source.unwrap();
                let report = EcoChip::new(config).estimate(&case.system).unwrap();
                report.embodied().kg()
            })
            .collect();
        assert_eq!(embodied[0].to_bits(), embodied[2].to_bits());
        assert!(embodied[1] > embodied[0]);

        let config = OptConfig {
            objectives: "embodied".parse().unwrap(),
            ..OptConfig::default()
        };
        let outcome = optimize(
            &estimator,
            &SweepEngine::serial(),
            &spec,
            Shard::FULL,
            &SweepContext::new(),
            None,
            &config,
            |_event: &OptEvent| Ok(()),
        )
        .unwrap();
        // Neither tied minimum dominates the other, so both stay, in
        // ascending case order: the first is the earliest best case.
        let indices: Vec<usize> = outcome.frontier.iter().map(|p| p.index).collect();
        assert_eq!(indices, [0, 2]);
        assert_eq!(outcome.frontier[0].objectives[0].value, embodied[0]);
    }

    #[test]
    fn explorers_are_deterministic_per_seed_and_budget_bounded() {
        let estimator = EcoChip::default();
        let spec = small_spec();
        let context = SweepContext::new();
        for method in [OptMethod::Anneal, OptMethod::Genetic] {
            let config = OptConfig {
                method,
                budget: 20,
                seed: 42,
                ..OptConfig::default()
            };
            let run = |config: &OptConfig| {
                let mut lines = Vec::new();
                let outcome = optimize(
                    &estimator,
                    &SweepEngine::serial(),
                    &spec,
                    Shard::FULL,
                    &context,
                    None,
                    config,
                    |event: &OptEvent| {
                        lines.push(serde_json::to_string(event).unwrap());
                        Ok(())
                    },
                )
                .unwrap();
                (outcome, lines)
            };
            let (a, lines_a) = run(&config);
            let (b, lines_b) = run(&config);
            assert_eq!(a, b, "{method:?}");
            assert_eq!(lines_a, lines_b, "{method:?}");
            assert_eq!(a.evaluated, 20, "{method:?}");
            assert!(!a.frontier.is_empty(), "{method:?}");
            // A different seed explores a different trajectory.
            let (_, lines_c) = run(&OptConfig {
                seed: 7,
                ..config.clone()
            });
            assert_ne!(lines_a, lines_c, "{method:?}");
        }
    }

    #[test]
    fn explorer_events_roundtrip_and_null_out_unused_fields() {
        let set = ObjectiveSet::default();
        let point = FrontierPoint::new(3, "p".into(), &set, &[1.0, 2.0]);
        let event = OptEvent::improvement(OptMethod::Anneal, Some(1), 5, 2, point);
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.starts_with(r#"{"event":"improvement""#), "{json}");
        assert!(json.contains(r#""frontier":null"#), "{json}");
        let back: OptEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
        let outcome = OptOutcome {
            method: "anneal".into(),
            evaluated: 5,
            frontier: vec![],
        };
        let done = OptEvent::done(&outcome, None);
        let json = serde_json::to_string(&done).unwrap();
        assert!(json.contains(r#""event":"done""#), "{json}");
        let back: OptEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, done);
    }
}
