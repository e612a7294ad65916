//! Seeded input generators of the three workloads.
//!
//! Every input the server receives is a pure function of the benchmark
//! seed (and, for unbounded request sequences, the request index), so two
//! runs with one seed send byte-identical traffic and a different seed
//! sends a different design mix.

use eco_chip::core::disaggregation::{NodeTuple, SocBlocks};
use eco_chip::core::sweep::SweepAxis;
use eco_chip::core::System;
use eco_chip::design::VolumeScenario;
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use eco_chip::serve::api::{EstimateRequest, OptimizeRequest, SweepRequest};
use eco_chip::techdb::{TechDb, TechNode, TimeSpan};
use eco_chip::testcases::{catalog, ga102};

/// Distinct sweep requests `sweep_stream` cycles through.
pub const SWEEP_POOL: usize = 2;
/// Values per axis of a sweep request: 128 lifetimes × 128 volumes.
pub const SWEEP_SIDE: usize = 128;
/// The optimize methods, in the order each design space is visited.
pub const DSE_METHODS: [&str; 3] = ["pareto", "anneal", "genetic"];
/// Evaluation budget of the `anneal` and `genetic` requests.
pub const DSE_BUDGET: usize = 256;
/// Design spaces whose frontiers make up the `quality` metric: enough that
/// its spread across seeds stays well inside its bound.
pub const QUALITY_SPACES: u64 = 32;
/// Inline designs `estimate_mix` draws its request bodies from: four of
/// each of the 14 built-in test cases.
pub const ESTIMATE_POOL: usize = 56;
/// Requests per pipelined window and items per batch body.
pub const WINDOW: usize = 8;

/// SplitMix64: the benchmark's own deterministic stream, independent of
/// any generator inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, tag, index)`.
    pub fn keyed(seed: u64, tag: u64, index: u64) -> Self {
        let mut rng = Self(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mixed = rng.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Self(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[low, high)`.
    pub fn between(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// `m` distinct values of `0..n`, in random order.
    pub fn distinct(&mut self, n: usize, m: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(m);
        all
    }
}

/// The `sweep_stream` request pool: `ga102-3chiplet` over a Lifetimes ×
/// Volumes (reuse-ratio) product of 16,384 points, axis values drawn from
/// 0.05-year and 0.25-ratio grids.
pub fn sweep_requests(seed: u64) -> Vec<SweepRequest> {
    (0..SWEEP_POOL as u64)
        .map(|k| {
            let mut rng = Rng::keyed(seed, 1, k);
            let years: Vec<f64> = rng
                .distinct(390, SWEEP_SIDE)
                .into_iter()
                .map(|j| 0.5 + 0.05 * j as f64)
                .collect();
            let ratios: Vec<f64> = rng
                .distinct(256, SWEEP_SIDE)
                .into_iter()
                .map(|j| 0.25 * (j + 1) as f64)
                .collect();
            SweepRequest {
                axis: None,
                axes: Some(vec![
                    SweepAxis::lifetimes_years(&years),
                    SweepAxis::reuse_ratios(VolumeScenario::default().system_volume, &ratios),
                ]),
                ..SweepRequest::named("ga102-3chiplet", "")
            }
        })
        .collect()
}

const LOGIC_NODES: [TechNode; 8] = [
    TechNode::N5,
    TechNode::N7,
    TechNode::N8,
    TechNode::N10,
    TechNode::N12,
    TechNode::N14,
    TechNode::N16,
    TechNode::N22,
];

/// Design space `space` of `dse_optimize`: a GA102-like SoC whose block
/// budgets are perturbed by ±20%, split into 1–16 digital chiplets, with
/// the first two chiplets retargeted over 8 and 4 candidate nodes, on 5
/// packaging architectures — 2,560 points.
pub fn dse_space(db: &TechDb, seed: u64, space: u64) -> (System, Vec<SweepAxis>) {
    let mut rng = Rng::keyed(seed, 2, space);
    let ga = ga102::soc_blocks(db).expect("the GA102 reference node is in the default techdb");
    let blocks = SocBlocks::new(
        format!("ga102-dse{space}"),
        ga.logic_transistors * rng.between(0.8, 1.2),
        ga.memory_transistors * rng.between(0.8, 1.2),
        ga.analog_transistors * rng.between(0.8, 1.2),
    );
    let tuple = NodeTuple::new(
        LOGIC_NODES[rng.below(3)],
        LOGIC_NODES[3 + rng.below(4)],
        LOGIC_NODES[3 + rng.below(4)],
    );
    let mut first: Vec<TechNode> = LOGIC_NODES.to_vec();
    for i in 0..first.len() {
        let j = i + rng.below(first.len() - i);
        first.swap(i, j);
    }
    let second: Vec<TechNode> = rng
        .distinct(7, 4)
        .into_iter()
        .map(|i| LOGIC_NODES[i])
        .collect();
    let base = catalog::build(db, "ga102-3chiplet")
        .expect("built-in test case")
        .with_lifetime(TimeSpan::from_years(1.0 + 0.5 * rng.below(9) as f64));
    let axes = vec![
        SweepAxis::ChipletCounts {
            blocks,
            nodes: tuple,
            counts: (1..=16).collect(),
        },
        SweepAxis::ChipletNode {
            index: 0,
            nodes: first,
        },
        SweepAxis::ChipletNode {
            index: 1,
            nodes: second,
        },
        SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]),
    ];
    (base, axes)
}

/// Request `index` of the unbounded `dse_optimize` sequence: design space
/// `index / 3`, visited by `pareto`, `anneal` and `genetic` in turn, each
/// with its own seed.
pub fn dse_request(db: &TechDb, seed: u64, index: u64) -> OptimizeRequest {
    let (base, axes) = dse_space(db, seed, index / 3);
    let method = DSE_METHODS[(index % 3) as usize];
    OptimizeRequest {
        testcase: None,
        system: Some(base),
        axis: None,
        axes: Some(axes),
        method: Some(method.to_string()),
        budget: (method != "pareto").then_some(DSE_BUDGET),
        seed: Some(Rng::keyed(seed, 3, index).next_u64() >> 1),
        ..OptimizeRequest::named("", "")
    }
}

/// The `estimate_mix` design pool: every built-in test case, then seeded
/// perturbations of them (lifetime and chiplet-reuse volume).
pub fn estimate_pool(db: &TechDb, seed: u64) -> Vec<System> {
    let names = catalog::names();
    let mut rng = Rng::keyed(seed, 4, 0);
    (0..ESTIMATE_POOL)
        .map(|k| {
            // Every seed's pool holds each test case equally often, so the
            // seed moves the inputs but not the cost of the mix.
            let system = catalog::build(db, &names[k % names.len()]).expect("built-in test case");
            if k < names.len() {
                return system;
            }
            let system =
                system.with_lifetime(TimeSpan::from_years(0.5 + 0.5 * rng.below(16) as f64));
            let ratio = [0.5, 1.0, 2.0, 4.0, 8.0][rng.below(5)];
            let volumes = VolumeScenario::with_reuse(system.volumes.system_volume, ratio);
            system.with_volumes(volumes)
        })
        .collect()
}

/// An inline single-design estimate request body.
pub fn estimate_body(system: &System) -> String {
    serde_json::to_string(&EstimateRequest {
        testcase: None,
        system: Some(system.clone()),
    })
    .expect("wire types serialize")
}

/// The shape of one `estimate_mix` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `POST /v1/estimate`.
    Single,
    /// [`WINDOW`] requests written at once, replies read in order.
    Pipelined,
    /// One request whose body is a [`WINDOW`]-item array.
    Batch,
}

impl Shape {
    pub fn label(self) -> &'static str {
        match self {
            Shape::Single => "single",
            Shape::Pipelined => "pipelined",
            Shape::Batch => "batch",
        }
    }
}

/// One `estimate_mix` operation: its shape and the pool designs it sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub shape: Shape,
    pub designs: Vec<usize>,
}

/// The unbounded seeded operation sequence.
pub fn estimate_ops(seed: u64) -> impl Iterator<Item = Op> {
    let mut rng = Rng::keyed(seed, 5, 0);
    std::iter::repeat_with(move || {
        let shape = [Shape::Single, Shape::Pipelined, Shape::Batch][rng.below(3)];
        let count = if shape == Shape::Single { 1 } else { WINDOW };
        let designs = (0..count).map(|_| rng.below(ESTIMATE_POOL)).collect();
        Op { shape, designs }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> String {
        let db = TechDb::default();
        let mut text = String::new();
        for request in sweep_requests(seed) {
            text += &serde_json::to_string(&request).unwrap();
        }
        for index in 0..6 {
            text += &serde_json::to_string(&dse_request(&db, seed, index)).unwrap();
        }
        for system in estimate_pool(&db, seed) {
            text += &estimate_body(&system);
        }
        for op in estimate_ops(seed).take(100) {
            text += &format!("{op:?}");
        }
        text
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_mix() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
        let db = TechDb::default();
        assert_ne!(estimate_pool(&db, 7), estimate_pool(&db, 8));
        assert_ne!(dse_space(&db, 7, 0).1, dse_space(&db, 8, 0).1);
    }

    #[test]
    fn spaces_have_the_documented_sizes() {
        let db = TechDb::default();
        let (spec, _) = sweep_requests(1)[0].resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), SWEEP_SIDE * SWEEP_SIDE);
        let (spec, _, config) = dse_request(&db, 1, 4).resolve(&db).unwrap();
        assert_eq!(spec.try_len().unwrap(), 2560);
        assert_eq!(config.budget, DSE_BUDGET);
        assert_eq!(estimate_pool(&db, 1).len(), ESTIMATE_POOL);
    }

    #[test]
    fn distinct_draws_are_distinct() {
        let mut rng = Rng::keyed(3, 0, 0);
        let mut draw = rng.distinct(10, 10);
        draw.sort_unstable();
        assert_eq!(draw, (0..10).collect::<Vec<_>>());
    }
}
