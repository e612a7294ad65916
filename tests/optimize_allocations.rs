//! Pins the heap allocations of structural design-space searches: the
//! pareto enumeration and the anneal and genetic explorers.
//!
//! This binary installs its own counting global allocator, so it holds one
//! test only: the count is kept per thread, and the serial engine evaluates
//! and scores on the calling thread, so the figures below are exact and
//! repeat run after run.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::opt::{self, OptConfig, OptEvent, OptMethod};
use eco_chip::core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepSpec, SweepStats};
use eco_chip::core::EcoChip;
use eco_chip::packaging::{
    InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig, ThreeDConfig,
};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::testcases::{catalog, ga102};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on the current thread.
struct Counting;

fn count() {
    // `try_with` never fails for a `const` cell without a destructor; a
    // thread past its TLS teardown simply goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds that allocator's contract; counting touches
// only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` guarantees are passed on as is.
        unsafe { SystemAllocator.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { SystemAllocator.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is the system
        // allocator, with `layout`; the caller guarantees `new_size`.
        unsafe { SystemAllocator.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from the system allocator with `layout`.
        unsafe { SystemAllocator.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per evaluated case of the search below, with a fresh memo:
/// 5,373 over the 320 cases, in debug and release builds alike (30.6125
/// while every structural estimate built a new report and its stage
/// vectors, 40.125 while the engine built every point as a fresh owned
/// value, 53.72 while the planner built a boxed slicing tree and the memo
/// key held one string per chiplet). A warm structural estimate now
/// allocates nothing: it refills its walker's report and scratch. What
/// remains is the 64 floorplan misses (about 6.0 per evaluation); the
/// engine's 32 point slots growing with the chiplet count, since each
/// slot's first fill and each new chiplet name in it allocates (about 7.8
/// over a space this small); the cursor's decode of the chiplet-count and
/// node axes (about 1.2); one score vector per case; and the frontier's
/// admitted points. A change that adds allocations to a structural
/// estimate fails here; one that removes some should lower the pin.
const PINNED_PER_EVALUATION: f64 = 16.790_625;

/// Allocations per floorplan miss of the same search: everything a miss
/// costs beyond a hit (the outlines, the planner, the memo key and entry).
/// 1,931 over the 64 misses (93.12 with the boxed tree and per-name key):
/// nearly all are the names, once in the outlines and once in the
/// placements.
const PINNED_PER_FLOORPLAN_MISS: f64 = 30.172;

/// The explorers' evaluation budget and seed.
const EXPLORER_BUDGET: usize = 256;
const EXPLORER_SEED: u64 = 7;

/// Allocations per evaluation of the `anneal` search of the same space,
/// with a fresh memo: 5,296 over the 256 visits (36.60 while every
/// structural estimate built a new report, 47.84 while every visit built
/// an owned point and cloned the case's system into it). The explorers
/// score the case and report borrowed from their walker, whose report
/// every estimate refills, so most of what remains is memo misses and
/// each visit's label and frontier point. A change that copies the case
/// or the report again per visit fails here.
const PINNED_PER_ANNEAL_VISIT: f64 = 20.6875;

/// Allocations per evaluation of the `genetic` search of the same space,
/// with a fresh memo: 5,418 over the 256 visits (41.80 while every
/// structural estimate built a new report, 53.19 while every visit built
/// an owned point).
const PINNED_PER_GENETIC_VISIT: f64 = 21.164_062_5;

/// The memo bound: the `dse_optimize` benchmark's 1,024 entries per cache,
/// more than the search's distinct outline sets, so nothing is evicted.
const MEMO_ENTRIES: usize = 1024;

/// Run the serial search `config` describes over `spec` against
/// `context`: the allocations it made, the cases it evaluated and the memo
/// counters it moved.
fn search(
    estimator: &EcoChip,
    spec: &SweepSpec,
    context: &SweepContext,
    config: &OptConfig,
) -> (u64, usize, SweepStats) {
    let mut events = 0usize;
    let before = allocations();
    let outcome = opt::optimize(
        estimator,
        &SweepEngine::serial(),
        spec,
        Shard::FULL,
        context,
        None,
        config,
        |_: &OptEvent| {
            events += 1;
            Ok(())
        },
    )
    .unwrap();
    let spent = allocations() - before;
    assert!(events > 0);
    (spent, outcome.evaluated, context.stats())
}

#[test]
fn a_structural_search_allocates_at_most_its_pins() {
    // The `dse_optimize` benchmark's shape, fixed: `ga102-3chiplet`'s
    // blocks in 1–16 chiplets × four nodes for the first chiplet × the
    // five packaging architectures.
    let db = TechDb::default();
    let base = catalog::build(&db, "ga102-3chiplet").unwrap();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::ChipletCounts {
            blocks: ga102::soc_blocks(&db).unwrap(),
            nodes: NodeTuple::new(TechNode::N7, TechNode::N10, TechNode::N14),
            counts: (1..=16).collect(),
        })
        .axis(SweepAxis::ChipletNode {
            index: 0,
            nodes: vec![TechNode::N5, TechNode::N7, TechNode::N10, TechNode::N14],
        })
        .axis(SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ActiveInterposer(InterposerConfig::default()),
            PackagingArchitecture::ThreeD(ThreeDConfig::default()),
        ]));
    let estimator = EcoChip::default();

    let fresh = SweepContext::with_capacity(MEMO_ENTRIES);
    let pareto = OptConfig::default();
    let (cold, evaluated, stats) = search(&estimator, &spec, &fresh, &pareto);
    assert_eq!(evaluated, 320);
    assert_eq!(stats.floorplan_misses, 64);
    assert_eq!(stats.floorplan_hits, 256);
    assert_eq!(stats.floorplan_evictions + stats.manufacturing_evictions, 0);

    // The same search over a memo that already holds every floorplan, and
    // nothing else: it repeats every manufacturing lookup of the first run,
    // so the difference between the two is what the floorplan misses cost.
    let planned = SweepContext::with_capacity(MEMO_ENTRIES);
    for index in 0..evaluated {
        let case = spec.case_at(index).unwrap();
        estimator.floorplan_with(&case.system, &planned).unwrap();
    }
    let (warm, _, warm_stats) = search(&estimator, &spec, &planned, &pareto);
    assert_eq!(warm_stats.floorplan_misses, stats.floorplan_misses);
    assert_eq!(
        warm_stats.manufacturing_misses, stats.manufacturing_misses,
        "the floorplans alone were planned ahead"
    );

    let per_evaluation = cold as f64 / evaluated as f64;
    let per_miss = (cold - warm) as f64 / stats.floorplan_misses as f64;
    println!("{per_evaluation:.2} allocations per evaluation, {per_miss:.2} per floorplan miss");
    assert!(
        per_evaluation <= PINNED_PER_EVALUATION,
        "{per_evaluation:.3} allocations per evaluation, pinned at {PINNED_PER_EVALUATION}"
    );
    assert!(
        per_miss <= PINNED_PER_FLOORPLAN_MISS,
        "{per_miss:.3} allocations per floorplan miss, pinned at {PINNED_PER_FLOORPLAN_MISS}"
    );

    // The explorers over the same space, each with a fresh memo.
    for (method, pinned) in [
        (OptMethod::Anneal, PINNED_PER_ANNEAL_VISIT),
        (OptMethod::Genetic, PINNED_PER_GENETIC_VISIT),
    ] {
        let config = OptConfig {
            method,
            budget: EXPLORER_BUDGET,
            seed: EXPLORER_SEED,
            ..OptConfig::default()
        };
        let context = SweepContext::with_capacity(MEMO_ENTRIES);
        let (spent, visited, _) = search(&estimator, &spec, &context, &config);
        assert_eq!(visited, EXPLORER_BUDGET, "{method:?}");
        let per_visit = spent as f64 / visited as f64;
        println!("{method:?}: {per_visit:.2} allocations per evaluation");
        assert!(
            per_visit <= pinned,
            "{method:?}: {per_visit:.3} allocations per evaluation, pinned at {pinned}"
        );
    }
}
