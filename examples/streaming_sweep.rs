//! Streaming, sharded sweeps over one warm memo: evaluate a packaging ×
//! lifetime design space incrementally (no materialized point list), one
//! shard at a time, against a single in-process floorplan/manufacturing
//! memo. The second shard reuses the stage results the first one computed,
//! and the two shards concatenate to the unsharded run bit for bit — the
//! shape of `ecochip --sweep ... --shard I/N`.
//!
//! Run with: `cargo run --example streaming_sweep`

use eco_chip::core::disaggregation::NodeTuple;
use eco_chip::core::sweep::{Shard, SweepAxis, SweepContext, SweepEngine, SweepPoint, SweepSpec};
use eco_chip::packaging::{RdlFanoutConfig, SiliconBridgeConfig};
use eco_chip::techdb::{TechDb, TechNode};
use eco_chip::{EcoChip, PackagingArchitecture};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = TechDb::default();
    let base = eco_chip::testcases::ga102::three_chiplet_system(
        &db,
        NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
    )?;
    let estimator = EcoChip::default();
    let spec = SweepSpec::new(base)
        .axis(SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        ]))
        .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0, 5.0]));
    let engine = SweepEngine::new();
    let total = spec.try_len()?;

    // Each shard streams its points in deterministic row-major order while
    // the engine holds only an O(workers) reorder window — this is how a
    // million-point space stays memory-bound to a handful of points. Both
    // shards share one memo, which lives as long as this process.
    let context = SweepContext::new();
    let mut merged = Vec::with_capacity(total);
    for index in 0..2 {
        let shard = Shard::new(index, 2)?;
        println!(
            "shard {shard}: {} of {total} points",
            shard.range(total).len()
        );
        let mut sink = |point: SweepPoint| {
            println!(
                "  {:>12}  total {:>8.1} kg",
                point.label,
                point.report.total().kg()
            );
            merged.push(point);
            Ok(())
        };
        engine.stream(&estimator, &spec, shard, &context, None, &mut sink)?;
        let stats = context.stats();
        println!(
            "  memo so far: floorplan {} hits / {} misses, manufacturing {} hits / {} misses",
            stats.floorplan_hits,
            stats.floorplan_misses,
            stats.manufacturing_hits,
            stats.manufacturing_misses
        );
    }

    // The memo only saves work: the shards concatenate to the unsharded run.
    assert_eq!(merged, engine.run(&estimator, &spec)?);
    println!("shards 0/2 + 1/2 match the unsharded run bit for bit");
    Ok(())
}
