//! Streaming sweeps with a persisted memo: evaluate a packaging × lifetime
//! design space incrementally (no materialized point list), save the warmed
//! floorplan/manufacturing memo to disk, then run a second, sharded pass
//! that starts warm from the file — the cross-process distribution shape of
//! `ecochip --sweep ... --shard I/N --memo-file memo.json`.
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
    let memo_path = std::env::temp_dir().join(format!(
        "ecochip-streaming-sweep-example-{}.json",
        std::process::id()
    ));

    // --- Run 1: stream the whole space, emitting each point as it is ready.
    // The sink sees points in deterministic row-major order while the engine
    // holds only an O(workers) reorder window — this is how a million-point
    // space stays memory-bound to a handful of points.
    println!("run 1 (cold): streaming {} points", spec.try_len()?);
    let context = SweepContext::new();
    let mut sink = |point: SweepPoint| {
        println!(
            "  {:>12}  total {:>8.1} kg",
            point.label,
            point.report.total().kg()
        );
        Ok(())
    };
    engine.stream(&estimator, &spec, Shard::FULL, &context, None, &mut sink)?;
    let stats = context.stats();
    println!(
        "  memo after run 1: {} floorplan misses, {} manufacturing misses",
        stats.floorplan_misses, stats.manufacturing_misses
    );

    // Persist the warmed memo, stamped with the estimator's fingerprint.
    context.save_to(&memo_path, estimator.memo_fingerprint())?;
    println!("  saved memo to {}", memo_path.display());

    // --- Run 2: a later process picks one shard of the same space and loads
    // the memo. Every stage result is served from the file: zero misses,
    // bit-for-bit identical reports.
    let shard: Shard = "1/2".parse()?;
    let warm = SweepContext::load_from(&memo_path, estimator.memo_fingerprint())?;
    println!(
        "run 2 (warm, shard {shard}): {} of {} points",
        shard.range(spec.try_len()?).len(),
        spec.try_len()?
    );
    let mut warm_sink = |point: SweepPoint| {
        println!(
            "  {:>12}  total {:>8.1} kg",
            point.label,
            point.report.total().kg()
        );
        Ok(())
    };
    engine.stream(&estimator, &spec, shard, &warm, None, &mut warm_sink)?;
    let warm_stats = warm.stats();
    println!(
        "  memo after run 2: {} hits, {} misses",
        warm_stats.floorplan_hits + warm_stats.manufacturing_hits,
        warm_stats.floorplan_misses + warm_stats.manufacturing_misses
    );
    assert_eq!(warm_stats.floorplan_misses, 0);
    assert_eq!(warm_stats.manufacturing_misses, 0);

    std::fs::remove_file(&memo_path)?;
    Ok(())
}
