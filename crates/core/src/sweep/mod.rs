//! The design-space-sweep subsystem: declarative sweep axes, a cartesian
//! [`SweepSpec`], a memoizing [`SweepContext`] and a parallel [`SweepEngine`].
//!
//! ECO-CHIP's headline results are all sweeps — technology-node tuples,
//! packaging architectures, volumes, lifetimes, chiplet counts, fab energy
//! sources. Instead of hand-rolling a serial loop per study, describe the
//! space once and let the engine evaluate it:
//!
//! ```
//! use ecochip_core::disaggregation::{NodeTuple, SocBlocks};
//! use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
//! use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
//! use ecochip_techdb::{DesignType, TechNode};
//!
//! let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
//! let base = System::builder("soc")
//!     .chiplet(Chiplet::new(
//!         "die",
//!         DesignType::Logic,
//!         TechNode::N7,
//!         ChipletSize::Transistors(15.0e9),
//!     ))
//!     .build()?;
//! // 2 tuples × 2 lifetimes = 4 points, evaluated in parallel with shared
//! // floorplan / manufacturing memoization.
//! let spec = SweepSpec::new(base)
//!     .axis(SweepAxis::NodeTuples {
//!         blocks,
//!         tuples: vec![
//!             NodeTuple::uniform(TechNode::N7),
//!             NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
//!         ],
//!     })
//!     .axis(SweepAxis::lifetimes_years(&[2.0, 4.0]));
//! let points = SweepEngine::new().run(&EcoChip::default(), &spec)?;
//! assert_eq!(points.len(), 4);
//! assert_eq!(points[0].label, "(7, 7, 7) / 2y");
//! # Ok::<(), ecochip_core::EcoChipError>(())
//! ```
//!
//! The engine guarantees deterministic output: points come back in the
//! spec's row-major case order, and each report is bit-for-bit identical to
//! what a serial, memo-free evaluation produces. The number of evaluating
//! threads, the calling thread included, comes from
//! [`SweepEngine::with_jobs`] (the `--jobs` flag) or the machine's
//! available parallelism; each claims [`DEFAULT_CHUNK`] case indices per
//! queue round-trip.
//!
//! # Streaming and sharding
//!
//! The spec is *index-addressable* — [`SweepSpec::case_at`] decodes any flat
//! index in `O(axes)` without materializing the product — which unlocks
//! two scale features:
//!
//! * **Streaming.** [`SweepEngine::stream`] — the one way to run a sweep —
//!   lends points to a [`SweepSink`] in deterministic order, one claimed
//!   chunk at a time, while holding only an `O(jobs)` reorder window,
//!   so million-point spaces are not memory-bound. The engine fills each
//!   chunk into reused point slots and refills them once the sink returns,
//!   so a streamed point allocates nothing; a sink that keeps a point
//!   clones it. [`SweepEngine::run`] is the collect-to-`Vec` sink over the
//!   same pipeline.
//! * **Sharding.** Every stream evaluates one [`SweepSlice`]: a
//!   [`Shard`]`{ index, of }` selector that deterministically partitions
//!   the index space into contiguous, balanced slices for cross-process
//!   distribution (concatenating all shards' outputs equals the unsharded
//!   run bit-for-bit), or an explicit index range that resumes an
//!   interrupted shard exactly where it stopped. Shards run in one process
//!   can share one [`SweepContext`]; the memo never leaves its process.
//!
//! Engine workers and optimizer explorers decode through a per-worker
//! cursor that keeps its previous case and re-applies only the axes from
//! the first one whose digit changed (an odometer). The next index of a
//! claimed chunk then costs one axis, not a rebuild from the base system.
//! That is exact because [`SweepSpec::validate`], which every entry point
//! runs before its first point, refuses a chiplet retarget placed ahead of
//! an axis that replaces the chiplets. `case_at` is a fresh cursor and one
//! decode, so there is one decoder. When a decode changed only trailing
//! scalar axes ([`SweepAxis::is_scalar`]: lifetimes and volumes), the
//! worker re-prices the report it kept from its previous case, in place,
//! instead of estimating the case again, so such steps skip the memo as
//! well. The engine marks each such
//! point for its sink, and a [`LineEncoder`] encodes a marked point by
//! rewriting only the changed values of the line before it.

mod axis;
mod context;
mod engine;
mod line;

pub(crate) use axis::SweepCursor;
pub use axis::{Shard, SweepAxis, SweepCase, SweepSlice, SweepSpec};
pub use context::{SweepContext, SweepStats};
pub(crate) use engine::{CaseEvaluator, CaseWalker};
pub use engine::{SweepEngine, SweepSink, DEFAULT_CHUNK};
pub use line::LineEncoder;

use serde::{Deserialize, Serialize};

use crate::report::CarbonReport;
use crate::system::System;

/// One evaluated point of a sweep: the label, the evaluated system and its
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Human-readable label (node tuple, packaging name, ratio, …).
    pub label: String,
    /// The evaluated system.
    pub system: System,
    /// The carbon report.
    pub report: CarbonReport,
}
