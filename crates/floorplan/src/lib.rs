//! # ecochip-floorplan
//!
//! Slicing floorplanner used by ECO-CHIP to estimate the package-substrate /
//! interposer area, the whitespace overhead and the chiplet-to-chiplet
//! interfaces (Section III-D(3) of the paper).
//!
//! The algorithm follows the paper:
//!
//! 1. Sort chiplets by decreasing area and assign them one by one to the
//!    partition with the smaller total area — an area-balanced two-way
//!    partition.
//! 2. Recursively bi-partition each side until a partition holds exactly one
//!    chiplet, forming a full binary slicing tree.
//! 3. Process the tree bottom-up: leaves become bounding boxes with the
//!    requested aspect ratio; internal nodes place their two children side by
//!    side (alternating cut direction with depth), inserting the chiplet
//!    spacing constraint and absorbing dimension mismatch as whitespace.
//!
//! The planner walks that tree without building it: one recursion over the
//! area-sorted chiplet indices partitions each level in place, appends each
//! leaf to the plan's placements, and shifts a right subtree's placements
//! past its left sibling once the subtree is placed.
//!
//! The resulting [`Floorplan`] exposes the package bounding box, the
//! whitespace area and the adjacency interfaces used to place silicon bridges
//! and NoC routers. The planner finds the adjacencies once, when it builds
//! the plan, and [`Floorplan::adjacencies`] lends them as a slice, so a plan
//! shared from a memo serves them to every estimate without a rescan.
//!
//! # Example
//!
//! ```
//! use ecochip_techdb::Area;
//! use ecochip_floorplan::{ChipletOutline, FloorplanConfig, SlicingFloorplanner};
//!
//! let chiplets = vec![
//!     ChipletOutline::new("compute", Area::from_mm2(300.0)),
//!     ChipletOutline::new("memory", Area::from_mm2(120.0)),
//!     ChipletOutline::new("io", Area::from_mm2(60.0)),
//! ];
//! let planner = SlicingFloorplanner::new(FloorplanConfig::default());
//! let plan = planner.floorplan(&chiplets)?;
//! assert!(plan.package_area().mm2() >= 480.0);
//! assert!(plan.whitespace_area().mm2() >= 0.0);
//! assert!(!plan.adjacencies().is_empty());
//! # Ok::<(), ecochip_floorplan::FloorplanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod geometry;
mod planner;
#[cfg(test)]
mod reference;

pub use error::FloorplanError;
pub use geometry::{Adjacency, Placement, Rect};
pub use planner::{ChipletOutline, Floorplan, FloorplanConfig, SlicingFloorplanner};
