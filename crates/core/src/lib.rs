//! # ecochip-core
//!
//! The ECO-CHIP framework: architecture-level estimation of the total carbon
//! footprint (embodied + operational) of heterogeneously integrated
//! (chiplet-based) systems, reproducing the model of
//! *"ECO-CHIP: Estimation of Carbon Footprint of Chiplet-based Architectures
//! for Sustainable VLSI"* (HPCA 2024).
//!
//! The crate ties the substrates together:
//!
//! * [`System`] / [`Chiplet`] — the architectural description (transistor or
//!   area budgets per block, design types, technology nodes, packaging
//!   architecture, usage profile, volumes and lifetime).
//! * [`EcoChip`] — the estimator. [`EcoChip::estimate`] produces a
//!   [`CarbonReport`] with the full breakdown: per-chiplet manufacturing CFP
//!   (with wafer-wastage and yield effects), HI packaging and inter-die
//!   communication overheads, amortised design CFP, operational CFP and the
//!   total (Eqs. 1–3 of the paper).
//! * [`disaggregation`] — helpers to derive monolithic, N-chiplet and
//!   logic-split variants of an SoC, the transformations the paper's
//!   evaluation sweeps.
//! * [`sweep`] — the design-space-sweep subsystem: declarative
//!   [`SweepAxis`](sweep::SweepAxis) / [`SweepSpec`](sweep::SweepSpec)
//!   cartesian products with index-addressable lazy cases, a memoizing,
//!   optionally bounded [`SweepContext`](sweep::SweepContext), deterministic
//!   [`Shard`](sweep::Shard) partitioning for cross-process distribution,
//!   and a parallel, streaming [`SweepEngine`](sweep::SweepEngine) with
//!   deterministic ordering. A long-lived front end keeps one
//!   [`SweepContext`](sweep::SweepContext) for the life of the process, so
//!   [`EcoChip::estimate_with`] and [`SweepEngine::stream`](sweep::SweepEngine::stream)
//!   calls share its warm stage results.
//! * [`dse`] — the paper's named design-space studies (technology tuples,
//!   packaging architectures, chiplet counts, fab energy sources and the
//!   named axes every front end exposes, all built on [`sweep`]) and the
//!   carbon-delay / carbon-power / carbon-area product curves of Section VI.
//!   Searches over a sweep space run through [`opt`].
//! * [`costing`] — integration with the dollar-cost model for
//!   carbon-vs-cost tradeoff studies (Fig. 15).
//!
//! # Quickstart
//!
//! ```
//! use ecochip_core::{Chiplet, ChipletSize, EcoChip, EstimatorConfig, System};
//! use ecochip_packaging::{PackagingArchitecture, RdlFanoutConfig};
//! use ecochip_power::UsageProfile;
//! use ecochip_techdb::{DesignType, Energy, TechNode, TimeSpan};
//!
//! // A small 2-chiplet system: 7 nm logic + 14 nm analog/IO.
//! let system = System::builder("demo")
//!     .chiplet(Chiplet::new(
//!         "compute",
//!         DesignType::Logic,
//!         TechNode::N7,
//!         ChipletSize::Transistors(8.0e9),
//!     ))
//!     .chiplet(Chiplet::new(
//!         "io",
//!         DesignType::Analog,
//!         TechNode::N14,
//!         ChipletSize::Transistors(0.5e9),
//!     ))
//!     .packaging(PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()))
//!     .usage(UsageProfile::Measured { energy_per_year: Energy::from_kwh(50.0) })
//!     .lifetime(TimeSpan::from_years(3.0))
//!     .build()?;
//!
//! let estimator = EcoChip::new(EstimatorConfig::default());
//! let report = estimator.estimate(&system)?;
//! assert!(report.embodied().kg() > 0.0);
//! assert!(report.total().kg() > report.embodied().kg());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
pub mod costing;
pub mod disaggregation;
pub mod dse;
mod error;
mod estimator;
mod manufacturing;
pub mod opt;
mod report;
pub mod sweep;
mod system;

pub use config::{EstimatorConfig, EstimatorConfigBuilder};
pub use error::EcoChipError;
pub use estimator::EcoChip;
pub use manufacturing::{ChipletManufacturing, ManufacturingModel};
pub use report::{CarbonReport, ChipletReport, HiBreakdown};
pub use system::{Chiplet, ChipletSize, System, SystemBuilder};
