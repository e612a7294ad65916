//! # eco-chip
//!
//! A Rust reproduction of **ECO-CHIP** — *Estimation of Carbon Footprint of
//! Chiplet-based Architectures for Sustainable VLSI* (HPCA 2024).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`techdb`] | `ecochip-techdb` | Technology-node parameters, units, energy sources |
//! | [`yield_model`] | `ecochip-yield` | Negative-binomial yield, dies-per-wafer, wafer wastage |
//! | [`floorplan`] | `ecochip-floorplan` | Slicing floorplanner, whitespace, adjacencies |
//! | [`noc`] | `ecochip-noc` | Router / PHY area and power (ORION-style) |
//! | [`packaging`] | `ecochip-packaging` | RDL, EMIB, interposer and 3D packaging CFP |
//! | [`design`] | `ecochip-design` | Design-phase CFP and volume amortisation |
//! | [`power`] | `ecochip-power` | Operational energy and CFP |
//! | [`act`] | `ecochip-act` | The ACT baseline model |
//! | [`cost`] | `ecochip-cost` | Chiplet dollar-cost model |
//! | [`core`] | `ecochip-core` | The ECO-CHIP estimator, DSE sweeps, disaggregation |
//! | [`testcases`] | `ecochip-testcases` | GA102, A15, EMR and AR/VR test cases, JSON I/O |
//! | [`serve`] | `ecochip-serve` | HTTP/JSON estimation service, shard orchestrator |
//! | [`trace`] | `ecochip-trace` | Structured logging, trace IDs, spans, stage timings |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Example
//!
//! ```
//! use eco_chip::{EcoChip, testcases::ga102, techdb::TechDb};
//! use eco_chip::core::disaggregation::NodeTuple;
//! use eco_chip::techdb::TechNode;
//!
//! let db = TechDb::default();
//! let estimator = EcoChip::default();
//! let monolith = estimator.estimate(&ga102::monolithic_system(&db)?)?;
//! let chiplets = estimator.estimate(&ga102::three_chiplet_system(
//!     &db,
//!     NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
//! )?)?;
//! println!(
//!     "GA102 embodied CFP: monolithic {} vs 3-chiplet {}",
//!     monolith.embodied(),
//!     chiplets.embodied()
//! );
//! assert!(chiplets.embodied().kg() < monolith.embodied().kg());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ecochip_act as act;
pub use ecochip_core as core;
pub use ecochip_cost as cost;
pub use ecochip_design as design;
pub use ecochip_floorplan as floorplan;
pub use ecochip_noc as noc;
pub use ecochip_packaging as packaging;
pub use ecochip_power as power;
pub use ecochip_serve as serve;
pub use ecochip_techdb as techdb;
pub use ecochip_testcases as testcases;
pub use ecochip_trace as trace;
pub use ecochip_yield as yield_model;

pub use ecochip_core::{
    CarbonReport, Chiplet, ChipletSize, EcoChip, EcoChipError, EstimatorConfig, System,
};
pub use ecochip_packaging::PackagingArchitecture;
pub use ecochip_power::UsageProfile;
pub use ecochip_techdb::{Carbon, DesignType, EnergySource, TechDb, TechNode};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_usable() {
        let db = crate::TechDb::default();
        assert!(db.contains(crate::TechNode::N7));
        let estimator = crate::EcoChip::default();
        assert!(estimator.config().include_wafer_wastage);
    }
}
