//! # ecochip-techdb
//!
//! Technology-node parameter database and strongly-typed physical quantities
//! used across the ECO-CHIP carbon-footprint estimation framework.
//!
//! The crate provides:
//!
//! * [`units`] — newtypes for area, energy, power, carbon mass, carbon
//!   intensity and friends, with the arithmetic that is physically meaningful
//!   (e.g. `CarbonIntensity * Energy = Carbon`).
//! * [`TechNode`] — the set of CMOS technology nodes supported by the
//!   framework (3 nm through 130 nm).
//! * [`DesignType`] — logic / memory / analog block classification, which
//!   controls transistor-density (area) scaling.
//! * [`EnergySource`] — grid-mix presets mapping an energy source to a carbon
//!   intensity (30–700 gCO₂/kWh, Table I of the paper).
//! * [`NodeParams`] / [`TechDb`] — the per-node parameter tables (defect
//!   density, transistor density, energy-per-area, process-gas and material
//!   footprints, equipment-efficiency derate, EDA productivity, supply
//!   voltage, RDL/bridge energy-per-layer-area) with all values inside the
//!   ranges published in Table I of the ECO-CHIP paper, plus builders for
//!   overriding any of them.
//!
//! # Example
//!
//! ```
//! use ecochip_techdb::{TechDb, TechNode, DesignType, EnergySource};
//!
//! let db = TechDb::default();
//! let p7 = db.node(TechNode::N7)?;
//! assert!(p7.defect_density.per_cm2() > db.node(TechNode::N65)?.defect_density.per_cm2());
//!
//! // 1 billion logic transistors in 7 nm:
//! let area = p7.area_for_transistors(DesignType::Logic, 1.0e9);
//! assert!(area.mm2() > 5.0 && area.mm2() < 20.0);
//!
//! // Coal-heavy grid:
//! let coal = EnergySource::Coal.carbon_intensity();
//! assert!((coal.kg_per_kwh() - 0.7).abs() < 1e-9);
//! # Ok::<(), ecochip_techdb::TechDbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod design_type;
pub mod error;
pub mod node;
pub mod params;
pub mod range;
pub mod source;
pub mod units;

pub use design_type::DesignType;
pub use error::TechDbError;
pub use node::TechNode;
pub use params::{DefectDensity, NodeParams, NodeParamsBuilder, TechDb, TechDbBuilder};
pub use range::{OutOfRange, Range};
pub use source::EnergySource;
pub use units::{
    Area, Carbon, CarbonIntensity, CarbonPerArea, Energy, EnergyPerArea, Frequency, Length, Power,
    TimeSpan, TransistorDensity, Voltage,
};
