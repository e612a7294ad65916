//! # ecochip-bench
//!
//! The experiment harness of the ECO-CHIP reproduction: one generator per
//! table and figure of the paper's evaluation (Sections II, IV, V and VI).
//!
//! Every generator in [`experiments`] returns one or more [`Table`]s — the
//! same rows / series the paper plots. [`experiments::EXPERIMENTS`] names
//! them in paper order, and the one binary, `run_all`, prints every table or
//! only the named ones (`run_all fig7 fig11`; an unknown name exits 2).
//!
//! ```
//! let tables = ecochip_bench::experiments::fig2().unwrap();
//! assert!(!tables.is_empty());
//! let names: Vec<&str> = ecochip_bench::experiments::EXPERIMENTS
//!     .iter()
//!     .map(|(name, _)| *name)
//!     .collect();
//! assert_eq!(names[..3], ["table1", "fig2", "fig3"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod table;

pub use table::Table;

/// Convenience error alias used by the experiment generators.
pub type ExperimentResult = Result<Vec<Table>, Box<dyn std::error::Error>>;
