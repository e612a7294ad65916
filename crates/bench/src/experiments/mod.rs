//! Experiment generators — one public function per table / figure of the
//! paper.
//!
//! | Function | Paper artefact | What it regenerates |
//! |---|---|---|
//! | [`table1`] | Table I | Input-parameter table per technology node |
//! | [`fig2`] | Fig. 2 | Manufacturing CFP vs die area; monolithic vs 4-chiplet GA102 per node |
//! | [`fig3`] | Fig. 3(b) | Wafer-wastage impact on the GA102 |
//! | [`fig6`] | Fig. 6 | Defect-density trend and its impact on total CFP |
//! | [`fig7`] | Fig. 7 | GA102 3-chiplet: Cmfg+CHI, Cdes, Cemb vs ACT, Ctot split |
//! | [`fig8`] | Fig. 8 | EMR and A15 total CFP vs their monolithic counterparts |
//! | [`fig9`] | Fig. 9 | HI overheads per packaging architecture vs chiplet count |
//! | [`fig10`] | Fig. 10 | GA102 Cmfg and CHI vs number of chiplets |
//! | [`fig11`] | Fig. 11 | Packaging parameter sweeps on the A15 |
//! | [`fig12`] | Fig. 12 | Design-CFP amortisation and lifetime sweeps |
//! | [`fig13`] | Fig. 13 | AR/VR accelerator carbon-delay/power/area products |
//! | [`fig14`] | Fig. 14 | GA102 carbon-power and carbon-area products per node |
//! | [`fig15`] | Fig. 15 | Dollar-cost analysis per node tuple and chiplet count |
//! | [`validation`] | Section VII | A15 embodied/operational split sanity check |
//! | [`ablation`] | (extension) | Contribution of each modelling ingredient |

mod ablation;
mod accelerator;
mod cost_analysis;
mod ga102_cfp;
mod motivation;
mod packaging_space;
mod parameters;
mod reuse;
mod totals;

pub use ablation::ablation;
pub use accelerator::fig13;
pub use cost_analysis::fig15;
pub use ga102_cfp::{fig14, fig7};
pub use motivation::{fig2, fig3, fig6};
pub use packaging_space::{fig10, fig11, fig9};
pub use parameters::table1;
pub use reuse::fig12;
pub use totals::{fig8, validation};

use crate::ExperimentResult;

/// A named experiment generator.
pub type Experiment = (&'static str, fn() -> ExperimentResult);

/// Every experiment in paper order, under the name the `run_all` binary
/// selects it by (`run_all fig7 fig11`).
pub const EXPERIMENTS: [Experiment; 15] = [
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("validation", validation),
    ("ablation", ablation),
];

/// Run every experiment in paper order and return all tables.
///
/// # Errors
///
/// Propagates the first generator failure.
pub fn all() -> ExperimentResult {
    let mut tables = Vec::new();
    for (_, generator) in EXPERIMENTS {
        tables.extend(generator()?);
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_nonempty_tables() {
        for (name, generator) in EXPERIMENTS {
            let tables = generator().unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(!tables.is_empty(), "{name} produced no tables");
            for table in &tables {
                assert!(
                    !table.is_empty(),
                    "{name} produced an empty table: {}",
                    table.title()
                );
                assert!(!table.to_string().is_empty());
            }
        }
    }
}
