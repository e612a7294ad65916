//! Energy-source presets and their carbon intensities.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::CarbonIntensity;

/// The energy source powering a fab, a design compute farm or a deployed
/// device.
///
/// Table I of the paper gives a 30–700 gCO₂/kWh range for `Cmfg,src`,
/// `Cpkg,src`, `Cdes,src` and the operational intensity. The presets below are
/// the conventional life-cycle intensities for each generation source; the
/// paper's headline experiments use [`EnergySource::Coal`] (700 gCO₂/kWh).
///
/// ```
/// use ecochip_techdb::EnergySource;
/// let coal = EnergySource::Coal.carbon_intensity();
/// let wind = EnergySource::Wind.carbon_intensity();
/// assert!(coal.g_per_kwh() > 50.0 * wind.g_per_kwh());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum EnergySource {
    /// Coal-fired generation (700 gCO₂/kWh — the paper's default).
    Coal,
    /// Natural-gas generation (≈450 gCO₂/kWh).
    NaturalGas,
    /// Biomass generation (≈230 gCO₂/kWh).
    Biomass,
    /// World-average grid mix (≈475 gCO₂/kWh).
    WorldGrid,
    /// Solar photovoltaic (≈41 gCO₂/kWh).
    Solar,
    /// Hydroelectric (≈24 gCO₂/kWh).
    Hydro,
    /// Nuclear (≈12 gCO₂/kWh).
    Nuclear,
    /// Onshore wind (≈11 gCO₂/kWh).
    Wind,
    /// A user-supplied intensity in gCO₂/kWh. A sweep refuses one outside
    /// the Table I range [11, 700] (`SweepSpec::validate` in
    /// `ecochip-core`) rather than clamping it.
    Custom(f64),
}

impl EnergySource {
    /// Life-cycle carbon intensity of this source.
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let g_per_kwh = match self {
            EnergySource::Coal => 700.0,
            EnergySource::NaturalGas => 450.0,
            EnergySource::Biomass => 230.0,
            EnergySource::WorldGrid => 475.0,
            EnergySource::Solar => 41.0,
            EnergySource::Hydro => 24.0,
            EnergySource::Nuclear => 12.0,
            EnergySource::Wind => 11.0,
            EnergySource::Custom(v) => v,
        };
        CarbonIntensity::from_g_per_kwh(g_per_kwh)
    }

    /// All named (non-custom) presets, dirtiest first.
    pub const PRESETS: [EnergySource; 8] = [
        EnergySource::Coal,
        EnergySource::WorldGrid,
        EnergySource::NaturalGas,
        EnergySource::Biomass,
        EnergySource::Solar,
        EnergySource::Hydro,
        EnergySource::Nuclear,
        EnergySource::Wind,
    ];
}

impl Default for EnergySource {
    /// The paper's default fab/packaging/design energy source (coal).
    fn default() -> Self {
        EnergySource::Coal
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnergySource::Coal => write!(f, "coal"),
            EnergySource::NaturalGas => write!(f, "natural_gas"),
            EnergySource::Biomass => write!(f, "biomass"),
            EnergySource::WorldGrid => write!(f, "world_grid"),
            EnergySource::Solar => write!(f, "solar"),
            EnergySource::Hydro => write!(f, "hydro"),
            EnergySource::Nuclear => write!(f, "nuclear"),
            EnergySource::Wind => write!(f, "wind"),
            EnergySource::Custom(v) => write!(f, "custom({v} gCO2e/kWh)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coal_matches_paper_default() {
        assert!((EnergySource::Coal.carbon_intensity().g_per_kwh() - 700.0).abs() < 1e-9);
        assert_eq!(EnergySource::default(), EnergySource::Coal);
    }

    #[test]
    fn presets_span_table_i_range() {
        for src in EnergySource::PRESETS {
            let g = src.carbon_intensity().g_per_kwh();
            assert!((11.0 - 1e-9..=700.0 + 1e-9).contains(&g), "{src}: {g}");
        }
    }

    #[test]
    fn presets_are_sorted_dirtiest_first() {
        let values: Vec<f64> = EnergySource::PRESETS
            .iter()
            .map(|s| s.carbon_intensity().g_per_kwh())
            .collect();
        for pair in values.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn serde_round_trip() {
        let s = serde_json::to_string(&EnergySource::Solar).unwrap();
        assert_eq!(s, "\"solar\"");
        let back: EnergySource = serde_json::from_str(&s).unwrap();
        assert_eq!(back, EnergySource::Solar);
    }

    #[test]
    fn display_nonempty() {
        for src in EnergySource::PRESETS {
            assert!(!src.to_string().is_empty());
        }
        assert!(EnergySource::Custom(100.0).to_string().contains("custom"));
    }
}
