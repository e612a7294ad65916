//! The physical ranges that input checks hold values to.
//!
//! [`TechDb::validate`](crate::TechDb::validate) and the system checks of
//! the estimator share this one helper; each crate turns an [`OutOfRange`]
//! into its own error variant.

use std::error::Error;
use std::fmt;

/// The physical range of an input value, which must also be finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Range {
    /// `> 0`.
    Positive,
    /// `≥ 0`.
    NonNegative,
    /// `[0, 1]`: a share, such as an activity factor or a duty cycle.
    Fraction,
    /// `(0, 1]`: an efficiency, derate or productivity factor.
    Efficiency,
    /// `≥ 1`: a count, such as a volume.
    AtLeastOne,
    /// Table I's energy-source intensities, in gCO₂e/kWh.
    Intensity,
}

impl Range {
    /// Refuse `value` outside this range, naming `field`; valid values
    /// format (and allocate) nothing.
    ///
    /// # Errors
    ///
    /// [`OutOfRange`], its text `<field> must be <rule>, got <value>`.
    pub fn check(self, field: impl fmt::Display, value: f64) -> Result<(), OutOfRange> {
        let (inside, rule) = match self {
            Range::Positive => (value > 0.0, "finite and > 0"),
            Range::NonNegative => (value >= 0.0, "finite and ≥ 0"),
            Range::Fraction => ((0.0..=1.0).contains(&value), "in [0, 1]"),
            Range::Efficiency => (value > 0.0 && value <= 1.0, "in (0, 1]"),
            Range::AtLeastOne => (value >= 1.0, "≥ 1"),
            Range::Intensity => ((11.0..=700.0).contains(&value), "in [11, 700] gCO2e/kWh"),
        };
        if inside && value.is_finite() {
            return Ok(());
        }
        Err(OutOfRange(format!("{field} must be {rule}, got {value}")))
    }
}

/// A value refused by [`Range::check`]; the text starts with its field path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfRange(pub String);

impl fmt::Display for OutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for OutOfRange {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_field_and_the_rule() {
        assert_eq!(Range::Efficiency.check("eta", 1.0), Ok(()));
        assert_eq!(Range::Fraction.check("share", 0.0), Ok(()));
        let refusals = [
            (Range::Positive, 0.0, "x must be finite and > 0, got 0"),
            (
                Range::NonNegative,
                f64::NAN,
                "x must be finite and ≥ 0, got NaN",
            ),
            (Range::Fraction, 1.5, "x must be in [0, 1], got 1.5"),
            (Range::Efficiency, 0.0, "x must be in (0, 1], got 0"),
            (Range::AtLeastOne, 0.0, "x must be ≥ 1, got 0"),
            (
                Range::Intensity,
                f64::INFINITY,
                "x must be in [11, 700] gCO2e/kWh, got inf",
            ),
        ];
        for (range, value, text) in refusals {
            assert_eq!(range.check("x", value), Err(OutOfRange(text.to_owned())));
        }
    }
}
