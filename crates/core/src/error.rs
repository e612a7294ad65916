//! Error type for the core estimator.

use std::error::Error;
use std::fmt;

use ecochip_cost::CostError;
use ecochip_floorplan::FloorplanError;
use ecochip_packaging::PackagingError;
use ecochip_techdb::{OutOfRange, TechDbError};
use ecochip_yield::YieldError;

/// Errors produced by the ECO-CHIP estimator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EcoChipError {
    /// The system description was empty or inconsistent.
    InvalidSystem(String),
    /// Technology-database lookup failed.
    TechDb(TechDbError),
    /// Yield / wafer computation failed.
    Yield(YieldError),
    /// Floorplanning failed.
    Floorplan(FloorplanError),
    /// Packaging CFP estimation failed.
    Packaging(PackagingError),
    /// Dollar-cost estimation failed.
    Cost(CostError),
    /// A sweep's cartesian product overflows the addressable index space.
    SweepTooLarge(String),
    /// Output could not be serialized or written (a result stream, a
    /// merged fleet stream, an event line).
    Io(String),
}

impl fmt::Display for EcoChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoChipError::InvalidSystem(msg) => write!(f, "invalid system description: {msg}"),
            EcoChipError::TechDb(e) => write!(f, "technology database error: {e}"),
            EcoChipError::Yield(e) => write!(f, "yield model error: {e}"),
            EcoChipError::Floorplan(e) => write!(f, "floorplan error: {e}"),
            EcoChipError::Packaging(e) => write!(f, "packaging model error: {e}"),
            EcoChipError::Cost(e) => write!(f, "cost model error: {e}"),
            EcoChipError::SweepTooLarge(msg) => write!(f, "sweep too large: {msg}"),
            EcoChipError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl Error for EcoChipError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EcoChipError::TechDb(e) => Some(e),
            EcoChipError::Yield(e) => Some(e),
            EcoChipError::Floorplan(e) => Some(e),
            EcoChipError::Packaging(e) => Some(e),
            EcoChipError::Cost(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TechDbError> for EcoChipError {
    fn from(value: TechDbError) -> Self {
        EcoChipError::TechDb(value)
    }
}

impl From<OutOfRange> for EcoChipError {
    fn from(refusal: OutOfRange) -> Self {
        EcoChipError::InvalidSystem(refusal.0)
    }
}

impl From<YieldError> for EcoChipError {
    fn from(value: YieldError) -> Self {
        EcoChipError::Yield(value)
    }
}

impl From<FloorplanError> for EcoChipError {
    fn from(value: FloorplanError) -> Self {
        EcoChipError::Floorplan(value)
    }
}

impl From<PackagingError> for EcoChipError {
    fn from(value: PackagingError) -> Self {
        EcoChipError::Packaging(value)
    }
}

impl From<CostError> for EcoChipError {
    fn from(value: CostError) -> Self {
        EcoChipError::Cost(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_display_and_sources() {
        let cases: Vec<EcoChipError> = vec![
            EcoChipError::InvalidSystem("no chiplets".into()),
            TechDbError::MissingNode(7).into(),
            YieldError::InvalidParameter {
                name: "alpha",
                value: 0.0,
                expected: "> 0",
            }
            .into(),
            FloorplanError::NoChiplets.into(),
            PackagingError::InvalidStack("too small".into()).into(),
            CostError::InvalidInput {
                name: "volume",
                value: 0.0,
            }
            .into(),
            EcoChipError::SweepTooLarge("overflow".into()),
            EcoChipError::Io("writing event stream: broken pipe".into()),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(Error::source(&cases[0]).is_none());
        assert!(Error::source(&cases[1]).is_some());
        assert!(Error::source(&cases[2]).is_some());
        assert!(Error::source(&cases[3]).is_some());
        assert!(Error::source(&cases[4]).is_some());
        assert!(Error::source(&cases[5]).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EcoChipError>();
    }
}
