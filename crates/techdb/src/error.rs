//! Error types for the technology database.

use std::error::Error;
use std::fmt;

use crate::range::OutOfRange;

/// Errors produced by the technology database.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TechDbError {
    /// The requested nanometre value does not name a supported node.
    UnknownNode(u32),
    /// The string could not be parsed as a technology node.
    UnparsableNode(String),
    /// The string does not name a known design type.
    UnknownDesignType(String),
    /// The database has no entry for the requested node.
    MissingNode(u32),
    /// A database value is outside its physical range; the text starts
    /// with the value's path (see [`crate::NodeParams::validate`]).
    InvalidDatabase(String),
}

impl fmt::Display for TechDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechDbError::UnknownNode(nm) => write!(f, "unknown technology node: {nm} nm"),
            TechDbError::UnparsableNode(s) => write!(f, "cannot parse technology node from {s:?}"),
            TechDbError::UnknownDesignType(s) => write!(f, "unknown design type {s:?}"),
            TechDbError::MissingNode(nm) => {
                write!(f, "technology database has no entry for {nm} nm")
            }
            TechDbError::InvalidDatabase(msg) => write!(f, "invalid technology database: {msg}"),
        }
    }
}

impl Error for TechDbError {}

impl From<OutOfRange> for TechDbError {
    fn from(refusal: OutOfRange) -> Self {
        TechDbError::InvalidDatabase(refusal.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            TechDbError::UnknownNode(6),
            TechDbError::UnparsableNode("x".into()),
            TechDbError::UnknownDesignType("dsp".into()),
            TechDbError::InvalidDatabase("nodes[7].epa must be finite and > 0, got -1".into()),
            TechDbError::MissingNode(7),
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechDbError>();
    }
}
