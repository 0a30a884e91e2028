//! Error types for the cluster crate.

use pipette_obs::json::DecodeError;
use std::error::Error;
use std::fmt;

/// Errors produced while constructing or querying cluster models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A preset was asked for more nodes than it supports.
    InvalidNodeCount {
        /// Requested node count.
        requested: usize,
        /// Maximum supported node count.
        max: usize,
    },
    /// An imported bandwidth table could not be parsed.
    MalformedMatrix {
        /// What went wrong.
        reason: String,
    },
    /// A constructor argument was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: String,
        /// Why the value was rejected.
        reason: String,
    },
    /// A fault plan referenced hardware the topology does not have, or
    /// carried out-of-range rates/factors.
    InvalidFaultPlan {
        /// What went wrong.
        reason: String,
    },
    /// A node selection (subcluster restriction) kept zero nodes.
    EmptySelection,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidNodeCount { requested, max } => {
                write!(
                    f,
                    "requested {requested} nodes but preset supports at most {max}"
                )
            }
            ClusterError::MalformedMatrix { reason } => {
                write!(f, "malformed bandwidth table: {reason}")
            }
            ClusterError::InvalidParameter { name, reason } => {
                write!(f, "invalid {name}: {reason}")
            }
            ClusterError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            ClusterError::EmptySelection => {
                write!(f, "node selection keeps zero nodes")
            }
        }
    }
}

impl Error for ClusterError {}

/// A cluster export that does not decode is an invalid `cluster JSON`
/// parameter; the message names the offending field.
impl From<DecodeError> for ClusterError {
    fn from(e: DecodeError) -> Self {
        ClusterError::InvalidParameter {
            name: "cluster JSON".into(),
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let e = ClusterError::InvalidNodeCount {
            requested: 32,
            max: 16,
        };
        assert!(e.to_string().contains("32"));
    }
}
