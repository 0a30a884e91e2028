//! Error types for the simulator crate.

use crate::schedule::PipelineSchedule;
use std::error::Error;
use std::fmt;

/// Errors from executing a configuration on the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The configuration does not fit in GPU memory — the run would crash
    /// with CUDA OOM on a real cluster.
    OutOfMemory {
        /// Peak bytes the configuration needs on its worst GPU.
        required_bytes: u64,
        /// Bytes physically available per GPU.
        limit_bytes: u64,
    },
    /// The configuration is structurally invalid for this cluster/model.
    InvalidConfig(pipette_model::ModelError),
    /// The pipeline schedule cannot run this configuration (see
    /// [`PipelineSchedule::check`]).
    InvalidSchedule {
        /// The schedule that was asked for.
        schedule: PipelineSchedule,
        /// Which requirement it fails.
        reason: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                required_bytes,
                limit_bytes,
            } => write!(
                f,
                "out of memory: configuration needs {:.2} GiB per GPU but only {:.2} GiB available",
                *required_bytes as f64 / (1u64 << 30) as f64,
                *limit_bytes as f64 / (1u64 << 30) as f64,
            ),
            SimError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            SimError::InvalidSchedule { schedule, reason } => {
                write!(f, "invalid schedule {schedule:?}: {reason}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::OutOfMemory { .. } | SimError::InvalidSchedule { .. } => None,
        }
    }
}

impl From<pipette_model::ModelError> for SimError {
    fn from(e: pipette_model::ModelError) -> Self {
        SimError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_message_shows_gib() {
        let e = SimError::OutOfMemory {
            required_bytes: 48 << 30,
            limit_bytes: 32 << 30,
        };
        let s = e.to_string();
        assert!(s.contains("48.00") && s.contains("32.00"));
    }

    #[test]
    fn invalid_config_wraps_source() {
        let e: SimError =
            pipette_model::ModelError::TensorWaysTooLarge { tp: 16, max_tp: 8 }.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
