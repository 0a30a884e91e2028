//! Error types for the configurator.

use std::error::Error;
use std::fmt;

/// Errors produced while searching for a configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigureError {
    /// No `(pp, tp, dp, microbatch)` combination satisfied the memory
    /// limit.
    NoFeasibleConfig {
        /// Candidates examined.
        examined: usize,
        /// Candidates rejected by the memory estimator.
        memory_rejected: usize,
    },
    /// The global batch is not divisible by any candidate `dp`.
    NoValidBatchSplit {
        /// The requested global batch.
        global_batch: u64,
    },
    /// A structural problem with the requested configuration space.
    Invalid(pipette_model::ModelError),
    /// The cluster's bandwidth matrix carries a non-finite or
    /// non-positive off-diagonal entry.
    InvalidBandwidth {
        /// Source GPU of the offending link.
        from: usize,
        /// Destination GPU of the offending link.
        to: usize,
        /// The offending value (GiB/s).
        value: f64,
    },
    /// The cluster description is unusable (e.g. zero-capacity GPUs).
    InvalidCluster {
        /// What is wrong with it.
        reason: String,
    },
    /// A fault plan failed every GPU; there is nothing left to configure.
    ClusterExhausted {
        /// GPUs taken out by the plan.
        failed_gpus: usize,
        /// GPUs the cluster had.
        total_gpus: usize,
    },
    /// An error surfaced by the cluster layer (fault-plan validation,
    /// subcluster selection).
    Cluster(pipette_cluster::ClusterError),
    /// The logical deadline budget was exhausted before any candidate was
    /// estimated — there is no best-so-far recommendation to return.
    /// (Budgets that expire *after* estimation truncate the SA passes and
    /// still return a recommendation, flagged in
    /// [`crate::report::DeadlineReport::truncated`].)
    DeadlineExpired {
        /// The logical budget the run was given.
        budget_units: u64,
        /// Logical units already charged when the budget ran out.
        spent_units: u64,
    },
}

impl fmt::Display for ConfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigureError::NoFeasibleConfig { examined, memory_rejected } => write!(
                f,
                "no feasible configuration found ({examined} examined, {memory_rejected} rejected for memory)"
            ),
            ConfigureError::NoValidBatchSplit { global_batch } => {
                write!(f, "global batch {global_batch} cannot be split by any candidate dp")
            }
            ConfigureError::Invalid(e) => write!(f, "invalid search space: {e}"),
            ConfigureError::InvalidBandwidth { from, to, value } => write!(
                f,
                "bandwidth matrix entry gpu{from}->gpu{to} is {value}, must be finite and positive"
            ),
            ConfigureError::InvalidCluster { reason } => {
                write!(f, "invalid cluster: {reason}")
            }
            ConfigureError::ClusterExhausted {
                failed_gpus,
                total_gpus,
            } => write!(
                f,
                "fault plan fails {failed_gpus} of {total_gpus} GPUs; no subcluster survives"
            ),
            ConfigureError::Cluster(e) => write!(f, "cluster error: {e}"),
            ConfigureError::DeadlineExpired {
                budget_units,
                spent_units,
            } => write!(
                f,
                "deadline budget of {budget_units} logical units exhausted ({spent_units} spent) before any candidate was estimated"
            ),
        }
    }
}

impl Error for ConfigureError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigureError::Invalid(e) => Some(e),
            ConfigureError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pipette_model::ModelError> for ConfigureError {
    fn from(e: pipette_model::ModelError) -> Self {
        ConfigureError::Invalid(e)
    }
}

impl From<pipette_cluster::ClusterError> for ConfigureError {
    fn from(e: pipette_cluster::ClusterError) -> Self {
        ConfigureError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ConfigureError::NoFeasibleConfig {
            examined: 40,
            memory_rejected: 40,
        };
        assert!(e.to_string().contains("40"));
        let e = ConfigureError::NoValidBatchSplit { global_batch: 13 };
        assert!(e.to_string().contains("13"));
        let e = ConfigureError::InvalidBandwidth {
            from: 2,
            to: 7,
            value: f64::NAN,
        };
        assert!(e.to_string().contains("gpu2") && e.to_string().contains("gpu7"));
        let e = ConfigureError::ClusterExhausted {
            failed_gpus: 16,
            total_gpus: 16,
        };
        assert!(e.to_string().contains("16"));
        let e = ConfigureError::from(pipette_cluster::ClusterError::EmptySelection);
        assert!(matches!(e, ConfigureError::Cluster(_)));
        assert!(e.to_string().contains("zero nodes"));
        let e = ConfigureError::DeadlineExpired {
            budget_units: 500,
            spent_units: 612,
        };
        assert!(e.to_string().contains("500") && e.to_string().contains("612"));
    }
}
