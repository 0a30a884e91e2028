//! Training configuration and reporting.

/// Hyperparameters for [`crate::Mlp::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of Adam steps (the paper trains for 50,000).
    pub iterations: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Minibatch size (capped at the dataset size; full batch if larger).
    pub batch_size: usize,
    /// Record the loss every this many iterations.
    pub record_every: usize,
    /// RNG seed for minibatch sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            iterations: 5_000,
            learning_rate: 1e-3,
            batch_size: 64,
            record_every: 100,
            seed: 0,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Steps taken.
    pub iterations: usize,
    /// Loss of the last step.
    pub final_loss: f64,
    /// Sampled loss curve (every `record_every` steps).
    pub loss_curve: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reasonable() {
        let c = TrainConfig::default();
        assert!(c.learning_rate > 0.0 && c.batch_size > 0 && c.record_every > 0);
    }
}
