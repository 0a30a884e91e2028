//! Training-feature options shared by the timing and memory simulators.

use crate::schedule::PipelineSchedule;

/// How activations are handled between forward and backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivationMode {
    /// Store everything (fastest backward, largest memory).
    #[default]
    Full,
    /// Megatron-LM's selective recomputation: drop the quadratic attention
    /// tensors and recompute them during backward — large memory saving,
    /// small compute overhead.
    Selective,
    /// Full checkpointing: store only layer inputs, replay the whole
    /// forward during backward (how pipeline-only systems fit).
    FullRecompute,
}

/// The feature set a training job runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TrainingOptions {
    /// Pipeline schedule (GPipe, 1F1B, or interleaved 1F1B).
    pub schedule: PipelineSchedule,
    /// Activation storage policy.
    pub activation: ActivationMode,
    /// ZeRO-1 style distributed optimizer: shard the optimizer state
    /// across the data-parallel group (gradient sync becomes
    /// reduce-scatter + all-gather, slightly cheaper than an all-reduce).
    pub zero1: bool,
    /// Model NIC sharing: the `tp` concurrent communicators of a node
    /// divide its inter-node bandwidth. Off by default (the estimator does
    /// not model it — enabling this is a robustness ablation).
    pub nic_contention: bool,
}

impl TrainingOptions {
    /// The modern default: 1F1B, full activation storage, replicated
    /// optimizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the pipeline schedule.
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Switches the activation policy.
    pub fn with_activation(mut self, activation: ActivationMode) -> Self {
        self.activation = activation;
        self
    }

    /// Enables/disables the distributed optimizer.
    pub fn with_zero1(mut self, zero1: bool) -> Self {
        self.zero1 = zero1;
        self
    }

    /// Enables/disables NIC-sharing contention.
    pub fn with_nic_contention(mut self, on: bool) -> Self {
        self.nic_contention = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_modern_megatron() {
        let o = TrainingOptions::default();
        assert_eq!(o.schedule, PipelineSchedule::OneFOneB);
        assert_eq!(o.activation, ActivationMode::Full);
        assert!(!o.zero1);
        assert!(!o.nic_contention);
    }

    #[test]
    fn builders_compose() {
        let o = TrainingOptions::new()
            .with_schedule(PipelineSchedule::GPipe)
            .with_activation(ActivationMode::Selective)
            .with_zero1(true)
            .with_nic_contention(true);
        assert_eq!(o.schedule, PipelineSchedule::GPipe);
        assert_eq!(o.activation, ActivationMode::Selective);
        assert!(o.zero1);
        assert!(o.nic_contention);
    }
}
