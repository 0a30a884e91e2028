//! The "actually run it on the cluster" facade.
//!
//! [`ClusterRun::execute`] is the reproduction's equivalent of launching a
//! Megatron-LM job with a given configuration: it either fails with CUDA
//! OOM (if the peak memory exceeds the GPU) or returns the measured
//! iteration time. Experiments use it as ground truth; baselines that
//! recommend OOM configurations (Fig. 5b) are charged one failed launch
//! per attempt.

use crate::error::SimError;
use crate::iteration::{IterationReport, IterationSim};
use crate::mapping::Mapping;
use crate::memsim::{MemoryReport, MemorySim};
use pipette_cluster::Cluster;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};

/// Result of a successful (non-OOM) run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Wall-clock time of one training iteration, seconds.
    pub iteration_seconds: f64,
    /// Peak memory of the worst GPU, bytes.
    pub peak_memory_bytes: u64,
    /// Full timing breakdown.
    pub report: IterationReport,
    /// Full memory breakdown.
    pub memory: MemoryReport,
}

/// Executes configurations on a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterRun<'a> {
    cluster: &'a Cluster,
    gpt: &'a GptConfig,
    memsim: MemorySim,
    options: crate::options::TrainingOptions,
}

impl<'a> ClusterRun<'a> {
    /// Binds a cluster and model. The memory simulator's jitter seed is
    /// derived from the cluster name so the two paper clusters behave
    /// differently.
    pub fn new(cluster: &'a Cluster, gpt: &'a GptConfig) -> Self {
        let seed = cluster
            .name()
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        Self {
            cluster,
            gpt,
            memsim: MemorySim::new(seed),
            options: crate::options::TrainingOptions::default(),
        }
    }

    /// Replaces the full training-feature set for both the memory and the
    /// timing simulation.
    pub fn with_options(mut self, options: crate::options::TrainingOptions) -> Self {
        self.memsim = self.memsim.with_options(options);
        self.options = options;
        self
    }

    /// Enables full activation recomputation for both the memory and the
    /// timing simulation (how pipeline-only systems such as Varuna run).
    pub fn with_recompute(mut self, recompute: bool) -> Self {
        let mode = if recompute {
            crate::options::ActivationMode::FullRecompute
        } else {
            crate::options::ActivationMode::Full
        };
        self.options.activation = mode;
        self.memsim = self.memsim.with_options(self.options);
        self
    }

    /// The memory ground truth used by this runner.
    pub fn memory_sim(&self) -> MemorySim {
        self.memsim
    }

    /// The cluster being simulated.
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// Peak memory this configuration would need (without launching).
    pub fn peak_memory(&self, cfg: ParallelConfig, plan: MicrobatchPlan) -> MemoryReport {
        self.memsim.report(self.gpt, cfg, plan)
    }

    /// Launches one iteration.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfMemory`] if the worst GPU exceeds its memory;
    /// [`SimError::InvalidConfig`] if the configuration does not match the
    /// cluster or model; [`SimError::InvalidSchedule`] if the schedule
    /// cannot run it.
    pub fn execute(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        plan: MicrobatchPlan,
    ) -> Result<Measured, SimError> {
        cfg.validate(
            self.cluster.topology().num_gpus(),
            self.cluster.topology().gpus_per_node(),
            self.gpt.n_layers,
        )?;
        self.options
            .schedule
            .check(cfg.pp, plan.n_microbatches, self.gpt.n_layers)?;
        let memory = self.memsim.report(self.gpt, cfg, plan);
        let limit = self.cluster.gpu().memory_bytes;
        if memory.peak_bytes > limit {
            return Err(SimError::OutOfMemory {
                required_bytes: memory.peak_bytes,
                limit_bytes: limit,
            });
        }
        let gpu = self.cluster.gpu().clone();
        let report = IterationSim::new(self.cluster.bandwidth(), &gpu, self.gpt)
            .with_options(self.options)
            .simulate(cfg, mapping, plan);
        Ok(Measured {
            iteration_seconds: report.total_seconds,
            peak_memory_bytes: memory.peak_bytes,
            report,
            memory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;

    #[test]
    fn small_model_runs() {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let cfg = ParallelConfig::new(2, 4, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let run = ClusterRun::new(&cluster, &gpt);
        let m = run
            .execute(cfg, &mapping, MicrobatchPlan::new(32, 2).unwrap())
            .expect("should fit");
        assert!(m.iteration_seconds > 0.0);
        assert!(m.peak_memory_bytes < cluster.gpu().memory_bytes);
    }

    #[test]
    fn oversized_microbatch_ooms() {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(2, 8, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let run = ClusterRun::new(&cluster, &gpt);
        let err = run
            .execute(cfg, &mapping, MicrobatchPlan::new(64, 64).unwrap())
            .expect_err("64-sample microbatch of a 3.1B model cannot fit a V100");
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn invalid_config_is_reported() {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(2, 4, 4); // 32 workers vs 16 GPUs
        let mapping = Mapping::identity(ParallelConfig::new(2, 4, 2), *cluster.topology());
        let run = ClusterRun::new(&cluster, &gpt);
        assert!(matches!(
            run.execute(cfg, &mapping, MicrobatchPlan::new(16, 1).unwrap()),
            Err(SimError::InvalidConfig(_))
        ));
    }

    /// Runs interleaved 1F1B with `chunks` per device over 8 layers at
    /// pp = 4 and returns the schedule error's reason.
    fn interleaving_error(chunks: usize, n_mb: u64) -> &'static str {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let cfg = ParallelConfig::new(4, 4, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let options = crate::TrainingOptions::new()
            .with_schedule(crate::PipelineSchedule::Interleaved { chunks });
        let result = ClusterRun::new(&cluster, &gpt)
            .with_options(options)
            .execute(cfg, &mapping, MicrobatchPlan::new(n_mb, 1).unwrap());
        match result {
            Err(SimError::InvalidSchedule { reason, .. }) => reason,
            other => panic!("expected a schedule error, got {other:?}"),
        }
    }

    #[test]
    fn interleaving_with_indivisible_microbatches_is_a_typed_error() {
        assert!(interleaving_error(2, 6).contains("pp | n_mb"));
    }

    #[test]
    fn interleaving_with_more_chunks_than_layers_is_a_typed_error() {
        // 4 chunks on each of 4 devices would need 16 layers.
        assert!(interleaving_error(4, 8).contains("layer count"));
    }

    #[test]
    fn different_clusters_have_different_memory_jitter() {
        let mid = presets::mid_range(2).build(1);
        let high = presets::high_end(2).build(1);
        let gpt = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(2, 4, 2);
        let plan = MicrobatchPlan::new(16, 1).unwrap();
        let a = ClusterRun::new(&mid, &gpt)
            .peak_memory(cfg, plan)
            .peak_bytes;
        let b = ClusterRun::new(&high, &gpt)
            .peak_memory(cfg, plan)
            .peak_bytes;
        assert_ne!(a, b);
    }
}
