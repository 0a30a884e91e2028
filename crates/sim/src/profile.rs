//! Compute profiling facade.
//!
//! Pipette's latency estimator uses *profiled* values for the per-
//! microbatch computation time `C` and the tensor-parallel communication
//! `T_com^TP` (§V), rather than analytic FLOP counts. This module plays
//! the role of those short profiling runs: it reads the simulator's
//! compute model through a small measurement noise.

use crate::comm::CommModel;
use crate::compute::{stage_bwd_time_s, stage_fwd_time_s};
use pipette_cluster::rand_util::normal;
use pipette_cluster::{BandwidthMatrix, GpuSpec};
use pipette_model::{messages, GptConfig, MicrobatchPlan, ParallelConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Measured per-stage compute and tensor-parallel times for one
/// `(configuration, microbatch)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledCompute {
    /// Forward time per microbatch per stage (compute only).
    pub fwd: Vec<f64>,
    /// Backward time per microbatch per stage (compute only).
    pub bwd: Vec<f64>,
    /// Tensor-parallel all-reduce time per stage for one full microbatch
    /// pass (forward + backward), measured on the reference placement.
    pub tp_comm: Vec<f64>,
}

impl ProfiledCompute {
    /// `C` for stage `s`: fwd + bwd compute of one microbatch.
    pub fn compute(&self, stage: usize) -> f64 {
        self.fwd[stage] + self.bwd[stage]
    }

    /// Number of stages profiled.
    pub fn num_stages(&self) -> usize {
        self.fwd.len()
    }
}

/// Profiler with multiplicative measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeProfiler {
    /// Relative standard deviation of one timing measurement.
    pub noise_sigma: f64,
}

impl Default for ComputeProfiler {
    fn default() -> Self {
        Self { noise_sigma: 0.015 }
    }
}

impl ComputeProfiler {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if `noise_sigma` is negative.
    pub fn new(noise_sigma: f64) -> Self {
        debug_assert!(noise_sigma >= 0.0, "noise must be non-negative");
        Self { noise_sigma }
    }

    /// Profiles compute and TP-communication times for `cfg` with the given
    /// microbatch, on the identity placement (profiling runs use the
    /// default launcher placement). Deterministic in `seed`.
    pub fn profile(
        &self,
        matrix: &BandwidthMatrix,
        gpu: &GpuSpec,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
        seed: u64,
    ) -> ProfiledCompute {
        self.profile_stages(matrix, gpu, gpt, cfg.pp, cfg.tp, plan, seed)
    }

    /// Like [`Self::profile`], but at an explicit stage granularity —
    /// `stages = pp · v` profiles the per-chunk times of an interleaved
    /// schedule. The TP all-reduce is measured on a reference node's first
    /// `tp` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `stages` exceeds the layer count or `tp` exceeds the node
    /// size.
    #[allow(clippy::too_many_arguments)] // mirrors the profiling job's full parameter surface
    pub fn profile_stages(
        &self,
        matrix: &BandwidthMatrix,
        gpu: &GpuSpec,
        gpt: &GptConfig,
        stages: usize,
        tp: usize,
        plan: MicrobatchPlan,
        seed: u64,
    ) -> ProfiledCompute {
        debug_assert!(
            stages >= 1 && stages <= gpt.n_layers,
            "stages must be in 1..=n_layers"
        );
        debug_assert!(
            tp >= 1 && tp <= matrix.topology().gpus_per_node(),
            "tp must fit within a node"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut noisy = |v: f64| v * normal(&mut rng, 1.0, self.noise_sigma).clamp(0.85, 1.15);
        let comm = CommModel::new(matrix);
        let reference_group: Vec<pipette_cluster::GpuId> =
            (0..tp).map(pipette_cluster::GpuId).collect();
        let tp_bytes = messages::tp_allreduce_bytes(gpt, plan.micro_batch);
        // One reference ring serves every stage; only the noise differs.
        let ar = comm.ring_allreduce(&reference_group, tp_bytes);
        let mut fwd = Vec::with_capacity(stages);
        let mut bwd = Vec::with_capacity(stages);
        let mut tp_comm = Vec::with_capacity(stages);
        for s in 0..stages {
            fwd.push(noisy(stage_fwd_time_s(
                gpt,
                gpu,
                stages,
                tp,
                s,
                plan.micro_batch,
            )));
            bwd.push(noisy(stage_bwd_time_s(
                gpt,
                gpu,
                stages,
                tp,
                s,
                plan.micro_batch,
            )));
            let layers = gpt.layers_of_stage(stages, s) as f64;
            tp_comm.push(noisy(4.0 * layers * ar));
        }
        ProfiledCompute { fwd, bwd, tp_comm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(5),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    #[test]
    fn profile_is_deterministic_and_noisy() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let plan = MicrobatchPlan::new(16, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let prof = ComputeProfiler::default();
        let a = prof.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        let b = prof.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        let c = prof.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_is_bounded() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let plan = MicrobatchPlan::new(16, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let exact =
            ComputeProfiler::new(0.0).profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        let noisy =
            ComputeProfiler::new(0.03).profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        for s in 0..2 {
            let r = noisy.compute(s) / exact.compute(s);
            assert!((r - 1.0).abs() < 0.2, "ratio {r}");
        }
    }

    #[test]
    fn accessors_are_consistent() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(4, 2, 2);
        let plan = MicrobatchPlan::new(16, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let p = ComputeProfiler::new(0.0).profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        assert_eq!(p.num_stages(), 4);
        for s in 0..4 {
            assert!(p.compute(s) > 0.0);
        }
    }

    #[test]
    fn tp_comm_zero_without_tensor_parallelism() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 1, 8);
        let plan = MicrobatchPlan::new(16, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let p = ComputeProfiler::new(0.0).profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
        assert!(p.tp_comm.iter().all(|&t| t == 0.0));
    }
}
