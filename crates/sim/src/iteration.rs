//! One full training-iteration simulation: pipeline chains plus the
//! data-parallel gradient synchronization.
//!
//! Every data replica `z` runs an independent pipeline chain (its stages,
//! tensor groups, and inter-stage links are determined by the worker
//! mapping). After a stage's final backward on *all* replicas, that stage's
//! data-parallel all-reduce runs; the iteration completes when the slowest
//! stage finishes its all-reduce (the earliest stage usually dominates —
//! exactly why Eq. 6 charges only the first stage's DP communication).

use crate::comm::CommModel;
use crate::compute::{stage_bwd_time_s, stage_fwd_time_s};
use crate::engine::{ChainResult, ChainSpec};
use crate::mapping::Mapping;
use crate::options::{ActivationMode, TrainingOptions};
use crate::schedule::PipelineSchedule;
use pipette_cluster::{BandwidthMatrix, GpuSpec};
use pipette_model::{messages, GptConfig, MicrobatchPlan, ParallelConfig, WorkerId};

/// Fixed optimizer-step time appended to every iteration (seconds).
pub const OPTIMIZER_STEP_S: f64 = 2e-3;

/// Simulator for one iteration on a fixed cluster and model.
///
/// ```
/// use pipette_cluster::presets;
/// use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
/// use pipette_sim::{IterationSim, Mapping};
///
/// let cluster = presets::mid_range(2).build(3);
/// let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
/// let cfg = ParallelConfig::new(2, 4, 2);
/// let mapping = Mapping::identity(cfg, *cluster.topology());
/// let plan = MicrobatchPlan::new(32, 2)?;
/// let gpu = cluster.gpu().clone();
/// let report = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
///     .simulate(cfg, &mapping, plan);
/// assert!(report.total_seconds > report.critical_busy_seconds);
/// # Ok::<(), pipette_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IterationSim<'a> {
    matrix: &'a BandwidthMatrix,
    gpu: &'a GpuSpec,
    gpt: &'a GptConfig,
    options: TrainingOptions,
}

/// Timing breakdown of a simulated iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    /// End-to-end iteration time (seconds).
    pub total_seconds: f64,
    /// Slowest pipeline chain's makespan (before DP sync).
    pub pipeline_seconds: f64,
    /// Extra time the data-parallel all-reduce adds past the pipeline.
    pub dp_exposed_seconds: f64,
    /// Per-stage data-parallel all-reduce durations.
    pub stage_dp_seconds: Vec<f64>,
    /// Per-replica chain makespans.
    pub chain_makespans: Vec<f64>,
    /// Busy time of the busiest stage of the slowest chain.
    pub critical_busy_seconds: f64,
}

impl<'a> IterationSim<'a> {
    /// Creates a simulator over a bandwidth matrix, GPU spec, and model,
    /// using the memory-efficient 1F1B schedule (the modern default).
    pub fn new(matrix: &'a BandwidthMatrix, gpu: &'a GpuSpec, gpt: &'a GptConfig) -> Self {
        Self {
            matrix,
            gpu,
            gpt,
            options: TrainingOptions::default(),
        }
    }

    /// Replaces the full training-feature set.
    pub fn with_options(mut self, options: TrainingOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables full activation recomputation: every backward pass first
    /// replays the forward (compute and tensor-parallel all-reduces).
    pub fn with_recompute(mut self, recompute: bool) -> Self {
        self.options.activation = if recompute {
            ActivationMode::FullRecompute
        } else {
            ActivationMode::Full
        };
        self
    }

    /// Selects a different pipeline schedule (e.g. GPipe for ablations).
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.options.schedule = schedule;
        self
    }

    /// The schedule in use.
    pub fn schedule(&self) -> PipelineSchedule {
        self.options.schedule
    }

    /// Simulates one training iteration for `cfg` under `mapping` with the
    /// given microbatch plan.
    ///
    /// The chain runs at virtual-stage granularity: under interleaving the
    /// model is split into `pp · chunks` chunks, device `d` hosting chunks
    /// `{c·pp + d}`. Per-virtual-stage durations come from the chunk's
    /// layer count; hop `s → s+1` crosses devices `s % pp → (s+1) % pp`
    /// (a wrap-around link at chunk boundaries).
    ///
    /// # Panics
    ///
    /// Panics if `mapping` was built for a different configuration, the
    /// configuration does not match the matrix's GPU count, or the
    /// schedule cannot run it (see [`PipelineSchedule::check`]).
    pub fn simulate(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        plan: MicrobatchPlan,
    ) -> IterationReport {
        debug_assert_eq!(
            mapping.config(),
            cfg,
            "mapping built for a different configuration"
        );
        debug_assert_eq!(
            cfg.num_workers(),
            self.matrix.topology().num_gpus(),
            "configuration does not cover the cluster"
        );
        let schedule = self.options.schedule;
        debug_assert_eq!(
            schedule.check(cfg.pp, plan.n_microbatches, self.gpt.n_layers),
            Ok(())
        );
        let mut comm = CommModel::new(self.matrix);
        if self.options.nic_contention {
            comm = comm.with_inter_flows(cfg.tp);
        }
        let pp = cfg.pp;
        let stages = pp * schedule.chunks();
        let msg_pp = messages::pp_message_bytes(self.gpt, plan.micro_batch);
        let tp_bytes = messages::tp_allreduce_bytes(self.gpt, plan.micro_batch);
        let fwd_compute =
            |s| stage_fwd_time_s(self.gpt, self.gpu, stages, cfg.tp, s, plan.micro_batch);

        let mut chain_results: Vec<ChainResult> = Vec::with_capacity(cfg.dp);
        for z in 0..cfg.dp {
            let mut fwd_time = Vec::with_capacity(stages);
            let mut bwd_time = Vec::with_capacity(stages);
            for s in 0..stages {
                let group = mapping.tensor_group(s % pp, z);
                let layers = self.gpt.layers_of_stage(stages, s) as f64;
                // Two all-reduces per layer in each direction.
                let ar = comm.ring_allreduce(&group, tp_bytes);
                fwd_time.push(fwd_compute(s) + 2.0 * layers * ar);
                let mut bwd =
                    stage_bwd_time_s(self.gpt, self.gpu, stages, cfg.tp, s, plan.micro_batch)
                        + 2.0 * layers * ar;
                match self.options.activation {
                    ActivationMode::Full => {}
                    ActivationMode::Selective => {
                        // Recompute only the attention score/value products:
                        // their share of the forward FLOPs.
                        let h = self.gpt.hidden as f64;
                        let seq = self.gpt.seq_len as f64;
                        let attn_share = 4.0 * seq * h / (24.0 * h * h + 4.0 * seq * h);
                        bwd += attn_share * fwd_compute(s);
                    }
                    ActivationMode::FullRecompute => {
                        // Replay the forward before the backward.
                        bwd += fwd_compute(s) + 2.0 * layers * ar;
                    }
                }
                bwd_time.push(bwd);
            }
            let mut fwd_comm = Vec::with_capacity(stages.saturating_sub(1));
            let mut bwd_comm = Vec::with_capacity(stages.saturating_sub(1));
            for s in 0..stages.saturating_sub(1) {
                let (da, db) = (s % pp, (s + 1) % pp);
                let mut down: f64 = 0.0;
                let mut up: f64 = 0.0;
                // With one device, consecutive chunks share it: no hop.
                let ranks = if da == db { 0 } else { cfg.tp };
                for y in 0..ranks {
                    let a = mapping.gpu_of(WorkerId {
                        stage: da,
                        tensor: y,
                        data: z,
                    });
                    let b = mapping.gpu_of(WorkerId {
                        stage: db,
                        tensor: y,
                        data: z,
                    });
                    down = down.max(comm.p2p(a, b, msg_pp));
                    up = up.max(comm.p2p(b, a, msg_pp));
                }
                fwd_comm.push(down);
                bwd_comm.push(up);
            }
            let spec = ChainSpec {
                pp,
                n_mb: plan.n_microbatches,
                schedule,
                fwd_time,
                bwd_time,
                fwd_comm,
                bwd_comm,
            };
            chain_results.push(spec.simulate());
        }

        // Data-parallel all-reduce per device, gated on the slowest
        // replica: every chunk's gradients sync together.
        let mut stage_dp = Vec::with_capacity(pp);
        let mut total: f64 = 0.0;
        for d in 0..pp {
            let bytes: u64 = (0..schedule.chunks())
                .map(|c| messages::dp_gradient_bytes(self.gpt, stages, cfg.tp, c * pp + d))
                .sum();
            let mut dp_time: f64 = 0.0;
            for y in 0..cfg.tp {
                let group = mapping.data_group(d, y);
                dp_time = dp_time.max(comm.hierarchical_allreduce(&group, bytes));
            }
            if self.options.zero1 {
                // Reduce-scatter fp32 grads + all-gather fp16 params moves
                // ~3/4 of the all-reduce volume.
                dp_time *= 0.75;
            }
            let start = chain_results
                .iter()
                .map(|c| c.stage_finish[d])
                .fold(0.0, f64::max);
            total = total.max(start + dp_time);
            stage_dp.push(dp_time);
        }

        let pipeline_seconds = chain_results.iter().map(|c| c.makespan).fold(0.0, f64::max);
        let critical_busy = chain_results
            .iter()
            .max_by(|a, b| a.makespan.total_cmp(&b.makespan))
            .map(|slowest| slowest.stage_busy.iter().cloned().fold(0.0, f64::max))
            .unwrap_or(0.0);

        IterationReport {
            total_seconds: total + OPTIMIZER_STEP_S,
            pipeline_seconds,
            dp_exposed_seconds: total - pipeline_seconds,
            stage_dp_seconds: stage_dp,
            chain_makespans: chain_results.iter().map(|c| c.makespan).collect(),
            critical_busy_seconds: critical_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;

    fn small_setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(3),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    fn sim_time(
        cluster: &pipette_cluster::Cluster,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        micro: u64,
        mini: u64,
    ) -> IterationReport {
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(mini, micro).unwrap();
        IterationSim::new(cluster.bandwidth(), &cluster.gpu().clone(), gpt)
            .simulate(cfg, &mapping, plan)
    }

    #[test]
    fn report_is_internally_consistent() {
        let (cluster, gpt) = small_setup();
        let r = sim_time(&cluster, &gpt, ParallelConfig::new(2, 4, 2), 2, 32);
        assert!(r.total_seconds > r.pipeline_seconds);
        assert!(r.dp_exposed_seconds >= 0.0);
        assert_eq!(r.chain_makespans.len(), 2);
        assert_eq!(r.stage_dp_seconds.len(), 2);
        assert!(r.critical_busy_seconds > 0.0 && r.critical_busy_seconds <= r.pipeline_seconds);
    }

    #[test]
    fn more_microbatches_take_longer() {
        let (cluster, gpt) = small_setup();
        let fast = sim_time(&cluster, &gpt, ParallelConfig::new(2, 4, 2), 2, 16);
        let slow = sim_time(&cluster, &gpt, ParallelConfig::new(2, 4, 2), 2, 64);
        assert!(slow.total_seconds > 2.0 * fast.total_seconds);
    }

    #[test]
    fn gpipe_and_1f1b_have_similar_throughput_without_comm_pressure() {
        // On a tiny model the schedules differ mostly in memory, not time.
        let (cluster, gpt) = small_setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let a = IterationSim::new(cluster.bandwidth(), &gpu, &gpt).simulate(cfg, &mapping, plan);
        let b = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_schedule(PipelineSchedule::GPipe)
            .simulate(cfg, &mapping, plan);
        let ratio = a.total_seconds / b.total_seconds;
        assert!(ratio > 0.8 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn dp_only_config_has_no_pipeline_comm() {
        let (cluster, gpt) = small_setup();
        let r = sim_time(&cluster, &gpt, ParallelConfig::new(1, 8, 2), 2, 32);
        assert_eq!(r.stage_dp_seconds.len(), 1);
        assert!(r.stage_dp_seconds[0] > 0.0);
    }

    #[test]
    fn mapping_affects_latency() {
        // Swapping two pipeline-adjacent nodes across a slow link changes
        // the simulated time.
        let (cluster, gpt) = small_setup();
        let cfg = ParallelConfig::new(2, 8, 1);
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let sim = IterationSim::new(cluster.bandwidth(), &gpu, &gpt);
        let identity = Mapping::identity(cfg, *cluster.topology());
        let t1 = sim.simulate(cfg, &identity, plan).total_seconds;
        // Reverse the GPU order — tensor groups stay intact (within a
        // node), but stage 0 and 1 swap nodes.
        let mut reversed: Vec<_> = cluster.topology().gpus().collect();
        reversed.reverse();
        let rev = Mapping::from_assignment(cfg, reversed);
        let t2 = sim.simulate(cfg, &rev, plan).total_seconds;
        assert!((t1 - t2).abs() > 1e-6 || (t1 - t2).abs() / t1 < 0.2);
    }

    #[test]
    fn activation_modes_order_time_correctly() {
        use crate::options::{ActivationMode, TrainingOptions};
        let (cluster, gpt) = small_setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let time = |mode| {
            IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .with_options(TrainingOptions::new().with_activation(mode))
                .simulate(cfg, &mapping, plan)
                .total_seconds
        };
        let full = time(ActivationMode::Full);
        let selective = time(ActivationMode::Selective);
        let ckpt = time(ActivationMode::FullRecompute);
        assert!(
            selective > full,
            "selective {selective} pays a small recompute over {full}"
        );
        assert!(selective < full * 1.15, "selective overhead must be small");
        assert!(
            ckpt > selective,
            "full recompute {ckpt} pays the whole forward again"
        );
        assert!(ckpt > full * 1.2);
    }

    #[test]
    fn zero1_shrinks_dp_exposure() {
        use crate::options::TrainingOptions;
        let (cluster, gpt) = small_setup();
        let cfg = ParallelConfig::new(1, 8, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let plain =
            IterationSim::new(cluster.bandwidth(), &gpu, &gpt).simulate(cfg, &mapping, plan);
        let z1 = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_options(TrainingOptions::new().with_zero1(true))
            .simulate(cfg, &mapping, plan);
        assert!(z1.stage_dp_seconds[0] < plain.stage_dp_seconds[0]);
        assert!(z1.total_seconds <= plain.total_seconds);
    }

    #[test]
    fn interleaving_beats_plain_in_bubble_dominated_regimes() {
        let (cluster, gpt) = small_setup();
        // Deep pipeline, few microbatches: bubble-dominated.
        let cfg = ParallelConfig::new(4, 4, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(8, 1).unwrap();
        let gpu = cluster.gpu().clone();
        let plain = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        let inter = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_schedule(PipelineSchedule::Interleaved { chunks: 2 })
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        assert!(
            inter < plain,
            "interleaving should shrink the bubble: {inter:.3} vs {plain:.3}"
        );
    }

    #[test]
    fn interleaving_costs_communication_in_steady_state() {
        let (cluster, gpt) = small_setup();
        // Many microbatches: the bubble is amortized, the extra hops are not.
        let cfg = ParallelConfig::new(2, 8, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(128, 1).unwrap();
        let gpu = cluster.gpu().clone();
        let plain = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        let inter = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_schedule(PipelineSchedule::Interleaved { chunks: 4 })
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        // Total compute is identical; interleaving must not be wildly
        // better here, and typically pays a small comm premium.
        assert!(inter > plain * 0.95, "{inter:.3} vs {plain:.3}");
    }

    #[test]
    #[should_panic(expected = "pp | n_mb")]
    fn interleaving_rejects_indivisible_microbatches() {
        let (cluster, gpt) = small_setup();
        let cfg = ParallelConfig::new(4, 4, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(6, 1).unwrap();
        let gpu = cluster.gpu().clone();
        IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_schedule(PipelineSchedule::Interleaved { chunks: 2 })
            .simulate(cfg, &mapping, plan);
    }

    #[test]
    #[should_panic(expected = "different configuration")]
    fn mapping_config_mismatch_rejected() {
        let (cluster, gpt) = small_setup();
        let cfg_a = ParallelConfig::new(2, 4, 2);
        let cfg_b = ParallelConfig::new(4, 2, 2);
        let mapping = Mapping::identity(cfg_a, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        IterationSim::new(cluster.bandwidth(), &gpu, &gpt).simulate(cfg_b, &mapping, plan);
    }
}
