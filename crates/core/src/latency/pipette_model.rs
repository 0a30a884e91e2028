//! Pipette's latency estimator (Eqs. 3–4).
//!
//! ```text
//! T_Pipette   = T_bubble · (n_mb / pp) + T_straggler + T_dp
//! T_bubble    = Σ_s (C_s + T_tp_s)  +  (pp − 1) · T_pp      (≈ pp·(C+T_tp) for uniform stages)
//! T_straggler = (pp − 1) · max_s (C_s + T_tp_s)
//! ```
//!
//! The `(n_mb / pp)` factor on the bubble term is the paper's key insight:
//! under the memory-efficient 1F1B schedule, the first stage cannot run
//! more than `pp` microbatches ahead, so the pipeline re-synchronizes —
//! and pays the inter-stage communication round trip — `n_mb / pp` times
//! per iteration, not once. Communication terms use the *profiled*
//! bandwidth matrix; compute terms use profiled timings.

use crate::latency::terms::{LatencyBreakdown, LinkGather};
use pipette_cluster::{BandwidthMatrix, GpuId, ProfiledBandwidth};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{Mapping, PipelineSchedule, ProfiledCompute};

/// The slowest inter-stage pipeline link of the critical replica — the
/// "straggler link" a cluster operator would go inspect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLink {
    /// Sending GPU.
    pub from: GpuId,
    /// Receiving GPU.
    pub to: GpuId,
    /// Pipeline stage on the sending side (the hop is `stage → stage+1`).
    pub stage: usize,
    /// Round-trip transfer seconds over this link for one microbatch's
    /// activations + gradients.
    pub seconds: f64,
}

/// A latency estimate with its Eq. 3–6 decomposition and the identity of
/// the straggler link ([`PipetteLatencyModel::breakdown`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyExplanation {
    /// The term decomposition; `terms.total_seconds` is bit-identical to
    /// [`PipetteLatencyModel::estimate`] on the same inputs.
    pub terms: LatencyBreakdown,
    /// Slowest pipeline hop of the critical replica; `None` when `pp = 1`
    /// (no inter-stage links exist).
    pub slow_link: Option<SlowLink>,
}

/// Latency estimator bound to one profiled cluster and model.
#[derive(Debug, Clone, Copy)]
pub struct PipetteLatencyModel<'a> {
    profiled: &'a BandwidthMatrix,
    gpt: &'a GptConfig,
}

impl<'a> PipetteLatencyModel<'a> {
    /// Creates an estimator over a profiled bandwidth matrix.
    pub fn new(profiled: &'a ProfiledBandwidth, gpt: &'a GptConfig) -> Self {
        Self {
            profiled: profiled.matrix(),
            gpt,
        }
    }

    /// Creates an estimator over a raw matrix (for ablations that feed the
    /// ground-truth or nominal matrix instead of a measurement).
    pub fn from_matrix(matrix: &'a BandwidthMatrix, gpt: &'a GptConfig) -> Self {
        Self {
            profiled: matrix,
            gpt,
        }
    }

    /// The bandwidth matrix the estimator reads (for building an
    /// [`crate::mapping::IncrementalObjective`] over the same data).
    pub fn matrix(&self) -> &'a BandwidthMatrix {
        self.profiled
    }

    /// Reads every link of `mapping` that Eqs. 3–6 use, once: the
    /// gather each microbatch plan of the mapping's configuration is
    /// priced from ([`LinkGather::estimate`], [`LinkGather::breakdown`]),
    /// bit-identical to [`Self::estimate`] and [`Self::breakdown`] of
    /// that plan.
    pub fn gather(&self, mapping: &Mapping) -> LinkGather {
        self.gathered(mapping.config(), mapping, PipelineSchedule::OneFOneB)
    }

    /// Estimated iteration latency (seconds) of `cfg` under `mapping`.
    ///
    /// `compute` must have been profiled for the same `(cfg, micro_batch)`.
    ///
    /// # Panics
    ///
    /// Panics if `compute` profiles fewer stages than the mapping has.
    pub fn estimate(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        plan: MicrobatchPlan,
        compute: &ProfiledCompute,
    ) -> f64 {
        self.gathered(cfg, mapping, PipelineSchedule::OneFOneB)
            .estimate(plan, compute)
    }

    /// [`Self::estimate`] with the full Eq. 3–6 decomposition and the
    /// identity of the slowest pipeline link. Costs one extra pass over
    /// the critical replica's hops; the returned `terms.total_seconds` is
    /// the estimate itself.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::estimate`].
    pub fn breakdown(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        plan: MicrobatchPlan,
        compute: &ProfiledCompute,
    ) -> LatencyExplanation {
        self.gathered(cfg, mapping, PipelineSchedule::OneFOneB)
            .breakdown(plan, compute)
    }

    /// The links of a mapping built for `cfg` under `schedule`.
    fn gathered(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        schedule: PipelineSchedule,
    ) -> LinkGather {
        debug_assert_eq!(
            mapping.config(),
            cfg,
            "mapping built for another configuration"
        );
        LinkGather::new(self.profiled, self.gpt, schedule, mapping)
    }

    /// Latency estimate for the *interleaved* 1F1B schedule with `v`
    /// virtual stages per device — the same critical-path reduction at
    /// chunk granularity (an extension beyond the paper; the simulator
    /// runs it as [`pipette_sim::PipelineSchedule::Interleaved`]). Each
    /// microbatch crosses the `pp − 1` device hops `v` times and the
    /// wrap-around hop back to device 0 `v − 1` times, and device 0's
    /// deeper warm-up widens the hidden critical path's window to
    /// `(pp·(v + 1) − 1)/v` microbatches. `v = 1` is [`Self::estimate`],
    /// bit for bit. Accuracy against the simulator is ~±10 % at `v = 2`
    /// and degrades to ~±20 % for deeper interleaving (the chunk-level
    /// overlap is only approximated).
    ///
    /// `compute` must be profiled at `pp · v` stage granularity
    /// ([`pipette_sim::ComputeProfiler::profile_stages`]).
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` or `compute` profiles fewer than `pp · v`
    /// stages.
    pub fn estimate_interleaved(
        &self,
        cfg: ParallelConfig,
        mapping: &Mapping,
        plan: MicrobatchPlan,
        v: usize,
        compute: &ProfiledCompute,
    ) -> f64 {
        let schedule = match v {
            1 => PipelineSchedule::OneFOneB,
            chunks => PipelineSchedule::Interleaved { chunks },
        };
        self.gathered(cfg, mapping, schedule)
            .estimate(plan, compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;
    use pipette_sim::{ComputeProfiler, IterationSim};

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(21),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    fn estimate_and_truth(
        cluster: &pipette_cluster::Cluster,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        micro: u64,
        mini: u64,
    ) -> (f64, f64) {
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(mini, micro).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, gpt, cfg, plan, 4);
        let est = PipetteLatencyModel::new(&profiled, gpt).estimate(cfg, &mapping, plan, &compute);
        let truth = IterationSim::new(cluster.bandwidth(), &gpu, gpt)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        (est, truth)
    }

    #[test]
    fn estimate_tracks_simulation_within_reason() {
        let (cluster, gpt) = setup();
        for (cfg, micro) in [
            (ParallelConfig::new(2, 4, 2), 2),
            (ParallelConfig::new(4, 4, 1), 2),
            (ParallelConfig::new(2, 8, 1), 4),
            (ParallelConfig::new(1, 8, 2), 2),
        ] {
            let (est, truth) = estimate_and_truth(&cluster, &gpt, cfg, micro, 32);
            let err = (est - truth).abs() / truth;
            assert!(
                err < 0.25,
                "{cfg}: est {est:.3}s vs sim {truth:.3}s (err {err:.2})"
            );
        }
    }

    #[test]
    fn estimate_scales_with_microbatches() {
        let (cluster, gpt) = setup();
        let (e16, _) = estimate_and_truth(&cluster, &gpt, ParallelConfig::new(2, 4, 2), 2, 16);
        let (e64, _) = estimate_and_truth(&cluster, &gpt, ParallelConfig::new(2, 4, 2), 2, 64);
        assert!(e64 > 3.0 * e16);
    }

    #[test]
    fn interleaved_estimate_tracks_interleaved_simulation() {
        use pipette_sim::PipelineSchedule;
        let cluster = presets::mid_range(4).build(27);
        let gpt = GptConfig::new(16, 2048, 16, 2048, 51200);
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        for (cfg, v, micro) in [
            (ParallelConfig::new(4, 8, 1), 2usize, 1u64),
            (ParallelConfig::new(4, 4, 2), 2, 2),
            (ParallelConfig::new(2, 8, 2), 4, 1),
        ] {
            let mini = 64 / cfg.dp as u64;
            let plan = MicrobatchPlan::new(mini, micro).unwrap();
            let mapping = Mapping::identity(cfg, *cluster.topology());
            let compute = ComputeProfiler::default().profile_stages(
                cluster.bandwidth(),
                &gpu,
                &gpt,
                cfg.pp * v,
                cfg.tp,
                plan,
                9,
            );
            let est = model.estimate_interleaved(cfg, &mapping, plan, v, &compute);
            let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .with_schedule(PipelineSchedule::Interleaved { chunks: v })
                .simulate(cfg, &mapping, plan)
                .total_seconds;
            let err = (est - truth).abs() / truth;
            let tolerance = if v <= 2 { 0.12 } else { 0.20 };
            assert!(
                err < tolerance,
                "{cfg} v={v} micro={micro}: est {est:.3} vs sim {truth:.3} ({err:.3})"
            );
        }
    }

    #[test]
    fn interleaved_estimate_at_one_chunk_is_the_estimate() {
        // One chunk per device is plain 1F1B, whose window is pp
        // microbatches, not the interleaved formula's 2·pp − 1.
        let (cluster, gpt) = setup();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        for (cfg, micro, mini) in [
            (ParallelConfig::new(2, 4, 2), 2u64, 32u64),
            (ParallelConfig::new(4, 4, 1), 1, 64),
            (ParallelConfig::new(1, 8, 2), 4, 16),
        ] {
            let plan = MicrobatchPlan::new(mini, micro).unwrap();
            let compute = ComputeProfiler::default().profile(
                cluster.bandwidth(),
                cluster.gpu(),
                &gpt,
                cfg,
                plan,
                4,
            );
            let identity = Mapping::identity(cfg, *cluster.topology());
            let mut reversed = identity.clone();
            reversed.as_mut_slice().reverse();
            for mapping in [identity, reversed] {
                assert_eq!(
                    model
                        .estimate_interleaved(cfg, &mapping, plan, 1, &compute)
                        .to_bits(),
                    model.estimate(cfg, &mapping, plan, &compute).to_bits(),
                    "{cfg}"
                );
            }
        }
    }

    #[test]
    fn breakdown_matches_estimate_and_names_slow_link() {
        let (cluster, gpt) = setup();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        for (cfg, micro) in [
            (ParallelConfig::new(2, 4, 2), 2u64),
            (ParallelConfig::new(4, 4, 1), 2),
            (ParallelConfig::new(1, 8, 2), 4),
        ] {
            let mapping = Mapping::identity(cfg, *cluster.topology());
            let plan = MicrobatchPlan::new(32, micro).unwrap();
            let compute =
                ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 4);
            let est = model.estimate(cfg, &mapping, plan, &compute);
            let ex = model.breakdown(cfg, &mapping, plan, &compute);
            assert_eq!(
                est.to_bits(),
                ex.terms.total_seconds.to_bits(),
                "{cfg}: breakdown total diverged"
            );
            if cfg.pp >= 2 {
                let link = ex.slow_link.expect("pp >= 2 has pipeline links");
                assert_ne!(link.from, link.to);
                assert!(link.seconds > 0.0);
                assert!(link.stage + 1 < cfg.pp);
            } else {
                assert_eq!(ex.slow_link, None);
            }
        }
    }

    #[test]
    fn mapping_sensitivity_matches_direction() {
        // The estimator must prefer the same mapping the simulator prefers,
        // otherwise SA would optimize the wrong thing.
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 8, 1);
        let plan = MicrobatchPlan::new(64, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 4);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let sim = IterationSim::new(cluster.bandwidth(), &gpu, &gpt);

        let identity = Mapping::identity(cfg, *cluster.topology());
        let mut rev_assign: Vec<_> = cluster.topology().gpus().collect();
        rev_assign.reverse();
        // Keep tensor ranks in ascending order within each node.
        for chunk in rev_assign.chunks_mut(8) {
            chunk.reverse();
        }
        let reversed = Mapping::from_assignment(cfg, rev_assign);

        let e_id = model.estimate(cfg, &identity, plan, &compute);
        let e_rev = model.estimate(cfg, &reversed, plan, &compute);
        let s_id = sim.simulate(cfg, &identity, plan).total_seconds;
        let s_rev = sim.simulate(cfg, &reversed, plan).total_seconds;
        // Same preference direction (or both essentially equal).
        if (s_id - s_rev).abs() / s_id > 0.01 {
            assert_eq!(
                e_id < e_rev,
                s_id < s_rev,
                "estimator disagrees with simulator"
            );
        }
    }
}
