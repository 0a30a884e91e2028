//! Compute-time extrapolation (§V, "Optionally, we provide an extrapolated
//! latency estimation model for other cluster sizes that have not been
//! profiled, similar to our memory estimator").
//!
//! Profiling `C` for every `(configuration, microbatch)` pair costs one
//! short run each; on a shared cluster with long queues that adds up. This
//! module fits a small linear model of per-microbatch stage time from a
//! handful of profiled configurations and predicts `C` for the rest:
//!
//! ```text
//! stage_time ≈ α · (layer work) + β · (head work) + γ · layers + δ
//! ```
//!
//! where *layer work* and *head work* are the analytic FLOP terms divided
//! by the tensor ways — i.e. the model learns the GPU's effective
//! throughput and per-layer overhead from data rather than assuming specs.

use pipette_model::{flops, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::ProfiledCompute;

/// One profiled observation used to fit the extrapolator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeObservation {
    /// Work terms of one stage: `[layer_flops/tp, head_flops/tp, layers, 1]`.
    pub regressors: [f64; 4],
    /// Observed forward time of that stage (seconds).
    pub fwd_seconds: f64,
    /// Observed backward time of that stage (seconds).
    pub bwd_seconds: f64,
}

/// Least-squares-fitted compute extrapolator.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeExtrapolator {
    fwd_coeffs: [f64; 4],
    bwd_coeffs: [f64; 4],
    observations: usize,
}

fn regressors(gpt: &GptConfig, cfg: ParallelConfig, stage: usize, micro: u64) -> [f64; 4] {
    let tokens = micro * gpt.seq_len as u64;
    let layers = gpt.layers_of_stage(cfg.pp, stage) as f64;
    let layer_flops = layers * flops::layer_fwd_flops(gpt, tokens) / cfg.tp as f64;
    let head_flops = if stage == cfg.pp - 1 {
        flops::head_fwd_flops(gpt, tokens) / cfg.tp as f64
    } else {
        0.0
    };
    // Scale FLOP terms to O(1) so the normal equations stay conditioned.
    [layer_flops / 1e12, head_flops / 1e12, layers, 1.0]
}

/// Solves the 4×4 normal equations `(XᵀX) w = Xᵀy` by Gaussian elimination
/// with partial pivoting, ridge-regularized for stability.
fn least_squares(rows: &[[f64; 4]], y: &[f64]) -> [f64; 4] {
    let mut ata = [[0.0f64; 4]; 4];
    let mut aty = [0.0f64; 4];
    for (r, &target) in rows.iter().zip(y) {
        for i in 0..4 {
            for j in 0..4 {
                ata[i][j] += r[i] * r[j];
            }
            aty[i] += r[i] * target;
        }
    }
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-9; // ridge term
    }
    // Gaussian elimination.
    let mut m = [[0.0f64; 5]; 4];
    for i in 0..4 {
        m[i][..4].copy_from_slice(&ata[i]);
        m[i][4] = aty[i];
    }
    for col in 0..4 {
        let pivot = (col..4)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .unwrap_or(col);
        m.swap(col, pivot);
        let p = m[col][col];
        if p.abs() < 1e-30 {
            continue;
        }
        for row in (col + 1)..4 {
            let f = m[row][col] / p;
            let pivot_row = m[col];
            for (cell, pivot_cell) in m[row][col..5].iter_mut().zip(&pivot_row[col..5]) {
                *cell -= f * pivot_cell;
            }
        }
    }
    let mut w = [0.0f64; 4];
    for i in (0..4).rev() {
        let mut acc = m[i][4];
        for j in (i + 1)..4 {
            acc -= m[i][j] * w[j];
        }
        w[i] = if m[i][i].abs() < 1e-30 {
            0.0
        } else {
            acc / m[i][i]
        };
    }
    w
}

impl ComputeExtrapolator {
    /// Builds observations from one profiled configuration.
    pub fn observations_from(
        gpt: &GptConfig,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
        compute: &ProfiledCompute,
    ) -> Vec<ComputeObservation> {
        (0..cfg.pp)
            .map(|s| ComputeObservation {
                regressors: regressors(gpt, cfg, s, plan.micro_batch),
                fwd_seconds: compute.fwd[s],
                bwd_seconds: compute.bwd[s],
            })
            .collect()
    }

    /// Fits the extrapolator on profiled observations.
    ///
    /// # Panics
    ///
    /// Panics if fewer than four observations are provided (the model has
    /// four coefficients).
    pub fn fit(observations: &[ComputeObservation]) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` contract: fewer observations than coefficients is a caller bug
        assert!(
            observations.len() >= 4,
            "need at least 4 observations to fit 4 coefficients"
        );
        let rows: Vec<[f64; 4]> = observations.iter().map(|o| o.regressors).collect();
        let fwd: Vec<f64> = observations.iter().map(|o| o.fwd_seconds).collect();
        let bwd: Vec<f64> = observations.iter().map(|o| o.bwd_seconds).collect();
        Self {
            fwd_coeffs: least_squares(&rows, &fwd),
            bwd_coeffs: least_squares(&rows, &bwd),
            observations: observations.len(),
        }
    }

    /// Number of observations the model was fitted on.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Predicted forward time of one stage (seconds).
    pub fn predict_fwd(
        &self,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        stage: usize,
        micro: u64,
    ) -> f64 {
        dot(&self.fwd_coeffs, &regressors(gpt, cfg, stage, micro)).max(0.0)
    }

    /// Predicted backward time of one stage (seconds).
    pub fn predict_bwd(
        &self,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        stage: usize,
        micro: u64,
    ) -> f64 {
        dot(&self.bwd_coeffs, &regressors(gpt, cfg, stage, micro)).max(0.0)
    }

    /// Predicts a full [`ProfiledCompute`] substitute for an unprofiled
    /// configuration. The tensor-parallel communication terms are left at
    /// zero — the latency model recomputes them from the profiled
    /// bandwidth matrix, which *is* available for every configuration.
    pub fn predict(
        &self,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
    ) -> ProfiledCompute {
        let fwd: Vec<f64> = (0..cfg.pp)
            .map(|s| self.predict_fwd(gpt, cfg, s, plan.micro_batch))
            .collect();
        let bwd: Vec<f64> = (0..cfg.pp)
            .map(|s| self.predict_bwd(gpt, cfg, s, plan.micro_batch))
            .collect();
        ProfiledCompute {
            fwd,
            bwd,
            tp_comm: vec![0.0; cfg.pp],
        }
    }
}

fn dot(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;
    use pipette_sim::ComputeProfiler;

    fn fit_from_small_configs() -> (pipette_cluster::Cluster, GptConfig, ComputeExtrapolator) {
        let cluster = presets::mid_range(4).build(7);
        let gpt = GptConfig::gpt_1_1b();
        let gpu = cluster.gpu().clone();
        let profiler = ComputeProfiler::new(0.005);
        let mut obs = Vec::new();
        for (cfg, micro) in [
            (ParallelConfig::new(2, 8, 2), 1u64),
            (ParallelConfig::new(4, 8, 1), 2),
            (ParallelConfig::new(2, 4, 4), 1),
            (ParallelConfig::new(4, 4, 2), 4),
            (ParallelConfig::new(8, 4, 1), 2),
        ] {
            let plan = MicrobatchPlan::new(32, micro).unwrap();
            let compute = profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
            obs.extend(ComputeExtrapolator::observations_from(
                &gpt, cfg, plan, &compute,
            ));
        }
        let model = ComputeExtrapolator::fit(&obs);
        (cluster, gpt, model)
    }

    #[test]
    fn extrapolates_unprofiled_configurations_accurately() {
        let (cluster, gpt, model) = fit_from_small_configs();
        let gpu = cluster.gpu().clone();
        let exact = ComputeProfiler::new(0.0);
        // Configurations not in the training set.
        for (cfg, micro) in [
            (ParallelConfig::new(8, 2, 2), 1u64),
            (ParallelConfig::new(2, 2, 8), 2),
            (ParallelConfig::new(4, 2, 4), 8),
        ] {
            let plan = MicrobatchPlan::new(32, micro).unwrap();
            let truth = exact.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1);
            for s in 0..cfg.pp {
                let pred = model.predict_fwd(&gpt, cfg, s, micro);
                let err = (pred - truth.fwd[s]).abs() / truth.fwd[s];
                assert!(
                    err < 0.08,
                    "{cfg} stage {s} micro {micro}: pred {pred} vs {} ({err:.3})",
                    truth.fwd[s]
                );
            }
        }
    }

    #[test]
    fn backward_predictions_are_twice_forward() {
        let (_, gpt, model) = fit_from_small_configs();
        let cfg = ParallelConfig::new(4, 4, 2);
        let f = model.predict_fwd(&gpt, cfg, 1, 2);
        let b = model.predict_bwd(&gpt, cfg, 1, 2);
        let ratio = b / f;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn predicted_compute_feeds_the_latency_model() {
        use crate::latency::PipetteLatencyModel;
        use pipette_sim::{IterationSim, Mapping};
        let (cluster, gpt, model) = fit_from_small_configs();
        let cfg = ParallelConfig::new(2, 8, 2);
        let plan = MicrobatchPlan::new(64, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let compute = model.predict(&gpt, cfg, plan);
        let est = PipetteLatencyModel::new(&profiled, &gpt).estimate(cfg, &mapping, plan, &compute);
        let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        let err = (est - truth).abs() / truth;
        assert!(
            err < 0.10,
            "extrapolated estimate {est:.3} vs truth {truth:.3} ({err:.3})"
        );
    }

    #[test]
    fn head_term_is_learned() {
        // The fitted head coefficient must be positive and of the same
        // order as the layer coefficient (both are seconds per TFLOP).
        let (_, gpt, model) = fit_from_small_configs();
        let cfg = ParallelConfig::new(4, 8, 2);
        let last = model.predict_fwd(&gpt, cfg, 3, 1);
        let mid = model.predict_fwd(&gpt, cfg, 1, 1);
        assert!(last > mid, "last stage carries the head: {last} vs {mid}");
    }

    #[test]
    #[should_panic(expected = "at least 4 observations")]
    fn too_few_observations_rejected() {
        ComputeExtrapolator::fit(&[ComputeObservation {
            regressors: [1.0, 0.0, 1.0, 1.0],
            fwd_seconds: 0.1,
            bwd_seconds: 0.2,
        }]);
    }
}
