//! Fig. 7 — memory estimation accuracy of Pipette vs the analytic
//! baseline.
//!
//! The paper collects 215 data points of estimated vs actual peak memory
//! across model and parallel configurations: the analytic baseline \[20\]
//! underestimates badly (65.71 % / 59.49 % MAPE on mid-range / high-end),
//! Pipette's MLP reaches 7.39 % / 6.42 %. We regenerate the scatter by
//! training on ≤ 4-node profiles and evaluating on held-out
//! configurations, including full-cluster (extrapolated) ones.

use crate::context::ClusterKind;
use crate::util;
use pipette::memory::{collect_samples, AnalyticMemoryEstimator, SampleSpec};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::ClusterRun;

/// One scatter point: actual vs the two estimates.
#[derive(Debug, Clone, Copy)]
pub struct MemoryPoint {
    /// Actual peak memory, bytes.
    pub actual: u64,
    /// MLP estimate, bytes.
    pub learned: u64,
    /// Analytic-baseline estimate, bytes.
    pub analytic: u64,
    /// GPUs of the configuration (32–128; > 32 means extrapolation).
    pub n_gpus: usize,
}

/// Full experiment result for one cluster.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Cluster label.
    pub cluster: String,
    /// Scatter points.
    pub points: Vec<MemoryPoint>,
}

impl Fig7Result {
    /// MAPE of the learned estimator.
    pub fn learned_mape(&self) -> f64 {
        let (p, t): (Vec<f64>, Vec<f64>) = self
            .points
            .iter()
            .map(|x| (x.learned as f64, x.actual as f64))
            .unzip();
        util::mape(&p, &t)
    }

    /// MAPE of the analytic baseline.
    pub fn analytic_mape(&self) -> f64 {
        let (p, t): (Vec<f64>, Vec<f64>) = self
            .points
            .iter()
            .map(|x| (x.analytic as f64, x.actual as f64))
            .unzip();
        util::mape(&p, &t)
    }

    /// Fraction of points the analytic baseline underestimates.
    pub fn analytic_underestimates(&self) -> f64 {
        let n = self.points.iter().filter(|p| p.analytic < p.actual).count();
        n as f64 / self.points.len().max(1) as f64
    }
}

/// Trains the estimator on ≤ 4-node profiles and evaluates both
/// estimators on a sweep up to the full cluster (the paper's 215-point
/// protocol).
pub fn run(kind: ClusterKind, nodes: usize, seed: u64) -> Fig7Result {
    run_with_training(kind, nodes, seed, 25_000)
}

/// [`run`] with an explicit MLP training budget (tests use a smaller one).
pub fn run_with_training(
    kind: ClusterKind,
    nodes: usize,
    seed: u64,
    iterations: usize,
) -> Fig7Result {
    let cluster = kind.cluster(nodes);
    let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
    let truth = ClusterRun::new(&cluster, &gpt).memory_sim();
    let gpus_per_node = cluster.topology().gpus_per_node();

    // The paper profiles the models of interest on up to four nodes
    // (32 GPUs) and validates extrapolation up to 128 GPUs. The models of
    // interest are the weak-scaling family evaluated on this cluster.
    let family: Vec<GptConfig> = [32usize, 64, 96, 128]
        .iter()
        .map(|&g| kind.model_for_gpus(g))
        .collect();
    let train_spec = SampleSpec {
        gpu_counts: vec![8, 16, 24, 32],
        gpus_per_node,
        models: family.clone(),
        global_batches: vec![128, 256],
        max_micro: 8,
    };
    let train_samples = collect_samples(&train_spec, &truth);
    // Close to the paper's training protocol (5 layers x 200 hidden,
    // 50K iterations); slightly smaller so the experiment stays quick.
    let config = pipette::memory::MemoryEstimatorConfig {
        train: pipette_mlp::TrainConfig {
            iterations,
            learning_rate: 1e-3,
            batch_size: 128,
            record_every: 1_000,
            seed: 0,
        },
        hidden: 128,
        depth: 4,
        soft_margin: 0.04,
        seed,
    };
    let estimator = pipette::memory::MemoryEstimator::train(&train_samples, &config);

    // Evaluation sweep: all valid configurations at 32..=num_gpus GPUs
    // with the weak-scaled model of each size — GPU counts beyond 32
    // exercise pure extrapolation.
    let eval_counts: Vec<usize> = [4usize, 8, 12, 16]
        .iter()
        .map(|n| n * gpus_per_node)
        .filter(|g| *g <= cluster.topology().num_gpus())
        .collect();
    let eval_models: Vec<GptConfig> = eval_counts
        .iter()
        .map(|&g| kind.model_for_gpus(g))
        .collect();
    let spec = SampleSpec {
        gpu_counts: eval_counts,
        gpus_per_node,
        models: eval_models,
        global_batches: vec![256],
        max_micro: 8,
    };
    let samples = collect_samples(&spec, &truth);

    let analytic = AnalyticMemoryEstimator::new();
    let mut points = Vec::new();
    for s in &samples {
        let gpt_s = GptConfig::new(
            s.features[1] as usize,
            s.features[2] as usize,
            s.features[3] as usize,
            gpt.seq_len,
            gpt.vocab,
        );
        let cfg = ParallelConfig::new(
            s.features[5] as usize,
            s.features[4] as usize,
            s.features[6] as usize,
        );
        let plan = MicrobatchPlan::new(s.features[8] as u64, s.features[7] as u64)
            // pipette-lint: allow(D2) -- profiling samples come from our own sweep; a malformed one is a bug in the bench
            .expect("samples are valid");
        points.push(MemoryPoint {
            actual: s.peak_bytes,
            learned: estimator.predict_bytes(&s.features),
            analytic: analytic.estimate_bytes(&gpt_s, cfg, plan),
            n_gpus: s.features[0] as usize,
        });
        if points.len() >= 215 {
            break; // the paper's sample count
        }
    }
    Fig7Result {
        cluster: kind.label().to_owned(),
        points,
    }
}

/// Prints MAPEs against the paper's numbers.
pub fn print(r: &Fig7Result) {
    println!(
        "Fig. 7 — memory estimation accuracy ({} cluster, {} points)",
        r.cluster,
        r.points.len()
    );
    util::rule(78);
    let paper = if r.cluster == "mid-range" {
        ("65.71%", "7.39%")
    } else {
        ("59.49%", "6.42%")
    };
    println!("{:<26} {:>12} {:>10}", "estimator", "measured", "paper");
    println!(
        "{:<26} {:>11.2}% {:>10}",
        "analytic baseline [20]",
        r.analytic_mape() * 100.0,
        paper.0
    );
    println!(
        "{:<26} {:>11.2}% {:>10}",
        "Pipette MLP",
        r.learned_mape() * 100.0,
        paper.1
    );
    println!(
        "baseline underestimates {:.0}% of configurations (paper: systematic underestimation)",
        r.analytic_underestimates() * 100.0
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_estimator_beats_analytic_by_a_wide_margin() {
        let r = run_with_training(ClusterKind::MidRange, 8, 3, 6_000);
        assert!(r.points.len() >= 50);
        let learned = r.learned_mape();
        let analytic = r.analytic_mape();
        assert!(learned < 0.15, "learned MAPE {learned:.3}");
        assert!(
            analytic > 0.35,
            "analytic MAPE should be large: {analytic:.3}"
        );
        assert!(r.analytic_underestimates() > 0.9);
    }
}
