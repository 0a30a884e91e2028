//! Calibrating the memory estimator's soft margin from data.
//!
//! The paper "sets a soft margin to stably recommend runnable
//! configurations" but does not say how large. A fixed margin is a blunt
//! instrument: too small and OOM configurations slip through, too large
//! and the fastest runnable configurations are rejected. This module
//! chooses the margin *empirically*: hold out part of the profiled
//! samples, train on the rest, and set the margin to the
//! `confidence`-quantile of the estimator's relative underestimation on
//! the held-out set — i.e. the smallest margin such that, at the chosen
//! confidence, a configuration predicted to fit actually fits.

use crate::memory::dataset::MemorySample;
use crate::memory::estimator::{MemoryEstimator, MemoryEstimatorConfig};

/// Outcome of a margin calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// The chosen soft margin.
    pub margin: f64,
    /// Requested confidence (fraction of held-out samples whose
    /// underestimation the margin covers).
    pub confidence: f64,
    /// Held-out samples used.
    pub holdout_size: usize,
    /// Worst relative underestimation observed on the hold-out
    /// (`actual/predicted − 1`, 0 if the estimator never underestimates).
    pub worst_underestimation: f64,
}

/// Splits `samples` deterministically (every `k`-th sample held out),
/// trains on the rest, and returns an estimator whose margin covers the
/// `confidence`-quantile of held-out underestimation.
///
/// # Panics
///
/// Panics if `confidence` is not in `(0, 1]`, fewer than 20 samples are
/// given, or the holdout would be empty.
pub fn calibrate(
    samples: &[MemorySample],
    config: &MemoryEstimatorConfig,
    confidence: f64,
) -> (MemoryEstimator, CalibrationReport) {
    debug_assert!(
        confidence > 0.0 && confidence <= 1.0,
        "confidence must be in (0, 1]"
    );
    debug_assert!(samples.len() >= 20, "need at least 20 samples to calibrate");
    const HOLDOUT_EVERY: usize = 5;
    let mut train = Vec::new();
    let mut holdout = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        if i % HOLDOUT_EVERY == 0 {
            holdout.push(*s);
        } else {
            train.push(*s);
        }
    }
    let estimator = MemoryEstimator::train(&train, config);

    // Relative underestimation per held-out point: how much larger the
    // truth is than the prediction.
    let mut under: Vec<f64> = holdout
        .iter()
        .map(|s| {
            let predicted = estimator.predict_bytes(&s.features).max(1) as f64;
            (s.peak_bytes as f64 / predicted - 1.0).max(0.0)
        })
        .collect();
    under.sort_by(|a, b| a.total_cmp(b));
    let idx = ((under.len() as f64 * confidence).ceil() as usize).clamp(1, under.len()) - 1;
    let margin = under[idx];
    let worst = under.last().copied().unwrap_or(margin);

    let report = CalibrationReport {
        margin,
        confidence,
        holdout_size: holdout.len(),
        worst_underestimation: worst,
    };
    (estimator.with_soft_margin(margin), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::dataset::{collect_samples, SampleSpec};
    use pipette_model::GptConfig;
    use pipette_sim::MemorySim;

    fn corpus() -> Vec<MemorySample> {
        collect_samples(
            &SampleSpec {
                gpu_counts: vec![8, 16, 32],
                gpus_per_node: 8,
                models: vec![GptConfig::new(12, 1536, 16, 2048, 51200)],
                global_batches: vec![64, 128],
                max_micro: 4,
            },
            &MemorySim::new(5),
        )
    }

    fn quick_config() -> MemoryEstimatorConfig {
        MemoryEstimatorConfig {
            train: pipette_mlp::TrainConfig {
                iterations: 2_500,
                learning_rate: 3e-3,
                batch_size: 64,
                record_every: 500,
                seed: 0,
            },
            hidden: 48,
            depth: 3,
            soft_margin: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn calibrated_margin_covers_holdout_at_confidence() {
        let samples = corpus();
        let (estimator, report) = calibrate(&samples, &quick_config(), 0.95);
        assert!(report.holdout_size >= samples.len() / 6);
        assert!(report.margin >= 0.0);
        assert!(estimator.soft_margin() == report.margin);
        // Check the guarantee on the holdout itself: at least 95 % of
        // held-out samples satisfy predicted*(1+margin) >= actual.
        let covered = samples
            .iter()
            .step_by(5)
            .filter(|s| {
                estimator.predict_bytes(&s.features) as f64 * (1.0 + report.margin)
                    >= s.peak_bytes as f64
            })
            .count();
        let frac = covered as f64 / report.holdout_size as f64;
        assert!(frac >= 0.95, "coverage {frac}");
    }

    #[test]
    fn full_confidence_covers_the_worst_case() {
        let samples = corpus();
        let (_, report) = calibrate(&samples, &quick_config(), 1.0);
        assert!((report.margin - report.worst_underestimation).abs() < 1e-12);
    }

    #[test]
    fn higher_confidence_needs_no_smaller_margin() {
        let samples = corpus();
        let (_, r80) = calibrate(&samples, &quick_config(), 0.80);
        let (_, r99) = calibrate(&samples, &quick_config(), 0.99);
        assert!(r99.margin >= r80.margin);
    }

    #[test]
    fn calibrated_estimator_rejects_oom_on_holdout() {
        // Operationally: classify held-out samples against a 16 GiB limit.
        // With the calibrated margin, OOM configs accepted should be rare.
        let samples = corpus();
        let (estimator, _) = calibrate(&samples, &quick_config(), 0.97);
        let limit = 16u64 << 30;
        let mut false_accepts = 0;
        let mut total_oom = 0;
        for s in samples.iter().step_by(5) {
            let fits = s.peak_bytes <= limit;
            if !fits {
                total_oom += 1;
                if estimator.is_runnable(&s.features, limit) {
                    false_accepts += 1;
                }
            }
        }
        assert!(
            total_oom > 3,
            "corpus should contain OOM points: {total_oom}"
        );
        assert!(
            false_accepts * 10 <= total_oom,
            "{false_accepts}/{total_oom} OOM configs accepted"
        );
    }
}
