//! Pipette's learned memory estimator (§VI, Eq. 7).
//!
//! An MLP maps the ten configuration features to peak memory. Rather than
//! regressing raw bytes, the network predicts the *log-residual over the
//! analytic prior* — `ln(actual / analytic)` — i.e. the multiplicative
//! correction for everything the naive model misses (1F1B in-flight
//! activations, framework and communicator overheads, fragmentation).
//! The correction is a smooth, bounded function of the features, which is
//! what lets a network trained on ≤ 4-node profiles extrapolate to the
//! full cluster: Eq. 7's raw features are log-collinear
//! (`dp = n_gpus / (pp·tp)`), so direct regression extrapolates along an
//! unidentifiable direction, while the residual barely depends on the
//! collinear axes at all. A *soft margin* inflates predictions before
//! comparing against the GPU capacity so that borderline configurations
//! are rejected — the paper's mechanism for "stably recommending runnable
//! configurations".

use crate::memory::analytic::AnalyticMemoryEstimator;
use crate::memory::dataset::MemorySample;
use pipette_mlp::{Matrix, Mlp, StandardScaler, TrainConfig};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};

/// Training/behaviour knobs for the estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryEstimatorConfig {
    /// MLP training protocol.
    pub train: TrainConfig,
    /// Hidden width of the MLP (the paper uses five layers × 200).
    pub hidden: usize,
    /// Number of hidden layers.
    pub depth: usize,
    /// Safety margin applied to predictions in [`MemoryEstimator::is_runnable`].
    pub soft_margin: f64,
    /// Weight-init / shuffling seed.
    pub seed: u64,
}

impl Default for MemoryEstimatorConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig {
                iterations: 12_000,
                learning_rate: 1.5e-3,
                batch_size: 128,
                record_every: 500,
                seed: 0,
            },
            hidden: 96,
            depth: 3,
            soft_margin: 0.08,
            seed: 0,
        }
    }
}

/// How the estimator's MLP training went — kept on the trained estimator
/// (and in its cache entries) so a warm run can still report the loss
/// curve of the training that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSummary {
    /// Profiled samples in the training corpus.
    pub samples: usize,
    /// Adam iterations taken.
    pub iterations: usize,
    /// Cadence of [`Self::loss_curve`] (one point per `record_every`
    /// iterations).
    pub record_every: usize,
    /// Minibatch loss of the final step.
    pub final_loss: f64,
    /// Sampled loss curve.
    pub loss_curve: Vec<f64>,
}

/// The trained estimator.
///
/// ```
/// use pipette::memory::{collect_samples, MemoryEstimator, MemoryEstimatorConfig, SampleSpec};
/// use pipette_model::GptConfig;
/// use pipette_sim::MemorySim;
///
/// let spec = SampleSpec {
///     gpu_counts: vec![8],
///     gpus_per_node: 8,
///     models: vec![GptConfig::new(8, 1024, 16, 2048, 51200)],
///     global_batches: vec![32],
///     max_micro: 2,
/// };
/// let samples = collect_samples(&spec, &MemorySim::new(1));
/// let mut config = MemoryEstimatorConfig::default();
/// config.train.iterations = 400; // keep the example quick
/// let estimator = MemoryEstimator::train(&samples, &config);
/// let predicted = estimator.predict_bytes(&samples[0].features);
/// assert!(predicted > 1 << 30); // more than a GiB — overheads included
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryEstimator {
    mlp: Mlp,
    x_scaler: StandardScaler,
    y_mean: f64,
    y_std: f64,
    soft_margin: f64,
    /// Sequence length of the profiled models (needed to rebuild the
    /// analytic prior at prediction time; uniform across the paper's
    /// experiments).
    seq_len: usize,
    /// Vocabulary size of the profiled models.
    vocab: usize,
    /// Telemetry of the training run that produced this estimator.
    train_summary: TrainSummary,
}

fn log_features(features: &[f64; 10]) -> Vec<f64> {
    features.iter().map(|&f| f.max(1.0).ln()).collect()
}

/// The estimator's training targets: each sample's log-residual over the
/// analytic prior, `ln(actual / analytic)`, with their mean and standard
/// deviation. Computed once per corpus, both to judge it
/// ([`MemoryEstimator::train_checked`]) and to standardize what the
/// network fits.
struct Residuals {
    log: Vec<f64>,
    mean: f64,
    std: f64,
}

impl Residuals {
    /// The residuals of a non-empty corpus, whose samples share the first
    /// one's sequence length and vocabulary.
    fn of(samples: &[MemorySample]) -> Self {
        let (seq_len, vocab) = (samples[0].seq_len, samples[0].vocab);
        let log: Vec<f64> = samples
            .iter()
            .map(|s| {
                (s.peak_bytes as f64 / analytic_prior(&s.features, seq_len, vocab))
                    .max(1e-6)
                    .ln()
            })
            .collect();
        let n = log.len() as f64;
        let mean = log.iter().sum::<f64>() / n;
        let var = log.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Self {
            log,
            mean,
            std: var.sqrt(),
        }
    }
}

/// Why memory-estimator training cannot produce a trustworthy network.
///
/// Under cluster faults the profiling sweep can lose most of its samples
/// (crashed profiling jobs) or return a collapsed target distribution
/// (every surviving sample identical). Training an MLP on such a corpus
/// silently yields garbage; [`MemoryEstimator::train_checked`] detects
/// both so the caller can fall back to the analytic model instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorDegeneracy {
    /// The corpus is too small to fit the ten-feature MLP.
    TooFewSamples {
        /// Samples that survived.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The log-residual targets have (near-)zero variance; the network
    /// would learn a constant and extrapolate it everywhere.
    CollapsedTargets {
        /// Standard deviation of the residual targets.
        y_std: f64,
    },
}

impl std::fmt::Display for EstimatorDegeneracy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimatorDegeneracy::TooFewSamples { got, need } => {
                write!(f, "only {got} profiled samples survived (need {need})")
            }
            EstimatorDegeneracy::CollapsedTargets { y_std } => {
                write!(f, "memory targets collapsed (residual std {y_std:e})")
            }
        }
    }
}

impl std::error::Error for EstimatorDegeneracy {}

/// The analytic prior for a feature vector: rebuild the model and
/// configuration Eq. 7's features describe and run the baseline \[20\]
/// estimate on them. Also the fallback estimate when MLP training
/// degenerates (see [`EstimatorDegeneracy`]).
pub(crate) fn analytic_prior(features: &[f64; 10], seq_len: usize, vocab: usize) -> f64 {
    let gpt = GptConfig::new(
        features[1] as usize,
        features[2] as usize,
        features[3] as usize,
        seq_len,
        vocab,
    );
    let cfg = ParallelConfig::new(
        features[5] as usize,
        features[4] as usize,
        features[6] as usize,
    );
    let Ok(plan) = MicrobatchPlan::new(features[8] as u64, features[7] as u64) else {
        // Feature vectors come from features_for, whose plans are valid
        // by construction; a degenerate vector degrades to the 1-byte floor.
        return 1.0;
    };
    AnalyticMemoryEstimator::new()
        .estimate_bytes(&gpt, cfg, plan)
        .max(1) as f64
}

impl MemoryEstimator {
    /// Trains the estimator on profiled samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[MemorySample], config: &MemoryEstimatorConfig) -> Self {
        Self::train_with_threads(samples, config, 1)
    }

    /// [`Self::train`] with the MLP's forward matmuls split over up to
    /// `threads` row blocks. Bit-identical at any thread count (rows are
    /// independent; see `pipette_mlp::Mlp::fit_with_threads`).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train_with_threads(
        samples: &[MemorySample],
        config: &MemoryEstimatorConfig,
        threads: usize,
    ) -> Self {
        debug_assert!(!samples.is_empty(), "need at least one training sample");
        Self::fit(samples, Residuals::of(samples), config, threads)
    }

    /// Fallible variant of [`Self::train_with_threads`] for corpora that
    /// may have degenerated under cluster faults: checks the sample count
    /// and target variance *before* spending the training iterations.
    ///
    /// On a healthy corpus the returned estimator is bit-identical to
    /// [`Self::train_with_threads`].
    ///
    /// # Errors
    ///
    /// [`EstimatorDegeneracy`] when the corpus cannot support training;
    /// the caller should fall back to the analytic memory model.
    ///
    /// # Panics
    ///
    /// Panics if non-empty `samples` mix sequence lengths or vocabularies
    /// (a profiling-pipeline bug, not a runtime fault).
    pub fn train_checked(
        samples: &[MemorySample],
        config: &MemoryEstimatorConfig,
        threads: usize,
    ) -> Result<Self, EstimatorDegeneracy> {
        const MIN_SAMPLES: usize = 8;
        if samples.len() < MIN_SAMPLES {
            return Err(EstimatorDegeneracy::TooFewSamples {
                got: samples.len(),
                need: MIN_SAMPLES,
            });
        }
        let residuals = Residuals::of(samples);
        if !(residuals.std.is_finite() && residuals.std >= 1e-12) {
            return Err(EstimatorDegeneracy::CollapsedTargets {
                y_std: residuals.std,
            });
        }
        Ok(Self::fit(samples, residuals, config, threads))
    }

    /// Fits the network to the standardized `residuals` of `samples`.
    fn fit(
        samples: &[MemorySample],
        residuals: Residuals,
        config: &MemoryEstimatorConfig,
        threads: usize,
    ) -> Self {
        let (seq_len, vocab) = (samples[0].seq_len, samples[0].vocab);
        debug_assert!(
            samples
                .iter()
                .all(|s| s.seq_len == seq_len && s.vocab == vocab),
            "profiled samples must share sequence length and vocabulary"
        );
        let rows: Vec<Vec<f64>> = samples.iter().map(|s| log_features(&s.features)).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x_raw = Matrix::from_rows(&refs);
        let x_scaler = StandardScaler::fit(&x_raw);
        let x = x_scaler.transform(&x_raw);

        let y_mean = residuals.mean;
        let y_std = residuals.std.max(1e-9);
        let y_data: Vec<f64> = residuals.log.iter().map(|v| (v - y_mean) / y_std).collect();
        let y = Matrix::from_vec(y_data.len(), 1, y_data);

        let mut widths = vec![10usize];
        widths.extend(std::iter::repeat_n(config.hidden, config.depth));
        widths.push(1);
        let mut mlp = Mlp::new(&widths, config.seed);
        let report = mlp.fit_with_threads(&x, &y, &config.train, threads);

        Self {
            mlp,
            x_scaler,
            y_mean,
            y_std,
            soft_margin: config.soft_margin,
            seq_len,
            vocab,
            train_summary: TrainSummary {
                samples: samples.len(),
                iterations: report.iterations,
                record_every: config.train.record_every,
                final_loss: report.final_loss,
                loss_curve: report.loss_curve,
            },
        }
    }

    /// Telemetry of the training run that produced this estimator (also
    /// available on cache-loaded instances).
    pub fn train_summary(&self) -> &TrainSummary {
        &self.train_summary
    }

    /// The soft margin in use.
    pub fn soft_margin(&self) -> f64 {
        self.soft_margin
    }

    /// Every field of the estimator, for the binary cache-index writer
    /// (`memory::index`). Order: network, feature scaler,
    /// `(y_mean, y_std, soft_margin)`, `(seq_len, vocab)`, train summary.
    #[allow(clippy::type_complexity)]
    pub(crate) fn index_parts(
        &self,
    ) -> (
        &Mlp,
        &StandardScaler,
        (f64, f64, f64),
        (usize, usize),
        &TrainSummary,
    ) {
        (
            &self.mlp,
            &self.x_scaler,
            (self.y_mean, self.y_std, self.soft_margin),
            (self.seq_len, self.vocab),
            &self.train_summary,
        )
    }

    /// Reassembles an estimator from the parts [`Self::index_parts`]
    /// persists. Inverse of `index_parts` by construction.
    pub(crate) fn from_index_parts(
        mlp: Mlp,
        x_scaler: StandardScaler,
        (y_mean, y_std, soft_margin): (f64, f64, f64),
        (seq_len, vocab): (usize, usize),
        train_summary: TrainSummary,
    ) -> Self {
        Self {
            mlp,
            x_scaler,
            y_mean,
            y_std,
            soft_margin,
            seq_len,
            vocab,
            train_summary,
        }
    }

    /// Overrides the soft margin (for the ablation sweep).
    pub fn with_soft_margin(mut self, margin: f64) -> Self {
        self.soft_margin = margin;
        self
    }

    /// Predicted peak memory in bytes for Eq. 7's feature vector: the
    /// batched prediction of one row.
    pub fn predict_bytes(&self, features: &[f64; 10]) -> u64 {
        self.predict_bytes_batch(std::slice::from_ref(features), 1)[0]
    }

    /// Predicted peak memory for a whole candidate set in **one** forward
    /// pass through the MLP (the batched screen Algorithm 1 uses).
    ///
    /// Every network layer is row-independent (matmul with its fused
    /// bias, elementwise ReLU), so stacking the candidates into one
    /// matrix changes nothing about the arithmetic of any single row: the
    /// result is bit-identical to predicting each candidate alone
    /// (property-tested in `tests/estimator_cache.rs`), at any `threads`.
    pub fn predict_bytes_batch(&self, features: &[[f64; 10]], threads: usize) -> Vec<u64> {
        if features.is_empty() {
            return Vec::new();
        }
        let rows: Vec<Vec<f64>> = features.iter().map(log_features).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = self.x_scaler.transform(&Matrix::from_rows(&refs));
        let out = self.mlp.predict_with_threads(&x, threads);
        features
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let correction = (out.get(i, 0) * self.y_std + self.y_mean).exp();
                (analytic_prior(f, self.seq_len, self.vocab) * correction.max(0.0)) as u64
            })
            .collect()
    }

    /// Whether a configuration is considered runnable under `limit_bytes`
    /// per GPU, applying the soft margin: the batched screen of one row.
    pub fn is_runnable(&self, features: &[f64; 10], limit_bytes: u64) -> bool {
        self.is_runnable_batch(std::slice::from_ref(features), limit_bytes, 1)[0]
    }

    /// The memory screen: one forward pass over all candidates, each
    /// accepted when its prediction inflated by the soft margin fits
    /// `limit_bytes` per GPU. Bit-identical to screening one row at a
    /// time.
    pub fn is_runnable_batch(
        &self,
        features: &[[f64; 10]],
        limit_bytes: u64,
        threads: usize,
    ) -> Vec<bool> {
        self.predict_bytes_batch(features, threads)
            .into_iter()
            .map(|p| p as f64 * (1.0 + self.soft_margin) <= limit_bytes as f64)
            .collect()
    }

    /// Mean absolute percentage error over a sample set.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn mape(&self, samples: &[MemorySample]) -> f64 {
        debug_assert!(!samples.is_empty(), "need samples to evaluate");
        let features: Vec<[f64; 10]> = samples.iter().map(|s| s.features).collect();
        let sum: f64 = self
            .predict_bytes_batch(&features, 1)
            .into_iter()
            .zip(samples)
            .map(|(p, s)| (p as f64 - s.peak_bytes as f64).abs() / s.peak_bytes as f64)
            .sum();
        sum / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::dataset::{collect_samples, SampleSpec};
    use pipette_model::GptConfig;
    use pipette_sim::MemorySim;

    fn corpus() -> Vec<MemorySample> {
        let spec = SampleSpec {
            gpu_counts: vec![8, 16, 32],
            gpus_per_node: 8,
            models: vec![
                GptConfig::new(8, 1024, 16, 2048, 51200),
                GptConfig::new(16, 1536, 16, 2048, 51200),
            ],
            global_batches: vec![64],
            max_micro: 4,
        };
        collect_samples(&spec, &MemorySim::new(1))
    }

    fn quick_config() -> MemoryEstimatorConfig {
        MemoryEstimatorConfig {
            train: TrainConfig {
                iterations: 2_500,
                learning_rate: 3e-3,
                batch_size: 64,
                record_every: 500,
                seed: 0,
            },
            hidden: 48,
            depth: 3,
            soft_margin: 0.08,
            seed: 1,
        }
    }

    #[test]
    fn learns_the_training_distribution() {
        let samples = corpus();
        let est = MemoryEstimator::train(&samples, &quick_config());
        let mape = est.mape(&samples);
        assert!(mape < 0.15, "training MAPE {mape:.3} too high");
    }

    #[test]
    fn beats_the_analytic_baseline() {
        use crate::memory::AnalyticMemoryEstimator;
        use pipette_model::{MicrobatchPlan, ParallelConfig};
        let samples = corpus();
        let est = MemoryEstimator::train(&samples, &quick_config());
        let analytic = AnalyticMemoryEstimator::new();
        // Evaluate both on the corpus (the analytic baseline needs the
        // structured config back, so recompute from features).
        let mut an_err = 0.0;
        for s in &samples {
            let gpt = GptConfig::new(
                s.features[1] as usize,
                s.features[2] as usize,
                s.features[3] as usize,
                2048,
                51200,
            );
            let cfg = ParallelConfig::new(
                s.features[5] as usize,
                s.features[4] as usize,
                s.features[6] as usize,
            );
            let plan = MicrobatchPlan::new(s.features[8] as u64, s.features[7] as u64).unwrap();
            let a = analytic.estimate_bytes(&gpt, cfg, plan) as f64;
            an_err += (a - s.peak_bytes as f64).abs() / s.peak_bytes as f64;
        }
        an_err /= samples.len() as f64;
        let learned = est.mape(&samples);
        assert!(
            learned < an_err / 2.0,
            "learned MAPE {learned:.3} should be far below analytic {an_err:.3}"
        );
    }

    #[test]
    fn soft_margin_rejects_borderline() {
        let samples = corpus();
        let est = MemoryEstimator::train(&samples, &quick_config());
        let s = &samples[0];
        let p = est.predict_bytes(&s.features);
        // Limit exactly at the prediction: rejected by the margin.
        assert!(!est.is_runnable(&s.features, p));
        // Generous limit: accepted.
        assert!(est.is_runnable(&s.features, p * 2));
        // Zero-margin variant accepts the exact limit.
        let loose = est.clone().with_soft_margin(0.0);
        assert!(loose.is_runnable(&s.features, p + (p / 50)));
    }

    #[test]
    fn train_summary_describes_the_run() {
        let samples = corpus();
        let config = quick_config();
        let est = MemoryEstimator::train(&samples, &config);
        let s = est.train_summary();
        assert_eq!(s.samples, samples.len());
        assert_eq!(s.iterations, config.train.iterations);
        assert_eq!(s.record_every, config.train.record_every);
        assert_eq!(
            s.loss_curve.len(),
            config.train.iterations.div_ceil(config.train.record_every)
        );
        assert!(s.final_loss.is_finite());
        // Training converges: the curve ends well below where it starts.
        assert!(s.loss_curve.last().unwrap() < s.loss_curve.first().unwrap());
    }

    #[test]
    fn train_checked_matches_plain_training_on_healthy_corpus() {
        let samples = corpus();
        let checked = MemoryEstimator::train_checked(&samples, &quick_config(), 1)
            .expect("healthy corpus trains");
        let plain = MemoryEstimator::train(&samples, &quick_config());
        assert_eq!(checked, plain);
    }

    #[test]
    fn train_checked_rejects_degenerate_corpora() {
        let samples = corpus();
        // Too few samples: a corpus decimated by failed profiling jobs.
        let few = &samples[..3];
        assert!(matches!(
            MemoryEstimator::train_checked(few, &quick_config(), 1),
            Err(EstimatorDegeneracy::TooFewSamples { got: 3, need: 8 })
        ));
        // Collapsed targets: every sample reports the same residual.
        let collapsed: Vec<MemorySample> = (0..12).map(|_| samples[0]).collect();
        assert!(matches!(
            MemoryEstimator::train_checked(&collapsed, &quick_config(), 1),
            Err(EstimatorDegeneracy::CollapsedTargets { .. })
        ));
        // The errors render a reason.
        let e = EstimatorDegeneracy::TooFewSamples { got: 3, need: 8 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn prediction_is_deterministic() {
        let samples = corpus();
        let a = MemoryEstimator::train(&samples, &quick_config());
        let b = MemoryEstimator::train(&samples, &quick_config());
        assert_eq!(
            a.predict_bytes(&samples[3].features),
            b.predict_bytes(&samples[3].features)
        );
    }
}
