//! Simulated network profiler (stand-in for mpiGraph / NCCL-tests).
//!
//! Pipette's first step (Algorithm 1, line 1) is `network_profile()`: run a
//! pairwise bandwidth benchmark on the real cluster. We simulate that by
//! reading the true attained matrix through a small multiplicative
//! measurement noise — the estimator then works with *measured* bandwidths
//! while the ground-truth simulator uses the *true* ones, reproducing the
//! estimation-error structure of Fig. 5a. The profiler also carries a cost
//! model for Table II's "Bandwidth Profiling" row.
//!
//! Real benchmarks also *fail*: processes crash (NaN), transfers time out
//! (zero), units get confused (wild outliers). [`NetworkProfiler::profile_robust`]
//! survives all of that under an injected [`FaultPlan`] via a degradation
//! ladder — repeat, retry with backoff, aggregate robustly, and finally
//! impute from topology priors — while reporting per-pair
//! [`MeasurementQuality`] and charging the retries to the Table II cost
//! model. With a zero-fault plan and one repeat it is bit-identical to
//! [`NetworkProfiler::profile`].

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::faults::{CorruptionKind, FaultPlan};
use crate::link::LinkClass;
use crate::rand_util::normal;
use crate::topology::{ClusterTopology, GpuId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// How a single pair's bandwidth was obtained by the robust profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasurementQuality {
    /// All requested samples came back valid on the first try.
    Clean,
    /// The pair needed retries and/or discarded corrupt samples, but a
    /// valid aggregate was eventually measured.
    Recovered {
        /// Extra attempts beyond the requested repeat count.
        retries: usize,
        /// Samples discarded as NaN/zero/implausible.
        corrupt_samples: usize,
    },
    /// Every attempt failed; the value was imputed from topology priors
    /// (link-class mean of valid measurements, else the nominal spec).
    Imputed {
        /// The imputed bandwidth in GiB/s.
        gib_s: f64,
        /// Attempts spent before giving up.
        retries: usize,
    },
}

/// One non-clean pair in a [`MeasurementReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairIncident {
    /// Source GPU.
    pub from: GpuId,
    /// Destination GPU.
    pub to: GpuId,
    /// What happened to the measurement.
    pub quality: MeasurementQuality,
}

/// Aggregate quality accounting of one robust profiling run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasurementReport {
    /// Directed GPU pairs measured (or imputed).
    pub pairs_measured: usize,
    /// Total retry attempts across all pairs.
    pub retries: usize,
    /// Pairs whose value had to be imputed.
    pub imputed: usize,
    /// Samples discarded as corrupt across all pairs.
    pub corrupt_samples: usize,
    /// The non-clean pairs, in measurement order.
    pub incidents: Vec<PairIncident>,
}

impl MeasurementReport {
    /// Whether every pair was measured cleanly on the first try.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }
}

/// How repeated samples of one pair are collapsed to a single value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// The median (average of the two middle samples for even counts).
    /// Robust to up to half the samples being wild; the median of a
    /// single sample is that sample, preserving zero-fault bit-identity.
    #[default]
    Median,
    /// Mean after dropping the minimum and maximum (plain mean for fewer
    /// than three samples).
    TrimmedMean,
    /// The arithmetic mean.
    Mean,
}

impl Aggregation {
    fn collapse(self, samples: &mut [f64]) -> f64 {
        debug_assert!(!samples.is_empty());
        match self {
            Aggregation::Median => {
                samples.sort_by(f64::total_cmp);
                let n = samples.len();
                if n % 2 == 1 {
                    samples[n / 2]
                } else {
                    (samples[n / 2 - 1] + samples[n / 2]) / 2.0
                }
            }
            Aggregation::TrimmedMean => {
                if samples.len() < 3 {
                    return Aggregation::Mean.collapse(samples);
                }
                samples.sort_by(f64::total_cmp);
                let inner = &samples[1..samples.len() - 1];
                inner.iter().sum::<f64>() / inner.len() as f64
            }
            Aggregation::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }
}

/// Knobs of the robust profiling ladder: how many samples to take, how to
/// aggregate them, how hard to retry, and what counts as plausible.
///
/// The default (`repeats: 1`, median, 3 retries) makes the zero-fault
/// path identical to [`NetworkProfiler::profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustProfilingPolicy {
    /// Valid samples requested per pair.
    pub repeats: usize,
    /// How repeated samples collapse to one value.
    pub aggregation: Aggregation,
    /// Extra attempts allowed per pair beyond `repeats`.
    pub max_retries: usize,
    /// Wall-clock charged per retry attempt (seconds), feeding the
    /// Table II cost model.
    pub retry_backoff_seconds: f64,
    /// A reading is plausible iff within `[nominal/band, nominal*band]`
    /// of its link class's nominal spec bandwidth.
    pub plausibility_band: f64,
}

impl Default for RobustProfilingPolicy {
    fn default() -> Self {
        Self {
            repeats: 1,
            aggregation: Aggregation::Median,
            max_retries: 3,
            retry_backoff_seconds: 0.25,
            plausibility_band: 16.0,
        }
    }
}

/// Measured bandwidth matrix, as Pipette's estimator sees it.
///
/// Wraps a [`BandwidthMatrix`] so the type system distinguishes profiled
/// (noisy) bandwidths from ground truth, and — when produced by
/// [`NetworkProfiler::profile_robust`] — carries the per-pair
/// [`MeasurementReport`] (in-memory metadata only).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledBandwidth {
    matrix: BandwidthMatrix,
    report: Option<MeasurementReport>,
}

impl ProfiledBandwidth {
    /// Access the measured matrix.
    pub fn matrix(&self) -> &BandwidthMatrix {
        &self.matrix
    }

    /// Consumes the wrapper, returning the measured matrix.
    pub fn into_matrix(self) -> BandwidthMatrix {
        self.matrix
    }

    /// Treats a matrix as "profiled" without noise (for tests/ablations).
    pub fn exact(matrix: BandwidthMatrix) -> Self {
        Self {
            matrix,
            report: None,
        }
    }

    /// The measurement-quality report, if this came from a robust
    /// profiling run.
    pub fn report(&self) -> Option<&MeasurementReport> {
        self.report.as_ref()
    }

    /// The quality of one directed pair's measurement. `Clean` for pairs
    /// with no recorded incident (including matrices without a report).
    pub fn quality(&self, from: GpuId, to: GpuId) -> MeasurementQuality {
        self.report
            .as_ref()
            .and_then(|r| {
                r.incidents
                    .iter()
                    .find(|i| i.from == from && i.to == to)
                    .map(|i| i.quality)
            })
            .unwrap_or(MeasurementQuality::Clean)
    }
}

/// Wall-clock cost of a profiling run, for Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingCost {
    /// Total profiling time in seconds.
    pub seconds: f64,
    /// Number of directed node pairs measured.
    pub node_pairs: usize,
    /// Retry attempts charged on top of the base sweep (zero for the
    /// non-robust profiler).
    pub retries: usize,
}

/// Simulated mpiGraph/NCCL-tests runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkProfiler {
    /// Relative standard deviation of a single bandwidth measurement.
    pub noise_sigma: f64,
    /// Fixed cost of launching the benchmark suite (seconds).
    pub base_seconds: f64,
    /// Cost per directed node pair (seconds).
    pub per_pair_seconds: f64,
}

impl Default for NetworkProfiler {
    fn default() -> Self {
        Self {
            noise_sigma: 0.02,
            base_seconds: 40.0,
            per_pair_seconds: 0.33,
        }
    }
}

impl NetworkProfiler {
    /// Creates a profiler with a given measurement noise and cost model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative.
    pub fn new(noise_sigma: f64, base_seconds: f64, per_pair_seconds: f64) -> Self {
        debug_assert!(noise_sigma >= 0.0 && base_seconds >= 0.0 && per_pair_seconds >= 0.0);
        Self {
            noise_sigma,
            base_seconds,
            per_pair_seconds,
        }
    }

    /// Measures the cluster: returns the noisy matrix and the time it took.
    ///
    /// Deterministic in `seed`.
    pub fn profile(
        &self,
        truth: &BandwidthMatrix,
        seed: u64,
    ) -> (ProfiledBandwidth, ProfilingCost) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut measured = truth.clone();
        let topo = *truth.topology();
        for a in topo.gpus() {
            for b in topo.gpus() {
                if a == b {
                    continue;
                }
                let factor = normal(&mut rng, 1.0, self.noise_sigma).clamp(0.8, 1.2);
                measured.set(GpuId(a.0), GpuId(b.0), truth.between(a, b) * factor);
            }
        }
        (
            ProfiledBandwidth {
                matrix: measured,
                report: None,
            },
            self.cost(&topo),
        )
    }

    /// Measures the cluster under an injected [`FaultPlan`], surviving
    /// corrupt and failed readings.
    ///
    /// The degradation ladder per directed pair:
    ///
    /// 1. take `policy.repeats` samples (each noisy, possibly corrupted
    ///    or failed by the plan);
    /// 2. retry failed/implausible samples up to `policy.max_retries`
    ///    extra attempts, each charged `retry_backoff_seconds`;
    /// 3. collapse the valid samples with `policy.aggregation`;
    /// 4. if no attempt ever succeeded — or the pair touches a cordoned
    ///    node, which cannot be measured at all — impute the value from
    ///    the link class's mean valid measurement, falling back to the
    ///    nominal spec bandwidth.
    ///
    /// Deterministic in `seed` (the plan's own decisions hash from
    /// `plan.seed`, independent of the noise stream). With a zero-fault
    /// plan and `repeats == 1` the returned matrix is bit-identical to
    /// [`Self::profile`] at the same seed.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidFaultPlan`] if the plan does not fit the
    /// topology, [`ClusterError::InvalidParameter`] if the policy is
    /// degenerate (`repeats == 0`, non-positive plausibility band).
    pub fn profile_robust(
        &self,
        truth: &BandwidthMatrix,
        seed: u64,
        plan: &FaultPlan,
        policy: &RobustProfilingPolicy,
    ) -> Result<(ProfiledBandwidth, ProfilingCost), ClusterError> {
        let topo = *truth.topology();
        plan.validate(&topo)?;
        if policy.repeats == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "repeats".into(),
                reason: "must take at least one sample per pair".into(),
            });
        }
        if !(policy.plausibility_band.is_finite() && policy.plausibility_band >= 1.0) {
            return Err(ClusterError::InvalidParameter {
                name: "plausibility_band".into(),
                reason: format!("{} must be finite and >= 1", policy.plausibility_band),
            });
        }
        if !(policy.retry_backoff_seconds.is_finite() && policy.retry_backoff_seconds >= 0.0) {
            return Err(ClusterError::InvalidParameter {
                name: "retry_backoff_seconds".into(),
                reason: format!(
                    "{} must be finite and non-negative",
                    policy.retry_backoff_seconds
                ),
            });
        }

        let degraded = plan.apply_to_truth(truth);
        let mut measured = degraded.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut report = MeasurementReport::default();
        // Per-link-class running mean of valid aggregates, the first rung
        // of the imputation prior.
        let mut class_sum = [0.0f64; 2];
        let mut class_count = [0usize; 2];
        let class_idx = |c: LinkClass| match c {
            LinkClass::IntraNode => 0,
            LinkClass::InterNode => 1,
            // pipette-lint: allow(D2) -- the profiling loops below visit only
            // a != b pairs, so a loopback class here is a broken iteration
            LinkClass::Loopback => unreachable!("loopback pairs are skipped"),
        };
        let cordoned: Vec<GpuId> = plan.excluded_gpu_ids(&topo);
        let mut to_impute: Vec<(GpuId, GpuId, usize)> = Vec::new();

        for a in topo.gpus() {
            for b in topo.gpus() {
                if a == b {
                    continue;
                }
                report.pairs_measured += 1;
                if cordoned.contains(&a) || cordoned.contains(&b) {
                    // A dead endpoint: every attempt would time out. Charge
                    // the full retry budget, draw nothing from the noise
                    // stream, and impute below.
                    report.retries += policy.max_retries;
                    to_impute.push((a, b, policy.max_retries));
                    continue;
                }
                let true_bw = degraded.between(a, b);
                let nominal = match degraded.link_class(a, b) {
                    LinkClass::IntraNode => degraded.intra_spec().bandwidth_gib_s,
                    _ => degraded.inter_spec().bandwidth_gib_s,
                };
                let (lo, hi) = (
                    nominal / policy.plausibility_band,
                    nominal * policy.plausibility_band,
                );
                let mut samples: Vec<f64> = Vec::with_capacity(policy.repeats);
                let mut corrupt = 0usize;
                let mut attempts = 0usize;
                while samples.len() < policy.repeats
                    && attempts < policy.repeats + policy.max_retries
                {
                    let factor = normal(&mut rng, 1.0, self.noise_sigma).clamp(0.8, 1.2);
                    let mut reading = true_bw * factor;
                    if let Some(kind) = plan.corruption_for(a.0, b.0, attempts) {
                        reading = match kind {
                            CorruptionKind::Nan => f64::NAN,
                            CorruptionKind::Zero => 0.0,
                            CorruptionKind::WildOutlier => reading * 1000.0,
                        };
                    } else if plan.measurement_fails(a.0, b.0, attempts) {
                        reading = f64::NAN;
                    }
                    attempts += 1;
                    if reading.is_finite() && reading > 0.0 && (lo..=hi).contains(&reading) {
                        samples.push(reading);
                    } else {
                        corrupt += 1;
                    }
                }
                let retries = attempts.saturating_sub(policy.repeats);
                report.retries += retries;
                report.corrupt_samples += corrupt;
                if samples.is_empty() {
                    to_impute.push((a, b, retries));
                    continue;
                }
                let value = policy.aggregation.collapse(&mut samples);
                measured.set(a, b, value);
                let ci = class_idx(degraded.link_class(a, b));
                class_sum[ci] += value;
                class_count[ci] += 1;
                if retries > 0 || corrupt > 0 {
                    report.incidents.push(PairIncident {
                        from: a,
                        to: b,
                        quality: MeasurementQuality::Recovered {
                            retries,
                            corrupt_samples: corrupt,
                        },
                    });
                }
            }
        }

        // Imputation pass: pairs that exhausted the ladder take the mean
        // valid measurement of their link class, else the nominal spec.
        report.imputed = to_impute.len();
        for (a, b, retries) in to_impute {
            let ci = class_idx(measured.link_class(a, b));
            let gib_s = if class_count[ci] > 0 {
                class_sum[ci] / class_count[ci] as f64
            } else {
                match measured.link_class(a, b) {
                    LinkClass::IntraNode => measured.intra_spec().bandwidth_gib_s,
                    _ => measured.inter_spec().bandwidth_gib_s,
                }
            };
            measured.set(a, b, gib_s);
            report.incidents.push(PairIncident {
                from: a,
                to: b,
                quality: MeasurementQuality::Imputed { gib_s, retries },
            });
        }
        // Incident order: recovered pairs are pushed in measurement order,
        // imputed pairs afterwards. Re-sort into pair order so consumers
        // see one deterministic ordering regardless of ladder rung.
        report.incidents.sort_by_key(|i| (i.from.0, i.to.0));

        let base = self.cost(&topo);
        let cost = ProfilingCost {
            seconds: self.base_seconds
                + self.per_pair_seconds * (base.node_pairs * policy.repeats) as f64
                + report.retries as f64 * policy.retry_backoff_seconds,
            node_pairs: base.node_pairs,
            retries: report.retries,
        };
        Ok((
            ProfiledBandwidth {
                matrix: measured,
                report: Some(report),
            },
            cost,
        ))
    }

    /// Cost of profiling a cluster of the given shape, without running it.
    pub fn cost(&self, topology: &ClusterTopology) -> ProfilingCost {
        let n = topology.num_nodes();
        let node_pairs = n * n.saturating_sub(1);
        ProfilingCost {
            seconds: self.base_seconds + self.per_pair_seconds * node_pairs as f64,
            node_pairs,
            retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CorruptPair, DegradedLink};
    use crate::heterogeneity::HeterogeneityModel;
    use crate::link::LinkSpec;
    use proptest::prelude::*;

    fn truth() -> BandwidthMatrix {
        HeterogeneityModel::realistic().generate(
            ClusterTopology::new(4, 4),
            LinkSpec::new(300.0, 2e-6),
            LinkSpec::new(11.64, 5e-6),
            21,
        )
    }

    #[test]
    fn measurement_is_close_to_truth() {
        let t = truth();
        let (p, _) = NetworkProfiler::default().profile(&t, 1);
        for a in t.topology().gpus() {
            for b in t.topology().gpus() {
                if a != b {
                    let ratio = p.matrix().between(a, b) / t.between(a, b);
                    assert!((ratio - 1.0).abs() < 0.21, "ratio {ratio}");
                }
            }
        }
    }

    #[test]
    fn measurement_is_noisy_but_deterministic() {
        let t = truth();
        let (p1, _) = NetworkProfiler::default().profile(&t, 1);
        let (p2, _) = NetworkProfiler::default().profile(&t, 1);
        let (p3, _) = NetworkProfiler::default().profile(&t, 2);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert_ne!(p1.matrix(), &t);
    }

    #[test]
    fn cost_scales_with_node_pairs() {
        let prof = NetworkProfiler::new(0.0, 40.0, 0.33);
        let c8 = prof.cost(&ClusterTopology::new(8, 8));
        let c16 = prof.cost(&ClusterTopology::new(16, 8));
        assert_eq!(c8.node_pairs, 56);
        assert_eq!(c16.node_pairs, 240);
        // Shape from Table II: ~58 s at 8 nodes, ~120 s at 16 nodes.
        assert!((c8.seconds - 58.48).abs() < 0.1);
        assert!((c16.seconds - 119.2).abs() < 0.1);
    }

    #[test]
    fn exact_profile_has_no_noise() {
        let t = truth();
        let p = ProfiledBandwidth::exact(t.clone());
        assert_eq!(p.matrix(), &t);
        assert!(p.report().is_none());
        assert_eq!(p.quality(GpuId(0), GpuId(1)), MeasurementQuality::Clean);
        assert_eq!(p.into_matrix(), t);
    }

    #[test]
    fn zero_noise_profiler_reproduces_truth() {
        let t = truth();
        let (p, _) = NetworkProfiler::new(0.0, 0.0, 0.0).profile(&t, 9);
        for a in t.topology().gpus() {
            for b in t.topology().gpus() {
                if a != b {
                    assert!((p.matrix().between(a, b) - t.between(a, b)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn zero_fault_robust_profile_is_bit_identical() {
        let t = truth();
        let prof = NetworkProfiler::default();
        let (plain, plain_cost) = prof.profile(&t, 7);
        let (robust, robust_cost) = prof
            .profile_robust(
                &t,
                7,
                &FaultPlan::default(),
                &RobustProfilingPolicy::default(),
            )
            .expect("zero-fault plan is valid");
        assert_eq!(robust.matrix(), plain.matrix());
        assert_eq!(robust_cost.seconds, plain_cost.seconds);
        assert_eq!(robust_cost.retries, 0);
        let report = robust.report().expect("robust runs carry a report");
        assert!(report.is_clean());
        assert_eq!(report.imputed, 0);
        assert_eq!(report.pairs_measured, 16 * 15);
    }

    proptest! {
        #[test]
        fn zero_fault_bit_identity_holds_for_any_seed(seed in 0u64..500) {
            let t = truth();
            let prof = NetworkProfiler::default();
            let (plain, _) = prof.profile(&t, seed);
            let (robust, _) = prof
                .profile_robust(
                    &t,
                    seed,
                    &FaultPlan::default(),
                    &RobustProfilingPolicy::default(),
                )
                .unwrap();
            prop_assert_eq!(robust.matrix(), plain.matrix());
        }
    }

    #[test]
    fn corrupt_pairs_are_recovered_by_retry() {
        let t = truth();
        let plan = FaultPlan {
            corrupt_pairs: vec![
                CorruptPair {
                    from_gpu: 0,
                    to_gpu: 5,
                    kind: "nan".into(),
                },
                CorruptPair {
                    from_gpu: 1,
                    to_gpu: 9,
                    kind: "zero".into(),
                },
                CorruptPair {
                    from_gpu: 2,
                    to_gpu: 13,
                    kind: "outlier".into(),
                },
            ],
            ..FaultPlan::default()
        };
        let (p, cost) = NetworkProfiler::default()
            .profile_robust(&t, 3, &plan, &RobustProfilingPolicy::default())
            .unwrap();
        let report = p.report().unwrap();
        assert_eq!(report.incidents.len(), 3);
        assert_eq!(report.imputed, 0);
        assert_eq!(report.corrupt_samples, 3);
        assert_eq!(report.retries, 3);
        assert!(cost.retries == 3 && cost.seconds > 0.0);
        // Each corrupted pair recovered to a plausible value on retry.
        for c in &plan.corrupt_pairs {
            let (a, b) = (GpuId(c.from_gpu), GpuId(c.to_gpu));
            assert!(matches!(
                p.quality(a, b),
                MeasurementQuality::Recovered {
                    retries: 1,
                    corrupt_samples: 1
                }
            ));
            let ratio = p.matrix().between(a, b) / t.between(a, b);
            assert!((ratio - 1.0).abs() < 0.21, "ratio {ratio}");
        }
    }

    #[test]
    fn always_failing_pairs_are_imputed_from_class_prior() {
        let t = truth();
        // Total measurement failure: every attempt of every pair dies.
        let plan = FaultPlan {
            measurement_failure_rate: 1.0,
            ..FaultPlan::default()
        };
        let (p, _) = NetworkProfiler::default()
            .profile_robust(&t, 3, &plan, &RobustProfilingPolicy::default())
            .unwrap();
        let report = p.report().unwrap();
        assert_eq!(report.imputed, 16 * 15);
        // No class has any valid measurement, so imputation lands on the
        // nominal spec bandwidths.
        assert_eq!(p.matrix().between(GpuId(0), GpuId(1)), 300.0);
        assert_eq!(p.matrix().between(GpuId(0), GpuId(4)), 11.64);
    }

    #[test]
    fn cordoned_pairs_skip_measurement_and_get_imputed() {
        let t = truth();
        let plan = FaultPlan {
            failed_nodes: vec![3],
            ..FaultPlan::default()
        };
        let policy = RobustProfilingPolicy::default();
        let (p, cost) = NetworkProfiler::default()
            .profile_robust(&t, 11, &plan, &policy)
            .unwrap();
        let report = p.report().unwrap();
        // 4 dead GPUs: pairs touching them = 2 * 4 * 12 (cross) + 4*3 (among dead).
        let dead_pairs = 2 * 4 * 12 + 4 * 3;
        assert_eq!(report.imputed, dead_pairs);
        assert_eq!(report.retries, dead_pairs * policy.max_retries);
        assert_eq!(cost.retries, report.retries);
        assert!(matches!(
            p.quality(GpuId(0), GpuId(12)),
            MeasurementQuality::Imputed { .. }
        ));
        // Healthy pairs are untouched by the cordon and stay plausible.
        assert!(matches!(
            p.quality(GpuId(0), GpuId(4)),
            MeasurementQuality::Clean
        ));
    }

    #[test]
    fn degraded_links_shift_the_measured_truth() {
        let t = truth();
        let plan = FaultPlan {
            degraded_links: vec![DegradedLink {
                from_node: 0,
                to_node: 1,
                factor: 0.5,
            }],
            ..FaultPlan::default()
        };
        let (p, _) = NetworkProfiler::new(0.0, 0.0, 0.0)
            .profile_robust(&t, 1, &plan, &RobustProfilingPolicy::default())
            .unwrap();
        let measured = p.matrix().between(GpuId(0), GpuId(4));
        assert!((measured - t.between(GpuId(0), GpuId(4)) * 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeats_tighten_the_estimate() {
        let t = truth();
        let prof = NetworkProfiler::new(0.1, 0.0, 0.0);
        let policy_many = RobustProfilingPolicy {
            repeats: 9,
            ..RobustProfilingPolicy::default()
        };
        let err = |p: &ProfiledBandwidth| {
            let mut worst: f64 = 0.0;
            for a in t.topology().gpus() {
                for b in t.topology().gpus() {
                    if a != b {
                        worst = worst.max((p.matrix().between(a, b) / t.between(a, b) - 1.0).abs());
                    }
                }
            }
            worst
        };
        // Median-of-9 beats a single noisy sample on worst-case error for
        // this fixed seed (and costs 9x the per-pair time).
        let (p1, c1) = prof
            .profile_robust(
                &t,
                5,
                &FaultPlan::default(),
                &RobustProfilingPolicy::default(),
            )
            .unwrap();
        let (p9, c9) = prof
            .profile_robust(&t, 5, &FaultPlan::default(), &policy_many)
            .unwrap();
        assert!(err(&p9) < err(&p1));
        assert!(c9.seconds >= c1.seconds);
    }

    #[test]
    fn invalid_policy_and_plan_are_rejected() {
        let t = truth();
        let prof = NetworkProfiler::default();
        let bad_policy = RobustProfilingPolicy {
            repeats: 0,
            ..RobustProfilingPolicy::default()
        };
        assert!(matches!(
            prof.profile_robust(&t, 0, &FaultPlan::default(), &bad_policy),
            Err(ClusterError::InvalidParameter { .. })
        ));
        let bad_plan = FaultPlan {
            failed_nodes: vec![99],
            ..FaultPlan::default()
        };
        assert!(matches!(
            prof.profile_robust(&t, 0, &bad_plan, &RobustProfilingPolicy::default()),
            Err(ClusterError::InvalidFaultPlan { .. })
        ));
    }
}
