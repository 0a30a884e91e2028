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
//! (zero), units get confused (wild outliers). One loop measures every
//! pair and survives all of that under an injected [`FaultPlan`]: an
//! implausible reading is retried, each retry charged to the Table II
//! cost model, and a pair that never reads plausibly is imputed from
//! topology priors. The pairs that needed either land in a
//! [`MeasurementReport`]. [`NetworkProfiler::profile`] is the loop's
//! zero-fault case and [`NetworkProfiler::profile_robust`] runs it under a
//! plan.

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::faults::{CorruptionKind, FaultPlan};
use crate::rand_util::normal;
use crate::topology::{ClusterTopology, GpuId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Attempts a pair gets after its first implausible reading.
const MAX_RETRIES: usize = 3;
/// Seconds each retry adds to the Table II profiling cost.
const RETRY_BACKOFF_SECONDS: f64 = 0.25;
/// A reading is plausible iff it is finite, positive and at most this
/// many times its link class's nominal spec bandwidth. There is no lower
/// bound: every reading that fails low (NaN, zero, a failed measurement)
/// is already not finite or not positive, so a lower bound could only
/// reject a genuinely slow link and impute it as a healthy one.
const PLAUSIBILITY_CEILING: f64 = 16.0;

/// Why a pair appears in a [`MeasurementReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasurementQuality {
    /// The pair read implausibly at first, but a retry measured it.
    Recovered {
        /// Attempts after the first.
        retries: usize,
        /// Readings discarded as NaN/zero/implausible.
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

/// Aggregate quality accounting of one profiling run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MeasurementReport {
    /// Directed GPU pairs measured (or imputed).
    pub pairs_measured: usize,
    /// Total retry attempts across all pairs.
    pub retries: usize,
    /// Pairs whose value had to be imputed.
    pub imputed: usize,
    /// Readings discarded as corrupt across all pairs.
    pub corrupt_samples: usize,
    /// The non-clean pairs, in pair order.
    pub incidents: Vec<PairIncident>,
}

impl MeasurementReport {
    /// Whether every pair was measured cleanly on the first try.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }
}

/// Measured bandwidth matrix, as Pipette's estimator sees it.
///
/// Wraps a [`BandwidthMatrix`] so the type system distinguishes profiled
/// (noisy) bandwidths from ground truth, and carries the per-pair
/// [`MeasurementReport`] of the run that measured it (in-memory metadata
/// only; empty for [`Self::exact`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledBandwidth {
    matrix: BandwidthMatrix,
    report: MeasurementReport,
}

impl ProfiledBandwidth {
    /// Access the measured matrix.
    pub fn matrix(&self) -> &BandwidthMatrix {
        &self.matrix
    }

    /// Treats a matrix as "profiled" without noise (for tests/ablations).
    pub fn exact(matrix: BandwidthMatrix) -> Self {
        Self {
            matrix,
            report: MeasurementReport::default(),
        }
    }

    /// The measurement-quality report of the run that measured this.
    pub fn report(&self) -> &MeasurementReport {
        &self.report
    }
}

/// Wall-clock cost of a profiling run, for Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingCost {
    /// Total profiling time in seconds.
    pub seconds: f64,
    /// Number of directed node pairs measured.
    pub node_pairs: usize,
    /// Retry attempts charged on top of the base sweep.
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
    /// This is [`Self::profile_robust`] under the zero-fault plan.
    ///
    /// Deterministic in `seed`.
    pub fn profile(
        &self,
        truth: &BandwidthMatrix,
        seed: u64,
    ) -> (ProfiledBandwidth, ProfilingCost) {
        self.measure(truth, seed, &FaultPlan::default())
    }

    /// Measures the cluster under an injected [`FaultPlan`], surviving
    /// corrupt and failed readings.
    ///
    /// `truth` is the matrix to measure, with any ground-truth faults of
    /// the episode (drift, degraded links, stragglers) already in it:
    /// [`FaultPlan::apply_to_truth`] puts them there once, where the
    /// faulted cluster is built. Here the plan contributes only its
    /// observation faults: each directed pair takes one noisy reading per
    /// attempt, which the plan may corrupt or fail. A reading that is not finite and
    /// positive, or lies above 16× its link class's nominal spec, is
    /// discarded and the pair retried, at most 3 times, each retry charged
    /// 0.25 s to the Table II cost. A slow link is measured, however slow.
    /// A pair that never reads plausibly, or touches a cordoned node (which
    /// cannot be measured at all), is imputed from its link class's mean
    /// measured bandwidth, falling back to the nominal spec.
    ///
    /// Deterministic in `seed` (the plan's own decisions hash from
    /// `plan.seed`, independent of the noise stream).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidFaultPlan`] if the plan does not fit the
    /// topology.
    pub fn profile_robust(
        &self,
        truth: &BandwidthMatrix,
        seed: u64,
        plan: &FaultPlan,
    ) -> Result<(ProfiledBandwidth, ProfilingCost), ClusterError> {
        plan.validate(truth.topology())?;
        Ok(self.measure(truth, seed, plan))
    }

    /// The one measurement loop behind [`Self::profile`] and
    /// [`Self::profile_robust`], for a plan that fits the topology.
    fn measure(
        &self,
        truth: &BandwidthMatrix,
        seed: u64,
        plan: &FaultPlan,
    ) -> (ProfiledBandwidth, ProfilingCost) {
        let topo = *truth.topology();
        // Each pair reads its true value here before overwriting it with
        // the measurement, so one matrix serves as both.
        let mut measured = truth.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = topo.num_gpus();
        let mut report = MeasurementReport {
            pairs_measured: n * n.saturating_sub(1),
            ..MeasurementReport::default()
        };
        let cordoned: Vec<GpuId> = plan.excluded_gpu_ids(&topo);
        let mut to_impute: Vec<(GpuId, GpuId)> = Vec::new();

        for a in topo.gpus() {
            for b in topo.gpus() {
                if a == b {
                    continue;
                }
                if cordoned.contains(&a) || cordoned.contains(&b) {
                    // A dead endpoint: every attempt would time out. Charge
                    // the full retry budget, draw nothing from the noise
                    // stream, and impute below.
                    report.retries += MAX_RETRIES;
                    to_impute.push((a, b));
                    continue;
                }
                let true_bw = measured.between(a, b);
                let ceiling = nominal_gib_s(&measured, a, b) * PLAUSIBILITY_CEILING;
                let mut attempt = 0;
                let reading = loop {
                    let factor = normal(&mut rng, 1.0, self.noise_sigma).clamp(0.8, 1.2);
                    let reading = match plan.corruption_for(a.0, b.0, attempt) {
                        Some(CorruptionKind::Nan) => f64::NAN,
                        Some(CorruptionKind::Zero) => 0.0,
                        Some(CorruptionKind::WildOutlier) => true_bw * factor * 1000.0,
                        None if plan.measurement_fails(a.0, b.0, attempt) => f64::NAN,
                        None => true_bw * factor,
                    };
                    if reading.is_finite() && reading > 0.0 && reading <= ceiling {
                        break Some(reading);
                    }
                    report.corrupt_samples += 1;
                    if attempt == MAX_RETRIES {
                        break None;
                    }
                    attempt += 1;
                };
                report.retries += attempt;
                match reading {
                    Some(value) => {
                        measured.set(a, b, value);
                        if attempt > 0 {
                            report.incidents.push(PairIncident {
                                from: a,
                                to: b,
                                quality: MeasurementQuality::Recovered {
                                    retries: attempt,
                                    corrupt_samples: attempt,
                                },
                            });
                        }
                    }
                    None => to_impute.push((a, b)),
                }
            }
        }

        // Imputing sums every measured pair by class; a clean run skips it.
        if !to_impute.is_empty() {
            impute(&mut measured, &mut report, &to_impute);
        }
        let mut cost = self.cost(&topo);
        cost.retries = report.retries;
        cost.seconds += report.retries as f64 * RETRY_BACKOFF_SECONDS;
        (
            ProfiledBandwidth {
                matrix: measured,
                report,
            },
            cost,
        )
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

/// The nominal spec bandwidth of the link class joining two distinct GPUs.
fn nominal_gib_s(matrix: &BandwidthMatrix, a: GpuId, b: GpuId) -> f64 {
    if matrix.topology().same_node(a, b) {
        matrix.intra_spec().bandwidth_gib_s
    } else {
        matrix.inter_spec().bandwidth_gib_s
    }
}

/// Gives each pair of `to_impute` (in pair order) its link class's mean
/// measured bandwidth, else the nominal spec, and records it in `report`,
/// whose incidents it leaves in pair order.
fn impute(
    measured: &mut BandwidthMatrix,
    report: &mut MeasurementReport,
    to_impute: &[(GpuId, GpuId)],
) {
    let topo = *measured.topology();
    // Per-class sums of the measured pairs, indexed by `same_node`, added
    // in pair order.
    let mut class_sum = [0.0f64; 2];
    let mut class_count = [0usize; 2];
    let mut pending = to_impute.iter().peekable();
    for a in topo.gpus() {
        for b in topo.gpus() {
            if a == b || pending.next_if_eq(&&(a, b)).is_some() {
                continue;
            }
            let class = usize::from(topo.same_node(a, b));
            class_sum[class] += measured.between(a, b);
            class_count[class] += 1;
        }
    }
    report.imputed = to_impute.len();
    for &(a, b) in to_impute {
        let class = usize::from(topo.same_node(a, b));
        let gib_s = if class_count[class] > 0 {
            class_sum[class] / class_count[class] as f64
        } else {
            nominal_gib_s(measured, a, b)
        };
        measured.set(a, b, gib_s);
        report.incidents.push(PairIncident {
            from: a,
            to: b,
            quality: MeasurementQuality::Imputed {
                gib_s,
                retries: MAX_RETRIES,
            },
        });
    }
    report.incidents.sort_by_key(|i| (i.from.0, i.to.0));
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

    /// FNV-1a over `bytes`, continuing from `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The digest of every entry's bit pattern, in row-major order.
    fn matrix_digest(m: &BandwidthMatrix) -> u64 {
        let gpus = m.topology().gpus();
        gpus.flat_map(|a| m.topology().gpus().map(move |b| (a, b)))
            .fold(0xcbf2_9ce4_8422_2325, |h, (a, b)| {
                fnv(h, &m.between(a, b).to_bits().to_le_bytes())
            })
    }

    /// A robust run as its pin reads it: the matrix digest, the digest of
    /// the report as `Debug` prints it (every counter and incident), the
    /// retry and imputation counters, and the bits of the charged seconds.
    fn robust_pin(plan: &FaultPlan, seed: u64) -> (u64, u64, usize, usize, u64) {
        let (p, cost) = NetworkProfiler::default()
            .profile_robust(&truth(), seed, plan)
            .unwrap();
        let report = p.report();
        (
            matrix_digest(p.matrix()),
            fnv(0xcbf2_9ce4_8422_2325, format!("{report:?}").as_bytes()),
            report.retries,
            report.imputed,
            cost.seconds.to_bits(),
        )
    }

    fn corrupt_pair_plan() -> FaultPlan {
        let pair = |from_gpu, to_gpu, kind: &str| CorruptPair {
            from_gpu,
            to_gpu,
            kind: kind.into(),
        };
        FaultPlan {
            corrupt_pairs: vec![
                pair(0, 5, "nan"),
                pair(1, 9, "zero"),
                pair(2, 13, "outlier"),
            ],
            ..FaultPlan::default()
        }
    }

    fn total_failure_plan() -> FaultPlan {
        FaultPlan {
            measurement_failure_rate: 1.0,
            ..FaultPlan::default()
        }
    }

    fn cordoned_node_plan() -> FaultPlan {
        FaultPlan {
            failed_nodes: vec![3],
            ..FaultPlan::default()
        }
    }

    #[test]
    fn plain_profile_bits_are_pinned() {
        for (seed, digest) in [(1, 0x3c9f_8f44_d15d_729d), (7, 0x5724_7c9c_ee71_7db6)] {
            let (p, _) = NetworkProfiler::default().profile(&truth(), seed);
            assert_eq!(matrix_digest(p.matrix()), digest, "seed {seed}");
        }
    }

    #[test]
    fn robust_profile_bits_are_pinned_on_the_fault_plans() {
        assert_eq!(
            robust_pin(&corrupt_pair_plan(), 3),
            (
                0x31bf_3670_3f4d_370e,
                0xa58d_b010_f9ea_aae4,
                3,
                0,
                0x4046_5ae1_47ae_147b
            )
        );
        assert_eq!(
            robust_pin(&total_failure_plan(), 3),
            (
                0xf731_a067_2057_0ca5,
                0x6810_3f5e_b887_121d,
                720,
                240,
                0x406b_feb8_51eb_851f
            )
        );
        assert_eq!(
            robust_pin(&cordoned_node_plan(), 11),
            (
                0x0c58_435f_04f2_bfc8,
                0x2d8a_6858_eff2_8c73,
                324,
                108,
                0x405f_3d70_a3d7_0a3e
            )
        );
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
        assert_eq!(p.report(), &MeasurementReport::default());
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
            .profile_robust(&t, 7, &FaultPlan::default())
            .expect("zero-fault plan is valid");
        assert_eq!(robust.matrix(), plain.matrix());
        assert_eq!(robust_cost.seconds, plain_cost.seconds);
        assert_eq!(robust_cost.retries, 0);
        let report = robust.report();
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
            let (robust, _) = prof.profile_robust(&t, seed, &FaultPlan::default()).unwrap();
            prop_assert_eq!(robust.matrix(), plain.matrix());
        }
    }

    /// The incident recorded for `from -> to`, if any.
    fn incident(p: &ProfiledBandwidth, from: usize, to: usize) -> Option<MeasurementQuality> {
        p.report()
            .incidents
            .iter()
            .find(|i| i.from == GpuId(from) && i.to == GpuId(to))
            .map(|i| i.quality)
    }

    #[test]
    fn corrupt_pairs_are_recovered_by_retry() {
        let t = truth();
        let plan = corrupt_pair_plan();
        let (p, cost) = NetworkProfiler::default()
            .profile_robust(&t, 3, &plan)
            .unwrap();
        let report = p.report();
        assert_eq!(report.incidents.len(), 3);
        assert_eq!(report.imputed, 0);
        assert_eq!(report.corrupt_samples, 3);
        assert_eq!(report.retries, 3);
        assert!(cost.retries == 3 && cost.seconds > 0.0);
        // Each corrupted pair recovered to a plausible value on retry.
        for c in &plan.corrupt_pairs {
            assert_eq!(
                incident(&p, c.from_gpu, c.to_gpu),
                Some(MeasurementQuality::Recovered {
                    retries: 1,
                    corrupt_samples: 1
                })
            );
            let (a, b) = (GpuId(c.from_gpu), GpuId(c.to_gpu));
            let ratio = p.matrix().between(a, b) / t.between(a, b);
            assert!((ratio - 1.0).abs() < 0.21, "ratio {ratio}");
        }
    }

    #[test]
    fn always_failing_pairs_are_imputed_from_class_prior() {
        let t = truth();
        // Total measurement failure: every attempt of every pair dies.
        let (p, _) = NetworkProfiler::default()
            .profile_robust(&t, 3, &total_failure_plan())
            .unwrap();
        assert_eq!(p.report().imputed, 16 * 15);
        // No class has any valid measurement, so imputation lands on the
        // nominal spec bandwidths.
        assert_eq!(p.matrix().between(GpuId(0), GpuId(1)), 300.0);
        assert_eq!(p.matrix().between(GpuId(0), GpuId(4)), 11.64);
    }

    #[test]
    fn cordoned_pairs_skip_measurement_and_get_imputed() {
        let t = truth();
        let (p, cost) = NetworkProfiler::default()
            .profile_robust(&t, 11, &cordoned_node_plan())
            .unwrap();
        let report = p.report();
        // 4 dead GPUs: pairs touching them = 2 * 4 * 12 (cross) + 4*3 (among dead).
        let dead_pairs = 2 * 4 * 12 + 4 * 3;
        assert_eq!(report.imputed, dead_pairs);
        assert_eq!(report.retries, dead_pairs * MAX_RETRIES);
        assert_eq!(cost.retries, report.retries);
        assert!(matches!(
            incident(&p, 0, 12),
            Some(MeasurementQuality::Imputed { .. })
        ));
        // Healthy pairs are untouched by the cordon and read cleanly.
        assert_eq!(incident(&p, 0, 4), None);
    }

    /// The profiler measures the matrix it is handed: a plan's degraded
    /// link is already in a faulted matrix (`FaultPlan::apply_to_truth`),
    /// and measuring under the plan does not degrade it a second time.
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
            .profile_robust(&plan.apply_to_truth(&t), 1, &plan)
            .unwrap();
        let measured = p.matrix().between(GpuId(0), GpuId(4));
        assert!((measured - t.between(GpuId(0), GpuId(4)) * 0.5).abs() < 1e-9);
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let bad_plan = FaultPlan {
            failed_nodes: vec![99],
            ..FaultPlan::default()
        };
        assert!(matches!(
            NetworkProfiler::default().profile_robust(&truth(), 0, &bad_plan),
            Err(ClusterError::InvalidFaultPlan { .. })
        ));
    }
}
