//! Deterministic fault injection for cluster simulations.
//!
//! Real clusters are not the benign world the rest of this crate draws:
//! Fig. 3's 40-day mpiGraph trace shows links sagging and recovering, and
//! production fleets lose whole nodes mid-campaign. A [`FaultPlan`] is a
//! seeded, serializable description of such an episode — degraded links,
//! straggling GPUs, dead nodes/GPUs, and corrupted profiler readings —
//! that can be layered on top of any [`BandwidthMatrix`]/topology. Every
//! decision the plan makes (does this measurement attempt fail? is this
//! profiling sample lost?) is a pure hash of `(seed, coordinates)`, so a
//! drill replays bit-identically at any thread count and on any machine,
//! without touching the profiler's noise RNG stream.

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::temporal::TemporalDrift;
use crate::topology::{ClusterTopology, GpuId, NodeId};
use pipette_obs::json::{self, DecodeError, Fields, JsonValue, Schema};

/// A directed node-to-node link running below its usual attained
/// bandwidth (congestion, a flaky cable, a misbehaving switch port).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedLink {
    /// Source node of the degraded direction.
    pub from_node: usize,
    /// Destination node of the degraded direction.
    pub to_node: usize,
    /// Multiplier in `(0, 1]` applied to every GPU pair crossing the
    /// link in this direction.
    pub factor: f64,
}

/// A GPU whose links all run slow (thermal throttling, a PCIe downgrade).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerGpu {
    /// The straggling GPU (global index).
    pub gpu: usize,
    /// Slowdown factor `>= 1`; adjacent link bandwidths are divided by it.
    pub slowdown: f64,
}

/// How an injected corruption mangles a profiler reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The benchmark returns NaN (a crashed measurement process).
    Nan,
    /// The benchmark returns zero (a timed-out transfer).
    Zero,
    /// The benchmark returns a wildly implausible number (unit confusion,
    /// bit flip): far outside the plausibility band.
    WildOutlier,
}

/// One GPU pair whose *first* profiler reading comes back corrupted; the
/// robust profiler's retry path must recover or impute it.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptPair {
    /// Source GPU (global index).
    pub from_gpu: usize,
    /// Destination GPU (global index).
    pub to_gpu: usize,
    /// Corruption shape: `"nan"`, `"zero"`, or `"outlier"`.
    pub kind: String,
}

impl CorruptPair {
    /// The parsed corruption kind, if `kind` names one.
    pub fn corruption(&self) -> Option<CorruptionKind> {
        match self.kind.as_str() {
            "nan" => Some(CorruptionKind::Nan),
            "zero" => Some(CorruptionKind::Zero),
            "outlier" => Some(CorruptionKind::WildOutlier),
            _ => None,
        }
    }
}

/// A day-indexed temporal-drift episode: the ground-truth bandwidth
/// matrix is replaced by day `day` of the mean-reverting
/// [`TemporalDrift`] walk (Fig. 3's 40-day mpiGraph trace) before any
/// other ground-truth fault applies. Day 0 is the base matrix itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEpisode {
    /// Which day of the drift walk to apply (0 = base matrix).
    pub day: usize,
    /// Per-day log-space noise scale of the walk (default: the
    /// [`TemporalDrift`] default).
    pub daily_sigma: f64,
    /// Mean-reversion strength toward the base matrix, `[0, 1]`
    /// (default: the [`TemporalDrift`] default).
    pub reversion: f64,
}

/// A seeded, serializable description of one cluster-fault episode.
///
/// The plan separates *ground-truth* faults (degraded links, stragglers —
/// they change what a perfect profiler would see, via
/// [`Self::apply_to_truth`]) from *measurement* faults (corrupt pairs,
/// random measurement failures — they change only what the profiler
/// reports) and *availability* faults (failed GPUs/nodes — the degraded
/// configurator must exclude and reconfigure around them).
///
/// The default value is the zero-fault plan; running any fault-aware path
/// under it must reproduce the fault-free behavior bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's own stochastic decisions (measurement
    /// failures, sample loss). Independent of the profiler's noise seed.
    pub seed: u64,
    /// Links running below their usual attained bandwidth.
    pub degraded_links: Vec<DegradedLink>,
    /// GPUs whose links all run slow.
    pub straggler_gpus: Vec<StragglerGpu>,
    /// Dead GPUs (global indices). Their host nodes are cordoned.
    pub failed_gpus: Vec<usize>,
    /// Dead nodes; every hosted GPU is excluded.
    pub failed_nodes: Vec<usize>,
    /// GPU pairs whose first profiler reading comes back corrupted.
    pub corrupt_pairs: Vec<CorruptPair>,
    /// Probability in `[0, 1]` that any single measurement attempt fails
    /// outright (decided per `(pair, attempt)` by a seeded hash).
    pub measurement_failure_rate: f64,
    /// Probability in `[0, 1]` that a memory-profiling sample is lost
    /// (decided per sample index by a seeded hash). At `1.0` every sample
    /// is lost, forcing the analytic-estimator fallback.
    pub sample_loss_rate: f64,
    /// Temporal-drift episode applied to the ground truth before the
    /// link/straggler faults above.
    pub drift: Option<DriftEpisode>,
}

const PLAN: Schema = Schema {
    keys: &[
        "seed",
        "degraded_links",
        "straggler_gpus",
        "failed_gpus",
        "failed_nodes",
        "corrupt_pairs",
        "measurement_failure_rate",
        "sample_loss_rate",
        "drift",
    ],
    accepted: "seed, degraded_links, straggler_gpus, failed_gpus, failed_nodes, \
               corrupt_pairs, measurement_failure_rate, sample_loss_rate, drift",
    required: &[],
};
const DRIFT: Schema = Schema {
    keys: &["day", "daily_sigma", "reversion"],
    accepted: "day, daily_sigma, reversion",
    required: &["day"],
};
const DEGRADED_LINK: Schema = Schema {
    keys: &["from_node", "to_node", "factor"],
    accepted: "from_node, to_node, factor",
    required: &["from_node", "to_node", "factor"],
};
const STRAGGLER: Schema = Schema {
    keys: &["gpu", "slowdown"],
    accepted: "gpu, slowdown",
    required: &["gpu", "slowdown"],
};
const CORRUPT_PAIR: Schema = Schema {
    keys: &["from_gpu", "to_gpu", "kind"],
    accepted: "from_gpu, to_gpu, kind",
    required: &["from_gpu", "to_gpu", "kind"],
};

/// SplitMix64 finalizer — a cheap, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from hashed coordinates; pure, so fault
/// decisions never perturb (or depend on) any RNG stream.
fn hash01(seed: u64, tag: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut h = splitmix64(seed ^ splitmix64(tag));
    h = splitmix64(h ^ splitmix64(a));
    h = splitmix64(h ^ splitmix64(b));
    h = splitmix64(h ^ splitmix64(c));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Decodes a plan from parsed JSON in one strict pass: an unknown key
    /// at any level, a value of the wrong type, or a missing required
    /// member is an error naming its path, and absent members take their
    /// zero-fault defaults. Whether the plan fits a topology is checked
    /// later, by [`Self::validate`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] naming the first problem.
    pub fn from_json(doc: &JsonValue) -> Result<Self, DecodeError> {
        let plan = Fields::root(doc, "fault plan", &PLAN)?;
        let drift = plan.optional("drift", |v, path| {
            let drift = Fields::at(v, path.to_owned(), &DRIFT)?;
            let defaults = TemporalDrift::default();
            Ok(DriftEpisode {
                day: drift.required("day", json::size)?,
                daily_sigma: drift
                    .optional("daily_sigma", json::float)?
                    .unwrap_or(defaults.daily_sigma),
                reversion: drift
                    .optional("reversion", json::float)?
                    .unwrap_or(defaults.reversion),
            })
        })?;
        Ok(Self {
            seed: plan.optional("seed", json::uint)?.unwrap_or(0),
            degraded_links: plan.list("degraded_links", |v, path| {
                let link = Fields::at(v, path, &DEGRADED_LINK)?;
                Ok(DegradedLink {
                    from_node: link.required("from_node", json::size)?,
                    to_node: link.required("to_node", json::size)?,
                    factor: link.required("factor", json::float)?,
                })
            })?,
            straggler_gpus: plan.list("straggler_gpus", |v, path| {
                let straggler = Fields::at(v, path, &STRAGGLER)?;
                Ok(StragglerGpu {
                    gpu: straggler.required("gpu", json::size)?,
                    slowdown: straggler.required("slowdown", json::float)?,
                })
            })?,
            failed_gpus: plan.list("failed_gpus", |v, path| json::size(v, &path))?,
            failed_nodes: plan.list("failed_nodes", |v, path| json::size(v, &path))?,
            corrupt_pairs: plan.list("corrupt_pairs", |v, path| {
                let pair = Fields::at(v, path, &CORRUPT_PAIR)?;
                Ok(CorruptPair {
                    from_gpu: pair.required("from_gpu", json::size)?,
                    to_gpu: pair.required("to_gpu", json::size)?,
                    kind: pair.required("kind", json::string)?.to_owned(),
                })
            })?,
            measurement_failure_rate: plan
                .optional("measurement_failure_rate", json::float)?
                .unwrap_or(0.0),
            sample_loss_rate: plan
                .optional("sample_loss_rate", json::float)?
                .unwrap_or(0.0),
            drift,
        })
    }

    /// Whether this plan injects nothing at all.
    pub fn is_zero_fault(&self) -> bool {
        self.degraded_links.is_empty()
            && self.straggler_gpus.is_empty()
            && self.failed_gpus.is_empty()
            && self.failed_nodes.is_empty()
            && self.corrupt_pairs.is_empty()
            && self.measurement_failure_rate == 0.0
            && self.sample_loss_rate == 0.0
            && self.drift.is_none()
    }

    /// Checks the plan against a topology: every referenced GPU/node must
    /// exist, factors and rates must be in range, corruption kinds must
    /// be recognized.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidFaultPlan`] describing the first problem.
    pub fn validate(&self, topo: &ClusterTopology) -> Result<(), ClusterError> {
        let bad = |reason: String| Err(ClusterError::InvalidFaultPlan { reason });
        let (nodes, gpus) = (topo.num_nodes(), topo.num_gpus());
        for l in &self.degraded_links {
            if l.from_node >= nodes || l.to_node >= nodes {
                return bad(format!(
                    "degraded link {}->{} references a node >= {nodes}",
                    l.from_node, l.to_node
                ));
            }
            if l.from_node == l.to_node {
                return bad(format!("degraded link on loopback node {}", l.from_node));
            }
            if !(l.factor.is_finite() && l.factor > 0.0 && l.factor <= 1.0) {
                return bad(format!("degradation factor {} not in (0, 1]", l.factor));
            }
        }
        for s in &self.straggler_gpus {
            if s.gpu >= gpus {
                return bad(format!("straggler gpu {} >= {gpus}", s.gpu));
            }
            if !(s.slowdown.is_finite() && s.slowdown >= 1.0) {
                return bad(format!("straggler slowdown {} must be >= 1", s.slowdown));
            }
        }
        if let Some(&g) = self.failed_gpus.iter().find(|&&g| g >= gpus) {
            return bad(format!("failed gpu {g} >= {gpus}"));
        }
        if let Some(&n) = self.failed_nodes.iter().find(|&&n| n >= nodes) {
            return bad(format!("failed node {n} >= {nodes}"));
        }
        for c in &self.corrupt_pairs {
            if c.from_gpu >= gpus || c.to_gpu >= gpus {
                return bad(format!(
                    "corrupt pair {}->{} references a gpu >= {gpus}",
                    c.from_gpu, c.to_gpu
                ));
            }
            if c.from_gpu == c.to_gpu {
                return bad(format!("corrupt pair on loopback gpu {}", c.from_gpu));
            }
            if c.corruption().is_none() {
                return bad(format!(
                    "unknown corruption kind {:?} (try \"nan\", \"zero\", \"outlier\")",
                    c.kind
                ));
            }
        }
        for (name, rate) in [
            ("measurement_failure_rate", self.measurement_failure_rate),
            ("sample_loss_rate", self.sample_loss_rate),
        ] {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return bad(format!("{name} {rate} not in [0, 1]"));
            }
        }
        if let Some(d) = &self.drift {
            TemporalDrift::new(d.daily_sigma, d.reversion).map_err(|e| {
                ClusterError::InvalidFaultPlan {
                    reason: format!("drift episode: {e}"),
                }
            })?;
            // The walk materializes one matrix per day; cap the horizon so
            // a typo'd day index cannot balloon memory.
            if d.day > 365 {
                return bad(format!("drift day {} exceeds the 365-day horizon", d.day));
            }
        }
        Ok(())
    }

    /// The ground truth under this plan: degraded links and straggler
    /// GPUs applied to `truth`. Failures and measurement corruptions do
    /// not belong here — they affect availability and observation, not
    /// what the surviving links actually attain.
    pub fn apply_to_truth(&self, truth: &BandwidthMatrix) -> BandwidthMatrix {
        // Drift first: the episode replaces the base matrix the rest of
        // the ground-truth faults apply to, keyed by the plan's own seed
        // so a drill replays bit-identically.
        let drifted: Option<BandwidthMatrix> = self.drift.as_ref().and_then(|d| {
            let model = TemporalDrift::new(d.daily_sigma, d.reversion).ok()?;
            model.series(truth, d.day + 1, self.seed).pop()
        });
        let base = drifted.as_ref().unwrap_or(truth);
        let mut out = base.clone();
        let topo = *base.topology();
        for l in &self.degraded_links {
            for a in topo.gpus_of_node(NodeId(l.from_node)) {
                for b in topo.gpus_of_node(NodeId(l.to_node)) {
                    out.set(a, b, base.between(a, b) * l.factor);
                }
            }
        }
        for s in &self.straggler_gpus {
            let g = GpuId(s.gpu);
            for other in topo.gpus() {
                if other == g {
                    continue;
                }
                out.set(g, other, out.between(g, other) / s.slowdown);
                out.set(other, g, out.between(other, g) / s.slowdown);
            }
        }
        out
    }

    /// The nodes this plan takes out of service: explicitly failed nodes
    /// plus the host of every failed GPU (exclusion is at node
    /// granularity — a node with a dead GPU is cordoned whole, since a
    /// partial node breaks the uniform `gpus_per_node` topology).
    pub fn failed_node_ids(&self, topo: &ClusterTopology) -> Vec<NodeId> {
        let mut nodes: Vec<usize> = self.failed_nodes.clone();
        nodes.extend(self.failed_gpus.iter().map(|&g| topo.node_of(GpuId(g)).0));
        nodes.sort_unstable();
        nodes.dedup();
        nodes.into_iter().map(NodeId).collect()
    }

    /// Every GPU excluded by this plan (all GPUs of
    /// [`Self::failed_node_ids`]), in index order.
    pub fn excluded_gpu_ids(&self, topo: &ClusterTopology) -> Vec<GpuId> {
        self.failed_node_ids(topo)
            .into_iter()
            .flat_map(|n| topo.gpus_of_node(n).collect::<Vec<_>>())
            .collect()
    }

    /// The nodes that remain in service, in index order.
    pub fn surviving_node_ids(&self, topo: &ClusterTopology) -> Vec<NodeId> {
        let failed = self.failed_node_ids(topo);
        topo.node_ids().filter(|n| !failed.contains(n)).collect()
    }

    /// Whether measurement attempt `attempt` of pair `from -> to` fails
    /// outright under [`Self::measurement_failure_rate`]. Pure in
    /// `(seed, from, to, attempt)`.
    pub fn measurement_fails(&self, from: usize, to: usize, attempt: usize) -> bool {
        self.measurement_failure_rate > 0.0
            && hash01(self.seed, 1, from as u64, to as u64, attempt as u64)
                < self.measurement_failure_rate
    }

    /// The corruption injected into attempt `attempt` of pair
    /// `from -> to`, if any. Explicit corrupt pairs mangle the *first*
    /// attempt only — the retry path is expected to recover them.
    pub fn corruption_for(&self, from: usize, to: usize, attempt: usize) -> Option<CorruptionKind> {
        if attempt > 0 {
            return None;
        }
        self.corrupt_pairs
            .iter()
            .find(|c| c.from_gpu == from && c.to_gpu == to)
            .and_then(CorruptPair::corruption)
    }

    /// Whether memory-profiling sample `index` is lost under
    /// [`Self::sample_loss_rate`]. Pure in `(seed, index)`.
    pub fn sample_lost(&self, index: usize) -> bool {
        self.sample_loss_rate > 0.0
            && hash01(self.seed, 2, index as u64, 0, 0) < self.sample_loss_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneity::HeterogeneityModel;
    use crate::link::LinkSpec;

    fn truth() -> BandwidthMatrix {
        HeterogeneityModel::realistic().generate(
            ClusterTopology::new(4, 4),
            LinkSpec::new(300.0, 2e-6),
            LinkSpec::new(11.64, 5e-6),
            21,
        )
    }

    #[test]
    fn default_plan_is_zero_fault_and_identity() {
        let plan = FaultPlan::default();
        assert!(plan.is_zero_fault());
        let t = truth();
        plan.validate(t.topology()).unwrap();
        assert_eq!(plan.apply_to_truth(&t), t);
        assert!(plan.failed_node_ids(t.topology()).is_empty());
        assert_eq!(plan.surviving_node_ids(t.topology()).len(), 4);
        assert!(!plan.measurement_fails(0, 1, 0));
        assert!(!plan.sample_lost(7));
    }

    #[test]
    fn degraded_links_and_stragglers_change_truth() {
        let t = truth();
        let plan = FaultPlan {
            degraded_links: vec![DegradedLink {
                from_node: 0,
                to_node: 1,
                factor: 0.25,
            }],
            straggler_gpus: vec![StragglerGpu {
                gpu: 12,
                slowdown: 2.0,
            }],
            ..FaultPlan::default()
        };
        plan.validate(t.topology()).unwrap();
        let d = plan.apply_to_truth(&t);
        let (a, b) = (GpuId(0), GpuId(4));
        assert!((d.between(a, b) - t.between(a, b) * 0.25).abs() < 1e-12);
        // Reverse direction untouched by the directed degradation.
        assert_eq!(d.between(b, a), t.between(b, a));
        // Straggler slows both directions of all its links.
        assert!((d.between(GpuId(12), GpuId(0)) - t.between(GpuId(12), GpuId(0)) / 2.0) < 1e-12);
        assert!((d.between(GpuId(0), GpuId(12)) - t.between(GpuId(0), GpuId(12)) / 2.0) < 1e-12);
    }

    #[test]
    fn failed_gpus_cordon_their_node() {
        let topo = ClusterTopology::new(4, 4);
        let plan = FaultPlan {
            failed_gpus: vec![5],
            failed_nodes: vec![3],
            ..FaultPlan::default()
        };
        assert_eq!(plan.failed_node_ids(&topo), vec![NodeId(1), NodeId(3)]);
        assert_eq!(plan.surviving_node_ids(&topo), vec![NodeId(0), NodeId(2)]);
        let excluded = plan.excluded_gpu_ids(&topo);
        assert_eq!(excluded.len(), 8);
        assert!(excluded.contains(&GpuId(4)) && excluded.contains(&GpuId(15)));
    }

    #[test]
    fn validation_rejects_out_of_range_plans() {
        let topo = ClusterTopology::new(2, 4);
        let cases = [
            FaultPlan {
                degraded_links: vec![DegradedLink {
                    from_node: 0,
                    to_node: 9,
                    factor: 0.5,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                degraded_links: vec![DegradedLink {
                    from_node: 0,
                    to_node: 1,
                    factor: 1.5,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                straggler_gpus: vec![StragglerGpu {
                    gpu: 99,
                    slowdown: 2.0,
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                failed_gpus: vec![8],
                ..FaultPlan::default()
            },
            FaultPlan {
                failed_nodes: vec![2],
                ..FaultPlan::default()
            },
            FaultPlan {
                corrupt_pairs: vec![CorruptPair {
                    from_gpu: 0,
                    to_gpu: 1,
                    kind: "gremlin".into(),
                }],
                ..FaultPlan::default()
            },
            FaultPlan {
                measurement_failure_rate: 1.5,
                ..FaultPlan::default()
            },
            FaultPlan {
                sample_loss_rate: f64::NAN,
                ..FaultPlan::default()
            },
        ];
        for plan in cases {
            assert!(
                matches!(
                    plan.validate(&topo),
                    Err(ClusterError::InvalidFaultPlan { .. })
                ),
                "plan should be rejected: {plan:?}"
            );
        }
    }

    #[test]
    fn hash_decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan {
            seed: 7,
            measurement_failure_rate: 0.3,
            sample_loss_rate: 1.0,
            ..FaultPlan::default()
        };
        let fails: Vec<bool> = (0..2000)
            .map(|i| plan.measurement_fails(i % 16, (i / 16) % 16, i % 4))
            .collect();
        let again: Vec<bool> = (0..2000)
            .map(|i| plan.measurement_fails(i % 16, (i / 16) % 16, i % 4))
            .collect();
        assert_eq!(fails, again);
        let rate = fails.iter().filter(|&&f| f).count() as f64 / fails.len() as f64;
        assert!((rate - 0.3).abs() < 0.05, "empirical rate {rate}");
        // A loss rate of exactly 1.0 drops every sample.
        assert!((0..500).all(|i| plan.sample_lost(i)));
    }

    #[test]
    fn corruption_applies_to_first_attempt_only() {
        let plan = FaultPlan {
            corrupt_pairs: vec![CorruptPair {
                from_gpu: 2,
                to_gpu: 3,
                kind: "nan".into(),
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.corruption_for(2, 3, 0), Some(CorruptionKind::Nan));
        assert_eq!(plan.corruption_for(2, 3, 1), None);
        assert_eq!(plan.corruption_for(3, 2, 0), None);
    }

    #[test]
    fn drift_episode_perturbs_truth_deterministically() {
        let t = truth();
        let plan = FaultPlan {
            seed: 11,
            drift: Some(DriftEpisode {
                day: 5,
                daily_sigma: 0.05,
                reversion: 0.25,
            }),
            ..FaultPlan::default()
        };
        assert!(!plan.is_zero_fault());
        plan.validate(t.topology()).unwrap();
        let a = plan.apply_to_truth(&t);
        let b = plan.apply_to_truth(&t);
        assert_eq!(a, b, "drift must replay bit-identically");
        assert_ne!(a, t, "a non-zero drift day must perturb inter-node links");
        // Day 0 is the base matrix itself.
        let day0 = FaultPlan {
            drift: Some(DriftEpisode {
                day: 0,
                daily_sigma: 0.05,
                reversion: 0.25,
            }),
            ..FaultPlan::default()
        };
        assert_eq!(day0.apply_to_truth(&t), t);
        // Drift composes with degraded links: the factor applies to the
        // drifted matrix, not the original.
        let with_link = FaultPlan {
            degraded_links: vec![DegradedLink {
                from_node: 0,
                to_node: 1,
                factor: 0.5,
            }],
            ..plan.clone()
        };
        let composed = with_link.apply_to_truth(&t);
        let (x, y) = (GpuId(0), GpuId(4));
        assert!((composed.between(x, y) - a.between(x, y) * 0.5).abs() < 1e-12);
    }

    #[test]
    fn drift_validation_rejects_bad_episodes() {
        let topo = ClusterTopology::new(2, 4);
        for episode in [
            DriftEpisode {
                day: 3,
                daily_sigma: -0.1,
                reversion: 0.25,
            },
            DriftEpisode {
                day: 3,
                daily_sigma: 0.03,
                reversion: 1.5,
            },
            DriftEpisode {
                day: 366,
                daily_sigma: 0.03,
                reversion: 0.25,
            },
        ] {
            let plan = FaultPlan {
                drift: Some(episode),
                ..FaultPlan::default()
            };
            assert!(
                matches!(
                    plan.validate(&topo),
                    Err(ClusterError::InvalidFaultPlan { .. })
                ),
                "episode should be rejected: {episode:?}"
            );
        }
    }

    fn decode(text: &str) -> FaultPlan {
        FaultPlan::from_json(&json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn drift_round_trips_and_defaults_fill_in() {
        let sparse = decode(r#"{"drift":{"day":4}}"#);
        let d = sparse.drift.unwrap();
        assert_eq!(d.day, 4);
        assert_eq!(d.daily_sigma, 0.03);
        assert_eq!(d.reversion, 0.25);
        // Spelled out in full, the defaults read back as the same plan.
        let full = decode(r#"{"drift":{"day":4,"daily_sigma":0.03,"reversion":0.25}}"#);
        assert_eq!(full, sparse);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan {
            seed: 9,
            failed_nodes: vec![1],
            corrupt_pairs: vec![CorruptPair {
                from_gpu: 0,
                to_gpu: 9,
                kind: "outlier".into(),
            }],
            measurement_failure_rate: 0.05,
            ..FaultPlan::default()
        };
        let back = decode(
            r#"{"seed":9,"failed_nodes":[1],
                "corrupt_pairs":[{"from_gpu":0,"to_gpu":9,"kind":"outlier"}],
                "measurement_failure_rate":0.05}"#,
        );
        assert_eq!(back, plan);
        // Sparse plans parse with defaults filled in.
        let sparse = decode(r#"{"failed_nodes":[0]}"#);
        assert_eq!(sparse.failed_nodes, vec![0]);
        assert_eq!(sparse.measurement_failure_rate, 0.0);
    }
}
