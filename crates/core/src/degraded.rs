//! Graceful degradation: running Algorithm 1 under a cluster-fault
//! episode.
//!
//! [`run_under_faults`] walks the degradation ladder end to end:
//!
//! 1. **Retry** — the robust profiler re-measures pairs whose readings
//!    come back corrupt or failed (at most three retries per pair).
//! 2. **Impute** — pairs that never produce a valid reading get the
//!    link-class mean of the valid measurements, else the nominal spec.
//! 3. **Exclude** — dead GPUs cordon their host node; the configurator
//!    re-runs on the surviving subcluster and reports a
//!    [`ReconfigurationPlan`] diff against the healthy recommendation.
//! 4. **Fall back** — if the surviving profiling corpus is too small or
//!    collapsed to train the MLP memory estimator, screening falls back
//!    to the analytic model with an explicit `fallback` trace event.
//!
//! Under the zero-fault [`FaultPlan`] every rung is a no-op and the
//! recommendation is bit-identical to [`Pipette::run`] — pinned by the
//! `fault_drill` integration tests.

use crate::configurator::{Pipette, PipetteOptions, Recommendation};
use crate::error::ConfigureError;
use crate::memory::{collect_samples_parallel, MemoryEstimator};
use pipette_cluster::{
    Cluster, FaultPlan, MeasurementQuality, MeasurementReport, ProfiledBandwidth,
};
use pipette_cluster::{GpuId, NodeId};
use pipette_model::GptConfig;
use pipette_obs::{CostUnit, EventKind, Trace};

/// How the degraded recommendation differs from what the healthy cluster
/// would have been told to run.
#[derive(Debug, Clone)]
pub struct ReconfigurationPlan {
    /// The recommendation for the full, healthy cluster.
    pub healthy: Recommendation,
    /// GPUs the healthy cluster had.
    pub healthy_gpus: usize,
    /// GPUs that survive the fault plan.
    pub surviving_gpus: usize,
    /// `degraded_seconds / healthy_seconds`: how much slower one
    /// iteration runs after reconfiguration.
    pub slowdown_factor: f64,
    /// Requests served in breaker-degraded (analytic-memory) mode; zero
    /// for one-shot drills, populated by `pipette drill --serve` replays.
    pub degraded_requests: u64,
}

/// Everything a degraded configuration run produced.
#[derive(Debug, Clone)]
pub struct DegradedOutcome {
    /// The recommendation for the surviving subcluster.
    pub recommendation: Recommendation,
    /// The surviving subcluster the recommendation targets, with the
    /// plan's ground-truth faults in its matrix (the whole faulted
    /// cluster when the plan fails no nodes): where the recommendation
    /// is measured.
    pub survivor: Cluster,
    /// Per-pair measurement-quality accounting from the robust profiler.
    pub report: MeasurementReport,
    /// Diff against the healthy recommendation; `None` when no GPUs were
    /// excluded (nothing to reconfigure around).
    pub reconfiguration: Option<ReconfigurationPlan>,
    /// GPUs taken out of service (original cluster indices).
    pub excluded_gpus: Vec<GpuId>,
    /// Whether memory screening fell back to the analytic model because
    /// estimator training degenerated.
    pub used_analytic_fallback: bool,
}

/// Runs Algorithm 1 under a [`FaultPlan`], degrading gracefully instead
/// of panicking: retry → impute → exclude → analytic fallback.
///
/// The zero-fault plan reproduces [`Pipette::run`] bit for bit (same
/// profiler RNG draws, same training corpus, same search).
///
/// # Errors
///
/// [`ConfigureError::Cluster`] if the plan is malformed for this
/// topology; [`ConfigureError::ClusterExhausted`] if it fails every
/// node; plus everything [`Pipette::run`] can return.
pub fn run_under_faults(
    cluster: &Cluster,
    gpt: &GptConfig,
    global_batch: u64,
    options: PipetteOptions,
    plan: &FaultPlan,
    mut trace: Option<&mut Trace>,
) -> Result<DegradedOutcome, ConfigureError> {
    let topo = cluster.topology();
    plan.validate(topo)?;

    if let Some(t) = trace.as_deref_mut() {
        t.push(EventKind::FaultPlanApplied {
            plan_seed: plan.seed,
            degraded_links: plan.degraded_links.len(),
            straggler_gpus: plan.straggler_gpus.len(),
            failed_gpus: plan.failed_gpus.len(),
            failed_nodes: plan.failed_nodes.len(),
            corrupt_pairs: plan.corrupt_pairs.len(),
            measurement_failure_rate: plan.measurement_failure_rate,
            sample_loss_rate: plan.sample_loss_rate,
        });
        if let Some(d) = &plan.drift {
            t.push(EventKind::DriftApplied {
                day: d.day,
                daily_sigma: d.daily_sigma,
                reversion: d.reversion,
            });
        }
    }

    // Rung 3 first, structurally: who is even available?
    let excluded_gpus = plan.excluded_gpu_ids(topo);
    if let Some(t) = trace.as_deref_mut() {
        for &gpu in &excluded_gpus {
            t.push(EventKind::GpuExcluded {
                gpu: gpu.0,
                node: topo.node_of(gpu).0,
            });
        }
    }
    let surviving_nodes: Vec<NodeId> = plan.surviving_node_ids(topo);
    if surviving_nodes.is_empty() {
        return Err(ConfigureError::ClusterExhausted {
            failed_gpus: excluded_gpus.len(),
            total_gpus: topo.num_gpus(),
        });
    }

    // The cluster as the fault episode leaves it, built once: the plan's
    // ground-truth faults (drift, degraded links, stragglers) applied to
    // the healthy matrix. It keeps the healthy cluster's name, so the
    // memory simulator `ClusterRun::new` seeds from it is unchanged.
    let faulted = Cluster::new(
        cluster.name(),
        cluster.gpu().clone(),
        plan.apply_to_truth(cluster.bandwidth()),
        cluster.profiler(),
    );

    // Rungs 1–2: robust profiling of the *full* faulted cluster (the
    // plan's fault coordinates reference original GPU indices). The
    // profiler adds the plan's observation faults and handles retries
    // and imputation.
    let robust_span = trace.as_deref_mut().map(|t| t.open_span("robust_profile"));
    let (profiled, cost) =
        match faulted
            .profiler()
            .profile_robust(faulted.bandwidth(), options.seed, plan)
        {
            Ok(result) => result,
            Err(e) => {
                if let (Some(t), Some(g)) = (trace.as_deref_mut(), robust_span) {
                    t.close_span(g, CostUnit::Pairs, 0);
                }
                return Err(e.into());
            }
        };
    let report = profiled.report().clone();
    if let Some(t) = trace.as_deref_mut() {
        for incident in &report.incidents {
            match incident.quality {
                MeasurementQuality::Recovered {
                    retries,
                    corrupt_samples,
                } => t.push(EventKind::ProfilerRetry {
                    from: incident.from.0,
                    to: incident.to.0,
                    retries,
                    corrupt_samples,
                    recovered: true,
                }),
                MeasurementQuality::Imputed { gib_s, retries } => t.push(EventKind::PairImputed {
                    from: incident.from.0,
                    to: incident.to.0,
                    gib_s,
                    retries,
                }),
            }
        }
        if let Some(g) = robust_span {
            t.close_span(g, CostUnit::Pairs, report.incidents.len() as u64);
        }
    }

    // Restrict the faulted cluster and the measured matrix to the
    // survivors. When nothing was excluded the full profiled matrix
    // (report and all) flows through unchanged, preserving zero-fault
    // bit-identity.
    let (survivor, survivor_profiled) = if excluded_gpus.is_empty() {
        (faulted, profiled)
    } else {
        let matrix = profiled.matrix().select_nodes(&surviving_nodes)?;
        (
            faulted.excluding_nodes(&plan.failed_node_ids(topo))?,
            ProfiledBandwidth::exact(matrix),
        )
    };

    // Rung 4: train the memory estimator on whatever profiling samples
    // survive; degenerate corpora fall back to the analytic model.
    let survivor_pipette =
        Pipette::new(&survivor, gpt, global_batch, options).with_profiled(survivor_profiled, cost);
    let (spec, truth_sim) = survivor_pipette.profiling_spec();
    let samples = collect_samples_parallel(&spec, &truth_sim, options.threads);
    let kept: Vec<_> = samples
        .iter()
        .enumerate()
        .filter(|&(i, _)| !plan.sample_lost(i))
        .map(|(_, s)| *s)
        .collect();
    let (survivor_pipette, used_analytic_fallback) =
        match MemoryEstimator::train_checked(&kept, &options.memory, options.threads) {
            Ok(estimator) => (survivor_pipette.with_memory_estimator(estimator), false),
            Err(degeneracy) => {
                if let Some(t) = trace.as_deref_mut() {
                    t.push(EventKind::Fallback {
                        component: "memory_estimator".to_string(),
                        reason: degeneracy.to_string(),
                    });
                }
                (survivor_pipette.with_analytic_memory(), true)
            }
        };

    let recommendation = survivor_pipette.run_with(trace.as_deref_mut())?;

    // Diff against the healthy baseline when the plan cost us GPUs.
    let reconfiguration = if excluded_gpus.is_empty() {
        None
    } else {
        let healthy = Pipette::new(cluster, gpt, global_batch, options).run()?;
        let slowdown = recommendation.estimated_seconds / healthy.estimated_seconds;
        if let Some(t) = trace {
            t.push(EventKind::Reconfiguration {
                healthy_pp: healthy.config.pp,
                healthy_tp: healthy.config.tp,
                healthy_dp: healthy.config.dp,
                healthy_micro: healthy.plan.micro_batch,
                healthy_seconds: healthy.estimated_seconds,
                degraded_pp: recommendation.config.pp,
                degraded_tp: recommendation.config.tp,
                degraded_dp: recommendation.config.dp,
                degraded_micro: recommendation.plan.micro_batch,
                degraded_seconds: recommendation.estimated_seconds,
                healthy_gpus: topo.num_gpus(),
                surviving_gpus: survivor.topology().num_gpus(),
            });
        }
        Some(ReconfigurationPlan {
            healthy,
            healthy_gpus: topo.num_gpus(),
            surviving_gpus: survivor.topology().num_gpus(),
            slowdown_factor: slowdown,
            degraded_requests: 0,
        })
    };

    Ok(DegradedOutcome {
        recommendation,
        survivor,
        report,
        reconfiguration,
        excluded_gpus,
        used_analytic_fallback,
    })
}
