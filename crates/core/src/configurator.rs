//! Algorithm 1 — the Pipette procedure.
//!
//! ```text
//! BW ← network_profile()
//! for Conf ∈ {(pp, tp, dp) | pp·tp·dp = G}:
//!   for bs_micro ∈ divisors(bs_mini):
//!     if MemEstimator(Conf, bs_micro) > M_limit: continue
//!     while Map ← SA_NextMap(Map):
//!       T ← LatEstimator(Conf, Map, bs_mini, bs_micro, BW)
//!       keep the best (Conf, Map, T)
//! ```
//!
//! Two ablation points mirror the paper's Fig. 6: `PPT-L` (latency +
//! memory estimators, identity mapping) and `PPT-LF` (adding fine-grained
//! worker dedication).

use crate::error::ConfigureError;
use crate::latency::{LatencyExplanation, PipetteLatencyModel};
use crate::mapping::{
    AnnealStats, AnnealerConfig, IncrementalObjective, ParallelTemperingAnnealer, TemperingSchedule,
};
use crate::memory::{
    analytic_prior, CacheCounters, MemoryEstimator, MemoryEstimatorConfig, MemorySample,
    SampleSpec, TrainedEstimatorCache,
};
use crate::parallel;
use crate::report::{DeadlineReport, OverheadReport};
use crate::telemetry::{self, SaTraceObserver};
use pipette_cluster::{Cluster, ProfiledBandwidth, ProfilingCost};
use pipette_model::{candidate_space, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_obs::{CostUnit, EventKind, Metrics, Trace, SCHEMA_VERSION};
use pipette_sim::{ClusterRun, ComputeProfiler, Mapping, MemorySim, ProfiledCompute};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the Pipette procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipetteOptions {
    /// Largest microbatch size considered (the paper sweeps 1–8).
    pub max_micro: u64,
    /// Enable fine-grained worker dedication (PPT-LF); disable for the
    /// PPT-L ablation.
    pub use_worker_dedication: bool,
    /// Simulated-annealing budget per annealed candidate.
    pub annealer: AnnealerConfig,
    /// How many of the best candidates (by identity-mapping estimate) get
    /// an SA pass. Annealing every candidate matches Algorithm 1 exactly
    /// but wastes budget on hopeless configurations.
    pub sa_top_k: usize,
    /// Memory-estimator training protocol (used only when no pretrained
    /// estimator is supplied).
    pub memory: MemoryEstimatorConfig,
    /// Seed for profiling noise and annealing.
    pub seed: u64,
    /// Worker threads for candidate evaluation and the SA passes. Every
    /// unit of work is seeded by its index, so the result is identical at
    /// any thread count; `1` runs fully inline. Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Cap on [`Recommendation::alternatives`] — the paper surfaces a
    /// short ranked list, not the whole (often hundreds-deep) feasible set.
    pub top_n: usize,
    /// Parallel-tempering replicas per SA pass. `1` (the default) runs
    /// the classic single chain, bit-identical to every earlier release.
    /// Deliberately *not* defaulted from `threads`: the recommendation
    /// must never depend on the machine's core count, so widening the
    /// ladder is an explicit opt-in.
    pub replicas: usize,
    /// Iterations each tempering chain runs between replica-exchange
    /// rounds. Ignored when `replicas == 1`.
    pub exchange_interval: usize,
}

impl Default for PipetteOptions {
    fn default() -> Self {
        Self {
            max_micro: 8,
            use_worker_dedication: true,
            annealer: AnnealerConfig::default(),
            sa_top_k: 4,
            memory: MemoryEstimatorConfig::default(),
            seed: 0,
            threads: parallel::default_threads(),
            top_n: 10,
            replicas: 1,
            exchange_interval: TemperingSchedule::default().exchange_interval,
        }
    }
}

impl PipetteOptions {
    /// A configuration small enough for unit tests and doc tests.
    pub fn fast_test() -> Self {
        Self {
            annealer: AnnealerConfig::fast_test(),
            sa_top_k: 2,
            memory: MemoryEstimatorConfig {
                train: pipette_mlp::TrainConfig {
                    iterations: 1_200,
                    learning_rate: 3e-3,
                    batch_size: 64,
                    record_every: 400,
                    seed: 0,
                },
                hidden: 32,
                depth: 2,
                soft_margin: 0.08,
                seed: 0,
            },
            ..Self::default()
        }
    }

    /// The PPT-L ablation: latency + memory estimators, no worker
    /// dedication.
    pub fn latency_only(mut self) -> Self {
        self.use_worker_dedication = false;
        self
    }
}

/// One scored candidate before annealing.
#[derive(Debug, Clone)]
struct Candidate {
    config: ParallelConfig,
    plan: MicrobatchPlan,
    compute: ProfiledCompute,
    identity_estimate: f64,
    /// Term breakdown of `identity_estimate`; recorded only on traced
    /// runs (`None` keeps the untraced path allocation-free).
    explanation: Option<LatencyExplanation>,
}

/// One entry of a ranked list: Pipette's runner-ups and every
/// baseline's ranking are lists of these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alternative {
    /// The ranked `(pp, tp, dp)`.
    pub config: ParallelConfig,
    /// Its microbatch plan.
    pub plan: MicrobatchPlan,
    /// The ranker's latency estimate (seconds): Pipette's Eqs. 3–6 under
    /// the identity mapping, or a baseline's Eq. 1.
    pub estimated_seconds: f64,
}

/// Parallel-tempering shape and exchange outcome of the winning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperingSummary {
    /// Chains per SA pass.
    pub replicas: usize,
    /// Iterations between exchange rounds.
    pub exchange_interval: usize,
    /// Adjacent-pair swap decisions taken across all annealed candidates.
    pub exchanges_attempted: usize,
    /// Decisions that swapped states.
    pub exchanges_accepted: usize,
}

/// Predicted memory position of the recommendation on its GPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryHeadroom {
    /// Estimator-predicted peak bytes per GPU.
    pub predicted_bytes: u64,
    /// Per-GPU memory capacity.
    pub limit_bytes: u64,
    /// Soft margin the screen applied on top of the raw prediction.
    pub soft_margin: f64,
}

impl MemoryHeadroom {
    /// `1 − predicted/limit`: slack before the raw prediction exhausts
    /// the GPU (the soft margin eats into this from below).
    pub fn headroom_fraction(&self) -> f64 {
        1.0 - self.predicted_bytes as f64 / self.limit_bytes as f64
    }
}

/// Pipette's final answer.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Chosen `(pp, tp, dp)`.
    pub config: ParallelConfig,
    /// Chosen microbatch plan.
    pub plan: MicrobatchPlan,
    /// Chosen worker → GPU mapping.
    pub mapping: Mapping,
    /// Estimated iteration latency of the recommendation (seconds).
    pub estimated_seconds: f64,
    /// Eq. 3–6 decomposition of that estimate under the chosen mapping,
    /// with the straggler-link identity; `breakdown.terms.total_seconds`
    /// is bit-identical to `estimated_seconds`.
    pub breakdown: LatencyExplanation,
    /// Predicted memory position of the winner.
    pub memory: MemoryHeadroom,
    /// Configuration-time cost breakdown (Table II).
    pub overhead: OverheadReport,
    /// Candidates examined (Algorithm 1's loop trips).
    pub examined: usize,
    /// Candidates rejected by the memory estimator.
    pub memory_rejected: usize,
    /// Annealing statistics of the winning candidate (None for PPT-L).
    /// Under tempering this is the merged view (counters summed across
    /// replicas, best cost over the ladder).
    pub anneal_stats: Option<AnnealStats>,
    /// Parallel-tempering shape and exchange counters (None for the
    /// single-chain path and for PPT-L).
    pub tempering: Option<TemperingSummary>,
    /// Estimator-cache counters, when a cache was attached.
    pub cache_counters: Option<CacheCounters>,
    /// Runner-up candidates (identity mapping), best first — Pipette's
    /// ranked fallback list should the top pick fail to launch, capped at
    /// [`PipetteOptions::top_n`].
    pub alternatives: Vec<Alternative>,
    /// Logical deadline accounting, when a budget was set via
    /// [`Pipette::with_deadline_units`]; `None` on unbudgeted runs.
    pub deadline: Option<DeadlineReport>,
}

/// The memory model the screen runs against: the learned MLP on the
/// happy path, the analytic baseline \[20\] when estimator training has
/// degenerated under faults (the last rung of the degradation ladder).
#[derive(Debug, Clone)]
enum MemoryModel {
    Learned(MemoryEstimator),
    Analytic {
        margin: f64,
        seq_len: usize,
        vocab: usize,
    },
}

impl MemoryModel {
    fn predict_bytes(&self, features: &[f64; 10]) -> u64 {
        match self {
            MemoryModel::Learned(e) => e.predict_bytes(features),
            MemoryModel::Analytic { seq_len, vocab, .. } => {
                analytic_prior(features, *seq_len, *vocab) as u64
            }
        }
    }

    fn is_runnable_batch(
        &self,
        features: &[[f64; 10]],
        limit_bytes: u64,
        threads: usize,
    ) -> Vec<bool> {
        match self {
            MemoryModel::Learned(e) => e.is_runnable_batch(features, limit_bytes, threads),
            MemoryModel::Analytic {
                margin,
                seq_len,
                vocab,
            } => features
                .iter()
                .map(|f| analytic_prior(f, *seq_len, *vocab) * (1.0 + margin) <= limit_bytes as f64)
                .collect(),
        }
    }

    fn soft_margin(&self) -> f64 {
        match self {
            MemoryModel::Learned(e) => e.soft_margin(),
            MemoryModel::Analytic { margin, .. } => *margin,
        }
    }
}

/// The Pipette configurator (Algorithm 1).
#[derive(Debug, Clone)]
pub struct Pipette<'a> {
    cluster: &'a Cluster,
    gpt: &'a GptConfig,
    global_batch: u64,
    options: PipetteOptions,
    pretrained: Option<MemoryEstimator>,
    estimator_cache: Option<&'a TrainedEstimatorCache>,
    /// A pre-measured bandwidth matrix (robust profiling under faults,
    /// or a serve daemon's stored profile) that replaces the in-run
    /// profiling sweep when present.
    profiled_override: Option<(Arc<ProfiledBandwidth>, ProfilingCost)>,
    /// Screen with the analytic memory model instead of training an MLP
    /// (the degradation ladder's last rung).
    analytic_memory: bool,
    /// Logical deadline budget (Table II units); phases charge against it
    /// and the SA passes are truncated deterministically when it runs low.
    deadline_units: Option<u64>,
}

impl<'a> Pipette<'a> {
    /// Creates a configurator for a cluster, model, and global batch size.
    pub fn new(
        cluster: &'a Cluster,
        gpt: &'a GptConfig,
        global_batch: u64,
        options: PipetteOptions,
    ) -> Self {
        Self {
            cluster,
            gpt,
            global_batch,
            options,
            pretrained: None,
            estimator_cache: None,
            profiled_override: None,
            analytic_memory: false,
            deadline_units: None,
        }
    }

    /// Supplies a pretrained memory estimator (training is once per
    /// cluster; reuse it across configurator invocations).
    pub fn with_memory_estimator(mut self, estimator: MemoryEstimator) -> Self {
        self.pretrained = Some(estimator);
        self
    }

    /// Attaches a [`TrainedEstimatorCache`]: [`Self::run`] looks the
    /// estimator up by its training-input fingerprint and only trains on a
    /// miss. Cached estimators are bit-exact copies of what training
    /// would produce, so recommendations are identical cold or warm. A
    /// supplied pretrained estimator still takes precedence.
    pub fn with_estimator_cache(mut self, cache: &'a TrainedEstimatorCache) -> Self {
        self.estimator_cache = Some(cache);
        self
    }

    /// Supplies an already-measured bandwidth matrix (and its cost) in
    /// place of the in-run profiling sweep. Degraded runs use this to
    /// feed the robustly-profiled matrix of the surviving subcluster into
    /// the search; the serve daemon passes a shared `Arc` so that every
    /// request reads one stored matrix without copying it.
    pub fn with_profiled(
        mut self,
        profiled: impl Into<Arc<ProfiledBandwidth>>,
        cost: ProfilingCost,
    ) -> Self {
        self.profiled_override = Some((profiled.into(), cost));
        self
    }

    /// Screens candidates with the analytic memory model \[20\] instead
    /// of training the MLP — the explicit fallback when estimator
    /// training degenerates (too few / collapsed profiling samples).
    /// The analytic model overestimates less precisely than the learned
    /// one, so recommendations may be more conservative, but the run
    /// always completes.
    pub fn with_analytic_memory(mut self) -> Self {
        self.analytic_memory = true;
        self
    }

    /// Sets a *logical* deadline budget, in the Table II cost units the
    /// trace spans already report: profiled pairs + estimator-training
    /// iterations + screened/estimated candidates + SA iterations. Phases
    /// charge against the budget in a fixed sequential order, so the same
    /// request, budget, and seed spend identically at any thread count.
    /// When the budget runs low the run degrades deterministically —
    /// estimator training falls back to the analytic model, SA passes are
    /// shortened or skipped — and the recommendation carries a
    /// [`DeadlineReport`] with `truncated = true`. Only a budget exhausted
    /// before *any* candidate estimate exists yields
    /// [`ConfigureError::DeadlineExpired`] (there is no best-so-far to
    /// return).
    pub fn with_deadline_units(mut self, budget_units: u64) -> Self {
        self.deadline_units = Some(budget_units);
        self
    }

    /// Rejects unusable inputs before any search work: a bandwidth matrix
    /// carrying NaN/zero/negative links (found once, when the cluster was
    /// built), or a GPU spec with no memory. Catching these up front turns
    /// what would be silent nonsense deep in the cost model into typed
    /// [`ConfigureError`]s.
    fn validate_inputs(&self) -> Result<(), ConfigureError> {
        if let Some((from, to, value)) = self.cluster.first_invalid_link() {
            return Err(ConfigureError::InvalidBandwidth { from, to, value });
        }
        if self.cluster.gpu().memory_bytes == 0 {
            return Err(ConfigureError::InvalidCluster {
                reason: "GPU spec reports zero memory capacity".to_string(),
            });
        }
        Ok(())
    }

    /// The profiling sweep for this cluster/model/batch (the paper's
    /// ≤ 4-node protocol over a ladder of model scales) and the
    /// ground-truth simulator it runs against.
    pub fn profiling_spec(&self) -> (SampleSpec, MemorySim) {
        let truth = ClusterRun::new(self.cluster, self.gpt).memory_sim();
        let nodes = self.cluster.topology().num_nodes().min(4);
        let gpus_per_node = self.cluster.topology().gpus_per_node();
        let mut gpu_counts: Vec<usize> = (1..=nodes).map(|n| n * gpus_per_node).collect();
        gpu_counts.dedup();
        let mut global_batches = vec![
            self.global_batch.min(128),
            self.global_batch.min(256),
            self.global_batch,
        ];
        global_batches.sort_unstable();
        global_batches.dedup();
        let spec = SampleSpec {
            gpu_counts,
            gpus_per_node,
            models: model_ladder(self.gpt),
            global_batches,
            max_micro: self.options.max_micro,
        };
        (spec, truth)
    }

    /// Runs Algorithm 1.
    ///
    /// # Errors
    ///
    /// [`ConfigureError::NoValidBatchSplit`] if no configuration divides
    /// the global batch; [`ConfigureError::NoFeasibleConfig`] if every
    /// candidate is rejected by the memory estimator.
    pub fn run(&self) -> Result<Recommendation, ConfigureError> {
        self.run_with(None)
    }

    /// [`Self::run`] recording a structured event trace of the whole
    /// procedure — memory-estimator training, the screen, every
    /// candidate's Eq. 3–6 latency terms, the SA passes, and the final
    /// recommendation — into `trace` (see DESIGN.md §7d for the schema).
    ///
    /// Tracing never changes the search: the recommendation is
    /// bit-identical to [`Self::run`], and the event stream itself is
    /// identical at any `threads` setting (parallel SA passes record into
    /// child traces absorbed in candidate order).
    pub fn run_traced(&self, trace: &mut Trace) -> Result<Recommendation, ConfigureError> {
        self.run_with(Some(trace))
    }

    pub(crate) fn run_with(
        &self,
        mut trace: Option<&mut Trace>,
    ) -> Result<Recommendation, ConfigureError> {
        let topo = self.cluster.topology();
        self.validate_inputs()?;
        if let Some(t) = trace.as_deref_mut() {
            t.push(EventKind::RunStart {
                schema: SCHEMA_VERSION,
                seed: self.options.seed,
                gpus: topo.num_gpus(),
                global_batch: self.global_batch,
            });
        }

        // Logical deadline accounting: each phase charges the same units
        // its trace span reports (the Table II cost model), sequentially,
        // so the spend — and every truncation decision below — is a pure
        // function of the request, budget, and seed.
        let budget = self.deadline_units;
        let mut spent_units: u64 = 0;
        let mut truncated = false;

        // Line 1: profile the actual bandwidth matrix (or read the
        // caller's robustly-profiled one in place — no in-run profiling,
        // hence no profile span and no profiling charge; the robust path
        // records its own).
        let profiled_here;
        let (profiled, profiling_cost) = match &self.profiled_override {
            Some((p, c)) => (&**p, *c),
            None => {
                let span = trace.as_deref_mut().map(|t| t.open_span("profile"));
                let result = self
                    .cluster
                    .profiler()
                    .profile(self.cluster.bandwidth(), self.options.seed);
                let gpus = topo.num_gpus() as u64;
                let pairs = gpus * gpus.saturating_sub(1);
                spent_units = spent_units.saturating_add(pairs);
                if let (Some(t), Some(g)) = (trace.as_deref_mut(), span) {
                    t.close_span(g, CostUnit::Pairs, pairs);
                }
                profiled_here = result.0;
                (&profiled_here, result.1)
            }
        };

        // Deadline pre-check: estimator training is the dominant Table II
        // cost. If the remaining budget cannot cover the training
        // protocol, skip straight to the analytic rung instead of blowing
        // the budget inside training.
        let train_cost_units = self.options.memory.train.iterations as u64;
        let train_over_budget = !self.analytic_memory
            && self.pretrained.is_none()
            && budget.is_some_and(|b| spent_units.saturating_add(train_cost_units) > b);

        // Memory model: pretrained > cached > trained now — or the
        // analytic fallback, which skips training entirely.
        let (memory_model, training_time) = if self.analytic_memory || train_over_budget {
            if train_over_budget {
                truncated = true;
                if let Some(t) = trace.as_deref_mut() {
                    t.push(EventKind::Fallback {
                        component: "memory_estimator".to_string(),
                        reason: format!(
                            "deadline budget: training needs {train_cost_units} units, {} remaining",
                            budget.unwrap_or(0).saturating_sub(spent_units)
                        ),
                    });
                }
            }
            let analytic = MemoryModel::Analytic {
                margin: self.options.memory.soft_margin,
                seq_len: self.gpt.seq_len,
                vocab: self.gpt.vocab,
            };
            (analytic, Duration::ZERO)
        } else {
            let mem_span = trace.as_deref_mut().map(|t| t.open_span("mem_train"));
            let (estimator, training_time, cached) = match &self.pretrained {
                Some(e) => (e.clone(), Duration::ZERO, true),
                None => {
                    // Without an attached cache, a throwaway one trains
                    // (it never hits); the trace's cache counters follow
                    // the attached cache only.
                    let throwaway = TrainedEstimatorCache::in_memory();
                    let cache = self.estimator_cache.unwrap_or(&throwaway);
                    // pipette-lint: allow(D1) -- wall time feeds the cache-timing extra only; the recommendation depends on the seed alone
                    let start = Instant::now();
                    let (spec, truth) = self.profiling_spec();
                    let hits_before = cache.hits();
                    let e = cache.get_or_train(
                        &spec,
                        self.gpt,
                        &self.options.memory,
                        &truth,
                        self.options.threads,
                    );
                    (e, start.elapsed(), cache.hits() > hits_before)
                }
            };
            if !cached {
                // Reused estimators (pretrained or cache hit) cost nothing
                // — that is the point of reuse.
                spent_units =
                    spent_units.saturating_add(estimator.train_summary().iterations as u64);
            }
            if let Some(t) = trace.as_deref_mut() {
                let summary = estimator.train_summary();
                t.push(EventKind::MemTrain {
                    samples: summary.samples,
                    iterations: summary.iterations,
                    final_loss: summary.final_loss,
                    cached,
                });
                for (i, &loss) in summary.loss_curve.iter().enumerate() {
                    t.push(EventKind::MemLoss {
                        iteration: i * summary.record_every,
                        loss,
                    });
                }
                if let Some(cache) = self.estimator_cache {
                    let c = cache.counters();
                    t.push(EventKind::CacheStats {
                        hits: c.hits,
                        misses: c.misses,
                        corrupt: c.corrupt,
                    });
                }
                if let Some(g) = mem_span {
                    t.close_span(g, CostUnit::Iterations, summary.iterations as u64);
                }
            }
            (MemoryModel::Learned(estimator), training_time)
        };

        let limit = self.cluster.gpu().memory_bytes;
        let profiler = ComputeProfiler::default();
        let gpu = self.cluster.gpu().clone();
        let latency = PipetteLatencyModel::new(profiled, self.gpt);

        // Lines 3-7: list the candidate space (cheap), then memory-filter
        // + profile + estimate every entry on the worker pool.
        let space = candidate_space(
            topo.num_gpus(),
            topo.gpus_per_node(),
            self.gpt.n_layers,
            self.global_batch,
            self.options.max_micro,
        );

        // Line 5: the memory screen. All candidates go through the MLP in
        // a single batched forward pass — bit-identical to screening them
        // one row at a time (rows are independent), but one matmul per
        // layer instead of `examined` of them.
        let screen_span = trace.as_deref_mut().map(|t| t.open_span("mem_screen"));
        let features: Vec<[f64; 10]> = space
            .iter()
            .flat_map(|(cfg, plans)| plans.iter().map(move |&plan| (*cfg, plan)))
            .map(|(cfg, plan)| {
                MemorySample::features_for(self.gpt, topo.num_gpus(), cfg, plan, self.global_batch)
            })
            .collect();
        let examined = features.len();
        // pipette-lint: allow(D1) -- wall time feeds the screening-latency trace extra only; the accept/reject decisions are seeded
        let t0 = Instant::now();
        let runnable = memory_model.is_runnable_batch(&features, limit, self.options.threads);
        let mem_time = t0.elapsed();
        spent_units = spent_units.saturating_add(examined as u64);

        if let Some(t) = trace.as_deref_mut() {
            let accepted = runnable.iter().filter(|&&r| r).count();
            t.push(EventKind::MemScreen {
                examined,
                accepted,
                rejected: examined - accepted,
            });
            if let Some(g) = screen_span {
                t.close_span(g, CostUnit::Candidates, examined as u64);
            }
        }

        // Deadline gate: past this point a recommendation can always be
        // assembled from best-so-far state, so this is the only place a
        // budget turns into a hard error — before any candidate has been
        // estimated. Every span opened so far is closed, so the trace
        // stays balanced.
        if let Some(b) = budget {
            if spent_units >= b {
                return Err(ConfigureError::DeadlineExpired {
                    budget_units: b,
                    spent_units,
                });
            }
        }

        // The plans of one configuration differ only in message size, so
        // each unit of work is one configuration: it gathers the identity
        // mapping's links once, then profiles and prices each runnable
        // plan. When tracing, pricing computes the term breakdown instead
        // of the bare estimate; `breakdown.total_seconds` is bit-identical
        // to `estimate()` (see `latency::terms`), so the search is
        // unchanged. A unit depends only on its own configuration, and the
        // results flatten back into candidate-space order, so the fold below
        // reproduces the sequential one-plan-at-a-time result exactly.
        let tracing = trace.is_some();
        let estimate_span = trace.as_deref_mut().map(|t| t.open_span("estimates"));
        let mut screened = runnable.as_slice();
        let configs: Vec<(ParallelConfig, &[MicrobatchPlan], &[bool])> = space
            .iter()
            .map(|(cfg, plans)| {
                let (fits, rest) = screened.split_at(plans.len());
                screened = rest;
                (*cfg, plans.as_slice(), fits)
            })
            .collect();
        let evaluated = parallel::ordered_map(self.options.threads, &configs, |_, unit| {
            let &(cfg, plans, runnable) = unit;
            if !runnable.contains(&true) {
                return vec![None; plans.len()];
            }
            let links = latency.gather(&Mapping::identity(cfg, *topo));
            plans
                .iter()
                .zip(runnable)
                .map(|(&plan, &fits)| {
                    if !fits {
                        return None;
                    }
                    let compute = profiler.profile(
                        self.cluster.bandwidth(),
                        &gpu,
                        self.gpt,
                        cfg,
                        plan,
                        self.options.seed,
                    );
                    let (est, explanation) = if tracing {
                        let ex = links.breakdown(plan, &compute);
                        (ex.terms.total_seconds, Some(ex))
                    } else {
                        (links.estimate(plan, &compute), None)
                    };
                    Some(Candidate {
                        config: cfg,
                        plan,
                        compute,
                        identity_estimate: est,
                        explanation,
                    })
                })
                .collect::<Vec<_>>()
        });

        let mut candidates: Vec<Candidate> = Vec::with_capacity(examined);
        let mut rejected = 0usize;
        for (i, cand) in evaluated.into_iter().flatten().enumerate() {
            match cand {
                Some(c) => {
                    if let (Some(t), Some(ex)) = (trace.as_deref_mut(), c.explanation) {
                        telemetry::push_latency_estimate(t, i, c.config, c.plan, &ex);
                    }
                    candidates.push(c);
                }
                None => rejected += 1,
            }
        }
        spent_units = spent_units.saturating_add(candidates.len() as u64);
        if let Some(t) = trace.as_deref_mut() {
            if let Some(g) = estimate_span {
                t.close_span(g, CostUnit::Candidates, candidates.len() as u64);
            }
        }

        if space.is_empty() {
            return Err(ConfigureError::NoValidBatchSplit {
                global_batch: self.global_batch,
            });
        }
        if candidates.is_empty() {
            return Err(ConfigureError::NoFeasibleConfig {
                examined,
                memory_rejected: rejected,
            });
        }
        candidates.sort_by(|a, b| a.identity_estimate.total_cmp(&b.identity_estimate));

        // Lines 9-15: fine-grained worker dedication on the most promising
        // candidates.
        let mut best_idx = 0usize;
        let mut best_mapping = Mapping::identity(candidates[0].config, *topo);
        let mut best_t = candidates[0].identity_estimate;
        let mut best_stats: Option<AnnealStats> = None;
        let mut tempering_summary: Option<TemperingSummary> = None;
        let mut sa_time = Duration::ZERO;
        let mut sa_evaluations = 0u64;
        let mut sa_accepted = 0u64;
        let mut sa_improvements = 0u64;

        if self.options.use_worker_dedication {
            // Every annealed candidate runs a tempering ladder; one rung
            // replays the single chain draw for draw. Each candidate is
            // seeded by its index, each rung by (candidate, rung), and
            // exchanges are keyed by (round, pair), so the result is
            // identical at any thread count. The thread budget splits
            // between candidates and rungs: `outer` workers map over the
            // candidates and each ladder runs on `threads / outer` threads,
            // so one rung parallelizes across candidates and a ladder at
            // least as wide as the budget parallelizes across its rungs.
            let anneal_span = trace.as_deref_mut().map(|t| t.open_span("anneal"));
            let replicas = self.options.replicas.max(1);
            let schedule = TemperingSchedule {
                replicas,
                exchange_interval: self.options.exchange_interval.max(1),
                ..TemperingSchedule::default()
            };
            let k = self.options.sa_top_k.max(1).min(candidates.len());
            let outer = (self.options.threads / replicas).clamp(1, k);
            let inner = self.options.threads / outer;
            // Deadline caps, charged sequentially in candidate order so the
            // step budget — and thus the annealed result — never depends on
            // worker scheduling. The remaining budget buys `remaining /
            // replicas` steps per rung; a zero cap still runs the opening
            // evaluations, so a fully spent budget returns the
            // identity-mapped candidate instead of erroring.
            let full = self.options.annealer.iterations;
            let caps: Vec<usize> = (0..k)
                .map(|_| {
                    let per_rung = budget.map_or(u64::MAX, |b| {
                        b.saturating_sub(spent_units) / replicas as u64
                    });
                    let cap = full.min(usize::try_from(per_rung).unwrap_or(usize::MAX));
                    truncated |= cap < full;
                    spent_units =
                        spent_units.saturating_add((cap as u64).saturating_mul(replicas as u64));
                    cap
                })
                .collect();
            // Traced passes record into child traces, one per rung and one
            // for the exchange decisions (which has no events and no span
            // at one rung), absorbed below in candidate order.
            let proto: Option<&Trace> = trace.as_deref();
            let annealed = parallel::ordered_map(outer, &candidates[..k], |i, cand| {
                let mut sa_cfg = self.options.annealer;
                sa_cfg.seed = self.options.seed.wrapping_add(i as u64);
                sa_cfg.iterations = caps[i];
                let ladder = ParallelTemperingAnnealer::new(sa_cfg, schedule);
                let initial = Mapping::identity(cand.config, *topo);
                let make_objective = |_rung: usize, init: &Mapping| {
                    IncrementalObjective::new(
                        latency.matrix(),
                        self.gpt,
                        cand.plan,
                        &cand.compute,
                        init,
                    )
                };
                let Some(proto) = proto else {
                    return (ladder.anneal(inner, &initial, make_objective), Vec::new());
                };
                let mut children: Vec<Trace> = (0..replicas).map(|_| proto.child()).collect();
                let mut exchange = proto.child();
                let exchange_span = (replicas > 1).then(|| exchange.open_span("exchange"));
                let mut observers: Vec<SaTraceObserver> = children
                    .iter_mut()
                    .enumerate()
                    .map(|(r, c)| SaTraceObserver::for_replica(c, i, r))
                    .collect();
                let result = ladder.anneal_observed(
                    inner,
                    &initial,
                    make_objective,
                    &mut observers,
                    |rec| telemetry::push_pt_exchange(&mut exchange, i, rec),
                );
                for (observer, stats) in observers.into_iter().zip(&result.2.replica_stats) {
                    observer.finish(stats);
                }
                if let Some(g) = exchange_span {
                    let rounds = result.2.exchanges_attempted as u64;
                    exchange.close_span(g, CostUnit::Rounds, rounds);
                }
                children.push(exchange);
                (result, children)
            });

            let (mut exchanges_attempted, mut exchanges_accepted) = (0usize, 0usize);
            for (i, ((mapping, cost, stats), children)) in annealed.into_iter().enumerate() {
                if let Some(t) = trace.as_deref_mut() {
                    for child in children {
                        t.absorb(child);
                    }
                }
                sa_time += stats.elapsed;
                exchanges_attempted += stats.exchanges_attempted;
                exchanges_accepted += stats.exchanges_accepted;
                let merged = stats.merged();
                sa_evaluations += merged.evaluations as u64;
                sa_accepted += merged.accepted as u64;
                sa_improvements += merged.improvements as u64;
                if cost < best_t {
                    best_idx = i;
                    best_mapping = mapping;
                    best_t = cost;
                    best_stats = Some(merged);
                }
            }
            if replicas > 1 {
                tempering_summary = Some(TemperingSummary {
                    replicas,
                    exchange_interval: schedule.exchange_interval,
                    exchanges_attempted,
                    exchanges_accepted,
                });
            }
            if let (Some(t), Some(g)) = (trace.as_deref_mut(), anneal_span) {
                t.close_span(g, CostUnit::Evals, sa_evaluations);
            }
        }

        let winner = &candidates[best_idx];
        let (best_cfg, best_plan) = (winner.config, winner.plan);

        // The winner's breakdown under its *final* (possibly annealed)
        // mapping; the batch and incremental paths share one reduction, so
        // this recomputation reproduces `best_t` bit for bit.
        let breakdown = latency.breakdown(best_cfg, &best_mapping, best_plan, &winner.compute);
        debug_assert_eq!(breakdown.terms.total_seconds.to_bits(), best_t.to_bits());
        let memory = MemoryHeadroom {
            predicted_bytes: memory_model.predict_bytes(&MemorySample::features_for(
                self.gpt,
                topo.num_gpus(),
                best_cfg,
                best_plan,
                self.global_batch,
            )),
            limit_bytes: limit,
            soft_margin: memory_model.soft_margin(),
        };

        let alternatives: Vec<Alternative> = candidates
            .iter()
            .filter(|c| !(c.config == best_cfg && c.plan == best_plan))
            .map(|c| Alternative {
                config: c.config,
                plan: c.plan,
                estimated_seconds: c.identity_estimate,
            })
            .take(self.options.top_n)
            .collect();

        if let Some(t) = trace {
            let finalize_span = t.open_span("finalize");
            t.push(EventKind::MemHeadroom {
                predicted_bytes: memory.predicted_bytes,
                limit_bytes: memory.limit_bytes,
                soft_margin: memory.soft_margin,
                headroom_fraction: memory.headroom_fraction(),
            });
            telemetry::push_recommendation(t, best_cfg, best_plan, &breakdown);
            if let Some(b) = budget {
                t.push(EventKind::Deadline {
                    budget_units: b,
                    spent_units,
                    truncated,
                });
            }
            for (rank, alt) in alternatives.iter().enumerate() {
                t.push(EventKind::Alternative {
                    rank: rank + 1,
                    pp: alt.config.pp,
                    tp: alt.config.tp,
                    dp: alt.config.dp,
                    micro_batch: alt.plan.micro_batch,
                    seconds: alt.estimated_seconds,
                    delta_seconds: alt.estimated_seconds - best_t,
                });
            }
            t.close_span(
                finalize_span,
                CostUnit::Candidates,
                alternatives.len() as u64,
            );

            // Run-level metrics, flushed after the last span so the
            // stream ends with a fixed counter/histogram block the
            // `explain` subcommand can render without replaying events.
            let mut metrics = Metrics::new();
            metrics.counter("candidates_examined").add(examined as u64);
            metrics
                .counter("candidates_memory_rejected")
                .add(rejected as u64);
            metrics
                .counter("candidates_estimated")
                .add(candidates.len() as u64);
            metrics.counter("sa_evaluations").add(sa_evaluations);
            metrics.counter("sa_accepted").add(sa_accepted);
            metrics.counter("sa_improvements").add(sa_improvements);
            if let Some(ts) = &tempering_summary {
                metrics
                    .counter("pt_exchanges_attempted")
                    .add(ts.exchanges_attempted as u64);
                metrics
                    .counter("pt_exchanges_accepted")
                    .add(ts.exchanges_accepted as u64);
            }
            let estimates = metrics.histogram("candidate_estimate_seconds");
            for c in &candidates {
                estimates.record(c.identity_estimate);
            }
            metrics.emit_into(t);
        }

        Ok(Recommendation {
            config: best_cfg,
            plan: best_plan,
            mapping: best_mapping,
            estimated_seconds: best_t,
            breakdown,
            memory,
            overhead: OverheadReport {
                bandwidth_profiling: Duration::from_secs_f64(profiling_cost.seconds),
                simulated_annealing: sa_time,
                memory_estimation: mem_time,
                memory_training: training_time,
            },
            examined,
            memory_rejected: rejected,
            anneal_stats: best_stats,
            tempering: tempering_summary,
            cache_counters: self.estimator_cache.map(TrainedEstimatorCache::counters),
            alternatives,
            deadline: budget.map(|b| DeadlineReport {
                budget_units: b,
                spent_units,
                truncated,
            }),
        })
    }
}

/// A ladder of model scales around the target, used to give the memory
/// estimator coverage in `n_layers`/`hidden`/`n_heads` (Eq. 7 features).
fn model_ladder(gpt: &GptConfig) -> Vec<GptConfig> {
    let mut ladder = vec![*gpt];
    let heads = gpt.n_heads;
    let scaled_hidden =
        |num: usize, den: usize| ((gpt.hidden * num / den) / heads * heads).max(heads);
    for (ln, ld, hn, hd) in [
        (1usize, 2usize, 1usize, 2usize),
        (3, 4, 3, 4),
        (1, 2, 1, 1),
        (1, 1, 1, 2),
        (1, 4, 1, 2),
    ] {
        let layers = (gpt.n_layers * ln / ld).max(2);
        let hidden = scaled_hidden(hn, hd);
        let candidate = GptConfig::new(layers, hidden, heads, gpt.seq_len, gpt.vocab);
        if !ladder.contains(&candidate) {
            ladder.push(candidate);
        }
    }
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;
    use pipette_sim::SimError;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(3),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    /// The memory estimator `fast_test` options train for a 64-sample
    /// batch of `gpt` on `cluster`, through a cache as `run` trains it.
    fn trained_estimator(cluster: &Cluster, gpt: &GptConfig) -> MemoryEstimator {
        let opts = PipetteOptions::fast_test();
        let (spec, truth) = Pipette::new(cluster, gpt, 64, opts).profiling_spec();
        TrainedEstimatorCache::in_memory().get_or_train(&spec, gpt, &opts.memory, &truth, 1)
    }

    #[test]
    fn recommends_a_runnable_configuration() {
        let (cluster, gpt) = setup();
        let rec = Pipette::new(&cluster, &gpt, 64, PipetteOptions::fast_test())
            .run()
            .expect("feasible space");
        // The recommendation must actually run on the ground-truth cluster.
        let run = ClusterRun::new(&cluster, &gpt);
        let measured = run
            .execute(rec.config, &rec.mapping, rec.plan)
            .expect("Pipette must not recommend OOM configs");
        assert!(measured.iteration_seconds > 0.0);
        assert!(rec.examined > 0);
    }

    #[test]
    fn worker_dedication_never_hurts_the_estimate() {
        let (cluster, gpt) = setup();
        let mut opts = PipetteOptions::fast_test();
        opts.seed = 5;
        let with_sa = Pipette::new(&cluster, &gpt, 64, opts).run().unwrap();
        let without = Pipette::new(&cluster, &gpt, 64, opts.latency_only())
            .run()
            .unwrap();
        assert!(with_sa.estimated_seconds <= without.estimated_seconds + 1e-9);
        assert!(without.anneal_stats.is_none());
    }

    #[test]
    fn overhead_report_is_populated() {
        let (cluster, gpt) = setup();
        let rec = Pipette::new(&cluster, &gpt, 64, PipetteOptions::fast_test())
            .run()
            .unwrap();
        assert!(rec.overhead.bandwidth_profiling.as_secs_f64() > 0.0);
        assert!(rec.overhead.memory_training.as_secs_f64() > 0.0);
        assert!(rec.overhead.total().as_secs_f64() > 0.0);
    }

    #[test]
    fn pretrained_estimator_is_reused() {
        let (cluster, gpt) = setup();
        let rec = Pipette::new(&cluster, &gpt, 64, PipetteOptions::fast_test())
            .with_memory_estimator(trained_estimator(&cluster, &gpt))
            .run()
            .unwrap();
        assert_eq!(rec.overhead.memory_training, Duration::ZERO);
    }

    #[test]
    fn infeasible_batch_is_reported() {
        let (cluster, _gpt) = setup();
        // A ~51B-parameter model: even fully split over 16 V100s, the
        // model state alone exceeds every GPU.
        let huge = GptConfig::new(16, 16384, 32, 2048, 51200);
        let err = Pipette::new(&cluster, &huge, 512, PipetteOptions::fast_test())
            .run()
            .expect_err("a 51B model cannot fit on 16 V100s");
        assert!(matches!(err, ConfigureError::NoFeasibleConfig { .. }));
        // And the ground truth agrees that e.g. the MLM-style config OOMs.
        let run = ClusterRun::new(&cluster, &huge);
        let cfg = ParallelConfig::new(2, 8, 1);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        assert!(matches!(
            run.execute(cfg, &mapping, MicrobatchPlan::new(512, 8).unwrap()),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn an_unsplittable_batch_and_an_empty_plan_list_are_different_errors() {
        let (cluster, gpt) = setup();
        let estimator = trained_estimator(&cluster, &gpt);
        // One layer allows only pp = 1, so every dp = 16 / tp is even and
        // none divides 13.
        let shallow = GptConfig::new(1, 1024, 16, 2048, 51200);
        let err = Pipette::new(&cluster, &shallow, 13, PipetteOptions::fast_test())
            .with_memory_estimator(estimator.clone())
            .run()
            .expect_err("no dp divides 13");
        assert_eq!(err, ConfigureError::NoValidBatchSplit { global_batch: 13 });
        // With `max_micro = 0` every configuration splits the batch, but
        // none has a plan.
        let mut opts = PipetteOptions::fast_test();
        opts.max_micro = 0;
        let err = Pipette::new(&cluster, &gpt, 64, opts)
            .with_memory_estimator(estimator)
            .run()
            .expect_err("no plan under max_micro = 0");
        assert_eq!(
            err,
            ConfigureError::NoFeasibleConfig {
                examined: 0,
                memory_rejected: 0
            }
        );
    }

    #[test]
    fn model_ladder_contains_target_and_smaller() {
        let g = GptConfig::gpt_3_1b();
        let ladder = model_ladder(&g);
        assert!(ladder.contains(&g));
        assert!(ladder.iter().any(|m| m.num_params() < g.num_params()));
        for m in &ladder {
            assert_eq!(m.hidden % m.n_heads, 0);
        }
    }
}
