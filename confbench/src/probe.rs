//! Per-layer timing from outside the program: each probe times a call
//! into one layer's public functions, on the same inputs the workload
//! sends.

use pipette::configurator::{Pipette, PipetteOptions, Recommendation};
use pipette::latency::PipetteLatencyModel;
use pipette::mapping::{
    Annealer, AnnealerConfig, IncrementalObjective, ParallelTemperingAnnealer, TemperingSchedule,
};
use pipette::memory::{
    collect_samples_parallel, estimator_fingerprint, MemoryEstimator, MemorySample, SampleSpec,
    TrainedEstimatorCache,
};
use pipette_cli::JobSpec;
use pipette_cluster::{Cluster, ProfiledBandwidth, ProfilingCost};
use pipette_model::{BatchConfig, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_obs::{SpanTree, Trace, TraceConfig};
use pipette_sim::{ClusterRun, ComputeProfiler, Mapping, MemorySim};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The Algorithm-1 phases `Pipette::run_traced` opens as top-level spans.
pub const PHASES: [&str; 6] = [
    "profile",
    "mem_train",
    "mem_screen",
    "estimates",
    "anneal",
    "finalize",
];

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The configurator options a job spec asks for — the same mapping the
/// CLI and the serve handler apply.
pub fn options_for(spec: &JobSpec) -> PipetteOptions {
    let mut memory = pipette::memory::MemoryEstimatorConfig::default();
    memory.train.iterations = spec.memory_training_iterations;
    PipetteOptions {
        max_micro: spec.max_micro,
        use_worker_dedication: spec.worker_dedication,
        annealer: AnnealerConfig {
            iterations: spec.sa_iterations,
            ..AnnealerConfig::default()
        },
        memory,
        seed: spec.seed,
        replicas: spec.replicas,
        exchange_interval: spec.exchange_interval,
        ..PipetteOptions::default()
    }
}

/// Everything the probes measured, summed over the probed requests.
#[derive(Debug, Default)]
pub struct Layers {
    /// `JobSpec::build_cluster`, ms per call.
    pub build_ms: Vec<f64>,
    /// `NetworkProfiler::profile`, ms per call.
    pub profile_ms: Vec<f64>,
    /// `collect_samples_parallel`, ms per distinct estimator.
    pub corpus_ms: Vec<f64>,
    /// `ClusterRun::execute` of the recommendation, ms per call.
    pub execute_ms: Vec<f64>,
    /// `MemoryEstimator::train_with_threads`, ms per distinct estimator.
    pub train_ms: Vec<f64>,
    /// Training iterations run by the train probes.
    pub train_iters: f64,
    /// `TrainedEstimatorCache::get_or_train`, ms per call.
    pub cache_lookup_ms: Vec<f64>,
    /// Candidate rows screened by `is_runnable_batch`, and the seconds.
    pub predictions: (f64, f64),
    /// `PipetteLatencyModel::estimate` calls, and the seconds.
    pub estimates: (f64, f64),
    /// Wall time of the SA passes per probed request.
    pub anneal_ms: Vec<f64>,
    /// SA evaluations and accepted moves.
    pub evals: f64,
    /// Accepted SA moves.
    pub accepted: f64,
    /// Relative improvement of each SA pass over the identity mapping.
    pub improvements: Vec<f64>,
    /// Tempering exchange decisions taken and accepted.
    pub exchanges: (f64, f64),
    /// Wall time per phase span, summed over the traced calls.
    pub phase_ms: [f64; 6],
    /// Harness-measured wall time of the traced calls.
    pub traced_ms: f64,
    /// Wall time outside every phase span: before the first span,
    /// between spans, and after the last one.
    pub gaps_ms: [f64; 3],
    /// Summed [`untimed_allowance_ms`] of the traced calls.
    pub allowance_ms: f64,
    /// Traced calls made.
    pub traced_calls: usize,
    /// Requests the kernel probes covered.
    pub requests: usize,
    /// SA evaluations the traced configure calls ran (their `anneal`
    /// spans' cost).
    pub program_evals: u64,
}

/// Runs `f` at least once and until ~3 ms have passed; returns the
/// last result, the repetitions and their total seconds.
fn repeat<R>(mut f: impl FnMut() -> R) -> (R, usize, f64) {
    let start = Instant::now();
    let mut reps = 1;
    let mut out = black_box(f());
    while start.elapsed() < Duration::from_millis(3) && reps < 10_000 {
        out = black_box(f());
        reps += 1;
    }
    (out, reps, start.elapsed().as_secs_f64())
}

/// Time a traced configure call may spend outside every phase span: 1 ms
/// plus 5% of the call, plus 10 ns per GPU pair for the input checks
/// that run before the first span (the bandwidth-matrix validation and
/// copy, both quadratic in the GPU count).
pub fn untimed_allowance_ms(call_ms: f64, gpus: usize) -> f64 {
    1.0 + 0.05 * call_ms + 1e-5 * (gpus * gpus) as f64
}

/// `Pipette::run_traced` with wall-clock spans, timed from outside; the
/// top-level spans' wall time is added per phase, and the time outside
/// them is located. A top-level span that is not one of [`PHASES`] is an
/// error.
pub fn traced_run(
    pipette: &Pipette,
    gpus: usize,
    layers: &mut Layers,
) -> Result<Recommendation, String> {
    let mut trace = Trace::new(TraceConfig {
        wall_clock: true,
        ..TraceConfig::default()
    });
    let start = Instant::now();
    let rec = pipette
        .run_traced(&mut trace)
        .map_err(|e| format!("configure: {e}"))?;
    let call_ms = ms(start.elapsed());
    let tree = SpanTree::from_trace(&trace).map_err(|e| format!("span tree: {e}"))?;
    let stamp = |seq: usize| {
        trace
            .events()
            .get(seq)
            .and_then(|e| e.wall_ms)
            .unwrap_or(0.0)
    };
    let mut last_close = 0.0;
    for (k, &root) in tree.roots().iter().enumerate() {
        let node = &tree.nodes()[root];
        let Some(i) = PHASES.iter().position(|p| *p == node.name) else {
            return Err(format!("unexpected top-level span {:?}", node.name));
        };
        layers.phase_ms[i] += node.wall_ms.unwrap_or(0.0);
        if node.name == "anneal" {
            layers.program_evals += node.cost;
        }
        layers.gaps_ms[usize::from(k > 0)] += stamp(node.open_seq) - last_close;
        last_close = stamp(node.close_seq);
    }
    layers.gaps_ms[2] += (call_ms - last_close).max(0.0);
    layers.traced_ms += call_ms;
    layers.traced_calls += 1;
    layers.allowance_ms += untimed_allowance_ms(call_ms, gpus);
    Ok(rec)
}

/// Times `ClusterRun::execute` of a recommendation.
pub fn execute(
    cluster: &Cluster,
    gpt: &GptConfig,
    rec: &Recommendation,
    layers: &mut Layers,
) -> Result<pipette_sim::Measured, String> {
    let runner = ClusterRun::new(cluster, gpt);
    let start = Instant::now();
    let measured = runner
        .execute(rec.config, &rec.mapping, rec.plan)
        .map_err(|e| format!("verification: {e}"))?;
    layers.execute_ms.push(ms(start.elapsed()));
    Ok(measured)
}

/// Times `JobSpec::build_cluster`.
pub fn build_cluster(spec: &JobSpec, layers: &mut Layers) -> Result<Cluster, String> {
    let start = Instant::now();
    let cluster = spec.build_cluster().map_err(|e| e.to_string())?;
    layers.build_ms.push(ms(start.elapsed()));
    Ok(cluster)
}

/// Times the profiling corpus and the estimator training on it.
fn corpus_and_train(
    sample_spec: &SampleSpec,
    truth: &MemorySim,
    options: &PipetteOptions,
    layers: &mut Layers,
) {
    let start = Instant::now();
    let samples = collect_samples_parallel(sample_spec, truth, options.threads);
    layers.corpus_ms.push(ms(start.elapsed()));
    let start = Instant::now();
    let estimator = MemoryEstimator::train_with_threads(&samples, &options.memory, options.threads);
    layers.train_ms.push(ms(start.elapsed()));
    layers.train_iters += estimator.train_summary().iterations as f64;
    black_box(estimator);
}

/// Where the kernel probes get their estimator from.
pub enum EstimatorSource<'a> {
    /// A warm in-memory cache (serve workloads): the lookup probe times
    /// hits.
    Warm(&'a TrainedEstimatorCache),
    /// A fresh on-disk cache in this directory (one-shot workloads): the
    /// lookup probe times the train-and-store path, once per fingerprint.
    Cold(&'a Path),
}

/// What [`probe_request`] built, for the caller's traced configure.
pub struct Probed {
    /// The realized cluster.
    pub cluster: Cluster,
    /// The model.
    pub gpt: GptConfig,
    /// The estimator the lookup returned.
    pub estimator: MemoryEstimator,
    /// The profiled bandwidth and its cost.
    pub profiled: (ProfiledBandwidth, ProfilingCost),
}

/// Probes one request layer by layer: cluster build, bandwidth profile,
/// and for each estimator fingerprint not in `known` the corpus, the
/// training and a cache lookup; then the memory screen, estimates and
/// SA. Warm lookups are timed for every request.
pub fn probe_request(
    spec: &JobSpec,
    source: EstimatorSource<'_>,
    known: &mut BTreeMap<u64, MemoryEstimator>,
    layers: &mut Layers,
) -> Result<Probed, String> {
    let cluster = build_cluster(spec, layers)?;
    let gpt = spec.build_model().map_err(|e| e.to_string())?;
    let start = Instant::now();
    let profiled = cluster.profiler().profile(cluster.bandwidth(), spec.seed);
    layers.profile_ms.push(ms(start.elapsed()));

    let options = options_for(spec);
    let (sample_spec, truth) =
        Pipette::new(&cluster, &gpt, spec.global_batch, options).profiling_spec();
    let fingerprint = estimator_fingerprint(&sample_spec, &gpt, &options.memory, &truth);
    let lookup = |cache: &TrainedEstimatorCache, layers: &mut Layers| {
        let start = Instant::now();
        let e = cache.get_or_train(&sample_spec, &gpt, &options.memory, &truth, options.threads);
        layers.cache_lookup_ms.push(ms(start.elapsed()));
        e
    };
    let estimator = match (known.get(&fingerprint), source) {
        (Some(_), EstimatorSource::Warm(cache)) => lookup(cache, layers),
        (Some(e), EstimatorSource::Cold(_)) => e.clone(),
        (None, source) => {
            corpus_and_train(&sample_spec, &truth, &options, layers);
            let e = match source {
                EstimatorSource::Warm(cache) => {
                    // The miss that fills the cache is setup, not a lookup.
                    cache.get_or_train(
                        &sample_spec,
                        &gpt,
                        &options.memory,
                        &truth,
                        options.threads,
                    );
                    lookup(cache, layers)
                }
                EstimatorSource::Cold(dir) => lookup(&TrainedEstimatorCache::with_dir(dir), layers),
            };
            known.insert(fingerprint, e.clone());
            e
        }
    };
    kernels(
        &cluster,
        &gpt,
        spec,
        &options,
        &profiled.0,
        &estimator,
        layers,
    );
    layers.requests += 1;
    Ok(Probed {
        cluster,
        gpt,
        estimator,
        profiled,
    })
}

/// Algorithm 1's candidate space: every `(pp, tp, dp)` that divides the
/// global batch, with every microbatch plan up to `max_micro`.
fn candidates(
    cluster: &Cluster,
    gpt: &GptConfig,
    spec: &JobSpec,
) -> Vec<(ParallelConfig, MicrobatchPlan)> {
    let topo = cluster.topology();
    let mut work = Vec::new();
    for cfg in ParallelConfig::enumerate(topo.num_gpus(), topo.gpus_per_node(), gpt.n_layers) {
        let Ok(mini) = BatchConfig::new(spec.global_batch).minibatch(cfg.dp) else {
            continue;
        };
        work.extend(
            MicrobatchPlan::enumerate(mini, spec.max_micro)
                .into_iter()
                .map(|plan| (cfg, plan)),
        );
    }
    work
}

/// Profiling-noise realizations [`estimate_errors`] averages over.
const FIDELITY_DRAWS: u64 = 8;

/// Estimator fidelity on the job's cluster (Fig. 5a): for every
/// candidate the simulator can run at the identity mapping, the
/// relative error |estimate − simulated| / simulated in percent. The
/// latency model sees bandwidth and compute profiled the way the
/// configurator profiles them, under [`FIDELITY_DRAWS`] noise seeds
/// derived from the job's seed, so one lucky or unlucky profile does not
/// decide the figure.
pub fn estimate_errors(spec: &JobSpec) -> Result<Vec<f64>, String> {
    let cluster = spec.build_cluster().map_err(|e| e.to_string())?;
    let gpt = spec.build_model().map_err(|e| e.to_string())?;
    let runner = ClusterRun::new(&cluster, &gpt);
    let profiler = ComputeProfiler::default();
    let runnable: Vec<_> = candidates(&cluster, &gpt, spec)
        .into_iter()
        .filter_map(|(cfg, plan)| {
            let identity = Mapping::identity(cfg, *cluster.topology());
            // Candidates that run out of memory have no simulated time.
            let measured = runner.execute(cfg, &identity, plan).ok()?;
            Some((cfg, plan, identity, measured.iteration_seconds))
        })
        .collect();
    let mut errors = Vec::new();
    for draw in 0..FIDELITY_DRAWS {
        let seed = spec
            .seed
            .wrapping_add(draw.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), seed);
        let latency = PipetteLatencyModel::new(&profiled, &gpt);
        for (cfg, plan, identity, simulated) in &runnable {
            let compute =
                profiler.profile(cluster.bandwidth(), cluster.gpu(), &gpt, *cfg, *plan, seed);
            let estimate = latency.estimate(*cfg, identity, *plan, &compute);
            errors.push(100.0 * (estimate - simulated).abs() / simulated);
        }
    }
    Ok(errors)
}

/// The memory screen, the identity-mapping estimates and the SA passes
/// of Algorithm 1 (with the request's SA budget), each timed on its own
/// at the configurator's thread count.
fn kernels(
    cluster: &Cluster,
    gpt: &GptConfig,
    spec: &JobSpec,
    options: &PipetteOptions,
    profiled: &ProfiledBandwidth,
    estimator: &MemoryEstimator,
    layers: &mut Layers,
) {
    let topo = *cluster.topology();
    let work = candidates(cluster, gpt, spec);
    let features: Vec<[f64; 10]> = work
        .iter()
        .map(|&(cfg, plan)| {
            MemorySample::features_for(gpt, topo.num_gpus(), cfg, plan, spec.global_batch)
        })
        .collect();
    let limit = cluster.gpu().memory_bytes;
    let (runnable, reps, secs) =
        repeat(|| estimator.is_runnable_batch(&features, limit, options.threads));
    layers.predictions.0 += (features.len() * reps) as f64;
    layers.predictions.1 += secs;

    let profiler = ComputeProfiler::default();
    let candidates: Vec<_> = work
        .iter()
        .zip(&runnable)
        .filter(|(_, ok)| **ok)
        .map(|(&(cfg, plan), _)| {
            let compute = profiler.profile(
                cluster.bandwidth(),
                cluster.gpu(),
                gpt,
                cfg,
                plan,
                options.seed,
            );
            (cfg, plan, compute, Mapping::identity(cfg, topo))
        })
        .collect();
    let latency = PipetteLatencyModel::new(profiled, gpt);
    let (estimates, reps, secs) = repeat(|| {
        candidates
            .iter()
            .map(|(cfg, plan, compute, identity)| latency.estimate(*cfg, identity, *plan, compute))
            .collect::<Vec<f64>>()
    });
    layers.estimates.0 += (candidates.len() * reps) as f64;
    layers.estimates.1 += secs;

    // PPT-L requests skip worker dedication; the probe still anneals
    // their best candidates, so the mapping layer is measured on every
    // workload's clusters.
    if candidates.is_empty() {
        return;
    }
    let mut ranked: Vec<usize> = (0..candidates.len()).collect();
    ranked.sort_by(|&a, &b| estimates[a].total_cmp(&estimates[b]));
    ranked.truncate(options.sa_top_k.max(1));
    let objective = |i: usize, init: &Mapping| {
        let (_, plan, compute, _) = &candidates[i];
        IncrementalObjective::new(latency.matrix(), gpt, *plan, compute, init)
    };
    let sa_config = |k: usize| AnnealerConfig {
        seed: options.seed.wrapping_add(k as u64),
        ..options.annealer
    };
    let start = Instant::now();
    let passes: Vec<(pipette::AnnealStats, (usize, usize))> = if options.replicas > 1 {
        let schedule = TemperingSchedule {
            replicas: options.replicas,
            exchange_interval: options.exchange_interval.max(1),
            ..TemperingSchedule::default()
        };
        ranked
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let pt = ParallelTemperingAnnealer::new(sa_config(k), schedule);
                let initial = &candidates[i].3;
                let (_, _, stats) =
                    pt.anneal(options.threads, initial, |_, init| objective(i, init));
                (
                    stats.merged(),
                    (stats.exchanges_attempted, stats.exchanges_accepted),
                )
            })
            .collect()
    } else {
        pipette::parallel::ordered_map(options.threads, &ranked, |k, &i| {
            let initial = &candidates[i].3;
            let mut obj = objective(i, initial);
            let (_, _, stats) = Annealer::new(sa_config(k)).anneal_with(initial, &mut obj);
            (stats, (0, 0))
        })
    };
    layers.anneal_ms.push(ms(start.elapsed()));
    for (stats, (attempted, accepted)) in passes {
        layers.evals += stats.evaluations as f64;
        layers.accepted += stats.accepted as f64;
        layers.improvements.push(stats.improvement());
        layers.exchanges.0 += attempted as f64;
        layers.exchanges.1 += accepted as f64;
    }
}
