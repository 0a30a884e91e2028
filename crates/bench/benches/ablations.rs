//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each target reports, via criterion's timing *and* a printed summary on
//! first run, how a design variant changes the outcome:
//!
//! * `ablation_sa_moves`      — migration vs +swap vs +reverse move sets;
//! * `ablation_latency_model` — ranking quality of Eq. 1 vs Eqs. 3–6;
//! * `ablation_profiled_bw`   — profiled vs datasheet bandwidths inside
//!   Pipette's own estimator;
//! * `ablation_soft_margin`   — memory-margin sweep: OOM recall vs
//!   headroom wasted.

use criterion::{criterion_group, criterion_main, Criterion};
use pipette::latency::{AmpLatencyModel, Eq1Flavor, PipetteLatencyModel};
use pipette::mapping::{Annealer, AnnealerConfig};
use pipette::memory::{collect_samples, MemoryEstimator, MemoryEstimatorConfig, SampleSpec};
use pipette_cluster::{presets, Cluster, ProfiledBandwidth};
use pipette_model::{BatchConfig, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{ClusterRun, ComputeProfiler, IterationSim, Mapping, MemorySim};
use std::hint::black_box;

fn cluster() -> Cluster {
    presets::mid_range(4).build(77)
}

fn gpt() -> GptConfig {
    GptConfig::gpt_1_1b()
}

/// SA move-set ablation: best cost achieved with a fixed budget, on an
/// instance large enough that the move set matters (8 nodes, tp = 4 →
/// 16 movable blocks).
fn ablation_sa_moves(c: &mut Criterion) {
    let cluster = presets::mid_range(8).build(77);
    let gpt = gpt();
    let cfg = ParallelConfig::new(2, 4, 8);
    let plan = MicrobatchPlan::new(32, 1).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let identity = Mapping::identity(cfg, *cluster.topology());

    let variants: [(&str, bool, bool, bool); 3] = [
        ("migration_only", true, false, false),
        ("migration_swap", true, true, false),
        ("full_move_set", true, true, true),
    ];
    let mut g = c.benchmark_group("ablation_sa_moves");
    g.sample_size(10);
    for (name, mig, swap, rev) in variants {
        // Report the achieved cost once, outside the timed loop.
        let sa = Annealer::new(AnnealerConfig {
            iterations: 4_000,
            seed: 1,
            enable_migration: mig,
            enable_swap: swap,
            enable_reverse: rev,
            ..Default::default()
        });
        let (_, cost, stats) = sa.anneal(&identity, |m| model.estimate(cfg, m, plan, &compute));
        println!(
            "ablation_sa_moves/{name}: best {:.4}s ({:.2}% improvement)",
            cost,
            stats.improvement() * 100.0
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                let (_, cost, _) = sa.anneal(&identity, |m| model.estimate(cfg, m, plan, &compute));
                black_box(cost)
            })
        });
    }
    g.finish();
}

/// Spearman-style ranking-quality ablation: how often does each latency
/// model order a random pair of configurations the same way as the
/// simulator?
fn ablation_latency_model(c: &mut Criterion) {
    let cluster = cluster();
    let gpt = gpt();
    let runner = ClusterRun::new(&cluster, &gpt);
    let gpu = cluster.gpu().clone();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let profiler = ComputeProfiler::default();
    let topo = cluster.topology();

    // Collect (truth, eq1, pipette) for every runnable config.
    let mut rows: Vec<(f64, f64, f64)> = Vec::new();
    for cfg in ParallelConfig::enumerate(topo.num_gpus(), 8, gpt.n_layers) {
        let Ok(mini) = BatchConfig::new(128).minibatch(cfg.dp) else {
            continue;
        };
        for plan in MicrobatchPlan::enumerate(mini, 4) {
            if runner.peak_memory(cfg, plan).peak_bytes > cluster.gpu().memory_bytes {
                continue;
            }
            let mapping = Mapping::identity(cfg, *topo);
            let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .simulate(cfg, &mapping, plan)
                .total_seconds;
            let compute = profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 5);
            let eq1 = AmpLatencyModel::from_specs_of(cluster.bandwidth(), &gpt)
                .with_flavor(Eq1Flavor::Scalar)
                .estimate(cfg, plan, &compute);
            let ppt =
                PipetteLatencyModel::new(&profiled, &gpt).estimate(cfg, &mapping, plan, &compute);
            rows.push((truth, eq1, ppt));
        }
    }
    let concordance = |pick: fn(&(f64, f64, f64)) -> f64| {
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                total += 1;
                let t = rows[i].0 < rows[j].0;
                if (pick(&rows[i]) < pick(&rows[j])) == t {
                    agree += 1;
                }
            }
        }
        agree as f64 / total.max(1) as f64
    };
    println!(
        "ablation_latency_model: pairwise ranking concordance with the simulator — Eq.1 {:.3}, Pipette {:.3} ({} configs)",
        concordance(|r| r.1),
        concordance(|r| r.2),
        rows.len()
    );

    let mut g = c.benchmark_group("ablation_latency_model");
    g.sample_size(10);
    g.bench_function("pairwise_concordance", |b| {
        b.iter(|| black_box(concordance(|r| r.2)))
    });
    g.finish();
}

/// Profiled vs datasheet bandwidths inside Pipette's estimator: the MAPE
/// penalty for skipping the profiling step.
fn ablation_profiled_bw(c: &mut Criterion) {
    let cluster = cluster();
    let gpt = gpt();
    let runner = ClusterRun::new(&cluster, &gpt);
    let gpu = cluster.gpu().clone();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let nominal = ProfiledBandwidth::exact(pipette_cluster::BandwidthMatrix::homogeneous(
        *cluster.topology(),
        cluster.bandwidth().intra_spec(),
        cluster.bandwidth().inter_spec(),
    ));
    let profiler = ComputeProfiler::default();
    let topo = cluster.topology();

    let mut errs_profiled = Vec::new();
    let mut errs_nominal = Vec::new();
    for cfg in ParallelConfig::enumerate(topo.num_gpus(), 8, gpt.n_layers) {
        let Ok(mini) = BatchConfig::new(128).minibatch(cfg.dp) else {
            continue;
        };
        for plan in MicrobatchPlan::enumerate(mini, 2) {
            if runner.peak_memory(cfg, plan).peak_bytes > cluster.gpu().memory_bytes {
                continue;
            }
            let mapping = Mapping::identity(cfg, *topo);
            let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .simulate(cfg, &mapping, plan)
                .total_seconds;
            let compute = profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 5);
            let with =
                PipetteLatencyModel::new(&profiled, &gpt).estimate(cfg, &mapping, plan, &compute);
            let without =
                PipetteLatencyModel::new(&nominal, &gpt).estimate(cfg, &mapping, plan, &compute);
            errs_profiled.push((with - truth).abs() / truth);
            errs_nominal.push((without - truth).abs() / truth);
        }
    }
    let mape = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "ablation_profiled_bw: MAPE with profiled links {:.3}, with datasheet links {:.3}",
        mape(&errs_profiled),
        mape(&errs_nominal)
    );

    let mut g = c.benchmark_group("ablation_profiled_bw");
    g.sample_size(10);
    g.bench_function("estimator_over_runnable_set", |b| {
        b.iter(|| black_box(mape(&errs_profiled)))
    });
    g.finish();
}

/// Soft-margin sweep: fraction of truly runnable configurations the
/// estimator rejects (wasted headroom) vs OOM configs it lets through.
fn ablation_soft_margin(c: &mut Criterion) {
    let truth = MemorySim::new(9);
    // Two model scales and several batch shapes so peak memory densely
    // covers both sides of the 16 GiB cliff.
    let spec = SampleSpec {
        gpu_counts: vec![8, 16, 32],
        gpus_per_node: 8,
        models: vec![
            GptConfig::new(16, 1536, 16, 2048, 51200),
            GptConfig::new(24, 2048, 16, 2048, 51200),
        ],
        global_batches: vec![64, 128, 256],
        max_micro: 8,
    };
    let samples = collect_samples(&spec, &truth);
    let est = MemoryEstimator::train(
        &samples,
        &MemoryEstimatorConfig {
            train: pipette_mlp::TrainConfig {
                iterations: 3_000,
                learning_rate: 2e-3,
                batch_size: 64,
                record_every: 500,
                seed: 0,
            },
            hidden: 48,
            depth: 3,
            soft_margin: 0.0,
            seed: 1,
        },
    );
    let limit = 16u64 << 30;
    for margin in [0.0, 0.04, 0.08, 0.16] {
        let e = est.clone().with_soft_margin(margin);
        let mut false_accept = 0usize;
        let mut false_reject = 0usize;
        let mut runnable = 0usize;
        for s in &samples {
            let accepted = e.is_runnable(&s.features, limit);
            let fits = s.peak_bytes <= limit;
            runnable += usize::from(fits);
            false_accept += usize::from(accepted && !fits);
            false_reject += usize::from(!accepted && fits);
        }
        println!(
            "ablation_soft_margin/{margin:.2}: {false_accept} OOM accepted, {false_reject}/{runnable} runnable rejected"
        );
    }
    let mut g = c.benchmark_group("ablation_soft_margin");
    g.sample_size(10);
    g.bench_function("margin_classification", |b| {
        b.iter(|| {
            let e = est.clone().with_soft_margin(0.04);
            let n: usize = samples
                .iter()
                .filter(|s| e.is_runnable(&s.features, limit))
                .count();
            black_box(n)
        })
    });
    g.finish();
}

/// Schedule/feature ablation: iteration time and peak memory of one fixed
/// configuration under 1F1B, GPipe, interleaved 1F1B, selective
/// recomputation, full recomputation, and ZeRO-1.
fn ablation_training_features(c: &mut Criterion) {
    use pipette_sim::{ActivationMode, IterationSim, MemorySim, PipelineSchedule, TrainingOptions};
    let cluster = cluster();
    let gpt = gpt();
    let cfg = ParallelConfig::new(2, 8, 2);
    let plan = MicrobatchPlan::new(64, 1).unwrap();
    let mapping = Mapping::identity(cfg, *cluster.topology());
    let gpu = cluster.gpu().clone();

    let variants: Vec<(&str, TrainingOptions)> = vec![
        ("one_f_one_b", TrainingOptions::new()),
        (
            "gpipe",
            TrainingOptions::new().with_schedule(PipelineSchedule::GPipe),
        ),
        (
            "interleaved_v2",
            TrainingOptions::new().with_schedule(PipelineSchedule::Interleaved { chunks: 2 }),
        ),
        (
            "selective_recompute",
            TrainingOptions::new().with_activation(ActivationMode::Selective),
        ),
        (
            "full_recompute",
            TrainingOptions::new().with_activation(ActivationMode::FullRecompute),
        ),
        ("zero1", TrainingOptions::new().with_zero1(true)),
    ];
    let mut g = c.benchmark_group("ablation_training_features");
    g.sample_size(10);
    for (name, options) in variants {
        let time = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .with_options(options)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        let mem = MemorySim::new(1)
            .with_options(options)
            .report(&gpt, cfg, plan)
            .peak_bytes;
        println!(
            "ablation_training_features/{name}: {time:.3} s/iter, {:.2} GiB peak",
            mem as f64 / (1u64 << 30) as f64
        );
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                        .with_options(options)
                        .simulate(cfg, &mapping, plan)
                        .total_seconds,
                )
            })
        });
    }
    g.finish();
}

/// Mapping-search strategy ablation: SA vs random search vs greedy swap
/// descent at comparable budgets.
fn ablation_search_strategies(c: &mut Criterion) {
    use pipette::mapping::{greedy_swap, random_search, Annealer, AnnealerConfig};
    let cluster = presets::mid_range(8).build(77);
    let gpt = gpt();
    let cfg = ParallelConfig::new(2, 4, 8);
    let plan = MicrobatchPlan::new(32, 1).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let identity = Mapping::identity(cfg, *cluster.topology());
    let objective = |m: &Mapping| model.estimate(cfg, m, plan, &compute);

    let budget = 3_000;
    let sa = Annealer::new(AnnealerConfig {
        iterations: budget,
        seed: 1,
        ..Default::default()
    });
    let (_, sa_cost, _) = sa.anneal(&identity, objective);
    let (_, rand_cost) = random_search(&identity, objective, budget, 1);
    let (_, greedy_cost) = greedy_swap(&identity, objective, 12);
    println!(
        "ablation_search_strategies: identity {:.4}s, SA {sa_cost:.4}s, random {rand_cost:.4}s, greedy {greedy_cost:.4}s",
        objective(&identity)
    );

    let mut g = c.benchmark_group("ablation_search_strategies");
    g.sample_size(10);
    g.bench_function("simulated_annealing", |b| {
        b.iter(|| black_box(sa.anneal(&identity, objective).1))
    });
    g.bench_function("random_search", |b| {
        b.iter(|| black_box(random_search(&identity, objective, budget, 1).1))
    });
    g.bench_function("greedy_swap", |b| {
        b.iter(|| black_box(greedy_swap(&identity, objective, 12).1))
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablation_sa_moves,
    ablation_latency_model,
    ablation_profiled_bw,
    ablation_soft_margin,
    ablation_training_features,
    ablation_search_strategies
);
criterion_main!(ablations);
