//! Micro-benchmarks of the hot code paths: the communication models, the
//! pipeline dependency engine, the latency estimator (the SA inner loop)
//! and the annealer itself. MLP training and screening are measured by
//! `perf_baseline`'s `memory_estimator` section.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pipette::latency::PipetteLatencyModel;
use pipette::mapping::{Annealer, AnnealerConfig};
use pipette_cluster::{presets, GpuId};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{
    engine::ChainSpec, CommModel, ComputeProfiler, IterationSim, Mapping, MemorySim,
    PipelineSchedule,
};
use std::hint::black_box;

fn bench_comm(c: &mut Criterion) {
    let cluster = presets::mid_range(16).build(3);
    let comm = CommModel::new(cluster.bandwidth());
    let group: Vec<GpuId> = (0..128).step_by(8).map(GpuId).collect();
    let mut g = c.benchmark_group("comm_model");
    g.bench_function("hierarchical_allreduce_16_nodes", |b| {
        b.iter(|| black_box(comm.hierarchical_allreduce(black_box(&group), 1 << 30)))
    });
    let small: Vec<GpuId> = (0..8).map(GpuId).collect();
    g.bench_function("ring_allreduce_8_intra", |b| {
        b.iter(|| black_box(comm.ring_allreduce(black_box(&small), 1 << 24)))
    });
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_engine");
    for (pp, n_mb) in [(4usize, 64u64), (8, 128), (16, 256)] {
        let spec = ChainSpec {
            pp,
            n_mb,
            schedule: PipelineSchedule::OneFOneB,
            fwd_time: vec![0.01; pp],
            bwd_time: vec![0.02; pp],
            fwd_comm: vec![0.001; pp - 1],
            bwd_comm: vec![0.001; pp - 1],
        };
        g.bench_with_input(
            BenchmarkId::new("one_f_one_b", format!("pp{pp}_mb{n_mb}")),
            &spec,
            |b, spec| b.iter(|| black_box(spec.simulate())),
        );
    }
    g.finish();
}

fn bench_estimator(c: &mut Criterion) {
    // The SA objective: one latency estimate on a full 128-GPU cluster.
    let cluster = presets::mid_range(16).build(3);
    let gpt = GptConfig::gpt_3_1b();
    let cfg = ParallelConfig::new(2, 8, 8);
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let mapping = Mapping::identity(cfg, *cluster.topology());
    c.bench_function("latency_estimate_128_gpus", |b| {
        b.iter(|| black_box(model.estimate(cfg, black_box(&mapping), plan, &compute)))
    });

    // Ground truth for scale comparison.
    c.bench_function("simulator_iteration_128_gpus", |b| {
        b.iter(|| {
            black_box(
                IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                    .simulate(cfg, &mapping, plan)
                    .total_seconds,
            )
        })
    });
}

fn bench_annealer(c: &mut Criterion) {
    let cluster = presets::mid_range(8).build(3);
    let gpt = GptConfig::gpt_1_1b();
    let cfg = ParallelConfig::new(2, 8, 4);
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let identity = Mapping::identity(cfg, *cluster.topology());
    let sa = Annealer::new(AnnealerConfig {
        iterations: 1_000,
        seed: 2,
        ..Default::default()
    });
    let mut g = c.benchmark_group("annealer");
    g.sample_size(10);
    g.bench_function("sa_1000_iterations_64_gpus", |b| {
        b.iter(|| {
            let (_, cost, _) = sa.anneal(&identity, |m| model.estimate(cfg, m, plan, &compute));
            black_box(cost)
        })
    });
    g.finish();
}

fn bench_memsim(c: &mut Criterion) {
    let gpt = GptConfig::gpt_11_1b();
    let sim = MemorySim::new(7);
    let cfg = ParallelConfig::new(8, 8, 2);
    let plan = MicrobatchPlan::new(256, 2).unwrap();
    c.bench_function("memory_report_8_stages", |b| {
        b.iter(|| black_box(sim.report(&gpt, cfg, plan)))
    });
}

criterion_group!(
    micro,
    bench_comm,
    bench_engine,
    bench_estimator,
    bench_annealer,
    bench_memsim
);
criterion_main!(micro);
