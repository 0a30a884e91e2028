//! Extension tool: should this job use Megatron's interleaved schedule?
//!
//! Takes Pipette's recommended configuration and evaluates virtual-stage
//! depths v = 1, 2, 4 for it: profiled-estimator latency, simulator-
//! verified latency, and peak memory (a practitioner would run one memory
//! probe per v, exactly as modelled here). Interleaving trades bubble for
//! communication and activation memory, so the best v depends on the
//! cluster and batch shape.

use pipette::configurator::{Pipette, PipetteOptions};
use pipette::latency::PipetteLatencyModel;
use pipette_bench::context::ClusterKind;
use pipette_sim::{ClusterRun, ComputeProfiler, IterationSim, PipelineSchedule, TrainingOptions};

fn main() {
    for kind in ClusterKind::both() {
        let cluster = kind.cluster(8);
        let gpt = kind.model_for_gpus(64);
        let global_batch = 256;
        let mut memory = pipette::memory::MemoryEstimatorConfig::default();
        memory.train.iterations = 6_000;
        let opts = PipetteOptions {
            seed: 11,
            memory,
            ..PipetteOptions::default()
        };
        let rec = Pipette::new(&cluster, &gpt, global_batch, opts)
            .run()
            .expect("feasible");
        let cfg = rec.config;
        let plan = rec.plan;
        println!(
            "interleaving advisor — {} cluster, {gpt}, Pipette base {cfg} micro={}",
            kind.label(),
            plan.micro_batch
        );
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>10}",
            "v", "estimated", "simulated", "peak mem", "runnable"
        );
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 11);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        for schedule in [
            PipelineSchedule::OneFOneB,
            PipelineSchedule::Interleaved { chunks: 2 },
            PipelineSchedule::Interleaved { chunks: 4 },
        ] {
            let v = schedule.chunks();
            if schedule
                .check(cfg.pp, plan.n_microbatches, gpt.n_layers)
                .is_err()
            {
                println!("{v:<6} {:>12}", "(invalid)");
                continue;
            }
            let options = TrainingOptions::new().with_schedule(schedule);
            let runner = ClusterRun::new(&cluster, &gpt).with_options(options);
            let mem = runner.peak_memory(cfg, plan).peak_bytes;
            let fits = mem <= cluster.gpu().memory_bytes;
            let compute = ComputeProfiler::default().profile_stages(
                cluster.bandwidth(),
                &gpu,
                &gpt,
                cfg.pp * v,
                cfg.tp,
                plan,
                13,
            );
            let est = model.estimate_interleaved(cfg, &rec.mapping, plan, v, &compute);
            let sim = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .with_options(options)
                .simulate(cfg, &rec.mapping, plan)
                .total_seconds;
            println!(
                "{v:<6} {est:>10.3} s {sim:>10.3} s {:>9.1} GiB {:>10}",
                mem as f64 / (1u64 << 30) as f64,
                if fits { "yes" } else { "OOM" }
            );
        }
        println!();
    }
}
