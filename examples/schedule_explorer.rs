//! Schedule explorer: visualize how the pipeline schedules differ.
//!
//! ```sh
//! cargo run --release --example schedule_explorer
//! ```
//!
//! Renders text Gantt charts of GPipe vs 1F1B for the same workload,
//! reports per-stage idle fractions, and compares the training-feature
//! variants (selective/full recomputation, ZeRO-1, interleaving) on time
//! and memory — the trade-off space the Pipette paper's §II sketches in
//! its Fig. 2.

use pipette_cluster::presets;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::compute::{stage_bwd_time_s, stage_fwd_time_s};
use pipette_sim::engine::ChainSpec;
use pipette_sim::trace::{idle_fractions, render_gantt};
use pipette_sim::{
    ActivationMode, CommModel, IterationSim, Mapping, MemorySim, PipelineSchedule, TrainingOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = presets::mid_range(4).build(5);
    let gpt = GptConfig::gpt_1_1b();
    let cfg = ParallelConfig::new(4, 8, 1);
    let plan = MicrobatchPlan::new(8, 1)?;
    let mapping = Mapping::identity(cfg, *cluster.topology());
    let gpu = cluster.gpu().clone();

    println!(
        "workload: {gpt}, {cfg}, {} microbatches\n",
        plan.n_microbatches
    );

    // Build the replica-0 chain and trace both schedules.
    let comm = CommModel::new(cluster.bandwidth());
    let msg = pipette_model::messages::pp_message_bytes(&gpt, plan.micro_batch);
    let chain = mapping.pipeline_chain(0, 0);
    for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
        let spec = ChainSpec {
            pp: cfg.pp,
            n_mb: plan.n_microbatches,
            schedule,
            fwd_time: (0..cfg.pp)
                .map(|s| stage_fwd_time_s(&gpt, &gpu, cfg.pp, cfg.tp, s, plan.micro_batch))
                .collect(),
            bwd_time: (0..cfg.pp)
                .map(|s| stage_bwd_time_s(&gpt, &gpu, cfg.pp, cfg.tp, s, plan.micro_batch))
                .collect(),
            fwd_comm: (0..cfg.pp - 1)
                .map(|s| comm.p2p(chain[s], chain[s + 1], msg))
                .collect(),
            bwd_comm: (0..cfg.pp - 1)
                .map(|s| comm.p2p(chain[s + 1], chain[s], msg))
                .collect(),
        };
        let (result, events) = spec.trace();
        println!("{schedule:?} — makespan {:.3} s", result.makespan);
        print!(
            "{}",
            render_gantt(&events, cfg.pp, 76).expect("traced schedule is non-empty")
        );
        let idle = idle_fractions(&events, cfg.pp);
        let idle_str: Vec<String> = idle.iter().map(|f| format!("{:.0}%", f * 100.0)).collect();
        println!("idle per stage: {}\n", idle_str.join(" "));
    }

    // Feature comparison on the full iteration (memory-efficient schedule,
    // activation/optimizer variants, interleaving).
    println!("feature comparison (same workload, full iteration with dp=1):");
    println!(
        "{:<28} {:>12} {:>12}",
        "variant", "iter time", "peak memory"
    );
    let variants: Vec<(&str, TrainingOptions)> = vec![
        ("1F1B (default)", TrainingOptions::new()),
        (
            "GPipe",
            TrainingOptions::new().with_schedule(PipelineSchedule::GPipe),
        ),
        (
            "1F1B + interleave v=2",
            TrainingOptions::new().with_schedule(PipelineSchedule::Interleaved { chunks: 2 }),
        ),
        (
            "1F1B + selective recompute",
            TrainingOptions::new().with_activation(ActivationMode::Selective),
        ),
        (
            "1F1B + full recompute",
            TrainingOptions::new().with_activation(ActivationMode::FullRecompute),
        ),
    ];
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
            "{name:<28} {time:>10.3} s {:>9.1} GiB",
            mem as f64 / (1u64 << 30) as f64
        );
    }
    Ok(())
}
