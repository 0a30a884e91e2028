//! Extension tool: the memory/time Pareto frontier of every runnable
//! configuration — what does the whole configuration space look like, and
//! where do the tools' choices sit on it?

use pipette_bench::context::ClusterKind;
use pipette_model::{candidate_space, throughput, ParallelConfig};
use pipette_sim::{ClusterRun, Mapping};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let nodes = if quick { 4 } else { 16 };
    for kind in ClusterKind::both() {
        let cluster = kind.cluster(nodes);
        let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
        let global = 256u64;
        let runner = ClusterRun::new(&cluster, &gpt);
        let topo = cluster.topology();
        let peak_total = cluster.gpu().peak_fp16_tflops * 1e12 * topo.num_gpus() as f64;

        // Measure everything runnable.
        let mut points: Vec<(ParallelConfig, u64, f64, u64)> = Vec::new();
        let space = candidate_space(
            topo.num_gpus(),
            topo.gpus_per_node(),
            gpt.n_layers,
            global,
            8,
        );
        for (cfg, plans) in space {
            for plan in plans {
                let mapping = Mapping::identity(cfg, *topo);
                if let Ok(m) = runner.execute(cfg, &mapping, plan) {
                    points.push((
                        cfg,
                        plan.micro_batch,
                        m.iteration_seconds,
                        m.peak_memory_bytes,
                    ));
                }
            }
        }
        points.sort_by(|a, b| a.2.total_cmp(&b.2));

        // Pareto frontier: fastest first; keep points that also lower memory.
        let mut frontier = Vec::new();
        let mut best_mem = u64::MAX;
        for p in &points {
            if p.3 < best_mem {
                frontier.push(*p);
                best_mem = p.3;
            }
        }

        println!(
            "Pareto frontier — {} cluster ({} GPUs), {gpt}, global batch {global}",
            kind.label(),
            topo.num_gpus()
        );
        println!(
            "{} runnable configurations, {} on the time/memory frontier:",
            points.len(),
            frontier.len()
        );
        println!(
            "{:<22} {:>6} {:>11} {:>11} {:>12} {:>7}",
            "(pp,tp,dp)", "micro", "iter time", "peak mem", "tokens/s", "MFU"
        );
        for (cfg, micro, secs, mem) in &frontier {
            let t = throughput::of_iteration(&gpt, global, *secs, peak_total);
            println!(
                "{:<22} {:>6} {:>9.3} s {:>7.1} GiB {:>12.0} {:>6.1}%",
                cfg.to_string(),
                micro,
                secs,
                *mem as f64 / (1u64 << 30) as f64,
                t.tokens_per_second,
                t.mfu * 100.0
            );
        }
        println!();
    }
}
