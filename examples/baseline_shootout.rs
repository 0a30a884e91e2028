//! Baseline shootout: Pipette vs AMP, Varuna, and hand-tuned Megatron-LM
//! on one cluster — a miniature of the paper's Fig. 6.
//!
//! ```sh
//! cargo run --release --example baseline_shootout
//! ```
//!
//! Every method recommends a configuration for the same job; every
//! recommendation is then launched on the simulated cluster (OOM failures
//! count as launch attempts, exactly like a real tuning session).

use pipette::baselines::{first_runnable, AmpConfigurator, MegatronTuner};
use pipette::configurator::{Pipette, PipetteOptions};
use pipette_cluster::presets;
use pipette_model::GptConfig;
use pipette_sim::ClusterRun;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = presets::mid_range(8).build(21);
    let gpt = GptConfig::gpt_1_1b();
    let global_batch = 256;
    println!("cluster: {cluster}");
    println!("job    : {gpt}, global batch {global_batch}\n");
    println!(
        "{:<22} {:>20} {:>7} {:>12} {:>9}",
        "method", "(pp,tp,dp)", "micro", "iter time", "launches"
    );

    let runner = ClusterRun::new(&cluster, &gpt);

    // Hand-tuned Megatron-LM: an expert fixes tp = 8 and tries the rest.
    if let Some(mlm) = MegatronTuner::new(&cluster, &gpt, global_batch).tune(&runner) {
        row(
            "Megatron-LM (manual)",
            &mlm.config.to_string(),
            mlm.plan.micro_batch,
            mlm.measured.iteration_seconds,
            mlm.trials,
        );
    }

    // Varuna: AMP's ranking over the pipeline-parallel-only (tp = 1)
    // configurations; it needs activation recomputation.
    let amp = AmpConfigurator::new(&cluster, &gpt, global_batch);
    let vr_runner = ClusterRun::new(&cluster, &gpt).with_recompute(true);
    let vr = amp.rank_where(|cfg| cfg.tp == 1);
    if let Some(hit) = first_runnable(&vr, &vr_runner) {
        row(
            "Varuna (pp-only)",
            &hit.candidate.config.to_string(),
            hit.candidate.plan.micro_batch,
            hit.measured.iteration_seconds,
            hit.attempts,
        );
    }

    // AMP: Eq. 1 ranking over datasheet bandwidths, memory-unaware.
    if let Some(hit) = first_runnable(&amp.rank(), &runner) {
        row(
            "AMP (Eq. 1)",
            &hit.candidate.config.to_string(),
            hit.candidate.plan.micro_batch,
            hit.measured.iteration_seconds,
            hit.attempts,
        );
    }

    // Pipette, full pipeline (latency + memory estimators + dedication).
    let rec = Pipette::new(&cluster, &gpt, global_batch, PipetteOptions::default()).run()?;
    let measured = runner.execute(rec.config, &rec.mapping, rec.plan)?;
    row(
        "Pipette (this crate)",
        &rec.config.to_string(),
        rec.plan.micro_batch,
        measured.iteration_seconds,
        1,
    );

    println!("\nPipette needs one launch because its memory estimator pre-filters OOM configs;");
    println!("the baselines burn launches discovering them (the paper's Fig. 5b).");
    Ok(())
}

fn row(method: &str, cfg: &str, micro: u64, seconds: f64, launches: usize) {
    println!("{method:<22} {cfg:>20} {micro:>7} {seconds:>10.3} s {launches:>9}");
}
