//! Fig. 5b — runnability of the top-10 recommendations.
//!
//! The paper launches the top-10 configurations recommended by AMP and
//! Varuna on the mid-range cluster: 8 of 10 OOM for both, including the
//! top pick. Pipette's memory estimator filters its list, so its
//! recommendations run.

use crate::context::ClusterKind;
use crate::util;
use pipette::baselines::{count_oom_in_top_k, AmpConfigurator, VarunaConfigurator};
use pipette::configurator::{Pipette, PipetteOptions};
use pipette_model::{MicrobatchPlan, ParallelConfig};
use pipette_sim::ClusterRun;

/// Top-k OOM counts per method.
#[derive(Debug, Clone)]
pub struct Fig5bResult {
    /// Cluster label.
    pub cluster: String,
    /// List length examined (paper: 10).
    pub k: usize,
    /// OOM count within AMP's top-k.
    pub amp_oom: usize,
    /// OOM count within Varuna's top-k.
    pub varuna_oom: usize,
    /// OOM count within Pipette's top-k (memory-filtered list).
    pub pipette_oom: usize,
    /// Whether each method's *first* recommendation runs.
    pub amp_top1_runs: bool,
    /// Varuna's first recommendation runs.
    pub varuna_top1_runs: bool,
    /// Pipette's first recommendation runs.
    pub pipette_top1_runs: bool,
}

/// Runs the top-10 runnability comparison (paper: mid-range cluster) with
/// the full memory-estimator training budget.
pub fn run(kind: ClusterKind, nodes: usize, global_batch: u64, k: usize, seed: u64) -> Fig5bResult {
    run_with_training(kind, nodes, global_batch, k, seed, 12_000)
}

/// [`run`] with an explicit memory-estimator training budget (tests and
/// benches use a smaller one).
pub fn run_with_training(
    kind: ClusterKind,
    nodes: usize,
    global_batch: u64,
    k: usize,
    seed: u64,
    mem_iterations: usize,
) -> Fig5bResult {
    let cluster = kind.cluster(nodes);
    let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
    let runner = ClusterRun::new(&cluster, &gpt);
    let runner_recompute = ClusterRun::new(&cluster, &gpt).with_recompute(true);
    let limit = cluster.gpu().memory_bytes;

    // The run seed drives every stochastic component: the baselines'
    // compute-profiling noise as well as Pipette's own options below.
    let amp = AmpConfigurator::new(&cluster, &gpt, global_batch)
        .with_seed(seed)
        .top_k(k);
    let varuna = VarunaConfigurator::new(&cluster, &gpt, global_batch)
        .with_seed(seed)
        .top_k(k);

    // Pipette's top-k: the configurator's own ranked list (winner first,
    // then its alternatives, already ordered by the latency estimate and
    // filtered by the memory estimator).
    let mut opts = PipetteOptions::default().latency_only();
    opts.seed = seed;
    opts.memory.train.iterations = mem_iterations;
    let rec = Pipette::new(&cluster, &gpt, global_batch, opts)
        .run()
        // pipette-lint: allow(D2) -- experiment harness over baked-in presets; aborting the figure run is the right failure mode
        .expect("Pipette finds candidates");
    let mut pipette_list: Vec<(ParallelConfig, MicrobatchPlan)> =
        std::iter::once((rec.config, rec.plan))
            .chain(rec.alternatives.iter().map(|a| (a.config, a.plan)))
            .collect();
    pipette_list.truncate(k);
    let pipette_oom = pipette_list
        .iter()
        .filter(|(cfg, plan)| runner.peak_memory(*cfg, *plan).peak_bytes > limit)
        .count();

    let oom = |cfg: ParallelConfig, plan: MicrobatchPlan, rec: bool| {
        let r = if rec { &runner_recompute } else { &runner };
        r.peak_memory(cfg, plan).peak_bytes > limit
    };

    Fig5bResult {
        cluster: kind.label().to_owned(),
        k,
        amp_oom: count_oom_in_top_k(&amp, &runner, k),
        varuna_oom: count_oom_in_top_k(&varuna, &runner_recompute, k),
        pipette_oom,
        amp_top1_runs: amp
            .first()
            .map(|c| !oom(c.config, c.plan, false))
            .unwrap_or(false),
        varuna_top1_runs: varuna
            .first()
            .map(|c| !oom(c.config, c.plan, true))
            .unwrap_or(false),
        pipette_top1_runs: pipette_list
            .first()
            .map(|(c, p)| !oom(*c, *p, false))
            .unwrap_or(false),
    }
}

/// Prints the comparison with paper reference values.
pub fn print(r: &Fig5bResult) {
    println!(
        "Fig. 5b — OOM configurations among the top-{} recommendations ({} cluster)",
        r.k, r.cluster
    );
    util::rule(72);
    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "method", "OOM in top-10", "top-1 runs", "paper OOM"
    );
    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "AMP",
        r.amp_oom,
        yes_no(r.amp_top1_runs),
        "8/10 (top-1 OOM)"
    );
    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "Varuna",
        r.varuna_oom,
        yes_no(r.varuna_top1_runs),
        "8/10 (top-1 OOM)"
    );
    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "Pipette",
        r.pipette_oom,
        yes_no(r.pipette_top1_runs),
        "0/10"
    );
    println!();
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_recommend_oom_pipette_does_not() {
        let r = run_with_training(ClusterKind::MidRange, 8, 256, 10, 5, 3_000);
        assert!(
            r.amp_oom >= 5,
            "AMP should OOM most of its top-10: {}",
            r.amp_oom
        );
        assert!(
            r.varuna_oom >= 3,
            "Varuna should OOM several of its top-10: {}",
            r.varuna_oom
        );
        assert_eq!(r.pipette_oom, 0, "Pipette must not recommend OOM configs");
        assert!(r.pipette_top1_runs);
    }
}
