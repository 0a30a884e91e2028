//! Fig. 6 — training time and speedup of Pipette vs the baselines.
//!
//! Five methods configure the same cluster/model/global-batch, and every
//! recommendation is *executed* on the ground-truth simulator:
//!
//! * **MLM** — hand-tuned Megatron-LM (tp = 8, expert trials);
//! * **VR** — Varuna (pipeline-only, activation recomputation);
//! * **AMP** — Eq. 1 ranking, first runnable candidate from the top;
//! * **PPT-L** — Pipette's latency + memory estimators, identity mapping;
//! * **PPT-LF** — PPT-L plus fine-grained worker dedication.

use crate::context::ClusterKind;
use crate::util;
use pipette::baselines::{first_runnable, AmpConfigurator, MegatronTuner};
use pipette::configurator::{Pipette, PipetteOptions};
use pipette::mapping::AnnealerConfig;
use pipette::memory::TrainedEstimatorCache;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::ClusterRun;

/// One method's outcome.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label (MLM/VR/AMP/PPT-L/PPT-LF).
    pub method: String,
    /// Chosen configuration (None if the method found nothing runnable).
    pub config: Option<ParallelConfig>,
    /// Chosen microbatch plan.
    pub plan: Option<MicrobatchPlan>,
    /// Measured iteration time on the ground-truth cluster (seconds;
    /// `f64::INFINITY` if nothing ran).
    pub iteration_seconds: f64,
    /// Cluster launches spent reaching a runnable configuration.
    pub launches: usize,
}

/// Full Fig. 6 panel for one cluster.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Cluster label.
    pub cluster: String,
    /// Model evaluated.
    pub model: String,
    /// Global batch size.
    pub global_batch: u64,
    /// Per-method outcomes.
    pub rows: Vec<MethodResult>,
}

impl Fig6Result {
    /// Iteration time of a method by label.
    pub fn seconds_of(&self, method: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.method == method)
            .map(|r| r.iteration_seconds)
            .unwrap_or(f64::INFINITY)
    }

    /// Speedup of `a` over `b` (`t_b / t_a`).
    pub fn speedup(&self, a: &str, b: &str) -> f64 {
        self.seconds_of(b) / self.seconds_of(a)
    }
}

/// Experiment scale knobs (the full run anneals longer).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Options {
    /// SA iterations per annealed candidate.
    pub sa_iterations: usize,
    /// Candidates that get an SA pass.
    pub sa_top_k: usize,
    /// Memory-estimator training iterations.
    pub mem_iterations: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for Fig6Options {
    fn default() -> Self {
        Self {
            sa_iterations: 30_000,
            sa_top_k: 4,
            mem_iterations: 8_000,
            seed: 7,
        }
    }
}

impl Fig6Options {
    /// Reduced budget for `--quick` runs and tests.
    pub fn quick() -> Self {
        Self {
            sa_iterations: 4_000,
            sa_top_k: 2,
            mem_iterations: 2_000,
            seed: 7,
        }
    }

    /// Pipette options implementing this budget.
    pub fn pipette_options(&self) -> PipetteOptions {
        let mut memory = pipette::memory::MemoryEstimatorConfig::default();
        memory.train.iterations = self.mem_iterations;
        PipetteOptions {
            annealer: AnnealerConfig {
                iterations: self.sa_iterations,
                ..AnnealerConfig::default()
            },
            sa_top_k: self.sa_top_k,
            memory,
            seed: self.seed,
            ..PipetteOptions::default()
        }
    }
}

/// Runs the five methods on one cluster.
pub fn run(kind: ClusterKind, nodes: usize, global_batch: u64, opts: &Fig6Options) -> Fig6Result {
    let cluster = kind.cluster(nodes);
    let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
    run_on(&cluster, &gpt, global_batch, opts, kind.label())
}

/// Runs the five methods on an explicit cluster/model pair.
pub fn run_on(
    cluster: &pipette_cluster::Cluster,
    gpt: &GptConfig,
    global_batch: u64,
    opts: &Fig6Options,
    label: &str,
) -> Fig6Result {
    let run = ClusterRun::new(cluster, gpt);
    let run_recompute = ClusterRun::new(cluster, gpt).with_recompute(true);
    let mut rows = Vec::new();

    // MLM: expert trials with tp = node size.
    let mlm = MegatronTuner::new(cluster, gpt, global_batch).tune(&run);
    rows.push(match mlm {
        Some(t) => MethodResult {
            method: "MLM".into(),
            config: Some(t.config),
            plan: Some(t.plan),
            iteration_seconds: t.measured.iteration_seconds,
            launches: t.trials,
        },
        None => none_row("MLM"),
    });

    // Varuna: AMP's ranking over the pipeline-only (tp = 1) configurations,
    // walked with recomputation on.
    let amp = AmpConfigurator::new(cluster, gpt, global_batch);
    let vr_ranked = amp.rank_where(|cfg| cfg.tp == 1);
    rows.push(match first_runnable(&vr_ranked, &run_recompute) {
        Some(hit) => MethodResult {
            method: "VR".into(),
            config: Some(hit.candidate.config),
            plan: Some(hit.candidate.plan),
            iteration_seconds: hit.measured.iteration_seconds,
            launches: hit.attempts,
        },
        None => none_row("VR"),
    });

    // AMP: Eq. 1 ranking, manually tested top-down.
    let amp_ranked = amp.rank();
    rows.push(match first_runnable(&amp_ranked, &run) {
        Some(hit) => MethodResult {
            method: "AMP".into(),
            config: Some(hit.candidate.config),
            plan: Some(hit.candidate.plan),
            iteration_seconds: hit.measured.iteration_seconds,
            launches: hit.attempts,
        },
        None => none_row("AMP"),
    });

    // Pipette ablations share one memory estimator through one cache:
    // PPT-L trains it and PPT-LF hits.
    let cache = TrainedEstimatorCache::in_memory();
    let ppt_l = Pipette::new(
        cluster,
        gpt,
        global_batch,
        opts.pipette_options().latency_only(),
    )
    .with_estimator_cache(&cache)
    .run();
    rows.push(execute_recommendation("PPT-L", ppt_l, &run));

    let ppt_lf = Pipette::new(cluster, gpt, global_batch, opts.pipette_options())
        .with_estimator_cache(&cache)
        .run();
    rows.push(execute_recommendation("PPT-LF", ppt_lf, &run));

    Fig6Result {
        cluster: label.to_owned(),
        model: gpt.to_string(),
        global_batch,
        rows,
    }
}

fn none_row(method: &str) -> MethodResult {
    MethodResult {
        method: method.to_owned(),
        config: None,
        plan: None,
        iteration_seconds: f64::INFINITY,
        launches: 0,
    }
}

/// Launches a Pipette recommendation under its own mapping; on the (rare)
/// OOM miss of the memory estimator, walks the runner-up list like any
/// practitioner would. `launches` records the attempts, comparable to the
/// baselines'.
pub(crate) fn execute_recommendation(
    method: &str,
    rec: Result<pipette::Recommendation, pipette::ConfigureError>,
    run: &ClusterRun<'_>,
) -> MethodResult {
    let Ok(rec) = rec else {
        return none_row(method);
    };
    let row = |config, plan, seconds, launches| MethodResult {
        method: method.to_owned(),
        config: Some(config),
        plan: Some(plan),
        iteration_seconds: seconds,
        launches,
    };
    if let Ok(m) = run.execute(rec.config, &rec.mapping, rec.plan) {
        return row(rec.config, rec.plan, m.iteration_seconds, 1);
    }
    match first_runnable(&rec.alternatives, run) {
        Some(hit) => row(
            hit.candidate.config,
            hit.candidate.plan,
            hit.measured.iteration_seconds,
            hit.attempts + 1,
        ),
        None => none_row(method),
    }
}

/// Prints one panel in the paper's format, with the paper's speedups for
/// reference.
pub fn print(result: &Fig6Result) {
    println!(
        "Fig. 6 — {} cluster, {}, global batch {}",
        result.cluster, result.model, result.global_batch
    );
    util::rule(92);
    println!(
        "{:<8} {:>20} {:>6} {:>6} {:>12} {:>9} {:>8}",
        "method", "(pp,tp,dp)", "micro", "n_mb", "iter time", "launches", "vs MLM"
    );
    util::rule(92);
    let mlm = result.seconds_of("MLM");
    for r in &result.rows {
        let cfg = r
            .config
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        let (micro, n_mb) = r
            .plan
            .map(|p| (p.micro_batch.to_string(), p.n_microbatches.to_string()))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        println!(
            "{:<8} {:>20} {:>6} {:>6} {:>12} {:>9} {:>7.2}x",
            r.method,
            cfg,
            micro,
            n_mb,
            util::secs(r.iteration_seconds),
            r.launches,
            mlm / r.iteration_seconds
        );
    }
    util::rule(92);
    let paper: &[(&str, &str, f64, f64)] = &[
        ("PPT-L", "VR", 1.36, 1.56),
        ("PPT-L", "AMP", 1.06, 1.35),
        ("PPT-LF", "AMP", 1.12, 1.46),
        ("PPT-LF", "MLM", 1.07, 1.26),
    ];
    println!(
        "{:<20} {:>10} {:>18}",
        "speedup", "measured", "paper (mid/high)"
    );
    for (a, b, mid, high) in paper {
        println!(
            "{:<20} {:>9.2}x {:>13.2}/{:.2}x",
            format!("{a} over {b}"),
            result.speedup(a, b),
            mid,
            high
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig6_preserves_ordering_on_small_cluster() {
        // 4 nodes, weak-scaled model: the ordering VR slowest, Pipette no
        // worse than AMP, must already be visible.
        let r = run(ClusterKind::MidRange, 4, 128, &Fig6Options::quick());
        let vr = r.seconds_of("VR");
        let amp = r.seconds_of("AMP");
        let lf = r.seconds_of("PPT-LF");
        assert!(lf.is_finite(), "Pipette must produce a runnable config");
        assert!(
            amp.is_finite(),
            "AMP must eventually find a runnable config"
        );
        assert!(
            vr > amp,
            "pipeline-only Varuna should lose to AMP: {vr} vs {amp}"
        );
        assert!(
            lf <= amp * 1.02,
            "Pipette should not lose to AMP: {lf} vs {amp}"
        );
    }
}
