//! End-to-end integration tests: the full Pipette pipeline (profiling →
//! memory estimator → candidate enumeration → worker dedication) against
//! the ground-truth simulator, across both cluster presets.

use pipette::configurator::{Pipette, PipetteOptions, Recommendation};
use pipette::memory::TrainedEstimatorCache;
use pipette::ConfigureError;
use pipette_cluster::{presets, Cluster};
use pipette_model::GptConfig;
use pipette_sim::{ClusterRun, SimError};

fn small_gpt() -> GptConfig {
    GptConfig::new(8, 1024, 16, 2048, 51200)
}

fn configure(cluster: &Cluster, gpt: &GptConfig, batch: u64, seed: u64) -> Recommendation {
    let mut options = PipetteOptions::fast_test();
    options.seed = seed;
    Pipette::new(cluster, gpt, batch, options)
        .run()
        .expect("feasible space")
}

#[test]
fn recommendation_runs_on_both_clusters() {
    for (preset, batch) in [(presets::mid_range(2), 64), (presets::high_end(2), 64)] {
        let cluster = preset.build(5);
        let gpt = small_gpt();
        let rec = configure(&cluster, &gpt, batch, 1);
        let runner = ClusterRun::new(&cluster, &gpt);
        let measured = runner
            .execute(rec.config, &rec.mapping, rec.plan)
            .expect("Pipette recommendations must be runnable");
        assert!(measured.iteration_seconds > 0.0);
        assert!(measured.peak_memory_bytes <= cluster.gpu().memory_bytes);
        // The batch decomposition must reconstruct the global batch.
        assert_eq!(
            rec.plan.minibatch() * rec.config.dp as u64,
            batch,
            "batch arithmetic must hold"
        );
    }
}

#[test]
fn estimate_matches_measurement_within_tolerance() {
    let cluster = presets::mid_range(2).build(9);
    let gpt = small_gpt();
    let rec = configure(&cluster, &gpt, 64, 2);
    let runner = ClusterRun::new(&cluster, &gpt);
    let measured = runner
        .execute(rec.config, &rec.mapping, rec.plan)
        .expect("runnable");
    let err =
        (rec.estimated_seconds - measured.iteration_seconds).abs() / measured.iteration_seconds;
    assert!(
        err < 0.15,
        "estimate {} vs measured {} (err {err:.3})",
        rec.estimated_seconds,
        measured.iteration_seconds
    );
}

#[test]
fn configurator_is_deterministic() {
    let cluster = presets::mid_range(2).build(3);
    let gpt = small_gpt();
    let a = configure(&cluster, &gpt, 64, 7);
    let b = configure(&cluster, &gpt, 64, 7);
    assert_eq!(a.config, b.config);
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.mapping, b.mapping);
    assert_eq!(a.estimated_seconds, b.estimated_seconds);
}

#[test]
fn worker_dedication_is_no_worse_end_to_end() {
    // PPT-LF's recommendation must not run slower than PPT-L's on the
    // actual cluster (they may tie when the annealer finds nothing).
    let cluster = presets::high_end(2).build(17);
    let gpt = small_gpt();
    let mut options = PipetteOptions::fast_test();
    options.seed = 3;
    options.annealer.iterations = 6_000;

    // Both runs share one trained memory estimator through one cache.
    let cache = TrainedEstimatorCache::in_memory();
    let runner = ClusterRun::new(&cluster, &gpt);

    let with_sa = Pipette::new(&cluster, &gpt, 64, options)
        .with_estimator_cache(&cache)
        .run()
        .expect("feasible");
    let without = Pipette::new(&cluster, &gpt, 64, options.latency_only())
        .with_estimator_cache(&cache)
        .run()
        .expect("feasible");

    let t_sa = runner
        .execute(with_sa.config, &with_sa.mapping, with_sa.plan)
        .expect("runnable")
        .iteration_seconds;
    let t_plain = runner
        .execute(without.config, &without.mapping, without.plan)
        .expect("runnable")
        .iteration_seconds;
    assert!(
        t_sa <= t_plain * 1.05,
        "dedication should not materially hurt: {t_sa:.3} vs {t_plain:.3}"
    );
}

#[test]
fn oversized_model_reports_no_feasible_config() {
    let cluster = presets::mid_range(2).build(3);
    // ~51B parameters cannot fit on 16 V100s under any 3D split.
    let huge = GptConfig::new(16, 16384, 32, 2048, 51200);
    let mut options = PipetteOptions::fast_test();
    options.seed = 5;
    let err = Pipette::new(&cluster, &huge, 256, options)
        .run()
        .expect_err("must not fit");
    assert!(matches!(err, ConfigureError::NoFeasibleConfig { .. }));

    // Ground truth agrees: even the most aggressive split OOMs.
    let runner = ClusterRun::new(&cluster, &huge);
    let cfg = pipette_model::ParallelConfig::new(2, 8, 1);
    let mapping = pipette_sim::Mapping::identity(cfg, *cluster.topology());
    let plan = pipette_model::MicrobatchPlan::new(256, 1).unwrap();
    assert!(matches!(
        runner.execute(cfg, &mapping, plan),
        Err(SimError::OutOfMemory { .. })
    ));
}

#[test]
fn overhead_report_accounts_every_phase() {
    let cluster = presets::mid_range(2).build(3);
    let gpt = small_gpt();
    let rec = configure(&cluster, &gpt, 64, 11);
    let o = rec.overhead;
    // Bandwidth profiling models the Table II cost for 2 nodes.
    assert!(o.bandwidth_profiling.as_secs_f64() > 30.0);
    // SA ran (fast_test budget) and took some host time.
    assert!(o.simulated_annealing.as_secs_f64() > 0.0);
    // Amortized estimator training happened (no pretrained estimator).
    assert!(o.memory_training.as_secs_f64() > 0.0);
    // Total overhead is negligible against a 300K-iteration run.
    let frac = o.overhead_fraction(rec.estimated_seconds, 300_000);
    assert!(frac < 0.01, "overhead fraction {frac}");
}

#[test]
fn alternatives_are_ordered_and_exclude_winner() {
    let cluster = presets::mid_range(2).build(3);
    let gpt = small_gpt();
    let rec = configure(&cluster, &gpt, 64, 13);
    assert!(
        !rec.alternatives.is_empty(),
        "a small model has many feasible configs"
    );
    assert!(
        !rec.alternatives
            .iter()
            .any(|a| a.config == rec.config && a.plan == rec.plan),
        "winner must not appear among alternatives"
    );
    // Ranked best-first by identity-mapping estimate.
    assert!(rec
        .alternatives
        .windows(2)
        .all(|w| w[0].estimated_seconds <= w[1].estimated_seconds));
}
