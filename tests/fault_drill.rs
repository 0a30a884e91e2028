//! Fault-drill integration tests: the degradation ladder end to end.
//!
//! Pins the two contractual properties of the robustness layer — the
//! zero-fault path is bit-identical to the plain configurator, and every
//! injected fault degrades gracefully into a typed error or a valid
//! recommendation (never a panic).

use pipette::configurator::{Pipette, PipetteOptions};
use pipette::degraded::run_under_faults;
use pipette::ConfigureError;
use pipette_cluster::{
    presets, Cluster, CorruptPair, DegradedLink, FaultPlan, GpuId, StragglerGpu,
};
use pipette_model::GptConfig;
use pipette_obs::Trace;
use pipette_sim::ClusterRun;

fn small_gpt() -> GptConfig {
    GptConfig::new(8, 1024, 16, 2048, 51200)
}

fn options(seed: u64) -> PipetteOptions {
    let mut options = PipetteOptions::fast_test();
    options.seed = seed;
    options
}

#[test]
fn zero_fault_drill_is_bit_identical_to_plain_run() {
    let cluster = presets::mid_range(2).build(42);
    let gpt = small_gpt();
    let plain = Pipette::new(&cluster, &gpt, 64, options(7))
        .run()
        .expect("plain run");
    let outcome = run_under_faults(&cluster, &gpt, 64, options(7), &FaultPlan::default(), None)
        .expect("zero-fault drill");

    let rec = &outcome.recommendation;
    assert_eq!(rec.config, plain.config);
    assert_eq!(rec.plan, plain.plan);
    assert_eq!(rec.mapping, plain.mapping);
    assert_eq!(
        rec.estimated_seconds.to_bits(),
        plain.estimated_seconds.to_bits(),
        "zero-fault estimate must be bit-identical"
    );
    assert_eq!(
        rec.memory.predicted_bytes, plain.memory.predicted_bytes,
        "zero-fault memory screen must use a bit-identical estimator"
    );
    assert_eq!(rec.examined, plain.examined);
    assert_eq!(rec.memory_rejected, plain.memory_rejected);
    assert_eq!(rec.alternatives.len(), plain.alternatives.len());

    assert!(outcome.report.is_clean());
    assert!(outcome.excluded_gpus.is_empty());
    assert!(outcome.reconfiguration.is_none());
    assert!(!outcome.used_analytic_fallback);
    assert_eq!(outcome.survivor.topology().num_gpus(), 16);
}

#[test]
fn node_dropout_reconfigures_on_the_survivors() {
    let cluster = presets::mid_range(3).build(11);
    let gpt = small_gpt();
    let plan = FaultPlan {
        failed_gpus: vec![9], // node 1 hosts GPUs 8..16 → cordoned whole
        ..FaultPlan::default()
    };
    let mut trace = Trace::default();
    let outcome = run_under_faults(&cluster, &gpt, 64, options(3), &plan, Some(&mut trace))
        .expect("degraded run");

    assert_eq!(outcome.excluded_gpus.len(), 8);
    assert_eq!(outcome.survivor.topology().num_nodes(), 2);
    let rec = &outcome.recommendation;
    assert_eq!(rec.config.num_workers(), 16, "16 GPUs survive");

    // The recommendation must actually run on the surviving subcluster.
    let measured = ClusterRun::new(&outcome.survivor, &gpt)
        .execute(rec.config, &rec.mapping, rec.plan)
        .expect("degraded recommendation must be runnable on survivors");
    assert!(measured.peak_memory_bytes <= outcome.survivor.gpu().memory_bytes);

    let reconf = outcome.reconfiguration.expect("GPUs were lost");
    assert_eq!(reconf.healthy_gpus, 24);
    assert_eq!(reconf.surviving_gpus, 16);
    assert_eq!(reconf.healthy.config.num_workers(), 24);
    assert!(reconf.slowdown_factor.is_finite() && reconf.slowdown_factor > 0.0);

    let kinds: Vec<&str> = trace.events().iter().map(|e| e.kind.kind()).collect();
    assert!(kinds.contains(&"fault_plan"));
    assert!(kinds.iter().filter(|&&k| k == "gpu_excluded").count() == 8);
    assert!(kinds.contains(&"reconfiguration"));
}

#[test]
fn total_sample_loss_falls_back_to_the_analytic_estimator() {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let plan = FaultPlan {
        sample_loss_rate: 1.0,
        ..FaultPlan::default()
    };
    let mut trace = Trace::default();
    let outcome = run_under_faults(&cluster, &gpt, 64, options(1), &plan, Some(&mut trace))
        .expect("fallback run still completes");

    assert!(outcome.used_analytic_fallback);
    let kinds: Vec<&str> = trace.events().iter().map(|e| e.kind.kind()).collect();
    assert!(kinds.contains(&"fallback"));
    // The analytic screen is conservative but must still admit a config.
    let rec = &outcome.recommendation;
    let measured = ClusterRun::new(&outcome.survivor, &gpt)
        .execute(rec.config, &rec.mapping, rec.plan)
        .expect("analytic-screened recommendation must be runnable");
    assert!(measured.peak_memory_bytes <= cluster.gpu().memory_bytes);
}

/// A degraded link is a ground-truth fault that the profiler applies
/// once, and measures however slow it is: at ×0.25, ×0.05 and ×0.01 it
/// reads at its degraded bandwidth, so nothing is retried or imputed.
/// Applied twice, or judged against a lower plausibility bound, it would
/// be discarded and imputed as a healthy link.
#[test]
fn degraded_link_is_measured_once_not_imputed() {
    let cluster = presets::mid_range(4).build(5);
    for factor in [0.25, 0.05, 0.01] {
        let plan = FaultPlan {
            degraded_links: vec![DegradedLink {
                from_node: 0,
                to_node: 1,
                factor,
            }],
            ..FaultPlan::default()
        };
        let outcome = run_under_faults(&cluster, &small_gpt(), 64, options(5), &plan, None)
            .expect("degraded run");
        assert_eq!(outcome.report.imputed, 0, "x{factor}");
        assert_eq!(outcome.report.retries, 0, "x{factor}");

        let (profiled, _) = cluster
            .profiler()
            .profile_robust(cluster.bandwidth(), 5, &plan)
            .expect("plan fits");
        let (a, b) = (GpuId(0), GpuId(8));
        let ratio = profiled.matrix().between(a, b) / (factor * cluster.bandwidth().between(a, b));
        assert!(
            (0.8..=1.2).contains(&ratio),
            "x{factor} link read at {ratio} x its degraded truth"
        );
    }
}

#[test]
fn exhausting_every_node_is_a_typed_error() {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let plan = FaultPlan {
        failed_nodes: vec![0, 1],
        ..FaultPlan::default()
    };
    let err =
        run_under_faults(&cluster, &gpt, 64, options(1), &plan, None).expect_err("no survivors");
    assert!(matches!(
        err,
        ConfigureError::ClusterExhausted {
            failed_gpus: 16,
            total_gpus: 16
        }
    ));
}

#[test]
fn malformed_plans_surface_as_cluster_errors() {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let plan = FaultPlan {
        corrupt_pairs: vec![CorruptPair {
            from_gpu: 0,
            to_gpu: 1,
            kind: "gamma-ray".into(),
        }],
        ..FaultPlan::default()
    };
    let err = run_under_faults(&cluster, &gpt, 64, options(1), &plan, None)
        .expect_err("unknown corruption kind");
    assert!(matches!(err, ConfigureError::Cluster(_)));
    assert!(err.to_string().contains("gamma-ray"));
}

#[test]
fn invalid_inputs_are_rejected_before_the_search() {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();

    // A negative link smuggled in through deserialization — `set()`
    // rejects bad values, but a serialized cluster is not revalidated on
    // load, so the configurator must catch it. Plant a unique sentinel,
    // then corrupt it in the JSON text.
    let mut matrix = cluster.bandwidth().clone();
    matrix.set(GpuId(2), GpuId(7), 123456.75);
    let tagged = Cluster::new(
        "poisoned",
        cluster.gpu().clone(),
        matrix,
        cluster.profiler(),
    );
    let json = tagged.to_json();
    assert!(json.contains("123456.75"), "sentinel must serialize");
    let poisoned = Cluster::from_json(&json.replace("123456.75", "-3.0")).expect("parses");
    let err = Pipette::new(&poisoned, &gpt, 64, options(1))
        .run()
        .expect_err("NaN bandwidth");
    assert!(matches!(
        err,
        ConfigureError::InvalidBandwidth { from: 2, to: 7, .. }
    ));

    // A GPU spec with no memory at all.
    let mut gpu = cluster.gpu().clone();
    gpu.memory_bytes = 0;
    let hollow = Cluster::new(
        "hollow",
        gpu,
        cluster.bandwidth().clone(),
        cluster.profiler(),
    );
    let err = Pipette::new(&hollow, &gpt, 64, options(1))
        .run()
        .expect_err("zero-memory GPUs");
    assert!(matches!(err, ConfigureError::InvalidCluster { .. }));
}

/// No fault mix may panic: every plan either configures the survivors or
/// returns a typed error.
#[test]
fn fault_plan_fuzz_seeds_never_panic() {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let plans = [
        FaultPlan {
            seed: 1,
            measurement_failure_rate: 0.9,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 2,
            straggler_gpus: vec![StragglerGpu {
                gpu: 3,
                slowdown: 4.0,
            }],
            corrupt_pairs: vec![
                CorruptPair {
                    from_gpu: 0,
                    to_gpu: 8,
                    kind: "nan".into(),
                },
                CorruptPair {
                    from_gpu: 8,
                    to_gpu: 0,
                    kind: "outlier".into(),
                },
            ],
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 3,
            failed_nodes: vec![1],
            sample_loss_rate: 0.5,
            measurement_failure_rate: 0.25,
            ..FaultPlan::default()
        },
        FaultPlan {
            seed: 4,
            failed_gpus: vec![0, 15],
            ..FaultPlan::default()
        },
    ];
    for plan in &plans {
        let mut trace = Trace::default();
        let result = run_under_faults(
            &cluster,
            &gpt,
            64,
            options(plan.seed),
            plan,
            Some(&mut trace),
        );
        match result {
            Ok(outcome) => {
                assert!(outcome.recommendation.estimated_seconds > 0.0);
            }
            Err(e) => {
                // Typed, displayable errors only.
                assert!(!e.to_string().is_empty());
            }
        }
    }
}
