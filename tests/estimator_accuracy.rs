//! Integration tests of the two estimators against the ground-truth
//! simulator — the Fig. 5a / Fig. 7 claims at test scale.

use pipette::latency::{AmpLatencyModel, Eq1Flavor, PipetteLatencyModel};
use pipette::memory::{
    collect_samples, AnalyticMemoryEstimator, MemoryEstimator, MemoryEstimatorConfig, SampleSpec,
};
use pipette_cluster::{presets, BandwidthMatrix, ProfiledBandwidth};
use pipette_model::{BatchConfig, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{ClusterRun, ComputeProfiler, IterationSim, Mapping, MemorySim};

/// Sweep every runnable configuration of a small cluster and return
/// `(pipette_errs, amp_errs, datasheet_errs)` against the simulator. The
/// third population is Pipette's own estimator fed the datasheet link
/// speeds instead of the profiled matrix.
fn latency_error_population(nodes: usize, flavor: Eq1Flavor) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let cluster = presets::mid_range(nodes).build(31);
    let gpt = GptConfig::new(16, 2048, 16, 2048, 51200);
    let runner = ClusterRun::new(&cluster, &gpt);
    let gpu = cluster.gpu().clone();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 4);
    let ppt = PipetteLatencyModel::new(&profiled, &gpt);
    let amp = AmpLatencyModel::from_specs_of(cluster.bandwidth(), &gpt).with_flavor(flavor);
    let datasheet = ProfiledBandwidth::exact(BandwidthMatrix::homogeneous(
        *cluster.topology(),
        cluster.bandwidth().intra_spec(),
        cluster.bandwidth().inter_spec(),
    ));
    let datasheet_ppt = PipetteLatencyModel::new(&datasheet, &gpt);
    let profiler = ComputeProfiler::default();
    let topo = cluster.topology();
    let mut ppt_errs = Vec::new();
    let mut amp_errs = Vec::new();
    let mut datasheet_errs = Vec::new();
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
            let compute = profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 8);
            ppt_errs.push((ppt.estimate(cfg, &mapping, plan, &compute) - truth).abs() / truth);
            amp_errs.push((amp.estimate(cfg, plan, &compute) - truth).abs() / truth);
            let est = datasheet_ppt.estimate(cfg, &mapping, plan, &compute);
            datasheet_errs.push((est - truth).abs() / truth);
        }
    }
    (ppt_errs, amp_errs, datasheet_errs)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn pipette_latency_mape_is_single_digit() {
    let (ppt, _, _) = latency_error_population(4, Eq1Flavor::Scalar);
    assert!(ppt.len() >= 10, "population too small: {}", ppt.len());
    let mape = mean(&ppt);
    assert!(
        mape < 0.06,
        "Pipette latency MAPE {mape:.3} should be single-digit"
    );
    // And no single configuration is estimated wildly wrong.
    let worst = ppt.iter().cloned().fold(0.0, f64::max);
    assert!(worst < 0.20, "worst-case error {worst:.3}");
}

#[test]
fn eq1_scalar_flavor_is_much_worse_than_pipette() {
    // Fig. 5a's comparison: Eq. 1 as written vs Eqs. 3-6.
    let (ppt, amp, _) = latency_error_population(4, Eq1Flavor::Scalar);
    assert!(
        mean(&amp) > 3.0 * mean(&ppt),
        "Eq.1 scalar MAPE {:.3} should dwarf Pipette's {:.3}",
        mean(&amp),
        mean(&ppt)
    );
}

#[test]
fn eq1_per_stage_flavor_still_loses_to_pipette() {
    let (ppt, amp, _) = latency_error_population(4, Eq1Flavor::PerStage);
    assert!(
        mean(&amp) > mean(&ppt),
        "even the charitable Eq.1 reading ({:.4}) should lose to Pipette ({:.4})",
        mean(&amp),
        mean(&ppt)
    );
}

#[test]
fn profiled_links_beat_datasheet_links_inside_pipettes_estimator() {
    // The profiled-bandwidth ablation: the same Eq. 3-6 estimator, fed the
    // link speeds the datasheet promises instead of the ones profiled.
    let (ppt, _, datasheet) = latency_error_population(4, Eq1Flavor::Scalar);
    assert!(
        mean(&ppt) < mean(&datasheet),
        "profiled links (MAPE {:.4}) should beat datasheet links ({:.4})",
        mean(&ppt),
        mean(&datasheet)
    );
}

#[test]
fn amp_errors_are_underestimates() {
    // The paper's diagnosis: Eq. 1 misses latency (hidden path + ideal
    // bandwidths), so its errors skew toward underestimation.
    let cluster = presets::mid_range(4).build(31);
    let gpt = GptConfig::new(16, 2048, 16, 2048, 51200);
    let gpu = cluster.gpu().clone();
    let amp =
        AmpLatencyModel::from_specs_of(cluster.bandwidth(), &gpt).with_flavor(Eq1Flavor::Scalar);
    let profiler = ComputeProfiler::new(0.0);
    let mut under = 0;
    let mut total = 0;
    for cfg in [
        ParallelConfig::new(4, 8, 1),
        ParallelConfig::new(8, 4, 1),
        ParallelConfig::new(2, 8, 2),
    ] {
        let plan = MicrobatchPlan::new(128 / cfg.dp as u64, 1).unwrap();
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
            .simulate(cfg, &mapping, plan)
            .total_seconds;
        let est = amp.estimate(
            cfg,
            plan,
            &profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 1),
        );
        total += 1;
        if est < truth {
            under += 1;
        }
    }
    assert_eq!(
        under, total,
        "Eq.1 should underestimate every pipeline-parallel config"
    );
}

#[test]
fn memory_estimator_extrapolates_to_more_gpus() {
    // Train on 8/16-GPU profiles, evaluate on 32-GPU configurations of the
    // same models — the §VI extrapolation claim at test scale.
    let models = vec![
        GptConfig::new(8, 1024, 16, 2048, 51200),
        GptConfig::new(16, 1536, 16, 2048, 51200),
    ];
    let truth = MemorySim::new(77);
    let train = collect_samples(
        &SampleSpec {
            gpu_counts: vec![8, 16],
            gpus_per_node: 8,
            models: models.clone(),
            global_batches: vec![64, 128],
            max_micro: 4,
        },
        &truth,
    );
    let eval = collect_samples(
        &SampleSpec {
            gpu_counts: vec![32],
            gpus_per_node: 8,
            models,
            global_batches: vec![128],
            max_micro: 4,
        },
        &truth,
    );
    // A shallower net with a longer Adam budget extrapolates markedly
    // better here than the deeper default (depth 3 overfits the 8/16-GPU
    // training envelope and drifts at 32 GPUs; MAPE stays < 0.13 across
    // init seeds with this shape).
    let config = MemoryEstimatorConfig {
        train: pipette_mlp::TrainConfig {
            iterations: 24_000,
            learning_rate: 2e-3,
            batch_size: 64,
            record_every: 1_000,
            seed: 0,
        },
        hidden: 64,
        depth: 2,
        soft_margin: 0.04,
        seed: 1,
    };
    let est = MemoryEstimator::train(&train, &config);
    let mape = est.mape(&eval);
    assert!(mape < 0.15, "extrapolation MAPE {mape:.3}");
}

#[test]
fn analytic_baseline_underestimates_systematically() {
    let gpt = GptConfig::gpt_1_1b();
    let truth = MemorySim::new(3);
    let analytic = AnalyticMemoryEstimator::new();
    let mut under = 0;
    let mut total = 0;
    for cfg in ParallelConfig::enumerate(32, 8, gpt.n_layers) {
        let Ok(mini) = BatchConfig::new(64).minibatch(cfg.dp) else {
            continue;
        };
        for plan in MicrobatchPlan::enumerate(mini, 4) {
            let actual = truth.report(&gpt, cfg, plan).peak_bytes;
            let est = analytic.estimate_bytes(&gpt, cfg, plan);
            total += 1;
            if est < actual {
                under += 1;
            }
        }
    }
    assert!(total > 20);
    assert_eq!(
        under, total,
        "the analytic baseline must underestimate everywhere"
    );
}
