//! Integration tests of the baseline configurators (AMP, Varuna,
//! Megatron-LM) against the simulated cluster — the Fig. 5b / Fig. 6
//! behaviours at test scale.

use pipette::baselines::{count_oom_in_top_k, first_runnable, AmpConfigurator, MegatronTuner};
use pipette::configurator::{Alternative, Pipette, PipetteOptions};
use pipette_cluster::presets;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::ClusterRun;

#[test]
fn amp_and_varuna_recommend_oom_configs_pipette_does_not() {
    // A model near the cluster's memory limit, so memory-unaware rankers
    // walk into OOM recommendations.
    let cluster = presets::mid_range(4).build(2);
    let gpt = GptConfig::new(24, 2048, 16, 2048, 51200); // ~1.3B on 16 GiB V100s
    let runner = ClusterRun::new(&cluster, &gpt);
    let runner_recompute = ClusterRun::new(&cluster, &gpt).with_recompute(true);

    let amp = AmpConfigurator::new(&cluster, &gpt, 128).top_k(10);
    let vr = AmpConfigurator::new(&cluster, &gpt, 128).rank_where(|cfg| cfg.tp == 1);
    let amp_oom = count_oom_in_top_k(&amp, &runner, 10);
    let vr_oom = count_oom_in_top_k(&vr, &runner_recompute, 10);
    assert!(
        amp_oom >= 3,
        "AMP should recommend several OOM configs: {amp_oom}"
    );
    assert!(
        vr_oom >= 3,
        "Varuna should recommend several OOM configs: {vr_oom}"
    );

    let mut options = PipetteOptions::fast_test();
    options.memory.train.iterations = 2_500;
    let rec = Pipette::new(&cluster, &gpt, 128, options)
        .run()
        .expect("feasible");
    assert!(
        runner.execute(rec.config, &rec.mapping, rec.plan).is_ok(),
        "Pipette's top recommendation must run"
    );
}

#[test]
fn walking_the_amp_list_finds_a_runnable_config_eventually() {
    let cluster = presets::mid_range(4).build(2);
    let gpt = GptConfig::new(24, 2048, 16, 2048, 51200);
    let runner = ClusterRun::new(&cluster, &gpt);
    let ranked = AmpConfigurator::new(&cluster, &gpt, 128).rank();
    let hit = first_runnable(&ranked, &runner).expect("something must run");
    assert!(hit.attempts >= 1);
    assert_eq!(hit.attempts, hit.rank + 1);
    assert!(hit.measured.iteration_seconds > 0.0);
}

#[test]
fn varuna_needs_recomputation_for_deep_pipelines() {
    // Without recomputation, Varuna's pipeline-only configs hold full
    // activations for many in-flight microbatches and mostly OOM; with
    // recomputation they run.
    let cluster = presets::mid_range(4).build(6);
    let gpt = GptConfig::gpt_1_1b();
    let plain = ClusterRun::new(&cluster, &gpt);
    let recompute = ClusterRun::new(&cluster, &gpt).with_recompute(true);
    let ranked = AmpConfigurator::new(&cluster, &gpt, 256).rank_where(|cfg| cfg.tp == 1);
    let oom_plain = count_oom_in_top_k(&ranked, &plain, ranked.len());
    let oom_recompute = count_oom_in_top_k(&ranked, &recompute, ranked.len());
    assert!(
        oom_recompute < oom_plain,
        "recomputation should unlock configs: {oom_recompute} vs {oom_plain}"
    );
    assert!(first_runnable(&ranked, &recompute).is_some());
}

#[test]
fn varuna_is_slower_than_tensor_parallel_methods() {
    let cluster = presets::mid_range(4).build(6);
    let gpt = GptConfig::gpt_1_1b();
    let runner = ClusterRun::new(&cluster, &gpt);
    let recompute = ClusterRun::new(&cluster, &gpt).with_recompute(true);

    let vr = first_runnable(
        &AmpConfigurator::new(&cluster, &gpt, 256).rank_where(|cfg| cfg.tp == 1),
        &recompute,
    )
    .expect("varuna runs with recomputation");
    let mlm = MegatronTuner::new(&cluster, &gpt, 256)
        .tune(&runner)
        .expect("mlm runs");
    assert!(
        vr.measured.iteration_seconds > 1.2 * mlm.measured.iteration_seconds,
        "pipeline-only should pay for skipping tensor parallelism: VR {:.3} vs MLM {:.3}",
        vr.measured.iteration_seconds,
        mlm.measured.iteration_seconds
    );
}

#[test]
fn megatron_tuner_beats_or_matches_every_family_member_it_tried() {
    let cluster = presets::high_end(2).build(4);
    let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
    let runner = ClusterRun::new(&cluster, &gpt);
    let tuner = MegatronTuner::new(&cluster, &gpt, 64);
    let best = tuner.tune(&runner).expect("runnable family");
    assert_eq!(best.config.tp, cluster.topology().gpus_per_node());
    assert_eq!(best.trials, tuner.candidates().len());
}

#[test]
fn pipette_matches_or_beats_amp_on_measured_time() {
    let cluster = presets::mid_range(4).build(12);
    let gpt = GptConfig::gpt_1_1b();
    let runner = ClusterRun::new(&cluster, &gpt);
    let amp = first_runnable(&AmpConfigurator::new(&cluster, &gpt, 256).rank(), &runner)
        .expect("amp finds something");
    let mut options = PipetteOptions::fast_test();
    options.annealer.iterations = 6_000;
    options.seed = 12;
    let rec = Pipette::new(&cluster, &gpt, 256, options)
        .run()
        .expect("feasible");
    let ppt = runner
        .execute(rec.config, &rec.mapping, rec.plan)
        .expect("runnable");
    assert!(
        ppt.iteration_seconds <= amp.measured.iteration_seconds * 1.03,
        "Pipette {:.3}s should not lose to AMP {:.3}s",
        ppt.iteration_seconds,
        amp.measured.iteration_seconds
    );
}

/// FNV-1a over little-endian words: one number that pins a whole list.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn config_words(cfg: ParallelConfig, plan: MicrobatchPlan) -> [u64; 5] {
    [
        cfg.pp as u64,
        cfg.tp as u64,
        cfg.dp as u64,
        plan.micro_batch,
        plan.n_microbatches,
    ]
}

/// A ranking's (pp, tp, dp, micro, n_mb, estimate bits), in order.
fn ranking_digest(ranked: &[Alternative]) -> u64 {
    digest(ranked.iter().flat_map(|c| {
        let [pp, tp, dp, micro, n_mb] = config_words(c.config, c.plan);
        [pp, tp, dp, micro, n_mb, c.estimated_seconds.to_bits()]
    }))
}

/// Every baseline's output, bit for bit, on two clusters: AMP's and
/// Varuna's full rankings, Megatron's candidate list and its tuned
/// result (configuration, plan, measured seconds and trials).
#[test]
fn baseline_outputs_are_pinned() {
    let mid = presets::mid_range(4).build(6);
    let high = presets::high_end(2).build(4);
    let cases = [
        (
            &mid,
            GptConfig::gpt_1_1b(),
            256,
            8,
            0,
            [
                0x3f61_19e4_613b_5964,
                0x8443_2bc2_f32a_5e18,
                0xc056_b4d7_3deb_fb25,
                0x92f5_ac40_6dc2_8f6d,
            ],
        ),
        (
            &high,
            GptConfig::new(8, 1024, 16, 2048, 51200),
            64,
            4,
            3,
            [
                0xb22a_e283_f293_6a26,
                0x5d9f_f85f_cb9b_d0f8,
                0x3fbd_b79e_351d_e16d,
                0x0baa_5ca3_28a4_3998,
            ],
        ),
    ];
    for (cluster, gpt, batch, max_micro, seed, pins) in cases {
        let baseline = AmpConfigurator::new(cluster, &gpt, batch)
            .with_max_micro(max_micro)
            .with_seed(seed);
        let amp = baseline.rank();
        let varuna = baseline.rank_where(|cfg| cfg.tp == 1);
        let tuner = MegatronTuner::new(cluster, &gpt, batch).with_max_micro(max_micro);
        let candidates = digest(
            tuner
                .candidates()
                .into_iter()
                .flat_map(|(cfg, plan)| config_words(cfg, plan)),
        );
        let tuned = tuner
            .tune(&ClusterRun::new(cluster, &gpt))
            .expect("runnable family");
        let tuned = digest(config_words(tuned.config, tuned.plan).into_iter().chain([
            tuned.measured.iteration_seconds.to_bits(),
            tuned.trials as u64,
        ]));
        let got = [
            ranking_digest(&amp),
            ranking_digest(&varuna),
            candidates,
            tuned,
        ];
        assert_eq!(
            got, pins,
            "{cluster}: got [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
            got[0], got[1], got[2], got[3]
        );
    }
}
