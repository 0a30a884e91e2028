//! Integration guarantees of the incremental SA objective and the
//! parallel configurator:
//!
//! 1. every `propose` matches a from-scratch batch estimate on the moved
//!    mapping (property-tested over random move/commit/rollback streams,
//!    at any memo capacity, and on mappings whose tensor blocks straddle
//!    nodes), and both match an Eq. 3–6 oracle written out here on random
//!    clusters, shapes and microbatch sizes, as does every plan priced
//!    from one link gather of its configuration;
//! 2. annealing through the incremental objective returns the *same
//!    mapping and cost, bit for bit*, as the legacy full-evaluation
//!    closure for a given seed — the optimization changes wall-clock,
//!    never results;
//! 3. `Pipette::run` is thread-count-invariant on all deterministic
//!    fields.

use pipette::configurator::{Pipette, PipetteOptions};
use pipette::latency::{terms, PipetteLatencyModel};
use pipette::mapping::{Annealer, AnnealerConfig, DpMemo, IncrementalObjective, Move, Objective};
use pipette::memory::TrainedEstimatorCache;
use pipette_cluster::{presets, BandwidthMatrix, ClusterTopology, GpuId, HeterogeneityModel};
use pipette_model::{messages, GptConfig, MicrobatchPlan, ParallelConfig, WorkerId};
use pipette_sim::iteration::OPTIMIZER_STEP_S;
use pipette_sim::{CommModel, ComputeProfiler, HierScratch, Mapping, ProfiledCompute};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn setup() -> (pipette_cluster::Cluster, GptConfig) {
    setup_nodes(2)
}

fn setup_nodes(nodes: usize) -> (pipette_cluster::Cluster, GptConfig) {
    (
        presets::mid_range(nodes).build(17),
        GptConfig::new(8, 1024, 16, 2048, 51200),
    )
}

/// Drives one seeded random move per entry of `accepts` through `obj`,
/// committing or rolling it back as the entry says, and checks every
/// proposal and every settled state bit for bit against the batch
/// estimator on the moved mapping.
fn track_batch_estimator(
    model: &PipetteLatencyModel,
    compute: &ProfiledCompute,
    plan: MicrobatchPlan,
    obj: &mut IncrementalObjective,
    mapping: &mut Mapping,
    seed: u64,
    accepts: &[bool],
) -> Result<(), TestCaseError> {
    let cfg = mapping.config();
    let block = cfg.tp.max(1);
    let num_blocks = cfg.num_workers() / block;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &accept in accepts {
        let mv = Move::random(&mut rng, num_blocks);
        mv.apply(mapping.as_mut_slice(), block);
        let fast = obj.propose(mv, mapping);
        let slow = model.estimate(cfg, mapping, plan, compute);
        prop_assert!(
            (fast - slow).abs() <= 1e-9,
            "proposal diverged: {fast} vs {slow} for {mv:?}"
        );
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
        if accept {
            obj.commit();
        } else {
            obj.rollback();
            mv.inverse().apply(mapping.as_mut_slice(), block);
        }
        let settled = model.estimate(cfg, mapping, plan, compute);
        prop_assert_eq!(obj.cost().to_bits(), settled.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random walks of moves with arbitrary accept/reject interleavings:
    /// the incremental cost must track the batch estimator on every step.
    /// The dp 16 and dp 32 shapes are past `DP_MEMO_MAX_DP`, so every
    /// touched stage recomputes through the block kernel.
    #[test]
    fn incremental_cost_tracks_batch_estimator(
        seed in 0u64..1_000,
        accepts in proptest::collection::vec(proptest::bool::ANY, 30),
        cfg_idx in 0usize..5,
    ) {
        let (nodes, cfg) = [
            (2, ParallelConfig::new(4, 2, 2)),
            (2, ParallelConfig::new(2, 2, 4)),
            (2, ParallelConfig::new(8, 2, 1)),
            (4, ParallelConfig::new(1, 2, 16)),
            (4, ParallelConfig::new(1, 1, 32)),
        ][cfg_idx];
        let (cluster, gpt) = setup_nodes(nodes);
        let plan = MicrobatchPlan::new(64, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 9);
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 9);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let mut mapping = Mapping::identity(cfg, *cluster.topology());
        let mut obj =
            IncrementalObjective::from_model(&model, &gpt, plan, &compute, &mapping);
        track_batch_estimator(&model, &compute, plan, &mut obj, &mut mapping, seed, &accepts)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The open-addressed memo at tiny capacities, where the
    /// seeded-eviction policy fires constantly, still tracks
    /// `PipetteLatencyModel::estimate` bit for bit over random
    /// move/commit/rollback streams. Memo values are pure in their keys,
    /// so eviction can only turn a hit into an identical recompute; this
    /// test is the executable form of that argument.
    #[test]
    fn open_memo_bit_matches_reference_memo(
        seed in 0u64..500,
        accepts in proptest::collection::vec(proptest::bool::ANY, 40),
        capacity_log2 in 4u32..10,
        cfg_idx in 0usize..3,
    ) {
        let (cluster, gpt) = setup();
        let cfg = [
            ParallelConfig::new(4, 2, 2),
            ParallelConfig::new(2, 2, 4),
            ParallelConfig::new(2, 4, 2),
        ][cfg_idx];
        let plan = MicrobatchPlan::new(64, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 9);
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 9);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let mut mapping = Mapping::identity(cfg, *cluster.topology());
        let mut obj = IncrementalObjective::with_memo(
            profiled.matrix(), &gpt, plan, &compute, &mapping,
            DpMemo::new(1 << capacity_log2, seed),
        );
        prop_assert_eq!(
            obj.cost().to_bits(),
            model.estimate(cfg, &mapping, plan, &compute).to_bits()
        );
        track_batch_estimator(&model, &compute, plan, &mut obj, &mut mapping, seed, &accepts)?;
        let stats = obj.memo_stats();
        prop_assert!(stats.hits + stats.misses > 0);
        // The smallest table must actually evict for this test to mean
        // anything; the larger ones need not.
        if capacity_log2 == 4 {
            prop_assert!(stats.evictions > 0, "16 slots never evicted: {:?}", stats);
        }
    }
}

/// Eqs. 3–6 written out from their definitions for one mapping, one
/// worker at a time. It shares only `CommModel` with the library, so the
/// batch estimator and the incremental objective, which share one term
/// table and one reduction, are checked against something they do not
/// share.
fn eq36_oracle(
    matrix: &BandwidthMatrix,
    gpt: &GptConfig,
    plan: MicrobatchPlan,
    compute: &ProfiledCompute,
    mapping: &Mapping,
) -> f64 {
    let cfg = mapping.config();
    let comm = CommModel::new(matrix);
    let (pp, n_mb) = (cfg.pp as f64, plan.n_microbatches as f64);
    let gpu = |stage, tensor, data| {
        mapping.gpu_of(WorkerId {
            stage,
            tensor,
            data,
        })
    };
    // Eq. 5: the round trip from stage x to x + 1, slowest tensor rank.
    let msg_pp = messages::pp_message_bytes(gpt, plan.micro_batch);
    let hop = |x: usize, z: usize| {
        let mut slowest = 0.0f64;
        for y in 0..cfg.tp {
            let (a, b) = (gpu(x, y, z), gpu(x + 1, y, z));
            slowest = slowest.max(comm.p2p(a, b, msg_pp) + comm.p2p(b, a, msg_pp));
        }
        slowest
    };
    // Eq. 6: each rank's hierarchical all-reduce, slowest rank.
    let dp_times: Vec<f64> = (0..cfg.pp)
        .map(|s| {
            let bytes = messages::dp_gradient_bytes(gpt, cfg.pp, cfg.tp, s);
            (0..cfg.tp)
                .map(|y| comm.hierarchical_allreduce(&mapping.data_group(s, y), bytes))
                .fold(0.0, f64::max)
        })
        .collect();
    let tp_bytes = messages::tp_allreduce_bytes(gpt, plan.micro_batch);
    let mut worst = 0.0f64;
    for z in 0..cfg.dp {
        // Stage cost: compute plus four tensor-parallel all-reduces per
        // layer over the stage's tensor group.
        let cost: Vec<f64> = (0..cfg.pp)
            .map(|s| {
                let tp = if cfg.tp < 2 {
                    0.0
                } else {
                    let layers = gpt.layers_of_stage(cfg.pp, s) as f64;
                    let ring = comm.ring_allreduce(&mapping.tensor_group(s, z), tp_bytes);
                    messages::TP_ALLREDUCES_PER_LAYER as f64 * layers * ring
                };
                compute.compute(s) + tp
            })
            .collect();
        let (mut sum, mut max, mut t_pp) = (0.0f64, 0.0f64, 0.0f64);
        for &c in &cost {
            sum += c;
            max = max.max(c);
        }
        for x in 1..cfg.pp {
            t_pp += hop(x - 1, z);
        }
        // Straggler work, one fill and drain, and the hidden critical
        // path closing n_mb/pp − 1 times (Eq. 4, §V).
        let loops = (n_mb / pp - 1.0).max(0.0);
        let loop_excess = (sum + t_pp - pp * max).max(0.0);
        let chain = n_mb * max + (pp - 1.0) * (sum / pp) + t_pp + loops * loop_excess;
        // Stage 0's all-reduce is exposed; a later stage's only beyond
        // its backward-wave slack.
        let (mut gap, mut dp_exposed) = (0.0f64, dp_times[0]);
        for s in 1..cfg.pp {
            gap += 2.0 * cost[s - 1] / 3.0 + hop(s - 1, z) / 2.0;
            dp_exposed = dp_exposed.max(dp_times[s] - gap);
        }
        worst = worst.max(chain + dp_exposed);
    }
    worst + OPTIMIZER_STEP_S
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random clusters of either preset (1–8 nodes, any build seed),
    /// random models, any shape the configurator enumerates and any
    /// microbatch size, every proposal and every settled cost of a random
    /// move/accept stream equals `estimate`, `breakdown` and the oracle
    /// bit for bit. Uneven layer splits and small vocabularies let an
    /// early stage be the straggler, and long sequences over slow links
    /// open the hidden critical path.
    #[test]
    fn incremental_objective_matches_the_oracle_on_random_clusters(
        high_end in proptest::bool::ANY,
        nodes in 1usize..=8,
        build_seed in 0u64..100_000,
        layers in 8usize..=13,
        hidden_pick in 0usize..3,
        seq_log2 in 8u32..12,
        small_vocab in proptest::bool::ANY,
        shape_pick in 0usize..1_000,
        micro_log2 in 0u32..4,
        mini_log2 in 4u32..7,
        move_seed in 0u64..100_000,
        accepts in proptest::collection::vec(proptest::bool::ANY, 10),
    ) {
        let preset = if high_end { presets::high_end(nodes) } else { presets::mid_range(nodes) };
        let cluster = preset.build(build_seed);
        let hidden = [512, 1024, 2048][hidden_pick];
        let vocab = if small_vocab { 1024 } else { 51200 };
        let gpt = GptConfig::new(layers, hidden, 16, 1 << seq_log2, vocab);
        let topo = *cluster.topology();
        let shapes: Vec<ParallelConfig> =
            ParallelConfig::enumerate(topo.num_gpus(), topo.gpus_per_node(), gpt.n_layers)
                .into_iter()
                .filter(|c| c.pp * c.dp >= 2)
                .collect();
        let cfg = shapes[shape_pick % shapes.len()];
        let plan = MicrobatchPlan::new(1 << mini_log2, 1 << micro_log2).unwrap();
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), cluster.gpu(), &gpt, cfg, plan, 9);
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), build_seed);
        let matrix = profiled.matrix();
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let mut mapping = Mapping::identity(cfg, topo);
        let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &mapping);
        let check = |cost: f64, mapping: &Mapping| -> Result<(), TestCaseError> {
            let oracle = eq36_oracle(matrix, &gpt, plan, &compute, mapping);
            prop_assert_eq!(cost.to_bits(), oracle.to_bits(), "{} vs oracle {}", cost, oracle);
            prop_assert_eq!(cost.to_bits(), model.estimate(cfg, mapping, plan, &compute).to_bits());
            let breakdown = model.breakdown(cfg, mapping, plan, &compute);
            prop_assert_eq!(cost.to_bits(), breakdown.terms.total_seconds.to_bits());
            Ok(())
        };
        check(obj.cost(), &mapping)?;
        let mut rng = ChaCha8Rng::seed_from_u64(move_seed);
        let block = cfg.tp;
        for &accept in &accepts {
            let mv = Move::random(&mut rng, cfg.pp * cfg.dp);
            mv.apply(mapping.as_mut_slice(), block);
            check(obj.propose(mv, &mapping), &mapping)?;
            if accept {
                obj.commit();
            } else {
                obj.rollback();
                mv.inverse().apply(mapping.as_mut_slice(), block);
            }
            check(obj.cost(), &mapping)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One gather per configuration prices every microbatch plan: on
    /// random clusters of either preset (1–8 nodes), random models and
    /// shapes, on the identity mapping and on randomly moved ones, the
    /// price of each plan (micro 1–8 over several minibatch sizes) equals
    /// the oracle and a fresh per-plan `estimate` and `breakdown` bit for
    /// bit. The gather is taken once, before the first plan, so a message
    /// size that leaked into it (the tensor-parallel bytes or the pipeline
    /// message) would misprice every plan of another microbatch size.
    #[test]
    fn one_gather_prices_every_plan_on_random_clusters(
        high_end in proptest::bool::ANY,
        nodes in 1usize..=8,
        build_seed in 0u64..100_000,
        layers in 8usize..=13,
        hidden_pick in 0usize..3,
        seq_log2 in 8u32..12,
        small_vocab in proptest::bool::ANY,
        shape_pick in 0usize..1_000,
        move_seed in 0u64..100_000,
        moves in 0usize..=12,
    ) {
        let preset = if high_end { presets::high_end(nodes) } else { presets::mid_range(nodes) };
        let cluster = preset.build(build_seed);
        let hidden = [512, 1024, 2048][hidden_pick];
        let vocab = if small_vocab { 1024 } else { 51200 };
        let gpt = GptConfig::new(layers, hidden, 16, 1 << seq_log2, vocab);
        let topo = *cluster.topology();
        let shapes = ParallelConfig::enumerate(topo.num_gpus(), topo.gpus_per_node(), gpt.n_layers);
        let cfg = shapes[shape_pick % shapes.len()];
        let mut mapping = Mapping::identity(cfg, topo);
        let mut rng = ChaCha8Rng::seed_from_u64(move_seed);
        if cfg.pp * cfg.dp >= 2 {
            for _ in 0..moves {
                Move::random(&mut rng, cfg.pp * cfg.dp).apply(mapping.as_mut_slice(), cfg.tp);
            }
        }
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), build_seed);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let links = model.gather(&mapping);
        for mini in [16u64, 24, 40, 56] {
            for plan in MicrobatchPlan::enumerate(mini, 8) {
                let compute = ComputeProfiler::default()
                    .profile(cluster.bandwidth(), cluster.gpu(), &gpt, cfg, plan, 9);
                let price = links.estimate(plan, &compute);
                let oracle = eq36_oracle(profiled.matrix(), &gpt, plan, &compute, &mapping);
                prop_assert_eq!(price.to_bits(), oracle.to_bits(), "{} vs oracle {} at {:?}", price, oracle, plan);
                let fresh = model.estimate(cfg, &mapping, plan, &compute);
                prop_assert_eq!(price.to_bits(), fresh.to_bits());
                let explained = links.breakdown(plan, &compute);
                prop_assert_eq!(explained.terms.total_seconds.to_bits(), price.to_bits());
                prop_assert_eq!(explained, model.breakdown(cfg, &mapping, plan, &compute));
            }
        }
    }
}

/// A hand-built mapping may split a tensor block across two nodes (6 GPUs
/// per node, tp 4). The stage DP term then takes the per-rank path, and
/// the incremental objective still tracks the batch estimator.
#[test]
fn straddling_blocks_take_the_per_rank_path() {
    let topo = ClusterTopology::new(4, 6);
    let preset = presets::mid_range(4);
    let matrix: BandwidthMatrix =
        HeterogeneityModel::realistic().generate(topo, preset.intra, preset.inter, 23);
    let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
    let cfg = ParallelConfig::new(2, 4, 3);
    // Whole blocks of four consecutive GPUs, in a shuffled order: blocks
    // 1 (GPUs 4–7) and 4 (GPUs 16–19) straddle two nodes.
    let assign: Vec<GpuId> = [5usize, 1, 3, 0, 4, 2]
        .iter()
        .flat_map(|&b| (4 * b..4 * b + 4).map(GpuId))
        .collect();
    let mut mapping = Mapping::from_assignment(cfg, assign);
    let comm = CommModel::new(&matrix);
    let width = cfg.dp * cfg.tp;
    for stage in 0..cfg.pp {
        let bytes = messages::dp_gradient_bytes(&gpt, cfg.pp, cfg.tp, stage);
        let per_rank = (0..cfg.tp)
            .map(|y| comm.hierarchical_allreduce(&mapping.data_group(stage, y), bytes))
            .fold(0.0, f64::max);
        let blocks = &mapping.as_slice()[stage * width..(stage + 1) * width];
        let t_dp = terms::t_dp_blocks(
            &matrix,
            &mut HierScratch::new(),
            &mut Vec::new(),
            blocks,
            cfg.tp,
            bytes,
        );
        assert_eq!(t_dp.to_bits(), per_rank.to_bits(), "stage {stage}");
    }

    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let compute = ComputeProfiler::default().profile(&matrix, &preset.gpu, &gpt, cfg, plan, 9);
    let model = PipetteLatencyModel::from_matrix(&matrix, &gpt);
    let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &mapping);
    let accepts: Vec<bool> = (0..60).map(|i| i % 3 != 0).collect();
    track_batch_estimator(&model, &compute, plan, &mut obj, &mut mapping, 5, &accepts)
        .expect("incremental objective tracks the batch estimator");
}

/// The tentpole's safety property: swapping the full re-evaluation for the
/// incremental objective changes *nothing* about the search trajectory.
#[test]
fn incremental_anneal_is_bit_identical_to_closure_anneal() {
    let (cluster, gpt) = setup();
    for (cfg, sa_seed) in [
        (ParallelConfig::new(4, 2, 2), 3u64),
        (ParallelConfig::new(2, 4, 2), 4),
        (ParallelConfig::new(2, 2, 4), 5),
    ] {
        let plan = MicrobatchPlan::new(64, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 9);
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 9);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let initial = Mapping::identity(cfg, *cluster.topology());
        let sa = Annealer::new(AnnealerConfig {
            iterations: 2_000,
            seed: sa_seed,
            ..Default::default()
        });

        let (legacy_map, legacy_cost, legacy_stats) =
            sa.anneal(&initial, |m| model.estimate(cfg, m, plan, &compute));
        let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &initial);
        let (inc_map, inc_cost, inc_stats) = sa.anneal_with(&initial, &mut obj);

        assert_eq!(legacy_map, inc_map, "mappings diverged for {cfg:?}");
        assert_eq!(legacy_cost.to_bits(), inc_cost.to_bits());
        assert_eq!(legacy_stats.evaluations, inc_stats.evaluations);
        assert_eq!(legacy_stats.accepted, inc_stats.accepted);
        assert_eq!(legacy_stats.improvements, inc_stats.improvements);
        assert_eq!(
            legacy_stats.initial_cost.to_bits(),
            inc_stats.initial_cost.to_bits()
        );
        assert!(
            inc_stats.accepted > 0,
            "trivial run proves nothing for {cfg:?}"
        );
    }
}

/// Thread-count invariance of the full configurator: the worker pool must
/// be invisible in the recommendation.
#[test]
fn configurator_result_is_thread_count_invariant() {
    let (cluster, gpt) = setup();
    let mut opts = PipetteOptions::fast_test();
    opts.seed = 11;
    // Train the estimator once, through one cache: memory-estimator
    // training is deliberately outside the parallel region, and reusing
    // it keeps this test fast.
    let cache = TrainedEstimatorCache::in_memory();

    let run_with = |threads: usize| {
        let mut o = opts;
        o.threads = threads;
        Pipette::new(&cluster, &gpt, 64, o)
            .with_estimator_cache(&cache)
            .run()
            .expect("feasible space")
    };

    let sequential = run_with(1);
    for threads in [2, 4, 8] {
        let parallel = run_with(threads);
        assert_eq!(sequential.config, parallel.config, "threads = {threads}");
        assert_eq!(sequential.plan, parallel.plan);
        assert_eq!(sequential.mapping, parallel.mapping);
        assert_eq!(
            sequential.estimated_seconds.to_bits(),
            parallel.estimated_seconds.to_bits()
        );
        assert_eq!(sequential.examined, parallel.examined);
        assert_eq!(sequential.memory_rejected, parallel.memory_rejected);
        assert_eq!(sequential.alternatives, parallel.alternatives);
        assert_eq!(
            sequential.anneal_stats.map(|s| s.best_cost.to_bits()),
            parallel.anneal_stats.map(|s| s.best_cost.to_bits())
        );
    }
}

/// The alternatives list respects the `top_n` cap and stays ranked.
#[test]
fn alternatives_are_capped_at_top_n() {
    let (cluster, gpt) = setup();
    let mut opts = PipetteOptions::fast_test();
    opts.seed = 11;
    let cache = TrainedEstimatorCache::in_memory();

    let rec = Pipette::new(&cluster, &gpt, 64, opts)
        .with_estimator_cache(&cache)
        .run()
        .unwrap();
    assert!(rec.alternatives.len() <= opts.top_n);

    let mut tight = opts;
    tight.top_n = 2;
    let rec2 = Pipette::new(&cluster, &gpt, 64, tight)
        .with_estimator_cache(&cache)
        .run()
        .unwrap();
    assert!(rec2.alternatives.len() <= 2);
    // Same search, shorter list: the cap must truncate, not re-rank.
    assert_eq!(
        rec.alternatives[..rec2.alternatives.len()],
        rec2.alternatives[..]
    );
}
