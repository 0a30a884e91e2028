//! Parallel-tempering integration tests: the multi-chain search must be
//! bitwise thread-invariant end to end (recommendation *and* telemetry
//! stream), degenerate to the legacy single chain at `replicas = 1`, and
//! key its exchange decisions on logical indices only.

use pipette::configurator::{Pipette, PipetteOptions};
use pipette::latency::PipetteLatencyModel;
use pipette::mapping::{
    exchange_accepts, AnnealStats, Annealer, AnnealerConfig, FnObjective, IncrementalObjective,
    Objective, ParallelTemperingAnnealer, TemperingSchedule,
};
use pipette_cluster::{presets, ClusterTopology};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_obs::analysis::first_divergence;
use pipette_obs::{EventTag, SpanTree, Trace, TraceConfig};
use pipette_sim::{ComputeProfiler, Mapping};

fn small_gpt() -> GptConfig {
    GptConfig::new(8, 1024, 16, 2048, 51200)
}

fn tempered_run(threads: usize, config: TraceConfig) -> (Trace, pipette::Recommendation) {
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let mut options = PipetteOptions::fast_test();
    options.seed = 21;
    options.threads = threads;
    options.replicas = 4;
    options.exchange_interval = 128;
    let mut trace = Trace::new(config);
    let rec = Pipette::new(&cluster, &gpt, 64, options)
        .run_traced(&mut trace)
        .expect("feasible space");
    (trace, rec)
}

#[test]
fn tempering_trajectory_is_bit_identical_across_thread_counts() {
    // Full-resolution tracing (every SA move of every replica plus every
    // exchange decision) is the strongest check: any thread-dependent
    // interleaving would reorder or change lines.
    let (t1, r1) = tempered_run(1, TraceConfig::full());
    for threads in [2usize, 8] {
        let (tn, rn) = tempered_run(threads, TraceConfig::full());
        assert_eq!(r1.config, rn.config, "config diverged at threads={threads}");
        assert_eq!(r1.plan, rn.plan);
        assert_eq!(
            r1.mapping, rn.mapping,
            "mapping diverged at threads={threads}"
        );
        assert_eq!(
            r1.estimated_seconds.to_bits(),
            rn.estimated_seconds.to_bits()
        );
        assert_eq!(r1.tempering, rn.tempering);
        if let Some(d) = first_divergence(&t1.to_jsonl_stripped(), &tn.to_jsonl_stripped()) {
            panic!("trace diverged between threads=1 and threads={threads}\n{d}");
        }
    }
}

#[test]
fn tempered_trace_records_replicas_and_exchanges() {
    let (trace, rec) = tempered_run(2, TraceConfig::full());
    let summary = rec.tempering.expect("tempering ran");
    assert_eq!(summary.replicas, 4);
    assert_eq!(summary.exchange_interval, 128);
    assert!(summary.exchanges_attempted > 0, "ladder never rendezvoused");
    assert_eq!(
        trace.count_tag(EventTag::PtExchange),
        summary.exchanges_attempted,
        "one pt_exchange event per decision"
    );
    // Spans: each annealed candidate contributes one sa_chain span per
    // replica plus one exchange span, all nested under the anneal phase.
    let tree = SpanTree::from_trace(&trace).expect("balanced spans");
    let rollups = tree.rollups();
    let chains = rollups
        .iter()
        .find(|r| r.name == "sa_chain")
        .expect("sa_chain spans");
    assert_eq!(chains.count % 4, 0, "replica chains come in ladder widths");
    let exchange = rollups
        .iter()
        .find(|r| r.name == "exchange")
        .expect("exchange spans");
    assert_eq!(exchange.unit, "rounds");
    assert_eq!(
        exchange.cost as usize, summary.exchanges_attempted,
        "exchange span cost sums the attempted rendezvous"
    );
    // Every replica contributed a per-replica sa_result; the highest
    // replica tag matches the ladder width.
    let jsonl = trace.to_jsonl();
    for replica in 0..4usize {
        assert!(
            jsonl.lines().any(|l| l.contains(r#""kind":"sa_result""#)
                && l.contains(&format!(r#""replica":{replica}"#))),
            "no sa_result for replica {replica}"
        );
    }
    let accepted = jsonl
        .lines()
        .filter(|l| l.contains(r#""kind":"pt_exchange""#) && l.contains(r#""accepted":true"#))
        .count();
    assert_eq!(accepted, summary.exchanges_accepted);
}

#[test]
fn replicas_one_is_bit_identical_to_the_legacy_single_chain() {
    // Through the full configurator: both runs have one rung and differ
    // only in the exchange interval (the default 512 against 64), so this
    // checks that the round cadence of a one-rung ladder changes nothing,
    // trace included. That the one-rung ladder replays the single chain
    // itself is checked below on the annealers directly, and through the
    // configurator by the `BENCH_trace.jsonl` pin in
    // `tests/trace_analysis.rs`.
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let mut legacy_options = PipetteOptions::fast_test();
    legacy_options.seed = 21;
    legacy_options.threads = 2;
    assert_eq!(legacy_options.replicas, 1);
    let mut single_options = legacy_options;
    single_options.exchange_interval = 64;

    let mut legacy_trace = Trace::new(TraceConfig::full());
    let legacy = Pipette::new(&cluster, &gpt, 64, legacy_options)
        .run_traced(&mut legacy_trace)
        .expect("feasible");
    let mut single_trace = Trace::new(TraceConfig::full());
    let single = Pipette::new(&cluster, &gpt, 64, single_options)
        .run_traced(&mut single_trace)
        .expect("feasible");

    assert_eq!(legacy.config, single.config);
    assert_eq!(legacy.mapping, single.mapping);
    assert_eq!(
        legacy.estimated_seconds.to_bits(),
        single.estimated_seconds.to_bits()
    );
    assert_eq!(single.tempering, None, "replicas=1 is not tempering");
    assert_eq!(
        legacy_trace.to_jsonl_stripped(),
        single_trace.to_jsonl_stripped()
    );
}

/// Runs `Annealer` and a one-rung ladder (at an exchange interval that
/// does not divide the budget, on eight threads) from the same seed and
/// asserts the same mapping, cost and counters, bit for bit.
fn assert_one_rung_replays_annealer<O: Objective + Send>(
    sa_cfg: AnnealerConfig,
    initial: &Mapping,
    make_objective: impl Fn() -> O,
) -> AnnealStats {
    let (legacy_map, legacy_cost, legacy_stats) =
        Annealer::new(sa_cfg).anneal_with(initial, &mut make_objective());
    let pt = ParallelTemperingAnnealer::new(
        sa_cfg,
        TemperingSchedule {
            replicas: 1,
            exchange_interval: 97, // deliberately not a divisor of the budget
            ..Default::default()
        },
    );
    let (pt_map, pt_cost, pt_stats) = pt.anneal(8, initial, |_, _| make_objective());
    assert_eq!(legacy_map, pt_map);
    assert_eq!(legacy_cost.to_bits(), pt_cost.to_bits());
    let merged = pt_stats.merged();
    assert_eq!(legacy_stats.evaluations, merged.evaluations);
    assert_eq!(legacy_stats.accepted, merged.accepted);
    assert_eq!(legacy_stats.improvements, merged.improvements);
    assert_eq!(
        legacy_stats.initial_cost.to_bits(),
        merged.initial_cost.to_bits()
    );
    assert_eq!(legacy_stats.best_cost.to_bits(), merged.best_cost.to_bits());
    legacy_stats
}

#[test]
fn replicas_one_annealer_matches_legacy_annealer_directly() {
    // A closure objective on a toy topology.
    let cfg = ParallelConfig::new(4, 2, 2);
    let initial = Mapping::identity(cfg, ClusterTopology::new(4, 4));
    let target: Vec<usize> = (0..16).rev().collect();
    let objective = move |m: &Mapping| {
        m.as_slice()
            .iter()
            .enumerate()
            .map(|(i, g)| (g.0 as f64 - target[i] as f64).abs())
            .sum::<f64>()
    };
    let sa_cfg = AnnealerConfig {
        iterations: 5_000,
        seed: 17,
        ..Default::default()
    };
    assert_one_rung_replays_annealer(sa_cfg, &initial, || FnObjective::new(&objective));

    // The configurator's objective on a real cluster: every accepted move
    // goes through `IncrementalObjective::commit` and every rejected one
    // through `rollback`.
    let cluster = presets::mid_range(2).build(5);
    let gpt = small_gpt();
    let initial = Mapping::identity(cfg, *cluster.topology());
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let compute =
        ComputeProfiler::default().profile(cluster.bandwidth(), cluster.gpu(), &gpt, cfg, plan, 9);
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 9);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let stats = assert_one_rung_replays_annealer(sa_cfg, &initial, || {
        IncrementalObjective::from_model(&model, &gpt, plan, &compute, &initial)
    });
    assert!(
        stats.accepted > 0 && stats.accepted + 1 < stats.evaluations,
        "the run must both commit and roll back: {stats:?}"
    );
}

/// Property: the exchange verdict is a deterministic function of
/// (seed, round, pair) and the pair's (temperatures, energies) — nothing
/// else. Permuting when/where the question is asked cannot change it,
/// and translating both energies by a constant cannot either (the
/// Metropolis exponent sees only the gap).
#[test]
fn exchange_decisions_depend_only_on_round_pair_and_energies() {
    let mut verdicts = Vec::new();
    for round in 0..32usize {
        for pair in 0..8usize {
            verdicts.push((
                round,
                pair,
                exchange_accepts(1234, round, pair, 1.0, 2.5, 10.0, 10.3),
            ));
        }
    }
    // Re-query in reverse order (a different "schedule"): same verdicts.
    for &(round, pair, verdict) in verdicts.iter().rev() {
        assert_eq!(
            verdict,
            exchange_accepts(1234, round, pair, 1.0, 2.5, 10.0, 10.3)
        );
        // Energy translation invariance.
        assert_eq!(
            verdict,
            exchange_accepts(1234, round, pair, 1.0, 2.5, -7.0, -6.7)
        );
    }
    // The stream is live in both coordinates: flipping round or pair
    // changes at least some verdicts.
    let base: Vec<bool> = verdicts.iter().map(|v| v.2).collect();
    let shifted: Vec<bool> = (0..32usize)
        .flat_map(|round| {
            (0..8usize)
                .map(move |pair| exchange_accepts(1234, round + 1, pair, 1.0, 2.5, 10.0, 10.3))
        })
        .collect();
    assert_ne!(base, shifted, "round index must enter the stream");
    let accepted = base.iter().filter(|&&b| b).count();
    assert!(accepted > 0 && accepted < base.len(), "stream degenerate");
}
