//! Integration tests across the simulator's features: schedules, traces,
//! training options, and the run facade working together.

use pipette_cluster::presets;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::engine::ChainSpec;
use pipette_sim::schedule::TaskKind;
use pipette_sim::trace::idle_fractions;
use pipette_sim::{
    ActivationMode, ClusterRun, IterationSim, Mapping, PipelineSchedule, TrainingOptions,
};

fn setup() -> (pipette_cluster::Cluster, GptConfig) {
    (
        presets::mid_range(2).build(44),
        GptConfig::new(8, 1024, 16, 2048, 51200),
    )
}

#[test]
fn trace_events_respect_dependencies_at_scale() {
    // Every forward (except stage 0) must start no earlier than its
    // upstream forward finished plus the transfer time.
    let spec = ChainSpec {
        pp: 6,
        n_mb: 24,
        schedule: PipelineSchedule::OneFOneB,
        fwd_time: vec![0.7, 1.0, 0.9, 1.1, 0.8, 1.4],
        bwd_time: vec![1.4, 2.0, 1.8, 2.2, 1.6, 2.8],
        fwd_comm: vec![0.11, 0.07, 0.13, 0.05, 0.09],
        bwd_comm: vec![0.08, 0.12, 0.06, 0.1, 0.07],
    };
    let (result, events) = spec.trace();
    let find = |stage: usize, kind: TaskKind, mb: u64| {
        events
            .iter()
            .find(|e| e.stage == stage && e.task.kind == kind && e.task.microbatch == mb)
            .expect("event exists")
    };
    for mb in 0..24 {
        for s in 1..6 {
            let up = find(s - 1, TaskKind::Forward, mb);
            let down = find(s, TaskKind::Forward, mb);
            assert!(
                down.start + 1e-12 >= up.finish + spec.fwd_comm[s - 1],
                "F({s},{mb}) started early"
            );
        }
        for s in (0..5).rev() {
            let down = find(s + 1, TaskKind::Backward, mb);
            let up = find(s, TaskKind::Backward, mb);
            assert!(
                up.start + 1e-12 >= down.finish + spec.bwd_comm[s],
                "B({s},{mb}) started early"
            );
        }
    }
    // Idle fractions are consistent with the makespan.
    let idle = idle_fractions(&events, 6);
    for (s, f) in idle.iter().enumerate() {
        let busy = 24.0 * (spec.fwd_time[s] + spec.bwd_time[s]);
        assert!(((1.0 - f) * result.makespan - busy).abs() < 1e-9);
    }
}

#[test]
fn interleaved_chain_agrees_with_plain_engine_at_v_boundary() {
    // A v=2 interleaved chain with zero wrap-around comm and symmetric
    // chunks cannot be slower than the fully serial bound and not faster
    // than the busy bound — and its device busy time must equal the plain
    // engine's for the same total work.
    let pp = 4;
    let n_mb = 8u64;
    let plain = ChainSpec {
        pp,
        n_mb,
        schedule: PipelineSchedule::OneFOneB,
        fwd_time: vec![1.0; pp],
        bwd_time: vec![2.0; pp],
        fwd_comm: vec![0.0; pp - 1],
        bwd_comm: vec![0.0; pp - 1],
    }
    .simulate();
    let inter = ChainSpec {
        pp,
        n_mb,
        schedule: PipelineSchedule::Interleaved { chunks: 2 },
        fwd_time: vec![0.5; pp * 2],
        bwd_time: vec![1.0; pp * 2],
        fwd_comm: vec![0.0; pp * 2 - 1],
        bwd_comm: vec![0.0; pp * 2 - 1],
    }
    .simulate();
    for d in 0..pp {
        assert!((plain.stage_busy[d] - inter.stage_busy[d]).abs() < 1e-9);
    }
    // Comm-free, the interleaved fill is shorter.
    assert!(inter.makespan <= plain.makespan + 1e-9);
}

#[test]
fn interleaved_order_interleaves_chunks_in_steady_state() {
    // After warm-up, consecutive forwards on a device rotate through
    // chunks in groups of pp microbatches.
    let (pp, v, n_mb) = (2usize, 2usize, 8u64);
    let order = PipelineSchedule::Interleaved { chunks: v }.device_order(pp, 0, n_mb);
    let fwd_chunks: Vec<usize> = order
        .iter()
        .filter(|t| t.task.kind == TaskKind::Forward)
        .map(|t| t.chunk)
        .collect();
    // Pattern: pp forwards of chunk 0, pp of chunk 1, repeating.
    for (k, &chunk) in fwd_chunks.iter().enumerate() {
        assert_eq!(chunk, (k / pp) % v, "forward {k}");
    }
}

#[test]
fn feature_combinations_compose() {
    // Selective recompute + ZeRO-1 + interleaving all at once: memory
    // strictly below the plain-full baseline, time within a sane band.
    let (cluster, gpt) = setup();
    let cfg = ParallelConfig::new(2, 4, 2);
    let plan = MicrobatchPlan::new(32, 2).unwrap();
    let mapping = Mapping::identity(cfg, *cluster.topology());
    let everything = TrainingOptions::new()
        .with_activation(ActivationMode::Selective)
        .with_zero1(true)
        .with_schedule(PipelineSchedule::Interleaved { chunks: 2 });

    let base_run = ClusterRun::new(&cluster, &gpt);
    let combo_run = ClusterRun::new(&cluster, &gpt).with_options(everything);
    let base = base_run.execute(cfg, &mapping, plan).expect("fits");
    let combo = combo_run.execute(cfg, &mapping, plan).expect("fits");
    assert!(combo.peak_memory_bytes < base.peak_memory_bytes);
    let ratio = combo.iteration_seconds / base.iteration_seconds;
    assert!(ratio > 0.8 && ratio < 1.4, "time ratio {ratio}");
}

#[test]
fn run_facade_charges_the_same_memory_as_its_memsim() {
    let (cluster, gpt) = setup();
    let run = ClusterRun::new(&cluster, &gpt).with_recompute(true);
    let cfg = ParallelConfig::new(4, 2, 2);
    let plan = MicrobatchPlan::new(32, 1).unwrap();
    let mapping = Mapping::identity(cfg, *cluster.topology());
    let measured = run
        .execute(cfg, &mapping, plan)
        .expect("fits with recompute");
    assert_eq!(
        measured.peak_memory_bytes,
        run.peak_memory(cfg, plan).peak_bytes
    );
    assert_eq!(measured.memory.per_stage.len(), cfg.pp);
}

#[test]
fn nic_contention_only_slows_things_down() {
    let (cluster, gpt) = setup();
    let cfg = ParallelConfig::new(2, 8, 1);
    let plan = MicrobatchPlan::new(32, 2).unwrap();
    let mapping = Mapping::identity(cfg, *cluster.topology());
    let gpu = cluster.gpu().clone();
    let free = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
        .simulate(cfg, &mapping, plan)
        .total_seconds;
    let contended = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
        .with_options(TrainingOptions::new().with_nic_contention(true))
        .simulate(cfg, &mapping, plan)
        .total_seconds;
    assert!(contended >= free, "contention cannot speed anything up");
}

#[test]
fn gpipe_runs_where_1f1b_runs_but_with_more_memory() {
    let (cluster, gpt) = setup();
    let cfg = ParallelConfig::new(4, 4, 1);
    let plan = MicrobatchPlan::new(64, 1).unwrap();
    let one_f = ClusterRun::new(&cluster, &gpt);
    let gpipe = ClusterRun::new(&cluster, &gpt)
        .with_options(TrainingOptions::new().with_schedule(PipelineSchedule::GPipe));
    let m1 = one_f.peak_memory(cfg, plan).peak_bytes;
    let m2 = gpipe.peak_memory(cfg, plan).peak_bytes;
    assert!(
        m2 > 2 * m1,
        "GPipe {m2} should dwarf 1F1B {m1} at 64 microbatches"
    );
}
