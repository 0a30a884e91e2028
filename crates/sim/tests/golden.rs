//! Golden pin of the simulator's numbers.
//!
//! Folds every float of [`IterationReport`] (by its bit pattern), every
//! byte count of [`MemoryReport`] and the exact task trace of Fig. 2's
//! two chains into one FNV-1a digest over a grid of presets, pipeline
//! depths, microbatch counts, schedules and training features. Any change
//! to a simulated time or byte, however small, moves the digest.

use pipette_cluster::presets;
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::engine::ChainSpec;
use pipette_sim::schedule::TaskKind;
use pipette_sim::{
    ActivationMode, IterationReport, IterationSim, Mapping, MemoryReport, MemorySim,
    PipelineSchedule, TrainingOptions,
};

/// The digest of the grid below. It may only change together with a
/// deliberate change to the simulator's numbers.
const GOLDEN: u64 = 0x02f2_1b17_f1e9_5c69;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.float(x));
    }

    fn iteration(&mut self, r: &IterationReport) {
        self.float(r.total_seconds);
        self.float(r.pipeline_seconds);
        self.float(r.dp_exposed_seconds);
        self.floats(&r.stage_dp_seconds);
        self.floats(&r.chain_makespans);
        self.float(r.critical_busy_seconds);
    }

    fn memory(&mut self, r: &MemoryReport) {
        self.word(r.per_stage.len() as u64);
        r.per_stage.iter().for_each(|&b| self.word(b));
        self.word(r.peak_bytes);
    }
}

/// The training options to pin at `pp` and `n_mb`: 1F1B and GPipe
/// always, interleaved `v = 2, 4` where the model has a layer per chunk
/// and `pp | n_mb`; each under every activation mode, with ZeRO-1 and NIC
/// contention each on and off.
fn option_grid(pp: usize, n_mb: u64, layers: usize) -> Vec<TrainingOptions> {
    let mut schedules = vec![
        TrainingOptions::new(),
        TrainingOptions::new().with_schedule(PipelineSchedule::GPipe),
    ];
    for v in [2usize, 4] {
        if pp * v <= layers && n_mb.is_multiple_of(pp as u64) {
            schedules.push(
                TrainingOptions::new().with_schedule(PipelineSchedule::Interleaved { chunks: v }),
            );
        }
    }
    let mut grid = Vec::new();
    for base in schedules {
        for activation in [
            ActivationMode::Full,
            ActivationMode::Selective,
            ActivationMode::FullRecompute,
        ] {
            for (zero1, nic) in [(false, false), (false, true), (true, false), (true, true)] {
                grid.push(
                    base.with_activation(activation)
                        .with_zero1(zero1)
                        .with_nic_contention(nic),
                );
            }
        }
    }
    grid
}

/// Microbatch counts below, equal to and above `pp` (one indivisible,
/// one a multiple of `pp`).
fn microbatch_counts(pp: u64) -> Vec<u64> {
    [pp / 2, pp, 2 * pp + 1, 4 * pp]
        .into_iter()
        .filter(|&n| n >= 1)
        .collect()
}

/// Folds the grid into `h`, returning the number of simulated runs.
fn fold_grid(h: &mut Fnv) -> u64 {
    // An even and an uneven layer split.
    let models = [
        GptConfig::new(16, 1024, 16, 2048, 51200),
        GptConfig::new(12, 1024, 16, 2048, 51200),
    ];
    let (tp, micro) = (2usize, 2u64);
    let mut runs = 0;
    for cluster in [
        presets::mid_range(2).build(5),
        presets::high_end(2).build(5),
    ] {
        let gpu = cluster.gpu().clone();
        let gpus = cluster.topology().num_gpus();
        for (gpt, pp) in models
            .iter()
            .flat_map(|g| [1usize, 2, 4, 8].map(|pp| (g, pp)))
        {
            let cfg = ParallelConfig::new(pp, tp, gpus / (pp * tp));
            let mapping = Mapping::identity(cfg, *cluster.topology());
            for n_mb in microbatch_counts(pp as u64) {
                let plan = MicrobatchPlan::new(n_mb * micro, micro).expect("valid plan");
                for options in option_grid(pp, n_mb, gpt.n_layers) {
                    let time = IterationSim::new(cluster.bandwidth(), &gpu, gpt)
                        .with_options(options)
                        .simulate(cfg, &mapping, plan);
                    h.iteration(&time);
                    let memory = MemorySim::new(7).with_options(options);
                    h.memory(&memory.report(gpt, cfg, plan));
                    runs += 1;
                }
            }
        }
    }
    runs
}

/// Fig. 2's two chains: pp = 3, six microbatches, unit-ish durations.
fn fold_fig2_traces(h: &mut Fnv) {
    for schedule in [PipelineSchedule::GPipe, PipelineSchedule::OneFOneB] {
        let (result, events) = ChainSpec {
            pp: 3,
            n_mb: 6,
            schedule,
            fwd_time: vec![1.0; 3],
            bwd_time: vec![2.0; 3],
            fwd_comm: vec![0.15; 2],
            bwd_comm: vec![0.15; 2],
        }
        .trace();
        h.float(result.makespan);
        h.floats(&result.stage_finish);
        h.floats(&result.stage_busy);
        h.word(events.len() as u64);
        for e in &events {
            h.word(e.stage as u64);
            h.word(u64::from(e.task.kind == TaskKind::Backward));
            h.word(e.task.microbatch);
            h.float(e.start);
            h.float(e.finish);
        }
    }
}

#[test]
fn simulator_numbers_match_the_golden_digest() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let runs = fold_grid(&mut h);
    fold_fig2_traces(&mut h);
    h.word(runs);
    assert_eq!(
        h.0, GOLDEN,
        "simulator output moved over {runs} runs: digest {:#018x}",
        h.0
    );
}
