//! Ground-truth peak GPU memory simulation.
//!
//! Real peak memory is much larger than the analytically visible model
//! state + activations: the training framework and external libraries add
//! a CUDA context, NCCL communicator buffers, cuBLAS/cuDNN workspaces, and
//! allocator fragmentation (the paper's §VI, citing \[21\]). This module is
//! the reproduction's stand-in for `torch.cuda.max_memory_allocated()`:
//! it computes the visible terms from `pipette-model` and adds the hidden
//! ones, plus a small deterministic per-configuration jitter so the
//! learned estimator faces realistic irreducible error.

use crate::options::{ActivationMode, TrainingOptions};
use crate::schedule::PipelineSchedule;
use pipette_model::{memory, GptConfig, MicrobatchPlan, ParallelConfig};

/// Bytes of the CUDA context + framework baseline per GPU.
pub const CUDA_CONTEXT_BYTES: u64 = 900 << 20;
/// Bytes reserved per NCCL communicator.
pub const NCCL_BUFFER_BYTES: u64 = 128 << 20;
/// Bytes of cuBLAS/cuDNN handles and autotuning workspaces.
pub const LIBRARY_BYTES: u64 = 400 << 20;
/// Fraction of dynamic memory lost to allocator fragmentation.
pub const FRAGMENTATION: f64 = 0.07;
/// Relative amplitude of the deterministic per-configuration jitter.
pub const JITTER: f64 = 0.03;

/// Peak-memory breakdown of one GPU (worst GPU of a stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Weights + gradients + optimizer state (bytes).
    pub model_state: u64,
    /// Peak stored activations under the schedule (bytes).
    pub activations: u64,
    /// Framework overhead: context + NCCL + libraries + workspace (bytes).
    pub framework: u64,
    /// Allocator fragmentation (bytes).
    pub fragmentation: u64,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.model_state + self.activations + self.framework + self.fragmentation
    }
}

/// Per-stage peak memory for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    /// Peak bytes per pipeline stage (every GPU of a stage is equivalent).
    pub per_stage: Vec<u64>,
    /// Worst stage's peak bytes — the number compared against the GPU
    /// memory limit.
    pub peak_bytes: u64,
}

/// Ground-truth memory simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySim {
    options: TrainingOptions,
    /// Cluster-specific seed: different clusters (driver/NCCL versions)
    /// exhibit different jitter.
    seed: u64,
}

impl MemorySim {
    /// Creates a simulator with the modern defaults (1F1B, full
    /// activation storage, replicated optimizer) and a cluster seed.
    pub fn new(seed: u64) -> Self {
        Self {
            options: TrainingOptions::default(),
            seed,
        }
    }

    /// Replaces the full training-feature set.
    pub fn with_options(mut self, options: TrainingOptions) -> Self {
        self.options = options;
        self
    }

    /// The feature set in use.
    pub fn options(&self) -> TrainingOptions {
        self.options
    }

    /// The cluster-specific jitter seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Enables full activation recomputation (checkpointing): only layer
    /// inputs are stored, everything else is recomputed in the backward
    /// pass. Pipeline-only systems (Varuna) rely on this to fit.
    pub fn with_recompute(mut self, recompute: bool) -> Self {
        self.options.activation = if recompute {
            ActivationMode::FullRecompute
        } else {
            ActivationMode::Full
        };
        self
    }

    /// Uses a different pipeline schedule (GPipe needs far more activation
    /// memory).
    pub fn with_schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.options.schedule = schedule;
        self
    }

    /// Breakdown for one GPU of `stage`.
    pub fn stage_breakdown(
        &self,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
        stage: usize,
    ) -> MemoryBreakdown {
        // Device `stage` hosts virtual stages {c·pp + stage}, one per chunk.
        let chunks = self.options.schedule.chunks();
        let stages = cfg.pp * chunks;
        let virtual_stage = |c: usize| c * cfg.pp + stage;
        let model_state = (0..chunks)
            .map(|c| {
                if self.options.zero1 {
                    memory::model_state_bytes_zero1(gpt, stages, cfg.tp, cfg.dp, virtual_stage(c))
                } else {
                    memory::model_state_bytes(gpt, stages, cfg.tp, virtual_stage(c))
                }
            })
            .sum::<u64>();
        let per_layer_stored = match self.options.activation {
            ActivationMode::Full => {
                memory::activation_bytes_per_layer(gpt, plan.micro_batch, cfg.tp)
            }
            ActivationMode::Selective => {
                memory::activation_bytes_selective(gpt, plan.micro_batch, cfg.tp)
            }
            ActivationMode::FullRecompute => {
                memory::checkpoint_bytes_per_layer(gpt, plan.micro_batch)
            }
        };
        // Transient working set of the one layer currently recomputing.
        let recompute_transient = match self.options.activation {
            ActivationMode::Full => 0,
            ActivationMode::Selective | ActivationMode::FullRecompute => {
                memory::activation_bytes_per_layer(gpt, plan.micro_batch, cfg.tp)
            }
        };
        // Scan the schedule table for the peak in-flight activation load,
        // each chunk weighing its stored layers.
        let weights: Vec<u64> = (0..chunks)
            .map(|c| gpt.layers_of_stage(stages, virtual_stage(c)) as u64 * per_layer_stored)
            .collect();
        let activations =
            self.options
                .schedule
                .inflight_peak(cfg.pp, stage, plan.n_microbatches, &weights)
                + recompute_transient;
        let communicators =
            u64::from(cfg.tp > 1) + u64::from(cfg.dp > 1) + 2 * u64::from(cfg.pp > 1);
        // Transient workspace for the largest matmul (the 4h MLP
        // expansion), a handful of buffers deep.
        let workspace =
            8 * plan.micro_batch * gpt.seq_len as u64 * gpt.hidden as u64 * 2 / cfg.tp as u64;
        let framework =
            CUDA_CONTEXT_BYTES + LIBRARY_BYTES + communicators * NCCL_BUFFER_BYTES + workspace;
        let dynamic = model_state + activations;
        let fragmentation = (dynamic as f64 * FRAGMENTATION) as u64;

        let mut b = MemoryBreakdown {
            model_state,
            activations,
            framework,
            fragmentation,
        };
        // Deterministic jitter in [-JITTER, +JITTER] applied to the total,
        // folded into the framework term (which it physically resembles:
        // driver/NCCL version differences, allocator state).
        let h = jitter_hash(self.seed, gpt, cfg, plan, stage);
        let factor = 1.0 + JITTER * (2.0 * h - 1.0);
        let target = (b.total() as f64 * factor) as i64;
        let delta = target - b.total() as i64;
        b.framework = (b.framework as i64 + delta).max(0) as u64;
        b
    }

    /// Full per-stage report; `peak_bytes` is what must fit in GPU memory.
    pub fn report(
        &self,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
    ) -> MemoryReport {
        let per_stage: Vec<u64> = (0..cfg.pp)
            .map(|s| self.stage_breakdown(gpt, cfg, plan, s).total())
            .collect();
        let peak_bytes = per_stage.iter().copied().max().unwrap_or(0);
        MemoryReport {
            per_stage,
            peak_bytes,
        }
    }
}

/// FNV-1a based hash mapped to `[0, 1)`, fully deterministic across runs.
fn jitter_hash(
    seed: u64,
    gpt: &GptConfig,
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    stage: usize,
) -> f64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(gpt.n_layers as u64);
    mix(gpt.hidden as u64);
    mix(gpt.n_heads as u64);
    mix(cfg.pp as u64);
    mix(cfg.tp as u64);
    mix(cfg.dp as u64);
    mix(plan.micro_batch);
    mix(plan.n_microbatches);
    mix(stage as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_model::memory::{activation_bytes_1f1b, model_state_bytes};

    fn plan(mini: u64, micro: u64) -> MicrobatchPlan {
        MicrobatchPlan::new(mini, micro).unwrap()
    }

    #[test]
    fn ground_truth_exceeds_analytic_terms() {
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(8, 4, 4);
        let p = plan(32, 2);
        let sim = MemorySim::new(1);
        let peak = sim.report(&g, cfg, p).peak_bytes;
        let analytic = model_state_bytes(&g, 8, 4, 0) + activation_bytes_1f1b(&g, 8, 4, 0, 2, 32);
        assert!(peak > analytic, "hidden overheads must be visible");
        // But not absurdly so.
        assert!(peak < 3 * analytic);
    }

    #[test]
    fn first_stage_is_the_peak() {
        // Stage 0 holds the most in-flight activations plus embeddings.
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(8, 4, 4);
        let r = MemorySim::new(1).report(&g, cfg, plan(32, 2));
        assert_eq!(r.peak_bytes, r.per_stage[0]);
        assert!(r.per_stage[0] > r.per_stage[6]);
    }

    #[test]
    fn gpipe_needs_more_memory() {
        let g = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(4, 4, 2);
        let p = plan(64, 2);
        let a = MemorySim::new(1).report(&g, cfg, p).peak_bytes;
        let b = MemorySim::new(1)
            .with_schedule(PipelineSchedule::GPipe)
            .report(&g, cfg, p)
            .peak_bytes;
        assert!(b > 2 * a, "GPipe {b} should dwarf 1F1B {a}");
    }

    #[test]
    fn memory_grows_with_microbatch() {
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(4, 8, 4);
        let m1 = MemorySim::new(1).report(&g, cfg, plan(32, 1)).peak_bytes;
        let m4 = MemorySim::new(1).report(&g, cfg, plan(32, 4)).peak_bytes;
        assert!(m4 > 2 * m1);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(4, 4, 2);
        let p = plan(32, 2);
        let a = MemorySim::new(7).report(&g, cfg, p);
        let b = MemorySim::new(7).report(&g, cfg, p);
        let c = MemorySim::new(8).report(&g, cfg, p);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Jitter is bounded.
        let ratio = a.peak_bytes as f64 / c.peak_bytes as f64;
        assert!(ratio > 1.0 - 2.5 * JITTER && ratio < 1.0 + 2.5 * JITTER);
    }

    #[test]
    fn realistic_configs_fit_v100() {
        // The paper's mid-range default: 3.1B on tp=8 fits in 32 GiB with
        // small microbatches but not with large ones.
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(4, 8, 4);
        let small = MemorySim::new(1).report(&g, cfg, plan(128, 1)).peak_bytes;
        let large = MemorySim::new(1).report(&g, cfg, plan(128, 16)).peak_bytes;
        let v100 = 32u64 << 30;
        assert!(small < v100, "micro=1 should fit: {} GiB", small >> 30);
        assert!(large > v100, "micro=16 should OOM: {} GiB", large >> 30);
    }

    #[test]
    fn activation_modes_order_memory_correctly() {
        use crate::options::{ActivationMode, TrainingOptions};
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(8, 4, 4);
        let p = plan(32, 2);
        let peak = |mode| {
            MemorySim::new(1)
                .with_options(TrainingOptions::new().with_activation(mode))
                .report(&g, cfg, p)
                .peak_bytes
        };
        let full = peak(ActivationMode::Full);
        let selective = peak(ActivationMode::Selective);
        let ckpt = peak(ActivationMode::FullRecompute);
        assert!(selective < full, "selective {selective} < full {full}");
        assert!(
            ckpt < selective,
            "checkpoint {ckpt} < selective {selective}"
        );
    }

    #[test]
    fn zero1_cuts_model_state() {
        use crate::options::TrainingOptions;
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(2, 8, 8);
        let p = plan(32, 1);
        let plain = MemorySim::new(1).report(&g, cfg, p).peak_bytes;
        let z1 = MemorySim::new(1)
            .with_options(TrainingOptions::new().with_zero1(true))
            .report(&g, cfg, p)
            .peak_bytes;
        assert!(z1 < plain, "zero1 {z1} < plain {plain}");
    }

    #[test]
    fn interleaving_raises_activation_pressure_on_early_devices() {
        let g = GptConfig::gpt_3_1b();
        let cfg = ParallelConfig::new(4, 8, 4);
        let p = plan(32, 1);
        let plain = MemorySim::new(1).report(&g, cfg, p);
        let inter = MemorySim::new(1)
            .with_schedule(PipelineSchedule::Interleaved { chunks: 2 })
            .report(&g, cfg, p);
        assert_eq!(inter.per_stage.len(), 4);
        // Device 0 warms up with more in-flight chunks under interleaving.
        assert!(
            inter.per_stage[0] > plain.per_stage[0],
            "interleaved {} vs plain {}",
            inter.per_stage[0],
            plain.per_stage[0]
        );
    }

    #[test]
    fn breakdown_total_matches_report() {
        let g = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(2, 4, 4);
        let p = plan(16, 2);
        let sim = MemorySim::new(3);
        let b = sim.stage_breakdown(&g, cfg, p, 0);
        let r = sim.report(&g, cfg, p);
        assert_eq!(b.total(), r.per_stage[0]);
    }
}
