//! Memory anatomy of mixed-precision 3D-parallel training.
//!
//! This module provides the *analytically visible* memory components: model
//! state (weights, gradients, optimizer moments) and activation storage.
//! These are what the naive baseline estimator \[20\] counts. The *hidden*
//! components that make real peak memory much larger — framework and
//! library overheads, communicator buffers, fragmentation — are modelled in
//! `pipette-sim`'s ground-truth memory simulator, which is exactly the gap
//! the paper's MLP memory estimator learns (§VI, Fig. 7).

use crate::gpt::GptConfig;

/// Bytes of model state per parameter for mixed-precision Adam as
/// Megatron-LM lays it out: fp16 weight (2) + fp32 main gradient (4) +
/// fp32 master weight (4) + fp32 momentum (4) + fp32 variance (4).
pub const BYTES_PER_PARAM: u64 = 18;

/// Model-state bytes on one GPU: the tensor-parallel shard of the stage's
/// parameters times [`BYTES_PER_PARAM`].
pub fn model_state_bytes(cfg: &GptConfig, pp: usize, tp: usize, stage: usize) -> u64 {
    cfg.stage_params(pp, stage).div_ceil(tp as u64) * BYTES_PER_PARAM
}

/// Activation bytes stored per transformer layer for one in-flight
/// microbatch on one tensor-parallel rank.
///
/// Follows the standard accounting (Korthikanti et al.): an fp16 layer with
/// full activation storage keeps `s·b·h·(10 + 24/t + 5·a·s/(h·t))` bytes,
/// where `t` is the tensor-parallel degree and `a` the head count.
pub fn activation_bytes_per_layer(cfg: &GptConfig, micro_batch: u64, tp: usize) -> u64 {
    let s = cfg.seq_len as f64;
    let b = micro_batch as f64;
    let h = cfg.hidden as f64;
    let a = cfg.n_heads as f64;
    let t = tp as f64;
    (s * b * h * (10.0 + 24.0 / t + 5.0 * a * s / (h * t))) as u64
}

/// Activation bytes stored per transformer layer per in-flight microbatch
/// with *selective* recomputation (Megatron-LM's
/// `--recompute-activations`): the quadratic attention tensors
/// (`5·a·s²·b` bytes) are recomputed in the backward pass, everything
/// else is kept. This is the big memory lever for long sequences at a
/// small compute cost.
pub fn activation_bytes_selective(cfg: &GptConfig, micro_batch: u64, tp: usize) -> u64 {
    let s = cfg.seq_len as f64;
    let b = micro_batch as f64;
    let h = cfg.hidden as f64;
    let t = tp as f64;
    (s * b * h * (10.0 + 24.0 / t)) as u64
}

/// Model-state bytes on one GPU with a ZeRO-1 style distributed optimizer:
/// fp16 weights and fp32 main gradients stay replicated within the data-
/// parallel group, but the optimizer state (master weights + Adam moments,
/// 12 B/param) is sharded `dp` ways.
pub fn model_state_bytes_zero1(
    cfg: &GptConfig,
    pp: usize,
    tp: usize,
    dp: usize,
    stage: usize,
) -> u64 {
    debug_assert!(tp > 0 && dp > 0, "parallel degrees must be positive");
    let shard = cfg.stage_params(pp, stage).div_ceil(tp as u64);
    shard * 6 + (shard * 12).div_ceil(dp as u64)
}

/// Activation bytes stored per layer per in-flight microbatch when full
/// activation recomputation (checkpointing) is enabled: only the layer
/// *input* (`s·b·h` fp16) is kept; everything else is recomputed during
/// the backward pass. This is how pipeline-only systems such as Varuna
/// keep deep pipelines within memory.
pub fn checkpoint_bytes_per_layer(cfg: &GptConfig, micro_batch: u64) -> u64 {
    cfg.seq_len as u64 * micro_batch * cfg.hidden as u64 * 2
}

/// Peak number of in-flight microbatches whose activations stage `stage`
/// must hold under the memory-efficient 1F1B schedule:
/// `min(pp - stage, n_mb)`. (Under GPipe it would be `n_mb` for every
/// stage — the memory blow-up 1F1B exists to avoid, Fig. 2.)
pub fn one_f_one_b_inflight(pp: usize, stage: usize, n_microbatches: u64) -> u64 {
    ((pp - stage) as u64).min(n_microbatches.max(1))
}

/// Activation bytes at peak for one GPU of stage `stage` under 1F1B.
pub fn activation_bytes_1f1b(
    cfg: &GptConfig,
    pp: usize,
    tp: usize,
    stage: usize,
    micro_batch: u64,
    n_microbatches: u64,
) -> u64 {
    let layers = cfg.layers_of_stage(pp, stage) as u64;
    let inflight = one_f_one_b_inflight(pp, stage, n_microbatches);
    layers * activation_bytes_per_layer(cfg, micro_batch, tp) * inflight
}

/// Activation bytes at peak under the memory-hungry GPipe schedule
/// (all `n_mb` microbatches in flight on every stage).
pub fn activation_bytes_gpipe(
    cfg: &GptConfig,
    pp: usize,
    tp: usize,
    stage: usize,
    micro_batch: u64,
    n_microbatches: u64,
) -> u64 {
    let layers = cfg.layers_of_stage(pp, stage) as u64;
    layers * activation_bytes_per_layer(cfg, micro_batch, tp) * n_microbatches.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_state_shrinks_with_sharding() {
        let g = GptConfig::gpt_3_1b();
        let full = model_state_bytes(&g, 1, 1, 0);
        assert_eq!(full, g.num_params() * BYTES_PER_PARAM);
        let sharded = model_state_bytes(&g, 4, 8, 1);
        assert!(sharded < full / 20);
    }

    #[test]
    fn inflight_counts_match_1f1b() {
        // pp=4: stage 0 holds 4 in-flight activations, last stage holds 1.
        assert_eq!(one_f_one_b_inflight(4, 0, 32), 4);
        assert_eq!(one_f_one_b_inflight(4, 3, 32), 1);
        // Bounded by the number of microbatches.
        assert_eq!(one_f_one_b_inflight(8, 0, 2), 2);
    }

    #[test]
    fn gpipe_needs_more_activation_memory_than_1f1b() {
        let g = GptConfig::gpt_1_1b();
        let (pp, tp, micro, n_mb) = (4, 2, 2, 32);
        for stage in 0..pp {
            let a = activation_bytes_1f1b(&g, pp, tp, stage, micro, n_mb);
            let b = activation_bytes_gpipe(&g, pp, tp, stage, micro, n_mb);
            assert!(b >= a);
        }
        assert!(
            activation_bytes_gpipe(&g, 4, 2, 0, 2, 32)
                > 4 * activation_bytes_1f1b(&g, 4, 2, 0, 2, 32)
        );
    }

    #[test]
    fn earlier_stages_hold_more_activations() {
        let g = GptConfig::gpt_3_1b();
        let s0 = activation_bytes_1f1b(&g, 4, 8, 0, 1, 32);
        let s3 = activation_bytes_1f1b(&g, 4, 8, 3, 1, 32);
        assert!(s0 > 3 * s3);
    }

    #[test]
    fn activation_scales_with_microbatch() {
        let g = GptConfig::gpt_1_1b();
        let a1 = activation_bytes_per_layer(&g, 1, 4);
        let a4 = activation_bytes_per_layer(&g, 4, 4);
        assert!((a4 as f64 / a1 as f64 - 4.0).abs() < 0.01);
    }

    #[test]
    fn selective_recompute_sits_between_full_and_checkpoint() {
        let g = GptConfig::gpt_3_1b();
        let full = activation_bytes_per_layer(&g, 2, 4);
        let selective = activation_bytes_selective(&g, 2, 4);
        let ckpt = checkpoint_bytes_per_layer(&g, 2);
        assert!(selective < full);
        assert!(ckpt < selective);
        // Selective drops the attention matrices, which dominate at long
        // sequence lengths.
        assert!(selective < full / 2);
    }

    #[test]
    fn zero1_shards_optimizer_state_only() {
        let g = GptConfig::gpt_3_1b();
        let plain = model_state_bytes(&g, 4, 8, 1);
        let z1 = model_state_bytes_zero1(&g, 4, 8, 8, 1);
        // 18 B/param -> 6 + 12/8 = 7.5 B/param.
        let ratio = plain as f64 / z1 as f64;
        assert!(ratio > 2.2 && ratio < 2.6, "ratio {ratio}");
        // dp = 1 degenerates to the replicated layout.
        assert_eq!(model_state_bytes_zero1(&g, 4, 8, 1, 1), plain);
    }

    #[test]
    fn tensor_parallel_shards_most_activation_memory() {
        let g = GptConfig::gpt_3_1b();
        let t1 = activation_bytes_per_layer(&g, 2, 1) as f64;
        let t8 = activation_bytes_per_layer(&g, 2, 8) as f64;
        // Not a full 8x reduction (the 10·s·b·h term is replicated).
        assert!(t1 / t8 > 4.0 && t1 / t8 < 8.0);
    }
}
