//! Throughput metrics: tokens/second, model-FLOPs utilization, scaling
//! efficiency — the numbers practitioners compare configurations by.

use crate::flops;
use crate::gpt::GptConfig;

/// Throughput summary of one measured iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Samples processed per second.
    pub samples_per_second: f64,
    /// Tokens processed per second.
    pub tokens_per_second: f64,
    /// Model FLOPs utilization: achieved training FLOPs over the
    /// cluster's aggregate peak.
    pub mfu: f64,
}

/// Computes throughput metrics for one iteration.
///
/// `peak_flops_total` is the aggregate peak throughput of all GPUs
/// (FLOP/s); MFU uses the `6·N·T` training-FLOPs rule.
///
/// # Panics
///
/// Panics if `iteration_seconds` or `peak_flops_total` are not positive.
pub fn of_iteration(
    gpt: &GptConfig,
    global_batch: u64,
    iteration_seconds: f64,
    peak_flops_total: f64,
) -> Throughput {
    debug_assert!(iteration_seconds > 0.0, "iteration time must be positive");
    debug_assert!(peak_flops_total > 0.0, "peak FLOPs must be positive");
    let samples_per_second = global_batch as f64 / iteration_seconds;
    let tokens_per_second = samples_per_second * gpt.seq_len as f64;
    let achieved = flops::iteration_flops(gpt, global_batch) / iteration_seconds;
    Throughput {
        samples_per_second,
        tokens_per_second,
        mfu: achieved / peak_flops_total,
    }
}

/// Weak-scaling efficiency between two measurements: how much of the
/// per-GPU throughput at the small scale survives at the large scale.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn weak_scaling_efficiency(
    small_tokens_per_second: f64,
    small_gpus: usize,
    large_tokens_per_second: f64,
    large_gpus: usize,
) -> f64 {
    debug_assert!(small_tokens_per_second > 0.0 && large_tokens_per_second > 0.0);
    debug_assert!(small_gpus > 0 && large_gpus > 0);
    (large_tokens_per_second / large_gpus as f64) / (small_tokens_per_second / small_gpus as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_arithmetic() {
        let g = GptConfig::gpt_1_1b();
        // 256 samples in 2 s on 32 GPUs of 125 TFLOPs peak.
        let t = of_iteration(&g, 256, 2.0, 32.0 * 125e12);
        assert!((t.samples_per_second - 128.0).abs() < 1e-9);
        assert!((t.tokens_per_second - 128.0 * 2048.0).abs() < 1e-6);
        assert!(t.mfu > 0.0 && t.mfu < 1.0, "mfu {}", t.mfu);
    }

    #[test]
    fn mfu_halves_when_time_doubles() {
        let g = GptConfig::gpt_1_1b();
        let fast = of_iteration(&g, 256, 1.0, 32.0 * 125e12);
        let slow = of_iteration(&g, 256, 2.0, 32.0 * 125e12);
        assert!((fast.mfu / slow.mfu - 2.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_weak_scaling_is_one() {
        assert!((weak_scaling_efficiency(100.0, 8, 200.0, 16) - 1.0).abs() < 1e-12);
        assert!(weak_scaling_efficiency(100.0, 8, 150.0, 16) < 1.0);
    }
}
