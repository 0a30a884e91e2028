//! GPU hardware specifications (compute throughput and memory capacity).

use std::fmt;

/// Compute and memory characteristics of one GPU model.
///
/// Only two scalars matter to the configurator: how fast a GPU retires
/// training FLOPs in practice, and how much memory it has. `attainable_mfu`
/// folds kernel inefficiency, pipeline stalls other than those we model, and
/// framework overheads into a single model-FLOPs-utilization factor.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. "V100".
    pub name: String,
    /// Peak half-precision tensor throughput in TFLOP/s.
    pub peak_fp16_tflops: f64,
    /// Fraction of peak actually attained on transformer workloads.
    pub attainable_mfu: f64,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// Effective sustained throughput in FLOP/s.
    pub fn effective_flops(&self) -> f64 {
        self.peak_fp16_tflops * 1e12 * self.attainable_mfu
    }

    /// Device memory in GiB.
    pub fn memory_gib(&self) -> f64 {
        self.memory_bytes as f64 / crate::link::GIB
    }

    /// NVIDIA V100 (SXM2 16 GB) as used in the paper's mid-range cluster
    /// (the 3.1B model "reaches the GPU memory limit" there, which matches
    /// the 16 GB part).
    pub fn v100() -> Self {
        Self {
            name: "V100".to_owned(),
            peak_fp16_tflops: 125.0,
            attainable_mfu: 0.35,
            memory_bytes: 16 * (1u64 << 30),
        }
    }

    /// NVIDIA A100 (SXM4 40 GB) as used in the paper's high-end cluster.
    pub fn a100() -> Self {
        Self {
            name: "A100".to_owned(),
            peak_fp16_tflops: 312.0,
            attainable_mfu: 0.40,
            memory_bytes: 40 * (1u64 << 30),
        }
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0} TFLOPs fp16, {:.0} GiB)",
            self.name,
            self.peak_fp16_tflops,
            self.memory_gib()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_effective_flops_below_peak() {
        let g = GpuSpec::v100();
        assert!(g.effective_flops() < g.peak_fp16_tflops * 1e12);
        assert!(g.effective_flops() > 1e13);
    }

    #[test]
    fn a100_is_faster_and_bigger() {
        let (v, a) = (GpuSpec::v100(), GpuSpec::a100());
        assert!(a.effective_flops() > v.effective_flops());
        assert!(a.memory_bytes > v.memory_bytes);
    }

    #[test]
    fn memory_gib_round_numbers() {
        assert_eq!(GpuSpec::v100().memory_gib(), 16.0);
        assert_eq!(GpuSpec::a100().memory_gib(), 40.0);
    }

    #[test]
    fn display_contains_name() {
        assert!(GpuSpec::v100().to_string().contains("V100"));
    }
}
