//! Sample collection for the learned memory estimator.
//!
//! The paper profiles "all possible configurations using up to four
//! cluster nodes (32 GPUs)" and validates extrapolation up to 128 GPUs.
//! Here we run the ground-truth memory simulator over every valid
//! configuration of a handful of subcluster sizes and model scales, which
//! plays the role of those profiling jobs.

use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::MemorySim;

/// One profiled data point: Eq. 7's ten input features and the observed
/// peak memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySample {
    /// Eq. 7 features: `n_gpus, n_layers, n_hidden, n_heads, tp, pp, dp,
    /// bs_micro, bs_mini, bs_global`.
    pub features: [f64; 10],
    /// Observed peak memory of the worst GPU, bytes.
    pub peak_bytes: u64,
    /// Sequence length of the profiled model (metadata, not an Eq. 7
    /// feature; needed to rebuild the analytic prior).
    pub seq_len: usize,
    /// Vocabulary size of the profiled model (metadata).
    pub vocab: usize,
}

impl MemorySample {
    /// Builds the Eq. 7 feature vector for a configuration.
    pub fn features_for(
        gpt: &GptConfig,
        n_gpus: usize,
        cfg: ParallelConfig,
        plan: MicrobatchPlan,
        global_batch: u64,
    ) -> [f64; 10] {
        [
            n_gpus as f64,
            gpt.n_layers as f64,
            gpt.hidden as f64,
            gpt.n_heads as f64,
            cfg.tp as f64,
            cfg.pp as f64,
            cfg.dp as f64,
            plan.micro_batch as f64,
            plan.minibatch() as f64,
            global_batch as f64,
        ]
    }
}

/// What to sweep while collecting samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSpec {
    /// Subcluster GPU counts to profile (the paper uses up to 4 nodes).
    pub gpu_counts: Vec<usize>,
    /// GPUs per node (tensor parallelism is capped at this).
    pub gpus_per_node: usize,
    /// Model scales to profile.
    pub models: Vec<GptConfig>,
    /// Global batch sizes to profile.
    pub global_batches: Vec<u64>,
    /// Largest microbatch to consider.
    pub max_micro: u64,
}

/// Runs the sweep against the ground-truth memory simulator `truth`.
///
/// Only structurally valid configurations are emitted (divisible batches,
/// `tp` within a node, `pp ≤ layers`). OOM configurations are *kept* —
/// the estimator must learn where the cliff is, and a profiling job that
/// OOMs still reports its attempted allocation size.
pub fn collect_samples(spec: &SampleSpec, truth: &MemorySim) -> Vec<MemorySample> {
    collect_samples_parallel(spec, truth, 1)
}

/// [`collect_samples`] with the grid points simulated on up to `threads`
/// worker threads. Each grid point (model × subcluster × parallel config ×
/// global batch) is independent and the results are merged in grid order
/// via [`crate::parallel::ordered_map`], so the corpus is identical to the
/// sequential sweep at any thread count.
pub fn collect_samples_parallel(
    spec: &SampleSpec,
    truth: &MemorySim,
    threads: usize,
) -> Vec<MemorySample> {
    // Enumerate the (cheap) outer grid sequentially, then fan the
    // simulator runs out over the pool.
    let mut grid: Vec<(&GptConfig, usize, ParallelConfig, u64, u64)> = Vec::new();
    for gpt in &spec.models {
        for &g in &spec.gpu_counts {
            for cfg in ParallelConfig::enumerate(g, spec.gpus_per_node, gpt.n_layers) {
                for &global in &spec.global_batches {
                    let Ok(mini) = pipette_model::BatchConfig::new(global).minibatch(cfg.dp) else {
                        continue;
                    };
                    grid.push((gpt, g, cfg, global, mini));
                }
            }
        }
    }
    crate::parallel::ordered_map(threads, &grid, |_, &(gpt, g, cfg, global, mini)| {
        MicrobatchPlan::enumerate(mini, spec.max_micro)
            .into_iter()
            .map(|plan| MemorySample {
                features: MemorySample::features_for(gpt, g, cfg, plan, global),
                peak_bytes: truth.report(gpt, cfg, plan).peak_bytes,
                seq_len: gpt.seq_len,
                vocab: gpt.vocab,
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SampleSpec {
        SampleSpec {
            gpu_counts: vec![8, 16],
            gpus_per_node: 8,
            models: vec![GptConfig::new(8, 1024, 16, 2048, 51200)],
            global_batches: vec![64],
            max_micro: 4,
        }
    }

    #[test]
    fn collects_a_reasonable_corpus() {
        let samples = collect_samples(&small_spec(), &MemorySim::new(1));
        assert!(samples.len() > 30, "got {}", samples.len());
        assert!(samples.iter().all(|s| s.peak_bytes > 0));
    }

    #[test]
    fn features_match_configuration() {
        let gpt = GptConfig::gpt_1_1b();
        let cfg = ParallelConfig::new(4, 8, 2);
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let f = MemorySample::features_for(&gpt, 64, cfg, plan, 64);
        assert_eq!(f[0], 64.0); // n_gpus
        assert_eq!(f[1], 24.0); // layers
        assert_eq!(f[4], 8.0); // tp
        assert_eq!(f[5], 4.0); // pp
        assert_eq!(f[7], 2.0); // micro
        assert_eq!(f[8], 32.0); // mini
    }

    #[test]
    fn all_samples_are_valid_configs() {
        for s in collect_samples(&small_spec(), &MemorySim::new(1)) {
            let gpus = s.features[0] as usize;
            let (tp, pp, dp) = (
                s.features[4] as usize,
                s.features[5] as usize,
                s.features[6] as usize,
            );
            assert_eq!(tp * pp * dp, gpus);
            assert!(tp <= 8);
            // micro divides mini.
            assert_eq!(s.features[8] as u64 % s.features[7] as u64, 0);
        }
    }

    #[test]
    fn deterministic() {
        let a = collect_samples(&small_spec(), &MemorySim::new(1));
        let b = collect_samples(&small_spec(), &MemorySim::new(1));
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_collection_is_thread_invariant() {
        let seq = collect_samples(&small_spec(), &MemorySim::new(1));
        for threads in [2, 4, 8] {
            let par = collect_samples_parallel(&small_spec(), &MemorySim::new(1), threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }
}
