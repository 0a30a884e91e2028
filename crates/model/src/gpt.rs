//! GPT transformer model descriptions.
//!
//! The paper evaluates GPT models "of sizes up to 3.1B and 11.1B
//! parameters" (mid-range / high-end respectively), weak-scaling the model
//! with cluster size (Fig. 8, Table II). Hyperparameters follow the
//! Megatron-LM convention (sequence length 2048, vocabulary 51200).

use std::fmt;

/// Hyperparameters of a GPT-style decoder-only transformer.
///
/// ```
/// use pipette_model::GptConfig;
///
/// let gpt = GptConfig::gpt_3_1b();
/// assert_eq!(gpt.n_layers, 32);
/// // Split over a 4-stage pipeline, each stage carries 8 layers; the
/// // first additionally holds the embeddings.
/// assert_eq!(gpt.layers_of_stage(4, 0), 8);
/// assert!(gpt.stage_params(4, 0) > gpt.stage_params(4, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GptConfig {
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Number of attention heads; must divide `hidden`.
    pub n_heads: usize,
    /// Sequence length per sample.
    pub seq_len: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl GptConfig {
    /// Creates a config, validating head divisibility.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `n_heads` does not divide `hidden`.
    pub fn new(
        n_layers: usize,
        hidden: usize,
        n_heads: usize,
        seq_len: usize,
        vocab: usize,
    ) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` constructor contract for model presets
        assert!(n_layers > 0 && hidden > 0 && n_heads > 0 && seq_len > 0 && vocab > 0);
        assert_eq!(hidden % n_heads, 0, "heads must divide hidden dimension");
        Self {
            n_layers,
            hidden,
            n_heads,
            seq_len,
            vocab,
        }
    }

    /// Parameters in one transformer layer: `12 h² + 13 h`
    /// (QKV + attention output + two MLP matrices, biases, layer norms).
    pub fn layer_params(&self) -> u64 {
        let h = self.hidden as u64;
        12 * h * h + 13 * h
    }

    /// Parameters of the (tied) token embedding / output head.
    pub fn embedding_params(&self) -> u64 {
        (self.vocab as u64) * (self.hidden as u64)
    }

    /// Parameters of the learned position embedding.
    pub fn position_params(&self) -> u64 {
        (self.seq_len as u64) * (self.hidden as u64)
    }

    /// Total parameter count (embeddings counted once).
    pub fn num_params(&self) -> u64 {
        self.embedding_params()
            + self.position_params()
            + self.n_layers as u64 * self.layer_params()
            + 2 * self.hidden as u64 // final layer norm
    }

    /// Number of layers assigned to pipeline stage `stage` of `pp` total,
    /// distributing the remainder to the earliest stages (Megatron-LM
    /// behaviour).
    ///
    /// # Panics
    ///
    /// Panics if `pp == 0`, `stage >= pp`, or `pp > n_layers`.
    pub fn layers_of_stage(&self, pp: usize, stage: usize) -> usize {
        debug_assert!(pp > 0 && stage < pp, "invalid stage {stage} of {pp}");
        debug_assert!(pp <= self.n_layers, "more stages than layers");
        let base = self.n_layers / pp;
        let extra = self.n_layers % pp;
        base + usize::from(stage < extra)
    }

    /// Parameters held by pipeline stage `stage` (before tensor-parallel
    /// sharding). Stage 0 additionally holds the input embeddings; the last
    /// stage holds the final layer norm plus — when `pp > 1` — its own copy
    /// of the (tied) output head, as Megatron-LM keeps one per end stage.
    pub fn stage_params(&self, pp: usize, stage: usize) -> u64 {
        let mut p = self.layers_of_stage(pp, stage) as u64 * self.layer_params();
        if stage == 0 {
            p += self.embedding_params() + self.position_params();
        }
        if stage == pp - 1 {
            p += 2 * self.hidden as u64;
            if pp > 1 {
                p += self.embedding_params();
            }
        }
        p
    }

    /// The 1.1B-parameter GPT (Table II, mid-range 8-node row).
    pub fn gpt_1_1b() -> Self {
        Self::new(24, 1920, 24, 2048, 51200)
    }

    /// The 3.1B-parameter GPT (mid-range cluster default).
    pub fn gpt_3_1b() -> Self {
        Self::new(32, 2816, 32, 2048, 51200)
    }

    /// The 8.1B-parameter GPT (Table II, high-end 8-node row).
    pub fn gpt_8_1b() -> Self {
        Self::new(40, 4096, 32, 2048, 51200)
    }

    /// The 11.1B-parameter GPT (high-end cluster default).
    pub fn gpt_11_1b() -> Self {
        Self::new(48, 4352, 32, 2048, 51200)
    }

    /// Weak-scaled model for the mid-range cluster at a given GPU count
    /// (Fig. 8: the model grows with the cluster).
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is not one of 32/64/96/128.
    pub fn mid_range_for_gpus(n_gpus: usize) -> Self {
        match n_gpus {
            32 => Self::new(16, 1536, 16, 2048, 51200), // ~0.5B
            64 => Self::gpt_1_1b(),
            96 => Self::new(28, 2560, 32, 2048, 51200), // ~2.2B
            128 => Self::gpt_3_1b(),
            // pipette-lint: allow(D2) -- documented `# Panics`: the weak-scaling ladder exists only at these fixed GPU counts
            _ => panic!("no mid-range weak-scaling point for {n_gpus} GPUs"),
        }
    }

    /// Weak-scaled model for the high-end cluster at a given GPU count.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus` is not one of 32/64/96/128.
    pub fn high_end_for_gpus(n_gpus: usize) -> Self {
        match n_gpus {
            32 => Self::new(32, 3072, 32, 2048, 51200), // ~3.7B
            64 => Self::gpt_8_1b(),
            96 => Self::new(44, 4224, 32, 2048, 51200), // ~9.6B
            128 => Self::gpt_11_1b(),
            // pipette-lint: allow(D2) -- documented `# Panics`: the weak-scaling ladder exists only at these fixed GPU counts
            _ => panic!("no high-end weak-scaling point for {n_gpus} GPUs"),
        }
    }

    /// Approximate size in billions of parameters, for display.
    pub fn size_billions(&self) -> f64 {
        self.num_params() as f64 / 1e9
    }
}

impl fmt::Display for GptConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GPT-{:.1}B (L={}, h={}, a={}, s={})",
            self.size_billions(),
            self.n_layers,
            self.hidden,
            self.n_heads,
            self.seq_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes_match_paper_labels() {
        assert!((GptConfig::gpt_1_1b().size_billions() - 1.1).abs() < 0.15);
        assert!((GptConfig::gpt_3_1b().size_billions() - 3.1).abs() < 0.2);
        assert!((GptConfig::gpt_8_1b().size_billions() - 8.1).abs() < 0.3);
        assert!((GptConfig::gpt_11_1b().size_billions() - 11.1).abs() < 0.4);
    }

    #[test]
    fn stage_params_sum_close_to_total() {
        let g = GptConfig::gpt_3_1b();
        for pp in [1, 2, 4, 8] {
            let sum: u64 = (0..pp).map(|s| g.stage_params(pp, s)).sum();
            // The output head copy is double-counted relative to num_params
            // when pp > 1 (both end stages hold an embedding-sized matrix).
            let expected_extra = if pp > 1 { g.embedding_params() } else { 0 };
            assert_eq!(sum, g.num_params() + expected_extra);
        }
    }

    #[test]
    fn layers_distribute_with_remainder_first() {
        let g = GptConfig::new(10, 512, 8, 128, 1000);
        let counts: Vec<_> = (0..4).map(|s| g.layers_of_stage(4, s)).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
    }

    #[test]
    fn weak_scaling_is_monotone() {
        let mut prev = 0;
        for g in [32, 64, 96, 128] {
            let p = GptConfig::mid_range_for_gpus(g).num_params();
            assert!(p > prev);
            prev = p;
        }
        let mut prev = 0;
        for g in [32, 64, 96, 128] {
            let p = GptConfig::high_end_for_gpus(g).num_params();
            assert!(p > prev);
            prev = p;
        }
    }

    #[test]
    fn single_stage_holds_everything() {
        let g = GptConfig::gpt_1_1b();
        assert_eq!(g.stage_params(1, 0), g.num_params());
        assert_eq!(g.layers_of_stage(1, 0), g.n_layers);
    }

    #[test]
    fn one_layer_per_stage_at_max_depth() {
        let g = GptConfig::new(8, 512, 8, 128, 1000);
        for s in 0..8 {
            assert_eq!(g.layers_of_stage(8, s), 1);
        }
    }

    #[test]
    #[should_panic(expected = "more stages than layers")]
    fn too_deep_pipeline_rejected() {
        GptConfig::new(4, 512, 8, 128, 1000).layers_of_stage(5, 0);
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn head_divisibility_enforced() {
        GptConfig::new(2, 100, 3, 128, 1000);
    }

    #[test]
    fn display_shows_size() {
        assert!(GptConfig::gpt_3_1b().to_string().contains("GPT-3.2B"));
    }
}
