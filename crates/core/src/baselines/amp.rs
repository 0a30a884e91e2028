//! AMP (NeurIPS '22), the paper's main automatic baseline, and Varuna
//! (EuroSys '22), which is AMP's ranking over the pipeline-only part of
//! the space.
//!
//! AMP profiles compute, then exhaustively scores `(pp, tp, dp,
//! microbatch)` with the Eq. 1 latency model over document-specified
//! bandwidths and returns its ranking. It performs no memory check — the
//! paper shows 8 of its top-10 recommendations OOM (Fig. 5b) — and no
//! placement search. Varuna "emphasizes using the pipeline parallel-only
//! configuration for LLM training": it runs the same ranking over the
//! tp = 1 configurations only, `rank_where(|cfg| cfg.tp == 1)`, and OOMs
//! just as often.

use crate::configurator::Alternative;
use crate::latency::AmpLatencyModel;
use pipette_cluster::Cluster;
use pipette_model::{candidate_space, GptConfig, ParallelConfig};
use pipette_sim::ComputeProfiler;

/// The AMP configurator.
#[derive(Debug, Clone)]
pub struct AmpConfigurator<'a> {
    cluster: &'a Cluster,
    gpt: &'a GptConfig,
    global_batch: u64,
    max_micro: u64,
    seed: u64,
}

impl<'a> AmpConfigurator<'a> {
    /// Creates the configurator for a cluster/model/global batch.
    pub fn new(cluster: &'a Cluster, gpt: &'a GptConfig, global_batch: u64) -> Self {
        Self {
            cluster,
            gpt,
            global_batch,
            max_micro: 8,
            seed: 0,
        }
    }

    /// Overrides the largest microbatch considered (paper sweeps 1–8).
    pub fn with_max_micro(mut self, max_micro: u64) -> Self {
        self.max_micro = max_micro;
        self
    }

    /// Overrides the profiling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scores every candidate and returns them best-first.
    pub fn rank(&self) -> Vec<Alternative> {
        self.rank_where(|_| true)
    }

    /// Scores the candidates whose configuration `keep` accepts and
    /// returns them best-first.
    pub fn rank_where(&self, keep: impl Fn(ParallelConfig) -> bool) -> Vec<Alternative> {
        let topo = self.cluster.topology();
        let model = AmpLatencyModel::from_specs_of(self.cluster.bandwidth(), self.gpt);
        let profiler = ComputeProfiler::default();
        let gpu = self.cluster.gpu().clone();
        let mut out = Vec::new();
        for (cfg, plans) in candidate_space(
            topo.num_gpus(),
            topo.gpus_per_node(),
            self.gpt.n_layers,
            self.global_batch,
            self.max_micro,
        ) {
            if !keep(cfg) {
                continue;
            }
            for plan in plans {
                let compute = profiler.profile(
                    self.cluster.bandwidth(),
                    &gpu,
                    self.gpt,
                    cfg,
                    plan,
                    self.seed,
                );
                out.push(Alternative {
                    config: cfg,
                    plan,
                    estimated_seconds: model.estimate(cfg, plan, &compute),
                });
            }
        }
        out.sort_by(|a, b| a.estimated_seconds.total_cmp(&b.estimated_seconds));
        out
    }

    /// The top `k` recommendations (Fig. 5b examines the top 10).
    pub fn top_k(&self, k: usize) -> Vec<Alternative> {
        let mut ranked = self.rank();
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(17),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    #[test]
    fn ranking_is_sorted_and_exhaustive() {
        let (cluster, gpt) = setup();
        let ranked = AmpConfigurator::new(&cluster, &gpt, 64).rank();
        assert!(!ranked.is_empty());
        assert!(ranked
            .windows(2)
            .all(|w| w[0].estimated_seconds <= w[1].estimated_seconds));
        // All products match the cluster.
        assert!(ranked.iter().all(|c| c.config.num_workers() == 16));
    }

    #[test]
    fn top_k_truncates() {
        let (cluster, gpt) = setup();
        let amp = AmpConfigurator::new(&cluster, &gpt, 64);
        assert_eq!(amp.top_k(3).len(), 3);
    }

    #[test]
    fn memory_unaware_ranking_includes_large_microbatches() {
        // AMP considers (and often prefers) big microbatches that OOM.
        let (cluster, gpt) = setup();
        let ranked = AmpConfigurator::new(&cluster, &gpt, 64).rank();
        assert!(ranked.iter().any(|c| c.plan.micro_batch >= 4));
    }

    #[test]
    fn varuna_ranks_only_pipeline_parallel_configs() {
        let cluster = presets::mid_range(2).build(9);
        let gpt = GptConfig::new(16, 1024, 16, 2048, 51200);
        let ranked = AmpConfigurator::new(&cluster, &gpt, 64).rank_where(|cfg| cfg.tp == 1);
        assert!(!ranked.is_empty());
        assert!(ranked.iter().all(|c| c.config.tp == 1));
        assert!(ranked.iter().any(|c| c.config.pp > 1));
    }

    #[test]
    fn varuna_ranking_is_sorted() {
        let cluster = presets::mid_range(2).build(9);
        let gpt = GptConfig::new(16, 1024, 16, 2048, 51200);
        let ranked = AmpConfigurator::new(&cluster, &gpt, 64)
            .with_max_micro(4)
            .rank_where(|cfg| cfg.tp == 1);
        assert!(ranked
            .windows(2)
            .all(|w| w[0].estimated_seconds <= w[1].estimated_seconds));
    }

    #[test]
    fn deterministic() {
        let (cluster, gpt) = setup();
        let a = AmpConfigurator::new(&cluster, &gpt, 64).rank();
        let b = AmpConfigurator::new(&cluster, &gpt, 64).rank();
        assert_eq!(a, b);
    }
}
