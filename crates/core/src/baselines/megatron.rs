//! Hand-tuned Megatron-LM (MLM) baseline.
//!
//! "Megatron-LM generally tunes the number of GPUs per node as a tensor
//! parallel way (tp = 8)" — the expert fixes tensor parallelism to the
//! node size, then *tries the remaining combinations on the cluster* until
//! the fastest runnable one is found. That manual effort is exactly what
//! Pipette automates; MLM is nonetheless a strong baseline because the
//! trials use the real (memory-efficient) schedule.

use pipette_cluster::Cluster;
use pipette_model::{candidate_space, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{ClusterRun, Mapping, Measured};

/// Result of the manual-tuning session.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedResult {
    /// The chosen configuration.
    pub config: ParallelConfig,
    /// The chosen microbatch plan.
    pub plan: MicrobatchPlan,
    /// Measured iteration of the chosen configuration.
    pub measured: Measured,
    /// Cluster launches the expert spent (including OOM failures).
    pub trials: usize,
}

/// The Megatron-LM manual tuner.
#[derive(Debug, Clone)]
pub struct MegatronTuner<'a> {
    cluster: &'a Cluster,
    gpt: &'a GptConfig,
    global_batch: u64,
    max_micro: u64,
}

impl<'a> MegatronTuner<'a> {
    /// Creates the tuner.
    pub fn new(cluster: &'a Cluster, gpt: &'a GptConfig, global_batch: u64) -> Self {
        Self {
            cluster,
            gpt,
            global_batch,
            max_micro: 8,
        }
    }

    /// Overrides the largest microbatch tried.
    pub fn with_max_micro(mut self, max_micro: u64) -> Self {
        self.max_micro = max_micro;
        self
    }

    /// The candidate family an MLM expert tries: tp fixed to the node
    /// size, every divisible `(pp, dp)` split, every microbatch ≤ max.
    pub fn candidates(&self) -> Vec<(ParallelConfig, MicrobatchPlan)> {
        let topo = self.cluster.topology();
        let tp = topo.gpus_per_node();
        candidate_space(
            topo.num_gpus(),
            tp,
            self.gpt.n_layers,
            self.global_batch,
            self.max_micro,
        )
        .into_iter()
        .filter(|(cfg, _)| cfg.tp == tp)
        .flat_map(|(cfg, plans)| plans.into_iter().map(move |plan| (cfg, plan)))
        .collect()
    }

    /// Runs the manual-tuning session on the cluster: launch every
    /// candidate, skip OOMs, keep the fastest.
    pub fn tune(&self, run: &ClusterRun<'_>) -> Option<TunedResult> {
        let mut best: Option<TunedResult> = None;
        let mut trials = 0usize;
        for (cfg, plan) in self.candidates() {
            trials += 1;
            let mapping = Mapping::identity(cfg, *self.cluster.topology());
            if let Ok(measured) = run.execute(cfg, &mapping, plan) {
                let better = best
                    .as_ref()
                    .map(|b| measured.iteration_seconds < b.measured.iteration_seconds)
                    .unwrap_or(true);
                if better {
                    best = Some(TunedResult {
                        config: cfg,
                        plan,
                        measured,
                        trials,
                    });
                }
            }
        }
        best.map(|mut b| {
            b.trials = trials;
            b
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(13),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    #[test]
    fn candidates_fix_tp_to_node_size() {
        let (cluster, gpt) = setup();
        let cands = MegatronTuner::new(&cluster, &gpt, 64).candidates();
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|(c, _)| c.tp == 8));
    }

    #[test]
    fn tuning_finds_a_runnable_config() {
        let (cluster, gpt) = setup();
        let run = ClusterRun::new(&cluster, &gpt);
        let result = MegatronTuner::new(&cluster, &gpt, 64)
            .tune(&run)
            .expect("a small model must have a runnable MLM config");
        assert!(result.measured.iteration_seconds > 0.0);
        assert!(result.trials >= 1);
        assert_eq!(result.config.tp, 8);
    }

    #[test]
    fn tuner_picks_the_fastest_of_its_family() {
        let (cluster, gpt) = setup();
        let run = ClusterRun::new(&cluster, &gpt);
        let tuner = MegatronTuner::new(&cluster, &gpt, 64);
        let best = tuner.tune(&run).unwrap();
        for (cfg, plan) in tuner.candidates() {
            let mapping = Mapping::identity(cfg, *cluster.topology());
            if let Ok(m) = run.execute(cfg, &mapping, plan) {
                assert!(best.measured.iteration_seconds <= m.iteration_seconds + 1e-12);
            }
        }
    }
}
