//! The systems the paper compares against (§VII-A "Baselines"):
//!
//! * [`AmpConfigurator`] — the state-of-the-art automatic configurator,
//!   ranking candidates with Eq. 1 over datasheet bandwidths, memory-
//!   unaware ("we manually tested them one by one from the top
//!   recommendation until we reached a runnable configuration");
//! * [`VarunaConfigurator`] — pipeline-parallel-only search (tp = 1);
//! * [`MegatronTuner`] — the hand-tuned Megatron-LM practice: fix tensor
//!   parallelism to the node size (tp = 8) and let an expert try the
//!   remaining pp/dp/microbatch combinations on the cluster.

mod amp;
mod megatron;
mod varuna;

pub use amp::AmpConfigurator;
pub use megatron::{MegatronTuner, TunedResult};
pub use varuna::VarunaConfigurator;

use pipette_model::{MicrobatchPlan, ParallelConfig};
use pipette_sim::{ClusterRun, Mapping, Measured};

/// One entry of a baseline's ranked recommendation list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCandidate {
    /// Recommended `(pp, tp, dp)`.
    pub config: ParallelConfig,
    /// Recommended microbatch plan.
    pub plan: MicrobatchPlan,
    /// The baseline's own latency estimate (seconds).
    pub estimated_seconds: f64,
}

/// Outcome of walking a ranked list against the real cluster: the first
/// runnable candidate, how many launches were attempted (OOM failures
/// included), and the measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstRunnable {
    /// The candidate that ran.
    pub candidate: RankedCandidate,
    /// Its rank in the list (0-based).
    pub rank: usize,
    /// Launch attempts consumed, including the successful one.
    pub attempts: usize,
    /// The measurement of the successful run.
    pub measured: Measured,
}

/// Walks a ranked list top-down, launching each candidate on the cluster
/// (identity mapping — baselines are placement-unaware) until one does not
/// OOM. Returns `None` if every candidate fails.
pub fn first_runnable(ranked: &[RankedCandidate], run: &ClusterRun<'_>) -> Option<FirstRunnable> {
    for (rank, cand) in ranked.iter().enumerate() {
        let mapping = Mapping::identity(cand.config, *run.cluster().topology());
        match run.execute(cand.config, &mapping, cand.plan) {
            Ok(measured) => {
                return Some(FirstRunnable {
                    candidate: *cand,
                    rank,
                    attempts: rank + 1,
                    measured,
                })
            }
            Err(_) => continue,
        }
    }
    None
}

/// Counts how many of the first `k` candidates would OOM on the cluster —
/// the Fig. 5b metric.
pub fn count_oom_in_top_k(ranked: &[RankedCandidate], run: &ClusterRun<'_>, k: usize) -> usize {
    ranked
        .iter()
        .take(k)
        .filter(|cand| {
            let limit = run.cluster().gpu().memory_bytes;
            run.peak_memory(cand.config, cand.plan).peak_bytes > limit
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;
    use pipette_model::GptConfig;

    #[test]
    fn first_runnable_skips_oom_entries() {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::gpt_1_1b();
        let run = ClusterRun::new(&cluster, &gpt);
        // First candidate is a deliberate OOM (huge microbatch), second is
        // sane.
        let ranked = vec![
            RankedCandidate {
                config: ParallelConfig::new(2, 8, 1),
                plan: MicrobatchPlan::new(64, 64).unwrap(),
                estimated_seconds: 1.0,
            },
            RankedCandidate {
                config: ParallelConfig::new(2, 8, 1),
                plan: MicrobatchPlan::new(64, 1).unwrap(),
                estimated_seconds: 2.0,
            },
        ];
        let hit = first_runnable(&ranked, &run).expect("second candidate runs");
        assert_eq!(hit.rank, 1);
        assert_eq!(hit.attempts, 2);
        assert_eq!(count_oom_in_top_k(&ranked, &run, 2), 1);
    }

    #[test]
    fn first_runnable_none_when_all_oom() {
        let cluster = presets::mid_range(2).build(1);
        let gpt = GptConfig::gpt_3_1b();
        let run = ClusterRun::new(&cluster, &gpt);
        let ranked = vec![RankedCandidate {
            config: ParallelConfig::new(1, 8, 2),
            plan: MicrobatchPlan::new(32, 32).unwrap(),
            estimated_seconds: 1.0,
        }];
        assert!(first_runnable(&ranked, &run).is_none());
    }
}
