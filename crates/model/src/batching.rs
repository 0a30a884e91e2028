//! Batch decomposition: global batch → per-replica minibatch → microbatches.
//!
//! With data parallel degree `dp`, each replica processes a minibatch of
//! `global / dp` samples per iteration, split into `n_mb = mini / micro`
//! microbatches that flow through the pipeline (Algorithm 1, lines 4–5).

use crate::error::ModelError;
use crate::parallel::ParallelConfig;

/// Global batch configuration for one training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchConfig {
    /// Samples per optimizer step across the whole cluster.
    pub global_batch: u64,
}

impl BatchConfig {
    /// Creates a batch config.
    ///
    /// # Panics
    ///
    /// Panics if `global_batch` is zero.
    pub fn new(global_batch: u64) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` constructor contract
        assert!(global_batch > 0, "global batch must be positive");
        Self { global_batch }
    }

    /// The per-replica minibatch under `dp`-way data parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndivisibleBatch`] if `dp` does not divide the
    /// global batch.
    pub fn minibatch(&self, dp: usize) -> Result<u64, ModelError> {
        let dp = dp as u64;
        if dp == 0 || !self.global_batch.is_multiple_of(dp) {
            return Err(ModelError::IndivisibleBatch {
                global: self.global_batch,
                dp: dp as usize,
            });
        }
        Ok(self.global_batch / dp)
    }
}

/// A choice of microbatch size for a given minibatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicrobatchPlan {
    /// Samples per microbatch.
    pub micro_batch: u64,
    /// Microbatches per iteration per replica (`mini / micro`).
    pub n_microbatches: u64,
}

impl MicrobatchPlan {
    /// Builds a plan; `micro_batch` must divide `minibatch`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IndivisibleMicrobatch`] otherwise.
    pub fn new(minibatch: u64, micro_batch: u64) -> Result<Self, ModelError> {
        if micro_batch == 0 || !minibatch.is_multiple_of(micro_batch) {
            return Err(ModelError::IndivisibleMicrobatch {
                minibatch,
                micro: micro_batch,
            });
        }
        Ok(Self {
            micro_batch,
            n_microbatches: minibatch / micro_batch,
        })
    }

    /// All valid plans for a minibatch with microbatch size at most
    /// `max_micro` (the paper sweeps 1–8).
    pub fn enumerate(minibatch: u64, max_micro: u64) -> Vec<Self> {
        divisors(minibatch)
            .into_iter()
            .filter(|&d| d <= max_micro)
            .map(|d| Self {
                micro_batch: d,
                n_microbatches: minibatch / d,
            })
            .collect()
    }

    /// The minibatch this plan decomposes.
    pub fn minibatch(&self) -> u64 {
        self.micro_batch * self.n_microbatches
    }
}

/// A job's candidate space (Algorithm 1, lines 3–4): every
/// [`ParallelConfig::enumerate`] configuration whose `dp` divides
/// `global_batch`, each with its [`MicrobatchPlan::enumerate`] plans up to
/// `max_micro`, in enumeration order. A configuration is listed even when
/// no plan fits under `max_micro`, so "no batch split" stays apart from
/// "no plan".
///
/// # Panics
///
/// Panics if `n_gpus` is zero, or if `global_batch` is zero while any
/// configuration exists.
pub fn candidate_space(
    n_gpus: usize,
    max_tp: usize,
    n_layers: usize,
    global_batch: u64,
    max_micro: u64,
) -> Vec<(ParallelConfig, Vec<MicrobatchPlan>)> {
    ParallelConfig::enumerate(n_gpus, max_tp, n_layers)
        .into_iter()
        .filter_map(|cfg| {
            let mini = BatchConfig::new(global_batch).minibatch(cfg.dp).ok()?;
            Some((cfg, MicrobatchPlan::enumerate(mini, max_micro)))
        })
        .collect()
}

/// All divisors of `n` in ascending order.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn divisors(n: u64) -> Vec<u64> {
    debug_assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d * d != n {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn minibatch_divides() {
        let b = BatchConfig::new(512);
        assert_eq!(b.minibatch(4).unwrap(), 128);
        assert!(b.minibatch(3).is_err());
    }

    #[test]
    fn plan_round_trips() {
        let p = MicrobatchPlan::new(128, 4).unwrap();
        assert_eq!(p.n_microbatches, 32);
        assert_eq!(p.minibatch(), 128);
        assert!(MicrobatchPlan::new(128, 3).is_err());
        assert!(MicrobatchPlan::new(128, 0).is_err());
    }

    #[test]
    fn enumerate_respects_cap() {
        let plans = MicrobatchPlan::enumerate(64, 8);
        let sizes: Vec<u64> = plans.iter().map(|p| p.micro_batch).collect();
        assert_eq!(sizes, vec![1, 2, 4, 8]);
    }

    #[test]
    fn divisors_of_60() {
        assert_eq!(divisors(60), vec![1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(16), vec![1, 2, 4, 8, 16]);
    }

    proptest! {
        #[test]
        fn divisors_divide_and_are_sorted(n in 1u64..5000) {
            let ds = divisors(n);
            prop_assert!(ds.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(ds.iter().all(|d| n % d == 0));
            prop_assert_eq!(*ds.first().unwrap(), 1);
            prop_assert_eq!(*ds.last().unwrap(), n);
        }

        #[test]
        fn every_plan_reconstructs_minibatch(mini in 1u64..1024, cap in 1u64..16) {
            for p in MicrobatchPlan::enumerate(mini, cap) {
                prop_assert_eq!(p.minibatch(), mini);
                prop_assert!(p.micro_batch <= cap);
            }
        }
    }
}
