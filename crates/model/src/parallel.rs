//! 3D-parallel configurations and logical worker indexing.
//!
//! A configuration splits `G` GPUs into `pp` pipeline stages × `tp` tensor
//! ways × `dp` data replicas with `pp · tp · dp = G` (Fig. 1). A *logical
//! worker* is a coordinate `(x, y, z)` in that grid (the paper's Eq. 2);
//! the mapping crate assigns each worker to a physical GPU.

use crate::error::ModelError;
use std::fmt;

/// A `(pp, tp, dp)` parallelization configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParallelConfig {
    /// Pipeline-parallel ways (number of stages).
    pub pp: usize,
    /// Tensor-parallel ways.
    pub tp: usize,
    /// Data-parallel ways (replicas).
    pub dp: usize,
}

/// Coordinate of a logical worker in the `(pipeline, tensor, data)` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId {
    /// Pipeline stage index `x ∈ [0, pp)`.
    pub stage: usize,
    /// Tensor-parallel rank `y ∈ [0, tp)`.
    pub tensor: usize,
    /// Data-parallel replica `z ∈ [0, dp)`.
    pub data: usize,
}

impl ParallelConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(pp: usize, tp: usize, dp: usize) -> Self {
        debug_assert!(
            pp > 0 && tp > 0 && dp > 0,
            "parallel degrees must be positive"
        );
        Self { pp, tp, dp }
    }

    /// Total logical workers (`pp · tp · dp`).
    pub fn num_workers(&self) -> usize {
        self.pp * self.tp * self.dp
    }

    /// Linear index of a worker: tensor rank fastest, then data replica,
    /// then pipeline stage. With the identity mapping and `tp · dp` equal to
    /// the node size, this keeps each tensor group on consecutive GPUs —
    /// i.e. inside one node — which is the conventional Megatron placement.
    ///
    /// # Panics
    ///
    /// Panics if the worker is out of range for this configuration.
    pub fn index_of(&self, w: WorkerId) -> usize {
        debug_assert!(
            w.stage < self.pp && w.tensor < self.tp && w.data < self.dp,
            "worker out of range"
        );
        (w.stage * self.dp + w.data) * self.tp + w.tensor
    }

    /// Inverse of [`Self::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_workers()`.
    pub fn worker_at(&self, idx: usize) -> WorkerId {
        debug_assert!(idx < self.num_workers(), "worker index out of range");
        let tensor = idx % self.tp;
        let rest = idx / self.tp;
        let data = rest % self.dp;
        let stage = rest / self.dp;
        WorkerId {
            stage,
            tensor,
            data,
        }
    }

    /// Iterates over all workers in linear-index order.
    pub fn workers(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..self.num_workers()).map(|i| self.worker_at(i))
    }

    /// Validates the configuration against a cluster and model:
    /// `pp·tp·dp == n_gpus`, `tp ≤ max_tp` and `tp | max_tp` (usually the
    /// node size — tensor all-reduce traffic must stay on NVLink, so `tp`
    /// must pack into a node), and `pp ≤ n_layers`.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] describing the violated constraint.
    pub fn validate(
        &self,
        n_gpus: usize,
        max_tp: usize,
        n_layers: usize,
    ) -> Result<(), ModelError> {
        if self.num_workers() != n_gpus {
            return Err(ModelError::WorkerMismatch {
                workers: self.num_workers(),
                gpus: n_gpus,
            });
        }
        if self.tp > max_tp || !max_tp.is_multiple_of(self.tp) {
            return Err(ModelError::TensorWaysTooLarge {
                tp: self.tp,
                max_tp,
            });
        }
        if self.pp > n_layers {
            return Err(ModelError::TooManyStages {
                pp: self.pp,
                layers: n_layers,
            });
        }
        Ok(())
    }

    /// Enumerates all valid `(pp, tp, dp)` triples for `n_gpus` GPUs with
    /// the given constraints, in lexicographic `(pp, tp)` order.
    pub fn enumerate(n_gpus: usize, max_tp: usize, n_layers: usize) -> Vec<Self> {
        let mut out = Vec::new();
        for pp in crate::batching::divisors(n_gpus as u64) {
            let pp = pp as usize;
            if pp > n_layers {
                continue;
            }
            let rest = n_gpus / pp;
            for tp in crate::batching::divisors(rest as u64) {
                let tp = tp as usize;
                if tp > max_tp || !max_tp.is_multiple_of(tp) {
                    continue;
                }
                out.push(Self::new(pp, tp, rest / tp));
            }
        }
        out
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(pp={}, tp={}, dp={})", self.pp, self.tp, self.dp)
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w[x={},y={},z={}]", self.stage, self.tensor, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn enumerate_products_are_exact() {
        let configs = ParallelConfig::enumerate(128, 8, 32);
        assert!(!configs.is_empty());
        for c in &configs {
            assert_eq!(c.num_workers(), 128);
            assert!(c.tp <= 8);
            assert!(c.pp <= 32);
        }
        // (pp=1, tp=1, dp=128) must be present; pp=64 must not (> 32 layers).
        assert!(configs.contains(&ParallelConfig::new(1, 1, 128)));
        assert!(!configs.iter().any(|c| c.pp == 64));
    }

    #[test]
    fn index_round_trip_small() {
        let c = ParallelConfig::new(3, 2, 2);
        for i in 0..c.num_workers() {
            assert_eq!(c.index_of(c.worker_at(i)), i);
        }
    }

    #[test]
    fn tensor_rank_is_fastest_dimension() {
        let c = ParallelConfig::new(2, 4, 2);
        let w0 = c.worker_at(0);
        let w1 = c.worker_at(1);
        assert_eq!(w0.stage, w1.stage);
        assert_eq!(w0.data, w1.data);
        assert_eq!(w1.tensor, w0.tensor + 1);
    }

    #[test]
    fn validation_catches_each_constraint() {
        let c = ParallelConfig::new(4, 16, 2);
        assert!(matches!(
            c.validate(128, 8, 32),
            Err(ModelError::TensorWaysTooLarge { .. })
        ));
        let c = ParallelConfig::new(64, 1, 2);
        assert!(matches!(
            c.validate(128, 8, 32),
            Err(ModelError::TooManyStages { .. })
        ));
        let c = ParallelConfig::new(2, 2, 2);
        assert!(matches!(
            c.validate(128, 8, 32),
            Err(ModelError::WorkerMismatch { .. })
        ));
        assert!(ParallelConfig::new(4, 8, 4).validate(128, 8, 32).is_ok());
    }

    proptest! {
        #[test]
        fn index_round_trips(pp in 1usize..6, tp in 1usize..6, dp in 1usize..6) {
            let c = ParallelConfig::new(pp, tp, dp);
            for i in 0..c.num_workers() {
                prop_assert_eq!(c.index_of(c.worker_at(i)), i);
            }
        }

        #[test]
        fn enumerate_is_exhaustive_over_divisor_triples(g in 1usize..200) {
            let configs = ParallelConfig::enumerate(g, g, usize::MAX >> 1);
            // Count triples (pp, tp, dp) with pp*tp*dp = g and tp | g by
            // brute force (max_tp == g here, so tp must divide g — which
            // every divisor of g/pp does not necessarily satisfy... it
            // does: tp divides g/pp which divides g).
            let mut count = 0;
            for pp in 1..=g {
                for tp in 1..=g {
                    if pp * tp <= g && g % (pp * tp) == 0 && g % tp == 0 {
                        count += 1;
                    }
                }
            }
            prop_assert_eq!(configs.len(), count);
        }
    }
}
