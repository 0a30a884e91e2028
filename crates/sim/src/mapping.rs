//! The logical-worker → physical-GPU mapping (the paper's Eq. 2).
//!
//! Given a parallel configuration, a [`Mapping`] is a bijection from worker
//! coordinates `(stage, tensor, data)` onto GPU ids. Fine-grained worker
//! dedication (§IV) searches this space; everything else (the simulator,
//! the latency estimator) only *reads* it.

use pipette_cluster::{ClusterTopology, GpuId};
use pipette_model::{ParallelConfig, WorkerId};
use std::fmt;

/// A 1:1 assignment of logical workers to GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    config: ParallelConfig,
    /// `assign[worker_linear_index] = gpu`.
    assign: Vec<GpuId>,
}

impl Mapping {
    /// The conventional ("alphabetical", Fig. 4a) placement: worker with
    /// linear index `i` on GPU `i`. Because [`ParallelConfig::index_of`]
    /// makes the tensor rank the fastest dimension, tensor groups land on
    /// consecutive GPUs of one node whenever `tp` divides the node size.
    ///
    /// # Panics
    ///
    /// Panics if the worker count does not equal the GPU count.
    pub fn identity(config: ParallelConfig, topology: ClusterTopology) -> Self {
        debug_assert_eq!(
            config.num_workers(),
            topology.num_gpus(),
            "mapping requires as many workers as GPUs"
        );
        Self {
            config,
            assign: topology.gpus().collect(),
        }
    }

    /// Builds a mapping from an explicit assignment vector indexed by the
    /// worker linear index.
    ///
    /// # Panics
    ///
    /// Panics if `assign` is not a permutation of `0..num_workers`.
    pub fn from_assignment(config: ParallelConfig, assign: Vec<GpuId>) -> Self {
        debug_assert_eq!(
            assign.len(),
            config.num_workers(),
            "assignment length mismatch"
        );
        let mut seen = vec![false; assign.len()];
        for g in &assign {
            debug_assert!(g.0 < assign.len(), "gpu id {g} out of range");
            debug_assert!(!seen[g.0], "gpu {g} assigned twice");
            seen[g.0] = true;
        }
        Self { config, assign }
    }

    /// The parallel configuration this mapping is defined for.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// GPU hosting the given worker.
    pub fn gpu_of(&self, w: WorkerId) -> GpuId {
        self.assign[self.config.index_of(w)]
    }

    /// The raw assignment slice (worker linear index → GPU).
    pub fn as_slice(&self) -> &[GpuId] {
        &self.assign
    }

    /// Mutable access for in-place move application (used by the simulated
    /// annealer). The caller must preserve the permutation property.
    pub fn as_mut_slice(&mut self) -> &mut [GpuId] {
        &mut self.assign
    }

    /// Whether the assignment is a valid permutation.
    pub fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.assign.len()];
        for g in &self.assign {
            if g.0 >= self.assign.len() || seen[g.0] {
                return false;
            }
            seen[g.0] = true;
        }
        true
    }

    /// GPUs of the tensor group of `(stage, data)`, by tensor rank.
    pub fn tensor_group(&self, stage: usize, data: usize) -> Vec<GpuId> {
        (0..self.config.tp)
            .map(|tensor| {
                self.gpu_of(WorkerId {
                    stage,
                    tensor,
                    data,
                })
            })
            .collect()
    }

    /// GPUs of the data-parallel group of `(stage, tensor)`, by replica.
    pub fn data_group(&self, stage: usize, tensor: usize) -> Vec<GpuId> {
        (0..self.config.dp)
            .map(|data| {
                self.gpu_of(WorkerId {
                    stage,
                    tensor,
                    data,
                })
            })
            .collect()
    }

    /// GPUs of the pipeline chain `(tensor, data)`, by stage.
    pub fn pipeline_chain(&self, tensor: usize, data: usize) -> Vec<GpuId> {
        (0..self.config.pp)
            .map(|stage| {
                self.gpu_of(WorkerId {
                    stage,
                    tensor,
                    data,
                })
            })
            .collect()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mapping{} [", self.config)?;
        for (i, g) in self.assign.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", g.0)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (ParallelConfig, ClusterTopology) {
        (ParallelConfig::new(2, 2, 2), ClusterTopology::new(2, 4))
    }

    #[test]
    fn identity_maps_index_to_gpu() {
        let (cfg, topo) = setup();
        let m = Mapping::identity(cfg, topo);
        for i in 0..8 {
            assert_eq!(m.as_slice()[i], GpuId(i));
        }
        assert!(m.is_permutation());
    }

    #[test]
    fn identity_keeps_tensor_groups_on_node() {
        let (cfg, topo) = setup();
        let m = Mapping::identity(cfg, topo);
        for stage in 0..2 {
            for data in 0..2 {
                let g = m.tensor_group(stage, data);
                assert!(
                    topo.same_node(g[0], g[1]),
                    "tensor group split across nodes: {g:?}"
                );
            }
        }
    }

    #[test]
    fn groups_have_expected_sizes() {
        let (cfg, topo) = setup();
        let m = Mapping::identity(cfg, topo);
        assert_eq!(m.tensor_group(0, 0).len(), 2);
        assert_eq!(m.data_group(1, 1).len(), 2);
        assert_eq!(m.pipeline_chain(0, 1).len(), 2);
    }

    #[test]
    fn groups_partition_the_cluster() {
        let (cfg, topo) = setup();
        let m = Mapping::identity(cfg, topo);
        let mut all: Vec<GpuId> = Vec::new();
        for stage in 0..cfg.pp {
            for data in 0..cfg.dp {
                all.extend(m.tensor_group(stage, data));
            }
        }
        all.sort();
        let expected: Vec<GpuId> = topo.gpus().collect();
        assert_eq!(all, expected);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_assignment_rejected() {
        let (cfg, _) = setup();
        Mapping::from_assignment(cfg, vec![GpuId(0); 8]);
    }

    #[test]
    fn display_lists_gpus() {
        let (cfg, topo) = setup();
        let s = Mapping::identity(cfg, topo).to_string();
        assert!(s.contains("pp=2"));
        assert!(s.contains('['));
    }

    proptest! {
        #[test]
        fn permutation_detection(perm in Just(()).prop_perturb(|_, mut rng| {
            let mut v: Vec<usize> = (0..8).collect();
            for i in (1..8).rev() {
                let j = (rng.next_u32() as usize) % (i + 1);
                v.swap(i, j);
            }
            v
        })) {
            let cfg = ParallelConfig::new(2, 2, 2);
            let assign: Vec<GpuId> = perm.into_iter().map(GpuId).collect();
            let m = Mapping::from_assignment(cfg, assign);
            prop_assert!(m.is_permutation());
            // Every group query returns distinct GPUs.
            let g = m.tensor_group(0, 0);
            prop_assert_ne!(g[0], g[1]);
        }
    }
}
