//! Physical cluster topology: nodes and the GPUs they host.

use crate::error::ClusterError;
use std::fmt;

/// Identifier of a physical GPU, globally indexed across the cluster.
///
/// GPU `g` lives on node `g / gpus_per_node` with local rank
/// `g % gpus_per_node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GpuId(pub usize);

/// Identifier of a physical node (server) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl From<usize> for GpuId {
    fn from(v: usize) -> Self {
        GpuId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Shape of the cluster: `nodes × gpus_per_node` GPUs.
///
/// Both evaluation clusters in the paper (Table I) are 16 nodes × 8 GPUs;
/// the scalability study (Fig. 8) shrinks the node count to 4/8/12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterTopology {
    nodes: usize,
    gpus_per_node: usize,
}

impl ClusterTopology {
    /// Creates a topology of `nodes` servers with `gpus_per_node` GPUs each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, gpus_per_node: usize) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` contract; dimensions come from presets or validated specs
        assert!(nodes > 0, "cluster must have at least one node");
        assert!(gpus_per_node > 0, "nodes must host at least one GPU");
        Self {
            nodes,
            gpus_per_node,
        }
    }

    /// Fallible variant of [`Self::new`] for dimensions that come from
    /// user input (CLI specs, imported tables).
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidParameter`] if either dimension is zero.
    pub fn try_new(nodes: usize, gpus_per_node: usize) -> Result<Self, ClusterError> {
        if nodes == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "nodes".into(),
                reason: "cluster must have at least one node".into(),
            });
        }
        if gpus_per_node == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "gpus_per_node".into(),
                reason: "nodes must host at least one GPU".into(),
            });
        }
        Ok(Self {
            nodes,
            gpus_per_node,
        })
    }

    /// Number of nodes in the cluster.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Total number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// The node hosting `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn node_of(&self, gpu: GpuId) -> NodeId {
        debug_assert!(gpu.0 < self.num_gpus(), "gpu {gpu} out of range");
        NodeId(gpu.0 / self.gpus_per_node)
    }

    /// Local rank of `gpu` within its node (0-based).
    pub fn local_rank(&self, gpu: GpuId) -> usize {
        debug_assert!(gpu.0 < self.num_gpus(), "gpu {gpu} out of range");
        gpu.0 % self.gpus_per_node
    }

    /// The GPU with a given local rank on a given node.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `local_rank` are out of range.
    pub fn gpu(&self, node: usize, local_rank: usize) -> GpuId {
        debug_assert!(node < self.nodes, "node {node} out of range");
        debug_assert!(
            local_rank < self.gpus_per_node,
            "local rank {local_rank} out of range"
        );
        GpuId(node * self.gpus_per_node + local_rank)
    }

    /// Whether two GPUs share a node (and therefore the intra-node fabric).
    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Iterator over all GPU ids in index order.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.num_gpus()).map(GpuId)
    }

    /// Iterator over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes).map(NodeId)
    }

    /// The GPUs hosted on `node`, in local-rank order.
    pub fn gpus_of_node(&self, node: NodeId) -> impl Iterator<Item = GpuId> + '_ {
        debug_assert!(node.0 < self.nodes, "node {node} out of range");
        let base = node.0 * self.gpus_per_node;
        (base..base + self.gpus_per_node).map(GpuId)
    }

    /// Restricts the topology to its first `nodes` nodes.
    ///
    /// Used by the memory-estimator training pipeline, which profiles only
    /// the first four nodes of the cluster (§VI).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the current node count.
    pub fn truncated(&self, nodes: usize) -> Self {
        debug_assert!(
            nodes > 0 && nodes <= self.nodes,
            "invalid truncation to {nodes} nodes"
        );
        Self {
            nodes,
            gpus_per_node: self.gpus_per_node,
        }
    }
}

impl fmt::Display for ClusterTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nodes x {} GPUs", self.nodes, self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let topo = ClusterTopology::new(4, 8);
        for node in 0..4 {
            for lr in 0..8 {
                let g = topo.gpu(node, lr);
                assert_eq!(topo.node_of(g), NodeId(node));
                assert_eq!(topo.local_rank(g), lr);
            }
        }
    }

    #[test]
    fn same_node_detection() {
        let topo = ClusterTopology::new(2, 4);
        assert!(topo.same_node(GpuId(0), GpuId(3)));
        assert!(!topo.same_node(GpuId(3), GpuId(4)));
    }

    #[test]
    fn gpu_iteration_covers_all() {
        let topo = ClusterTopology::new(3, 2);
        let ids: Vec<_> = topo.gpus().collect();
        assert_eq!(ids.len(), 6);
        assert_eq!(ids[0], GpuId(0));
        assert_eq!(ids[5], GpuId(5));
    }

    #[test]
    fn gpus_of_node_are_contiguous() {
        let topo = ClusterTopology::new(3, 4);
        let ids: Vec<_> = topo.gpus_of_node(NodeId(1)).collect();
        assert_eq!(ids, vec![GpuId(4), GpuId(5), GpuId(6), GpuId(7)]);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let topo = ClusterTopology::new(16, 8);
        let small = topo.truncated(4);
        assert_eq!(small.num_gpus(), 32);
        assert_eq!(small.gpus_per_node(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_rejects_out_of_range() {
        ClusterTopology::new(1, 2).node_of(GpuId(2));
    }

    #[test]
    #[should_panic(expected = "invalid truncation")]
    fn truncation_rejects_growth() {
        ClusterTopology::new(2, 2).truncated(3);
    }

    #[test]
    fn try_new_rejects_zero_dimensions() {
        assert!(matches!(
            ClusterTopology::try_new(0, 8),
            Err(ClusterError::InvalidParameter { .. })
        ));
        assert!(matches!(
            ClusterTopology::try_new(2, 0),
            Err(ClusterError::InvalidParameter { .. })
        ));
        assert_eq!(
            ClusterTopology::try_new(2, 8).unwrap(),
            ClusterTopology::new(2, 8)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(GpuId(3).to_string(), "gpu3");
        assert_eq!(NodeId(1).to_string(), "node1");
        assert_eq!(ClusterTopology::new(2, 8).to_string(), "2 nodes x 8 GPUs");
    }
}
