//! Generator for heterogeneous attained-bandwidth matrices.
//!
//! Real-world clusters attain different bandwidths per link even when every
//! link is nominally identical (§IV, Fig. 3; also reported by PLink and the
//! CORAL system papers the paper cites). We model the attained inter-node
//! bandwidth of each directed node pair as `nominal × efficiency`, with
//! efficiency drawn from a clipped log-normal distribution, a fraction of
//! pairs further slowed as "straggler links" (up to ~2× slower, matching
//! Fig. 4's exaggeration of real traces), and near-symmetric forward and
//! reverse directions.

use crate::bandwidth::BandwidthMatrix;
use crate::link::LinkSpec;
use crate::rand_util::{log_normal, normal};
use crate::topology::{ClusterTopology, GpuId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Statistical model of per-link attained-bandwidth heterogeneity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneityModel {
    /// Mean attained fraction of nominal inter-node bandwidth.
    pub inter_mean_efficiency: f64,
    /// Log-space standard deviation of the inter-node efficiency.
    pub inter_sigma: f64,
    /// Fraction of node pairs that are straggler links.
    pub straggler_fraction: f64,
    /// Multiplier applied to a straggler link's bandwidth (e.g. 0.5 = 2× slower).
    pub straggler_factor: f64,
    /// Log-space sigma of the forward/reverse asymmetry (small: links are
    /// "often almost symmetric").
    pub asymmetry_sigma: f64,
    /// Relative standard deviation of intra-node link efficiency.
    pub intra_sigma: f64,
    /// Mean attained fraction of nominal intra-node bandwidth.
    pub intra_mean_efficiency: f64,
}

impl HeterogeneityModel {
    /// A model matching the spread observed in the paper's 40-day trace:
    /// most links attain 60–90 % of nominal, ~10 % of pairs are ~2× slower.
    pub fn realistic() -> Self {
        Self {
            inter_mean_efficiency: 0.72,
            inter_sigma: 0.28,
            straggler_fraction: 0.08,
            straggler_factor: 0.35,
            asymmetry_sigma: 0.02,
            intra_sigma: 0.015,
            intra_mean_efficiency: 0.92,
        }
    }

    /// A degenerate model with no heterogeneity (attained == mean efficiency
    /// × nominal everywhere). Useful for ablations.
    pub fn none() -> Self {
        Self {
            inter_mean_efficiency: 1.0,
            inter_sigma: 0.0,
            straggler_fraction: 0.0,
            straggler_factor: 1.0,
            asymmetry_sigma: 0.0,
            intra_sigma: 0.0,
            intra_mean_efficiency: 1.0,
        }
    }

    /// Generates an attained-bandwidth matrix for `topology`.
    ///
    /// Heterogeneity is sampled at *node* granularity for the inter-node
    /// fabric (each directed node pair shares one InfiniBand path) with a
    /// small per-GPU-pair jitter, and at GPU granularity for the intra-node
    /// fabric. Deterministic in `seed`.
    pub fn generate(
        &self,
        topology: ClusterTopology,
        intra_spec: LinkSpec,
        inter_spec: LinkSpec,
        seed: u64,
    ) -> BandwidthMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let nodes = topology.num_nodes();

        // Forward efficiency per unordered node pair, then a near-symmetric
        // reverse direction.
        let log_mean = self.inter_mean_efficiency.ln() - 0.5 * self.inter_sigma.powi(2);

        let mut node_eff = vec![0.0f64; nodes * nodes];
        for i in 0..nodes {
            for j in (i + 1)..nodes {
                let mut base: f64 = log_normal(&mut rng, log_mean, self.inter_sigma);
                if self.straggler_fraction > 0.0 && rng.gen::<f64>() < self.straggler_fraction {
                    base *= self.straggler_factor;
                }
                let base = base.clamp(0.05, 1.0);
                let fwd = base;
                let rev =
                    (base * normal(&mut rng, 0.0, self.asymmetry_sigma).exp()).clamp(0.05, 1.0);
                node_eff[i * nodes + j] = fwd;
                node_eff[j * nodes + i] = rev;
            }
        }

        let mut matrix = BandwidthMatrix::homogeneous(topology, intra_spec, inter_spec);
        let n = topology.num_gpus();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ga, gb) = (GpuId(a), GpuId(b));
                let bw = if topology.same_node(ga, gb) {
                    let eff = normal(
                        &mut rng,
                        self.intra_mean_efficiency,
                        self.intra_sigma * self.intra_mean_efficiency,
                    );
                    intra_spec.bandwidth_gib_s * eff.clamp(0.5, 1.0)
                } else {
                    let (na, nb) = (topology.node_of(ga).0, topology.node_of(gb).0);
                    let eff = node_eff[na * nodes + nb];
                    // Small per-GPU-pair jitter on top of the node-pair
                    // efficiency: the same IB path is shared, but NIC/PCIe
                    // effects differ slightly.
                    let jit = normal(&mut rng, 1.0, 0.01);
                    inter_spec.bandwidth_gib_s * (eff * jit).clamp(0.05, 1.0)
                };
                matrix.set(ga, gb, bw);
            }
        }
        matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn topo() -> ClusterTopology {
        ClusterTopology::new(8, 8)
    }

    fn specs() -> (LinkSpec, LinkSpec) {
        (LinkSpec::new(300.0, 2e-6), LinkSpec::new(11.64, 5e-6))
    }

    #[test]
    fn deterministic_in_seed() {
        let (intra, inter) = specs();
        let m1 = HeterogeneityModel::realistic().generate(topo(), intra, inter, 7);
        let m2 = HeterogeneityModel::realistic().generate(topo(), intra, inter, 7);
        assert_eq!(m1, m2);
        let m3 = HeterogeneityModel::realistic().generate(topo(), intra, inter, 8);
        assert_ne!(m1, m3);
    }

    #[test]
    fn inter_node_links_are_heterogeneous() {
        let (intra, inter) = specs();
        let m = HeterogeneityModel::realistic().generate(topo(), intra, inter, 1);
        let mut values = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    values.push(m.node_pair(NodeId(i), NodeId(j)));
                }
            }
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min > 1.3,
            "expected meaningful spread, got {min}..{max}"
        );
        assert!(max <= inter.bandwidth_gib_s + 1e-9);
    }

    #[test]
    fn links_are_nearly_symmetric() {
        let (intra, inter) = specs();
        let m = HeterogeneityModel::realistic().generate(topo(), intra, inter, 2);
        let t = m.topology();
        let mut worst_ratio = 1.0f64;
        for i in 0..t.num_nodes() {
            for j in 0..t.num_nodes() {
                if i == j {
                    continue;
                }
                let f = m.node_pair(NodeId(i), NodeId(j));
                let r = m.node_pair(NodeId(j), NodeId(i));
                worst_ratio = worst_ratio.max(f / r).max(r / f);
            }
        }
        // "bidirectional bandwidths ... are often almost symmetric"
        assert!(worst_ratio < 1.15, "asymmetry too large: {worst_ratio}");
    }

    #[test]
    fn no_heterogeneity_model_is_flat() {
        let (intra, inter) = specs();
        let m = HeterogeneityModel::none().generate(topo(), intra, inter, 3);
        let first = m.node_pair(NodeId(0), NodeId(1));
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    let v = m.node_pair(NodeId(i), NodeId(j));
                    assert!((v / first - 1.0).abs() < 0.05, "{v} vs {first}");
                }
            }
        }
    }

    #[test]
    fn intra_node_faster_than_inter_node() {
        let (intra, inter) = specs();
        let m = HeterogeneityModel::realistic().generate(topo(), intra, inter, 4);
        assert!(m.between(GpuId(0), GpuId(1)) > 10.0 * m.between(GpuId(0), GpuId(8)));
    }
}
