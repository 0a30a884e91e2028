//! Cluster presets mirroring Table I of the paper, and the assembled
//! [`Cluster`] value the rest of the workspace consumes.

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::hardware::GpuSpec;
use crate::heterogeneity::HeterogeneityModel;
use crate::link::{gbps_to_gib_s, LinkSpec};
use crate::profiler::NetworkProfiler;
use crate::topology::{ClusterTopology, GpuId, NodeId};
use pipette_obs::json::{self, DecodeError, Fields, JsonValue, Schema};
use std::fmt;

/// A fully realized cluster: topology, hardware, and the ground-truth
/// attained bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    name: String,
    gpu: GpuSpec,
    bandwidth: BandwidthMatrix,
    profiler: NetworkProfiler,
    /// The matrix's first invalid link as `(from, to)`, found once at
    /// construction: a cluster never changes afterwards. Indices, not
    /// the value, so that equality never compares a NaN.
    invalid_link: Option<(usize, usize)>,
}

impl Cluster {
    /// Assembles a cluster from parts. Scans the matrix once for its
    /// first invalid link ([`Self::first_invalid_link`]).
    pub fn new(
        name: impl Into<String>,
        gpu: GpuSpec,
        bandwidth: BandwidthMatrix,
        profiler: NetworkProfiler,
    ) -> Self {
        let invalid_link = bandwidth
            .first_invalid_link()
            .map(|(from, to, _)| (from, to));
        Self {
            name: name.into(),
            gpu,
            bandwidth,
            profiler,
            invalid_link,
        }
    }

    /// [`BandwidthMatrix::first_invalid_link`] of the cluster's matrix,
    /// recorded when the cluster was built, so reading it costs nothing.
    pub fn first_invalid_link(&self) -> Option<(usize, usize, f64)> {
        self.invalid_link
            .map(|(from, to)| (from, to, self.bandwidth.between(GpuId(from), GpuId(to))))
    }

    /// Human-readable cluster name, e.g. "mid-range".
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GPU model installed on every node.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// The ground-truth attained bandwidth matrix.
    pub fn bandwidth(&self) -> &BandwidthMatrix {
        &self.bandwidth
    }

    /// The cluster topology.
    pub fn topology(&self) -> &ClusterTopology {
        self.bandwidth.topology()
    }

    /// The network profiler configured for this cluster.
    pub fn profiler(&self) -> NetworkProfiler {
        self.profiler
    }

    /// A copy of this cluster restricted to its first `nodes` nodes, used
    /// for memory-estimator sample collection (≤ 4 nodes) and scalability
    /// sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the node count.
    pub fn truncated(&self, nodes: usize) -> Self {
        Self::new(
            format!("{} ({} nodes)", self.name, nodes),
            self.gpu.clone(),
            self.bandwidth.truncated(nodes),
            self.profiler,
        )
    }

    /// The cluster that remains after cordoning `failed` nodes: survivors
    /// are renumbered densely and keep their exact attained bandwidths.
    /// This is the subcluster a degraded configuration run targets.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptySelection`] if every node is failed,
    /// [`ClusterError::InvalidParameter`] if `failed` references a node
    /// outside the topology.
    pub fn excluding_nodes(&self, failed: &[NodeId]) -> Result<Self, ClusterError> {
        let topo = self.topology();
        if let Some(&bad) = failed.iter().find(|n| n.0 >= topo.num_nodes()) {
            return Err(ClusterError::InvalidParameter {
                name: "failed nodes".into(),
                reason: format!("node {bad} outside topology of {} nodes", topo.num_nodes()),
            });
        }
        let survivors: Vec<NodeId> = topo.node_ids().filter(|n| !failed.contains(n)).collect();
        let bandwidth = self.bandwidth.select_nodes(&survivors)?;
        Ok(Self::new(
            format!(
                "{} ({} of {} nodes)",
                self.name,
                survivors.len(),
                topo.num_nodes()
            ),
            self.gpu.clone(),
            bandwidth,
            self.profiler,
        ))
    }
}

const CLUSTER: Schema = Schema {
    keys: &["name", "gpu", "bandwidth", "profiler"],
    accepted: "name, gpu, bandwidth, profiler",
    required: &["name", "gpu", "bandwidth", "profiler"],
};
const GPU: Schema = Schema {
    keys: &["name", "peak_fp16_tflops", "attainable_mfu", "memory_bytes"],
    accepted: "name, peak_fp16_tflops, attainable_mfu, memory_bytes",
    required: &["name", "peak_fp16_tflops", "attainable_mfu", "memory_bytes"],
};
const PROFILER: Schema = Schema {
    keys: &["noise_sigma", "base_seconds", "per_pair_seconds"],
    accepted: "noise_sigma, base_seconds, per_pair_seconds",
    required: &["noise_sigma", "base_seconds", "per_pair_seconds"],
};

impl Cluster {
    /// Serializes the cluster (topology, hardware, and full attained
    /// matrix) to pretty JSON — useful for pinning a drawn cluster or
    /// shipping a measured one.
    pub fn to_json(&self) -> String {
        let (gpu, profiler) = (&self.gpu, &self.profiler);
        json::render_pretty(&JsonValue::object([
            ("name", self.name.as_str().into()),
            (
                "gpu",
                JsonValue::object([
                    ("name", gpu.name.as_str().into()),
                    ("peak_fp16_tflops", gpu.peak_fp16_tflops.into()),
                    ("attainable_mfu", gpu.attainable_mfu.into()),
                    ("memory_bytes", gpu.memory_bytes.into()),
                ]),
            ),
            ("bandwidth", self.bandwidth.to_json()),
            (
                "profiler",
                JsonValue::object([
                    ("noise_sigma", profiler.noise_sigma.into()),
                    ("base_seconds", profiler.base_seconds.into()),
                    ("per_pair_seconds", profiler.per_pair_seconds.into()),
                ]),
            ),
        ]))
    }

    /// Restores a cluster from [`Self::to_json`] output. The shape is
    /// checked — known keys of the right types, a topology with at least
    /// one node and one GPU per node, and exactly `gpus²` bandwidth
    /// entries — but the per-pair values are not rejected: a bad link is
    /// recorded like any cluster's ([`Self::first_invalid_link`]), and
    /// `Pipette` rejects it before it searches.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidParameter`] for invalid JSON, a mistyped,
    /// unknown or missing field, or an empty topology;
    /// [`ClusterError::MalformedMatrix`] when `data` has the wrong length.
    pub fn from_json(text: &str) -> Result<Self, ClusterError> {
        let doc = json::parse(text).map_err(|e| DecodeError::Malformed(e.to_string()))?;
        let root = Fields::root(&doc, "cluster", &CLUSTER)?;
        let gpu = root.required("gpu", |v, p| Fields::at(v, p.to_owned(), &GPU))?;
        let profiler = root.required("profiler", |v, p| Fields::at(v, p.to_owned(), &PROFILER))?;
        let bandwidth = root.required("bandwidth", |v, _| Ok(v))?;
        Ok(Self::new(
            root.required("name", json::string)?,
            GpuSpec {
                name: gpu.required("name", json::string)?.to_owned(),
                peak_fp16_tflops: gpu.required("peak_fp16_tflops", json::float)?,
                attainable_mfu: gpu.required("attainable_mfu", json::float)?,
                memory_bytes: gpu.required("memory_bytes", json::uint)?,
            },
            BandwidthMatrix::from_json(bandwidth, root.path("bandwidth"))?,
            NetworkProfiler {
                noise_sigma: profiler.required("noise_sigma", json::float)?,
                base_seconds: profiler.required("base_seconds", json::float)?,
                per_pair_seconds: profiler.required("per_pair_seconds", json::float)?,
            },
        ))
    }
}

impl fmt::Display for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} | {}]", self.name, self.topology(), self.gpu)
    }
}

/// A parameterized cluster recipe (Table I row); `build(seed)` realizes the
/// heterogeneous attained-bandwidth matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPreset {
    /// Cluster name.
    pub name: String,
    /// Topology shape.
    pub topology: ClusterTopology,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Nominal intra-node link (NVLink / NVSwitch).
    pub intra: LinkSpec,
    /// Nominal inter-node link (InfiniBand).
    pub inter: LinkSpec,
    /// Heterogeneity statistics of the attained bandwidths.
    pub heterogeneity: HeterogeneityModel,
    /// Profiling noise/cost model.
    pub profiler: NetworkProfiler,
}

impl ClusterPreset {
    /// Realizes the preset into a concrete cluster. Deterministic in `seed`.
    pub fn build(&self, seed: u64) -> Cluster {
        let matrix = self
            .heterogeneity
            .generate(self.topology, self.intra, self.inter, seed);
        Cluster::new(self.name.clone(), self.gpu.clone(), matrix, self.profiler)
    }
}

/// The paper's mid-range cluster: `nodes` × 8 V100, NVLink 300 GB/s
/// intra-node, InfiniBand EDR (100 Gb/s) inter-node.
pub fn mid_range(nodes: usize) -> ClusterPreset {
    ClusterPreset {
        name: "mid-range".to_owned(),
        topology: ClusterTopology::new(nodes, 8),
        gpu: GpuSpec::v100(),
        intra: LinkSpec::new(300.0e9 / crate::link::GIB, 3e-6),
        inter: LinkSpec::new(gbps_to_gib_s(100.0), 6e-6),
        heterogeneity: HeterogeneityModel::realistic(),
        // Fitted to Table II: 58.13 s at 8 nodes, 119.62 s at 16 nodes.
        profiler: NetworkProfiler::new(0.01, 39.4, 0.335),
    }
}

/// The paper's high-end cluster: `nodes` × 8 A100, NVSwitch 600 GB/s
/// intra-node, InfiniBand HDR (200 Gb/s) inter-node.
pub fn high_end(nodes: usize) -> ClusterPreset {
    ClusterPreset {
        name: "high-end".to_owned(),
        topology: ClusterTopology::new(nodes, 8),
        gpu: GpuSpec::a100(),
        intra: LinkSpec::new(600.0e9 / crate::link::GIB, 2e-6),
        inter: LinkSpec::new(gbps_to_gib_s(200.0), 5e-6),
        heterogeneity: HeterogeneityModel::realistic(),
        // Fitted to Table II: 113.67 s at 8 nodes, 239.21 s at 16 nodes.
        profiler: NetworkProfiler::new(0.01, 75.5, 0.682),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        let mid = mid_range(16);
        assert_eq!(mid.topology.num_gpus(), 128);
        assert_eq!(mid.gpu.name, "V100");
        // 100 Gb/s EDR ~ 11.64 GiB/s nominal.
        assert!((mid.inter.bandwidth_gib_s - 11.64).abs() < 0.01);

        let high = high_end(16);
        assert_eq!(high.gpu.name, "A100");
        assert!((high.inter.bandwidth_gib_s - 23.28).abs() < 0.01);
        assert!(high.intra.bandwidth_gib_s > mid.intra.bandwidth_gib_s);
    }

    #[test]
    fn build_is_deterministic() {
        let preset = mid_range(4);
        assert_eq!(preset.build(9), preset.build(9));
        assert_ne!(preset.build(9), preset.build(10));
    }

    #[test]
    fn truncated_cluster_shrinks() {
        let c = high_end(8).build(1);
        let t = c.truncated(2);
        assert_eq!(t.topology().num_nodes(), 2);
        assert_eq!(t.gpu(), c.gpu());
        assert!(t.name().contains("2 nodes"));
    }

    #[test]
    fn excluding_nodes_keeps_survivor_links() {
        let c = mid_range(4).build(3);
        let s = c.excluding_nodes(&[NodeId(1)]).expect("survivable");
        assert_eq!(s.topology().num_nodes(), 3);
        assert!(s.name().contains("3 of 4 nodes"));
        // Survivor links match the original: old node 2 is new node 1.
        let (old, new) = (c.bandwidth(), s.bandwidth());
        assert_eq!(
            new.between(new.topology().gpu(1, 0), new.topology().gpu(0, 0)),
            old.between(old.topology().gpu(2, 0), old.topology().gpu(0, 0)),
        );
        // Cordoning everything is an error; so is an unknown node.
        let all: Vec<NodeId> = c.topology().node_ids().collect();
        assert_eq!(c.excluding_nodes(&all), Err(ClusterError::EmptySelection));
        assert!(matches!(
            c.excluding_nodes(&[NodeId(99)]),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn display_mentions_name_and_gpu() {
        let c = mid_range(2).build(0);
        let s = c.to_string();
        assert!(s.contains("mid-range") && s.contains("V100"));
    }

    #[test]
    fn cluster_round_trips_through_json() {
        let c = mid_range(2).build(4);
        let json = c.to_json();
        let back = Cluster::from_json(&json).expect("parseable");
        // Shortest round-trip floats make the reload bit-exact.
        assert_eq!(back, c);
        assert!(back
            .bandwidth()
            .between(c.topology().gpu(1, 2), c.topology().gpu(1, 2))
            .is_infinite());
        assert_eq!(back.to_json(), json);
        assert!(matches!(
            Cluster::from_json("{not json"),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    /// Every constructor records the first invalid link of the matrix it
    /// ends up with: a bad value smuggled in through JSON, kept or
    /// dropped by truncation, and renumbered by node exclusion.
    #[test]
    fn every_constructor_records_the_first_invalid_link() {
        let c = mid_range(3).build(2);
        assert_eq!(c.first_invalid_link(), None);
        let mut matrix = c.bandwidth().clone();
        matrix.set(GpuId(17), GpuId(3), 123456.75);
        let tagged = Cluster::new("tagged", c.gpu().clone(), matrix, c.profiler()).to_json();
        let poisoned = Cluster::from_json(&edited(&tagged, "123456.75", "-2.5")).unwrap();
        assert_eq!(poisoned.first_invalid_link(), Some((17, 3, -2.5)));
        assert_eq!(
            poisoned.first_invalid_link(),
            poisoned.bandwidth().first_invalid_link()
        );
        // The record leaves the serialized bytes and equality alone.
        assert_eq!(Cluster::from_json(&poisoned.to_json()).unwrap(), poisoned);
        assert_eq!(
            poisoned.truncated(3).first_invalid_link(),
            Some((17, 3, -2.5))
        );
        assert_eq!(poisoned.truncated(2).first_invalid_link(), None);
        // Node 2's GPU 17 is GPU 9 once node 1 is cordoned.
        let survivors = poisoned.excluding_nodes(&[NodeId(1)]).unwrap();
        assert_eq!(survivors.first_invalid_link(), Some((9, 3, -2.5)));
        let healthy = poisoned.excluding_nodes(&[NodeId(2)]).unwrap();
        assert_eq!(healthy.first_invalid_link(), None);
    }

    /// `json` with the first occurrence of `from` replaced by `to`.
    fn edited(json: &str, from: &str, to: &str) -> String {
        assert!(json.contains(from), "{from:?} not in the export");
        json.replacen(from, to, 1)
    }

    #[test]
    fn from_json_rejects_an_empty_topology() {
        let json = mid_range(3).build(1).to_json();
        let err = Cluster::from_json(&edited(&json, "\"nodes\": 3", "\"nodes\": 0")).unwrap_err();
        assert!(
            matches!(&err, ClusterError::InvalidParameter { name, .. } if name == "nodes"),
            "{err}"
        );
    }

    #[test]
    fn from_json_rejects_data_one_entry_short() {
        let json = mid_range(3).build(1).to_json();
        let short = edited(&json, "\"data\": [\n      null,", "\"data\": [");
        let err = Cluster::from_json(&short).unwrap_err();
        assert_eq!(
            err,
            ClusterError::MalformedMatrix {
                reason: "expected 576 entries for 24 gpus, got 575".into()
            }
        );
    }

    #[test]
    fn from_json_rejects_a_topology_larger_than_its_data() {
        let json = mid_range(3).build(1).to_json();
        let err = Cluster::from_json(&edited(&json, "\"nodes\": 3", "\"nodes\": 4")).unwrap_err();
        assert_eq!(
            err,
            ClusterError::MalformedMatrix {
                reason: "expected 1024 entries for 32 gpus, got 576".into()
            }
        );
        // A mistyped field is named in the error.
        let err =
            Cluster::from_json(&edited(&json, "\"name\": \"V100\"", "\"name\": 7")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid cluster JSON: gpu.name: expected a string, found 7"
        );
    }

    #[test]
    fn profiling_costs_match_table_two_shape() {
        let mid = mid_range(16);
        let c = mid.profiler.cost(&mid.topology);
        assert!((c.seconds - 119.8).abs() < 1.0);
        let high = high_end(16);
        let c = high.profiler.cost(&high.topology);
        assert!((c.seconds - 239.2).abs() < 1.0);
    }
}
