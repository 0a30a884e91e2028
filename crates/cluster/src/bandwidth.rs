//! The attained pairwise bandwidth matrix — the central observable of the
//! paper.
//!
//! `B(g1, g2)` is the bandwidth actually achieved between two GPUs, which in
//! a real cluster differs per link (Fig. 3) even when all links share the
//! same nominal spec.

use crate::error::ClusterError;
use crate::link::{LinkClass, LinkSpec};
use crate::topology::{ClusterTopology, GpuId, NodeId};
use pipette_obs::json::{self, DecodeError, Fields, JsonValue, Schema};

/// Dense GPU×GPU matrix of attained bandwidths in GiB/s.
///
/// The diagonal is conventionally `f64::INFINITY` (no transfer). The matrix
/// is *directional*: `between(a, b)` may differ slightly from
/// `between(b, a)`, mirroring the paper's observation that bidirectional
/// bandwidths are "often almost symmetric" (which motivates the SA *reverse*
/// move).
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthMatrix {
    topology: ClusterTopology,
    intra_spec: LinkSpec,
    inter_spec: LinkSpec,
    /// Row-major `num_gpus x num_gpus` attained bandwidth, GiB/s. The
    /// diagonal is `INFINITY`, which JSON writes as `null`.
    data: Vec<f64>,
}

const MATRIX: Schema = Schema {
    keys: &["topology", "intra_spec", "inter_spec", "data"],
    accepted: "topology, intra_spec, inter_spec, data",
    required: &["topology", "intra_spec", "inter_spec", "data"],
};
const TOPOLOGY: Schema = Schema {
    keys: &["nodes", "gpus_per_node"],
    accepted: "nodes, gpus_per_node",
    required: &["nodes", "gpus_per_node"],
};
const LINK: Schema = Schema {
    keys: &["bandwidth_gib_s", "latency_s"],
    accepted: "bandwidth_gib_s, latency_s",
    required: &["bandwidth_gib_s", "latency_s"],
};

impl BandwidthMatrix {
    /// Builds a matrix from raw per-pair data.
    ///
    /// # Errors
    ///
    /// [`ClusterError::MalformedMatrix`] if `data` is not `num_gpus²` long
    /// or contains a non-positive or non-finite off-diagonal entry.
    pub fn from_raw(
        topology: ClusterTopology,
        intra_spec: LinkSpec,
        inter_spec: LinkSpec,
        data: Vec<f64>,
    ) -> Result<Self, ClusterError> {
        let matrix = Self::with_data(topology, intra_spec, inter_spec, data)?;
        if let Some((i, j, v)) = matrix.first_invalid_link() {
            return Err(ClusterError::MalformedMatrix {
                reason: format!("bandwidth ({i},{j}) is {v}, must be finite and positive"),
            });
        }
        Ok(matrix)
    }

    /// The first off-diagonal link, in row-major order, whose bandwidth
    /// is not finite and positive (NaN, zero, negative or infinite), as
    /// `(from, to, value)`; `None` when every link is usable.
    pub fn first_invalid_link(&self) -> Option<(usize, usize, f64)> {
        let n = self.topology.num_gpus();
        // Finite and positive, with `&` so that a whole slice folds
        // without branches (and vectorizes).
        let usable = |v: f64| (v > 0.0) & (v < f64::INFINITY);
        let all_usable = |links: &[f64]| links.iter().fold(true, |ok, &v| ok & usable(v));
        // Each row is two slices around its diagonal cell; only a row
        // holding an invalid link is searched for the first one.
        for (from, row) in self.data.chunks_exact(n.max(1)).enumerate() {
            let (before, after) = (&row[..from], &row[from + 1..]);
            if all_usable(before) && all_usable(after) {
                continue;
            }
            if let Some(to) = before.iter().position(|&v| !usable(v)) {
                return Some((from, to, before[to]));
            }
            if let Some(k) = after.iter().position(|&v| !usable(v)) {
                return Some((from, from + 1 + k, after[k]));
            }
        }
        None
    }

    /// [`Self::from_raw`] checking only the shape: `data` must hold
    /// `num_gpus²` entries, whatever their values.
    pub(crate) fn with_data(
        topology: ClusterTopology,
        intra_spec: LinkSpec,
        inter_spec: LinkSpec,
        data: Vec<f64>,
    ) -> Result<Self, ClusterError> {
        let n = topology
            .num_nodes()
            .saturating_mul(topology.gpus_per_node());
        if n.checked_mul(n) != Some(data.len()) {
            return Err(ClusterError::MalformedMatrix {
                reason: format!(
                    "expected {} entries for {n} gpus, got {}",
                    n.saturating_mul(n),
                    data.len()
                ),
            });
        }
        Ok(Self {
            topology,
            intra_spec,
            inter_spec,
            data,
        })
    }

    /// The matrix as JSON: topology, nominal link specs, and the
    /// row-major `data`, with `null` for the infinite diagonal.
    pub(crate) fn to_json(&self) -> JsonValue {
        let link = |spec: LinkSpec| {
            JsonValue::object([
                ("bandwidth_gib_s", spec.bandwidth_gib_s.into()),
                ("latency_s", spec.latency_s.into()),
            ])
        };
        JsonValue::object([
            (
                "topology",
                JsonValue::object([
                    ("nodes", self.topology.num_nodes().into()),
                    ("gpus_per_node", self.topology.gpus_per_node().into()),
                ]),
            ),
            ("intra_spec", link(self.intra_spec)),
            ("inter_spec", link(self.inter_spec)),
            (
                "data",
                self.data
                    .iter()
                    .map(|&v| {
                        if v.is_finite() {
                            v.into()
                        } else {
                            JsonValue::Null
                        }
                    })
                    .collect(),
            ),
        ])
    }

    /// Decodes [`Self::to_json`] output found at `path`. The topology
    /// and the length of `data` are checked; the per-pair values are not
    /// (`null` reads as infinity), so a bad link value reaches the
    /// configurator's own check.
    pub(crate) fn from_json(value: &JsonValue, path: String) -> Result<Self, ClusterError> {
        let matrix = Fields::at(value, path, &MATRIX)?;
        let topology =
            matrix.required("topology", |v, p| Fields::at(v, p.to_owned(), &TOPOLOGY))?;
        let topology = ClusterTopology::try_new(
            topology.required("nodes", json::size)?,
            topology.required("gpus_per_node", json::size)?,
        )?;
        let link = |key: &'static str| -> Result<LinkSpec, DecodeError> {
            let spec = matrix.required(key, |v, p| Fields::at(v, p.to_owned(), &LINK))?;
            Ok(LinkSpec {
                bandwidth_gib_s: spec.required("bandwidth_gib_s", json::float)?,
                latency_s: spec.required("latency_s", json::float)?,
            })
        };
        let data = matrix.list("data", |v, p| match v {
            JsonValue::Null => Ok(f64::INFINITY),
            other => json::float(other, &p),
        })?;
        Self::with_data(topology, link("intra_spec")?, link("inter_spec")?, data)
    }

    /// Builds a perfectly homogeneous matrix at nominal speeds.
    ///
    /// This is the world the baselines assume: every intra-node pair runs at
    /// the NVLink datasheet number and every inter-node pair at the
    /// InfiniBand datasheet number.
    pub fn homogeneous(
        topology: ClusterTopology,
        intra_spec: LinkSpec,
        inter_spec: LinkSpec,
    ) -> Self {
        let n = topology.num_gpus();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = if i == j {
                    f64::INFINITY
                } else if topology.same_node(GpuId(i), GpuId(j)) {
                    intra_spec.bandwidth_gib_s
                } else {
                    inter_spec.bandwidth_gib_s
                };
            }
        }
        Self {
            topology,
            intra_spec,
            inter_spec,
            data,
        }
    }

    /// The topology this matrix is defined over.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Nominal spec of the intra-node fabric.
    pub fn intra_spec(&self) -> LinkSpec {
        self.intra_spec
    }

    /// Nominal spec of the inter-node fabric.
    pub fn inter_spec(&self) -> LinkSpec {
        self.inter_spec
    }

    /// Link class between two GPUs.
    pub fn link_class(&self, a: GpuId, b: GpuId) -> LinkClass {
        if a == b {
            LinkClass::Loopback
        } else if self.topology.same_node(a, b) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }

    /// Per-message latency (alpha) between two GPUs, in seconds.
    pub fn latency_s(&self, a: GpuId, b: GpuId) -> f64 {
        self.class_latency_s(self.link_class(a, b))
    }

    /// Per-message latency (alpha) of every link of one class, in
    /// seconds: latency depends on the fabric, not on the pair.
    pub fn class_latency_s(&self, class: LinkClass) -> f64 {
        match class {
            LinkClass::Loopback => 0.0,
            LinkClass::IntraNode => self.intra_spec.latency_s,
            LinkClass::InterNode => self.inter_spec.latency_s,
        }
    }

    /// Attained bandwidth from `a` to `b` in GiB/s (`INFINITY` if `a == b`).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn between(&self, a: GpuId, b: GpuId) -> f64 {
        let n = self.topology.num_gpus();
        debug_assert!(a.0 < n && b.0 < n, "gpu id out of range");
        self.data[a.0 * n + b.0]
    }

    /// Sets the attained bandwidth of one directed pair.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range, if `a == b`, or `gib_s <= 0`.
    pub fn set(&mut self, a: GpuId, b: GpuId, gib_s: f64) {
        let n = self.topology.num_gpus();
        debug_assert!(a.0 < n && b.0 < n, "gpu id out of range");
        debug_assert!(a != b, "cannot set loopback bandwidth");
        debug_assert!(gib_s > 0.0, "bandwidth must be positive");
        self.data[a.0 * n + b.0] = gib_s;
    }

    /// The slowest directed link among all ordered pairs drawn from `group`.
    ///
    /// This is the `min B` term of the hierarchical all-reduce latency
    /// (Eq. 6): a ring all-reduce runs at the speed of its slowest member
    /// link. Returns `INFINITY` for groups of fewer than two GPUs.
    pub fn min_over_group(&self, group: &[GpuId]) -> f64 {
        let mut min = f64::INFINITY;
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                min = min.min(self.between(a, b));
                min = min.min(self.between(b, a));
            }
        }
        min
    }

    /// Mean attained bandwidth over inter-node directed pairs.
    pub fn mean_inter_node(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for a in self.topology.gpus() {
            for b in self.topology.gpus() {
                if self.link_class(a, b) == LinkClass::InterNode {
                    sum += self.between(a, b);
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Restricts the matrix to the first `nodes` nodes of the topology.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the node count.
    pub fn truncated(&self, nodes: usize) -> Self {
        let small = self.topology.truncated(nodes);
        let n = small.num_gpus();
        let big_n = self.topology.num_gpus();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = self.data[i * big_n + j];
            }
        }
        Self {
            topology: small,
            intra_spec: self.intra_spec,
            inter_spec: self.inter_spec,
            data,
        }
    }

    /// Restricts the matrix to an arbitrary subset of nodes (not just a
    /// prefix, unlike [`Self::truncated`]). Surviving nodes are renumbered
    /// densely in ascending order of their original ids; per-pair attained
    /// bandwidths between survivors are preserved exactly. This is the
    /// substrate of graceful degradation: after node dropout the
    /// configurator re-runs on the subcluster this returns.
    ///
    /// # Errors
    ///
    /// [`ClusterError::EmptySelection`] if `keep` is empty after
    /// de-duplication, [`ClusterError::InvalidParameter`] if it references
    /// a node outside the topology.
    pub fn select_nodes(&self, keep: &[NodeId]) -> Result<Self, ClusterError> {
        let mut nodes: Vec<usize> = keep.iter().map(|n| n.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.is_empty() {
            return Err(ClusterError::EmptySelection);
        }
        if let Some(&bad) = nodes.iter().find(|&&n| n >= self.topology.num_nodes()) {
            return Err(ClusterError::InvalidParameter {
                name: "node selection".into(),
                reason: format!(
                    "node {bad} outside topology of {} nodes",
                    self.topology.num_nodes()
                ),
            });
        }
        let gpn = self.topology.gpus_per_node();
        let small = ClusterTopology::new(nodes.len(), gpn);
        let n = small.num_gpus();
        let big_n = self.topology.num_gpus();
        // Old global GPU index of each surviving GPU, in new index order.
        let old_gpu: Vec<usize> = nodes
            .iter()
            .flat_map(|&node| (0..gpn).map(move |lr| node * gpn + lr))
            .collect();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = self.data[old_gpu[i] * big_n + old_gpu[j]];
            }
        }
        Ok(Self {
            topology: small,
            intra_spec: self.intra_spec,
            inter_spec: self.inter_spec,
            data,
        })
    }

    /// Node-to-node attained bandwidth: the bandwidth between local rank 0
    /// GPUs of the two nodes. Used for reporting (Fig. 3 traces).
    pub fn node_pair(&self, a: NodeId, b: NodeId) -> f64 {
        self.between(self.topology.gpu(a.0, 0), self.topology.gpu(b.0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn specs() -> (LinkSpec, LinkSpec) {
        (LinkSpec::new(300.0, 2e-6), LinkSpec::new(11.6, 5e-6))
    }

    fn homog() -> BandwidthMatrix {
        let (intra, inter) = specs();
        BandwidthMatrix::homogeneous(ClusterTopology::new(2, 4), intra, inter)
    }

    #[test]
    fn homogeneous_matches_specs() {
        let m = homog();
        assert_eq!(m.between(GpuId(0), GpuId(1)), 300.0);
        assert_eq!(m.between(GpuId(0), GpuId(4)), 11.6);
        assert!(m.between(GpuId(3), GpuId(3)).is_infinite());
    }

    #[test]
    fn set_and_get_directed() {
        let mut m = homog();
        m.set(GpuId(0), GpuId(4), 6.0);
        assert_eq!(m.between(GpuId(0), GpuId(4)), 6.0);
        assert_eq!(m.between(GpuId(4), GpuId(0)), 11.6);
    }

    #[test]
    fn min_over_group_finds_slowest() {
        let mut m = homog();
        m.set(GpuId(0), GpuId(4), 3.0);
        assert_eq!(m.min_over_group(&[GpuId(0), GpuId(4)]), 3.0);
        assert_eq!(m.min_over_group(&[GpuId(0), GpuId(1)]), 300.0);
        assert!(m.min_over_group(&[GpuId(0)]).is_infinite());
    }

    #[test]
    fn link_class_and_latency() {
        let m = homog();
        assert_eq!(m.link_class(GpuId(0), GpuId(0)), LinkClass::Loopback);
        assert_eq!(m.link_class(GpuId(0), GpuId(1)), LinkClass::IntraNode);
        assert_eq!(m.link_class(GpuId(0), GpuId(5)), LinkClass::InterNode);
        assert_eq!(m.latency_s(GpuId(0), GpuId(5)), 5e-6);
        assert_eq!(m.latency_s(GpuId(0), GpuId(0)), 0.0);
    }

    #[test]
    fn truncation_preserves_prefix_links() {
        let mut m = homog();
        m.set(GpuId(1), GpuId(2), 200.0);
        let t = m.truncated(1);
        assert_eq!(t.topology().num_gpus(), 4);
        assert_eq!(t.between(GpuId(1), GpuId(2)), 200.0);
    }

    #[test]
    fn mean_inter_node_of_homogeneous_is_nominal() {
        let m = homog();
        assert!((m.mean_inter_node() - 11.6).abs() < 1e-12);
    }

    #[test]
    fn node_pair_uses_rank0() {
        let mut m = homog();
        m.set(GpuId(0), GpuId(4), 5.5);
        assert_eq!(m.node_pair(NodeId(0), NodeId(1)), 5.5);
    }

    #[test]
    #[should_panic(expected = "cannot set loopback")]
    fn set_rejects_loopback() {
        homog().set(GpuId(0), GpuId(0), 1.0);
    }

    #[test]
    fn from_raw_validates_shape_and_values() {
        let (intra, inter) = specs();
        let topo = ClusterTopology::new(1, 2);
        let ok = BandwidthMatrix::from_raw(
            topo,
            intra,
            inter,
            vec![f64::INFINITY, 5.0, 6.0, f64::INFINITY],
        )
        .expect("valid matrix");
        assert_eq!(ok.between(GpuId(0), GpuId(1)), 5.0);
        let short = BandwidthMatrix::from_raw(topo, intra, inter, vec![1.0; 3]);
        assert!(matches!(short, Err(ClusterError::MalformedMatrix { .. })));
        let nan = BandwidthMatrix::from_raw(
            topo,
            intra,
            inter,
            vec![f64::INFINITY, f64::NAN, 6.0, f64::INFINITY],
        );
        assert!(matches!(nan, Err(ClusterError::MalformedMatrix { .. })));
        let negative =
            BandwidthMatrix::from_raw(topo, intra, inter, vec![f64::INFINITY, -1.0, 6.0, 0.0]);
        assert!(matches!(
            negative,
            Err(ClusterError::MalformedMatrix { .. })
        ));
    }

    /// Reference for `first_invalid_link`: every ordered pair through
    /// `between`, row-major, diagonal skipped.
    fn first_invalid_link_oracle(m: &BandwidthMatrix) -> Option<(usize, usize, f64)> {
        let topo = m.topology();
        for a in topo.gpus() {
            for b in topo.gpus() {
                if a == b {
                    continue;
                }
                let value = m.between(a, b);
                if !(value.is_finite() && value > 0.0) {
                    return Some((a.0, b.0, value));
                }
            }
        }
        None
    }

    #[test]
    fn first_invalid_link_matches_the_pairwise_oracle() {
        let bits = |found: Option<(usize, usize, f64)>| found.map(|(i, j, v)| (i, j, v.to_bits()));
        let m = homog();
        assert_eq!(m.first_invalid_link(), None);
        assert_eq!(first_invalid_link_oracle(&m), None);
        let n = m.topology().num_gpus();
        // One or two bad links on either side of the diagonal: the first
        // in row-major order must be the one reported, by both checks and
        // in the same words by `from_raw`.
        let spots = [
            (0, 1),
            (1, 0),
            (2, 6),
            (3, 1),
            (3, 2),
            (3, 5),
            (7, 6),
            (6, 7),
        ];
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            for (k, &first) in spots.iter().enumerate() {
                for second in spots[k..].iter().map(Some).chain([None]) {
                    let mut planted = m.clone();
                    planted.data[first.0 * n + first.1] = bad;
                    if let Some(&(i, j)) = second {
                        planted.data[i * n + j] = -2.5;
                    }
                    let found = planted.first_invalid_link();
                    assert_eq!(bits(found), bits(first_invalid_link_oracle(&planted)));
                    let (i, j, v) = found.expect("a planted link is invalid");
                    let (intra, inter) = specs();
                    let err = BandwidthMatrix::from_raw(*m.topology(), intra, inter, planted.data)
                        .expect_err("from_raw rejects the planted link");
                    assert_eq!(
                        err,
                        ClusterError::MalformedMatrix {
                            reason: format!(
                                "bandwidth ({i},{j}) is {v}, must be finite and positive"
                            ),
                        }
                    );
                }
            }
        }
    }

    #[test]
    fn select_nodes_preserves_survivor_links() {
        let (intra, inter) = specs();
        let mut m = BandwidthMatrix::homogeneous(ClusterTopology::new(4, 2), intra, inter);
        // Mark links touching nodes 0 and 2 with recognizable values.
        m.set(GpuId(0), GpuId(4), 7.5); // node 0 -> node 2
        m.set(GpuId(5), GpuId(1), 8.5); // node 2 -> node 0
        let s = m.select_nodes(&[NodeId(2), NodeId(0)]).expect("selectable");
        assert_eq!(s.topology().num_nodes(), 2);
        // Node 0 stays gpus {0,1}; node 2 becomes new node 1 = gpus {2,3}.
        assert_eq!(s.between(GpuId(0), GpuId(2)), 7.5);
        assert_eq!(s.between(GpuId(3), GpuId(1)), 8.5);
        assert!(s.between(GpuId(2), GpuId(2)).is_infinite());
        // Prefix selection agrees with truncation.
        assert_eq!(
            m.select_nodes(&[NodeId(0), NodeId(1)]).unwrap(),
            m.truncated(2)
        );
    }

    #[test]
    fn select_nodes_rejects_empty_and_out_of_range() {
        let m = homog();
        assert_eq!(m.select_nodes(&[]), Err(ClusterError::EmptySelection));
        assert!(matches!(
            m.select_nodes(&[NodeId(5)]),
            Err(ClusterError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn json_round_trip_preserves_infinite_diagonal() {
        let m = homog();
        let text = json::render_value(&m.to_json());
        assert!(text.contains("\"data\":[null,"), "{text}");
        let doc = json::parse(&text).expect("parseable");
        let back = BandwidthMatrix::from_json(&doc, "bandwidth".into()).expect("decodes");
        assert_eq!(back, m);
        assert!(back.between(GpuId(2), GpuId(2)).is_infinite());
    }
}
