//! Communication time models over the attained-bandwidth matrix.
//!
//! Point-to-point transfers use the classic `alpha + bytes/B` model; ring
//! all-reduce follows Thakur et al. (the paper's \[19\]): `2·(n-1)/n ·
//! msg / B_min` plus per-step latency; the hierarchical variant composes an
//! intra-node phase (counted twice: reduce-scatter before, all-gather
//! after) with one inter-node ring, which is Eq. 6's structure.

use pipette_cluster::{BandwidthMatrix, GpuId, LinkClass, GIB};

/// Marks a node with no group in `HierScratch::node_group`.
const VACANT: u32 = u32::MAX;

/// Reusable buffers for [`CommModel::hierarchical_allreduce_with`] and
/// [`CommModel::dp_allreduce_blocks`]: the members of one all-reduce
/// grouped by node. Hot callers (the incremental SA objective re-evaluates
/// data-parallel all-reduce times millions of times per second) keep one
/// of these alive instead of allocating per call.
#[derive(Debug, Default)]
pub struct HierScratch {
    /// Group of each node while a grouping is built, `VACANT` otherwise.
    node_group: Vec<u32>,
    /// Node of each group, in first-seen order.
    group_node: Vec<u32>,
    /// Group of each member, in member order.
    member_group: Vec<u32>,
    /// Group `g` is `order[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
    /// Member indices grouped by node; member order within each group.
    order: Vec<u32>,
}

impl HierScratch {
    /// Creates an empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    // pipette-lint: hot-path
    /// Groups members `0..n` by node, `node_of(i)` being member `i`'s node
    /// (`< num_nodes`). Groups keep first-seen order, so the leader ring
    /// follows the communicator's rank order (and is therefore steerable
    /// by the worker mapping); members keep their order within a group.
    fn group_by_node(&mut self, n: usize, num_nodes: usize, node_of: impl Fn(usize) -> usize) {
        if self.node_group.len() < num_nodes {
            self.node_group.resize(num_nodes, VACANT);
        }
        self.group_node.clear();
        self.member_group.clear();
        // Counting sort: member counts first, stored at `starts[g]`...
        self.starts.clear();
        for i in 0..n {
            let node = node_of(i);
            let mut g = self.node_group[node];
            if g == VACANT {
                g = self.group_node.len() as u32;
                self.node_group[node] = g;
                self.group_node.push(node as u32);
                self.starts.push(0);
            }
            self.starts[g as usize] += 1;
            self.member_group.push(g);
        }
        // ...then group ends...
        for g in 0..self.group_node.len() {
            self.node_group[self.group_node[g] as usize] = VACANT;
            if g > 0 {
                self.starts[g] += self.starts[g - 1];
            }
        }
        // ...then a backwards scatter, which leaves each `starts[g]` at
        // its group's first slot and keeps member order stable.
        self.order.resize(n, 0);
        for i in (0..n).rev() {
            let g = self.member_group[i] as usize;
            self.starts[g] -= 1;
            self.order[self.starts[g] as usize] = i as u32;
        }
        self.starts.push(n as u32);
    }
}

/// `2·(n-1)/n · bytes / B + 2·(n-1)·α` — one ring all-reduce over `n`
/// ranks whose slowest link runs at `min_bw` GiB/s.
fn ring_time(n: usize, min_bw: f64, alpha: f64, bytes: u64) -> f64 {
    let nf = n as f64;
    2.0 * (nf - 1.0) / nf * bytes as f64 / (min_bw * GIB) + 2.0 * (nf - 1.0) * alpha
}

/// One directed link as a transfer reads it: its α and its effective
/// bandwidth. Gathered by [`CommModel::link`]; [`Self::seconds`] prices it
/// for any message size, so a caller that sends several sizes over the
/// same link reads the matrix once.
#[derive(Debug, Clone, Copy)]
pub struct P2pLink {
    alpha: f64,
    /// Effective GiB/s; infinite for loopback.
    bandwidth: f64,
}

impl P2pLink {
    /// Seconds to send `bytes`: `α + bytes / B`, zero for loopback.
    #[inline]
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 / (self.bandwidth * GIB)
    }
}

/// The links one flat ring all-reduce runs over: its member count, its
/// slowest ring-order link and its α. Gathered by
/// [`CommModel::ring_links`]; [`Self::seconds`] prices it for any message
/// size.
#[derive(Debug, Clone, Copy)]
pub struct RingLinks {
    members: usize,
    /// Slowest ring-order directed link, effective GiB/s.
    min_bandwidth: f64,
    /// Largest pairwise α.
    alpha: f64,
}

impl RingLinks {
    /// Seconds to all-reduce `bytes` per rank; zero below two members.
    #[inline]
    pub fn seconds(&self, bytes: u64) -> f64 {
        if self.members < 2 {
            return 0.0;
        }
        ring_time(self.members, self.min_bandwidth, self.alpha, bytes)
    }
}

/// Communication calculator bound to one bandwidth matrix.
///
/// ```
/// use pipette_cluster::{presets, GpuId};
/// use pipette_sim::CommModel;
///
/// let cluster = presets::mid_range(2).build(1);
/// let comm = CommModel::new(cluster.bandwidth());
/// // A 16 MiB activation hop across nodes takes a few milliseconds...
/// let hop = comm.p2p(GpuId(0), GpuId(8), 16 << 20);
/// assert!(hop > 1e-4 && hop < 0.1);
/// // ...and a gradient all-reduce is paced by its slowest ring link.
/// let group: Vec<GpuId> = (0..16).map(GpuId).collect();
/// assert!(comm.hierarchical_allreduce(&group, 256 << 20) > hop);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CommModel<'a> {
    matrix: &'a BandwidthMatrix,
    /// Concurrent flows sharing each node's NIC (inter-node links only).
    inter_flows: f64,
}

impl<'a> CommModel<'a> {
    /// Creates a model over `matrix` (no NIC contention).
    pub fn new(matrix: &'a BandwidthMatrix) -> Self {
        Self {
            matrix,
            inter_flows: 1.0,
        }
    }

    /// Models `flows` concurrent transfers sharing each node's NIC:
    /// every inter-node link's attained bandwidth is divided by `flows`.
    /// With `tp` tensor ranks per node each running its own data-parallel
    /// communicator, `flows = tp` is the realistic setting.
    ///
    /// # Panics
    ///
    /// Panics if `flows == 0`.
    pub fn with_inter_flows(mut self, flows: usize) -> Self {
        debug_assert!(flows > 0, "need at least one flow");
        self.inter_flows = flows as f64;
        self
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &'a BandwidthMatrix {
        self.matrix
    }

    /// Effective directed bandwidth after NIC sharing.
    fn effective(&self, a: GpuId, b: GpuId) -> f64 {
        let raw = self.matrix.between(a, b);
        if self.matrix.topology().same_node(a, b) {
            raw
        } else {
            raw / self.inter_flows
        }
    }

    /// Time to send `bytes` from `src` to `dst` (seconds). Zero for
    /// loopback.
    pub fn p2p(&self, src: GpuId, dst: GpuId, bytes: u64) -> f64 {
        self.link(src, dst).seconds(bytes)
    }

    /// The directed link from `src` to `dst`, which [`Self::p2p`] prices.
    #[inline]
    pub fn link(&self, src: GpuId, dst: GpuId) -> P2pLink {
        if src == dst {
            return P2pLink {
                alpha: 0.0,
                bandwidth: f64::INFINITY,
            };
        }
        P2pLink {
            alpha: self.matrix.latency_s(src, dst),
            bandwidth: self.effective(src, dst),
        }
    }

    /// Flat ring all-reduce over `group` of `bytes` per rank, with the
    /// ring built in group order (how NCCL lays out its ring from the
    /// communicator's rank order).
    ///
    /// `2·(n-1)/n · bytes / B_ring + 2·(n-1)·alpha`, where `B_ring` is the
    /// slowest *ring-order* directed link `g[i] → g[i+1 mod n]` — the ring
    /// runs at the pace of its slowest hop, but only the hops actually on
    /// the ring matter. This is what makes worker dedication effective:
    /// steering the ring away from straggler links speeds the collective
    /// up (§IV). Zero for groups of size < 2.
    pub fn ring_allreduce(&self, group: &[GpuId], bytes: u64) -> f64 {
        self.ring_links(group).seconds(bytes)
    }

    /// The links of `group`'s ring, which [`Self::ring_allreduce`]
    /// prices.
    pub fn ring_links(&self, group: &[GpuId]) -> RingLinks {
        let n = group.len();
        if n < 2 {
            return RingLinks {
                members: n,
                min_bandwidth: f64::INFINITY,
                alpha: 0.0,
            };
        }
        let mut min_bw = f64::INFINITY;
        for i in 0..n {
            min_bw = min_bw.min(self.effective(group[i], group[(i + 1) % n]));
        }
        RingLinks {
            members: n,
            min_bandwidth: min_bw,
            alpha: self.max_latency(group),
        }
    }

    /// Hierarchical-ring all-reduce over `group` of `bytes` per rank
    /// (Eq. 6): two intra-node phases plus one inter-node ring between node
    /// leaders. Falls back to a flat ring when the group occupies a single
    /// node, and to a pure inter-node ring when every node hosts a single
    /// member. `group` holds distinct GPUs, as every communicator of a
    /// [`crate::Mapping`] does.
    pub fn hierarchical_allreduce(&self, group: &[GpuId], bytes: u64) -> f64 {
        self.hierarchical_allreduce_with(&mut HierScratch::new(), group, bytes)
    }

    /// [`Self::hierarchical_allreduce`] with caller-provided scratch
    /// buffers, avoiding all per-call allocation. Returns the identical
    /// value.
    pub fn hierarchical_allreduce_with(
        &self,
        scratch: &mut HierScratch,
        group: &[GpuId],
        bytes: u64,
    ) -> f64 {
        // Each GPU is a one-GPU block, which never straddles nodes.
        let topo = self.matrix.topology();
        self.dp_allreduce_blocks(scratch, group, 1, |i| topo.node_of(group[i]).0, bytes)
    }

    // pipette-lint: hot-path
    /// Data-parallel all-reduce time of one pipeline stage: the slowest
    /// tensor rank's [`Self::hierarchical_allreduce`] over the stage's
    /// replicas.
    ///
    /// `blocks` is the stage's `dp × tp` GPU slice, replica-major (block
    /// `z` is `blocks[z·tp..(z+1)·tp]`, the layout of a stage in a
    /// [`crate::Mapping`]), and `block_node(z)` is the node hosting every
    /// GPU of block `z`. Since no block straddles nodes, rank `y`'s
    /// replicas `blocks[z·tp + y]` group by node the same way for every
    /// `y`: the grouping is built once, then each rank costs one load per
    /// ring link and per intra-node pair. Bit for bit the max over `y` of
    /// [`Self::hierarchical_allreduce`] on rank `y`'s replicas.
    pub fn dp_allreduce_blocks(
        &self,
        scratch: &mut HierScratch,
        blocks: &[GpuId],
        tp: usize,
        block_node: impl Fn(usize) -> usize,
        bytes: u64,
    ) -> f64 {
        let dp = blocks.len() / tp;
        if dp < 2 {
            return 0.0;
        }
        scratch.group_by_node(dp, self.matrix.topology().num_nodes(), block_node);
        let mut worst = 0.0f64;
        for y in 0..tp {
            worst = worst.max(self.grouped_allreduce(scratch, blocks, tp, y, bytes));
        }
        worst
    }

    // pipette-lint: hot-path
    /// Eq. 6 for members `gpus[i·stride + rank]`, grouped by node in
    /// `scratch`. A same-node group holds only intra-node pairs and the
    /// leaders of different nodes only inter-node pairs, so each ring's α
    /// is its link class's latency — the value the pairwise maximum over
    /// [`BandwidthMatrix::latency_s`] takes.
    fn grouped_allreduce(
        &self,
        scratch: &HierScratch,
        gpus: &[GpuId],
        stride: usize,
        rank: usize,
        bytes: u64,
    ) -> f64 {
        let member = |i: u32| gpus[i as usize * stride + rank];
        let (order, starts) = (&scratch.order, &scratch.starts);
        let groups = starts.len() - 1;
        let intra_alpha = 0.0f64.max(self.matrix.class_latency_s(LinkClass::IntraNode));
        if groups == 1 {
            // One node: a flat ring in rank order.
            let n = order.len();
            let mut min_bw = f64::INFINITY;
            for i in 0..n {
                let (a, b) = (member(i as u32), member(((i + 1) % n) as u32));
                min_bw = min_bw.min(self.matrix.between(a, b));
            }
            return ring_time(n, min_bw, intra_alpha, bytes);
        }
        // Worst intra-node subgroup dominates the two intra phases; its
        // ring may run over any pair, so it is paced by the slowest.
        let mut intra = 0.0f64;
        for g in 0..groups {
            let members = &order[starts[g] as usize..starts[g + 1] as usize];
            if members.len() < 2 {
                continue;
            }
            let mut min_bw = f64::INFINITY;
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    let (a, b) = (member(a), member(b));
                    min_bw = min_bw.min(self.matrix.between(a, b));
                    min_bw = min_bw.min(self.matrix.between(b, a));
                }
            }
            intra = intra.max(ring_time(members.len(), min_bw, intra_alpha, bytes));
        }
        // Leaders: the first member on each node, in group order.
        let mut min_bw = f64::INFINITY;
        for g in 0..groups {
            let a = member(order[starts[g] as usize]);
            let b = member(order[starts[(g + 1) % groups] as usize]);
            min_bw = min_bw.min(self.matrix.between(a, b) / self.inter_flows);
        }
        let inter_alpha = 0.0f64.max(self.matrix.class_latency_s(LinkClass::InterNode));
        // Two intra-node phases (reduce-scatter + all-gather) — Eq. 6's
        // coefficient 4 — plus one inter-node ring over the leaders.
        2.0 * intra + ring_time(groups, min_bw, inter_alpha, bytes)
    }

    fn max_latency(&self, group: &[GpuId]) -> f64 {
        let mut alpha: f64 = 0.0;
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                alpha = alpha.max(self.matrix.latency_s(a, b));
            }
        }
        alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::{
        heterogeneity::HeterogeneityModel, link::LinkSpec, topology::ClusterTopology,
        BandwidthMatrix,
    };
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn homog() -> BandwidthMatrix {
        BandwidthMatrix::homogeneous(
            ClusterTopology::new(4, 4),
            LinkSpec::new(256.0, 0.0),
            LinkSpec::new(8.0, 0.0),
        )
    }

    #[test]
    fn p2p_time_matches_arithmetic() {
        let m = homog();
        let c = CommModel::new(&m);
        // 8 GiB over an 8 GiB/s inter-node link = 1 s.
        let t = c.p2p(GpuId(0), GpuId(4), 8 * (1u64 << 30));
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(c.p2p(GpuId(3), GpuId(3), 1 << 30), 0.0);
    }

    #[test]
    fn ring_allreduce_bandwidth_term() {
        let m = homog();
        let c = CommModel::new(&m);
        // 4-way intra-node ring of 1 GiB: 2*(3/4)*1/256 s.
        let group = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
        let t = c.ring_allreduce(&group, 1 << 30);
        assert!((t - 2.0 * 0.75 / 256.0).abs() < 1e-9);
        assert_eq!(c.ring_allreduce(&group[..1], 1 << 30), 0.0);
    }

    #[test]
    fn ring_allreduce_paced_by_slowest_link() {
        let mut m = homog();
        m.set(GpuId(0), GpuId(1), 32.0);
        let c = CommModel::new(&m);
        let group = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
        let t = c.ring_allreduce(&group, 1 << 30);
        assert!((t - 2.0 * 0.75 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn hierarchical_beats_flat_ring_across_nodes() {
        // With 2 nodes × 4 GPUs, a flat 8-way ring pays the inter-node
        // bandwidth on the full ring; hierarchical pays it only between 2
        // leaders.
        let m = homog();
        let c = CommModel::new(&m);
        let group: Vec<GpuId> = (0..8).map(GpuId).collect();
        let flat = c.ring_allreduce(&group, 1 << 30);
        let hier = c.hierarchical_allreduce(&group, 1 << 30);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn hierarchical_reduces_to_flat_within_node() {
        let m = homog();
        let c = CommModel::new(&m);
        let group = [GpuId(0), GpuId(1), GpuId(2)];
        assert_eq!(
            c.hierarchical_allreduce(&group, 123 << 20),
            c.ring_allreduce(&group, 123 << 20)
        );
    }

    #[test]
    fn hierarchical_pure_inter_node_is_leader_ring() {
        let m = homog();
        let c = CommModel::new(&m);
        // One GPU per node.
        let group = [GpuId(0), GpuId(4), GpuId(8), GpuId(12)];
        assert_eq!(
            c.hierarchical_allreduce(&group, 1 << 30),
            c.ring_allreduce(&group, 1 << 30)
        );
    }

    #[test]
    fn heterogeneous_groups_slower_than_homogeneous() {
        let topo = ClusterTopology::new(4, 4);
        let (intra, inter) = (LinkSpec::new(256.0, 0.0), LinkSpec::new(8.0, 0.0));
        let het = HeterogeneityModel::realistic().generate(topo, intra, inter, 5);
        let hom = BandwidthMatrix::homogeneous(topo, intra, inter);
        let group: Vec<GpuId> = (0..16).step_by(4).map(GpuId).collect();
        let t_het = CommModel::new(&het).hierarchical_allreduce(&group, 1 << 30);
        let t_hom = CommModel::new(&hom).hierarchical_allreduce(&group, 1 << 30);
        assert!(t_het > t_hom);
    }

    #[test]
    fn nic_contention_slows_inter_node_only() {
        let m = homog();
        let base = CommModel::new(&m);
        let contended = CommModel::new(&m).with_inter_flows(4);
        // Intra-node unaffected.
        let intra = [GpuId(0), GpuId(1), GpuId(2), GpuId(3)];
        assert_eq!(
            base.ring_allreduce(&intra, 1 << 28),
            contended.ring_allreduce(&intra, 1 << 28)
        );
        // Inter-node p2p slows by the flow count.
        let t1 = base.p2p(GpuId(0), GpuId(4), 1 << 30);
        let t4 = contended.p2p(GpuId(0), GpuId(4), 1 << 30);
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
        // Hierarchical all-reduce across nodes gets slower, not 4x (the
        // intra phases are unaffected).
        let group: Vec<GpuId> = (0..16).map(GpuId).collect();
        let h1 = base.hierarchical_allreduce(&group, 1 << 28);
        let h4 = contended.hierarchical_allreduce(&group, 1 << 28);
        assert!(h4 > h1 && h4 < 4.0 * h1);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // One scratch driven across groups of different shapes must give
        // exactly the fresh-allocation answer every time.
        let topo = ClusterTopology::new(4, 4);
        let (intra, inter) = (LinkSpec::new(256.0, 2e-6), LinkSpec::new(8.0, 5e-6));
        let het = HeterogeneityModel::realistic().generate(topo, intra, inter, 7);
        let c = CommModel::new(&het);
        let mut scratch = HierScratch::new();
        let groups: Vec<Vec<GpuId>> = vec![
            (0..16).map(GpuId).collect(),
            (0..16).step_by(4).map(GpuId).collect(),
            (0..3).map(GpuId).collect(),
            vec![GpuId(1), GpuId(14), GpuId(7), GpuId(4), GpuId(5)],
            vec![GpuId(0)],
        ];
        for g in &groups {
            for bytes in [1u64 << 16, 1 << 24, 1 << 30] {
                let fresh = c.hierarchical_allreduce(g, bytes);
                let reused = c.hierarchical_allreduce_with(&mut scratch, g, bytes);
                assert_eq!(
                    fresh.to_bits(),
                    reused.to_bits(),
                    "group {g:?} bytes {bytes}"
                );
            }
        }
    }

    #[test]
    fn allreduce_monotone_in_bytes() {
        let m = homog();
        let c = CommModel::new(&m);
        let group: Vec<GpuId> = (0..8).map(GpuId).collect();
        let t1 = c.hierarchical_allreduce(&group, 1 << 20);
        let t2 = c.hierarchical_allreduce(&group, 1 << 25);
        assert!(t2 > t1);
    }

    /// Eq. 6 as first written: per-node member lists, pairwise α and
    /// pairwise bandwidth minima, the leader ring through
    /// [`CommModel::ring_allreduce`]. The oracle the grouped evaluation
    /// must reproduce bit for bit.
    fn pairwise_hierarchical(comm: &CommModel, group: &[GpuId], bytes: u64) -> f64 {
        if group.len() < 2 {
            return 0.0;
        }
        let matrix = comm.matrix();
        let mut members: Vec<(usize, Vec<GpuId>)> = Vec::new();
        for &g in group {
            let node = matrix.topology().node_of(g).0;
            match members.iter_mut().find(|(n, _)| *n == node) {
                Some((_, m)) => m.push(g),
                None => members.push((node, vec![g])),
            }
        }
        if members.len() == 1 {
            return comm.ring_allreduce(group, bytes);
        }
        let mut intra = 0.0f64;
        for (_, m) in &members {
            if m.len() < 2 {
                continue;
            }
            let mut alpha = 0.0f64;
            for (i, &a) in m.iter().enumerate() {
                for &b in &m[i + 1..] {
                    alpha = alpha.max(matrix.latency_s(a, b));
                }
            }
            intra = intra.max(ring_time(m.len(), matrix.min_over_group(m), alpha, bytes));
        }
        let leaders: Vec<GpuId> = members.iter().map(|(_, m)| m[0]).collect();
        2.0 * intra + comm.ring_allreduce(&leaders, bytes)
    }

    /// A `nodes × gpn` cluster under the realistic heterogeneity model.
    fn realistic(nodes: usize, gpn: usize, seed: u64) -> BandwidthMatrix {
        let topo = ClusterTopology::new(nodes, gpn);
        let (intra, inter) = (LinkSpec::new(256.0, 2e-6), LinkSpec::new(8.0, 5e-6));
        HeterogeneityModel::realistic().generate(topo, intra, inter, seed)
    }

    fn shuffle<T>(v: &mut [T], rng: &mut ChaCha8Rng) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any group of distinct GPUs: the grouped evaluation equals the
        /// pairwise oracle, with and without NIC sharing.
        #[test]
        fn hierarchical_matches_pairwise_oracle(
            nodes in 1usize..=6,
            size in 1usize..=16,
            flows in 1usize..=4,
            seed in 0u64..1_000,
        ) {
            let matrix = realistic(nodes, 4, seed);
            let comm = CommModel::new(&matrix).with_inter_flows(flows);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut gpus: Vec<GpuId> = matrix.topology().gpus().collect();
            shuffle(&mut gpus, &mut rng);
            let group = &gpus[..size.min(gpus.len())];
            let mut scratch = HierScratch::new();
            for bytes in [1u64 << 16, 1 << 28] {
                prop_assert_eq!(
                    comm.hierarchical_allreduce_with(&mut scratch, group, bytes).to_bits(),
                    pairwise_hierarchical(&comm, group, bytes).to_bits(),
                    "group {:?}", group
                );
            }
        }

        /// A flat ring equals its definition on any group of distinct
        /// GPUs, within one node or across nodes, with and without NIC
        /// sharing: the slowest ring-order link and the pairwise maximum
        /// α. A repeated GPU's loopback pair adds nothing to α.
        #[test]
        fn ring_allreduce_matches_its_definition(
            nodes in 1usize..=4,
            size in 2usize..=8,
            one_node in proptest::bool::ANY,
            flows in 1usize..=4,
            seed in 0u64..1_000,
        ) {
            let matrix = realistic(nodes, 4, seed);
            let topo = *matrix.topology();
            let comm = CommModel::new(&matrix).with_inter_flows(flows);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut gpus: Vec<GpuId> = if one_node {
                (0..4).map(GpuId).collect()
            } else {
                topo.gpus().collect()
            };
            shuffle(&mut gpus, &mut rng);
            let mut group = gpus[..size.min(gpus.len())].to_vec();
            let definition = |group: &[GpuId], bytes: u64| {
                let n = group.len();
                let mut min_bw = f64::INFINITY;
                for i in 0..n {
                    let (a, b) = (group[i], group[(i + 1) % n]);
                    let raw = matrix.between(a, b);
                    min_bw = min_bw.min(if topo.same_node(a, b) { raw } else { raw / flows as f64 });
                }
                let mut alpha = 0.0f64;
                for (i, &a) in group.iter().enumerate() {
                    for &b in &group[i + 1..] {
                        alpha = alpha.max(matrix.latency_s(a, b));
                    }
                }
                ring_time(n, min_bw, alpha, bytes)
            };
            for bytes in [1u64 << 16, 1 << 28] {
                prop_assert_eq!(
                    comm.ring_allreduce(&group, bytes).to_bits(),
                    definition(&group, bytes).to_bits()
                );
            }
            group.push(group[0]);
            prop_assert_eq!(
                comm.ring_links(&group).seconds(1 << 20).to_bits(),
                definition(&group, 1 << 20).to_bits()
            );
            let twice = [group[0], group[0]];
            prop_assert_eq!(comm.ring_allreduce(&twice, 1 << 20), 0.0);
        }

        /// The block kernel equals, bit for bit, the max over tensor ranks
        /// of `hierarchical_allreduce_with` (and so the pairwise oracle)
        /// on random stages of node-aligned blocks: realistic clusters of
        /// 2–32 nodes with 4 or 8 GPUs, tp dividing the node, dp 2–32.
        #[test]
        fn dp_block_kernel_matches_per_rank_path(
            nodes in 2usize..=32,
            wide in proptest::bool::ANY,
            tp_log2 in 0u32..=3,
            dp in 2usize..=32,
            flows in 1usize..=4,
            seed in 0u64..1_000,
        ) {
            let gpn: usize = if wide { 8 } else { 4 };
            let tp = 1usize << tp_log2.min(gpn.trailing_zeros());
            let matrix = realistic(nodes, gpn, seed);
            let topo = *matrix.topology();
            let comm = CommModel::new(&matrix).with_inter_flows(flows);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            // Whole tp-blocks in random order, each with its GPUs in
            // random order: every block stays inside its node.
            let mut blocks: Vec<Vec<GpuId>> = (0..topo.num_gpus() / tp)
                .map(|b| (b * tp..(b + 1) * tp).map(GpuId).collect())
                .collect();
            shuffle(&mut blocks, &mut rng);
            let dp = dp.min(blocks.len());
            let stage: Vec<GpuId> = blocks[..dp]
                .iter_mut()
                .flat_map(|b| {
                    shuffle(b, &mut rng);
                    b.iter().copied()
                })
                .collect();
            let bytes = 1u64 << rng.gen_range(16..30u32);
            let mut scratch = HierScratch::new();
            let kernel = comm.dp_allreduce_blocks(
                &mut scratch,
                &stage,
                tp,
                |z| topo.node_of(stage[z * tp]).0,
                bytes,
            );
            let mut per_rank = 0.0f64;
            let mut oracle = 0.0f64;
            for y in 0..tp {
                let group: Vec<GpuId> = (0..dp).map(|z| stage[z * tp + y]).collect();
                per_rank = per_rank.max(comm.hierarchical_allreduce_with(&mut scratch, &group, bytes));
                oracle = oracle.max(pairwise_hierarchical(&comm, &group, bytes));
            }
            prop_assert_eq!(kernel.to_bits(), per_rank.to_bits());
            prop_assert_eq!(kernel.to_bits(), oracle.to_bits());
        }
    }
}
