//! The latency model of Eqs. 3–6 as one link gather, one term table and
//! one reduction.
//!
//! A [`LinkGather`] holds every link of a mapping that Eqs. 3–6 use,
//! read once per configuration: the ring of each tensor block, both
//! directed links of every tensor rank on each pipeline hop (the
//! interleaved schedule's wrap-around hop included), and the finished
//! data-parallel all-reduce time of each device, which does not depend
//! on the microbatch plan. `TermTable::price` turns a gather and one plan
//! into every input of Eqs. 3–6, one slot per term at its natural
//! granularity: compute time and tensor-parallel factor per virtual
//! stage, ring all-reduce time per tensor block, round trip per hop and
//! data-parallel all-reduce time per device. Pricing runs the same float
//! operations, in the same order, as reading each link again, so the
//! plans of one configuration share one gather bit for bit.
//! `TermTable::reduce_latency` turns a priced table into the estimate
//! and its [`LatencyBreakdown`]. The schedule enters the reduction as two
//! numbers, the chunks per device and device 0's warm-up depth
//! ([`PipelineSchedule::warmup`]), so 1F1B and interleaved 1F1B share it.
//!
//! The batch estimator ([`crate::latency::PipetteLatencyModel`]) gathers
//! and prices a table per call, or prices many plans from one gather. The
//! incremental SA objective ([`crate::mapping::IncrementalObjective`])
//! gathers and prices once when it rebuilds and then rewrites only the
//! slots a move touched. Both reduce through the same code, so a
//! proposal's cost equals a from-scratch estimate bit for bit.

use crate::latency::{LatencyExplanation, SlowLink};
use pipette_cluster::{BandwidthMatrix, GpuId};
use pipette_model::{messages, GptConfig, MicrobatchPlan};
use pipette_sim::iteration::OPTIMIZER_STEP_S;
use pipette_sim::{
    CommModel, HierScratch, Mapping, P2pLink, PipelineSchedule, ProfiledCompute, RingLinks,
};

/// The slowest tensor rank's round trip over one hop's links, each rank's
/// `(there, back)` pair priced for `bytes`.
#[inline]
fn slowest_round_trip(links: impl Iterator<Item = (P2pLink, P2pLink)>, bytes: u64) -> f64 {
    links.fold(0.0f64, |hop, (there, back)| {
        hop.max(there.seconds(bytes) + back.seconds(bytes))
    })
}

/// The round trip of one pipeline hop between a block holding `a` and a
/// block holding `b` (same tensor rank talks to same tensor rank; the
/// slowest rank sets the hop). Depends only on the two GPU tuples — SA
/// moves permute whole blocks, so the incremental objective tabulates
/// this per block *pair* once and never recomputes it.
pub fn t_pp_hop_between(matrix: &BandwidthMatrix, a: &[GpuId], b: &[GpuId], msg_pp: u64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "blocks must have equal tensor width");
    let comm = CommModel::new(matrix);
    let links = a
        .iter()
        .zip(b)
        .map(|(&a, &b)| (comm.link(a, b), comm.link(b, a)));
    slowest_round_trip(links, msg_pp)
}

/// Eq. 5's hop `h = x·dp + z` of `mapping`: the round trip between
/// replica `z`'s blocks on devices `x` and `(x + 1) mod pp`. Block
/// `d·dp + z` holds device `d`'s tensor ranks of replica `z`, so the hop
/// runs from block `h` to block `(h + dp) mod (pp·dp)`; the `x = pp − 1`
/// row is the interleaved schedule's wrap-around hop.
pub(crate) fn t_pp_hop(matrix: &BandwidthMatrix, mapping: &Mapping, msg_pp: u64, h: usize) -> f64 {
    let cfg = mapping.config();
    let (tp, num_blocks) = (cfg.tp, cfg.pp * cfg.dp);
    let block = |b: usize| &mapping.as_slice()[b * tp..(b + 1) * tp];
    t_pp_hop_between(matrix, block(h), block((h + cfg.dp) % num_blocks), msg_pp)
}

/// Eq. 6 for one device: the slowest tensor rank's hierarchical
/// all-reduce of `bytes` over the device's replicas. `blocks` is the
/// device's `dp × tp` GPU slice of a mapping, replica-major. When every
/// block sits in one node this is one call of
/// [`CommModel::dp_allreduce_blocks`]; a hand-built mapping may split a
/// block across nodes, and then each rank's replicas group by node in
/// their own way. `scratch` and `group` are reused buffers.
pub fn t_dp_blocks(
    matrix: &BandwidthMatrix,
    scratch: &mut HierScratch,
    group: &mut Vec<GpuId>,
    blocks: &[GpuId],
    tp: usize,
    bytes: u64,
) -> f64 {
    let dp = blocks.len() / tp;
    if dp < 2 {
        return 0.0;
    }
    let comm = CommModel::new(matrix);
    let topo = matrix.topology();
    let node_aligned = blocks
        .chunks_exact(tp)
        .all(|block| block.iter().all(|&g| topo.same_node(g, block[0])));
    if node_aligned {
        return comm.dp_allreduce_blocks(
            scratch,
            blocks,
            tp,
            |z| topo.node_of(blocks[z * tp]).0,
            bytes,
        );
    }
    let mut worst = 0.0f64;
    for y in 0..tp {
        group.clear();
        group.extend((0..dp).map(|z| blocks[z * tp + y]));
        worst = worst.max(comm.hierarchical_allreduce_with(scratch, group, bytes));
    }
    worst
}

/// Every link of one mapping that Eqs. 3–6 read under one schedule,
/// gathered once: what the estimate of each microbatch plan of the
/// mapping's configuration needs from the bandwidth matrix.
///
/// The plans of a configuration differ only in message size. So the
/// gather holds each tensor block's ring ([`RingLinks`]), the two
/// directed links ([`P2pLink`]) of every tensor rank on each pipeline
/// hop, and each device's data-parallel all-reduce time, finished,
/// because the gradient bytes depend only on the model, the stage count
/// and `tp`. Gather once with
/// [`PipetteLatencyModel::gather`](crate::latency::PipetteLatencyModel::gather),
/// then price every plan with [`Self::estimate`] or [`Self::breakdown`]:
/// each price equals a fresh `estimate` of that plan bit for bit.
#[derive(Debug)]
pub struct LinkGather {
    gpt: GptConfig,
    pp: usize,
    dp: usize,
    tp: usize,
    chunks: usize,
    /// Device 0's warm-up depth in chunk items.
    warmup: u64,
    /// The gathered mapping's worker → GPU assignment.
    assignment: Vec<GpuId>,
    /// `TP_ALLREDUCES_PER_LAYER · layers` per virtual stage: the
    /// tensor-parallel all-reduces of one microbatch pass.
    tp_factor: Vec<f64>,
    /// The tensor group's ring at each block.
    rings: Vec<RingLinks>,
    /// Hop `h`'s `(there, back)` links of tensor rank `y` at `h·tp + y`.
    hop_links: Vec<(P2pLink, P2pLink)>,
    /// Gradient bytes each device all-reduces, summed over its chunks.
    pub(crate) dp_bytes: Vec<u64>,
    /// Data-parallel all-reduce time per device.
    dp_times: Vec<f64>,
}

impl LinkGather {
    /// Reads every link of `mapping` that Eqs. 3–6 use under `schedule`.
    pub(crate) fn new(
        matrix: &BandwidthMatrix,
        gpt: &GptConfig,
        schedule: PipelineSchedule,
        mapping: &Mapping,
    ) -> Self {
        let cfg = mapping.config();
        let (pp, dp, tp, chunks) = (cfg.pp, cfg.dp, cfg.tp, schedule.chunks());
        let stages = pp * chunks;
        let comm = CommModel::new(matrix);
        let assign = mapping.as_slice();
        let hop_rows = match pp {
            1 => 0,
            _ if chunks > 1 => pp,
            _ => pp - 1,
        };
        let num_blocks = pp * dp;
        let mut hop_links = Vec::with_capacity(hop_rows * dp * tp);
        for h in 0..hop_rows * dp {
            let to = (h + dp) % num_blocks;
            let (a, b) = (
                &assign[h * tp..(h + 1) * tp],
                &assign[to * tp..(to + 1) * tp],
            );
            hop_links.extend(
                a.iter()
                    .zip(b)
                    .map(|(&a, &b)| (comm.link(a, b), comm.link(b, a))),
            );
        }
        let dp_bytes: Vec<u64> = (0..pp)
            .map(|d| {
                (0..chunks)
                    .map(|c| messages::dp_gradient_bytes(gpt, stages, tp, c * pp + d))
                    .sum()
            })
            .collect();
        let (mut hier, mut group) = (HierScratch::new(), Vec::new());
        let dp_times = assign
            .chunks_exact(dp * tp)
            .zip(&dp_bytes)
            .map(|(blocks, &bytes)| t_dp_blocks(matrix, &mut hier, &mut group, blocks, tp, bytes))
            .collect();
        Self {
            gpt: *gpt,
            pp,
            dp,
            tp,
            chunks,
            warmup: schedule.warmup(pp, 0),
            assignment: assign.to_vec(),
            tp_factor: (0..stages)
                .map(|s| {
                    messages::TP_ALLREDUCES_PER_LAYER as f64 * gpt.layers_of_stage(stages, s) as f64
                })
                .collect(),
            rings: assign
                .chunks_exact(tp)
                .map(|block| comm.ring_links(block))
                .collect(),
            hop_links,
            dp_bytes,
            dp_times,
        }
    }

    /// The estimated iteration time of `plan` over these links (seconds),
    /// bit-identical to
    /// [`PipetteLatencyModel::estimate`](crate::latency::PipetteLatencyModel::estimate)
    /// of the gathered mapping. `compute` must be profiled for the
    /// gathered configuration at `plan`'s microbatch size.
    ///
    /// # Panics
    ///
    /// Panics if `compute` profiles fewer stages than the gather has.
    pub fn estimate(&self, plan: MicrobatchPlan, compute: &ProfiledCompute) -> f64 {
        TermTable::priced(self, plan, compute)
            .reduce_latency()
            .total_seconds
    }

    /// [`Self::estimate`] with its Eq. 3–6 decomposition and the slowest
    /// pipeline link, bit-identical to
    /// [`PipetteLatencyModel::breakdown`](crate::latency::PipetteLatencyModel::breakdown).
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::estimate`].
    pub fn breakdown(&self, plan: MicrobatchPlan, compute: &ProfiledCompute) -> LatencyExplanation {
        let terms = TermTable::priced(self, plan, compute).reduce_latency();
        let msg_pp = messages::pp_message_bytes(&self.gpt, plan.micro_batch);
        LatencyExplanation {
            terms,
            slow_link: self.slow_link(msg_pp, terms.critical_replica),
        }
    }

    /// The slowest `(stage → stage+1)` tensor-rank link of replica `z`,
    /// as a forward+backward round trip of `msg_pp` bytes; `None` when
    /// `pp < 2` (no inter-stage links exist).
    fn slow_link(&self, msg_pp: u64, z: usize) -> Option<SlowLink> {
        let (dp, tp) = (self.dp, self.tp);
        let mut worst: Option<SlowLink> = None;
        for x in 0..self.pp.saturating_sub(1) {
            let h = x * dp + z;
            for (y, (there, back)) in self.hop_links[h * tp..(h + 1) * tp].iter().enumerate() {
                let seconds = there.seconds(msg_pp) + back.seconds(msg_pp);
                if worst.is_none_or(|w| seconds > w.seconds) {
                    worst = Some(SlowLink {
                        from: self.assignment[h * tp + y],
                        to: self.assignment[(h + dp) * tp + y],
                        stage: x,
                        seconds,
                    });
                }
            }
        }
        worst
    }
}

/// The Eq. 3–6 decomposition of one latency estimate, as recorded for
/// telemetry and `pipette explain`.
///
/// `TermTable::reduce_latency` returns it; `total_seconds` is the
/// estimate itself. The component terms are reported for the critical
/// replica — the one whose chain + exposed DP sync gates the iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// The full estimate: critical replica's path plus the optimizer step.
    pub total_seconds: f64,
    /// Straggler steady-state term (Eq. 4): `n_mb · max_d W_d`, where
    /// `W_d` is device `d`'s compute + tensor-parallel work per microbatch.
    pub t_straggler: f64,
    /// Pipeline fill+drain bubble (Eq. 4): `(pp − 1) · C̄ + T_pp`.
    pub t_bubble: f64,
    /// Hidden-critical-path term (§V): `loops · loop_excess`.
    pub t_hidden: f64,
    /// Exposed data-parallel all-reduce (Eq. 6) after backward-wave slack.
    pub t_dp: f64,
    /// Constant optimizer-step cost added on top of the critical path.
    pub t_optimizer: f64,
    /// Data replica whose critical path gates the iteration.
    pub critical_replica: usize,
    /// Device with the largest work per microbatch in that replica (first
    /// such device on ties); with one chunk per device, the stage.
    pub straggler_stage: usize,
}

/// Every input of Eqs. 3–6 for one mapping under one schedule.
///
/// Virtual stage `s = c·pp + d` is chunk `c` of device `d`; block
/// `b = d·dp + z` is device `d`'s tensor group in replica `z`; hop
/// `h = x·dp + z` runs from device `x` to device `(x + 1) mod pp` of
/// replica `z` ([`t_pp_hop`]), with the wrap-around row `x = pp − 1`
/// present only when a device holds more than one chunk.
#[derive(Debug, Default)]
pub(crate) struct TermTable {
    pp: usize,
    dp: usize,
    chunks: usize,
    n_microbatches: u64,
    /// Device 0's warm-up depth in chunk items.
    warmup: u64,
    /// Profiled compute time per virtual stage.
    stage_compute: Vec<f64>,
    /// `TP_ALLREDUCES_PER_LAYER · layers` per virtual stage: the
    /// tensor-parallel all-reduces of one microbatch pass.
    tp_factor: Vec<f64>,
    /// Ring all-reduce time of the tensor group at each block; zero
    /// without tensor parallelism.
    pub(crate) block_allreduce: Vec<f64>,
    /// Round-trip transfer time of each hop.
    pub(crate) hops: Vec<f64>,
    /// Data-parallel all-reduce time per device.
    pub(crate) dp_times: Vec<f64>,
    /// Reduction scratch: each device's work in the replica at hand.
    work: Vec<f64>,
}

impl TermTable {
    /// The table of `plan` over `links`.
    pub(crate) fn priced(
        links: &LinkGather,
        plan: MicrobatchPlan,
        compute: &ProfiledCompute,
    ) -> Self {
        let mut table = Self::default();
        table.price(links, plan, compute);
        table
    }

    /// Prices every slot for `plan` from `links`: the message sizes of
    /// `plan`'s microbatch enter here, and nothing else is read from the
    /// matrix. `compute` holds the profiled times of the `pp · chunks`
    /// virtual stages for `plan`'s microbatch size.
    ///
    /// # Panics
    ///
    /// Panics if `compute` profiles fewer than `pp · chunks` stages.
    pub(crate) fn price(
        &mut self,
        links: &LinkGather,
        plan: MicrobatchPlan,
        compute: &ProfiledCompute,
    ) {
        let stages = links.pp * links.chunks;
        debug_assert_eq!(compute.num_stages(), stages, "profiled stages mismatch");
        self.pp = links.pp;
        self.dp = links.dp;
        self.chunks = links.chunks;
        self.n_microbatches = plan.n_microbatches;
        self.warmup = links.warmup;
        self.stage_compute.clear();
        self.stage_compute
            .extend((0..stages).map(|s| compute.compute(s)));
        self.tp_factor.clear();
        self.tp_factor.extend_from_slice(&links.tp_factor);
        let tp_bytes = messages::tp_allreduce_bytes(&links.gpt, plan.micro_batch);
        self.block_allreduce.clear();
        self.block_allreduce
            .extend(links.rings.iter().map(|ring| ring.seconds(tp_bytes)));
        let msg_pp = messages::pp_message_bytes(&links.gpt, plan.micro_batch);
        self.hops.clear();
        self.hops.extend(
            links
                .hop_links
                .chunks_exact(links.tp)
                .map(|hop| slowest_round_trip(hop.iter().copied(), msg_pp)),
        );
        self.dp_times.clear();
        self.dp_times.extend_from_slice(&links.dp_times);
    }

    // pipette-lint: hot-path
    /// Eqs. 3–6 over the priced table: the estimated iteration time and
    /// where it went. Allocation-free once the table has been reduced
    /// once.
    ///
    /// Per data replica, each device's work `W_d` is the compute plus
    /// tensor-parallel time of its chunks, and `T_pp` sums every hop a
    /// microbatch crosses. The replica's critical path is
    ///
    /// * straggler steady-state work `n_mb · max_d W_d` (Eq. 4's straggler
    ///   term, which dominates when one device is slower than the
    ///   dependency loop);
    /// * one pipeline fill+drain `(pp − 1) · C̄ + T_pp`, with `C̄` the mean
    ///   virtual-stage cost (Eq. 4's bubble);
    /// * the hidden critical path (§V): device 0 holds its warm-up depth
    ///   plus one chunk items in flight, a window of `w` microbatches
    ///   (`w = pp` for 1F1B), so the loop down the pipeline and back
    ///   closes `n_mb/w − 1` times, each time charging however much
    ///   `Σ_s C_s + T_pp` exceeds the work `w · max_d W_d`;
    /// * the data-parallel sync: device 0 finishes its final backward
    ///   last, so its all-reduce is fully exposed (Eq. 6). Device `d`
    ///   finishes earlier by the backward-wave gap — two thirds of each
    ///   earlier device's work per chunk plus the one-way hop between
    ///   them — so its all-reduce only counts where it exceeds that slack.
    ///
    /// The slowest replica gates the iteration, and the optimizer step
    /// follows. Always inlined, so a caller that reads only
    /// `total_seconds` (the SA proposal loop) compiles the breakdown's
    /// bookkeeping away.
    #[inline(always)]
    pub(crate) fn reduce_latency(&mut self) -> LatencyBreakdown {
        let (pp, dp, chunks) = (self.pp, self.dp, self.chunks);
        let stages = pp * chunks;
        let ppf = pp as f64;
        let n_mb = self.n_microbatches as f64;
        let window = (self.warmup + 1) as f64 / chunks as f64;
        let loops = (n_mb / window - 1.0).max(0.0);
        let gap_divisor = 3.0 * chunks as f64;
        if self.work.len() != pp {
            self.work.clear();
            self.work.resize(pp, 0.0);
        }
        // Prefix bindings let the compiler drop the per-element bounds
        // checks in the stage loops.
        let comp = &self.stage_compute[..stages];
        let tp_factor = &self.tp_factor[..stages];
        let dp_times = &self.dp_times[..pp];
        let (allreduce, hops) = (&self.block_allreduce[..], &self.hops[..]);
        let work = &mut self.work[..pp];
        let mut worst = 0.0f64;
        let mut critical = LatencyBreakdown {
            total_seconds: 0.0,
            t_straggler: 0.0,
            t_bubble: 0.0,
            t_hidden: 0.0,
            t_dp: 0.0,
            t_optimizer: OPTIMIZER_STEP_S,
            critical_replica: 0,
            straggler_stage: 0,
        };
        for z in 0..dp {
            // Pass 1: virtual-stage costs in stage order, summed, and
            // gathered into each device's work.
            let mut sum = 0.0f64;
            for d in 0..pp {
                let c = comp[d] + tp_factor[d] * allreduce[d * dp + z];
                work[d] = c;
                sum += c;
            }
            for chunk in 1..chunks {
                for d in 0..pp {
                    let s = chunk * pp + d;
                    let c = comp[s] + tp_factor[s] * allreduce[d * dp + z];
                    work[d] += c;
                    sum += c;
                }
            }
            // Pass 2: the straggler device, the first round of hops and
            // the backward-wave gap share one walk over the devices.
            let mut max = 0.0f64;
            let mut straggler = 0;
            let mut t_pp = 0.0;
            let mut gap = 0.0;
            let mut dp_exposed: f64 = dp_times[0];
            for d in 1..pp {
                let (w, h) = (work[d - 1], hops[(d - 1) * dp + z]);
                if w > max {
                    straggler = d - 1;
                }
                max = f64::max(max, w);
                t_pp += h;
                gap += 2.0 * w / gap_divisor + h / 2.0;
                dp_exposed = dp_exposed.max(dp_times[d] - gap);
            }
            let w = work[pp - 1];
            if w > max {
                straggler = pp - 1;
            }
            max = f64::max(max, w);
            // Each further chunk crosses the wrap-around hop back to
            // device 0, then the devices again.
            if pp > 1 {
                for _ in 1..chunks {
                    t_pp += hops[(pp - 1) * dp + z];
                    for x in 0..pp - 1 {
                        t_pp += hops[x * dp + z];
                    }
                }
            }
            let mean = sum / stages as f64;
            let loop_excess = (sum + t_pp - window * max).max(0.0);
            let t_straggler = n_mb * max;
            let t_hidden = loops * loop_excess;
            let total = t_straggler + (ppf - 1.0) * mean + t_pp + t_hidden + dp_exposed;
            if z == 0 || total > worst {
                critical = LatencyBreakdown {
                    t_straggler,
                    t_bubble: (ppf - 1.0) * mean + t_pp,
                    t_hidden,
                    t_dp: dp_exposed,
                    critical_replica: z,
                    straggler_stage: straggler,
                    ..critical
                };
            }
            worst = worst.max(total);
        }
        critical.total_seconds = worst + OPTIMIZER_STEP_S;
        critical
    }
}

#[cfg(test)]
mod tests {
    //! The term functions and the closure-form reduction here are oracles
    //! written from the equations' definitions, one worker at a time; the
    //! table and its reduction must agree with them bit for bit.
    use super::*;
    use pipette_cluster::{presets, ClusterTopology, GpuId};
    use pipette_model::{ParallelConfig, WorkerId};
    use pipette_sim::ComputeProfiler;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(4).build(11),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    fn gpu(mapping: &Mapping, stage: usize, tensor: usize, data: usize) -> GpuId {
        mapping.gpu_of(WorkerId {
            stage,
            tensor,
            data,
        })
    }

    /// The round trip between devices `da` and `db` of replica `z`: the
    /// slowest tensor rank's transfer there and back.
    fn t_hop(
        matrix: &BandwidthMatrix,
        mapping: &Mapping,
        msg_pp: u64,
        z: usize,
        da: usize,
        db: usize,
    ) -> f64 {
        let comm = CommModel::new(matrix);
        let mut hop: f64 = 0.0;
        for y in 0..mapping.config().tp {
            let (a, b) = (gpu(mapping, da, y, z), gpu(mapping, db, y, z));
            hop = hop.max(comm.p2p(a, b, msg_pp) + comm.p2p(b, a, msg_pp));
        }
        hop
    }

    /// Eq. 5 — pipeline-parallel communication on the critical path for
    /// one data replica `z`: the slowest tensor rank of each hop, summed
    /// along the chain, doubled for forward+backward.
    fn t_pp_chain(matrix: &BandwidthMatrix, mapping: &Mapping, msg_pp: u64, z: usize) -> f64 {
        let pp = mapping.config().pp;
        (0..pp.saturating_sub(1))
            .map(|x| t_hop(matrix, mapping, msg_pp, z, x, x + 1))
            .sum()
    }

    /// Eq. 5's outer `max` — the slowest end-to-end pipeline over all
    /// replicas.
    fn t_pp(matrix: &BandwidthMatrix, mapping: &Mapping, msg_pp: u64) -> f64 {
        (0..mapping.config().dp)
            .map(|z| t_pp_chain(matrix, mapping, msg_pp, z))
            .fold(0.0, f64::max)
    }

    /// Eq. 6 for device `stage`: each tensor rank's hierarchical
    /// all-reduce over its replicas, the slowest rank dominating.
    fn t_dp_stage(matrix: &BandwidthMatrix, mapping: &Mapping, bytes: u64, stage: usize) -> f64 {
        let comm = CommModel::new(matrix);
        (0..mapping.config().tp)
            .map(|y| comm.hierarchical_allreduce(&mapping.data_group(stage, y), bytes))
            .fold(0.0, f64::max)
    }

    /// Eq. 6 of the first pipeline stage, usually the only stage whose
    /// DP all-reduce lies on the critical path (Fig. 4).
    fn t_dp_first_stage(matrix: &BandwidthMatrix, mapping: &Mapping, gpt: &GptConfig) -> f64 {
        let cfg = mapping.config();
        t_dp_stage(
            matrix,
            mapping,
            messages::dp_gradient_bytes(gpt, cfg.pp, cfg.tp, 0),
            0,
        )
    }

    /// Tensor-parallel time of virtual stage `stage` (of `stages`) in
    /// replica `z`: four all-reduces per layer over the device's tensor
    /// group.
    fn t_tp_stage(
        matrix: &BandwidthMatrix,
        mapping: &Mapping,
        gpt: &GptConfig,
        micro_batch: u64,
        (stage, stages): (usize, usize),
        z: usize,
    ) -> f64 {
        let cfg = mapping.config();
        if cfg.tp < 2 {
            return 0.0;
        }
        let group = mapping.tensor_group(stage % cfg.pp, z);
        let allreduce = CommModel::new(matrix)
            .ring_allreduce(&group, messages::tp_allreduce_bytes(gpt, micro_batch));
        messages::TP_ALLREDUCES_PER_LAYER as f64
            * gpt.layers_of_stage(stages, stage) as f64
            * allreduce
    }

    /// Eqs. 3–6 in closure form, one replica at a time: `tp_term(s, z)` is
    /// virtual stage `s`'s tensor-parallel time and `hop(s, z)` the round
    /// trip from virtual stage `s` to `s + 1` (zero within a device).
    fn closure_breakdown<FT, FH>(
        cfg: ParallelConfig,
        chunks: usize,
        n_mb: u64,
        compute: &ProfiledCompute,
        dp_times: &[f64],
        mut tp_term: FT,
        mut hop: FH,
    ) -> LatencyBreakdown
    where
        FT: FnMut(usize, usize) -> f64,
        FH: FnMut(usize, usize) -> f64,
    {
        let (pp, v, stages) = (cfg.pp as f64, chunks as f64, cfg.pp * chunks);
        // Microbatches device 0 holds in flight: pp under 1F1B, and
        // (pp·(v + 1) − 1)/v under interleaving.
        let window = if chunks == 1 {
            pp
        } else {
            (pp * (v + 1.0) - 1.0) / v
        };
        let n_mb = n_mb as f64;
        let mut worst = 0.0f64;
        let mut best = None;
        for z in 0..cfg.dp {
            let stage_cost: Vec<f64> = (0..stages)
                .map(|s| compute.compute(s) + tp_term(s, z))
                .collect();
            let work: Vec<f64> = (0..cfg.pp)
                .map(|d| (0..chunks).map(|c| stage_cost[c * cfg.pp + d]).sum())
                .collect();
            let sum: f64 = stage_cost.iter().sum();
            let max = work.iter().cloned().fold(0.0, f64::max);
            let mean = sum / stages as f64;
            let mut t_pp = 0.0;
            for s in 0..stages - 1 {
                t_pp += hop(s, z);
            }
            let loops = (n_mb / window - 1.0).max(0.0);
            let loop_excess = (sum + t_pp - window * max).max(0.0);
            let chain = n_mb * max + (pp - 1.0) * mean + t_pp + loops * loop_excess;
            let mut gap = 0.0;
            let mut dp_exposed: f64 = dp_times[0];
            for d in 1..cfg.pp {
                gap += 2.0 * work[d - 1] / (3.0 * v) + hop(d - 1, z) / 2.0;
                dp_exposed = dp_exposed.max(dp_times[d] - gap);
            }
            let total = chain + dp_exposed;
            if z == 0 || total > worst {
                let mut straggler_stage = 0;
                for (d, &w) in work.iter().enumerate() {
                    if w > work[straggler_stage] {
                        straggler_stage = d;
                    }
                }
                best = Some(LatencyBreakdown {
                    total_seconds: 0.0,
                    t_straggler: n_mb * max,
                    t_bubble: (pp - 1.0) * mean + t_pp,
                    t_hidden: loops * loop_excess,
                    t_dp: dp_exposed,
                    t_optimizer: OPTIMIZER_STEP_S,
                    critical_replica: z,
                    straggler_stage,
                });
            }
            worst = worst.max(total);
        }
        let mut best = best.expect("at least one replica");
        best.total_seconds = worst + OPTIMIZER_STEP_S;
        best
    }

    /// The breakdown's floats by bit pattern, so equality is exact.
    fn bits(b: &LatencyBreakdown) -> [u64; 8] {
        [
            b.total_seconds.to_bits(),
            b.t_straggler.to_bits(),
            b.t_bubble.to_bits(),
            b.t_hidden.to_bits(),
            b.t_dp.to_bits(),
            b.t_optimizer.to_bits(),
            b.critical_replica as u64,
            b.straggler_stage as u64,
        ]
    }

    fn schedule(chunks: usize) -> PipelineSchedule {
        match chunks {
            1 => PipelineSchedule::OneFOneB,
            chunks => PipelineSchedule::Interleaved { chunks },
        }
    }

    fn profile(
        cluster: &pipette_cluster::Cluster,
        gpt: &GptConfig,
        cfg: ParallelConfig,
        chunks: usize,
        plan: MicrobatchPlan,
    ) -> ProfiledCompute {
        ComputeProfiler::default().profile_stages(
            cluster.bandwidth(),
            cluster.gpu(),
            gpt,
            cfg.pp * chunks,
            cfg.tp,
            plan,
            3,
        )
    }

    #[test]
    fn cached_reduce_is_bitwise_equal_to_closure_form() {
        let (c, gpt) = setup();
        // Cover tp ≥ 2 and tp = 1, the pp = 1 edge, and two chunks.
        for (cfg, chunks) in [
            (ParallelConfig::new(4, 2, 4), 1),
            (ParallelConfig::new(8, 2, 2), 1),
            (ParallelConfig::new(4, 1, 8), 1),
            (ParallelConfig::new(1, 4, 8), 1),
            (ParallelConfig::new(4, 2, 4), 2),
            (ParallelConfig::new(1, 4, 8), 2),
        ] {
            let plan = MicrobatchPlan::new(64, 2).unwrap();
            let (pp, dp, stages) = (cfg.pp, cfg.dp, cfg.pp * chunks);
            // Synthetic but irregular term values: bit-equality must hold
            // for arbitrary inputs, not just physically plausible ones,
            // and any device may be the straggler.
            let compute = ProfiledCompute {
                fwd: (0..stages)
                    .map(|s| 1e-3 * (1.0 + (1.3 * s as f64).cos().abs()))
                    .collect(),
                bwd: (0..stages)
                    .map(|s| 2e-3 * (1.0 + (0.7 * s as f64).sin().abs()))
                    .collect(),
                tp_comm: vec![0.0; stages],
            };
            let mapping = Mapping::identity(cfg, *c.topology());
            let links = LinkGather::new(c.bandwidth(), &gpt, schedule(chunks), &mapping);
            let mut table = TermTable::priced(&links, plan, &compute);
            if cfg.tp >= 2 {
                for (i, t) in table.block_allreduce.iter_mut().enumerate() {
                    *t = 1e-4 * (1.0 + (i as f64).sin().abs());
                }
            }
            for (i, t) in table.hops.iter_mut().enumerate() {
                *t = 2e-4 * (1.0 + (i as f64).cos().abs());
            }
            for (d, t) in table.dp_times.iter_mut().enumerate() {
                *t = 3e-4 * (1.0 + (d as f64 * 0.7).fract());
            }
            let (allreduce, hops) = (table.block_allreduce.clone(), table.hops.clone());
            let oracle = closure_breakdown(
                cfg,
                chunks,
                plan.n_microbatches,
                &compute,
                &table.dp_times.clone(),
                |s, z| {
                    let layers = gpt.layers_of_stage(stages, s) as f64;
                    messages::TP_ALLREDUCES_PER_LAYER as f64 * layers * allreduce[(s % pp) * dp + z]
                },
                |s, z| if pp < 2 { 0.0 } else { hops[(s % pp) * dp + z] },
            );
            let reduced = table.reduce_latency();
            assert_eq!(bits(&oracle), bits(&reduced), "{cfg:?} chunks={chunks}");
        }
    }

    #[test]
    fn t_pp_zero_for_single_stage() {
        let (c, _) = setup();
        let cfg = ParallelConfig::new(1, 8, 4);
        let m = Mapping::identity(cfg, *c.topology());
        assert_eq!(t_pp(c.bandwidth(), &m, 1 << 20), 0.0);
    }

    #[test]
    fn t_pp_grows_with_message_size() {
        let (c, _) = setup();
        let cfg = ParallelConfig::new(4, 8, 1);
        let m = Mapping::identity(cfg, *c.topology());
        let small = t_pp(c.bandwidth(), &m, 1 << 20);
        let big = t_pp(c.bandwidth(), &m, 1 << 24);
        assert!(big > 10.0 * small);
    }

    #[test]
    fn t_pp_is_max_over_chains() {
        let (c, _) = setup();
        let cfg = ParallelConfig::new(2, 8, 2);
        let m = Mapping::identity(cfg, *c.topology());
        let full = t_pp(c.bandwidth(), &m, 1 << 22);
        let per_chain: Vec<f64> = (0..2)
            .map(|z| t_pp_chain(c.bandwidth(), &m, 1 << 22, z))
            .collect();
        assert_eq!(full, per_chain.iter().cloned().fold(0.0, f64::max));
    }

    #[test]
    fn t_dp_zero_without_replicas() {
        let (c, gpt) = setup();
        let cfg = ParallelConfig::new(4, 8, 1);
        let m = Mapping::identity(cfg, *c.topology());
        assert_eq!(t_dp_first_stage(c.bandwidth(), &m, &gpt), 0.0);
    }

    #[test]
    fn t_dp_positive_with_replicas() {
        let (c, gpt) = setup();
        let cfg = ParallelConfig::new(2, 8, 2);
        let m = Mapping::identity(cfg, *c.topology());
        assert!(t_dp_first_stage(c.bandwidth(), &m, &gpt) > 0.0);
    }

    #[test]
    fn t_tp_zero_without_tensor_parallelism() {
        let (c, gpt) = setup();
        let cfg = ParallelConfig::new(4, 1, 8);
        let m = Mapping::identity(cfg, *c.topology());
        assert_eq!(t_tp_stage(c.bandwidth(), &m, &gpt, 2, (0, 4), 0), 0.0);
    }

    /// The table priced from a mapping's gather, reduced, against the
    /// closure form fed by the per-worker oracles above: every breakdown
    /// field agrees bit for bit, under 1F1B and interleaving, on identity
    /// and reversed block orders.
    #[test]
    fn reduce_is_bitwise_equal_to_breakdown() {
        let (c, gpt) = setup();
        for (cfg, micro, mini, chunks) in [
            (ParallelConfig::new(2, 4, 4), 2u64, 32u64, 1usize),
            (ParallelConfig::new(4, 8, 1), 2, 64, 1),
            (ParallelConfig::new(1, 8, 4), 4, 16, 1),
            (ParallelConfig::new(8, 2, 2), 1, 32, 1),
            (ParallelConfig::new(2, 4, 4), 2, 32, 4),
            (ParallelConfig::new(4, 8, 1), 2, 64, 2),
            (ParallelConfig::new(1, 8, 4), 4, 16, 3),
        ] {
            let plan = MicrobatchPlan::new(mini, micro).unwrap();
            let compute = profile(&c, &gpt, cfg, chunks, plan);
            let msg_pp = messages::pp_message_bytes(&gpt, plan.micro_batch);
            let (pp, stages) = (cfg.pp, cfg.pp * chunks);
            let identity = Mapping::identity(cfg, *c.topology());
            let mut reversed = identity.clone();
            reversed.as_mut_slice().reverse();
            for m in [identity, reversed] {
                let dp_times: Vec<f64> = (0..pp)
                    .map(|d| {
                        let bytes = (0..chunks)
                            .map(|k| messages::dp_gradient_bytes(&gpt, stages, cfg.tp, k * pp + d))
                            .sum();
                        t_dp_stage(c.bandwidth(), &m, bytes, d)
                    })
                    .collect();
                let oracle = closure_breakdown(
                    cfg,
                    chunks,
                    plan.n_microbatches,
                    &compute,
                    &dp_times,
                    |s, z| t_tp_stage(c.bandwidth(), &m, &gpt, plan.micro_batch, (s, stages), z),
                    |s, z| {
                        let (da, db) = (s % pp, (s + 1) % pp);
                        if da == db {
                            0.0
                        } else {
                            t_hop(c.bandwidth(), &m, msg_pp, z, da, db)
                        }
                    },
                );
                let links = LinkGather::new(c.bandwidth(), &gpt, schedule(chunks), &m);
                let breakdown = TermTable::priced(&links, plan, &compute).reduce_latency();
                assert_eq!(
                    bits(&oracle),
                    bits(&breakdown),
                    "{cfg} chunks={chunks}: breakdown diverged from the oracle"
                );
                assert!(breakdown.critical_replica < cfg.dp);
                assert!(breakdown.straggler_stage < cfg.pp);
                assert!(breakdown.t_straggler > 0.0);
                assert_eq!(breakdown.t_optimizer, OPTIMIZER_STEP_S);
            }
        }
    }

    /// One gather per configuration and schedule prices every plan like
    /// the per-worker oracles read afresh for that plan: 1F1B and
    /// interleaving at 2–4 chunks, identity and reversed block orders,
    /// every microbatch size dividing the minibatch. A message size that
    /// leaked into the gather would price the later plans with the first
    /// plan's bytes.
    #[test]
    fn one_gather_prices_every_plan_like_the_oracle() {
        let (c, gpt) = setup();
        for (cfg, mini, chunks) in [
            (ParallelConfig::new(2, 4, 4), 32u64, 1usize),
            (ParallelConfig::new(4, 2, 4), 16, 1),
            (ParallelConfig::new(2, 4, 4), 32, 2),
            (ParallelConfig::new(4, 8, 1), 64, 2),
            (ParallelConfig::new(2, 2, 8), 16, 3),
            (ParallelConfig::new(2, 4, 4), 32, 4),
        ] {
            let (pp, stages) = (cfg.pp, cfg.pp * chunks);
            let identity = Mapping::identity(cfg, *c.topology());
            let mut reversed = identity.clone();
            reversed.as_mut_slice().reverse();
            for m in [identity, reversed] {
                let links = LinkGather::new(c.bandwidth(), &gpt, schedule(chunks), &m);
                let dp_times: Vec<f64> = (0..pp)
                    .map(|d| {
                        let bytes = (0..chunks)
                            .map(|k| messages::dp_gradient_bytes(&gpt, stages, cfg.tp, k * pp + d))
                            .sum();
                        t_dp_stage(c.bandwidth(), &m, bytes, d)
                    })
                    .collect();
                for micro in [1u64, 2, 4, 8] {
                    // Interleaving needs pp | n_mb.
                    if (mini / micro) % pp as u64 != 0 {
                        continue;
                    }
                    let plan = MicrobatchPlan::new(mini, micro).unwrap();
                    let compute = profile(&c, &gpt, cfg, chunks, plan);
                    let msg_pp = messages::pp_message_bytes(&gpt, micro);
                    let oracle = closure_breakdown(
                        cfg,
                        chunks,
                        plan.n_microbatches,
                        &compute,
                        &dp_times,
                        |s, z| t_tp_stage(c.bandwidth(), &m, &gpt, micro, (s, stages), z),
                        |s, z| {
                            let (da, db) = (s % pp, (s + 1) % pp);
                            if da == db {
                                0.0
                            } else {
                                t_hop(c.bandwidth(), &m, msg_pp, z, da, db)
                            }
                        },
                    );
                    let priced = TermTable::priced(&links, plan, &compute).reduce_latency();
                    assert_eq!(
                        bits(&oracle),
                        bits(&priced),
                        "{cfg} chunks={chunks} micro={micro}: priced plan diverged from the oracle"
                    );
                    assert_eq!(
                        links.estimate(plan, &compute).to_bits(),
                        oracle.total_seconds.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn mapping_changes_t_pp() {
        // A homogeneous-intra cluster with one slowed inter-node link: a
        // mapping that routes the pipeline over the slow link is worse.
        let (c, _) = setup();
        let cfg = ParallelConfig::new(4, 8, 1);
        let identity = Mapping::identity(cfg, *c.topology());
        let t_id = t_pp(c.bandwidth(), &identity, 1 << 24);
        // Reorder nodes: 0,2,1,3.
        let topo: ClusterTopology = *c.topology();
        let mut assign = Vec::new();
        for node in [0usize, 2, 1, 3] {
            for r in 0..8 {
                assign.push(topo.gpu(node, r));
            }
        }
        let reordered =
            Mapping::from_assignment(cfg, assign.into_iter().map(|g| GpuId(g.0)).collect());
        let t_re = t_pp(c.bandwidth(), &reordered, 1 << 24);
        assert_ne!(t_id, t_re);
    }
}
