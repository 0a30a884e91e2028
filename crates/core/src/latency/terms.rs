//! The individual communication terms of the latency model (Eqs. 5–6),
//! each computable per stage / per hop / per replica, plus the shared
//! critical-path reduction over them.
//!
//! Both evaluation paths — the batch estimator
//! ([`crate::latency::PipetteLatencyModel::estimate`]) and the incremental
//! SA objective ([`crate::mapping::IncrementalObjective`]) — feed these
//! terms through [`reduce_latency_s`], so the two are bit-identical by
//! construction: the incremental path merely caches term values that the
//! batch path recomputes.

use pipette_cluster::{BandwidthMatrix, GpuId};
use pipette_model::{messages, GptConfig, MicrobatchPlan, ParallelConfig, WorkerId};
use pipette_sim::iteration::OPTIMIZER_STEP_S;
use pipette_sim::{CommModel, HierScratch, Mapping, ProfiledCompute};

/// Eq. 5 — pipeline-parallel communication on the critical path for one
/// data replica `z`: the slowest tensor rank of each hop, summed along the
/// chain, doubled for forward+backward.
pub fn t_pp_chain(matrix: &BandwidthMatrix, mapping: &Mapping, msg_pp: u64, z: usize) -> f64 {
    let cfg = mapping.config();
    let comm = CommModel::new(matrix);
    let mut total = 0.0;
    for x in 0..cfg.pp.saturating_sub(1) {
        let mut hop: f64 = 0.0;
        for y in 0..cfg.tp {
            let a = mapping.gpu_of(WorkerId {
                stage: x,
                tensor: y,
                data: z,
            });
            let b = mapping.gpu_of(WorkerId {
                stage: x + 1,
                tensor: y,
                data: z,
            });
            hop = hop.max(comm.p2p(a, b, msg_pp) + comm.p2p(b, a, msg_pp));
        }
        total += hop;
    }
    total
}

/// One hop of Eq. 5's chain: the round-trip transfer time between stages
/// `x` and `x + 1` of replica `z` (slowest tensor rank).
pub fn t_pp_chain_hop(
    matrix: &BandwidthMatrix,
    mapping: &Mapping,
    msg_pp: u64,
    z: usize,
    x: usize,
) -> f64 {
    let cfg = mapping.config();
    debug_assert!(x + 1 < cfg.pp, "hop {x} out of range");
    // Worker (s, y, z) lives at linear index ((s·dp + z)·tp + y), so the
    // two stages' tensor ranks are consecutive `tp`-slices of the
    // assignment (one block each).
    let a = (x * cfg.dp + z) * cfg.tp;
    let b = ((x + 1) * cfg.dp + z) * cfg.tp;
    let assign = mapping.as_slice();
    t_pp_hop_between(
        matrix,
        &assign[a..a + cfg.tp],
        &assign[b..b + cfg.tp],
        msg_pp,
    )
}

/// [`t_pp_chain_hop`] on raw block contents: the hop time between a block
/// holding `a` and a block holding `b` (same tensor rank talks to same
/// tensor rank). Depends only on the two GPU tuples — SA moves permute
/// whole blocks, so the incremental objective tabulates this per block
/// *pair* once and never recomputes it.
pub fn t_pp_hop_between(matrix: &BandwidthMatrix, a: &[GpuId], b: &[GpuId], msg_pp: u64) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "blocks must have equal tensor width");
    let comm = CommModel::new(matrix);
    let mut hop: f64 = 0.0;
    for y in 0..a.len() {
        hop = hop.max(comm.p2p(a[y], b[y], msg_pp) + comm.p2p(b[y], a[y], msg_pp));
    }
    hop
}

/// Eq. 5's outer `max` — the slowest end-to-end pipeline over all replicas.
pub fn t_pp(matrix: &BandwidthMatrix, mapping: &Mapping, msg_pp: u64) -> f64 {
    let cfg = mapping.config();
    (0..cfg.dp)
        .map(|z| t_pp_chain(matrix, mapping, msg_pp, z))
        .fold(0.0, f64::max)
}

/// Data-parallel all-reduce time of one pipeline stage: hierarchical ring
/// over each tensor rank's replica group, the slowest rank dominating.
pub fn t_dp_stage(
    matrix: &BandwidthMatrix,
    mapping: &Mapping,
    gpt: &GptConfig,
    stage: usize,
) -> f64 {
    t_dp_stage_with(
        &mut HierScratch::new(),
        &mut Vec::new(),
        matrix,
        mapping,
        gpt,
        stage,
    )
}

/// [`t_dp_stage`] with caller-provided scratch buffers (allocation-free on
/// the hot path); returns the identical value.
pub fn t_dp_stage_with(
    scratch: &mut HierScratch,
    group: &mut Vec<GpuId>,
    matrix: &BandwidthMatrix,
    mapping: &Mapping,
    gpt: &GptConfig,
    stage: usize,
) -> f64 {
    let cfg = mapping.config();
    if cfg.dp < 2 {
        return 0.0;
    }
    let comm = CommModel::new(matrix);
    let bytes = messages::dp_gradient_bytes(gpt, cfg.pp, cfg.tp, stage);
    let topo = matrix.topology();
    let width = cfg.dp * cfg.tp;
    let blocks = &mapping.as_slice()[stage * width..(stage + 1) * width];
    let node_aligned = blocks
        .chunks_exact(cfg.tp)
        .all(|block| block.iter().all(|&g| topo.same_node(g, block[0])));
    if node_aligned {
        return comm.dp_allreduce_blocks(
            scratch,
            blocks,
            cfg.tp,
            |z| topo.node_of(blocks[z * cfg.tp]).0,
            bytes,
        );
    }
    // A hand-built mapping may split a tensor block across nodes; each
    // rank's replicas then group by node in their own way.
    let mut worst = 0.0f64;
    for tensor in 0..cfg.tp {
        group.clear();
        group.extend((0..cfg.dp).map(|data| {
            mapping.gpu_of(WorkerId {
                stage,
                tensor,
                data,
            })
        }));
        worst = worst.max(comm.hierarchical_allreduce_with(scratch, group, bytes));
    }
    worst
}

/// Eq. 6 — data-parallel all-reduce of the *first* pipeline stage, which
/// is usually the only stage whose DP communication lies on the critical
/// path (Fig. 4): it finishes its final backward last and carries the
/// embedding gradients.
pub fn t_dp_first_stage(matrix: &BandwidthMatrix, mapping: &Mapping, gpt: &GptConfig) -> f64 {
    t_dp_stage(matrix, mapping, gpt, 0)
}

/// Tensor-parallel all-reduce time for one microbatch on stage `stage` of
/// replica `z`: four all-reduces per layer (two forward, two backward)
/// over the group's slowest link, from the profiled matrix.
pub fn t_tp_stage(
    matrix: &BandwidthMatrix,
    mapping: &Mapping,
    gpt: &GptConfig,
    micro_batch: u64,
    stage: usize,
    z: usize,
) -> f64 {
    let cfg = mapping.config();
    if cfg.tp < 2 {
        return 0.0;
    }
    let comm = CommModel::new(matrix);
    let bytes = messages::tp_allreduce_bytes(gpt, micro_batch);
    t_tp_from_allreduce(
        gpt,
        cfg.pp,
        stage,
        comm.ring_allreduce(&mapping.tensor_group(stage, z), bytes),
    )
}

/// Scales one tensor group's ring all-reduce time into the stage's full
/// tensor-parallel cost (four all-reduces per layer). The all-reduce time
/// itself depends only on the group's GPUs, so the incremental objective
/// caches it per block and re-applies this stage-dependent scaling.
pub fn t_tp_from_allreduce(gpt: &GptConfig, pp: usize, stage: usize, allreduce: f64) -> f64 {
    let layers = gpt.layers_of_stage(pp, stage) as f64;
    messages::TP_ALLREDUCES_PER_LAYER as f64 * layers * allreduce
}

/// The shared Eq. 3–6 critical-path reduction over per-stage / per-hop
/// terms — the single source of truth behind both the batch estimator and
/// the incremental objective.
///
/// `tp_term(s, z)` is the tensor-parallel cost of stage `s` in replica
/// `z`; `hop(x, z)` is the round-trip inter-stage transfer between stages
/// `x` and `x + 1` of replica `z`; `dp_times[s]` is the stage's
/// data-parallel all-reduce time. `stage_cost` is caller-provided scratch.
/// Closure call order and floating-point reduction order are fixed, so two
/// callers feeding bitwise-equal terms get bitwise-equal estimates.
pub fn reduce_latency_s<FT, FH>(
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    compute: &ProfiledCompute,
    dp_times: &[f64],
    mut tp_term: FT,
    mut hop: FH,
    stage_cost: &mut Vec<f64>,
) -> f64
where
    FT: FnMut(usize, usize) -> f64,
    FH: FnMut(usize, usize) -> f64,
{
    let pp = cfg.pp as f64;
    // Per-replica critical paths; the slowest replica gates the DP sync.
    let mut worst = 0.0f64;
    for z in 0..cfg.dp {
        stage_cost.clear();
        stage_cost.extend((0..cfg.pp).map(|s| compute.compute(s) + tp_term(s, z)));
        let sum: f64 = stage_cost.iter().sum();
        let max = stage_cost.iter().cloned().fold(0.0, f64::max);
        let mean = sum / pp;
        let mut t_pp = 0.0;
        for x in 0..cfg.pp.saturating_sub(1) {
            t_pp += hop(x, z);
        }
        // Decomposition mirroring Eq. 3, generalized to non-uniform
        // stages (the last stage carries the LM head):
        //
        // * straggler steady-state work: `n_mb · max_s C_s`
        //   (Eq. 4's straggler term, which dominates when one stage is
        //   slower than the dependency loop);
        // * one pipeline fill+drain: `(pp − 1) · C̄ + T_pp`
        //   (Eq. 4's bubble);
        // * the hidden critical path: the 1F1B loop (forward down,
        //   backward up) closes `n_mb/pp − 1` times (§V), each time
        //   charging however much the loop `Σ C_s + T_pp` exceeds the
        //   straggler-bound work `pp · max_s C_s`.
        let loops = (plan.n_microbatches as f64 / pp - 1.0).max(0.0);
        let loop_excess = (sum + t_pp - pp * max).max(0.0);
        let chain =
            plan.n_microbatches as f64 * max + (pp - 1.0) * mean + t_pp + loops * loop_excess;

        // Data-parallel sync. Stage 0 finishes its final backward last,
        // so its all-reduce is fully exposed (Eq. 6). A later stage `s`
        // finishes earlier by the backward-wave gap (the time the final
        // gradient takes to travel from `s` to stage 0), so its
        // all-reduce only matters if it exceeds that slack.
        let mut gap = 0.0;
        let mut dp_exposed: f64 = dp_times[0];
        for s in 1..cfg.pp {
            gap += 2.0 * stage_cost[s - 1] / 3.0 + hop(s - 1, z) / 2.0;
            dp_exposed = dp_exposed.max(dp_times[s] - gap);
        }
        worst = worst.max(chain + dp_exposed);
    }
    worst + OPTIMIZER_STEP_S
}

/// Hot-path form of [`reduce_latency_s`] over precomputed slices — the
/// once-per-proposal call of [`crate::mapping::IncrementalObjective`].
///
/// The closure-based reduction re-derives two stage-static factors on
/// every call: the profiled compute time `compute.compute(s)` and the
/// tensor-parallel scaling `TP_ALLREDUCES_PER_LAYER · layers_of_stage`
/// (two integer divisions per stage per replica). Here both are hoisted
/// into caller-precomputed slices — `comp[s]` and `tp_factor[s]` — and
/// the three inner passes (stage costs, hop sum, backward-wave gap) are
/// fused into two. Every floating-point operation still happens in the
/// same order on the same values, so the result is **bit-identical** to
/// [`reduce_latency_s`] fed the equivalent closures (guarded by
/// `cached_reduce_is_bitwise_equal_to_closure_form` below and by the
/// propose-vs-batch parity suite).
///
/// Contract: `comp[s] = compute.compute(s)`; `tp_factor[s] =
/// TP_ALLREDUCES_PER_LAYER as f64 * (layers_of_stage(pp, s) as f64)`
/// (ignored when `cfg.tp < 2`); `block_allreduce` is indexed `s·dp + z`
/// and `hops` is indexed `x·dp + z`; `stage_cost` is caller scratch.
#[allow(clippy::too_many_arguments)]
pub fn reduce_latency_cached_s(
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    comp: &[f64],
    tp_factor: &[f64],
    block_allreduce: &[f64],
    hops: &[f64],
    dp_times: &[f64],
    stage_cost: &mut Vec<f64>,
) -> f64 {
    let pp = cfg.pp as f64;
    let dp = cfg.dp;
    let tp_small = cfg.tp < 2;
    if stage_cost.len() != cfg.pp {
        stage_cost.clear();
        stage_cost.resize(cfg.pp, 0.0);
    }
    // Prefix bindings let the compiler drop the per-element bounds checks
    // in the stage loops (every index is `< cfg.pp` by construction).
    let comp = &comp[..cfg.pp];
    let tp_factor = &tp_factor[..cfg.pp];
    let dp_times = &dp_times[..cfg.pp];
    let stage_cost = &mut stage_cost[..cfg.pp];
    // Replica-invariant factors, hoisted out of the z loop.
    let n_mb = plan.n_microbatches as f64;
    let loops = (n_mb / pp - 1.0).max(0.0);
    let mut worst = 0.0f64;
    for z in 0..dp {
        // Pass 1: per-stage costs, with the running sum and max folded in
        // (identical accumulation order to `iter().sum()` and
        // `fold(0.0, f64::max)` over the finished slice). The `tp < 2`
        // test is hoisted to loop selection; the degenerate branch keeps
        // the closure form's `+ 0.0` so signed zeros round-trip.
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        if tp_small {
            for s in 0..cfg.pp {
                let c = comp[s] + 0.0;
                stage_cost[s] = c;
                sum += c;
                max = f64::max(max, c);
            }
        } else {
            for s in 0..cfg.pp {
                let c = comp[s] + tp_factor[s] * block_allreduce[s * dp + z];
                stage_cost[s] = c;
                sum += c;
                max = f64::max(max, c);
            }
        }
        let mean = sum / pp;
        // Pass 2: hop sum and backward-wave gap share the same hop reads,
        // in the same left-to-right order as the two separate loops of
        // the closure form.
        let mut t_pp = 0.0;
        let mut gap = 0.0;
        let mut dp_exposed: f64 = dp_times[0];
        for s in 1..cfg.pp {
            let h = hops[(s - 1) * dp + z];
            t_pp += h;
            gap += 2.0 * stage_cost[s - 1] / 3.0 + h / 2.0;
            dp_exposed = dp_exposed.max(dp_times[s] - gap);
        }
        let loop_excess = (sum + t_pp - pp * max).max(0.0);
        let chain = n_mb * max + (pp - 1.0) * mean + t_pp + loops * loop_excess;
        worst = worst.max(chain + dp_exposed);
    }
    worst + OPTIMIZER_STEP_S
}

/// The Eq. 3–6 decomposition of one latency estimate, as recorded for
/// telemetry and `pipette explain`.
///
/// `total_seconds` is **bit-identical** to what [`reduce_latency_s`] returns
/// for the same inputs ([`reduce_latency_breakdown`] mirrors its arithmetic
/// op for op; `reduce_is_bitwise_equal_to_breakdown` guards the invariant).
/// The component terms are reported for the critical replica — the one
/// whose chain + exposed DP sync gates the iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// The full estimate: critical replica's path plus the optimizer step.
    pub total_seconds: f64,
    /// Straggler steady-state term (Eq. 4): `n_mb · max_s C_s`.
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
    /// Stage with the largest compute + tensor-parallel cost in that
    /// replica (first such stage on ties).
    pub straggler_stage: usize,
}

/// [`reduce_latency_s`], but also reporting where the time went.
///
/// Mirrors [`reduce_latency_s`]'s floating-point operations in the same
/// order, so `breakdown.total_seconds` is bitwise equal to the plain
/// estimate. Kept separate from the hot-path reduction (which the SA inner
/// loop calls thousands of times per pass) so instrumentation costs
/// nothing when not asked for.
pub fn reduce_latency_breakdown<FT, FH>(
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    compute: &ProfiledCompute,
    dp_times: &[f64],
    mut tp_term: FT,
    mut hop: FH,
    stage_cost: &mut Vec<f64>,
) -> LatencyBreakdown
where
    FT: FnMut(usize, usize) -> f64,
    FH: FnMut(usize, usize) -> f64,
{
    let pp = cfg.pp as f64;
    let mut worst = 0.0f64;
    let mut best = LatencyBreakdown {
        total_seconds: 0.0,
        t_straggler: 0.0,
        t_bubble: 0.0,
        t_hidden: 0.0,
        t_dp: 0.0,
        t_optimizer: OPTIMIZER_STEP_S,
        critical_replica: 0,
        straggler_stage: 0,
    };
    for z in 0..cfg.dp {
        stage_cost.clear();
        stage_cost.extend((0..cfg.pp).map(|s| compute.compute(s) + tp_term(s, z)));
        let sum: f64 = stage_cost.iter().sum();
        let max = stage_cost.iter().cloned().fold(0.0, f64::max);
        let mean = sum / pp;
        let mut t_pp = 0.0;
        for x in 0..cfg.pp.saturating_sub(1) {
            t_pp += hop(x, z);
        }
        let loops = (plan.n_microbatches as f64 / pp - 1.0).max(0.0);
        let loop_excess = (sum + t_pp - pp * max).max(0.0);
        let chain =
            plan.n_microbatches as f64 * max + (pp - 1.0) * mean + t_pp + loops * loop_excess;

        let mut gap = 0.0;
        let mut dp_exposed: f64 = dp_times[0];
        for s in 1..cfg.pp {
            gap += 2.0 * stage_cost[s - 1] / 3.0 + hop(s - 1, z) / 2.0;
            dp_exposed = dp_exposed.max(dp_times[s] - gap);
        }
        let total = chain + dp_exposed;
        if z == 0 || total > worst {
            let mut straggler_stage = 0;
            for (s, &c) in stage_cost.iter().enumerate() {
                if c > stage_cost[straggler_stage] {
                    straggler_stage = s;
                }
            }
            best = LatencyBreakdown {
                total_seconds: 0.0, // filled below from `worst`
                t_straggler: plan.n_microbatches as f64 * max,
                t_bubble: (pp - 1.0) * mean + t_pp,
                t_hidden: loops * loop_excess,
                t_dp: dp_exposed,
                t_optimizer: OPTIMIZER_STEP_S,
                critical_replica: z,
                straggler_stage,
            };
        }
        worst = worst.max(total);
    }
    best.total_seconds = worst + OPTIMIZER_STEP_S;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::{presets, ClusterTopology, GpuId};
    use pipette_model::ParallelConfig;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(4).build(11),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    #[test]
    fn cached_reduce_is_bitwise_equal_to_closure_form() {
        use pipette_sim::ComputeProfiler;
        let (c, gpt) = setup();
        // Cover tp ≥ 2 and the tp-small branch, plus pp = 1 edge.
        for cfg in [
            ParallelConfig::new(4, 2, 4),
            ParallelConfig::new(8, 2, 2),
            ParallelConfig::new(4, 1, 8),
            ParallelConfig::new(1, 4, 8),
        ] {
            let plan = MicrobatchPlan::new(64, 2).unwrap();
            let gpu = c.gpu().clone();
            let compute =
                ComputeProfiler::default().profile(c.bandwidth(), &gpu, &gpt, cfg, plan, 3);
            let (pp, dp) = (cfg.pp, cfg.dp);
            // Synthetic but irregular term values: bit-equality must hold
            // for arbitrary inputs, not just physically plausible ones.
            let block_allreduce: Vec<f64> = (0..pp * dp)
                .map(|i| 1e-4 * (1.0 + (i as f64).sin().abs()))
                .collect();
            let hops: Vec<f64> = (0..pp.saturating_sub(1) * dp)
                .map(|i| 2e-4 * (1.0 + (i as f64).cos().abs()))
                .collect();
            let dp_times: Vec<f64> = (0..pp)
                .map(|s| 3e-4 * (1.0 + (s as f64 * 0.7).fract()))
                .collect();
            let comp: Vec<f64> = (0..pp).map(|s| compute.compute(s)).collect();
            let tp_factor: Vec<f64> = (0..pp)
                .map(|s| {
                    messages::TP_ALLREDUCES_PER_LAYER as f64 * gpt.layers_of_stage(pp, s) as f64
                })
                .collect();
            let mut scratch_a = Vec::new();
            let mut scratch_b = Vec::new();
            let tp_small = cfg.tp < 2;
            let closure_form = reduce_latency_s(
                cfg,
                plan,
                &compute,
                &dp_times,
                |s, z| {
                    if tp_small {
                        0.0
                    } else {
                        t_tp_from_allreduce(&gpt, pp, s, block_allreduce[s * dp + z])
                    }
                },
                |x, z| hops[x * dp + z],
                &mut scratch_a,
            );
            let cached_form = reduce_latency_cached_s(
                cfg,
                plan,
                &comp,
                &tp_factor,
                &block_allreduce,
                &hops,
                &dp_times,
                &mut scratch_b,
            );
            assert_eq!(
                closure_form.to_bits(),
                cached_form.to_bits(),
                "{cfg:?}: {closure_form} vs {cached_form}"
            );
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
        assert_eq!(t_tp_stage(c.bandwidth(), &m, &gpt, 2, 0, 0), 0.0);
    }

    #[test]
    fn reduce_is_bitwise_equal_to_breakdown() {
        use pipette_sim::ComputeProfiler;
        let (c, gpt) = setup();
        for (cfg, micro, mini) in [
            (ParallelConfig::new(2, 4, 4), 2u64, 32u64),
            (ParallelConfig::new(4, 8, 1), 2, 64),
            (ParallelConfig::new(1, 8, 4), 4, 16),
            (ParallelConfig::new(8, 2, 2), 1, 32),
        ] {
            let m = Mapping::identity(cfg, *c.topology());
            let plan = pipette_model::MicrobatchPlan::new(mini, micro).unwrap();
            let compute =
                ComputeProfiler::default().profile(c.bandwidth(), c.gpu(), &gpt, cfg, plan, 4);
            let msg_pp = messages::pp_message_bytes(&gpt, plan.micro_batch);
            let dp_times: Vec<f64> = (0..cfg.pp)
                .map(|s| t_dp_stage(c.bandwidth(), &m, &gpt, s))
                .collect();
            let mut scratch = Vec::new();
            let plain = reduce_latency_s(
                cfg,
                plan,
                &compute,
                &dp_times,
                |s, z| t_tp_stage(c.bandwidth(), &m, &gpt, plan.micro_batch, s, z),
                |x, z| t_pp_chain_hop(c.bandwidth(), &m, msg_pp, z, x),
                &mut scratch,
            );
            let breakdown = reduce_latency_breakdown(
                cfg,
                plan,
                &compute,
                &dp_times,
                |s, z| t_tp_stage(c.bandwidth(), &m, &gpt, plan.micro_batch, s, z),
                |x, z| t_pp_chain_hop(c.bandwidth(), &m, msg_pp, z, x),
                &mut scratch,
            );
            assert_eq!(
                plain.to_bits(),
                breakdown.total_seconds.to_bits(),
                "{cfg}: breakdown diverged from the estimate"
            );
            assert!(breakdown.critical_replica < cfg.dp);
            assert!(breakdown.straggler_stage < cfg.pp);
            assert!(breakdown.t_straggler > 0.0);
            assert_eq!(breakdown.t_optimizer, OPTIMIZER_STEP_S);
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
