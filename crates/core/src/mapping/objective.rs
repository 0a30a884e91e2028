//! The annealer's objective abstraction and the incremental evaluator.
//!
//! Algorithm 1 spends nearly all of its time inside the SA loop calling
//! the latency estimator, and a full [`PipetteLatencyModel::estimate`]
//! walks every tensor group, pipeline hop, and data-parallel ring of the
//! mapping — `O(pp·tp·dp)` communication-model queries — even though one
//! SA move displaces only a handful of blocks. [`IncrementalObjective`]
//! gathers the mapping's links and prices the estimator's term table
//! (`latency::terms::TermTable`) from them once, and afterwards
//! re-derives only the slots a move touched:
//!
//! * **per-block ring all-reduce times** (`T_tp`'s expensive factor)
//!   depend only on the GPUs *inside* a block, and SA moves permute whole
//!   blocks — so these values are never recomputed at all, merely permuted
//!   alongside the assignment via [`Move::apply_to`];
//! * **per-hop pipeline transfer times** (Eq. 5) touch two adjacent
//!   blocks — recomputed only for hops bordering a displaced block;
//! * **per-stage data-parallel all-reduce times** (Eq. 6) touch one
//!   stage's replica row — recomputed only for stages owning a displaced
//!   block, by [`pipette_sim::CommModel::dp_allreduce_blocks`] over the
//!   node of each block's content (tabulated once per `rebuild`), behind
//!   one [`DpMemo`].
//!
//! Each proposal then runs `TermTable::reduce_latency`, the reduction
//! the batch estimator runs, so `propose` returns a bit-identical cost to
//! a from-scratch `estimate` of the moved mapping — the annealer's
//! accept/reject trace (and therefore its result for a given seed) is
//! unchanged, only faster.

use crate::latency::terms::{t_dp_blocks, t_pp_hop, t_pp_hop_between, LinkGather, TermTable};
use crate::latency::PipetteLatencyModel;
use crate::mapping::arena::{DpMemo, MemoStats, TouchedSet, UndoLog};
use crate::mapping::moves::Move;
use pipette_cluster::{BandwidthMatrix, GpuId};
use pipette_model::{messages, GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_sim::{CommModel, HierScratch, Mapping, PipelineSchedule, ProfiledCompute};

/// What the annealer needs from a cost function: a full evaluation for the
/// starting point and a propose/commit/rollback protocol for moves.
///
/// The annealer owns the current mapping and applies each sampled move to
/// it *before* calling [`Objective::propose`]; on rejection it calls
/// [`Objective::rollback`] and un-applies the move itself.
pub trait Objective {
    /// Full cost of `mapping` (called once, for the initial state).
    fn evaluate(&mut self, mapping: &Mapping) -> f64;

    /// Cost of `candidate`, which is the previously evaluated mapping with
    /// `mv` freshly applied.
    fn propose(&mut self, mv: Move, candidate: &Mapping) -> f64;

    /// The proposal was accepted; make its state current.
    fn commit(&mut self) {}

    /// The proposal was rejected; restore the pre-move state.
    fn rollback(&mut self) {}
}

/// Adapter running a plain `Fn(&Mapping) -> f64` closure as an
/// [`Objective`] — the legacy batch path, kept for ablations, toy
/// objectives, and as the reference in bit-identity tests.
#[derive(Debug, Clone)]
pub struct FnObjective<F>(F);

impl<F: Fn(&Mapping) -> f64> FnObjective<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        Self(f)
    }
}

impl<F: Fn(&Mapping) -> f64> Objective for FnObjective<F> {
    fn evaluate(&mut self, mapping: &Mapping) -> f64 {
        (self.0)(mapping)
    }

    fn propose(&mut self, _mv: Move, candidate: &Mapping) -> f64 {
        (self.0)(candidate)
    }
}

/// Undo journal of one in-flight proposal.
#[derive(Debug, Clone, Copy)]
struct Pending {
    mv: Move,
    prev_cost: f64,
}

/// Stateful incremental evaluator of Eqs. 3–6 (see the module docs).
#[derive(Debug)]
pub struct IncrementalObjective<'a> {
    matrix: &'a BandwidthMatrix,
    gpt: &'a GptConfig,
    compute: &'a ProfiledCompute,
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    msg_pp: u64,
    /// Gradient bytes each stage all-reduces (plan-independent, from the
    /// last `rebuild`'s gather).
    dp_bytes: Vec<u64>,
    /// The Eq. 3–6 inputs of the current mapping. Its block all-reduce
    /// times are permuted in lockstep with moves; its hop and DP slots
    /// are rewritten where a move touched them.
    terms: TermTable,
    /// Scratch of [`t_dp_blocks`] for recomputing a stage's DP time
    /// after a move.
    hier: HierScratch,
    group: Vec<GpuId>,
    /// Content id of the block currently at each position; permuted in
    /// lockstep with moves. Ids name the blocks of the last `rebuild`'s
    /// mapping, whose GPU tuples never change thereafter — every cached
    /// term below is a pure function of content ids.
    block_ids: Vec<u16>,
    /// Hop time for every ordered pair of block contents, indexed
    /// `from_id·num_blocks + to_id`; empty when disabled (see
    /// `HOP_TABLE_MAX_ENTRIES`) or when `pp < 2`. A dirty hop is then a
    /// table read, never a recompute.
    hop_table: Vec<f64>,
    /// Node hosting each block content, indexed by content id; empty
    /// when some block straddles two nodes (only a hand-built mapping
    /// can), which sends DP recomputes down the per-rank path.
    id_node: Vec<u32>,
    /// Lazily memoized per-stage DP all-reduce times, keyed by
    /// `(stage, packed content-id tuple)`. Values are pure in the key, so
    /// hits are bitwise identical to recomputation — and so is a *miss*
    /// after eviction, which merely recomputes the same bits. Any
    /// observable traversal goes through the ordered drain (rule D4's
    /// intent).
    dp_memo: DpMemo,
    /// Stage of each block position `b = s·dp + z` (`pos_stage[b] = s`),
    /// so `mark_block` never divides by the runtime `dp`.
    pos_stage: Vec<u16>,
    current_cost: f64,
    pending: Option<Pending>,
    /// `(index, old value)` journals for the in-flight proposal — SoA
    /// arenas sized at construction, so steady-state journaling never
    /// allocates.
    hop_undo: UndoLog,
    dp_undo: UndoLog,
    /// Scratch: dirty hop indices / dirty stages of the current proposal —
    /// fixed-capacity buffers sized to the worst case a single move can
    /// touch.
    touched_hops: TouchedSet,
    touched_stages: TouchedSet,
}

/// Upper bound on the eager hop table (entries = `num_blocks²`). At the
/// limit the table is 8 MiB and costs ~2·tp·entries point-to-point model
/// evaluations to fill — a few dozen full estimates, amortized over the
/// (typically hundreds of thousands of) SA iterations that follow.
const HOP_TABLE_MAX_ENTRIES: usize = 1 << 20;

/// DP tuples are packed into a `u128` as 16-bit content ids, so stages
/// with more replicas than this fall back to direct recomputation.
const DP_MEMO_MAX_DP: usize = 8;

// pipette-lint: hot-path
/// Packs a stage's content-id tuple into a memo key, or `None` when the
/// stage has too many replicas to pack.
#[inline]
fn dp_key(ids: &[u16]) -> Option<u128> {
    if ids.len() > DP_MEMO_MAX_DP {
        return None;
    }
    let mut key = 0u128;
    for &id in ids {
        key = key << 16 | id as u128;
    }
    Some(key)
}

/// Default slot count of the open-addressed DP memo. The hit rate falls
/// as dp grows: under the annealer on 128 GPUs (`perf_baseline`'s dp
/// sweep, 200k iterations) it is 99.6 % at pp8·tp8·dp2, 87.5 % at
/// pp4·tp8·dp4 and 65 % at pp2·tp8·dp8. A miss costs one block-kernel
/// recompute, and an eviction degrades to recomputation, never to a
/// wrong answer.
const DP_MEMO_DEFAULT_CAPACITY: usize = 1 << 12;

impl<'a> IncrementalObjective<'a> {
    /// Builds the evaluator for one candidate `(cfg, plan)` over the same
    /// inputs the batch estimator reads, primed on `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `compute` profiles fewer stages than the mapping's `pp`.
    pub fn new(
        matrix: &'a BandwidthMatrix,
        gpt: &'a GptConfig,
        plan: MicrobatchPlan,
        compute: &'a ProfiledCompute,
        initial: &Mapping,
    ) -> Self {
        let cfg = initial.config();
        // The eviction seed is a pure function of the shape, so a given
        // (config, move stream) replays the same hit/miss/evict history in
        // every process (rule D1: replayable from seeds alone).
        let eviction_seed =
            (cfg.pp as u64) << 40 ^ (cfg.dp as u64) << 20 ^ cfg.tp as u64 ^ 0x0050_4950_4554_5445;
        let memo = DpMemo::new(DP_MEMO_DEFAULT_CAPACITY, eviction_seed);
        Self::with_memo(matrix, gpt, plan, compute, initial, memo)
    }

    /// [`Self::new`] over a given memo — tests pass tiny capacities to
    /// force eviction pressure. Memo values are pure in their keys, so the
    /// capacity can never change a result.
    pub fn with_memo(
        matrix: &'a BandwidthMatrix,
        gpt: &'a GptConfig,
        plan: MicrobatchPlan,
        compute: &'a ProfiledCompute,
        initial: &Mapping,
        memo: DpMemo,
    ) -> Self {
        let cfg = initial.config();
        let num_blocks = cfg.pp * cfg.dp;
        let num_hops = cfg.pp.saturating_sub(1) * cfg.dp;
        let mut obj = Self {
            matrix,
            gpt,
            compute,
            cfg,
            plan,
            msg_pp: messages::pp_message_bytes(gpt, plan.micro_batch),
            dp_bytes: Vec::with_capacity(cfg.pp),
            terms: TermTable::default(),
            hier: HierScratch::new(),
            group: Vec::new(),
            block_ids: Vec::with_capacity(num_blocks),
            hop_table: Vec::new(),
            id_node: Vec::with_capacity(num_blocks),
            dp_memo: memo,
            pos_stage: (0..num_blocks).map(|b| (b / cfg.dp) as u16).collect(),
            current_cost: 0.0,
            pending: None,
            // Worst case one move can journal: every hop dirty (a full-span
            // Migration/Reverse), every stage dirty.
            hop_undo: UndoLog::new(num_hops),
            dp_undo: UndoLog::new(cfg.pp),
            // Touched sets dedup on push, so their domains bound them:
            // every hop / every stage dirty at most once per proposal.
            touched_hops: TouchedSet::new(num_hops),
            touched_stages: TouchedSet::new(cfg.pp),
        };
        obj.rebuild(initial);
        obj
    }

    /// Convenience constructor reading the matrix/model out of a batch
    /// estimator, guaranteeing both evaluate the same inputs.
    pub fn from_model(
        model: &PipetteLatencyModel<'a>,
        gpt: &'a GptConfig,
        plan: MicrobatchPlan,
        compute: &'a ProfiledCompute,
        initial: &Mapping,
    ) -> Self {
        Self::new(model.matrix(), gpt, plan, compute, initial)
    }

    /// The cost of the current (committed or in-flight) mapping.
    pub fn cost(&self) -> f64 {
        self.current_cost
    }

    /// Hit/miss/eviction counters of the DP memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.dp_memo.stats()
    }

    /// Gathers `mapping`'s links and prices the term table from them;
    /// the mapping's blocks become the content ids all later proposals
    /// are tracked against.
    fn rebuild(&mut self, mapping: &Mapping) {
        debug_assert_eq!(
            mapping.config(),
            self.cfg,
            "mapping built for another configuration"
        );
        let links = LinkGather::new(self.matrix, self.gpt, PipelineSchedule::OneFOneB, mapping);
        self.terms.price(&links, self.plan, self.compute);
        self.dp_bytes.clear();
        self.dp_bytes.extend_from_slice(&links.dp_bytes);
        let (pp, dp, tp) = (self.cfg.pp, self.cfg.dp, self.cfg.tp.max(1));
        let num_blocks = pp * dp;

        // Content ids: id i names the block at position i of *this*
        // mapping. Earlier ids (from a previous rebuild) are obsolete, and
        // so is everything memoized against them — but the freshly
        // computed dp_times are valid *per stage* under the new ids, so
        // reseed those instead of leaving the whole memo cold: the first
        // rollback to (or re-proposal of) any stage's identity tuple is a
        // hit, not a recompute.
        self.block_ids.clear();
        self.block_ids.extend((0..num_blocks).map(|i| i as u16));
        let topo = self.matrix.topology();
        self.id_node.clear();
        for block in mapping.as_slice().chunks_exact(tp) {
            if !block.iter().all(|&g| topo.same_node(g, block[0])) {
                self.id_node.clear();
                break;
            }
            self.id_node.push(topo.node_of(block[0]).0 as u32);
        }
        self.dp_memo.clear();
        if dp >= 2 {
            for s in 0..pp {
                if let Some(k) = dp_key(&self.block_ids[s * dp..(s + 1) * dp]) {
                    self.dp_memo.insert(s, k, self.terms.dp_times[s]);
                }
            }
        }
        self.hop_table.clear();
        if pp >= 2 && num_blocks * num_blocks <= HOP_TABLE_MAX_ENTRIES {
            let assign = mapping.as_slice();
            for i in 0..num_blocks {
                let a = &assign[i * tp..(i + 1) * tp];
                for j in 0..num_blocks {
                    let b = &assign[j * tp..(j + 1) * tp];
                    self.hop_table.push(if i == j {
                        0.0
                    } else {
                        t_pp_hop_between(self.matrix, a, b, self.msg_pp)
                    });
                }
            }
        }

        self.pending = None;
        self.current_cost = self.reduce();
    }

    // pipette-lint: hot-path
    /// The cost of the table's current contents.
    fn reduce(&mut self) -> f64 {
        self.terms.reduce_latency().total_seconds
    }

    // pipette-lint: hot-path
    /// Marks every hop and stage adjacent to block position `b` dirty.
    ///
    /// With `b = s·dp + z`, the upstream hop `(s−1)·dp + z` is just
    /// `b − dp` and the downstream hop `s·dp + z` is `b` itself, and the
    /// stage comes from the precomputed position table — no division by
    /// the runtime `dp` on the hot path.
    #[inline]
    fn mark_block(&mut self, b: usize) {
        let dp = self.cfg.dp;
        self.touched_stages.push(self.pos_stage[b] as usize);
        if b >= dp {
            self.touched_hops.push(b - dp);
        }
        if b + dp < self.pos_stage.len() {
            self.touched_hops.push(b);
        }
    }
}

impl Objective for IncrementalObjective<'_> {
    fn evaluate(&mut self, mapping: &Mapping) -> f64 {
        self.rebuild(mapping);
        self.current_cost
    }

    // pipette-lint: hot-path
    /// `candidate` must be the last evaluated/committed mapping with `mv`
    /// applied (at `tp`-block granularity), which is exactly how the
    /// annealer drives it. Steady-state allocation-free: every buffer
    /// written here is a fixed-capacity arena sized at construction.
    fn propose(&mut self, mv: Move, candidate: &Mapping) -> f64 {
        debug_assert!(
            self.pending.is_none(),
            "propose while a proposal is in flight"
        );
        // Block contents travel with the move, and the per-block ring
        // all-reduce time depends only on the contents: permute the cache,
        // and the content ids with it.
        mv.apply_to(&mut self.terms.block_allreduce, 1);
        mv.apply_to(&mut self.block_ids, 1);

        self.touched_hops.clear();
        self.touched_stages.clear();
        match mv {
            Move::Swap { a, b } => {
                self.mark_block(a);
                self.mark_block(b);
            }
            Move::Migration { from, to } => {
                for b in from.min(to)..=from.max(to) {
                    self.mark_block(b);
                }
            }
            Move::Reverse { start, end } => {
                for b in start..=end {
                    self.mark_block(b);
                }
            }
        }
        self.hop_undo.clear();
        let (dp, tp) = (self.cfg.dp, self.cfg.tp);
        let num_blocks = self.cfg.pp * dp;
        // Destructure so the touched lists can be iterated directly while
        // the journals and term slots are written (disjoint borrows; the
        // index-loop alternative re-checks bounds on every access).
        let Self {
            touched_hops,
            hop_undo,
            terms,
            hop_table,
            block_ids,
            matrix,
            msg_pp,
            ..
        } = self;
        let hops = &mut terms.hops;
        if hop_table.is_empty() {
            for &h in touched_hops.as_slice() {
                let h = h as usize;
                hop_undo.push(h, hops[h]);
                hops[h] = t_pp_hop(matrix, candidate, *msg_pp, h);
            }
        } else {
            for &h in touched_hops.as_slice() {
                let h = h as usize;
                hop_undo.push(h, hops[h]);
                // The hop's time is tabulated by its content pair.
                let from = block_ids[h] as usize;
                let to = block_ids[h + dp] as usize;
                hops[h] = hop_table[from * num_blocks + to];
            }
        }
        let Self {
            touched_stages,
            dp_undo,
            terms,
            dp_bytes,
            hier,
            group,
            dp_memo,
            block_ids,
            id_node,
            matrix,
            ..
        } = self;
        dp_undo.clear();
        if dp >= 2 {
            let comm = CommModel::new(matrix);
            let width = dp * tp;
            for &s in touched_stages.as_slice() {
                let s = s as usize;
                dp_undo.push(s, terms.dp_times[s]);
                let ids = &block_ids[s * dp..(s + 1) * dp];
                let key = dp_key(ids);
                terms.dp_times[s] = match key.and_then(|k| dp_memo.get(s, k)) {
                    Some(v) => v,
                    None => {
                        let blocks = &candidate.as_slice()[s * width..(s + 1) * width];
                        let bytes = dp_bytes[s];
                        let v = if id_node.is_empty() {
                            t_dp_blocks(matrix, hier, group, blocks, tp, bytes)
                        } else {
                            comm.dp_allreduce_blocks(
                                hier,
                                blocks,
                                tp,
                                |z| id_node[ids[z] as usize] as usize,
                                bytes,
                            )
                        };
                        if let Some(k) = key {
                            dp_memo.insert(s, k, v);
                        }
                        v
                    }
                };
            }
        }

        let cost = self.reduce();
        self.pending = Some(Pending {
            mv,
            prev_cost: self.current_cost,
        });
        self.current_cost = cost;
        cost
    }

    // pipette-lint: hot-path
    fn commit(&mut self) {
        let committed = self.pending.take();
        debug_assert!(committed.is_some(), "commit without a proposal");
    }

    // pipette-lint: hot-path
    fn rollback(&mut self) {
        let Some(p) = self.pending.take() else {
            debug_assert!(false, "rollback without a proposal");
            return;
        };
        let inv = p.mv.inverse();
        inv.apply_to(&mut self.terms.block_allreduce, 1);
        inv.apply_to(&mut self.block_ids, 1);
        for (h, old) in self.hop_undo.entries() {
            self.terms.hops[h] = old;
        }
        for (s, old) in self.dp_undo.entries() {
            self.terms.dp_times[s] = old;
        }
        self.current_cost = p.prev_cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::presets;
    use pipette_model::ParallelConfig;
    use pipette_sim::ComputeProfiler;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (pipette_cluster::Cluster, GptConfig) {
        (
            presets::mid_range(2).build(7),
            GptConfig::new(8, 1024, 16, 2048, 51200),
        )
    }

    /// Drives random moves through the incremental objective and checks
    /// every proposal bit-for-bit against the batch estimator.
    fn parity_run(cfg: ParallelConfig, micro: u64, seed: u64, n_moves: usize) {
        let (cluster, gpt) = setup();
        let plan = MicrobatchPlan::new(64, micro).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 2);
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let mut mapping = Mapping::identity(cfg, *cluster.topology());
        let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &mapping);
        assert_eq!(
            obj.cost().to_bits(),
            model.estimate(cfg, &mapping, plan, &compute).to_bits(),
            "initial cost mismatch"
        );
        let block = cfg.tp.max(1);
        let num_blocks = cfg.num_workers() / block;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in 0..n_moves {
            let mv = Move::random(&mut rng, num_blocks);
            mv.apply(mapping.as_mut_slice(), block);
            let fast = obj.propose(mv, &mapping);
            let slow = model.estimate(cfg, &mapping, plan, &compute);
            assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "move {i} ({mv:?}): {fast} vs {slow}"
            );
            // Alternate accept/reject so both paths get exercised.
            if i % 2 == 0 {
                obj.commit();
            } else {
                obj.rollback();
                mv.inverse().apply(mapping.as_mut_slice(), block);
                let restored = model.estimate(cfg, &mapping, plan, &compute);
                assert_eq!(
                    obj.cost().to_bits(),
                    restored.to_bits(),
                    "rollback {i} diverged"
                );
            }
        }
    }

    #[test]
    fn proposals_match_batch_estimates_bitwise() {
        parity_run(ParallelConfig::new(4, 2, 2), 2, 11, 60);
        parity_run(ParallelConfig::new(2, 4, 2), 1, 12, 60);
        parity_run(ParallelConfig::new(8, 2, 1), 2, 13, 60);
        parity_run(ParallelConfig::new(1, 2, 8), 4, 14, 40);
        parity_run(ParallelConfig::new(4, 1, 4), 2, 15, 40);
    }

    #[test]
    fn fn_objective_matches_closure() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 2);
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
        let model = PipetteLatencyModel::new(&profiled, &gpt);
        let mut f = FnObjective::new(|m: &Mapping| model.estimate(cfg, m, plan, &compute));
        assert_eq!(
            f.evaluate(&mapping),
            model.estimate(cfg, &mapping, plan, &compute)
        );
    }

    #[test]
    #[should_panic(expected = "without a proposal")]
    fn rollback_without_proposal_panics() {
        let (cluster, gpt) = setup();
        let cfg = ParallelConfig::new(2, 4, 2);
        let mapping = Mapping::identity(cfg, *cluster.topology());
        let plan = MicrobatchPlan::new(32, 2).unwrap();
        let gpu = cluster.gpu().clone();
        let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 2);
        let compute =
            ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
        let mut obj = IncrementalObjective::new(profiled.matrix(), &gpt, plan, &compute, &mapping);
        obj.rollback();
    }
}
