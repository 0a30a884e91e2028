//! Configurator performance baseline — writes `BENCH_configurator.json`.
//!
//! Measures, in seconds, and emits one JSON artifact that CI and later
//! runs can diff:
//!
//! * SA objective throughput (evaluations/second) for the full-estimate
//!   path and the incremental objective, and the resulting speedup, on
//!   the paper's 128-GPU mid-range cluster (pp = 8, tp = 8, dp = 2);
//! * end-to-end `Pipette::run` wall-clock on that cluster;
//! * the SA improvement reached by a fixed number of iterations through
//!   the incremental objective, and their rate;
//! * annealer-driven SA throughput across data-parallel widths (dp 2 to
//!   32 on the same 128 GPUs), with each shape's final cost bits;
//! * the memory-estimator fast path: blocked-kernel training vs. the
//!   naive reference loop (extrapolated to the paper's 50k-iteration
//!   protocol), the kernel arm this host runs and its training rate on
//!   the cold-configure shape, proof that `Mlp::fit` is allocation-free
//!   in steady state, row-by-row vs. batched candidate screening, and
//!   cold vs. warm-cache `configure()` wall clock;
//! * serve request latency: a warm `pipette serve` request on a 512-GPU
//!   cluster against one realization of that cluster, and that job's
//!   candidate estimates priced from one link gather per configuration
//!   against one `estimate` call per candidate — two ratios taken in one
//!   run and so comparable across hosts.
//!
//! The report opens with the host it was measured on.
//!
//! `--smoke` shrinks every measurement to a CI-friendly sanity check
//! (same code paths, tiny budgets, no meaning in the absolute numbers).

use pipette::configurator::{Pipette, PipetteOptions};
use pipette::latency::PipetteLatencyModel;
use pipette::mapping::{
    Annealer, AnnealerConfig, IncrementalObjective, Move, Objective, ParallelTemperingAnnealer,
    TemperingSchedule,
};
use pipette::memory::{collect_samples, MemoryEstimator, SampleSpec, TrainedEstimatorCache};
use pipette::parallel;
use pipette::telemetry::SaTraceObserver;
use pipette_cli::{JobSpec, PipetteHandler};
use pipette_cluster::presets;
use pipette_mlp::{kernel_isa, Matrix, Mlp, TrainConfig};
use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
use pipette_obs::json::{self, JsonValue};
use pipette_obs::{SpanTree, Trace, TraceConfig};
use pipette_serve::{ExecContext, ParseOutcome, RequestHandler};
use pipette_sim::{ComputeProfiler, Mapping, MemorySim, ProfiledCompute};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The MLP's reference training loop, which the tests keep as the oracle
/// of `Mlp::fit`: this binary times it as the in-run baseline of the
/// training speedup.
#[path = "../../../mlp/tests/support/reference.rs"]
mod reference;

/// System allocator wrapped with allocation counters, installed as the
/// global allocator of this binary only. This is what turns "the SA hot
/// path is allocation-free" from a code-review claim into a measured,
/// CI-enforced invariant: the steady-state section below snapshots the
/// counters around a propose/commit/rollback loop and aborts the run on
/// any delta.
struct CountingAlloc;

static ALLOCATION_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOCATION_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the added atomics never observe
// or alter the returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOCATION_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOCATION_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is the allocation the arenas exist to prevent; count it.
        ALLOCATION_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOCATION_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCATION_COUNT.load(Ordering::Relaxed),
        ALLOCATION_BYTES.load(Ordering::Relaxed),
    )
}

/// The JSON form of a report field.
trait ToJson {
    fn to_json(&self) -> JsonValue;
}

macro_rules! scalar_to_json {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                (*self).into()
            }
        })*
    };
}

scalar_to_json!(bool, usize, u64, f64);

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        self.as_str().into()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.iter().map(ToJson::to_json).collect()
    }
}

/// Declares one report section: the struct, and its JSON object with a
/// member per field, in declaration order.
macro_rules! section {
    ($(#[$meta:meta])* struct $name:ident {
        $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        struct $name {
            $($(#[$field_meta])* $field: $ty,)*
        }

        impl ToJson for $name {
            fn to_json(&self) -> JsonValue {
                JsonValue::object([$((stringify!($field), self.$field.to_json()),)*])
            }
        }
    };
}

section! {
    struct Report {
        smoke: bool,
        host: Host,
        cluster: ClusterShape,
        objective: ObjectiveThroughput,
        hot_path_allocs: HotPathAllocs,
        end_to_end: EndToEnd,
        sa_budgeted: SaBudgeted,
        dp_sweep: DpSweep,
        pt: ParallelTempering,
        memory_estimator: MemoryEstimatorPerf,
        serve: ServePerf,
        telemetry: TelemetryOverhead,
        reference_trace: ReferenceTrace,
    }
}

section! {
    /// The machine the report was measured on. Every rate in it is an
    /// absolute, host-bound figure.
    struct Host {
        /// The first `model name` in `/proc/cpuinfo`, or `unknown`.
        cpu_model: String,
        available_parallelism: usize,
        os: String,
        arch: String,
    }
}

/// The [`Host`] section for this machine.
fn host() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    Host {
        cpu_model,
        available_parallelism: parallel::default_threads(),
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
    }
}

section! {
    /// The cluster and shape of the end-to-end, budgeted-SA, tempering,
    /// memory-estimator and telemetry sections: 16 nodes at pp8·tp8·dp2,
    /// or 2 nodes at pp4·tp2·dp2 under `--smoke`.
    struct ClusterShape {
        nodes: usize,
        gpus_per_node: usize,
        pp: usize,
        tp: usize,
        dp: usize,
    }
}

section! {
    /// SA objective throughput on 16 nodes at pp8·tp8·dp2 in both modes
    /// (see `objective_throughput`).
    struct ObjectiveThroughput {
        evaluations: usize,
        /// Moves driven through the incremental path. Far more than
        /// `evaluations`: one incremental eval is ~100× cheaper than a full
        /// one, and a run long enough to amortize the one-time memo warmup
        /// (the working set is ~2k keys) is what "steady-state throughput"
        /// means — any real SA run is millions of moves.
        incremental_evaluations: usize,
        full_evals_per_sec: f64,
        incremental_evals_per_sec: f64,
        speedup: f64,
    }
}

section! {
    struct EndToEnd {
        wall_clock_seconds: f64,
        examined: usize,
        memory_rejected: usize,
        estimated_iteration_seconds: f64,
    }
}

section! {
    /// Steady-state allocator activity of the incremental SA loop, measured
    /// with [`CountingAlloc`]: after warmup, `measured_moves` full
    /// propose + commit/rollback cycles must allocate **nothing** — the
    /// undo logs, touched-sets, and DP memo are all arena-backed and sized
    /// at construction. The binary aborts if the count is nonzero, so a
    /// regression can never write a green-looking report.
    struct HotPathAllocs {
        warmup_moves: usize,
        measured_moves: usize,
        allocations: u64,
        allocated_bytes: u64,
    }
}

section! {
    /// Fixed-iteration SA through the incremental objective. Earlier
    /// baselines annealed against a wall-clock budget, which made
    /// `evaluations` and `improvement` machine-speed-dependent — useless to
    /// diff across runs. With the iteration count pinned, both are
    /// deterministic (seeded SA, bit-stable objective) and only the
    /// wall-clock field varies between machines.
    struct SaBudgeted {
        iterations: usize,
        wall_clock_seconds: f64,
        evals_per_sec: f64,
        evaluations: usize,
        improvement: f64,
    }
}

section! {
    /// Annealer-driven SA across data-parallel widths at a fixed GPU count:
    /// `mid_range(16)` (seed 3), GPT-3 1.3B, plan (64, 2), dp 2 to 32.
    /// Smoke and full runs anneal the same shapes for the same iteration
    /// count, so CI floors each shape's smoke rate against its own
    /// committed rate and requires its committed final cost bits. The
    /// full run reports the fastest of `passes` passes, smoke one pass.
    struct DpSweep {
        iterations: usize,
        passes: usize,
        shapes: Vec<DpSweepShape>,
    }
}

section! {
    /// One shape of [`DpSweep`]. Everything but `evals_per_sec` is
    /// deterministic.
    struct DpSweepShape {
        pp: usize,
        tp: usize,
        dp: usize,
        evals_per_sec: f64,
        evaluations: usize,
        improvement: f64,
        final_cost_seconds: f64,
        /// `final_cost_seconds` as hex IEEE-754 bits: the exact answer,
        /// which JSON numbers cannot carry through every reader.
        final_cost_bits: String,
        /// DP memo lookups and hits; stages wider than the memo key
        /// (dp > 8) always recompute and never look up.
        memo_lookups: u64,
        memo_hits: u64,
    }
}

/// The [`DpSweep`] section.
fn dp_sweep(smoke: bool) -> DpSweep {
    let cluster = presets::mid_range(16).build(3);
    let gpt = GptConfig::gpt_3_1b();
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let gpu = cluster.gpu().clone();
    let iterations = 200_000;
    let passes = if smoke { 1 } else { 3 };
    let sa = Annealer::new(AnnealerConfig {
        iterations,
        seed: 2,
        ..Default::default()
    });
    let shapes = [(8, 8, 2), (4, 8, 4), (2, 8, 8), (1, 8, 16), (1, 4, 32)]
        .into_iter()
        .map(|(pp, tp, dp)| {
            let cfg = ParallelConfig::new(pp, tp, dp);
            let compute =
                ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
            let identity = Mapping::identity(cfg, *cluster.topology());
            let mut best = f64::INFINITY;
            let mut result = None;
            for _ in 0..passes {
                let mut obj =
                    IncrementalObjective::from_model(&model, &gpt, plan, &compute, &identity);
                let t0 = Instant::now();
                let (_, cost, stats) = sa.anneal_with(&identity, &mut obj);
                best = best.min(t0.elapsed().as_secs_f64());
                result = Some((cost, stats, obj.memo_stats()));
            }
            let (cost, stats, memo) = result.expect("at least one pass");
            DpSweepShape {
                pp,
                tp,
                dp,
                evals_per_sec: stats.evaluations as f64 / best,
                evaluations: stats.evaluations,
                improvement: stats.improvement(),
                final_cost_seconds: cost,
                final_cost_bits: format!("{:#018x}", cost.to_bits()),
                memo_lookups: memo.hits + memo.misses,
                memo_hits: memo.hits,
            }
        })
        .collect();
    DpSweep {
        iterations,
        passes,
        shapes,
    }
}

/// SA objective throughput (full estimate vs. incremental) and the
/// hot-path allocation proof. Both modes measure the full run's cluster
/// and shape (`mid_range(16)` seed 3, pp8·tp8·dp2); `--smoke` only runs
/// fewer evaluations, so CI floors the smoke rate against the committed
/// rate of the same work. Returns the estimates' checksum as well.
fn objective_throughput(smoke: bool) -> (ObjectiveThroughput, HotPathAllocs, f64) {
    let cluster = presets::mid_range(16).build(3);
    let gpt = GptConfig::gpt_3_1b();
    let cfg = ParallelConfig::new(8, 8, 2);
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let evals = if smoke { 200 } else { 5_000 };

    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let identity = Mapping::identity(cfg, *cluster.topology());
    let block = cfg.tp.max(1);
    let num_blocks = cfg.num_workers() / block;

    // Throughput of the full-estimate path: move, re-estimate everything.
    // Fastest of three passes, same minimum-time estimator as the
    // incremental loop below, so the speedup ratio compares like with
    // like.
    let mut mapping = identity.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut sink = 0.0f64;
    let mut full_elapsed = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..evals {
            let mv = Move::random(&mut rng, num_blocks);
            mv.apply(mapping.as_mut_slice(), block);
            sink += model.estimate(cfg, &mapping, plan, &compute);
        }
        full_elapsed = full_elapsed.min(t0.elapsed().as_secs_f64());
    }

    // Throughput of the incremental path: the same kind of move stream,
    // alternating commit/rollback so both bookkeeping branches are
    // measured. Each pass runs long enough (sub-second — each eval is
    // sub-μs) that the one-time memo/hop-table warmup is amortized away,
    // and the *fastest of three passes* is reported: the minimum-time
    // estimator rejects scheduler and frequency-scaling noise that a
    // single pass is exposed to, while any real slowdown in the code
    // shows up in every pass.
    let inc_evals = if smoke { 100_000 } else { 1_000_000 };
    let inc_passes = 3;
    let mut mapping = identity.clone();
    let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &mapping);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut inc_elapsed = f64::INFINITY;
    for _ in 0..inc_passes {
        let t0 = Instant::now();
        for i in 0..inc_evals {
            let mv = Move::random(&mut rng, num_blocks);
            mv.apply(mapping.as_mut_slice(), block);
            sink += obj.propose(mv, &mapping);
            if i % 2 == 0 {
                obj.commit();
            } else {
                obj.rollback();
                mv.inverse().apply(mapping.as_mut_slice(), block);
            }
        }
        inc_elapsed = inc_elapsed.min(t0.elapsed().as_secs_f64());
    }

    let objective = ObjectiveThroughput {
        evaluations: evals,
        incremental_evaluations: inc_evals,
        full_evals_per_sec: evals as f64 / full_elapsed,
        incremental_evals_per_sec: inc_evals as f64 / inc_elapsed,
        speedup: (full_elapsed / evals as f64) / (inc_elapsed / inc_evals as f64),
    };

    // Zero-allocation proof: keep driving the (already warm) incremental
    // objective and snapshot the global allocator around the loop. Any
    // nonzero delta is a hot-path regression and fails the run outright.
    let warmup_moves = inc_evals * inc_passes;
    let measured_moves = if smoke { 10_000 } else { 200_000 };
    let (alloc0, bytes0) = alloc_snapshot();
    for i in 0..measured_moves {
        let mv = Move::random(&mut rng, num_blocks);
        mv.apply(mapping.as_mut_slice(), block);
        sink += obj.propose(mv, &mapping);
        if i % 2 == 0 {
            obj.commit();
        } else {
            obj.rollback();
            mv.inverse().apply(mapping.as_mut_slice(), block);
        }
    }
    let (alloc1, bytes1) = alloc_snapshot();
    let hot_path_allocs = HotPathAllocs {
        warmup_moves,
        measured_moves,
        allocations: alloc1 - alloc0,
        allocated_bytes: bytes1 - bytes0,
    };
    assert_eq!(
        hot_path_allocs.allocations, 0,
        "SA hot path allocated {} times ({} bytes) over {} moves — the \
         propose/commit/rollback cycle must be allocation-free",
        hot_path_allocs.allocations, hot_path_allocs.allocated_bytes, measured_moves
    );

    (objective, hot_path_allocs, sink)
}

section! {
    /// Parallel tempering: K-chain search throughput, steady-state
    /// allocation proof, and equal-per-chain-budget quality vs. the single
    /// chain.
    ///
    /// The throughput headline is `aggregate_evals_per_sec` =
    /// `total_evaluations / max_chain_busy_seconds`: every chain's busy time
    /// is metered inside its own segments, so the metric is what a box with
    /// one dedicated core per replica sustains — independent of how many
    /// cores *this* machine has (`host.available_parallelism`; CI runs on shared
    /// 1–2-core runners, where wall-clock aggregate throughput would be
    /// meaningless and machine-dependent).
    struct ParallelTempering {
        replicas: usize,
        exchange_interval: usize,
        /// SA iterations per chain (same budget as `sa_budgeted`, so the
        /// quality comparison below is equal wall clock on >= `replicas`
        /// cores).
        chain_iterations: usize,
        total_evaluations: usize,
        wall_clock_seconds: f64,
        max_chain_busy_seconds: f64,
        /// `total_evaluations / max_chain_busy_seconds` — see struct docs.
        aggregate_evals_per_sec: f64,
        /// `sa_budgeted.evals_per_sec`, repeated here so the speedup is
        /// self-contained.
        single_chain_evals_per_sec: f64,
        /// `aggregate_evals_per_sec / single_chain_evals_per_sec`; the full
        /// run asserts >= 3 at 4 replicas.
        speedup_vs_single_chain: f64,
        exchanges_attempted: usize,
        exchanges_accepted: usize,
        steady_state: PtSteadyState,
        /// `sa_budgeted.improvement` — the single chain at the same
        /// per-chain budget and seed.
        equal_budget_single_improvement: f64,
        /// The ladder's merged improvement at that budget. The binary
        /// asserts it is >= the single chain's, which pins the committed
        /// seed, budgets and shape rather than a structural guarantee: the
        /// same comparison at the smoke budgets on the full run's
        /// mid_range(16) pp8·tp8·dp2 shape fell short (0.025016 against
        /// 0.025101).
        equal_budget_tempering_improvement: f64,
    }
}

section! {
    /// K-chain steady-state allocation proof. Measuring "allocations during
    /// the hot loop" directly would catch the ladder's setup (K objectives,
    /// K mapping clones), so instead two *identical* runs that differ only
    /// in per-chain budget are compared: same seed, same ladder, same setup
    /// allocations — any difference in allocator totals is, exactly, what
    /// the extra `measured_moves` steady-state moves and their exchange
    /// rounds allocated. The binary aborts unless that difference is zero.
    struct PtSteadyState {
        short_chain_iterations: usize,
        long_chain_iterations: usize,
        /// `(long - short) * replicas` — the move count the zero-alloc claim
        /// is measured over.
        measured_moves: usize,
        allocations: u64,
        allocated_bytes: u64,
    }
}

section! {
    /// Memory-estimator fast path: training kernel speedup, batch
    /// screening throughput, and the trained-estimator cache. The paper
    /// protocol (50k iterations, five layers × 200 hidden) is extrapolated
    /// from a measured slice — per-iteration cost is constant across the run.
    struct MemoryEstimatorPerf {
        corpus_samples: usize,
        measured_train_iterations: usize,
        fast_train_seconds: f64,
        reference_train_seconds: f64,
        /// Blocked kernels + allocation-free loop vs. the reference loop,
        /// which allocates every step and multiplies through the naive
        /// triple loop; identical arithmetic (the bench asserts bit-equal
        /// losses).
        kernel_train_speedup: f64,
        /// The kernel arm this host trains and predicts on
        /// (`pipette_mlp::kernel_isa`: `avx2` or `portable`).
        kernel_isa: String,
        /// `Mlp::fit` Adam steps/s on the cold-configure shape
        /// `[10, 96, 96, 96, 1]` at batch 128 (what the default
        /// `MemoryEstimatorConfig` trains), fastest of three passes of
        /// `cold_shape_steps`; CI floors the smoke value at 0.8× the
        /// committed full-run value.
        cold_shape_steps: usize,
        cold_shape_steps_per_sec: f64,
        fit_steady_state: FitSteadyState,
        paper_protocol_iterations: usize,
        paper_train_seconds_fast: f64,
        paper_train_seconds_reference: f64,
        single_predictions_per_sec: f64,
        batch_predictions_per_sec: f64,
        batch_screen_speedup: f64,
        /// `configure()` wall clock with an estimator cache, cold (trains)
        /// then warm (fingerprint hit, training skipped entirely).
        cold_configure_seconds: f64,
        warm_configure_seconds: f64,
        warm_cache_hits: u64,
        warm_vs_cold_speedup: f64,
        /// Effective paper-protocol speedup for repeated `configure()` calls:
        /// reference 50k-iteration training vs. a warm cache hit.
        paper_train_vs_cache_hit_speedup: f64,
    }
}

section! {
    /// `Mlp::fit` steady-state allocation proof, measured like
    /// [`PtSteadyState`]: two cold-shape fits that differ only in
    /// iteration count, each recording the same one loss, must allocate
    /// identically — whatever the longer run allocated beyond the shorter
    /// is what its extra steps allocated. The binary aborts unless the
    /// difference is zero.
    struct FitSteadyState {
        short_iterations: usize,
        long_iterations: usize,
        allocations: u64,
        allocated_bytes: u64,
    }
}

section! {
    /// Serve request latency on a cluster too large to rebuild per
    /// request: `high_end(64)` (512 GPUs), GPT-3 3.1B, PPT-L (no worker
    /// dedication). `cluster_build_ms` is the median wall time of
    /// `JobSpec::build_cluster` alone; `warm_request_ms` the median of
    /// identical `PipetteHandler` requests (parse and execute) after one
    /// warm-up request has trained the estimator and stored the cluster
    /// and its profile. The same job's runnable candidates are then
    /// estimated on the identity mapping two ways, bit-identically:
    /// `grouped_estimates_ms` gathers each configuration's links once and
    /// prices every plan from the gather, as the configurator does, and
    /// `per_candidate_estimates_ms` calls `estimate` once per candidate,
    /// each call reading its links again. Both are medians over
    /// `estimate_reps` passes over all candidates. Smoke and full runs
    /// differ only in repetitions; CI asserts
    /// `warm_request_ms < 0.5 × cluster_build_ms` and
    /// `grouped_vs_per_candidate < 0.7`, same-run ratios that hold on any
    /// host only if requests reuse the stored cluster and the plans of a
    /// configuration share one gather.
    struct ServePerf {
        gpus: usize,
        build_reps: usize,
        cluster_build_ms: f64,
        warm_requests: usize,
        warm_request_ms: f64,
        /// `warm_request_ms / cluster_build_ms`.
        warm_request_vs_build: f64,
        candidates: usize,
        configurations: usize,
        estimate_reps: usize,
        grouped_estimates_ms: f64,
        per_candidate_estimates_ms: f64,
        /// `grouped_estimates_ms / per_candidate_estimates_ms`.
        grouped_vs_per_candidate: f64,
    }
}

/// The median of an odd number of samples.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The [`ServePerf`] section.
fn serve_perf(smoke: bool) -> ServePerf {
    let job = concat!(
        r#"{"cluster":{"preset":"high-end","nodes":64,"seed":1005},"#,
        r#""model":{"preset":"gpt-3.1b"},"global_batch":512,"max_micro":8,"#,
        r#""worker_dedication":false,"seed":7,"memory_training_iterations":400}"#
    );
    let spec = JobSpec::parse_strict(job).expect("the serve job spec is valid");
    let build_reps = if smoke { 5 } else { 15 };
    let builds: Vec<f64> = (0..build_reps)
        .map(|_| {
            let t0 = Instant::now();
            let cluster = spec.build_cluster().expect("known preset");
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(cluster.topology().num_gpus(), 512);
            elapsed
        })
        .collect();

    let handler = PipetteHandler::new();
    let line = format!(r#"{{"op":"configure","job":{job}}}"#);
    let request = |seq: u64| {
        let ParseOutcome::Job { job, .. } = handler.parse(&line) else {
            panic!("the serve request must parse as a job");
        };
        let executed = handler.execute(
            job,
            &ExecContext {
                seq,
                degraded: false,
            },
        );
        assert_eq!(executed.outcome, "ok", "{}", executed.response);
        executed.response
    };
    let first = request(0);
    let warm_requests = if smoke { 9 } else { 31 };
    let warm: Vec<f64> = (1..=warm_requests as u64)
        .map(|seq| {
            let t0 = Instant::now();
            let response = request(seq);
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                response.replacen(&format!("\"seq\":{seq},"), "\"seq\":0,", 1),
                first,
                "identical requests must answer identically"
            );
            elapsed
        })
        .collect();
    let cluster_build_ms = median(builds);
    let warm_request_ms = median(warm);
    let estimate_reps = if smoke { 5 } else { 15 };
    let estimates = candidate_estimates(&spec, estimate_reps);
    ServePerf {
        gpus: 512,
        build_reps,
        cluster_build_ms,
        warm_requests,
        warm_request_ms,
        warm_request_vs_build: warm_request_ms / cluster_build_ms,
        candidates: estimates.candidates,
        configurations: estimates.configurations,
        estimate_reps,
        grouped_estimates_ms: estimates.grouped_ms,
        per_candidate_estimates_ms: estimates.per_candidate_ms,
        grouped_vs_per_candidate: estimates.grouped_ms / estimates.per_candidate_ms,
    }
}

/// Median wall times of estimating every runnable candidate of a job.
struct CandidateEstimates {
    candidates: usize,
    configurations: usize,
    grouped_ms: f64,
    per_candidate_ms: f64,
}

/// Estimates `spec`'s runnable candidates (the winner and every
/// alternative of a PPT-L run with an uncapped list) on their identity
/// mappings, `reps` times each way: one gather per configuration priced
/// for each of its plans, and one `estimate` per candidate. Profiles and
/// mappings are built before the clock starts, and both ways must give
/// the same bits.
fn candidate_estimates(spec: &JobSpec, reps: usize) -> CandidateEstimates {
    let cluster = spec.build_cluster().expect("known preset");
    let gpt = spec.build_model().expect("known model");
    let mut options = PipetteOptions {
        max_micro: spec.max_micro,
        seed: spec.seed,
        top_n: usize::MAX,
        threads: 1,
        ..PipetteOptions::default()
    }
    .latency_only();
    options.memory.train.iterations = spec.memory_training_iterations;
    let rec = Pipette::new(&cluster, &gpt, spec.global_batch, options)
        .run()
        .expect("the serve job is feasible");
    let mut candidates: Vec<(ParallelConfig, MicrobatchPlan)> = rec
        .alternatives
        .iter()
        .map(|alt| (alt.config, alt.plan))
        .chain([(rec.config, rec.plan)])
        .collect();
    candidates.sort_by_key(|(c, p)| (c.pp, c.tp, c.dp, p.micro_batch));
    let topo = *cluster.topology();
    let mut configs: Vec<(Mapping, Vec<usize>)> = Vec::new();
    for (i, &(cfg, _)) in candidates.iter().enumerate() {
        match configs.last_mut() {
            Some((mapping, plans)) if mapping.config() == cfg => plans.push(i),
            _ => configs.push((Mapping::identity(cfg, topo), vec![i])),
        }
    }
    let computes: Vec<ProfiledCompute> = candidates
        .iter()
        .map(|&(cfg, plan)| {
            ComputeProfiler::default().profile(
                cluster.bandwidth(),
                cluster.gpu(),
                &gpt,
                cfg,
                plan,
                spec.seed,
            )
        })
        .collect();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), spec.seed);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    // One pass over every candidate, gathered per configuration or not:
    // its wall milliseconds and the estimates' bits.
    let pass = |grouped: bool| {
        let mut bits = Vec::with_capacity(candidates.len());
        let t0 = Instant::now();
        for (mapping, plans) in &configs {
            let links = grouped.then(|| model.gather(mapping));
            for &i in plans {
                let (cfg, plan) = candidates[i];
                let estimate = match &links {
                    Some(links) => links.estimate(plan, &computes[i]),
                    None => model.estimate(cfg, mapping, plan, &computes[i]),
                };
                bits.push(estimate.to_bits());
            }
        }
        (t0.elapsed().as_secs_f64() * 1e3, bits)
    };
    let mut grouped = Vec::with_capacity(reps);
    let mut per_candidate = Vec::with_capacity(reps);
    for rep in 0..reps {
        // Alternate which way runs first, so neither always finds the
        // other's warm caches.
        let ((g_ms, g_bits), (p_ms, p_bits)) = if rep % 2 == 0 {
            (pass(true), pass(false))
        } else {
            let p = pass(false);
            (pass(true), p)
        };
        assert_eq!(
            g_bits, p_bits,
            "a gathered price diverged from its estimate"
        );
        grouped.push(g_ms);
        per_candidate.push(p_ms);
    }
    CandidateEstimates {
        candidates: candidates.len(),
        configurations: configs.len(),
        grouped_ms: median(grouped),
        per_candidate_ms: median(per_candidate),
    }
}

section! {
    /// Cost of the observability layer on the SA hot path: the same
    /// annealing run with the no-op observer vs. a recording
    /// [`SaTraceObserver`] at the default sampling cadence. The observed run
    /// must stay bit-identical and within a few percent of the plain one.
    struct TelemetryOverhead {
        sa_iterations: usize,
        plain_evals_per_sec: f64,
        traced_evals_per_sec: f64,
        /// `(plain - traced) / plain` throughput loss; target < 0.05.
        overhead_fraction: f64,
        trace_events: usize,
    }
}

section! {
    /// The committed reference trace: a fixed small job — identical
    /// in smoke and full runs, and identical to the `tests/telemetry.rs`
    /// reference shape — traced at the default cadence and written to
    /// `BENCH_trace.jsonl`. CI uploads the file and gates it with
    /// `pipette-cli trace check` against the committed `trace_budgets.json`,
    /// so the ceilings are on *logical* work (span costs, event counts) and
    /// are machine-independent. The binary itself asserts the span stream is
    /// balanced and bit-stable across two back-to-back runs.
    struct ReferenceTrace {
        path: String,
        seed: u64,
        total_lines: usize,
        span_instances: usize,
        span_names: Vec<String>,
        /// Total SA objective evaluations (the `anneal` span's cost).
        anneal_evals: u64,
        /// Screened-in candidates (the `estimates` span's cost).
        estimated_candidates: u64,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nodes = if smoke { 2 } else { 16 };
    let cluster = presets::mid_range(nodes).build(3);
    let gpt = GptConfig::gpt_3_1b();
    let cfg = if smoke {
        ParallelConfig::new(4, 2, 2)
    } else {
        ParallelConfig::new(8, 8, 2)
    };
    let plan = MicrobatchPlan::new(64, 2).unwrap();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), 3);
    let gpu = cluster.gpu().clone();
    let compute = ComputeProfiler::default().profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, 3);
    let model = PipetteLatencyModel::new(&profiled, &gpt);
    let identity = Mapping::identity(cfg, *cluster.topology());
    let (objective, hot_path_allocs, sink) = objective_throughput(smoke);

    // End-to-end Algorithm 1 on the same cluster, with a modest memory
    // training budget (the estimator is trained once per cluster in
    // practice and its cost is reported separately in Table II).
    let mut options = PipetteOptions::fast_test();
    options.seed = 3;
    if smoke {
        options.sa_top_k = 1;
        options.annealer.iterations = 200;
    }
    let t0 = Instant::now();
    let rec = Pipette::new(&cluster, &gpt, 256, options)
        .run()
        .expect("feasible space");
    let end_to_end = EndToEnd {
        wall_clock_seconds: t0.elapsed().as_secs_f64(),
        examined: rec.examined,
        memory_rejected: rec.memory_rejected,
        estimated_iteration_seconds: rec.estimated_seconds,
    };

    // Fixed-iteration SA: how much mapping improvement a known number of
    // incremental evaluations buys (deterministic — see `SaBudgeted`).
    let budget_iters = if smoke { 5_000 } else { 1_500_000 };
    let sa = Annealer::new(AnnealerConfig {
        iterations: budget_iters,
        seed: 2,
        ..Default::default()
    });
    let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &identity);
    let t0 = Instant::now();
    let (_, _, stats) = sa.anneal_with(&identity, &mut obj);
    let budget_elapsed = t0.elapsed().as_secs_f64();
    let sa_budgeted = SaBudgeted {
        iterations: budget_iters,
        wall_clock_seconds: budget_elapsed,
        evals_per_sec: stats.evaluations as f64 / budget_elapsed,
        evaluations: stats.evaluations,
        improvement: stats.improvement(),
    };

    let dp_sweep = dp_sweep(smoke);

    // Parallel tempering: the same per-chain budget and seed as
    // `sa_budgeted`, K = 4 replicas on the default ladder. One core per
    // chain is the deployment model, so throughput is metered on busy
    // time (see `ParallelTempering` docs) and the quality row is the
    // equal-wall-clock comparison on a >= 4-core box.
    let pt_replicas = 4usize;
    let pt_schedule = TemperingSchedule {
        replicas: pt_replicas,
        ..Default::default()
    };
    let pt = ParallelTemperingAnnealer::new(
        AnnealerConfig {
            iterations: budget_iters,
            seed: 2,
            ..Default::default()
        },
        pt_schedule,
    );
    let pt_threads = parallel::default_threads().min(pt_replicas);
    let t0 = Instant::now();
    let (_, _, pt_stats) = pt.anneal(pt_threads, &identity, |_, init| {
        IncrementalObjective::from_model(&model, &gpt, plan, &compute, init)
    });
    let pt_wall = t0.elapsed().as_secs_f64();
    let pt_merged = pt_stats.merged();
    let max_busy = pt_stats
        .replica_stats
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .fold(0.0f64, f64::max);
    let aggregate_evals_per_sec = pt_merged.evaluations as f64 / max_busy.max(1e-12);
    let speedup_vs_single_chain = aggregate_evals_per_sec / sa_budgeted.evals_per_sec;

    // Steady-state allocation proof: two runs differing only in budget
    // (sequential, so the allocator totals are single-threaded and
    // exact); equal totals mean the extra moves allocated nothing.
    let pt_short_iters = if smoke { 2_500 } else { 50_000 };
    let pt_long_iters = if smoke { 5_000 } else { 100_000 };
    let pt_alloc_run = |iters: usize| -> (u64, u64) {
        let pt = ParallelTemperingAnnealer::new(
            AnnealerConfig {
                iterations: iters,
                seed: 2,
                ..Default::default()
            },
            pt_schedule,
        );
        let (a0, b0) = alloc_snapshot();
        let _ = pt.anneal(1, &identity, |_, init| {
            IncrementalObjective::from_model(&model, &gpt, plan, &compute, init)
        });
        let (a1, b1) = alloc_snapshot();
        (a1 - a0, b1 - b0)
    };
    let (short_allocs, short_bytes) = pt_alloc_run(pt_short_iters);
    let (long_allocs, long_bytes) = pt_alloc_run(pt_long_iters);
    let pt_measured_moves = (pt_long_iters - pt_short_iters) * pt_replicas;
    let steady_state = PtSteadyState {
        short_chain_iterations: pt_short_iters,
        long_chain_iterations: pt_long_iters,
        measured_moves: pt_measured_moves,
        allocations: long_allocs.saturating_sub(short_allocs),
        allocated_bytes: long_bytes.saturating_sub(short_bytes),
    };
    assert_eq!(
        long_allocs,
        short_allocs,
        "tempering steady state allocated {} times ({} bytes) over {} \
         moves — chain stepping and replica exchange must be \
         allocation-free",
        long_allocs.saturating_sub(short_allocs),
        long_bytes.saturating_sub(short_bytes),
        pt_measured_moves
    );
    // Deterministic (seeded), so the outcome is the same on every
    // machine; it pins the committed seed, budgets and shapes, not a law
    // of tempering (at other seeds or budgets the ladder can trail the
    // single chain; see `equal_budget_tempering_improvement`).
    assert!(
        pt_merged.improvement() >= sa_budgeted.improvement,
        "tempering improvement {} fell below the single chain's {} at \
         equal per-chain budget",
        pt_merged.improvement(),
        sa_budgeted.improvement
    );
    if !smoke {
        // Timing-based, so only enforced on the full run (smoke budgets
        // finish in microseconds and the ratio is all noise).
        assert!(
            speedup_vs_single_chain >= 3.0,
            "aggregate tempering throughput is only {speedup_vs_single_chain:.2}x \
             the single chain's (need >= 3x at 4 replicas)"
        );
    }
    let pt = ParallelTempering {
        replicas: pt_replicas,
        exchange_interval: pt_schedule.exchange_interval,
        chain_iterations: budget_iters,
        total_evaluations: pt_merged.evaluations,
        wall_clock_seconds: pt_wall,
        max_chain_busy_seconds: max_busy,
        aggregate_evals_per_sec,
        single_chain_evals_per_sec: sa_budgeted.evals_per_sec,
        speedup_vs_single_chain,
        exchanges_attempted: pt_stats.exchanges_attempted,
        exchanges_accepted: pt_stats.exchanges_accepted,
        steady_state,
        equal_budget_single_improvement: sa_budgeted.improvement,
        equal_budget_tempering_improvement: pt_merged.improvement(),
    };

    // Memory-estimator fast path: a deterministic profiling corpus (the
    // shape the configurator's ≤ 4-node sweep produces), the paper's MLP
    // architecture, and the three measured claims — training kernel
    // speedup, batched screening throughput, cache-hit wall clock.
    let spec = SampleSpec {
        gpu_counts: vec![8, 16, 32],
        gpus_per_node: 8,
        models: vec![
            GptConfig::new(8, 1024, 16, 2048, 51200),
            GptConfig::new(16, 1536, 16, 2048, 51200),
        ],
        global_batches: vec![64],
        max_micro: 4,
    };
    let samples = collect_samples(&spec, &MemorySim::new(1));
    let x_rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| s.features.iter().map(|f| f.max(1.0).ln()).collect())
        .collect();
    let x_refs: Vec<&[f64]> = x_rows.iter().map(|r| r.as_slice()).collect();
    let x = Matrix::from_rows(&x_refs);
    let y_data: Vec<f64> = samples
        .iter()
        .map(|s| (s.peak_bytes as f64 / 1e9).ln())
        .collect();
    let y = Matrix::from_vec(y_data.len(), 1, y_data);

    let measured_iters = if smoke { 25 } else { 400 };
    let train_cfg = TrainConfig {
        iterations: measured_iters,
        learning_rate: 1e-3,
        batch_size: 128,
        record_every: 100,
        seed: 0,
    };
    let mut fast_mlp = Mlp::paper_architecture(10, 0);
    let t0 = Instant::now();
    let fast_report = fast_mlp.fit(&x, &y, &train_cfg);
    let fast_train = t0.elapsed().as_secs_f64();
    let mut ref_mlp = Mlp::paper_architecture(10, 0);
    let t0 = Instant::now();
    let ref_report = reference::fit_reference(&mut ref_mlp, &x, &y, &train_cfg);
    let ref_train = t0.elapsed().as_secs_f64();
    assert_eq!(
        fast_report.final_loss.to_bits(),
        ref_report.final_loss.to_bits(),
        "fast and reference training must agree bit-for-bit"
    );
    let paper_iters = 50_000usize;
    let scale = paper_iters as f64 / measured_iters as f64;

    // The cold-configure shape: its training rate, and proof that its
    // steady state allocates nothing. `record_every` exceeds every run
    // below, so each records exactly one loss.
    let cold_widths = [10usize, 96, 96, 96, 1];
    let cold_cfg = |iterations| TrainConfig {
        iterations,
        learning_rate: 1.5e-3,
        batch_size: 128,
        record_every: 1_000,
        seed: 0,
    };
    let cold_steps = if smoke { 100 } else { 500 };
    let mut cold_best = f64::INFINITY;
    for _ in 0..3 {
        let mut mlp = Mlp::new(&cold_widths, 0);
        let t0 = Instant::now();
        mlp.fit(&x, &y, &cold_cfg(cold_steps));
        cold_best = cold_best.min(t0.elapsed().as_secs_f64());
    }
    let fit_alloc_run = |iterations: usize| -> (u64, u64) {
        let mut mlp = Mlp::new(&cold_widths, 0);
        let (a0, b0) = alloc_snapshot();
        let report = mlp.fit(&x, &y, &cold_cfg(iterations));
        let (a1, b1) = alloc_snapshot();
        assert_eq!(report.loss_curve.len(), 1, "each run records one loss");
        (a1 - a0, b1 - b0)
    };
    let (fit_short, fit_long) = if smoke { (50, 100) } else { (200, 400) };
    let (short_allocs, short_bytes) = fit_alloc_run(fit_short);
    let (long_allocs, long_bytes) = fit_alloc_run(fit_long);
    let fit_steady_state = FitSteadyState {
        short_iterations: fit_short,
        long_iterations: fit_long,
        allocations: long_allocs.abs_diff(short_allocs),
        allocated_bytes: long_bytes.abs_diff(short_bytes),
    };
    assert_eq!(
        (long_allocs, long_bytes),
        (short_allocs, short_bytes),
        "Mlp::fit allocated {} more times ({} bytes) over {} extra steps — \
         the training loop must be allocation-free after setup",
        fit_steady_state.allocations,
        fit_steady_state.allocated_bytes,
        fit_long - fit_short
    );

    // Screening throughput: one row at a time vs. one batched forward
    // pass over the whole candidate set.
    let mut est_cfg = pipette::memory::MemoryEstimatorConfig::default();
    est_cfg.train.iterations = if smoke { 150 } else { 1_500 };
    est_cfg.hidden = 32;
    est_cfg.depth = 2;
    let estimator = MemoryEstimator::train(&samples, &est_cfg);
    let features: Vec<[f64; 10]> = samples.iter().map(|s| s.features).collect();
    let reps = if smoke { 3 } else { 20 };
    let t0 = Instant::now();
    let mut single_sink = 0u64;
    for _ in 0..reps {
        for f in &features {
            single_sink = single_sink.wrapping_add(estimator.predict_bytes(f));
        }
    }
    let single_elapsed = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut batch_sink = 0u64;
    for _ in 0..reps {
        for p in estimator.predict_bytes_batch(&features, 1) {
            batch_sink = batch_sink.wrapping_add(p);
        }
    }
    let batch_elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(
        single_sink, batch_sink,
        "batch screen must match row-by-row"
    );
    let predictions = (reps * features.len()) as f64;

    // Cache: cold `configure()` trains; warm hits the fingerprint and
    // skips training entirely.
    let cache = TrainedEstimatorCache::in_memory();
    let t0 = Instant::now();
    let cold_rec = Pipette::new(&cluster, &gpt, 256, options)
        .with_estimator_cache(&cache)
        .run()
        .expect("feasible space");
    let cold_configure = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm_rec = Pipette::new(&cluster, &gpt, 256, options)
        .with_estimator_cache(&cache)
        .run()
        .expect("feasible space");
    let warm_configure = t0.elapsed().as_secs_f64();
    assert_eq!(cold_rec.config, warm_rec.config);
    assert_eq!(cold_rec.plan, warm_rec.plan);
    assert!(cache.hits() > 0, "warm configure() must hit the cache");
    let warm_training = warm_rec.overhead.memory_training.as_secs_f64();

    let memory_estimator = MemoryEstimatorPerf {
        corpus_samples: samples.len(),
        measured_train_iterations: measured_iters,
        fast_train_seconds: fast_train,
        reference_train_seconds: ref_train,
        kernel_train_speedup: ref_train / fast_train,
        kernel_isa: kernel_isa().to_string(),
        cold_shape_steps: cold_steps,
        cold_shape_steps_per_sec: cold_steps as f64 / cold_best,
        fit_steady_state,
        paper_protocol_iterations: paper_iters,
        paper_train_seconds_fast: fast_train * scale,
        paper_train_seconds_reference: ref_train * scale,
        single_predictions_per_sec: predictions / single_elapsed,
        batch_predictions_per_sec: predictions / batch_elapsed,
        batch_screen_speedup: single_elapsed / batch_elapsed,
        cold_configure_seconds: cold_configure,
        warm_configure_seconds: warm_configure,
        warm_cache_hits: cache.hits(),
        warm_vs_cold_speedup: cold_configure / warm_configure,
        paper_train_vs_cache_hit_speedup: (ref_train * scale) / warm_training.max(1e-9),
    };

    let serve = serve_perf(smoke);

    // Telemetry overhead on the SA hot path: identical annealing runs,
    // no-op observer vs. default-cadence trace recording. Best-of-3 on
    // each side to damp scheduler noise.
    let sa_iters = if smoke { 2_000 } else { 200_000 };
    let sa = Annealer::new(AnnealerConfig {
        iterations: sa_iters,
        seed: 2,
        ..Default::default()
    });
    let mut plain_best = f64::INFINITY;
    let mut traced_best = f64::INFINITY;
    let mut plain_cost = 0.0f64;
    let mut traced_cost = 0.0f64;
    let mut trace_events = 0usize;
    for _ in 0..3 {
        let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &identity);
        let t0 = Instant::now();
        let (_, cost, _) = sa.anneal_with(&identity, &mut obj);
        plain_best = plain_best.min(t0.elapsed().as_secs_f64());
        plain_cost = cost;

        let mut obj = IncrementalObjective::from_model(&model, &gpt, plan, &compute, &identity);
        let mut trace = Trace::new(TraceConfig::default());
        let mut observer = SaTraceObserver::new(&mut trace, 0);
        let t0 = Instant::now();
        let (_, cost, stats) = sa.anneal_observed(&identity, &mut obj, &mut observer);
        traced_best = traced_best.min(t0.elapsed().as_secs_f64());
        traced_cost = cost;
        observer.finish(&stats);
        trace_events = trace.len();
    }
    assert_eq!(
        plain_cost.to_bits(),
        traced_cost.to_bits(),
        "recording telemetry must not change the search"
    );
    let telemetry = TelemetryOverhead {
        sa_iterations: sa_iters,
        plain_evals_per_sec: sa_iters as f64 / plain_best,
        traced_evals_per_sec: sa_iters as f64 / traced_best,
        overhead_fraction: 1.0 - plain_best / traced_best.max(1e-12),
        trace_events,
    };
    if !smoke {
        // Timing-based, so only enforced on the full run: span + event
        // recording must cost less than 5% of SA throughput.
        assert!(
            telemetry.overhead_fraction < 0.05,
            "telemetry overhead is {:.2}% of SA throughput (need < 5%)",
            100.0 * telemetry.overhead_fraction
        );
    }

    // Reference trace for the CI budget gate: a fixed job whose logical
    // trace is identical on every machine and in smoke and full modes,
    // so `trace_budgets.json` ceilings apply to both.
    let reference_trace = {
        let ref_cluster = presets::mid_range(2).build(5);
        let ref_gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let mut ref_options = PipetteOptions::fast_test();
        ref_options.seed = 21;
        let run = || -> Trace {
            let mut trace = Trace::new(TraceConfig::default());
            Pipette::new(&ref_cluster, &ref_gpt, 64, ref_options)
                .run_traced(&mut trace)
                .expect("reference job is feasible");
            trace
        };
        let trace = run();
        let again = run();
        assert_eq!(
            trace.to_jsonl(),
            again.to_jsonl(),
            "reference trace must be bit-stable across runs"
        );
        let tree = SpanTree::from_trace(&trace).expect("reference span stream is balanced");
        let rollups = tree.rollups();
        let span_cost = |name: &str| {
            rollups
                .iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.cost)
        };
        let path = "BENCH_trace.jsonl";
        trace
            .write_jsonl(std::path::Path::new(path))
            .expect("write BENCH_trace.jsonl");
        ReferenceTrace {
            path: path.to_string(),
            seed: ref_options.seed,
            total_lines: trace.len(),
            span_instances: tree.nodes().len(),
            span_names: rollups.iter().map(|r| r.name.clone()).collect(),
            anneal_evals: span_cost("anneal"),
            estimated_candidates: span_cost("estimates"),
        }
    };

    let report = Report {
        smoke,
        host: host(),
        cluster: ClusterShape {
            nodes,
            gpus_per_node: cluster.topology().gpus_per_node(),
            pp: cfg.pp,
            tp: cfg.tp,
            dp: cfg.dp,
        },
        objective,
        hot_path_allocs,
        end_to_end,
        sa_budgeted,
        dp_sweep,
        pt,
        memory_estimator,
        serve,
        telemetry,
        reference_trace,
    };

    let json = json::render_pretty(&report.to_json());
    std::fs::write("BENCH_configurator.json", &json).expect("write BENCH_configurator.json");
    println!("{json}");
    eprintln!(
        "wrote BENCH_configurator.json  (objective speedup: {:.1}x, tempering aggregate: {:.1}x, telemetry overhead: {:.2}%, checksum {sink:.3})",
        report.objective.speedup,
        report.pt.speedup_vs_single_chain,
        100.0 * report.telemetry.overhead_fraction
    );
    eprintln!(
        "wrote {}  ({} lines, {} span instances, anneal cost {} evals)",
        report.reference_trace.path,
        report.reference_trace.total_lines,
        report.reference_trace.span_instances,
        report.reference_trace.anneal_evals
    );
}
