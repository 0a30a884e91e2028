//! The telemetry event vocabulary and its JSONL encoding.
//!
//! One [`Event`] becomes one JSON object on one line, written with the
//! canonical [`crate::json`] writer. Field order is fixed (`seq`,
//! `kind`, payload fields in declaration order, then the optional
//! `wall_ms` annotation), floats use Rust's shortest round-trip
//! formatting, and non-finite floats serialize as `null` — so
//! byte-equality of two trace files is exactly event-equality.

use crate::json::Obj;
use std::fmt::Write as _;

/// Version stamp recorded in the `run_start` event; bump when the event
/// vocabulary or field meanings change incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// One telemetry event: a typed payload plus the optional wall-clock
/// annotation (milliseconds since the trace epoch).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Milliseconds since [`crate::Trace`] creation, present only when
    /// [`crate::TraceConfig::wall_clock`] is on. Excluded from
    /// bit-comparability guarantees.
    pub wall_ms: Option<f64>,
    /// The payload.
    pub kind: EventKind,
}

/// Everything the Pipette pipeline can report. Logical coordinates
/// (candidate rank, SA iteration, training iteration, …) live inside the
/// payload; the global sequence number is the JSONL line index.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A configurator run began.
    RunStart {
        /// Telemetry schema version ([`SCHEMA_VERSION`]).
        schema: u32,
        /// Search seed of the run.
        seed: u64,
        /// GPUs in the target cluster.
        gpus: usize,
        /// Global batch size being configured for.
        global_batch: u64,
    },
    /// The memory estimator finished training (or loaded from cache).
    MemTrain {
        /// Profiled samples in the training corpus.
        samples: usize,
        /// Adam iterations taken.
        iterations: usize,
        /// Loss of the final step.
        final_loss: f64,
        /// Whether the estimator came out of a [`cache`](Self::CacheStats)
        /// rather than being trained in this run.
        cached: bool,
    },
    /// One recorded point of the memory-estimator training loss curve.
    MemLoss {
        /// Training iteration the loss was sampled at.
        iteration: usize,
        /// Minibatch loss at that iteration.
        loss: f64,
    },
    /// Outcome of the batched memory screen over the candidate space.
    MemScreen {
        /// Candidates examined (Algorithm 1 loop trips).
        examined: usize,
        /// Candidates that passed the screen.
        accepted: usize,
        /// Candidates rejected as not runnable.
        rejected: usize,
    },
    /// Predicted memory headroom of the final recommendation.
    MemHeadroom {
        /// Estimator-predicted peak bytes of the recommended config.
        predicted_bytes: u64,
        /// Per-GPU memory capacity.
        limit_bytes: u64,
        /// Soft margin the screen applied on top of the prediction.
        soft_margin: f64,
        /// `1 - predicted/limit` — slack before the raw prediction
        /// exhausts the GPU.
        headroom_fraction: f64,
    },
    /// Trained-estimator cache counters at the end of the run.
    CacheStats {
        /// Lookups answered from memory or disk.
        hits: u64,
        /// Lookups that had to train.
        misses: u64,
        /// On-disk entries that existed but failed to parse (retrained).
        corrupt: u64,
    },
    /// Eq. 3–6 term breakdown of one screened candidate under the
    /// identity mapping.
    LatencyEstimate {
        /// Candidate index in enumeration order.
        candidate: usize,
        /// Pipeline ways.
        pp: usize,
        /// Tensor ways.
        tp: usize,
        /// Data ways.
        dp: usize,
        /// Microbatch size.
        micro_batch: u64,
        /// Microbatches per iteration per replica.
        n_microbatches: u64,
        /// Total estimated iteration seconds.
        seconds: f64,
        /// Pipeline fill/drain bubble term (Eq. 4).
        t_bubble: f64,
        /// Straggler steady-state term (Eq. 4).
        t_straggler: f64,
        /// Hidden-critical-path term (§V).
        t_hidden: f64,
        /// Exposed data-parallel all-reduce term (Eq. 6).
        t_dp: f64,
        /// Stage with the largest compute + TP cost.
        straggler_stage: usize,
    },
    /// One simulated-annealing move (sampled every
    /// [`crate::TraceConfig::sa_move_sample_every`] iterations).
    SaMove {
        /// Candidate rank (0 = best identity estimate) this SA pass
        /// belongs to.
        candidate: usize,
        /// Tempering replica the chain runs as (0 for single-chain SA).
        replica: usize,
        /// SA iteration within the pass.
        iteration: usize,
        /// Move kind (`"migration"`, `"swap"`, `"reverse"`).
        kind: &'static str,
        /// Objective delta of the proposal (ΔJ, seconds).
        delta: f64,
        /// Temperature at the decision.
        temperature: f64,
        /// Whether the move was accepted.
        accepted: bool,
    },
    /// Rolling SA convergence summary (every
    /// [`crate::TraceConfig::sa_summary_every`] iterations).
    SaSummary {
        /// Candidate rank this SA pass belongs to.
        candidate: usize,
        /// Tempering replica the chain runs as (0 for single-chain SA).
        replica: usize,
        /// SA iteration the window ended at.
        iteration: usize,
        /// Accepted / proposed within the window.
        acceptance_rate: f64,
        /// Objective of the current mapping.
        current_cost: f64,
        /// Best objective seen so far.
        best_cost: f64,
        /// Temperature at the end of the window.
        temperature: f64,
    },
    /// Final statistics of one SA pass.
    SaResult {
        /// Candidate rank this SA pass belongs to.
        candidate: usize,
        /// Tempering replica the chain ran as (0 for single-chain SA).
        replica: usize,
        /// Objective evaluations performed.
        evaluations: usize,
        /// Accepted moves (including uphill).
        accepted: usize,
        /// Strict best-cost improvements.
        improvements: usize,
        /// Cost of the initial (identity) mapping.
        initial_cost: f64,
        /// Cost of the best mapping found.
        best_cost: f64,
    },
    /// One parallel-tempering replica-exchange decision between the
    /// adjacent ladder rungs `replica_lo` (colder) and `replica_hi`.
    PtExchange {
        /// Candidate rank this tempering pass belongs to.
        candidate: usize,
        /// Exchange round (one per `exchange_interval` iterations).
        round: usize,
        /// Colder replica of the pair.
        replica_lo: usize,
        /// Hotter replica of the pair (`replica_lo + 1`).
        replica_hi: usize,
        /// Colder slot's temperature at the decision.
        temp_lo: f64,
        /// Hotter slot's temperature at the decision.
        temp_hi: f64,
        /// Colder slot's current objective before the decision (seconds).
        cost_lo: f64,
        /// Hotter slot's current objective before the decision (seconds).
        cost_hi: f64,
        /// Whether the states were swapped.
        accepted: bool,
    },
    /// The winning configuration with its full Eq. 3–6 breakdown.
    Recommendation {
        /// Pipeline ways.
        pp: usize,
        /// Tensor ways.
        tp: usize,
        /// Data ways.
        dp: usize,
        /// Microbatch size.
        micro_batch: u64,
        /// Microbatches per iteration per replica.
        n_microbatches: u64,
        /// Estimated iteration seconds under the chosen mapping.
        seconds: f64,
        /// Pipeline fill/drain bubble term.
        t_bubble: f64,
        /// Straggler steady-state term.
        t_straggler: f64,
        /// Hidden-critical-path term.
        t_hidden: f64,
        /// Exposed data-parallel all-reduce term.
        t_dp: f64,
        /// Optimizer-step constant.
        t_optimizer: f64,
        /// Stage with the largest compute + TP cost.
        straggler_stage: usize,
        /// Source GPU of the slowest pipeline hop (absent when `pp = 1`).
        slow_link_from: Option<usize>,
        /// Destination GPU of the slowest pipeline hop.
        slow_link_to: Option<usize>,
        /// Round-trip seconds over that hop.
        slow_link_seconds: Option<f64>,
    },
    /// One ranked runner-up configuration.
    Alternative {
        /// Rank (1 = first runner-up).
        rank: usize,
        /// Pipeline ways.
        pp: usize,
        /// Tensor ways.
        tp: usize,
        /// Data ways.
        dp: usize,
        /// Microbatch size.
        micro_batch: u64,
        /// Identity-mapping estimated iteration seconds.
        seconds: f64,
        /// Estimate delta vs. the recommendation (seconds, ≥ 0).
        delta_seconds: f64,
    },
    /// One executed pipeline task exported from the simulator's trace.
    SimTask {
        /// Pipeline stage (device) the task ran on.
        stage: usize,
        /// `"F"` (forward) or `"B"` (backward).
        kind: &'static str,
        /// Microbatch index.
        microbatch: u64,
        /// Start time, simulated seconds.
        start: f64,
        /// Finish time, simulated seconds.
        finish: f64,
    },
    /// A fault plan was applied to the run (counts only; the full plan
    /// lives in the caller's `--faults` file).
    FaultPlanApplied {
        /// Plan seed.
        plan_seed: u64,
        /// Degraded node-to-node links.
        degraded_links: usize,
        /// Straggler GPUs.
        straggler_gpus: usize,
        /// Explicitly failed GPUs.
        failed_gpus: usize,
        /// Explicitly failed nodes.
        failed_nodes: usize,
        /// Pairs with injected corrupt readings.
        corrupt_pairs: usize,
        /// Per-attempt measurement failure probability.
        measurement_failure_rate: f64,
        /// Per-sample memory-profile loss probability.
        sample_loss_rate: f64,
    },
    /// A profiled pair needed retries and/or discarded corrupt samples.
    ProfilerRetry {
        /// Source GPU.
        from: usize,
        /// Destination GPU.
        to: usize,
        /// Extra attempts beyond the requested repeats.
        retries: usize,
        /// Samples discarded as NaN/zero/implausible.
        corrupt_samples: usize,
        /// Whether a valid measurement was eventually obtained (false
        /// means the pair fell through to imputation).
        recovered: bool,
    },
    /// A profiled pair exhausted its retries and was imputed from
    /// topology priors.
    PairImputed {
        /// Source GPU.
        from: usize,
        /// Destination GPU.
        to: usize,
        /// The imputed bandwidth in GiB/s.
        gib_s: f64,
        /// Attempts spent before giving up.
        retries: usize,
    },
    /// A GPU was excluded from configuration (its node is cordoned).
    GpuExcluded {
        /// The excluded GPU.
        gpu: usize,
        /// Its (cordoned) host node.
        node: usize,
    },
    /// A pipeline component degraded to a simpler fallback.
    Fallback {
        /// The component that degraded (e.g. `"memory_estimator"`).
        component: String,
        /// Why the fallback was taken.
        reason: String,
    },
    /// Diff between the healthy-cluster recommendation and the one
    /// recomputed for the surviving subcluster.
    Reconfiguration {
        /// Healthy pipeline ways.
        healthy_pp: usize,
        /// Healthy tensor ways.
        healthy_tp: usize,
        /// Healthy data ways.
        healthy_dp: usize,
        /// Healthy microbatch size.
        healthy_micro: u64,
        /// Healthy estimated iteration seconds.
        healthy_seconds: f64,
        /// Degraded pipeline ways.
        degraded_pp: usize,
        /// Degraded tensor ways.
        degraded_tp: usize,
        /// Degraded data ways.
        degraded_dp: usize,
        /// Degraded microbatch size.
        degraded_micro: u64,
        /// Degraded estimated iteration seconds.
        degraded_seconds: f64,
        /// GPUs in the healthy cluster.
        healthy_gpus: usize,
        /// GPUs surviving the fault plan.
        surviving_gpus: usize,
    },
    /// A day-indexed temporal-drift episode perturbed the ground-truth
    /// bandwidth matrix before the rest of the fault plan applied.
    DriftApplied {
        /// Drift day applied (0 = the base matrix, no perturbation).
        day: usize,
        /// Per-day log-space noise scale of the drift walk.
        daily_sigma: f64,
        /// Mean-reversion strength of the drift walk, `[0, 1]`.
        reversion: f64,
    },
    /// Logical-deadline accounting of a budgeted run, recorded in the
    /// finalize phase.
    Deadline {
        /// Budget the run was given (Table II logical units).
        budget_units: u64,
        /// Units actually charged across all phases.
        spent_units: u64,
        /// Whether any phase was truncated to fit the budget.
        truncated: bool,
    },
    /// A serve request was admitted (sequence numbers are the logical
    /// clock: admission order, never wall time).
    RequestStart {
        /// Logical sequence number of the request.
        seq: u64,
        /// Requested operation (`"configure"`, `"drill"`, …).
        op: String,
    },
    /// A serve request's response was committed to the output stream.
    RequestDone {
        /// Logical sequence number of the request.
        seq: u64,
        /// Response status (`"ok"`, `"deadline"`, `"shed"`, `"error"`).
        outcome: String,
        /// Whether the request was served in breaker-degraded
        /// (analytic-memory) mode.
        degraded: bool,
    },
    /// A serve request was rejected at admission by the bounded queue.
    RequestShed {
        /// Logical sequence number of the request.
        seq: u64,
        /// Queue occupancy observed at admission.
        queue_len: u64,
        /// Configured queue bound.
        limit: u64,
        /// Suggested logical backoff before retrying (cost-model units).
        retry_after_units: u64,
    },
    /// The estimator circuit breaker changed state.
    BreakerTransition {
        /// State left (`"closed"`, `"open"`, `"half_open"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
        /// Consecutive estimator failures observed at the transition.
        failures: u64,
    },
    /// A named monotonic counter, flushed from [`crate::Metrics`].
    Counter {
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A named histogram summary, flushed from [`crate::Metrics`].
    Histogram {
        /// Histogram name.
        name: String,
        /// Values recorded.
        count: u64,
        /// Sum of recorded values.
        sum: f64,
        /// Smallest recorded value.
        min: f64,
        /// Largest recorded value.
        max: f64,
        /// Sparse power-of-two buckets as `(binary exponent, count)`.
        buckets: Vec<(i32, u64)>,
    },
    /// A hierarchical span opened (see [`crate::span`]). Nesting is
    /// purely structural: a span's parent is the nearest enclosing
    /// unclosed `span_open` in the stream, so the tree is recoverable
    /// from the JSONL alone and is as deterministic as the stream.
    SpanOpen {
        /// Phase name (stable identifier, aggregated across instances).
        name: &'static str,
    },
    /// The matching close of the innermost open span, carrying the
    /// span's logical cost (evals, iterations, bytes, …) and the number
    /// of events it enclosed.
    SpanClose {
        /// Phase name; must equal the innermost open span's.
        name: &'static str,
        /// Unit of `cost` ([`crate::span::CostUnit`] tag).
        unit: &'static str,
        /// Logical cost of the span in `unit`s — a domain counter, never
        /// wall time, so it is bit-stable across machines and threads.
        cost: u64,
        /// Events recorded between open and close (nested spans' own
        /// open/close lines included).
        events: usize,
    },
}

/// Fieldless discriminant of [`EventKind`] — the typed form of the
/// `kind` tag. Asserting on `EventTag` variants instead of `"sa_move"`
/// strings means a renamed event breaks at compile time, not silently
/// in a `count_kind` that starts returning zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum EventTag {
    RunStart,
    MemTrain,
    MemLoss,
    MemScreen,
    MemHeadroom,
    CacheStats,
    LatencyEstimate,
    SaMove,
    SaSummary,
    SaResult,
    PtExchange,
    Recommendation,
    Alternative,
    SimTask,
    FaultPlanApplied,
    ProfilerRetry,
    PairImputed,
    GpuExcluded,
    Fallback,
    Reconfiguration,
    DriftApplied,
    Deadline,
    RequestStart,
    RequestDone,
    RequestShed,
    BreakerTransition,
    Counter,
    Histogram,
    SpanOpen,
    SpanClose,
}

impl EventTag {
    /// The tag as written to JSONL (`"kind"` field).
    pub const fn name(self) -> &'static str {
        match self {
            EventTag::RunStart => "run_start",
            EventTag::MemTrain => "mem_train",
            EventTag::MemLoss => "mem_loss",
            EventTag::MemScreen => "mem_screen",
            EventTag::MemHeadroom => "mem_headroom",
            EventTag::CacheStats => "cache_stats",
            EventTag::LatencyEstimate => "latency_estimate",
            EventTag::SaMove => "sa_move",
            EventTag::SaSummary => "sa_summary",
            EventTag::SaResult => "sa_result",
            EventTag::PtExchange => "pt_exchange",
            EventTag::Recommendation => "recommendation",
            EventTag::Alternative => "alternative",
            EventTag::SimTask => "sim_task",
            EventTag::FaultPlanApplied => "fault_plan",
            EventTag::ProfilerRetry => "profiler_retry",
            EventTag::PairImputed => "pair_imputed",
            EventTag::GpuExcluded => "gpu_excluded",
            EventTag::Fallback => "fallback",
            EventTag::Reconfiguration => "reconfiguration",
            EventTag::DriftApplied => "drift_applied",
            EventTag::Deadline => "deadline",
            EventTag::RequestStart => "request_start",
            EventTag::RequestDone => "request_done",
            EventTag::RequestShed => "request_shed",
            EventTag::BreakerTransition => "breaker_transition",
            EventTag::Counter => "counter",
            EventTag::Histogram => "histogram",
            EventTag::SpanOpen => "span_open",
            EventTag::SpanClose => "span_close",
        }
    }
}

impl EventKind {
    /// The typed discriminant of this event.
    pub const fn tag(&self) -> EventTag {
        match self {
            EventKind::RunStart { .. } => EventTag::RunStart,
            EventKind::MemTrain { .. } => EventTag::MemTrain,
            EventKind::MemLoss { .. } => EventTag::MemLoss,
            EventKind::MemScreen { .. } => EventTag::MemScreen,
            EventKind::MemHeadroom { .. } => EventTag::MemHeadroom,
            EventKind::CacheStats { .. } => EventTag::CacheStats,
            EventKind::LatencyEstimate { .. } => EventTag::LatencyEstimate,
            EventKind::SaMove { .. } => EventTag::SaMove,
            EventKind::SaSummary { .. } => EventTag::SaSummary,
            EventKind::SaResult { .. } => EventTag::SaResult,
            EventKind::PtExchange { .. } => EventTag::PtExchange,
            EventKind::Recommendation { .. } => EventTag::Recommendation,
            EventKind::Alternative { .. } => EventTag::Alternative,
            EventKind::SimTask { .. } => EventTag::SimTask,
            EventKind::FaultPlanApplied { .. } => EventTag::FaultPlanApplied,
            EventKind::ProfilerRetry { .. } => EventTag::ProfilerRetry,
            EventKind::PairImputed { .. } => EventTag::PairImputed,
            EventKind::GpuExcluded { .. } => EventTag::GpuExcluded,
            EventKind::Fallback { .. } => EventTag::Fallback,
            EventKind::Reconfiguration { .. } => EventTag::Reconfiguration,
            EventKind::DriftApplied { .. } => EventTag::DriftApplied,
            EventKind::Deadline { .. } => EventTag::Deadline,
            EventKind::RequestStart { .. } => EventTag::RequestStart,
            EventKind::RequestDone { .. } => EventTag::RequestDone,
            EventKind::RequestShed { .. } => EventTag::RequestShed,
            EventKind::BreakerTransition { .. } => EventTag::BreakerTransition,
            EventKind::Counter { .. } => EventTag::Counter,
            EventKind::Histogram { .. } => EventTag::Histogram,
            EventKind::SpanOpen { .. } => EventTag::SpanOpen,
            EventKind::SpanClose { .. } => EventTag::SpanClose,
        }
    }

    /// The event's `kind` tag as written to JSONL.
    pub const fn kind(&self) -> &'static str {
        self.tag().name()
    }
}

impl Event {
    /// Appends this event as one JSON line (no trailing newline) with the
    /// given sequence number. With `strip_wall`, the wall-clock annotation
    /// is omitted even when recorded — the bit-comparable form.
    pub fn write_json(&self, seq: usize, strip_wall: bool, out: &mut String) {
        let mut o = Obj::open(out);
        o.uint("seq", seq as u64);
        o.string("kind", self.kind.kind());
        match &self.kind {
            EventKind::RunStart {
                schema,
                seed,
                gpus,
                global_batch,
            } => {
                o.uint("schema", u64::from(*schema));
                o.uint("seed", *seed);
                o.uint("gpus", *gpus as u64);
                o.uint("global_batch", *global_batch);
            }
            EventKind::MemTrain {
                samples,
                iterations,
                final_loss,
                cached,
            } => {
                o.uint("samples", *samples as u64);
                o.uint("iterations", *iterations as u64);
                o.float("final_loss", *final_loss);
                o.boolean("cached", *cached);
            }
            EventKind::MemLoss { iteration, loss } => {
                o.uint("iteration", *iteration as u64);
                o.float("loss", *loss);
            }
            EventKind::MemScreen {
                examined,
                accepted,
                rejected,
            } => {
                o.uint("examined", *examined as u64);
                o.uint("accepted", *accepted as u64);
                o.uint("rejected", *rejected as u64);
            }
            EventKind::MemHeadroom {
                predicted_bytes,
                limit_bytes,
                soft_margin,
                headroom_fraction,
            } => {
                o.uint("predicted_bytes", *predicted_bytes);
                o.uint("limit_bytes", *limit_bytes);
                o.float("soft_margin", *soft_margin);
                o.float("headroom_fraction", *headroom_fraction);
            }
            EventKind::CacheStats {
                hits,
                misses,
                corrupt,
            } => {
                o.uint("hits", *hits);
                o.uint("misses", *misses);
                o.uint("corrupt", *corrupt);
            }
            EventKind::LatencyEstimate {
                candidate,
                pp,
                tp,
                dp,
                micro_batch,
                n_microbatches,
                seconds,
                t_bubble,
                t_straggler,
                t_hidden,
                t_dp,
                straggler_stage,
            } => {
                o.uint("candidate", *candidate as u64);
                o.uint("pp", *pp as u64);
                o.uint("tp", *tp as u64);
                o.uint("dp", *dp as u64);
                o.uint("micro_batch", *micro_batch);
                o.uint("n_microbatches", *n_microbatches);
                o.float("seconds", *seconds);
                o.float("t_bubble", *t_bubble);
                o.float("t_straggler", *t_straggler);
                o.float("t_hidden", *t_hidden);
                o.float("t_dp", *t_dp);
                o.uint("straggler_stage", *straggler_stage as u64);
            }
            EventKind::SaMove {
                candidate,
                replica,
                iteration,
                kind,
                delta,
                temperature,
                accepted,
            } => {
                o.uint("candidate", *candidate as u64);
                o.uint("replica", *replica as u64);
                o.uint("iteration", *iteration as u64);
                o.string("move", kind);
                o.float("delta", *delta);
                o.float("temperature", *temperature);
                o.boolean("accepted", *accepted);
            }
            EventKind::SaSummary {
                candidate,
                replica,
                iteration,
                acceptance_rate,
                current_cost,
                best_cost,
                temperature,
            } => {
                o.uint("candidate", *candidate as u64);
                o.uint("replica", *replica as u64);
                o.uint("iteration", *iteration as u64);
                o.float("acceptance_rate", *acceptance_rate);
                o.float("current_cost", *current_cost);
                o.float("best_cost", *best_cost);
                o.float("temperature", *temperature);
            }
            EventKind::SaResult {
                candidate,
                replica,
                evaluations,
                accepted,
                improvements,
                initial_cost,
                best_cost,
            } => {
                o.uint("candidate", *candidate as u64);
                o.uint("replica", *replica as u64);
                o.uint("evaluations", *evaluations as u64);
                o.uint("accepted", *accepted as u64);
                o.uint("improvements", *improvements as u64);
                o.float("initial_cost", *initial_cost);
                o.float("best_cost", *best_cost);
            }
            EventKind::PtExchange {
                candidate,
                round,
                replica_lo,
                replica_hi,
                temp_lo,
                temp_hi,
                cost_lo,
                cost_hi,
                accepted,
            } => {
                o.uint("candidate", *candidate as u64);
                o.uint("round", *round as u64);
                o.uint("replica_lo", *replica_lo as u64);
                o.uint("replica_hi", *replica_hi as u64);
                o.float("temp_lo", *temp_lo);
                o.float("temp_hi", *temp_hi);
                o.float("cost_lo", *cost_lo);
                o.float("cost_hi", *cost_hi);
                o.boolean("accepted", *accepted);
            }
            EventKind::Recommendation {
                pp,
                tp,
                dp,
                micro_batch,
                n_microbatches,
                seconds,
                t_bubble,
                t_straggler,
                t_hidden,
                t_dp,
                t_optimizer,
                straggler_stage,
                slow_link_from,
                slow_link_to,
                slow_link_seconds,
            } => {
                o.uint("pp", *pp as u64);
                o.uint("tp", *tp as u64);
                o.uint("dp", *dp as u64);
                o.uint("micro_batch", *micro_batch);
                o.uint("n_microbatches", *n_microbatches);
                o.float("seconds", *seconds);
                o.float("t_bubble", *t_bubble);
                o.float("t_straggler", *t_straggler);
                o.float("t_hidden", *t_hidden);
                o.float("t_dp", *t_dp);
                o.float("t_optimizer", *t_optimizer);
                o.uint("straggler_stage", *straggler_stage as u64);
                match slow_link_from {
                    Some(g) => o.uint("slow_link_from", *g as u64),
                    None => o.raw("slow_link_from", "null"),
                }
                match slow_link_to {
                    Some(g) => o.uint("slow_link_to", *g as u64),
                    None => o.raw("slow_link_to", "null"),
                }
                match slow_link_seconds {
                    Some(s) => o.float("slow_link_seconds", *s),
                    None => o.raw("slow_link_seconds", "null"),
                }
            }
            EventKind::Alternative {
                rank,
                pp,
                tp,
                dp,
                micro_batch,
                seconds,
                delta_seconds,
            } => {
                o.uint("rank", *rank as u64);
                o.uint("pp", *pp as u64);
                o.uint("tp", *tp as u64);
                o.uint("dp", *dp as u64);
                o.uint("micro_batch", *micro_batch);
                o.float("seconds", *seconds);
                o.float("delta_seconds", *delta_seconds);
            }
            EventKind::SimTask {
                stage,
                kind,
                microbatch,
                start,
                finish,
            } => {
                o.uint("stage", *stage as u64);
                o.string("task", kind);
                o.uint("microbatch", *microbatch);
                o.float("start", *start);
                o.float("finish", *finish);
            }
            EventKind::FaultPlanApplied {
                plan_seed,
                degraded_links,
                straggler_gpus,
                failed_gpus,
                failed_nodes,
                corrupt_pairs,
                measurement_failure_rate,
                sample_loss_rate,
            } => {
                o.uint("plan_seed", *plan_seed);
                o.uint("degraded_links", *degraded_links as u64);
                o.uint("straggler_gpus", *straggler_gpus as u64);
                o.uint("failed_gpus", *failed_gpus as u64);
                o.uint("failed_nodes", *failed_nodes as u64);
                o.uint("corrupt_pairs", *corrupt_pairs as u64);
                o.float("measurement_failure_rate", *measurement_failure_rate);
                o.float("sample_loss_rate", *sample_loss_rate);
            }
            EventKind::ProfilerRetry {
                from,
                to,
                retries,
                corrupt_samples,
                recovered,
            } => {
                o.uint("from", *from as u64);
                o.uint("to", *to as u64);
                o.uint("retries", *retries as u64);
                o.uint("corrupt_samples", *corrupt_samples as u64);
                o.boolean("recovered", *recovered);
            }
            EventKind::PairImputed {
                from,
                to,
                gib_s,
                retries,
            } => {
                o.uint("from", *from as u64);
                o.uint("to", *to as u64);
                o.float("gib_s", *gib_s);
                o.uint("retries", *retries as u64);
            }
            EventKind::GpuExcluded { gpu, node } => {
                o.uint("gpu", *gpu as u64);
                o.uint("node", *node as u64);
            }
            EventKind::Fallback { component, reason } => {
                o.string("component", component);
                o.string("reason", reason);
            }
            EventKind::Reconfiguration {
                healthy_pp,
                healthy_tp,
                healthy_dp,
                healthy_micro,
                healthy_seconds,
                degraded_pp,
                degraded_tp,
                degraded_dp,
                degraded_micro,
                degraded_seconds,
                healthy_gpus,
                surviving_gpus,
            } => {
                o.uint("healthy_pp", *healthy_pp as u64);
                o.uint("healthy_tp", *healthy_tp as u64);
                o.uint("healthy_dp", *healthy_dp as u64);
                o.uint("healthy_micro", *healthy_micro);
                o.float("healthy_seconds", *healthy_seconds);
                o.uint("degraded_pp", *degraded_pp as u64);
                o.uint("degraded_tp", *degraded_tp as u64);
                o.uint("degraded_dp", *degraded_dp as u64);
                o.uint("degraded_micro", *degraded_micro);
                o.float("degraded_seconds", *degraded_seconds);
                o.uint("healthy_gpus", *healthy_gpus as u64);
                o.uint("surviving_gpus", *surviving_gpus as u64);
            }
            EventKind::DriftApplied {
                day,
                daily_sigma,
                reversion,
            } => {
                o.uint("day", *day as u64);
                o.float("daily_sigma", *daily_sigma);
                o.float("reversion", *reversion);
            }
            EventKind::Deadline {
                budget_units,
                spent_units,
                truncated,
            } => {
                o.uint("budget_units", *budget_units);
                o.uint("spent_units", *spent_units);
                o.boolean("truncated", *truncated);
            }
            EventKind::RequestStart { seq: rseq, op } => {
                o.uint("request", *rseq);
                o.string("op", op);
            }
            EventKind::RequestDone {
                seq: rseq,
                outcome,
                degraded,
            } => {
                o.uint("request", *rseq);
                o.string("outcome", outcome);
                o.boolean("degraded", *degraded);
            }
            EventKind::RequestShed {
                seq: rseq,
                queue_len,
                limit,
                retry_after_units,
            } => {
                o.uint("request", *rseq);
                o.uint("queue_len", *queue_len);
                o.uint("limit", *limit);
                o.uint("retry_after_units", *retry_after_units);
            }
            EventKind::BreakerTransition { from, to, failures } => {
                o.string("from", from);
                o.string("to", to);
                o.uint("failures", *failures);
            }
            EventKind::Counter { name, value } => {
                o.string("name", name);
                o.uint("value", *value);
            }
            EventKind::Histogram {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            } => {
                o.string("name", name);
                o.uint("count", *count);
                o.float("sum", *sum);
                o.float("min", *min);
                o.float("max", *max);
                let mut pairs = String::from("[");
                for (i, (exp, n)) in buckets.iter().enumerate() {
                    if i > 0 {
                        pairs.push(',');
                    }
                    let _ = write!(pairs, "[{exp},{n}]");
                }
                pairs.push(']');
                o.raw("buckets", &pairs);
            }
            EventKind::SpanOpen { name } => {
                o.string("name", name);
            }
            EventKind::SpanClose {
                name,
                unit,
                cost,
                events,
            } => {
                o.string("name", name);
                o.string("unit", unit);
                o.uint("cost", *cost);
                o.uint("events", *events as u64);
            }
        }
        if !strip_wall {
            if let Some(w) = self.wall_ms {
                o.float("wall_ms", w);
            }
        }
        o.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_fixed_shape() {
        let e = Event {
            wall_ms: None,
            kind: EventKind::MemLoss {
                iteration: 400,
                loss: 0.125,
            },
        };
        let mut out = String::new();
        e.write_json(7, false, &mut out);
        assert_eq!(
            out,
            r#"{"seq":7,"kind":"mem_loss","iteration":400,"loss":0.125}"#
        );
    }

    #[test]
    fn wall_clock_is_a_strippable_suffix() {
        let e = Event {
            wall_ms: Some(1.5),
            kind: EventKind::MemLoss {
                iteration: 1,
                loss: 2.0,
            },
        };
        let mut with = String::new();
        e.write_json(0, false, &mut with);
        let mut without = String::new();
        e.write_json(0, true, &mut without);
        assert!(with.ends_with(r#","wall_ms":1.5}"#));
        assert_eq!(with.replace(r#","wall_ms":1.5"#, ""), without);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            wall_ms: None,
            kind: EventKind::MemLoss {
                iteration: 0,
                loss: f64::NAN,
            },
        };
        let mut out = String::new();
        e.write_json(0, false, &mut out);
        assert!(out.contains(r#""loss":null"#));
    }

    #[test]
    fn every_kind_has_a_tag() {
        let kinds = [
            EventKind::RunStart {
                schema: 1,
                seed: 0,
                gpus: 16,
                global_batch: 64,
            }
            .kind(),
            EventKind::CacheStats {
                hits: 0,
                misses: 1,
                corrupt: 0,
            }
            .kind(),
            EventKind::SimTask {
                stage: 0,
                kind: "F",
                microbatch: 0,
                start: 0.0,
                finish: 1.0,
            }
            .kind(),
        ];
        assert_eq!(kinds, ["run_start", "cache_stats", "sim_task"]);
    }

    #[test]
    fn span_events_serialize_with_fixed_shape() {
        let e = Event {
            wall_ms: None,
            kind: EventKind::SpanOpen { name: "anneal" },
        };
        let mut out = String::new();
        e.write_json(7, false, &mut out);
        assert_eq!(out, r#"{"seq":7,"kind":"span_open","name":"anneal"}"#);

        let e = Event {
            wall_ms: Some(1.5),
            kind: EventKind::SpanClose {
                name: "anneal",
                unit: "evals",
                cost: 4800,
                events: 12,
            },
        };
        let mut out = String::new();
        e.write_json(8, false, &mut out);
        assert_eq!(
            out,
            r#"{"seq":8,"kind":"span_close","name":"anneal","unit":"evals","cost":4800,"events":12,"wall_ms":1.5}"#
        );
        let mut stripped = String::new();
        e.write_json(8, true, &mut stripped);
        assert_eq!(
            stripped,
            r#"{"seq":8,"kind":"span_close","name":"anneal","unit":"evals","cost":4800,"events":12}"#
        );
    }

    #[test]
    fn tags_round_trip_through_names() {
        let tags = [
            EventTag::RunStart,
            EventTag::SaMove,
            EventTag::PtExchange,
            EventTag::Counter,
            EventTag::Histogram,
            EventTag::SpanOpen,
            EventTag::SpanClose,
        ];
        let names = [
            "run_start",
            "sa_move",
            "pt_exchange",
            "counter",
            "histogram",
            "span_open",
            "span_close",
        ];
        for (tag, name) in tags.iter().zip(names) {
            assert_eq!(tag.name(), name);
        }
        assert_eq!(EventKind::SpanOpen { name: "x" }.tag(), EventTag::SpanOpen);
        assert_eq!(
            EventKind::SpanOpen { name: "x" }.kind(),
            EventTag::SpanOpen.name()
        );
    }

    #[test]
    fn degradation_events_serialize_with_fixed_shape() {
        let e = Event {
            wall_ms: None,
            kind: EventKind::ProfilerRetry {
                from: 0,
                to: 5,
                retries: 1,
                corrupt_samples: 1,
                recovered: true,
            },
        };
        let mut out = String::new();
        e.write_json(3, false, &mut out);
        assert_eq!(
            out,
            r#"{"seq":3,"kind":"profiler_retry","from":0,"to":5,"retries":1,"corrupt_samples":1,"recovered":true}"#
        );
        let e = Event {
            wall_ms: None,
            kind: EventKind::Fallback {
                component: "memory_estimator".into(),
                reason: "too few samples".into(),
            },
        };
        let mut out = String::new();
        e.write_json(4, false, &mut out);
        assert_eq!(
            out,
            r#"{"seq":4,"kind":"fallback","component":"memory_estimator","reason":"too few samples"}"#
        );
        assert_eq!(
            EventKind::GpuExcluded { gpu: 9, node: 1 }.kind(),
            "gpu_excluded"
        );
        assert_eq!(
            EventKind::PairImputed {
                from: 0,
                to: 1,
                gib_s: 11.6,
                retries: 3
            }
            .kind(),
            "pair_imputed"
        );
    }

    #[test]
    fn serve_events_serialize_with_fixed_shape() {
        let cases: [(EventKind, &str); 6] = [
            (
                EventKind::DriftApplied {
                    day: 3,
                    daily_sigma: 0.03,
                    reversion: 0.25,
                },
                r#"{"seq":0,"kind":"drift_applied","day":3,"daily_sigma":0.03,"reversion":0.25}"#,
            ),
            (
                EventKind::Deadline {
                    budget_units: 5000,
                    spent_units: 4321,
                    truncated: true,
                },
                r#"{"seq":0,"kind":"deadline","budget_units":5000,"spent_units":4321,"truncated":true}"#,
            ),
            (
                EventKind::RequestStart {
                    seq: 7,
                    op: "configure".into(),
                },
                r#"{"seq":0,"kind":"request_start","request":7,"op":"configure"}"#,
            ),
            (
                EventKind::RequestDone {
                    seq: 7,
                    outcome: "ok".into(),
                    degraded: false,
                },
                r#"{"seq":0,"kind":"request_done","request":7,"outcome":"ok","degraded":false}"#,
            ),
            (
                EventKind::RequestShed {
                    seq: 9,
                    queue_len: 4,
                    limit: 4,
                    retry_after_units: 2048,
                },
                r#"{"seq":0,"kind":"request_shed","request":9,"queue_len":4,"limit":4,"retry_after_units":2048}"#,
            ),
            (
                EventKind::BreakerTransition {
                    from: "closed",
                    to: "open",
                    failures: 3,
                },
                r#"{"seq":0,"kind":"breaker_transition","from":"closed","to":"open","failures":3}"#,
            ),
        ];
        for (kind, expect) in cases {
            let e = Event {
                wall_ms: None,
                kind,
            };
            let mut out = String::new();
            e.write_json(0, false, &mut out);
            assert_eq!(out, expect);
        }
    }
}
