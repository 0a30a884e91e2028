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

/// Writes one payload field as the [`Obj`] member its type maps to.
trait FieldValue {
    fn write_to(&self, o: &mut Obj<'_>, key: &str);
}

impl FieldValue for u32 {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.uint(key, u64::from(*self));
    }
}

impl FieldValue for u64 {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.uint(key, *self);
    }
}

impl FieldValue for usize {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.uint(key, *self as u64);
    }
}

impl FieldValue for f64 {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.float(key, *self);
    }
}

impl FieldValue for bool {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.boolean(key, *self);
    }
}

impl FieldValue for &str {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.string(key, self);
    }
}

impl FieldValue for String {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        o.string(key, self);
    }
}

/// `None` writes `null`.
impl<T: FieldValue> FieldValue for Option<T> {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        match self {
            Some(v) => v.write_to(o, key),
            None => o.raw(key, "null"),
        }
    }
}

/// Histogram buckets write as `[[exp,n],…]`.
impl FieldValue for Vec<(i32, u64)> {
    fn write_to(&self, o: &mut Obj<'_>, key: &str) {
        let mut pairs = String::from("[");
        for (i, (exp, n)) in self.iter().enumerate() {
            if i > 0 {
                pairs.push(',');
            }
            let _ = write!(pairs, "[{exp},{n}]");
        }
        pairs.push(']');
        o.raw(key, &pairs);
    }
}

/// Expands the one event table below into [`EventKind`], [`EventTag`],
/// [`EventTag::name`], [`EventKind::tag`] and the payload writer. An
/// entry is a variant with its doc comments, `= "tag"`, and its fields in
/// output order; a field's JSON key is its name unless the entry says
/// `field as "key": Type`.
macro_rules! event_table {
    (@key $field:ident) => {
        stringify!($field)
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    ($(
        $(#[$doc:meta])*
        $variant:ident = $tag:literal {
            $($(#[$field_doc:meta])* $field:ident $(as $key:literal)?: $ty:ty,)*
        },
    )*) => {
        /// Everything the Pipette pipeline can report. Logical coordinates
        /// (candidate rank, SA iteration, training iteration, …) live inside the
        /// payload; the global sequence number is the JSONL line index.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        /// Fieldless discriminant of [`EventKind`] — the typed form of the
        /// `kind` tag. Asserting on `EventTag` variants instead of `"sa_move"`
        /// strings means a renamed event breaks at compile time, not silently
        /// in a string comparison that starts matching nothing.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)]
        pub enum EventTag {
            $($variant,)*
        }

        impl EventTag {
            /// The tag as written to JSONL (`"kind"` field).
            pub const fn name(self) -> &'static str {
                match self {
                    $(EventTag::$variant => $tag,)*
                }
            }
        }

        impl EventKind {
            /// The typed discriminant of this event.
            pub const fn tag(&self) -> EventTag {
                match self {
                    $(EventKind::$variant { .. } => EventTag::$variant,)*
                }
            }

            /// The event's `kind` tag as written to JSONL.
            pub const fn kind(&self) -> &'static str {
                self.tag().name()
            }

            /// Writes the payload fields, in table order.
            fn write_fields(&self, o: &mut Obj<'_>) {
                match self {
                    $(EventKind::$variant { $($field),* } => {
                        $(FieldValue::write_to($field, o, event_table!(@key $field $($key)?));)*
                    })*
                }
            }
        }
    };
}

event_table! {
    /// A configurator run began.
    RunStart = "run_start" {
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
    MemTrain = "mem_train" {
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
    MemLoss = "mem_loss" {
        /// Training iteration the loss was sampled at.
        iteration: usize,
        /// Minibatch loss at that iteration.
        loss: f64,
    },
    /// Outcome of the batched memory screen over the candidate space.
    MemScreen = "mem_screen" {
        /// Candidates examined (Algorithm 1 loop trips).
        examined: usize,
        /// Candidates that passed the screen.
        accepted: usize,
        /// Candidates rejected as not runnable.
        rejected: usize,
    },
    /// Predicted memory headroom of the final recommendation.
    MemHeadroom = "mem_headroom" {
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
    CacheStats = "cache_stats" {
        /// Lookups answered from memory or disk.
        hits: u64,
        /// Lookups that had to train.
        misses: u64,
        /// On-disk entries that existed but failed to parse (retrained).
        corrupt: u64,
    },
    /// Eq. 3–6 term breakdown of one screened candidate under the
    /// identity mapping.
    LatencyEstimate = "latency_estimate" {
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
    SaMove = "sa_move" {
        /// Candidate rank (0 = best identity estimate) this SA pass
        /// belongs to.
        candidate: usize,
        /// Tempering replica the chain runs as (0 for single-chain SA).
        replica: usize,
        /// SA iteration within the pass.
        iteration: usize,
        /// Move kind (`"migration"`, `"swap"`, `"reverse"`).
        kind as "move": &'static str,
        /// Objective delta of the proposal (ΔJ, seconds).
        delta: f64,
        /// Temperature at the decision.
        temperature: f64,
        /// Whether the move was accepted.
        accepted: bool,
    },
    /// Rolling SA convergence summary (every
    /// [`crate::TraceConfig::sa_summary_every`] iterations).
    SaSummary = "sa_summary" {
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
    SaResult = "sa_result" {
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
    PtExchange = "pt_exchange" {
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
    Recommendation = "recommendation" {
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
    Alternative = "alternative" {
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
    SimTask = "sim_task" {
        /// Pipeline stage (device) the task ran on.
        stage: usize,
        /// `"F"` (forward) or `"B"` (backward).
        kind as "task": &'static str,
        /// Microbatch index.
        microbatch: u64,
        /// Start time, simulated seconds.
        start: f64,
        /// Finish time, simulated seconds.
        finish: f64,
    },
    /// A fault plan was applied to the run (counts only; the full plan
    /// lives in the caller's `--faults` file).
    FaultPlanApplied = "fault_plan" {
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
    ProfilerRetry = "profiler_retry" {
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
    PairImputed = "pair_imputed" {
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
    GpuExcluded = "gpu_excluded" {
        /// The excluded GPU.
        gpu: usize,
        /// Its (cordoned) host node.
        node: usize,
    },
    /// A pipeline component degraded to a simpler fallback.
    Fallback = "fallback" {
        /// The component that degraded (e.g. `"memory_estimator"`).
        component: String,
        /// Why the fallback was taken.
        reason: String,
    },
    /// Diff between the healthy-cluster recommendation and the one
    /// recomputed for the surviving subcluster.
    Reconfiguration = "reconfiguration" {
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
    DriftApplied = "drift_applied" {
        /// Drift day applied (0 = the base matrix, no perturbation).
        day: usize,
        /// Per-day log-space noise scale of the drift walk.
        daily_sigma: f64,
        /// Mean-reversion strength of the drift walk, `[0, 1]`.
        reversion: f64,
    },
    /// Logical-deadline accounting of a budgeted run, recorded in the
    /// finalize phase.
    Deadline = "deadline" {
        /// Budget the run was given (Table II logical units).
        budget_units: u64,
        /// Units actually charged across all phases.
        spent_units: u64,
        /// Whether any phase was truncated to fit the budget.
        truncated: bool,
    },
    /// A serve request was admitted (sequence numbers are the logical
    /// clock: admission order, never wall time).
    RequestStart = "request_start" {
        /// Logical sequence number of the request.
        seq as "request": u64,
        /// Requested operation (`"configure"`, `"drill"`, …).
        op: String,
    },
    /// A serve request's response was committed to the output stream.
    RequestDone = "request_done" {
        /// Logical sequence number of the request.
        seq as "request": u64,
        /// Response status (`"ok"`, `"deadline"`, `"shed"`, `"error"`).
        outcome: String,
        /// Whether the request was served in breaker-degraded
        /// (analytic-memory) mode.
        degraded: bool,
    },
    /// A serve request was rejected at admission by the bounded queue.
    RequestShed = "request_shed" {
        /// Logical sequence number of the request.
        seq as "request": u64,
        /// Queue occupancy observed at admission.
        queue_len: u64,
        /// Configured queue bound.
        limit: u64,
        /// Suggested logical backoff before retrying (cost-model units).
        retry_after_units: u64,
    },
    /// The estimator circuit breaker changed state.
    BreakerTransition = "breaker_transition" {
        /// State left (`"closed"`, `"open"`, `"half_open"`).
        from: &'static str,
        /// State entered.
        to: &'static str,
        /// Consecutive estimator failures observed at the transition.
        failures: u64,
    },
    /// A named monotonic counter, flushed from [`crate::Metrics`].
    Counter = "counter" {
        /// Counter name.
        name: String,
        /// Final value.
        value: u64,
    },
    /// A named histogram summary, flushed from [`crate::Metrics`].
    Histogram = "histogram" {
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
    SpanOpen = "span_open" {
        /// Phase name (stable identifier, aggregated across instances).
        name: &'static str,
    },
    /// The matching close of the innermost open span, carrying the
    /// span's logical cost (evals, iterations, bytes, …) and the number
    /// of events it enclosed.
    SpanClose = "span_close" {
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

impl Event {
    /// Appends this event as one JSON line (no trailing newline) with the
    /// given sequence number. With `strip_wall`, the wall-clock annotation
    /// is omitted even when recorded — the bit-comparable form.
    pub fn write_json(&self, seq: usize, strip_wall: bool, out: &mut String) {
        let mut o = Obj::open(out);
        o.uint("seq", seq as u64);
        o.string("kind", self.kind.kind());
        self.kind.write_fields(&mut o);
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

    /// One event of every kind with its exact canonical line at `seq` 5.
    /// Every field holds a value no other field of its event holds, so a
    /// swapped field order or a renamed key changes the bytes.
    fn golden_lines() -> Vec<(EventKind, &'static str)> {
        vec![
            (
                EventKind::RunStart {
                    schema: 1,
                    seed: 42,
                    gpus: 128,
                    global_batch: 512,
                },
                r#"{"seq":5,"kind":"run_start","schema":1,"seed":42,"gpus":128,"global_batch":512}"#,
            ),
            (
                EventKind::MemTrain {
                    samples: 300,
                    iterations: 4000,
                    final_loss: f64::NAN,
                    cached: true,
                },
                r#"{"seq":5,"kind":"mem_train","samples":300,"iterations":4000,"final_loss":null,"cached":true}"#,
            ),
            (
                EventKind::MemLoss {
                    iteration: 17,
                    loss: 0.0000003,
                },
                r#"{"seq":5,"kind":"mem_loss","iteration":17,"loss":0.0000003}"#,
            ),
            (
                EventKind::MemScreen {
                    examined: 90,
                    accepted: 60,
                    rejected: 30,
                },
                r#"{"seq":5,"kind":"mem_screen","examined":90,"accepted":60,"rejected":30}"#,
            ),
            (
                EventKind::MemHeadroom {
                    predicted_bytes: 68_719_476_736,
                    limit_bytes: 85_899_345_920,
                    soft_margin: 0.05,
                    headroom_fraction: 0.2,
                },
                r#"{"seq":5,"kind":"mem_headroom","predicted_bytes":68719476736,"limit_bytes":85899345920,"soft_margin":0.05,"headroom_fraction":0.2}"#,
            ),
            (
                EventKind::CacheStats {
                    hits: 3,
                    misses: 1,
                    corrupt: 2,
                },
                r#"{"seq":5,"kind":"cache_stats","hits":3,"misses":1,"corrupt":2}"#,
            ),
            (
                EventKind::LatencyEstimate {
                    candidate: 4,
                    pp: 8,
                    tp: 2,
                    dp: 16,
                    micro_batch: 1,
                    n_microbatches: 32,
                    seconds: 1.5,
                    t_bubble: 0.25,
                    t_straggler: 0.75,
                    t_hidden: 0.125,
                    t_dp: 0.375,
                    straggler_stage: 7,
                },
                r#"{"seq":5,"kind":"latency_estimate","candidate":4,"pp":8,"tp":2,"dp":16,"micro_batch":1,"n_microbatches":32,"seconds":1.5,"t_bubble":0.25,"t_straggler":0.75,"t_hidden":0.125,"t_dp":0.375,"straggler_stage":7}"#,
            ),
            (
                EventKind::SaMove {
                    candidate: 2,
                    replica: 1,
                    iteration: 640,
                    kind: "swap",
                    delta: -0.015625,
                    temperature: 0.001,
                    accepted: false,
                },
                r#"{"seq":5,"kind":"sa_move","candidate":2,"replica":1,"iteration":640,"move":"swap","delta":-0.015625,"temperature":0.001,"accepted":false}"#,
            ),
            (
                EventKind::SaSummary {
                    candidate: 3,
                    replica: 0,
                    iteration: 1024,
                    acceptance_rate: 0.4375,
                    current_cost: 2.5,
                    best_cost: 2.25,
                    temperature: 0.0625,
                },
                r#"{"seq":5,"kind":"sa_summary","candidate":3,"replica":0,"iteration":1024,"acceptance_rate":0.4375,"current_cost":2.5,"best_cost":2.25,"temperature":0.0625}"#,
            ),
            (
                EventKind::SaResult {
                    candidate: 1,
                    replica: 2,
                    evaluations: 5001,
                    accepted: 1200,
                    improvements: 37,
                    initial_cost: 3.5,
                    best_cost: 3.0,
                },
                r#"{"seq":5,"kind":"sa_result","candidate":1,"replica":2,"evaluations":5001,"accepted":1200,"improvements":37,"initial_cost":3.5,"best_cost":3}"#,
            ),
            (
                EventKind::PtExchange {
                    candidate: 6,
                    round: 11,
                    replica_lo: 2,
                    replica_hi: 3,
                    temp_lo: 0.5,
                    temp_hi: 0.75,
                    cost_lo: 1.0625,
                    cost_hi: 1.125,
                    accepted: true,
                },
                r#"{"seq":5,"kind":"pt_exchange","candidate":6,"round":11,"replica_lo":2,"replica_hi":3,"temp_lo":0.5,"temp_hi":0.75,"cost_lo":1.0625,"cost_hi":1.125,"accepted":true}"#,
            ),
            (
                EventKind::Recommendation {
                    pp: 4,
                    tp: 8,
                    dp: 2,
                    micro_batch: 2,
                    n_microbatches: 16,
                    seconds: 1.75,
                    t_bubble: 0.5,
                    t_straggler: 0.625,
                    t_hidden: 0.0625,
                    t_dp: 0.4375,
                    t_optimizer: 0.03125,
                    straggler_stage: 3,
                    slow_link_from: Some(24),
                    slow_link_to: Some(40),
                    slow_link_seconds: Some(0.0009765625),
                },
                r#"{"seq":5,"kind":"recommendation","pp":4,"tp":8,"dp":2,"micro_batch":2,"n_microbatches":16,"seconds":1.75,"t_bubble":0.5,"t_straggler":0.625,"t_hidden":0.0625,"t_dp":0.4375,"t_optimizer":0.03125,"straggler_stage":3,"slow_link_from":24,"slow_link_to":40,"slow_link_seconds":0.0009765625}"#,
            ),
            (
                EventKind::Recommendation {
                    pp: 1,
                    tp: 8,
                    dp: 8,
                    micro_batch: 4,
                    n_microbatches: 2,
                    seconds: 0.875,
                    t_bubble: 0.0,
                    t_straggler: 0.8125,
                    t_hidden: 0.0,
                    t_dp: 0.046875,
                    t_optimizer: 0.015625,
                    straggler_stage: 0,
                    slow_link_from: None,
                    slow_link_to: None,
                    slow_link_seconds: None,
                },
                r#"{"seq":5,"kind":"recommendation","pp":1,"tp":8,"dp":8,"micro_batch":4,"n_microbatches":2,"seconds":0.875,"t_bubble":0,"t_straggler":0.8125,"t_hidden":0,"t_dp":0.046875,"t_optimizer":0.015625,"straggler_stage":0,"slow_link_from":null,"slow_link_to":null,"slow_link_seconds":null}"#,
            ),
            (
                EventKind::Alternative {
                    rank: 1,
                    pp: 2,
                    tp: 4,
                    dp: 16,
                    micro_batch: 8,
                    seconds: 1.875,
                    delta_seconds: 0.125,
                },
                r#"{"seq":5,"kind":"alternative","rank":1,"pp":2,"tp":4,"dp":16,"micro_batch":8,"seconds":1.875,"delta_seconds":0.125}"#,
            ),
            (
                EventKind::SimTask {
                    stage: 3,
                    kind: "B",
                    microbatch: 9,
                    start: 0.5,
                    finish: 0.5625,
                },
                r#"{"seq":5,"kind":"sim_task","stage":3,"task":"B","microbatch":9,"start":0.5,"finish":0.5625}"#,
            ),
            (
                EventKind::FaultPlanApplied {
                    plan_seed: 99,
                    degraded_links: 4,
                    straggler_gpus: 2,
                    failed_gpus: 1,
                    failed_nodes: 3,
                    corrupt_pairs: 5,
                    measurement_failure_rate: 0.1,
                    sample_loss_rate: 0.02,
                },
                r#"{"seq":5,"kind":"fault_plan","plan_seed":99,"degraded_links":4,"straggler_gpus":2,"failed_gpus":1,"failed_nodes":3,"corrupt_pairs":5,"measurement_failure_rate":0.1,"sample_loss_rate":0.02}"#,
            ),
            (
                EventKind::ProfilerRetry {
                    from: 12,
                    to: 13,
                    retries: 2,
                    corrupt_samples: 1,
                    recovered: false,
                },
                r#"{"seq":5,"kind":"profiler_retry","from":12,"to":13,"retries":2,"corrupt_samples":1,"recovered":false}"#,
            ),
            (
                EventKind::PairImputed {
                    from: 7,
                    to: 30,
                    gib_s: 11.6,
                    retries: 3,
                },
                r#"{"seq":5,"kind":"pair_imputed","from":7,"to":30,"gib_s":11.6,"retries":3}"#,
            ),
            (
                EventKind::GpuExcluded { gpu: 9, node: 1 },
                r#"{"seq":5,"kind":"gpu_excluded","gpu":9,"node":1}"#,
            ),
            (
                EventKind::Fallback {
                    component: "memory_estimator".into(),
                    reason: "only \"3\" samples\n".into(),
                },
                r#"{"seq":5,"kind":"fallback","component":"memory_estimator","reason":"only \"3\" samples\n"}"#,
            ),
            (
                EventKind::Reconfiguration {
                    healthy_pp: 4,
                    healthy_tp: 8,
                    healthy_dp: 4,
                    healthy_micro: 2,
                    healthy_seconds: 1.25,
                    degraded_pp: 2,
                    degraded_tp: 4,
                    degraded_dp: 6,
                    degraded_micro: 1,
                    degraded_seconds: 2.125,
                    healthy_gpus: 128,
                    surviving_gpus: 120,
                },
                r#"{"seq":5,"kind":"reconfiguration","healthy_pp":4,"healthy_tp":8,"healthy_dp":4,"healthy_micro":2,"healthy_seconds":1.25,"degraded_pp":2,"degraded_tp":4,"degraded_dp":6,"degraded_micro":1,"degraded_seconds":2.125,"healthy_gpus":128,"surviving_gpus":120}"#,
            ),
            (
                EventKind::DriftApplied {
                    day: 3,
                    daily_sigma: 0.03,
                    reversion: 0.25,
                },
                r#"{"seq":5,"kind":"drift_applied","day":3,"daily_sigma":0.03,"reversion":0.25}"#,
            ),
            (
                EventKind::Deadline {
                    budget_units: 5000,
                    spent_units: 4321,
                    truncated: true,
                },
                r#"{"seq":5,"kind":"deadline","budget_units":5000,"spent_units":4321,"truncated":true}"#,
            ),
            (
                EventKind::RequestStart {
                    seq: 7,
                    op: "configure".into(),
                },
                r#"{"seq":5,"kind":"request_start","request":7,"op":"configure"}"#,
            ),
            (
                EventKind::RequestDone {
                    seq: 8,
                    outcome: "deadline".into(),
                    degraded: true,
                },
                r#"{"seq":5,"kind":"request_done","request":8,"outcome":"deadline","degraded":true}"#,
            ),
            (
                EventKind::RequestShed {
                    seq: 9,
                    queue_len: 4,
                    limit: 6,
                    retry_after_units: 2048,
                },
                r#"{"seq":5,"kind":"request_shed","request":9,"queue_len":4,"limit":6,"retry_after_units":2048}"#,
            ),
            (
                EventKind::BreakerTransition {
                    from: "open",
                    to: "half_open",
                    failures: 3,
                },
                r#"{"seq":5,"kind":"breaker_transition","from":"open","to":"half_open","failures":3}"#,
            ),
            (
                EventKind::Counter {
                    name: "serve_breaker_trips".into(),
                    value: 2,
                },
                r#"{"seq":5,"kind":"counter","name":"serve_breaker_trips","value":2}"#,
            ),
            (
                EventKind::Histogram {
                    name: "request_units".into(),
                    count: 3,
                    sum: 13.5,
                    min: 0.5,
                    max: 9.0,
                    buckets: vec![(-1, 1), (2, 1), (3, 1)],
                },
                r#"{"seq":5,"kind":"histogram","name":"request_units","count":3,"sum":13.5,"min":0.5,"max":9,"buckets":[[-1,1],[2,1],[3,1]]}"#,
            ),
            (
                EventKind::Histogram {
                    name: "empty".into(),
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    buckets: Vec::new(),
                },
                r#"{"seq":5,"kind":"histogram","name":"empty","count":0,"sum":0,"min":null,"max":null,"buckets":[]}"#,
            ),
            (
                EventKind::SpanOpen { name: "anneal" },
                r#"{"seq":5,"kind":"span_open","name":"anneal"}"#,
            ),
            (
                EventKind::SpanClose {
                    name: "anneal",
                    unit: "evals",
                    cost: 4800,
                    events: 12,
                },
                r#"{"seq":5,"kind":"span_close","name":"anneal","unit":"evals","cost":4800,"events":12}"#,
            ),
        ]
    }

    #[test]
    fn every_variant_writes_its_pinned_line() {
        let cases = golden_lines();
        let tags: std::collections::BTreeSet<EventTag> =
            cases.iter().map(|(kind, _)| kind.tag()).collect();
        assert_eq!(tags.len(), 30, "one pinned line per EventKind variant");
        for (kind, expect) in cases {
            let mut e = Event {
                wall_ms: None,
                kind,
            };
            let mut out = String::new();
            e.write_json(5, false, &mut out);
            assert_eq!(out, expect);

            e.wall_ms = Some(2.5);
            let mut with = String::new();
            e.write_json(5, false, &mut with);
            let body = expect.strip_suffix('}').unwrap();
            assert_eq!(with, format!(r#"{body},"wall_ms":2.5}}"#));
            let mut stripped = String::new();
            e.write_json(5, true, &mut stripped);
            assert_eq!(stripped, expect);
        }
    }
}
