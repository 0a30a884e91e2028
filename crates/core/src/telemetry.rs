//! Bridges between the configurator's domain types and the
//! [`pipette_obs`] event sink.
//!
//! Everything here is glue: the annealer exposes an [`SaObserver`] hook,
//! the latency model a [`LatencyExplanation`], the memory estimator a
//! [`TrainSummary`](crate::memory::TrainSummary) — this module turns
//! each into [`EventKind`]s on a [`Trace`]. Keeping the conversions in
//! one place means the event schema (documented in DESIGN.md §7d) has a
//! single producer per kind.

use crate::latency::LatencyExplanation;
use crate::mapping::{AnnealStats, PtExchangeRecord, SaMoveRecord, SaObserver};
use pipette_model::{MicrobatchPlan, ParallelConfig};
use pipette_obs::{CostUnit, EventKind, SpanGuard, Trace};

/// An [`SaObserver`] that records the annealing run into a [`Trace`]:
/// every `sa_move_sample_every`-th decision as an `sa_move` event, and a
/// rolling `sa_summary` (windowed acceptance rate, cost trajectory,
/// temperature) every `sa_summary_every` iterations.
///
/// Per-candidate SA passes run in parallel; give each pass its own
/// observer over a [`Trace::child`] and absorb the children in candidate
/// order so the merged stream is thread-count independent.
#[derive(Debug)]
pub struct SaTraceObserver<'a> {
    trace: &'a mut Trace,
    span: SpanGuard,
    candidate: usize,
    replica: usize,
    move_every: usize,
    summary_every: usize,
    window_proposed: usize,
    window_accepted: usize,
}

impl<'a> SaTraceObserver<'a> {
    /// An observer recording into `trace`, tagging every event with the
    /// candidate rank whose SA pass it belongs to. Sampling cadences come
    /// from the trace's [`pipette_obs::TraceConfig`]. Events carry
    /// `replica: 0` — the single-chain tag; tempering passes use
    /// [`SaTraceObserver::for_replica`].
    pub fn new(trace: &'a mut Trace, candidate: usize) -> Self {
        Self::for_replica(trace, candidate, 0)
    }

    /// An observer for one chain of a parallel-tempering pass, tagging
    /// every event with both the candidate rank and the replica index.
    ///
    /// Construction opens an `sa_chain` span on the trace; [`Self::finish`]
    /// closes it with the chain's evaluation count as its logical cost, so
    /// every observed chain — configurator passes, benches, tests — gets
    /// span attribution for free.
    pub fn for_replica(trace: &'a mut Trace, candidate: usize, replica: usize) -> Self {
        let config = *trace.config();
        let span = trace.open_span("sa_chain");
        Self {
            trace,
            span,
            candidate,
            replica,
            move_every: config.sa_move_sample_every,
            summary_every: config.sa_summary_every,
            window_proposed: 0,
            window_accepted: 0,
        }
    }

    /// Records the final [`AnnealStats`] of the pass as an `sa_result`
    /// event and closes the chain's `sa_chain` span. Wall-clock
    /// (`stats.elapsed`) is deliberately *not* recorded: the event stream
    /// must be identical across machines and runs.
    pub fn finish(self, stats: &AnnealStats) {
        self.trace.push(EventKind::SaResult {
            candidate: self.candidate,
            replica: self.replica,
            evaluations: stats.evaluations,
            accepted: stats.accepted,
            improvements: stats.improvements,
            initial_cost: stats.initial_cost,
            best_cost: stats.best_cost,
        });
        self.trace
            .close_span(self.span, CostUnit::Evals, stats.evaluations as u64);
    }
}

impl SaObserver for SaTraceObserver<'_> {
    fn on_move(&mut self, r: &SaMoveRecord) {
        if self.move_every > 0 && r.iteration.is_multiple_of(self.move_every) {
            self.trace.push(EventKind::SaMove {
                candidate: self.candidate,
                replica: self.replica,
                iteration: r.iteration,
                kind: r.kind.name(),
                delta: r.delta,
                temperature: r.temperature,
                accepted: r.accepted,
            });
        }
        self.window_proposed += 1;
        if r.accepted {
            self.window_accepted += 1;
        }
        if self.summary_every > 0 && (r.iteration + 1).is_multiple_of(self.summary_every) {
            self.trace.push(EventKind::SaSummary {
                candidate: self.candidate,
                replica: self.replica,
                iteration: r.iteration,
                acceptance_rate: self.window_accepted as f64 / self.window_proposed as f64,
                current_cost: r.current_cost,
                best_cost: r.best_cost,
                temperature: r.temperature,
            });
            self.window_proposed = 0;
            self.window_accepted = 0;
        }
    }
}

/// Records one replica-exchange decision of a parallel-tempering pass as
/// a `pt_exchange` event.
pub fn push_pt_exchange(trace: &mut Trace, candidate: usize, rec: &PtExchangeRecord) {
    trace.push(EventKind::PtExchange {
        candidate,
        round: rec.round,
        replica_lo: rec.replica_lo,
        replica_hi: rec.replica_hi,
        temp_lo: rec.temp_lo,
        temp_hi: rec.temp_hi,
        cost_lo: rec.cost_lo,
        cost_hi: rec.cost_hi,
        accepted: rec.accepted,
    });
}

/// Records one screened candidate's identity-mapping estimate with its
/// Eq. 3–6 term breakdown as a `latency_estimate` event.
pub fn push_latency_estimate(
    trace: &mut Trace,
    candidate: usize,
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    explanation: &LatencyExplanation,
) {
    let t = &explanation.terms;
    trace.push(EventKind::LatencyEstimate {
        candidate,
        pp: cfg.pp,
        tp: cfg.tp,
        dp: cfg.dp,
        micro_batch: plan.micro_batch,
        n_microbatches: plan.n_microbatches,
        seconds: t.total_seconds,
        t_bubble: t.t_bubble,
        t_straggler: t.t_straggler,
        t_hidden: t.t_hidden,
        t_dp: t.t_dp,
        straggler_stage: t.straggler_stage,
    });
}

/// Records the winning configuration (under its annealed mapping) with
/// the full breakdown and straggler-link identity as a `recommendation`
/// event.
pub fn push_recommendation(
    trace: &mut Trace,
    cfg: ParallelConfig,
    plan: MicrobatchPlan,
    explanation: &LatencyExplanation,
) {
    let t = &explanation.terms;
    let link = explanation.slow_link;
    trace.push(EventKind::Recommendation {
        pp: cfg.pp,
        tp: cfg.tp,
        dp: cfg.dp,
        micro_batch: plan.micro_batch,
        n_microbatches: plan.n_microbatches,
        seconds: t.total_seconds,
        t_bubble: t.t_bubble,
        t_straggler: t.t_straggler,
        t_hidden: t.t_hidden,
        t_dp: t.t_dp,
        t_optimizer: t.t_optimizer,
        straggler_stage: t.straggler_stage,
        slow_link_from: link.map(|l| l.from.0),
        slow_link_to: link.map(|l| l.to.0),
        slow_link_seconds: link.map(|l| l.seconds),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Annealer, AnnealerConfig};
    use pipette_cluster::ClusterTopology;
    use pipette_obs::{EventTag, TraceConfig};
    use pipette_sim::Mapping;

    fn toy_anneal(trace: &mut Trace) -> AnnealStats {
        let cfg = ParallelConfig::new(4, 2, 2);
        let initial = Mapping::identity(cfg, ClusterTopology::new(4, 4));
        let target: Vec<usize> = (0..16).rev().collect();
        let objective = move |m: &Mapping| {
            m.as_slice()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.0 as f64 - target[i] as f64).abs())
                .sum()
        };
        let annealer = Annealer::new(AnnealerConfig {
            iterations: 2_048,
            seed: 5,
            ..Default::default()
        });
        let mut observer = SaTraceObserver::new(trace, 0);
        let (_, _, stats) = annealer.anneal_observed(
            &initial,
            &mut crate::mapping::FnObjective::new(objective),
            &mut observer,
        );
        observer.finish(&stats);
        stats
    }

    #[test]
    fn observer_emits_moves_summaries_and_result() {
        let mut trace = Trace::new(TraceConfig {
            sa_move_sample_every: 64,
            sa_summary_every: 1024,
            ..TraceConfig::default()
        });
        let stats = toy_anneal(&mut trace);
        assert_eq!(trace.count_tag(EventTag::SaMove), 2_048 / 64);
        assert_eq!(trace.count_tag(EventTag::SaSummary), 2);
        assert_eq!(trace.count_tag(EventTag::SaResult), 1);
        // The sa_result event carries the run's final statistics.
        let jsonl = trace.to_jsonl();
        let result_line = jsonl
            .lines()
            .find(|l| l.contains(r#""kind":"sa_result""#))
            .unwrap();
        assert!(result_line.contains(&format!(r#""evaluations":{}"#, stats.evaluations)));
        assert!(result_line.contains(&format!(r#""accepted":{}"#, stats.accepted)));
    }

    #[test]
    fn zero_cadence_disables_moves_but_keeps_result() {
        let mut trace = Trace::new(TraceConfig {
            sa_move_sample_every: 0,
            sa_summary_every: 0,
            ..TraceConfig::default()
        });
        toy_anneal(&mut trace);
        assert_eq!(trace.count_tag(EventTag::SaMove), 0);
        assert_eq!(trace.count_tag(EventTag::SaSummary), 0);
        assert_eq!(trace.count_tag(EventTag::SaResult), 1);
    }

    #[test]
    fn for_replica_tags_every_event_and_pt_exchange_round_trips() {
        let mut trace = Trace::new(TraceConfig {
            sa_move_sample_every: 256,
            sa_summary_every: 1024,
            ..TraceConfig::default()
        });
        let cfg = ParallelConfig::new(4, 2, 2);
        let initial = Mapping::identity(cfg, ClusterTopology::new(4, 4));
        let annealer = Annealer::new(AnnealerConfig {
            iterations: 1_024,
            seed: 7,
            ..Default::default()
        });
        let mut observer = SaTraceObserver::for_replica(&mut trace, 2, 3);
        let (_, _, stats) = annealer.anneal_observed(
            &initial,
            &mut crate::mapping::FnObjective::new(|m: &Mapping| m.as_slice()[0].0 as f64),
            &mut observer,
        );
        observer.finish(&stats);
        push_pt_exchange(
            &mut trace,
            2,
            &PtExchangeRecord {
                round: 4,
                replica_lo: 2,
                replica_hi: 3,
                temp_lo: 0.5,
                temp_hi: 1.0,
                cost_lo: 3.0,
                cost_hi: 2.5,
                accepted: true,
            },
        );
        assert_eq!(trace.count_tag(EventTag::PtExchange), 1);
        for line in trace.to_jsonl().lines() {
            if line.contains(r#""kind":"sa_"#) {
                assert!(line.contains(r#""replica":3"#), "untagged event: {line}");
            }
            if line.contains(r#""kind":"pt_exchange""#) {
                assert!(line.contains(r#""round":4"#), "bad round: {line}");
                assert!(line.contains(r#""replica_lo":2"#));
                assert!(line.contains(r#""replica_hi":3"#));
                assert!(line.contains(r#""accepted":true"#));
            }
        }
    }

    #[test]
    fn summary_acceptance_rate_is_windowed() {
        let mut trace = Trace::new(TraceConfig {
            sa_move_sample_every: 0,
            sa_summary_every: 512,
            ..TraceConfig::default()
        });
        toy_anneal(&mut trace);
        assert_eq!(trace.count_tag(EventTag::SaSummary), 4);
        for line in trace.to_jsonl().lines() {
            if line.contains(r#""kind":"sa_summary""#) {
                // Rate is a fraction in [0, 1].
                let rate: f64 = line
                    .split(r#""acceptance_rate":"#)
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
            }
        }
    }
}
