//! Dependency-graph evaluation of one pipeline chain.
//!
//! A *chain* is one data-parallel replica's pipeline: `pp` devices, each
//! executing its row of the schedule table ([`crate::schedule`]), with
//! forward activations flowing down and backward gradients flowing up
//! over links with finite bandwidth. The engine works at virtual-stage
//! granularity: chunk `c` of device `d` is virtual stage `s = c·pp + d`
//! (plain GPipe and 1F1B have one chunk, so `s = d`). It computes exact
//! start/finish times under three constraints:
//!
//! 1. each device runs its table row in order, one task at a time;
//! 2. `F(s, m)` needs `F(s-1, m)` plus the forward transfer time;
//! 3. `B(s, m)` needs `B(s+1, m)` plus the backward transfer time
//!    (the last virtual stage's backward follows its own forward).
//!
//! Constraint 1 applied to the 1F1B order is what materializes the hidden
//! critical path: `F(m + pp)` on stage 0 is queued after `B(m)`, which
//! transitively waits on a full round trip through the pipeline.

use crate::schedule::{ChunkTask, PipelineSchedule, TaskKind};
use crate::trace::TaskEvent;

/// Inputs for one pipeline chain simulation. Durations are per virtual
/// stage: `pp · chunks` of them, `chunks` being the schedule's.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Number of pipeline stages (devices).
    pub pp: usize,
    /// Microbatches per iteration.
    pub n_mb: u64,
    /// Schedule family.
    pub schedule: PipelineSchedule,
    /// Per-virtual-stage forward duration of one microbatch (compute +
    /// TP comm).
    pub fwd_time: Vec<f64>,
    /// Per-virtual-stage backward duration of one microbatch.
    pub bwd_time: Vec<f64>,
    /// Forward activation transfer time from virtual stage `s` to `s+1`
    /// (length `pp·chunks − 1`; under interleaving, entries at chunk
    /// boundaries are the wrap-around device `pp−1 → 0` links).
    pub fwd_comm: Vec<f64>,
    /// Backward gradient transfer time from virtual stage `s+1` to `s`.
    pub bwd_comm: Vec<f64>,
}

/// Timing results of a chain simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainResult {
    /// Finish time of the entire chain (last backward anywhere).
    pub makespan: f64,
    /// Finish time of each device's final backward (when its DP
    /// all-reduce may start).
    pub stage_finish: Vec<f64>,
    /// Total busy (computing) time per device, for bubble accounting.
    pub stage_busy: Vec<f64>,
}

impl ChainSpec {
    fn validate(&self) {
        let stages = self.pp * self.schedule.chunks();
        debug_assert!(stages > 0 && self.n_mb > 0, "empty chain");
        debug_assert_eq!(self.fwd_time.len(), stages, "fwd_time length");
        debug_assert_eq!(self.bwd_time.len(), stages, "bwd_time length");
        debug_assert_eq!(self.fwd_comm.len(), stages - 1, "fwd_comm length");
        debug_assert_eq!(self.bwd_comm.len(), stages - 1, "bwd_comm length");
        let all_finite = self
            .fwd_time
            .iter()
            .chain(&self.bwd_time)
            .chain(&self.fwd_comm)
            .chain(&self.bwd_comm)
            .all(|t| t.is_finite() && *t >= 0.0);
        debug_assert!(all_finite, "durations must be finite and non-negative");
    }

    /// Evaluates the chain, returning exact task timing.
    ///
    /// # Panics
    ///
    /// Panics if the spec is malformed (see field docs) or the schedule
    /// table deadlocks (which would indicate an invalid schedule).
    pub fn simulate(&self) -> ChainResult {
        self.simulate_impl(None)
    }

    /// Like [`Self::simulate`], but also records every task's start/finish
    /// for timeline rendering (see [`crate::trace`]).
    pub fn trace(&self) -> (ChainResult, Vec<TaskEvent>) {
        let mut events = Vec::new();
        let result = self.simulate_impl(Some(&mut events));
        (result, events)
    }

    fn simulate_impl(&self, mut record: Option<&mut Vec<TaskEvent>>) -> ChainResult {
        self.validate();
        let pp = self.pp;
        let chunks = self.schedule.chunks();
        let stages = pp * chunks;
        let table: Vec<Vec<ChunkTask>> = (0..pp)
            .map(|d| self.schedule.device_order(pp, d, self.n_mb))
            .collect();

        // Finish time of F(s, m) / B(s, m), `None` until it has run.
        let mut fwd_done = vec![vec![None::<f64>; self.n_mb as usize]; stages];
        let mut bwd_done = fwd_done.clone();
        let mut next = vec![0usize; pp];
        let mut device_free = vec![0.0f64; pp];
        let mut stage_busy = vec![0.0f64; pp];
        let mut remaining: usize = table.iter().map(Vec::len).sum();

        while remaining > 0 {
            let mut progressed = false;
            for d in 0..pp {
                while let Some(&item) = table[d].get(next[d]) {
                    let s = item.chunk * pp + d;
                    let m = item.task.microbatch as usize;
                    let ready = match item.task.kind {
                        TaskKind::Forward if s == 0 => Some(0.0),
                        TaskKind::Forward => fwd_done[s - 1][m].map(|t| t + self.fwd_comm[s - 1]),
                        // Own forward must be done; device order guarantees
                        // it was scheduled earlier.
                        TaskKind::Backward if s + 1 == stages => fwd_done[s][m],
                        TaskKind::Backward => bwd_done[s + 1][m].map(|t| t + self.bwd_comm[s]),
                    };
                    let Some(ready) = ready else { break };
                    let start = device_free[d].max(ready);
                    let (dur, done) = match item.task.kind {
                        TaskKind::Forward => (self.fwd_time[s], &mut fwd_done),
                        TaskKind::Backward => (self.bwd_time[s], &mut bwd_done),
                    };
                    let finish = start + dur;
                    done[s][m] = Some(finish);
                    if let Some(events) = record.as_deref_mut() {
                        events.push(TaskEvent {
                            stage: d,
                            chunk: item.chunk,
                            task: item.task,
                            start,
                            finish,
                        });
                    }
                    device_free[d] = finish;
                    stage_busy[d] += dur;
                    next[d] += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            // pipette-lint: allow(D2) -- deadlock guard: an invalid schedule must abort in release too, or the loop spins forever
            assert!(
                progressed,
                "pipeline schedule deadlocked — invalid schedule"
            );
        }

        let stage_finish: Vec<f64> = (0..pp)
            .map(|d| {
                (0..chunks)
                    .flat_map(|c| bwd_done[c * pp + d].iter().flatten().copied())
                    .fold(0.0, f64::max)
            })
            .collect();
        let makespan = stage_finish.iter().cloned().fold(0.0, f64::max);
        ChainResult {
            makespan,
            stage_finish,
            stage_busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniform_spec(pp: usize, n_mb: u64, c: f64, d: f64, sched: PipelineSchedule) -> ChainSpec {
        let stages = pp * sched.chunks();
        ChainSpec {
            pp,
            n_mb,
            schedule: sched,
            fwd_time: vec![c; stages],
            bwd_time: vec![2.0 * c; stages],
            fwd_comm: vec![d; stages - 1],
            bwd_comm: vec![d; stages - 1],
        }
    }

    fn interleaved(chunks: usize) -> PipelineSchedule {
        PipelineSchedule::Interleaved { chunks }
    }

    #[test]
    fn single_stage_is_serial() {
        let r = uniform_spec(1, 5, 1.0, 0.0, PipelineSchedule::OneFOneB).simulate();
        // 5 forwards (1 s) + 5 backwards (2 s) = 15 s.
        assert!((r.makespan - 15.0).abs() < 1e-9);
        assert_eq!(r.stage_busy, vec![15.0]);
    }

    #[test]
    fn two_stage_pipeline_overlaps() {
        let r = uniform_spec(2, 4, 1.0, 0.0, PipelineSchedule::OneFOneB).simulate();
        // Serial would be 2 stages * 12 s = 24 s; pipelining must beat it
        // and cannot beat the busy bound of 12 s.
        assert!(r.makespan < 24.0);
        assert!(r.makespan >= 12.0);
    }

    #[test]
    fn known_1f1b_makespan_no_comm() {
        // Uniform stages, zero comm: 1F1B makespan is
        // (pp - 1) * fwd + n_mb * (fwd + bwd) for the first stage's path.
        for pp in [2usize, 3, 4] {
            for n_mb in [4u64, 8, 12] {
                let r = uniform_spec(pp, n_mb, 1.0, 0.0, PipelineSchedule::OneFOneB).simulate();
                let expected = (pp as f64 - 1.0) * 3.0 + n_mb as f64 * 3.0;
                assert!(
                    (r.makespan - expected).abs() < 1e-9,
                    "pp={pp} n_mb={n_mb}: {} vs {expected}",
                    r.makespan
                );
            }
        }
    }

    #[test]
    fn hidden_critical_path_charges_comm_every_pp_microbatches() {
        // With comm delay d and compute small, 1F1B pays a full round trip
        // roughly every pp microbatches (the §V hidden path). GPipe's
        // forward wave does not.
        let d = 1.0;
        let c = 0.01;
        let one_f = uniform_spec(4, 16, c, d, PipelineSchedule::OneFOneB).simulate();
        let gpipe = uniform_spec(4, 16, c, d, PipelineSchedule::GPipe).simulate();
        assert!(
            one_f.makespan > gpipe.makespan * 2.0,
            "1F1B {} should pay far more comm than GPipe {}",
            one_f.makespan,
            gpipe.makespan
        );
        // Lower bound: (n_mb/pp) round trips of 2*(pp-1)*d.
        let round_trips = 16.0 / 4.0 * 2.0 * 3.0 * d;
        assert!(one_f.makespan > round_trips * 0.8);
    }

    #[test]
    fn gpipe_makespan_matches_closed_form_no_comm() {
        // GPipe with uniform stages and no comm: fill (pp-1)·f, all
        // forwards n·f, drain bubble then backwards — the classic
        // (pp-1)(f+b) + n(f+b) total.
        for pp in [2usize, 4, 8] {
            for n_mb in [8u64, 16] {
                let r = uniform_spec(pp, n_mb, 1.0, 0.0, PipelineSchedule::GPipe).simulate();
                let expected = (pp as f64 - 1.0) * 3.0 + n_mb as f64 * 3.0;
                assert!(
                    (r.makespan - expected).abs() < 1e-9,
                    "pp={pp} n_mb={n_mb}: {} vs {expected}",
                    r.makespan
                );
            }
        }
    }

    #[test]
    fn slow_stage_dominates() {
        let mut spec = uniform_spec(3, 9, 1.0, 0.0, PipelineSchedule::OneFOneB);
        spec.fwd_time[1] = 2.0;
        spec.bwd_time[1] = 4.0;
        let r = spec.simulate();
        // The straggler stage is busy 9 * 6 = 54 s; makespan at least that.
        assert!(r.makespan >= 54.0);
    }

    #[test]
    fn stage_finish_is_monotone_toward_stage_zero() {
        // In 1F1B the first stage finishes its last backward no earlier
        // than downstream stages (it receives the final gradient last).
        let r = uniform_spec(4, 8, 1.0, 0.1, PipelineSchedule::OneFOneB).simulate();
        for s in 1..4 {
            assert!(r.stage_finish[s - 1] >= r.stage_finish[s]);
        }
        assert_eq!(r.makespan, r.stage_finish[0]);
    }

    #[test]
    fn interleaved_schedule_is_deadlock_free() {
        for (pp, v) in [(2usize, 2usize), (2, 4), (4, 2), (4, 4), (8, 2), (8, 3)] {
            for groups in [1u64, 2, 4] {
                let n_mb = pp as u64 * groups;
                let r = uniform_spec(pp, n_mb, 1.0, 0.05, interleaved(v)).simulate();
                assert!(
                    r.makespan.is_finite() && r.makespan > 0.0,
                    "pp={pp} v={v} n_mb={n_mb}"
                );
            }
        }
    }

    #[test]
    fn busy_time_is_schedule_invariant() {
        // Total work per device is the same with or without interleaving.
        let r = uniform_spec(4, 8, 1.0, 0.0, interleaved(2)).simulate();
        for d in 0..4 {
            // 8 microbatches × 2 chunks × (1 + 2) seconds.
            assert!((r.stage_busy[d] - 48.0).abs() < 1e-9);
        }
    }

    #[test]
    fn interleaving_shrinks_the_fill_bubble() {
        // Bubble-dominated regime: few microbatches, deep pipeline.
        // Interleaved 1F1B's fill is ~v× shorter than the non-interleaved
        // schedule's.
        let (pp, n_mb, c) = (8usize, 8u64, 1.0f64);
        let plain = uniform_spec(pp, n_mb, c, 0.0, PipelineSchedule::OneFOneB).simulate();
        // Same model split into twice as many chunks: per-chunk time c/2.
        let inter = uniform_spec(pp, n_mb, c / 2.0, 0.0, interleaved(2)).simulate();
        assert!(
            inter.makespan < plain.makespan,
            "interleaving should cut the bubble: {} vs {}",
            inter.makespan,
            plain.makespan
        );
        // Busy lower bound still holds.
        assert!(inter.makespan >= n_mb as f64 * 3.0 * c - 1e-9);
    }

    #[test]
    fn interleaving_pays_more_communication() {
        // Comm-heavy regime: the extra hops hurt.
        let (pp, n_mb) = (4usize, 8u64);
        let plain = uniform_spec(pp, n_mb, 1.0, 0.0, interleaved(2)).simulate();
        let comm_heavy = uniform_spec(pp, n_mb, 1.0, 0.5, interleaved(2)).simulate();
        assert!(comm_heavy.makespan > plain.makespan);
    }

    #[test]
    #[should_panic(expected = "fwd_comm length")]
    fn malformed_spec_rejected() {
        let mut spec = uniform_spec(3, 2, 1.0, 0.0, PipelineSchedule::OneFOneB);
        spec.fwd_comm = vec![0.0; 5];
        spec.simulate();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn makespan_bounds(
            pp in 1usize..6,
            n_mb in 1u64..20,
            c in 0.1f64..2.0,
            d in 0.0f64..0.5,
            kind in 0usize..4,
        ) {
            let sched = match kind {
                0 => PipelineSchedule::GPipe,
                1 => PipelineSchedule::OneFOneB,
                v => interleaved(v),
            };
            let v = sched.chunks();
            // Interleaving needs pp | n_mb.
            let n_mb = if v > 1 { n_mb.div_ceil(pp as u64) * pp as u64 } else { n_mb };
            let r = uniform_spec(pp, n_mb, c, d, sched).simulate();
            // Lower bound: busiest stage. Upper bound: fully serial
            // execution of every task plus every transfer.
            let busy = n_mb as f64 * v as f64 * 3.0 * c;
            let s = (pp * v) as f64;
            let serial = s * busy + 2.0 * n_mb as f64 * (s - 1.0) * d;
            prop_assert!(r.makespan >= busy - 1e-9);
            prop_assert!(r.makespan <= serial + 1e-9);
        }

        #[test]
        fn interleaved_makespan_respects_bounds(
            pp in 2usize..6,
            v in 2usize..4,
            groups in 1u64..4,
            c in 0.1f64..1.0,
            d in 0.0f64..0.3,
        ) {
            let n_mb = pp as u64 * groups;
            let r = uniform_spec(pp, n_mb, c, d, interleaved(v)).simulate();
            let busy = n_mb as f64 * v as f64 * 3.0 * c;
            let s = (pp * v) as f64;
            let serial = s * busy + 2.0 * n_mb as f64 * (s - 1.0) * d;
            prop_assert!(r.makespan >= busy - 1e-9);
            prop_assert!(r.makespan <= serial + 1e-9);
        }

        #[test]
        fn comm_only_slows_things_down(
            pp in 2usize..6,
            n_mb in 1u64..16,
        ) {
            let fast = uniform_spec(pp, n_mb, 1.0, 0.0, PipelineSchedule::OneFOneB).simulate();
            let slow = uniform_spec(pp, n_mb, 1.0, 0.7, PipelineSchedule::OneFOneB).simulate();
            prop_assert!(slow.makespan >= fast.makespan);
        }
    }
}
