//! Pipeline schedules as data: one table of work items per device.
//!
//! A schedule is a table. Row `d` lists, in execution order, the
//! `(chunk, microbatch, F|B)` work items that device `d` of `pp` runs
//! ([`PipelineSchedule::device_order`]). The engine ([`crate::engine`])
//! turns any table into exact timings, and the memory simulator scans it
//! for the activation peak ([`PipelineSchedule::inflight_peak`]), so a new
//! schedule is one more table generator rather than another engine.
//!
//! The schedules of Fig. 2 of the paper and its Megatron-LM lineage:
//!
//! * **GPipe** ("memory-hungry"): every stage runs all forwards, then all
//!   backwards. Simple, maximal overlap, but all `n_mb` microbatches'
//!   activations are alive at once.
//! * **1F1B** ("memory-efficient", the de facto standard): after a short
//!   warm-up, each stage alternates one forward with one backward, capping
//!   in-flight microbatches at `pp - stage`. This interleaving creates the
//!   *hidden critical path*: the first stage cannot start forward `m + pp`
//!   before backward `m` has returned through the entire pipeline.
//! * **Interleaved 1F1B** (Megatron-LM's virtual pipeline): the model is
//!   split into `pp · v` chunks and device `d` hosts chunks `{c·pp + d}`.
//!   Microbatches stream through all `pp · v` virtual stages, so the
//!   pipeline fill shrinks by roughly `v×` at the cost of `v×` more
//!   inter-device messages, including a wrap-around hop from the last
//!   device back to the first between consecutive chunks.
//!
//! All three share Megatron-LM's three-phase row: a warm-up of forwards,
//! a steady state strictly alternating one forward with one backward, and
//! a cool-down of the remaining backwards. They differ only in the
//! warm-up depth. Interleaved work items advance microbatches in groups of
//! `pp` with chunks rotating within each group; backwards drain the chunks
//! in reverse order.

use std::fmt;

/// Which pass a task performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward pass of one microbatch.
    Forward,
    /// Backward pass of one microbatch.
    Backward,
}

/// One unit of pipeline work: a pass over one microbatch at one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// Forward or backward.
    pub kind: TaskKind,
    /// Microbatch index, `0..n_mb`.
    pub microbatch: u64,
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TaskKind::Forward => write!(f, "F{}", self.microbatch),
            TaskKind::Backward => write!(f, "B{}", self.microbatch),
        }
    }
}

/// One entry of a schedule table: a task on one of the device's model
/// chunks. Chunk `c` of device `d` is virtual stage `c·pp + d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkTask {
    /// Model-chunk index on this device, `0..chunks`.
    pub chunk: usize,
    /// The pass and microbatch.
    pub task: Task,
}

/// The pipeline schedule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineSchedule {
    /// All forwards, then all backwards (Fig. 2a).
    GPipe,
    /// Memory-efficient one-forward-one-backward (Fig. 2b).
    #[default]
    OneFOneB,
    /// Megatron-LM's interleaved 1F1B over `chunks` model chunks per
    /// device. Needs `chunks >= 2`, `pp | n_mb` and a layer per chunk
    /// (see [`PipelineSchedule::check`]).
    Interleaved {
        /// Model chunks (virtual stages) per device.
        chunks: usize,
    },
}

impl PipelineSchedule {
    /// Model chunks per device: `chunks` when interleaved, else 1.
    pub fn chunks(&self) -> usize {
        match *self {
            PipelineSchedule::Interleaved { chunks } => chunks,
            PipelineSchedule::GPipe | PipelineSchedule::OneFOneB => 1,
        }
    }

    /// Checks that the schedule can run `pp` devices over `n_mb`
    /// microbatches of an `n_layers`-layer model.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::InvalidSchedule`] for interleaved 1F1B with
    /// fewer than two chunks, `pp ∤ n_mb`, or more virtual stages than
    /// layers. GPipe and 1F1B always pass.
    pub fn check(&self, pp: usize, n_mb: u64, n_layers: usize) -> Result<(), crate::SimError> {
        let PipelineSchedule::Interleaved { chunks } = *self else {
            return Ok(());
        };
        let reason = if chunks < 2 {
            "interleaving needs at least two chunks per device"
        } else if !n_mb.is_multiple_of(pp as u64) {
            "interleaved 1F1B needs pp | n_mb"
        } else if pp * chunks > n_layers {
            "pp * chunks exceeds the layer count"
        } else {
            return Ok(());
        };
        Err(crate::SimError::InvalidSchedule {
            schedule: *self,
            reason,
        })
    }

    /// Row `device` of the schedule table: the work items device `device`
    /// of `pp` runs for `n_mb` microbatches, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `device >= pp` or `n_mb == 0`, or if an interleaved
    /// schedule has fewer than two chunks or `pp ∤ n_mb` (Megatron-LM
    /// requires the microbatch count to be a multiple of the pipeline
    /// depth for this schedule).
    pub fn device_order(&self, pp: usize, device: usize, n_mb: u64) -> Vec<ChunkTask> {
        self.row(pp, device, n_mb).collect()
    }

    /// Forwards device `device < pp` runs before its first backward when
    /// the microbatch count does not cap them, in chunk items:
    /// Megatron-LM's warm-up depth for (interleaved) 1F1B, and `u64::MAX`
    /// for GPipe, which runs every forward first. A row of `n_mb`
    /// microbatches warms up for `min(depth, n_mb · chunks)` items.
    pub fn warmup(&self, pp: usize, device: usize) -> u64 {
        match *self {
            PipelineSchedule::GPipe => u64::MAX,
            PipelineSchedule::OneFOneB => (pp - device - 1) as u64,
            PipelineSchedule::Interleaved { chunks } => {
                (2 * (pp - device - 1) + (chunks - 1) * pp) as u64
            }
        }
    }

    /// [`Self::device_order`] as an iterator.
    fn row(&self, pp: usize, device: usize, n_mb: u64) -> impl Iterator<Item = ChunkTask> {
        debug_assert!(device < pp, "device out of range");
        debug_assert!(n_mb > 0, "need at least one microbatch");
        if let PipelineSchedule::Interleaved { chunks } = *self {
            debug_assert!(chunks >= 2, "interleaving needs at least two chunks");
            debug_assert!(
                n_mb.is_multiple_of(pp as u64),
                "n_mb must be a positive multiple of pp"
            );
        }
        let v = self.chunks();
        let total = n_mb * v as u64;
        let warmup = self.warmup(pp, device).min(total);
        // The k-th forward of any device: microbatches advance in groups
        // of pp, chunks rotating within each group. Backwards visit the
        // same sequence with the chunks in reverse.
        let group = (pp * v) as u64;
        let item = move |kind, k: u64| {
            let (round, pos) = (k / group, k % group);
            let chunk = (pos / pp as u64) as usize;
            ChunkTask {
                chunk: match kind {
                    TaskKind::Forward => chunk,
                    TaskKind::Backward => v - 1 - chunk,
                },
                task: Task {
                    kind,
                    microbatch: round * pp as u64 + pos % pp as u64,
                },
            }
        };
        (0..warmup)
            .map(move |k| item(TaskKind::Forward, k))
            .chain((0..(total - warmup)).flat_map(move |k| {
                [
                    item(TaskKind::Forward, warmup + k),
                    item(TaskKind::Backward, k),
                ]
            }))
            .chain(((total - warmup)..total).map(move |k| item(TaskKind::Backward, k)))
    }

    /// Peak in-flight load on `device`: scans its table row (up to where
    /// the load can no longer rise), adding `weights[chunk]` at each
    /// forward and releasing it at the matching backward. With unit
    /// weights this is the peak number of forwards whose backward has not
    /// run yet.
    pub fn inflight_peak(&self, pp: usize, device: usize, n_mb: u64, weights: &[u64]) -> u64 {
        let v = self.chunks();
        debug_assert_eq!(weights.len(), v, "one weight per chunk");
        // The load only falls in the cool-down. In the steady state each
        // period of pp·chunks pairs (one pair without interleaving) moves
        // every chunk in and out equally often, so the load repeats and
        // the peak lies within the warm-up and the first period.
        let period = if v == 1 { 1 } else { (pp * v) as u64 };
        let warmup = self.warmup(pp, device).min(n_mb * v as u64);
        let horizon = warmup + 2 * (n_mb * v as u64 - warmup).min(period);
        let (mut load, mut peak) = (0u64, 0u64);
        for item in self.row(pp, device, n_mb).take(horizon as usize) {
            match item.task.kind {
                TaskKind::Forward => {
                    load += weights[item.chunk];
                    peak = peak.max(load);
                }
                TaskKind::Backward => load -= weights[item.chunk],
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tasks(order: &[ChunkTask]) -> Vec<String> {
        order.iter().map(|t| t.task.to_string()).collect()
    }

    #[test]
    fn last_stage_alternates_strictly() {
        let order = PipelineSchedule::OneFOneB.device_order(4, 3, 4);
        assert_eq!(
            tasks(&order),
            vec!["F0", "B0", "F1", "B1", "F2", "B2", "F3", "B3"]
        );
    }

    #[test]
    fn first_stage_warms_up() {
        let order = PipelineSchedule::OneFOneB.device_order(4, 0, 6);
        assert_eq!(
            tasks(&order),
            vec!["F0", "F1", "F2", "F3", "B0", "F4", "B1", "F5", "B2", "B3", "B4", "B5"]
        );
    }

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let order = PipelineSchedule::GPipe.device_order(2, 0, 3);
        assert_eq!(tasks(&order), vec!["F0", "F1", "F2", "B0", "B1", "B2"]);
    }

    #[test]
    fn peak_inflight_matches_paper() {
        // 1F1B stage s holds at most min(pp - s, n_mb) microbatches;
        // GPipe holds all of them.
        let peak = |s: PipelineSchedule, pp, stage, n_mb| s.inflight_peak(pp, stage, n_mb, &[1]);
        assert_eq!(peak(PipelineSchedule::OneFOneB, 4, 0, 32), 4);
        assert_eq!(peak(PipelineSchedule::OneFOneB, 4, 3, 32), 1);
        assert_eq!(peak(PipelineSchedule::OneFOneB, 8, 2, 3), 3);
        assert_eq!(peak(PipelineSchedule::GPipe, 4, 0, 32), 32);
    }

    #[test]
    fn peak_inflight_bounded_by_warmup_plus_one() {
        for (pp, v) in [(2usize, 2usize), (4, 2), (4, 4), (8, 2)] {
            let n_mb = 4 * pp as u64;
            let schedule = PipelineSchedule::Interleaved { chunks: v };
            for d in 0..pp {
                let peak = schedule.inflight_peak(pp, d, n_mb, &vec![1u64; v]);
                let warmup = (2 * (pp - d - 1) + (v - 1) * pp) as u64;
                assert!(
                    peak <= warmup + 1,
                    "pp={pp} v={v} d={d}: peak {peak} vs warmup {warmup}"
                );
                assert!(peak >= 1);
            }
        }
    }

    #[test]
    fn interleaved_device_order_covers_every_chunk_microbatch_once() {
        for (pp, v, n_mb) in [(2usize, 2usize, 4u64), (4, 2, 8), (4, 3, 12), (8, 2, 16)] {
            let schedule = PipelineSchedule::Interleaved { chunks: v };
            for d in 0..pp {
                let order = schedule.device_order(pp, d, n_mb);
                assert_eq!(order.len() as u64, 2 * n_mb * v as u64);
                let mut fwd = vec![vec![0u32; n_mb as usize]; v];
                let mut bwd = vec![vec![0u32; n_mb as usize]; v];
                for item in &order {
                    match item.task.kind {
                        TaskKind::Forward => fwd[item.chunk][item.task.microbatch as usize] += 1,
                        TaskKind::Backward => bwd[item.chunk][item.task.microbatch as usize] += 1,
                    }
                }
                assert!(fwd.iter().flatten().all(|&c| c == 1), "pp={pp} v={v} d={d}");
                assert!(bwd.iter().flatten().all(|&c| c == 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of pp")]
    fn indivisible_microbatches_rejected() {
        PipelineSchedule::Interleaved { chunks: 2 }.device_order(4, 0, 6);
    }

    #[test]
    fn check_names_each_interleaving_requirement() {
        let reason = |chunks, pp, n_mb, layers| match (PipelineSchedule::Interleaved { chunks })
            .check(pp, n_mb, layers)
        {
            Err(crate::SimError::InvalidSchedule { reason, .. }) => reason,
            other => panic!("expected a schedule error, got {other:?}"),
        };
        assert!(reason(1, 4, 8, 8).contains("two chunks"));
        assert!(reason(2, 4, 6, 8).contains("pp | n_mb"));
        assert!(reason(4, 4, 8, 8).contains("layer count"));
        assert_eq!(
            PipelineSchedule::Interleaved { chunks: 2 }.check(4, 8, 8),
            Ok(())
        );
        assert_eq!(PipelineSchedule::GPipe.check(4, 6, 2), Ok(()));
    }

    proptest! {
        #[test]
        fn every_microbatch_scheduled_exactly_once(
            pp in 1usize..8, stage_sel in 0usize..8, n_mb in 1u64..40,
            kind in 0usize..4,
        ) {
            let stage = stage_sel % pp;
            let sched = match kind {
                0 => PipelineSchedule::GPipe,
                1 => PipelineSchedule::OneFOneB,
                v => PipelineSchedule::Interleaved { chunks: v },
            };
            let v = sched.chunks();
            // Interleaving needs pp | n_mb.
            let n_mb = if v > 1 { n_mb.div_ceil(pp as u64) * pp as u64 } else { n_mb };
            let order = sched.device_order(pp, stage, n_mb);
            prop_assert_eq!(order.len() as u64, 2 * n_mb * v as u64);
            let mut fwd = vec![vec![0u32; n_mb as usize]; v];
            let mut bwd = vec![vec![0u32; n_mb as usize]; v];
            for t in &order {
                match t.task.kind {
                    TaskKind::Forward => fwd[t.chunk][t.task.microbatch as usize] += 1,
                    TaskKind::Backward => bwd[t.chunk][t.task.microbatch as usize] += 1,
                }
            }
            prop_assert!(fwd.iter().flatten().all(|&c| c == 1));
            prop_assert!(bwd.iter().flatten().all(|&c| c == 1));
        }

        #[test]
        fn backward_never_precedes_forward_on_stage(
            pp in 1usize..8, stage_sel in 0usize..8, n_mb in 1u64..40,
        ) {
            let stage = stage_sel % pp;
            let order = PipelineSchedule::OneFOneB.device_order(pp, stage, n_mb);
            let mut seen_fwd = vec![false; n_mb as usize];
            for t in &order {
                match t.task.kind {
                    TaskKind::Forward => seen_fwd[t.task.microbatch as usize] = true,
                    TaskKind::Backward => prop_assert!(seen_fwd[t.task.microbatch as usize]),
                }
            }
        }

        #[test]
        fn inflight_peak_equals_a_full_row_scan(
            pp in 1usize..8, stage_sel in 0usize..8, n_mb in 1u64..40,
            kind in 0usize..4, weights in proptest::collection::vec(1u64..1000, 3),
        ) {
            let stage = stage_sel % pp;
            let sched = match kind {
                0 => PipelineSchedule::GPipe,
                1 => PipelineSchedule::OneFOneB,
                v => PipelineSchedule::Interleaved { chunks: v },
            };
            let v = sched.chunks();
            let n_mb = if v > 1 { n_mb.div_ceil(pp as u64) * pp as u64 } else { n_mb };
            let weights = &weights[..v];
            let (mut load, mut full) = (0u64, 0u64);
            for t in sched.device_order(pp, stage, n_mb) {
                match t.task.kind {
                    TaskKind::Forward => load += weights[t.chunk],
                    TaskKind::Backward => load -= weights[t.chunk],
                }
                full = full.max(load);
            }
            prop_assert_eq!(sched.inflight_peak(pp, stage, n_mb, weights), full);
        }

        #[test]
        fn inflight_cap_is_pp_minus_stage(
            pp in 1usize..10, stage_sel in 0usize..10, n_mb in 1u64..64,
        ) {
            let stage = stage_sel % pp;
            let one_f = PipelineSchedule::OneFOneB.inflight_peak(pp, stage, n_mb, &[1]);
            prop_assert_eq!(one_f, ((pp - stage) as u64).min(n_mb));
            prop_assert_eq!(
                one_f,
                pipette_model::memory::one_f_one_b_inflight(pp, stage, n_mb)
            );
            prop_assert_eq!(PipelineSchedule::GPipe.inflight_peak(pp, stage, n_mb, &[1]), n_mb);
        }
    }
}
