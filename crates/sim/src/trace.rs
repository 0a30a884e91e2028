//! Pipeline execution traces: per-task timings and a text Gantt renderer.
//!
//! Useful for eyeballing why a configuration is slow — where the bubbles
//! sit, whether the hidden critical path binds, which stage straggles.

use crate::schedule::{Task, TaskKind};
use pipette_obs::{EventKind, Trace};
use std::fmt::Write as _;

/// One executed task with its exact start/finish times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEvent {
    /// Pipeline stage (device) the task ran on.
    pub stage: usize,
    /// Model chunk of that device (always 0 without interleaving).
    pub chunk: usize,
    /// The task (pass + microbatch).
    pub task: Task,
    /// Start time, seconds.
    pub start: f64,
    /// Finish time, seconds.
    pub finish: f64,
}

/// Why a Gantt chart could not be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GanttError {
    /// The event list was empty — there is nothing to draw.
    NoEvents,
    /// The requested chart is too narrow to be legible.
    WidthTooSmall {
        /// The width that was requested.
        width: usize,
        /// The smallest width `render_gantt` accepts.
        min: usize,
    },
}

impl std::fmt::Display for GanttError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GanttError::NoEvents => write!(f, "nothing to render: empty event list"),
            GanttError::WidthTooSmall { width, min } => {
                write!(f, "chart width {width} too small (need at least {min})")
            }
        }
    }
}

impl std::error::Error for GanttError {}

/// Minimum chart width accepted by [`render_gantt`].
pub const MIN_GANTT_WIDTH: usize = 10;

/// Renders a fixed-width text Gantt chart of a trace: one row per stage,
/// `F`/`B` cells for forward/backward work, `.` for idle.
///
/// # Errors
///
/// Returns [`GanttError::WidthTooSmall`] if `width < 10` and
/// [`GanttError::NoEvents`] if `events` is empty.
pub fn render_gantt(
    events: &[TaskEvent],
    stages: usize,
    width: usize,
) -> Result<String, GanttError> {
    if width < MIN_GANTT_WIDTH {
        return Err(GanttError::WidthTooSmall {
            width,
            min: MIN_GANTT_WIDTH,
        });
    }
    if events.is_empty() {
        return Err(GanttError::NoEvents);
    }
    let makespan = events.iter().map(|e| e.finish).fold(0.0, f64::max);
    // A degenerate trace (all tasks at t = 0) still renders: everything
    // collapses into the first column instead of dividing by zero.
    let scale = if makespan > 0.0 {
        width as f64 / makespan
    } else {
        0.0
    };
    let mut out = String::new();
    for stage in 0..stages {
        let mut row = vec!['.'; width];
        for e in events.iter().filter(|e| e.stage == stage) {
            let a = ((e.start * scale) as usize).min(width - 1);
            let b = ((e.finish * scale) as usize).clamp(a + 1, width);
            let ch = match e.task.kind {
                TaskKind::Forward => 'F',
                TaskKind::Backward => 'B',
            };
            for cell in &mut row[a..b] {
                *cell = ch;
            }
        }
        let _ = writeln!(
            out,
            "stage {stage:>2} |{}|",
            row.into_iter().collect::<String>()
        );
    }
    let _ = writeln!(out, "          0 {:>w$.3} s", makespan, w = width - 2);
    Ok(out)
}

/// Idle fraction per stage computed from a trace.
///
/// Empty-safe: with no events (or a zero makespan) every stage reports
/// an idle fraction of `0.0` rather than dividing by zero.
pub fn idle_fractions(events: &[TaskEvent], stages: usize) -> Vec<f64> {
    let makespan = events.iter().map(|e| e.finish).fold(0.0, f64::max);
    (0..stages)
        .map(|s| {
            let busy: f64 = events
                .iter()
                .filter(|e| e.stage == s)
                .map(|e| e.finish - e.start)
                .sum();
            if makespan > 0.0 {
                1.0 - busy / makespan
            } else {
                0.0
            }
        })
        .collect()
}

/// Exports a simulator trace into an observability [`Trace`] as
/// [`EventKind::SimTask`] events, one per executed task, in simulator
/// emission order (deterministic for a fixed schedule).
pub fn export_task_events(events: &[TaskEvent], trace: &mut Trace) {
    for e in events {
        trace.push(EventKind::SimTask {
            stage: e.stage,
            kind: match e.task.kind {
                TaskKind::Forward => "F",
                TaskKind::Backward => "B",
            },
            microbatch: e.task.microbatch,
            start: e.start,
            finish: e.finish,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ChainSpec;
    use crate::schedule::PipelineSchedule;
    use pipette_obs::EventTag;

    fn spec(schedule: PipelineSchedule) -> ChainSpec {
        let stages = 3 * schedule.chunks();
        ChainSpec {
            pp: 3,
            n_mb: 6,
            schedule,
            fwd_time: vec![1.0; stages],
            bwd_time: vec![2.0; stages],
            fwd_comm: vec![0.1; stages - 1],
            bwd_comm: vec![0.1; stages - 1],
        }
    }

    fn traced() -> (crate::engine::ChainResult, Vec<TaskEvent>) {
        spec(PipelineSchedule::OneFOneB).trace()
    }

    #[test]
    fn trace_is_consistent_with_simulate() {
        for schedule in [
            PipelineSchedule::OneFOneB,
            PipelineSchedule::Interleaved { chunks: 2 },
        ] {
            let spec = spec(schedule);
            let (result, events) = spec.trace();
            assert_eq!(result, spec.simulate());
            assert_eq!(events.len(), 3 * 2 * 6 * schedule.chunks());
            let max_finish = events.iter().map(|e| e.finish).fold(0.0, f64::max);
            assert!((max_finish - result.makespan).abs() < 1e-12);
            // Tasks on one stage never overlap.
            for s in 0..3 {
                let mut mine: Vec<_> = events.iter().filter(|e| e.stage == s).collect();
                mine.sort_by(|a, b| a.start.total_cmp(&b.start));
                for w in mine.windows(2) {
                    assert!(w[1].start >= w[0].finish - 1e-12);
                }
            }
        }
    }

    #[test]
    fn gantt_renders_all_stages() {
        let (_, events) = traced();
        let chart = render_gantt(&events, 3, 60).expect("renderable");
        assert_eq!(chart.lines().count(), 4);
        assert!(chart.contains('F') && chart.contains('B'));
    }

    #[test]
    fn gantt_rejects_empty_and_narrow_inputs() {
        let (_, events) = traced();
        assert_eq!(render_gantt(&[], 3, 60), Err(GanttError::NoEvents));
        assert_eq!(
            render_gantt(&events, 3, 9),
            Err(GanttError::WidthTooSmall { width: 9, min: 10 })
        );
        // The width check fires first so the error is deterministic.
        assert_eq!(
            render_gantt(&[], 3, 0),
            Err(GanttError::WidthTooSmall { width: 0, min: 10 })
        );
        let msg = GanttError::WidthTooSmall { width: 9, min: 10 }.to_string();
        assert!(msg.contains('9') && msg.contains("10"), "{msg}");
    }

    #[test]
    fn gantt_survives_a_zero_makespan_trace() {
        let events = [TaskEvent {
            stage: 0,
            chunk: 0,
            task: Task {
                kind: TaskKind::Forward,
                microbatch: 0,
            },
            start: 0.0,
            finish: 0.0,
        }];
        let chart = render_gantt(&events, 1, 20).expect("degenerate but renderable");
        assert!(chart.starts_with("stage  0 |F"));
    }

    #[test]
    fn idle_fractions_is_empty_safe() {
        assert_eq!(idle_fractions(&[], 4), vec![0.0; 4]);
        assert!(idle_fractions(&[], 0).is_empty());
    }

    #[test]
    fn export_mirrors_the_event_list() {
        let (_, events) = traced();
        let mut trace = Trace::new(pipette_obs::TraceConfig::default());
        export_task_events(&events, &mut trace);
        assert_eq!(trace.len(), events.len());
        assert_eq!(trace.count_tag(EventTag::SimTask), events.len());
        let jsonl = trace.to_jsonl();
        let first = jsonl.lines().next().expect("one line per event");
        assert!(first.contains("\"kind\":\"sim_task\""), "{first}");
        assert!(first.contains("\"task\":\"F\""), "{first}");
    }

    #[test]
    fn first_stage_idles_least_in_1f1b() {
        let (_, events) = traced();
        let idle = idle_fractions(&events, 3);
        // Later stages idle during fill and drain.
        assert!(idle[2] >= idle[0] - 1e-9, "idle {idle:?}");
        assert!(idle.iter().all(|&f| (0.0..1.0).contains(&f)));
    }
}
