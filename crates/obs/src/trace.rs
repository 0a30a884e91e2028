//! The event sink: an append-only, deterministically mergeable trace.
//!
//! A [`Trace`] is just a `Vec<Event>` plus the recording policy
//! ([`TraceConfig`]). Parallel stages record into [`Trace::child`]ren and
//! the orchestrator [`Trace::absorb`]s them back **in work-item order**,
//! so the final stream never depends on thread scheduling. Sequence
//! numbers are assigned at serialization time as the JSONL line index —
//! events carry only logical coordinates of their own domain.

use crate::event::{Event, EventKind, EventTag};
use crate::span::{CostUnit, SpanGuard};
use std::time::Instant;

/// Recording policy for a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Annotate events with wall-clock milliseconds since trace creation.
    /// Off by default: wall time is the one non-deterministic field, and
    /// leaving it off makes traces byte-comparable with zero
    /// post-processing.
    pub wall_clock: bool,
    /// Record every Nth simulated-annealing move as an `sa_move` event
    /// (`1` = every move, `0` = none). Full move logs are large — an SA
    /// pass makes tens of thousands of decisions — so CLI runs default to
    /// a sample.
    pub sa_move_sample_every: usize,
    /// Emit a rolling `sa_summary` every N annealer iterations
    /// (`0` = none).
    pub sa_summary_every: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            wall_clock: false,
            sa_move_sample_every: 64,
            sa_summary_every: 1024,
        }
    }
}

impl TraceConfig {
    /// Record everything: every SA move, summaries every 256 iterations.
    /// Used by tests that assert full coverage.
    pub fn full() -> Self {
        Self {
            wall_clock: false,
            sa_move_sample_every: 1,
            sa_summary_every: 256,
        }
    }
}

/// An append-only event sink.
#[derive(Debug)]
pub struct Trace {
    config: TraceConfig,
    epoch: Instant,
    events: Vec<Event>,
    open_spans: usize,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(TraceConfig::default())
    }
}

impl Trace {
    /// An empty trace with the given recording policy.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            // pipette-lint: allow(D1) -- the epoch anchors opt-in wall_ms extras only; replay ordering uses logical ticks
            epoch: Instant::now(),
            events: Vec::new(),
            open_spans: 0,
        }
    }

    /// The recording policy.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Appends one event, stamping wall time if the policy asks for it.
    pub fn push(&mut self, kind: EventKind) {
        let wall_ms = self
            .config
            .wall_clock
            .then(|| self.epoch.elapsed().as_secs_f64() * 1e3);
        self.events.push(Event { wall_ms, kind });
    }

    /// An empty trace sharing this trace's policy **and epoch**, for a
    /// parallel worker to record into. Absorb children in work-item order
    /// (not completion order) to keep the merged stream deterministic.
    pub fn child(&self) -> Trace {
        Trace {
            config: self.config,
            epoch: self.epoch,
            events: Vec::new(),
            open_spans: 0,
        }
    }

    /// Appends all of `child`'s events after this trace's own. A child
    /// must have all its spans closed: its events nest under whatever
    /// span is open here at absorb time, so an unbalanced child would
    /// corrupt the bracketing of the merged stream.
    pub fn absorb(&mut self, child: Trace) {
        debug_assert_eq!(
            child.open_spans, 0,
            "absorbing a child trace with unclosed spans"
        );
        self.events.extend(child.events);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace as JSON Lines (one event per line, trailing
    /// newline). `seq` is the line index.
    pub fn to_jsonl(&self) -> String {
        self.render(false)
    }

    /// [`Self::to_jsonl`] with wall-clock annotations stripped — the
    /// bit-comparable form used by determinism tests.
    pub fn to_jsonl_stripped(&self) -> String {
        self.render(true)
    }

    fn render(&self, strip_wall: bool) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for (seq, event) in self.events.iter().enumerate() {
            event.write_json(seq, strip_wall, &mut out);
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::to_jsonl`] to `path`, creating parent directories.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_jsonl())
    }

    /// How many recorded events have the given typed discriminant. A
    /// renamed event fails to compile here instead of silently counting
    /// zero.
    pub fn count_tag(&self, tag: EventTag) -> usize {
        self.events.iter().filter(|e| e.kind.tag() == tag).count()
    }

    /// Opens a hierarchical span (emits a `span_open` event) and returns
    /// the guard that [`Self::close_span`] consumes. Spans opened on a
    /// trace must be closed on the *same* trace in LIFO order; child
    /// traces carry their own independent stack (see [`Self::absorb`]).
    #[must_use = "a span guard must be passed back to close_span, or the trace is left unbalanced"]
    pub fn open_span(&mut self, name: &'static str) -> SpanGuard {
        self.push(EventKind::SpanOpen { name });
        self.open_spans += 1;
        SpanGuard::new(name, self.events.len())
    }

    /// Closes the span opened by `guard` (emits a `span_close` event),
    /// recording its logical `cost` in `unit`s and the number of events
    /// it enclosed.
    pub fn close_span(&mut self, guard: SpanGuard, unit: CostUnit, cost: u64) {
        let events = self.events.len().saturating_sub(guard.open_len());
        debug_assert!(self.open_spans > 0, "close_span without a matching open");
        self.open_spans = self.open_spans.saturating_sub(1);
        self.push(EventKind::SpanClose {
            name: guard.name(),
            unit: unit.name(),
            cost,
            events,
        });
    }

    /// Number of spans opened on this trace and not yet closed.
    pub fn open_span_count(&self) -> usize {
        self.open_spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss(iteration: usize) -> EventKind {
        EventKind::MemLoss {
            iteration,
            loss: iteration as f64 * 0.5,
        }
    }

    #[test]
    fn absorb_preserves_work_item_order() {
        let mut root = Trace::default();
        root.push(loss(0));
        let mut a = root.child();
        a.push(loss(1));
        let mut b = root.child();
        b.push(loss(2));
        // Absorb in item order regardless of which finished first.
        root.absorb(a);
        root.absorb(b);
        let iters: Vec<usize> = root
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::MemLoss { iteration, .. } => iteration,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(iters, [0, 1, 2]);
    }

    #[test]
    fn seq_is_line_index() {
        let mut t = Trace::default();
        t.push(loss(10));
        t.push(loss(20));
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"seq":0,"#));
        assert!(lines[1].starts_with(r#"{"seq":1,"#));
    }

    #[test]
    fn wall_clock_off_means_stripped_equals_plain() {
        let mut t = Trace::new(TraceConfig::default());
        assert!(!t.config().wall_clock);
        t.push(loss(1));
        assert_eq!(t.to_jsonl(), t.to_jsonl_stripped());
        assert!(!t.to_jsonl().contains("wall_ms"));
    }

    #[test]
    fn wall_clock_on_is_annotation_only() {
        let mut t = Trace::new(TraceConfig {
            wall_clock: true,
            ..TraceConfig::default()
        });
        t.push(loss(1));
        assert!(t.to_jsonl().contains("wall_ms"));
        assert!(!t.to_jsonl_stripped().contains("wall_ms"));

        let mut plain = Trace::new(TraceConfig::default());
        plain.push(loss(1));
        assert_eq!(t.to_jsonl_stripped(), plain.to_jsonl());
    }

    #[test]
    fn count_kind_counts_tags() {
        let mut t = Trace::default();
        t.push(loss(0));
        t.push(loss(1));
        t.push(EventKind::Counter {
            name: "x".into(),
            value: 3,
        });
        assert_eq!(t.count_tag(EventTag::MemLoss), 2);
        assert_eq!(t.count_tag(EventTag::Counter), 1);
        assert_eq!(t.count_tag(EventTag::SaMove), 0);
    }
}
