//! Deterministic hierarchical spans over the flat event stream.
//!
//! A span is a pair of `span_open` / `span_close` events bracketing a
//! phase of work. There are **no span ids in the stream**: a span's
//! parent is simply the nearest enclosing unclosed open, so the tree is
//! a pure function of the (already deterministic) event order and
//! survives [`crate::Trace::child`]/[`crate::Trace::absorb`] merging —
//! a balanced child trace nests under whatever span is open at absorb
//! time. Analysis assigns each span the `seq` of its open event as a
//! stable id.
//!
//! Span cost is a **logical** quantity ([`CostUnit`]: evaluations,
//! iterations, bytes, …) chosen by the instrumentation site, never wall
//! time, so costs are bit-stable across machines and thread counts.
//! Wall time rides along only via the trace's opt-in `wall_ms`
//! annotation, and a span's wall duration is recovered at analysis time
//! as `close.wall_ms - open.wall_ms`.

use crate::event::{Event, EventKind, EventTag};
use crate::Trace;
use std::collections::BTreeMap;
use std::fmt;

/// Unit of a span's logical cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostUnit {
    /// Objective-function evaluations (SA / tempering chains).
    Evals,
    /// Training iterations (memory-estimator fitting).
    Iterations,
    /// Bytes touched or transferred.
    Bytes,
    /// Profiling samples taken.
    Samples,
    /// Parallelism candidates processed.
    Candidates,
    /// GPU pairs measured or imputed.
    Pairs,
    /// Exchange rounds (parallel tempering rendezvous).
    Rounds,
    /// Trace events produced (for spans whose work *is* emission).
    Events,
    /// Serve requests admitted (the daemon's outermost span).
    Requests,
}

impl CostUnit {
    /// The unit tag as written to JSONL.
    pub const fn name(self) -> &'static str {
        match self {
            CostUnit::Evals => "evals",
            CostUnit::Iterations => "iters",
            CostUnit::Bytes => "bytes",
            CostUnit::Samples => "samples",
            CostUnit::Candidates => "candidates",
            CostUnit::Pairs => "pairs",
            CostUnit::Rounds => "rounds",
            CostUnit::Events => "events",
            CostUnit::Requests => "requests",
        }
    }
}

/// Token returned by [`Trace::open_span`] and consumed by
/// [`Trace::close_span`]. Deliberately not RAII: closing needs `&mut
/// Trace` plus a cost, so the close is an explicit call and the
/// `#[must_use]` on `open_span` keeps the bracketing honest.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// Trace length just after the open event — `close_span` derives the
    /// enclosed-event count from it.
    open_len: usize,
}

impl SpanGuard {
    pub(crate) fn new(name: &'static str, open_len: usize) -> Self {
        Self { name, open_len }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn open_len(&self) -> usize {
        self.open_len
    }
}

/// One line of a trace, reduced to what span reconstruction needs.
/// Both in-memory [`Event`]s and parsed JSONL lines lower into this.
#[derive(Debug, Clone)]
pub enum TraceLine<'a> {
    /// A `span_open` event.
    Open {
        /// Span name.
        name: &'a str,
        /// Optional wall-clock annotation.
        wall_ms: Option<f64>,
    },
    /// A `span_close` event.
    Close {
        /// Span name (must match the innermost open).
        name: &'a str,
        /// Cost unit tag.
        unit: &'a str,
        /// Logical cost.
        cost: u64,
        /// Optional wall-clock annotation.
        wall_ms: Option<f64>,
    },
    /// Any other event; only its kind tag matters to the tree.
    Other {
        /// The event's `kind` tag.
        kind: &'a str,
    },
}

impl<'a> TraceLine<'a> {
    /// Lowers an in-memory [`Event`].
    pub fn from_event(event: &'a Event) -> Self {
        match &event.kind {
            EventKind::SpanOpen { name } => TraceLine::Open {
                name,
                wall_ms: event.wall_ms,
            },
            EventKind::SpanClose {
                name, unit, cost, ..
            } => TraceLine::Close {
                name,
                unit,
                cost: *cost,
                wall_ms: event.wall_ms,
            },
            other => TraceLine::Other { kind: other.kind() },
        }
    }
}

/// Why a stream failed span reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanError {
    /// A `span_close` arrived with no span open.
    CloseWithoutOpen {
        /// Line index of the offending close.
        seq: usize,
        /// Name carried by the close.
        name: String,
    },
    /// A `span_close` named a different span than the innermost open.
    NameMismatch {
        /// Line index of the offending close.
        seq: usize,
        /// Name the close carried.
        closed: String,
        /// Name of the innermost open span.
        open: String,
    },
    /// The stream ended with spans still open.
    UnclosedSpans {
        /// Names of the still-open spans, outermost first.
        names: Vec<String>,
    },
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::CloseWithoutOpen { seq, name } => {
                write!(f, "line {seq}: span_close '{name}' with no span open")
            }
            SpanError::NameMismatch { seq, closed, open } => {
                write!(
                    f,
                    "line {seq}: span_close '{closed}' but innermost open span is '{open}'"
                )
            }
            SpanError::UnclosedSpans { names } => {
                write!(f, "stream ended with unclosed spans: {}", names.join(" > "))
            }
        }
    }
}

impl std::error::Error for SpanError {}

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Stable id: line index (`seq`) of the open event.
    pub open_seq: usize,
    /// Line index of the close event.
    pub close_seq: usize,
    /// Index of the parent span in [`SpanTree::nodes`], if nested.
    pub parent: Option<usize>,
    /// Indices of directly nested spans, in stream order.
    pub children: Vec<usize>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Cost unit tag from the close event.
    pub unit: String,
    /// Logical cost from the close event.
    pub cost: u64,
    /// Events enclosed between open and close, nested spans' lines
    /// included.
    pub total_events: usize,
    /// Enclosed events minus everything inside nested spans (and the
    /// nested open/close lines themselves).
    pub self_events: usize,
    /// `close.wall_ms - open.wall_ms` when both were annotated.
    pub wall_ms: Option<f64>,
}

/// The span forest reconstructed from one trace, plus stream-level
/// tallies (total lines, per-kind counts) used by rollups and budgets.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
    total_lines: usize,
    kind_counts: BTreeMap<String, u64>,
}

/// Aggregate over all instances of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRollup {
    /// Span name.
    pub name: String,
    /// Number of instances.
    pub count: u64,
    /// Cost unit, or `"mixed"` if instances disagree.
    pub unit: String,
    /// Summed logical cost.
    pub cost: u64,
    /// Summed enclosed events (nested spans included).
    pub total_events: u64,
    /// Summed self events (nested spans excluded).
    pub self_events: u64,
    /// Summed wall duration over instances that carried annotations.
    pub wall_ms: Option<f64>,
}

impl SpanTree {
    /// Reconstructs the tree from an in-memory trace.
    pub fn from_trace(trace: &Trace) -> Result<Self, SpanError> {
        Self::build(trace.events().iter().map(TraceLine::from_event))
    }

    /// Reconstructs the tree from lowered trace lines (the shared path
    /// for in-memory events and parsed JSONL).
    pub fn build<'a>(lines: impl Iterator<Item = TraceLine<'a>>) -> Result<Self, SpanError> {
        let mut nodes: Vec<SpanNode> = Vec::new();
        let mut roots = Vec::new();
        let mut stack: Vec<(usize, Option<f64>)> = Vec::new();
        let mut kind_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut total_lines = 0usize;
        for (seq, line) in lines.enumerate() {
            total_lines = seq + 1;
            let kind = match line {
                TraceLine::Open { .. } => EventTag::SpanOpen.name(),
                TraceLine::Close { .. } => EventTag::SpanClose.name(),
                TraceLine::Other { kind } => kind,
            };
            *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
            match line {
                TraceLine::Open { name, wall_ms } => {
                    let parent = stack.last().map(|&(idx, _)| idx);
                    let depth = stack.len();
                    let idx = nodes.len();
                    nodes.push(SpanNode {
                        name: name.to_string(),
                        open_seq: seq,
                        close_seq: 0,
                        parent,
                        children: Vec::new(),
                        depth,
                        unit: String::new(),
                        cost: 0,
                        total_events: 0,
                        self_events: 0,
                        wall_ms: None,
                    });
                    match parent {
                        Some(p) => nodes[p].children.push(idx),
                        None => roots.push(idx),
                    }
                    stack.push((idx, wall_ms));
                }
                TraceLine::Close {
                    name,
                    unit,
                    cost,
                    wall_ms,
                } => {
                    let Some((idx, open_wall)) = stack.pop() else {
                        return Err(SpanError::CloseWithoutOpen {
                            seq,
                            name: name.to_string(),
                        });
                    };
                    if nodes[idx].name != name {
                        return Err(SpanError::NameMismatch {
                            seq,
                            closed: name.to_string(),
                            open: nodes[idx].name.clone(),
                        });
                    }
                    let total_events = seq - nodes[idx].open_seq - 1;
                    let nested: usize = nodes[idx]
                        .children
                        .iter()
                        .map(|&c| nodes[c].total_events + 2)
                        .sum();
                    let node = &mut nodes[idx];
                    node.close_seq = seq;
                    node.unit = unit.to_string();
                    node.cost = cost;
                    node.total_events = total_events;
                    node.self_events = total_events.saturating_sub(nested);
                    node.wall_ms = match (open_wall, wall_ms) {
                        (Some(o), Some(c)) => Some(c - o),
                        _ => None,
                    };
                }
                TraceLine::Other { .. } => {}
            }
        }
        if !stack.is_empty() {
            return Err(SpanError::UnclosedSpans {
                names: stack
                    .iter()
                    .map(|&(idx, _)| nodes[idx].name.clone())
                    .collect(),
            });
        }
        Ok(Self {
            nodes,
            roots,
            total_lines,
            kind_counts,
        })
    }

    /// All spans, in open (stream) order.
    pub fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of top-level spans, in stream order.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Total lines in the stream (span lines included).
    pub fn total_lines(&self) -> usize {
        self.total_lines
    }

    /// Per-kind event counts over the whole stream.
    pub fn kind_counts(&self) -> &BTreeMap<String, u64> {
        &self.kind_counts
    }

    /// Aggregates instances by span name, sorted by name.
    pub fn rollups(&self) -> Vec<SpanRollup> {
        let mut by_name: BTreeMap<&str, SpanRollup> = BTreeMap::new();
        for node in &self.nodes {
            let entry = by_name
                .entry(node.name.as_str())
                .or_insert_with(|| SpanRollup {
                    name: node.name.clone(),
                    count: 0,
                    unit: node.unit.clone(),
                    cost: 0,
                    total_events: 0,
                    self_events: 0,
                    wall_ms: None,
                });
            if entry.unit != node.unit {
                entry.unit = "mixed".to_string();
            }
            entry.count += 1;
            entry.cost += node.cost;
            entry.total_events += node.total_events as u64;
            entry.self_events += node.self_events as u64;
            if let Some(w) = node.wall_ms {
                *entry.wall_ms.get_or_insert(0.0) += w;
            }
        }
        by_name.into_values().collect()
    }

    /// The `n` hottest span names by summed enclosed events (ties broken
    /// by name, so the ranking is deterministic).
    pub fn hot_spans(&self, n: usize) -> Vec<SpanRollup> {
        let mut rollups = self.rollups();
        rollups.sort_by(|a, b| {
            b.total_events
                .cmp(&a.total_events)
                .then_with(|| a.name.cmp(&b.name))
        });
        rollups.truncate(n);
        rollups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;

    fn note(i: usize) -> EventKind {
        EventKind::MemLoss {
            iteration: i,
            loss: 0.0,
        }
    }

    #[test]
    fn guards_bracket_and_count_enclosed_events() {
        let mut t = Trace::new(TraceConfig::default());
        let outer = t.open_span("outer");
        t.push(note(0));
        let inner = t.open_span("inner");
        t.push(note(1));
        t.push(note(2));
        t.close_span(inner, CostUnit::Iterations, 2);
        t.push(note(3));
        t.close_span(outer, CostUnit::Candidates, 1);
        assert_eq!(t.open_span_count(), 0);

        let tree = SpanTree::from_trace(&t).expect("balanced");
        assert_eq!(tree.nodes().len(), 2);
        let outer = &tree.nodes()[0];
        let inner = &tree.nodes()[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.depth, 0);
        // outer encloses: note, span_open, note, note, span_close, note = 6
        assert_eq!(outer.total_events, 6);
        // minus inner's 2 events and its open/close lines = 2
        assert_eq!(outer.self_events, 2);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.total_events, 2);
        assert_eq!(inner.self_events, 2);
        assert_eq!(inner.unit, "iters");
        assert_eq!(inner.cost, 2);
        assert_eq!(tree.roots(), &[0]);
    }

    #[test]
    fn recorded_events_field_matches_reconstruction() {
        let mut t = Trace::new(TraceConfig::default());
        let g = t.open_span("phase");
        t.push(note(0));
        t.push(note(1));
        t.close_span(g, CostUnit::Events, 2);
        let close = t.events().last().expect("close event");
        match &close.kind {
            EventKind::SpanClose { events, .. } => assert_eq!(*events, 2),
            other => panic!("expected span_close, got {other:?}"),
        }
    }

    #[test]
    fn absorbed_children_nest_under_the_open_span() {
        let mut root = Trace::new(TraceConfig::default());
        let anneal = root.open_span("anneal");
        let mut a = root.child();
        let ga = a.open_span("chain");
        a.push(note(0));
        a.close_span(ga, CostUnit::Evals, 10);
        let mut b = root.child();
        let gb = b.open_span("chain");
        b.push(note(1));
        b.close_span(gb, CostUnit::Evals, 20);
        root.absorb(a);
        root.absorb(b);
        root.close_span(anneal, CostUnit::Evals, 30);

        let tree = SpanTree::from_trace(&root).expect("balanced");
        assert_eq!(tree.nodes().len(), 3);
        assert_eq!(tree.nodes()[0].name, "anneal");
        assert_eq!(tree.nodes()[0].children, vec![1, 2]);
        assert_eq!(tree.nodes()[1].parent, Some(0));
        assert_eq!(tree.nodes()[2].parent, Some(0));
        let rollups = tree.rollups();
        assert_eq!(rollups.len(), 2);
        let chain = rollups.iter().find(|r| r.name == "chain").expect("chain");
        assert_eq!(chain.count, 2);
        assert_eq!(chain.cost, 30);
        assert_eq!(chain.unit, "evals");
    }

    #[test]
    fn mismatched_close_is_an_error() {
        let lines = vec![
            TraceLine::Open {
                name: "a",
                wall_ms: None,
            },
            TraceLine::Close {
                name: "b",
                unit: "evals",
                cost: 0,
                wall_ms: None,
            },
        ];
        match SpanTree::build(lines.into_iter()) {
            Err(SpanError::NameMismatch { seq, closed, open }) => {
                assert_eq!(seq, 1);
                assert_eq!(closed, "b");
                assert_eq!(open, "a");
            }
            other => panic!("expected NameMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unbalanced_streams_are_errors() {
        let open_only = vec![TraceLine::Open {
            name: "a",
            wall_ms: None,
        }];
        assert!(matches!(
            SpanTree::build(open_only.into_iter()),
            Err(SpanError::UnclosedSpans { .. })
        ));
        let close_only = vec![TraceLine::Close {
            name: "a",
            unit: "evals",
            cost: 0,
            wall_ms: None,
        }];
        assert!(matches!(
            SpanTree::build(close_only.into_iter()),
            Err(SpanError::CloseWithoutOpen { .. })
        ));
    }

    #[test]
    fn wall_duration_is_close_minus_open() {
        let lines = vec![
            TraceLine::Open {
                name: "a",
                wall_ms: Some(10.0),
            },
            TraceLine::Close {
                name: "a",
                unit: "evals",
                cost: 1,
                wall_ms: Some(12.5),
            },
        ];
        let tree = SpanTree::build(lines.into_iter()).expect("balanced");
        assert_eq!(tree.nodes()[0].wall_ms, Some(2.5));
    }

    #[test]
    fn hot_spans_rank_by_enclosed_events_deterministically() {
        let mut t = Trace::new(TraceConfig::default());
        let big = t.open_span("big");
        for i in 0..5 {
            t.push(note(i));
        }
        t.close_span(big, CostUnit::Events, 5);
        let small = t.open_span("small");
        t.push(note(9));
        t.close_span(small, CostUnit::Events, 1);
        let tree = SpanTree::from_trace(&t).expect("balanced");
        let hot = tree.hot_spans(1);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].name, "big");
    }
}
