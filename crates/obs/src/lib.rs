//! **pipette-obs** — deterministic telemetry for the Pipette configurator.
//!
//! The configurator's hot paths (incremental SA objective, batched MLP
//! screening, warm estimator caches) are fast but opaque; this crate makes
//! a run *auditable* without making it *non-reproducible*. Three design
//! rules keep traces bit-comparable across machines and thread counts:
//!
//! 1. **Logical clocks, not wall clocks.** Every [`Event`] is keyed by the
//!    domain's own counters — SA iteration, candidate index, training
//!    iteration — and the line number in the JSONL output. Wall-clock time
//!    is an *optional annotation* ([`TraceConfig::wall_clock`], off by
//!    default) serialized as a trailing `"wall_ms"` field, so a trace with
//!    annotations stripped is byte-identical to one recorded without them.
//! 2. **Deterministic merge.** Parallel work records into child traces
//!    ([`Trace::child`]) that the orchestrator absorbs in work-item order
//!    ([`Trace::absorb`]), so the event stream is independent of how many
//!    worker threads ran.
//! 3. **Typed events, hand-rolled JSON.** [`EventKind`] is an enum (no
//!    per-event allocation beyond the `Vec` push), and serialization is a
//!    fixed field order with shortest-round-trip float formatting — two
//!    traces of equal events are equal strings.
//!
//! [`Metrics`] adds named monotonic [`Counter`]s and power-of-two-bucket
//! [`Histogram`]s that flush into the same sink as `counter` / `histogram`
//! events, sorted by name.
//!
//! [`span`] layers deterministic hierarchical spans over the flat stream
//! (logical cost units, structural nesting, no ids), and [`analysis`]
//! parses JSONL back into a [`span::SpanTree`] for rollups, two-trace
//! diffs, and the committed `trace_budgets.json` CI gate.
//!
//! [`json`] is the workspace's one JSON reader and canonical writer: the
//! event encoder, the trace analytics and the CLI's specs and serve
//! envelopes all go through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod event;
pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use event::{Event, EventKind, EventTag, SCHEMA_VERSION};
pub use metrics::{Counter, Histogram, Metrics};
pub use span::{CostUnit, SpanGuard, SpanTree};
pub use trace::{Trace, TraceConfig};
