//! `pipette-serve`: a hardened request-serving loop for the Pipette
//! configurator.
//!
//! The configurator itself is a pure function of its inputs; this crate
//! adds the operational shell a real cluster deployment needs (§robust
//! serving): a bounded admission queue with deterministic load-shedding,
//! per-request logical deadlines that shorten the search replayably, a
//! circuit breaker that degrades estimator failures into analytic-mode
//! responses, crash-only startup, and graceful drain on shutdown.
//!
//! # Design
//!
//! The crate is deliberately decoupled from the configurator: it depends
//! only on `pipette-obs` (itself dependency-free) and the standard
//! library. The actual request vocabulary — parsing a job spec, running
//! the configurator, rendering a response — is supplied by the caller
//! through the [`RequestHandler`] trait, so the server loop can be
//! tested with trivial handlers and the CLI can plug in the full
//! configurator without a dependency cycle.
//!
//! # Determinism
//!
//! Responses are written strictly in *admission order*: every input line
//! is assigned a logical sequence number at admission, workers complete
//! out of order into a reorder buffer, and a committer drains the buffer
//! in sequence. Identical requests therefore produce byte-identical
//! response streams at any worker count. Telemetry events carry the
//! request's sequence number, so the logical order of shedding and
//! breaker decisions is recoverable from the event payloads even though
//! the *stream position* of completion-time events may vary with worker
//! scheduling.

#![warn(missing_docs)]

mod breaker;
mod request;
mod server;

pub use breaker::{Breaker, BreakerConfig, BreakerState};
pub use request::{Control, ExecContext, Execution, ParseOutcome, RequestHandler};
pub use server::{run_pipe, run_unix, ServeSummary, Server, ServerConfig};
