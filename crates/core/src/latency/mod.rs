//! Latency models: Pipette's refined critical-path estimator (Eqs. 3–6)
//! and the prior-art model it improves on (Eq. 1, used by AMP/Varuna).
//!
//! Both consume profiled compute times; they differ in (a) the pipeline
//! critical path — Pipette charges the inter-stage communication once per
//! `pp` microbatches (the hidden critical path of the 1F1B schedule),
//! Eq. 1 charges it once per iteration — and (b) the bandwidths — Pipette
//! uses the *measured* per-link matrix, the baseline uses datasheet
//! numbers.

mod amp_model;
mod pipette_model;
pub mod terms;

pub use amp_model::{AmpLatencyModel, Eq1Flavor};
pub use pipette_model::{LatencyExplanation, PipetteLatencyModel, SlowLink};
pub use terms::{LatencyBreakdown, LinkGather};
