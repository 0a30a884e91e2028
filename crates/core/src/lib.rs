//! **Pipette** — automatic fine-grained LLM training configurator for
//! real-world clusters (reproduction of Yim, Song et al., DATE 2024).
//!
//! Training a large language model with 3D parallelism requires choosing
//! the pipeline/tensor/data parallel degrees `(pp, tp, dp)`, a microbatch
//! size, and a mapping of logical workers onto physical GPUs. Pipette
//! automates that choice with three schemes the paper contributes:
//!
//! 1. **Fine-grained worker dedication** ([`mapping`], §IV) — profile the
//!    *attained* per-link bandwidths (heterogeneous in real clusters) and
//!    anneal the worker→GPU mapping to keep critical traffic on fast links.
//! 2. **A refined latency estimator** ([`latency`], §V) — a critical-path
//!    model of the memory-efficient 1F1B schedule (Eqs. 3–6) that captures
//!    the *hidden critical path* missed by prior models (Eq. 1).
//! 3. **A learned memory estimator** ([`memory`], §VI) — an MLP trained on
//!    profiled peak-memory samples, so recommended configurations actually
//!    fit on the GPUs (prior art recommends OOM configs 8 times out of 10).
//!
//! The [`configurator`] module ties the three together into Algorithm 1,
//! and [`baselines`] re-implements the systems the paper compares against
//! (AMP, Varuna, hand-tuned Megatron-LM).
//!
//! # Example
//!
//! ```
//! use pipette::configurator::{Pipette, PipetteOptions};
//! use pipette_cluster::presets;
//! use pipette_model::GptConfig;
//!
//! // A small cluster and model so the doc test stays quick.
//! let cluster = presets::mid_range(2).build(42);
//! let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
//! let mut options = PipetteOptions::fast_test();
//! options.seed = 7;
//! let rec = Pipette::new(&cluster, &gpt, 64, options).run()?;
//! assert_eq!(rec.config.num_workers(), 16);
//! assert!(rec.estimated_seconds > 0.0);
//! # Ok::<(), pipette::ConfigureError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod configurator;
pub mod degraded;
pub mod error;
pub mod latency;
pub mod mapping;
pub mod memory;
pub mod parallel;
pub mod report;
pub mod telemetry;

pub use configurator::{Alternative, MemoryHeadroom, Pipette, PipetteOptions, Recommendation};
pub use degraded::{run_under_faults, DegradedOutcome, ReconfigurationPlan};
pub use error::ConfigureError;
pub use latency::{AmpLatencyModel, Eq1Flavor, PipetteLatencyModel};
pub use mapping::{AnnealStats, Annealer, AnnealerConfig};
pub use memory::{AnalyticMemoryEstimator, MemoryEstimator, MemorySample};
pub use report::{DeadlineReport, OverheadReport};
