//! Model substrate for the Pipette reproduction: GPT transformer
//! descriptions and the arithmetic the configurator needs about them.
//!
//! Everything Pipette decides is driven by four families of quantities:
//!
//! * **FLOPs** per microbatch per pipeline stage ([`flops`]) — the compute
//!   term `C` of the latency models;
//! * **message sizes** for pipeline, tensor, and data parallel
//!   communication ([`messages`]) — the `msg` terms of Eqs. 5–6;
//! * **memory anatomy** ([`memory`]) — weights/optimizer state and
//!   activation footprints per GPU;
//! * **the configuration space itself** ([`parallel`], [`batching`]) —
//!   `(pp, tp, dp)` factorizations and micro/minibatch decompositions
//!   (Algorithm 1's loops).
//!
//! # Example
//!
//! ```
//! use pipette_model::{GptConfig, ParallelConfig};
//!
//! let gpt = GptConfig::gpt_3_1b();
//! assert!(gpt.num_params() > 3_000_000_000);
//! let configs = ParallelConfig::enumerate(128, 8, gpt.n_layers);
//! assert!(configs.iter().all(|c| c.num_workers() == 128));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batching;
pub mod error;
pub mod flops;
pub mod gpt;
pub mod memory;
pub mod messages;
pub mod parallel;
pub mod throughput;

pub use batching::{candidate_space, divisors, BatchConfig, MicrobatchPlan};
pub use error::ModelError;
pub use gpt::GptConfig;
pub use parallel::{ParallelConfig, WorkerId};
