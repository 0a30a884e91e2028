//! Ground-truth training simulator for the Pipette reproduction.
//!
//! The paper measures configurations by actually training GPT models on a
//! 128-GPU cluster. This crate is the stand-in: a deterministic simulator
//! of one training iteration under 3D parallelism, built from
//!
//! * per-link point-to-point and ring/hierarchical all-reduce models
//!   ([`comm`]) over the heterogeneous bandwidth matrix,
//! * the GPipe, memory-efficient 1F1B and interleaved 1F1B pipeline
//!   schedules, each a table of per-device work items ([`schedule`]),
//!   evaluated as one task dependency graph ([`engine`]),
//! * per-stage compute times from FLOP counts ([`compute`]),
//! * a peak-memory model including the framework overheads that analytic
//!   estimators miss ([`memsim`]), and
//! * a profiling facade ([`profile`]) producing the noisy measurements the
//!   Pipette estimator consumes.
//!
//! The crucial structural property: the simulated 1F1B schedule contains
//! the *hidden critical path* of §V — every `pp` microbatches, the first
//! stage must wait for a backward to travel the whole pipeline — so
//! latency models that ignore it (AMP's Eq. 1) mis-rank configurations
//! here exactly as they do on real clusters.
//!
//! # Example
//!
//! ```
//! use pipette_cluster::presets;
//! use pipette_model::{GptConfig, MicrobatchPlan, ParallelConfig};
//! use pipette_sim::{ClusterRun, Mapping};
//!
//! let cluster = presets::mid_range(2).build(7);
//! let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
//! let cfg = ParallelConfig::new(2, 4, 2);
//! let mapping = Mapping::identity(cfg, *cluster.topology());
//! let plan = MicrobatchPlan::new(32, 2)?;
//! let run = ClusterRun::new(&cluster, &gpt);
//! let measured = run.execute(cfg, &mapping, plan)?;
//! assert!(measured.iteration_seconds > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod compute;
pub mod engine;
pub mod error;
pub mod iteration;
pub mod mapping;
pub mod memsim;
pub mod options;
pub mod profile;
pub mod run;
pub mod schedule;
pub mod trace;

pub use comm::{CommModel, HierScratch, P2pLink, RingLinks};
pub use error::SimError;
pub use iteration::{IterationReport, IterationSim};
pub use mapping::Mapping;
pub use memsim::{MemoryReport, MemorySim};
pub use options::{ActivationMode, TrainingOptions};
pub use profile::{ComputeProfiler, ProfiledCompute};
pub use run::{ClusterRun, Measured};
pub use schedule::{PipelineSchedule, Task, TaskKind};
