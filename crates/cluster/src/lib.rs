//! Cluster substrate for the Pipette reproduction.
//!
//! The paper evaluates Pipette on two real clusters (16 nodes of 8× V100 or
//! 8× A100, NVLink intra-node, InfiniBand inter-node). This crate replaces
//! that hardware with a parameterized model of the same *observable*: a
//! pairwise attained-bandwidth matrix between GPUs, exhibiting the
//! heterogeneity that motivates fine-grained worker dedication (§IV of the
//! paper), plus the temporal drift shown in Fig. 3 and a simulated network
//! profiler standing in for mpiGraph / NCCL-tests.
//!
//! # Example
//!
//! ```
//! use pipette_cluster::presets;
//!
//! let cluster = presets::mid_range(16).build(42);
//! assert_eq!(cluster.topology().num_gpus(), 128);
//! // Inter-node links are heterogeneous: attained bandwidth differs per pair.
//! let topo = cluster.topology();
//! let a = topo.gpu(0, 0);
//! let b = topo.gpu(1, 0);
//! let c = topo.gpu(2, 0);
//! assert_ne!(cluster.bandwidth().between(a, b), cluster.bandwidth().between(a, c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod error;
pub mod faults;
pub mod hardware;
pub mod heterogeneity;
pub mod import;
pub mod link;
pub mod presets;
pub mod profiler;
pub mod rand_util;
pub mod temporal;
pub mod topology;

pub use bandwidth::BandwidthMatrix;
pub use error::ClusterError;
pub use faults::{
    CorruptPair, CorruptionKind, DegradedLink, DriftEpisode, FaultPlan, StragglerGpu,
};
pub use hardware::GpuSpec;
pub use heterogeneity::HeterogeneityModel;
pub use import::parse_mpigraph;
pub use link::{LinkClass, LinkSpec, GIB};
pub use presets::{Cluster, ClusterPreset};
pub use profiler::{
    MeasurementQuality, MeasurementReport, NetworkProfiler, PairIncident, ProfiledBandwidth,
    ProfilingCost,
};
pub use temporal::TemporalDrift;
pub use topology::{ClusterTopology, GpuId, NodeId};
