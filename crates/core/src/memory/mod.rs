//! Memory estimation (§VI): the analytic baseline \[20\] and Pipette's
//! learned MLP estimator, plus the sample-collection pipeline that feeds
//! it.

mod analytic;
mod cache;
mod dataset;
mod estimator;
mod index;

pub use analytic::AnalyticMemoryEstimator;
pub use cache::{estimator_fingerprint, CacheCounters, SweepReport, TrainedEstimatorCache};
pub use dataset::{collect_samples, collect_samples_parallel, MemorySample, SampleSpec};
pub use estimator::{EstimatorDegeneracy, MemoryEstimator, MemoryEstimatorConfig, TrainSummary};

pub(crate) use estimator::analytic_prior;
