//! A small, dependency-free multi-layer perceptron.
//!
//! The paper's memory estimator (§VI, Eq. 7) is "an MLP with five layers
//! and 200 hidden sizes, trained for 50,000 iterations" on profiled memory
//! samples. This crate provides exactly that model class, built from
//! scratch: dense layers, ReLU activations, mean-squared-error loss, the
//! Adam optimizer, and a standard feature scaler.
//!
//! # Example
//!
//! Fit `y = 2·x₀ + 1`:
//!
//! ```
//! use pipette_mlp::{Matrix, Mlp, TrainConfig};
//!
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let y = Matrix::from_rows(&[&[1.0], &[3.0], &[5.0], &[7.0]]);
//! let mut mlp = Mlp::new(&[1, 16, 1], 42);
//! let report = mlp.fit(&x, &y, &TrainConfig { iterations: 2000, ..TrainConfig::default() });
//! assert!(report.final_loss < 1e-2);
//! let pred = mlp.predict(&Matrix::from_rows(&[&[4.0]]));
//! assert!((pred.get(0, 0) - 9.0).abs() < 0.5);
//! ```

// `unsafe` is denied everywhere but the private `kernel` module, whose
// only unsafe operations call the AVX2 copies of the matmul row loops
// after runtime detection (see its header).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
pub mod layer;
pub mod matrix;
pub mod net;
pub mod optim;
pub mod scaler;
pub mod train;

// The test oracles live with the integration tests; the unit tests of
// the kernel and its products include them from there.
#[cfg(test)]
#[path = "../tests/support/edge_values.rs"]
mod edge_values;
#[cfg(test)]
#[path = "../tests/support/naive.rs"]
mod naive;

pub use kernel::kernel_isa;
pub use layer::Dense;
pub use matrix::Matrix;
pub use net::Mlp;
pub use optim::Adam;
pub use scaler::StandardScaler;
pub use train::{TrainConfig, TrainReport};
