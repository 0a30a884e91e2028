//! Dense (fully connected) layer parameters.

use crate::matrix::Matrix;
use rand::Rng;

/// A dense layer `Y = X·W + b`, optionally followed by ReLU. It holds
/// parameters only: [`crate::Mlp`] runs the forward pass and training.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias, length `out_dim`.
    pub bias: Vec<f64>,
    /// Whether a ReLU follows the affine map.
    pub relu: bool,
}

/// Samples a standard normal via Box–Muller (keeps the crate free of
/// `rand_distr`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl Dense {
    /// He-initialized dense layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, relu: bool, rng: &mut R) -> Self {
        debug_assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let scale = (2.0 / in_dim as f64).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| standard_normal(rng) * scale)
            .collect();
        Self {
            weights: Matrix::from_vec(in_dim, out_dim, data),
            bias: vec![0.0; out_dim],
            relu,
        }
    }

    /// Reassembles a layer from its persisted parts (weights, bias,
    /// activation flag) — how binary estimator snapshots are loaded.
    pub fn from_parts(weights: Matrix, bias: Vec<f64>, relu: bool) -> Self {
        debug_assert_eq!(weights.cols(), bias.len(), "bias length mismatch");
        Self {
            weights,
            bias,
            relu,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Number of trainable scalars in this layer.
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mlp;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layer(relu: bool) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        Dense::new(3, 2, relu, &mut rng)
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut l = layer(false);
        l.relu = true;
        let x = Matrix::from_rows(&[&[-100.0, -100.0, -100.0]]);
        // With zero bias and He weights, a hugely negative input saturates.
        let y = Mlp::from_layers(vec![l]).predict(&x);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn param_count() {
        assert_eq!(layer(false).num_params(), 3 * 2 + 2);
    }
}
