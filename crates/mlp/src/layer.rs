//! Dense (fully connected) layer with optional ReLU activation.

use crate::kernel::{Isa, Kernel};
use crate::matrix::Matrix;
use rand::Rng;

/// A dense layer `Y = X·W + b`, optionally followed by ReLU.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Weights, `in_dim × out_dim`.
    pub weights: Matrix,
    /// Bias, length `out_dim`.
    pub bias: Vec<f64>,
    /// Whether a ReLU follows the affine map.
    pub relu: bool,
    cache_input: Option<Matrix>,
    cache_pre_activation: Option<Matrix>,
}

/// Gradients produced by a backward pass through a dense layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// Gradient w.r.t. weights.
    pub weights: Matrix,
    /// Gradient w.r.t. bias.
    pub bias: Vec<f64>,
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
            cache_input: None,
            cache_pre_activation: None,
        }
    }

    /// Reassembles a layer from its persisted parts (weights, bias,
    /// activation flag) with cold forward/backward caches — how binary
    /// estimator snapshots are loaded.
    pub fn from_parts(weights: Matrix, bias: Vec<f64>, relu: bool) -> Self {
        debug_assert_eq!(weights.cols(), bias.len(), "bias length mismatch");
        Self {
            weights,
            bias,
            relu,
            cache_input: None,
            cache_pre_activation: None,
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

    /// Forward pass, caching intermediates for a later backward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut pre = x.matmul(&self.weights);
        pre.add_row(&self.bias);
        self.cache_input = Some(x.clone());
        let out = if self.relu {
            pre.map(|v| v.max(0.0))
        } else {
            pre.clone()
        };
        self.cache_pre_activation = Some(pre);
        out
    }

    /// Forward pass without caching (inference).
    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.infer_threaded(x, 1)
    }

    /// [`Self::infer`] with the matmul split over up to `threads` row
    /// blocks; bit-identical at any thread count.
    pub fn infer_threaded(&self, x: &Matrix, threads: usize) -> Matrix {
        self.infer_on(Isa::detect(), x, threads)
    }

    /// [`Self::infer_threaded`] on the `isa` kernel arm.
    pub(crate) fn infer_on(&self, isa: Isa, x: &Matrix, threads: usize) -> Matrix {
        let mut pre = Matrix::zeros(x.rows(), self.out_dim());
        let kernel = &mut Kernel::new(isa, x.cols());
        x.mm_into(kernel, &self.weights, None, &mut pre, threads);
        pre.add_row(&self.bias);
        if self.relu {
            pre.map(|v| v.max(0.0))
        } else {
            pre
        }
    }

    /// Backward pass: consumes `d_out` (gradient w.r.t. this layer's
    /// output) and returns the gradient w.r.t. the layer's input together
    /// with the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::forward`].
    pub fn backward(&mut self, d_out: &Matrix) -> (Matrix, DenseGrads) {
        let x = self
            .cache_input
            .take()
            // pipette-lint: allow(D2) -- documented `# Panics` protocol: backward consumes the cache forward just stored
            .expect("backward called before forward");
        let pre = self
            .cache_pre_activation
            .take()
            // pipette-lint: allow(D2) -- forward stores both caches together; reaching here means the first take succeeded
            .expect("missing pre-activation cache");
        let d_pre = if self.relu {
            d_out.zip(&pre, |g, p| if p > 0.0 { g } else { 0.0 })
        } else {
            d_out.clone()
        };
        let d_w = x.transpose().matmul(&d_pre);
        let d_b = d_pre.col_sums();
        let d_x = d_pre.matmul(&self.weights.transpose());
        (
            d_x,
            DenseGrads {
                weights: d_w,
                bias: d_b,
            },
        )
    }

    /// Number of trainable scalars in this layer.
    pub fn num_params(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn layer(relu: bool) -> Dense {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        Dense::new(3, 2, relu, &mut rng)
    }

    #[test]
    fn forward_matches_infer() {
        let mut l = layer(true);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
        assert_eq!(l.forward(&x), l.infer(&x));
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut l = layer(false);
        l.relu = true;
        let x = Matrix::from_rows(&[&[-100.0, -100.0, -100.0]]);
        // With zero bias and He weights, a hugely negative input saturates.
        let y = l.forward(&x);
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of dL/dW for L = sum(forward(x)).
        let mut l = layer(true);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[0.9, 0.1, -0.4]]);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let _ = l.forward(&x);
        let (_, grads) = l.backward(&ones);

        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.weights.get(r, c);
                l.weights.set(r, c, orig + eps);
                let up: f64 = l.infer(&x).as_slice().iter().sum();
                l.weights.set(r, c, orig - eps);
                let down: f64 = l.infer(&x).as_slice().iter().sum();
                l.weights.set(r, c, orig);
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.weights.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn bias_gradient_sums_rows() {
        let mut l = layer(false);
        let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let _ = l.forward(&x);
        let d_out = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let (_, grads) = l.backward(&d_out);
        assert_eq!(grads.bias, vec![4.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_requires_forward() {
        let mut l = layer(false);
        let d = Matrix::zeros(1, 2);
        let _ = l.backward(&d);
    }

    #[test]
    fn param_count() {
        assert_eq!(layer(false).num_params(), 3 * 2 + 2);
    }
}
