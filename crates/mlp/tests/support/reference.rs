//! The reference training loop: the crate's original, allocating
//! implementation of minibatch Adam, kept as the oracle `Mlp::fit` is
//! checked against bit for bit (`tests/kernels.rs`) and as the in-run
//! baseline of `perf_baseline`'s training speedup, which includes this
//! file with `#[path]`.
//!
//! It builds fresh matrices every step, multiplies through the naive
//! triple loop of `naive.rs`, and runs each layer's forward pass with
//! caches its backward pass consumes. It is written against the crate's
//! public API only, so it shares no code with the tiled kernels and the
//! fused training loop it checks.

// Each includer uses a different part of the oracle.
#![allow(dead_code)]

use pipette_mlp::{Adam, Dense, Matrix, Mlp, TrainConfig, TrainReport};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[path = "naive.rs"]
mod naive;

/// `a · b` through the naive triple loop.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let out = naive::matmul(a.as_slice(), a.cols(), b.as_slice(), b.cols());
    Matrix::from_vec(a.rows(), b.cols(), out)
}

/// `aᵀ`.
pub fn transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.rows());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            out.set(c, r, a.get(r, c));
        }
    }
    out
}

/// `f` applied to each element.
fn map(a: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    let data = a.as_slice().iter().map(|&x| f(x)).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// `f` applied to each pair of elements of two equally shaped matrices.
fn zip(a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// The rows of `a` at `indices`, repeats allowed (a minibatch).
fn select_rows(a: &Matrix, indices: &[usize]) -> Matrix {
    let data = indices.iter().flat_map(|&i| a.row(i).to_vec()).collect();
    Matrix::from_vec(indices.len(), a.cols(), data)
}

/// A dense layer with the caches its backward pass reads.
pub struct CachedLayer {
    /// The parameters.
    pub layer: Dense,
    input: Option<Matrix>,
    pre_activation: Option<Matrix>,
}

impl CachedLayer {
    /// `layer` with cold caches.
    pub fn new(layer: Dense) -> Self {
        Self {
            layer,
            input: None,
            pre_activation: None,
        }
    }

    /// `x · W + b`, then ReLU when the layer has one; caches the input
    /// and the pre-activation for [`Self::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut pre = matmul(x, &self.layer.weights);
        for r in 0..pre.rows() {
            for (c, &b) in self.layer.bias.iter().enumerate() {
                pre.set(r, c, pre.get(r, c) + b);
            }
        }
        let out = if self.layer.relu {
            map(&pre, |p| p.max(0.0))
        } else {
            pre.clone()
        };
        self.input = Some(x.clone());
        self.pre_activation = Some(pre);
        out
    }

    /// Consumes the gradient w.r.t. this layer's output and the caches of
    /// the last [`Self::forward`]; returns the gradients w.r.t. the input,
    /// the weights and the bias.
    pub fn backward(&mut self, d_out: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
        let x = self.input.take().expect("backward called before forward");
        let pre = self.pre_activation.take().expect("missing pre-activation");
        let d_pre = if self.layer.relu {
            zip(d_out, &pre, |g, p| if p > 0.0 { g } else { 0.0 })
        } else {
            d_out.clone()
        };
        let d_w = matmul(&transpose(&x), &d_pre);
        let mut d_b = vec![0.0; d_pre.cols()];
        for r in 0..d_pre.rows() {
            for (acc, &g) in d_b.iter_mut().zip(d_pre.row(r)) {
                *acc += g;
            }
        }
        let d_x = matmul(&d_pre, &transpose(&self.layer.weights));
        (d_x, d_w, d_b)
    }
}

/// One forward and backward pass on a batch, then one Adam step over the
/// whole network (weights then bias per layer, in layer order); returns
/// the MSE loss.
fn train_step(layers: &mut [CachedLayer], x: &Matrix, y: &Matrix, opt: &mut Adam) -> f64 {
    let mut h = x.clone();
    for l in layers.iter_mut() {
        h = l.forward(&h);
    }
    let n = (x.rows() * y.cols()) as f64;
    let diff = zip(&h, y, |p, t| p - t);
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    let mut grad = map(&diff, |d| 2.0 * d / n);
    let mut layer_grads = Vec::with_capacity(layers.len());
    for l in layers.iter_mut().rev() {
        let (g_in, d_w, d_b) = l.backward(&grad);
        layer_grads.push((d_w, d_b));
        grad = g_in;
    }
    layer_grads.reverse();

    let mut flat_params = Vec::new();
    let mut flat_grads = Vec::new();
    for (l, (d_w, d_b)) in layers.iter().zip(&layer_grads) {
        flat_params.extend_from_slice(l.layer.weights.as_slice());
        flat_params.extend_from_slice(&l.layer.bias);
        flat_grads.extend_from_slice(d_w.as_slice());
        flat_grads.extend_from_slice(d_b);
    }
    opt.step(&mut flat_params, &flat_grads);
    let mut off = 0;
    for l in layers.iter_mut() {
        let wn = l.layer.weights.as_slice().len();
        l.layer
            .weights
            .as_mut_slice()
            .copy_from_slice(&flat_params[off..off + wn]);
        off += wn;
        let bn = l.layer.bias.len();
        l.layer.bias.copy_from_slice(&flat_params[off..off + bn]);
        off += bn;
    }
    loss
}

/// Trains `mlp` on `(x, y)` under `config` through the reference loop:
/// the same minibatch draws, losses and Adam steps as `Mlp::fit`.
pub fn fit_reference(mlp: &mut Mlp, x: &Matrix, y: &Matrix, config: &TrainConfig) -> TrainReport {
    assert_eq!(x.rows(), y.rows(), "x and y must have the same row count");
    let mut layers: Vec<CachedLayer> = mlp.layers().iter().cloned().map(CachedLayer::new).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut opt = Adam::new(mlp.num_params(), config.learning_rate);
    let batch = config.batch_size.min(x.rows()).max(1);
    let mut losses = Vec::new();
    let mut last = f64::INFINITY;
    for it in 0..config.iterations {
        let (bx, by) = if batch == x.rows() {
            (x.clone(), y.clone())
        } else {
            let idx: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..x.rows())).collect();
            (select_rows(x, &idx), select_rows(y, &idx))
        };
        last = train_step(&mut layers, &bx, &by, &mut opt);
        if it % config.record_every == 0 {
            losses.push(last);
        }
    }
    *mlp = Mlp::from_layers(layers.into_iter().map(|l| l.layer).collect());
    TrainReport {
        iterations: config.iterations,
        final_loss: last,
        loss_curve: losses,
    }
}
