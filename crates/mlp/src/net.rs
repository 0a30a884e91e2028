//! The multi-layer perceptron: a stack of dense layers with ReLU between.
//!
//! One forward step serves training and inference: each layer runs the
//! fused product `X·W + b` through the tiled kernel, then ReLU in place.
//! [`Mlp::fit`] preallocates every minibatch/activation/gradient buffer
//! once and runs the whole loop allocation-free. Its oracle — the
//! crate's original loop, with fresh matrices every step, a naive
//! triple-loop product and layers that cache their forward pass — lives
//! with the tests (`tests/support/reference.rs`): the two produce
//! **bit-identical** weights, losses, and RNG streams (see
//! `tests/kernels.rs`), so the fast path is a pure speedup, not a
//! numerical change.

use crate::kernel::{Isa, Kernel};
use crate::layer::Dense;
use crate::matrix::Matrix;
use crate::optim::Adam;
use crate::train::{TrainConfig, TrainReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A feed-forward network `in → hidden… → out` with ReLU on every layer
/// except the last.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[10, 200, 200, 200,
    /// 200, 1]` for the paper's five-layer/200-hidden memory estimator.
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn new(widths: &[usize], seed: u64) -> Self {
        debug_assert!(widths.len() >= 2, "need at least input and output widths");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = widths.len() - 1;
        let layers = (0..n)
            .map(|i| Dense::new(widths[i], widths[i + 1], i + 1 < n, &mut rng))
            .collect();
        Self { layers }
    }

    /// The architecture the paper specifies: five layers of 200 hidden
    /// units mapping `in_dim` features to one output (Eq. 7).
    pub fn paper_architecture(in_dim: usize, seed: u64) -> Self {
        Self::new(&[in_dim, 200, 200, 200, 200, 1], seed)
    }

    /// The layer stack, input to output.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Reassembles a network from persisted layers (the binary-snapshot
    /// deserialization path).
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        debug_assert!(!layers.is_empty(), "a network needs at least one layer");
        Self { layers }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(Dense::in_dim).unwrap_or(0)
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(Dense::out_dim).unwrap_or(0)
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Forward pass for inference.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.predict_with_threads(x, 1)
    }

    /// Forward pass for inference with the layer matmuls split over up to
    /// `threads` row blocks. Every output row depends only on the matching
    /// input row, so the result is bit-identical to [`Self::predict`] at
    /// any thread count — and a batch prediction over `n` rows is
    /// bit-identical to `n` single-row predictions.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn predict_with_threads(&self, x: &Matrix, threads: usize) -> Matrix {
        self.predict_on(Isa::detect(), x, threads)
    }

    /// [`Self::predict_with_threads`] on the `isa` kernel arm.
    pub(crate) fn predict_on(&self, isa: Isa, x: &Matrix, threads: usize) -> Matrix {
        debug_assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        let widest = self.layers.iter().map(Dense::in_dim).fold(1, usize::max);
        let kernel = &mut Kernel::new(isa, widest);
        let mut h = x.clone();
        for layer in &self.layers {
            let mut out = Matrix::zeros(x.rows(), layer.out_dim());
            forward_step(layer, kernel, &h, &mut out, threads);
            h = out;
        }
        h
    }

    /// Trains the network on `(x, y)` with minibatch Adam under `config`.
    ///
    /// Allocation-free after setup: minibatch gather buffers, per-layer
    /// activation/gradient scratch, and the flattened parameter vector
    /// are built once and reused for every iteration. Bit-identical to the
    /// original allocating loop the tests keep as its oracle (same RNG
    /// stream, same arithmetic order).
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` disagree on row count or widths mismatch the
    /// network.
    pub fn fit(&mut self, x: &Matrix, y: &Matrix, config: &TrainConfig) -> TrainReport {
        self.fit_with_threads(x, y, config, 1)
    }

    /// [`Self::fit`] with the forward matmuls split over up to `threads`
    /// row blocks. Rows are independent, so results are bit-identical at
    /// any thread count; `threads <= 1` runs fully inline.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` disagree on row count or widths mismatch the
    /// network.
    pub fn fit_with_threads(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        config: &TrainConfig,
        threads: usize,
    ) -> TrainReport {
        self.fit_on(Isa::detect(), x, y, config, threads)
    }

    /// [`Self::fit_with_threads`] with every product on the `isa` kernel
    /// arm (Adam stays portable).
    pub(crate) fn fit_on(
        &mut self,
        isa: Isa,
        x: &Matrix,
        y: &Matrix,
        config: &TrainConfig,
        threads: usize,
    ) -> TrainReport {
        debug_assert_eq!(
            x.rows(),
            y.rows(),
            "x and y must have the same number of rows"
        );
        debug_assert_eq!(x.cols(), self.in_dim(), "input width mismatch");
        debug_assert_eq!(y.cols(), self.out_dim(), "output width mismatch");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut opt = Adam::new(self.num_params(), config.learning_rate);
        let batch = config.batch_size.min(x.rows()).max(1);
        let full_batch = batch == x.rows();
        let n_layers = self.layers.len();

        // One-time workspace. `dxs[l]` holds the gradient w.r.t. the input
        // of layer `l + 1` (equivalently: w.r.t. the output of layer `l`);
        // the gradient w.r.t. layer 0's input is never needed, so it is
        // neither stored nor computed.
        let mut bx = Matrix::zeros(batch, x.cols());
        let mut by = Matrix::zeros(batch, y.cols());
        let mut idx = vec![0usize; batch];
        let mut acts: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(batch, l.out_dim()))
            .collect();
        let mut dxs: Vec<Matrix> = self.layers[1..]
            .iter()
            .map(|l| Matrix::zeros(batch, l.in_dim()))
            .collect();
        let mut wts: Vec<Matrix> = self.layers[1..]
            .iter()
            .map(|l| Matrix::zeros(l.out_dim(), l.in_dim()))
            .collect();
        let mut dloss = Matrix::zeros(batch, self.out_dim());
        let mut dws: Vec<Matrix> = self
            .layers
            .iter()
            .map(|l| Matrix::zeros(l.in_dim(), l.out_dim()))
            .collect();
        let mut dbs: Vec<Vec<f64>> = self.layers.iter().map(|l| vec![0.0; l.out_dim()]).collect();
        // One kernel for every product, its index scratch sized to the
        // longest inner dimension (a layer width, or the batch for
        // `dW = Xᵀ·dY`).
        let widest = self
            .layers
            .iter()
            .map(|l| l.in_dim().max(l.out_dim()))
            .fold(batch, usize::max);
        let kernel = &mut Kernel::new(isa, widest);
        let mut flat_grads = vec![0.0; self.num_params()];
        // Parameters stay flattened across iterations; layers are synced
        // from this vector after every Adam step, so re-gathering each
        // iteration (as the reference loop does) would read back the same
        // bits.
        let mut flat_params = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            flat_params.extend_from_slice(l.weights.as_slice());
            flat_params.extend_from_slice(&l.bias);
        }

        let mut losses = Vec::new();
        let mut last = f64::INFINITY;
        for it in 0..config.iterations {
            let (cx, cy): (&Matrix, &Matrix) = if full_batch {
                (x, y)
            } else {
                use rand::Rng;
                for slot in idx.iter_mut() {
                    *slot = rng.gen_range(0..x.rows());
                }
                x.gather_rows_into(&idx, &mut bx);
                y.gather_rows_into(&idx, &mut by);
                (&bx, &by)
            };

            // Forward, each layer's output into `acts`.
            for l in 0..n_layers {
                let (done, rest) = acts.split_at_mut(l);
                let inp: &Matrix = if l == 0 { cx } else { &done[l - 1] };
                forward_step(&self.layers[l], kernel, inp, &mut rest[0], threads);
            }

            // Loss and output gradient, matching the reference exactly:
            // loss = Σ (h − t)² / n, d = 2·(h − t)/n.
            let n = (cx.rows() * cy.cols()) as f64;
            let h = &acts[n_layers - 1];
            let mut sq_sum = 0.0;
            for ((d, &p), &t) in dloss
                .as_mut_slice()
                .iter_mut()
                .zip(h.as_slice())
                .zip(cy.as_slice())
            {
                let diff = p - t;
                sq_sum += diff * diff;
                *d = 2.0 * diff / n;
            }
            last = sq_sum / n;

            // Backward, reusing `d_out` buffers in place for the ReLU mask.
            for l in (0..n_layers).rev() {
                let (dx_lo, dx_hi) = dxs.split_at_mut(l);
                let d_out: &mut Matrix = if l == n_layers - 1 {
                    &mut dloss
                } else {
                    &mut dx_hi[0]
                };
                let layer = &self.layers[l];
                if layer.relu {
                    // ReLU passes the gradient where its input was
                    // positive, which is exactly where its output is: it
                    // maps every other input, NaN included, to zero.
                    for (g, &a) in d_out.as_mut_slice().iter_mut().zip(acts[l].as_slice()) {
                        *g = if a > 0.0 { *g } else { 0.0 };
                    }
                }
                let d_pre: &Matrix = d_out;
                let inp: &Matrix = if l == 0 { cx } else { &acts[l - 1] };
                inp.mm_at_into(kernel, d_pre, &mut dws[l]);
                d_pre.col_sums_into(&mut dbs[l]);
                if l > 0 {
                    // dX = dY · Wᵀ, through a transposed copy of W.
                    layer.weights.transpose_into(&mut wts[l - 1]);
                    d_pre.mm_into(kernel, &wts[l - 1], None, &mut dx_lo[l - 1], 1);
                }
            }

            // Flatten gradients and take one Adam step over the network.
            let mut off = 0;
            for l in 0..n_layers {
                let wn = dws[l].rows() * dws[l].cols();
                flat_grads[off..off + wn].copy_from_slice(dws[l].as_slice());
                off += wn;
                let bn = dbs[l].len();
                flat_grads[off..off + bn].copy_from_slice(&dbs[l]);
                off += bn;
            }
            opt.step(&mut flat_params, &flat_grads);
            let mut off = 0;
            for l in &mut self.layers {
                let wn = l.weights.rows() * l.weights.cols();
                l.weights
                    .as_mut_slice()
                    .copy_from_slice(&flat_params[off..off + wn]);
                off += wn;
                let bn = l.bias.len();
                l.bias.copy_from_slice(&flat_params[off..off + bn]);
                off += bn;
            }

            if it % config.record_every == 0 {
                losses.push(last);
            }
        }
        TrainReport {
            iterations: config.iterations,
            final_loss: last,
            loss_curve: losses,
        }
    }
}

/// One layer's forward step, shared by [`Mlp::fit`] and [`Mlp::predict`]:
/// `out = inp · W + b` with the bias fused into the product (added after
/// each element's whole sum), then ReLU in place.
fn forward_step(
    layer: &Dense,
    kernel: &mut Kernel,
    inp: &Matrix,
    out: &mut Matrix,
    threads: usize,
) {
    inp.mm_into(kernel, &layer.weights, Some(&layer.bias), out, threads);
    if layer.relu {
        for v in out.as_mut_slice() {
            *v = v.max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-feature corpus: `xs` as a column, and `f` of each as its
    /// target.
    fn column(xs: &[f64], f: impl Fn(f64) -> f64) -> (Matrix, Matrix) {
        let y = xs.iter().map(|&v| f(v)).collect();
        (
            Matrix::from_vec(xs.len(), 1, xs.to_vec()),
            Matrix::from_vec(xs.len(), 1, y),
        )
    }

    #[test]
    fn paper_architecture_shape() {
        let mlp = Mlp::paper_architecture(10, 0);
        assert_eq!(mlp.in_dim(), 10);
        assert_eq!(mlp.out_dim(), 1);
        // 5 weight matrices: 10*200 + 3*(200*200) + 200*1, plus biases.
        assert_eq!(
            mlp.num_params(),
            10 * 200 + 200 + 3 * (200 * 200 + 200) + 200 + 1
        );
    }

    #[test]
    fn fits_linear_function() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 / 10.0).collect();
        let (x, y) = column(&xs, |v| 3.0 * v - 1.0);
        let mut mlp = Mlp::new(&[1, 32, 1], 1);
        let report = mlp.fit(
            &x,
            &y,
            &TrainConfig {
                iterations: 3000,
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
        );
        assert!(report.final_loss < 1e-2, "loss {}", report.final_loss);
    }

    #[test]
    fn fits_nonlinear_function() {
        // y = x0² + x1, needs the hidden layer.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64 / 5.0 - 1.0, (i / 10) as f64 / 5.0 - 1.0])
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y_data: Vec<f64> = rows.iter().map(|r| r[0] * r[0] + r[1]).collect();
        let y = Matrix::from_vec(100, 1, y_data);
        let mut mlp = Mlp::new(&[2, 64, 64, 1], 3);
        let report = mlp.fit(
            &x,
            &y,
            &TrainConfig {
                iterations: 4000,
                learning_rate: 0.005,
                ..TrainConfig::default()
            },
        );
        assert!(report.final_loss < 5e-3, "loss {}", report.final_loss);
    }

    #[test]
    fn training_is_deterministic() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[2.0], &[4.0]]);
        let cfg = TrainConfig {
            iterations: 200,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[1, 8, 1], 5);
        let mut b = Mlp::new(&[1, 8, 1], 5);
        let ra = a.fit(&x, &y, &cfg);
        let rb = b.fit(&x, &y, &cfg);
        assert_eq!(ra.final_loss, rb.final_loss);
        assert_eq!(a, b);
    }

    #[test]
    fn fit_threads_invariant() {
        let (x, y) = column(&[0.0, 0.5, 1.0, 1.5, 2.0], |v| v * v);
        let cfg = TrainConfig {
            iterations: 150,
            batch_size: 3,
            ..TrainConfig::default()
        };
        let mut one = Mlp::new(&[1, 16, 1], 2);
        let mut eight = Mlp::new(&[1, 16, 1], 2);
        let r1 = one.fit_with_threads(&x, &y, &cfg, 1);
        let r8 = eight.fit_with_threads(&x, &y, &cfg, 8);
        assert_eq!(r1.final_loss, r8.final_loss);
        assert_eq!(one, eight);
    }

    #[test]
    fn batch_predict_matches_row_predict() {
        let mlp = Mlp::new(&[3, 16, 16, 1], 4);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 2.0, -3.0], &[0.0, 0.0, 0.0]]);
        let batch = mlp.predict(&x);
        for r in 0..x.rows() {
            let single = mlp.predict(&Matrix::from_rows(&[x.row(r)]));
            assert_eq!(single.row(0), batch.row(r), "row {r}");
        }
        let threaded = mlp.predict_with_threads(&x, 8);
        assert_eq!(threaded, batch);
    }

    #[test]
    fn loss_curve_descends() {
        let (x, y) = column(&[0.0, 0.5, 1.0, 1.5], |v| 2.0 * v);
        let mut mlp = Mlp::new(&[1, 16, 1], 9);
        let report = mlp.fit(
            &x,
            &y,
            &TrainConfig {
                iterations: 1000,
                record_every: 100,
                ..TrainConfig::default()
            },
        );
        assert!(report.loss_curve.first().unwrap() > report.loss_curve.last().unwrap());
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn predict_checks_width() {
        Mlp::new(&[2, 4, 1], 0).predict(&Matrix::zeros(1, 3));
    }
}

#[cfg(test)]
mod golden {
    //! Golden pin of the trained estimator's numbers, on every kernel arm.
    //!
    //! Trains two networks on a fixed, seeded corpus: the cold shape
    //! `[10, 96, 96, 96, 1]` that the CLI's default memory-estimator config
    //! builds, for 500 Adam steps at batch 128, and the paper's 5×200 net
    //! for 50 steps. Every trained weight and bias, the loss curve and the
    //! predictions on a held-out set are folded (by bit pattern) into one
    //! FNV-1a digest. The digest was taken from the branchy scalar kernels
    //! the crate had before the compacting, runtime-dispatched ones, so any
    //! arm that moves a single bit of training fails here. The test runs the
    //! portable arm and, when the CPU has it, the AVX2 arm, and names the
    //! arms it ran.

    use crate::kernel::Isa;
    use crate::{Matrix, Mlp, TrainConfig};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The digest of the two training runs below. It may only change
    /// together with a deliberate change to the estimator's numbers.
    const GOLDEN: u64 = 0xc206_2133_2fea_1e57;

    struct Fnv(u64);

    impl Fnv {
        fn word(&mut self, v: u64) {
            for byte in v.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }

        fn floats(&mut self, xs: &[f64]) {
            self.word(xs.len() as u64);
            xs.iter().for_each(|&x| self.word(x.to_bits()));
        }
    }

    /// `rows` samples of ten features uniform in (−1, 1) and a smooth
    /// nonlinear target.
    fn corpus(rows: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let x: Vec<f64> = (0..rows * 10).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let y = x
            .chunks(10)
            .map(|r| {
                let linear: f64 = r
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (j as f64 + 1.0) / 10.0 * v)
                    .sum();
                linear + r[0] * r[1] - 0.5 * r[2] * r[2]
            })
            .collect();
        (Matrix::from_vec(rows, 10, x), Matrix::from_vec(rows, 1, y))
    }

    /// The cold shape and the paper's net, each with its training protocol.
    const SHAPES: [(&[usize], TrainConfig); 2] = [
        (
            &[10, 96, 96, 96, 1],
            TrainConfig {
                iterations: 500,
                learning_rate: 1.5e-3,
                batch_size: 128,
                record_every: 25,
                seed: 0,
            },
        ),
        (
            &[10, 200, 200, 200, 200, 1],
            TrainConfig {
                iterations: 50,
                learning_rate: 1e-3,
                batch_size: 128,
                record_every: 5,
                seed: 1,
            },
        ),
    ];

    /// The digest of both training runs with every product on `isa`.
    fn digest(isa: Isa) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let (x, y) = corpus(512, 11);
        let (held_out, _) = corpus(64, 12);
        for (seed, (widths, train)) in SHAPES.iter().enumerate() {
            let mut mlp = Mlp::new(widths, seed as u64);
            let report = mlp.fit_on(isa, &x, &y, train, 1);
            h.word(report.iterations as u64);
            h.word(report.final_loss.to_bits());
            h.floats(&report.loss_curve);
            for layer in mlp.layers() {
                h.word(layer.weights.rows() as u64);
                h.floats(layer.weights.as_slice());
                h.floats(&layer.bias);
            }
            h.floats(mlp.predict_on(isa, &held_out, 1).as_slice());
        }
        h.0
    }

    #[test]
    fn trained_estimator_matches_the_golden_digest_on_every_arm() {
        let mut arms = vec![Isa::PORTABLE];
        if Isa::detect() != Isa::PORTABLE {
            arms.push(Isa::detect());
        }
        for &isa in &arms {
            let got = digest(isa);
            assert_eq!(
                got,
                GOLDEN,
                "{} arm moved the trained estimator: digest {got:#018x}",
                isa.name()
            );
        }
        let names: Vec<&str> = arms.iter().map(|isa| isa.name()).collect();
        eprintln!("golden digest matched on arms: {}", names.join(", "));
    }
}
