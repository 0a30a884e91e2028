//! The public products against the naive triple loop, and the
//! allocation-free training loop against the reference loop.
//!
//! The products are the ones the library runs: a one-layer forward pass
//! (`Mlp::predict`, `Mlp::predict_with_threads`), with the layer's bias
//! fused or, where the raw product is checked, all `-0.0` (adding `-0.0`
//! leaves every sum's bits as they are, signed zeros included), and
//! `A·Bᵀ` the way `fit` forms it, a product with a transposed copy of
//! `B`. They must equal the naive loop bit for bit over shapes that
//! straddle the register-tile width (including non-multiples). The skip
//! operand `A` carries exact `0.0` and `-0.0` (skipped) and subnormals,
//! `±inf` and NaN (kept), so the zero-skip predicate is checked on every
//! value it can see; a NaN result only has to be NaN where the oracle's
//! is. These run on the detected kernel arm; the crate's `matrix` unit
//! tests check the same products on every arm the host has.
//!
//! The training loop is checked against the reference loop of
//! `support/reference.rs` (fresh matrices every step, the naive triple
//! loop, layers that cache their forward pass): same RNG stream, same
//! losses, same weights, bit for bit — plus the reference's own
//! gradients, checked numerically, so the oracle is checked too.

#[path = "support/edge_values.rs"]
mod edge_values;
#[path = "support/reference.rs"]
mod reference;

use edge_values::{same_result, skip_operand};
use pipette_mlp::{Dense, Matrix, Mlp, TrainConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reference::{fit_reference, matmul, transpose, CachedLayer};

/// Random matrix with ~`zero_pct`% exact zeros (ReLU-like sparsity).
fn random_matrix(rows: usize, cols: usize, zero_pct: u32, rng: &mut ChaCha8Rng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_range(0u32..100) < zero_pct {
                0.0
            } else {
                rng.gen_range(-10.0..10.0)
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A skip operand: ~`zero_pct`% signed zeros plus the edge values of
/// [`skip_operand`].
fn edge_matrix(rows: usize, cols: usize, zero_pct: u32, rng: &mut ChaCha8Rng) -> Matrix {
    Matrix::from_vec(rows, cols, skip_operand(rows * cols, zero_pct, rng))
}

fn assert_bits_equal(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            same_result(*x, *y),
            "{what}: element {i}: {x} ({:#x}) vs oracle {y} ({:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// A one-layer network whose forward pass is exactly `x · weights`: no
/// ReLU, and a `-0.0` bias, which leaves every sum's bits as they are.
fn linear(weights: Matrix) -> Mlp {
    let bias = vec![-0.0; weights.cols()];
    Mlp::from_layers(vec![Dense::from_parts(weights, bias, false)])
}

/// A one-feature corpus: `xs` as a column, and `f` of each as its target.
fn column(xs: &[f64], f: impl Fn(f64) -> f64) -> (Matrix, Matrix) {
    let y = xs.iter().map(|&v| f(v)).collect();
    (
        Matrix::from_vec(xs.len(), 1, xs.to_vec()),
        Matrix::from_vec(xs.len(), 1, y),
    )
}

fn layer(relu: bool) -> CachedLayer {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    CachedLayer::new(Dense::new(3, 2, relu, &mut rng))
}

/// Σ of a one-layer network's outputs on `x`, through `Mlp::predict`.
fn output_sum(l: &Dense, x: &Matrix) -> f64 {
    let out = Mlp::from_layers(vec![l.clone()]).predict(x);
    out.as_slice().iter().sum()
}

/// The reference's cached forward pass and `Mlp::predict` give the same
/// bits: the unfused product, bias pass and ReLU against the fused
/// forward step.
#[test]
fn forward_matches_predict() {
    let mut l = layer(true);
    let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[-3.0, 0.0, 0.25]]);
    let predicted = Mlp::from_layers(vec![l.layer.clone()]).predict(&x);
    assert_eq!(l.forward(&x), predicted);
}

/// Finite-difference check of the reference's dL/dW for L = Σ forward(x).
#[test]
fn numerical_gradient_check() {
    let mut l = layer(true);
    let x = Matrix::from_rows(&[&[0.3, -0.7, 1.2], &[0.9, 0.1, -0.4]]);
    let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
    let _ = l.forward(&x);
    let (_, d_w, _) = l.backward(&ones);

    let eps = 1e-6;
    let mut probe = l.layer.clone();
    for r in 0..3 {
        for c in 0..2 {
            let orig = probe.weights.get(r, c);
            probe.weights.set(r, c, orig + eps);
            let up = output_sum(&probe, &x);
            probe.weights.set(r, c, orig - eps);
            let down = output_sum(&probe, &x);
            probe.weights.set(r, c, orig);
            let numeric = (up - down) / (2.0 * eps);
            let analytic = d_w.get(r, c);
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
    let (_, _, d_b) = l.backward(&d_out);
    assert_eq!(d_b, vec![4.0, 6.0]);
}

#[test]
fn fit_matches_reference_bitwise() {
    // Minibatch path (batch < rows) and full-batch path both must
    // reproduce the original loop exactly.
    let rows: Vec<Vec<f64>> = (0..50)
        .map(|i| vec![(i % 10) as f64 / 5.0 - 1.0, (i / 10) as f64 / 5.0])
        .collect();
    let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
    let x = Matrix::from_rows(&refs);
    let y_data: Vec<f64> = rows.iter().map(|r| r[0] * 0.5 - r[1]).collect();
    let y = Matrix::from_vec(50, 1, y_data);
    for batch_size in [16, 64] {
        let cfg = TrainConfig {
            iterations: 120,
            batch_size,
            record_every: 10,
            ..TrainConfig::default()
        };
        let mut fast = Mlp::new(&[2, 24, 24, 1], 11);
        let mut slow = Mlp::new(&[2, 24, 24, 1], 11);
        let rf = fast.fit(&x, &y, &cfg);
        let rs = fit_reference(&mut slow, &x, &y, &cfg);
        assert_eq!(rf.final_loss, rs.final_loss, "batch {batch_size}");
        assert_eq!(rf.loss_curve, rs.loss_curve, "batch {batch_size}");
        assert_eq!(fast, slow, "batch {batch_size}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The forward pass's product == naive triple loop, bit for bit.
    /// Dimensions up to 70 cross the 32-wide tile boundary at 32 and 64
    /// and leave ragged tails in between.
    #[test]
    fn blocked_matmul_matches_naive(
        n in 1usize..70, m in 1usize..70, p in 1usize..70,
        zero_pct in 0u32..60, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, zero_pct, &mut rng);
        // Infinities and NaNs in `B` make a skipped zero of `A` visible:
        // `0 · inf` would turn the element into NaN.
        let b = edge_matrix(m, p, zero_pct, &mut rng);
        assert_bits_equal(&linear(b.clone()).predict(&a), &matmul(&a, &b), "blocked");
    }

    /// The row-split forward pass == naive at every thread count,
    /// including counts that exceed the row count.
    #[test]
    fn parallel_matmul_matches_naive(
        n in 1usize..40, m in 1usize..40, p in 1usize..40,
        threads in 1usize..9, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(m, p, 30, &mut rng);
        assert_bits_equal(
            &linear(b.clone()).predict_with_threads(&a, threads),
            &matmul(&a, &b),
            "parallel",
        );
    }

    /// The forward pass's fused bias == naive matmul followed by a
    /// separate bias pass.
    #[test]
    fn fused_bias_matches_naive_two_step(
        n in 1usize..50, m in 1usize..50, p in 1usize..50,
        threads in 1usize..5, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(m, p, 0, &mut rng);
        let bias: Vec<f64> = (0..p).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut two_step = matmul(&a, &b);
        for row in two_step.as_mut_slice().chunks_mut(p) {
            row.iter_mut().zip(&bias).for_each(|(cell, b)| *cell += b);
        }
        let net = Mlp::from_layers(vec![Dense::from_parts(b, bias, false)]);
        assert_bits_equal(&net.predict_with_threads(&a, threads), &two_step, "fused bias");
    }

    /// A·Bᵀ as `fit`'s backward pass forms it (`transpose_into` a
    /// scratch copy, then the product) == naive on the materialized
    /// transpose.
    #[test]
    fn transpose_b_matches_materialized(
        n in 1usize..50, m in 1usize..50, p in 1usize..50,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(p, m, 30, &mut rng);
        let mut b_t = Matrix::zeros(m, p);
        b.transpose_into(&mut b_t);
        assert_bits_equal(
            &linear(b_t).predict(&a),
            &matmul(&a, &transpose(&b)),
            "transpose-b",
        );
    }

    /// The allocation-free training loop reproduces the original loop
    /// exactly: same RNG stream, same losses, same weights.
    #[test]
    fn fit_matches_reference(
        hidden in 1usize..24, batch in 1usize..40, seed in 0u64..1000,
    ) {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 / 15.0 - 1.0).collect();
        let (x, y) = column(&xs, |v| v * v - 0.5 * v);
        let cfg = TrainConfig {
            iterations: 40,
            batch_size: batch,
            record_every: 7,
            seed,
            ..TrainConfig::default()
        };
        let mut fast = Mlp::new(&[1, hidden, 1], seed);
        let mut slow = Mlp::new(&[1, hidden, 1], seed);
        let rf = fast.fit(&x, &y, &cfg);
        let rs = fit_reference(&mut slow, &x, &y, &cfg);
        prop_assert_eq!(rf.final_loss.to_bits(), rs.final_loss.to_bits());
        prop_assert_eq!(rf.loss_curve.len(), rs.loss_curve.len());
        for (a, b) in rf.loss_curve.iter().zip(&rs.loss_curve) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(&fast, &slow);
    }

    /// Training is thread-count invariant.
    #[test]
    fn fit_thread_invariant(threads in 2usize..9, seed in 0u64..1000) {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 10.0).collect();
        let (x, y) = column(&xs, |v| 3.0 * v - 1.0);
        let cfg = TrainConfig { iterations: 30, batch_size: 8, seed, ..TrainConfig::default() };
        let mut one = Mlp::new(&[1, 12, 1], seed);
        let mut many = Mlp::new(&[1, 12, 1], seed);
        one.fit_with_threads(&x, &y, &cfg, 1);
        many.fit_with_threads(&x, &y, &cfg, threads);
        prop_assert_eq!(&one, &many);
    }
}
