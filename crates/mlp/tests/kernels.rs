//! Property tests: every fast kernel is bit-identical to the naive
//! reference (`Matrix::matmul_naive`), over shapes that straddle the
//! register-tile width (including non-multiples). The skip operand `A`
//! carries exact `0.0` and `-0.0` (skipped) and subnormals, `±inf` and
//! NaN (kept), so the zero-skip predicate is checked on every value it
//! can see; a NaN result only has to be NaN where the oracle's is.

#[path = "support/edge_values.rs"]
mod edge_values;

use edge_values::{same_result, skip_operand};
use pipette_mlp::{Matrix, Mlp, TrainConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked kernel == naive triple loop, bit for bit. Dimensions up to
    /// 70 cross the 32-wide tile boundary at 32 and 64 and leave ragged
    /// tails in between.
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
        assert_bits_equal(&a.matmul(&b), &a.matmul_naive(&b), "blocked");
    }

    /// Row-split parallel kernel == naive at every thread count,
    /// including counts that exceed the row count.
    #[test]
    fn parallel_matmul_matches_naive(
        n in 1usize..40, m in 1usize..40, p in 1usize..40,
        threads in 1usize..9, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(m, p, 30, &mut rng);
        assert_bits_equal(&a.matmul_parallel(&b, threads), &a.matmul_naive(&b), "parallel");
    }

    /// Fused matmul+bias == naive matmul followed by add_row.
    #[test]
    fn fused_bias_matches_naive_two_step(
        n in 1usize..50, m in 1usize..50, p in 1usize..50,
        threads in 1usize..5, seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(m, p, 0, &mut rng);
        let bias: Vec<f64> = (0..p).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut two_step = a.matmul_naive(&b);
        two_step.add_row(&bias);
        let mut fused = Matrix::zeros(n, p);
        a.matmul_bias_into_threaded(&b, &bias, &mut fused, threads);
        assert_bits_equal(&fused, &two_step, "fused bias");
    }

    /// Aᵀ·B without materializing the transpose == materialized naive.
    #[test]
    fn transpose_a_matches_materialized(
        n in 1usize..50, m in 1usize..50, p in 1usize..50,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(n, p, 30, &mut rng);
        assert_bits_equal(
            &a.matmul_transpose_a(&b),
            &a.transpose().matmul_naive(&b),
            "transpose-a",
        );
    }

    /// A·Bᵀ via scratch transpose == materialized naive.
    #[test]
    fn transpose_b_matches_materialized(
        n in 1usize..50, m in 1usize..50, p in 1usize..50,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = edge_matrix(n, m, 30, &mut rng);
        let b = random_matrix(p, m, 30, &mut rng);
        assert_bits_equal(
            &a.matmul_transpose_b(&b),
            &a.matmul_naive(&b.transpose()),
            "transpose-b",
        );
    }

    /// The allocation-free training loop reproduces the original loop
    /// exactly: same RNG stream, same losses, same weights.
    #[test]
    fn fit_matches_reference(
        hidden in 1usize..24, batch in 1usize..40, seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 15.0 - 1.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y = x.map(|v| v * v - 0.5 * v);
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
        let rs = slow.fit_reference(&x, &y, &cfg);
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
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&refs);
        let y = x.map(|v| 3.0 * v - 1.0);
        let cfg = TrainConfig { iterations: 30, batch_size: 8, seed, ..TrainConfig::default() };
        let mut one = Mlp::new(&[1, 12, 1], seed);
        let mut many = Mlp::new(&[1, 12, 1], seed);
        one.fit_with_threads(&x, &y, &cfg, 1);
        many.fit_with_threads(&x, &y, &cfg, threads);
        prop_assert_eq!(&one, &many);
    }
}
