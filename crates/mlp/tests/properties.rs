//! Property tests for the MLP substrate: numerical gradients, training
//! monotonicity, and scaler invariants over randomized shapes and data.

use pipette_mlp::{Dense, Matrix, Mlp, StandardScaler, TrainConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_matrix(rows: usize, cols: usize, seed: u64, scale: f64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect(),
    )
}

/// `x` through a stack of linear layers (zero bias, no activation): the
/// product `x · weights₀ · weights₁ ⋯` as the forward pass computes it.
fn product(x: &Matrix, weights: &[&Matrix]) -> Matrix {
    let layers = weights
        .iter()
        .map(|w| Dense::from_parts((*w).clone(), vec![0.0; w.cols()], false))
        .collect();
    Mlp::from_layers(layers).predict(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Training on linearly-generated data always reduces the loss below
    /// the untrained network's loss, for any small architecture.
    #[test]
    fn training_reduces_loss(
        hidden in 4usize..24,
        n in 16usize..48,
        seed in 0u64..100,
    ) {
        let x = random_matrix(n, 3, seed, 1.0);
        // y = x0 - 2*x1 + 0.5*x2
        let y_data: Vec<f64> = (0..n)
            .map(|r| x.get(r, 0) - 2.0 * x.get(r, 1) + 0.5 * x.get(r, 2))
            .collect();
        let y = Matrix::from_vec(n, 1, y_data);
        let loss_of = |mlp: &Mlp| {
            let pred = mlp.predict(&x);
            pred.as_slice()
                .iter()
                .zip(y.as_slice())
                .map(|(p, t)| (p - t) * (p - t))
                .sum::<f64>()
                / n as f64
        };
        let mut mlp = Mlp::new(&[3, hidden, 1], seed);
        let before = loss_of(&mlp);
        mlp.fit(&x, &y, &TrainConfig { iterations: 600, learning_rate: 5e-3, ..TrainConfig::default() });
        let after = loss_of(&mlp);
        prop_assert!(after < before, "loss {before} -> {after}");
    }

    /// Prediction is a pure function: same input, same output, and
    /// row-wise batching doesn't change per-row results.
    #[test]
    fn prediction_is_pure_and_batch_invariant(
        rows in 2usize..10,
        seed in 0u64..100,
    ) {
        let mlp = Mlp::new(&[4, 8, 1], seed);
        let x = random_matrix(rows, 4, seed ^ 1, 2.0);
        let batch = mlp.predict(&x);
        for r in 0..rows {
            let single = mlp.predict(&Matrix::from_rows(&[x.row(r)]));
            prop_assert!((single.get(0, 0) - batch.get(r, 0)).abs() < 1e-12);
        }
    }

    /// StandardScaler's transform inverts through the statistics it
    /// reports (the ones an estimator snapshot persists), on arbitrary
    /// data.
    #[test]
    fn scaler_round_trips(
        rows in 2usize..20,
        cols in 1usize..6,
        seed in 0u64..100,
        scale in 0.1f64..1000.0,
    ) {
        let x = random_matrix(rows, cols, seed, scale);
        let scaler = StandardScaler::fit(&x);
        let t = scaler.transform(&x);
        for r in 0..rows {
            for c in 0..cols {
                let (a, b) = (x.get(r, c), t.get(r, c) * scaler.stds()[c] + scaler.means()[c]);
                prop_assert!((a - b).abs() < 1e-9 * scale.max(1.0), "{a} vs {b}");
            }
        }
    }

    /// Matrix algebra through the forward pass: (A·B)·C == A·(B·C)
    /// within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in 1usize..5, b in 1usize..5, c in 1usize..5, d in 1usize..5,
        seed in 0u64..100,
    ) {
        let ma = random_matrix(a, b, seed, 1.0);
        let mb = random_matrix(b, c, seed ^ 2, 1.0);
        let mc = random_matrix(c, d, seed ^ 3, 1.0);
        let left = product(&ma, &[&mb, &mc]);
        let right = product(&ma, &[&product(&mb, &[&mc])]);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-10);
        }
    }
}

/// End-to-end descent validation of the full network: one continuous
/// full-batch Adam run on a fixed dataset must drive the loss down with
/// only occasional upticks. If the backward pass were wrong, descent
/// would stall or diverge.
#[test]
fn end_to_end_gradient_check_via_training_descent() {
    let x = random_matrix(24, 3, 7, 1.0);
    let y_data: Vec<f64> = (0..24)
        .map(|r| (x.get(r, 0) * x.get(r, 1)).tanh())
        .collect();
    let y = Matrix::from_vec(24, 1, y_data);
    let mut mlp = Mlp::new(&[3, 16, 16, 1], 9);
    let report = mlp.fit(
        &x,
        &y,
        &TrainConfig {
            iterations: 1_000,
            learning_rate: 1e-3,
            batch_size: 64, // > rows → full batch, deterministic descent
            record_every: 25,
            seed: 0,
        },
    );
    let curve = &report.loss_curve;
    assert!(curve.len() >= 30);
    let increases = curve.windows(2).filter(|w| w[1] > w[0] * 1.001).count();
    assert!(
        increases <= curve.len() / 5,
        "descent too bumpy: {increases} of {}",
        curve.len()
    );
    assert!(report.final_loss < 0.05, "final loss {}", report.final_loss);
    assert!(
        report.final_loss < curve[0] / 5.0,
        "must improve substantially"
    );
}
