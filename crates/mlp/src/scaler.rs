//! Feature standardization (zero mean, unit variance per column).
//!
//! The memory estimator's features span orders of magnitude (GPU counts vs
//! hidden sizes vs batch sizes); standardizing them is what lets a small
//! MLP extrapolate from ≤ 4-node profiles to 16-node clusters.

use crate::matrix::Matrix;

/// Per-column affine normalizer: `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to the columns of `x`.
    ///
    /// Columns with zero variance get a standard deviation of 1 so they map
    /// to zero rather than NaN.
    pub fn fit(x: &Matrix) -> Self {
        let (n, c) = (x.rows() as f64, x.cols());
        let mut means = vec![0.0; c];
        for r in 0..x.rows() {
            for (j, m) in means.iter_mut().enumerate() {
                *m += x.get(r, j);
            }
        }
        for m in means.iter_mut() {
            *m /= n;
        }
        let mut stds = vec![0.0; c];
        for r in 0..x.rows() {
            for (j, s) in stds.iter_mut().enumerate() {
                let d = x.get(r, j) - means[j];
                *s += d * d;
            }
        }
        for s in stds.iter_mut() {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Reassembles a scaler from persisted per-column statistics (the
    /// binary-snapshot deserialization path).
    pub fn from_parts(means: Vec<f64>, stds: Vec<f64>) -> Self {
        debug_assert_eq!(means.len(), stds.len(), "column count mismatch");
        Self { means, stds }
    }

    /// Per-column means, as fitted.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-column standard deviations, as fitted (zero-variance columns
    /// hold 1.0).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Number of features this scaler was fitted on.
    pub fn num_features(&self) -> usize {
        self.means.len()
    }

    /// Applies the normalization.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        debug_assert_eq!(x.cols(), self.means.len(), "feature count mismatch");
        let mut out = x.clone();
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                out.set(r, c, (x.get(r, c) - self.means[c]) / self.stds[c]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_columns() {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for c in 0..2 {
            let mean: f64 = (0..3).map(|r| t.get(r, c)).sum::<f64>() / 3.0;
            let var: f64 = (0..3).map(|r| t.get(r, c).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    /// The transform inverts through the statistics the scaler reports
    /// (the ones an estimator snapshot persists).
    #[test]
    fn inverse_round_trips() {
        let x = Matrix::from_rows(&[&[5.0, -2.0], &[9.0, 4.0], &[1.0, 0.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        for r in 0..3 {
            for c in 0..2 {
                let back = t.get(r, c) * s.stds()[c] + s.means()[c];
                assert!((x.get(r, c) - back).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let x = Matrix::from_rows(&[&[7.0], &[7.0], &[7.0]]);
        let s = StandardScaler::fit(&x);
        let t = s.transform(&x);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }
}
