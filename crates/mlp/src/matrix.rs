//! Minimal dense row-major matrix used by the MLP.
//!
//! Its two products are crate-private and run the crate's `kernel`
//! module: `Matrix::mm_into` (`A · B`, optionally with a fused bias,
//! with output rows split over threads) and `Matrix::mm_at_into`
//! (`Aᵀ · B`). Each row of `A` first compacts the positions of its
//! nonzeros, then a 32-wide tile accumulates their products in
//! ascending `k`, skipping exactly the terms the naive triple loop
//! skips (`a == 0.0`), so the results are **bit-identical** to it —
//! neither the compaction, the tiling, the vector width of the
//! runtime-picked arm nor the thread count changes the sequence of
//! floating-point operations that produces an element. The naive loop
//! lives with the tests (`tests/support/naive.rs`); this module's unit
//! tests check both products against it on every arm the host has.
//!
//! A caller owns the kernel and its index scratch, so [`crate::Mlp::fit`]
//! keeps one for the whole run and stays allocation-free.

use crate::kernel::Kernel;
use std::fmt;

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        debug_assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), rows * cols, "data length mismatch");
        debug_assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        debug_assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        debug_assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            debug_assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the backing row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · rhs` (+ `bias` after each element's whole sum) into `out`
    /// through `kernel`, with output rows split over up to `threads`
    /// workers. Each worker owns a disjoint, contiguous block of output
    /// rows and its own index scratch on `kernel`'s arm, so the partition
    /// never affects the bits; a single worker runs inline on `kernel`.
    pub(crate) fn mm_into(
        &self,
        kernel: &mut Kernel,
        rhs: &Matrix,
        bias: Option<&[f64]>,
        out: &mut Matrix,
        threads: usize,
    ) {
        debug_assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        debug_assert!(
            bias.is_none_or(|b| b.len() == rhs.cols),
            "bias length mismatch"
        );
        debug_assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "output shape mismatch"
        );
        let (m, p, b) = (self.cols, rhs.cols, &rhs.data);
        let workers = threads.clamp(1, self.rows);
        if workers <= 1 {
            return kernel.mm_rows(&self.data, m, b, p, bias, &mut out.data);
        }
        let isa = kernel.isa();
        let rows_per = self.rows.div_ceil(workers);
        std::thread::scope(|scope| {
            for (a_rows, out_rows) in self
                .data
                .chunks(rows_per * m)
                .zip(out.data.chunks_mut(rows_per * p))
            {
                scope.spawn(move || Kernel::new(isa, m).mm_rows(a_rows, m, b, p, bias, out_rows));
            }
        });
    }

    /// `selfᵀ · rhs` into `out` through `kernel`.
    pub(crate) fn mm_at_into(&self, kernel: &mut Kernel, rhs: &Matrix, out: &mut Matrix) {
        debug_assert_eq!(self.rows, rhs.rows, "inner dimensions must agree");
        debug_assert_eq!(
            (out.rows, out.cols),
            (self.cols, rhs.cols),
            "output shape mismatch"
        );
        kernel.mm_at_rows(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Transpose into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong shape.
    pub fn transpose_into(&self, out: &mut Matrix) {
        debug_assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "output shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Column sums into a caller-provided buffer (no allocation). Rows
    /// accumulate in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols`.
    pub fn col_sums_into(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.cols, "output length mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        for row in self.data.chunks(self.cols) {
            for (acc, cell) in out.iter_mut().zip(row) {
                *acc += cell;
            }
        }
    }

    /// Copies the selected rows, repeats allowed (a minibatch), into a
    /// caller-provided buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out.rows() != indices.len()`, widths differ, or an
    /// index is out of range.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        debug_assert_eq!(out.rows, indices.len(), "output row count mismatch");
        debug_assert_eq!(out.cols, self.cols, "output width mismatch");
        for (&i, out_row) in indices.iter().zip(out.data.chunks_mut(self.cols)) {
            out_row.copy_from_slice(self.row(i));
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_values::{same_result, skip_operand};
    use crate::kernel::Isa;
    use crate::naive;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The portable arm, and the detected one when it differs.
    fn arms() -> Vec<Isa> {
        let mut arms = vec![Isa::PORTABLE];
        if Isa::detect() != Isa::PORTABLE {
            arms.push(Isa::detect());
        }
        arms
    }

    /// `self · rhs (+ bias)` through `mm_into` on `isa`.
    fn mm(a: &Matrix, b: &Matrix, bias: Option<&[f64]>, isa: Isa, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        a.mm_into(&mut Kernel::new(isa, a.cols), b, bias, &mut out, threads);
        out
    }

    /// `selfᵀ · rhs` through `mm_at_into` on `isa`.
    fn mm_at(a: &Matrix, b: &Matrix, isa: Isa) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        a.mm_at_into(&mut Kernel::new(isa, a.rows), b, &mut out);
        out
    }

    fn transpose(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, a.rows);
        a.transpose_into(&mut out);
        out
    }

    /// A `rows × cols` skip operand: ~`zero_pct`% signed zeros plus the
    /// edge values of [`skip_operand`].
    fn edge_matrix(rows: usize, cols: usize, zero_pct: u32, rng: &mut ChaCha8Rng) -> Matrix {
        Matrix::from_vec(rows, cols, skip_operand(rows * cols, zero_pct, rng))
    }

    fn assert_same(got: &Matrix, want: &[f64], what: &str) {
        assert_eq!(got.data.len(), want.len(), "{what}: shape");
        for (i, (&g, &w)) in got.data.iter().zip(want).enumerate() {
            assert!(
                same_result(g, w),
                "{what}: element {i}: {g} ({:#x}) vs oracle {w} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let want = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]);
        for isa in arms() {
            assert_eq!(mm(&a, &b, None, isa, 1), want, "{}", isa.name());
        }
        assert_eq!(naive::matmul(&a.data, 2, &b.data, 2), want.data);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).get(2, 1), 6.0);
    }

    /// The fused bias adds its row to every output row (an all-zero `A`
    /// contributes nothing), and the column sums add those rows up.
    #[test]
    fn add_row_and_col_sums() {
        let zeros = Matrix::zeros(2, 3);
        let b = Matrix::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]]);
        let a = mm(&zeros, &b, Some(&[1.0, 2.0, 3.0]), Isa::detect(), 1);
        let mut sums = vec![f64::NAN; 3];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, vec![2.0, 4.0, 6.0]);
    }

    /// The fused bias is added after each element's whole sum, so it is
    /// bit-identical to the product followed by a separate bias pass —
    /// what lets `Mlp::predict` run `fit`'s fused forward step.
    #[test]
    fn fused_bias_matches_two_step() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[0.5, 4.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, -3.0], &[1.5, 2.5]]);
        let bias = [0.25, -0.75];
        for isa in arms() {
            let mut two_step = mm(&a, &b, None, isa, 1);
            for row in two_step.data.chunks_mut(2) {
                row.iter_mut().zip(&bias).for_each(|(cell, b)| *cell += b);
            }
            assert_eq!(mm(&a, &b, Some(&bias), isa, 1), two_step, "{}", isa.name());
        }
    }

    #[test]
    fn transpose_variants_match_materialized() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 0.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        for isa in arms() {
            // Aᵀ·B  (2×3ᵀ = 3×2, times 2×2)
            assert_eq!(mm_at(&a, &b, isa), mm(&transpose(&a), &b, None, isa, 1));
        }
    }

    #[test]
    fn gather_rows_matches_select_rows() {
        let a = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, -2.0], &[3.0, -3.0]]);
        let idx = [2usize, 0, 2, 1];
        let mut out = Matrix::zeros(4, 2);
        a.gather_rows_into(&idx, &mut out);
        let selected: Vec<&[f64]> = idx.iter().map(|&i| a.row(i)).collect();
        assert_eq!(out, Matrix::from_rows(&selected));
    }

    #[test]
    fn select_rows_repeats() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let mut out = Matrix::zeros(4, 1);
        a.gather_rows_into(&[2, 0, 2, 1], &mut out);
        assert_eq!(out, Matrix::from_rows(&[&[3.0], &[1.0], &[3.0], &[2.0]]));
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_transpose(
            n in 1usize..5, m in 1usize..5, k in 1usize..5,
            seed in 0u64..1000,
        ) {
            // (A·B)ᵀ = Bᵀ·Aᵀ
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::from_vec(n, m, (0..n * m).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let b = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let isa = Isa::detect();
            let lhs = transpose(&mm(&a, &b, None, isa, 1));
            let rhs = mm(&transpose(&b), &transpose(&a), None, isa, 1);
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-12);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `mm_into` equals the naive triple loop (plus a separate bias
        /// pass) bit for bit, on every arm, at every thread count
        /// (including counts past the row count), with and without the
        /// fused bias. Dimensions up to 70 cross the 32-wide tile
        /// boundary at 32 and 64 and leave ragged tails in between.
        /// Infinities and NaNs in `B` make a skipped zero of `A`
        /// visible: `0 · inf` would turn the element into NaN.
        #[test]
        fn mm_into_matches_naive_on_every_arm(
            n in 1usize..70, m in 1usize..70, p in 1usize..70,
            zero_pct in 0u32..60, threads in 1usize..9, seed in 0u64..10_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = edge_matrix(n, m, zero_pct, &mut rng);
            let b = edge_matrix(m, p, zero_pct, &mut rng);
            let bias = skip_operand(p, 0, &mut rng);
            let product = naive::matmul(&a.data, m, &b.data, p);
            let mut biased = product.clone();
            for row in biased.chunks_mut(p) {
                row.iter_mut().zip(&bias).for_each(|(cell, b)| *cell += b);
            }
            for isa in arms() {
                let arm = isa.name();
                assert_same(&mm(&a, &b, None, isa, threads), &product, &format!("{arm} A·B"));
                assert_same(
                    &mm(&a, &b, Some(&bias), isa, threads),
                    &biased,
                    &format!("{arm} A·B + bias"),
                );
            }
        }

        /// `mm_at_into` equals the naive product of the materialized
        /// transpose, bit for bit, on every arm.
        #[test]
        fn mm_at_into_matches_naive_on_every_arm(
            n in 1usize..70, m in 1usize..70, p in 1usize..70,
            zero_pct in 0u32..60, seed in 0u64..10_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = edge_matrix(n, m, zero_pct, &mut rng);
            let b = edge_matrix(n, p, zero_pct, &mut rng);
            let at: Vec<f64> = (0..m * n).map(|i| a.data[(i % n) * m + i / n]).collect();
            let want = naive::matmul(&at, n, &b.data, p);
            for isa in arms() {
                assert_same(&mm_at(&a, &b, isa), &want, &format!("{} Aᵀ·B", isa.name()));
            }
        }
    }
}
