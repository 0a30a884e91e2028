//! Minimal dense row-major matrix used by the MLP.
//!
//! Two matmul kernels live here. [`Matrix::matmul_naive`] is the
//! reference triple loop the crate started with; [`Matrix::matmul`] (and
//! the `*_into` / fused / transposed variants) is a register-tiled
//! rewrite of the same arithmetic, run by the crate's `kernel` module:
//! each row of `A` first compacts the positions of its nonzeros, then a
//! 32-wide tile accumulates their products in ascending `k`, skipping
//! exactly the terms the reference skips (`a == 0.0`), so the results
//! are **bit-identical** — neither the compaction, the tiling nor the
//! vector width of the runtime-picked arm changes the sequence of
//! floating-point operations that produces an element. `matmul_parallel`
//! splits output rows across threads; rows are independent, so any
//! thread count returns the same bits (property-tested in
//! `tests/kernels.rs`).
//!
//! The public products allocate the kernel's index scratch (one word per
//! inner-dimension entry) per call; [`crate::Mlp::fit`] owns one scratch
//! for the whole run and stays allocation-free.

use crate::kernel::{Isa, Kernel};
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

    /// Matrix product `self · rhs` through the register-tiled kernel.
    /// Bit-identical to [`Self::matmul_naive`].
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Matrix product into a caller-provided output buffer.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        let kernel = &mut Kernel::new(Isa::detect(), self.cols);
        self.mm_into(kernel, rhs, None, out, 1);
    }

    /// Fused `self · rhs + bias` (bias broadcast over rows), into a
    /// caller-provided buffer. The bias is added after the full `k`
    /// accumulation, so the result is bit-identical to
    /// `matmul` followed by [`Self::add_row`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_bias_into(&self, rhs: &Matrix, bias: &[f64], out: &mut Matrix) {
        let kernel = &mut Kernel::new(Isa::detect(), self.cols);
        self.mm_into(kernel, rhs, Some(bias), out, 1);
    }

    /// `selfᵀ · rhs` without materializing the transpose, into a
    /// caller-provided buffer. Bit-identical to
    /// `self.transpose().matmul(rhs)`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transpose_a_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.mm_at_into(&mut Kernel::new(Isa::detect(), self.rows), rhs, out);
    }

    /// `selfᵀ · rhs`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    pub fn matmul_transpose_a(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_transpose_a_into(rhs, &mut out);
        out
    }

    /// `self · rhsᵀ` into a caller-provided buffer, using `scratch` to
    /// hold the transposed `rhs` (rows stay contiguous for the kernel).
    /// Bit-identical to `self.matmul(&rhs.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_transpose_b_into(&self, rhs: &Matrix, scratch: &mut Matrix, out: &mut Matrix) {
        debug_assert_eq!(self.cols, rhs.cols, "inner dimensions must agree");
        rhs.transpose_into(scratch);
        self.matmul_into(scratch, out);
    }

    /// `self · rhsᵀ`, allocating the output.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(self.cols, rhs.cols, "inner dimensions must agree");
        let mut scratch = Matrix::zeros(rhs.cols, rhs.rows);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_b_into(rhs, &mut scratch, &mut out);
        out
    }

    /// Matrix product with output rows computed on up to `threads` worker
    /// threads. Every row of the product depends only on the matching row
    /// of `self`, so the result is bit-identical to [`Self::matmul`] at
    /// any thread count; `threads <= 1` runs inline with no
    /// synchronization (the same ordered fork-join discipline as
    /// `pipette::parallel::ordered_map`).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_parallel(&self, rhs: &Matrix, threads: usize) -> Matrix {
        debug_assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let kernel = &mut Kernel::new(Isa::detect(), self.cols);
        self.mm_into(kernel, rhs, None, &mut out, threads);
        out
    }

    /// Fused `self · rhs + bias` into a caller-provided buffer with output
    /// rows split over up to `threads` workers. Bit-identical to
    /// [`Self::matmul_bias_into`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn matmul_bias_into_threaded(
        &self,
        rhs: &Matrix,
        bias: &[f64],
        out: &mut Matrix,
        threads: usize,
    ) {
        let kernel = &mut Kernel::new(Isa::detect(), self.cols);
        self.mm_into(kernel, rhs, Some(bias), out, threads);
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

    /// The reference matmul: the crate's original scalar triple loop,
    /// kept verbatim as the ground truth the blocked/parallel kernels are
    /// property-tested against (`tests/kernels.rs`).
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        debug_assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let lhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(lhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
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

    /// Adds a row vector (bias) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row(&mut self, bias: &[f64]) {
        debug_assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (cell, b) in row.iter_mut().zip(bias) {
                *cell += b;
            }
        }
    }

    /// Column sums, returned as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.col_sums_into(&mut out);
        out
    }

    /// Column sums into a caller-provided buffer (no allocation). Rows
    /// accumulate in ascending order, matching [`Self::col_sums`].
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

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary combination.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        debug_assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Selects a subset of rows (with repetition allowed), e.g. a minibatch.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or contains an out-of-range row.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        debug_assert!(!indices.is_empty(), "need at least one row");
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Copies the selected rows into a caller-provided buffer (the
    /// allocation-free [`Self::select_rows`]).
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
    use proptest::prelude::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        assert_eq!(c, a.matmul_naive(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_row_and_col_sums() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row(&[1.0, 2.0, 3.0]);
        assert_eq!(a.col_sums(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn fused_bias_matches_two_step() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[0.5, 4.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, -3.0], &[1.5, 2.5]]);
        let bias = [0.25, -0.75];
        let mut two_step = a.matmul(&b);
        two_step.add_row(&bias);
        let mut fused = Matrix::zeros(2, 2);
        a.matmul_bias_into(&b, &bias, &mut fused);
        assert_eq!(fused, two_step);
    }

    #[test]
    fn transpose_variants_match_materialized() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 0.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        // Aᵀ·B  (2×3ᵀ = 3×2, times 2×2)
        assert_eq!(a.matmul_transpose_a(&b), a.transpose().matmul(&b));
        // A·Bᵀ with B sharing A's width.
        let c = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[3.0, -1.0, 0.5]]);
        assert_eq!(a.matmul_transpose_b(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn gather_rows_matches_select_rows() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let idx = [2usize, 0, 2, 1];
        let mut out = Matrix::zeros(4, 1);
        a.gather_rows_into(&idx, &mut out);
        assert_eq!(out, a.select_rows(&idx));
    }

    #[test]
    fn select_rows_repeats() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let b = a.select_rows(&[2, 0, 2]);
        assert_eq!(b, Matrix::from_rows(&[&[3.0], &[1.0], &[3.0]]));
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::from_rows(&[&[11.0, 18.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_transpose(
            n in 1usize..5, m in 1usize..5, k in 1usize..5,
            seed in 0u64..1000,
        ) {
            // (A·B)ᵀ = Bᵀ·Aᵀ
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Matrix::from_vec(n, m, (0..n * m).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let b = Matrix::from_vec(m, k, (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-12);
            }
        }
    }
}
