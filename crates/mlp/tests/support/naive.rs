//! The naive matmul: the crate's original scalar triple loop, on plain
//! row-major slices. It is the oracle every kernel product is checked
//! against, bit for bit: the unit tests of `Matrix::mm_into` and
//! `Matrix::mm_at_into` include this file, and the reference training
//! loop (`reference.rs`) multiplies through it.

/// `A · B` for a row-major `A` that is `m` wide and a row-major `B` that
/// is `p` wide. A zero of `A` (either sign) skips its whole row of `B`,
/// which is the skip the tiled kernels must reproduce.
pub fn matmul(a: &[f64], m: usize, b: &[f64], p: usize) -> Vec<f64> {
    let n = a.len() / m;
    let mut out = vec![0.0; n * p];
    for i in 0..n {
        for k in 0..m {
            let av = a[i * m + k];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[k * p..(k + 1) * p];
            let out_row = &mut out[i * p..(i + 1) * p];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}
