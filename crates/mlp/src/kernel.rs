//! The matmul row kernels, compiled twice from one source and picked at
//! run time.
//!
//! Every product in the crate ends in one of two row loops:
//! [`Kernel::mm_rows`] (`A · B`, optionally with a fused bias; `A · Bᵀ`
//! runs it on a transposed copy of `B`) and [`Kernel::mm_at_rows`]
//! (`Aᵀ · B`). Each output row first **compacts** the indices `k` with
//! `a(k) != 0.0` into caller-owned scratch, without branching, and then
//! runs the 32-wide register tile over that list. ReLU zeroes about half
//! of every activation row at random, so a data-dependent `if a == 0.0`
//! skip inside the tile loop would mispredict constantly; the
//! compaction stores every index and advances the count by the
//! predicate instead. `!= 0.0` is exactly the complement of the naive
//! loop's skip test (`±0.0` skipped, NaN kept), so every output element
//! still sums the same terms in the same ascending `k` order as the
//! naive triple loop (`tests/support/naive.rs`), to the bit.
//!
//! The loop bodies are `#[inline(always)]` and instantiated twice: once
//! as ordinary code for the build target (the portable arm, SSE2 on
//! baseline x86-64) and once inside `#[target_feature(enable = "avx2")]`
//! functions. The bodies are bounds-checked safe Rust with no intrinsics
//! and no `mul_add`; Rust never contracts `a * b + c` into an FMA, so
//! both arms perform the same IEEE operations per element and only the
//! vector width differs. [`Isa::detect`] picks the arm with
//! `is_x86_feature_detected!`; each kernel call dispatches on the `Isa`
//! it is handed, with the whole row loop inside the target-feature
//! function so the tile loop is compiled for the wide registers.

// The crate denies unsafe_code; this module is the single opt-out. Its
// only unsafe operations are the two calls into the AVX2 copies of the
// row loops, each guarded by an `Isa` flag that only `Isa::detect` sets,
// and only after `is_x86_feature_detected!("avx2")` returned true.
#![allow(unsafe_code)]

/// Width of the register tile every row kernel accumulates into. On the
/// AVX2 arm, 32 doubles are 8 of the 16 ymm registers, leaving room for
/// the broadcast `a(k)` and the `B` loads. On the portable SSE2 arm they
/// fill all 16 xmm registers, so part of the tile spills each step: the
/// same bits, only slower.
const TILE: usize = 32;

/// The instruction set a kernel call runs on. Only [`Isa::detect`] can
/// produce the AVX2 arm, which is what makes its `unsafe` calls sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa {
    avx2: bool,
}

impl Isa {
    /// Baseline code for the build target; runs on every host.
    #[cfg(test)]
    pub(crate) const PORTABLE: Isa = Isa { avx2: false };

    /// The widest arm this CPU supports: AVX2 when the CPU reports it,
    /// else portable. The detection result is cached by `std`.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        Isa { avx2 }
    }

    /// `"avx2"` or `"portable"`.
    pub(crate) fn name(self) -> &'static str {
        if self.avx2 {
            "avx2"
        } else {
            "portable"
        }
    }
}

/// The kernel arm this host runs every product and training step on:
/// `"avx2"` when the CPU reports AVX2, else `"portable"`. Both arms
/// produce the same bits; this only names the code that ran.
pub fn kernel_isa() -> &'static str {
    Isa::detect().name()
}

/// A kernel arm and the index scratch its row loops compact into. A
/// caller that keeps one `Kernel` (as `Mlp::fit` does) allocates nothing
/// per product.
pub(crate) struct Kernel {
    isa: Isa,
    nz: Vec<usize>,
}

impl Kernel {
    /// The `isa` arm, with scratch for inner dimensions up to `inner`;
    /// a longer one is a caller bug and panics.
    pub(crate) fn new(isa: Isa, inner: usize) -> Self {
        Self {
            isa,
            nz: vec![0; inner],
        }
    }

    /// The arm this kernel runs on.
    pub(crate) fn isa(&self) -> Isa {
        self.isa
    }

    /// Row-major `A · B` (+ `bias` after each element's whole sum) into
    /// `out`, one row of `A` (`m` wide) per row of `out` (`p` wide).
    pub(crate) fn mm_rows(
        &mut self,
        a: &[f64],
        m: usize,
        b: &[f64],
        p: usize,
        bias: Option<&[f64]>,
        out: &mut [f64],
    ) {
        let nz = &mut self.nz[..m];
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2 {
            // SAFETY: `avx2` is set only by `Isa::detect`, after
            // `is_x86_feature_detected!("avx2")` reported AVX2 on this CPU.
            return unsafe { mm_rows_avx2(a, m, b, p, bias, out, nz) };
        }
        mm_rows_body(a, m, b, p, bias, out, nz);
    }

    /// `Aᵀ · B` into `out` without materializing `Aᵀ`: output row `i`
    /// reads column `i` of the row-major `A` (`m` wide).
    pub(crate) fn mm_at_rows(&mut self, a: &[f64], m: usize, b: &[f64], p: usize, out: &mut [f64]) {
        let nz = &mut self.nz[..a.len() / m.max(1)];
        #[cfg(target_arch = "x86_64")]
        if self.isa.avx2 {
            // SAFETY: `avx2` is set only by `Isa::detect`, after
            // `is_x86_feature_detected!("avx2")` reported AVX2 on this CPU.
            return unsafe { mm_at_rows_avx2(a, m, b, p, out, nz) };
        }
        mm_at_rows_body(a, m, b, p, out, nz);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mm_rows_avx2(
    a: &[f64],
    m: usize,
    b: &[f64],
    p: usize,
    bias: Option<&[f64]>,
    out: &mut [f64],
    nz: &mut [usize],
) {
    mm_rows_body(a, m, b, p, bias, out, nz);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn mm_at_rows_avx2(a: &[f64], m: usize, b: &[f64], p: usize, out: &mut [f64], nz: &mut [usize]) {
    mm_at_rows_body(a, m, b, p, out, nz);
}

#[inline(always)]
fn mm_rows_body(
    a: &[f64],
    m: usize,
    b: &[f64],
    p: usize,
    bias: Option<&[f64]>,
    out: &mut [f64],
    nz: &mut [usize],
) {
    for (i, out_row) in out.chunks_exact_mut(p).enumerate() {
        let a_row = &a[i * m..(i + 1) * m];
        let n = compact(a_row.iter().copied(), nz);
        tile_row(&nz[..n], |k| a_row[k], b, p, out_row, bias);
    }
}

#[inline(always)]
fn mm_at_rows_body(a: &[f64], m: usize, b: &[f64], p: usize, out: &mut [f64], nz: &mut [usize]) {
    for (i, out_row) in out.chunks_exact_mut(p).enumerate() {
        let n = compact(a.chunks_exact(m).map(|a_row| a_row[i]), nz);
        tile_row(&nz[..n], |k| a[k * m + i], b, p, out_row, None);
    }
}

/// Writes the positions `k` of the nonzero values of `column` into `nz`,
/// ascending, and returns how many there are. Every position is stored
/// and the count advances by the predicate, so there is no branch on the
/// data.
#[inline(always)]
fn compact(column: impl Iterator<Item = f64>, nz: &mut [usize]) -> usize {
    let mut n = 0;
    for (k, av) in column.enumerate() {
        nz[n] = k;
        n += usize::from(av != 0.0);
    }
    n
}

/// One output row: `out_row = Σ_{k ∈ nz} a(k) · B[k][·]`, `k` ascending,
/// with `bias` added after the whole sum (matching the product followed
/// by a separate bias pass exactly).
#[inline(always)]
fn tile_row(
    nz: &[usize],
    a: impl Fn(usize) -> f64,
    b: &[f64],
    p: usize,
    out_row: &mut [f64],
    bias: Option<&[f64]>,
) {
    let mut j0 = 0;
    while j0 < p {
        let w = TILE.min(p - j0);
        let mut acc = [0.0f64; TILE];
        if w == TILE {
            // Hot path: fixed-width tile, fully unrollable.
            for &k in nz {
                let av = a(k);
                let br = &b[k * p + j0..k * p + j0 + TILE];
                for (ac, &bv) in acc.iter_mut().zip(br) {
                    *ac += av * bv;
                }
            }
        } else {
            for &k in nz {
                let av = a(k);
                let br = &b[k * p + j0..k * p + j0 + w];
                for (ac, &bv) in acc[..w].iter_mut().zip(br) {
                    *ac += av * bv;
                }
            }
        }
        match bias {
            Some(bias) => {
                for ((o, &ac), &bi) in out_row[j0..j0 + w]
                    .iter_mut()
                    .zip(&acc[..w])
                    .zip(&bias[j0..j0 + w])
                {
                    *o = ac + bi;
                }
            }
            None => out_row[j0..j0 + w].copy_from_slice(&acc[..w]),
        }
        j0 += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_values::{same_result, skip_operand};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn assert_same(got: &[f64], want: &[f64], what: &str) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                same_result(g, w),
                "{what}: element {i}: avx2 {g} vs portable {w}"
            );
        }
    }

    /// Both row loops give the same results on both arms, over shapes
    /// that straddle the tile width and operands full of signed zeros,
    /// subnormals, infinities and NaNs.
    #[test]
    fn avx2_arm_matches_portable_arm() {
        let avx2 = Isa::detect();
        if avx2 == Isa::PORTABLE {
            eprintln!("this CPU has no AVX2: the portable arm is the only arm");
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for case in 0..300 {
            let (n, m, p) = (
                rng.gen_range(1usize..70),
                rng.gen_range(1usize..70),
                rng.gen_range(1usize..70),
            );
            let zero_pct = rng.gen_range(0u32..60);
            let a = skip_operand(n * m, zero_pct, &mut rng);
            let b = skip_operand(m * p, zero_pct, &mut rng);
            let b_at = skip_operand(n * p, zero_pct, &mut rng);
            let bias = skip_operand(p, 0, &mut rng);
            for bias in [None, Some(bias.as_slice())] {
                let rows = |isa| {
                    let mut out = vec![0.0; n * p];
                    Kernel::new(isa, m).mm_rows(&a, m, &b, p, bias, &mut out);
                    out
                };
                let want = rows(Isa::PORTABLE);
                assert_same(&rows(avx2), &want, &format!("case {case}: A·B"));
            }
            let at_rows = |isa| {
                let mut out = vec![0.0; m * p];
                Kernel::new(isa, n).mm_at_rows(&a, m, &b_at, p, &mut out);
                out
            };
            let want = at_rows(Isa::PORTABLE);
            assert_same(&at_rows(avx2), &want, &format!("case {case}: Aᵀ·B"));
        }
    }
}
