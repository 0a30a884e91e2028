//! Matmul operands that exercise every branch of the zero-skip
//! predicate, shared by the unit tests of the crate's `kernel` module
//! (arm against arm) and `matrix` module (each product against the
//! naive loop of `naive.rs`), and by `tests/kernels.rs` (the public
//! forward pass against the same loop).

use rand::Rng;

/// `len` cells for a kernel's skip operand: about `zero_pct` % exact
/// zeros, half of them `-0.0` (both skipped), and otherwise mostly
/// uniform(−10, 10) with about 2 % subnormals and 0.25 % each of
/// `+inf`, `-inf` and NaN (all kept). The specials are rare enough that
/// most output rows stay finite and keep their bits checkable.
pub fn skip_operand<R: Rng>(len: usize, zero_pct: u32, rng: &mut R) -> Vec<f64> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0u32..100) < zero_pct {
                return if rng.gen_range(0u32..2) == 0 {
                    0.0
                } else {
                    -0.0
                };
            }
            match rng.gen_range(0u32..400) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::NAN,
                3..=10 => {
                    let sign = rng.gen_range(0u64..2) << 63;
                    f64::from_bits(sign | rng.gen_range(1u64..1 << 52))
                }
                _ => rng.gen_range(-10.0..10.0),
            }
        })
        .collect()
}

/// Whether `got` is the kernel result the oracle's `want` allows: the
/// same bits, or any NaN where `want` is NaN (a NaN's sign and payload
/// depend on which operand the hardware propagated).
pub fn same_result(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}
