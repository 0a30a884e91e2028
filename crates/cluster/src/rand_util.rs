//! Minimal distribution sampling helpers.
//!
//! The workspace deliberately keeps its dependency set to the vendored
//! offline crates (`rand`, `rand_chacha`, `proptest`), so Gaussian and
//! log-normal sampling are implemented here via the Box–Muller transform
//! instead of pulling in `rand_distr`.

use rand::Rng;

/// Samples a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, sigma²)`.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    mean + sigma * standard_normal(rng)
}

/// Samples a log-normal with the given *log-space* mean and sigma.
///
/// # Panics
///
/// Panics if `sigma` is negative.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, log_mean: f64, sigma: f64) -> f64 {
    normal(rng, log_mean, sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn normal_moments_are_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, -0.3, 0.2) > 0.0);
        }
    }

    #[test]
    fn log_normal_mean_matches_formula() {
        // E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (mu, sigma) = (-0.25f64, 0.15f64);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| log_normal(&mut rng, mu, sigma)).sum::<f64>() / n as f64;
        let expected = (mu + sigma * sigma / 2.0).exp();
        assert!(
            (mean / expected - 1.0).abs() < 0.01,
            "mean {mean} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "sigma must be non-negative")]
    fn negative_sigma_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        normal(&mut rng, 0.0, -1.0);
    }
}
