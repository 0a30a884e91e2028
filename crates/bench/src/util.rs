//! Small shared helpers for experiment output.

/// Mean absolute percentage error between predictions and truths.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    debug_assert_eq!(pred.len(), truth.len(), "length mismatch");
    debug_assert!(!pred.is_empty(), "need at least one point");
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs() / t)
        .sum::<f64>()
        / pred.len() as f64
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Formats seconds compactly.
pub fn secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else {
        format!("{:.1} min", s / 60.0)
    }
}

/// Formats bytes as GiB.
pub fn gib(bytes: u64) -> String {
    format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mape_of_exact_is_zero() {
        assert_eq!(mape(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mape_of_double_is_one() {
        assert!((mape(&[2.0, 4.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(0.5), "500.0 ms");
        assert_eq!(secs(2.0), "2.00 s");
        assert_eq!(secs(600.0), "10.0 min");
        assert_eq!(gib(1 << 30), "1.00 GiB");
    }
}
