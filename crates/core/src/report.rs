//! Configuration-overhead accounting (Table II).
//!
//! Pipette adds three one-off costs before training starts: bandwidth
//! profiling, simulated annealing, and memory-estimator inference. Table
//! II shows they total minutes against training runs of weeks — under
//! 0.05 % — while the better configuration saves days.
//!
//! A run may also be given a *logical* deadline: [`crate::Pipette`]
//! charges each phase in the units its trace span reports (profiled
//! pairs, training iterations, candidates, SA evaluations — the Table II
//! cost model) against a fixed budget, and shortens the SA passes
//! deterministically when the budget runs low. Identical request, budget
//! and seed therefore produce an identical [`DeadlineReport`] at any
//! thread count.

use std::fmt;
use std::time::Duration;

/// Breakdown of Pipette's one-time configuration cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Simulated wall-clock of the bandwidth profiling run (Table II row 1).
    pub bandwidth_profiling: Duration,
    /// Wall-clock spent in simulated annealing (Table II row 2).
    pub simulated_annealing: Duration,
    /// Wall-clock spent in memory-estimator inference (Table II row 3).
    pub memory_estimation: Duration,
    /// Wall-clock spent training the memory estimator (one-time per
    /// cluster, amortized across all future configurations; reported
    /// separately from Table II's per-configuration rows).
    pub memory_training: Duration,
}

impl OverheadReport {
    /// Total per-configuration overhead (Table II "Total Conf. Time"
    /// counterpart; excludes the amortized estimator training).
    pub fn total(&self) -> Duration {
        self.bandwidth_profiling + self.simulated_annealing + self.memory_estimation
    }

    /// Overhead as a fraction of a full training run of
    /// `total_iterations × iteration_seconds`.
    pub fn overhead_fraction(&self, iteration_seconds: f64, total_iterations: u64) -> f64 {
        let training = iteration_seconds * total_iterations as f64;
        if training <= 0.0 {
            return 0.0;
        }
        self.total().as_secs_f64() / training
    }
}

impl fmt::Display for OverheadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "profiling {:.2}s + SA {:.2}s + mem-est {:.4}s = {:.2}s (estimator training {:.2}s amortized)",
            self.bandwidth_profiling.as_secs_f64(),
            self.simulated_annealing.as_secs_f64(),
            self.memory_estimation.as_secs_f64(),
            self.total().as_secs_f64(),
            self.memory_training.as_secs_f64(),
        )
    }
}

/// How a logical deadline budget was spent (attached to
/// [`crate::Recommendation::deadline`] when a budget was set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineReport {
    /// The logical budget the run was given.
    pub budget_units: u64,
    /// Logical units charged across all phases (profiling pairs +
    /// training iterations + screened/estimated candidates + SA
    /// iterations).
    pub spent_units: u64,
    /// Whether any phase was cut short (SA passes shortened or skipped,
    /// or estimator training skipped) to fit the budget.
    pub truncated: bool,
}

/// Days of wall-clock for `iterations` training steps at `seconds` each —
/// Table II's "AMP (300K)" / "Pipette (300K)" rows.
pub fn training_days(iteration_seconds: f64, iterations: u64) -> f64 {
    iteration_seconds * iterations as f64 / 86_400.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> OverheadReport {
        OverheadReport {
            bandwidth_profiling: Duration::from_secs_f64(119.6),
            simulated_annealing: Duration::from_secs_f64(790.5),
            memory_estimation: Duration::from_secs_f64(0.04),
            memory_training: Duration::from_secs_f64(60.0),
        }
    }

    #[test]
    fn total_matches_table_two_shape() {
        // 119.62 + 790.51 + 0.04 ≈ 910 s ≈ 15.2 min (Table II mid-range
        // 16-node column totals 13.2 min with their SA budget).
        let t = report().total().as_secs_f64();
        assert!((t - 910.14).abs() < 0.01);
    }

    #[test]
    fn overhead_is_negligible_at_300k_iterations() {
        // 10 s iterations × 300K ≈ 35 days; 910 s of configuration is
        // ~0.03 % — the paper reports ≤ 0.05 %.
        let frac = report().overhead_fraction(10.0, 300_000);
        assert!(frac < 0.0005, "fraction {frac}");
    }

    #[test]
    fn training_days_arithmetic() {
        // Table II: 10.9 s/iter × 300K ≈ 37.8 days.
        let days = training_days(10.87, 300_000);
        assert!((days - 37.74).abs() < 0.05);
    }

    #[test]
    fn display_mentions_all_rows() {
        let s = report().to_string();
        assert!(s.contains("profiling") && s.contains("SA") && s.contains("mem-est"));
    }
}
