//! Cooperative cancellation and logical deadline accounting.
//!
//! Long-running phases of Algorithm 1 (sample collection, the SA passes)
//! poll a [`CancelToken`] at the same cadence the wall-clock budget is
//! consulted (`TIME_CHECK_INTERVAL` iterations). Cancellation is
//! best-effort and *best-so-far*: a cancelled annealing pass returns the
//! best mapping found up to the checkpoint, exactly like an expired
//! `time_limit`, and a cancelled sample sweep yields no corpus at all
//! (partial corpora would make the trained weights depend on timing), so
//! the caller falls back to the analytic memory model.
//!
//! Deadlines are *logical*, not wall-clock: [`crate::Pipette`] charges
//! each phase in the same units its trace span reports (profiled pairs,
//! training iterations, candidates, SA evaluations — the Table II cost
//! model) against a fixed budget, and truncates the SA passes
//! deterministically when the budget runs low. Identical request, budget,
//! and seed therefore produce an identical [`DeadlineReport`] at any
//! thread count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag. Clones observe the same flag; once set it
/// never resets. Checking is a single relaxed atomic load, cheap enough
/// for the SA step loop's existing checkpoint cadence.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(t.is_cancelled());
        assert!(clone.is_cancelled(), "clones share the flag");
        t.cancel();
        assert!(t.is_cancelled(), "cancel is idempotent");
    }

    #[test]
    fn independent_tokens_do_not_interfere() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
