//! The Adam optimizer.

/// Adam state for one flat parameter vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub epsilon: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `n` parameters with standard defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `learning_rate <= 0`.
    pub fn new(n: usize, learning_rate: f64) -> Self {
        debug_assert!(n > 0, "optimizer needs at least one parameter");
        debug_assert!(learning_rate > 0.0, "learning rate must be positive");
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to `params` in place given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the optimizer's parameter count.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        debug_assert_eq!(params.len(), self.m.len(), "parameter count mismatch");
        debug_assert_eq!(grads.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)², gradient 2(x - 3).
        let mut adam = Adam::new(1, 0.1);
        let mut x = [0.0f64];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x = {}", x[0]);
    }

    #[test]
    fn first_step_moves_by_learning_rate() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut adam = Adam::new(1, 0.05);
        let mut x = [1.0f64];
        adam.step(&mut x, &[123.0]);
        assert!((x[0] - (1.0 - 0.05)).abs() < 1e-6);
    }

    #[test]
    fn steps_counter_increments() {
        let mut adam = Adam::new(2, 0.01);
        assert_eq!(adam.steps(), 0);
        adam.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        adam.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(adam.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn mismatched_params_rejected() {
        Adam::new(2, 0.01).step(&mut [0.0], &[1.0]);
    }
}
