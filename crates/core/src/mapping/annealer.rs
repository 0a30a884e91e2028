//! Simulated annealing over worker mappings (§IV).
//!
//! Classic SA with the paper's parameters: geometric cooling with
//! α = 0.999 and the migration/swap/reverse move set. The paper gives each
//! configuration a 10 s wall-clock budget; here a run stops after a fixed
//! number of iterations, so it replays from its seed on any machine. The
//! mapping problem is analogous to NoC core mapping [17, 18], for which SA
//! is the standard tool.

use crate::mapping::moves::{Move, MoveKind};
use crate::mapping::objective::{FnObjective, Objective};
use pipette_sim::Mapping;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Annealer parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealerConfig {
    /// Number of iterations (objective evaluations).
    pub iterations: usize,
    /// Geometric cooling coefficient (paper: 0.999).
    pub alpha: f64,
    /// Initial temperature as a fraction of the initial cost.
    pub initial_temp_fraction: f64,
    /// RNG seed.
    pub seed: u64,
    /// Restrict the move set (ablation): allow the migration move.
    pub enable_migration: bool,
    /// Allow the swap move.
    pub enable_swap: bool,
    /// Allow the reverse move.
    pub enable_reverse: bool,
}

impl Default for AnnealerConfig {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            alpha: 0.999,
            initial_temp_fraction: 0.05,
            seed: 0,
            enable_migration: true,
            enable_swap: true,
            enable_reverse: true,
        }
    }
}

impl AnnealerConfig {
    /// A tiny budget for unit tests.
    pub fn fast_test() -> Self {
        Self {
            iterations: 1_500,
            ..Self::default()
        }
    }
}

/// Statistics of one annealing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// Objective evaluations performed.
    pub evaluations: usize,
    /// Accepted moves (including uphill acceptances).
    pub accepted: usize,
    /// Moves that strictly improved the best cost.
    pub improvements: usize,
    /// Cost of the initial mapping.
    pub initial_cost: f64,
    /// Cost of the best mapping found.
    pub best_cost: f64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl AnnealStats {
    /// Relative improvement over the initial mapping, in `[0, 1)`.
    pub fn improvement(&self) -> f64 {
        if self.initial_cost <= 0.0 {
            return 0.0;
        }
        1.0 - self.best_cost / self.initial_cost
    }
}

/// Everything known about one annealing decision, handed to an
/// [`SaObserver`] after the accept/reject verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaMoveRecord {
    /// Iteration index within this annealing run (0-based).
    pub iteration: usize,
    /// Which move was proposed.
    pub kind: MoveKind,
    /// Objective delta of the proposal (`cost − current_cost`; negative is
    /// an improvement).
    pub delta: f64,
    /// Temperature at the decision.
    pub temperature: f64,
    /// Whether the move was accepted (downhill, or uphill by the
    /// Metropolis draw).
    pub accepted: bool,
    /// Objective of the current mapping *after* applying the verdict.
    pub current_cost: f64,
    /// Best objective seen so far.
    pub best_cost: f64,
}

/// Hook into the annealing loop, called once per iteration after the
/// accept/reject decision. Observers never touch the RNG, so an observed
/// run takes bit-identical decisions to an unobserved one.
pub trait SaObserver {
    /// One decision was taken.
    fn on_move(&mut self, record: &SaMoveRecord);
}

/// The default observer: does nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOpObserver;

impl SaObserver for NoOpObserver {
    #[inline(always)]
    fn on_move(&mut self, _record: &SaMoveRecord) {}
}

/// The enabled move kinds of a config as a stack array (the annealing
/// loop's one lookup table has no reason to live on the heap). The order
/// mirrors the arms of `Move::random`, so with all three enabled the
/// per-iteration index draw consumes the same `gen_range(0..3u8)` the old
/// rejection-sampling loop did — the RNG stream (and thus every
/// historical result for a given seed) is preserved.
pub(crate) fn enabled_moves(config: &AnnealerConfig) -> ([MoveKind; 3], usize) {
    let mut buf = [MoveKind::Migration; 3];
    let mut len = 0usize;
    for (on, kind) in [
        (config.enable_migration, MoveKind::Migration),
        (config.enable_swap, MoveKind::Swap),
        (config.enable_reverse, MoveKind::Reverse),
    ] {
        if on {
            buf[len] = kind;
            len += 1;
        }
    }
    (buf, len)
}

/// The per-chain state of one annealing trajectory, shared by the
/// single-chain [`Annealer`] loop and the parallel-tempering layer
/// (`mapping::tempering`), which runs K of these side by side.
///
/// One [`ChainCore::step`] consumes exactly the RNG draws the historical
/// single-chain loop consumed per iteration, so any segmentation of a
/// trajectory into steps replays the same moves for the same seed — that
/// is what makes `replicas = 1` tempering bit-identical to [`Annealer`].
pub(crate) struct ChainCore {
    pub(crate) current: Mapping,
    pub(crate) current_cost: f64,
    pub(crate) best: Mapping,
    pub(crate) best_cost: f64,
    pub(crate) temp: f64,
    pub(crate) rng: ChaCha8Rng,
    /// Moves proposed so far (the initial evaluation is *not* counted
    /// here; [`AnnealStats::evaluations`] adds it at reporting time).
    pub(crate) evaluations: usize,
    pub(crate) accepted: usize,
    pub(crate) improvements: usize,
}

impl ChainCore {
    pub(crate) fn new(initial: &Mapping, initial_cost: f64, temp: f64, seed: u64) -> Self {
        Self {
            current: initial.clone(),
            current_cost: initial_cost,
            best: initial.clone(),
            best_cost: initial_cost,
            temp,
            rng: ChaCha8Rng::seed_from_u64(seed),
            evaluations: 0,
            accepted: 0,
            improvements: 0,
        }
    }

    /// One annealing iteration: propose a move, take the Metropolis
    /// decision, commit or roll back, notify the observer, cool.
    ///
    /// The loop context (move set, geometry, cooling rate) is threaded
    /// flat rather than bundled: the values are hoisted out of the hot
    /// loop once by every caller, and a context struct would be built
    /// per segment for no gain.
    #[allow(clippy::too_many_arguments)]
    // pipette-lint: hot-path
    #[inline]
    pub(crate) fn step<O: Objective, Obs: SaObserver>(
        &mut self,
        it: usize,
        enabled: &[MoveKind],
        num_blocks: usize,
        block: usize,
        alpha: f64,
        objective: &mut O,
        observer: &mut Obs,
    ) {
        let kind = enabled[self.rng.gen_range(0..enabled.len() as u8) as usize];
        let mv = Move::random_of_kind(&mut self.rng, kind, num_blocks);
        // Apply in place; every move has an exact inverse, so rejection
        // undoes it without cloning a candidate per iteration.
        mv.apply(self.current.as_mut_slice(), block);
        let cost = objective.propose(mv, &self.current);
        self.evaluations += 1;
        let delta = cost - self.current_cost;
        let accept =
            delta <= 0.0 || (self.temp > 0.0 && self.rng.gen::<f64>() < (-delta / self.temp).exp());
        if accept {
            objective.commit();
            self.current_cost = cost;
            self.accepted += 1;
            if cost < self.best_cost {
                self.best
                    .as_mut_slice()
                    .copy_from_slice(self.current.as_slice());
                self.best_cost = cost;
                self.improvements += 1;
            }
        } else {
            objective.rollback();
            mv.inverse().apply(self.current.as_mut_slice(), block);
        }
        observer.on_move(&SaMoveRecord {
            iteration: it,
            kind,
            delta,
            temperature: self.temp,
            accepted: accept,
            current_cost: self.current_cost,
            best_cost: self.best_cost,
        });
        self.temp *= alpha;
    }
}

/// Simulated-annealing searcher over mappings.
///
/// ```
/// use pipette::mapping::{Annealer, AnnealerConfig};
/// use pipette_cluster::ClusterTopology;
/// use pipette_model::ParallelConfig;
/// use pipette_sim::Mapping;
///
/// let cfg = ParallelConfig::new(4, 2, 2);
/// let identity = Mapping::identity(cfg, ClusterTopology::new(4, 4));
/// // Toy objective: prefer GPU 0 to host the *last* worker.
/// let objective = |m: &Mapping| m.as_slice().iter().position(|g| g.0 == 0).unwrap() as f64;
/// let annealer = Annealer::new(AnnealerConfig { iterations: 2_000, ..Default::default() });
/// let (best, cost, stats) = annealer.anneal(&identity, objective);
/// assert!(cost <= stats.initial_cost);
/// assert!(best.is_permutation());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Annealer {
    config: AnnealerConfig,
}

impl Annealer {
    /// Creates an annealer.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not in `(0, 1)` or every move is disabled.
    pub fn new(config: AnnealerConfig) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` constructor contract on hand-written annealer configs
        assert!(
            config.alpha > 0.0 && config.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        // pipette-lint: allow(D2) -- same documented `# Panics` contract: a config with every move disabled cannot anneal
        assert!(
            config.enable_migration || config.enable_swap || config.enable_reverse,
            "at least one move kind must be enabled"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> AnnealerConfig {
        self.config
    }

    /// Minimizes `objective` starting from `initial`, moving blocks of
    /// `tp` consecutive workers (tensor groups) as units.
    ///
    /// Returns the best mapping found, its cost, and run statistics. The
    /// initial mapping is always a candidate, so the result is never worse
    /// than the input.
    ///
    /// This is the closure-based batch path (the objective re-evaluates the
    /// whole mapping on every move); the hot path wraps an incremental
    /// [`Objective`] and goes through [`Annealer::anneal_with`]. Both paths
    /// share one loop and one RNG stream, so for a given seed they take
    /// identical accept/reject decisions and return identical mappings.
    pub fn anneal<F>(&self, initial: &Mapping, objective: F) -> (Mapping, f64, AnnealStats)
    where
        F: Fn(&Mapping) -> f64,
    {
        self.anneal_with(initial, &mut FnObjective::new(objective))
    }

    /// [`Annealer::anneal`] over any [`Objective`] — pass an
    /// [`crate::mapping::IncrementalObjective`] to pay only for the terms
    /// each move touches instead of a full estimate per iteration.
    pub fn anneal_with<O: Objective>(
        &self,
        initial: &Mapping,
        objective: &mut O,
    ) -> (Mapping, f64, AnnealStats) {
        self.anneal_observed(initial, objective, &mut NoOpObserver)
    }

    /// [`Annealer::anneal_with`] with an [`SaObserver`] receiving every
    /// accept/reject decision. The observer sits outside the RNG stream,
    /// so the returned mapping, cost, and stats are bit-identical to the
    /// unobserved run (`observer_does_not_change_the_search` asserts this).
    pub fn anneal_observed<O: Objective, Obs: SaObserver>(
        &self,
        initial: &Mapping,
        objective: &mut O,
        observer: &mut Obs,
    ) -> (Mapping, f64, AnnealStats) {
        // pipette-lint: allow(D1) -- wall time feeds AnnealStats::elapsed only; no search decision reads it, so the run replays from the seed alone
        let start = Instant::now();
        let block = initial.config().tp.max(1);
        let num_blocks = initial.as_slice().len() / block;
        let initial_cost = objective.evaluate(initial);

        let mut stats = AnnealStats {
            evaluations: 1,
            accepted: 0,
            improvements: 0,
            initial_cost,
            best_cost: initial_cost,
            elapsed: Duration::ZERO,
        };

        if num_blocks < 2 {
            stats.elapsed = start.elapsed();
            return (initial.clone(), initial_cost, stats);
        }

        let (enabled_buf, enabled_len) = enabled_moves(&self.config);
        let enabled = &enabled_buf[..enabled_len];
        debug_assert!(!enabled.is_empty(), "checked in Annealer::new");

        let mut chain = ChainCore::new(
            initial,
            initial_cost,
            initial_cost * self.config.initial_temp_fraction,
            self.config.seed,
        );

        for it in 0..self.config.iterations {
            chain.step(
                it,
                enabled,
                num_blocks,
                block,
                self.config.alpha,
                objective,
                observer,
            );
        }

        stats.evaluations += chain.evaluations;
        stats.accepted = chain.accepted;
        stats.improvements = chain.improvements;
        stats.best_cost = chain.best_cost;
        stats.elapsed = start.elapsed();
        (chain.best, chain.best_cost, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::ClusterTopology;
    use pipette_model::ParallelConfig;

    /// Toy objective: prefer the GPU ids to be in a target permutation by
    /// penalizing displacement.
    fn displacement_cost(target: &[usize]) -> impl Fn(&Mapping) -> f64 + '_ {
        move |m: &Mapping| {
            m.as_slice()
                .iter()
                .enumerate()
                .map(|(i, g)| {
                    let want = target[i] as f64;
                    (g.0 as f64 - want).abs()
                })
                .sum()
        }
    }

    fn setup(pp: usize, tp: usize, dp: usize) -> Mapping {
        let cfg = ParallelConfig::new(pp, tp, dp);
        let topo = ClusterTopology::new(cfg.num_workers() / 4, 4);
        Mapping::identity(cfg, topo)
    }

    #[test]
    fn finds_a_block_permutation_target() {
        // Target: blocks in reverse order. Reachable by block moves alone.
        let initial = setup(4, 2, 2); // 16 workers, block = 2
        let mut target: Vec<usize> = (0..16).collect();
        for c in target.chunks_mut(2) {
            c.reverse();
        }
        target.reverse();
        for c in target.chunks_mut(2) {
            c.reverse();
        }
        // target is now block-reversed identity.
        let objective = displacement_cost(&target);
        let annealer = Annealer::new(AnnealerConfig {
            iterations: 8_000,
            seed: 3,
            ..Default::default()
        });
        let (best, cost, stats) = annealer.anneal(&initial, objective);
        assert!(cost < stats.initial_cost, "must improve: {stats:?}");
        assert!(best.is_permutation());
        assert_eq!(cost, stats.best_cost);
    }

    #[test]
    fn never_returns_worse_than_initial() {
        let initial = setup(2, 2, 2);
        // Adversarial objective that prefers the identity.
        let objective = |m: &Mapping| {
            m.as_slice()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.0 as f64 - i as f64).powi(2))
                .sum()
        };
        let annealer = Annealer::new(AnnealerConfig {
            iterations: 500,
            seed: 1,
            ..Default::default()
        });
        let (_, cost, stats) = annealer.anneal(&initial, objective);
        assert_eq!(cost, 0.0);
        assert_eq!(stats.initial_cost, 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let cfg = AnnealerConfig {
            iterations: 2_000,
            seed: 9,
            ..Default::default()
        };
        let a = Annealer::new(cfg).anneal(&initial, displacement_cost(&target));
        let b = Annealer::new(cfg).anneal(&initial, displacement_cost(&target));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn single_block_returns_immediately() {
        let cfg = ParallelConfig::new(1, 4, 1);
        let topo = ClusterTopology::new(1, 4);
        let m = Mapping::identity(cfg, topo);
        let (best, cost, stats) = Annealer::new(AnnealerConfig::default()).anneal(&m, |_| 42.0);
        assert_eq!(best, m);
        assert_eq!(cost, 42.0);
        assert_eq!(stats.evaluations, 1);
    }

    #[test]
    fn move_ablation_still_works() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        for (mig, swap, rev) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
        ] {
            let cfg = AnnealerConfig {
                iterations: 3_000,
                seed: 5,
                enable_migration: mig,
                enable_swap: swap,
                enable_reverse: rev,
                ..Default::default()
            };
            let (_, cost, stats) = Annealer::new(cfg).anneal(&initial, displacement_cost(&target));
            assert!(cost <= stats.initial_cost);
        }
    }

    #[test]
    fn high_temperature_accepts_uphill_moves() {
        // With a huge initial temperature nearly every move is accepted;
        // with zero temperature only improvements are.
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let hot = Annealer::new(AnnealerConfig {
            iterations: 1_000,
            seed: 4,
            initial_temp_fraction: 100.0,
            alpha: 0.9999,
            ..Default::default()
        });
        let cold = Annealer::new(AnnealerConfig {
            iterations: 1_000,
            seed: 4,
            initial_temp_fraction: 1e-12,
            ..Default::default()
        });
        let (_, _, hot_stats) = hot.anneal(&initial, displacement_cost(&target));
        let (_, _, cold_stats) = cold.anneal(&initial, displacement_cost(&target));
        assert!(
            hot_stats.accepted > 2 * cold_stats.accepted,
            "hot {} vs cold {}",
            hot_stats.accepted,
            cold_stats.accepted
        );
        // Cold SA is pure descent: accepted == improvements-ish (every
        // accepted move is non-worsening).
        assert!(cold_stats.accepted >= cold_stats.improvements);
    }

    #[test]
    fn stats_account_for_evaluations() {
        let initial = setup(2, 2, 2);
        let cfg = AnnealerConfig {
            iterations: 123,
            seed: 8,
            ..Default::default()
        };
        let (_, _, stats) = Annealer::new(cfg).anneal(&initial, |m| m.as_slice()[0].0 as f64);
        assert_eq!(stats.evaluations, 124); // initial + iterations
        assert!(stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn observer_does_not_change_the_search() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let cfg = AnnealerConfig {
            iterations: 2_000,
            seed: 9,
            ..Default::default()
        };

        /// Records everything and checks internal consistency.
        #[derive(Default)]
        struct Recorder {
            records: Vec<SaMoveRecord>,
        }
        impl SaObserver for Recorder {
            fn on_move(&mut self, r: &SaMoveRecord) {
                self.records.push(*r);
            }
        }

        let mut rec = Recorder::default();
        let observed = Annealer::new(cfg).anneal_observed(
            &initial,
            &mut FnObjective::new(displacement_cost(&target)),
            &mut rec,
        );
        let plain = Annealer::new(cfg).anneal(&initial, displacement_cost(&target));
        assert_eq!(observed.0, plain.0, "observer changed the best mapping");
        assert_eq!(observed.1.to_bits(), plain.1.to_bits());
        assert_eq!(observed.2.evaluations, plain.2.evaluations);
        assert_eq!(observed.2.accepted, plain.2.accepted);

        assert_eq!(rec.records.len(), cfg.iterations);
        let accepted = rec.records.iter().filter(|r| r.accepted).count();
        assert_eq!(accepted, observed.2.accepted);
        // Iterations are sequential, temperature decays, best never rises.
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.iteration, i);
            if i > 0 {
                assert!(r.temperature < rec.records[i - 1].temperature);
                assert!(r.best_cost <= rec.records[i - 1].best_cost);
            }
        }
        let last = rec.records.last().unwrap();
        assert_eq!(last.best_cost, observed.2.best_cost);
    }

    #[test]
    #[should_panic(expected = "at least one move")]
    fn all_moves_disabled_rejected() {
        Annealer::new(AnnealerConfig {
            enable_migration: false,
            enable_swap: false,
            enable_reverse: false,
            ..Default::default()
        });
    }
}
