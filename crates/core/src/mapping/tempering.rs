//! Parallel tempering: K annealing chains on a geometric temperature
//! ladder with deterministic replica exchange.
//!
//! A single SA chain is inherently sequential; on a many-core box the
//! configurator's most important phase leaves the machine idle. Parallel
//! tempering (replica-exchange Monte Carlo) runs `replicas` chains of the
//! *same* per-iteration loop ([`crate::mapping::Annealer`]'s `ChainCore`)
//! at staggered temperatures and periodically proposes swapping the
//! states of adjacent-temperature pairs — hot chains explore, cold chains
//! refine, and exchange routes promising states down the ladder. Total
//! search throughput scales with cores because chains only rendezvous at
//! exchange rounds ([`crate::parallel::barrier_rounds`]).
//!
//! Determinism is non-negotiable here, as everywhere in this repo:
//!
//! * every chain owns an RNG seeded from (base seed, replica index) —
//!   never shared, never reseeded;
//! * exchange decisions are drawn from a dedicated splitmix64 stream
//!   keyed by `(round, pair)` and compared against the pair's energies —
//!   a pure function of values that are themselves thread-invariant, so
//!   the exchange trajectory is independent of thread scheduling;
//! * chains are stepped in fixed ownership under `barrier_rounds`, whose
//!   contract makes the parallel run observationally identical to the
//!   sequential `threads = 1` execution.
//!
//! With `replicas = 1` there are no pairs, the ladder collapses to the
//! legacy temperature, and replica 0's seed is the base seed — the
//! trajectory is bit-identical to [`crate::mapping::Annealer`]
//! (`tests/tempering.rs` asserts this).

use crate::mapping::annealer::{
    enabled_moves, AnnealStats, Annealer, AnnealerConfig, ChainCore, NoOpObserver, SaObserver,
};
use crate::mapping::arena::splitmix64;
use crate::mapping::objective::{FnObjective, Objective};
use crate::parallel;
use pipette_sim::Mapping;
use std::mem;
use std::time::{Duration, Instant};

/// Spreads replica seeds across the u64 space (the golden-ratio
/// increment, the same constant splitmix64 itself strides by). Replica 0
/// keeps the base seed, so a one-replica ladder replays the single-chain
/// trajectory exactly.
const REPLICA_SEED_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// Salt separating the replica-exchange stream from every other seeded
/// stream in the repo (ASCII `"pt-xchg!"`).
const EXCHANGE_STREAM_SALT: u64 = 0x7074_2d78_6368_6721;

/// The temperature ladder and exchange cadence of a tempering run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemperingSchedule {
    /// Number of chains. `1` degenerates to single-chain annealing.
    pub replicas: usize,
    /// Iterations each chain runs between exchange rounds.
    pub exchange_interval: usize,
    /// Geometric ratio between adjacent rungs: replica `r` starts at
    /// `base_temperature · temp_ratio^r` (replica 0 is the coldest and
    /// matches the single-chain annealer's temperature exactly).
    pub temp_ratio: f64,
}

impl Default for TemperingSchedule {
    fn default() -> Self {
        Self {
            replicas: 4,
            exchange_interval: 512,
            temp_ratio: 2.0,
        }
    }
}

impl TemperingSchedule {
    /// The ladder's temperature multiplier for `replica`.
    pub fn temperature_scale(&self, replica: usize) -> f64 {
        self.temp_ratio.powi(replica as i32)
    }
}

/// One replica-exchange decision, handed to the exchange observer after
/// the verdict (mirrors [`crate::mapping::SaMoveRecord`] for moves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtExchangeRecord {
    /// Exchange round index (one round per `exchange_interval`).
    pub round: usize,
    /// Colder replica of the adjacent pair.
    pub replica_lo: usize,
    /// Hotter replica of the adjacent pair (`replica_lo + 1`).
    pub replica_hi: usize,
    /// Colder slot's temperature at the decision.
    pub temp_lo: f64,
    /// Hotter slot's temperature at the decision.
    pub temp_hi: f64,
    /// Colder slot's current cost before the swap decision.
    pub cost_lo: f64,
    /// Hotter slot's current cost before the swap decision.
    pub cost_hi: f64,
    /// Whether the states were swapped.
    pub accepted: bool,
}

/// Statistics of one tempering run.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperingStats {
    /// Per-replica annealing statistics, in ladder order. Each replica's
    /// `elapsed` is its *busy* time inside its own segments (what a
    /// dedicated core would spend), not the run's wall clock.
    pub replica_stats: Vec<AnnealStats>,
    /// Adjacent-pair swap decisions taken.
    pub exchanges_attempted: usize,
    /// Decisions that swapped states.
    pub exchanges_accepted: usize,
    /// Wall-clock time of the whole run, setup included.
    pub elapsed: Duration,
}

impl TemperingStats {
    /// The run folded into single-chain-shaped stats: evaluation and
    /// acceptance counts summed across replicas, `best_cost` the ladder's
    /// best, `elapsed` the run's wall clock. For `replicas = 1` the
    /// counts equal the legacy [`Annealer`]'s exactly.
    pub fn merged(&self) -> AnnealStats {
        let mut merged = AnnealStats {
            evaluations: 0,
            accepted: 0,
            improvements: 0,
            initial_cost: self.replica_stats.first().map_or(0.0, |s| s.initial_cost),
            best_cost: f64::INFINITY,
            elapsed: self.elapsed,
        };
        for s in &self.replica_stats {
            merged.evaluations += s.evaluations;
            merged.accepted += s.accepted;
            merged.improvements += s.improvements;
            if s.best_cost < merged.best_cost {
                merged.best_cost = s.best_cost;
            }
        }
        merged
    }
}

/// The uniform draw deciding exchange `(round, pair)`: three rounds of
/// splitmix64 over (salted seed, round, pair), mapped to `[0, 1)`. Keyed
/// by logical indices only — no chain RNG is consumed, so the stream is
/// identical however the chains were scheduled.
fn exchange_unit(seed: u64, round: u64, pair: u64) -> f64 {
    let h = splitmix64(splitmix64(splitmix64(seed ^ EXCHANGE_STREAM_SALT) ^ round) ^ pair);
    // 53 high bits → [0, 1), the standard u64-to-double ladder.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The Metropolis swap decision for an adjacent-temperature pair: a pure
/// function of `(seed, round, pair)` and the pair's temperatures and
/// energies — nothing else. Swapping states between inverse temperatures
/// β_lo ≥ β_hi is accepted with probability
/// `min(1, exp((β_lo − β_hi) · (E_lo − E_hi)))`: guaranteed when the
/// hotter replica holds the lower energy, probabilistic otherwise.
pub fn exchange_accepts(
    seed: u64,
    round: usize,
    pair: usize,
    temp_lo: f64,
    temp_hi: f64,
    cost_lo: f64,
    cost_hi: f64,
) -> bool {
    let beta_lo = if temp_lo > 0.0 {
        temp_lo.recip()
    } else {
        f64::INFINITY
    };
    let beta_hi = if temp_hi > 0.0 {
        temp_hi.recip()
    } else {
        f64::INFINITY
    };
    let log_p = (beta_lo - beta_hi) * (cost_lo - cost_hi);
    if log_p.is_nan() {
        // Degenerate ladder (both rungs at zero temperature, or a zero
        // energy gap against an infinite β gap): fall back to greedy —
        // swap exactly when it moves the lower energy to the colder slot.
        return cost_hi < cost_lo;
    }
    if log_p >= 0.0 {
        return true;
    }
    exchange_unit(seed, round as u64, pair as u64) < log_p.exp()
}

/// One chain of the ladder: the shared single-chain stepping state plus
/// its objective and observer. On an accepted exchange the *state*
/// (current mapping + cost + the objective caching them) swaps between
/// slots while the slot keeps its temperature, RNG, best-so-far and
/// counters — the standard replica-exchange formulation, and the one
/// that keeps every slot's RNG stream and ladder position fixed.
struct Chain<'o, O, Obs> {
    core: ChainCore,
    objective: O,
    observer: &'o mut Obs,
    /// Busy time inside this chain's own segments (two `Instant` reads
    /// per round, amortized over `exchange_interval` iterations).
    busy: Duration,
}

/// One exchange pass over adjacent pairs: even-offset pairs on even
/// rounds, odd-offset pairs on odd rounds (the deterministic-even-odd
/// scheme, so every rung meets both neighbours on alternating rounds).
/// Runs on the coordinating thread with exclusive access to all chains.
// pipette-lint: hot-path
fn exchange_pass<O: Objective, Obs: SaObserver>(
    round: usize,
    seed: u64,
    chains: &mut [&mut Chain<'_, O, Obs>],
    attempted: &mut usize,
    accepted: &mut usize,
    on_exchange: &mut dyn FnMut(&PtExchangeRecord),
) {
    let mut lo = round % 2;
    while lo + 1 < chains.len() {
        let (head, tail) = chains.split_at_mut(lo + 1);
        let a: &mut Chain<'_, O, Obs> = head[lo];
        let b: &mut Chain<'_, O, Obs> = tail[0];
        let record = PtExchangeRecord {
            round,
            replica_lo: lo,
            replica_hi: lo + 1,
            temp_lo: a.core.temp,
            temp_hi: b.core.temp,
            cost_lo: a.core.current_cost,
            cost_hi: b.core.current_cost,
            accepted: exchange_accepts(
                seed,
                round,
                lo,
                a.core.temp,
                b.core.temp,
                a.core.current_cost,
                b.core.current_cost,
            ),
        };
        *attempted += 1;
        if record.accepted {
            *accepted += 1;
            mem::swap(&mut a.core.current, &mut b.core.current);
            mem::swap(&mut a.core.current_cost, &mut b.core.current_cost);
            mem::swap(&mut a.objective, &mut b.objective);
        }
        on_exchange(&record);
        lo += 2;
    }
}

/// K simultaneous annealing chains with deterministic replica exchange.
///
/// ```
/// use pipette::mapping::{AnnealerConfig, ParallelTemperingAnnealer, TemperingSchedule};
/// use pipette_cluster::ClusterTopology;
/// use pipette_model::ParallelConfig;
/// use pipette_sim::Mapping;
///
/// let cfg = ParallelConfig::new(4, 2, 2);
/// let identity = Mapping::identity(cfg, ClusterTopology::new(4, 4));
/// let objective = |m: &Mapping| m.as_slice().iter().position(|g| g.0 == 0).unwrap() as f64;
/// let pt = ParallelTemperingAnnealer::new(
///     AnnealerConfig { iterations: 2_000, ..Default::default() },
///     TemperingSchedule { replicas: 3, exchange_interval: 128, ..Default::default() },
/// );
/// let (best, cost, stats) = pt.anneal_closure(1, &identity, objective);
/// assert!(cost <= stats.merged().initial_cost);
/// assert!(best.is_permutation());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelTemperingAnnealer {
    annealer: Annealer,
    schedule: TemperingSchedule,
}

impl ParallelTemperingAnnealer {
    /// Creates a tempering annealer.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`AnnealerConfig`] (see [`Annealer::new`]) or
    /// an invalid schedule: `replicas == 0`, `exchange_interval == 0`, or
    /// a `temp_ratio` below 1 or non-finite.
    pub fn new(config: AnnealerConfig, schedule: TemperingSchedule) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` constructor contract, mirroring Annealer::new
        assert!(schedule.replicas >= 1, "replicas must be at least 1");
        // pipette-lint: allow(D2) -- same documented `# Panics` contract: a zero interval would never rendezvous
        assert!(
            schedule.exchange_interval >= 1,
            "exchange_interval must be at least 1"
        );
        // pipette-lint: allow(D2) -- same documented `# Panics` contract: the ladder must warm monotonically
        assert!(
            schedule.temp_ratio.is_finite() && schedule.temp_ratio >= 1.0,
            "temp_ratio must be finite and >= 1"
        );
        Self {
            annealer: Annealer::new(config),
            schedule,
        }
    }

    /// The annealer configuration in use.
    pub fn config(&self) -> AnnealerConfig {
        self.annealer.config()
    }

    /// The schedule in use.
    pub fn schedule(&self) -> TemperingSchedule {
        self.schedule
    }

    /// [`Self::anneal_observed`] with no observers: the closure builds
    /// one objective per replica.
    pub fn anneal<O, MkO>(
        &self,
        threads: usize,
        initial: &Mapping,
        make_objective: MkO,
    ) -> (Mapping, f64, TemperingStats)
    where
        O: Objective + Send,
        MkO: FnMut(usize, &Mapping) -> O,
    {
        let mut observers = vec![NoOpObserver; self.schedule.replicas];
        self.anneal_observed(threads, initial, make_objective, &mut observers, |_| {})
    }

    /// [`Self::anneal`] over a plain cost closure (each replica wraps a
    /// shared reference to it in its own [`FnObjective`]) — the
    /// counterpart of [`Annealer::anneal`] for baseline comparisons.
    pub fn anneal_closure<F>(
        &self,
        threads: usize,
        initial: &Mapping,
        objective: F,
    ) -> (Mapping, f64, TemperingStats)
    where
        F: Fn(&Mapping) -> f64 + Sync,
    {
        self.anneal(threads, initial, |_, _| FnObjective::new(&objective))
    }

    /// Minimizes over `replicas` chains, each with its own objective
    /// (from `make_objective(replica, initial)`, called in replica order
    /// on the calling thread) and its own observer. `on_exchange` sees
    /// every swap decision in `(round, pair)` order on the coordinating
    /// thread. Returns the ladder's best mapping, its cost, and
    /// per-replica plus merged statistics.
    ///
    /// The result is bit-identical at any `threads`, and for
    /// `replicas = 1` bit-identical to [`Annealer::anneal_observed`].
    ///
    /// # Panics
    ///
    /// Panics if `observers.len() != schedule.replicas`.
    pub fn anneal_observed<O, MkO, Obs>(
        &self,
        threads: usize,
        initial: &Mapping,
        mut make_objective: MkO,
        observers: &mut [Obs],
        mut on_exchange: impl FnMut(&PtExchangeRecord),
    ) -> (Mapping, f64, TemperingStats)
    where
        O: Objective + Send,
        MkO: FnMut(usize, &Mapping) -> O,
        Obs: SaObserver + Send,
    {
        let config = self.annealer.config();
        let replicas = self.schedule.replicas;
        // pipette-lint: allow(D2) -- documented `# Panics` contract: one observer per replica is the API shape
        assert_eq!(
            observers.len(),
            replicas,
            "one observer per replica required"
        );
        // pipette-lint: allow(D1) -- wall time feeds TemperingStats::elapsed and per-chain busy time only; no search decision reads it
        let start = Instant::now();
        let block = initial.config().tp.max(1);
        let num_blocks = initial.as_slice().len() / block;

        // Build the ladder on the calling thread, in replica order. Each
        // chain evaluates the initial mapping through its *own* objective
        // (deterministically equal across replicas), mirroring the
        // single-chain loop's opening evaluation.
        let mut chains: Vec<Chain<'_, O, Obs>> = Vec::with_capacity(replicas);
        let mut initial_cost = 0.0f64;
        for (replica, observer) in observers.iter_mut().enumerate() {
            let mut objective = make_objective(replica, initial);
            initial_cost = objective.evaluate(initial);
            let temp = initial_cost
                * config.initial_temp_fraction
                * self.schedule.temperature_scale(replica);
            let seed = config
                .seed
                .wrapping_add((replica as u64).wrapping_mul(REPLICA_SEED_STRIDE));
            chains.push(Chain {
                core: ChainCore::new(initial, initial_cost, temp, seed),
                objective,
                observer,
                busy: Duration::ZERO,
            });
        }

        if num_blocks < 2 {
            let stats = collect_stats(&chains, initial_cost, 0, 0, start.elapsed());
            return (initial.clone(), initial_cost, stats);
        }

        let (enabled_buf, enabled_len) = enabled_moves(&config);
        let enabled = &enabled_buf[..enabled_len];
        let total_iterations = config.iterations;
        let interval = self.schedule.exchange_interval;
        let rounds = total_iterations.div_ceil(interval).max(1);
        let alpha = config.alpha;
        let exchange_seed = config.seed;
        let mut exchanges_attempted = 0usize;
        let mut exchanges_accepted = 0usize;

        parallel::barrier_rounds(
            threads,
            &mut chains,
            rounds,
            |_, round, chain| {
                // pipette-lint: allow(D1) -- segment busy-time accounting; never read by a search decision
                let segment_start = Instant::now();
                let seg_from = round.saturating_mul(interval);
                let seg_to = seg_from.saturating_add(interval).min(total_iterations);
                for it in seg_from..seg_to {
                    chain.core.step(
                        it,
                        enabled,
                        num_blocks,
                        block,
                        alpha,
                        &mut chain.objective,
                        chain.observer,
                    );
                }
                chain.busy += segment_start.elapsed();
            },
            |round, chains| {
                // Every chain runs the same iterations, so all of them
                // finish in the last round, which needs no exchange.
                if round + 1 == rounds {
                    return false;
                }
                exchange_pass(
                    round,
                    exchange_seed,
                    chains,
                    &mut exchanges_attempted,
                    &mut exchanges_accepted,
                    &mut on_exchange,
                );
                true
            },
        );

        let stats = collect_stats(
            &chains,
            initial_cost,
            exchanges_attempted,
            exchanges_accepted,
            start.elapsed(),
        );
        let mut best_idx = 0usize;
        for (i, chain) in chains.iter().enumerate().skip(1) {
            if chain.core.best_cost < chains[best_idx].core.best_cost {
                best_idx = i;
            }
        }
        let best_cost = chains[best_idx].core.best_cost;
        let best = chains.swap_remove(best_idx).core.best;
        (best, best_cost, stats)
    }
}

/// Folds the ladder into [`TemperingStats`]. Each replica counts its
/// opening evaluation of the initial mapping (matching the single-chain
/// stats contract), and its `elapsed` is busy time, not wall clock.
fn collect_stats<O, Obs>(
    chains: &[Chain<'_, O, Obs>],
    initial_cost: f64,
    exchanges_attempted: usize,
    exchanges_accepted: usize,
    elapsed: Duration,
) -> TemperingStats {
    let replica_stats = chains
        .iter()
        .map(|c| AnnealStats {
            evaluations: c.core.evaluations + 1,
            accepted: c.core.accepted,
            improvements: c.core.improvements,
            initial_cost,
            best_cost: c.core.best_cost,
            elapsed: c.busy,
        })
        .collect();
    TemperingStats {
        replica_stats,
        exchanges_attempted,
        exchanges_accepted,
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_cluster::ClusterTopology;
    use pipette_model::ParallelConfig;

    fn setup(pp: usize, tp: usize, dp: usize) -> Mapping {
        let cfg = ParallelConfig::new(pp, tp, dp);
        let topo = ClusterTopology::new(cfg.num_workers() / 4, 4);
        Mapping::identity(cfg, topo)
    }

    fn displacement_cost(target: &[usize]) -> impl Fn(&Mapping) -> f64 + Sync + '_ {
        move |m: &Mapping| {
            m.as_slice()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.0 as f64 - target[i] as f64).abs())
                .sum()
        }
    }

    #[test]
    fn ladder_is_geometric_and_monotone() {
        let sched = TemperingSchedule {
            replicas: 5,
            temp_ratio: 1.7,
            ..Default::default()
        };
        assert_eq!(sched.temperature_scale(0), 1.0);
        for r in 1..sched.replicas {
            let ratio = sched.temperature_scale(r) / sched.temperature_scale(r - 1);
            assert!((ratio - 1.7).abs() < 1e-12);
            assert!(sched.temperature_scale(r) > sched.temperature_scale(r - 1));
        }
    }

    #[test]
    #[should_panic(expected = "replicas")]
    fn zero_replicas_rejected() {
        ParallelTemperingAnnealer::new(
            AnnealerConfig::fast_test(),
            TemperingSchedule {
                replicas: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "exchange_interval")]
    fn zero_interval_rejected() {
        ParallelTemperingAnnealer::new(
            AnnealerConfig::fast_test(),
            TemperingSchedule {
                exchange_interval: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "temp_ratio")]
    fn cooling_ladder_rejected() {
        ParallelTemperingAnnealer::new(
            AnnealerConfig::fast_test(),
            TemperingSchedule {
                temp_ratio: 0.5,
                ..Default::default()
            },
        );
    }

    /// The exchange decision is a pure function: same inputs, same verdict,
    /// no matter how many times or in what order it is consulted.
    #[test]
    fn exchange_decision_is_pure() {
        let cases = [
            (7u64, 0usize, 0usize, 1.0, 2.0, 10.0, 9.0),
            (7, 0, 0, 1.0, 2.0, 9.0, 10.0),
            (7, 3, 2, 0.5, 4.0, 100.0, 100.5),
            (999, 12, 0, 1e-9, 1e9, 5.0, 4.0),
        ];
        for &(seed, round, pair, tl, th, cl, ch) in &cases {
            let first = exchange_accepts(seed, round, pair, tl, th, cl, ch);
            for _ in 0..3 {
                assert_eq!(first, exchange_accepts(seed, round, pair, tl, th, cl, ch));
            }
        }
    }

    /// A swap that moves the lower energy to the colder rung is always
    /// accepted (log_p ≥ 0), for any (seed, round, pair).
    #[test]
    fn downhill_exchange_always_accepted() {
        for seed in [0u64, 1, 0xdead_beef] {
            for round in 0..16usize {
                for pair in 0..8usize {
                    assert!(exchange_accepts(seed, round, pair, 1.0, 2.0, 10.0, 5.0));
                    // Equal energies: log_p == 0, also guaranteed.
                    assert!(exchange_accepts(seed, round, pair, 1.0, 2.0, 7.0, 7.0));
                }
            }
        }
    }

    /// Uphill exchanges depend only on (seed, round, pair) and the energy
    /// gap — shifting both costs by a constant leaves the verdict alone,
    /// and verdicts vary across rounds/pairs (the stream is live).
    #[test]
    fn uphill_exchange_depends_only_on_round_pair_and_gap() {
        let mut accepted = 0usize;
        let mut total = 0usize;
        for round in 0..64usize {
            for pair in 0..4usize {
                let base = exchange_accepts(42, round, pair, 1.0, 3.0, 4.0, 4.4);
                let shifted = exchange_accepts(42, round, pair, 1.0, 3.0, 104.0, 104.4);
                assert_eq!(base, shifted, "verdict must depend on the gap only");
                accepted += usize::from(base);
                total += 1;
            }
        }
        // p = exp(-(1 - 1/3)·0.4) ≈ 0.766: both outcomes must occur.
        assert!(accepted > 0, "stream never accepts");
        assert!(accepted < total, "stream never rejects");
    }

    #[test]
    fn zero_temperature_ladder_is_greedy() {
        // Both rungs frozen: swap exactly when it improves the cold slot.
        assert!(exchange_accepts(1, 0, 0, 0.0, 0.0, 5.0, 4.0));
        assert!(!exchange_accepts(1, 0, 0, 0.0, 0.0, 4.0, 5.0));
        assert!(!exchange_accepts(1, 0, 0, 0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn replicas_one_matches_single_chain_annealer() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let cfg = AnnealerConfig {
            iterations: 3_000,
            seed: 11,
            ..Default::default()
        };
        let single = Annealer::new(cfg).anneal(&initial, displacement_cost(&target));
        let pt = ParallelTemperingAnnealer::new(
            cfg,
            TemperingSchedule {
                replicas: 1,
                exchange_interval: 128,
                ..Default::default()
            },
        );
        let tempered = pt.anneal_closure(1, &initial, displacement_cost(&target));
        assert_eq!(single.0, tempered.0, "mapping diverged");
        assert_eq!(single.1.to_bits(), tempered.1.to_bits());
        let merged = tempered.2.merged();
        assert_eq!(single.2.evaluations, merged.evaluations);
        assert_eq!(single.2.accepted, merged.accepted);
        assert_eq!(single.2.improvements, merged.improvements);
        assert_eq!(single.2.best_cost.to_bits(), merged.best_cost.to_bits());
        assert_eq!(tempered.2.exchanges_attempted, 0);
    }

    #[test]
    fn tempering_is_thread_invariant() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let pt = ParallelTemperingAnnealer::new(
            AnnealerConfig {
                iterations: 4_000,
                seed: 5,
                ..Default::default()
            },
            TemperingSchedule {
                replicas: 4,
                exchange_interval: 256,
                ..Default::default()
            },
        );
        let reference = pt.anneal_closure(1, &initial, displacement_cost(&target));
        for threads in [2usize, 3, 8] {
            let run = pt.anneal_closure(threads, &initial, displacement_cost(&target));
            assert_eq!(reference.0, run.0, "mapping diverged at threads={threads}");
            assert_eq!(reference.1.to_bits(), run.1.to_bits());
            assert_eq!(reference.2.exchanges_attempted, run.2.exchanges_attempted);
            assert_eq!(reference.2.exchanges_accepted, run.2.exchanges_accepted);
            for (a, b) in reference.2.replica_stats.iter().zip(&run.2.replica_stats) {
                assert_eq!(a.evaluations, b.evaluations);
                assert_eq!(a.accepted, b.accepted);
                assert_eq!(a.improvements, b.improvements);
                assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
            }
        }
    }

    #[test]
    fn tempering_attempts_and_accepts_exchanges() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let pt = ParallelTemperingAnnealer::new(
            AnnealerConfig {
                iterations: 4_000,
                seed: 3,
                ..Default::default()
            },
            TemperingSchedule {
                replicas: 4,
                exchange_interval: 64,
                ..Default::default()
            },
        );
        let mut records = Vec::new();
        let mut observers = vec![NoOpObserver; 4];
        let (best, cost, stats) = pt.anneal_observed(
            1,
            &initial,
            |_, _| FnObjective::new(displacement_cost(&target)),
            &mut observers,
            |rec| records.push(*rec),
        );
        assert!(best.is_permutation());
        assert!(cost <= stats.merged().initial_cost);
        assert_eq!(records.len(), stats.exchanges_attempted);
        let accepted = records.iter().filter(|r| r.accepted).count();
        assert_eq!(accepted, stats.exchanges_accepted);
        assert!(stats.exchanges_attempted > 0, "no exchanges attempted");
        // DEO pairing: even rounds touch even pairs, odd rounds odd pairs,
        // records arrive in (round, pair) order.
        for w in records.windows(2) {
            assert!(
                (w[0].round, w[0].replica_lo) < (w[1].round, w[1].replica_lo),
                "records out of order"
            );
        }
        for r in &records {
            assert_eq!(r.replica_hi, r.replica_lo + 1);
            assert_eq!(r.replica_lo % 2, r.round % 2);
            assert!(r.temp_hi > r.temp_lo);
        }
    }

    #[test]
    fn tempering_never_returns_worse_than_initial() {
        let initial = setup(2, 2, 2);
        let identity_cost = |m: &Mapping| {
            m.as_slice()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.0 as f64 - i as f64).powi(2))
                .sum::<f64>()
        };
        let pt = ParallelTemperingAnnealer::new(
            AnnealerConfig {
                iterations: 600,
                seed: 1,
                ..Default::default()
            },
            TemperingSchedule::default(),
        );
        let (_, cost, stats) = pt.anneal_closure(2, &initial, identity_cost);
        assert_eq!(cost, 0.0);
        assert_eq!(stats.merged().initial_cost, 0.0);
    }

    #[test]
    fn single_block_returns_immediately() {
        let cfg = ParallelConfig::new(1, 4, 1);
        let topo = ClusterTopology::new(1, 4);
        let m = Mapping::identity(cfg, topo);
        let pt =
            ParallelTemperingAnnealer::new(AnnealerConfig::default(), TemperingSchedule::default());
        let (best, cost, stats) = pt.anneal_closure(4, &m, |_| 42.0);
        assert_eq!(best, m);
        assert_eq!(cost, 42.0);
        assert_eq!(stats.merged().evaluations, 4); // one opening eval per replica
        assert_eq!(stats.exchanges_attempted, 0);
    }

    #[test]
    fn merged_stats_sum_replicas() {
        let initial = setup(4, 2, 2);
        let target: Vec<usize> = (0..16).rev().collect();
        let pt = ParallelTemperingAnnealer::new(
            AnnealerConfig {
                iterations: 1_000,
                seed: 2,
                ..Default::default()
            },
            TemperingSchedule {
                replicas: 3,
                exchange_interval: 100,
                ..Default::default()
            },
        );
        let (_, cost, stats) = pt.anneal_closure(1, &initial, displacement_cost(&target));
        let merged = stats.merged();
        assert_eq!(merged.evaluations, 3 * 1_001);
        assert_eq!(
            merged.accepted,
            stats
                .replica_stats
                .iter()
                .map(|s| s.accepted)
                .sum::<usize>()
        );
        assert_eq!(
            merged.best_cost.to_bits(),
            stats
                .replica_stats
                .iter()
                .map(|s| s.best_cost)
                .fold(f64::INFINITY, f64::min)
                .to_bits()
        );
        assert_eq!(cost.to_bits(), merged.best_cost.to_bits());
    }
}
