//! Deterministic fork-join over a slice using scoped threads.
//!
//! The configurator's two expensive phases — candidate evaluation
//! (memory filter + compute profiling + identity estimate) and the
//! per-candidate annealing passes — are embarrassingly parallel: every
//! item is independent and seeded by its *index*, not by shared RNG
//! state. [`ordered_map`] exploits that with plain `std::thread::scope`
//! (no extra dependencies): workers pull items off an atomic counter,
//! tag results with their index, and the merge sorts by index — so the
//! output is the same `Vec` a sequential `map` would produce, bit for
//! bit, at any thread count.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Per-worker result-buffer capacity for [`ordered_map`]'s counter-based
/// pool: the balanced share of the items. Workers pull from a shared counter,
/// so a worker that never stalls can exceed its share (the `Vec` then
/// grows normally); in the steady state every worker lands within one
/// item of this bound.
fn per_worker_capacity(items: usize, workers: usize) -> usize {
    items.div_ceil(workers.max(1))
}

/// Maps `f` over `items` using up to `threads` worker threads, returning
/// results in item order. `f(i, &items[i])` must be pure with respect to
/// ordering — it may run on any thread, in any interleaving.
///
/// With `threads <= 1` or fewer than two items this runs inline on the
/// caller's thread with no synchronization at all, so `threads == 1` is
/// exactly the sequential code path, not a one-worker pool.
///
/// # Panics
///
/// Re-raises the first observed panic from `f`.
pub fn ordered_map<I, R, F>(threads: usize, items: &[I], f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let workers = threads.min(items.len());
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::with_capacity(per_worker_capacity(items.len(), workers));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        all
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Round-based fork-join over a set of persistent states — the engine of
/// the parallel-tempering annealer.
///
/// Unlike [`ordered_map`]'s counter-based work stealing, every
/// worker here *owns a fixed subset* of the states (worker `w` owns
/// indices `w, w + W, w + 2W, …`): state `i` is stepped by the same
/// worker every round, and rounds are separated by a barrier. Between
/// rounds the coordinating thread gets exclusive access to all states and
/// runs `exchange(round, &mut refs)` — this is where tempering swaps
/// states by index. `exchange` returns `false` to stop the run early.
///
/// Determinism contract: `step(i, round, &mut states[i])` may depend only
/// on its own state (plus immutable captures), and `exchange` must be a
/// deterministic function of the states — under that contract the final
/// states are bit-identical at any thread count, because with
/// `threads <= 1` (or a single state) the rounds execute sequentially in
/// index order and the barrier schedule makes the parallel execution
/// observationally identical to that sequential one.
///
/// # Panics
///
/// Re-raises the first observed panic from `step` or `exchange` (workers
/// rendezvous normally first, so a panicking round never deadlocks the
/// barrier).
pub fn barrier_rounds<S, F, X>(
    threads: usize,
    states: &mut [S],
    rounds: usize,
    step: F,
    exchange: X,
) where
    S: Send,
    F: Fn(usize, usize, &mut S) + Sync,
    X: FnMut(usize, &mut [&mut S]) -> bool,
{
    let mut exchange = exchange;
    if states.is_empty() || rounds == 0 {
        return;
    }
    if threads <= 1 || states.len() < 2 {
        let mut refs: Vec<&mut S> = states.iter_mut().collect();
        for round in 0..rounds {
            for (i, s) in refs.iter_mut().enumerate() {
                step(i, round, s);
            }
            if !exchange(round, &mut refs) {
                return;
            }
        }
        return;
    }

    let workers = threads.min(states.len());
    // Two waits per round: A (all steps done, coordinator may touch the
    // states) and B (exchange done, workers may start the next round).
    let barrier = Barrier::new(workers + 1);
    // Exit protocol: workers only ever *flag* trouble (`failed`, written
    // while stepping, before their A-wait); the exit decision (`quit`) is
    // written exclusively by the coordinator inside its A→B window, when
    // every worker is parked at B. Workers read `quit` right after B,
    // where it is frozen until the next A completes — which cannot happen
    // before every worker has done that read. A single shared flag
    // checked after B is racy: a fast worker can panic early in round
    // r + 1 and raise the flag while a slow worker is still between B(r)
    // and its own check, so the two disagree about which round to exit at
    // and the stragglers deadlock on the barrier.
    let failed = AtomicBool::new(false);
    let quit = AtomicBool::new(false);
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let record_failure = |payload: Box<dyn Any + Send>| {
        let mut slot = failure.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
        failed.store(true, Ordering::Release);
    };
    // Workers step disjoint states, but the borrow checker cannot see the
    // stride partition — each state sits behind its own mutex. Locks are
    // uncontended by construction (owner-only during rounds, coordinator-
    // only between barriers), so this costs one atomic per state per
    // round, amortized over `exchange_interval` SA iterations.
    let cells: Vec<Mutex<&mut S>> = states.iter_mut().map(Mutex::new).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let barrier = &barrier;
            let quit = &quit;
            let record_failure = &record_failure;
            let cells = &cells;
            let step = &step;
            scope.spawn(move || {
                for round in 0..rounds {
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut i = w;
                        while i < cells.len() {
                            let mut guard = cells[i].lock().unwrap_or_else(PoisonError::into_inner);
                            step(i, round, &mut guard);
                            i += workers;
                        }
                    }));
                    if let Err(payload) = result {
                        record_failure(payload);
                    }
                    barrier.wait(); // A: this round's steps are done.
                    barrier.wait(); // B: the coordinator's exchange is done.
                    if quit.load(Ordering::Acquire) {
                        return;
                    }
                }
            });
        }

        for round in 0..rounds {
            barrier.wait(); // A
                            // Exclusive window: all workers are parked at B, so every
                            // failure flagged up to this round is visible and no new one
                            // can appear until after the quit decision below is read.
            if failed.load(Ordering::Acquire) {
                quit.store(true, Ordering::Release);
            } else {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut guards: Vec<MutexGuard<&mut S>> = cells
                        .iter()
                        .map(|c| c.lock().unwrap_or_else(PoisonError::into_inner))
                        .collect();
                    let mut refs: Vec<&mut S> = guards.iter_mut().map(|g| &mut ***g).collect();
                    exchange(round, &mut refs)
                }));
                match result {
                    Ok(true) => {}
                    Ok(false) => quit.store(true, Ordering::Release),
                    Err(payload) => {
                        record_failure(payload);
                        quit.store(true, Ordering::Release);
                    }
                }
            }
            barrier.wait(); // B
            if quit.load(Ordering::Acquire) {
                break;
            }
        }
    });

    if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
}

/// The default worker count: every available core, falling back to 1 when
/// the platform cannot report parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64, 200] {
            let got = ordered_map(threads, &items, |_, &x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn passes_the_item_index() {
        let items = ["a", "b", "c", "d"];
        let got = ordered_map(4, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(ordered_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(ordered_map(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn zero_threads_degrades_to_sequential() {
        assert_eq!(ordered_map(0, &[1u32, 2, 3], |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(ordered_map(32, &[1u32, 2], |_, &x| x * 10), vec![10, 20]);
    }

    #[test]
    fn propagates_panics() {
        let result = panic::catch_unwind(|| {
            ordered_map(4, &[0u32, 1, 2, 3, 4, 5, 6, 7], |_, &x| {
                assert_ne!(x, 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    /// Deterministic reference model for the barrier tests: state `i`
    /// accumulates a mix of its index and the round, and the exchange
    /// swaps adjacent pairs (alternating parity) whenever the lower slot
    /// holds the larger value — a miniature tempering pass.
    fn barrier_reference(states: usize, rounds: usize, threads: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..states as u64).collect();
        barrier_rounds(
            threads,
            &mut v,
            rounds,
            |i, round, s| {
                *s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(((i as u64) << 32) | round as u64);
            },
            |round, refs| {
                let mut lo = round % 2;
                while lo + 1 < refs.len() {
                    if *refs[lo] > *refs[lo + 1] {
                        let (a, b) = refs.split_at_mut(lo + 1);
                        std::mem::swap(a[lo], b[0]);
                    }
                    lo += 2;
                }
                true
            },
        );
        v
    }

    #[test]
    fn barrier_rounds_is_identical_at_any_thread_count() {
        for (states, rounds) in [(1, 5), (2, 3), (5, 9), (8, 17), (13, 4)] {
            let expected = barrier_reference(states, rounds, 1);
            for threads in [1, 2, 3, 8, 64, 200] {
                let got = barrier_reference(states, rounds, threads);
                assert_eq!(
                    got, expected,
                    "states = {states}, rounds = {rounds}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn barrier_rounds_steps_every_state_every_round() {
        let rounds = 7;
        let mut v = vec![0usize; 6];
        barrier_rounds(4, &mut v, rounds, |_, _, s| *s += 1, |_, _| true);
        assert!(v.iter().all(|&c| c == rounds), "{v:?}");
    }

    #[test]
    fn barrier_rounds_exchange_false_stops_early() {
        for threads in [1, 4] {
            let mut v = vec![0usize; 5];
            barrier_rounds(
                threads,
                &mut v,
                100,
                |_, _, s| *s += 1,
                |round, _| round < 2,
            );
            // Rounds 0, 1, 2 ran; the exchange after round 2 stopped the run.
            assert!(v.iter().all(|&c| c == 3), "threads = {threads}: {v:?}");
        }
    }

    #[test]
    fn barrier_rounds_handles_empty_and_zero_rounds() {
        let mut empty: Vec<u32> = Vec::new();
        barrier_rounds(4, &mut empty, 10, |_, _, _| {}, |_, _| true);
        let mut v = vec![1u32, 2];
        barrier_rounds(4, &mut v, 0, |_, _, s| *s += 1, |_, _| true);
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn barrier_rounds_propagates_step_panics() {
        for threads in [1, 4] {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                let mut v = vec![0usize; 8];
                barrier_rounds(
                    threads,
                    &mut v,
                    4,
                    |i, round, _| {
                        assert!(!(i == 5 && round == 2), "boom");
                    },
                    |_, _| true,
                );
            }));
            assert!(result.is_err(), "threads = {threads}");
        }
    }

    #[test]
    fn barrier_rounds_propagates_exchange_panics() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut v = vec![0usize; 8];
            barrier_rounds(
                4,
                &mut v,
                4,
                |_, _, s| *s += 1,
                |round, _| {
                    assert_ne!(round, 1, "boom");
                    true
                },
            );
        }));
        assert!(result.is_err());
    }
}
