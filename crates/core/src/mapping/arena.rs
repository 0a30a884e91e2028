//! Fixed-capacity, allocation-free building blocks for the SA hot path.
//!
//! PR 1 made the objective *incremental*; this module makes it
//! *mechanically sympathetic* (DESIGN.md §7g). Every structure here is
//! sized once — at [`crate::mapping::IncrementalObjective`] construction —
//! and never touches the allocator again, so the steady-state annealing
//! loop performs **zero heap allocations per move** (asserted by the
//! counting-allocator harness in `perf_baseline`):
//!
//! * [`DpMemo`] — an open-addressed hash table replacing the old
//!   `BTreeMap<(usize, u128), f64>` memo of per-stage data-parallel
//!   all-reduce times. Power-of-two slot count, splitmix64 key hashing,
//!   bounded linear probing, and a *seeded eviction* policy: when a probe
//!   window is full, a deterministically chosen victim is overwritten.
//!   Memo values are pure functions of their keys, so eviction (or a
//!   different table capacity) can only turn a future hit into a
//!   bit-identical recompute — never change a result. Any observable
//!   traversal goes through the sorted [`DpMemo::ordered_entries`] drain,
//!   keeping telemetry deterministic by construction (rule D4's intent,
//!   without the `BTreeMap` pointer chasing on the hot path).
//! * [`UndoLog`] — the `(index, old value)` journal of one in-flight
//!   proposal, laid out struct-of-arrays (indices and values in separate
//!   contiguous runs) so the rollback scan is two linear sweeps.
//! * [`TouchedSet`] — the dirty-index scratch of one proposal, a bounded
//!   buffer with in-place sort + dedup.
//!
//! Capacity invariants are `debug_assert!`-guarded: the objective sizes
//! each buffer to the worst case a single move can produce (a `Reverse`
//! spanning every block), so the guards document a proof, not a hope.

/// splitmix64 — the 64-bit finalizer used for memo-key hashing and the
/// seeded eviction draw. Chosen over SipHash (the std default) because it
/// is seed-stable across processes and platforms: the same keys always
/// land in the same slots, so eviction history — and therefore the exact
/// hit/miss sequence — replays identically from a run's seed alone.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Stage sentinel marking an empty slot (no real stage index reaches it:
/// stages are bounded by `pp`, which is bounded by the GPU count).
const EMPTY: u32 = u32::MAX;

/// Slots probed past the home slot before declaring the window full and
/// evicting. Small and fixed so a miss costs a bounded, branch-predictable
/// scan instead of an unbounded cluster walk.
const PROBE_WINDOW: usize = 8;

/// Lookup/insert counters of a [`DpMemo`], for telemetry and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Inserts that overwrote a live entry because the probe window was
    /// full (the seeded-eviction path).
    pub evictions: u64,
}

/// Fixed-capacity open-addressed memo from `(stage, packed content-id
/// tuple)` to a cached `f64` term.
///
/// Values must be pure functions of their keys: under that contract a
/// lost entry (eviction, capacity pressure, or a full [`Self::clear`])
/// only costs a recompute that reproduces the same bits, which is what
/// lets the SA result stay bit-identical to the batch estimator at *any*
/// capacity (property-tested in `tests/incremental_objective.rs`).
#[derive(Debug, Clone)]
pub struct DpMemo {
    /// Stage of each slot (`EMPTY` when vacant). SoA: the three parallel
    /// arrays keep probe scans inside one cache line per field.
    stage: Box<[u32]>,
    key: Box<[u128]>,
    value: Box<[f64]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Seed folded into the eviction draw, so distinct objectives (and
    /// test runs) can exercise distinct eviction histories while each
    /// history stays replayable.
    eviction_seed: u64,
    len: usize,
    stats: MemoStats,
}

impl DpMemo {
    /// A memo with at least `capacity` slots (rounded up to a power of
    /// two, minimum 16) and the given eviction seed.
    pub fn new(capacity: usize, eviction_seed: u64) -> Self {
        let cap = capacity.max(16).next_power_of_two();
        Self {
            stage: vec![EMPTY; cap].into_boxed_slice(),
            key: vec![0; cap].into_boxed_slice(),
            value: vec![0.0; cap].into_boxed_slice(),
            mask: cap - 1,
            eviction_seed,
            len: 0,
            stats: MemoStats::default(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lookup/insert counters so far.
    pub fn stats(&self) -> MemoStats {
        self.stats
    }

    #[inline]
    fn home(&self, stage: usize, key: u128) -> usize {
        let folded = splitmix64(key as u64)
            ^ splitmix64((key >> 64) as u64 ^ 0x517c_c1b7_2722_0a95)
            ^ splitmix64(stage as u64 ^ 0x6a09_e667_f3bc_c909);
        (folded as usize) & self.mask
    }

    // pipette-lint: hot-path
    /// Cached value for `(stage, key)`, if present. Bounded probe: scans
    /// at most `PROBE_WINDOW` slots and stops early at the first vacancy.
    #[inline]
    pub fn get(&mut self, stage: usize, key: u128) -> Option<f64> {
        let home = self.home(stage, key);
        for p in 0..PROBE_WINDOW {
            let slot = (home + p) & self.mask;
            let s = self.stage[slot];
            if s == EMPTY {
                break;
            }
            if s as usize == stage && self.key[slot] == key {
                self.stats.hits += 1;
                return Some(self.value[slot]);
            }
        }
        self.stats.misses += 1;
        None
    }

    // pipette-lint: hot-path
    /// Inserts (or refreshes) `(stage, key) → value`. When every slot of
    /// the probe window is live, a victim chosen by a seeded splitmix64
    /// draw over the window is overwritten — deterministic in the key
    /// stream and `eviction_seed`, independent of wall clock or pointer
    /// addresses.
    #[inline]
    pub fn insert(&mut self, stage: usize, key: u128, value: f64) {
        debug_assert!(
            stage < EMPTY as usize,
            "stage index overflows the slot encoding"
        );
        let home = self.home(stage, key);
        for p in 0..PROBE_WINDOW {
            let slot = (home + p) & self.mask;
            let s = self.stage[slot];
            if s == EMPTY {
                self.stage[slot] = stage as u32;
                self.key[slot] = key;
                self.value[slot] = value;
                self.len += 1;
                return;
            }
            if s as usize == stage && self.key[slot] == key {
                self.value[slot] = value;
                return;
            }
        }
        // Window full: evict. The draw mixes the home slot with the seed,
        // so the victim sequence is a pure function of (keys, seed).
        let victim = (home
            + (splitmix64(home as u64 ^ self.eviction_seed) as usize % PROBE_WINDOW))
            & self.mask;
        self.stage[victim] = stage as u32;
        self.key[victim] = key;
        self.value[victim] = value;
        self.stats.evictions += 1;
    }

    /// Empties the table (slots stay allocated; counters are kept).
    pub fn clear(&mut self) {
        self.stage.fill(EMPTY);
        self.len = 0;
    }

    /// Every live entry in `(stage, key)` order — the deterministic drain
    /// any iteration/telemetry surface must go through. Allocates; never
    /// called on the per-move path.
    pub fn ordered_entries(&self) -> Vec<(usize, u128, f64)> {
        let mut out: Vec<(usize, u128, f64)> = self
            .stage
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != EMPTY)
            .map(|(slot, &s)| (s as usize, self.key[slot], self.value[slot]))
            .collect();
        out.sort_unstable_by_key(|e| (e.0, e.1));
        out
    }
}

/// Fixed-capacity `(index, old value)` journal of one in-flight proposal,
/// struct-of-arrays: rollback reads the two runs linearly instead of
/// striding over interleaved pairs.
#[derive(Debug, Clone)]
pub struct UndoLog {
    idx: Box<[u32]>,
    old: Box<[f64]>,
    len: usize,
}

impl UndoLog {
    /// A journal holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            idx: vec![0; capacity].into_boxed_slice(),
            old: vec![0.0; capacity].into_boxed_slice(),
            len: 0,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.idx.len()
    }

    /// Entries journaled for the current proposal.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forgets all entries (capacity retained).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    // pipette-lint: hot-path
    /// Journals `(index, old)`. The objective sizes the journal to the
    /// worst case a single move can dirty, so overflow is a logic bug.
    #[inline]
    pub fn push(&mut self, index: usize, old: f64) {
        debug_assert!(self.len < self.idx.len(), "undo journal over capacity");
        debug_assert!(index <= u32::MAX as usize, "undo index overflows u32");
        self.idx[self.len] = index as u32;
        self.old[self.len] = old;
        self.len += 1;
    }

    /// The journaled `(index, old value)` pairs, oldest first.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idx[..self.len]
            .iter()
            .zip(&self.old[..self.len])
            .map(|(&i, &v)| (i as usize, v))
    }
}

/// Fixed-domain dirty-index set with O(1) dedup on push — the
/// touched-hop / touched-stage scratch of one proposal.
///
/// Each index in `0..domain` carries a generation stamp; a push whose
/// stamp already equals the current generation is a duplicate and is
/// dropped, so [`Self::as_slice`] always holds distinct indices in first-
/// push order — no sort needed on the hot path (the per-index work that
/// follows is order-independent: independent writes into term arrays).
/// [`Self::clear`] just bumps the generation, O(1).
#[derive(Debug, Clone)]
pub struct TouchedSet {
    buf: Box<[u32]>,
    len: usize,
    mark: Box<[u32]>,
    generation: u32,
}

impl TouchedSet {
    /// A set over the index domain `0..domain`; holds at most `domain`
    /// (distinct) entries by construction.
    pub fn new(domain: usize) -> Self {
        Self {
            buf: vec![0; domain].into_boxed_slice(),
            len: 0,
            mark: vec![0; domain].into_boxed_slice(),
            generation: 1,
        }
    }

    /// Size of the index domain (also the maximum distinct entries).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Distinct indices currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // pipette-lint: hot-path
    /// Forgets all indices by advancing the generation (capacity and
    /// domain retained). On the — astronomically rare — u32 wraparound the
    /// stamps are rewritten so a stale stamp can never alias the live
    /// generation.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.mark.fill(0);
            self.generation = 1;
        }
    }

    // pipette-lint: hot-path
    /// Records a dirty index, dropping duplicates. `index` must lie in
    /// the domain the set was built over.
    #[inline]
    pub fn push(&mut self, index: usize) {
        debug_assert!(index < self.mark.len(), "touched index outside domain");
        if self.mark[index] != self.generation {
            self.mark[index] = self.generation;
            self.buf[self.len] = index as u32;
            self.len += 1;
        }
    }

    /// The distinct recorded indices, in first-push order.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn memo_round_trips_inserts() {
        let mut m = DpMemo::new(64, 0);
        assert!(m.is_empty());
        m.insert(0, 42, 1.5);
        m.insert(3, 42, 2.5);
        m.insert(0, 7, -0.5);
        assert_eq!(m.get(0, 42), Some(1.5));
        assert_eq!(m.get(3, 42), Some(2.5));
        assert_eq!(m.get(0, 7), Some(-0.5));
        assert_eq!(m.get(1, 42), None);
        assert_eq!(m.len(), 3);
        // Refresh overwrites in place.
        m.insert(0, 42, 9.0);
        assert_eq!(m.get(0, 42), Some(9.0));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn memo_capacity_rounds_to_power_of_two() {
        assert_eq!(DpMemo::new(0, 0).capacity(), 16);
        assert_eq!(DpMemo::new(17, 0).capacity(), 32);
        assert_eq!(DpMemo::new(4096, 0).capacity(), 4096);
    }

    #[test]
    fn memo_matches_btreemap_reference_under_pressure() {
        // Tiny table, many keys: evictions guaranteed. The open table may
        // *forget* entries, but everything it still returns must match
        // the reference bit for bit — a hit is never wrong, a miss is
        // merely a recompute.
        for seed in 0..20u64 {
            let mut open = DpMemo::new(16, seed);
            let mut reference: BTreeMap<(usize, u128), f64> = BTreeMap::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..2_000 {
                let stage = rng.gen_range(0..6usize);
                let key = rng.gen_range(0..200u64) as u128;
                if rng.gen_range(0..3u8) == 0 {
                    // Value is a pure function of the key, as the memo
                    // contract requires.
                    let v = (stage as f64 + 1.0) * (key as f64 + 0.25);
                    open.insert(stage, key, v);
                    reference.insert((stage, key), v);
                } else if let Some(got) = open.get(stage, key) {
                    let want = reference.get(&(stage, key));
                    assert_eq!(Some(got.to_bits()), want.map(|v| v.to_bits()));
                }
            }
            assert!(open.stats().evictions > 0, "16 slots must evict");
            // Every surviving entry agrees with the oracle.
            for (s, k, v) in open.ordered_entries() {
                assert_eq!(
                    reference.get(&(s, k)).map(|v| v.to_bits()),
                    Some(v.to_bits())
                );
            }
        }
    }

    #[test]
    fn memo_is_deterministic_in_seed() {
        let run = |eviction_seed: u64| {
            let mut m = DpMemo::new(16, eviction_seed);
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            for _ in 0..500 {
                let stage = rng.gen_range(0..4usize);
                let key = rng.gen_range(0..100u64) as u128;
                m.insert(stage, key, stage as f64 + key as f64);
            }
            (m.ordered_entries(), m.stats())
        };
        assert_eq!(run(1), run(1));
        // A different eviction seed is allowed to keep a different
        // surviving set — but each run replays exactly.
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn memo_clear_keeps_capacity_and_counters() {
        let mut m = DpMemo::new(32, 0);
        m.insert(1, 2, 3.0);
        let _ = m.get(1, 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 32);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.get(1, 2), None);
    }

    #[test]
    fn ordered_entries_are_sorted() {
        let mut m = DpMemo::new(64, 0);
        for stage in (0..5).rev() {
            for key in (0..10u128).rev() {
                m.insert(stage, key, stage as f64);
            }
        }
        let entries = m.ordered_entries();
        assert_eq!(entries.len(), 50);
        for w in entries.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
    }

    #[test]
    fn undo_log_journals_and_replays() {
        let mut log = UndoLog::new(8);
        assert!(log.is_empty());
        log.push(3, 1.0);
        log.push(1, 2.0);
        log.push(7, 3.0);
        assert_eq!(log.len(), 3);
        let entries: Vec<(usize, f64)> = log.entries().collect();
        assert_eq!(entries, vec![(3, 1.0), (1, 2.0), (7, 3.0)]);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.capacity(), 8);
    }

    #[test]
    fn touched_set_dedups_on_push_in_first_push_order() {
        let mut set = TouchedSet::new(16);
        for i in [5usize, 3, 5, 9, 3, 0, 9, 9] {
            set.push(i);
        }
        assert_eq!(set.as_slice(), &[5, 3, 9, 0]);
        assert_eq!(set.len(), 4);
        set.clear();
        assert!(set.is_empty());
        // A cleared set must forget old stamps: re-pushing previously seen
        // indices records them again, exactly once.
        set.push(9);
        set.push(9);
        set.push(2);
        assert_eq!(set.as_slice(), &[9, 2]);
    }

    #[test]
    fn touched_set_survives_many_generations() {
        let mut set = TouchedSet::new(4);
        for round in 0..1000usize {
            set.clear();
            set.push(round % 4);
            set.push(round % 4);
            assert_eq!(set.as_slice(), &[(round % 4) as u32], "round {round}");
        }
    }

    #[test]
    fn touched_set_empty_domain_is_inert() {
        let mut set = TouchedSet::new(0);
        assert_eq!(set.capacity(), 0);
        set.clear();
        assert!(set.as_slice().is_empty());
    }

    #[test]
    fn splitmix_spreads_sequential_inputs() {
        // Not a statistical test — just that nearby keys do not collapse
        // onto one slot in a 16-slot table.
        let slots: std::collections::BTreeSet<u64> =
            (0..16u64).map(|i| splitmix64(i) & 15).collect();
        assert!(slots.len() >= 8, "splitmix64 clumped: {slots:?}");
    }
}
