//! The three SA moves of §IV, operating at tensor-group-block granularity.
//!
//! Regarding the mapping as a string of GPU assignments, the paper uses:
//!
//! * **migration** — remove a single element and re-insert it at a random
//!   position;
//! * **swap** — exchange two elements;
//! * **reverse** — take a substring and reverse its order (motivated by the
//!   observation that bidirectional bandwidths are nearly symmetric, so a
//!   reversed pipeline runs at almost the same speed — reversing lets SA
//!   reuse a good substring in the opposite orientation).
//!
//! We apply moves to *blocks* of `tp` consecutive assignments. Tensor
//! groups occupy consecutive worker indices and, under any block
//! permutation of the identity assignment, consecutive GPUs of one node —
//! so tensor-parallel traffic stays on NVLink, which is how real launchers
//! behave and what keeps the search space tractable.

use pipette_cluster::GpuId;
use rand::Rng;

/// The kind of a [`Move`], used to restrict the sampled move set without
/// rejection sampling (the annealer builds the enabled-kind list once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// [`Move::Migration`].
    Migration,
    /// [`Move::Swap`].
    Swap,
    /// [`Move::Reverse`].
    Reverse,
}

impl MoveKind {
    /// Stable lowercase name for telemetry (`"migration"`, `"swap"`,
    /// `"reverse"`).
    pub fn name(self) -> &'static str {
        match self {
            MoveKind::Migration => "migration",
            MoveKind::Swap => "swap",
            MoveKind::Reverse => "reverse",
        }
    }
}

/// A candidate perturbation of the assignment string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Remove block `from` and reinsert it so it lands at block position
    /// `to` (positions in blocks).
    Migration {
        /// Source block index.
        from: usize,
        /// Destination block index.
        to: usize,
    },
    /// Exchange blocks `a` and `b`.
    Swap {
        /// First block index.
        a: usize,
        /// Second block index.
        b: usize,
    },
    /// Reverse the order of blocks in `[start, end]` (inclusive).
    Reverse {
        /// First block of the range.
        start: usize,
        /// Last block of the range.
        end: usize,
    },
}

impl Move {
    /// Samples a random move for an assignment of `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks < 2`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, num_blocks: usize) -> Self {
        let kind = match rng.gen_range(0..3u8) {
            0 => MoveKind::Migration,
            1 => MoveKind::Swap,
            _ => MoveKind::Reverse,
        };
        Self::random_of_kind(rng, kind, num_blocks)
    }

    /// Samples a random move of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks < 2`.
    pub fn random_of_kind<R: Rng + ?Sized>(rng: &mut R, kind: MoveKind, num_blocks: usize) -> Self {
        debug_assert!(num_blocks >= 2, "need at least two blocks to move");
        match kind {
            MoveKind::Migration => {
                let from = rng.gen_range(0..num_blocks);
                let mut to = rng.gen_range(0..num_blocks - 1);
                if to >= from {
                    to += 1;
                }
                Move::Migration { from, to }
            }
            MoveKind::Swap => {
                let a = rng.gen_range(0..num_blocks);
                let mut b = rng.gen_range(0..num_blocks - 1);
                if b >= a {
                    b += 1;
                }
                Move::Swap { a, b }
            }
            MoveKind::Reverse => {
                let start = rng.gen_range(0..num_blocks - 1);
                let end = rng.gen_range(start + 1..num_blocks);
                Move::Reverse { start, end }
            }
        }
    }

    /// This move's [`MoveKind`].
    pub fn kind(&self) -> MoveKind {
        match self {
            Move::Migration { .. } => MoveKind::Migration,
            Move::Swap { .. } => MoveKind::Swap,
            Move::Reverse { .. } => MoveKind::Reverse,
        }
    }

    /// The move that exactly undoes this one: swap and reverse are their
    /// own inverses; a migration runs backwards. Lets the annealer and the
    /// incremental objective revert a rejected move in place instead of
    /// cloning the whole assignment per iteration.
    pub fn inverse(&self) -> Move {
        match *self {
            Move::Migration { from, to } => Move::Migration { from: to, to: from },
            mv => mv,
        }
    }

    /// Applies the move to `assign` in place, where blocks are
    /// `block_size` consecutive entries.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len()` is not a multiple of `block_size` or block
    /// indices are out of range.
    pub fn apply(&self, assign: &mut [GpuId], block_size: usize) {
        self.apply_to(assign, block_size);
    }

    /// Generic [`Move::apply`]: permutes any block-structured slice. The
    /// incremental objective uses this to permute its cached per-block
    /// all-reduce times in lockstep with the assignment itself.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len()` is not a multiple of `block_size` or block
    /// indices are out of range.
    pub fn apply_to<T>(&self, assign: &mut [T], block_size: usize) {
        debug_assert!(
            block_size > 0 && assign.len().is_multiple_of(block_size),
            "invalid block size"
        );
        let nb = assign.len() / block_size;
        match *self {
            Move::Migration { from, to } => {
                debug_assert!(from < nb && to < nb, "block out of range");
                if from == to {
                    return;
                }
                // Rotate the span between from and to by one block.
                if from < to {
                    assign[from * block_size..(to + 1) * block_size].rotate_left(block_size);
                } else {
                    assign[to * block_size..(from + 1) * block_size].rotate_right(block_size);
                }
            }
            Move::Swap { a, b } => {
                debug_assert!(a < nb && b < nb, "block out of range");
                if a == b {
                    return;
                }
                if block_size == 1 {
                    // Single-element blocks: a plain swap, no slicing.
                    assign.swap(a, b);
                    return;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let (left, right) = assign.split_at_mut(hi * block_size);
                left[lo * block_size..(lo + 1) * block_size]
                    .swap_with_slice(&mut right[..block_size]);
            }
            Move::Reverse { start, end } => {
                debug_assert!(start <= end && end < nb, "range out of bounds");
                let mut lo = start;
                let mut hi = end;
                while lo < hi {
                    let (left, right) = assign.split_at_mut(hi * block_size);
                    left[lo * block_size..(lo + 1) * block_size]
                        .swap_with_slice(&mut right[..block_size]);
                    lo += 1;
                    hi -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn seq(n: usize) -> Vec<GpuId> {
        (0..n).map(GpuId).collect()
    }

    fn ids(v: &[GpuId]) -> Vec<usize> {
        v.iter().map(|g| g.0).collect()
    }

    #[test]
    fn migration_moves_block_forward_and_back() {
        let mut a = seq(8);
        Move::Migration { from: 0, to: 2 }.apply(&mut a, 2);
        assert_eq!(ids(&a), vec![2, 3, 4, 5, 0, 1, 6, 7]);
        let mut b = seq(8);
        Move::Migration { from: 3, to: 0 }.apply(&mut b, 2);
        assert_eq!(ids(&b), vec![6, 7, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn swap_exchanges_blocks() {
        let mut a = seq(8);
        Move::Swap { a: 0, b: 3 }.apply(&mut a, 2);
        assert_eq!(ids(&a), vec![6, 7, 2, 3, 4, 5, 0, 1]);
    }

    #[test]
    fn reverse_keeps_block_interiors() {
        let mut a = seq(8);
        Move::Reverse { start: 0, end: 3 }.apply(&mut a, 2);
        // Block order reversed, intra-block order preserved.
        assert_eq!(ids(&a), vec![6, 7, 4, 5, 2, 3, 0, 1]);
    }

    #[test]
    fn block_size_one_matches_paper_string_moves() {
        let mut a = seq(5);
        Move::Reverse { start: 1, end: 3 }.apply(&mut a, 1);
        assert_eq!(ids(&a), vec![0, 3, 2, 1, 4]);
        Move::Swap { a: 0, b: 4 }.apply(&mut a, 1);
        assert_eq!(ids(&a), vec![4, 3, 2, 1, 0]);
    }

    proptest! {
        #[test]
        fn moves_preserve_permutation(
            seed in 0u64..500,
            blocks in 2usize..10,
            bs in 1usize..5,
            n_moves in 1usize..30,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = blocks * bs;
            let mut a = seq(n);
            for _ in 0..n_moves {
                Move::random(&mut rng, blocks).apply(&mut a, bs);
            }
            let mut sorted = ids(&a);
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn moves_preserve_block_membership(
            seed in 0u64..500,
            blocks in 2usize..8,
            n_moves in 1usize..20,
        ) {
            // With block size 4, the set of 4 GPUs forming each block must
            // survive any move sequence (only block order changes).
            let bs = 4;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut a = seq(blocks * bs);
            for _ in 0..n_moves {
                Move::random(&mut rng, blocks).apply(&mut a, bs);
            }
            for chunk in a.chunks(bs) {
                let base = chunk[0].0 / bs;
                prop_assert!(chunk.iter().all(|g| g.0 / bs == base), "block torn: {chunk:?}");
            }
        }

        #[test]
        fn inverse_undoes_any_move(seed in 0u64..1000, blocks in 2usize..10, bs in 1usize..5) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = blocks * bs;
            let mut a = seq(n);
            let mv = Move::random(&mut rng, blocks);
            mv.apply(&mut a, bs);
            mv.inverse().apply(&mut a, bs);
            prop_assert_eq!(ids(&a), (0..n).collect::<Vec<_>>());
        }

        #[test]
        fn apply_to_matches_apply(seed in 0u64..1000, blocks in 2usize..10) {
            // Permuting a parallel value array with `apply_to` tracks the
            // assignment permutation exactly (block size 1 on block ids).
            let bs = 3;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut a = seq(blocks * bs);
            let mut tags: Vec<usize> = (0..blocks).collect();
            for _ in 0..10 {
                let mv = Move::random(&mut rng, blocks);
                mv.apply(&mut a, bs);
                mv.apply_to(&mut tags, 1);
            }
            for (pos, &tag) in tags.iter().enumerate() {
                prop_assert_eq!(a[pos * bs].0 / bs, tag);
            }
        }

        #[test]
        fn random_moves_are_valid(seed in 0u64..2000, blocks in 2usize..12) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            match Move::random(&mut rng, blocks) {
                Move::Migration { from, to } => {
                    prop_assert!(from < blocks && to < blocks && from != to);
                }
                Move::Swap { a, b } => prop_assert!(a < blocks && b < blocks && a != b),
                Move::Reverse { start, end } => prop_assert!(start < end && end < blocks),
            }
        }
    }
}
