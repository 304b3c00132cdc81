//! Mask-keyed dominance store for the A\* search.
//!
//! State `s₁ = (red₁, blue₁)` *dominates* `s₂ = (red₂, blue₂)` reached at
//! cost `g₂` when `red₁ ⊇ red₂`, `blue₁ ⊇ blue₂`, and `g₁ < g₂`: deletes
//! are free, so from `s₁` the extra red pebbles can be dropped at zero cost
//! and any completion of `s₂` mirrored move-for-move (blue pebbles are never
//! deleted, and the goal only asks for blue superset of the sinks), giving a
//! completion from `s₁` of strictly smaller total cost.  A dominated state
//! can therefore be discarded without losing optimality, and because the
//! recorded cost is *strictly* smaller, the discard argument terminates: a
//! pruned completion is replaced by one of strictly smaller total cost, and
//! costs are non-negative integers.
//!
//! The strictness matters.  With `g₁ ≤ g₂` the relation would prune every
//! delete successor against its own parent (red superset at equal cost) —
//! exactly the states that budget-forced evictions must pass through — and
//! the mirror argument would chase its own tail.  Equal-cost red-subset
//! states are left to the distance map and the tightened successor
//! relation instead; what strict dominance removes is every detour that
//! *paid* I/O for pebbles a cheaper recorded state already holds.
//!
//! The store buckets recorded `(red, g)` pairs by their exact blue mask
//! (hashed with [`pebblyn_core::fasthash`] via [`FastHashMap`]).  Restricting
//! lookups to the equal-blue bucket keeps probes O(bucket) while giving up
//! almost nothing: a strict blue-superset at `≤ g` requires having paid for
//! strictly more stores in fewer or equally many I/O moves, which the cost
//! model prices out except in degenerate zero-scale configurations.  Each
//! bucket is maintained as a Pareto antichain: recording a pair evicts every
//! pair it dominates, so buckets stay small.  The store keeps a running
//! count of its pairs, so the search can read its size after every
//! expansion without walking the buckets.
//!
//! The store is generic over the state's [`StateMask`] width; the subset
//! probe is [`StateMask::contains_all`], which for `u64` lowers to the
//! single `and`+`cmp` of the pre-refactor store.

use pebblyn_core::{FastHashMap, StateMask, Weight};

/// Recorded expansion frontiers, bucketed by blue mask.
#[derive(Debug)]
pub(crate) struct DominanceStore<M: StateMask> {
    buckets: FastHashMap<M, Vec<(M, Weight)>>,
    /// Total recorded pairs across all buckets.
    len: usize,
}

impl<M: StateMask> Default for DominanceStore<M> {
    fn default() -> Self {
        DominanceStore {
            buckets: FastHashMap::default(),
            len: 0,
        }
    }
}

impl<M: StateMask> DominanceStore<M> {
    /// `true` when a recorded state with the same blue mask, a red superset,
    /// and *strictly* smaller cost exists.  (The equal-state case is already
    /// handled by the search's distance map, which never re-queues a state
    /// at a non-improving cost; equal-cost subsets must survive, see the
    /// module docs.)
    pub(crate) fn dominated(&self, red: M, blue: M, g: Weight) -> bool {
        self.buckets
            .get(&blue)
            .is_some_and(|b| b.iter().any(|&(r, rg)| r.contains_all(red) && rg < g))
    }

    /// Record `(red, blue)` reached at cost `g`, evicting every recorded
    /// pair whose pruning power the new one subsumes (`red ⊇ r`, `g ≤ rg`:
    /// anything the old pair strictly dominates, the new one does too), so
    /// the bucket stays a Pareto antichain.
    ///
    /// Returns whether an evicted pair had this very red mask, i.e. the
    /// same state was recorded before at a cost no lower than `g`.
    pub(crate) fn record(&mut self, red: M, blue: M, g: Weight) -> bool {
        let bucket = self.buckets.entry(blue).or_default();
        let before = bucket.len();
        let mut same_state = false;
        bucket.retain(|&(r, rg)| {
            let evict = red.contains_all(r) && g <= rg;
            same_state |= evict && r == red;
            !evict
        });
        self.len = self.len - (before - bucket.len()) + 1;
        bucket.push((red, g));
        same_state
    }

    /// Total recorded pairs across all buckets (for statistics).
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::Words;

    /// Tiny deterministic xorshift stream for the random record sequences.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn superset_at_strictly_lower_cost_dominates() {
        let mut d = DominanceStore::<u64>::default();
        d.record(0b111, 0b1, 10);
        assert!(d.dominated(0b011, 0b1, 11), "red subset, higher cost");
        assert!(d.dominated(0b111, 0b1, 12), "equal red, higher cost");
        assert!(
            !d.dominated(0b011, 0b1, 10),
            "equal cost survives: free-delete successors must not be pruned by their parent"
        );
        assert!(!d.dominated(0b011, 0b1, 9), "cheaper candidate survives");
        assert!(!d.dominated(0b1011, 0b1, 11), "incomparable red survives");
        assert!(!d.dominated(0b011, 0b11, 11), "different blue bucket");
    }

    #[test]
    fn record_keeps_buckets_as_antichains() {
        let mut d = DominanceStore::<u64>::default();
        d.record(0b011, 0, 10);
        d.record(0b001, 0, 12); // dominated by the first, still recorded…
        assert_eq!(d.len(), 2);
        d.record(0b111, 0, 9); // …until a dominator evicts both
        assert_eq!(d.len(), 1);
        assert!(d.dominated(0b011, 0, 10));
        d.record(0b100, 0, 1); // incomparable: antichain grows
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn wide_masks_dominate_across_word_boundaries() {
        type M = Words<2>;
        let blue = M::bit(70);
        let mut d = DominanceStore::<M>::default();
        d.record(M::bit(1) | M::bit(65), blue, 10);
        assert!(d.dominated(M::bit(65), blue, 11), "high-word subset");
        assert!(!d.dominated(M::bit(66), blue, 11), "incomparable high word");
        assert!(
            !d.dominated(M::bit(65), M::bit(71), 11),
            "other blue bucket"
        );
    }

    #[test]
    fn running_count_and_reopen_flag_match_a_full_recount() {
        // Small masks and costs, so sequences revisit states and evict often.
        for seed in 1..=64u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut d = DominanceStore::<u64>::default();
            for _ in 0..200 {
                let red = xorshift(&mut rng) & 0b1111;
                let blue = xorshift(&mut rng) & 0b11;
                let g = xorshift(&mut rng) % 8;
                let reopened = d
                    .buckets
                    .get(&blue)
                    .is_some_and(|b| b.iter().any(|&(r, rg)| r == red && g <= rg));
                assert_eq!(d.record(red, blue, g), reopened, "seed {seed}");
                let recount: usize = d.buckets.values().map(Vec::len).sum();
                assert_eq!(d.len(), recount, "seed {seed}");
            }
        }
    }
}
