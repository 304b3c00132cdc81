//! Fixed-width bitset over node ids with resident-weight tracking.
//!
//! Red-set membership is the single hottest query in the workspace: the
//! replay kernel (behind the validators and the machines) and Belady-style
//! eviction ask "does `v` hold a red pebble, and what do the red pebbles
//! weigh?" on every move.  [`RedSet`] answers both in O(1) from a flat
//! `u64`-word bitset plus one cached weight.

use crate::graph::{NodeId, Weight};

/// A set of nodes stored as a `u64`-word bitset, with the total weight of
/// the members cached incrementally.
///
/// Weights are supplied at insertion/removal time (the set does not hold a
/// graph reference); callers pass `graph.weight(v)`.  Inserting a present
/// member or removing an absent one is a no-op, so replaying idempotent
/// moves (double loads, double stores) never skews the cached weight.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RedSet {
    words: Vec<u64>,
    weight: Weight,
}

impl RedSet {
    /// An empty set able to hold nodes `0..n`.
    pub fn new(n: usize) -> Self {
        RedSet {
            words: vec![0; n.div_ceil(64)],
            weight: 0,
        }
    }

    /// `true` iff `v` is a member.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        (self.words[i / 64] >> (i % 64)) & 1 != 0
    }

    /// Insert `v` with weight `w`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: NodeId, w: Weight) -> bool {
        let i = v.index();
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.weight += w;
        true
    }

    /// Remove `v` with weight `w`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId, w: Weight) -> bool {
        let i = v.index();
        let bit = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.weight -= w;
        true
    }

    /// Total weight of the members (`Σ_{v ∈ S} w_v`), maintained
    /// incrementally.
    #[inline]
    pub fn weight(&self) -> Weight {
        self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_track_weight() {
        let mut s = RedSet::new(130);
        assert_eq!(s.weight(), 0);
        assert!(s.insert(NodeId(3), 16));
        assert!(s.insert(NodeId(129), 8));
        assert!(!s.insert(NodeId(3), 16), "double insert is a no-op");
        assert_eq!(s.weight(), 24);
        assert!(s.contains(NodeId(3)) && s.contains(NodeId(129)));
        assert!(!s.contains(NodeId(4)));
        assert!(s.remove(NodeId(3), 16));
        assert!(!s.remove(NodeId(3), 16), "double remove is a no-op");
        assert_eq!(s.weight(), 8);
        assert!(!s.contains(NodeId(3)) && s.contains(NodeId(129)));
    }

    #[test]
    fn membership_across_word_boundaries() {
        let mut s = RedSet::new(200);
        let members = [0u32, 63, 64, 127, 128, 199];
        for &i in &members {
            s.insert(NodeId(i), 1);
        }
        let got: Vec<u32> = (0..200).filter(|&i| s.contains(NodeId(i))).collect();
        assert_eq!(got, members);
        assert_eq!(s.weight(), 6);
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let mut a = RedSet::new(70);
        let mut b = RedSet::new(70);
        a.insert(NodeId(65), 4);
        b.insert(NodeId(65), 4);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
