//! Packed game-state masks of arbitrary node width.
//!
//! The exact solver and the per-state bounds represent a WRBPG snapshot as
//! a pair of node bitsets (`red`, `blue`).  Historically both were bare
//! `u64`s, which capped exact search — and therefore exhaustive conformance
//! certification — at 64 nodes.  [`StateMask`] abstracts the bitset so the
//! same search monomorphizes per width:
//!
//! * `u64` — the zero-cost fast path.  Every trait method lowers to the
//!   single-word instruction the pre-refactor code used, so graphs of ≤ 64
//!   nodes compile to byte-for-byte the old hot loop.
//! * [`Words<N>`] — a const-generic `[u64; N]` bitset for wider graphs
//!   (`Words<2>` = 128 nodes, `Words<4>` = 256).
//!
//! The trait is **sealed**: search determinism depends on invariants (an
//! `Ord` that matches `u64`'s numeric order on shared widths, ascending
//! bit iteration) that foreign implementations could silently violate.
//!
//! # Ordering
//!
//! `Words<N>` compares **most-significant word first**, i.e. as the
//! `64·N`-bit unsigned integer it encodes.  This is load-bearing: the exact
//! search breaks priority ties on the state value, so a graph solved both
//! as `u64` and as `Words<2>` (high word zero) must order states
//! identically for the two runs to produce byte-identical schedules — the
//! property the mask-width equivalence proptests pin down.

use crate::graph::NodeId;
use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, Not};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl<const N: usize> Sealed for super::Words<N> {}
}

/// A fixed-width node bitset usable as one half of a packed game state.
///
/// Implemented by `u64` (the single-word fast path) and [`Words<N>`].
/// Sealed; see the module docs for the invariants implementations uphold.
pub trait StateMask:
    sealed::Sealed
    + Copy
    + Eq
    + Ord
    + Hash
    + Debug
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
{
    /// Number of 64-bit words in the mask.
    const WORDS: usize;
    /// Number of addressable node bits (`64 · WORDS`).
    const BITS: usize = 64 * Self::WORDS;

    /// The empty mask.
    fn empty() -> Self;

    /// The mask with exactly bit `i` set.
    fn bit(i: usize) -> Self;

    /// Whether bit `i` is set.
    fn get(self, i: usize) -> bool;

    /// `self` with bit `i` set.
    #[inline]
    fn set(self, i: usize) -> Self {
        self | Self::bit(i)
    }

    /// `self` with bit `i` cleared.
    fn clear(self, i: usize) -> Self;

    /// Whether no bit is set.
    fn is_empty(self) -> bool;

    /// Index of the lowest set bit, or `None` when empty.
    fn lowest_set(self) -> Option<usize>;

    /// Whether `self` contains every bit of `other`.
    #[inline]
    fn contains_all(self, other: Self) -> bool {
        self & other == other
    }
}

impl StateMask for u64 {
    const WORDS: usize = 1;

    #[inline]
    fn empty() -> Self {
        0
    }

    #[inline]
    fn bit(i: usize) -> Self {
        1u64 << i
    }

    #[inline]
    fn get(self, i: usize) -> bool {
        self >> i & 1 != 0
    }

    #[inline]
    fn clear(self, i: usize) -> Self {
        self & !(1u64 << i)
    }

    #[inline]
    fn is_empty(self) -> bool {
        self == 0
    }

    #[inline]
    fn lowest_set(self) -> Option<usize> {
        (self != 0).then(|| self.trailing_zeros() as usize)
    }
}

/// A const-generic multi-word bitset: `N` little-endian `u64` words
/// (`0[0]` holds bits 0–63).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Words<const N: usize>(pub [u64; N]);

impl<const N: usize> Default for Words<N> {
    fn default() -> Self {
        Words([0; N])
    }
}

impl<const N: usize> Ord for Words<N> {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Most-significant word first: numeric order of the 64N-bit value,
        // matching u64's order on the shared low word (see module docs).
        for i in (0..N).rev() {
            match self.0[i].cmp(&other.0[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl<const N: usize> PartialOrd for Words<N> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> BitAnd for Words<N> {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (w, r) in out.iter_mut().zip(rhs.0) {
            *w &= r;
        }
        Words(out)
    }
}

impl<const N: usize> BitOr for Words<N> {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (w, r) in out.iter_mut().zip(rhs.0) {
            *w |= r;
        }
        Words(out)
    }
}

impl<const N: usize> Not for Words<N> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut out = self.0;
        for w in &mut out {
            *w = !*w;
        }
        Words(out)
    }
}

impl<const N: usize> StateMask for Words<N> {
    const WORDS: usize = N;

    #[inline]
    fn empty() -> Self {
        Words([0; N])
    }

    #[inline]
    fn bit(i: usize) -> Self {
        let mut w = [0u64; N];
        w[i / 64] = 1u64 << (i % 64);
        Words(w)
    }

    #[inline]
    fn get(self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    fn clear(self, i: usize) -> Self {
        let mut w = self.0;
        w[i / 64] &= !(1u64 << (i % 64));
        Words(w)
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    #[inline]
    fn lowest_set(self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| i * 64 + w.trailing_zeros() as usize)
    }
}

/// Iterate the set bits of any [`StateMask`] in ascending node order.
///
/// This is the shared bit-walk of the exhaustive solver and the per-state
/// bounds in [`crate::bounds`]; for `u64` it compiles to the same
/// trailing-zeros loop the pre-refactor single-word version used.
#[inline]
pub fn mask_iter<M: StateMask>(mask: M) -> impl Iterator<Item = NodeId> {
    let mut bits = mask;
    std::iter::from_fn(move || {
        let i = bits.lowest_set()?;
        bits = bits.clear(i);
        Some(NodeId(i as u32))
    })
}

/// Total weight of the nodes named by a mask: `Σ_{v ∈ mask} weights[v]`.
///
/// `weights` is indexed by node id; bits at or above `weights.len()` must be
/// clear.
#[inline]
pub fn mask_weight<M: StateMask>(
    mask: M,
    weights: &[crate::graph::Weight],
) -> crate::graph::Weight {
    mask_iter(mask).map(|v| weights[v.index()]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_fast_path_matches_manual_bit_ops() {
        let m: u64 = 0b1011_0100;
        assert!(m.get(2) && !m.get(0));
        assert_eq!(m.set(0), 0b1011_0101);
        assert_eq!(m.clear(2), 0b1011_0000);
        assert_eq!(m.lowest_set(), Some(2));
        assert_eq!(u64::bit(7), 0b1000_0000);
        assert!(u64::empty().is_empty());
        assert!(m.contains_all(0b0011_0100));
        assert!(!m.contains_all(0b0000_0011));
    }

    #[test]
    fn words_bit_ops_cross_word_boundaries() {
        type M = Words<3>;
        let m = M::bit(0) | M::bit(64) | M::bit(191);
        assert!(m.get(64) && !m.get(63));
        assert_eq!(m.0, [1, 1, 1u64 << 63]);
        assert_eq!(m.clear(64).lowest_set(), Some(0));
        assert_eq!(m.clear(0).lowest_set(), Some(64));
        assert!((m & !m).is_empty());
        assert!(m.contains_all(M::bit(191)));
        assert!(!M::bit(191).contains_all(m));
    }

    #[test]
    fn words_order_is_numeric_msw_first() {
        type M = Words<2>;
        // bit 64 (high word) outranks any low-word value.
        assert!(M::bit(64) > M::bit(63));
        assert!(M::bit(1) > M::bit(0));
        // On the shared low word, Words<2> agrees with u64 for every pair.
        let samples = [0u64, 1, 2, 3, 0x80, u64::MAX, 0xdead_beef];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(Words::<2>([a, 0]).cmp(&Words([b, 0])), a.cmp(&b));
            }
        }
    }

    #[test]
    fn mask_iter_is_ascending_for_both_widths() {
        let ids = |m: u64| mask_iter(m).map(|v| v.index()).collect::<Vec<_>>();
        assert_eq!(ids(0b1010_0001), vec![0, 5, 7]);
        let wide = Words::<2>::bit(3) | Words::bit(64) | Words::bit(100);
        let got: Vec<usize> = mask_iter(wide).map(|v| v.index()).collect();
        assert_eq!(got, vec![3, 64, 100]);
        assert_eq!(mask_iter(Words::<2>::empty()).count(), 0);
    }

    #[test]
    fn mask_weight_sums_member_weights() {
        let weights = [10, 20, 30, 40];
        assert_eq!(mask_weight(0b1010u64, &weights), 60);
        let wide = Words::<2>::bit(1) | Words::bit(3);
        assert_eq!(mask_weight(wide, &weights), 60);
    }
}
