//! Schedules: sequences of game moves, with weighted cost accounting.

use crate::graph::{Cdag, Weight};
use crate::moves::Move;
use crate::stream::{MoveStream, MoveTag};
use std::fmt;

/// A WRBPG schedule `S_G = (σ_1, …, σ_t)`.
///
/// A `Schedule` is an ordered list of [`Move`]s, stored internally as a
/// struct-of-arrays [`MoveStream`] (parallel tag/node columns); whether it
/// is *valid* for a given graph and budget is decided by
/// [`crate::validate::validate_schedule`].  Costs computed here follow
/// Definition 2.2: the weighted sum of all M1 (input) and M2 (output) moves.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    stream: MoveStream,
}

impl Schedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schedule from a move list.
    pub fn from_moves(moves: Vec<Move>) -> Self {
        Schedule {
            stream: moves.into_iter().collect(),
        }
    }

    /// Build a schedule from an existing move stream.
    pub fn from_stream(stream: MoveStream) -> Self {
        Schedule { stream }
    }

    /// The underlying struct-of-arrays move storage.
    #[inline]
    pub fn stream(&self) -> &MoveStream {
        &self.stream
    }

    /// The move sequence, materialized as a `Vec`.
    ///
    /// Prefer [`Schedule::iter`] (or [`Schedule::stream`]) on hot paths;
    /// this allocates.
    pub fn moves(&self) -> Vec<Move> {
        self.stream.iter().collect()
    }

    /// Number of moves.
    #[inline]
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// `true` when the schedule contains no moves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Append one move.
    #[inline]
    pub fn push(&mut self, mv: Move) {
        self.stream.push(mv);
    }

    /// Append all moves of `other` (schedule concatenation, written `++` in
    /// the paper's Algorithm 1).
    pub fn extend(&mut self, other: &Schedule) {
        self.stream.extend_from(&other.stream);
    }

    /// Iterate over the moves.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Move> + '_ {
        self.stream.iter()
    }

    /// Weighted schedule cost (Definition 2.2):
    /// `Σ_{M1(v)} w_v + Σ_{M2(v)} w_v`.
    pub fn cost(&self, graph: &Cdag) -> Weight {
        self.stream
            .tags()
            .iter()
            .zip(self.stream.nodes())
            .filter(|(t, _)| t.is_io())
            .map(|(_, &v)| graph.weight(v))
            .sum()
    }

    /// Asymmetric I/O cost: `load_scale·Σ w(M1) + store_scale·Σ w(M2)`,
    /// or `None` when it overflows a [`Weight`].
    ///
    /// With `(1, 1)` this is [`Schedule::cost`]; other scales model
    /// asymmetric transfer energy (e.g. non-volatile memory writes costing
    /// an order of magnitude more than reads).
    pub fn scaled_io_cost(
        &self,
        graph: &Cdag,
        load_scale: Weight,
        store_scale: Weight,
    ) -> Option<Weight> {
        self.stream.tags().iter().zip(self.stream.nodes()).try_fold(
            0,
            |total: Weight, (&tag, &v)| {
                let scale = match tag {
                    MoveTag::Load => load_scale,
                    MoveTag::Store => store_scale,
                    _ => return Some(total),
                };
                total.checked_add(scale.checked_mul(graph.weight(v))?)
            },
        )
    }

    /// Rewrite every move's target node — e.g. to relocate a schedule into
    /// a disjoint-union graph (`map_nodes(|v| NodeId(v.0 + offset))`).
    pub fn map_nodes(&self, f: impl Fn(crate::graph::NodeId) -> crate::graph::NodeId) -> Schedule {
        self.stream
            .tags()
            .iter()
            .zip(self.stream.nodes())
            .map(|(&t, &v)| t.with_node(f(v)))
            .collect()
    }

    /// Count of moves of each kind `(M1, M2, M3, M4)`.
    pub fn move_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for t in self.stream.tags() {
            match t {
                MoveTag::Load => c.0 += 1,
                MoveTag::Store => c.1 += 1,
                MoveTag::Compute => c.2 += 1,
                MoveTag::Delete => c.3 += 1,
            }
        }
        c
    }
}

impl fmt::Debug for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m1, m2, m3, m4) = self.move_counts();
        write!(
            f,
            "Schedule({} moves: {m1} loads, {m2} stores, {m3} computes, {m4} deletes)",
            self.len()
        )
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl FromIterator<Move> for Schedule {
    fn from_iter<T: IntoIterator<Item = Move>>(iter: T) -> Self {
        Schedule {
            stream: iter.into_iter().collect(),
        }
    }
}

impl Extend<Move> for Schedule {
    fn extend<T: IntoIterator<Item = Move>>(&mut self, iter: T) {
        self.stream.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CdagBuilder, NodeId};

    fn pair() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(32, "y");
        b.edge(x, y);
        b.build().unwrap()
    }

    #[test]
    fn cost_counts_only_io_moves() {
        let g = pair();
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Compute(NodeId(1)),
            Move::Store(NodeId(1)),
            Move::Delete(NodeId(0)),
            Move::Delete(NodeId(1)),
        ]);
        assert_eq!(s.cost(&g), 16 + 32);
        assert_eq!(s.scaled_io_cost(&g, 1, 0), Some(16));
        assert_eq!(s.scaled_io_cost(&g, 0, 1), Some(32));
        assert_eq!(s.move_counts(), (1, 1, 1, 2));
    }

    #[test]
    fn repeated_io_is_charged_each_time() {
        let g = pair();
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Delete(NodeId(0)),
            Move::Load(NodeId(0)),
        ]);
        assert_eq!(s.cost(&g), 32);
    }

    #[test]
    fn concat_matches_paper_plus_plus() {
        let g = pair();
        let mut a = Schedule::from_moves(vec![Move::Load(NodeId(0))]);
        let b = Schedule::from_moves(vec![Move::Compute(NodeId(1)), Move::Store(NodeId(1))]);
        a.extend(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.cost(&g), 48);
    }

    #[test]
    fn display_formats_moves() {
        let s = Schedule::from_moves(vec![Move::Load(NodeId(0)), Move::Store(NodeId(1))]);
        assert_eq!(s.to_string(), "M1(n0), M2(n1)");
    }

    #[test]
    fn stream_round_trips() {
        let moves = vec![
            Move::Load(NodeId(0)),
            Move::Compute(NodeId(1)),
            Move::Store(NodeId(1)),
        ];
        let s = Schedule::from_moves(moves.clone());
        assert_eq!(s.moves(), moves);
        assert_eq!(Schedule::from_stream(s.stream().clone()), s);
    }
}
