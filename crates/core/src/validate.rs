//! Schedule validation: the replay kernel with a cost/peak observer.
//!
//! Every scheduler in the workspace is checked by this replay — the cost
//! the scheduler claims must equal the cost measured here, and every
//! intermediate snapshot must respect Definition 2.1.

use crate::error::ValidityError;
use crate::graph::{Cdag, Weight};
use crate::moves::Move;
use crate::multi::MultiMove;
use crate::replay::{replay, Observer, Played, Uni};
use crate::schedule::Schedule;

/// Statistics reported by a successful validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Weighted schedule cost (Definition 2.2) as replayed.
    pub cost: Weight,
    /// Weighted input (M1) cost.
    pub input_cost: Weight,
    /// Weighted output (M2) cost.
    pub output_cost: Weight,
    /// Maximum total red weight observed across all snapshots — the smallest
    /// budget under which this exact schedule is valid.
    pub peak_red_weight: Weight,
    /// Number of M3 (compute) moves.
    pub computes: usize,
    /// Number of moves in the schedule.
    pub moves: usize,
}

/// The statistics accumulate as an observer of the replay kernel; the
/// cost sum is checked, and each of its two parts is at most the cost.
impl Observer for ScheduleStats {
    #[inline]
    fn observe(&mut self, p: Played) -> Option<()> {
        self.moves += 1;
        self.peak_red_weight = self.peak_red_weight.max(p.red);
        match p.mv {
            MultiMove::Load { .. } => {
                self.cost = self.cost.checked_add(p.weight)?;
                self.input_cost += p.weight;
            }
            MultiMove::Store { .. } => {
                self.cost = self.cost.checked_add(p.weight)?;
                self.output_cost += p.weight;
            }
            MultiMove::Compute { .. } => self.computes += 1,
            MultiMove::Delete { .. } | MultiMove::Comm { .. } => {}
        }
        Some(())
    }
}

/// Replay `schedule` on `graph` under budget `budget`, checking every rule
/// of the game (see [`crate::replay::replay`]): M1–M4 preconditions, the
/// weighted budget after every move (Definition 2.1), and every sink
/// blue at the end.  On success, returns exact [`ScheduleStats`].
pub fn validate_schedule(
    graph: &Cdag,
    budget: Weight,
    schedule: &Schedule,
) -> Result<ScheduleStats, ValidityError> {
    validate_moves(graph, budget, schedule.iter())
}

/// Streaming form of [`validate_schedule`]: replays any move sequence
/// without materializing it.
///
/// The schedule never needs to exist as a `Vec` — moves can come straight
/// off a generator, a parser, or a [`crate::MoveStream`] iterator.  State
/// is two bitsets and a handful of counters; nothing is allocated per move.
pub fn validate_moves(
    graph: &Cdag,
    budget: Weight,
    moves: impl IntoIterator<Item = Move>,
) -> Result<ScheduleStats, ValidityError> {
    let mut stats = ScheduleStats::default();
    replay(graph, &Uni(budget), moves, &mut stats)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CdagBuilder, NodeId};

    /// x, y -> s  (16-bit inputs, 32-bit sum)
    fn add_graph() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(32, "s");
        b.edge(x, s);
        b.edge(y, s);
        b.build().unwrap()
    }

    fn good_schedule() -> Schedule {
        Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
            Move::Delete(NodeId(0)),
            Move::Delete(NodeId(1)),
            Move::Delete(NodeId(2)),
        ])
    }

    #[test]
    fn accepts_valid_schedule_and_reports_stats() {
        let g = add_graph();
        let stats = validate_schedule(&g, 64, &good_schedule()).unwrap();
        assert_eq!(stats.cost, 16 + 16 + 32);
        assert_eq!(stats.input_cost, 32);
        assert_eq!(stats.output_cost, 32);
        assert_eq!(stats.peak_red_weight, 64);
        assert_eq!(stats.computes, 1);
        assert_eq!(stats.moves, 7);
    }

    #[test]
    fn rejects_budget_violation() {
        let g = add_graph();
        let err = validate_schedule(&g, 63, &good_schedule()).unwrap_err();
        assert!(matches!(
            err,
            ValidityError::BudgetExceeded {
                used: 64,
                budget: 63,
                ..
            }
        ));
    }

    #[test]
    fn rejects_load_without_blue() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![Move::Load(NodeId(2))]);
        assert!(matches!(
            validate_schedule(&g, 100, &s).unwrap_err(),
            ValidityError::LoadWithoutBlue { step: 0, .. }
        ));
    }

    #[test]
    fn rejects_store_without_red() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![Move::Store(NodeId(0))]);
        assert!(matches!(
            validate_schedule(&g, 100, &s).unwrap_err(),
            ValidityError::StoreWithoutRed { .. }
        ));
    }

    #[test]
    fn rejects_compute_on_source() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![Move::Compute(NodeId(0))]);
        assert!(matches!(
            validate_schedule(&g, 100, &s).unwrap_err(),
            ValidityError::ComputeSource { .. }
        ));
    }

    #[test]
    fn rejects_compute_with_missing_operand() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![Move::Load(NodeId(0)), Move::Compute(NodeId(2))]);
        let err = validate_schedule(&g, 100, &s).unwrap_err();
        assert!(matches!(
            err,
            ValidityError::ComputeWithoutOperands {
                missing: NodeId(1),
                ..
            }
        ));
    }

    #[test]
    fn rejects_delete_without_red() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![Move::Delete(NodeId(0))]);
        assert!(matches!(
            validate_schedule(&g, 100, &s).unwrap_err(),
            ValidityError::DeleteWithoutRed { .. }
        ));
    }

    #[test]
    fn rejects_unmet_stopping_condition() {
        let g = add_graph();
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
        ]);
        assert!(matches!(
            validate_schedule(&g, 100, &s).unwrap_err(),
            ValidityError::StoppingConditionUnmet { sink: NodeId(2) }
        ));
    }

    #[test]
    fn empty_schedule_fails_unless_sinks_prepebbled() {
        let g = add_graph();
        assert!(validate_schedule(&g, 100, &Schedule::new()).is_err());
    }

    #[test]
    fn recompute_is_legal() {
        // Computing a node twice (rematerialization) is allowed by the rules.
        let g = add_graph();
        let s = Schedule::from_moves(vec![
            Move::Load(NodeId(0)),
            Move::Load(NodeId(1)),
            Move::Compute(NodeId(2)),
            Move::Delete(NodeId(2)),
            Move::Compute(NodeId(2)),
            Move::Store(NodeId(2)),
        ]);
        let stats = validate_schedule(&g, 64, &s).unwrap();
        assert_eq!(stats.computes, 2);
    }

    #[test]
    fn cost_overflow_is_an_error_not_a_wrap() {
        // A 2^62-bit source loaded five times costs 5 * 2^62 > u64::MAX:
        // the fourth load already reaches 2^64.
        let mut b = CdagBuilder::new();
        let x = b.node(1 << 62, "x");
        let s = b.node(1, "s");
        b.edge(x, s);
        let g = b.build().unwrap();
        let moves = vec![Move::Load(NodeId(0)); 5];
        assert_eq!(
            validate_moves(&g, Weight::MAX, moves).unwrap_err(),
            ValidityError::WeightOverflow {
                step: 3,
                mv: MultiMove::Load {
                    proc: 0,
                    node: NodeId(0)
                }
            }
        );
    }
}
