//! Error types for graph construction and schedule validation.

use crate::graph::{NodeId, Weight};
use crate::multi::MultiMove;
use std::fmt;

/// Errors raised when building a [`crate::Cdag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph has no nodes.
    Empty,
    /// A node has weight zero (weights must be strictly positive).
    ZeroWeight(NodeId),
    /// An edge references a node out of range, or is a self-loop.
    BadEdge(NodeId, NodeId),
    /// The same directed edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// The edge set contains a directed cycle.
    Cycle,
    /// A node is isolated, making it both a source and a sink, which the
    /// model forbids (`A(G) ∩ Z(G) = ∅`).
    SourceIsSink(NodeId),
    /// The node weights sum past `u64::MAX`, so red-set and cost sums
    /// could wrap.
    WeightOverflow,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::ZeroWeight(v) => write!(f, "node {v} has zero weight"),
            GraphError::BadEdge(a, b) => write!(f, "invalid edge {a} -> {b}"),
            GraphError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            GraphError::Cycle => write!(f, "graph contains a cycle"),
            GraphError::SourceIsSink(v) => {
                write!(f, "node {v} is isolated (both source and sink)")
            }
            GraphError::WeightOverflow => write!(f, "node weights sum past 2^64 - 1"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The rule a schedule broke, with the offending step, as found by the
/// replay kernel ([`crate::replay::replay`]).  Every replayer — the
/// validators, the executable machines and the occupancy trace — reports
/// this one type, so a schedule gets the same verdict whichever replays
/// it.  Uniprocessor moves appear on processor 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityError {
    /// A move names a processor the machine does not have.
    UnknownProc {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
        /// Number of processors in the machine.
        procs: usize,
    },
    /// M1 applied to a node without a blue pebble.
    LoadWithoutBlue {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// M2 applied to a node not red on the acting processor.
    StoreWithoutRed {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// M3 applied to a source node (inputs are never computed).
    ComputeSource {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// M3 applied while some predecessor is not red on the acting
    /// processor.
    ComputeWithoutOperands {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
        /// The first predecessor (in predecessor order) that is not red.
        missing: NodeId,
    },
    /// M4 applied to a node not red on the acting processor.
    DeleteWithoutRed {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// Comm whose sender does not hold the node red.
    CommWithoutRed {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// Comm from a processor to itself.
    CommToSelf {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
    },
    /// A processor's red weight exceeded its budget `B` after a move.
    BudgetExceeded {
        /// Index of the offending move in the schedule.
        step: usize,
        /// The offending move.
        mv: MultiMove,
        /// The overloaded processor.
        proc: usize,
        /// Its red weight after the move.
        used: Weight,
        /// Its budget.
        budget: Weight,
    },
    /// The schedule finished but some sink lacks a blue pebble.
    StoppingConditionUnmet {
        /// A sink node without a blue pebble at the end of the schedule.
        sink: NodeId,
    },
    /// A cost, communication or clock sum exceeded `u64::MAX` bits.
    WeightOverflow {
        /// Index of the move whose weight overflowed the sum.
        step: usize,
        /// That move.
        mv: MultiMove,
    },
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidityError::*;
        match self {
            UnknownProc { step, mv, procs } => {
                write!(f, "step {step}: {mv} names a processor >= p={procs}")
            }
            LoadWithoutBlue { step, mv } => {
                write!(f, "step {step}: {mv} requires a blue pebble")
            }
            StoreWithoutRed { step, mv } | DeleteWithoutRed { step, mv } => {
                write!(f, "step {step}: {mv} requires a red pebble")
            }
            ComputeSource { step, mv } => {
                write!(f, "step {step}: {mv} targets a source node")
            }
            ComputeWithoutOperands { step, mv, missing } => {
                write!(f, "step {step}: {mv} but predecessor {missing} is not red")
            }
            CommWithoutRed { step, mv } => {
                write!(f, "step {step}: {mv} but the sender holds no red pebble")
            }
            CommToSelf { step, mv } => {
                write!(f, "step {step}: {mv} communicates to its own processor")
            }
            BudgetExceeded {
                step,
                mv,
                proc,
                used,
                budget,
            } => write!(
                f,
                "step {step}: {mv} exceeds processor {proc}'s weighted budget ({used} > {budget})"
            ),
            StoppingConditionUnmet { sink } => {
                write!(f, "sink {sink} has no blue pebble at end of schedule")
            }
            WeightOverflow { step, mv } => {
                write!(f, "step {step}: {mv} overflows a 64-bit weight sum")
            }
        }
    }
}

impl std::error::Error for ValidityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ValidityError::BudgetExceeded {
            step: 3,
            mv: MultiMove::Load {
                proc: 0,
                node: NodeId(1),
            },
            proc: 0,
            used: 48,
            budget: 32,
        };
        let s = e.to_string();
        assert!(s.contains("step 3"));
        assert!(s.contains("48 > 32"));
        assert!(GraphError::Cycle.to_string().contains("cycle"));
    }
}
