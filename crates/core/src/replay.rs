//! The replay kernel: the one place the game's rules are checked.
//!
//! Böhnlein–Papp–Yzelman's multiprocessor game (one red set per processor
//! over a shared blue level, plus communication) has the classic game of
//! Definitions 2.1–2.2 as its `p = 1` case.  [`replay`] plays either
//! game's moves, checks every rule, and reports each accepted move to an
//! [`Observer`].  Whatever else a replay computes is an observer: cost and
//! peak ([`crate::ScheduleStats`]), both multiprocessor objectives and
//! their clocks ([`crate::MultiTally`]), per-move occupancy
//! ([`crate::occupancy_trace`]), and the executable machines' values.
//!
//! The kernel is generic over its [`Board`]: [`Uni`] plays classic
//! [`Move`]s on a one-element red array, every move on processor 0, so the
//! monomorphized uniprocessor path folds the processor index away and
//! holds nothing but its two bitsets; a [`MachineSpec`] plays
//! [`MultiMove`]s on `p` red sets.

use crate::error::ValidityError;
use crate::graph::{Cdag, Weight};
use crate::moves::Move;
use crate::multi::MultiMove;
use crate::redset::RedSet;
use crate::spec::MachineSpec;

/// A machine the kernel replays on.
pub trait Board {
    /// The move type played on this board.
    type Move;
    /// One red set per processor.
    type Reds: AsMut<[RedSet]>;
    /// The move on its processor.
    fn lift(mv: Self::Move) -> MultiMove;
    /// Processor `q`'s fast-memory budget.
    fn budget(&self, q: usize) -> Weight;
    /// Empty red sets over `n` nodes, one per processor.
    fn empty_reds(&self, n: usize) -> Self::Reds;
}

/// The classic single-processor game under one budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uni(pub Weight);

impl Board for Uni {
    type Move = Move;
    type Reds = [RedSet; 1];

    #[inline]
    fn lift(mv: Move) -> MultiMove {
        MultiMove::from_single(mv, 0)
    }

    #[inline]
    fn budget(&self, _: usize) -> Weight {
        self.0
    }

    fn empty_reds(&self, n: usize) -> [RedSet; 1] {
        [RedSet::new(n)]
    }
}

impl Board for MachineSpec {
    type Move = MultiMove;
    type Reds = Vec<RedSet>;

    #[inline]
    fn lift(mv: MultiMove) -> MultiMove {
        mv
    }

    #[inline]
    fn budget(&self, q: usize) -> Weight {
        self.proc_budget(q)
    }

    fn empty_reds(&self, n: usize) -> Vec<RedSet> {
        vec![RedSet::new(n); self.num_procs()]
    }
}

/// One accepted move, as the kernel reports it to an [`Observer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Played {
    /// The move, on its processor.
    pub mv: MultiMove,
    /// The weight `w(v)` of the move's node.
    pub weight: Weight,
    /// The processor whose red set the move acted on (a Comm's receiver).
    pub proc: usize,
    /// That processor's red weight after the move.
    pub red: Weight,
    /// The move is a store that gave its node its first blue pebble.
    pub first_blue: bool,
}

/// Receives every move the kernel accepts, in schedule order.  Closures
/// `FnMut(Played) -> Option<()>` are observers, and so is a pair of them.
pub trait Observer {
    /// Account for one accepted move; `None` means a sum the observer
    /// keeps overflowed, which fails the replay with
    /// [`ValidityError::WeightOverflow`].
    fn observe(&mut self, played: Played) -> Option<()>;
}

impl<F: FnMut(Played) -> Option<()>> Observer for F {
    #[inline]
    fn observe(&mut self, played: Played) -> Option<()> {
        self(played)
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn observe(&mut self, played: Played) -> Option<()> {
        self.0.observe(played)?;
        self.1.observe(played)
    }
}

/// Replay `moves` on `graph` and `board` from the starting condition
/// (sources blue, nothing red), passing each accepted move to `obs`.
/// Returns the first broken rule — a move's precondition (M1–M4, Comm,
/// a known processor), the acting processor's budget after the move (no
/// other red set changed), or the sinks-blue stopping condition — as its
/// [`ValidityError`].
pub fn replay<B: Board, O: Observer>(
    graph: &Cdag,
    board: &B,
    moves: impl IntoIterator<Item = B::Move>,
    obs: &mut O,
) -> Result<(), ValidityError> {
    use ValidityError::*;
    let mut reds = board.empty_reds(graph.len());
    let reds = reds.as_mut();
    let procs = reds.len();
    let mut blue = RedSet::new(graph.len());
    for &v in graph.sources() {
        blue.insert(v, graph.weight(v));
    }

    for (step, mv) in moves.into_iter().enumerate() {
        let mv = B::lift(mv);
        let (from, q, v) = match mv {
            MultiMove::Comm { from, to, node } => (from, to, node),
            MultiMove::Load { proc, node }
            | MultiMove::Store { proc, node }
            | MultiMove::Compute { proc, node }
            | MultiMove::Delete { proc, node } => (proc, proc, node),
        };
        if from >= procs || q >= procs {
            return Err(UnknownProc { step, mv, procs });
        }
        let w = graph.weight(v);
        // Budget-check the acting processor and hand the move to `obs`; each
        // arm calls this, so the observer's branch on the move kind folds.
        let mut accept = |red: Weight, first_blue: bool| {
            let budget = board.budget(q);
            if red > budget {
                return Err(BudgetExceeded {
                    step,
                    mv,
                    proc: q,
                    used: red,
                    budget,
                });
            }
            let played = Played {
                mv,
                weight: w,
                proc: q,
                red,
                first_blue,
            };
            obs.observe(played).ok_or(WeightOverflow { step, mv })
        };
        match mv {
            MultiMove::Load { .. } => {
                if !blue.contains(v) {
                    return Err(LoadWithoutBlue { step, mv });
                }
                reds[q].insert(v, w);
                accept(reds[q].weight(), false)?;
            }
            MultiMove::Store { .. } => {
                if !reds[q].contains(v) {
                    return Err(StoreWithoutRed { step, mv });
                }
                let first_blue = blue.insert(v, w);
                accept(reds[q].weight(), first_blue)?;
            }
            MultiMove::Compute { .. } => {
                if graph.is_source(v) {
                    return Err(ComputeSource { step, mv });
                }
                if let Some(&missing) = graph.preds(v).iter().find(|&&u| !reds[q].contains(u)) {
                    return Err(ComputeWithoutOperands { step, mv, missing });
                }
                reds[q].insert(v, w);
                accept(reds[q].weight(), false)?;
            }
            MultiMove::Delete { .. } => {
                if !reds[q].remove(v, w) {
                    return Err(DeleteWithoutRed { step, mv });
                }
                accept(reds[q].weight(), false)?;
            }
            MultiMove::Comm { .. } => {
                if from == q {
                    return Err(CommToSelf { step, mv });
                }
                if !reds[from].contains(v) {
                    return Err(CommWithoutRed { step, mv });
                }
                reds[q].insert(v, w);
                accept(reds[q].weight(), false)?;
            }
        }
    }

    match graph.sinks().iter().find(|&&v| !blue.contains(v)) {
        Some(&sink) => Err(StoppingConditionUnmet { sink }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CdagBuilder, NodeId};

    /// x(16) -> s(32)
    fn pair() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let s = b.node(32, "s");
        b.edge(x, s);
        b.build().unwrap()
    }

    #[test]
    fn observers_see_each_accepted_move_with_its_red_weight() {
        let g = pair();
        let (x, s) = (NodeId(0), NodeId(1));
        let moves = [
            Move::Load(x),
            Move::Compute(s),
            Move::Store(s),
            Move::Store(s),
        ];
        let mut seen = Vec::new();
        replay(&g, &Uni(48), moves, &mut |p: Played| {
            seen.push((p.red, p.first_blue));
            Some(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![(16, false), (48, false), (48, true), (48, false)]
        );
    }

    #[test]
    fn paired_observers_both_run_and_either_can_overflow() {
        let g = pair();
        let moves = [Move::Load(NodeId(0)), Move::Compute(NodeId(1))];
        let (mut a, mut b) = (0, 0);
        let mut both = (
            |_: Played| {
                a += 1;
                Some(())
            },
            |p: Played| {
                b += 1;
                (p.weight < 32).then_some(())
            },
        );
        let err = replay(&g, &Uni(48), moves, &mut both).unwrap_err();
        assert_eq!(
            err,
            ValidityError::WeightOverflow {
                step: 1,
                mv: MultiMove::Compute {
                    proc: 0,
                    node: NodeId(1)
                }
            }
        );
        assert_eq!((a, b), (2, 2));
    }
}
