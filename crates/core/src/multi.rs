//! The multiprocessor WRBPG: p red pebble sets over one shared blue level.
//!
//! Following Böhnlein–Papp–Yzelman ("Red-Blue Pebbling with Multiple
//! Processors"), the game board gains `p` processors.  Each processor `q`
//! owns a bounded red pebble set (its fast memory, budget
//! `MachineSpec::proc_budget(q)`); all processors share the unbounded blue
//! level (slow memory).  The move forms are the four single-processor
//! moves, now tagged with the acting processor, plus one new form:
//!
//! * [`MultiMove::Comm`] — **communication**: copy a value red-to-red from
//!   one processor to another, priced like a store+load of the same value
//!   (`comm_price · w(v)` traffic, default price 2).
//!
//! Two objectives coexist (the compute/communication/memory trade-off):
//!
//! * **total I/O** — the weighted M1+M2 sum of Definition 2.2, summed over
//!   all processors, plus the priced communication traffic, and
//! * **makespan** — the maximum per-processor finish time under a simple
//!   contention-free timing model: a compute of `v` occupies its processor
//!   for `w(v)` time units, a load waits until the blue copy exists and
//!   then takes `w(v)`, a store takes `w(v)` and publishes the blue copy,
//!   a communication synchronizes both endpoints for `comm_price · w(v)`,
//!   and deletes are free.
//!
//! [`validate_multi_schedule`] replays a [`MultiSchedule`] through the
//! same rule kernel as the single-processor `validate_schedule`
//! ([`crate::replay()`]) and reports [`MultiStats`] (both objectives plus
//! per-processor occupancy) from a [`MultiTally`].  A `p = 1` multi
//! schedule with no communication moves projects losslessly onto a classic
//! [`Schedule`] via [`MultiSchedule::project_single`], which is how the
//! conformance oracle checks p=1 equivalence byte-for-byte.

use crate::error::ValidityError;
use crate::graph::{Cdag, NodeId, Weight};
use crate::moves::Move;
use crate::replay::{replay, Observer, Played};
use crate::schedule::Schedule;
use crate::spec::MachineSpec;
use std::fmt;

/// One move of the multiprocessor game.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiMove {
    /// *M1* on processor `proc` — copy `node` from slow memory into
    /// `proc`'s fast memory.
    Load {
        /// Acting processor.
        proc: usize,
        /// Target node.
        node: NodeId,
    },
    /// *M2* on processor `proc` — copy `node` from `proc`'s fast memory to
    /// slow memory (visible to every processor afterwards).
    Store {
        /// Acting processor.
        proc: usize,
        /// Target node.
        node: NodeId,
    },
    /// *M3* on processor `proc` — compute `node`; every predecessor must be
    /// red **on the same processor**.
    Compute {
        /// Acting processor.
        proc: usize,
        /// Target node.
        node: NodeId,
    },
    /// *M4* on processor `proc` — evict `node` from `proc`'s fast memory.
    Delete {
        /// Acting processor.
        proc: usize,
        /// Target node.
        node: NodeId,
    },
    /// *M5* — communicate `node` red-to-red from processor `from` to
    /// processor `to`, priced like a store+load (`comm_price · w`).
    Comm {
        /// Sending processor (must hold `node` red).
        from: usize,
        /// Receiving processor (gains a red pebble on `node`).
        to: usize,
        /// Transferred node.
        node: NodeId,
    },
}

impl MultiMove {
    /// The node this move targets.
    #[inline]
    pub fn node(self) -> NodeId {
        match self {
            MultiMove::Load { node, .. }
            | MultiMove::Store { node, .. }
            | MultiMove::Compute { node, .. }
            | MultiMove::Delete { node, .. }
            | MultiMove::Comm { node, .. } => node,
        }
    }

    /// The same move, on the same processors, targeting `node`.
    fn with_node(self, node: NodeId) -> MultiMove {
        match self {
            MultiMove::Load { proc, .. } => MultiMove::Load { proc, node },
            MultiMove::Store { proc, .. } => MultiMove::Store { proc, node },
            MultiMove::Compute { proc, .. } => MultiMove::Compute { proc, node },
            MultiMove::Delete { proc, .. } => MultiMove::Delete { proc, node },
            MultiMove::Comm { from, to, .. } => MultiMove::Comm { from, to, node },
        }
    }

    /// The single-processor equivalent when this move runs on processor 0
    /// of a uniprocessor machine; `None` for communication or any other
    /// processor.
    pub fn as_single(self) -> Option<Move> {
        match self {
            MultiMove::Load { proc: 0, node } => Some(Move::Load(node)),
            MultiMove::Store { proc: 0, node } => Some(Move::Store(node)),
            MultiMove::Compute { proc: 0, node } => Some(Move::Compute(node)),
            MultiMove::Delete { proc: 0, node } => Some(Move::Delete(node)),
            _ => None,
        }
    }

    /// Lift a single-processor move onto processor `proc`.
    pub fn from_single(mv: Move, proc: usize) -> MultiMove {
        match mv {
            Move::Load(node) => MultiMove::Load { proc, node },
            Move::Store(node) => MultiMove::Store { proc, node },
            Move::Compute(node) => MultiMove::Compute { proc, node },
            Move::Delete(node) => MultiMove::Delete { proc, node },
        }
    }
}

impl fmt::Debug for MultiMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MultiMove::Load { proc, node } => write!(f, "M1@p{proc}({node})"),
            MultiMove::Store { proc, node } => write!(f, "M2@p{proc}({node})"),
            MultiMove::Compute { proc, node } => write!(f, "M3@p{proc}({node})"),
            MultiMove::Delete { proc, node } => write!(f, "M4@p{proc}({node})"),
            MultiMove::Comm { from, to, node } => write!(f, "M5(p{from}->p{to}, {node})"),
        }
    }
}

impl fmt::Display for MultiMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An ordered multiprocessor move sequence.
///
/// Moves are globally ordered (the validator replays them sequentially for
/// rule checking); the timing model recovers per-processor concurrency
/// from the per-processor clocks, so the global order only has to be
/// *consistent* with each processor's local order and with cross-processor
/// data movement.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MultiSchedule {
    moves: Vec<MultiMove>,
}

impl MultiSchedule {
    /// The empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a move list.
    pub fn from_moves(moves: Vec<MultiMove>) -> Self {
        MultiSchedule { moves }
    }

    /// Lift a single-processor schedule onto processor 0 of a
    /// multiprocessor machine.
    pub fn from_single(schedule: &Schedule) -> Self {
        schedule
            .iter()
            .map(|m| MultiMove::from_single(m, 0))
            .collect()
    }

    /// Project back onto the single-processor game: succeeds exactly when
    /// every move runs on processor 0 and there is no communication.
    /// `from_single` followed by `project_single` is the identity, which
    /// is the p=1 byte-identity contract the conformance oracle checks.
    pub fn project_single(&self) -> Option<Schedule> {
        self.moves.iter().map(|m| m.as_single()).collect()
    }

    /// The move sequence.
    #[inline]
    pub fn moves(&self) -> &[MultiMove] {
        &self.moves
    }

    /// Append one move.
    #[inline]
    pub fn push(&mut self, mv: MultiMove) {
        self.moves.push(mv);
    }

    /// Number of moves.
    #[inline]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// `true` when there are no moves.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Iterate over the moves.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = MultiMove> + '_ {
        self.moves.iter().copied()
    }

    /// Rewrite every move's target node — the multiprocessor analogue of
    /// [`Schedule::map_nodes`], used to transport cached answers between
    /// isomorphic labelings.  Processor indices are untouched.
    pub fn map_nodes(&self, f: impl Fn(NodeId) -> NodeId) -> MultiSchedule {
        self.iter().map(|m| m.with_node(f(m.node()))).collect()
    }
}

impl fmt::Debug for MultiSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let comm = self
            .moves
            .iter()
            .filter(|m| matches!(m, MultiMove::Comm { .. }))
            .count();
        write!(f, "MultiSchedule({} moves, {comm} comm)", self.len())
    }
}

impl fmt::Display for MultiSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, m) in self.moves.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl FromIterator<MultiMove> for MultiSchedule {
    fn from_iter<T: IntoIterator<Item = MultiMove>>(iter: T) -> Self {
        MultiSchedule {
            moves: iter.into_iter().collect(),
        }
    }
}

/// Exact statistics of a replay-validated multiprocessor schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Weighted M1+M2 cost summed over all processors (Definition 2.2),
    /// *excluding* communication.
    pub io_cost: Weight,
    /// Weighted M1 (load) component of `io_cost`.
    pub input_cost: Weight,
    /// Weighted M2 (store) component of `io_cost`.
    pub output_cost: Weight,
    /// Priced communication traffic: `Σ_{M5(v)} comm_price · w_v`.
    pub comm_cost: Weight,
    /// Number of communication moves.
    pub comm_moves: u64,
    /// Makespan: the maximum per-processor clock after the last move.
    pub makespan: Weight,
    /// Peak red weight per processor (index = processor).
    pub peak_red: Vec<Weight>,
    /// Compute moves per processor (index = processor).
    pub computes_per_proc: Vec<u64>,
    /// Total number of moves replayed.
    pub moves: u64,
}

impl MultiStats {
    /// The combined I/O objective: slow-memory traffic plus priced
    /// communication.  For p=1 this equals the single-processor cost.
    pub fn total_cost(&self) -> Weight {
        self.io_cost + self.comm_cost
    }

    /// Total compute moves across processors.
    pub fn computes(&self) -> u64 {
        self.computes_per_proc.iter().sum()
    }

    /// Number of processors that computed at least one node.
    pub fn procs_used(&self) -> usize {
        self.computes_per_proc.iter().filter(|&&c| c > 0).count()
    }
}

/// Accumulates [`MultiStats`] as an observer of the replay kernel: both
/// objectives, per-processor occupancy, and the makespan clocks of the
/// timing model in the module docs.  Every cost, communication and clock
/// sum is checked, including `io_cost + comm_cost`.
#[derive(Debug, Clone)]
pub struct MultiTally {
    stats: MultiStats,
    comm_price: Weight,
    /// Per-processor clocks.
    clock: Vec<Weight>,
    /// The time each node's blue copy becomes readable.
    avail_blue: Vec<Weight>,
}

impl MultiTally {
    /// A tally for replaying on `graph` under `spec`.
    pub fn new(graph: &Cdag, spec: &MachineSpec) -> Self {
        let p = spec.num_procs();
        MultiTally {
            stats: MultiStats {
                peak_red: vec![0; p],
                computes_per_proc: vec![0; p],
                ..MultiStats::default()
            },
            comm_price: spec.comm_price(),
            clock: vec![0; p],
            avail_blue: vec![0; graph.len()],
        }
    }

    /// The statistics, with the makespan read off the clocks.
    pub fn finish(self) -> MultiStats {
        MultiStats {
            makespan: self.clock.into_iter().max().unwrap_or(0),
            ..self.stats
        }
    }
}

impl Observer for MultiTally {
    fn observe(&mut self, p: Played) -> Option<()> {
        let (s, clock, w) = (&mut self.stats, &mut self.clock, p.weight);
        s.moves += 1;
        s.peak_red[p.proc] = s.peak_red[p.proc].max(p.red);
        match p.mv {
            MultiMove::Load { proc, node } => {
                s.io_cost = s.io_cost.checked_add(w)?;
                s.input_cost += w;
                clock[proc] = clock[proc]
                    .max(self.avail_blue[node.index()])
                    .checked_add(w)?;
            }
            MultiMove::Store { proc, node } => {
                s.io_cost = s.io_cost.checked_add(w)?;
                s.output_cost += w;
                clock[proc] = clock[proc].checked_add(w)?;
                if p.first_blue {
                    self.avail_blue[node.index()] = clock[proc];
                }
            }
            MultiMove::Compute { proc, .. } => {
                clock[proc] = clock[proc].checked_add(w)?;
                s.computes_per_proc[proc] += 1;
            }
            MultiMove::Delete { .. } => {}
            MultiMove::Comm { from, to, .. } => {
                let traffic = self.comm_price.checked_mul(w)?;
                s.comm_cost = s.comm_cost.checked_add(traffic)?;
                s.comm_moves += 1;
                let t = clock[from].max(clock[to]).checked_add(traffic)?;
                clock[from] = t;
                clock[to] = t;
            }
        }
        s.io_cost.checked_add(s.comm_cost).map(drop)
    }
}

/// Replay `schedule` on `graph` under `spec`, checking every rule of the
/// multiprocessor game (see [`crate::replay::replay`]), and return exact
/// statistics.
pub fn validate_multi_schedule(
    graph: &Cdag,
    spec: &MachineSpec,
    schedule: &MultiSchedule,
) -> Result<MultiStats, ValidityError> {
    let mut tally = MultiTally::new(graph, spec);
    replay(graph, spec, schedule.iter(), &mut tally)?;
    Ok(tally.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CdagBuilder;
    use crate::validate::validate_schedule;

    /// x(16) -> y(32), x -> z(16): one shared input, two consumers.
    fn fork() -> (Cdag, NodeId, NodeId, NodeId) {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(32, "y");
        let z = b.node(16, "z");
        b.edge(x, y);
        b.edge(x, z);
        (b.build().unwrap(), x, y, z)
    }

    #[test]
    fn single_proc_round_trips_and_matches_classic_validator() {
        let (g, x, y, z) = fork();
        let single = Schedule::from_moves(vec![
            Move::Load(x),
            Move::Compute(y),
            Move::Store(y),
            Move::Delete(y),
            Move::Compute(z),
            Move::Store(z),
        ]);
        let multi = MultiSchedule::from_single(&single);
        assert_eq!(multi.project_single().unwrap(), single);

        let spec = MachineSpec::uniprocessor(64);
        let stats = validate_multi_schedule(&g, &spec, &multi).unwrap();
        let classic = validate_schedule(&g, 64, &single).unwrap();
        assert_eq!(stats.io_cost, classic.cost);
        assert_eq!(stats.input_cost, classic.input_cost);
        assert_eq!(stats.output_cost, classic.output_cost);
        assert_eq!(stats.peak_red, vec![classic.peak_red_weight]);
        assert_eq!(stats.comm_moves, 0);
        assert_eq!(stats.total_cost(), classic.cost);
        assert_eq!(stats.procs_used(), 1);
        // load 16 + compute 32 + store 32 + compute 16 + store 16
        assert_eq!(stats.makespan, 112);
    }

    #[test]
    fn comm_move_transfers_red_and_prices_like_store_load() {
        let (g, x, y, z) = fork();
        let spec = MachineSpec::symmetric(2, 64);
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Comm {
                from: 0,
                to: 1,
                node: x,
            },
            MultiMove::Compute { proc: 0, node: y },
            MultiMove::Compute { proc: 1, node: z },
            MultiMove::Store { proc: 0, node: y },
            MultiMove::Store { proc: 1, node: z },
        ]);
        let stats = validate_multi_schedule(&g, &spec, &sched).unwrap();
        assert_eq!(stats.comm_moves, 1);
        assert_eq!(stats.comm_cost, 2 * 16);
        assert_eq!(stats.io_cost, 16 + 32 + 16);
        assert_eq!(stats.total_cost(), 96);
        assert_eq!(stats.procs_used(), 2);
        assert_eq!(stats.computes_per_proc, vec![1, 1]);
        // p0: load 16 -> comm sync to 48 -> compute 32 -> store 32 = 112.
        // p1: comm sync to 48 -> compute 16 -> store 16 = 80.
        assert_eq!(stats.makespan, 112);
    }

    #[test]
    fn makespan_load_waits_for_blue_availability() {
        let (g, x, y, z) = fork();
        let spec = MachineSpec::symmetric(2, 64);
        // p1 loads x only after p0 stores... x is a source, blue at t=0,
        // so no wait; but y computed on p0 then stored is only available
        // to p1 after the store completes.
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Compute { proc: 0, node: y },
            MultiMove::Store { proc: 0, node: y }, // blue(y) at t=16+32+32=80
            MultiMove::Load { proc: 1, node: x },  // t(p1)=16
            MultiMove::Compute { proc: 1, node: z },
            MultiMove::Store { proc: 1, node: z },
            MultiMove::Delete { proc: 1, node: z },
            MultiMove::Load { proc: 1, node: y }, // waits: max(48, 80)+32 = 112
        ]);
        let stats = validate_multi_schedule(&g, &spec, &sched).unwrap();
        assert_eq!(stats.makespan, 112);
    }

    #[test]
    fn per_proc_budgets_are_independent() {
        let (g, x, y, _z) = fork();
        let spec = MachineSpec::new(vec![
            crate::spec::ProcBudget::new(64),
            crate::spec::ProcBudget::new(16),
        ]);
        // Fits on p0 (peak 48 <= 64): replay only trips the stopping
        // condition (sink z never produced), not the budget.
        let on_p0 = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Compute { proc: 0, node: y },
            MultiMove::Store { proc: 0, node: y },
        ]);
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &on_p0),
            Err(ValidityError::StoppingConditionUnmet { .. })
        ));
        // Same prefix on p1 blows its 16-bit budget at the compute.
        let on_p1 = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 1, node: x },
            MultiMove::Compute { proc: 1, node: y },
        ]);
        match validate_multi_schedule(&g, &spec, &on_p1) {
            Err(ValidityError::BudgetExceeded {
                proc, used, budget, ..
            }) => {
                assert_eq!(proc, 1);
                assert_eq!(used, 48);
                assert_eq!(budget, 16);
            }
            other => panic!("expected budget violation, got {other:?}"),
        }
    }

    #[test]
    fn compute_needs_operands_on_the_same_processor() {
        let (g, x, y, _z) = fork();
        let spec = MachineSpec::symmetric(2, 64);
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Compute { proc: 1, node: y }, // x red on p0, not p1
        ]);
        match validate_multi_schedule(&g, &spec, &sched) {
            Err(ValidityError::ComputeWithoutOperands { missing, .. }) => {
                assert_eq!(missing, x);
            }
            other => panic!("expected missing operands, got {other:?}"),
        }
    }

    #[test]
    fn comm_requires_red_sender_and_distinct_endpoints() {
        let (g, x, _y, _z) = fork();
        let spec = MachineSpec::symmetric(2, 64);
        let no_red = MultiSchedule::from_moves(vec![MultiMove::Comm {
            from: 0,
            to: 1,
            node: x,
        }]);
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &no_red),
            Err(ValidityError::CommWithoutRed { .. })
        ));
        let to_self = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Comm {
                from: 0,
                to: 0,
                node: x,
            },
        ]);
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &to_self),
            Err(ValidityError::CommToSelf { .. })
        ));
    }

    #[test]
    fn stopping_condition_and_unknown_proc() {
        let (g, x, y, z) = fork();
        let spec = MachineSpec::symmetric(2, 64);
        let incomplete = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Compute { proc: 0, node: y },
            MultiMove::Store { proc: 0, node: y },
            MultiMove::Compute { proc: 0, node: z },
        ]);
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &incomplete),
            Err(ValidityError::StoppingConditionUnmet { sink }) if sink == z
        ));
        let bad_proc = MultiSchedule::from_moves(vec![MultiMove::Load { proc: 2, node: x }]);
        assert!(matches!(
            validate_multi_schedule(&g, &spec, &bad_proc),
            Err(ValidityError::UnknownProc { procs: 2, .. })
        ));
    }

    #[test]
    fn priced_comm_overflow_is_an_error_not_a_wrap() {
        let (g, x, _y, _z) = fork();
        let spec = MachineSpec::symmetric(2, 64).with_comm_price(u64::MAX / 8);
        let sched = MultiSchedule::from_moves(vec![
            MultiMove::Load { proc: 0, node: x },
            MultiMove::Comm {
                from: 0,
                to: 1,
                node: x,
            },
        ]);
        assert_eq!(
            validate_multi_schedule(&g, &spec, &sched),
            Err(ValidityError::WeightOverflow {
                step: 1,
                mv: sched.moves()[1]
            })
        );
    }

    #[test]
    fn projection_fails_off_processor_zero() {
        let (_g, x, _y, _z) = fork();
        let off = MultiSchedule::from_moves(vec![MultiMove::Load { proc: 1, node: x }]);
        assert!(off.project_single().is_none());
        let comm = MultiSchedule::from_moves(vec![MultiMove::Comm {
            from: 0,
            to: 1,
            node: x,
        }]);
        assert!(comm.project_single().is_none());
    }
}
