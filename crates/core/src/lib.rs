//! # pebblyn-core — the Weighted Red-Blue Pebble Game (WRBPG)
//!
//! This crate implements the model of *Dataflow-Specific Algorithms for
//! Resource-Constrained Scheduling and Memory Design* (SPAA 2025), §2.
//!
//! The WRBPG is played on a node-weighted computational DAG (CDAG)
//! `G = (V, E, w, B)`.  A **red** pebble on a node means its value is resident
//! in bounded fast memory; a **blue** pebble means it is resident in unbounded
//! slow memory.  The four moves are
//!
//! * [`Move::Load`] (*M1*) — copy to fast memory: add a red pebble to a node
//!   that holds a blue pebble,
//! * [`Move::Store`] (*M2*) — copy to slow memory: add a blue pebble to a node
//!   that holds a red pebble,
//! * [`Move::Compute`] (*M3*) — perform an operation: if every predecessor of
//!   a non-source node holds a red pebble, add a red pebble to the node,
//! * [`Move::Delete`] (*M4*) — delete a red pebble (blue pebbles are never
//!   deleted).
//!
//! Unlike the classic game, red pebbles are constrained by **total weight**:
//! at every point of a schedule, `Σ_{v red} w_v ≤ B` (Definition 2.1).  The
//! cost of a schedule is the weighted sum of all M1/M2 moves (Definition 2.2)
//! — exactly the number of bits moved between the two memories when `w_v` is
//! the size of node `v`'s result.
//!
//! The crate provides:
//!
//! * [`Cdag`] / [`CdagBuilder`] — the weighted graph representation,
//! * [`Move`], [`Schedule`] — schedules as first-class values,
//! * [`replay`](mod@replay) — the one kernel checking every game rule and
//!   the weighted budget at every step, for 1 or `p` processors; schedule
//!   [`validate`]ion with exact statistics is one of its observers,
//! * [`bounds`] — the algorithmic lower bound (Prop. 2.4), the schedule
//!   existence criterion (Prop. 2.3), the minimum feasible budget, and
//!   admissible per-state lower bounds ([`StateBounds`]) for best-first
//!   exhaustive search.
//!
//! Weights are represented as `u64` *bit counts*.  The paper permits positive
//! reals of polynomial precision; every experiment in the paper uses integral
//! word sizes (16-bit inputs, 32-bit accumulators), and integral weights keep
//! dynamic-programming memo keys exact and the budget lattice finite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod error;
pub mod fasthash;
pub mod graph;
pub mod io;
pub mod mask;
pub mod moves;
pub mod multi;
pub mod redset;
pub mod replay;
pub mod request;
pub mod schedule;
pub mod spec;
pub mod stream;
pub mod symmetry;
pub mod trace;
pub mod transform;
pub mod validate;

pub use bounds::{algorithmic_lower_bound, min_feasible_budget, schedule_exists, StateBounds};
pub use error::{GraphError, ValidityError};
pub use fasthash::{pack_key, FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use graph::{Cdag, CdagBuilder, NodeId, Weight};
pub use mask::{mask_iter, mask_weight, StateMask, Words};
pub use moves::Move;
pub use multi::{validate_multi_schedule, MultiMove, MultiSchedule, MultiStats, MultiTally};
pub use redset::RedSet;
pub use replay::{replay, Board, Observer, Played, Uni};
pub use request::{ScheduleRequest, ScheduleResponse};
pub use schedule::Schedule;
pub use spec::{MachineSpec, ProcBudget, DEFAULT_COMM_PRICE};
pub use stream::MoveStream;
pub use symmetry::{certified_generators, is_certified_automorphism, twin_classes};
pub use trace::{
    occupancy_summary, occupancy_trace, render_sparkline, summarize, OccupancySummary,
};
pub use transform::{peephole, PeepholeStats};
pub use validate::{validate_moves, validate_schedule, ScheduleStats};
