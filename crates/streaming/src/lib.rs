//! # pebblyn-streaming — single-pass schedulers for the million-node regime
//!
//! Every other scheduler in the workspace assumes the CDAG is small enough
//! for exhaustive search or per-workload dynamic programming.  This crate
//! targets graphs the exact solver can never touch: it provides two O(V + E)
//! heuristics that stream over the CSR plane of a [`pebblyn_core::Cdag`]
//! without any per-node heap structures beyond flat arrays and one lazy
//! binary heap.
//!
//! * [`window`] — a **topological-window greedy**: compute nodes in
//!   topological order, keep operands resident, and when the weighted red
//!   budget overflows evict the resident whose next use (within a bounded
//!   lookahead window of the compute order) is furthest away — Belady's
//!   MIN policy restricted to streaming lookahead.
//! * [`slab`] — a **layered slab partitioner**: cut the topological order
//!   into contiguous budget-feasible slabs, choosing each boundary among
//!   the trailing feasible positions to minimize the weight of values that
//!   must cross it (reload-aware cuts), then emit a load / compute / store /
//!   flush phase per slab.
//!
//! [`belady`] is the eviction kernel under the first, and the workspace's
//! only Belady implementation: `pebblyn-schedulers` evicts through it too.
//!
//! Neither scheduler is optimal; both are *certified* instead: they succeed
//! exactly when Prop 2.3 says a schedule exists (`budget ≥
//! min_feasible_budget`), every emitted schedule replays cleanly under the
//! rule validator, and the cost is compared against the Prop 2.4 lower
//! bound by the STREAMING conformance regime, which records the observed
//! gap rather than demanding equality.
//!
//! The functions here return `Option<Schedule>` (`None` = infeasible under
//! Prop 2.3); the `pebblyn-schedulers` crate wraps them behind the sealed
//! `Scheduler` trait with the typed `InfeasibleBudget` error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belady;
pub mod slab;
pub mod window;

pub use belady::{Belady, Exhausted};
pub use slab::{slab_schedule, slab_schedule_with, SlabConfig, SlabStats};
pub use window::{window_schedule, window_schedule_with, WindowConfig, WindowStats};
