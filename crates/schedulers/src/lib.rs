//! # pebblyn-schedulers — dataflow-specific WRBPG pebbling algorithms
//!
//! The paper's central algorithmic contributions, implemented as schedule
//! *generators* (every algorithm returns a concrete move sequence, not just a
//! cost):
//!
//! | Module | Paper reference | What it does |
//! |--------|-----------------|--------------|
//! | [`dwt_opt`] | Algorithm 1, Lemmas 3.2–3.4, Thm 3.5 | provably **optimal** schedules for `DWT(n,d)` graphs, any weights, any budget |
//! | [`kary`] | Eq. (6), Lemma 3.7, Thm 3.8 | provably optimal schedules for arbitrary k-ary tree graphs |
//! | [`memstate`] | Eq. (8), §4.1 | tree scheduling under initial/reuse fast-memory states |
//! | [`mvm_tiling`] | §4.3 | tiling schedules for `MVM(m,n)` with accumulator/vector residency search |
//! | [`layer_by_layer`] | §5.1 | the layer-by-layer heuristic baseline with boustrophedon traversal and FIFO spilling |
//! | [`naive`] | Prop. 2.3 (proof) | the trivial topological-order schedule witnessing existence |
//! | [`mod@min_memory`] | Def. 2.6 | minimum-fast-memory search over any scheduler |
//! | [`multi`] | multiprocessor WRBPG | per-processor red sets: level partitioning and communication-aware list scheduling |
//!
//! [`dwt_opt`], [`kary`] and [`memstate`] are fronts for one tree dynamic
//! program (Eq. (8), which covers Eq. (2) and (6)): a cost-only memo plus
//! one traceback walk that emits the schedule.
//!
//! Every generator's output is designed to be checked with
//! [`pebblyn_core::validate_schedule`]; the test-suites of this crate do so
//! systematically, and additionally certify optimality of the dynamic
//! programs against the exhaustive `pebblyn-exact` solver on small
//! instances.
//!
//! ```
//! use pebblyn_core::{algorithmic_lower_bound, validate_schedule};
//! use pebblyn_graphs::{DwtGraph, WeightScheme};
//! use pebblyn_schedulers::dwt_opt;
//!
//! let dwt = DwtGraph::new(64, 6, WeightScheme::DoubleAccumulator(16)).unwrap();
//! // Table-1-style result: a handful of words reaches the lower bound.
//! let schedule = dwt_opt::schedule(&dwt, 16 * 16).unwrap();
//! let stats = validate_schedule(dwt.cdag(), 16 * 16, &schedule).unwrap();
//! assert_eq!(stats.cost, algorithmic_lower_bound(dwt.cdag()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod banded_stream;
pub mod conv_stream;
pub mod dwt_opt;
pub mod greedy_belady;
pub mod kary;
pub mod layer_by_layer;
pub mod memstate;
pub mod min_memory;
pub mod multi;
mod multi_sim;
pub mod mvm_tiling;
pub mod naive;
pub mod stack;
mod tree_dp;

pub use api::{by_name, execute, execute_with, registry, ExecuteError, ScheduleError, Scheduler};
pub use min_memory::{min_memory, MinMemoryOptions};
