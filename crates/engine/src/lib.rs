//! # pebblyn-engine — the parallel sweep engine
//!
//! Every figure and table of the paper is a `workloads × budgets ×
//! schedulers` sweep.  This crate turns those sweeps into declarative
//! [`SweepPlan`]s executed by one engine: points fan out across a worker
//! pool ([`par`]), and results come back as structured [`SweepRow`]s with
//! CSV/JSON emitters — in deterministic plan order, so a parallel run is
//! byte-identical to `RAYON_NUM_THREADS=1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
pub mod plan;
pub mod result;

pub use plan::{log_budgets, BudgetSpec, MinMemoryEntry, MinMemoryPlan, Series, SweepPlan};
pub use result::{MinMemoryResult, MinMemoryRow, SweepResult, SweepRow};
