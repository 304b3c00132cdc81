//! # pebblyn-machine — a two-level memory machine for WRBPG schedules
//!
//! The WRBPG abstracts a system with a small fast memory (SRAM) backed by a
//! large slow memory (e.g. non-volatile Flash in implanted BCIs).  This crate
//! makes that abstraction executable: a [`Machine`] replays a schedule
//! move-by-move, maintaining actual *values* in both memories and evaluating
//! each node's arithmetic [`Op`] when it is computed (M3).
//!
//! Running a schedule on the machine proves three things at once:
//!
//! 1. the schedule respects the game rules and the weighted budget — the
//!    machine replays it through the same rule kernel as
//!    [`pebblyn_core::validate_schedule`] and reports the same
//!    [`pebblyn_core::ValidityError`],
//! 2. the schedule really computes the workload — output values must match a
//!    direct reference evaluation, a check independent of the kernel,
//! 3. the exact data-movement energy of the schedule under a per-bit
//!    transfer-energy model ([`EnergyModel`]).
//!
//! [`MultiMachine`] does the same for the multiprocessor game.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod exec;
pub mod ops;

pub use energy::{EnergyModel, EnergyReport};
pub use exec::{ExecError, ExecReport, Machine, MultiExecReport, MultiMachine};
pub use ops::{eval_reference, Op, OpTable};
