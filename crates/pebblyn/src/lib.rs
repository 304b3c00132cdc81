//! # pebblyn — Weighted Red-Blue Pebble Games for resource-constrained
//! scheduling and memory design
//!
//! A complete implementation of *Dataflow-Specific Algorithms for
//! Resource-Constrained Scheduling and Memory Design* (SPAA 2025): the
//! Weighted Red-Blue Pebble Game (WRBPG), provably optimal schedulers for
//! tree-structured dataflows (DWT, k-ary trees), memory-state scheduling
//! and MVM tiling, baselines, an executable two-level memory machine, and a
//! calibrated SRAM synthesis model that turns minimum memory sizes into
//! area/power/throughput numbers.
//!
//! ## Quick tour
//!
//! ```
//! use pebblyn::prelude::*;
//!
//! // A Haar DWT over 16 samples, 2 levels, 16-bit samples everywhere.
//! let dwt = DwtGraph::new(16, 2, WeightScheme::Equal(16)).unwrap();
//!
//! // The best any schedule can do: every input read + every output
//! // written exactly once.
//! let lb = algorithmic_lower_bound(dwt.cdag());
//!
//! // An optimal schedule under a 7-word (112-bit) fast memory.
//! let schedule = dwt_opt::schedule(&dwt, 112).unwrap();
//! let stats = validate_schedule(dwt.cdag(), 112, &schedule).unwrap();
//! assert_eq!(stats.cost, dwt_opt::min_cost(&dwt, 112).unwrap());
//! assert!(stats.cost >= lb);
//! ```
//!
//! The workspace crates are re-exported under their short names:
//!
//! * [`core`] — the game model (graphs, moves, schedules, validation,
//!   bounds),
//! * [`graphs`] — DWT / MVM / k-ary tree constructions,
//! * [`schedulers`] — the paper's algorithms plus baselines,
//! * [`exact`] — exhaustive optimal search for certification,
//! * [`streaming`] — O(E) single-pass schedulers for the million-node
//!   regime (topological-window Belady eviction, layered slab
//!   partitioning), certified by the bound-gap conformance tier,
//! * [`conformance`] — the differential fuzzing harness that certifies
//!   every scheduler against [`exact`] on randomized CDAGs,
//! * [`baselines`] — IOOpt-style analytic bounds,
//! * [`engine`] — the parallel sweep engine (`workloads × budgets ×
//!   schedulers` plans with structured results),
//! * [`machine`] — executable two-level memory machine with energy
//!   accounting,
//! * [`kernels`] — Haar/MVM arithmetic, synthetic neural signals, BCI
//!   features, fixed point,
//! * [`synth`] — the SRAM macro model behind the circuit-level results,
//! * [`telemetry`] — zero-overhead-when-disabled counters, phase timers
//!   and sinks shared by the solver, engine, and CLI,
//! * [`service`] — the scheduling daemon: wire protocol, canonicalizing
//!   schedule cache, and the bounded-queue worker pool behind
//!   `pebblyn serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pebblyn_baselines as baselines;
pub use pebblyn_conformance as conformance;
pub use pebblyn_core as core;
pub use pebblyn_engine as engine;
pub use pebblyn_exact as exact;
pub use pebblyn_graphs as graphs;
pub use pebblyn_kernels as kernels;
pub use pebblyn_machine as machine;
pub use pebblyn_schedulers as schedulers;
pub use pebblyn_service as service;
pub use pebblyn_streaming as streaming;
pub use pebblyn_synth as synth;
pub use pebblyn_telemetry as telemetry;

/// Everything most programs need, in one import.
pub mod prelude {
    pub use pebblyn_baselines::IoOptMvmModel;
    pub use pebblyn_core::{
        algorithmic_lower_bound, min_feasible_budget, peephole, schedule_exists, validate_moves,
        validate_schedule, Cdag, CdagBuilder, Move, MoveStream, NodeId, PeepholeStats, RedSet,
        Schedule, ScheduleRequest, ScheduleResponse, ScheduleStats, ValidityError, Weight,
    };
    pub use pebblyn_core::{occupancy_summary, occupancy_trace, summarize, OccupancySummary};
    pub use pebblyn_core::{
        validate_multi_schedule, MachineSpec, MultiMove, MultiSchedule, MultiStats, ProcBudget,
        DEFAULT_COMM_PRICE,
    };
    pub use pebblyn_engine::{
        BudgetSpec, MinMemoryPlan, MinMemoryResult, Series, SweepPlan, SweepResult,
    };
    pub use pebblyn_exact::{
        exact_min_cost, exact_optimal_schedule, ExactError, ExactSolver, SearchStats, Solution,
        StateLimitExceeded, MAX_NODES,
    };
    pub use pebblyn_graphs::{
        banded, conv, dwt, dwt2d, dwt_coarse, mvm, tree, AnyGraph, BandedMvmGraph, CoarseDwtGraph,
        ConvGraph, Dwt2dGraph, DwtGraph, Layered, MvmGraph, WeightScheme, Workload,
    };
    pub use pebblyn_kernels::{features, fixed, haar, haar2d, mvm as mvm_kernel, signal};
    pub use pebblyn_machine::{EnergyModel, Machine, Op, OpTable};
    pub use pebblyn_schedulers::dwt_opt::IoCosts;
    pub use pebblyn_schedulers::layer_by_layer::LayerByLayerOptions;
    pub use pebblyn_schedulers::memstate::MemoryStates;
    pub use pebblyn_schedulers::mvm_tiling::TilingConfig;
    pub use pebblyn_schedulers::{
        api, banded_stream, conv_stream, dwt_opt, greedy_belady, kary, layer_by_layer, memstate,
        min_memory, multi, mvm_tiling, naive, registry, MinMemoryOptions, ScheduleError, Scheduler,
    };
    pub use pebblyn_service::{
        GraphSpec, Outcome, RejectKind, Request, Response, Server, ServerConfig, Service,
        ServiceConfig,
    };
    pub use pebblyn_synth::{round_pow2, Floorplan, NvmParams, Process, SramConfig, SramMacro};
}
