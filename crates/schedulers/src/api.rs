//! The unified [`Scheduler`] trait — every algorithm in this crate behind
//! one object-safe interface.
//!
//! The free functions in the sibling modules remain the primary,
//! fully-typed API (they accept the concrete graph types and expose
//! algorithm-specific knobs like [`crate::dwt_opt::IoCosts`]).  This module
//! adapts them to a single dynamic surface so the CLI, the sweep engine and
//! the benches can hold a `&dyn Scheduler` and iterate over
//! [`registry`] without a per-call match on (workload, algorithm).
//!
//! Typed schedulers (the DWT DP, the MVM tiling, the streaming families)
//! need structural metadata a bare [`Cdag`](pebblyn_core::Cdag) does not
//! carry, so the trait takes
//! [`AnyGraph`] — the workload-erased graph from
//! `pebblyn-graphs` — and advertises applicability through
//! [`Scheduler::supports`].  Graph-generic algorithms (layer-by-layer,
//! Belady, naive, k-ary on in-trees) support every variant, including
//! [`AnyGraph::Custom`] wrappers around arbitrary CDAGs.
//!
//! # The trait contract (sealed)
//!
//! [`Scheduler::schedule`] and [`Scheduler::min_cost`] return
//! `Result<_, ScheduleError>`, distinguishing three outcomes the older
//! `Option` surface conflated behind one `None`:
//!
//! - [`ScheduleError::Unsupported`] — wrong graph family; equivalently,
//!   [`Scheduler::supports`] is `false`.
//! - [`ScheduleError::InfeasibleBudget`] — the budget is too small for
//!   this algorithm, with an optional `min_feasible` hint when the budget
//!   is below the game-level minimum of Proposition 2.3 (no algorithm
//!   can succeed there).
//! - [`ScheduleError::ValidationFailed`] — the schedule was produced but
//!   failed [`validate_schedule`]; always a scheduler bug, never an input
//!   error.
//!
//! The deprecated Option-typed `schedule_opt`/`min_cost_opt` shims kept
//! for one release after that migration are gone.  The trait is also now
//! **sealed** behind the `#[doc(hidden)]` [`sealed::Sealed`] marker:
//! downstream crates cannot implement `Scheduler` accidentally, so the
//! trait can grow defaulted methods without breaking anyone.  Test-only
//! implementations (the conformance mutants, harness fakes) opt in
//! explicitly with `impl api::sealed::Sealed for MyFake {}` — the escape
//! hatch is public but undocumented, marking every implementor outside
//! this module as deliberate.
//!
//! # Request execution
//!
//! The typed request surface ([`ScheduleRequest`]/[`ScheduleResponse`]
//! from `pebblyn-core`) is executed here: [`execute`] resolves the
//! requested scheduler name against the [`registry`] and answers the
//! request; [`execute_with`] skips resolution for callers that already
//! hold a trait object (the engine's sweep series).  The CLI, the engine,
//! and the `pebblyn serve` daemon all funnel through these two functions.

use crate::{
    banded_stream, conv_stream, dwt_opt, greedy_belady, kary, layer_by_layer, multi, mvm_tiling,
    naive,
};
use pebblyn_core::{
    min_feasible_budget, validate_multi_schedule, validate_schedule, Cdag, MachineSpec,
    MultiSchedule, Schedule, ScheduleRequest, ScheduleResponse, ValidityError, Weight,
};
use pebblyn_graphs::AnyGraph;
use pebblyn_telemetry as telemetry;
use std::borrow::Borrow;

/// The private-in-spirit marker module sealing [`Scheduler`].
///
/// Hidden from docs: implementing [`sealed::Sealed`] outside this crate is
/// reserved for test doubles (the conformance harness's fault-injection
/// mutants).  Production schedulers live in this crate and are listed in
/// [`REGISTRY`].
#[doc(hidden)]
pub mod sealed {
    /// Marker supertrait restricting who may implement `Scheduler`.
    pub trait Sealed {}
}

/// Why a [`Scheduler`] call produced no schedule or cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The algorithm does not apply to this graph family at all
    /// (equivalently, [`Scheduler::supports`] is `false`).
    Unsupported,
    /// The graph is supported but the fast-memory budget is too small for
    /// this algorithm.
    InfeasibleBudget {
        /// The game-level minimum feasible budget (Proposition 2.3) when
        /// the requested budget is below it — no algorithm can schedule
        /// the graph there.  `None` means only that *this* algorithm
        /// failed; a stronger one may still succeed at this budget.
        min_feasible: Option<Weight>,
    },
    /// The algorithm produced a schedule that failed replay validation.
    /// This is a scheduler bug, never an input error.
    ValidationFailed(ValidityError),
    /// A multiprocessor schedule failed replay under
    /// [`validate_multi_schedule`].  Like [`ScheduleError::ValidationFailed`],
    /// always a scheduler bug.
    MultiValidationFailed(ValidityError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Unsupported => write!(f, "scheduler does not support this graph"),
            ScheduleError::InfeasibleBudget { min_feasible: None } => {
                write!(f, "budget too small for this scheduler")
            }
            ScheduleError::InfeasibleBudget {
                min_feasible: Some(m),
            } => write!(f, "budget below game-level minimum ({m} bits required)"),
            ScheduleError::ValidationFailed(e) => write!(f, "schedule failed validation: {e}"),
            ScheduleError::MultiValidationFailed(e) => {
                write!(f, "multiprocessor schedule failed validation: {e}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The [`ScheduleError::InfeasibleBudget`] for `g` at `budget`, with the
/// Proposition 2.3 hint filled in when the budget is below the game-level
/// minimum.
pub(crate) fn infeasible(g: &Cdag, budget: Weight) -> ScheduleError {
    let game_min = min_feasible_budget(g);
    ScheduleError::InfeasibleBudget {
        min_feasible: (budget < game_min).then_some(game_min),
    }
}

/// Record a successful schedule's move count in telemetry and pass the
/// schedule through (free when telemetry is disabled).
fn emit(s: Schedule) -> Schedule {
    telemetry::add(telemetry::Counter::MovesEmitted, s.len() as u64);
    s
}

/// One scheduling algorithm, workload-erased.
///
/// Implementations are zero-sized unit structs; dispatch over them with
/// `&dyn Scheduler` (they are all `Send + Sync`, so sweeps may share them
/// across threads).  Calling [`schedule`](Scheduler::schedule) or
/// [`min_cost`](Scheduler::min_cost) on an unsupported graph returns
/// [`ScheduleError::Unsupported`]; a supported graph with too small a
/// budget returns [`ScheduleError::InfeasibleBudget`].
///
/// The trait is sealed (see the module docs): implementors outside this
/// crate must opt in through the hidden [`sealed::Sealed`] marker.
pub trait Scheduler: sealed::Sealed + Send + Sync {
    /// Stable machine-readable name (registry key, sweep-row label).
    fn name(&self) -> &str;

    /// Whether this algorithm applies to `g` at all.
    fn supports(&self, g: &AnyGraph) -> bool;

    /// A concrete schedule within `budget`.
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError>;

    /// The scheduler's cost at `budget`.
    ///
    /// The default generates the schedule and replays it through
    /// [`validate_schedule`], surfacing a replay rejection as
    /// [`ScheduleError::ValidationFailed`]; DP-based schedulers override
    /// this with their direct cost recurrences (no move materialization).
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        let s = self.schedule(g, budget)?;
        validate_schedule(g.cdag(), budget, &s)
            .map(|st| st.cost)
            .map_err(ScheduleError::ValidationFailed)
    }

    /// Whether `min_cost` is non-increasing in the budget, which lets
    /// minimum-memory searches bisect instead of scanning linearly
    /// (see [`crate::min_memory`](mod@crate::min_memory)).
    fn monotone(&self) -> bool {
        false
    }

    /// Whether this algorithm can schedule `g` on the machine `spec`.
    ///
    /// The default confines single-processor algorithms to uniprocessor
    /// machines; the multiprocessor schedulers ([`PartitionBelady`],
    /// [`CommList`]) override it.  Sealing the trait is what lets this
    /// method (and [`schedule_multi`](Scheduler::schedule_multi)) be added
    /// without breaking any implementor.
    fn supports_machine(&self, g: &AnyGraph, spec: &MachineSpec) -> bool {
        spec.is_uniprocessor() && self.supports(g)
    }

    /// A concrete multiprocessor schedule for `g` on `spec`.
    ///
    /// The default answers uniprocessor machines by lifting
    /// [`schedule`](Scheduler::schedule) onto processor 0 — byte-identical
    /// moves, one processor — and declines genuine multiprocessor machines
    /// with [`ScheduleError::Unsupported`].
    fn schedule_multi(
        &self,
        g: &AnyGraph,
        spec: &MachineSpec,
    ) -> Result<MultiSchedule, ScheduleError> {
        match spec.uniprocessor_budget() {
            Some(b) => Ok(MultiSchedule::from_single(&self.schedule(g, b)?)),
            None => Err(ScheduleError::Unsupported),
        }
    }
}

/// Why [`execute`] produced no [`ScheduleResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecuteError {
    /// The request named a scheduler the [`registry`] does not know.
    UnknownScheduler {
        /// The name the request asked for.
        requested: String,
        /// Every valid registry name, in registration order.
        valid: Vec<&'static str>,
    },
    /// The scheduler was found but declined or failed (see
    /// [`ScheduleError`]).
    Schedule(ScheduleError),
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::UnknownScheduler { requested, valid } => {
                write!(
                    f,
                    "unknown scheduler {requested:?} (valid: {})",
                    valid.join(", ")
                )
            }
            ExecuteError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecuteError {}

impl From<ScheduleError> for ExecuteError {
    fn from(e: ScheduleError) -> Self {
        ExecuteError::Schedule(e)
    }
}

/// Answer a [`ScheduleRequest`], resolving the scheduler by name.
///
/// The single entry point behind the CLI `schedule`/`trace` commands and
/// the `pebblyn serve` daemon's miss path.  An unknown scheduler name is
/// rejected with the full list of valid names so every surface (CLI usage
/// errors, daemon reject frames) can echo it.
pub fn execute<G: Borrow<AnyGraph>>(
    req: &ScheduleRequest<G>,
) -> Result<ScheduleResponse, ExecuteError> {
    let s = by_name(req.scheduler()).ok_or_else(|| ExecuteError::UnknownScheduler {
        requested: req.scheduler().to_string(),
        valid: registry().iter().map(|s| s.name()).collect(),
    })?;
    execute_with(s, req).map_err(ExecuteError::Schedule)
}

/// Answer a [`ScheduleRequest`] with an already-resolved scheduler,
/// ignoring the request's name field.
///
/// The engine's sweep series use this: a [`crate::api`] trait object is
/// already in hand (possibly one that is not in the registry), and the
/// cost-only flag routes to [`Scheduler::min_cost`] so DP schedulers
/// answer from their recurrences without materializing moves.
///
/// Full-schedule answers are replay-validated here, so a response's cost
/// is always the *replayed* cost — the daemon caches and serves it as
/// ground truth.
pub fn execute_with<G: Borrow<AnyGraph>>(
    s: &dyn Scheduler,
    req: &ScheduleRequest<G>,
) -> Result<ScheduleResponse, ScheduleError> {
    let _span = telemetry::span("request");
    let g: &AnyGraph = req.graph().borrow();
    // Uniprocessor requests take the classic single-processor path
    // unchanged — a `MachineSpec::uniprocessor(b)` request is answered
    // byte-for-byte like the pre-multiprocessor API answered `budget: b`.
    if let Some(budget) = req.machine().uniprocessor_budget() {
        if req.is_cost_only() {
            let cost = s.min_cost(g, budget)?;
            return Ok(ScheduleResponse::cost_only(s.name(), cost));
        }
        let schedule = s.schedule(g, budget)?;
        let stats = validate_schedule(g.cdag(), budget, &schedule)
            .map_err(ScheduleError::ValidationFailed)?;
        return Ok(ScheduleResponse::scheduled(s.name(), stats.cost, schedule));
    }
    let spec = req.machine();
    if !s.supports_machine(g, spec) {
        return Err(ScheduleError::Unsupported);
    }
    let multi = s.schedule_multi(g, spec)?;
    let stats = validate_multi_schedule(g.cdag(), spec, &multi)
        .map_err(ScheduleError::MultiValidationFailed)?;
    telemetry::incr(telemetry::Counter::MultiRequests);
    telemetry::add(telemetry::Counter::CommMoves, stats.comm_moves);
    telemetry::add(telemetry::Counter::MovesEmitted, multi.len() as u64);
    telemetry::gauge_max(telemetry::Gauge::MultiProcsUsed, stats.procs_used() as u64);
    if req.is_cost_only() {
        return Ok(ScheduleResponse::cost_only(s.name(), stats.total_cost())
            .with_multi_metrics(stats.makespan, stats.comm_cost));
    }
    Ok(ScheduleResponse::multi_scheduled(
        s.name(),
        stats.total_cost(),
        stats.makespan,
        stats.comm_cost,
        multi,
    ))
}

/// Algorithm 1 — the provably optimal DWT dynamic program.
#[derive(Debug, Clone, Copy, Default)]
pub struct DwtOpt;

impl Scheduler for DwtOpt {
    fn name(&self) -> &str {
        "dwt-opt"
    }
    fn supports(&self, g: &AnyGraph) -> bool {
        matches!(g, AnyGraph::Dwt(d) if d.satisfies_pruning_condition())
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        match g {
            AnyGraph::Dwt(d) if d.satisfies_pruning_condition() => dwt_opt::schedule(d, budget)
                .map(emit)
                .ok_or_else(|| infeasible(g.cdag(), budget)),
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        match g {
            AnyGraph::Dwt(d) if d.satisfies_pruning_condition() => {
                dwt_opt::min_cost(d, budget).ok_or_else(|| infeasible(g.cdag(), budget))
            }
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn monotone(&self) -> bool {
        true
    }
}

/// Theorem 3.8 — the k-ary (in-tree) dynamic program.  Optimal within
/// contiguous subtree evaluations; certifiably globally optimal when
/// [`kary::contiguous_evaluation_safe`] holds (see the module docs for the
/// counterexample the conformance fuzzer found outside that regime).
#[derive(Debug, Clone, Copy, Default)]
pub struct Kary;

impl Scheduler for Kary {
    fn name(&self) -> &str {
        "kary"
    }
    fn supports(&self, g: &AnyGraph) -> bool {
        g.cdag().is_in_tree()
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        let cdag = g.cdag();
        if !cdag.is_in_tree() {
            return Err(ScheduleError::Unsupported);
        }
        kary::schedule(cdag, budget)
            .map(emit)
            .ok_or_else(|| infeasible(cdag, budget))
    }
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        let cdag = g.cdag();
        if !cdag.is_in_tree() {
            return Err(ScheduleError::Unsupported);
        }
        kary::min_cost(cdag, budget).ok_or_else(|| infeasible(cdag, budget))
    }
    fn monotone(&self) -> bool {
        true
    }
}

/// §4.3 — the MVM tiling with accumulator/vector residency search.
#[derive(Debug, Clone, Copy, Default)]
pub struct MvmTiling;

impl Scheduler for MvmTiling {
    fn name(&self) -> &str {
        "mvm-tiling"
    }
    fn supports(&self, g: &AnyGraph) -> bool {
        matches!(g, AnyGraph::Mvm(_))
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        match g {
            AnyGraph::Mvm(m) => mvm_tiling::schedule(m, budget)
                .map(emit)
                .ok_or_else(|| infeasible(g.cdag(), budget)),
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        match g {
            AnyGraph::Mvm(m) => {
                mvm_tiling::min_cost(m, budget).ok_or_else(|| infeasible(g.cdag(), budget))
            }
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn monotone(&self) -> bool {
        true
    }
}

/// §4 — sliding-window streaming for FIR convolution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvStream;

impl Scheduler for ConvStream {
    fn name(&self) -> &str {
        "conv-stream"
    }
    fn supports(&self, g: &AnyGraph) -> bool {
        matches!(g, AnyGraph::Conv(_))
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        match g {
            AnyGraph::Conv(c) => conv_stream::schedule(c, budget)
                .map(emit)
                .ok_or_else(|| infeasible(g.cdag(), budget)),
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        match g {
            AnyGraph::Conv(c) => {
                conv_stream::min_cost(c, budget).ok_or_else(|| infeasible(g.cdag(), budget))
            }
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn monotone(&self) -> bool {
        true
    }
}

/// §4.3 specialised to banded matrices — streaming banded MVM.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandedStream;

impl Scheduler for BandedStream {
    fn name(&self) -> &str {
        "banded-stream"
    }
    fn supports(&self, g: &AnyGraph) -> bool {
        matches!(g, AnyGraph::Banded { .. })
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        match g {
            AnyGraph::Banded { graph, .. } => banded_stream::schedule(graph, budget)
                .map(emit)
                .ok_or_else(|| infeasible(g.cdag(), budget)),
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn min_cost(&self, g: &AnyGraph, budget: Weight) -> Result<Weight, ScheduleError> {
        match g {
            AnyGraph::Banded { graph, .. } => {
                banded_stream::min_cost(graph, budget).ok_or_else(|| infeasible(g.cdag(), budget))
            }
            _ => Err(ScheduleError::Unsupported),
        }
    }
    fn monotone(&self) -> bool {
        true
    }
}

/// §5.1 — the layer-by-layer heuristic baseline (boustrophedon + FIFO).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerByLayer;

impl Scheduler for LayerByLayer {
    fn name(&self) -> &str {
        "layer-by-layer"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        layer_by_layer::schedule(g, budget, layer_by_layer::LayerByLayerOptions::default())
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
}

/// Greedy scheduler with Belady (furthest-next-use) eviction.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBelady;

impl Scheduler for GreedyBelady {
    fn name(&self) -> &str {
        "greedy-belady"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        greedy_belady::schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
}

/// Streaming topological-window greedy with Belady eviction
/// (`pebblyn-streaming`): a single O(E) pass for graphs too large for the
/// resident-graph schedulers, with next-use knowledge bounded by a
/// lookahead window.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoWindow;

impl Scheduler for TopoWindow {
    fn name(&self) -> &str {
        "topo-window"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        pebblyn_streaming::window_schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
}

/// Streaming layered slab partitioner with reload-aware cuts
/// (`pebblyn-streaming`): slices the topological order into
/// budget-feasible slabs and emits load/compute/store/flush phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlabPartition;

impl Scheduler for SlabPartition {
    fn name(&self) -> &str {
        "slab-partition"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        pebblyn_streaming::slab_schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
}

/// Proposition 2.3 — the trivial topological-order schedule.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Scheduler for Naive {
    fn name(&self) -> &str {
        "naive"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        naive::schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
}

/// Multiprocessor level partitioning with per-processor Belady eviction
/// and best-of-`q` machine-prefix selection ([`multi::partition_schedule`]).
/// On a uniprocessor machine this *is* [`GreedyBelady`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionBelady;

impl Scheduler for PartitionBelady {
    fn name(&self) -> &str {
        "partition-belady"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        greedy_belady::schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
    fn supports_machine(&self, _g: &AnyGraph, _spec: &MachineSpec) -> bool {
        true
    }
    fn schedule_multi(
        &self,
        g: &AnyGraph,
        spec: &MachineSpec,
    ) -> Result<MultiSchedule, ScheduleError> {
        multi::partition_schedule(g.cdag(), spec)
    }
}

/// Work-conserving communication-aware multiprocessor list scheduling
/// ([`multi::comm_list_schedule`]).  On a uniprocessor machine this *is*
/// [`GreedyBelady`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CommList;

impl Scheduler for CommList {
    fn name(&self) -> &str {
        "comm-list"
    }
    fn supports(&self, _g: &AnyGraph) -> bool {
        true
    }
    fn schedule(&self, g: &AnyGraph, budget: Weight) -> Result<Schedule, ScheduleError> {
        greedy_belady::schedule(g.cdag(), budget)
            .map(emit)
            .ok_or_else(|| infeasible(g.cdag(), budget))
    }
    fn supports_machine(&self, _g: &AnyGraph, _spec: &MachineSpec) -> bool {
        true
    }
    fn schedule_multi(
        &self,
        g: &AnyGraph,
        spec: &MachineSpec,
    ) -> Result<MultiSchedule, ScheduleError> {
        multi::comm_list_schedule(g.cdag(), spec)
    }
}

impl sealed::Sealed for DwtOpt {}
impl sealed::Sealed for Kary {}
impl sealed::Sealed for MvmTiling {}
impl sealed::Sealed for ConvStream {}
impl sealed::Sealed for BandedStream {}
impl sealed::Sealed for LayerByLayer {}
impl sealed::Sealed for GreedyBelady {}
impl sealed::Sealed for TopoWindow {}
impl sealed::Sealed for SlabPartition {}
impl sealed::Sealed for Naive {}
impl sealed::Sealed for PartitionBelady {}
impl sealed::Sealed for CommList {}

/// Every scheduler in the crate, as trait objects.
pub static REGISTRY: &[&dyn Scheduler] = &[
    &DwtOpt,
    &Kary,
    &MvmTiling,
    &ConvStream,
    &BandedStream,
    &LayerByLayer,
    &GreedyBelady,
    &TopoWindow,
    &SlabPartition,
    &Naive,
    &PartitionBelady,
    &CommList,
];

/// All registered schedulers (registration order is stable — sweep output
/// depends on it).
pub fn registry() -> &'static [&'static dyn Scheduler] {
    REGISTRY
}

/// Look a scheduler up by its [`Scheduler::name`].
pub fn by_name(name: &str) -> Option<&'static dyn Scheduler> {
    REGISTRY.iter().copied().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::min_feasible_budget;
    use pebblyn_graphs::{testgraphs, WeightScheme, Workload};

    fn instances() -> Vec<AnyGraph> {
        let scheme = WeightScheme::Equal(4);
        let mut out: Vec<AnyGraph> = [
            Workload::Dwt { n: 16, d: 4 },
            Workload::Mvm { m: 4, n: 5 },
            Workload::Conv { n: 12, k: 3 },
            Workload::Dwt2d { n: 8, levels: 2 },
            Workload::Banded {
                n: 12,
                bandwidth: 2,
            },
        ]
        .into_iter()
        .map(|w| AnyGraph::build(w, scheme).unwrap())
        .collect();
        out.push(AnyGraph::custom(
            "diamond",
            testgraphs::diamond(WeightScheme::Equal(8)),
        ));
        out
    }

    /// Every registered scheduler, on every graph it supports, produces a
    /// schedule that validates at a generous budget, and the trait-level
    /// `min_cost` agrees with the replayed cost.
    #[test]
    fn registry_schedules_validate_everywhere() {
        for g in instances() {
            let budget = 4 * g.cdag().total_weight();
            for s in registry() {
                if !s.supports(&g) {
                    assert_eq!(
                        s.schedule(&g, budget).unwrap_err(),
                        ScheduleError::Unsupported,
                        "{} must refuse unsupported {}",
                        s.name(),
                        g.name()
                    );
                    assert_eq!(
                        s.min_cost(&g, budget).unwrap_err(),
                        ScheduleError::Unsupported,
                        "{} min_cost must refuse unsupported {}",
                        s.name(),
                        g.name()
                    );
                    continue;
                }
                let sched = s.schedule(&g, budget).unwrap_or_else(|e| {
                    panic!("{} on {} at ample budget: {e}", s.name(), g.name())
                });
                let stats = validate_schedule(g.cdag(), budget, &sched)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", s.name(), g.name()));
                let cost = s
                    .min_cost(&g, budget)
                    .unwrap_or_else(|e| panic!("{} min_cost on {}: {e}", s.name(), g.name()));
                assert!(
                    cost <= stats.cost,
                    "{} on {}: min_cost {cost} exceeds replay {}",
                    s.name(),
                    g.name(),
                    stats.cost
                );
            }
        }
    }

    /// Below the Proposition 2.3 game-level minimum every supported call
    /// reports `InfeasibleBudget` with the minimum as its hint, and
    /// unsupported calls still report `Unsupported`.
    #[test]
    fn below_feasibility_every_scheduler_declines() {
        for g in instances() {
            let game_min = min_feasible_budget(g.cdag());
            let too_small = game_min - 1;
            for s in registry() {
                let expected = if s.supports(&g) {
                    ScheduleError::InfeasibleBudget {
                        min_feasible: Some(game_min),
                    }
                } else {
                    ScheduleError::Unsupported
                };
                assert_eq!(
                    s.schedule(&g, too_small).unwrap_err(),
                    expected,
                    "{} schedule on {}",
                    s.name(),
                    g.name()
                );
                assert_eq!(
                    s.min_cost(&g, too_small).unwrap_err(),
                    expected,
                    "{} min_cost on {}",
                    s.name(),
                    g.name()
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for s in registry() {
            let found = by_name(s.name()).expect("every name resolves");
            assert_eq!(found.name(), s.name());
        }
        let mut names: Vec<_> = registry().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len());
        assert!(by_name("no-such-scheduler").is_none());
    }

    #[test]
    fn typed_specialists_match_the_trait_surface() {
        let g = AnyGraph::build(Workload::Dwt { n: 32, d: 5 }, WeightScheme::Equal(16)).unwrap();
        let AnyGraph::Dwt(ref d) = g else {
            unreachable!()
        };
        let budget = 24 * 16;
        assert_eq!(
            DwtOpt.min_cost(&g, budget).ok(),
            dwt_opt::min_cost(d, budget)
        );
        assert!(DwtOpt.monotone());
    }

    /// The `min_cost` default surfaces a replay rejection as
    /// `ValidationFailed` instead of swallowing it (the old `.ok()` bug
    /// mapped scheduler bugs to "infeasible").
    #[test]
    fn min_cost_default_reports_validation_failures() {
        struct EmptyScheduler;
        impl sealed::Sealed for EmptyScheduler {}
        impl Scheduler for EmptyScheduler {
            fn name(&self) -> &str {
                "empty"
            }
            fn supports(&self, _g: &AnyGraph) -> bool {
                true
            }
            fn schedule(&self, _g: &AnyGraph, _budget: Weight) -> Result<Schedule, ScheduleError> {
                Ok(Schedule::new())
            }
        }
        let g = AnyGraph::custom("diamond", testgraphs::diamond(WeightScheme::Equal(8)));
        let budget = 4 * g.cdag().total_weight();
        match EmptyScheduler.min_cost(&g, budget) {
            Err(ScheduleError::ValidationFailed(_)) => {}
            other => panic!("expected ValidationFailed, got {other:?}"),
        }
    }

    /// `execute` resolves by registry name, answers the request, and
    /// rejects unknown names with the full valid list.
    #[test]
    fn execute_resolves_and_answers_requests() {
        let g = AnyGraph::build(Workload::Dwt { n: 16, d: 4 }, WeightScheme::Equal(16)).unwrap();
        let budget = 10 * 16;
        let full = execute(&pebblyn_core::ScheduleRequest::new(&g, budget, "dwt-opt")).unwrap();
        assert_eq!(full.scheduler(), "dwt-opt");
        assert_eq!(Some(full.cost()), DwtOpt.min_cost(&g, budget).ok());
        let replay =
            validate_schedule(g.cdag(), budget, full.schedule().expect("full answer")).unwrap();
        assert_eq!(replay.cost, full.cost());

        let cost_only = execute(
            &pebblyn_core::ScheduleRequest::new(&g, budget, "dwt-opt").with_cost_only(true),
        )
        .unwrap();
        assert_eq!(cost_only.cost(), full.cost());
        assert!(cost_only.schedule().is_none());

        match execute(&pebblyn_core::ScheduleRequest::new(&g, budget, "no-such")) {
            Err(ExecuteError::UnknownScheduler { requested, valid }) => {
                assert_eq!(requested, "no-such");
                assert_eq!(valid.len(), registry().len());
                assert!(valid.contains(&"naive"));
            }
            other => panic!("expected UnknownScheduler, got {other:?}"),
        }
    }

    /// `execute_with` surfaces scheduler declines as typed errors and
    /// validates full answers before reporting their cost.
    #[test]
    fn execute_with_validates_and_propagates_errors() {
        let g = AnyGraph::custom("diamond", testgraphs::diamond(WeightScheme::Equal(8)));
        let budget = 4 * g.cdag().total_weight();
        let req = pebblyn_core::ScheduleRequest::new(&g, budget, "ignored");
        assert_eq!(
            execute_with(&DwtOpt, &req).unwrap_err(),
            ScheduleError::Unsupported
        );
        let ok = execute_with(&Naive, &req).unwrap();
        assert_eq!(ok.scheduler(), "naive");
        assert_eq!(Some(ok.cost()), Naive.min_cost(&g, budget).ok());
    }
}
