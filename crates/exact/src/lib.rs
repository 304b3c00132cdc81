//! # pebblyn-exact — bound-guided optimal WRBPG solver
//!
//! Computing optimal red-blue pebbling schedules for arbitrary CDAGs is
//! PSPACE-hard, but for *small* graphs the full game-state space fits in
//! memory.  This crate finds the provably minimum weighted schedule cost —
//! and on request the schedule itself — with best-first **A\*** search over
//! complete game snapshots, guided by the admissible per-state lower bound
//! of [`pebblyn_core::StateBounds`] and pruned four ways:
//!
//! * **heuristic guidance** — each state is queued at `f = g + h` where `h`
//!   lower-bounds the remaining cost (unavoidable sink stores and source
//!   loads, forced-reload chains, budget-cut landmarks and a pattern
//!   database), so expansion concentrates on states that can still beat
//!   the incumbent;
//! * **dominance pruning** — a state is discarded when a recorded state with
//!   a red superset, the same blue set, and strictly smaller cost exists
//!   (deletes are free, so the dominator can reach anything the dominated
//!   state can, strictly cheaper);
//! * **successor tightening** — schedule-normalization arguments fuse every
//!   load block with the compute that consumes it and every store with the
//!   compute that creates it, and admit deletes only when the budget
//!   actually blocks a load/compute, collapsing vast equivalent-interleaving
//!   plateaus of the raw four-move game;
//! * **symmetry reduction** — structurally interchangeable *twin* nodes
//!   (identical predecessor and successor sets, hence equal weights:
//!   automorphism orbits found by [`pebblyn_core::twin_classes`]) and the
//!   orbits of certified automorphism generators are collapsed by
//!   rewriting every generated state to a canonical form, so states that
//!   differ only by which twin holds a pebble are searched once.
//!
//! The search is a plain serial A\*: it pops the single best open entry,
//! expands it on the calling thread and merges its successors before the
//! next pop, so results (costs, schedules, and every statistic) are a pure
//! function of the graph, the budget and the configuration.
//! [`ExactSolver::dijkstra_baseline`] turns all of the above off at once —
//! uniform-cost Dijkstra over the raw four-move game — and is the
//! independent oracle the conformance tests certify the A\* against.
//!
//! Its purpose in this workspace is **certification**: property tests assert
//! that the dataflow-specific dynamic programs of `pebblyn-schedulers`
//! (Algorithm 1, Eq. 6, Eq. 8) match this solver exactly on every small
//! instance, which is the strongest practical evidence that the DPs
//! implement the paper's optimality lemmas correctly.
//!
//! States are a pair of fixed-width bitsets (`red`, `blue`), one bit per
//! node, generic over [`StateMask`]: graphs of ≤ 64 nodes run on bare
//! `u64`s (byte-for-byte the historical fast path), wider graphs are
//! dispatched to const-generic [`Words`] masks up to [`MAX_NODES`] = 256
//! nodes, beyond which the solver returns a typed
//! [`ExactError::Unsupported`].  Hashing a state is a handful of word
//! multiplies, the weighted red occupancy is carried incrementally with
//! each queue entry, and the "all predecessors red" rule is a mask compare
//! against a precomputed per-node predecessor bitmask.  Path costs are
//! checked: a path whose cost no `u64` can hold leaves the search, and a
//! search left with no other path fails with [`ExactError::WeightOverflow`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dominance;
mod search;

use pebblyn_core::{Cdag, Schedule, Weight};
pub use pebblyn_core::{StateMask, Words};

/// Widest graph the built-in mask dispatch supports (`Words<4>`).
///
/// [`ExactSolver::solve_with_mask`] accepts any sealed mask width, but the
/// automatic dispatch in [`ExactSolver::solve`] stops here.
pub const MAX_NODES: usize = 256;

/// Error: the search was about to exceed its state budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLimitExceeded {
    /// The configured maximum number of expanded states.
    pub max_states: usize,
    /// States actually expanded before giving up (the cap is checked before
    /// each expansion, so this never overshoots `max_states`).
    pub states_expanded: usize,
}

impl std::fmt::Display for StateLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exact search hit its state cap ({} of max {} states expanded)",
            self.states_expanded, self.max_states
        )
    }
}

impl std::error::Error for StateLimitExceeded {}

/// Why an exact solve could not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactError {
    /// The graph is wider than the widest state mask the solver (or the
    /// explicitly requested mask) can represent.  The message names the
    /// limit so callers can tell a representational limit from a resource
    /// one.
    Unsupported {
        /// Node count of the offending graph.
        nodes: usize,
        /// Widest node count the attempted configuration supports.
        limit: usize,
    },
    /// The search ran but exceeded its expansion cap.
    StateLimit(StateLimitExceeded),
    /// Every remaining schedule costs more than a `u64` weight can hold:
    /// the search dropped at least one path whose cost overflowed, and the
    /// open list drained without reaching the goal.
    WeightOverflow {
        /// States expanded before the open list drained.
        states_expanded: usize,
    },
}

impl std::fmt::Display for ExactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExactError::Unsupported { nodes, limit } => write!(
                f,
                "graph has {nodes} nodes but the exact solver's state mask \
                 covers at most {limit}; split the instance or use a \
                 heuristic scheduler"
            ),
            ExactError::StateLimit(e) => e.fmt(f),
            ExactError::WeightOverflow { states_expanded } => write!(
                f,
                "no schedule's cost fits in a u64 weight: the exact search \
                 dropped every path whose cost overflowed ({states_expanded} \
                 states expanded); scale the weights or I/O prices down"
            ),
        }
    }
}

impl std::error::Error for ExactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExactError::StateLimit(e) => Some(e),
            ExactError::Unsupported { .. } | ExactError::WeightOverflow { .. } => None,
        }
    }
}

impl ExactError {
    /// States the failed search actually expanded before erroring: the cap
    /// for [`ExactError::StateLimit`], the full count for
    /// [`ExactError::WeightOverflow`], and 0 for
    /// [`ExactError::Unsupported`], which rejects before searching.  Lets
    /// accounting callers (the conformance report keeps its state total
    /// equal to the telemetry counter) treat every arm uniformly.
    pub fn states_expanded(&self) -> usize {
        match self {
            ExactError::StateLimit(e) => e.states_expanded,
            ExactError::WeightOverflow { states_expanded } => *states_expanded,
            ExactError::Unsupported { .. } => 0,
        }
    }
}

impl From<StateLimitExceeded> for ExactError {
    fn from(e: StateLimitExceeded) -> Self {
        ExactError::StateLimit(e)
    }
}

/// Counters describing one search run; all deterministic for a fixed
/// solver configuration, graph, and budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// States popped from the open list and expanded.
    pub expanded: usize,
    /// Successor states generated (before dedup/dominance filtering).
    pub generated: usize,
    /// States discarded by dominance pruning (at generation or expansion).
    pub dominated: usize,
    /// Generated successors rejected because a path at least as cheap was
    /// already known.
    pub deduped: usize,
    /// Generated successors rewritten to a different twin-orbit canonical
    /// state by symmetry reduction (each rewrite merges an orbit sibling
    /// into its representative).
    pub symmetry_pruned: usize,
    /// Largest open-list size observed after an expansion's merge.
    pub peak_open: usize,
    /// Largest Pareto-antichain size of the dominance store.
    pub dominance_entries: usize,
    /// Open-list entries still queued when the goal was settled.
    pub frontier_left: usize,
    /// Reopenings: states expanded again after a strictly cheaper path to
    /// them was found, which only an inconsistent bound allows.  Counted
    /// when the state's new dominance record evicts its own earlier one, so
    /// a reopened state whose earlier record a dominating state already
    /// evicted is missed.  A subset of `expanded`; zero for the Dijkstra
    /// baseline.
    pub re_expanded: usize,
    /// The admissible lower bound evaluated at the start state.
    pub root_bound: Weight,
    /// 64-bit words per state mask this solve ran with (1 = u64 fast path).
    pub mask_words: usize,
}

/// A finished search: the optimal cost (`None` when no schedule exists
/// under the budget), the reconstructed schedule when requested, and the
/// run's [`SearchStats`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Minimum weighted schedule cost, or `None` when the budget admits no
    /// valid schedule.
    pub cost: Option<Weight>,
    /// The optimal schedule, present iff reconstruction was requested and
    /// the instance is feasible.
    pub schedule: Option<Schedule>,
    /// Search counters.
    pub stats: SearchStats,
}

/// Which search an [`ExactSolver`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Bound-guided A\*: landmark-pdb bound, dominance pruning, macro
    /// moves, twin + certified-WL symmetry.
    AStar,
    /// Uniform-cost Dijkstra over the raw four-move game, nothing pruned.
    Dijkstra,
}

/// Exhaustive solver configuration: the bound-guided A\*
/// ([`ExactSolver::default`]) or its Dijkstra oracle
/// ([`ExactSolver::dijkstra_baseline`]), with a state cap and I/O prices.
#[derive(Clone, Copy, Debug)]
pub struct ExactSolver {
    /// Maximum number of states to expand before giving up (checked before
    /// each expansion).
    pub max_states: usize,
    /// Cost per bit of an M1 (load) move.
    pub load_scale: Weight,
    /// Cost per bit of an M2 (store) move.
    pub store_scale: Weight,
    mode: Mode,
}

impl Default for ExactSolver {
    /// The bound-guided A\*.  Symmetry reduction is suspended while a
    /// schedule is reconstructed (canonical states lose the concrete move
    /// identities a replayable schedule needs); cost-only solves keep it.
    fn default() -> Self {
        ExactSolver {
            max_states: 5_000_000,
            load_scale: 1,
            store_scale: 1,
            mode: Mode::AStar,
        }
    }
}

impl ExactSolver {
    /// Create a solver with an explicit state cap.
    pub fn with_max_states(max_states: usize) -> Self {
        ExactSolver {
            max_states,
            ..Default::default()
        }
    }

    /// Use asymmetric per-bit I/O costs (loads × `load`, stores × `store`).
    pub fn with_io_scales(mut self, load: Weight, store: Weight) -> Self {
        self.load_scale = load;
        self.store_scale = store;
        self
    }

    /// The uniform-cost Dijkstra the A\* replaced: no heuristic, no
    /// dominance, raw four-move successors, no symmetry reduction.  The
    /// differential oracle certifying the A\*.
    pub fn dijkstra_baseline() -> Self {
        ExactSolver {
            mode: Mode::Dijkstra,
            ..Default::default()
        }
    }

    /// Whether this solver runs the bound-guided A\* (not the baseline).
    fn is_astar(&self) -> bool {
        self.mode == Mode::AStar
    }

    /// Minimum weighted schedule cost for `graph` under `budget`, or
    /// `Ok(None)` when no valid schedule exists.
    pub fn min_cost(&self, graph: &Cdag, budget: Weight) -> Result<Option<Weight>, ExactError> {
        self.solve(graph, budget).map(|s| s.cost)
    }

    /// A provably optimal schedule, or `Ok(None)` when no valid schedule
    /// exists.
    pub fn optimal_schedule(
        &self,
        graph: &Cdag,
        budget: Weight,
    ) -> Result<Option<(Weight, Schedule)>, ExactError> {
        let sol = self.solve_with_schedule(graph, budget)?;
        Ok(sol.cost.map(|c| {
            (
                c,
                sol.schedule
                    .expect("feasible solve_with_schedule has a schedule"),
            )
        }))
    }

    /// Run the search and return cost + statistics (no schedule
    /// reconstruction, so the parent map is never built).
    ///
    /// Dispatches to the narrowest mask that fits the graph: bare `u64` up
    /// to 64 nodes (the zero-cost fast path), then `Words<2>` and
    /// `Words<4>`; graphs wider than [`MAX_NODES`] get
    /// [`ExactError::Unsupported`].
    pub fn solve(&self, graph: &Cdag, budget: Weight) -> Result<Solution, ExactError> {
        self.dispatch(graph, budget, false)
    }

    /// Run the search with schedule reconstruction (same mask dispatch as
    /// [`ExactSolver::solve`]).
    pub fn solve_with_schedule(
        &self,
        graph: &Cdag,
        budget: Weight,
    ) -> Result<Solution, ExactError> {
        self.dispatch(graph, budget, true)
    }

    /// Run the search with an explicitly chosen mask width (cost only).
    ///
    /// Exists for width-equivalence testing and benchmarking: a graph of
    /// ≤ 64 nodes solved via `Words<2>` must produce the same cost, the
    /// same schedule, and the same search trajectory as the `u64` fast
    /// path.  Errors with [`ExactError::Unsupported`] naming `M::BITS` when
    /// the graph does not fit the requested mask.
    pub fn solve_with_mask<M: StateMask>(
        &self,
        graph: &Cdag,
        budget: Weight,
    ) -> Result<Solution, ExactError> {
        if graph.len() > M::BITS {
            return Err(ExactError::Unsupported {
                nodes: graph.len(),
                limit: M::BITS,
            });
        }
        search::search::<M>(self, graph, budget, false)
    }

    /// Run the search with an explicitly chosen mask width, reconstructing
    /// the schedule (see [`ExactSolver::solve_with_mask`]).
    pub fn solve_with_schedule_and_mask<M: StateMask>(
        &self,
        graph: &Cdag,
        budget: Weight,
    ) -> Result<Solution, ExactError> {
        if graph.len() > M::BITS {
            return Err(ExactError::Unsupported {
                nodes: graph.len(),
                limit: M::BITS,
            });
        }
        search::search::<M>(self, graph, budget, true)
    }

    fn dispatch(
        &self,
        graph: &Cdag,
        budget: Weight,
        reconstruct: bool,
    ) -> Result<Solution, ExactError> {
        let n = graph.len();
        if n <= 64 {
            search::search::<u64>(self, graph, budget, reconstruct)
        } else if n <= 128 {
            search::search::<Words<2>>(self, graph, budget, reconstruct)
        } else if n <= MAX_NODES {
            search::search::<Words<4>>(self, graph, budget, reconstruct)
        } else {
            Err(ExactError::Unsupported {
                nodes: n,
                limit: MAX_NODES,
            })
        }
    }
}

/// Convenience wrapper: minimum cost with the default state cap.
pub fn exact_min_cost(graph: &Cdag, budget: Weight) -> Option<Weight> {
    ExactSolver::default()
        .min_cost(graph, budget)
        .expect("exact search failed; use ExactSolver for control")
}

/// Convenience wrapper: an optimal schedule with the default state cap.
pub fn exact_optimal_schedule(graph: &Cdag, budget: Weight) -> Option<(Weight, Schedule)> {
    ExactSolver::default()
        .optimal_schedule(graph, budget)
        .expect("exact search failed; use ExactSolver for control")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{validate_schedule, CdagBuilder};

    /// Both solver configurations: the default A\* and its Dijkstra oracle.
    fn all_configs() -> Vec<ExactSolver> {
        vec![ExactSolver::default(), ExactSolver::dijkstra_baseline()]
    }

    /// x, y -> s
    fn add_graph() -> Cdag {
        let mut b = CdagBuilder::new();
        let x = b.node(16, "x");
        let y = b.node(16, "y");
        let s = b.node(32, "s");
        b.edge(x, s);
        b.edge(y, s);
        b.build().unwrap()
    }

    #[test]
    fn single_add_is_lower_bound_tight() {
        let g = add_graph();
        // Tight budget: exactly the parent closure.
        let (cost, sched) = exact_optimal_schedule(&g, 64).unwrap();
        assert_eq!(cost, 16 + 16 + 32);
        let stats = validate_schedule(&g, 64, &sched).unwrap();
        assert_eq!(stats.cost, cost);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let g = add_graph();
        for solver in all_configs() {
            assert_eq!(solver.min_cost(&g, 63).unwrap(), None);
        }
    }

    #[test]
    fn chain_cost_is_ends_only() {
        // x -> a -> b : inputs loaded once, output stored once, interior free.
        let mut bld = CdagBuilder::new();
        let x = bld.node(16, "x");
        let a = bld.node(16, "a");
        let b2 = bld.node(16, "b");
        bld.edge(x, a);
        bld.edge(a, b2);
        let g = bld.build().unwrap();
        for solver in all_configs() {
            assert_eq!(solver.min_cost(&g, 32).unwrap(), Some(32));
        }
    }

    #[test]
    fn tight_budget_forces_spills() {
        // Full binary tree with 4 leaves, uniform weight 1.
        // With 3 red pebbles a binary tree of depth 2 pebbles with no spill:
        // cost = 4 loads + 1 store = 5.
        let mut b = CdagBuilder::new();
        let l: Vec<_> = (0..4).map(|i| b.node(1, format!("l{i}"))).collect();
        let i0 = b.node(1, "i0");
        let i1 = b.node(1, "i1");
        let r = b.node(1, "r");
        b.edge(l[0], i0);
        b.edge(l[1], i0);
        b.edge(l[2], i1);
        b.edge(l[3], i1);
        b.edge(i0, r);
        b.edge(i1, r);
        let g = b.build().unwrap();
        for solver in all_configs() {
            assert_eq!(solver.min_cost(&g, 4).unwrap(), Some(5));
            // Budget 3 = minimum feasible: i0 must be spilled and reloaded.
            assert_eq!(solver.min_cost(&g, 3).unwrap(), Some(7));
            assert_eq!(solver.min_cost(&g, 2).unwrap(), None);
        }
    }

    #[test]
    fn reuse_is_found() {
        // diamond: b feeds both c and d; optimal keeps b red.
        let mut bld = CdagBuilder::new();
        let a = bld.node(1, "a");
        let b = bld.node(1, "b");
        let c = bld.node(1, "c");
        let d = bld.node(1, "d");
        let e = bld.node(1, "e");
        bld.edge(a, c);
        bld.edge(b, c);
        bld.edge(b, d);
        bld.edge(c, e);
        bld.edge(d, e);
        let g = bld.build().unwrap();
        // Budget 3: load a, b; compute c; delete a; compute d; delete b;
        // compute e; store e.  Cost = 2 loads + 1 store = 3.
        for solver in all_configs() {
            assert_eq!(solver.min_cost(&g, 3).unwrap(), Some(3));
        }
    }

    #[test]
    fn schedule_reconstruction_is_valid() {
        let g = add_graph();
        for solver in all_configs() {
            let (cost, sched) = solver.optimal_schedule(&g, 100).unwrap().unwrap();
            let stats = validate_schedule(&g, 100, &sched).unwrap();
            assert_eq!(stats.cost, cost);
        }
    }

    #[test]
    fn state_cap_is_enforced_before_expansion() {
        let g = add_graph();
        // A zero-state cap refuses to expand even the start state…
        let err = ExactSolver::with_max_states(0)
            .min_cost(&g, 64)
            .unwrap_err();
        let ExactError::StateLimit(err) = err else {
            panic!("expected a state-limit error, got {err:?}");
        };
        assert_eq!(err.max_states, 0);
        assert_eq!(err.states_expanded, 0, "cap must trigger before expanding");
        // …and the baseline (which cannot reach the goal in one expansion)
        // reports exactly the cap, never cap+1 as the pre-rewrite solver did.
        let one = ExactSolver {
            max_states: 1,
            ..ExactSolver::dijkstra_baseline()
        };
        let err = one.min_cost(&g, 64).unwrap_err();
        let ExactError::StateLimit(err) = err else {
            panic!("expected a state-limit error, got {err:?}");
        };
        assert_eq!(err.max_states, 1);
        assert_eq!(err.states_expanded, 1);
    }

    #[test]
    fn weighted_asymmetry_changes_strategy() {
        // Two children share a heavy parent: with a tight budget the solver
        // must discover the cheaper spill order.
        let mut bld = CdagBuilder::new();
        let h = bld.node(10, "heavy");
        let l = bld.node(1, "light");
        let c1 = bld.node(1, "c1");
        let c2 = bld.node(1, "c2");
        bld.edge(h, c1);
        bld.edge(l, c1);
        bld.edge(h, c2);
        bld.edge(c1, c2);
        let g = bld.build().unwrap();
        // Budget 12: h + l + c1 = 12 ok; then c2 needs h + c1 + c2 = 12 ok
        // (delete l). Cost = 10 + 1 (loads) + 1 (store c2)... c1 is interior.
        for solver in all_configs() {
            assert_eq!(solver.min_cost(&g, 12).unwrap(), Some(12));
        }
    }

    #[test]
    fn io_scales_apply_to_all_configs() {
        let g = add_graph();
        for solver in all_configs() {
            let solver = solver.with_io_scales(3, 5);
            // 3×(16+16) loads + 5×32 store.
            assert_eq!(solver.min_cost(&g, 64).unwrap(), Some(3 * 32 + 5 * 32));
        }
    }

    #[test]
    fn stats_reflect_pruning() {
        let g = add_graph();
        let fast = ExactSolver::default().solve(&g, 64).unwrap();
        let slow = ExactSolver::dijkstra_baseline().solve(&g, 64).unwrap();
        assert_eq!(fast.cost, slow.cost);
        assert!(fast.stats.expanded <= slow.stats.expanded);
        assert!(fast.stats.root_bound > 0, "A* start state has a bound");
        assert_eq!(slow.stats.root_bound, 0, "Dijkstra has no bound");
        assert!(slow.stats.generated > 0 && fast.stats.generated > 0);
        assert_eq!(fast.stats.mask_words, 1, "small graph uses the u64 path");
    }

    #[test]
    fn repeated_solves_are_identical() {
        // The open list's (f, −g, state) order is total, so a repeat solve
        // takes the same trajectory: same cost, stats and schedule.
        let g = add_graph();
        let a = ExactSolver::default().solve_with_schedule(&g, 64).unwrap();
        let b = ExactSolver::default().solve_with_schedule(&g, 64).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.schedule.as_ref().map(|s| s.moves().to_vec()),
            b.schedule.as_ref().map(|s| s.moves().to_vec())
        );
    }

    /// Chain of `n` unit-weight nodes.
    fn chain(n: usize) -> Cdag {
        let mut b = CdagBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| b.node(1, format!("n{i}"))).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn graphs_past_64_nodes_dispatch_to_wide_masks() {
        // A 70-node chain crosses the old u64 wall; interior nodes are free,
        // so the optimal cost is load(head) + store(tail) = 2.
        let g = chain(70);
        let sol = ExactSolver::default().solve(&g, 2).unwrap();
        assert_eq!(sol.cost, Some(2));
        assert_eq!(sol.stats.mask_words, 2, "70 nodes need Words<2>");
        let (cost, sched) = ExactSolver::default()
            .optimal_schedule(&g, 2)
            .unwrap()
            .unwrap();
        assert_eq!(cost, 2);
        assert_eq!(validate_schedule(&g, 2, &sched).unwrap().cost, 2);
    }

    #[test]
    fn forced_wide_mask_matches_u64_fast_path_exactly() {
        let g = add_graph();
        let solver = ExactSolver::default();
        let narrow = solver.solve_with_schedule_and_mask::<u64>(&g, 64).unwrap();
        let wide = solver
            .solve_with_schedule_and_mask::<Words<2>>(&g, 64)
            .unwrap();
        assert_eq!(narrow.cost, wide.cost);
        assert_eq!(
            narrow.schedule.as_ref().map(|s| s.moves().to_vec()),
            wide.schedule.as_ref().map(|s| s.moves().to_vec()),
            "shared-width runs must take the identical search trajectory"
        );
        assert_eq!(narrow.stats.expanded, wide.stats.expanded);
        assert_eq!(narrow.stats.generated, wide.stats.generated);
    }

    #[test]
    fn too_wide_graphs_get_a_typed_unsupported_error() {
        let g = chain(MAX_NODES + 1);
        let err = ExactSolver::default().solve(&g, 3).unwrap_err();
        assert_eq!(
            err,
            ExactError::Unsupported {
                nodes: MAX_NODES + 1,
                limit: MAX_NODES
            }
        );
        assert!(err.to_string().contains("at most 256"), "names the limit");
        // Width-forcing APIs name the *requested* mask's limit instead.
        let err = ExactSolver::default()
            .solve_with_mask::<u64>(&chain(70), 2)
            .unwrap_err();
        assert_eq!(
            err,
            ExactError::Unsupported {
                nodes: 70,
                limit: 64
            }
        );
    }

    #[test]
    fn symmetry_reduction_preserves_cost_and_prunes_states() {
        // Chained diamonds a -> {b, c} -> d -> {e, f} -> g: each diamond's
        // midpoints are a twin orbit, so without reduction the search walks
        // both "computed b first" and "computed c first" state families.
        let mut b = CdagBuilder::new();
        let ids: Vec<_> = (0..7).map(|i| b.node(1, format!("n{i}"))).collect();
        for d in 0..2 {
            let (a, m1, m2, z) = (ids[3 * d], ids[3 * d + 1], ids[3 * d + 2], ids[3 * d + 3]);
            b.edge(a, m1);
            b.edge(a, m2);
            b.edge(m1, z);
            b.edge(m2, z);
        }
        let g = b.build().unwrap();
        // Reconstructing a schedule suspends symmetry reduction, so
        // `solve_with_schedule` is the same search with the reduction off.
        let on = ExactSolver::default().solve(&g, 3).unwrap();
        let off = ExactSolver::default().solve_with_schedule(&g, 3).unwrap();
        assert_eq!(on.cost, off.cost, "symmetry reduction never changes cost");
        assert!(on.cost.is_some());
        assert!(
            on.stats.expanded < off.stats.expanded,
            "orbit collapsing must shrink the reachable state space \
             ({} vs {})",
            on.stats.expanded,
            off.stats.expanded
        );
        assert!(on.stats.symmetry_pruned > 0);
        assert_eq!(off.stats.symmetry_pruned, 0);
    }
}
