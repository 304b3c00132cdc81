//! Tree scheduling under fast-memory *states* — Eq. (8), §4.1.
//!
//! `P_m(v, b, I, R)` is the minimum weighted cost of computing `v` when
//!
//! * the **initial state** `I` lists nodes already resident in fast memory
//!   (with blue copies in slow memory, so they are never recomputed), and
//! * the **reuse state** `R` lists nodes that must be resident in fast
//!   memory once `v` has been computed (and, per the paper's assumption,
//!   stay resident from the moment they are produced).
//!
//! Both sets are projected onto each subtree as `X_u = X ∩ (pred(u) ∪ {u})`;
//! the projections are what appear in the recursion's budget adjustments:
//! the parent computed *first* gives up budget for the other subtree's
//! initial-state nodes (they occupy fast memory the whole time), and the
//! parent computed *second* gives up budget for the first subtree's reuse
//! nodes (they must stay resident).  The paper writes Eq. (8) for `k = 2`
//! and notes the k-ary procedure extends; trees of any in-degree are
//! covered.
//!
//! This module is a front for the crate's one tree DP.  Beyond the cost
//! recursion ([`min_cost`]), [`plan`] emits the move sequence realising
//! `P_m` as a [`ContextSchedule`] — not a standalone WRBPG game (the
//! initial-state nodes carry red pebbles before the first move) but exactly
//! the building block §4.3 stitches into full tiling schedules; the test
//! suite performs that stitching on a real MVM graph and validates the
//! result with the ordinary validator.

use crate::dwt_opt::IoCosts;
use crate::stack::with_large_stack;
use crate::tree_dp::TreeDp;
use pebblyn_core::{Cdag, NodeId, Schedule, Weight};
use std::collections::BTreeSet;

/// User-provided initial and reuse fast-memory states.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStates {
    /// Nodes already resident in fast memory before the computation starts.
    pub initial: BTreeSet<NodeId>,
    /// Nodes that must be resident in fast memory after the computation.
    pub reuse: BTreeSet<NodeId>,
}

impl MemoryStates {
    /// The empty states: `P_m` then coincides with the plain tree DP.
    pub fn none() -> Self {
        Self::default()
    }

    /// Construct from iterators.
    pub fn new(
        initial: impl IntoIterator<Item = NodeId>,
        reuse: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        MemoryStates {
            initial: initial.into_iter().collect(),
            reuse: reuse.into_iter().collect(),
        }
    }
}

/// A context schedule produced by [`plan`]: a move sequence that computes
/// the subtree root *given* the initial state already resident.
///
/// It is not a standalone WRBPG game (the initial-state nodes carry red
/// pebbles before the first move), so it is checked by embedding it into a
/// larger schedule that establishes the context — exactly how §4.3 stitches
/// tile schedules together — and validating that with the ordinary
/// validator.
#[derive(Debug, Clone)]
pub struct ContextSchedule {
    /// The moves, starting from "initial-state nodes red, sources blue".
    pub schedule: Schedule,
    /// The DP-certified cost (equals the replayed M1/M2 weight).
    pub cost: Weight,
}

/// Generate a context schedule realising `P_m(root, budget, I, R)`, or
/// `None` when infeasible.
///
/// The schedule assumes every node of `states.initial` is already red
/// (with a blue copy) when it starts; on completion the root is red and
/// every node of `states.reuse` (projected onto the tree) is red.
pub fn plan(tree: &Cdag, budget: Weight, states: &MemoryStates) -> Option<ContextSchedule> {
    assert!(tree.is_in_tree(), "memory-state DP requires an in-tree");
    let root = tree.sinks()[0];
    with_large_stack(|| {
        let mut dp = TreeDp::new(tree, IoCosts::default(), states);
        let cost = dp.cost(root, budget)?;
        let mut moves = Vec::new();
        dp.emit(root, budget, &mut moves);
        Some(ContextSchedule {
            schedule: Schedule::from_moves(moves),
            cost,
        })
    })
}

/// Minimum weighted cost of computing the tree's root under `budget` with
/// the given memory-state semantics, or `None` when infeasible.
///
/// With `states = MemoryStates::none()` this equals the k-ary tree optimum
/// *without* the final root store: the stopping condition used by Eq. (8),
/// like Eq. (2), is "root red".
pub fn min_cost(tree: &Cdag, budget: Weight, states: &MemoryStates) -> Option<Weight> {
    assert!(tree.is_in_tree(), "memory-state DP requires an in-tree");
    let root = tree.sinks()[0];
    min_cost_for(tree, root, budget, states)
}

/// As [`min_cost`] but for an arbitrary subtree root `v`.
pub fn min_cost_for(
    tree: &Cdag,
    v: NodeId,
    budget: Weight,
    states: &MemoryStates,
) -> Option<Weight> {
    with_large_stack(|| TreeDp::new(tree, IoCosts::default(), states).cost(v, budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kary;
    use pebblyn_core::{min_feasible_budget, Move, Schedule};
    use pebblyn_graphs::tree::{caterpillar, full_kary};
    use pebblyn_graphs::WeightScheme;

    /// Without states, P_m must match the literal Eq. (6) enumeration
    /// minus the final root store (Eq. (8) stops at "root red").
    #[test]
    fn empty_states_match_kary() {
        for tree in [
            full_kary(2, 2, WeightScheme::Equal(3)).unwrap(),
            full_kary(2, 3, WeightScheme::DoubleAccumulator(2)).unwrap(),
            caterpillar(5, WeightScheme::Equal(2)).unwrap(),
        ] {
            let root = tree.sinks()[0];
            let minb = min_feasible_budget(&tree);
            for b in [minb, minb + 2, minb + 7, tree.total_weight()] {
                let pm = min_cost(&tree, b, &MemoryStates::none());
                let kt = kary::min_cost_bruteforce(&tree, b).map(|c| c - tree.weight(root));
                assert_eq!(pm, kt, "budget {b}");
            }
        }
    }

    #[test]
    fn initial_root_is_free_except_reuse() {
        let tree = full_kary(2, 2, WeightScheme::Equal(4)).unwrap();
        let root = tree.sinks()[0];
        let states = MemoryStates::new([root], []);
        assert_eq!(min_cost(&tree, 100, &states), Some(0));
        // Reuse of a leaf not initially resident costs its load.
        let leaf = tree.sources()[0];
        let states = MemoryStates::new([root], [leaf]);
        assert_eq!(min_cost(&tree, 100, &states), Some(4));
    }

    #[test]
    fn initial_leaves_reduce_cost() {
        // x, y -> s: with x resident, only y needs loading.
        let tree = pebblyn_graphs::testgraphs::single_add(WeightScheme::Equal(16));
        let x = tree.sources()[0];
        let none = MemoryStates::none();
        let with_x = MemoryStates::new([x], []);
        let b = 48;
        assert_eq!(min_cost(&tree, b, &none), Some(32));
        assert_eq!(min_cost(&tree, b, &with_x), Some(16));
    }

    #[test]
    fn reuse_reserves_budget() {
        // Caterpillar with reuse of a leaf: budget must cover the held leaf
        // while the rest of the tree is computed.
        let tree = caterpillar(4, WeightScheme::Equal(1)).unwrap();
        let leaf = tree.sources()[3]; // consumed last
        let states = MemoryStates::new([], [leaf]);
        let none_cost = min_cost(&tree, 4, &MemoryStates::none());
        let reuse_cost = min_cost(&tree, 4, &states);
        // Keeping the leaf resident cannot make the schedule cheaper, and at
        // a tight budget it may force spills.
        assert!(reuse_cost >= none_cost);
    }

    #[test]
    fn infeasible_when_reuse_exceeds_budget() {
        let tree = full_kary(2, 2, WeightScheme::Equal(10)).unwrap();
        let leaves = tree.sources();
        let states = MemoryStates::new([], leaves.iter().copied().take(3));
        // 3 held leaves (30) + root and parents don't fit in 35.
        assert_eq!(min_cost(&tree, 35, &states), None);
        assert!(min_cost(&tree, 100, &states).is_some());
    }

    /// The k-ary generalisation with empty states matches the literal
    /// Eq. (6) enumeration on trees of any arity.
    #[test]
    fn kary_empty_states_match_eq6() {
        for tree in [
            full_kary(3, 2, WeightScheme::Equal(3)).unwrap(),
            full_kary(4, 1, WeightScheme::DoubleAccumulator(2)).unwrap(),
            full_kary(
                3,
                2,
                WeightScheme::Custom {
                    input: 2,
                    compute: 5,
                },
            )
            .unwrap(),
        ] {
            let root = tree.sinks()[0];
            let minb = min_feasible_budget(&tree);
            for b in [minb, minb + 3, minb + 11, tree.total_weight()] {
                let pm = min_cost(&tree, b, &MemoryStates::none());
                let kt = kary::min_cost_bruteforce(&tree, b).map(|c| c - tree.weight(root));
                assert_eq!(pm, kt, "k-ary P_m vs Eq. (6) at budget {b}");
            }
        }
    }

    /// Initial leaves reduce a ternary tree's cost by exactly their loads.
    #[test]
    fn kary_initial_leaves_reduce_cost() {
        let tree = full_kary(3, 1, WeightScheme::Equal(4)).unwrap();
        let leaves = tree.sources();
        let b = tree.total_weight();
        let base = min_cost(&tree, b, &MemoryStates::none()).unwrap();
        for taken in 1..=3 {
            let states = MemoryStates::new(leaves.iter().copied().take(taken), []);
            let cost = min_cost(&tree, b, &states).unwrap();
            assert_eq!(cost, base - 4 * taken as Weight);
        }
    }

    /// Reuse states reserve budget in the k-ary case too: holding two
    /// leaves of a ternary join forces infeasibility at a tight budget.
    #[test]
    fn kary_reuse_reserves_budget() {
        let tree = full_kary(3, 1, WeightScheme::Equal(10)).unwrap();
        let leaves = tree.sources();
        // minimum feasible = 3 leaves + root = 40.
        assert_eq!(min_feasible_budget(&tree), 40);
        let states = MemoryStates::new([], leaves.iter().copied().take(2));
        // R ∪ H ∪ {v} still 40 — feasible at exactly 40, like the plain DP.
        assert!(min_cost(&tree, 40, &states).is_some());
        assert!(min_cost(&tree, 39, &states).is_none());
    }

    /// Embed a context schedule in a full game: load each initial-state
    /// leaf, play the context moves, store the root, then delete each reuse
    /// node, which the validator rejects unless the node is still red.
    /// Returns the replayed cost minus those loads and the root store.
    fn replay_in_full_game(
        tree: &Cdag,
        budget: Weight,
        states: &MemoryStates,
        ctx: &ContextSchedule,
    ) -> Weight {
        let root = tree.sinks()[0];
        let moves: Vec<Move> = states
            .initial
            .iter()
            .map(|&v| Move::Load(v))
            .chain(ctx.schedule.iter())
            .chain([Move::Store(root)])
            .chain(states.reuse.iter().map(|&v| Move::Delete(v)))
            .collect();
        let stats = pebblyn_core::validate_schedule(tree, budget, &Schedule::from_moves(moves))
            .unwrap_or_else(|e| panic!("budget {budget}, states {states:?}: {e}"));
        let setup: Weight = states.initial.iter().map(|&v| tree.weight(v)).sum();
        stats.cost - setup - tree.weight(root)
    }

    /// The planner's cost always equals the cost-only DP, and its emitted
    /// context schedule, embedded in a full game, replays to the same cost
    /// — on a binary and a ternary tree.
    #[test]
    fn plans_match_costs_and_validate() {
        for tree in [
            full_kary(2, 3, WeightScheme::DoubleAccumulator(2)).unwrap(),
            full_kary(3, 2, WeightScheme::Equal(3)).unwrap(),
        ] {
            let leaves = tree.sources();
            let cases = [
                MemoryStates::none(),
                MemoryStates::new(leaves.iter().copied().take(2), []),
                MemoryStates::new(
                    leaves.iter().copied().take(1),
                    leaves.iter().copied().take(1),
                ),
                MemoryStates::new([], leaves.iter().copied().take(2)),
                MemoryStates::new(leaves.iter().copied().skip(1).take(3), leaves[..2].to_vec()),
            ];
            let minb = min_feasible_budget(&tree);
            for states in &cases {
                for b in [minb, minb + 4, minb + 10, tree.total_weight()] {
                    let cost = min_cost(&tree, b, states);
                    let ctx = plan(&tree, b, states);
                    assert_eq!(cost, ctx.as_ref().map(|c| c.cost), "budget {b}");
                    if let Some(ctx) = ctx {
                        assert_eq!(replay_in_full_game(&tree, b, states, &ctx), ctx.cost);
                    }
                }
            }
        }
    }

    /// §4.3 end to end: tile schedules generated *by the memory-state DP*
    /// stitch into a complete, validator-approved MVM schedule whose cost
    /// matches the hand-built tiling scheduler.
    #[test]
    fn pm_generated_tiles_stitch_into_full_mvm_schedule() {
        use crate::mvm_tiling::{self, TilingConfig};
        use pebblyn_graphs::MvmGraph;

        let scheme = WeightScheme::DoubleAccumulator(16);
        let (m, n) = (5usize, 4usize);
        let mvm = MvmGraph::new(m, n, scheme).unwrap();
        let g = mvm.cdag();

        // Build one row's in-tree with node ids remembered so the context
        // schedule can be remapped onto the real MVM graph.
        fn row_tree(
            mvm: &MvmGraph,
            r: usize,
            n: usize,
            scheme: WeightScheme,
        ) -> (Cdag, Vec<NodeId>, Vec<NodeId>) {
            let mut b = pebblyn_core::CdagBuilder::new();
            let mut map: Vec<NodeId> = Vec::new();
            fn node(
                b: &mut pebblyn_core::CdagBuilder,
                map: &mut Vec<NodeId>,
                orig: NodeId,
                w: Weight,
            ) -> NodeId {
                map.push(orig);
                b.node(w, format!("{orig}"))
            }
            let w_in = scheme.input_weight();
            let w_c = scheme.compute_weight();
            let mut acc = None;
            let mut vector_local = Vec::new();
            for c in 1..=n {
                let x = node(&mut b, &mut map, mvm.vector(c), w_in);
                vector_local.push(x);
                let a = node(&mut b, &mut map, mvm.matrix(r, c), w_in);
                let p = node(&mut b, &mut map, mvm.product(r, c), w_c);
                b.edge(x, p);
                b.edge(a, p);
                acc = Some(match acc {
                    None => p,
                    Some(prev) => {
                        let s = node(&mut b, &mut map, mvm.partial(r, c), w_c);
                        b.edge(prev, s);
                        b.edge(p, s);
                        s
                    }
                });
            }
            (b.build().unwrap(), map, vector_local)
        }

        // The stitched schedule: load the vector once; per row, emit the
        // P_m plan with I = R = vector, then store/evict the output.
        let mut stitched: Vec<Move> = (1..=n).map(|c| Move::Load(mvm.vector(c))).collect();
        let budget = mvm_tiling::config_peak(&mvm, &TilingConfig::new(1, n, n));
        for r in 1..=m {
            let (tree, map, vector_local) = row_tree(&mvm, r, n, scheme);
            let states = MemoryStates::new(vector_local.clone(), vector_local);
            let ctx = plan(&tree, budget, &states).expect("tile plan exists");
            let remapped = ctx.schedule.map_nodes(|v| map[v.index()]);
            stitched.extend(remapped.iter());
            stitched.push(Move::Store(mvm.output(r)));
            stitched.push(Move::Delete(mvm.output(r)));
        }
        for c in 1..=n {
            stitched.push(Move::Delete(mvm.vector(c)));
        }
        let stitched = Schedule::from_moves(stitched);

        // The stitched whole is a plain valid WRBPG schedule on the real
        // MVM graph, with the tiling scheduler's exact cost.
        let stats = pebblyn_core::validate_schedule(g, budget, &stitched)
            .unwrap_or_else(|e| panic!("stitched schedule invalid: {e}"));
        let reference = mvm_tiling::config_cost(&mvm, &TilingConfig::new(1, n, n));
        assert_eq!(stats.cost, reference);
        assert_eq!(stats.cost, pebblyn_core::algorithmic_lower_bound(g));
    }

    /// Cross-check against a hand-built schedule: MVM-style tile step where
    /// the vector entry is initially resident and stays resident (reuse).
    #[test]
    fn resident_operand_costs_only_the_streamed_side() {
        // a (matrix entry), x (vector) -> p; x initially resident + reused.
        let mut b = pebblyn_core::CdagBuilder::new();
        let x = b.node(16, "x");
        let a = b.node(16, "a");
        let p = b.node(32, "p");
        b.edge(x, p);
        b.edge(a, p);
        let tree = b.build().unwrap();
        let states = MemoryStates::new([x], [x]);
        // Only `a` must be loaded: cost 16.
        assert_eq!(min_cost(&tree, 64, &states), Some(16));
        // Sanity: the corresponding real schedule (x already red is emulated
        // by loading it first, outside the measured window).
        let sched = Schedule::from_moves(vec![Move::Load(x), Move::Load(a), Move::Compute(p)]);
        let stats = pebblyn_core::validate_schedule(
            &{
                // p is a sink; bypass stopping condition by storing it.
                tree.clone()
            },
            64,
            &Schedule::from_moves(sched.iter().chain([Move::Store(p)]).collect::<Vec<_>>()),
        )
        .unwrap();
        assert_eq!(stats.cost - 16 /* x load */ - 32 /* p store */, 16);
    }
}
