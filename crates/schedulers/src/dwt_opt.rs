//! Optimal WRBPG schedule generation for DWT graphs — Algorithm 1 of the
//! paper (Lemmas 3.2–3.4, Theorem 3.5).
//!
//! The algorithm prunes each coefficient node (Lemma 3.2: a coefficient
//! shares both parents with its average sibling and weighs no more, so it
//! can be computed and stored "for free" right before the sibling), leaving
//! a forest of binary in-trees, and then runs the Eq. (2) dynamic program
//! over `(node, remaining budget)` states:
//!
//! ```text
//! P(v, b) = ∞                                        if w_v + w_p1 + w_p2 > b
//!         = min( P(p1, b) + P(p2, b)        + 2·w_p1 ,   – spill p1, recompute-free reload
//!                P(p1, b) + P(p2, b − w_p1)           ,   – keep p1 red
//!                P(p2, b) + P(p1, b)        + 2·w_p2 ,
//!                P(p2, b) + P(p1, b − w_p2)           )
//! P(v, b) = w_v                                      if H(v) = ∅
//! ```
//!
//! This module is a front for the crate's one tree DP, which runs Eq. (2)
//! on the DWT's average nodes with each pruned sibling's store charged to
//! its average.  The DP memoises costs only; the schedule is one traceback
//! walk that asks each `(node, budget)` step again for its choice.

use crate::memstate::MemoryStates;
use crate::stack::with_large_stack;
use crate::tree_dp::TreeDp;
use pebblyn_core::{Schedule, Weight};
use pebblyn_graphs::DwtGraph;

pub use crate::tree_dp::IoCosts;

/// The tree DP over the DWT's pruned forest, each coefficient emitted with
/// its average sibling.
fn pruned_forest_dp(dwt: &DwtGraph, costs: IoCosts) -> TreeDp<'_> {
    let g = dwt.cdag();
    TreeDp::new(g, costs, &MemoryStates::none())
        .with_siblings(g.nodes().map(|v| dwt.sibling(v)).collect())
}

fn assert_prunable(dwt: &DwtGraph) {
    assert!(
        dwt.satisfies_pruning_condition(),
        "DWT weights must satisfy Lemma 3.2 (coefficient <= average per layer)"
    );
}

/// `PebbleDWT(G)` — generate a minimum-weight WRBPG schedule for the DWT
/// graph under `budget`, or `None` when no valid schedule exists.
///
/// The returned schedule pebbles each independent subtree sequentially
/// (Lemma 3.3's first observation), emits each pruned coefficient right
/// after its parents are resident (Lemma 3.2), and stores each tree root at
/// the end of its subtree schedule.
pub fn schedule(dwt: &DwtGraph, budget: Weight) -> Option<Schedule> {
    schedule_with_costs(dwt, budget, IoCosts::default())
}

/// As [`schedule`], but minimising the asymmetric I/O cost
/// `costs.load·(M1 bits) + costs.store·(M2 bits)` instead of raw bits.
///
/// With `store ≫ load` (non-volatile slow memory) the optimal structure
/// shifts toward keep-red strategies: spilling a subtree result becomes a
/// store *and* a reload instead of two symmetric transfers.
pub fn schedule_with_costs(dwt: &DwtGraph, budget: Weight, costs: IoCosts) -> Option<Schedule> {
    assert_prunable(dwt);
    with_large_stack(|| pruned_forest_dp(dwt, costs).forest_schedule(&dwt.tree_roots(), budget))
}

/// The minimum weighted schedule cost for the DWT under `budget`
/// (Lemma 3.4), or `None` when no valid schedule exists.
///
/// Equals `schedule(dwt, budget)`'s replayed cost; computed without
/// materialising moves.
pub fn min_cost(dwt: &DwtGraph, budget: Weight) -> Option<Weight> {
    min_cost_with_costs(dwt, budget, IoCosts::default())
}

/// As [`min_cost`] under asymmetric I/O costs (see
/// [`schedule_with_costs`]).
pub fn min_cost_with_costs(dwt: &DwtGraph, budget: Weight, costs: IoCosts) -> Option<Weight> {
    assert_prunable(dwt);
    with_large_stack(|| pruned_forest_dp(dwt, costs).forest_cost(&dwt.tree_roots(), budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{algorithmic_lower_bound, min_feasible_budget, validate_schedule};
    use pebblyn_graphs::WeightScheme;

    fn check_all_budgets(dwt: &DwtGraph) {
        let g = dwt.cdag();
        let lb = algorithmic_lower_bound(g);
        let minb = min_feasible_budget(g);
        let maxb = g.total_weight();
        let step = g.weight_gcd().max(1);
        let mut prev_cost = None;
        let mut b = minb;
        while b <= maxb + step {
            let c = min_cost(dwt, b);
            let s = schedule(dwt, b);
            assert_eq!(c.is_some(), s.is_some());
            if let (Some(c), Some(s)) = (c, s) {
                let stats = validate_schedule(g, b, &s)
                    .unwrap_or_else(|e| panic!("invalid schedule at budget {b}: {e}"));
                assert_eq!(stats.cost, c, "DP cost must equal replayed cost at b={b}");
                assert!(c >= lb, "cost below algorithmic lower bound");
                if let Some(p) = prev_cost {
                    assert!(c <= p, "cost must be non-increasing in budget");
                }
                prev_cost = Some(c);
            }
            b += step;
        }
        // At ample budget the cost hits the algorithmic lower bound.
        assert_eq!(min_cost(dwt, maxb), Some(lb));
    }

    #[test]
    fn dwt_4_1_all_budgets() {
        let dwt = DwtGraph::new(4, 1, WeightScheme::Equal(16)).unwrap();
        check_all_budgets(&dwt);
    }

    #[test]
    fn dwt_8_3_all_budgets_equal() {
        let dwt = DwtGraph::new(8, 3, WeightScheme::Equal(16)).unwrap();
        check_all_budgets(&dwt);
    }

    #[test]
    fn dwt_8_3_all_budgets_double_accumulator() {
        let dwt = DwtGraph::new(8, 3, WeightScheme::DoubleAccumulator(16)).unwrap();
        check_all_budgets(&dwt);
    }

    #[test]
    fn dwt_16_2_all_budgets() {
        let dwt = DwtGraph::new(16, 2, WeightScheme::DoubleAccumulator(8)).unwrap();
        check_all_budgets(&dwt);
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let dwt = DwtGraph::new(8, 3, WeightScheme::Equal(16)).unwrap();
        let minb = min_feasible_budget(dwt.cdag());
        assert!(min_cost(&dwt, minb - 1).is_none());
        assert!(schedule(&dwt, minb - 1).is_none());
        assert!(min_cost(&dwt, minb).is_some());
    }

    #[test]
    fn paper_scale_dwt_256_8() {
        // The headline workload: DWT(256, 8), Equal(16).
        let dwt = DwtGraph::new(256, 8, WeightScheme::Equal(16)).unwrap();
        let g = dwt.cdag();
        let lb = algorithmic_lower_bound(g);
        // At 10 words (160 bits) the optimum already achieves the lower
        // bound — Table 1's headline result.
        assert_eq!(min_cost(&dwt, 160), Some(lb));
        assert_ne!(min_cost(&dwt, 160 - 16), Some(lb));
        let s = schedule(&dwt, 160).unwrap();
        let stats = validate_schedule(g, 160, &s).unwrap();
        assert_eq!(stats.cost, lb);
    }

    #[test]
    fn paper_scale_dwt_256_8_double_accumulator() {
        let dwt = DwtGraph::new(256, 8, WeightScheme::DoubleAccumulator(16)).unwrap();
        let g = dwt.cdag();
        let lb = algorithmic_lower_bound(g);
        // Table 1: 18 words (288 bits) suffice in the DA configuration.
        assert_eq!(min_cost(&dwt, 288), Some(lb));
        assert_ne!(min_cost(&dwt, 288 - 16), Some(lb));
    }
}
