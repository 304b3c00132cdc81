//! Optimal WRBPG schedules for k-ary tree graphs — Eq. (6), Lemma 3.7 and
//! Theorem 3.8.
//!
//! For each `(node, budget)` state the paper minimises over every parent
//! *ordering* `σ ∈ Perm(H(v))` and every *keep mask* `δ ∈ {0,1}^k` (keep the
//! parent red while later parents are computed, or spill it for `2·w`):
//!
//! ```text
//! P_t(v, b) = min_{σ, δ}  Σ_i P_t(σ(i), b − Σ_{j<i} δ_j·w_σ(j))
//!                        + 2·Σ_i (1 − δ_i)·w_σ(i)
//! ```
//!
//! Enumerating `k!·2^k` choices is what the paper's Theorem 3.8 accounts
//! for; this module is instead a front for the crate's one tree DP, Eq. (8)
//! with empty memory states.  It runs Eq. (2)'s four candidates at
//! in-degree 2 and an exact Held–Karp-style subset DP (state = processed
//! parent set × total kept weight) at every other in-degree, which explores
//! the same decision space in `O(3^k)`-ish work per node without changing
//! the optimum.  [`min_cost_bruteforce`] keeps the literal `σ, δ`
//! enumeration as the independent reference.
//!
//! # Optimality caveat (found by the conformance fuzzer)
//!
//! Eq. (6) minimises over *contiguous* evaluations: each parent subtree is
//! pebbled start-to-finish before the next begins (modulo keep/spill of
//! finished roots).  On arbitrary weighted in-trees that is not always
//! globally optimal — a schedule may *pause* a subtree at a light interior
//! node, evaluate a sibling while holding less red weight than the
//! subtree's (heavier) root would occupy, and resume afterwards.  The
//! differential harness in `pebblyn-conformance` shrank a 7-node witness:
//! a chain `8→6→1→6` feeding the sink alongside a branch `8→1`, at the
//! minimum feasible budget 14, where interleaving costs 17 but the best
//! contiguous schedule costs 19.  [`contiguous_evaluation_safe`] gives a
//! sufficient condition under which pausing can never win and the DP is
//! therefore certifiably optimal; outside it the DP remains a valid upper
//! bound (every emitted schedule still replays cleanly).

use crate::dwt_opt::IoCosts;
use crate::memstate::MemoryStates;
use crate::stack::with_large_stack;
use crate::tree_dp::TreeDp;
use pebblyn_core::{pack_key, Cdag, FastHashMap, NodeId, Schedule, Weight};

/// Sufficient condition for Eq. (6)'s contiguity restriction to be lossless
/// on `tree`: every computed node is no heavier than the lightest node in
/// its subtree (the nodes that transitively feed it).
///
/// Under this condition, any "paused" partial evaluation of a subtree holds
/// a frontier at least as heavy as the finished root, so finishing the
/// subtree first frees at least as much budget for its siblings and
/// contiguous evaluation dominates.  Equal-weight trees satisfy it
/// trivially; so do accumulation trees whose node weights shrink toward the
/// sink.  The witness in the module docs (heavy node above a weight-1
/// interior node) violates it, and there the DP is suboptimal by 2.
pub fn contiguous_evaluation_safe(tree: &Cdag) -> bool {
    // min_sub[v] = lightest weight in the subtree rooted at v (v included),
    // computable in one topological pass since preds precede v.
    let mut min_sub = vec![Weight::MAX; tree.len()];
    for &v in tree.topo_order() {
        let mut m = tree.weight(v);
        for &p in tree.preds(v) {
            m = m.min(min_sub[p.index()]);
        }
        min_sub[v.index()] = m;
        if !tree.is_source(v) && tree.weight(v) > m {
            return false;
        }
    }
    true
}

fn tree_root(tree: &Cdag) -> NodeId {
    assert!(
        tree.is_in_tree(),
        "k-ary scheduler requires an in-tree (single sink, out-degree <= 1)"
    );
    tree.sinks()[0]
}

/// Minimum weighted schedule cost for a k-ary tree graph under `budget`
/// (Lemma 3.7: `w_r + P_t(r, B)`), or `None` when no valid schedule exists.
pub fn min_cost(tree: &Cdag, budget: Weight) -> Option<Weight> {
    min_cost_with_costs(tree, budget, IoCosts::default())
}

/// As [`min_cost`] under asymmetric per-bit I/O prices (see
/// [`crate::dwt_opt::IoCosts`]).
pub fn min_cost_with_costs(tree: &Cdag, budget: Weight, costs: IoCosts) -> Option<Weight> {
    let root = tree_root(tree);
    with_large_stack(|| {
        TreeDp::new(tree, costs, &MemoryStates::none()).forest_cost(&[root], budget)
    })
}

/// Generate an optimal schedule for a k-ary tree graph under `budget`.
pub fn schedule(tree: &Cdag, budget: Weight) -> Option<Schedule> {
    schedule_with_costs(tree, budget, IoCosts::default())
}

/// As [`schedule`] under asymmetric per-bit I/O prices.
pub fn schedule_with_costs(tree: &Cdag, budget: Weight, costs: IoCosts) -> Option<Schedule> {
    let root = tree_root(tree);
    with_large_stack(|| {
        TreeDp::new(tree, costs, &MemoryStates::none()).forest_schedule(&[root], budget)
    })
}

/// Literal implementation of Eq. (6): enumerate every parent permutation and
/// keep mask.  Exponential in `k`; used to cross-check the subset DP.
pub fn min_cost_bruteforce(tree: &Cdag, budget: Weight) -> Option<Weight> {
    let root = tree_root(tree);
    fn pt(
        g: &Cdag,
        v: NodeId,
        b: Weight,
        memo: &mut FastHashMap<u128, Option<Weight>>,
    ) -> Option<Weight> {
        let key = pack_key(v.index() as u64, b);
        if let Some(&hit) = memo.get(&key) {
            return hit;
        }
        let preds = g.preds(v).to_vec();
        let result = (|| {
            if preds.is_empty() {
                return (g.weight(v) <= b).then(|| g.weight(v));
            }
            let wsum: Weight = preds.iter().map(|&p| g.weight(p)).sum();
            if g.weight(v) + wsum > b {
                return None;
            }
            let k = preds.len();
            let mut best: Option<Weight> = None;
            let mut perm: Vec<usize> = (0..k).collect();
            permute(&mut perm, 0, &mut |sigma| {
                for delta in 0..(1u32 << k) {
                    let mut cost: Weight = 0;
                    let mut kept: Weight = 0;
                    let mut ok = true;
                    for (i, &pi) in sigma.iter().enumerate() {
                        let p = preds[pi];
                        if kept > b {
                            ok = false;
                            break;
                        }
                        match pt(g, p, b - kept, memo) {
                            Some(c) => cost += c,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                        if delta & (1 << i) != 0 {
                            kept += g.weight(p);
                        } else {
                            cost += 2 * g.weight(p);
                        }
                    }
                    if ok && best.is_none_or(|bst| cost < bst) {
                        best = Some(cost);
                    }
                }
            });
            best
        })();
        memo.insert(key, result);
        result
    }

    fn permute(v: &mut Vec<usize>, i: usize, f: &mut impl FnMut(&[usize])) {
        if i == v.len() {
            f(v);
            return;
        }
        for j in i..v.len() {
            v.swap(i, j);
            permute(v, i + 1, f);
            v.swap(i, j);
        }
    }

    with_large_stack(|| {
        let mut memo = FastHashMap::default();
        pt(tree, root, budget, &mut memo).map(|c| c + tree.weight(root))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebblyn_core::{algorithmic_lower_bound, min_feasible_budget, validate_schedule};
    use pebblyn_graphs::tree::{caterpillar, chain, full_kary, random_weighted_tree};
    use pebblyn_graphs::WeightScheme;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_all_budgets(tree: &Cdag) {
        let lb = algorithmic_lower_bound(tree);
        let minb = min_feasible_budget(tree);
        let maxb = tree.total_weight();
        let step = tree.weight_gcd().max(1);
        let mut prev = None;
        let mut b = minb;
        while b <= maxb {
            let c = min_cost(tree, b);
            let s = schedule(tree, b);
            assert_eq!(c.is_some(), s.is_some());
            if let (Some(c), Some(s)) = (c, s) {
                let stats = validate_schedule(tree, b, &s)
                    .unwrap_or_else(|e| panic!("invalid at b={b}: {e}"));
                assert_eq!(stats.cost, c);
                assert!(c >= lb);
                assert_eq!(
                    min_cost_bruteforce(tree, b),
                    Some(c),
                    "subset DP must match the literal Eq. (6) enumeration at b={b}"
                );
                if let Some(p) = prev {
                    assert!(c <= p);
                }
                prev = Some(c);
            }
            b += step;
        }
        assert_eq!(min_cost(tree, maxb), Some(lb));
    }

    #[test]
    fn binary_tree_all_budgets() {
        let t = full_kary(2, 3, WeightScheme::Equal(2)).unwrap();
        check_all_budgets(&t);
    }

    #[test]
    fn ternary_tree_all_budgets() {
        let t = full_kary(3, 2, WeightScheme::DoubleAccumulator(2)).unwrap();
        check_all_budgets(&t);
    }

    #[test]
    fn chain_all_budgets() {
        let t = chain(6, WeightScheme::Equal(3)).unwrap();
        check_all_budgets(&t);
    }

    #[test]
    fn caterpillar_all_budgets() {
        let t = caterpillar(5, WeightScheme::DoubleAccumulator(2)).unwrap();
        check_all_budgets(&t);
    }

    #[test]
    fn random_weighted_trees_match_bruteforce() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..15 {
            let t = random_weighted_tree(4, 3, 1..=5, &mut rng).unwrap();
            let minb = min_feasible_budget(&t);
            for b in [minb, minb + 2, minb + 5, t.total_weight()] {
                assert_eq!(min_cost(&t, b), min_cost_bruteforce(&t, b));
            }
        }
    }

    #[test]
    fn chain_cost_is_endpoints_at_min_budget() {
        // A chain never needs spills: cost = input + output at every
        // feasible budget.
        let t = chain(10, WeightScheme::Equal(4)).unwrap();
        let minb = min_feasible_budget(&t);
        assert_eq!(min_cost(&t, minb), Some(8));
    }

    #[test]
    fn contiguity_safety_predicate() {
        // Equal weights: trivially safe.
        assert!(contiguous_evaluation_safe(
            &full_kary(2, 3, WeightScheme::Equal(2)).unwrap()
        ));
        assert!(contiguous_evaluation_safe(
            &chain(8, WeightScheme::Equal(5)).unwrap()
        ));
        // A heavy node above a light interior node: unsafe.
        assert!(!contiguous_evaluation_safe(&fuzzer_witness()));
    }

    /// The shrunk counterexample the conformance fuzzer found (seed 3):
    /// chain 8→6→1→6 into the sink, plus a branch 8→1.  At the minimum
    /// feasible budget the global optimum (17) pauses the chain at the
    /// weight-1 node to evaluate the branch; the best *contiguous*
    /// schedule — Eq. (6)'s whole decision space — costs 19.
    fn fuzzer_witness() -> Cdag {
        let mut b = pebblyn_core::CdagBuilder::new();
        let root = b.node(1, "root");
        let t1 = b.node(6, "t1");
        let t2 = b.node(1, "t2");
        let leaf3 = b.node(8, "leaf3");
        let t4 = b.node(1, "t4");
        let t6 = b.node(6, "t6");
        let t7 = b.node(8, "t7");
        b.edge(t1, root);
        b.edge(t2, root);
        b.edge(t4, t1);
        b.edge(leaf3, t2);
        b.edge(t6, t4);
        b.edge(t7, t6);
        b.build().unwrap()
    }

    #[test]
    fn known_suboptimality_outside_the_safe_regime() {
        let t = fuzzer_witness();
        let minb = min_feasible_budget(&t);
        assert_eq!(minb, 14);
        // The DP is internally consistent (matches the literal Eq. (6)
        // enumeration, emits a valid schedule at its claimed cost)...
        assert_eq!(min_cost(&t, minb), Some(19));
        assert_eq!(min_cost_bruteforce(&t, minb), Some(19));
        let s = schedule(&t, minb).unwrap();
        assert_eq!(validate_schedule(&t, minb, &s).unwrap().cost, 19);
        // ...but interleaved evaluation beats every contiguous order, so
        // the exact optimum is strictly lower.  This pins the gap the
        // conformance fuzzer found; the oracle asserts kary == exact only
        // on contiguous_evaluation_safe trees.
        assert_eq!(pebblyn_exact::exact_min_cost(&t, minb), Some(17));
        // With two extra units of budget the interleaving advantage
        // disappears and the DP is optimal again.
        assert_eq!(
            min_cost(&t, minb + 2),
            pebblyn_exact::exact_min_cost(&t, minb + 2)
        );
    }

    #[test]
    fn rejects_non_trees() {
        let g = pebblyn_graphs::testgraphs::diamond(WeightScheme::Equal(1));
        let result = std::panic::catch_unwind(|| min_cost(&g, 100));
        assert!(result.is_err());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let t = chain(20_000, WeightScheme::Equal(1)).unwrap();
        assert_eq!(min_cost(&t, 2), Some(2));
    }

    #[test]
    fn unary_internal_nodes_handled() {
        // k-ary trees permit in-degree 1 internal nodes (k covers max).
        let t = full_kary(1, 5, WeightScheme::Equal(7)).unwrap();
        check_all_budgets(&t);
    }
}
