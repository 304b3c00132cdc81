//! Reuse-aware greedy scheduling for arbitrary CDAGs.
//!
//! §4 closes by noting the data-reuse approach "extends … to less regular
//! CDAGs as well".  This module is that extension as a practical
//! scheduler: nodes are computed in a topological order, and when fast
//! memory fills up the victim is chosen by **Belady's rule** — evict the
//! resident value whose *next use* (in the planned compute order) lies
//! furthest in the future, ties going to the larger node id.  A value
//! with no use left has the furthest key of all, so dead values leave
//! first; a dirty victim is stored on the way out only when it is used
//! again or is a sink.
//!
//! Unlike the FIFO layer-by-layer baseline this is reuse-aware, and unlike
//! the tree DPs it handles any DAG (FFT butterflies, random DAGs, diamond
//! reuse patterns).  It is a heuristic: for a *fixed* compute order,
//! furthest-next-use is the classic offline caching policy; the compute
//! order itself is not optimized.
//!
//! The one-processor game is the `p = 1` case of the multiprocessor one,
//! and this scheduler is the shared simulator ([`crate::multi_sim`]) run on
//! one processor, projected back onto the single-processor game.

use crate::multi_sim;
use pebblyn_core::{Cdag, MachineSpec, NodeId, Schedule, Weight};

/// Schedule the whole graph under `budget` computing nodes in `order`
/// (which must be a topological order of the non-source nodes), or `None`
/// when the budget cannot hold some node's operand set.
pub fn schedule_with_order(graph: &Cdag, budget: Weight, order: &[NodeId]) -> Option<Schedule> {
    let on_one = vec![0; graph.len()];
    let s = multi_sim::simulate(graph, &MachineSpec::uniprocessor(budget), 1, &on_one, order)?;
    Some(
        s.project_single()
            .expect("a one-processor simulation projects"),
    )
}

/// Schedule with the graph's default topological order.
pub fn schedule(graph: &Cdag, budget: Weight) -> Option<Schedule> {
    let order: Vec<NodeId> = graph
        .topo_order()
        .iter()
        .copied()
        .filter(|&v| !graph.is_source(v))
        .collect();
    schedule_with_order(graph, budget, &order)
}

/// The schedule's cost, or `None` when infeasible.
pub fn cost(graph: &Cdag, budget: Weight) -> Option<Weight> {
    schedule(graph, budget).map(|s| s.cost(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layer_by_layer, naive};
    use pebblyn_core::{algorithmic_lower_bound, min_feasible_budget, validate_schedule};
    use pebblyn_graphs::layered::LayeredCdag;
    use pebblyn_graphs::testgraphs::{diamond, fft_butterfly, random_layered_dag};
    use pebblyn_graphs::{DwtGraph, Layered, WeightScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn valid_on_diamond_at_min_feasible() {
        let g = diamond(WeightScheme::Equal(4));
        let b = min_feasible_budget(&g);
        let s = schedule(&g, b).unwrap();
        let stats = validate_schedule(&g, b, &s).unwrap();
        assert!(stats.cost >= algorithmic_lower_bound(&g));
        assert!(schedule(&g, b - 1).is_none());
    }

    #[test]
    fn reaches_lower_bound_with_ample_memory() {
        for g in [
            diamond(WeightScheme::DoubleAccumulator(4)),
            fft_butterfly(3, WeightScheme::Equal(4)).unwrap(),
        ] {
            let b = g.total_weight();
            let s = schedule(&g, b).unwrap();
            let stats = validate_schedule(&g, b, &s).unwrap();
            assert_eq!(stats.cost, algorithmic_lower_bound(&g));
        }
    }

    /// Boustrophedon compute order over the layers, matching the
    /// layer-by-layer baseline's traversal.
    fn boustrophedon_order(layered: &LayeredCdag) -> Vec<NodeId> {
        let mut order = Vec::new();
        for (li, layer) in Layered::layers(layered).iter().enumerate().skip(1) {
            if li % 2 == 0 {
                order.extend(layer.iter().rev().copied());
            } else {
                order.extend(layer.iter().copied());
            }
        }
        order
    }

    #[test]
    fn beats_fifo_layer_by_layer_on_fft_at_equal_order() {
        // Belady is the optimal eviction policy *for a fixed compute
        // order*; compare both policies under the same (boustrophedon)
        // order across an FFT budget sweep.
        let g = fft_butterfly(4, WeightScheme::Equal(16)).unwrap();
        let layered = LayeredCdag::from_cdag(g.clone());
        let order = boustrophedon_order(&layered);
        let minb = min_feasible_budget(&g);
        let mut belady_total: u64 = 0;
        let mut fifo_total: u64 = 0;
        let mut b = minb;
        while b <= g.total_weight() {
            let bl = schedule_with_order(&g, b, &order)
                .map(|s| validate_schedule(&g, b, &s).expect("valid").cost);
            let ff = layer_by_layer::cost(&layered, b, Default::default());
            if let (Some(bl), Some(ff)) = (bl, ff) {
                belady_total += bl;
                fifo_total += ff;
            }
            b += 8 * 16;
        }
        assert!(
            belady_total <= fifo_total,
            "belady {belady_total} vs fifo {fifo_total}"
        );
    }

    /// A hub value consumed by every subsequent compute: FIFO keeps
    /// evicting it (it is always the oldest), Belady pins it (its next use
    /// is always the nearest).
    #[test]
    fn hub_reuse_pattern() {
        let mut b = pebblyn_core::CdagBuilder::new();
        let hub = b.node(16, "hub");
        let consumers = 6;
        for i in 0..consumers {
            let x = b.node(16, format!("x{i}"));
            let c = b.node(16, format!("c{i}"));
            b.edge(hub, c);
            b.edge(x, c);
        }
        let g = b.build().unwrap();
        // Room for hub + one private input + one result + one slack word.
        let budget = 4 * 16;
        let s = schedule(&g, budget).unwrap();
        let stats = validate_schedule(&g, budget, &s).unwrap();
        // Optimal: hub once + 6 private inputs + 6 outputs = 13 words.
        assert_eq!(
            stats.cost,
            13 * 16,
            "belady must keep the hub resident (schedule: {s})"
        );
    }

    #[test]
    fn never_worse_than_naive() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        for _ in 0..20 {
            let g = random_layered_dag(4, 4, 1..=6, &mut rng).unwrap();
            let b = min_feasible_budget(&g);
            let s = schedule(&g, b).expect("feasible at min budget");
            let stats = validate_schedule(&g, b, &s).unwrap();
            assert!(stats.cost <= naive::cost(&g));
        }
    }

    #[test]
    fn random_dags_validate_across_budgets() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..15 {
            let g = random_layered_dag(3, 5, 1..=9, &mut rng).unwrap();
            let minb = min_feasible_budget(&g);
            let step = g.weight_gcd().max(1);
            let mut prev_unseen = true;
            for k in 0..10 {
                let b = minb + k * step * 3;
                if let Some(s) = schedule(&g, b) {
                    validate_schedule(&g, b, &s)
                        .unwrap_or_else(|e| panic!("invalid at b={b}: {e}"));
                    prev_unseen = false;
                }
            }
            assert!(!prev_unseen, "never scheduled anything");
        }
    }

    #[test]
    fn works_on_dwt_graphs_too() {
        // Sanity: the generic scheduler handles the paper's graphs, just
        // not optimally.
        let dwt = DwtGraph::new(16, 4, WeightScheme::Equal(16)).unwrap();
        let g = dwt.cdag();
        let b = min_feasible_budget(g) + 64;
        let s = schedule(g, b).unwrap();
        let stats = validate_schedule(g, b, &s).unwrap();
        let opt = crate::dwt_opt::min_cost(&dwt, b).unwrap();
        assert!(stats.cost >= opt);
        let _ = Layered::layers(&dwt);
    }

    /// Every eviction picks a furthest-next-use victim, under the
    /// kernel's full-scan audit.
    #[test]
    fn evictions_are_belady() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut graphs = vec![
            diamond(WeightScheme::Equal(4)),
            fft_butterfly(3, WeightScheme::Equal(4)).unwrap(),
        ];
        for _ in 0..6 {
            graphs.push(random_layered_dag(4, 4, 1..=6, &mut rng).unwrap());
        }
        let mut evictions = 0;
        for g in graphs {
            let order: Vec<NodeId> = g
                .topo_order()
                .iter()
                .copied()
                .filter(|&v| !g.is_source(v))
                .collect();
            let on_one = vec![0; g.len()];
            let minb = min_feasible_budget(&g);
            for b in [minb, minb + 8, minb + 16] {
                let spec = MachineSpec::uniprocessor(b);
                let (s, violations) =
                    multi_sim::simulate_audited(&g, &spec, 1, &on_one, &order).expect("feasible");
                assert_eq!(violations, 0, "budget {b}");
                evictions += s.project_single().unwrap().move_counts().3;
            }
        }
        assert!(evictions > 0, "the audit saw no eviction");
    }
}
