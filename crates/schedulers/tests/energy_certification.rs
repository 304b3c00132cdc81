//! Certify the asymmetric-cost (energy-weighted) DWT DP against the
//! exhaustive solver: the paper's cost model "minimizes the total data
//! transferred, and by extension, the energy cost" — here we minimise the
//! energy *directly* when loads and stores have different per-bit prices
//! (embedded-Flash writes cost ~10× reads), and prove the DP stays exact.

use pebblyn_core::{min_feasible_budget, validate_schedule, Weight};
use pebblyn_exact::ExactSolver;
use pebblyn_graphs::{DwtGraph, WeightScheme};
use pebblyn_schedulers::dwt_opt::{self, IoCosts};
use pebblyn_schedulers::kary;

fn certify(dwt: &DwtGraph, costs: IoCosts) {
    let g = dwt.cdag();
    let solver = ExactSolver::with_max_states(30_000_000).with_io_scales(costs.load, costs.store);
    let minb = min_feasible_budget(g);
    let step = g.weight_gcd().max(1);
    let mut b = minb;
    while b <= g.total_weight() {
        let exact = solver.min_cost(g, b).expect("within state cap");
        let dp = dwt_opt::min_cost_with_costs(dwt, b, costs);
        assert_eq!(
            dp,
            exact,
            "scaled DP vs exact at b={b}, costs={costs:?}, {}",
            dwt.scheme()
        );
        // The emitted schedule's scaled cost must equal the DP's claim.
        if let Some(c) = dp {
            let s = dwt_opt::schedule_with_costs(dwt, b, costs).unwrap();
            validate_schedule(g, b, &s).expect("valid");
            assert_eq!(s.scaled_io_cost(g, costs.load, costs.store), Some(c));
        }
        b += step;
    }
}

#[test]
fn flash_write_asymmetry_10x() {
    let costs = IoCosts { load: 1, store: 10 };
    certify(&DwtGraph::new(4, 2, WeightScheme::Equal(2)).unwrap(), costs);
    certify(
        &DwtGraph::new(4, 1, WeightScheme::DoubleAccumulator(2)).unwrap(),
        costs,
    );
}

#[test]
fn read_dominant_asymmetry() {
    let costs = IoCosts { load: 5, store: 2 };
    certify(&DwtGraph::new(4, 2, WeightScheme::Equal(2)).unwrap(), costs);
}

/// The k-ary DP under scales is certified against the scaled exhaustive
/// solver too, on trees beyond the DWT family.
#[test]
fn kary_scaled_is_optimal() {
    use pebblyn_graphs::tree::{caterpillar, full_kary};
    let costs = IoCosts { load: 2, store: 7 };
    for tree in [
        full_kary(2, 2, WeightScheme::Equal(2)).unwrap(),
        full_kary(3, 1, WeightScheme::DoubleAccumulator(1)).unwrap(),
        caterpillar(4, WeightScheme::Equal(2)).unwrap(),
    ] {
        let solver =
            ExactSolver::with_max_states(30_000_000).with_io_scales(costs.load, costs.store);
        let minb = min_feasible_budget(&tree);
        let step = tree.weight_gcd().max(1);
        let mut b = minb;
        while b <= tree.total_weight() {
            let exact = solver.min_cost(&tree, b).expect("within cap");
            let dp = kary::min_cost_with_costs(&tree, b, costs);
            assert_eq!(dp, exact, "kary scaled at b={b}");
            if let Some(c) = dp {
                let s = kary::schedule_with_costs(&tree, b, costs).unwrap();
                validate_schedule(&tree, b, &s).expect("valid");
                assert_eq!(s.scaled_io_cost(&tree, costs.load, costs.store), Some(c));
            }
            b += step;
        }
    }
}

#[test]
fn unit_costs_recover_bit_counts() {
    let dwt = DwtGraph::new(8, 3, WeightScheme::Equal(4)).unwrap();
    let g = dwt.cdag();
    let mut b = min_feasible_budget(g);
    while b <= g.total_weight() {
        assert_eq!(
            dwt_opt::min_cost(&dwt, b),
            dwt_opt::min_cost_with_costs(&dwt, b, IoCosts::default()),
        );
        b += 4;
    }
}

/// A structure theorem the scaled DP exposes: in tree schedules every
/// value is consumed once, so every reload is paired with exactly one
/// store — the optimal cost decomposes as
/// `α·inputs + β·outputs + (α+β)·spills`, where `spills` is the same
/// quantity the unit-cost optimum minimises.  Consequently asymmetric
/// prices change the optimal *cost* but never the optimal *structure*.
#[test]
fn scaled_cost_decomposition_on_trees() {
    let dwt = DwtGraph::new(16, 4, WeightScheme::Equal(4)).unwrap();
    let g = dwt.cdag();
    let inputs: Weight = g.sources().iter().map(|&v| g.weight(v)).sum();
    let outputs: Weight = g.sinks().iter().map(|&v| g.weight(v)).sum();
    let costs = IoCosts { load: 1, store: 20 };
    let mut b = min_feasible_budget(g);
    while b <= g.total_weight() {
        let unit = dwt_opt::min_cost(&dwt, b).unwrap();
        let spills = (unit - inputs - outputs) / 2;
        let scaled = dwt_opt::min_cost_with_costs(&dwt, b, costs).unwrap();
        assert_eq!(
            scaled,
            costs.load * inputs + costs.store * outputs + (costs.load + costs.store) * spills,
            "decomposition fails at b={b}"
        );
        // The energy-aware schedule replays to exactly that energy.
        let s = dwt_opt::schedule_with_costs(&dwt, b, costs).unwrap();
        validate_schedule(g, b, &s).unwrap();
        assert_eq!(s.scaled_io_cost(g, costs.load, costs.store), Some(scaled));
        b += 4;
    }
}

/// Scaled costs interact with weights: a cheap-store regime can prefer
/// spilling the *heavier* parent if that frees more budget per store bit.
#[test]
fn scaled_min_memory_unchanged() {
    // Minimum memory (Def 2.6) is about *which* transfers happen, not
    // their price: with any positive scales the scaled LB is reached at
    // the same budget as the unit LB.
    let dwt = DwtGraph::new(16, 4, WeightScheme::Equal(4)).unwrap();
    let g = dwt.cdag();
    let unit_lb: Weight = pebblyn_core::algorithmic_lower_bound(g);
    let costs = IoCosts { load: 3, store: 7 };
    // scaled LB = 3·(input bits) + 7·(output bits).
    let inputs: Weight = g.sources().iter().map(|&v| g.weight(v)).sum();
    let outputs: Weight = g.sinks().iter().map(|&v| g.weight(v)).sum();
    let scaled_lb = 3 * inputs + 7 * outputs;
    assert_eq!(unit_lb, inputs + outputs);

    let mut unit_min = None;
    let mut scaled_min = None;
    let mut b = min_feasible_budget(g);
    while b <= g.total_weight() {
        if unit_min.is_none() && dwt_opt::min_cost(&dwt, b) == Some(unit_lb) {
            unit_min = Some(b);
        }
        if scaled_min.is_none() && dwt_opt::min_cost_with_costs(&dwt, b, costs) == Some(scaled_lb) {
            scaled_min = Some(b);
        }
        b += 4;
    }
    assert_eq!(unit_min, scaled_min);
    assert!(unit_min.is_some());
}
