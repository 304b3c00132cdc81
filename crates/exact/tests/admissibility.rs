//! Admissibility of the A\* lower bound on the pinned 7-node kary witness.
//!
//! The witness is the shrunk counterexample the conformance fuzzer found
//! (seed 3): a chain 8→6→1→6 into the sink plus a branch 8→1, whose exact
//! optimum at the minimum feasible budget (14) is 17 while the contiguous
//! kary DP reports 19.  It exercises budget-forced eviction, interleaved
//! subtree evaluation, and reloads — exactly the behaviours a sloppy bound
//! would overcharge for.
//!
//! The test replays the optimal schedule move by move and asserts, at every
//! prefix state, `h(state) ≤ optimal_cost − cost_spent_so_far`.  Since
//! A\* visits only states on or off the optimal
//! path with `g + h ≤ C*` when `h` is admissible, overcharging any state on
//! the optimal trajectory would make the search return a wrong (higher)
//! cost; this witness pins the bound on a graph where that actually bites.

use pebblyn_core::{Cdag, CdagBuilder, Move, StateBounds, Weight};
use pebblyn_exact::ExactSolver;

/// The conformance fuzzer's 7-node witness (see `schedulers::kary` tests).
fn fuzzer_witness() -> Cdag {
    let mut b = CdagBuilder::new();
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
fn heuristics_are_admissible_along_the_optimal_trajectory() {
    let g = fuzzer_witness();
    let budget = pebblyn_core::min_feasible_budget(&g);
    assert_eq!(budget, 14);

    let solver = ExactSolver::default();
    let (cost, schedule) = solver
        .optimal_schedule(&g, budget)
        .unwrap()
        .expect("witness is feasible at its minimum budget");
    assert_eq!(cost, 17, "pinned optimum of the kary fuzzer witness");

    let bounds: StateBounds = StateBounds::new(&g, 1, 1, budget);

    // Replay the optimal schedule, checking every prefix state.
    let mut red: u64 = 0;
    let mut blue: u64 = 0;
    for &v in g.sources() {
        blue |= 1 << v.index();
    }
    let mut spent: Weight = 0;

    let check = |red: u64, blue: u64, spent: Weight, step: usize| {
        let lb = bounds.lower_bound(red, blue);
        assert!(
            lb <= cost - spent,
            "the bound overcharges after move {step}: h = {lb} > {} = C* - g",
            cost - spent,
        );
    };

    // The start state's bound is informative, not the trivial 0.
    assert!(bounds.lower_bound(red, blue) > 0);
    check(red, blue, spent, 0);
    for (i, mv) in schedule.iter().enumerate() {
        let bit = 1u64 << mv.node().index();
        let w = g.weight(mv.node());
        match mv {
            Move::Load(_) => {
                red |= bit;
                spent += w;
            }
            Move::Store(_) => {
                blue |= bit;
                spent += w;
            }
            Move::Compute(_) => red |= bit,
            Move::Delete(_) => red &= !bit,
        }
        check(red, blue, spent, i + 1);
    }
    assert_eq!(spent, cost, "replayed cost matches the solver's claim");
}
