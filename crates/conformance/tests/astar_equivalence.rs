//! The bound-guided A\* with dominance pruning and macro moves must return
//! the *same optimal cost* as the plain Dijkstra over the raw four-move
//! game, on every graph and budget.  Proptest drives both solvers over the
//! conformance generator's case space (restricted to ≤ 10 nodes so the
//! unpruned baseline stays cheap) and compares them across the full
//! feasibility-aware budget sweep.
//!
//! This is the end-to-end safety net for everything the A\* prunes with:
//! an inadmissible bound, an unsound dominance rule, an incomplete
//! macro-move relation, an unsound orbit canonicalization, or a partial
//! expansion that loses a successor would each surface here as a cost
//! mismatch (too high) or a phantom infeasibility (`Some` vs `None`).

use pebblyn_conformance::{generate, oracle::budget_probes};
use pebblyn_exact::ExactSolver;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn astar_matches_plain_dijkstra(seed in 0u64..1024, index in 0u64..256) {
        let case = generate(seed, index);
        let g = &case.graph;
        prop_assume!(g.len() <= 10);

        let astar = ExactSolver::default();
        let baseline = ExactSolver::dijkstra_baseline();
        for b in budget_probes(g) {
            let fast = astar.min_cost(g, b).expect("A* within cap on <=10 nodes");
            let slow = baseline
                .min_cost(g, b)
                .expect("Dijkstra within cap on <=10 nodes");
            prop_assert_eq!(
                fast, slow,
                "{}: A* disagrees with the unpruned baseline at budget {}",
                case.label(), b
            );
        }
    }

}
