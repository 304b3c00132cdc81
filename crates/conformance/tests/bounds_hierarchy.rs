//! Canonicalizing states through twin orbits and certified WL-orbit
//! automorphism generators must never change the solve cost, and may only
//! ever shrink the search.  Reconstructing a schedule suspends symmetry
//! reduction and leaves the rest of the A\* as it is, so
//! `solve_with_schedule` is the symmetry-off reference.  (The bound itself
//! is pinned admissible along an optimal trajectory in
//! `crates/exact/tests/admissibility.rs`.)

use pebblyn_conformance::{generate, oracle::budget_probes};
use pebblyn_exact::ExactSolver;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wl_orbit_canonicalization_preserves_solve_cost(
        seed in 0u64..512,
        index in 0u64..256,
    ) {
        let case = generate(seed, index);
        let g = &case.graph;
        prop_assume!(g.len() <= 10);

        let solver = ExactSolver::default();
        for b in budget_probes(g) {
            let canonical = solver.solve(g, b).expect("within cap on <=10 nodes");
            let reference = solver
                .solve_with_schedule(g, b)
                .expect("within cap on <=10 nodes");
            prop_assert_eq!(
                canonical.cost, reference.cost,
                "{}: WL-orbit canonicalization changed the optimum at budget {}",
                case.label(), b
            );
            prop_assert!(
                canonical.stats.expanded <= reference.stats.expanded,
                "{}: canonicalization may only shrink the search ({} vs {} expanded)",
                case.label(), canonical.stats.expanded, reference.stats.expanded
            );
        }
    }
}
