//! Mask-width equivalence and symmetry invariance, property-tested over
//! the conformance generator's case families.
//!
//! The exact search is generic over its state-mask width ([`StateMask`]):
//! `u64` for ≤ 64-node graphs, `Words<N>` beyond.  The refactor's contract
//! is stronger than "same optimum" — because tie-breaking and orbit
//! canonicalization are both width-independent by construction,
//! a graph solved at *any* sufficient width must take the **identical
//! search trajectory**: same costs, same statistics, byte-identical
//! reconstructed schedules.  These tests pin that contract on the real
//! case distribution (chains, in-trees, layered DAGs, reconvergent
//! meshes, up to the 40-node INVARIANT ceiling — all of which fit every
//! width under test).
//!
//! Separately, symmetry reduction may only ever change *how much* the
//! solver explores, never what it concludes: costs (including
//! infeasibility verdicts) must match with it on (`solve`) and off
//! (`solve_with_schedule`, which suspends it to keep parent pointers
//! concrete).

use pebblyn_conformance::{generate, oracle::budget_probes};
use pebblyn_exact::{ExactSolver, Words};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wider_masks_take_the_identical_search_trajectory(
        seed in 0u64..1024,
        index in 0u64..256,
    ) {
        let case = generate(seed, index);
        let g = &case.graph;
        prop_assume!(g.len() <= 12); // exhaustible fast at every width

        let solver = ExactSolver::default();
        for b in budget_probes(g) {
            let narrow = solver
                .solve_with_schedule_and_mask::<u64>(g, b)
                .expect("u64 within cap");
            let w2 = solver
                .solve_with_schedule_and_mask::<Words<2>>(g, b)
                .expect("Words<2> within cap");
            let w4 = solver
                .solve_with_schedule_and_mask::<Words<4>>(g, b)
                .expect("Words<4> within cap");
            for (label, wide) in [("Words<2>", &w2), ("Words<4>", &w4)] {
                prop_assert_eq!(
                    narrow.cost, wide.cost,
                    "{}: {} cost differs from u64 at budget {}",
                    case.label(), label, b
                );
                let moves = |s: &pebblyn_exact::Solution| {
                    s.schedule.as_ref().map(|s| s.moves().to_vec())
                };
                prop_assert_eq!(
                    moves(&narrow), moves(wide),
                    "{}: {} schedule differs from u64 at budget {} \
                     (width must be invisible to the trajectory)",
                    case.label(), label, b
                );
                // Same trajectory ⇒ same counters, except the words gauge.
                prop_assert_eq!(narrow.stats.expanded, wide.stats.expanded);
                prop_assert_eq!(narrow.stats.generated, wide.stats.generated);
                prop_assert_eq!(narrow.stats.deduped, wide.stats.deduped);
                prop_assert_eq!(narrow.stats.dominated, wide.stats.dominated);
                prop_assert_eq!(narrow.stats.re_expanded, wide.stats.re_expanded);
                prop_assert_eq!(narrow.stats.peak_open, wide.stats.peak_open);
            }
            prop_assert_eq!(narrow.stats.mask_words, 1);
            prop_assert_eq!(w2.stats.mask_words, 2);
            prop_assert_eq!(w4.stats.mask_words, 4);
        }
    }

    #[test]
    fn symmetry_reduction_never_changes_any_verdict(
        seed in 0u64..1024,
        index in 0u64..256,
    ) {
        let case = generate(seed, index);
        let g = &case.graph;
        prop_assume!(g.len() <= 10);

        let solver = ExactSolver::default();
        for b in budget_probes(g) {
            let with = solver.solve(g, b).expect("within cap");
            let without = solver.solve_with_schedule(g, b).expect("within cap");
            prop_assert_eq!(
                with.cost, without.cost,
                "{}: symmetry reduction changed the optimum at budget {}",
                case.label(), b
            );
            prop_assert!(
                with.stats.expanded <= without.stats.expanded,
                "{}: canonicalization may only shrink the search \
                 ({} vs {} expanded)",
                case.label(), with.stats.expanded, without.stats.expanded
            );
        }
    }
}
