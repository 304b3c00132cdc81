//! Path costs near the top of `u64` must neither wrap nor panic.
//!
//! Every weight here is 2^62, so both graphs build (their weights sum below
//! 2^64) while a handful of priced moves already exceed `u64::MAX`.  A
//! wrapped path cost would look tiny and win the search; the solver must
//! instead drop such a path (its cost exceeds every cost a `u64` can hold),
//! return the true optimum when it fits, and report
//! [`ExactError::WeightOverflow`] when it does not.  Both configurations
//! share the search loop, so both are checked.

use pebblyn_core::{min_feasible_budget, validate_schedule, Cdag, CdagBuilder, Weight};
use pebblyn_exact::{ExactError, ExactSolver};

const W: Weight = 1 << 62;

/// x -> m -> y, every node 2^62.
fn chain() -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.node(W, "x");
    let m = b.node(W, "m");
    let y = b.node(W, "y");
    b.edge(x, m);
    b.edge(m, y);
    b.build().unwrap()
}

/// x, y -> s, every node 2^62.
fn join() -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.node(W, "x");
    let y = b.node(W, "y");
    let s = b.node(W, "s");
    b.edge(x, s);
    b.edge(y, s);
    b.build().unwrap()
}

fn both(load: Weight, store: Weight) -> [(&'static str, ExactSolver); 2] {
    [
        ("A*", ExactSolver::default().with_io_scales(load, store)),
        (
            "Dijkstra",
            ExactSolver::dijkstra_baseline().with_io_scales(load, store),
        ),
    ]
}

#[test]
fn chain_optimum_survives_overflowing_detours() {
    // Budget 2^63 is the Prop 2.3 minimum.  The optimum loads x, computes
    // m and y, and stores y: 3·2^62 at either price split.  Storing m as
    // well would push the path past 2^64.
    let g = chain();
    let budget = min_feasible_budget(&g);
    assert_eq!(budget, 2 * W);
    for (load, store) in [(2, 1), (1, 2)] {
        for (name, solver) in both(load, store) {
            assert_eq!(
                solver.min_cost(&g, budget),
                Ok(Some(3 * W)),
                "{name} at io scales ({load}, {store})"
            );
            let (cost, schedule) = solver.optimal_schedule(&g, budget).unwrap().unwrap();
            assert_eq!(cost, 3 * W, "{name} schedule at ({load}, {store})");
            assert!(validate_schedule(&g, budget, &schedule).is_ok());
            assert_eq!(schedule.scaled_io_cost(&g, load, store), Some(cost));
        }
    }
}

#[test]
fn join_whose_optimum_overflows_is_a_typed_error() {
    // Loading x and y at price 2 already costs 2^64: no schedule's cost
    // fits in a u64.
    let g = join();
    let budget = 3 * W;
    for (name, solver) in both(2, 1) {
        for result in [
            solver.solve(&g, budget),
            solver.solve_with_schedule(&g, budget),
        ] {
            let err = result.expect_err(name);
            assert!(
                matches!(err, ExactError::WeightOverflow { .. }),
                "{name}: {err:?}"
            );
            assert!(err.states_expanded() > 0, "{name}: the search ran");
            assert!(err.to_string().contains("u64"), "{name}: {err}");
        }
    }
}

#[test]
fn join_whose_optimum_fits_is_still_solved() {
    // At unit prices the optimum 3·2^62 fits.
    let g = join();
    for (name, solver) in both(1, 1) {
        assert_eq!(solver.min_cost(&g, 3 * W), Ok(Some(3 * W)), "{name}");
    }
}
