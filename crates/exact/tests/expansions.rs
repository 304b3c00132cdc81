//! Pinned search effort on the exact-search bench instances.
//!
//! The search is deterministic, so states expanded is a property of the
//! code, not of the host.  These five instances are the ones `bench_exact`
//! races against the Dijkstra baseline and the offline benchmark certifies;
//! their optima are the committed ones in `results/bench_exact.json`.  A
//! change that makes the A\* expand more states (or reopen more) fails
//! here; a change that makes it expand fewer updates the table.

use pebblyn_core::{min_feasible_budget, Cdag, Weight};
use pebblyn_exact::ExactSolver;
use pebblyn_graphs::testgraphs::{diamond_chain, fft_butterfly, reconvergent_mesh16};
use pebblyn_graphs::{tree, DwtGraph, WeightScheme};

/// `(name, optimum, states expanded, reopenings)`, in [`instances`] order.
const PINNED: [(&str, Weight, usize, usize); 5] = [
    ("dwt8x2_minb", 80, 283, 0),
    ("kary2x3_minb+2", 22, 182, 0),
    ("fft4_minb+4", 18, 44, 0),
    ("mesh16_minb", 28, 39_172, 5),
    ("diamond72", 2, 225, 0),
];

/// The bench instances at their bench budgets: the Prop 2.3 minimum plus a
/// margin, and budget 3 for the 72-node diamond chain.
fn instances() -> Vec<(Cdag, Weight)> {
    let dwt = DwtGraph::new(8, 2, WeightScheme::Equal(4))
        .unwrap()
        .cdag()
        .clone();
    let kary = tree::full_kary(2, 3, WeightScheme::Equal(2)).unwrap();
    let fft = fft_butterfly(2, WeightScheme::Equal(2)).unwrap();
    let mut out: Vec<(Cdag, Weight)> = [(dwt, 0), (kary, 2), (fft, 4), (reconvergent_mesh16(), 0)]
        .into_iter()
        .map(|(g, extra)| {
            let budget = min_feasible_budget(&g) + extra;
            (g, budget)
        })
        .collect();
    out.push((diamond_chain(18), 3));
    out
}

#[test]
fn bench_instances_expand_the_pinned_state_counts() {
    for ((graph, budget), (name, optimum, expanded, reopened)) in instances().iter().zip(PINNED) {
        let sol = ExactSolver::default().solve(graph, *budget).unwrap();
        assert_eq!(sol.cost, Some(optimum), "{name}: optimum");
        assert_eq!(
            (sol.stats.expanded, sol.stats.re_expanded),
            (expanded, reopened),
            "{name}: (states expanded, reopenings) moved; a search change \
             that expands fewer states updates this table"
        );
    }
}
