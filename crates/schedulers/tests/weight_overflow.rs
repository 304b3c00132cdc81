//! The tree DP near the top of the `u64` weight range: on graphs whose
//! weights are `2^62` (they build, because their weights sum below
//! `2^64`), every answer equals the exact optimum where the exact search
//! finds one and is `None` where it reports `WeightOverflow`.  A candidate
//! whose cost sum overflows is dropped, never wrapped into a small winner.
//! The literal Eq. (6) enumeration, `kary::min_cost_bruteforce`, is held to
//! the same references, and a scaled replay cost that overflows is `None`.

use pebblyn_core::{
    min_feasible_budget, validate_schedule, Cdag, CdagBuilder, ScheduleRequest, Weight,
};
use pebblyn_exact::{ExactError, ExactSolver};
use pebblyn_graphs::AnyGraph;
use pebblyn_schedulers::dwt_opt::IoCosts;
use pebblyn_schedulers::memstate::{self, MemoryStates};
use pebblyn_schedulers::{api, kary};

const W: Weight = 1 << 62;

/// x → m → y.
fn chain() -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.node(W, "x");
    let m = b.node(W, "m");
    let y = b.node(W, "y");
    b.edge(x, m);
    b.edge(m, y);
    b.build().unwrap()
}

/// x, y → s.
fn join() -> Cdag {
    let mut b = CdagBuilder::new();
    let x = b.node(W, "x");
    let y = b.node(W, "y");
    let s = b.node(W, "s");
    b.edge(x, s);
    b.edge(y, s);
    b.build().unwrap()
}

fn budgets(g: &Cdag) -> [Weight; 3] {
    [min_feasible_budget(g), g.total_weight(), Weight::MAX]
}

/// The exact optimum, or `None` where every schedule's cost overflows.
fn exact(g: &Cdag, b: Weight, costs: IoCosts) -> Option<Weight> {
    let solver = ExactSolver::default().with_io_scales(costs.load, costs.store);
    match solver.min_cost(g, b) {
        Ok(cost) => Some(cost.expect("every probed budget is feasible")),
        Err(ExactError::WeightOverflow { .. }) => None,
        Err(e) => panic!("exact search at b={b}: {e}"),
    }
}

#[test]
fn kary_answers_match_the_exact_search() {
    for (name, g) in [("chain", chain()), ("join", join())] {
        for costs in [IoCosts { load: 1, store: 1 }, IoCosts { load: 2, store: 2 }] {
            for b in budgets(&g) {
                let truth = exact(&g, b, costs);
                let at = format!("{name} at b={b}, {costs:?}");
                assert_eq!(kary::min_cost_with_costs(&g, b, costs), truth, "{at}");
                if costs == IoCosts::default() {
                    // The literal Eq. (6) enumeration, too: on the join at
                    // 3·2^62 spilling x or y would cost past 2^64.
                    assert_eq!(kary::min_cost_bruteforce(&g, b), truth, "{at}");
                }
                let schedule = kary::schedule_with_costs(&g, b, costs);
                assert_eq!(schedule.is_some(), truth.is_some(), "{at}");
                if let Some(s) = schedule {
                    validate_schedule(&g, b, &s).unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(s.scaled_io_cost(&g, costs.load, costs.store), truth);
                }
            }
        }
    }
}

#[test]
fn memstate_answers_match_the_exact_search() {
    for (name, g) in [("chain", chain()), ("join", join())] {
        let root = g.sinks()[0];
        for b in budgets(&g) {
            // Eq. (8) stops at "root red": the exact optimum less the root
            // store.
            let truth = exact(&g, b, IoCosts::default()).map(|c| c - g.weight(root));
            let answer = memstate::min_cost(&g, b, &MemoryStates::none());
            assert_eq!(answer, truth, "{name} at b={b}");
            let ctx = memstate::plan(&g, b, &MemoryStates::none());
            assert_eq!(ctx.map(|c| c.cost), truth, "{name} at b={b}");
        }
    }
}

/// The daemon's miss path answers the join at its true cost, cost-only and
/// in full (load x, load y, compute s, store s, plus deletes).  At prices
/// (2, 2) that schedule would cost 6·2^62, which no `u64` holds.
#[test]
fn requests_answer_the_join_at_its_true_cost() {
    let g = AnyGraph::custom("join", join());
    let req = ScheduleRequest::new(&g, 3 * W, "kary");
    let cost_only = api::execute(&req.clone().with_cost_only(true)).expect("cost-only answer");
    assert_eq!(cost_only.cost(), 3 * W);
    let full = api::execute(&req).expect("full answer validates");
    assert_eq!(full.cost(), 3 * W);
    let schedule = full.schedule().expect("a full answer has moves");
    assert_eq!(schedule.scaled_io_cost(g.cdag(), 1, 1), Some(3 * W));
    assert_eq!(schedule.scaled_io_cost(g.cdag(), 2, 2), None);
}
